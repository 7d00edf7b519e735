//! Loopback socket tests: a real TCP round trip through
//! [`hub::SocketServer`] / [`hub::TcpTransport`] — a full
//! auth → push → clone → cite session over the wire, plus the
//! per-connection auth-token scoping guarantees.

use gitlite::{path, Signature};
use hub::{Hub, HubClient, HubError, SocketServer};
use std::sync::Arc;
use std::time::Duration;

fn serve() -> (Arc<Hub>, SocketServer) {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let server = SocketServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
    (hub, server)
}

#[test]
fn full_session_over_tcp() {
    let (_hub, server) = serve();
    let client = HubClient::connect(server.local_addr()).expect("connect");

    // auth
    client.register_user("ann", "Ann Author").unwrap();
    let token = client.login("ann").unwrap();
    assert_eq!(client.whoami(&token).unwrap().username, "ann");

    // create + push (negotiated v2 over the socket)
    let repo_id = client.create_repo(&token, "p").unwrap();
    let mut local = client.clone_repo(&repo_id).unwrap();
    local
        .worktree_mut()
        .write(&path("src/lib.rs"), &b"pub fn f() {}\n"[..])
        .unwrap();
    local
        .commit(Signature::new("Ann Author", "ann@x", 100), "add lib")
        .unwrap();
    for i in 0..5 {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        local
            .commit(
                Signature::new("Ann Author", "ann@x", 101 + i),
                format!("c{i}"),
            )
            .unwrap();
    }
    let tip = local.branch_tip("main").unwrap();
    assert_eq!(
        client
            .push(&token, &repo_id, "main", &local, "main", false)
            .unwrap(),
        tip
    );

    // clone back over the wire and compare
    let cloned = client.clone_repo(&repo_id).unwrap();
    assert_eq!(cloned.branch_tip("main").unwrap(), tip);
    assert_eq!(
        cloned.worktree().read_text(&path("src/lib.rs")).unwrap(),
        "pub fn f() {}\n"
    );

    // cite over the wire
    let citation = citekit::Citation::builder("core", "Ann Author")
        .author("Ann Author")
        .build();
    client
        .add_cite(&token, &repo_id, "main", &path("src/lib.rs"), citation)
        .unwrap();
    let served = client
        .generate_citation(&repo_id, "main", &path("src/lib.rs"))
        .unwrap();
    assert_eq!(served.repo_name, "core");

    // paginated reads over the wire
    let page = client.log_page(&repo_id, "main", None, Some(3)).unwrap();
    assert_eq!(page.items.len(), 3);
    assert!(page.next.is_some());

    server.shutdown();
}

#[test]
fn tokens_are_scoped_to_their_connection() {
    let (_hub, server) = serve();
    let conn_a = HubClient::connect(server.local_addr()).unwrap();
    conn_a.register_user("ann", "Ann").unwrap();
    let token = conn_a.login("ann").unwrap();
    conn_a.create_repo(&token, "p").unwrap();

    // The same (valid!) token is refused on a different connection.
    let conn_b = HubClient::connect(server.local_addr()).unwrap();
    assert!(matches!(conn_b.whoami(&token), Err(HubError::AuthFailed)));
    assert!(matches!(
        conn_b.create_repo(&token, "q"),
        Err(HubError::AuthFailed)
    ));
    // Anonymous reads on connection B still work.
    assert_eq!(conn_b.list_repos().unwrap(), vec!["ann/p".to_owned()]);
    // Connection A keeps using its token normally.
    assert_eq!(conn_a.whoami(&token).unwrap().username, "ann");
}

#[test]
fn disconnect_revokes_the_connection_tokens() {
    let (hub, server) = serve();
    let conn = HubClient::connect(server.local_addr()).unwrap();
    conn.register_user("ann", "Ann").unwrap();
    let token = conn.login("ann").unwrap();
    assert_eq!(hub.whoami(&token).unwrap().username, "ann");

    drop(conn); // hang up
                // The serving thread revokes on EOF; poll briefly for it.
    let mut revoked = false;
    for _ in 0..100 {
        if matches!(hub.whoami(&token), Err(HubError::AuthFailed)) {
            revoked = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(revoked, "token outlived its connection");
}

/// The in-process operator/test seams are not part of the network
/// surface: anyone who can reach the port must not skew the platform
/// clock or trigger a global gc sweep.
#[test]
fn operator_methods_are_refused_over_the_socket() {
    use hub::Transport;
    let (hub, server) = serve();
    let transport = hub::TcpTransport::connect(server.local_addr()).unwrap();
    let reply = transport.send(r#"{"v":3,"method":"advance_clock","params":{"ts":9000}}"#);
    assert!(reply.contains(r#""code":"permission_denied""#), "{reply}");
    let reply = transport.send(r#"{"v":3,"method":"maintenance","params":{}}"#);
    assert!(reply.contains(r#""code":"permission_denied""#), "{reply}");
    // The in-process operator path is untouched.
    hub.advance_clock_to(5);
    assert!(hub.maintenance().is_ok());
}

// ---------------------------------------------------------------------
// Overload shedding

fn serve_with(config: hub::ServerConfig) -> (Arc<Hub>, SocketServer) {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let server =
        SocketServer::bind_with(Arc::clone(&hub), "127.0.0.1:0", config).expect("bind loopback");
    (hub, server)
}

/// A client that surfaces the first refusal instead of retrying through
/// it — shedding assertions must observe `server_busy` itself.
fn no_retry_client(addr: std::net::SocketAddr) -> HubClient<hub::TcpTransport> {
    HubClient::new(hub::TcpTransport::connect(addr).unwrap()).with_retry_policy(hub::RetryPolicy {
        attempts: 1,
        base_delay_ms: 1,
        max_delay_ms: 1,
    })
}

#[test]
fn connections_over_the_cap_are_shed_with_server_busy() {
    let (hub, server) = serve_with(hub::ServerConfig {
        max_open_conns: 1,
        ..hub::ServerConfig::default()
    });
    let conn_a = no_retry_client(server.local_addr());
    conn_a.register_user("ann", "Ann").unwrap(); // forces the accept
    let conn_b = no_retry_client(server.local_addr());
    // The shed connection still negotiated framing; its first real
    // request is refused with the typed error and a retry-after hint,
    // and nothing it sent reached dispatch.
    assert!(matches!(
        conn_b.list_repos(),
        Err(HubError::ServerBusy { retry_after }) if retry_after >= 1
    ));
    let snap = hub.server_metrics(None).unwrap();
    let limits = snap.limits.expect("shed counter published");
    assert!(limits.conns_shed >= 1, "{limits:?}");

    // Capacity freed (conn_a hangs up) means new connections are served
    // again — degradation is graceful in both directions.
    drop(conn_a);
    let mut served = false;
    for _ in 0..200 {
        if no_retry_client(server.local_addr()).list_repos().is_ok() {
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(served, "server never recovered after load dropped");
    server.shutdown();
}

#[test]
fn per_ip_cap_sheds_the_connection_hog() {
    let (_hub, server) = serve_with(hub::ServerConfig {
        max_conns_per_ip: 2,
        ..hub::ServerConfig::default()
    });
    let conn_a = no_retry_client(server.local_addr());
    let conn_b = no_retry_client(server.local_addr());
    conn_a.register_user("ann", "Ann").unwrap();
    conn_b.register_user("bob", "Bob").unwrap();
    // Everything comes from 127.0.0.1, so the third connection trips
    // the per-IP cap even though the global cap is nowhere near.
    let conn_c = no_retry_client(server.local_addr());
    assert!(matches!(
        conn_c.list_repos(),
        Err(HubError::ServerBusy { .. })
    ));
    // The two under-cap connections keep working.
    assert_eq!(
        conn_a
            .whoami(&conn_a.login("ann").unwrap())
            .unwrap()
            .username,
        "ann"
    );
    assert_eq!(
        conn_b
            .whoami(&conn_b.login("bob").unwrap())
            .unwrap()
            .username,
        "bob"
    );
    server.shutdown();
}
