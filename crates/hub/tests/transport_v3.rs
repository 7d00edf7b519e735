//! Socket tests for the length-prefixed framing: sessions through the
//! event-driven server, refusal of unframed bytes and old version stamps,
//! the hardening limits (frame caps, read timeouts), transport-closed
//! mapping, and batch envelopes over TCP.

use gitlite::{path, Signature};
use hub::transport::frame;
use hub::{
    ApiRequest, ApiResponse, ErrorCode, Hub, HubClient, HubError, ServerConfig, SocketServer,
    TcpTransport, Transport,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn serve() -> (Arc<Hub>, SocketServer) {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let server = SocketServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
    (hub, server)
}

#[test]
fn port_zero_resolves_to_a_real_port() {
    let (_hub, server) = serve();
    assert_ne!(server.local_addr().port(), 0);
}

/// The full session of `transport_tcp.rs` over the typed exchange:
/// bundles travel as compressed raw bytes, not hex.
#[test]
fn full_session_over_binary_framing() {
    let (_hub, server) = serve();
    let client = HubClient::connect(server.local_addr()).expect("connect");

    client.register_user("ann", "Ann Author").unwrap();
    let token = client.login("ann").unwrap();

    let repo_id = client.create_repo(&token, "p").unwrap();
    let mut local = client.clone_repo(&repo_id).unwrap();
    for i in 0..6 {
        local
            .worktree_mut()
            .write(&path("src/lib.rs"), format!("// rev {i}\n").into_bytes())
            .unwrap();
        local
            .commit(
                Signature::new("Ann Author", "ann@x", 100 + i),
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
    let cloned = client.clone_repo(&repo_id).unwrap();
    assert_eq!(cloned.branch_tip("main").unwrap(), tip);
    assert_eq!(
        cloned.worktree().read_text(&path("src/lib.rs")).unwrap(),
        "// rev 5\n"
    );
}

/// Envelopes stamped `"v":1` or `"v":2` inside a well-formed ENV frame
/// are refused with `protocol`, like any unparseable envelope, and the
/// connection stays up.
#[test]
fn old_version_stamps_in_env_frames_are_refused() {
    let (_hub, server) = serve();
    let transport = TcpTransport::connect(server.local_addr()).unwrap();
    for v in [1, 2] {
        let reply = transport.send(&format!(
            r#"{{"v":{v},"method":"list_repos_page","params":{{}}}}"#
        ));
        assert!(reply.contains(r#""code":"protocol""#), "{reply}");
        assert!(reply.contains("version"), "{reply}");
    }
    let reply = transport.send("not json");
    assert!(reply.contains(r#""code":"protocol""#), "{reply}");
    let reply = transport.send(r#"{"v":3,"method":"list_repos_page","params":{}}"#);
    assert!(reply.contains(r#""type":"names_page""#), "{reply}");
}

/// A server that goes away mid-session surfaces as the dedicated
/// transport-closed error, not a generic protocol failure.
#[test]
fn server_shutdown_maps_to_transport_closed() {
    let (hub, server) = serve();
    let client = HubClient::connect(server.local_addr()).unwrap();
    assert!(client.list_repos().unwrap().is_empty());
    server.shutdown(); // closes every connection
    let mut saw_closed = false;
    for _ in 0..100 {
        match client.list_repos() {
            Err(HubError::TransportClosed(msg)) => {
                assert!(!msg.is_empty());
                saw_closed = true;
                break;
            }
            // The close can race the next write; keep trying briefly.
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(saw_closed, "hangup never surfaced as TransportClosed");

    // The server kept its own books: the abrupt teardown the client just
    // observed shows up in the transport counters (trusted in-process
    // read — the socket is gone).
    let snapshot = hub.server_metrics(None).unwrap();
    let transport = snapshot.transport.expect("socket server registered gauges");
    assert!(
        transport.transport_closed >= 1,
        "shutdown under a live peer must count as an abrupt close, got {}",
        transport.transport_closed
    );
    assert_eq!(transport.open_connections, 0, "all gauges wound down");
}

/// An oversized binary frame is answered with a protocol error and the
/// connection is closed.
#[test]
fn oversized_frames_are_refused() {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let config = ServerConfig {
        max_frame_len: 128,
        ..ServerConfig::default()
    };
    let server = SocketServer::bind_with(Arc::clone(&hub), "127.0.0.1:0", config).unwrap();

    let transport = TcpTransport::connect(server.local_addr()).unwrap();
    // Small envelopes fit.
    let reply = transport.send(r#"{"v":3,"method":"list_repos_page","params":{}}"#);
    assert!(reply.contains(r#""type":"names_page""#), "{reply}");
    // An envelope past the cap gets a protocol error...
    let long = format!(
        r#"{{"v":3,"method":"login","params":{{"username":"{}"}}}}"#,
        "a".repeat(200)
    );
    let reply = transport.send(&long);
    assert!(reply.contains(r#""code":"protocol""#), "{reply}");
    assert!(reply.contains("exceeds"), "{reply}");
    // ...and the connection is then closed.
    let mut saw_closed = false;
    for _ in 0..100 {
        let reply = transport.send(r#"{"v":3,"method":"list_repos_page","params":{}}"#);
        if reply.contains(r#""code":"transport_closed""#) {
            saw_closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_closed, "connection survived a frame-limit violation");
}

/// Line framing is gone: a connection whose first byte is `{` — here an
/// oversized, never-ending line — is answered with a typed `protocol`
/// error frame and closed, whatever the frame cap.
#[test]
fn oversized_lines_are_refused() {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let config = ServerConfig {
        max_frame_len: 128,
        ..ServerConfig::default()
    };
    let server = SocketServer::bind_with(Arc::clone(&hub), "127.0.0.1:0", config).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // 300 bytes of an unterminated "line".
    stream.write_all(&[b'{'; 300]).unwrap();
    let (envelope, _) = frame::read_message(&mut stream).expect("error reply");
    assert!(envelope.contains(r#""code":"protocol""#), "{envelope}");
    // Close follows: EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
}

/// A connection stalled mid-request is timed out: error reply, then
/// close. Idle connections between requests are unaffected.
#[test]
fn stalled_partial_requests_time_out() {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = SocketServer::bind_with(Arc::clone(&hub), "127.0.0.1:0", config).unwrap();

    // Binary connection that starts a frame and stops: the header
    // promises 100 payload bytes, only 3 arrive.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&[frame::ENV, 0, 0, 0, 100, 1, 2, 3])
        .unwrap();
    let (envelope, _) = frame::read_message(&mut stream).expect("timeout reply");
    assert!(envelope.contains(r#""code":"protocol""#), "{envelope}");
    assert!(envelope.contains("timed out"), "{envelope}");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);

    // An idle connection with no partial request survives far past the
    // read timeout.
    let client = HubClient::connect(server.local_addr()).unwrap();
    assert!(client.list_repos().unwrap().is_empty());
    std::thread::sleep(Duration::from_millis(500));
    assert!(client.list_repos().unwrap().is_empty());
}

/// Batch envelopes over the socket: one round trip, per-item results,
/// and the per-item transport guards (token scoping, operator seams).
#[test]
fn batch_over_the_socket_guards_each_item() {
    let (_hub, server) = serve();
    let addr = server.local_addr();

    let conn_a = HubClient::connect(addr).unwrap();
    conn_a.register_user("ann", "Ann").unwrap();
    let token_a = conn_a.login("ann").unwrap();
    conn_a.create_repo(&token_a, "p").unwrap();

    let conn_b = HubClient::connect(addr).unwrap();
    conn_b.register_user("bob", "Bob").unwrap();
    let token_b = conn_b.login("bob").unwrap();

    // On connection B: its own token works, A's leaked token is refused,
    // an operator seam is refused, and an anonymous read sails through —
    // all in one envelope, each item judged alone.
    let responses = conn_b
        .batch(vec![
            ApiRequest::Whoami {
                token: token_b.as_str().to_owned(),
            },
            ApiRequest::Whoami {
                token: token_a.as_str().to_owned(),
            },
            ApiRequest::Maintenance,
            ApiRequest::ListReposPage {
                cursor: None,
                limit: None,
            },
        ])
        .unwrap();
    assert_eq!(responses.len(), 4);
    match &responses[0] {
        ApiResponse::User(u) => assert_eq!(u.username, "bob"),
        other => panic!("expected bob, got {other:?}"),
    }
    match &responses[1] {
        ApiResponse::Error(e) => assert_eq!(e.code, ErrorCode::AuthFailed),
        other => panic!("expected auth_failed, got {other:?}"),
    }
    match &responses[2] {
        ApiResponse::Error(e) => assert_eq!(e.code, ErrorCode::PermissionDenied),
        other => panic!("expected permission_denied, got {other:?}"),
    }
    match &responses[3] {
        ApiResponse::NamesPage(page) => assert_eq!(page.items, ["ann/p".to_owned()]),
        other => panic!("expected a names page, got {other:?}"),
    }
}

/// A batched login mints its token on the issuing connection, exactly
/// like a sequential one.
#[test]
fn batched_login_scopes_its_token() {
    let (_hub, server) = serve();
    let client = HubClient::connect(server.local_addr()).unwrap();
    client.register_user("ann", "Ann").unwrap();
    let responses = client
        .batch(vec![ApiRequest::Login {
            username: "ann".into(),
            secret: None,
        }])
        .unwrap();
    let token = match &responses[0] {
        ApiResponse::Token(t) => hub::Token::new(t.clone()),
        other => panic!("expected token, got {other:?}"),
    };
    // Minted in a batch, honored outside it — same connection.
    assert_eq!(client.whoami(&token).unwrap().username, "ann");
}

/// `server_metrics` over the socket is operator-scoped: an operator
/// token reads the counters, a plain member token and the tokenless
/// form are both refused.
#[test]
fn server_metrics_on_the_socket_requires_an_operator_token() {
    let (hub, server) = serve();
    hub.register_user("ops", "Ops").unwrap();
    hub.grant_operator("ops").unwrap();
    let addr = server.local_addr();

    let client = HubClient::connect(addr).unwrap();
    client.register_user("ann", "Ann").unwrap();
    let member = client.login("ann").unwrap();

    // A plain member token is refused.
    match client.server_metrics(Some(&member)) {
        Err(HubError::PermissionDenied(msg)) => assert!(msg.contains("operator"), "{msg}"),
        other => panic!("expected permission_denied, got {other:?}"),
    }
    // The tokenless (in-process trusted) form is refused over the wire.
    match client.server_metrics(None) {
        Err(HubError::PermissionDenied(msg)) => assert!(msg.contains("operator"), "{msg}"),
        other => panic!("expected permission_denied, got {other:?}"),
    }

    // An operator token on its own connection reads the snapshot, and the
    // method calls made above are already on the books.
    let ops_conn = HubClient::connect(addr).unwrap();
    let ops_token = ops_conn.login("ops").unwrap();
    let snapshot = ops_conn.server_metrics(Some(&ops_token)).unwrap();
    let login_calls: u64 = snapshot
        .methods
        .iter()
        .filter(|m| m.method == "login")
        .map(|m| m.calls)
        .sum();
    assert!(login_calls >= 2, "logins recorded, got {login_calls}");
    let transport = snapshot.transport.expect("socket gauges registered");
    assert!(transport.open_connections >= 2, "both connections counted");
    assert!(transport.bytes_in_binary > 0);
}

/// Interleaved pipelining on one binary connection: several requests
/// written before any reply is read come back in order.
#[test]
fn pipelined_binary_requests_are_answered_in_order() {
    let (_hub, server) = serve();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut burst = Vec::new();
    for name in ["ann", "bob", "cat"] {
        let req = ApiRequest::RegisterUser {
            username: name.into(),
            display_name: name.to_uppercase(),
            secret: None,
        };
        burst.extend_from_slice(&frame::encode_message(&req.encode(), &[]));
    }
    let list = ApiRequest::ListReposPage {
        cursor: None,
        limit: None,
    };
    burst.extend_from_slice(&frame::encode_message(&list.encode(), &[]));
    stream.write_all(&burst).unwrap();
    for _ in 0..3 {
        let (envelope, _) = frame::read_message(&mut stream).unwrap();
        assert!(envelope.contains(r#""type":"unit""#), "{envelope}");
    }
    let (envelope, _) = frame::read_message(&mut stream).unwrap();
    assert!(envelope.contains(r#""type":"names_page""#), "{envelope}");
}
