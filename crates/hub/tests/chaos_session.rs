//! Fault injection end to end: a client works through the socket-level
//! [`ChaosProxy`] (drops, stalls, truncation, bit-garbling on a seeded
//! schedule) and through the [`ChaosTransport`] wrapper (lost requests,
//! lost responses, synthesized busy refusals). The claims under test:
//! every fault degrades to a *typed* error — never a hang — retries are
//! bounded and only automatic for idempotent reads, and a session that
//! fights its way through register → push → clone → cite leaves zero
//! corrupted objects behind.

use gitlite::path;
use hub::{
    ChaosProxy, ChaosSchedule, ChaosTransport, Hub, HubClient, HubError, InProcess, ProxyConfig,
    RetryPolicy, SocketServer, TcpTransport, Token,
};
use std::sync::Arc;
use std::time::Duration;

/// Attempts per operation before the test declares a hang. Each failed
/// attempt lands on a fresh proxy connection (~half are fault-free), so
/// the odds of exhausting this honestly are astronomically small.
const ATTEMPTS: usize = 50;

fn serve() -> (Arc<Hub>, SocketServer) {
    let hub = Arc::new(Hub::new("https://hub.local"));
    let server = SocketServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
    (hub, server)
}

#[test]
fn retry_policy_retries_idempotent_reads_only() {
    let hub = Hub::new("https://hub.local");
    let schedule = ChaosSchedule {
        seed: 1,
        lose_request: 0.0,
        lose_response: 0.0,
        busy: 1.0,
    };
    let client = HubClient::new(ChaosTransport::new(InProcess::new(&hub), schedule))
        .with_retry_policy(RetryPolicy {
            attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 2,
        });
    // An idempotent read is retried to the attempt cap, then surfaces
    // the typed refusal.
    assert!(matches!(
        client.list_repos(),
        Err(HubError::ServerBusy { .. })
    ));
    assert_eq!(client.transport().fault_counts().2, 3, "3 busy refusals");
    // A write is never retried blindly: one attempt, one refusal.
    assert!(matches!(
        client.register_user("ann", "Ann"),
        Err(HubError::ServerBusy { .. })
    ));
    assert_eq!(client.transport().fault_counts().2, 4, "exactly one more");
}

#[test]
fn lost_responses_leave_the_server_side_effect_standing() {
    let hub = Hub::new("https://hub.local");
    let schedule = ChaosSchedule {
        seed: 1,
        lose_request: 0.0,
        lose_response: 1.0,
        busy: 0.0,
    };
    let client = HubClient::new(ChaosTransport::new(InProcess::new(&hub), schedule));
    // The register executes server-side; only the reply is swallowed.
    // This asymmetry is exactly why writes are excluded from automatic
    // retry: replaying one would double the effect.
    assert!(matches!(
        client.register_user("ann", "Ann"),
        Err(HubError::TransportClosed(_))
    ));
    assert!(hub.login("ann").is_ok(), "effect stood despite lost reply");
}

/// Retries `f` with a fresh login per attempt (tokens are
/// connection-scoped over TCP, and every severed connection revokes
/// its tokens), until `done` observes the effect on the hub directly.
fn until_visible(
    client: &HubClient<TcpTransport>,
    f: impl Fn(&Token) -> Result<(), HubError>,
    done: impl Fn() -> bool,
) {
    for _ in 0..ATTEMPTS {
        if done() {
            return;
        }
        if let Ok(token) = client.login("ann") {
            let _ = f(&token);
        }
    }
    assert!(
        done(),
        "operation did not take effect within {ATTEMPTS} bounded attempts"
    );
}

fn eventually<T>(mut f: impl FnMut() -> Result<T, HubError>) -> T {
    let mut last = None;
    for _ in 0..ATTEMPTS {
        match f() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("no success within {ATTEMPTS} bounded attempts (last error: {last:?})");
}

#[test]
fn chaotic_session_completes_with_zero_corruption() {
    let (hub, server) = serve();
    let proxy = ChaosProxy::spawn(
        server.local_addr(),
        // Every connection draws a fault: the session only completes by
        // exploiting that faults trigger at a byte offset (small
        // exchanges slip through before the sever) and by retrying onto
        // fresh connections.
        ProxyConfig {
            seed: 42,
            fault_rate: 1.0,
            stall: Duration::from_millis(25),
        },
    )
    .expect("spawn proxy");

    // Even the initial dial crosses the proxy, so it too gets retried.
    // The short IO timeout is the no-hang guarantee under garbling: a
    // flipped length-prefix byte can leave the client waiting for bytes
    // the server never sent, and the timeout turns that wait into a
    // typed transport_closed on a connection the next attempt replaces.
    let client = HubClient::new(
        eventually(|| {
            TcpTransport::connect(proxy.local_addr())
                .map_err(|e| HubError::TransportClosed(e.to_string()))
        })
        .with_io_timeout(Some(Duration::from_millis(250))),
    );

    // register — idempotence recovered at the application level: done
    // when the hub can log the user in, and a UserExists refusal on a
    // replayed attempt is success, not failure.
    for _ in 0..ATTEMPTS {
        match client.register_user("ann", "Ann Author") {
            Ok(()) | Err(HubError::UserExists(_)) => break,
            Err(_) => continue,
        }
    }
    assert!(hub.login("ann").is_ok(), "registration never landed");

    // create the hosted repository
    until_visible(
        &client,
        |t| client.create_repo(t, "p").map(|_| ()),
        || hub.list_repos().unwrap().contains(&"ann/p".to_owned()),
    );
    let repo_id = "ann/p".to_owned();

    // build local history on a clone pulled through the chaos
    let mut local = eventually(|| client.clone_repo(&repo_id));
    for i in 0..3 {
        local
            .worktree_mut()
            .write(
                &path("src/lib.rs"),
                format!("pub fn f{i}() {{}}\n").into_bytes(),
            )
            .unwrap();
        local
            .commit(
                gitlite::Signature::new("Ann Author", "ann@x", 100 + i),
                format!("c{i}"),
            )
            .unwrap();
    }
    let tip = local.branch_tip("main").unwrap();

    // push — a write, so never auto-retried; the loop replays it until
    // the hosted tip proves it landed (a reply lost after the server
    // applied the push also counts, caught by the postcondition).
    until_visible(
        &client,
        |t| {
            client
                .push(t, &repo_id, "main", &local, "main", false)
                .map(|_| ())
        },
        || {
            hub.clone_repo(&repo_id)
                .ok()
                .and_then(|r| r.branch_tip("main").ok())
                == Some(tip)
        },
    );

    // cite
    let citation = citekit::Citation::builder("core", "Ann Author")
        .author("Ann Author")
        .build();
    until_visible(
        &client,
        |t| {
            client
                .add_cite(t, &repo_id, "main", &path("src/lib.rs"), citation.clone())
                .map(|_| ())
        },
        || {
            // generate_citation synthesizes a root citation for uncited
            // paths, so only the stored entry proves the cite landed.
            matches!(
                hub.citation_entry(&repo_id, "main", &path("src/lib.rs")),
                Ok(Some(_))
            )
        },
    );

    // Clone back through the chaos and compare against the clean truth:
    // zero corrupted objects. (Integrity is enforced below the proxy —
    // length-prefixed frames refuse truncation, content addressing
    // refuses garbled objects — so a damaged transfer errors and is
    // retried rather than landing.)
    let chaotic_clone = eventually(|| client.clone_repo(&repo_id));
    // The cite committed server-side, so the hosted tip moved past the
    // pushed one; the clean in-process clone is the reference.
    let truth = hub.clone_repo(&repo_id).unwrap();
    assert_eq!(
        chaotic_clone.branch_tip("main").unwrap(),
        truth.branch_tip("main").unwrap()
    );
    assert_eq!(
        chaotic_clone
            .worktree()
            .read_text(&path("src/lib.rs"))
            .unwrap(),
        "pub fn f2() {}\n"
    );
    let served = eventually(|| client.generate_citation(&repo_id, "main", &path("src/lib.rs")));
    assert_eq!(served.repo_name, "core");

    assert!(
        proxy.faults_injected() > 0,
        "the schedule injected no faults — the test proved nothing"
    );
    proxy.shutdown();
    server.shutdown();
}
