//! Chaos on the replication link: a follower pulls from its primary
//! through a [`ChaosProxy`] where **every** connection draws a seeded
//! fault (drop, stall, truncation, bit-garbling), and must still
//! converge to byte-identical refs and objects with zero corruption.
//!
//! The layers that make this hold are the ones under test: every call a
//! sync round makes (`repl_status`, `repl_fetch`, `audit_log_page`) is
//! idempotent, so the pull client retries them onto fresh connections;
//! a garbled envelope fails to parse into a typed `protocol` error and
//! fails the *round*, never the hub; and a damaged bundle is refused
//! wholesale by hash-verified insertion plus the connectivity walk, so
//! partial state never lands — the next round simply re-pulls.

use citekit::Citation;
use gitlite::{path, Signature};
use hub::{ChaosProxy, Follower, ProxyConfig, RepoBundle, SocketServer, TcpTransport};
use std::sync::Arc;
use std::time::Duration;

/// Sync rounds before the test declares the link dead. Each failed
/// round retries its faulted calls on fresh proxy connections, so the
/// odds of exhausting this honestly are astronomically small.
const ROUNDS: usize = 200;

/// Drives sync rounds through the chaos until one fully succeeds.
/// Returns how many rounds failed first.
fn replicate(engine: &Follower<TcpTransport>) -> usize {
    let mut failed = 0;
    for _ in 0..ROUNDS {
        match engine.sync_once() {
            Ok(_) => return failed,
            Err(_) => failed += 1,
        }
    }
    panic!("replication never completed a round within {ROUNDS} attempts");
}

/// The canonical byte-level state of one hosted repository, sorted so
/// two independently grown stores compare equal iff identical.
fn frontier(hub: &hub::Hub, repo_id: &str) -> RepoBundle {
    let repo = hub.clone_repo(repo_id).unwrap();
    let mut bundle = RepoBundle::from_repository(&repo).unwrap();
    bundle.refs.sort();
    bundle.objects.sort_by_key(|entry| entry.0);
    bundle
}

#[test]
fn follower_converges_byte_identically_through_total_chaos() {
    // The primary serves its socket cleanly; only the replication link
    // crosses the proxy, which faults every single connection.
    let primary = Arc::new(hub::Hub::new("https://primary.local"));
    let server = SocketServer::bind(Arc::clone(&primary), "127.0.0.1:0").expect("bind primary");
    let proxy = ChaosProxy::spawn(
        server.local_addr(),
        ProxyConfig {
            seed: 7,
            fault_rate: 1.0,
            stall: Duration::from_millis(25),
        },
    )
    .expect("spawn proxy");

    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    // The short IO timeout is the no-hang guarantee: a garbled length
    // prefix can leave the puller waiting for bytes the primary never
    // sent, and the timeout turns that into a typed error on a
    // connection the next attempt replaces.
    let transport = TcpTransport::connect(proxy.local_addr())
        .expect("dial proxy")
        .with_io_timeout(Some(Duration::from_millis(250)));
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        transport,
        server.local_addr().to_string(),
        30,
    );

    // register → push on the primary.
    primary.register_user("ann", "Ann Author").unwrap();
    let token = primary.login("ann").unwrap();
    let repo_id = primary.create_repo(&token, "p").unwrap();
    let mut local = primary.clone_repo(&repo_id).unwrap();
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
                Signature::new("Ann Author", "ann@x", 100 + i),
                format!("c{i}"),
            )
            .unwrap();
    }
    primary
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();

    // replicate: the bootstrap bundle fights its way through the chaos.
    let failed_bootstrap = replicate(&engine);
    assert_eq!(
        primary.audit_log().unwrap(),
        follower_hub.audit_log().unwrap(),
        "audit logs differ after bootstrap"
    );
    assert_eq!(
        frontier(&primary, &repo_id),
        frontier(&follower_hub, &repo_id),
        "bootstrap did not converge byte-identically"
    );

    // clone-from-follower: served locally, off the replica.
    let replica_clone = follower_hub.clone_repo(&repo_id).unwrap();
    assert_eq!(
        replica_clone
            .worktree()
            .read_text(&path("src/lib.rs"))
            .unwrap(),
        "pub fn f2() {}\n"
    );

    // cite on the primary, then one more chaotic catch-up round.
    primary
        .add_cite(
            &token,
            &repo_id,
            "main",
            &path("src/lib.rs"),
            Citation::builder("core", "Ann Author")
                .author("Ann Author")
                .build(),
        )
        .unwrap();
    let failed_catchup = replicate(&engine);
    assert_eq!(
        primary.audit_log().unwrap(),
        follower_hub.audit_log().unwrap()
    );
    assert_eq!(
        frontier(&primary, &repo_id),
        frontier(&follower_hub, &repo_id),
        "catch-up did not converge byte-identically"
    );
    // The replicated citation serves from the follower.
    let served = follower_hub
        .generate_citation(&repo_id, "main", &path("src/lib.rs"))
        .unwrap();
    assert_eq!(served.repo_name, "core");

    assert!(
        proxy.faults_injected() > 0,
        "the schedule injected no faults — the test proved nothing"
    );
    assert!(engine.state().rounds() >= 2, "both syncs completed");
    eprintln!(
        "chaos replication: {} faults injected, {} failed bootstrap rounds, {} failed catch-up rounds",
        proxy.faults_injected(),
        failed_bootstrap,
        failed_catchup
    );
    proxy.shutdown();
    server.shutdown();
}
