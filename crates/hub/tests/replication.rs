//! Multi-hub replication ([`hub::repl`]): a follower hub pulls per-repo
//! deltas from a primary, serves replicated reads locally inside a
//! staleness bound, and refuses everything else with the typed
//! `not_primary` redirect that [`FleetTransport`] follows. The claims
//! under test: convergence is byte-identical (objects, refs, audit,
//! deposits), catch-up is incremental (deltas after the bootstrap, and
//! across an engine restart — the cursor is derived from local state,
//! not stored), writes during catch-up are picked up by the next round,
//! staleness is enforced, and operator seams stay refused on follower
//! sockets.

use citekit::Citation;
use gitlite::{path, Signature};
use hub::{
    ApiRequest, Follower, HubClient, HubError, InProcess, RepoBundle, SocketServer, TcpTransport,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn sig(t: i64) -> Signature {
    Signature::new("Ann Author", "ann@x", t)
}

/// A primary hub with one user and `repos` repositories of a few
/// commits each.
fn seeded_primary(repos: usize) -> (hub::Hub, hub::Token, Vec<String>) {
    let primary = hub::Hub::new("https://primary.local");
    primary.register_user("ann", "Ann Author").unwrap();
    let token = primary.login("ann").unwrap();
    let mut ids = Vec::new();
    for r in 0..repos {
        let repo_id = primary.create_repo(&token, &format!("p{r}")).unwrap();
        let mut local = primary.clone_repo(&repo_id).unwrap();
        for i in 0..3 {
            local
                .worktree_mut()
                .write(
                    &path("src/lib.rs"),
                    format!("pub fn r{r}v{i}() {{}}\n").into_bytes(),
                )
                .unwrap();
            local.commit(sig(100 + i), format!("c{i}")).unwrap();
        }
        primary
            .push(&token, &repo_id, "main", &local, "main", false)
            .unwrap();
        ids.push(repo_id);
    }
    (primary, token, ids)
}

/// The canonical byte-level frontier of one hosted repository: every
/// ref, every reachable object's canonical bytes, sorted so two
/// independently grown stores compare equal iff they hold identical
/// state.
fn frontier(hub: &hub::Hub, repo_id: &str) -> RepoBundle {
    let repo = hub.clone_repo(repo_id).unwrap();
    let mut bundle = RepoBundle::from_repository(&repo).unwrap();
    bundle.refs.sort();
    bundle.objects.sort_by_key(|entry| entry.0);
    bundle
}

fn assert_converged(primary: &hub::Hub, follower: &hub::Hub) {
    // Audit first: the frontier clones below record fresh `clone` audit
    // events on the primary, which the *next* round will replicate.
    assert_eq!(
        primary.audit_log().unwrap(),
        follower.audit_log().unwrap(),
        "audit logs differ"
    );
    let mut repos = primary.list_repos().unwrap();
    repos.sort();
    let mut replicated = follower.list_repos().unwrap();
    replicated.sort();
    assert_eq!(repos, replicated, "repo registries differ");
    for repo_id in &repos {
        assert_eq!(
            frontier(primary, repo_id),
            frontier(follower, repo_id),
            "refs/objects of {repo_id} are not byte-identical"
        );
    }
}

#[test]
fn follower_bootstraps_then_stays_incremental() {
    let (primary, token, ids) = seeded_primary(2);
    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        InProcess::new(&primary),
        "primary.local:7070",
        30,
    );

    // Bootstrap: both repositories arrive as full bundles, the audit
    // log and the logical epoch come along.
    let report = engine.sync_once().unwrap();
    assert_eq!(report.repos_checked, 2);
    assert_eq!(report.repos_synced, 2);
    assert_eq!(report.full_bundles, 2);
    assert_eq!(report.delta_bundles, 0);
    assert!(report.audit_ingested > 0, "audit log replicated");

    // An idle round moves nothing.
    let idle = engine.sync_once().unwrap();
    assert_eq!(idle.repos_synced, 0);
    assert_eq!(idle.audit_ingested, 0);
    assert_converged(&primary, &follower_hub);

    // Writes during catch-up: new commits on one repo, a feature branch
    // on the other, a cite, a deposit — the next round ships exactly
    // the difference, as deltas, never as a re-bootstrap.
    let mut local = primary.clone_repo(&ids[0]).unwrap();
    local
        .worktree_mut()
        .write(&path("src/new.rs"), &b"pub fn newer() {}\n"[..])
        .unwrap();
    local.commit(sig(200), "newer").unwrap();
    primary
        .push(&token, &ids[0], "main", &local, "main", false)
        .unwrap();
    let mut feature = primary.clone_repo(&ids[1]).unwrap();
    feature.create_branch("feature").unwrap();
    feature.checkout_branch("feature").unwrap();
    feature
        .worktree_mut()
        .write(&path("src/feat.rs"), &b"pub fn feat() {}\n"[..])
        .unwrap();
    feature.commit(sig(201), "feat").unwrap();
    primary
        .push(&token, &ids[1], "feature", &feature, "feature", false)
        .unwrap();
    primary
        .add_cite(
            &token,
            &ids[0],
            "main",
            &path("src/new.rs"),
            Citation::builder("p0", "Ann Author")
                .author("Ann Author")
                .build(),
        )
        .unwrap();
    let deposit = primary.deposit(&token, &ids[0], "main", "P0 v1").unwrap();

    let delta = engine.sync_once().unwrap();
    assert_eq!(delta.repos_synced, 2);
    assert_eq!(delta.full_bundles, 0, "catch-up must not re-bootstrap");
    assert_eq!(delta.delta_bundles, 2);
    assert!(delta.audit_ingested > 0);
    assert_eq!(delta.deposits_ingested, 1);
    assert_converged(&primary, &follower_hub);

    // The replicated deposit resolves locally; the replicated branch
    // and citation serve locally.
    assert_eq!(
        follower_hub.resolve_doi(&deposit.doi).unwrap(),
        primary.resolve_doi(&deposit.doi).unwrap()
    );
    assert!(follower_hub
        .branches(&ids[1])
        .unwrap()
        .contains(&"feature".to_owned()));
    let cited = follower_hub
        .generate_citation(&ids[0], "main", &path("src/new.rs"))
        .unwrap();
    assert_eq!(cited.repo_name, "p0");

    // Lag metrics surface through server_metrics.
    let state = engine.state();
    assert_eq!(state.primary(), "primary.local:7070");
    assert_eq!(state.rounds(), 3);
    assert_eq!(state.reconnects(), 0);
    let metrics = follower_hub.server_metrics(None).unwrap();
    let repl = metrics.repl.expect("follower exports a repl section");
    assert_eq!(repl.primary, "primary.local:7070");
    assert!(repl.lag_seconds >= 0, "synced: lag is a real number");
    assert_eq!(repl.repos_behind, 0);
    assert_eq!(repl.rounds, 3);
    // A primary exports no repl section at all.
    assert!(primary.server_metrics(None).unwrap().repl.is_none());
}

#[test]
fn engine_restart_resumes_incrementally_and_lost_state_rebootstraps_safely() {
    let (primary, token, ids) = seeded_primary(1);
    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    {
        let engine = Follower::new(
            Arc::clone(&follower_hub),
            InProcess::new(&primary),
            "primary.local:7070",
            30,
        );
        engine.sync_once().unwrap();
    } // engine dropped: simulates a replication-link restart

    // The primary moves on while no engine is attached.
    let mut local = primary.clone_repo(&ids[0]).unwrap();
    local
        .worktree_mut()
        .write(&path("src/later.rs"), &b"pub fn later() {}\n"[..])
        .unwrap();
    local.commit(sig(300), "later").unwrap();
    primary
        .push(&token, &ids[0], "main", &local, "main", false)
        .unwrap();

    // A fresh engine over the same hub state derives its cursor from
    // the follower's own branch tips and audit length — catch-up is a
    // delta and an audit tail, not a re-bootstrap.
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        InProcess::new(&primary),
        "primary.local:7070",
        30,
    );
    let resumed = engine.sync_once().unwrap();
    assert_eq!(resumed.full_bundles, 0, "restart must resume incrementally");
    assert_eq!(resumed.delta_bundles, 1);
    assert!(resumed.audit_ingested > 0);
    assert_converged(&primary, &follower_hub);

    // A follower that lost its state entirely (fresh process, empty
    // registry) re-bootstraps from nothing to the same bytes — the
    // derived cursor can never disagree with the data it describes.
    let blank = Arc::new(hub::Hub::new("https://follower2.local"));
    let engine2 = Follower::new(
        Arc::clone(&blank),
        InProcess::new(&primary),
        "primary.local:7070",
        30,
    );
    let boot = engine2.sync_once().unwrap();
    assert_eq!(boot.full_bundles, 1);
    assert_converged(&primary, &blank);
}

#[test]
fn follower_refuses_writes_and_unreplicated_reads_with_the_primary_address() {
    let (primary, _token, ids) = seeded_primary(1);
    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    // A locally provisioned account (the CLI's operator bootstrap) may
    // still log in; it must be created before follower mode flips on.
    follower_hub.register_user("op", "Operator").unwrap();
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        InProcess::new(&primary),
        "primary.local:7070",
        30,
    );
    engine.sync_once().unwrap();

    let client = HubClient::in_process(&follower_hub);
    let redirected = |err: HubError| match err {
        HubError::NotPrimary { primary } => assert_eq!(primary, "primary.local:7070"),
        other => panic!("expected not_primary, got {other:?}"),
    };

    // Writes redirect...
    redirected(client.register_user("bob", "Bob").unwrap_err());
    let op = client.login("op").unwrap(); // local account: served
    redirected(client.create_repo(&op, "nope").unwrap_err());
    let local = primary.clone_repo(&ids[0]).unwrap();
    redirected(
        client
            .push(&op, &ids[0], "main", &local, "main", false)
            .unwrap_err(),
    );
    redirected(
        client
            .add_cite(
                &op,
                &ids[0],
                "main",
                &path("src/lib.rs"),
                Citation::builder("p0", "A").build(),
            )
            .unwrap_err(),
    );
    redirected(client.deposit(&op, &ids[0], "main", "t").unwrap_err());
    // ...and so do reads whose truth lives only on the primary: roles
    // are not replicated, archive state is per-hub.
    redirected(client.role_of(&ids[0], "ann").unwrap_err());
    redirected(client.can_write(&op, &ids[0]).unwrap_err());
    redirected(client.archive(&ids[0]).unwrap_err());
    // An account the follower does not hold cannot mint tokens here.
    redirected(client.login("ann").unwrap_err());

    // Replicated reads are served locally.
    assert_eq!(client.list_repos().unwrap(), vec![ids[0].clone()]);
    assert!(client.log(&ids[0], "main").unwrap().len() >= 3);
}

#[test]
fn staleness_bound_gates_replicated_reads() {
    let (primary, _token, ids) = seeded_primary(1);
    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    // Staleness bound 0: reads are served only in the wall-clock second
    // of a successful sync round.
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        InProcess::new(&primary),
        "primary.local:7070",
        0,
    );
    let client = HubClient::in_process(&follower_hub);

    // Before the first sync a follower has nothing trustworthy to say:
    // even list_repos redirects, and lag reads as "never synced".
    assert!(matches!(
        client.list_repos().unwrap_err(),
        HubError::NotPrimary { .. }
    ));
    assert_eq!(engine.state().lag_seconds(hub_now()), -1);

    engine.sync_once().unwrap();
    assert_eq!(client.list_repos().unwrap(), vec![ids[0].clone()]);

    // Fall outside the bound: the same read redirects again...
    std::thread::sleep(Duration::from_millis(1100));
    assert!(matches!(
        client.list_repos().unwrap_err(),
        HubError::NotPrimary { .. }
    ));
    // ...until the next round refreshes the staleness clock.
    engine.sync_once().unwrap();
    assert_eq!(client.list_repos().unwrap(), vec![ids[0].clone()]);
}

/// Wall-clock seconds, mirroring the follower's staleness clock.
fn hub_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// Calls on one primary method so far, per the primary's own
/// `server_metrics`.
fn primary_calls(primary: &hub::Hub, method: &str) -> u64 {
    primary
        .server_metrics(None)
        .unwrap()
        .methods
        .iter()
        .find(|m| m.method == method)
        .map(|m| m.calls)
        .unwrap_or(0)
}

#[test]
fn fleet_client_reads_from_the_follower_and_routes_writes_to_the_primary() {
    // Real sockets end to end: the not_primary redirect carries a
    // dialable address, and FleetTransport follows it.
    let (primary, _token, ids) = seeded_primary(1);
    let primary = Arc::new(primary);
    let primary_server =
        SocketServer::bind(Arc::clone(&primary), "127.0.0.1:0").expect("bind primary");
    let primary_addr = primary_server.local_addr().to_string();

    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        TcpTransport::connect(&*primary_addr).expect("dial primary"),
        primary_addr.clone(),
        30,
    );
    engine.sync_once().unwrap();
    let follower_server =
        SocketServer::bind(Arc::clone(&follower_hub), "127.0.0.1:0").expect("bind follower");

    let fleet = HubClient::new(hub::FleetTransport::new(
        TcpTransport::connect(follower_server.local_addr()).expect("dial follower"),
        |addr: &str| {
            addr.parse::<SocketAddr>()
                .ok()
                .and_then(|a| TcpTransport::connect(a).ok())
        },
    ));

    // A brand-new account: register and login both redirect (accounts
    // live on the primary), transparently.
    fleet.register_user("bob", "Bob Builder").unwrap();
    let token = fleet.login("bob").unwrap();
    assert_eq!(
        fleet.transport().primary_addr().as_deref(),
        Some(&*primary_addr),
        "the advertised primary was dialed and cached"
    );

    // Reads ride the follower: the primary sees no log_page traffic.
    let before = primary_calls(&primary, "log_page");
    let page = fleet.log_page(&ids[0], "main", None, Some(1)).unwrap();
    assert_eq!(primary_calls(&primary, "log_page"), before);

    // sync() short-circuit: tips match, so the whole exchange is one
    // follower-served log_page — the primary is not touched at all.
    let mut local = fleet.clone_repo(&ids[0]).unwrap();
    let tip = local.branch_tip("main").unwrap();
    assert_eq!(page.items[0].id, tip);
    let (lp, push) = (
        primary_calls(&primary, "log_page"),
        primary_calls(&primary, "push"),
    );
    // bob may push: make him a member first (routed to the primary).
    let ann = fleet.login("ann").unwrap();
    fleet
        .add_member(&ann, &ids[0], "bob", hub::Role::Member)
        .unwrap();
    assert_eq!(
        fleet.sync(&token, &ids[0], "main", &local, "main").unwrap(),
        tip
    );
    assert_eq!(primary_calls(&primary, "log_page"), lp);
    assert_eq!(primary_calls(&primary, "push"), push, "primary untouched");

    // Now the local copy is ahead: the follower's stale answer routes
    // sync() into a push, which redirects to the primary and lands.
    local
        .worktree_mut()
        .write(&path("src/bob.rs"), &b"pub fn bob() {}\n"[..])
        .unwrap();
    local
        .commit(Signature::new("Bob Builder", "bob@x", 400), "bob work")
        .unwrap();
    let new_tip = local.branch_tip("main").unwrap();
    assert_eq!(
        fleet.sync(&token, &ids[0], "main", &local, "main").unwrap(),
        new_tip
    );
    assert_eq!(primary_calls(&primary, "push"), push + 1);
    assert_eq!(
        primary
            .clone_repo(&ids[0])
            .unwrap()
            .branch_tip("main")
            .unwrap(),
        new_tip
    );

    // The next sync round replicates bob's push back to the follower.
    engine.sync_once().unwrap();
    assert_eq!(
        fleet
            .log_page(&ids[0], "main", None, Some(1))
            .unwrap()
            .items[0]
            .id,
        new_tip
    );

    follower_server.shutdown();
    primary_server.shutdown();
}

#[test]
fn operator_seams_stay_refused_on_follower_sockets() {
    let (primary, _token, _ids) = seeded_primary(1);
    let follower_hub = Arc::new(hub::Hub::new("https://follower.local"));
    let engine = Follower::new(
        Arc::clone(&follower_hub),
        InProcess::new(&primary),
        "primary.local:7070",
        30,
    );
    engine.sync_once().unwrap();
    let server =
        SocketServer::bind(Arc::clone(&follower_hub), "127.0.0.1:0").expect("bind follower");
    let client = HubClient::connect(server.local_addr()).expect("dial follower");

    // The same socket hardening a primary gets: clock and maintenance
    // seams are never remote-callable, metrics demand an operator token.
    assert!(
        client.maintenance().is_err(),
        "maintenance refused on sockets"
    );
    assert!(matches!(
        client.call(ApiRequest::AdvanceClock { ts: 9_999 }),
        Err(HubError::PermissionDenied(_))
    ));
    assert!(
        client.server_metrics(None).is_err(),
        "metrics need an operator"
    );

    // But the replication endpoints stay anonymously readable — a
    // follower must itself be clonable by a further replica.
    let status = client.repl_status().unwrap();
    assert_eq!(status.repos.len(), 1);
    server.shutdown();
}
