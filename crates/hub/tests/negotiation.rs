//! Push negotiation end to end: the have/want exchange, the delta
//! bundle's object count (the acceptance bar — an incremental push of N
//! new commits ships O(N) objects, not the branch closure), pagination
//! semantics, and the failure modes (unanchored deltas, delta imports).

use gitlite::{path, ObjectId, Signature};
use hub::api::RepoBundle;
use hub::{Hub, HubClient, HubError};
use std::collections::HashSet;

fn sig(t: i64) -> Signature {
    Signature::new("Ann", "ann@x", t)
}

/// Hub + signed-in owner + hosted repo seeded with `commits` commits on
/// main, and a local clone at the same tip.
fn seeded(commits: usize) -> (Hub, hub::Token, String, gitlite::Repository) {
    let hub = Hub::new("https://h");
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for i in 0..commits {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        local.commit(sig(100 + i as i64), format!("c{i}")).unwrap();
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    (hub, token, repo_id, local)
}

fn advance(local: &mut gitlite::Repository, n: usize, from: i64) {
    for i in 0..n {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("new {i}\n").into_bytes())
            .unwrap();
        local.commit(sig(from + i as i64), format!("n{i}")).unwrap();
    }
}

#[test]
fn negotiate_partitions_haves_by_reachability() {
    let (hub, _, repo_id, mut local) = seeded(5);
    let known = local.branch_tip("main").unwrap();
    advance(&mut local, 1, 1000);
    let unknown = local.branch_tip("main").unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client.negotiate(&repo_id, &[known, unknown]).unwrap();
    assert_eq!(reply.common, vec![known]);
    assert_eq!(reply.missing, vec![unknown]);
}

/// The acceptance bar: pushing N new commits onto a deep shared history
/// ships O(N) objects — commit + tree + changed blob each — while the
/// full bundle ships the entire closure.
#[test]
fn incremental_push_ships_o_of_n_objects() {
    const BASE: usize = 120;
    const NEW: usize = 10;
    let (hub, token, repo_id, mut local) = seeded(BASE);
    advance(&mut local, NEW, 10_000);
    let tip = local.branch_tip("main").unwrap();

    let full = RepoBundle::from_branch(&local, "main").unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client
        .negotiate(&repo_id, &local.first_parent_chain(tip).unwrap())
        .unwrap();
    let common: HashSet<ObjectId> = reply.common.into_iter().collect();
    let delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();

    // Each new commit lands one commit, one root tree and one blob.
    assert!(delta.is_delta());
    assert_eq!(delta.objects.len(), NEW * 3, "delta is not O(N)");
    // The full closure carries the whole history.
    assert!(
        full.objects.len() > BASE,
        "full bundle unexpectedly small: {}",
        full.objects.len()
    );
    assert!(delta.objects.len() * 10 < full.objects.len());

    // And the delta actually lands: the negotiated client push succeeds
    // and the hosted branch serves the new tip.
    let pushed = client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    assert_eq!(pushed, tip);
    assert_eq!(hub.log(&repo_id, "main").unwrap().len(), BASE + NEW + 1);
}

#[test]
fn negotiated_push_round_trips_content() {
    let (hub, token, repo_id, mut local) = seeded(20);
    local
        .worktree_mut()
        .write(&path("src/new.rs"), &b"pub fn f() {}\n"[..])
        .unwrap();
    advance(&mut local, 3, 5_000);
    let client = HubClient::in_process(&hub);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    assert_eq!(
        hub.read_file(&repo_id, "main", &path("src/new.rs"))
            .unwrap(),
        b"pub fn f() {}\n"
    );
}

#[test]
fn sync_skips_the_push_when_server_is_current() {
    let (hub, token, repo_id, mut local) = seeded(5);
    let client = HubClient::in_process(&hub);
    let tip = local.branch_tip("main").unwrap();
    let before = hub.audit_log().unwrap().len();
    // Server already has the tip: no push request is issued at all.
    assert_eq!(
        client
            .sync(&token, &repo_id, "main", &local, "main")
            .unwrap(),
        tip
    );
    let after = hub.audit_log().unwrap();
    assert!(
        !after[before..].iter().any(|e| e.action == "push"),
        "sync pushed despite an up-to-date server"
    );
    // Behind: sync pushes the delta.
    advance(&mut local, 2, 2_000);
    let new_tip = local.branch_tip("main").unwrap();
    assert_eq!(
        client
            .sync(&token, &repo_id, "main", &local, "main")
            .unwrap(),
        new_tip
    );
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, new_tip);
}

/// The tip being reachable from *some* branch is not "up to date": sync
/// must still advance the branch it was asked about.
#[test]
fn sync_pushes_when_tip_sits_on_another_branch() {
    let (hub, token, repo_id, mut local) = seeded(5);
    advance(&mut local, 2, 2_000);
    let tip = local.branch_tip("main").unwrap();
    let client = HubClient::in_process(&hub);
    // Land the tip on a side branch only: hosted "dev" has it, "main" lags.
    client
        .push(&token, &repo_id, "dev", &local, "main", false)
        .unwrap();
    assert_ne!(hub.log(&repo_id, "main").unwrap()[0].id, tip);
    // sync targets main — reachability via dev must not fool it.
    assert_eq!(
        client
            .sync(&token, &repo_id, "main", &local, "main")
            .unwrap(),
        tip
    );
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, tip);
    // And a branch the server has never seen is pushed into existence.
    assert_eq!(
        client
            .sync(&token, &repo_id, "feature", &local, "main")
            .unwrap(),
        tip
    );
    assert_eq!(hub.log(&repo_id, "feature").unwrap()[0].id, tip);
}

/// On pack-backed repositories whose commit-graph covers the tips (after
/// a maintenance sweep), negotiate answers from the graph — same
/// partition as the decode path.
#[test]
fn negotiate_answers_from_the_commit_graph_after_maintenance() {
    let dir = std::env::temp_dir().join(format!("gitcite-negotiate-graph-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hub = Hub::with_pack_storage("https://h", &dir).unwrap();
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for i in 0..25 {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        local.commit(sig(100 + i), format!("c{i}")).unwrap();
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    // Maintenance packs the store and writes the commit-graph.
    hub.maintenance().unwrap();
    assert!(hub
        .store_stats(&repo_id)
        .unwrap()
        .graph_commits
        .is_some_and(|n| n >= 25));

    let shared_tip = local.branch_tip("main").unwrap();
    advance(&mut local, 2, 2_000);
    let chain = local
        .first_parent_chain(local.branch_tip("main").unwrap())
        .unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client.negotiate(&repo_id, &chain).unwrap();
    assert_eq!(reply.missing.len(), 2, "the two new commits are missing");
    assert!(reply.common.contains(&shared_tip));
    assert_eq!(reply.common.len(), chain.len() - 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unanchored_delta_is_refused_before_touching_the_branch() {
    let (hub, token, repo_id, mut local) = seeded(5);
    let old_tip = hub.log(&repo_id, "main").unwrap()[0].id;
    advance(&mut local, 2, 2_000);
    // Fabricate a delta claiming a basis the server has never seen.
    let bogus = ObjectId::hash_bytes(b"never pushed");
    let mut common = HashSet::new();
    common.insert(local.branch_tip("main").unwrap());
    let mut delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    delta.basis = vec![bogus];
    let resp = hub.dispatch(hub::ApiRequest::Push {
        token: token.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "main".into(),
        force: false,
        bundle: delta,
    });
    assert!(matches!(
        resp.into_result(),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == bogus
    ));
    // The branch is untouched.
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, old_tip);
}

#[test]
fn short_delta_fails_connectivity_not_corruption() {
    let (hub, token, repo_id, mut local) = seeded(5);
    advance(&mut local, 3, 2_000);
    let chain = local
        .first_parent_chain(local.branch_tip("main").unwrap())
        .unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client.negotiate(&repo_id, &chain).unwrap();
    let common: HashSet<ObjectId> = reply.common.into_iter().collect();
    let mut delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    // Drop one middle commit object: the new tip's history has a hole.
    let victim = chain[1];
    delta.objects.retain(|(id, _)| *id != victim);
    let resp = hub.dispatch(hub::ApiRequest::Push {
        token: token.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "main".into(),
        force: false,
        bundle: delta,
    });
    assert!(matches!(
        resp.into_result(),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(_)))
    ));
    // The branch still serves its complete old history.
    assert_eq!(hub.log(&repo_id, "main").unwrap().len(), 6);
}

/// Serves `primary`, minus `victim` in every bundle it answers.
struct Holed<'h> {
    primary: &'h Hub,
    victim: ObjectId,
}

impl hub::Transport for Holed<'_> {
    fn send(&self, request: &str) -> String {
        self.primary.handle_wire(request)
    }

    fn exchange(&self, request: &hub::ApiRequest) -> hub::ApiResponse {
        match self.primary.dispatch(request.clone()) {
            hub::ApiResponse::Bundle(mut bundle) => {
                bundle.objects.retain(|(id, _)| *id != self.victim);
                hub::ApiResponse::Bundle(bundle)
            }
            other => other,
        }
    }
}

/// A full bundle missing the tree of a commit below its tip lands
/// nowhere: not as an import, not as a full push, not as a follower's
/// bootstrap. Each would leave a ref whose history cannot be read.
#[test]
fn holed_full_bundles_are_refused_everywhere() {
    let (hub, token, repo_id, mut local) = seeded(3);
    let old_tip = hub.log(&repo_id, "main").unwrap()[0].id;
    advance(&mut local, 3, 2_000);
    let chain = local
        .first_parent_chain(local.branch_tip("main").unwrap())
        .unwrap();
    // The middle new commit's tree: above the hosted tip, below the new one.
    let victim = local.tree_of(chain[1]).unwrap();
    let mut holed = RepoBundle::from_branch(&local, "main").unwrap();
    assert!(!holed.is_delta());
    holed.objects.retain(|(id, _)| *id != victim);
    let refused = |resp: hub::ApiResponse| {
        matches!(
            resp.into_result(),
            Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == victim
        )
    };

    // An import creates no repository.
    let import = hub.dispatch(hub::ApiRequest::ImportRepo {
        token: token.as_str().to_owned(),
        name: "holed".into(),
        bundle: holed.clone(),
    });
    assert!(refused(import));
    assert!(!hub.list_repos().unwrap().contains(&"ann/holed".to_owned()));

    // A full push leaves the branch where it was.
    let push = hub.dispatch(hub::ApiRequest::Push {
        token: token.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "main".into(),
        force: false,
        bundle: holed,
    });
    assert!(refused(push));
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, old_tip);

    // A follower bootstrapping from a primary that serves the hole holds
    // no repository afterwards.
    let primary = Hub::new("https://p");
    primary.register_user("ann", "Ann").unwrap();
    let owner = primary.login("ann").unwrap();
    let primary_id = primary.import_repo(&owner, "p", local.clone()).unwrap();
    let follower = std::sync::Arc::new(Hub::new("https://f"));
    let engine = hub::Follower::new(
        std::sync::Arc::clone(&follower),
        Holed {
            primary: &primary,
            victim,
        },
        "primary.local:1",
        30,
    );
    assert!(matches!(
        engine.sync_once(),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == victim
    ));
    let status = HubClient::in_process(&follower).repl_status().unwrap();
    assert!(status.repos.is_empty(), "follower holds {:?}", status.repos);
    assert!(primary.clone_repo(&primary_id).is_ok());
}

/// A refused push leaves its objects in the store. A delta that names
/// one of them as its basis is still proved complete, not trusted.
#[test]
fn basis_left_by_a_refused_push_is_walked_not_trusted() {
    let (hub, token, repo_id, mut local) = seeded(3);
    let old_tip = hub.log(&repo_id, "main").unwrap()[0].id;
    advance(&mut local, 3, 2_000);
    let chain = local
        .first_parent_chain(local.branch_tip("main").unwrap())
        .unwrap();
    let victim = local.tree_of(chain[1]).unwrap();
    let mut holed = RepoBundle::from_branch(&local, "main").unwrap();
    holed.objects.retain(|(id, _)| *id != victim);
    let push = |bundle: RepoBundle| {
        hub.dispatch(hub::ApiRequest::Push {
            token: token.as_str().to_owned(),
            repo_id: repo_id.clone(),
            branch: "main".into(),
            force: false,
            bundle,
        })
        .into_result()
    };
    let refused = |r: hub::Result<hub::ApiResponse>| {
        matches!(
            r,
            Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == victim
        )
    };
    assert!(refused(push(holed)));
    // The refused tip is in the store now; a delta claims it as basis.
    let common = HashSet::from([chain[0]]);
    let delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    assert_eq!(delta.basis, vec![chain[0]]);
    assert!(refused(push(delta)));
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, old_tip);
    assert!(hub.clone_repo(&repo_id).is_ok());
}

#[test]
fn delta_bundles_cannot_import_or_materialize() {
    let (hub, token, _, mut local) = seeded(3);
    advance(&mut local, 1, 2_000);
    let mut common = HashSet::new();
    common.insert(
        local
            .first_parent_chain(local.branch_tip("main").unwrap())
            .unwrap()[1],
    );
    let delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    assert!(delta.is_delta());
    // Standalone materialization refuses.
    assert!(matches!(
        delta.into_repository(Box::new(gitlite::MemStore::new())),
        Err(gitlite::GitError::ObjectNotFound(_))
    ));
    // Import refuses with bad_request.
    let resp = hub.dispatch(hub::ApiRequest::ImportRepo {
        token: token.as_str().to_owned(),
        name: "q".into(),
        bundle: delta,
    });
    assert!(matches!(resp.into_result(), Err(HubError::BadRequest(_))));
}

// ----- pagination ----------------------------------------------------------

#[test]
fn log_pages_are_stable_while_the_branch_advances() {
    let (hub, token, repo_id, mut local) = seeded(30);
    let client = HubClient::in_process(&hub);
    let full = hub.log(&repo_id, "main").unwrap();

    let first = client.log_page(&repo_id, "main", None, Some(10)).unwrap();
    assert_eq!(first.items.len(), 10);
    assert_eq!(first.items, full[..10]);
    let cursor = first.next.clone().expect("more pages");

    // A writer advances the branch between pages...
    advance(&mut local, 2, 3_000);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();

    // ...and the continuation still serves the pinned walk, no shifted
    // or duplicated entries.
    let mut rest = Vec::new();
    let mut cursor = Some(cursor);
    while let Some(c) = cursor {
        let page = client
            .log_page(&repo_id, "main", Some(&c), Some(10))
            .unwrap();
        rest.extend(page.items);
        cursor = page.next;
    }
    let mut all = first.items;
    all.extend(rest);
    assert_eq!(all, full);

    // A fresh walk sees the new commits.
    let fresh = client.log_page(&repo_id, "main", None, Some(10)).unwrap();
    assert_eq!(fresh.items[0].id, local.branch_tip("main").unwrap());
}

#[test]
fn audit_and_repo_listings_paginate() {
    let hub = Hub::new("https://h");
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    for name in ["a", "b", "c", "d", "e"] {
        hub.create_repo(&token, name).unwrap();
    }
    let client = HubClient::in_process(&hub);

    // Repo listing: 2 + 2 + 1, ordered, no repeats.
    let mut names = Vec::new();
    let mut cursor = None;
    loop {
        let page = client.list_repos_page(cursor.as_deref(), Some(2)).unwrap();
        assert!(page.items.len() <= 2);
        names.extend(page.items);
        match page.next {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    assert_eq!(names, hub.list_repos().unwrap());

    // Audit pages concatenate to the full log.
    let full = hub.audit_log().unwrap();
    let mut events = Vec::new();
    let mut cursor = None;
    loop {
        let page = client.audit_log_page(cursor.as_deref(), Some(3)).unwrap();
        events.extend(page.items);
        match page.next {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    assert_eq!(events, full);
}

#[test]
fn page_limits_are_clamped_and_bad_cursors_refused() {
    let (hub, _, repo_id, _) = seeded(3);
    let client = HubClient::in_process(&hub);
    // limit 0 falls back to the default instead of an infinite loop.
    let page = client.log_page(&repo_id, "main", None, Some(0)).unwrap();
    assert_eq!(page.items.len(), 4);
    assert!(page.next.is_none());
    // Garbage cursors are a typed bad_request, not a panic.
    assert!(matches!(
        client.log_page(&repo_id, "main", Some("not-a-cursor"), None),
        Err(HubError::BadRequest(_))
    ));
    assert!(matches!(
        client.audit_log_page(Some("x"), None),
        Err(HubError::BadRequest(_))
    ));
}
