//! The hub's citation reads — `generate_citation`, `citation_entry`,
//! `credited_authors`, `find_repos_citing` and the creators of a
//! `deposit` — are served in place from the hosted repository, with each
//! repository's last parsed `citation.cite` memoised by blob id. The
//! claims under test: every write path leaves those reads answering for
//! the new tip (the memo is keyed by a content address, so nothing needs
//! invalidating), a deposit credits the deposited branch's authors, and
//! reads land in the hosted store's own object cache.

use citekit::{Citation, CitedRepo, MergeStrategy};
use gitlite::{path, RepoPath, Signature};
use hub::{Follower, Hub, HubClient, InProcess, Token};
use std::sync::Arc;

fn sig(t: i64) -> Signature {
    Signature::new("Ann Author", "ann@x", t)
}

fn cite(name: &str) -> Citation {
    Citation::builder(name, "Ann Author")
        .author("Ann Author")
        .build()
}

/// A hub hosting `ann/p` with two branches whose `citation.cite` blobs
/// differ: `main` cites `d/`, `dev` additionally cites `e/`.
fn two_branch_repo() -> (Hub, Token, String) {
    let hub = Hub::new("https://h");
    hub.register_user("ann", "Ann Author").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    for f in ["a.txt", "d/b.txt", "e/c.txt"] {
        local.write_file(&path(f), f.as_bytes().to_vec()).unwrap();
    }
    local.add_cite(&path("d"), cite("d-main")).unwrap();
    local.commit(sig(10), "files").unwrap();
    local.create_branch("dev").unwrap();
    local.checkout_branch("dev").unwrap();
    local.add_cite(&path("e"), cite("e-dev")).unwrap();
    local.commit(sig(20), "cite e").unwrap();
    let local = local.into_repository();
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    hub.push(&token, &repo_id, "dev", &local, "dev", false)
        .unwrap();
    (hub, token, repo_id)
}

/// What `generate_citation` and `citation_entry` must answer for `node`
/// at `branch`'s tip, worked out on a fresh clone checked out there.
fn expected(hub: &Hub, repo_id: &str, branch: &str, node: &str) -> (Citation, Option<Citation>) {
    let mut cited = CitedRepo::open(hub.clone_repo(repo_id).unwrap()).unwrap();
    cited.checkout_branch(branch).unwrap();
    let node = path(node);
    (
        cited.cite(&node).unwrap(),
        cited.function().get(&node).cloned(),
    )
}

/// Reads `node` on both branches, `other` last, so the memo ends up
/// holding `other`'s blob; checks `served` (the hub answering, possibly a
/// follower) against the oracle on `truth`; returns `branch`'s answer.
fn read(
    served: &Hub,
    truth: &Hub,
    repo_id: &str,
    branch: &str,
    other: &str,
    node: &str,
) -> Citation {
    let mut answer = None;
    for b in [branch, other] {
        let (generated, entry) = expected(truth, repo_id, b, node);
        assert_eq!(
            served.generate_citation(repo_id, b, &path(node)).unwrap(),
            generated,
            "generate_citation {b}:{node}"
        );
        assert_eq!(
            served.citation_entry(repo_id, b, &path(node)).unwrap(),
            entry,
            "citation_entry {b}:{node}"
        );
        answer.get_or_insert(generated);
    }
    answer.unwrap()
}

#[test]
fn every_write_path_leaves_citation_reads_fresh() {
    let (hub, token, repo_id) = two_branch_repo();
    let fresh =
        |branch: &str, other: &str, node: &str| read(&hub, &hub, &repo_id, branch, other, node);

    // modify_cite on main.
    let before = fresh("main", "dev", "d/b.txt");
    hub.modify_cite(&token, &repo_id, "main", &path("d"), cite("d-main-2"))
        .unwrap();
    let after = fresh("main", "dev", "d/b.txt");
    assert_ne!(before, after);
    assert_eq!(after.repo_name, "d-main-2");

    // add_cite on dev.
    let before = fresh("dev", "main", "a.txt");
    hub.add_cite(&token, &repo_id, "dev", &path("a.txt"), cite("a-dev"))
        .unwrap();
    let after = fresh("dev", "main", "a.txt");
    assert_ne!(before, after);
    assert_eq!(after.repo_name, "a-dev");

    // del_cite on dev: e/ falls back to the root citation.
    let before = fresh("dev", "main", "e/c.txt");
    hub.del_cite(&token, &repo_id, "dev", &path("e")).unwrap();
    let after = fresh("dev", "main", "e/c.txt");
    assert_ne!(before, after);
    assert_eq!(after.repo_name, "p");

    // A negotiated delta push onto main.
    let before = fresh("main", "dev", "d/b.txt");
    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    local.checkout_branch("main").unwrap();
    local.modify_cite(&path("d"), cite("d-pushed")).unwrap();
    local.commit(sig(1_000), "recite d").unwrap();
    HubClient::in_process(&hub)
        .push_negotiated(&token, &repo_id, "main", local.repo(), "main", false)
        .unwrap();
    let after = fresh("main", "dev", "d/b.txt");
    assert_ne!(before, after);
    assert_eq!(after.repo_name, "d-pushed");

    // merge_branches brings dev's a.txt citation onto main.
    let before = fresh("main", "dev", "a.txt");
    hub.merge_branches(&token, &repo_id, "main", "dev", MergeStrategy::Union)
        .unwrap();
    let after = fresh("main", "dev", "a.txt");
    assert_ne!(before, after);
    assert_eq!(after.repo_name, "a-dev");

    // A follower's replication round.
    let follower = Arc::new(Hub::new("https://follower"));
    let engine = Follower::new(
        Arc::clone(&follower),
        InProcess::new(&hub),
        "primary.local:7070",
        30,
    );
    engine.sync_once().unwrap();
    let before = read(&follower, &hub, &repo_id, "main", "dev", "d/b.txt");
    hub.modify_cite(&token, &repo_id, "main", &path("d"), cite("d-final"))
        .unwrap();
    engine.sync_once().unwrap();
    let after = read(&follower, &hub, &repo_id, "main", "dev", "d/b.txt");
    assert_ne!(before, after);
    assert_eq!(after.repo_name, "d-final");
}

#[test]
fn deposit_credits_the_deposited_branch() {
    let (hub, token, repo_id) = two_branch_repo();
    // The last cite op leaves the hosted checkout on dev.
    let mut root = cite("p");
    root.author_list = vec!["Dev Author".into()];
    hub.modify_cite(&token, &repo_id, "dev", &RepoPath::root(), root)
        .unwrap();

    let main = hub.deposit(&token, &repo_id, "main", "p main").unwrap();
    assert_eq!(main.creators, vec!["Ann Author".to_owned()]);
    let dev = hub.deposit(&token, &repo_id, "dev", "p dev").unwrap();
    assert_eq!(dev.creators, vec!["Dev Author".to_owned()]);
}

#[test]
fn credit_reads_answer_for_the_tip_across_a_push_to_the_head_branch() {
    // The hosted checkout stays on main, the repository's HEAD branch.
    let (hub, token, repo_id) = two_branch_repo();
    let check = |author: &str| {
        let mut cited = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
        cited.checkout_branch("main").unwrap();
        assert_eq!(
            hub.credited_authors(&repo_id, "main").unwrap(),
            cited.credited_authors()
        );
        let paths: Vec<RepoPath> = cited
            .function()
            .iter()
            .filter(|(_, e)| e.citation.author_list.iter().any(|a| a == author))
            .map(|(p, _)| p.clone())
            .collect();
        assert_eq!(
            hub.find_repos_citing(author).unwrap(),
            vec![(repo_id.clone(), paths)]
        );
    };
    check("Ann Author");

    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    local.checkout_branch("main").unwrap();
    let mut credited = cite("d-grace");
    credited.author_list = vec!["Grace".into(), "Ann Author".into()];
    local.modify_cite(&path("d"), credited).unwrap();
    local.commit(sig(2_000), "credit Grace").unwrap();
    hub.push(&token, &repo_id, "main", local.repo(), "main", false)
        .unwrap();
    check("Ann Author");
    check("Grace");
    assert_eq!(
        hub.find_repos_citing("Grace").unwrap()[0].1,
        vec![path("d")]
    );
}

#[test]
fn citation_reads_hit_the_hosted_object_cache() {
    let data_dir = std::env::temp_dir().join(format!("hub-cite-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let hub = Hub::with_pack_storage("https://h", &data_dir).unwrap();
    hub.register_user("ann", "Ann Author").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    let hits = || hub.store_stats(&repo_id).unwrap().cache.unwrap().hits;

    let before = hits();
    for _ in 0..20 {
        hub.generate_citation(&repo_id, "main", &path("citation.cite"))
            .unwrap();
    }
    let after = hits();
    assert!(
        after > before,
        "generate_citation reads missed the hosted cache ({before} -> {after} hits)"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}
