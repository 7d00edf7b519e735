//! Hub on durable packfile storage: server-side repositories created
//! through `Hub::with_pack_storage` live on `CachedStore<PackStore>`, so
//! pushed objects are durable on disk, survive maintenance repacks, and
//! keep serving clones and citation generation. An import lands as one
//! pack with a commit-graph, and a refused one writes no file at all.
//! What an import carries beyond its tips' closures is not kept.

use gitlite::{path, Commit, Object, ObjectId, ObjectStore, PackStore, Repository, Signature};
use hub::api::{ApiRequest, ApiResponse};
use hub::{Hub, RepoBundle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("hub-pack-storage-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn hosted_repos_persist_through_pack_storage() {
    let data_dir = temp_dir("hosted");
    let hub = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let repo_id = hub.create_repo(&token, "packed").unwrap();

    // Push a commit; its objects must land on disk, not just in memory.
    let mut local = hub.clone_repo(&repo_id).unwrap();
    local
        .worktree_mut()
        .write(&path("src/lib.rs"), &b"pub fn f() {}\n"[..])
        .unwrap();
    local
        .commit(Signature::new("The Owner", "o@x", 100), "server work")
        .unwrap();
    let tip = hub
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();

    let repo_root = data_dir.join("repo-0");
    let fresh = PackStore::open(&repo_root).unwrap();
    assert!(fresh.contains(tip), "pushed tip is durable on disk");

    // Server-side maintenance: repack the repository's store from another
    // handle, then make sure the hub still serves reads (the push handed
    // what it walked to the hub's object cache, and objects are
    // content-addressed, so the rewrite is invisible to it).
    let mut maintenance = PackStore::open(&repo_root).unwrap();
    let report = maintenance.gc(&[tip]).unwrap();
    assert!(report.packed > 0);
    assert_eq!(maintenance.loose_len(), 0);

    let clone = hub.clone_repo(&repo_id).unwrap();
    assert_eq!(clone.head_commit().unwrap(), tip);
    let citation = hub.generate_citation(&repo_id, "main", &path("src/lib.rs"));
    assert!(citation.is_ok());

    // gc also wrote the commit-graph sidecar; a reopened store serves
    // history walks from it.
    let graphed = PackStore::open(&repo_root).unwrap();
    let graph = graphed.commit_graph().expect("gc wrote a commit-graph");
    assert!(graph.contains(tip));

    // And a store reopened after the repack serves the same history.
    let reopened = PackStore::open(&repo_root).unwrap();
    assert!(reopened.contains(tip));
    assert_eq!(reopened.pack_count(), 1);

    // A later hub over the same data directory must not adopt (or clobber)
    // the previous run's repo-0: its first repository skips to repo-1.
    let hub2 = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
    hub2.register_user("owner", "The Owner").unwrap();
    let token2 = hub2.login("owner").unwrap();
    hub2.create_repo(&token2, "second-run").unwrap();
    assert!(data_dir.join("repo-1").exists());
    let untouched = PackStore::open(&repo_root).unwrap();
    assert!(untouched.contains(tip), "first run's objects are untouched");
    std::fs::remove_dir_all(&data_dir).unwrap();
}

#[test]
fn maintenance_builds_the_commit_graph_and_stats_report_it() {
    let data_dir = temp_dir("graph");
    let hub = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let repo_id = hub.create_repo(&token, "graphed").unwrap();

    // A few versions of history through the hub's own write paths.
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for i in 0..3 {
        local
            .worktree_mut()
            .write(&path(&format!("f{i}.txt")), format!("v{i}\n").into_bytes())
            .unwrap();
        local
            .commit(Signature::new("The Owner", "o@x", 100 + i), format!("V{i}"))
            .unwrap();
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    let log_before = hub.log(&repo_id, "main").unwrap();
    assert!(log_before.len() >= 4);

    // Before maintenance: no graph yet, stats say so.
    let stats = hub.store_stats(&repo_id).unwrap();
    assert_eq!(stats.graph_commits, None, "no graph before the first gc");

    // The hub's maintenance sweep runs PackStore::gc per repo, which now
    // also writes the commit-graph — and the refreshed handle serves the
    // log/credit/audit read paths from it.
    let sweep = hub.maintenance().unwrap();
    assert!(sweep.iter().all(|r| r.supported && r.error.is_none()));
    let stats = hub.store_stats(&repo_id).unwrap();
    assert_eq!(
        stats.graph_commits,
        Some(log_before.len() as u64),
        "stats report the graph covering the full history"
    );
    assert_eq!(
        hub.log(&repo_id, "main").unwrap(),
        log_before,
        "graph-served log is identical to the pre-graph one"
    );
    std::fs::remove_dir_all(&data_dir).unwrap();
}

/// Every file under `dir`, at any depth.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out
}

/// A three-commit history, each commit adding one file.
fn three_commits() -> Repository {
    let mut local = Repository::init("p");
    for i in 0..3 {
        local
            .worktree_mut()
            .write(&path(&format!("f{i}.txt")), format!("v{i}\n").into_bytes())
            .unwrap();
        local
            .commit(Signature::new("The Owner", "o@x", 100 + i), format!("V{i}"))
            .unwrap();
    }
    local
}

#[test]
fn an_import_lands_as_one_pack_with_a_commit_graph() {
    let data_dir = temp_dir("import");
    let hub = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let local = three_commits();
    let repo_id = hub.import_repo(&token, "p", local.clone()).unwrap();

    // One pack, its index and the commit-graph; nothing loose.
    let mut names: Vec<String> = files_under(&data_dir)
        .iter()
        .map(|p| p.strip_prefix(&data_dir).unwrap().display().to_string())
        .collect();
    names.sort();
    assert_eq!(names.len(), 3, "{names:?}");
    assert!(
        names[0].starts_with("repo-0/pack/commit-graph"),
        "{names:?}"
    );
    assert!(names[1].ends_with(".idx") && names[2].ends_with(".pack"));
    let store = PackStore::open(data_dir.join("repo-0")).unwrap();
    assert_eq!((store.pack_count(), store.loose_len()), (1, 0));
    let graph = store.commit_graph().expect("the import wrote a graph");
    assert_eq!(graph.len(), 3);
    assert_eq!(graph.bloom_coverage(), 0, "Bloom filters are a gc product");
    assert_eq!(hub.store_stats(&repo_id).unwrap().graph_commits, Some(3));

    let clone = hub.clone_repo(&repo_id).unwrap();
    assert_eq!(clone.head_commit().unwrap(), local.head_commit().unwrap());
    std::fs::remove_dir_all(&data_dir).unwrap();
}

#[test]
fn a_refused_import_writes_nothing() {
    let data_dir = temp_dir("refused");
    let hub = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let local = three_commits();
    // A hole: the first commit's tree is left out.
    let first = *local.log_head().unwrap().last().unwrap();
    let hole = local.odb().commit(first).unwrap().tree;
    let mut bundle = RepoBundle::from_repository(&local).unwrap();
    bundle.objects.retain(|(id, _)| *id != hole);

    let response = hub.dispatch(ApiRequest::ImportRepo {
        token: token.as_str().to_owned(),
        name: "p".into(),
        bundle,
    });
    match response {
        ApiResponse::Error(err) => assert!(err.message.contains(&hole.short()), "{err:?}"),
        other => panic!("a holed import must be refused, got {other:?}"),
    }
    assert_eq!(files_under(&data_dir), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&data_dir).unwrap();
}

#[test]
fn an_import_keeps_only_what_its_tips_reach() {
    let data_dir = temp_dir("unreached");
    let hub = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let local = three_commits();
    // An extra root commit no ref names, whose tree nobody carries.
    let absent_tree = ObjectId::hash_bytes(b"tree 0\0never sent");
    let extra = Object::Commit(Commit {
        tree: absent_tree,
        parents: vec![],
        author: Signature::new("The Owner", "o@x", 50),
        message: "unreached".into(),
    });
    let extra_id = extra.id();
    let mut bundle = RepoBundle::from_repository(&local).unwrap();
    bundle.objects.push((extra_id, extra.canonical_bytes()));
    let repo_id = match hub.dispatch(ApiRequest::ImportRepo {
        token: token.as_str().to_owned(),
        name: "p".into(),
        bundle,
    }) {
        ApiResponse::Id(id) => id,
        other => panic!("the tips' closures are complete, got {other:?}"),
    };
    let store = PackStore::open(data_dir.join("repo-0")).unwrap();
    assert!(!store.contains(extra_id));
    assert_eq!(store.commit_graph().unwrap().len(), 3);
    drop(store);

    // A push naming the unreached commit finds its closure missing.
    let push = hub.dispatch(ApiRequest::Push {
        token: token.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "side".into(),
        force: false,
        bundle: RepoBundle {
            name: "p".into(),
            head: None,
            refs: vec![("side".into(), extra_id)],
            objects: vec![],
            basis: vec![],
        },
    });
    match push {
        ApiResponse::Error(err) => assert!(err.message.contains(&extra_id.short()), "{err:?}"),
        other => panic!("a push onto a missing closure must be refused, got {other:?}"),
    }
    let clone = hub.clone_repo(&repo_id).unwrap();
    assert_eq!(clone.branches().count(), 1);
    assert_eq!(clone.head_commit().unwrap(), local.head_commit().unwrap());
    std::fs::remove_dir_all(&data_dir).unwrap();
}
