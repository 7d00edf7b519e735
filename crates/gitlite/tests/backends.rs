//! Backend-equivalence suite: every `ObjectStore` backend must give the
//! `Repository` identical behavior — same commit ids, same logs, same
//! snapshots, same file contents, same merge results — because object ids
//! are content addresses and the repository only ever talks to the trait.

use gitlite::{
    clone_repository, merge_base, merge_trees, path, push, CachedStore, DiskStore, MemStore,
    MergeLabels, Object, ObjectId, ObjectStore, PackStore, Repository, Signature,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gitlite-backends-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sig(name: &str, t: i64) -> Signature {
    Signature::new(name, format!("{name}@example.org"), t)
}

/// A deterministic multi-branch scenario: three commits on main, a `gui`
/// branch with two commits (one renaming a file), and a merge back.
/// Returns the repo plus the commit ids it produced.
fn run_scenario(mut repo: Repository) -> (Repository, Vec<ObjectId>) {
    let mut commits = Vec::new();
    repo.worktree_mut()
        .write(&path("README.md"), &b"# proj\n"[..])
        .unwrap();
    repo.worktree_mut()
        .write(&path("src/main.rs"), &b"fn main() {}\n"[..])
        .unwrap();
    commits.push(repo.commit(sig("alice", 1), "V1").unwrap());

    repo.worktree_mut()
        .write(&path("src/util.rs"), &b"pub fn u() {}\n"[..])
        .unwrap();
    commits.push(repo.commit(sig("alice", 2), "V2").unwrap());

    repo.create_branch("gui").unwrap();
    repo.checkout_branch("gui").unwrap();
    repo.worktree_mut()
        .write(&path("gui/app.js"), &b"render()\n"[..])
        .unwrap();
    commits.push(repo.commit(sig("yanssie", 3), "gui work").unwrap());
    repo.worktree_mut()
        .rename(&path("gui/app.js"), &path("gui/main.js"))
        .unwrap();
    commits.push(repo.commit(sig("yanssie", 4), "rename app").unwrap());

    repo.checkout_branch("main").unwrap();
    repo.worktree_mut()
        .write(&path("src/main.rs"), &b"fn main() { run() }\n"[..])
        .unwrap();
    commits.push(repo.commit(sig("alice", 5), "main work").unwrap());

    let (ours, theirs) = (repo.head_commit().unwrap(), repo.branch_tip("gui").unwrap());
    let base = merge_base(repo.odb(), ours, theirs).unwrap().unwrap();
    let [b, o, t] =
        [base, ours, theirs].map(|c| repo.odb().tree(repo.tree_of(c).unwrap()).unwrap());
    let labels = MergeLabels {
        ours: "main",
        base: "base",
        theirs: "gui",
    };
    let (tree, conflicts) = merge_trees(repo.odb_mut(), &b, &o, &t, labels).unwrap();
    assert!(
        conflicts.is_empty(),
        "expected a clean merge, got {conflicts:?}"
    );
    let tree = repo.odb_mut().put(Object::Tree(tree));
    let merged = repo.commit_merge(tree, vec![ours, theirs], sig("alice", 6), "merge gui");
    commits.push(merged.unwrap());
    (repo, commits)
}

fn observe(repo: &Repository) -> (Vec<ObjectId>, BTreeMap<String, String>, usize) {
    let log = repo.log_head().unwrap();
    let snapshot = repo.snapshot(repo.head_commit().unwrap()).unwrap();
    let files: BTreeMap<String, String> = snapshot
        .keys()
        .map(|p| {
            let data = repo.file_at(repo.head_commit().unwrap(), p).unwrap();
            (p.to_string(), String::from_utf8_lossy(&data).into_owned())
        })
        .collect();
    (log, files, repo.odb().len())
}

#[test]
fn all_backends_produce_identical_repositories() {
    let disk_dir = temp_dir("equiv-disk");
    let cached_dir = temp_dir("equiv-cached");
    let pack_dir = temp_dir("equiv-pack");
    let cached_pack_dir = temp_dir("equiv-cached-pack");

    let (mem_repo, mem_commits) = run_scenario(Repository::init("proj"));
    let (disk_repo, disk_commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(DiskStore::open(&disk_dir).unwrap()),
    ));
    let (pack_repo, pack_commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(PackStore::open(&pack_dir).unwrap()),
    ));
    let (cached_disk_repo, cached_disk_commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(CachedStore::with_capacity(
            DiskStore::open(&cached_dir).unwrap(),
            16,
        )),
    ));
    let (cached_pack_repo, cached_pack_commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(CachedStore::with_capacity(
            PackStore::open(&cached_pack_dir).unwrap(),
            16,
        )),
    ));
    let (cached_mem_repo, cached_mem_commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(CachedStore::new(MemStore::new())),
    ));

    // Content addressing: the same edits yield the same commit ids on
    // every backend.
    assert_eq!(mem_commits, disk_commits);
    assert_eq!(mem_commits, pack_commits);
    assert_eq!(mem_commits, cached_disk_commits);
    assert_eq!(mem_commits, cached_pack_commits);
    assert_eq!(mem_commits, cached_mem_commits);

    let reference = observe(&mem_repo);
    for repo in [
        &disk_repo,
        &pack_repo,
        &cached_disk_repo,
        &cached_pack_repo,
        &cached_mem_repo,
    ] {
        assert_eq!(observe(repo), reference);
    }

    std::fs::remove_dir_all(&disk_dir).unwrap();
    std::fs::remove_dir_all(&cached_dir).unwrap();
    std::fs::remove_dir_all(&pack_dir).unwrap();
    std::fs::remove_dir_all(&cached_pack_dir).unwrap();
}

#[test]
fn pack_backed_history_survives_repack_gc_and_reopen() {
    let dir = temp_dir("pack-reopen");
    let (repo, commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(PackStore::open(&dir).unwrap()),
    ));
    let reference = observe(&repo);
    let head = repo.head_commit().unwrap();
    let gui_tip = repo.branch_tip("gui").unwrap();
    drop(repo);

    // Consolidate the loose objects into a pack, keeping both branches.
    let mut store = PackStore::open(&dir).unwrap();
    let report = store.gc(&[head, gui_tip]).unwrap();
    assert_eq!(report.dropped, 0, "everything is reachable from the tips");
    assert_eq!(store.loose_len(), 0);
    drop(store);

    // A fresh handle over the packed layout sees the whole DAG.
    let mut reopened = Repository::init_with("proj", Box::new(PackStore::open(&dir).unwrap()));
    reopened.set_branch("main", head).unwrap();
    reopened.checkout_branch("main").unwrap();
    assert_eq!(observe(&reopened), reference);
    assert_eq!(reopened.log_head().unwrap().len(), commits.len());

    // New commits overflow loose on top of the pack, and both layers
    // compose into one complete closure.
    reopened
        .worktree_mut()
        .write(&path("post-gc.txt"), &b"fresh\n"[..])
        .unwrap();
    let tip = reopened.commit(sig("alice", 20), "post gc").unwrap();
    let closure = reopened.odb().reachable_closure(&[tip]).unwrap();
    assert!(closure.len() > commits.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_backed_history_survives_reopen() {
    let dir = temp_dir("reopen");
    let (repo, commits) = run_scenario(Repository::init_with(
        "proj",
        Box::new(DiskStore::open(&dir).unwrap()),
    ));
    let reference = observe(&repo);
    let head = repo.head_commit().unwrap();
    drop(repo);

    // A fresh handle over the same objects directory sees the whole DAG.
    let mut reopened = Repository::init_with("proj", Box::new(DiskStore::open(&dir).unwrap()));
    reopened.set_branch("main", head).unwrap();
    reopened.checkout_branch("main").unwrap();
    assert_eq!(observe(&reopened), reference);
    assert_eq!(reopened.log_head().unwrap().len(), commits.len());

    // And the reachable closure is complete (no missing objects on disk).
    let closure = reopened.odb().reachable_closure(&[head]).unwrap();
    assert_eq!(closure.len(), reopened.odb().len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pseudorandom_worktrees_round_trip_through_disk() {
    // A cheap LCG drives a few dozen randomized worktrees; everything a
    // memory-backed repo commits must read back identically through disk.
    let dir = temp_dir("fuzz");
    let mut state = 0xdead_beefu64;
    let mut rand = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    for round in 0..24 {
        let sub = dir.join(format!("round{round}"));
        let mut mem = Repository::init("fuzz");
        let mut disk = Repository::init_with("fuzz", Box::new(DiskStore::open(&sub).unwrap()));
        for f in 0..(1 + rand(8)) {
            let p = path(&format!("d{}/f{f}.txt", rand(3)));
            let content = format!("content {} of {p}\n", rand(1000));
            mem.worktree_mut().write(&p, content.clone()).unwrap();
            disk.worktree_mut().write(&p, content).unwrap();
        }
        let cm = mem.commit(sig("fuzz", round), "r").unwrap();
        let cd = disk.commit(sig("fuzz", round), "r").unwrap();
        assert_eq!(cm, cd, "round {round}: identical content, identical ids");
        assert_eq!(mem.snapshot(cm).unwrap(), disk.snapshot(cd).unwrap());

        // Reopen from disk and compare every file byte-for-byte.
        let reopened = Repository::init_with("fuzz", Box::new(DiskStore::open(&sub).unwrap()));
        for (p, blob) in mem.snapshot(cm).unwrap() {
            assert_eq!(
                reopened.odb().blob_data(blob).unwrap(),
                mem.odb().blob_data(blob).unwrap(),
                "round {round}, file {p}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clone_push_work_across_backends() {
    let dir = temp_dir("remote");
    // Origin on disk, developer clone in memory — transfer in both
    // directions must move exactly the missing objects.
    let (mut origin, _) = run_scenario(Repository::init_with(
        "origin",
        Box::new(DiskStore::open(&dir).unwrap()),
    ));
    let mut local = clone_repository(&origin, "local").unwrap();
    assert_eq!(local.log_head().unwrap(), origin.log_head().unwrap());

    local
        .worktree_mut()
        .write(&path("patch.txt"), &b"fix\n"[..])
        .unwrap();
    let tip = local.commit(sig("bob", 10), "fix").unwrap();
    push(&local, &mut origin, "main", "main", false).unwrap();
    assert_eq!(origin.branch_tip("main").unwrap(), tip);
    assert!(origin.odb().contains(tip));

    // The pushed commit is durable: a fresh disk handle sees it.
    let fresh = DiskStore::open(&dir).unwrap();
    assert!(fresh.contains(tip));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cached_store_hits_dominate_on_hot_walks() {
    let dir = temp_dir("hot");
    let store = CachedStore::new(DiskStore::open(&dir).unwrap());
    let (repo, _) = run_scenario(Repository::init_with("proj", Box::new(store)));
    // Walk the same history repeatedly — a hot path like citation
    // resolution or log rendering.
    for _ in 0..20 {
        repo.log_head().unwrap();
        repo.snapshot(repo.head_commit().unwrap()).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
