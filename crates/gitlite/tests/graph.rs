//! Commit-graph correctness: graph-backed walks must be **byte-identical**
//! to the decode-walk reference on arbitrary DAGs, the `GLCG` encoding
//! must round-trip, and a damaged / stale / missing graph file must
//! degrade to the decode walk (then rebuild) — never a wrong answer.

use gitlite::graph::CommitGraph;
use gitlite::mergebase::{ancestor_set_decode, merge_base_decode};
use gitlite::{
    merge_base, Commit, MemStore, Object, ObjectId, ObjectStore, PackStore, Repository, Signature,
    Tree, GRAPH_FILE,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "gitlite-graph-test-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// SplitMix64 — a tiny deterministic RNG so each proptest case derives a
/// whole DAG from one `u64` seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

fn mk<S: ObjectStore + ?Sized>(
    store: &mut S,
    msg: &str,
    ts: i64,
    parents: Vec<ObjectId>,
) -> ObjectId {
    let tree = store.put(Object::Tree(Tree::new()));
    store.put(Object::Commit(Commit {
        tree,
        parents,
        author: Signature::new("t", "t@t", ts),
        message: msg.into(),
    }))
}

/// Builds a random commit DAG: mostly linear stretches, occasional extra
/// roots (unrelated histories), two-parent merges and octopus merges,
/// with timestamps that collide sometimes (exercising log's id
/// tie-break). Returns the store and every commit id, creation order.
fn random_dag(seed: u64, commits: usize) -> (MemStore, Vec<ObjectId>) {
    let mut rng = Rng(seed);
    let mut store = MemStore::new();
    let mut ids: Vec<ObjectId> = Vec::with_capacity(commits);
    for i in 0..commits {
        let parents: Vec<ObjectId> = if ids.is_empty() || rng.below(12) == 0 {
            Vec::new() // a fresh root: unrelated history
        } else {
            let n_parents = match rng.below(10) {
                0 => 2,
                1 => 3.min(ids.len()), // octopus when possible
                _ => 1,
            };
            let mut ps = Vec::new();
            while ps.len() < n_parents.min(ids.len()) {
                let candidate = ids[rng.below(ids.len())];
                if !ps.contains(&candidate) {
                    ps.push(candidate);
                }
            }
            ps
        };
        // Colliding timestamps ~ half the time.
        let ts = (i as i64) / 2;
        ids.push(mk(&mut store, &format!("c{seed}-{i}"), ts, parents));
    }
    (store, ids)
}

/// A single chain of `commits` commits, timestamps colliding in pairs.
fn linear_dag(commits: usize) -> (MemStore, Vec<ObjectId>) {
    let mut store = MemStore::new();
    let mut ids: Vec<ObjectId> = Vec::with_capacity(commits);
    for i in 0..commits {
        let parents = ids.last().copied().into_iter().collect();
        ids.push(mk(&mut store, &format!("l{i}"), (i as i64) / 2, parents));
    }
    (store, ids)
}

proptest! {
    /// The core equivalence property: over random DAGs (linear chains,
    /// merges, octopus merges, unrelated roots) and a purely linear
    /// history, every graph-backed walk returns exactly what the
    /// decode-walk reference returns, and a bounded log walk on either
    /// path is the prefix of the full one, `more` exactly when commits
    /// were left out.
    #[test]
    fn graph_walks_match_decode_reference(seed in any::<u64>()) {
        let commits = 2 + (seed % 38) as usize;
        for (store, ids) in [random_dag(seed, commits), linear_dag(commits)] {
            let graph = CommitGraph::build(&store, &ids).unwrap();
            prop_assert_eq!(graph.len(), ids.len());

            // A MemStore-backed repository has no graph: its walks ARE the
            // decode reference.
            let repo = Repository::init_with("ref", Box::new(store.clone()));

            let mut rng = Rng(seed ^ 0xdead_beef);
            for _ in 0..8 {
                let a = ids[rng.below(ids.len())];
                let b = ids[rng.below(ids.len())];
                let pa = graph.lookup(a).unwrap();
                let pb = graph.lookup(b).unwrap();

                prop_assert_eq!(graph.merge_base(pa, pb), merge_base_decode(&store, a, b).unwrap());
                let full = repo.log(a).unwrap();
                for n in 0..=full.len() + 1 {
                    let expected = (full[..n.min(full.len())].to_vec(), n < full.len());
                    prop_assert_eq!(&graph.log_take(pa, n), &expected);
                    prop_assert_eq!(&repo.log_take(a, n).unwrap(), &expected);
                }
                let offset = rng.below(full.len() + 2);
                let (page, more) = repo.log_page(a, offset, 3).unwrap();
                let page: Vec<ObjectId> = page.into_iter().map(|(id, _)| id).collect();
                let end = (offset + 3).min(full.len());
                prop_assert_eq!(page, full.get(offset..end).unwrap_or_default().to_vec());
                prop_assert_eq!(more, offset + 3 < full.len());
                prop_assert_eq!(graph.ancestor_set(pa), ancestor_set_decode(&store, a).unwrap());
                prop_assert_eq!(
                    graph.is_ancestor(pa, pb),
                    ancestor_set_decode(&store, b).unwrap().contains(&a)
                );
            }
        }
    }

    /// Encode → parse round-trips the whole structure, for any DAG shape.
    #[test]
    fn glcg_encoding_round_trips(seed in any::<u64>()) {
        let commits = 1 + (seed % 29) as usize;
        let (store, ids) = random_dag(seed, commits);
        let graph = CommitGraph::build(&store, &ids).unwrap();
        let bytes = graph.encode();
        let parsed = CommitGraph::parse(&bytes).unwrap();
        prop_assert_eq!(parsed.ids(), graph.ids());
        for pos in 0..graph.len() as u32 {
            prop_assert_eq!(parsed.parents_of(pos), graph.parents_of(pos));
            prop_assert_eq!(parsed.generation_of(pos), graph.generation_of(pos));
            prop_assert_eq!(parsed.timestamp_of(pos), graph.timestamp_of(pos));
            prop_assert_eq!(parsed.tree_of(pos), graph.tree_of(pos));
        }
        prop_assert_eq!(parsed.encode(), bytes);
    }

    /// Any single-byte corruption of a GLCG file is rejected by parse —
    /// the trailer covers every byte.
    #[test]
    fn any_bit_flip_is_detected(seed in any::<u64>(), flip in any::<u64>()) {
        let commits = 1 + (seed % 15) as usize;
        let (store, ids) = random_dag(seed, commits);
        let mut bytes = CommitGraph::build(&store, &ids).unwrap().encode();
        let at = flip as usize % bytes.len();
        bytes[at] ^= 0xff;
        prop_assert!(CommitGraph::parse(&bytes).is_err(), "flip at {}", at);
    }
}

/// Builds a repository on a `PackStore` under `dir` with a little
/// branched history, returning the repo plus (main tip, side tip).
fn packed_repo(dir: &std::path::Path) -> (Repository, ObjectId, ObjectId) {
    let store = PackStore::open(dir).unwrap();
    let mut repo = Repository::init_with("packed", Box::new(store));
    repo.worktree_mut()
        .write(&gitlite::path("a.txt"), &b"one\n"[..])
        .unwrap();
    repo.commit(Signature::new("a", "a@x", 1), "c1").unwrap();
    repo.create_branch("side").unwrap();
    repo.worktree_mut()
        .write(&gitlite::path("b.txt"), &b"two\n"[..])
        .unwrap();
    let main_tip = repo.commit(Signature::new("a", "a@x", 2), "c2").unwrap();
    repo.checkout_branch("side").unwrap();
    repo.worktree_mut()
        .write(&gitlite::path("c.txt"), &b"three\n"[..])
        .unwrap();
    let side_tip = repo.commit(Signature::new("b", "b@x", 3), "c3").unwrap();
    repo.checkout_branch("main").unwrap();
    (repo, main_tip, side_tip)
}

fn gc_in(dir: &std::path::Path, roots: &[ObjectId]) {
    let mut store = PackStore::open(dir).unwrap();
    store.gc(roots).unwrap();
}

fn graph_path(dir: &std::path::Path) -> PathBuf {
    dir.join(gitlite::PACK_DIR).join(GRAPH_FILE)
}

#[test]
fn gc_writes_a_graph_that_serves_walks() {
    let dir = temp_dir("serves");
    let (repo, main_tip, side_tip) = packed_repo(&dir);
    let reference_log = repo.log(main_tip).unwrap();
    let reference_base = merge_base(repo.odb(), main_tip, side_tip).unwrap();
    drop(repo);

    gc_in(&dir, &[main_tip, side_tip]);
    assert!(graph_path(&dir).is_file(), "gc wrote the graph sidecar");

    let store = PackStore::open(&dir).unwrap();
    let graph = store.commit_graph().expect("graph loaded at open");
    assert_eq!(graph.len(), 3);
    let repo = {
        let mut r = Repository::init_with("again", Box::new(store));
        r.set_branch("main", main_tip).unwrap();
        r
    };
    assert_eq!(repo.log(main_tip).unwrap(), reference_log);
    let (page, more) = repo.log_page(main_tip, 1, 5).unwrap();
    let page: Vec<ObjectId> = page
        .iter()
        .map(|(id, obj)| {
            assert!(obj.as_commit().is_some());
            *id
        })
        .collect();
    assert_eq!((page, more), (reference_log[1..].to_vec(), false));
    assert_eq!(
        merge_base(repo.odb(), main_tip, side_tip).unwrap(),
        reference_base
    );
    assert!(repo.is_ancestor(reference_base.unwrap(), side_tip).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn commits_after_gc_fall_back_per_tip_without_wrong_answers() {
    let dir = temp_dir("stale-subset");
    let (mut repo, main_tip, side_tip) = packed_repo(&dir);
    drop(repo.odb_mut().maintain(&[main_tip, side_tip]).unwrap());

    // New commit after the graph was written: absent from the graph.
    repo.worktree_mut()
        .write(&gitlite::path("d.txt"), &b"four\n"[..])
        .unwrap();
    let newer = repo.commit(Signature::new("a", "a@x", 4), "c4").unwrap();
    let graph = repo.odb().commit_graph().expect("graph survives maintain");
    assert!(graph.contains(main_tip));
    assert!(!graph.contains(newer), "fresh commit is not in the graph");

    // Walks from the fresh tip (decode fallback) and from covered tips
    // (graph) agree with a graph-less reference store.
    let reference = {
        let mut r = Repository::init_with("ref", Box::new(MemStore::new()));
        gitlite::transfer_objects(repo.odb(), r.odb_mut(), &[newer, side_tip]).unwrap();
        r
    };
    assert_eq!(repo.log(newer).unwrap(), reference.log(newer).unwrap());
    assert_eq!(
        merge_base(repo.odb(), newer, side_tip).unwrap(),
        merge_base(reference.odb(), newer, side_tip).unwrap()
    );
    assert!(repo.is_ancestor(main_tip, newer).unwrap());
    assert!(!repo.is_ancestor(newer, main_tip).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_graph_file_is_rebuilt_transparently() {
    let dir = temp_dir("corrupt");
    let (repo, main_tip, side_tip) = packed_repo(&dir);
    let reference_log = repo.log(main_tip).unwrap();
    drop(repo);
    gc_in(&dir, &[main_tip, side_tip]);

    for damage in ["flip", "truncate", "garbage"] {
        let path = graph_path(&dir);
        let pristine = std::fs::read(&path).unwrap();
        let bad = match damage {
            "flip" => {
                let mut b = pristine.clone();
                let at = b.len() / 2;
                b[at] ^= 0xff;
                b
            }
            "truncate" => pristine[..pristine.len() / 2].to_vec(),
            _ => b"not a graph at all".to_vec(),
        };
        std::fs::write(&path, &bad).unwrap();

        // Open rebuilds from a full scan (same .idx recovery policy):
        // the store still serves a graph, answers are still right, and
        // the file on disk is valid again.
        let store = PackStore::open(&dir).unwrap();
        let graph = store.commit_graph().unwrap_or_else(|| {
            panic!("graph rebuilt after {damage} damage");
        });
        assert_eq!(graph.len(), 3, "{damage}");
        let mut r = Repository::init_with("r", Box::new(store));
        r.set_branch("main", main_tip).unwrap();
        assert_eq!(r.log(main_tip).unwrap(), reference_log, "{damage}");
        let rewritten = std::fs::read(&path).unwrap();
        assert!(CommitGraph::parse(&rewritten).is_ok(), "{damage}");
        assert_ne!(rewritten, bad, "{damage}: file was rewritten");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_graph_degrades_to_decode_then_gc_rebuilds() {
    let dir = temp_dir("missing");
    let (repo, main_tip, side_tip) = packed_repo(&dir);
    let reference_log = repo.log(main_tip).unwrap();
    drop(repo);
    gc_in(&dir, &[main_tip, side_tip]);
    std::fs::remove_file(graph_path(&dir)).unwrap();

    // Missing file: no graph (no rebuild cost at open), decode walks.
    let store = PackStore::open(&dir).unwrap();
    assert!(store.commit_graph().is_none());
    let mut r = Repository::init_with("r", Box::new(store));
    r.set_branch("main", main_tip).unwrap();
    r.set_branch("side", side_tip).unwrap();
    assert_eq!(r.log(main_tip).unwrap(), reference_log);

    // The next gc writes it back.
    gc_in(&dir, &[main_tip, side_tip]);
    assert!(graph_path(&dir).is_file());
    assert!(PackStore::open(&dir).unwrap().commit_graph().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_superset_graph_is_rebuilt_not_trusted() {
    // A graph describing commits the store no longer holds (e.g. copied
    // in from elsewhere, or left behind by an out-of-band gc) must be
    // rebuilt from the store's actual contents.
    let big = temp_dir("superset-big");
    let (repo, main_tip, side_tip) = packed_repo(&big);
    drop(repo);
    gc_in(&big, &[main_tip, side_tip]);

    let small = temp_dir("superset-small");
    {
        let store = PackStore::open(&small).unwrap();
        let mut r = Repository::init_with("small", Box::new(store));
        r.worktree_mut()
            .write(&gitlite::path("x.txt"), &b"x\n"[..])
            .unwrap();
        let tip = r.commit(Signature::new("s", "s@x", 1), "only").unwrap();
        drop(r);
        gc_in(&small, &[tip]);
    }
    // Swap in the bigger repo's graph file.
    std::fs::copy(graph_path(&big), graph_path(&small)).unwrap();

    let store = PackStore::open(&small).unwrap();
    let graph = store.commit_graph().expect("rebuilt from scan");
    assert_eq!(graph.len(), 1, "graph covers only the store's own commit");
    assert!(!graph.contains(main_tip));
    let on_disk = std::fs::read(graph_path(&small)).unwrap();
    assert_eq!(
        CommitGraph::parse(&on_disk).unwrap().ids(),
        graph.ids(),
        "rewritten file matches the rebuilt graph"
    );
    std::fs::remove_dir_all(&big).unwrap();
    std::fs::remove_dir_all(&small).unwrap();
}

#[test]
fn first_parent_chain_is_identical_with_and_without_the_graph() {
    let dir = temp_dir("first-parent");
    let (mut repo, main_tip, side_tip) = packed_repo(&dir);
    // Merge side into main so the chain has a multi-parent step.
    let merged_tree = repo.tree_of(main_tip).unwrap();
    let merged = repo
        .commit_merge(
            merged_tree,
            vec![main_tip, side_tip],
            Signature::new("a", "a@x", 5),
            "merge side",
        )
        .unwrap();
    let before = repo.first_parent_chain(merged).unwrap();
    assert_eq!(before.len(), 3, "merged → main tip → root");

    drop(repo.odb_mut().maintain(&[merged]).unwrap());
    assert!(repo.odb().commit_graph().is_some());
    assert_eq!(repo.first_parent_chain(merged).unwrap(), before);
    std::fs::remove_dir_all(&dir).unwrap();
}
