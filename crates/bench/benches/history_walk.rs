//! History-walk bench: commit-graph vs decode walk for `log`, its
//! bounded first page (`log_take` of 25, what a hub history page walks)
//! and `merge_base`, on the two shapes that stress them — a deep linear
//! history (10k commits: the retrofit/audit workload) and a wide
//! merge-heavy history (parallel branches merged repeatedly: the hub's
//! collaboration workload).
//!
//! Both variants read the *same* pack bytes; the only difference is the
//! `commit-graph.glcg` sidecar. `graph` stores carry it (written by
//! `repack()`), `decode` stores had it deleted, so `Repository::log` /
//! `merge_base` take their always-correct decode fallback. The
//! acceptance bar from the issue: graph ≥10× faster on the 10k-commit
//! history, warm. `scripts/bench_history.sh` turns this bench's output
//! into `BENCH_history.json` so the numbers are tracked PR over PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gitlite::{
    merge_base, Commit, Object, ObjectId, ObjectStore, PackStore, Repository, Signature, Tree,
    GRAPH_FILE, PACK_DIR,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gitcite-bench-history-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds commits in memory (one shared empty tree — history shape is
/// what matters here), returning the object set and the ids in creation
/// order.
struct HistoryBuilder {
    objects: Vec<(ObjectId, Arc<Object>)>,
    clock: i64,
}

impl HistoryBuilder {
    fn new() -> Self {
        let tree = Tree::new();
        let objects = vec![(tree.id(), Arc::new(Object::Tree(tree)))];
        HistoryBuilder { objects, clock: 0 }
    }

    fn commit(&mut self, msg: String, parents: Vec<ObjectId>) -> ObjectId {
        self.clock += 1;
        let c = Commit {
            tree: self.objects[0].0,
            parents,
            author: Signature::new("bench", "b@x", self.clock),
            message: msg,
        };
        let id = c.id();
        self.objects.push((id, Arc::new(Object::Commit(c))));
        id
    }
}

/// `commits` in one straight line; returns (tip, root).
fn linear(commits: usize) -> (HistoryBuilder, ObjectId, ObjectId) {
    let mut h = HistoryBuilder::new();
    let root = h.commit("c0".into(), vec![]);
    let mut tip = root;
    for i in 1..commits {
        tip = h.commit(format!("c{i}"), vec![tip]);
    }
    (h, tip, root)
}

/// A merge-heavy DAG: `rounds` iterations of {branch 4 ways off the
/// mainline, advance each branch, merge them back pairwise}. Returns the
/// two final diverged tips (never merged with each other) whose base is
/// `rounds` merges deep.
fn merge_heavy(rounds: usize) -> (HistoryBuilder, ObjectId, ObjectId) {
    let mut h = HistoryBuilder::new();
    let mut mainline = h.commit("root".into(), vec![]);
    for r in 0..rounds {
        let branches: Vec<ObjectId> = (0..4)
            .map(|b| {
                let side = h.commit(format!("b{r}-{b}"), vec![mainline]);
                h.commit(format!("b{r}-{b}+",), vec![side])
            })
            .collect();
        let left = h.commit(format!("m{r}-l"), vec![branches[0], branches[1]]);
        let right = h.commit(format!("m{r}-r"), vec![branches[2], branches[3]]);
        mainline = h.commit(format!("m{r}"), vec![left, right]);
    }
    let tip_a = h.commit("final-a".into(), vec![mainline]);
    let tip_b = h.commit("final-b".into(), vec![mainline]);
    (h, tip_a, tip_b)
}

/// Materializes a history into two identical pack stores — one with the
/// commit-graph sidecar, one without — and returns (graph, decode)
/// handles.
fn packed_pair(tag: &str, builder: &HistoryBuilder) -> (PackStore, PackStore) {
    let graph_dir = temp_dir(&format!("{tag}-graph"));
    let decode_dir = temp_dir(&format!("{tag}-decode"));
    for dir in [&graph_dir, &decode_dir] {
        let mut store = PackStore::open(dir).unwrap();
        store.put_many(builder.objects.clone());
        store.repack().unwrap();
    }
    strip_graph(&decode_dir);
    let graph = PackStore::open(&graph_dir).unwrap();
    let decode = PackStore::open(&decode_dir).unwrap();
    assert!(graph.commit_graph().is_some());
    assert!(decode.commit_graph().is_none());
    (graph, decode)
}

fn strip_graph(dir: &Path) {
    std::fs::remove_file(dir.join(PACK_DIR).join(GRAPH_FILE)).unwrap();
}

fn repo_on(store: PackStore, tip: ObjectId) -> Repository {
    let mut repo = Repository::init_with("bench", Box::new(store));
    repo.set_branch("main", tip).unwrap();
    repo
}

/// Builds an n-commit cited history on a pack store: every commit edits
/// one of 8 rotating source files, every 25th also changes the tracked
/// file's citation — so a path-limited audit scan has real skips to win
/// on. Maintenance runs at the end (packs + commit-graph + changed-path
/// Bloom filters). Returns the repo, its directory and its tip.
fn cited_history(tag: &str, commits: usize) -> (citekit::CitedRepo, PathBuf, ObjectId) {
    let dir = temp_dir(tag);
    let store = PackStore::open(&dir).unwrap();
    let mut cited =
        citekit::CitedRepo::init_with_store("bench", "Owner", "https://x/bench", Box::new(store));
    let tracked = gitlite::path("src/f0.rs");
    for i in 0..commits {
        let f = gitlite::path(&format!("src/f{}.rs", i % 8));
        cited
            .write_file(&f, format!("content {i}\n").into_bytes())
            .unwrap();
        if i % 25 == 0 {
            let c = citekit::Citation::builder(format!("c{i}"), "Owner").build();
            if i == 0 {
                cited.add_cite(&tracked, c).unwrap();
            } else {
                cited.modify_cite(&tracked, c).unwrap();
            }
        }
        cited
            .commit(
                Signature::new("bench", "b@x", i as i64 + 1),
                format!("c{i}"),
            )
            .unwrap();
    }
    let tip = cited.repo().head_commit().unwrap();
    let roots: Vec<ObjectId> = cited.repo().branches().map(|(_, t)| t).collect();
    cited
        .repo_mut()
        .odb_mut()
        .maintain(&roots)
        .expect("pack store supports maintenance")
        .expect("gc succeeds");
    (cited, dir, tip)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("history_walk");

    // ----- deep linear history: log ------------------------------------
    for commits in [1_000usize, 10_000] {
        let (builder, tip, root) = linear(commits);
        let (graph_store, decode_store) = packed_pair(&format!("lin{commits}"), &builder);
        let graph_repo = repo_on(graph_store, tip);
        let decode_repo = repo_on(decode_store, tip);
        // Sanity: identical answers before measuring.
        assert_eq!(graph_repo.log(tip).unwrap(), decode_repo.log(tip).unwrap());

        g.bench_with_input(BenchmarkId::new("log_graph", commits), &commits, |b, _| {
            b.iter(|| criterion::black_box(graph_repo.log(tip).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("log_decode", commits), &commits, |b, _| {
            b.iter(|| criterion::black_box(decode_repo.log(tip).unwrap()))
        });

        // The first 25-entry page: the bounded walk stops after 25 pops.
        assert_eq!(
            graph_repo.log_take(tip, 25).unwrap(),
            decode_repo.log_take(tip, 25).unwrap()
        );
        g.bench_with_input(
            BenchmarkId::new("log_take25_graph", commits),
            &commits,
            |b, _| b.iter(|| criterion::black_box(graph_repo.log_take(tip, 25).unwrap())),
        );
        g.bench_with_input(
            BenchmarkId::new("log_take25_decode", commits),
            &commits,
            |b, _| b.iter(|| criterion::black_box(decode_repo.log_take(tip, 25).unwrap())),
        );

        // merge_base across the full depth: tip vs root on the linear
        // chain (the ancestor-containment fast path for decode, a
        // two-lookup pop for the graph).
        g.bench_with_input(
            BenchmarkId::new("merge_base_linear_graph", commits),
            &commits,
            |b, _| {
                b.iter(|| criterion::black_box(merge_base(graph_repo.odb(), tip, root).unwrap()))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("merge_base_linear_decode", commits),
            &commits,
            |b, _| {
                b.iter(|| criterion::black_box(merge_base(decode_repo.odb(), tip, root).unwrap()))
            },
        );
    }

    // ----- wide merge-heavy history: merge_base ------------------------
    for rounds in [100usize, 1_000] {
        let (builder, tip_a, tip_b) = merge_heavy(rounds);
        let commits = builder.objects.len() - 1;
        let (graph_store, decode_store) = packed_pair(&format!("mh{rounds}"), &builder);
        assert_eq!(
            merge_base(&graph_store, tip_a, tip_b).unwrap(),
            merge_base(&decode_store, tip_a, tip_b).unwrap()
        );
        eprintln!("merge_heavy/{rounds}: {commits} commits");

        g.bench_with_input(
            BenchmarkId::new("merge_base_graph", rounds),
            &rounds,
            |b, _| b.iter(|| criterion::black_box(merge_base(&graph_store, tip_a, tip_b).unwrap())),
        );
        g.bench_with_input(
            BenchmarkId::new("merge_base_decode", rounds),
            &rounds,
            |b, _| {
                b.iter(|| criterion::black_box(merge_base(&decode_store, tip_a, tip_b).unwrap()))
            },
        );
    }

    // ----- path-limited citation_log: Bloom filters vs exact diffs -----
    // Both repos hold identical history (2000 commits, the citation
    // changing every 25th); `graph` keeps the Bloom-carrying sidecar,
    // `decode` had it deleted, so every version pays an exact tree diff.
    {
        let commits = 2_000usize;
        let tracked = gitlite::path("src/f0.rs");
        let (bloom_repo, _bloom_dir, _tip) = cited_history("cl-graph", commits);

        let (built, decode_dir, decode_tip) = cited_history("cl-decode", commits);
        drop(built);
        strip_graph(&decode_dir);
        let store = PackStore::open(&decode_dir).unwrap();
        assert!(store.commit_graph().is_none());
        let mut decode_repo = citekit::CitedRepo::init_with_store(
            "bench",
            "Owner",
            "https://x/bench",
            Box::new(store),
        );
        decode_repo
            .repo_mut()
            .set_branch("main", decode_tip)
            .unwrap();
        decode_repo.repo_mut().checkout_branch("main").unwrap();

        // The filtered walk must be event-identical to the exact one.
        let events = bloom_repo.citation_log(&tracked).unwrap();
        assert_eq!(events, decode_repo.citation_log(&tracked).unwrap());
        eprintln!("citation_log/{commits}: {} events", events.len());

        g.bench_with_input(
            BenchmarkId::new("citation_log_graph", commits),
            &commits,
            |b, _| b.iter(|| criterion::black_box(bloom_repo.citation_log(&tracked).unwrap())),
        );
        g.bench_with_input(
            BenchmarkId::new("citation_log_decode", commits),
            &commits,
            |b, _| b.iter(|| criterion::black_box(decode_repo.citation_log(&tracked).unwrap())),
        );
    }

    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
