//! Hub concurrency bench: read-heavy traffic against the sharded hub
//! (per-repo `RwLock`s, PR 3) versus the pre-redesign locking shape
//! (every operation serialized behind one global mutex).
//!
//! Two experiments, both pure-read on the measured side (the Software
//! Citation Station observation: citation lookup traffic is
//! overwhelmingly read-heavy):
//!
//! * **Throughput** — N threads hammer reads, each on its own repository
//!   and then all on one repository, under both locking shapes. Under
//!   sharding the distinct-repo threads share no lock at all; under a
//!   global mutex everything serializes. (On a single-core runner the
//!   wall-clock gap compresses to scheduling noise.)
//! * **Read latency under a writer** — a writer loops citation commits
//!   on repository A while a reader times individual reads on repository
//!   B, on the sharded hub only: the reader never touches the writer's
//!   lock, so its latency stays at the cost of the read itself. There is
//!   no global-mutex arm: a citation commit takes about 20 µs, so a
//!   reader behind one global mutex would wait on the mutex's
//!   unfairness (the writer re-takes it at once), not on the write.
//!
//! Besides the criterion timings, the throughput experiment prints
//! reads/second for the two locking shapes side by side, and the latency
//! experiment the sharded reader's mean and max. Three last groups time
//! one hosted write on repositories of 8, 600 and 2,400 files:
//!
//! * `hub_modify_cite` — a citation commit edits the `citation.cite`
//!   blob and the root tree in place, so its cost should not grow with
//!   the file count.
//! * `hub_merge` — a three-way `merge_branches` of two branches that
//!   each moved since their base, here only in `citation.cite`. The
//!   merge takes every subtree at most one side changed by id and
//!   rewrites only the root, so its cost should not grow with the file
//!   count either.
//! * `hub_fork` — `fork` copies the source's reachable objects into the
//!   new store and commits the restamped root as a tree edit, with no
//!   checkout.

use citekit::MergeStrategy;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gitlite::{path, RepoPath, Signature};
use hub::{Hub, Token};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 60;
const FILES_PER_REPO: usize = 8;
/// File count of the repository the latency experiment's writer churns.
/// A citation commit edits one blob and the root tree, so its cost does
/// not grow with this (see the `hub_modify_cite` group).
const BIG_REPO_FILES: usize = 600;
/// Repository sizes the `hub_modify_cite`, `hub_merge` and `hub_fork`
/// groups time one write at.
const WRITE_FILES: [usize; 3] = [8, 600, 2_400];

/// The pre-redesign locking shape: the same hub, but every call funneled
/// through one global mutex — exactly what `Mutex<HubState>` used to do
/// to concurrent readers.
struct GlobalLockHub {
    hub: Hub,
    lock: Mutex<()>,
}

impl GlobalLockHub {
    fn read_file(&self, repo_id: &str, branch: &str, p: &RepoPath) -> Vec<u8> {
        let _g = self.lock.lock().unwrap();
        self.hub.read_file(repo_id, branch, p).unwrap()
    }

    fn log_len(&self, repo_id: &str) -> usize {
        let _g = self.lock.lock().unwrap();
        self.hub.log(repo_id, "main").unwrap().len()
    }
}

fn modify_root_note(hub: &Hub, token: &Token, repo_id: &str, note: &str) {
    let mut c = hub
        .generate_citation(repo_id, "main", &RepoPath::root())
        .unwrap();
    c.note = Some(note.to_owned());
    hub.modify_cite(token, repo_id, "main", &RepoPath::root(), c)
        .unwrap();
}

/// Builds a hub with `repos` small repositories plus one big one, each
/// holding cited files; returns the hub, the small repo ids, the big
/// repo id, and an owner token.
fn populate(repos: usize) -> (Hub, Vec<String>, String, Token) {
    let hub = Hub::new("https://bench.example");
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let mut ids = Vec::new();
    for r in 0..repos {
        let repo_id = hub.create_repo(&token, &format!("r{r}")).unwrap();
        seed_files(&hub, &token, &repo_id, FILES_PER_REPO);
        ids.push(repo_id);
    }
    let big = hub.create_repo(&token, "big").unwrap();
    seed_files(&hub, &token, &big, BIG_REPO_FILES);
    (hub, ids, big, token)
}

fn seed_files(hub: &Hub, token: &Token, repo_id: &str, files: usize) {
    let mut local = hub.clone_repo(repo_id).unwrap();
    for f in 0..files {
        local
            .worktree_mut()
            .write(
                &path(&format!("src/d{}/f{f}.txt", f % 16)),
                format!("contents {repo_id}/{f}\n").into_bytes(),
            )
            .unwrap();
    }
    local
        .commit(Signature::new("The Owner", "o@x", 100), "seed")
        .unwrap();
    hub.push(token, repo_id, "main", &local, "main", false)
        .unwrap();
}

/// One thread's worth of read traffic against `repo_id` through the
/// sharded surface.
fn reader_sharded(hub: &Hub, repo_id: &str) {
    for i in 0..OPS_PER_THREAD {
        let f = i % FILES_PER_REPO;
        criterion::black_box(
            hub.read_file(repo_id, "main", &path(&format!("src/d{f}/f{f}.txt")))
                .unwrap(),
        );
        if i % 16 == 0 {
            criterion::black_box(hub.log(repo_id, "main").unwrap());
        }
    }
}

/// The same traffic through the global-mutex shape.
fn reader_global(hub: &GlobalLockHub, repo_id: &str) {
    for i in 0..OPS_PER_THREAD {
        let f = i % FILES_PER_REPO;
        criterion::black_box(hub.read_file(repo_id, "main", &path(&format!("src/d{f}/f{f}.txt"))));
        if i % 16 == 0 {
            criterion::black_box(hub.log_len(repo_id));
        }
    }
}

/// Runs `THREADS` reader threads; each gets its thread index.
fn run_threads(f: impl Fn(usize) + Sync) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let f = &f;
            scope.spawn(move || f(t));
        }
    });
}

fn throughput(label: &str, runs: usize, work: impl Fn()) {
    work(); // warm-up
    let start = Instant::now();
    for _ in 0..runs {
        work();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total_ops = (runs * THREADS * OPS_PER_THREAD) as f64;
    eprintln!(
        "hub_concurrency {label}: {:.0} reads/s ({THREADS} threads x {OPS_PER_THREAD} ops x {runs} runs in {:.3}s)",
        total_ops / elapsed,
        elapsed
    );
}

/// Times individual reads on `read` while `write` loops in a background
/// thread; returns (mean, max) read latency.
fn latency_under_writer(
    write: impl Fn(usize) + Send,
    read: impl Fn(),
    samples: usize,
) -> (Duration, Duration) {
    let stop = AtomicBool::new(false);
    let mut latencies = Vec::with_capacity(samples);
    std::thread::scope(|scope| {
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut i = 0;
            while !stop_ref.load(Ordering::Relaxed) {
                write(i);
                i += 1;
            }
        });
        // Let the writer get in flight, then probe.
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..samples {
            let t = Instant::now();
            read();
            latencies.push(t.elapsed());
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let total: Duration = latencies.iter().sum();
    let max = latencies.iter().copied().max().unwrap_or_default();
    (total / latencies.len() as u32, max)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hub_concurrency");

    // --- throughput: distinct repos then one shared repo --------------------
    let (hub, ids, big, token) = populate(THREADS);
    g.bench_with_input(
        BenchmarkId::new("distinct_repos", "sharded"),
        &(),
        |b, _| {
            b.iter(|| {
                run_threads(|t| reader_sharded(&hub, &ids[t]));
            })
        },
    );
    let (ghub, gids, _, _) = populate(THREADS);
    let global = GlobalLockHub {
        hub: ghub,
        lock: Mutex::new(()),
    };
    g.bench_with_input(
        BenchmarkId::new("distinct_repos", "global_mutex"),
        &(),
        |b, _| {
            b.iter(|| {
                run_threads(|t| reader_global(&global, &gids[t]));
            })
        },
    );
    g.bench_with_input(BenchmarkId::new("same_repo", "sharded"), &(), |b, _| {
        b.iter(|| {
            run_threads(|_| reader_sharded(&hub, &ids[0]));
        })
    });
    g.bench_with_input(
        BenchmarkId::new("same_repo", "global_mutex"),
        &(),
        |b, _| {
            b.iter(|| {
                run_threads(|_| reader_global(&global, &gids[0]));
            })
        },
    );
    throughput("distinct_repos/sharded", 8, || {
        run_threads(|t| reader_sharded(&hub, &ids[t]))
    });
    throughput("distinct_repos/global_mutex", 8, || {
        run_threads(|t| reader_global(&global, &gids[t]))
    });
    throughput("same_repo/sharded", 8, || {
        run_threads(|_| reader_sharded(&hub, &ids[0]))
    });
    throughput("same_repo/global_mutex", 8, || {
        run_threads(|_| reader_global(&global, &gids[0]))
    });
    g.finish();

    // --- read latency on repo B while a writer churns repo A ----------------
    // The sharded reader's latency is the read cost alone: it never
    // touches the lock the writer holds.
    let (mean, max) = latency_under_writer(
        |i| modify_root_note(&hub, &token, &big, &format!("rev {i}")),
        || {
            criterion::black_box(
                hub.read_file(&ids[0], "main", &path("src/d0/f0.txt"))
                    .unwrap(),
            );
        },
        100,
    );
    eprintln!(
        "hub_concurrency read_latency_under_writer/sharded: mean {mean:>9.1?}  max {max:>9.1?}"
    );
}

/// One hosted `modify_cite` of the root citation, on a repository of
/// each size in [`WRITE_FILES`]; each iteration changes the note, so
/// each one commits.
fn modify_cite_by_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("hub_modify_cite");
    let hub = Hub::new("https://bench.example");
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    for files in WRITE_FILES {
        let repo_id = hub.create_repo(&token, &format!("f{files}")).unwrap();
        seed_files(&hub, &token, &repo_id, files);
        let root = RepoPath::root();
        let stored = hub.citation_entry(&repo_id, "main", &root).unwrap();
        let stored = stored.expect("the root is always cited");
        let mut rev = 0u64;
        g.bench_with_input(BenchmarkId::new("files", files), &files, |b, _| {
            b.iter(|| {
                rev += 1;
                let mut citation = stored.clone();
                citation.note = Some(format!("rev {rev}"));
                hub.modify_cite(&token, &repo_id, "main", &root, citation)
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// One hosted `merge_branches` of `dev` into `main`, on a repository of
/// each size in [`WRITE_FILES`] whose two branches each moved once since
/// their base, so every merge is a true three-way merge with the root as
/// a citation conflict kept as ours. Each iteration merges in a fresh
/// fork of one template, made in the untimed setup, so the history a
/// merge base is looked up in stays four commits deep.
fn merge_by_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("hub_merge");
    let hub = Hub::new("https://bench.example");
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let root = RepoPath::root();
    for files in WRITE_FILES {
        let template = hub.create_repo(&token, &format!("m{files}")).unwrap();
        seed_files(&hub, &token, &template, files);
        let local = hub.clone_repo(&template).unwrap();
        hub.push(&token, &template, "dev", &local, "main", false)
            .unwrap();
        let stored = hub.citation_entry(&template, "dev", &root).unwrap();
        let mut stored = stored.expect("the root is always cited");
        stored.note = Some("dev".into());
        let mut n = 0u64;
        g.bench_with_input(BenchmarkId::new("files", files), &files, |b, _| {
            b.iter_batched(
                || {
                    n += 1;
                    let repo_id = hub
                        .fork(&token, &template, &format!("m{files}-{n}"))
                        .unwrap();
                    hub.modify_cite(&token, &repo_id, "dev", &root, stored.clone())
                        .unwrap();
                    repo_id
                },
                |repo_id| {
                    hub.merge_branches(&token, &repo_id, "main", "dev", MergeStrategy::Union)
                        .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// One hosted `fork` of a repository of each size in [`WRITE_FILES`],
/// restamped under a new name each iteration. Each size gets its own
/// hub, dropped with its forks once the size is timed.
fn fork_by_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("hub_fork");
    for files in WRITE_FILES {
        let hub = Hub::new("https://bench.example");
        hub.register_user("owner", "The Owner").unwrap();
        let token = hub.login("owner").unwrap();
        let repo_id = hub.create_repo(&token, "src").unwrap();
        seed_files(&hub, &token, &repo_id, files);
        let mut n = 0u64;
        g.bench_with_input(BenchmarkId::new("files", files), &files, |b, _| {
            b.iter(|| {
                n += 1;
                hub.fork(&token, &repo_id, &format!("fork{n}")).unwrap()
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

/// A shorter window for the groups whose every iteration adds a
/// repository to the hub.
fn growing_config() -> Criterion {
    config()
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400))
}

criterion_group! { name = benches; config = config(); targets = bench, modify_cite_by_size }
criterion_group! { name = growing; config = growing_config(); targets = merge_by_size, fork_by_size }
criterion_main!(benches, growing);
