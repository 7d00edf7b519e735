//! Storage-backend bench: cold and warm object reads across `MemStore`,
//! `DiskStore`, `PackStore`, and their cached wrappers, over the
//! reachable closure of a synthetic repository. This is the experiment
//! behind choosing the local tool's default backend
//! (`CachedStore<PackStore>`): loose disk pays a file open + decode per
//! read, packs replace the per-object opens with one open file per pack,
//! the cache amortizes decodes on hot paths, memory is the ceiling.
//!
//! Cache effectiveness (hits/misses/evictions, per the ROADMAP's
//! capacity-planning note) is printed for the cached variants after
//! their measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gitcite_bench::{sig, synthetic_tree};
use gitlite::{CachedStore, DiskStore, MemStore, ObjectId, ObjectStore, PackStore, Repository};
use std::time::Duration;

/// Builds a repository with `files` files plus a short history, on the
/// given backend, returning the repo and every reachable object id.
fn populate(store: Box<dyn ObjectStore>, files: usize) -> (Repository, Vec<ObjectId>) {
    let (wt, paths) = synthetic_tree(files, 3, 8);
    let mut repo = Repository::init_with("bench", store);
    *repo.worktree_mut() = wt;
    repo.commit(sig("bench", 1), "V1").unwrap();
    // A second commit touching one file, so history walks see two trees.
    let target = paths[files / 2].clone();
    repo.worktree_mut()
        .write(&target, &b"edited\n"[..])
        .unwrap();
    repo.commit(sig("bench", 2), "V2").unwrap();
    let head = repo.head_commit().unwrap();
    let ids = repo.odb().reachable_closure(&[head]).unwrap();
    (repo, ids)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gitcite-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_backends");
    for files in [100usize, 1_000] {
        // Shared on-disk object set for the disk-backed variants.
        let disk_dir = temp_dir(&format!("d{files}"));
        let (_disk_repo, ids) = populate(Box::new(DiskStore::open(&disk_dir).unwrap()), files);
        let (mem_repo, _) = populate(Box::new(MemStore::new()), files);
        // The packed twin: same objects, consolidated into one pack.
        let pack_dir = temp_dir(&format!("p{files}"));
        let (_pack_repo, _) = populate(Box::new(PackStore::open(&pack_dir).unwrap()), files);
        PackStore::open(&pack_dir).unwrap().repack().unwrap();

        // Warm reads: repeatedly fetch the whole closure from one handle.
        g.bench_with_input(BenchmarkId::new("warm_mem", files), &files, |b, _| {
            let store = mem_repo.odb();
            b.iter(|| {
                for &id in &ids {
                    criterion::black_box(store.get(id).unwrap());
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("warm_disk", files), &files, |b, _| {
            let store = DiskStore::open(&disk_dir).unwrap();
            b.iter(|| {
                for &id in &ids {
                    criterion::black_box(store.get(id).unwrap());
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("warm_pack", files), &files, |b, _| {
            let store = PackStore::open(&pack_dir).unwrap();
            b.iter(|| {
                for &id in &ids {
                    criterion::black_box(store.get(id).unwrap());
                }
            })
        });
        g.bench_with_input(
            BenchmarkId::new("warm_cached_disk", files),
            &files,
            |b, _| {
                let store = CachedStore::new(DiskStore::open(&disk_dir).unwrap());
                // Prime once; the measured loop is all cache hits.
                for &id in &ids {
                    store.get(id).unwrap();
                }
                b.iter(|| {
                    for &id in &ids {
                        criterion::black_box(store.get(id).unwrap());
                    }
                });
                report_cache("warm_cached_disk", files, store.stats());
            },
        );
        g.bench_with_input(
            BenchmarkId::new("warm_cached_pack", files),
            &files,
            |b, _| {
                let store = CachedStore::new(PackStore::open(&pack_dir).unwrap());
                for &id in &ids {
                    store.get(id).unwrap();
                }
                b.iter(|| {
                    for &id in &ids {
                        criterion::black_box(store.get(id).unwrap());
                    }
                });
                report_cache("warm_cached_pack", files, store.stats());
            },
        );

        // Cold reads: a fresh handle per iteration (caches start empty;
        // the disk variants pay a file open + decode per object, the
        // pack variant one sequential read of its file at open and a
        // positioned read per object).
        g.bench_with_input(BenchmarkId::new("cold_disk", files), &files, |b, _| {
            b.iter_batched(
                || DiskStore::open(&disk_dir).unwrap(),
                |store| {
                    for &id in &ids {
                        criterion::black_box(store.get(id).unwrap());
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("cold_pack", files), &files, |b, _| {
            b.iter_batched(
                || PackStore::open(&pack_dir).unwrap(),
                |store| {
                    for &id in &ids {
                        criterion::black_box(store.get(id).unwrap());
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
        g.bench_with_input(
            BenchmarkId::new("cold_cached_disk", files),
            &files,
            |b, _| {
                b.iter_batched(
                    || CachedStore::new(DiskStore::open(&disk_dir).unwrap()),
                    |store| {
                        for &id in &ids {
                            criterion::black_box(store.get(id).unwrap());
                        }
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        g.bench_with_input(
            BenchmarkId::new("cold_cached_pack", files),
            &files,
            |b, _| {
                b.iter_batched(
                    || CachedStore::new(PackStore::open(&pack_dir).unwrap()),
                    |store| {
                        for &id in &ids {
                            criterion::black_box(store.get(id).unwrap());
                        }
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

/// Prints cache-effectiveness counters for a cached variant (the
/// ROADMAP's capacity-planning note: hit rate vs evictions tells whether
/// the default capacity fits the working set).
fn report_cache(name: &str, files: usize, stats: gitlite::CacheStats) {
    eprintln!(
        "cache {name}/{files}: {} hits, {} misses, {} evictions ({}/{} cached, hit rate {:.1}%)",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.len,
        stats.capacity,
        stats.hit_rate() * 100.0
    );
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
