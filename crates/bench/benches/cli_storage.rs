//! Local-tool persistence bench: `gitcite_cli::storage` on a 256-file
//! checkout. Times `load` (opening the object store, reading HEAD's
//! commit and root tree, and reading every worktree file) on a
//! loose-only store and, as `load_packed`, on a gc'd store holding a
//! multi-commit history in one pack — the shape a long-lived checkout
//! has, where opening the pack is part of every command. Also times
//! `save` when nothing changed, and `save` after one file changed. A
//! save writes only the files whose bytes differ from the ones on disk,
//! so the two save cases should cost about the same and far less than
//! rewriting the checkout.

use criterion::{criterion_group, criterion_main, Criterion};
use gitcite_bench::{sig, synthetic_tree};
use gitcite_cli::storage;
use gitlite::Repository;
use std::time::Duration;

const FILES: usize = 256;
/// Commits in the `load_packed` history, each editing one file.
const COMMITS: usize = 200;

fn bench(c: &mut Criterion) {
    let dir =
        std::env::temp_dir().join(format!("gitcite-bench-cli-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (wt, paths) = synthetic_tree(FILES, 3, 8);
    let mut repo = Repository::init("bench");
    *repo.worktree_mut() = wt;
    repo.commit(sig("bench", 1), "V1").unwrap();
    storage::save(&dir, &repo).unwrap();

    let mut g = c.benchmark_group("cli_storage");
    g.bench_function("load", |b| b.iter(|| storage::load(&dir).unwrap()));

    let mut loaded = storage::load(&dir).unwrap();
    g.bench_function("save_unchanged", |b| {
        b.iter(|| storage::save(&dir, &loaded).unwrap())
    });

    // Each iteration gives one file new bytes, so every save has exactly
    // one file to write.
    let target = paths[FILES / 2].clone();
    let mut n = 0u64;
    g.bench_function("save_one_changed", |b| {
        b.iter(|| {
            n += 1;
            loaded
                .worktree_mut()
                .write(&target, format!("edit {n}\n").into_bytes())
                .unwrap();
            storage::save(&dir, &loaded).unwrap()
        })
    });

    // A gc'd history: COMMITS commits, each rewriting one file, packed.
    let packed = dir.with_extension("packed");
    let _ = std::fs::remove_dir_all(&packed);
    let mut history = repo;
    for i in 0..COMMITS {
        history
            .worktree_mut()
            .write(
                &paths[i * 7 % FILES],
                format!("revision {i}\n").into_bytes(),
            )
            .unwrap();
        history.commit(sig("bench", 2 + i as i64), "edit").unwrap();
    }
    storage::save(&packed, &history).unwrap();
    let roots: Vec<_> = history.branches().map(|(_, tip)| tip).collect();
    storage::gc(&packed, &roots).unwrap();
    g.bench_function("load_packed", |b| {
        b.iter(|| storage::load(&packed).unwrap())
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&packed);
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
