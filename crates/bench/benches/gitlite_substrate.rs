//! E11 bench — the VCS substrate itself: commit snapshotting, tree diff
//! (with and without rename detection), three-way tree merge and diff3,
//! clone/push, and SHA-1 throughput (`sha1/1MiB`), which every object
//! write, loose read and packed read pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gitcite_bench::{sig, synthetic_tree};
use gitlite::{
    clone_repository, diff3_merge, diff_trees, merge_base, merge_trees, push, write_tree,
    MergeLabels, ObjectId, Odb, Repository,
};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("gitlite");

    // Commit throughput vs worktree size.
    for files in [100usize, 1_000, 5_000] {
        let (wt, _) = synthetic_tree(files, 3, 8);
        g.bench_with_input(BenchmarkId::new("commit_files", files), &files, |b, _| {
            b.iter_batched(
                || {
                    let mut r = Repository::init("bench");
                    *r.worktree_mut() = wt.clone();
                    r
                },
                |mut r| r.commit(sig("a", 1), "snapshot").unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }

    // Tree diff: 1000 files, 50 modified, 20 renamed.
    {
        let (wt, paths) = synthetic_tree(1_000, 3, 8);
        let mut odb = Odb::new();
        let t1 = write_tree(&mut odb, &wt);
        let mut wt2 = wt.clone();
        for p in paths.iter().take(50) {
            wt2.write(p, b"modified contents\nline\n".to_vec()).unwrap();
        }
        for (i, p) in paths.iter().skip(900).take(20).enumerate() {
            wt2.rename(p, &gitlite::path(&format!("renamed/r{i}.txt")))
                .unwrap();
        }
        let t2 = write_tree(&mut odb, &wt2);
        g.bench_function("diff_1000_files_no_renames", |b| {
            b.iter(|| diff_trees(&odb, t1, t2, false).unwrap())
        });
        g.bench_function("diff_1000_files_with_renames", |b| {
            b.iter(|| diff_trees(&odb, t1, t2, true).unwrap())
        });
    }

    // diff3 on a 400-line file with two disjoint 10-line edits.
    {
        let base: String = (0..400).map(|i| format!("line {i}\n")).collect();
        let mut ours_lines: Vec<String> = (0..400).map(|i| format!("line {i}")).collect();
        let mut theirs_lines = ours_lines.clone();
        for (i, line) in ours_lines.iter_mut().enumerate().take(20).skip(10) {
            *line = format!("ours {i}");
        }
        for (i, line) in theirs_lines.iter_mut().enumerate().take(310).skip(300) {
            *line = format!("theirs {i}");
        }
        let ours = ours_lines.join("\n") + "\n";
        let theirs = theirs_lines.join("\n") + "\n";
        g.bench_function("diff3_400_lines", |b| {
            b.iter(|| diff3_merge(&base, &ours, &theirs, MergeLabels::default()))
        });
    }

    // Repository-level merge of two branches with disjoint edits.
    {
        let (wt, paths) = synthetic_tree(500, 3, 8);
        let mut repo = Repository::init("merge-bench");
        *repo.worktree_mut() = wt;
        repo.commit(sig("a", 1), "base").unwrap();
        repo.create_branch("dev").unwrap();
        repo.checkout_branch("dev").unwrap();
        repo.worktree_mut()
            .write(&paths[0], b"dev change\n".to_vec())
            .unwrap();
        repo.commit(sig("b", 2), "dev").unwrap();
        repo.checkout_branch("main").unwrap();
        repo.worktree_mut()
            .write(&paths[499], b"main change\n".to_vec())
            .unwrap();
        repo.commit(sig("a", 3), "main").unwrap();
        let (ours, theirs) = (repo.head_commit().unwrap(), repo.branch_tip("dev").unwrap());
        let base = merge_base(repo.odb(), ours, theirs).unwrap().unwrap();
        let [base, ours, theirs] =
            [base, ours, theirs].map(|c| repo.odb().tree(repo.tree_of(c).unwrap()).unwrap());
        g.bench_function("merge_trees_500_files", |b| {
            b.iter_batched(
                || repo.clone(),
                |mut r| {
                    let labels = MergeLabels::default();
                    merge_trees(r.odb_mut(), &base, &ours, &theirs, labels).unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });
        g.bench_function("clone_500_files", |b| {
            b.iter(|| clone_repository(&repo, "clone").unwrap())
        });
        g.bench_function("push_incremental", |b| {
            let mut local = clone_repository(&repo, "local").unwrap();
            local
                .worktree_mut()
                .write(&paths[10], b"pushed\n".to_vec())
                .unwrap();
            local.commit(sig("a", 9), "to push").unwrap();
            b.iter_batched(
                || clone_repository(&repo, "remote").unwrap(),
                |mut remote| push(&local, &mut remote, "main", "main", false).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }

    g.finish();

    // Hashing throughput over one mebibyte of varied bytes.
    let data: Vec<u8> = (0u32..1 << 20)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let mut g = c.benchmark_group("sha1");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("1MiB", |b| {
        b.iter(|| ObjectId::hash_bytes(std::hint::black_box(&data)))
    });
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
