//! Property tests for the VCS substrate's core invariants.

use gitlite::{
    diff3_merge, diff_trees, flatten_tree, lcs_matches, read_tree, write_tree, MergeLabels, Odb,
    RepoPath, Repository, Signature, WorkTree,
};
use proptest::prelude::*;

/// Strategy: a small worktree with short alpha paths and small contents.
fn arb_worktree() -> impl Strategy<Value = WorkTree> {
    prop::collection::btree_map(
        prop::collection::vec("[a-d]{1,3}", 1..4).prop_map(|parts| parts.join("/")),
        prop::collection::vec(any::<u8>(), 0..32),
        0..12,
    )
    .prop_map(|files| {
        let mut wt = WorkTree::new();
        for (p, data) in files {
            let Ok(path) = RepoPath::parse(&p) else {
                continue;
            };
            if path.is_root() {
                continue;
            }
            // Skip paths that collide with an existing file/dir.
            let _ = wt.write(&path, data);
        }
        wt
    })
}

fn arb_lines() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-e]{0,6}", 0..12).prop_map(|lines| {
        if lines.is_empty() {
            String::new()
        } else {
            lines.join("\n") + "\n"
        }
    })
}

proptest! {
    /// write_tree → read_tree is the identity on worktrees.
    #[test]
    fn snapshot_round_trip(wt in arb_worktree()) {
        let mut odb = Odb::new();
        let root = write_tree(&mut odb, &wt);
        let back = read_tree(&odb, root).unwrap();
        prop_assert_eq!(back, wt);
    }

    /// Snapshot ids are deterministic and content-derived.
    #[test]
    fn snapshot_deterministic(wt in arb_worktree()) {
        let mut odb1 = Odb::new();
        let mut odb2 = Odb::new();
        prop_assert_eq!(write_tree(&mut odb1, &wt), write_tree(&mut odb2, &wt));
    }

    /// A tree diffed against itself is empty; against another tree, the
    /// changed-path count never exceeds the union of file counts.
    #[test]
    fn diff_sanity(a in arb_worktree(), b in arb_worktree()) {
        let mut odb = Odb::new();
        let ta = write_tree(&mut odb, &a);
        let tb = write_tree(&mut odb, &b);
        let self_diff = diff_trees(&odb, ta, ta, true).unwrap();
        prop_assert!(self_diff.is_empty());
        let d = diff_trees(&odb, ta, tb, true).unwrap();
        prop_assert!(d.len() <= a.len() + b.len());
        // Applying the diff forward must reproduce b's listing: start from
        // a's listing, remove deleted+renamed-from, add added+renamed-to,
        // replace modified.
        let fa = flatten_tree(&odb, ta).unwrap();
        let fb = flatten_tree(&odb, tb).unwrap();
        let mut reconstructed = fa.clone();
        for p in d.deleted.keys() { reconstructed.remove(p); }
        for r in &d.renames {
            reconstructed.remove(&r.from);
            reconstructed.insert(r.to.clone(), fb[&r.to]);
        }
        for (p, id) in &d.added { reconstructed.insert(p.clone(), *id); }
        for (p, (_, new)) in &d.modified { reconstructed.insert(p.clone(), *new); }
        prop_assert_eq!(reconstructed, fb);
    }

    /// LCS matches are strictly increasing and equal elements.
    #[test]
    fn lcs_invariants(a in prop::collection::vec("[a-c]{0,2}", 0..24),
                      b in prop::collection::vec("[a-c]{0,2}", 0..24)) {
        let m = lcs_matches(&a, &b);
        for w in m.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 < w[1].1);
        }
        for &(i, j) in &m {
            prop_assert_eq!(&a[i], &b[j]);
        }
    }

    /// diff3 with identical sides returns that side verbatim; merging a
    /// change against an unchanged side applies the change with no
    /// conflicts.
    #[test]
    fn diff3_one_sided(base in arb_lines(), edited in arb_lines()) {
        let same = diff3_merge(&base, &base, &base, MergeLabels::default());
        prop_assert_eq!(same.conflicts, 0);
        prop_assert_eq!(&same.text, &base);

        let ours = diff3_merge(&base, &edited, &base, MergeLabels::default());
        prop_assert_eq!(ours.conflicts, 0);
        prop_assert_eq!(&ours.text, &edited);

        let theirs = diff3_merge(&base, &base, &edited, MergeLabels::default());
        prop_assert_eq!(theirs.conflicts, 0);
        prop_assert_eq!(&theirs.text, &edited);
    }

    /// diff3 is symmetric in conflict count.
    #[test]
    fn diff3_conflict_symmetry(base in arb_lines(), x in arb_lines(), y in arb_lines()) {
        let xy = diff3_merge(&base, &x, &y, MergeLabels::default());
        let yx = diff3_merge(&base, &y, &x, MergeLabels::default());
        prop_assert_eq!(xy.conflicts, yx.conflicts);
        // A clean merge must not contain stray conflict markers we emitted.
        if xy.conflicts == 0 {
            prop_assert!(!xy.text.contains("<<<<<<< "));
        }
    }

    /// Commit/checkout round trip: whatever we commit is what a checkout
    /// of that commit restores, for any sequence of two edits.
    #[test]
    fn commit_checkout_round_trip(wt1 in arb_worktree(), wt2 in arb_worktree()) {
        prop_assume!(!wt1.is_empty());
        prop_assume!(wt1 != wt2);
        let mut repo = Repository::init("prop");
        *repo.worktree_mut() = wt1.clone();
        let c1 = repo.commit(Signature::new("p", "p@p", 1), "c1").unwrap();
        *repo.worktree_mut() = wt2.clone();
        let c2 = match repo.commit(Signature::new("p", "p@p", 2), "c2") {
            Ok(id) => id,
            Err(gitlite::GitError::NothingToCommit) => c1,
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        repo.checkout_commit(c1).unwrap();
        prop_assert_eq!(repo.worktree().clone(), wt1);
        repo.checkout_commit(c2).unwrap();
        if c2 != c1 {
            prop_assert_eq!(repo.worktree().clone(), wt2);
        }
    }

    /// `is_dir`'s ordered probe agrees with the definition by full scan:
    /// some file lies strictly below the path, and the path is no file.
    #[test]
    fn is_dir_matches_scan(wt in arb_worktree(),
                           queries in prop::collection::vec(
                               prop::collection::vec("[a-d]{1,3}", 0..4), 0..8)) {
        let mut probes: Vec<RepoPath> = queries
            .iter()
            .filter_map(|parts| RepoPath::parse(&parts.join("/")).ok())
            .collect();
        for p in wt.paths() {
            probes.push(p.clone());
            probes.extend(p.ancestors());
        }
        for q in &probes {
            let scan = !wt.is_file(q) && wt.paths().any(|p| p.starts_with(q) && p != q);
            prop_assert_eq!((q, wt.is_dir(q)), (q, scan));
        }
    }
}
