//! Three-way tree merge ("Git merge" for this substrate).
//!
//! [`merge_trees`] merges two trees against a base entry by entry, the
//! way git's `ort` strategy resolves trivial trees
//! (<https://git-scm.com/docs/merge-strategies>). Each name's entries are
//! split into a file part and a directory part:
//!
//! * Files follow Git's rules: a change on one side wins, changes on
//!   both go through the diff3 text merge, and what cannot be reconciled
//!   leaves conflict markers and a [`Conflict`] record.
//! * A subtree both sides agree on, or only one side changed, is taken
//!   by id without being read; only a subtree both sides changed is
//!   descended into. New trees are written only along those spines.
//! * A file that meets a non-empty directory is kept beside it
//!   ([`ConflictKind::FileDirectory`]).
//!
//! The citation layer leaves `citation.cite` out of the roots it hands
//! in: §3 never text-merges it. [`merge_listings`] is the same merge
//! over flattened listings, the reference the proptests compare against.

use crate::error::Result;
use crate::hash::ObjectId;
use crate::object::{EntryMode, Object, Tree, TreeEntry};
use crate::path::RepoPath;
use crate::store::{ObjectStore, ObjectStoreExt};
use crate::textdiff::{diff3_merge, MergeLabels};
use std::collections::{BTreeMap, BTreeSet};

/// Why a path could not be merged cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictKind {
    /// Both sides modified the file and diff3 found overlapping edits.
    Content {
        /// Number of conflicted regions in the marked-up file.
        regions: usize,
    },
    /// One side deleted the file, the other modified it. The modified
    /// content is kept in the merged tree.
    DeleteModify {
        /// True when *ours* deleted and *theirs* modified.
        deleted_by_ours: bool,
    },
    /// Both sides added the same path with different contents.
    AddAdd,
    /// One side's file met a non-empty directory. The directory keeps the
    /// path; the file is kept at `<path>~<label>`, with `/` in the label
    /// made `_` and `_1`, `_2`, … appended while that name is taken.
    FileDirectory {
        /// True when the file (and so the label) is *ours*.
        file_by_ours: bool,
    },
}

/// A single conflicted path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The conflicted path.
    pub path: RepoPath,
    /// What kind of conflict.
    pub kind: ConflictKind,
}

/// Options for [`merge_listings`].
#[derive(Debug, Clone, Default)]
pub struct MergeOptions {
    /// Paths excluded from the merge; they are absent from the result and
    /// produce no conflicts.
    pub exclude: Vec<RepoPath>,
}

/// Outcome of [`merge_listings`].
#[derive(Debug, Clone)]
pub struct TreeMerge {
    /// The merged `path → blob id` listing (conflicted files carry their
    /// marked-up blobs).
    pub listing: BTreeMap<RepoPath, ObjectId>,
    /// All conflicts, in path order.
    pub conflicts: Vec<Conflict>,
}

/// Merges `ours` and `theirs` against `base` (empty for unrelated
/// histories) and returns the merged root, unstored so the caller can
/// add entries before writing it, with every conflict in path order.
/// Merged blobs and subtrees are written to `odb`; conflicted files
/// carry their marked-up blobs. A tree or blob the merge must read and
/// cannot fails it.
pub fn merge_trees<S: ObjectStore + ?Sized>(
    odb: &mut S,
    base: &Tree,
    ours: &Tree,
    theirs: &Tree,
    labels: MergeLabels<'_>,
) -> Result<(Tree, Vec<Conflict>)> {
    let mut conflicts = Vec::new();
    let sides = [base, ours, theirs];
    let root = merge_dir(odb, &RepoPath::root(), sides, labels, &mut conflicts)?;
    Ok((root, conflicts))
}

/// [`merge_trees`] of the directory `dir`.
fn merge_dir<S: ObjectStore + ?Sized>(
    odb: &mut S,
    dir: &RepoPath,
    trees: [&Tree; 3],
    labels: MergeLabels<'_>,
    conflicts: &mut Vec<Conflict>,
) -> Result<Tree> {
    let names: BTreeSet<&str> = trees.iter().flat_map(|t| t.iter()).map(|e| e.0).collect();
    let mut merged = Tree::new();
    let mut displaced = Vec::new();
    for name in names {
        let part = |mode| trees.map(|t| t.get(name).filter(|e| e.mode == mode).map(|e| e.id));
        let (files, path, at) = (part(EntryMode::File), dir.child(name), conflicts.len());
        let (file, mut kind) = merge_file(odb, files, labels)?;
        let subtree = match part(EntryMode::Dir) {
            [_, o, t] if o == t => o,
            [b, o, t] if b == o => t,
            [b, o, t] if b == t => o,
            sides => {
                let [b, o, t] = sides.map(|id| id.map(|id| odb.tree_ref(id)).transpose());
                let (read, empty) = ([b?, o?, t?], Tree::new());
                let sides = read
                    .each_ref()
                    .map(|o| o.as_deref().and_then(Object::as_tree));
                let sides = sides.map(|tree| tree.unwrap_or(&empty));
                let tree = merge_dir(odb, &path, sides, labels, conflicts)?;
                (!tree.is_empty()).then(|| odb.put(Object::Tree(tree)))
            }
        };
        if let Some(id) = subtree {
            merged.insert(name, entry(EntryMode::Dir, id));
        }
        match (file, subtree) {
            (Some(id), Some(_)) => {
                let file_by_ours = files[1].is_some();
                displaced.push((name, file_by_ours, id));
                kind = Some(ConflictKind::FileDirectory { file_by_ours });
            }
            (Some(id), None) => merged.insert(name, entry(EntryMode::File, id)),
            (None, _) => {}
        }
        // Before any conflict the subtree reported: path order.
        if let Some(kind) = kind {
            conflicts.insert(at, Conflict { path, kind });
        }
    }
    for (name, file_by_ours, id) in displaced {
        let kept = side_name(name, labels, file_by_ours, |n| merged.get(n).is_some());
        merged.insert(kept, entry(EntryMode::File, id));
    }
    Ok(merged)
}

fn entry(mode: EntryMode, id: ObjectId) -> TreeEntry {
    TreeEntry { mode, id }
}

/// Git's three-way rule for one path's file, given its blob in base,
/// ours and theirs: the merged blob (`None` when the file is gone) and
/// why the sides could not be reconciled, if they could not. A blob that
/// cannot be read fails the merge rather than merging as empty text.
fn merge_file<S: ObjectStore + ?Sized>(
    odb: &mut S,
    [b, o, t]: [Option<ObjectId>; 3],
    labels: MergeLabels<'_>,
) -> Result<(Option<ObjectId>, Option<ConflictKind>)> {
    if o == t || b == t {
        return Ok((o, None)); // both sides agree, or only ours changed
    }
    if b == o {
        return Ok((t, None)); // only theirs changed (possibly deleted)
    }
    let (Some(o_id), Some(t_id)) = (o, t) else {
        let deleted_by_ours = o.is_none();
        let kind = ConflictKind::DeleteModify { deleted_by_ours };
        return Ok((o.or(t), Some(kind)));
    };
    let text =
        |id| Ok::<_, crate::GitError>(String::from_utf8_lossy(&odb.blob_data(id)?).into_owned());
    let base_text = b.map(text).transpose()?.unwrap_or_default();
    let merged = diff3_merge(&base_text, &text(o_id)?, &text(t_id)?, labels);
    let kind = match (merged.conflicts, b) {
        (0, _) => None,
        (_, None) => Some(ConflictKind::AddAdd),
        (regions, Some(_)) => Some(ConflictKind::Content { regions }),
    };
    Ok((Some(odb.put_blob(merged.text.into_bytes())), kind))
}

/// The name a file called `name`, displaced by a directory, is kept
/// under (see [`ConflictKind::FileDirectory`]); `used` tells whether a
/// name is taken beside it.
fn side_name(name: &str, labels: MergeLabels, ours: bool, used: impl Fn(&str) -> bool) -> String {
    let label = if ours { labels.ours } else { labels.theirs };
    let stem = format!("{name}~{}", label.replace('/', "_"));
    let mut kept = stem.clone();
    for n in 1.. {
        if !used(&kept) {
            break;
        }
        kept = format!("{stem}_{n}");
    }
    kept
}

/// [`merge_trees`] over flattened `path → blob id` listings, path by path
/// with the same rule, leaving out every path under
/// [`MergeOptions::exclude`]. No program code calls it: it reads all
/// three listings whole, and is the reference the proptests hold
/// [`merge_trees`] (plus [`crate::write_tree_from_listing`]) to.
///
/// # Panics
///
/// When a blob it must read cannot be read, where [`merge_trees`]
/// returns the error.
pub fn merge_listings<S: ObjectStore + ?Sized>(
    odb: &mut S,
    base: &BTreeMap<RepoPath, ObjectId>,
    ours: &BTreeMap<RepoPath, ObjectId>,
    theirs: &BTreeMap<RepoPath, ObjectId>,
    labels: MergeLabels<'_>,
    opts: &MergeOptions,
) -> TreeMerge {
    let (mut listing, mut conflicts) = (BTreeMap::new(), Vec::new());
    let paths: BTreeSet<&RepoPath> = [base, ours, theirs].iter().flat_map(|l| l.keys()).collect();
    for path in paths {
        if opts.exclude.iter().any(|ex| path.starts_with(ex)) {
            continue;
        }
        let sides = [base, ours, theirs].map(|l| l.get(path).copied());
        let (file, kind) = merge_file(odb, sides, labels).unwrap_or_else(|e| panic!("{path}: {e}"));
        listing.extend(file.map(|id| (path.clone(), id)));
        conflicts.extend(kind.map(|kind| (path.clone(), kind)));
    }
    // A file that meets a directory moves aside, as in `merge_trees`.
    // Whether the `nth` listed path from `p` on lies at or below `p`:
    let below = |l: &BTreeMap<RepoPath, ObjectId>, p: &RepoPath, nth| {
        l.range(p..).nth(nth).is_some_and(|(q, _)| q.starts_with(p))
    };
    let clashes: Vec<RepoPath> = listing
        .keys()
        .filter(|p| below(&listing, p, 1))
        .cloned()
        .collect();
    for path in clashes {
        let id = listing.remove(&path).expect("listed above");
        let (parent, file_by_ours) = (path.parent().expect("a file"), ours.contains_key(&path));
        let name = path.file_name().expect("a file");
        let kept = side_name(name, labels, file_by_ours, |n| {
            below(&listing, &parent.child(n), 0)
        });
        listing.insert(parent.child(&kept), id);
        conflicts.retain(|(p, _)| *p != path);
        conflicts.push((path, ConflictKind::FileDirectory { file_by_ours }));
    }
    conflicts.sort_by(|a, b| a.0.cmp(&b.0));
    let conflicts = conflicts
        .into_iter()
        .map(|(path, kind)| Conflict { path, kind });
    TreeMerge {
        listing,
        conflicts: conflicts.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mergebase::merge_base;
    use crate::object::Signature;
    use crate::path::path;
    use crate::repo::Repository;
    use crate::snapshot::{read_tree, write_tree_from_listing};
    use crate::store::Odb;

    fn sig(name: &str, t: i64) -> Signature {
        Signature::new(name, format!("{name}@x"), t)
    }

    /// The root tree of `commit`, or an empty tree for no commit.
    fn root(r: &Repository, commit: Option<ObjectId>) -> Tree {
        commit.map_or_else(Tree::new, |c| r.odb().tree(r.tree_of(c).unwrap()).unwrap())
    }

    /// Merges `other` into the current branch as a caller of
    /// [`merge_trees`] does: against the merge base (an empty tree for
    /// unrelated histories), committing a clean merge with
    /// [`Repository::commit_merge`]. Conflicts come back with the
    /// conflicted tree loaded into the worktree.
    fn merge_branch(
        r: &mut Repository,
        other: &str,
    ) -> std::result::Result<ObjectId, Vec<Conflict>> {
        let (ours, theirs) = (r.head_commit().unwrap(), r.branch_tip(other).unwrap());
        let base = merge_base(r.odb(), ours, theirs).unwrap();
        let sides = [root(r, base), root(r, Some(ours)), root(r, Some(theirs))];
        let branch = r.current_branch().unwrap().to_owned();
        let labels = MergeLabels {
            ours: &branch,
            base: "base",
            theirs: other,
        };
        let (tree, conflicts) =
            merge_trees(r.odb_mut(), &sides[0], &sides[1], &sides[2], labels).unwrap();
        let tree = r.odb_mut().put(Object::Tree(tree));
        if conflicts.is_empty() {
            Ok(
                r.commit_merge(tree, vec![ours, theirs], sig("alice", 9), "merge")
                    .unwrap(),
            )
        } else {
            *r.worktree_mut() = read_tree(r.odb(), tree).unwrap();
            Err(conflicts)
        }
    }

    /// main: base commit with three files; dev edits one, main edits another.
    fn two_branch_repo() -> Repository {
        let mut r = Repository::init("p");
        r.worktree_mut()
            .write(&path("a.txt"), &b"a1\na2\na3\n"[..])
            .unwrap();
        r.worktree_mut()
            .write(&path("b.txt"), &b"b1\nb2\nb3\n"[..])
            .unwrap();
        r.worktree_mut().write(&path("c.txt"), &b"c\n"[..]).unwrap();
        r.commit(sig("alice", 1), "base").unwrap();
        r.create_branch("dev").unwrap();
        r
    }

    #[test]
    fn merge_disjoint_edits_creates_merge_commit() {
        let mut r = two_branch_repo();
        // dev edits b.txt
        r.checkout_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("b.txt"), &b"b1\nB2!\nb3\n"[..])
            .unwrap();
        r.commit(sig("bob", 2), "dev edit").unwrap();
        // main edits a.txt
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("a.txt"), &b"A1!\na2\na3\n"[..])
            .unwrap();
        let main_tip = r.commit(sig("alice", 3), "main edit").unwrap();
        let mc = merge_branch(&mut r, "dev").expect("clean merge");
        let commit = r.commit_obj(mc).unwrap();
        assert_eq!(commit.parents.len(), 2);
        assert_eq!(commit.parents[0], main_tip);
        // Both edits present.
        assert_eq!(
            r.worktree().read_text(&path("a.txt")).unwrap(),
            "A1!\na2\na3\n"
        );
        assert_eq!(
            r.worktree().read_text(&path("b.txt")).unwrap(),
            "b1\nB2!\nb3\n"
        );
    }

    #[test]
    fn merge_same_file_disjoint_regions_clean() {
        let mut r = Repository::init("p");
        r.worktree_mut()
            .write(&path("f.txt"), &b"l1\nl2\nl3\nl4\nl5\nl6\nl7\nl8\n"[..])
            .unwrap();
        r.commit(sig("alice", 1), "base").unwrap();
        r.create_branch("dev").unwrap();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("f.txt"), &b"l1\nl2\nl3\nl4\nl5\nl6\nl7\nL8-dev\n"[..])
            .unwrap();
        r.commit(sig("bob", 2), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(
                &path("f.txt"),
                &b"L1-main\nl2\nl3\nl4\nl5\nl6\nl7\nl8\n"[..],
            )
            .unwrap();
        r.commit(sig("alice", 3), "main").unwrap();
        merge_branch(&mut r, "dev").expect("clean merge");
        assert_eq!(
            r.worktree().read_text(&path("f.txt")).unwrap(),
            "L1-main\nl2\nl3\nl4\nl5\nl6\nl7\nL8-dev\n"
        );
    }

    #[test]
    fn merge_overlapping_edits_conflict() {
        let mut r = Repository::init("p");
        r.worktree_mut()
            .write(&path("f.txt"), &b"x\nmid\ny\n"[..])
            .unwrap();
        r.commit(sig("alice", 1), "base").unwrap();
        r.create_branch("dev").unwrap();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("f.txt"), &b"x\ndev-mid\ny\n"[..])
            .unwrap();
        let dev_tip = r.commit(sig("bob", 2), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("f.txt"), &b"x\nmain-mid\ny\n"[..])
            .unwrap();
        let main_tip = r.commit(sig("alice", 3), "main").unwrap();
        let conflicts = merge_branch(&mut r, "dev").expect_err("conflict");
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].path, path("f.txt"));
        assert!(matches!(
            conflicts[0].kind,
            ConflictKind::Content { regions: 1 }
        ));
        // Worktree contains markers; resolve and commit.
        let text = r.worktree().read_text(&path("f.txt")).unwrap();
        assert!(text.contains("<<<<<<< main") && text.contains(">>>>>>> dev"));
        r.worktree_mut()
            .write(&path("f.txt"), &b"x\nresolved\ny\n"[..])
            .unwrap();
        let listing: BTreeMap<_, _> = r
            .worktree()
            .iter()
            .map(|(p, d)| (p.clone(), d.clone()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(p, d)| (p, r.odb_mut().put_blob(d)))
            .collect();
        let tree = write_tree_from_listing(r.odb_mut(), &listing);
        let mc = r
            .commit_merge(
                tree,
                vec![main_tip, dev_tip],
                sig("alice", 5),
                "resolved merge",
            )
            .unwrap();
        let c = r.commit_obj(mc).unwrap();
        assert_eq!(c.parents.len(), 2);
        assert_eq!(
            r.worktree().read_text(&path("f.txt")).unwrap(),
            "x\nresolved\ny\n"
        );
    }

    #[test]
    fn merge_delete_vs_modify_keeps_modified_and_conflicts() {
        let mut r = two_branch_repo();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut().remove_file(&path("c.txt")).unwrap();
        r.commit(sig("bob", 2), "dev deletes c").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("c.txt"), &b"c-modified\n"[..])
            .unwrap();
        r.commit(sig("alice", 3), "main modifies c").unwrap();
        let conflicts = merge_branch(&mut r, "dev").expect_err("conflict");
        assert_eq!(conflicts.len(), 1);
        assert_eq!(
            conflicts[0].kind,
            ConflictKind::DeleteModify {
                deleted_by_ours: false
            }
        );
        // Modified side survives in the worktree.
        assert_eq!(
            r.worktree().read_text(&path("c.txt")).unwrap(),
            "c-modified\n"
        );
    }

    #[test]
    fn merge_clean_delete_propagates() {
        let mut r = two_branch_repo();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut().remove_file(&path("c.txt")).unwrap();
        r.commit(sig("bob", 2), "dev deletes c").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("a.txt"), &b"a1\na2\nA3\n"[..])
            .unwrap();
        r.commit(sig("alice", 3), "main edits a").unwrap();
        merge_branch(&mut r, "dev").expect("clean merge");
        assert!(!r.worktree().is_file(&path("c.txt")));
    }

    #[test]
    fn add_add_same_content_clean() {
        let mut r = two_branch_repo();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("new.txt"), &b"same\n"[..])
            .unwrap();
        r.commit(sig("bob", 2), "dev adds").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("new.txt"), &b"same\n"[..])
            .unwrap();
        r.commit(sig("alice", 3), "main adds same").unwrap();
        merge_branch(&mut r, "dev").expect("clean merge");
    }

    #[test]
    fn add_add_different_content_conflicts() {
        let mut r = two_branch_repo();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("new.txt"), &b"dev version\n"[..])
            .unwrap();
        r.commit(sig("bob", 2), "dev adds").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("new.txt"), &b"main version\n"[..])
            .unwrap();
        r.commit(sig("alice", 3), "main adds different").unwrap();
        let conflicts = merge_branch(&mut r, "dev").expect_err("conflict");
        assert_eq!(conflicts[0].kind, ConflictKind::AddAdd);
    }

    #[test]
    fn unrelated_histories_merge_against_empty_base() {
        let mut r = Repository::init("p");
        r.worktree_mut()
            .write(&path("ours.txt"), &b"o\n"[..])
            .unwrap();
        r.commit(sig("alice", 1), "ours root").unwrap();
        // An unrelated root on another branch: a parentless commit.
        let mut side_listing = BTreeMap::new();
        let blob = r.odb_mut().put_blob(&b"t\n"[..]);
        side_listing.insert(path("theirs.txt"), blob);
        let tree = write_tree_from_listing(r.odb_mut(), &side_listing);
        let orphan = crate::object::Commit {
            tree,
            parents: vec![],
            author: sig("bob", 2),
            message: "theirs root".into(),
        };
        let orphan_id = r.odb_mut().put(crate::object::Object::Commit(orphan));
        r.create_branch_at("side", orphan_id).unwrap();
        merge_branch(&mut r, "side").expect("clean merge");
        assert!(r.worktree().is_file(&path("ours.txt")));
        assert!(r.worktree().is_file(&path("theirs.txt")));
    }

    /// An entry left out of the root trees, as `citation.cite` is by the
    /// citation layer, is left out of the merge.
    #[test]
    fn excluded_paths_are_left_out() {
        let mut r = two_branch_repo();
        r.checkout_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("citation.cite"), &b"{\"dev\": 1}"[..])
            .unwrap();
        let dev = r.commit(sig("bob", 2), "dev cites").unwrap();
        r.checkout_branch("main").unwrap();
        r.worktree_mut()
            .write(&path("citation.cite"), &b"{\"main\": 1}"[..])
            .unwrap();
        let main = r.commit(sig("alice", 3), "main cites").unwrap();
        let base = merge_base(r.odb(), main, dev).unwrap();
        let [b, o, t] = [base, Some(main), Some(dev)].map(|c| {
            let mut tree = root(&r, c);
            tree.remove("citation.cite");
            tree
        });
        let (merged, conflicts) =
            merge_trees(r.odb_mut(), &b, &o, &t, MergeLabels::default()).unwrap();
        // No conflict: the file left out never goes through textual merge.
        assert!(conflicts.is_empty());
        assert!(merged.get("citation.cite").is_none());
        assert_eq!(merged.len(), 3);
    }

    /// The file/directory clash: base holds `b.txt`, ours adds a file
    /// `x`, theirs adds `x/y`. The directory keeps `x` and the file moves
    /// to `x~main`; the listing merge makes the same tree.
    #[test]
    fn a_file_meeting_a_directory_is_kept_beside_it() {
        let mut odb = Odb::new();
        let blob = |odb: &mut Odb, s: &str| odb.put_blob(s.as_bytes().to_vec());
        let base = BTreeMap::from([(path("b.txt"), blob(&mut odb, "b"))]);
        let mut ours = base.clone();
        ours.insert(path("x"), blob(&mut odb, "file"));
        let mut theirs = base.clone();
        theirs.insert(path("x/y"), blob(&mut odb, "y"));
        let labels = MergeLabels {
            ours: "main",
            base: "base",
            theirs: "dev",
        };
        let trees = [&base, &ours, &theirs].map(|l| {
            let id = write_tree_from_listing(&mut odb, l);
            odb.tree(id).unwrap()
        });
        let (merged, conflicts) =
            merge_trees(&mut odb, &trees[0], &trees[1], &trees[2], labels).unwrap();
        let expected = vec![Conflict {
            path: path("x"),
            kind: ConflictKind::FileDirectory { file_by_ours: true },
        }];
        assert_eq!(conflicts, expected);
        let merged = odb.put(Object::Tree(merged));
        let listing = crate::snapshot::flatten_tree(&odb, merged).unwrap();
        let paths: Vec<String> = listing.keys().map(|p| p.to_string()).collect();
        assert_eq!(paths, ["b.txt", "x/y", "x~main"]);
        assert_eq!(listing[&path("x~main")], ours[&path("x")]);

        let reference = merge_listings(
            &mut odb,
            &base,
            &ours,
            &theirs,
            labels,
            &MergeOptions::default(),
        );
        assert_eq!(reference.listing, listing);
        assert_eq!(reference.conflicts, expected);

        // A branch name with a slash, and a name already taken.
        let mut taken = ours.clone();
        taken.insert(path("x~feat_a"), blob(&mut odb, "taken"));
        let labels = MergeLabels {
            ours: "feat/a",
            ..labels
        };
        let reference = merge_listings(
            &mut odb,
            &base,
            &taken,
            &theirs,
            labels,
            &MergeOptions::default(),
        );
        assert_eq!(reference.listing[&path("x~feat_a_1")], ours[&path("x")]);
    }

    /// Subtrees that only one side changed are taken by id, unread: here
    /// they are not even in the store.
    #[test]
    fn one_sided_subtrees_are_taken_without_reading_them() {
        let mut odb = Odb::new();
        let absent = |n: u8| ObjectId([n; 20]);
        let dir = |id| entry(EntryMode::Dir, id);
        let mut base = Tree::new();
        base.insert("same", dir(absent(1)));
        base.insert("mine", dir(absent(2)));
        base.insert("yours", dir(absent(3)));
        let mut ours = base.clone();
        ours.insert("mine", dir(absent(4)));
        let mut theirs = base.clone();
        theirs.insert("yours", dir(absent(5)));
        theirs.remove("same");
        let (merged, conflicts) =
            merge_trees(&mut odb, &base, &ours, &theirs, MergeLabels::default()).unwrap();
        assert!(conflicts.is_empty());
        let ids: Vec<(&str, ObjectId)> = merged.iter().map(|(n, e)| (n, e.id)).collect();
        assert_eq!(ids, [("mine", absent(4)), ("yours", absent(5))]);
        assert!(odb.is_empty(), "nothing was written");
    }

    /// A blob both sides changed that cannot be read fails the merge; it
    /// is not merged as empty text.
    #[test]
    fn an_unreadable_blob_fails_the_merge() {
        let mut odb = Odb::new();
        let missing = Object::Blob(crate::object::Blob::new(&b"base\n"[..])).id();
        let file = |id| {
            let mut t = Tree::new();
            t.insert("f.txt", entry(EntryMode::File, id));
            t
        };
        let ours = odb.put_blob(&b"ours\n"[..]);
        let theirs = odb.put_blob(&b"theirs\n"[..]);
        let err = merge_trees(
            &mut odb,
            &file(missing),
            &file(ours),
            &file(theirs),
            MergeLabels::default(),
        )
        .unwrap_err();
        assert_eq!(err, crate::error::GitError::ObjectNotFound(missing));
    }
}
