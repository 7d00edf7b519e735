//! Versions read and written in place in a [`Repository`]'s store — no
//! worktree, no clone, no checkout.
//!
//! A version keeps its citation function in the `citation.cite` blob of
//! its tree. That blob's id is a content address: two versions whose blob
//! ids agree carry the same function, so [`function_blob`] keys a cache of
//! parsed functions that no write can make stale. [`cite_at`] is `GenCite`
//! for a committed version, with the function supplied by the caller from
//! such a cache (or read afresh with [`read_function`]).
//!
//! The write side states each version function's rules once, as a store
//! edit: [`commit_op`] commits one citation edit on a branch tip as a new
//! `citation.cite` blob in the tip's root tree, and [`merge_op`] is
//! `MergeCite` as a [`gitlite::merge_trees`] of the three root trees,
//! which reads and rewrites only the subtrees both sides changed.
//! [`crate::CitedRepo`]'s `merge_cite` is `merge_op` plus a checkout of
//! the result, and [`crate::fork_op`] restamps a fork's root through
//! `commit_op`. A hosting platform, which reads versions only by commit,
//! calls them on repositories that hold no worktree at all.

use crate::carry::fit_to_tree;
use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::file::{self, citation_path, CITATION_FILE};
use crate::function::CitationFunction;
use crate::merge::{
    merge_functions, ConflictResolver, MergeCiteOutcome, MergeCiteReport, MergeStrategy,
};
use crate::ops::CiteOp;
use crate::time::format_iso8601;
use gitlite::{
    merge_base, merge_trees, resolve_path, snapshot, Blob, EntryMode, GitError, MergeLabels,
    Object, ObjectId, RepoPath, Repository, Signature, Tree, TreeEntry,
};
use std::cell::Cell;
use std::sync::Arc;

/// The id of `version`'s `citation.cite` blob. Fails with
/// [`CiteError::BadCitationFile`] when the version has none.
pub fn function_blob(repo: &Repository, version: ObjectId) -> Result<ObjectId> {
    repo.blob_at(version, &citation_path()).map_err(|_| {
        CiteError::BadCitationFile(format!("version {} has no citation.cite", version.short()))
    })
}

/// Parses the citation function stored in the blob `blob`.
pub fn read_function(repo: &Repository, blob: ObjectId) -> Result<CitationFunction> {
    let text = repo.odb().blob_data(blob).map_err(CiteError::Git)?;
    file::parse(&String::from_utf8_lossy(&text))
}

/// The citation function of the committed version `version`.
pub fn function_at(repo: &Repository, version: ObjectId) -> Result<CitationFunction> {
    read_function(repo, function_blob(repo, version)?)
}

/// `Cite(V,P)(n)` for the committed version `version`. `function` maps
/// the version's `citation.cite` blob id to its parsed function; it is
/// called only once `path` is known to exist in the version.
///
/// A citation resolved from the root entry is stamped with the version's
/// `commitID` and `committedDate`; explicitly attached citations are
/// returned as stored.
pub fn cite_at(
    repo: &Repository,
    version: ObjectId,
    path: &RepoPath,
    function: impl FnOnce(ObjectId) -> Result<Arc<CitationFunction>>,
) -> Result<Citation> {
    let commit = repo.commit_obj(version).map_err(CiteError::Git)?;
    if !repo.path_exists_at(version, path).map_err(CiteError::Git)? {
        return Err(CiteError::PathMissing(path.clone()));
    }
    let func = function(function_blob(repo, version)?)?;
    let (at, citation) = func.resolve(path);
    if at.is_root() {
        Ok(citation.stamped(&version.short(), &format_iso8601(commit.author.timestamp)))
    } else {
        Ok(citation.clone())
    }
}

/// What [`commit_op`] committed.
#[derive(Debug, Clone)]
pub struct Edit {
    /// The new version, now the branch tip.
    pub commit: ObjectId,
    /// The version's `citation.cite` blob.
    pub blob: ObjectId,
    /// The citation function `blob` holds, for the caller's cache.
    pub function: Arc<CitationFunction>,
}

/// Commits the citation edit `op` at `path` onto `branch`, editing the
/// tip's tree in the store. `function` supplies the tip's parsed function
/// given its `citation.cite` blob id, as for [`cite_at`]. Paths are
/// looked up in the tip's tree. After the op, keys whose nodes are gone
/// are dropped and `is_dir` flags fitted to the tree, as a commit after
/// a checkout of the tip does.
///
/// The new blob replaces `citation.cite` in the root tree, and
/// [`Repository::commit_onto`] commits that tree on the branch and puts
/// HEAD there; the worktree is untouched. The commit is the one
/// [`crate::CitedRepo`] makes from a checkout of the tip, except that a
/// tip holding an empty directory keeps it here. An edit that leaves the
/// blob as it was fails with [`GitError::NothingToCommit`] before
/// anything is written.
pub fn commit_op(
    repo: &mut Repository,
    branch: &str,
    path: &RepoPath,
    op: CiteOp,
    function: impl FnOnce(&Repository, ObjectId) -> Result<Arc<CitationFunction>>,
    author: Signature,
    message: impl Into<String>,
) -> Result<Edit> {
    let tip = repo.branch_tip(branch)?;
    let old_blob = function_blob(repo, tip)?;
    let mut func = Arc::unwrap_or_clone(function(repo, old_blob)?);
    let tree = repo.tree_of(tip)?;
    let node = |p: &RepoPath| -> Result<Option<bool>> {
        let entry = resolve_path(repo.odb(), tree, p)?;
        Ok(entry.map(|(mode, _)| mode == EntryMode::Dir))
    };
    op.apply(&mut func, path, node)?;
    fit_to_tree(&mut func, node)?;
    let blob = Blob::new(file::to_text(&func));
    let blob_id = blob.id();
    if blob_id == old_blob {
        return Err(CiteError::Git(GitError::NothingToCommit));
    }
    let tree = put_root(repo, repo.odb().tree(tree)?, blob);
    let commit = repo.commit_onto(branch, tree, author, message)?;
    Ok(Edit {
        commit,
        blob: blob_id,
        function: Arc::new(func),
    })
}

/// Stores `blob` as `root`'s `citation.cite`, then `root`; returns the
/// root's id.
fn put_root(repo: &mut Repository, mut root: Tree, blob: Blob) -> ObjectId {
    let id = blob.id();
    root.insert(
        CITATION_FILE,
        TreeEntry {
            mode: EntryMode::File,
            id,
        },
    );
    repo.odb_mut().put_with_id(id, Arc::new(Object::Blob(blob)));
    repo.odb_mut().put(Object::Tree(root))
}

/// What [`merge_op`] did.
#[derive(Debug, Clone)]
pub struct Merge {
    /// The outcome, the citation-key conflicts and the dropped keys.
    pub report: MergeCiteReport,
    /// A three-way merge's tree and citation function: the merge
    /// commit's, or the conflicted tree a checkout resolves. `None` when
    /// the branch was up to date or fast-forwarded.
    pub merged: Option<(ObjectId, CitationFunction)>,
}

/// `MergeCite` of `other` into `branch`, made in the store (paper §3;
/// the rules are [`crate::merge`]'s). Both tips must carry a
/// `citation.cite`, except an `other` that `branch` already contains.
///
/// * Up to date: nothing is written.
/// * Fast-forward: `branch` moves to `other`'s tip.
/// * Otherwise regular files merge by Git's rules ([`merge_trees`] of
///   the three root trees with `citation.cite` left out), and the
///   citation functions by `strategy` and `resolver`, dropping each key
///   whose node the merged tree does not hold as the key's kind; the
///   merged `citation.cite` joins the merged root. A clean merge commits
///   it onto `branch` with `other`'s tip as second parent. File
///   conflicts commit nothing: the conflicted tree comes back in
///   [`Merge::merged`], for a checkout to resolve.
///
/// HEAD ends on `branch` in every outcome but file conflicts, which move
/// neither a ref nor HEAD; nor does an error. The worktree is untouched.
pub fn merge_op(
    repo: &mut Repository,
    branch: &str,
    other: &str,
    author: Signature,
    message: impl Into<String>,
    strategy: MergeStrategy,
    resolver: &mut dyn ConflictResolver,
) -> Result<Merge> {
    let ours = repo.branch_tip(branch)?;
    let ours_func = function_at(repo, ours)?;
    let theirs = repo.branch_tip(other)?;
    let base = merge_base(repo.odb(), ours, theirs)?;
    let moved = |repo: &mut Repository, outcome| -> Result<Merge> {
        repo.set_head(branch)?;
        let report = MergeCiteReport {
            outcome,
            citation_conflicts: Vec::new(),
            dropped: Vec::new(),
        };
        Ok(Merge {
            report,
            merged: None,
        })
    };
    if base == Some(theirs) {
        return moved(repo, MergeCiteOutcome::AlreadyUpToDate);
    }
    let theirs_func = function_at(repo, theirs)?;
    if base == Some(ours) {
        repo.set_branch(branch, theirs)?;
        return moved(repo, MergeCiteOutcome::FastForwarded(theirs));
    }
    let base_func = base.and_then(|b| function_at(repo, b).ok());

    // The three root trees, with `citation.cite` left out of the file
    // merge; unrelated histories merge against an empty tree.
    let root = |at: Option<ObjectId>| -> Result<Tree> {
        let tree = at.map(|at| repo.tree_of(at).and_then(|id| repo.odb().tree(id)));
        let mut tree = tree.transpose()?.unwrap_or_default();
        tree.remove(CITATION_FILE);
        Ok(tree)
    };
    let (base_root, ours_root, theirs_root) = (root(base)?, root(Some(ours))?, root(Some(theirs))?);
    let labels = MergeLabels {
        ours: branch,
        base: "base",
        theirs: other,
    };
    let (merged, conflicts) =
        merge_trees(repo.odb_mut(), &base_root, &ours_root, &theirs_root, labels)?;

    // Keys whose nodes the file merge deleted are dropped (§3).
    let failed = Cell::new(None);
    let exists = |p: &RepoPath, is_dir: bool| {
        p.is_root()
            || match snapshot::resolve_in(repo.odb(), &merged, p.components()) {
                Ok(found) => found.is_some_and(|(mode, _)| (mode == EntryMode::Dir) == is_dir),
                Err(e) => {
                    failed.set(Some(e));
                    false
                }
            }
    };
    let merged_functions = merge_functions(
        &ours_func,
        &theirs_func,
        base_func.as_ref(),
        strategy,
        resolver,
        exists,
    );
    if let Some(e) = failed.take() {
        return Err(CiteError::Git(e));
    }
    let (func, citation_conflicts, dropped) = merged_functions?;
    let tree = put_root(repo, merged, Blob::new(file::to_text(&func)));
    let outcome = if conflicts.is_empty() {
        let commit = repo.merge_onto(branch, tree, theirs, author, message)?;
        MergeCiteOutcome::Merged(commit)
    } else {
        MergeCiteOutcome::FileConflicts {
            conflicts,
            parents: vec![ours, theirs],
        }
    };
    Ok(Merge {
        report: MergeCiteReport {
            outcome,
            citation_conflicts,
            dropped,
        },
        merged: Some((tree, func)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::FailOnConflict;
    use crate::ops::CitedRepo;
    use gitlite::{flatten_tree, path, Conflict, ConflictKind, Signature};

    fn sig(t: i64) -> Signature {
        Signature::new("L", "l@x", t)
    }

    /// The file/directory clash: the base holds `b.txt`, `main` adds and
    /// cites a file `x`, `dev` adds `x/y`. The merge in the store and the
    /// merge through a checkout both report the clash at `x` and move no
    /// ref. The directory keeps `x`, the file is kept at `x~main`, and
    /// the citation of `x` as a file is dropped.
    #[test]
    fn a_file_meeting_a_directory_conflicts_and_is_kept_beside_it() {
        let mut r = CitedRepo::init("P1", "L", "u");
        r.write_file(&path("b.txt"), &b"b\n"[..]).unwrap();
        r.commit(sig(1), "base").unwrap();
        r.create_branch("dev").unwrap();
        r.checkout_branch("dev").unwrap();
        r.write_file(&path("x/y"), &b"y\n"[..]).unwrap();
        r.commit(sig(2), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        r.write_file(&path("x"), &b"file\n"[..]).unwrap();
        r.add_cite(&path("x"), Citation::builder("x", "o").build())
            .unwrap();
        r.commit(sig(3), "main").unwrap();
        let refs = |repo: &Repository| {
            let refs: Vec<(String, ObjectId)> =
                repo.branches().map(|(b, id)| (b.to_owned(), id)).collect();
            (refs, repo.head().clone())
        };
        let before = refs(r.repo());
        let expected = vec![Conflict {
            path: path("x"),
            kind: ConflictKind::FileDirectory { file_by_ours: true },
        }];
        let conflicts_of = |outcome: &MergeCiteOutcome| match outcome {
            MergeCiteOutcome::FileConflicts { conflicts, .. } => conflicts.clone(),
            other => panic!("expected file conflicts, got {other:?}"),
        };

        let mut repo = r.repo().clone();
        let strategy = MergeStrategy::Union;
        let merge = merge_op(
            &mut repo,
            "main",
            "dev",
            sig(4),
            "m",
            strategy,
            &mut FailOnConflict,
        )
        .unwrap();
        assert_eq!(conflicts_of(&merge.report.outcome), expected);
        assert_eq!(merge.report.dropped, vec![path("x")]);
        assert_eq!(refs(&repo), before);
        let (tree, func) = merge.merged.unwrap();
        assert!(!func.contains(&path("x")));
        let files: Vec<String> = flatten_tree(repo.odb(), tree)
            .unwrap()
            .keys()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(files, ["b.txt", "citation.cite", "x/y", "x~main"]);

        let report = r
            .merge_cite("dev", sig(4), "m", strategy, &mut FailOnConflict)
            .unwrap();
        assert_eq!(conflicts_of(&report.outcome), expected);
        assert_eq!(refs(r.repo()), before);
        assert_eq!(r.read_text(&path("x~main")).unwrap(), "file\n");
        assert_eq!(r.read_text(&path("x/y")).unwrap(), "y\n");
        assert!(!r.function().contains(&path("x")));
    }

    #[test]
    fn cite_at_reads_the_supplied_function_only_for_existing_paths() {
        let mut r = CitedRepo::init("P1", "L", "u");
        r.write_file(&path("f1.txt"), &b"x"[..]).unwrap();
        let v1 = r
            .commit(Signature::new("L", "l@x", 86_400), "V1")
            .unwrap()
            .commit;
        let blob = function_blob(r.repo(), v1).unwrap();
        assert_eq!(blob, r.repo().blob_at(v1, &citation_path()).unwrap());

        let mut asked = None;
        let c = cite_at(r.repo(), v1, &path("f1.txt"), |b| {
            asked = Some(b);
            read_function(r.repo(), b).map(Arc::new)
        })
        .unwrap();
        assert_eq!(asked, Some(blob));
        assert_eq!(c, r.cite_at(v1, &path("f1.txt")).unwrap());
        assert_eq!(c.commit_id, v1.short());

        let missing = cite_at(r.repo(), v1, &path("nope.txt"), |_| {
            panic!("a missing path never reads the function")
        });
        assert_eq!(missing, Err(CiteError::PathMissing(path("nope.txt"))));
    }

    #[test]
    fn versions_without_a_citation_file_are_bad_citation_files() {
        let mut repo = Repository::init("plain");
        repo.worktree_mut()
            .write(&path("a.txt"), &b"a"[..])
            .unwrap();
        let v = repo.commit(Signature::new("L", "l@x", 1), "plain").unwrap();
        assert!(matches!(
            function_blob(&repo, v),
            Err(CiteError::BadCitationFile(_))
        ));
        assert!(matches!(
            cite_at(&repo, v, &path("a.txt"), |b| read_function(&repo, b)
                .map(Arc::new)),
            Err(CiteError::BadCitationFile(_))
        ));
    }
}
