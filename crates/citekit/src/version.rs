//! Citations of committed versions, read and edited in place in a
//! [`Repository`]'s store — no worktree, no clone.
//!
//! A version keeps its citation function in the `citation.cite` blob of
//! its tree. That blob's id is a content address: two versions whose blob
//! ids agree carry the same function, so [`function_blob`] keys a cache of
//! parsed functions that no write can make stale. [`cite_at`] is `GenCite`
//! for a committed version, with the function supplied by the caller from
//! such a cache (or read afresh with [`read_function`]). [`commit_op`] is
//! the write side: one citation edit on a branch tip, committed as a new
//! `citation.cite` blob in the tip's root tree.

use crate::carry::fit_to_tree;
use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::file::{self, citation_path, CITATION_FILE};
use crate::function::CitationFunction;
use crate::ops::CiteOp;
use crate::time::format_iso8601;
use gitlite::{
    resolve_path, Blob, EntryMode, GitError, Object, ObjectId, RepoPath, Repository, Signature,
    TreeEntry,
};
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
    let mut root = repo
        .odb()
        .tree_ref(tree)?
        .as_tree()
        .expect("checked kind")
        .clone();
    let entry = TreeEntry {
        mode: EntryMode::File,
        id: blob_id,
    };
    root.insert(CITATION_FILE, entry);
    let odb = repo.odb_mut();
    odb.put_with_id(blob_id, Arc::new(Object::Blob(blob)));
    let tree = odb.put(Object::Tree(root));
    let commit = repo.commit_onto(branch, tree, author, message)?;
    Ok(Edit {
        commit,
        blob: blob_id,
        function: Arc::new(func),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CitedRepo;
    use gitlite::{path, Signature};

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
