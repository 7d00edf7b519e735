//! Citations of a committed version, read in place from a borrowed
//! [`Repository`] — no worktree, no clone.
//!
//! A version keeps its citation function in the `citation.cite` blob of
//! its tree. That blob's id is a content address: two versions whose blob
//! ids agree carry the same function, so [`function_blob`] keys a cache of
//! parsed functions that no write can make stale. [`cite_at`] is `GenCite`
//! for a committed version, with the function supplied by the caller from
//! such a cache (or read afresh with [`read_function`]).

use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::file::{self, citation_path};
use crate::function::CitationFunction;
use crate::time::format_iso8601;
use gitlite::{ObjectId, RepoPath, Repository};
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
