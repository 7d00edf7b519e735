//! `ForkCite` — forking a repository with its history and citations
//! (paper §3).
//!
//! "ForkCite copies a version of a repository, along with its history, and
//! creates a new repository. The citations in citation.cite are also
//! copied. Our way of storing citations will naturally enable ForkCite
//! through GitHub's Fork." Because the citation file lives in the tree,
//! copying the objects and refs alone is a correct ForkCite;
//! [`ForkOptions::restamp_root`] additionally gives the fork its own root
//! identity while preserving the origin's citation as `forkedFrom`
//! provenance.
//!
//! [`fork_op`] makes the fork in the store: it copies the source's
//! reachable objects, sets refs and HEAD, and commits the restamped root
//! as a tree edit ([`crate::version::commit_op`]), so the fork holds no
//! worktree. [`fork_cite`] is that plus a checkout.

use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::ops::{CiteOp, CitedRepo};
use crate::version;
use gitlite::{
    clone_bare_into, Head, MemStore, ObjectId, ObjectStore, RepoPath, Repository, Signature,
};
use std::sync::Arc;

/// How a fork is created.
#[derive(Debug, Clone)]
pub struct ForkOptions {
    /// Name of the new repository.
    pub new_name: String,
    /// Owner of the new repository.
    pub new_owner: String,
    /// URL of the new repository.
    pub new_url: String,
    /// When true (the default), the fork gets a fresh root citation
    /// (new name/owner/url, original author credit preserved) committed on
    /// top, with the origin's root citation kept under the `forkedFrom`
    /// extra field. When false, the fork is a pure clone — the paper's
    /// literal behavior.
    pub restamp_root: bool,
}

impl ForkOptions {
    /// Convenience constructor with `restamp_root = true`.
    pub fn new(name: impl Into<String>, owner: impl Into<String>, url: impl Into<String>) -> Self {
        ForkOptions {
            new_name: name.into(),
            new_owner: owner.into(),
            new_url: url.into(),
            restamp_root: true,
        }
    }
}

/// Result of a fork: the new repository as a [`CitedRepo`] from
/// [`fork_cite`], as a bare [`Repository`] from [`fork_op`].
#[derive(Debug)]
pub struct ForkOutcome<R = CitedRepo> {
    /// The new repository.
    pub fork: R,
    /// The commit of the source the fork points at.
    pub fork_point: ObjectId,
    /// The restamp commit, when `restamp_root` was set.
    pub restamp_commit: Option<ObjectId>,
}

/// `ForkCite(P1) → P3`: forks `src` (all branches, full history) into
/// an in-memory repository: [`fork_op`], then a checkout of the fork's
/// HEAD branch.
pub fn fork_cite(src: &Repository, opts: &ForkOptions, author: Signature) -> Result<ForkOutcome> {
    let out = fork_op(src, opts, author, Box::new(MemStore::new()))?;
    let mut repo = out.fork;
    if let Head::Branch(branch) = repo.head().clone() {
        repo.checkout_branch(&branch)?;
    }
    Ok(ForkOutcome {
        fork: CitedRepo::open(repo)?,
        fork_point: out.fork_point,
        restamp_commit: out.restamp_commit,
    })
}

/// `ForkCite` in the store: copies every branch of `src` with its
/// history into a new repository on `store` (e.g. the hosting
/// platform's configured backend), puts HEAD on `src`'s branch (else the
/// first), and, under `restamp_root`, commits the new root citation
/// there as a `ModifyCite` of the root through [`version::commit_op`].
/// The fork's worktree stays empty. The branch's tip must carry a
/// `citation.cite`.
pub fn fork_op(
    src: &Repository,
    opts: &ForkOptions,
    author: Signature,
    store: Box<dyn ObjectStore>,
) -> Result<ForkOutcome<Repository>> {
    let fork_point = src.head_commit().map_err(CiteError::Git)?;
    let mut fork = clone_bare_into(src, opts.new_name.clone(), store).map_err(CiteError::Git)?;
    let func = version::function_at(&fork, fork.head_commit()?)?;
    let restamp_commit = if opts.restamp_root {
        let branch = fork
            .current_branch()
            .expect("a clone whose HEAD has a commit is on a branch")
            .to_owned();
        let old_root = func.root();
        let new_root = Citation::builder(&opts.new_name, &opts.new_owner)
            .url(&opts.new_url)
            .authors(preserve_authors(old_root, &opts.new_owner))
            .extra("forkedFrom", old_root.to_value())
            .build();
        let edit = version::commit_op(
            &mut fork,
            &branch,
            &RepoPath::root(),
            CiteOp::Modify(new_root),
            |_, _| Ok(Arc::new(func)),
            author,
            format!("fork from {}", src.name()),
        )?;
        Some(edit.commit)
    } else {
        None
    };
    Ok(ForkOutcome {
        fork,
        fork_point,
        restamp_commit,
    })
}

/// Original authors keep their credit; the forking owner is appended when
/// not already present.
fn preserve_authors(old_root: &Citation, new_owner: &str) -> Vec<String> {
    let mut authors = old_root.author_list.clone();
    if !authors.iter().any(|a| a == new_owner) {
        authors.push(new_owner.to_owned());
    }
    authors
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::path;

    fn sig(n: &str, t: i64) -> Signature {
        Signature::new(n, format!("{n}@x"), t)
    }

    fn cite(name: &str) -> Citation {
        Citation::builder(name, "o").build()
    }

    fn source() -> CitedRepo {
        let mut r = CitedRepo::init("P1", "Leshang", "https://hub/P1");
        r.write_file(&path("a.txt"), &b"a\n"[..]).unwrap();
        r.write_file(&path("lib/b.txt"), &b"b\n"[..]).unwrap();
        r.add_cite(&path("lib"), cite("lib-cite")).unwrap();
        r.commit(sig("Leshang", 100), "V1").unwrap();
        r.write_file(&path("c.txt"), &b"c\n"[..]).unwrap();
        r.commit(sig("Leshang", 200), "V2").unwrap();
        r
    }

    #[test]
    fn pure_fork_preserves_everything() {
        let src = source();
        let opts = ForkOptions {
            new_name: "P3".into(),
            new_owner: "Susan".into(),
            new_url: "https://hub/P3".into(),
            restamp_root: false,
        };
        let out = fork_cite(src.repo(), &opts, sig("Susan", 300)).unwrap();
        assert!(out.restamp_commit.is_none());
        assert_eq!(out.fork_point, src.repo().head_commit().unwrap());
        // Identical tips, identical citation function — including the old
        // root (pure GitHub-fork semantics).
        assert_eq!(
            out.fork.repo().head_commit().unwrap(),
            src.repo().head_commit().unwrap()
        );
        assert_eq!(out.fork.function(), src.function());
        assert_eq!(out.fork.repo().name(), "P3");
        // Full history travelled.
        assert_eq!(out.fork.repo().log_head().unwrap().len(), 2);
    }

    #[test]
    fn restamped_fork_gets_new_root_with_provenance() {
        let src = source();
        let opts = ForkOptions::new("P3", "Susan", "https://hub/P3");
        let out = fork_cite(src.repo(), &opts, sig("Susan", 300)).unwrap();
        let restamp = out.restamp_commit.expect("restamp commit");
        // New root identity.
        let root = out.fork.function().root();
        assert_eq!(root.repo_name, "P3");
        assert_eq!(root.owner, "Susan");
        // Original author credit preserved, forker appended.
        assert_eq!(
            root.author_list,
            vec!["Leshang".to_owned(), "Susan".to_owned()]
        );
        // Provenance to the origin's root citation.
        let fx = root.extra.get("forkedFrom").expect("provenance field");
        assert_eq!(fx["repoName"].as_str(), Some("P1"));
        // Non-root citations untouched.
        assert_eq!(
            out.fork.function().get(&path("lib")).unwrap().repo_name,
            "lib-cite"
        );
        // History: restamp on top of the fork point.
        let log = out.fork.repo().log_head().unwrap();
        assert_eq!(log[0], restamp);
        assert_eq!(log[1], out.fork_point);
        // The source is untouched.
        assert_eq!(src.function().root().repo_name, "P1");
    }

    #[test]
    fn fork_of_uncited_repo_fails_cleanly() {
        let mut plain = Repository::init("plain");
        plain
            .worktree_mut()
            .write(&path("x.txt"), &b"x\n"[..])
            .unwrap();
        plain.commit(sig("X", 1), "c").unwrap();
        let opts = ForkOptions::new("F", "Y", "https://hub/F");
        assert!(matches!(
            fork_cite(&plain, &opts, sig("Y", 2)),
            Err(CiteError::BadCitationFile(_))
        ));
    }

    #[test]
    fn forker_not_duplicated_in_authors() {
        let mut r = CitedRepo::init("P1", "Susan", "https://hub/P1");
        r.write_file(&path("a.txt"), &b"a\n"[..]).unwrap();
        r.commit(sig("Susan", 100), "V1").unwrap();
        let opts = ForkOptions::new("P3", "Susan", "https://hub/P3");
        let out = fork_cite(r.repo(), &opts, sig("Susan", 200)).unwrap();
        assert_eq!(
            out.fork.function().root().author_list,
            vec!["Susan".to_owned()]
        );
    }
}
