//! The write side of `citekit::version` against its reference. Over
//! seeded sequences of `AddCite`/`ModifyCite`/`DelCite`, a citation edit
//! committed as a tree edit (`version::commit_op`) must make exactly the
//! commit a checkout of the branch, the op through `CitedRepo` and a
//! commit make: the same commit ids (so the same root trees), refs, HEAD
//! and errors, without writing an object when it fails.
//!
//! The tips start irregular: their `citation.cite` carries keys whose
//! nodes are gone and `is_dir` flags that disagree with the tree, which
//! the first commit on a branch must fit to the tree. One difference is
//! intended and stays out of the generator: a tip tree holding an empty
//! directory (only a raw push makes one) keeps it through a tree edit,
//! while a checkout cannot represent it.

use citekit::file::{citation_path, to_text};
use citekit::version::{commit_op, read_function};
use citekit::{Citation, CitationFunction, CiteError, CiteOp, CitedRepo};
use gitlite::{path, GitError, ObjectId, RepoPath, Repository, Signature};
use proptest::prelude::*;
use std::sync::Arc;

/// Paths the ops name: the root, files, directories, the citation file,
/// paths that do not exist, and one that runs through a file.
const PATHS: &[&str] = &[
    "",
    "a.txt",
    "d",
    "d/b.txt",
    "d/e",
    "d/e/c.txt",
    "citation.cite",
    "missing.txt",
    "d/missing",
    "a.txt/below",
];

/// Mostly the two branches, sometimes one that does not exist.
const BRANCHES: &[&str] = &["main", "dev", "main", "dev", "main", "dev", "nope"];

fn node(p: &str) -> RepoPath {
    if p.is_empty() {
        RepoPath::root()
    } else {
        path(p)
    }
}

/// Few names, so modifies that change nothing come up often.
fn cite(n: u8) -> Citation {
    Citation::builder(format!("c{}", n % 2), "Owner").build()
}

/// A repository on `main` with a `dev` branch, each tip's `citation.cite`
/// written by hand with the irregularities `mask` selects.
fn seeded(mask: u8) -> Repository {
    let mut repo = Repository::init("p");
    for f in ["a.txt", "d/b.txt", "d/e/c.txt"] {
        repo.worktree_mut()
            .write(&path(f), f.as_bytes().to_vec())
            .unwrap();
    }
    let mut func = CitationFunction::new(Citation::builder("p", "Owner").build());
    let irregular = [
        ("d", false),        // a directory flagged as a file
        ("a.txt", true),     // a file flagged as a directory
        ("gone.txt", false), // a node that is gone
        ("d/gone", true),    // a directory that is gone
        ("d/e/c.txt", false),
    ];
    for (bit, (p, is_dir)) in irregular.iter().enumerate() {
        if mask & (1 << bit) != 0 {
            func.set(path(p), cite(bit as u8), *is_dir);
        }
    }
    repo.worktree_mut()
        .write(&citation_path(), to_text(&func).into_bytes())
        .unwrap();
    repo.commit(sig(1), "seed").unwrap();
    repo.create_branch("dev").unwrap();
    repo.checkout_branch("dev").unwrap();
    repo.worktree_mut()
        .write(&path("d/dev.txt"), &b"dev"[..])
        .unwrap();
    if mask & (1 << 5) != 0 {
        func.set(path("d/dev.txt"), cite(5), true);
    }
    repo.worktree_mut().remove_file(&citation_path()).unwrap();
    repo.worktree_mut()
        .write(&citation_path(), to_text(&func).into_bytes())
        .unwrap();
    repo.commit(sig(2), "dev").unwrap();
    repo.checkout_branch("main").unwrap();
    repo
}

fn sig(t: i64) -> Signature {
    Signature::new("Member", "m@x", t)
}

fn op(kind: u8, n: u8) -> CiteOp {
    match kind % 3 {
        0 => CiteOp::Add(cite(n)),
        1 => CiteOp::Modify(cite(n)),
        _ => CiteOp::Del,
    }
}

/// The reference: check `branch` out on a clone, apply `op` through
/// `CitedRepo`, commit, and keep the clone only on success.
fn by_checkout(
    repo: &mut Repository,
    branch: &str,
    at: &RepoPath,
    op: CiteOp,
    author: Signature,
    message: &str,
) -> Result<ObjectId, CiteError> {
    let mut work = repo.clone();
    work.checkout_branch(branch)?;
    let mut cited = CitedRepo::open(work)?;
    cited.edit(at, op)?;
    let commit = cited.commit(author, message)?.commit;
    *repo = cited.into_repository();
    Ok(commit)
}

/// `prop_assert_eq!` naming the step that failed.
macro_rules! same {
    ($left:expr, $right:expr, $case:expr) => {{
        let (left, right) = ($left, $right);
        prop_assert!(
            left == right,
            "{}: `{}` differs\n  left: {:?}\n right: {:?}",
            $case,
            stringify!($left),
            left,
            right
        );
    }};
}

fn refs(repo: &Repository) -> Vec<(String, ObjectId)> {
    repo.branches()
        .map(|(b, tip)| (b.to_owned(), tip))
        .collect()
}

proptest! {
    #[test]
    fn tree_edits_commit_what_a_checkout_commits(
        mask in any::<u8>(),
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
    ) {
        let mut edited = seeded(mask);
        let mut reference = edited.clone();
        let mut memo: Option<(ObjectId, Arc<CitationFunction>)> = None;
        for (i, (kind, at, branch, n)) in steps.into_iter().enumerate() {
            let at = node(PATHS[at as usize % PATHS.len()]);
            let branch = BRANCHES[branch as usize % BRANCHES.len()];
            let message = format!("step {i}");
            let author = sig(10 + i as i64);
            let objects = edited.odb().len();
            let worktree = edited.worktree().clone();

            let expected = by_checkout(
                &mut reference, branch, &at, op(kind, n), author.clone(), &message,
            );
            let got = commit_op(
                &mut edited,
                branch,
                &at,
                op(kind, n),
                |repo, blob| match &memo {
                    Some((id, func)) if *id == blob => Ok(Arc::clone(func)),
                    _ => read_function(repo, blob).map(Arc::new),
                },
                author,
                message,
            );

            let case = format!("step {i}: {:?} {at} on {branch}", op(kind, n));
            match got {
                Ok(edit) => {
                    same!(Ok(edit.commit), expected, case);
                    let blob = edited.blob_at(edit.commit, &citation_path()).unwrap();
                    same!(blob, edit.blob, case);
                    same!(&read_function(&edited, blob).unwrap(), &*edit.function, case);
                    memo = Some((edit.blob, edit.function));
                }
                Err(e) => {
                    same!(Err(e.clone()), expected, case);
                    same!(edited.odb().len(), objects, case);
                    if e == CiteError::Git(GitError::NothingToCommit) {
                        prop_assert!(matches!(op(kind, n), CiteOp::Modify(_)), "{}", case);
                    }
                }
            }
            same!(refs(&edited), refs(&reference), case);
            same!(edited.head(), reference.head(), case);
            same!(edited.worktree(), &worktree, case);
        }
    }
}
