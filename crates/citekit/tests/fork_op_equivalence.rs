//! `ForkCite` in the store against its reference. A fork made by
//! `fork_op` from a repository with no worktree must be the fork the
//! checkout path makes: clone the source with a checkout, wrap it in a
//! `CitedRepo`, and commit the restamped root through the worktree. Fork
//! points, restamp commit ids (so trees), refs, HEAD, names and errors
//! must all agree, and `fork_cite` must leave the worktree and working
//! function the reference leaves.
//!
//! The reference is the checkout-path fork as it stood before `fork_op`,
//! kept here against public APIs. The sources' `citation.cite` files are
//! irregular — keys whose nodes are gone, `is_dir` flags that disagree
//! with the tree — which the restamp commit must fit to the tree. Trees
//! are built through a worktree, so none holds an empty directory.

use citekit::file::{citation_path, to_text};
use citekit::{fork_cite, fork_op, Citation, CitationFunction, CiteError, CitedRepo, ForkOptions};
use gitlite::{
    clone_repository_into, path, MemStore, ObjectId, RepoPath, Repository, Signature, WorkTree,
};
use proptest::prelude::*;

fn sig(t: i64) -> Signature {
    Signature::new("Forker", "f@x", t)
}

fn cite(n: u8) -> Citation {
    Citation::builder(format!("c{n}"), "Owner").build()
}

/// Writes `func` as the worktree's `citation.cite`.
fn write_function(repo: &mut Repository, func: &CitationFunction) {
    let _ = repo.worktree_mut().remove_file(&citation_path());
    repo.worktree_mut()
        .write(&citation_path(), to_text(func).into_bytes())
        .unwrap();
}

/// A source on `main` with a `dev` branch, each tip's `citation.cite`
/// written by hand with the irregularities `mask` selects; `head` puts
/// HEAD on `main`, on `dev`, detached at `main`'s first commit, or leaves
/// the repository without commits. The worktree is empty.
fn source(mask: u8, head: u8, authors: u8) -> Repository {
    let mut repo = Repository::init("P1");
    if head % 4 == 3 {
        return repo;
    }
    for f in ["a.txt", "d/b.txt", "d/e/c.txt"] {
        repo.worktree_mut()
            .write(&path(f), f.as_bytes().to_vec())
            .unwrap();
    }
    let mut root = Citation::builder("P1", "Owner").url("https://hub/P1");
    for name in ["Owner", "Forker", "Ada"].iter().take(authors as usize % 4) {
        root = root.author(*name);
    }
    let mut func = CitationFunction::new(root.build());
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
    write_function(&mut repo, &func);
    let first = repo.commit(sig(1), "V1").unwrap();
    repo.create_branch("dev").unwrap();
    repo.checkout_branch("dev").unwrap();
    repo.worktree_mut()
        .write(&path("d/dev.txt"), &b"dev"[..])
        .unwrap();
    if mask & (1 << 5) != 0 {
        func.set(path("d/dev.txt"), cite(5), true);
    }
    write_function(&mut repo, &func);
    repo.commit(sig(2), "dev").unwrap();
    repo.checkout_branch("main").unwrap();
    repo.worktree_mut()
        .write(&path("main.txt"), &b"main"[..])
        .unwrap();
    repo.commit(sig(3), "V2").unwrap();
    match head % 4 {
        1 => repo.checkout_branch("dev").unwrap(),
        2 => repo.checkout_commit(first).unwrap(),
        _ => {}
    }
    *repo.worktree_mut() = WorkTree::new();
    repo
}

/// What a fork made: the fork, its fork point and its restamp commit.
type Forked<R> = Result<(R, ObjectId, Option<ObjectId>), CiteError>;

/// The reference: clone `src` with a checkout, wrap it, and commit the
/// restamped root through the worktree.
fn by_checkout(src: &Repository, opts: &ForkOptions, author: Signature) -> Forked<CitedRepo> {
    let fork_point = src.head_commit()?;
    let clone = clone_repository_into(src, opts.new_name.clone(), Box::new(MemStore::new()))?;
    let mut fork = CitedRepo::open(clone)?;
    let mut restamp = None;
    if opts.restamp_root {
        let old_root = fork.function().root().clone();
        let mut authors = old_root.author_list.clone();
        if !authors.contains(&opts.new_owner) {
            authors.push(opts.new_owner.clone());
        }
        let new_root = Citation::builder(&opts.new_name, &opts.new_owner)
            .url(&opts.new_url)
            .authors(authors)
            .extra("forkedFrom", old_root.to_value())
            .build();
        fork.modify_cite(&RepoPath::root(), new_root)?;
        let message = format!("fork from {}", src.name());
        restamp = Some(fork.commit(author, message)?.commit);
    }
    Ok((fork, fork_point, restamp))
}

/// `prop_assert!` on equality, naming the case that failed.
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
    fn store_forks_make_what_checkout_forks_make(
        mask in any::<u8>(),
        head in any::<u8>(),
        authors in any::<u8>(),
        owner in any::<u8>(),
        restamp in any::<bool>(),
    ) {
        let src = source(mask, head, authors);
        let owner = ["Owner", "Forker", "Bea"][owner as usize % 3];
        let mut opts = ForkOptions::new("P3", owner, "https://hub/P3");
        opts.restamp_root = restamp;
        let case = format!("mask {mask:#x}, head {}, authors {}, {owner}, restamp {restamp}", head % 4, authors % 4);
        let expected = by_checkout(&src, &opts, sig(10));

        let bare = fork_op(&src, &opts, sig(10), Box::new(MemStore::new()))
            .map(|out| (out.fork, out.fork_point, out.restamp_commit));
        match (&bare, &expected) {
            (Ok((fork, point, restamp)), Ok((want, want_point, want_restamp))) => {
                same!(point, want_point, case);
                same!(restamp, want_restamp, case);
                same!(fork.name(), want.repo().name(), case);
                same!(refs(fork), refs(want.repo()), case);
                same!(fork.head(), want.repo().head(), case);
                same!(fork.worktree(), &WorkTree::new(), case);
            }
            (Err(e), Err(want)) => same!(e, want, case),
            _ => prop_assert!(false, "{}: {:?} against {:?}", case, bare.as_ref().map(drop), expected.as_ref().map(drop)),
        }

        let checked_out = fork_cite(&src, &opts, sig(10))
            .map(|out| (out.fork, out.fork_point, out.restamp_commit));
        match (&checked_out, &expected) {
            (Ok((fork, point, restamp)), Ok((want, want_point, want_restamp))) => {
                same!((point, restamp), (want_point, want_restamp), case);
                same!(refs(fork.repo()), refs(want.repo()), case);
                same!(fork.repo().head(), want.repo().head(), case);
                same!(fork.repo().worktree(), want.repo().worktree(), case);
                same!(to_text(fork.function()), to_text(want.function()), case);
            }
            (Err(e), Err(want)) => same!(e, want, case),
            _ => prop_assert!(false, "{}: {:?} against {:?}", case, checked_out.as_ref().map(drop), expected.as_ref().map(drop)),
        }
        same!(src.worktree(), &WorkTree::new(), case);
    }
}
