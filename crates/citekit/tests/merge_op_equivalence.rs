//! `MergeCite` in the store against its reference. Over random branch
//! pairs, `version::merge_op` on a repository with no worktree must make
//! exactly the merge the checkout path makes: check the branch out, wrap
//! it in a `CitedRepo` and merge through the worktree. Commit ids (so
//! trees), refs, HEAD, file conflicts, citation conflicts, dropped keys
//! and errors must all agree. `CitedRepo::merge_cite` must leave the
//! worktree and working function the reference leaves as well.
//!
//! The reference is the checkout-path merge as it stood before
//! `merge_op`, kept here step for step against public APIs. Like a hub
//! merge, a file-conflicted reference merge is refused: the repository
//! keeps its refs and HEAD. Histories are built through checkouts, so no
//! tree holds an empty directory.

use citekit::file::{citation_path, to_text};
use citekit::merge::merge_functions;
use citekit::version::merge_op;
use citekit::{
    Citation, CiteError, CitedRepo, ConflictResolver, FailOnConflict, FnResolver, MergeCiteOutcome,
    MergeCiteReport, MergeStrategy, PreferOurs, PreferTheirs, Resolution,
};
use gitlite::merge::{merge_listings, MergeOptions};
use gitlite::{
    merge_base, path, read_tree, transfer_objects, write_tree_from_listing, MergeLabels, ObjectId,
    ObjectStoreExt, RepoPath, Repository, Signature, WorkTree,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Files the generator writes and removes.
const FILES: &[&str] = &["a.txt", "d/b.txt", "d/e/c.txt", "x.txt"];

/// Keys the cite edits name: the root, files and directories.
const KEYS: &[&str] = &["", "a.txt", "d", "d/b.txt", "d/e", "d/e/c.txt", "x.txt"];

/// Merge sides: the two related branches, an unrelated one, itself and
/// one that does not exist.
const BRANCHES: &[&str] = &[
    "main", "dev", "main", "dev", "orphan", "main", "dev", "orphan", "dev", "nope",
];

const STRATEGIES: [MergeStrategy; 4] = [
    MergeStrategy::Union,
    MergeStrategy::Ours,
    MergeStrategy::Theirs,
    MergeStrategy::ThreeWay,
];

fn node(p: &str) -> RepoPath {
    if p.is_empty() {
        RepoPath::root()
    } else {
        path(p)
    }
}

/// Few names, so both sides often agree and often differ.
fn cite(n: u8) -> Citation {
    Citation::builder(format!("c{}", n % 3), "Owner").build()
}

fn sig(t: i64) -> Signature {
    Signature::new("Member", "m@x", t)
}

/// One line of three differs by `v`, so two variants conflict.
fn body(v: u8) -> Vec<u8> {
    format!("one\ntwo {}\nthree\n", v % 3).into_bytes()
}

/// Applies generated edits to the checked-out branch, committing where
/// asked and at the end. Refused edits are skipped.
fn edit(r: &mut CitedRepo, ops: &[(u8, u8, u8)], clock: &mut i64) {
    let mut commit = |r: &mut CitedRepo| {
        *clock += 1;
        let _ = r.commit(sig(*clock), format!("edit {clock}"));
    };
    for &(kind, at, v) in ops {
        let file = path(FILES[at as usize % FILES.len()]);
        let key = node(KEYS[at as usize % KEYS.len()]);
        match kind % 6 {
            0 => drop(r.write_file(&file, body(v))),
            1 => drop(r.remove(&file)),
            2 => drop(r.add_cite(&key, cite(v))),
            3 => drop(r.modify_cite(&key, cite(v))),
            4 => drop(r.del_cite(&key)),
            _ => commit(r),
        }
    }
    commit(r);
}

type Ops = Vec<(u8, u8, u8)>;

/// A repository whose `main` and `dev` grow from a shared base by `main`
/// and `dev` edits, with an `orphan` branch of its own history. HEAD is
/// on `main` and the worktree is empty.
fn seeded(base: &Ops, main: &Ops, dev: &Ops, orphan: &Ops) -> Repository {
    let mut clock = 0;
    let mut r = CitedRepo::init("p", "Owner", "https://hub/p");
    for f in FILES {
        r.write_file(&path(f), body(0)).unwrap();
    }
    r.add_cite(&path("d"), cite(0)).unwrap();
    edit(&mut r, base, &mut clock);
    r.create_branch("dev").unwrap();
    edit(&mut r, main, &mut clock);
    r.checkout_branch("dev").unwrap();
    edit(&mut r, dev, &mut clock);
    r.checkout_branch("main").unwrap();

    let mut other = CitedRepo::init("q", "Other", "https://hub/q");
    other.write_file(&path("a.txt"), body(1)).unwrap();
    edit(&mut other, orphan, &mut clock);
    let tip = other.repo().head_commit().unwrap();
    let mut repo = r.into_repository();
    transfer_objects(other.repo().odb(), repo.odb_mut(), &[tip]).unwrap();
    repo.create_branch_at("orphan", tip).unwrap();
    *repo.worktree_mut() = WorkTree::new();
    repo
}

/// The resolvers a merge may meet, the hub's among them.
fn resolver(kind: u8) -> Box<dyn ConflictResolver> {
    match kind % 5 {
        0 => Box::new(PreferOurs),
        1 => Box::new(PreferTheirs),
        2 => Box::new(FailOnConflict),
        3 => Box::new(FnResolver(
            |p: &RepoPath, _: Option<&Citation>, _: Option<&Citation>, _: Option<&Citation>| {
                if p.components().len().is_multiple_of(2) {
                    Resolution::Custom(cite(9))
                } else {
                    Resolution::Drop
                }
            },
        )),
        _ => Box::new(FnResolver(
            |_: &RepoPath, o: Option<&Citation>, _: Option<&Citation>, _: Option<&Citation>| {
                if o.is_some() {
                    Resolution::Ours
                } else {
                    Resolution::Theirs
                }
            },
        )),
    }
}

/// The reference: the checkout-path merge of `other` into `branch` on a
/// clone of `repo`, returning the clone and the report.
fn by_checkout(
    repo: &Repository,
    branch: &str,
    other: &str,
    author: Signature,
    message: &str,
    strategy: MergeStrategy,
    resolver: &mut dyn ConflictResolver,
) -> Result<(CitedRepo, MergeCiteReport), CiteError> {
    let mut work = repo.clone();
    work.checkout_branch(branch)?;
    let mut cited = CitedRepo::open(work)?;
    let report = |outcome| MergeCiteReport {
        outcome,
        citation_conflicts: Vec::new(),
        dropped: Vec::new(),
    };
    let ours_tip = cited.repo().head_commit()?;
    let theirs_tip = cited.repo().branch_tip(other)?;
    let base = merge_base(cited.repo().odb(), ours_tip, theirs_tip)?;
    if base == Some(theirs_tip) {
        return Ok((cited, report(MergeCiteOutcome::AlreadyUpToDate)));
    }
    if base == Some(ours_tip) {
        cited.repo_mut().set_branch(branch, theirs_tip)?;
        cited.checkout_branch(branch)?;
        return Ok((cited, report(MergeCiteOutcome::FastForwarded(theirs_tip))));
    }
    let ours_func = cited.function_at(ours_tip)?;
    let theirs_func = cited.function_at(theirs_tip)?;
    let base_func = base.and_then(|b| cited.function_at(b).ok());
    let cite = citation_path();
    let listing = |at: Option<ObjectId>| -> Result<BTreeMap<RepoPath, ObjectId>, CiteError> {
        let mut l = match at {
            Some(c) => cited.repo().snapshot(c)?,
            None => BTreeMap::new(),
        };
        l.remove(&cite);
        Ok(l)
    };
    let (base_l, ours_l, theirs_l) = (
        listing(base)?,
        listing(Some(ours_tip))?,
        listing(Some(theirs_tip))?,
    );
    let labels = MergeLabels {
        ours: branch,
        base: "base",
        theirs: other,
    };
    let opts = MergeOptions {
        exclude: vec![cite.clone()],
    };
    let odb = cited.repo_mut().odb_mut();
    let tree_merge = merge_listings(odb, &base_l, &ours_l, &theirs_l, labels, &opts);
    let merged = tree_merge.listing.clone();
    let exists = |p: &RepoPath, is_dir: bool| {
        p.is_root()
            || if is_dir {
                merged.keys().any(|f| f.starts_with(p) && f != p)
            } else {
                merged.contains_key(p)
            }
    };
    let (func, citation_conflicts, dropped) = merge_functions(
        &ours_func,
        &theirs_func,
        base_func.as_ref(),
        strategy,
        resolver,
        exists,
    )?;
    let mut listing = tree_merge.listing;
    let mut repo = cited.into_repository();
    let blob = repo.odb_mut().put_blob(to_text(&func).into_bytes());
    listing.insert(cite, blob);
    let tree = write_tree_from_listing(repo.odb_mut(), &listing);
    let parents = vec![ours_tip, theirs_tip];
    let outcome = if tree_merge.conflicts.is_empty() {
        MergeCiteOutcome::Merged(repo.commit_merge(tree, parents, author, message)?)
    } else {
        *repo.worktree_mut() = read_tree(repo.odb(), tree)?;
        MergeCiteOutcome::FileConflicts {
            conflicts: tree_merge.conflicts,
            parents,
        }
    };
    let report = MergeCiteReport {
        outcome,
        citation_conflicts,
        dropped,
    };
    Ok((CitedRepo::open(repo)?, report))
}

/// `prop_assert!` on equality, naming the step that failed.
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

fn ops() -> impl Strategy<Value = Ops> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..10)
}

proptest! {
    #[test]
    fn store_merges_make_what_checkout_merges_make(
        base in ops(),
        main in ops(),
        dev in ops(),
        orphan in ops(),
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut bare = seeded(&base, &main, &dev, &orphan);
        let mut reference = bare.clone();
        for (i, (ours, theirs, strategy, kind)) in steps.into_iter().enumerate() {
            let branch = BRANCHES[ours as usize % BRANCHES.len()];
            let other = BRANCHES[theirs as usize % BRANCHES.len()];
            let strategy = STRATEGIES[strategy as usize % STRATEGIES.len()];
            let author = sig(100 + i as i64);
            let message = format!("merge {i}");
            let case = format!("step {i}: {other} into {branch}, {strategy:?}, resolver {}", kind % 5);

            let expected = by_checkout(
                &reference, branch, other, author.clone(), &message, strategy, &mut *resolver(kind),
            );

            // `CitedRepo::merge_cite` leaves the worktree and function the
            // reference leaves.
            if let Ok(mut work) = {
                let mut work = reference.clone();
                work.checkout_branch(branch).map_err(CiteError::Git).and_then(|()| CitedRepo::open(work))
            } {
                let got = work.merge_cite(other, author.clone(), message.clone(), strategy, &mut *resolver(kind));
                match (&got, &expected) {
                    (Ok(report), Ok((want, want_report))) => {
                        same!(format!("{report:?}"), format!("{want_report:?}"), case);
                        same!(refs(work.repo()), refs(want.repo()), case);
                        same!(work.repo().head(), want.repo().head(), case);
                        same!(work.repo().worktree(), want.repo().worktree(), case);
                        same!(to_text(work.function()), to_text(want.function()), case);
                    }
                    (Err(e), Err(want)) => same!(e, want, case),
                    _ => prop_assert!(false, "{}: {:?} against {:?}", case, got.map(drop), expected.as_ref().map(drop)),
                }
            }

            let got = merge_op(&mut bare, branch, other, author, message, strategy, &mut *resolver(kind));
            match (got, expected) {
                (Ok(merge), Ok((want, want_report))) => {
                    same!(format!("{:?}", merge.report), format!("{want_report:?}"), case);
                    if !matches!(want_report.outcome, MergeCiteOutcome::FileConflicts { .. }) {
                        reference = want.into_repository();
                    }
                }
                (Err(e), Err(want)) => same!(e, want, case),
                (got, expected) => prop_assert!(false, "{}: {:?} against {:?}", case, got.map(drop), expected.map(drop)),
            }
            same!(refs(&bare), refs(&reference), case);
            same!(bare.head(), reference.head(), case);
            same!(bare.worktree(), &WorkTree::new(), case);
        }
    }
}
