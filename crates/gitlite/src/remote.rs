//! Repository-to-repository object transfer: clone and push.
//!
//! These are the primitives under the paper's hosted-platform operations:
//! `ForkCite` clones a repository with its history; the local tool's final
//! step "push\[es\] the local copy (which contains citation.cite) to the
//! remote repository" (§3).

use crate::error::{GitError, Result};
use crate::hash::ObjectId;
use crate::repo::{Head, Repository};
use crate::store::ObjectStore;
use std::collections::HashSet;

/// Copies every object reachable from `roots` that `dst` is missing.
/// Returns how many objects were transferred. Traversal stops at objects
/// the destination already has (their closures are complete by
/// construction), which is what makes incremental transfers cheap.
///
/// The whole batch is inserted in one [`ObjectStore::put_many`] call, so
/// backends amortize per-insert overhead; and because the traversal
/// already knows each object's id, no object is re-hashed.
pub fn transfer_objects<A: ObjectStore + ?Sized, B: ObjectStore + ?Sized>(
    src: &A,
    dst: &mut B,
    roots: &[ObjectId],
) -> Result<usize> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut stack: Vec<ObjectId> = roots.to_vec();
    let mut batch: Vec<(ObjectId, std::sync::Arc<crate::object::Object>)> = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) || dst.contains(id) {
            continue;
        }
        let obj = src.get(id)?;
        match &*obj {
            crate::object::Object::Blob(_) => {}
            crate::object::Object::Tree(t) => {
                for (_, e) in t.iter() {
                    stack.push(e.id);
                }
            }
            crate::object::Object::Commit(c) => {
                stack.push(c.tree);
                for p in &c.parents {
                    stack.push(*p);
                }
            }
        }
        batch.push((id, obj));
    }
    let moved = batch.len();
    dst.put_many(batch);
    Ok(moved)
}

/// Clones `src` in full (all branches and their histories) into a new
/// repository named `name`. The clone's HEAD checks out the same branch as
/// the source when possible, else the default branch.
pub fn clone_repository(src: &Repository, name: impl Into<String>) -> Result<Repository> {
    clone_repository_into(src, name, Box::new(crate::store::MemStore::new()))
}

/// [`clone_repository`] onto a caller-supplied object-store backend, so a
/// clone can be durable or cached from birth.
pub fn clone_repository_into(
    src: &Repository,
    name: impl Into<String>,
    store: Box<dyn ObjectStore>,
) -> Result<Repository> {
    let mut dst = clone_bare_into(src, name, store)?;
    if let Head::Branch(b) = dst.head().clone() {
        dst.checkout_branch(&b)?;
    }
    Ok(dst)
}

/// [`clone_repository_into`] without the checkout: the clone gets every
/// branch with its history and puts HEAD on the source's branch when it
/// has one, else on its first, but its worktree stays empty.
pub fn clone_bare_into(
    src: &Repository,
    name: impl Into<String>,
    store: Box<dyn ObjectStore>,
) -> Result<Repository> {
    let mut dst = Repository::init_with(name, store);
    let roots: Vec<ObjectId> = src.branches().map(|(_, tip)| tip).collect();
    transfer_objects(src.odb(), dst.odb_mut(), &roots)?;
    for (branch, tip) in src.branches() {
        dst.set_branch(branch, tip)?;
    }
    let branch = src
        .current_branch()
        .filter(|b| dst.has_branch(b))
        .map(str::to_owned)
        .or_else(|| dst.branches().next().map(|(b, _)| b.to_owned()));
    if let Some(b) = branch {
        dst.set_head(&b)?;
    }
    Ok(dst)
}

/// Pushes `src_branch` of `src` to `dst_branch` of `dst`.
///
/// Follows Git's rules: creating a new branch is always allowed; updating
/// an existing branch requires a fast-forward unless `force` is set.
/// Returns the new tip of the destination branch.
pub fn push(
    src: &Repository,
    dst: &mut Repository,
    src_branch: &str,
    dst_branch: &str,
    force: bool,
) -> Result<ObjectId> {
    let new_tip = src.branch_tip(src_branch)?;
    transfer_objects(src.odb(), dst.odb_mut(), &[new_tip])?;
    if let Ok(old_tip) = dst.branch_tip(dst_branch) {
        let ff = dst.is_ancestor(old_tip, new_tip)?;
        if !ff && !force {
            return Err(GitError::NonFastForward {
                branch: dst_branch.to_owned(),
            });
        }
    }
    dst.set_branch(dst_branch, new_tip)?;
    // Keep the destination's checkout in sync when it is on that branch.
    if dst.current_branch() == Some(dst_branch) {
        dst.checkout_branch(dst_branch)?;
    }
    Ok(new_tip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Signature;
    use crate::path::path;
    use crate::store::Odb;

    fn sig(n: &str, t: i64) -> Signature {
        Signature::new(n, format!("{n}@x"), t)
    }

    fn seeded_repo() -> Repository {
        let mut r = Repository::init("origin");
        r.worktree_mut()
            .write(&path("a.txt"), &b"one\n"[..])
            .unwrap();
        r.commit(sig("alice", 1), "c1").unwrap();
        r.worktree_mut()
            .write(&path("b.txt"), &b"two\n"[..])
            .unwrap();
        r.commit(sig("alice", 2), "c2").unwrap();
        r
    }

    #[test]
    fn clone_copies_history_and_checkout() {
        let src = seeded_repo();
        let clone = clone_repository(&src, "fork").unwrap();
        assert_eq!(clone.name(), "fork");
        assert_eq!(
            clone.branch_tip("main").unwrap(),
            src.branch_tip("main").unwrap()
        );
        assert_eq!(clone.log_head().unwrap(), src.log_head().unwrap());
        assert_eq!(clone.worktree().read_text(&path("a.txt")).unwrap(), "one\n");
        // Objects deduplicate: same count.
        assert_eq!(
            clone.odb().len(),
            src.odb()
                .reachable_closure(&[src.branch_tip("main").unwrap()])
                .unwrap()
                .len()
        );
    }

    #[test]
    fn clone_copies_all_branches() {
        let mut src = seeded_repo();
        src.create_branch("dev").unwrap();
        src.checkout_branch("dev").unwrap();
        src.worktree_mut()
            .write(&path("d.txt"), &b"dev\n"[..])
            .unwrap();
        src.commit(sig("bob", 3), "dev work").unwrap();
        let clone = clone_repository(&src, "fork").unwrap();
        assert!(clone.has_branch("dev"));
        assert_eq!(
            clone.branch_tip("dev").unwrap(),
            src.branch_tip("dev").unwrap()
        );
        // Clone follows the source's checked-out branch.
        assert_eq!(clone.current_branch(), Some("dev"));
    }

    #[test]
    fn transfer_copies_missing_objects_only() {
        let src = seeded_repo();
        let mut dst = Repository::init("local");
        let tip = src.branch_tip("main").unwrap();
        assert!(transfer_objects(src.odb(), dst.odb_mut(), &[tip]).unwrap() > 0);
        assert!(dst.odb().contains(tip));
        // A second transfer moves nothing new.
        let before = dst.odb().len();
        assert_eq!(
            transfer_objects(src.odb(), dst.odb_mut(), &[tip]).unwrap(),
            0
        );
        assert_eq!(dst.odb().len(), before);
    }

    #[test]
    fn push_creates_branch_on_remote() {
        let local = seeded_repo();
        let mut remote = Repository::init("origin");
        let tip = push(&local, &mut remote, "main", "main", false).unwrap();
        assert_eq!(remote.branch_tip("main").unwrap(), tip);
    }

    #[test]
    fn push_fast_forward_succeeds() {
        let mut local = seeded_repo();
        let mut remote = clone_repository(&local, "origin").unwrap();
        local
            .worktree_mut()
            .write(&path("c.txt"), &b"three\n"[..])
            .unwrap();
        let new_tip = local.commit(sig("alice", 3), "c3").unwrap();
        let pushed = push(&local, &mut remote, "main", "main", false).unwrap();
        assert_eq!(pushed, new_tip);
        assert_eq!(remote.branch_tip("main").unwrap(), new_tip);
        // Remote's checkout follows since it is on main.
        assert!(remote.worktree().is_file(&path("c.txt")));
    }

    #[test]
    fn push_non_fast_forward_rejected_then_forced() {
        let base = seeded_repo();
        let mut remote = clone_repository(&base, "origin").unwrap();
        // Remote gains its own commit.
        remote
            .worktree_mut()
            .write(&path("r.txt"), &b"remote\n"[..])
            .unwrap();
        remote.commit(sig("carol", 3), "remote work").unwrap();
        // Local diverges.
        let mut local = clone_repository(&base, "local").unwrap();
        local
            .worktree_mut()
            .write(&path("l.txt"), &b"local\n"[..])
            .unwrap();
        let local_tip = local.commit(sig("alice", 4), "local work").unwrap();
        let err = push(&local, &mut remote, "main", "main", false).unwrap_err();
        assert_eq!(
            err,
            GitError::NonFastForward {
                branch: "main".into()
            }
        );
        // Forced push moves the ref anyway.
        let pushed = push(&local, &mut remote, "main", "main", true).unwrap();
        assert_eq!(pushed, local_tip);
        assert_eq!(remote.branch_tip("main").unwrap(), local_tip);
    }

    #[test]
    fn push_missing_branch_errors() {
        let local = seeded_repo();
        let mut remote = Repository::init("origin");
        assert!(matches!(
            push(&local, &mut remote, "nope", "main", false),
            Err(GitError::BranchNotFound(_))
        ));
    }

    #[test]
    fn transfer_detects_missing_source_objects() {
        let src = Odb::new();
        let mut dst = Odb::new();
        let bogus = ObjectId::hash_bytes(b"bogus");
        assert!(matches!(
            transfer_objects(&src, &mut dst, &[bogus]),
            Err(GitError::ObjectNotFound(_))
        ));
    }
}
