//! [`Repository`] — the top-level VCS handle: object database, branches,
//! HEAD and a working tree.
//!
//! A repository here is exactly the paper's *project repository*: "a
//! directed acyclic graph of project versions", each version "a rooted tree
//! whose interior nodes are directories and leaves are files" (§2). Commits
//! are the versions, branches name DAG heads, and the worktree is the
//! mutable copy from which new versions are created.

use crate::error::{GitError, Result};
use crate::hash::ObjectId;
use crate::object::{Commit, Object, Signature};
use crate::path::RepoPath;
use crate::snapshot::{flatten_tree, read_tree, resolve_path, write_tree};
use crate::store::{MemStore, ObjectStore};
use crate::worktree::WorkTree;
use bytes::Bytes;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::sync::Arc;

/// Where HEAD points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Head {
    /// On a branch that already has commits.
    Branch(String),
    /// On a branch with no commits yet (fresh repository).
    Unborn(String),
    /// Directly on a commit.
    Detached(ObjectId),
}

/// The default branch name used by [`Repository::init`].
pub const DEFAULT_BRANCH: &str = "main";

/// A page of history from [`Repository::log_page`]: each commit's id
/// with its commit object, newest first, and whether more follow.
pub type LogPage = (Vec<(ObjectId, Arc<Object>)>, bool);

/// A version-controlled project repository.
///
/// The object database behind it is pluggable: [`Repository::init`]
/// starts on the in-memory [`MemStore`], while [`Repository::init_with`]
/// accepts any [`ObjectStore`] backend (durable, cached, ...). All
/// repository operations go through the trait, so behavior is identical
/// across backends.
#[derive(Debug, Clone)]
pub struct Repository {
    name: String,
    odb: Box<dyn ObjectStore>,
    refs: BTreeMap<String, ObjectId>,
    head: Head,
    worktree: WorkTree,
    clock: i64,
}

impl Repository {
    /// Creates an empty repository named `name`, on an unborn default
    /// branch, backed by an in-memory [`MemStore`].
    pub fn init(name: impl Into<String>) -> Self {
        Self::init_with(name, Box::new(MemStore::new()))
    }

    /// Creates an empty repository on a caller-supplied object-store
    /// backend. The store may already hold objects (e.g. a reopened
    /// [`crate::DiskStore`]); they become reachable once refs point at
    /// them.
    pub fn init_with(name: impl Into<String>, store: Box<dyn ObjectStore>) -> Self {
        Repository {
            name: name.into(),
            odb: store,
            refs: BTreeMap::new(),
            head: Head::Unborn(DEFAULT_BRANCH.to_owned()),
            worktree: WorkTree::new(),
            clock: 0,
        }
    }

    /// The repository's name (used as the project name in citations).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the repository (forks use this).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Immutable access to the object database.
    pub fn odb(&self) -> &dyn ObjectStore {
        &*self.odb
    }

    /// Mutable access to the object database (object transfer uses this).
    pub fn odb_mut(&mut self) -> &mut dyn ObjectStore {
        &mut *self.odb
    }

    /// The working tree.
    pub fn worktree(&self) -> &WorkTree {
        &self.worktree
    }

    /// Mutable working tree (edit files between commits).
    pub fn worktree_mut(&mut self) -> &mut WorkTree {
        &mut self.worktree
    }

    /// Current HEAD.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// The branch HEAD is on, if any.
    pub fn current_branch(&self) -> Option<&str> {
        match &self.head {
            Head::Branch(b) | Head::Unborn(b) => Some(b),
            Head::Detached(_) => None,
        }
    }

    /// The commit HEAD points at.
    pub fn head_commit(&self) -> Result<ObjectId> {
        match &self.head {
            Head::Branch(b) => self
                .refs
                .get(b)
                .copied()
                .ok_or_else(|| GitError::BranchNotFound(b.clone())),
            Head::Unborn(_) => Err(GitError::EmptyRepository),
            Head::Detached(id) => Ok(*id),
        }
    }

    /// Monotonic logical clock used for default commit timestamps; callers
    /// that need real dates pass explicit [`Signature`] timestamps.
    pub fn tick(&mut self) -> i64 {
        self.clock += 1;
        self.clock
    }

    // ----- branches ---------------------------------------------------

    /// All branch names with their tips, in name order.
    pub fn branches(&self) -> impl Iterator<Item = (&str, ObjectId)> {
        self.refs.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Tip commit of a branch.
    pub fn branch_tip(&self, name: &str) -> Result<ObjectId> {
        self.refs
            .get(name)
            .copied()
            .ok_or_else(|| GitError::BranchNotFound(name.to_owned()))
    }

    /// True when the branch exists.
    pub fn has_branch(&self, name: &str) -> bool {
        self.refs.contains_key(name)
    }

    fn validate_branch_name(name: &str) -> Result<()> {
        if name.is_empty() || name.chars().any(|c| c.is_whitespace()) || name.contains('/') {
            return Err(GitError::BadBranchName(name.to_owned()));
        }
        Ok(())
    }

    /// Creates a branch at HEAD.
    pub fn create_branch(&mut self, name: &str) -> Result<()> {
        let at = self.head_commit()?;
        self.create_branch_at(name, at)
    }

    /// Creates a branch at a specific commit.
    pub fn create_branch_at(&mut self, name: &str, commit: ObjectId) -> Result<()> {
        Self::validate_branch_name(name)?;
        if self.refs.contains_key(name) {
            return Err(GitError::BranchExists(name.to_owned()));
        }
        if !self.odb.contains(commit) {
            return Err(GitError::ObjectNotFound(commit));
        }
        self.refs.insert(name.to_owned(), commit);
        Ok(())
    }

    /// Deletes a branch (HEAD must not be on it).
    pub fn delete_branch(&mut self, name: &str) -> Result<()> {
        if self.current_branch() == Some(name) {
            return Err(GitError::BadBranchName(format!("{name} is checked out")));
        }
        self.refs
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| GitError::BranchNotFound(name.to_owned()))
    }

    /// Moves a branch tip without any checks (object must exist). Remote
    /// push and fetch use this after verifying fast-forwardness themselves.
    pub fn set_branch(&mut self, name: &str, commit: ObjectId) -> Result<()> {
        Self::validate_branch_name(name)?;
        if !self.odb.contains(commit) {
            return Err(GitError::ObjectNotFound(commit));
        }
        self.refs.insert(name.to_owned(), commit);
        Ok(())
    }

    // ----- commits ------------------------------------------------------

    /// Snapshots the worktree as a new commit on the current branch.
    ///
    /// Returns [`GitError::NothingToCommit`] when the snapshot is identical
    /// to HEAD's tree (pass `allow_empty=true` via [`Repository::commit_with`]
    /// to override).
    pub fn commit(&mut self, author: Signature, message: impl Into<String>) -> Result<ObjectId> {
        self.commit_with(author, message, false)
    }

    /// [`Repository::commit`] with control over empty commits.
    pub fn commit_with(
        &mut self,
        author: Signature,
        message: impl Into<String>,
        allow_empty: bool,
    ) -> Result<ObjectId> {
        let tree = write_tree(&mut *self.odb, &self.worktree);
        let parents = match self.head_commit() {
            Ok(head) => {
                let head_tree = self.tree_of(head)?;
                if head_tree == tree && !allow_empty {
                    return Err(GitError::NothingToCommit);
                }
                vec![head]
            }
            Err(GitError::EmptyRepository) => vec![],
            Err(e) => return Err(e),
        };
        self.finish_commit(tree, parents, author, message.into())
    }

    /// Creates a merge commit with two parents from an already-built tree.
    /// The worktree is replaced with the merged tree's contents.
    pub fn commit_merge(
        &mut self,
        tree: ObjectId,
        parents: Vec<ObjectId>,
        author: Signature,
        message: impl Into<String>,
    ) -> Result<ObjectId> {
        self.worktree = read_tree(&*self.odb, tree)?;
        self.finish_commit(tree, parents, author, message.into())
    }

    /// Commits the already-built `tree` onto `branch`, with the branch tip
    /// as its only parent, moves the branch and puts HEAD on it (see
    /// [`Repository::set_head`]). The worktree is left untouched: this is
    /// for callers that edit trees in the store rather than through a
    /// checkout. An unchanged tree is the caller's to refuse.
    pub fn commit_onto(
        &mut self,
        branch: &str,
        tree: ObjectId,
        author: Signature,
        message: impl Into<String>,
    ) -> Result<ObjectId> {
        let tip = self.branch_tip(branch)?;
        self.head = Head::Branch(branch.to_owned());
        self.finish_commit(tree, vec![tip], author, message.into())
    }

    fn finish_commit(
        &mut self,
        tree: ObjectId,
        parents: Vec<ObjectId>,
        author: Signature,
        message: String,
    ) -> Result<ObjectId> {
        self.clock = self.clock.max(author.timestamp);
        let commit = Commit {
            tree,
            parents,
            author,
            message,
        };
        let id = self.odb.put(Object::Commit(commit));
        match self.head.clone() {
            Head::Branch(b) | Head::Unborn(b) => {
                self.refs.insert(b.clone(), id);
                self.head = Head::Branch(b);
            }
            Head::Detached(_) => {
                self.head = Head::Detached(id);
            }
        }
        Ok(id)
    }

    /// Loads a commit object.
    pub fn commit_obj(&self, id: ObjectId) -> Result<Commit> {
        self.odb.commit(id)
    }

    // ----- checkout -----------------------------------------------------

    /// Switches HEAD to a branch and loads its tree into the worktree.
    pub fn checkout_branch(&mut self, name: &str) -> Result<()> {
        let tip = self.branch_tip(name)?;
        let tree = self.tree_of(tip)?;
        self.worktree = read_tree(&*self.odb, tree)?;
        self.head = Head::Branch(name.to_owned());
        Ok(())
    }

    /// Puts HEAD on the existing branch `name` without loading its tree:
    /// a checkout for a host that reads every file by commit, never from
    /// the worktree, which keeps whatever it held before.
    pub fn set_head(&mut self, name: &str) -> Result<()> {
        self.branch_tip(name)?;
        self.head = Head::Branch(name.to_owned());
        Ok(())
    }

    /// Detaches HEAD at the stored commit `id` without loading its tree:
    /// the detached counterpart of [`Repository::set_head`].
    pub fn set_head_detached(&mut self, id: ObjectId) -> Result<()> {
        if !self.odb.contains(id) {
            return Err(GitError::ObjectNotFound(id));
        }
        self.head = Head::Detached(id);
        Ok(())
    }

    /// Detaches HEAD at a commit and loads its tree into the worktree.
    pub fn checkout_commit(&mut self, id: ObjectId) -> Result<()> {
        let tree = self.tree_of(id)?;
        self.worktree = read_tree(&*self.odb, tree)?;
        self.head = Head::Detached(id);
        Ok(())
    }

    // ----- history ------------------------------------------------------

    /// Commits reachable from `from`, newest first (by timestamp, ties by
    /// id for determinism): [`Repository::log_take`] without a bound.
    pub fn log(&self, from: ObjectId) -> Result<Vec<ObjectId>> {
        Ok(self.log_take(from, usize::MAX)?.0)
    }

    /// The first `n` commits of [`Repository::log`]'s order, and whether
    /// more follow.
    ///
    /// Served from the store's commit-graph when it covers `from`
    /// (positions and record timestamps only — no commit is decoded);
    /// otherwise a decode walk that fetches each commit it discovers
    /// exactly once. Both paths are one date-ordered heap walk that stops
    /// popping after `n` commits, so a page near the tip costs what it
    /// returns (plus the parents of its last commits), not the history.
    pub fn log_take(&self, from: ObjectId, n: usize) -> Result<(Vec<ObjectId>, bool)> {
        if let Some((graph, pos)) = self.graph_covering(from) {
            return Ok(graph.log_take(pos, n));
        }
        let mut ids = Vec::new();
        let more = self.log_decode(from, n, |id, _| ids.push(id))?;
        Ok((ids, more))
    }

    /// Commits `offset..offset + limit` of [`Repository::log`]'s order,
    /// each with its commit object, and whether more follow: the walk of
    /// [`Repository::log_take`] bounded at `offset + limit`. The decode
    /// walk hands back the commits it already fetched to order its heap;
    /// the graph walk fetches only the returned ones. Either way no commit
    /// is fetched twice.
    pub fn log_page(&self, from: ObjectId, offset: usize, limit: usize) -> Result<LogPage> {
        let end = offset.saturating_add(limit);
        if let Some((graph, pos)) = self.graph_covering(from) {
            let (ids, more) = graph.log_take(pos, end);
            let page = ids
                .into_iter()
                .skip(offset)
                .map(|id| Ok((id, self.odb.commit_ref(id)?)))
                .collect::<Result<_>>()?;
            return Ok((page, more));
        }
        let (mut page, mut popped) = (Vec::new(), 0);
        let more = self.log_decode(from, end, |id, obj| {
            if popped >= offset {
                page.push((id, obj));
            }
            popped += 1;
        })?;
        Ok((page, more))
    }

    /// The store's commit-graph and `from`'s position in it, when the
    /// graph covers `from`; counts the walk as graph-served or not.
    fn graph_covering(&self, from: ObjectId) -> Option<(Arc<crate::graph::CommitGraph>, u32)> {
        let covered = self
            .odb
            .commit_graph()
            .and_then(|graph| graph.lookup(from).map(|pos| (graph, pos)));
        crate::metrics::count_walk(covered.is_some());
        covered
    }

    /// Decode-walk reference for [`Repository::log_take`]: hands each of
    /// the first `n` commits to `emit` in order, and returns whether more
    /// follow. Each heap entry carries the commit from the single fetch
    /// made when it was first discovered, so no commit is decoded twice.
    fn log_decode(
        &self,
        from: ObjectId,
        n: usize,
        mut emit: impl FnMut(ObjectId, Arc<Object>),
    ) -> Result<bool> {
        struct Entry(i64, ObjectId, Arc<Object>);
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                (self.0, self.1) == (other.0, other.1)
            }
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0).then_with(|| self.1.cmp(&other.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let fetch = |id: ObjectId| -> Result<Entry> {
            let obj = self.odb.commit_ref(id)?;
            let ts = obj.as_commit().expect("checked kind").author.timestamp;
            Ok(Entry(ts, id, obj))
        };
        let mut heap = BinaryHeap::new();
        let mut seen = HashSet::new();
        heap.push(fetch(from)?);
        seen.insert(from);
        for _ in 0..n {
            let Some(Entry(_, id, obj)) = heap.pop() else {
                break;
            };
            for &p in &obj.as_commit().expect("checked kind").parents {
                if seen.insert(p) {
                    heap.push(fetch(p)?);
                }
            }
            emit(id, obj);
        }
        Ok(!heap.is_empty())
    }

    /// Commits reachable from HEAD, newest first.
    pub fn log_head(&self) -> Result<Vec<ObjectId>> {
        self.log(self.head_commit()?)
    }

    /// The first-parent chain from `from` back to a root commit, `from`
    /// first — the spine audit scans walk (`git log --first-parent`).
    /// Graph-served when covered; a per-commit decode walk otherwise.
    pub fn first_parent_chain(&self, from: ObjectId) -> Result<Vec<ObjectId>> {
        if let Some(graph) = self.odb.commit_graph() {
            if let Some(pos) = graph.lookup(from) {
                crate::metrics::count_walk(true);
                return Ok(graph.first_parent_chain(pos));
            }
        }
        crate::metrics::count_walk(false);
        let mut out = Vec::new();
        let mut cursor = Some(from);
        while let Some(id) = cursor {
            out.push(id);
            let obj = self.odb.commit_ref(id)?;
            cursor = obj
                .as_commit()
                .expect("checked kind")
                .parents
                .first()
                .copied();
        }
        Ok(out)
    }

    /// Root tree id of a commit (graph record when covered, a no-clone
    /// fetch otherwise).
    pub fn tree_of(&self, commit: ObjectId) -> Result<ObjectId> {
        if let Some(graph) = self.odb.commit_graph() {
            if let Some(pos) = graph.lookup(commit) {
                return Ok(graph.tree_of(pos));
            }
        }
        let obj = self.odb.commit_ref(commit)?;
        Ok(obj.as_commit().expect("checked kind").tree)
    }

    /// Flattened `path → blob id` listing of a commit's tree.
    pub fn snapshot(&self, commit: ObjectId) -> Result<BTreeMap<RepoPath, ObjectId>> {
        flatten_tree(&*self.odb, self.tree_of(commit)?)
    }

    /// Reads a file's bytes as of a commit.
    pub fn file_at(&self, commit: ObjectId, path: &RepoPath) -> Result<Bytes> {
        self.odb.blob_data(self.blob_at(commit, path)?)
    }

    /// The blob id of a file as of a commit, without reading the blob.
    pub fn blob_at(&self, commit: ObjectId, path: &RepoPath) -> Result<ObjectId> {
        let tree = self.tree_of(commit)?;
        match resolve_path(&*self.odb, tree, path)? {
            Some((crate::object::EntryMode::File, id)) => Ok(id),
            Some(_) => Err(GitError::NotAFile(path.clone())),
            None => Err(GitError::FileNotFound(path.clone())),
        }
    }

    /// True when `path` exists (as file or directory) in `commit`'s tree.
    pub fn path_exists_at(&self, commit: ObjectId, path: &RepoPath) -> Result<bool> {
        let tree = self.tree_of(commit)?;
        Ok(resolve_path(&*self.odb, tree, path)?.is_some())
    }

    /// Asks the commit-graph's changed-path Bloom filter whether `path`
    /// changed between `commit` and its **first parent**.
    /// [`crate::graph::PathChange::No`] is definitive and lets a
    /// path-limited walk skip the commit without touching trees;
    /// `Maybe`/`Absent` mean "do the exact check". Counts Bloom metrics
    /// ([`crate::metrics`]): a `No` is a skip; callers that go on to run
    /// the exact check report its outcome via
    /// [`Repository::count_bloom_outcome`].
    pub fn path_changed_hint(&self, commit: ObjectId, path: &RepoPath) -> crate::graph::PathChange {
        let hint = self
            .odb
            .commit_graph()
            .and_then(|graph| {
                graph
                    .lookup(commit)
                    .map(|pos| graph.path_changed(pos, &path.to_string()))
            })
            .unwrap_or(crate::graph::PathChange::Absent);
        if hint == crate::graph::PathChange::No {
            crate::metrics::BLOOM_SKIPS.inc();
        }
        hint
    }

    /// Records the exact-check outcome after a
    /// [`Repository::path_changed_hint`] returned `Maybe`: a real change
    /// is a Bloom hit, no change is a false positive.
    pub fn count_bloom_outcome(&self, really_changed: bool) {
        if really_changed {
            crate::metrics::BLOOM_HITS.inc();
        } else {
            crate::metrics::BLOOM_FALSE_POSITIVES.inc();
        }
    }

    /// True when `ancestor` is reachable from `descendant` (or equal):
    /// the fast-forward test used by push.
    ///
    /// When the commit-graph covers `descendant` the answer comes from a
    /// generation-pruned graph walk; an `ancestor` absent from the graph
    /// is then immediately `false` (the graph is closed under parents, so
    /// every true ancestor of a covered commit is covered too).
    pub fn is_ancestor(&self, ancestor: ObjectId, descendant: ObjectId) -> Result<bool> {
        if ancestor == descendant {
            return Ok(true);
        }
        if let Some(graph) = self.odb.commit_graph() {
            if let Some(desc) = graph.lookup(descendant) {
                crate::metrics::count_walk(true);
                return Ok(match graph.lookup(ancestor) {
                    Some(anc) => graph.is_ancestor(anc, desc),
                    None => false,
                });
            }
        }
        crate::metrics::count_walk(false);
        let mut stack = vec![descendant];
        let mut seen = HashSet::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let obj = self.odb.commit_ref(id)?;
            for &p in &obj.as_commit().expect("checked kind").parents {
                if p == ancestor {
                    return Ok(true);
                }
                stack.push(p);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::path;

    fn sig(name: &str, t: i64) -> Signature {
        Signature::new(name, format!("{name}@example.org"), t)
    }

    fn repo_with_commit() -> (Repository, ObjectId) {
        let mut r = Repository::init("proj");
        r.worktree_mut().write(&path("a.txt"), &b"one"[..]).unwrap();
        let c = r.commit(sig("alice", 1), "c1").unwrap();
        (r, c)
    }

    #[test]
    fn init_is_unborn() {
        let r = Repository::init("p");
        assert_eq!(r.current_branch(), Some("main"));
        assert_eq!(r.head_commit().unwrap_err(), GitError::EmptyRepository);
        assert_eq!(r.name(), "p");
    }

    #[test]
    fn first_commit_births_branch() {
        let (r, c) = repo_with_commit();
        assert_eq!(r.head(), &Head::Branch("main".into()));
        assert_eq!(r.head_commit().unwrap(), c);
        assert_eq!(r.branch_tip("main").unwrap(), c);
        let commit = r.commit_obj(c).unwrap();
        assert!(commit.parents.is_empty());
        assert_eq!(commit.message, "c1");
    }

    #[test]
    fn second_commit_links_parent() {
        let (mut r, c1) = repo_with_commit();
        r.worktree_mut().write(&path("b.txt"), &b"two"[..]).unwrap();
        let c2 = r.commit(sig("alice", 2), "c2").unwrap();
        assert_eq!(r.commit_obj(c2).unwrap().parents, vec![c1]);
    }

    #[test]
    fn empty_commit_rejected_unless_allowed() {
        let (mut r, _) = repo_with_commit();
        assert_eq!(
            r.commit(sig("alice", 2), "noop").unwrap_err(),
            GitError::NothingToCommit
        );
        let c = r.commit_with(sig("alice", 2), "forced", true).unwrap();
        assert_eq!(r.head_commit().unwrap(), c);
    }

    #[test]
    fn branch_create_checkout_delete() {
        let (mut r, c1) = repo_with_commit();
        r.create_branch("dev").unwrap();
        assert_eq!(r.branch_tip("dev").unwrap(), c1);
        assert_eq!(
            r.create_branch("dev").unwrap_err(),
            GitError::BranchExists("dev".into())
        );
        r.checkout_branch("dev").unwrap();
        r.worktree_mut().write(&path("dev.txt"), &b"d"[..]).unwrap();
        let c2 = r.commit(sig("bob", 2), "on dev").unwrap();
        assert_eq!(r.branch_tip("dev").unwrap(), c2);
        assert_eq!(r.branch_tip("main").unwrap(), c1);
        // main's worktree does not see dev's file after checkout.
        r.checkout_branch("main").unwrap();
        assert!(!r.worktree().is_file(&path("dev.txt")));
        // Deleting the checked-out branch is refused.
        assert!(r.delete_branch("main").is_err());
        r.delete_branch("dev").unwrap();
        assert!(!r.has_branch("dev"));
    }

    #[test]
    fn set_head_and_commit_onto_leave_the_worktree_alone() {
        let (mut r, c1) = repo_with_commit();
        r.create_branch("dev").unwrap();
        r.worktree_mut().write(&path("wip.txt"), &b"w"[..]).unwrap();
        let before = r.worktree().clone();
        r.set_head("dev").unwrap();
        assert_eq!(r.head(), &Head::Branch("dev".into()));
        assert_eq!(r.worktree(), &before);
        assert_eq!(
            r.set_head("nope").unwrap_err(),
            GitError::BranchNotFound("nope".into())
        );

        r.checkout_branch("main").unwrap();
        let before = r.worktree().clone();
        let tree = r.tree_of(c1).unwrap();
        let c2 = r.commit_onto("dev", tree, sig("bob", 2), "onto").unwrap();
        assert_eq!(r.head(), &Head::Branch("dev".into()));
        assert_eq!(r.branch_tip("dev").unwrap(), c2);
        assert_eq!(r.branch_tip("main").unwrap(), c1);
        assert_eq!(r.commit_obj(c2).unwrap().parents, vec![c1]);
        assert_eq!(r.worktree(), &before);
    }

    #[test]
    fn bad_branch_names_rejected() {
        let (mut r, _) = repo_with_commit();
        for bad in ["", "a b", "x/y"] {
            assert!(matches!(
                r.create_branch(bad),
                Err(GitError::BadBranchName(_))
            ));
        }
    }

    #[test]
    fn detached_head() {
        let (mut r, c1) = repo_with_commit();
        r.worktree_mut().write(&path("b.txt"), &b"2"[..]).unwrap();
        let c2 = r.commit(sig("alice", 2), "c2").unwrap();
        r.checkout_commit(c1).unwrap();
        assert_eq!(r.current_branch(), None);
        assert_eq!(r.head_commit().unwrap(), c1);
        assert!(!r.worktree().is_file(&path("b.txt")));
        // Committing while detached moves the detached head only.
        r.worktree_mut().write(&path("c.txt"), &b"3"[..]).unwrap();
        let c3 = r.commit(sig("alice", 3), "detached").unwrap();
        assert_eq!(r.head(), &Head::Detached(c3));
        assert_eq!(r.branch_tip("main").unwrap(), c2);
    }

    #[test]
    fn log_orders_newest_first() {
        let (mut r, c1) = repo_with_commit();
        r.worktree_mut().write(&path("b.txt"), &b"2"[..]).unwrap();
        let c2 = r.commit(sig("alice", 5), "c2").unwrap();
        r.worktree_mut().write(&path("c.txt"), &b"3"[..]).unwrap();
        let c3 = r.commit(sig("alice", 9), "c3").unwrap();
        assert_eq!(r.log_head().unwrap(), vec![c3, c2, c1]);
    }

    #[test]
    fn file_at_and_path_exists() {
        let (mut r, c1) = repo_with_commit();
        r.worktree_mut()
            .write(&path("dir/b.txt"), &b"2"[..])
            .unwrap();
        let c2 = r.commit(sig("alice", 2), "c2").unwrap();
        assert_eq!(r.file_at(c1, &path("a.txt")).unwrap().as_ref(), b"one");
        assert!(matches!(
            r.file_at(c1, &path("dir/b.txt")),
            Err(GitError::FileNotFound(_))
        ));
        assert!(r.path_exists_at(c2, &path("dir")).unwrap());
        assert!(matches!(
            r.file_at(c2, &path("dir")),
            Err(GitError::NotAFile(_))
        ));
        assert_eq!(r.snapshot(c2).unwrap().len(), 2);
    }

    #[test]
    fn is_ancestor_walks_dag() {
        let (mut r, c1) = repo_with_commit();
        r.worktree_mut().write(&path("b.txt"), &b"2"[..]).unwrap();
        let c2 = r.commit(sig("a", 2), "c2").unwrap();
        assert!(r.is_ancestor(c1, c2).unwrap());
        assert!(!r.is_ancestor(c2, c1).unwrap());
        assert!(r.is_ancestor(c2, c2).unwrap());
    }

    #[test]
    fn set_branch_requires_object() {
        let (mut r, c1) = repo_with_commit();
        assert!(r.set_branch("x", c1).is_ok());
        assert!(matches!(
            r.set_branch("y", ObjectId::hash_bytes(b"no")),
            Err(GitError::ObjectNotFound(_))
        ));
    }
}
