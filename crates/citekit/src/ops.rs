//! [`CitedRepo`] — a citation-enabled repository and the paper's citation
//! operators: `AddCite`, `DelCite`, `ModifyCite` and citation generation
//! (`GenCite`), plus citation-aware commit/checkout/rename.
//!
//! `CitedRepo` wraps a [`gitlite::Repository`] and maintains the invariant
//! that the worktree's `citation.cite` always reflects the working
//! citation function. Tree edits go through the wrapper so citations are
//! carried eagerly; edits made behind its back are reconciled at commit
//! time by [`crate::carry::reconcile`].

use crate::carry::{reconcile_listing, worktree_listing, worktree_node, CarryReport};
use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::file::{self, citation_path};
use crate::function::{CitationFunction, ResolvePolicy};
use crate::time::format_iso8601;
use crate::version;
use gitlite::{write_tree_from_listing, ObjectId, ObjectStoreExt, RepoPath, Repository, Signature};
use std::sync::Arc;

/// What to do when, at commit time, citation entries point at paths that
/// no longer exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrunePolicy {
    /// Silently drop the stale entries (the default; matches the paper's
    /// side-effecting semantics for deletes).
    #[default]
    Prune,
    /// Refuse to commit, reporting the first stale path.
    Strict,
}

/// Outcome of [`CitedRepo::commit`].
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// Id of the new version.
    pub commit: ObjectId,
    /// Citation-key maintenance performed as a side effect.
    pub carry: CarryReport,
}

/// One of the paper's explicit citation edits (§2–3). [`CiteOp::apply`]
/// states their rules once: [`CitedRepo`] applies them against its
/// worktree, [`crate::version::commit_op`] against a branch tip's tree.
#[derive(Debug, Clone, PartialEq)]
pub enum CiteOp {
    /// `AddCite(path, value)`: attaches a citation to an existing,
    /// not-yet-cited node.
    Add(Citation),
    /// `ModifyCite(path, value)`: replaces the citation of a cited node.
    Modify(Citation),
    /// `DelCite(path)`: detaches the citation of a cited node other than
    /// the root.
    Del,
}

impl CiteOp {
    /// Applies the edit at `path` to `func` and returns the citation it
    /// replaced or removed. `node` looks a path up in the version: `None`
    /// when nothing exists there, otherwise whether it is a directory.
    /// Adding and modifying refuse `citation.cite` itself and missing
    /// paths; deleting only needs the key.
    pub fn apply(
        self,
        func: &mut CitationFunction,
        path: &RepoPath,
        node: impl FnOnce(&RepoPath) -> Result<Option<bool>>,
    ) -> Result<Option<Citation>> {
        let (citation, must_be_cited) = match self {
            CiteOp::Add(citation) => (citation, false),
            CiteOp::Modify(citation) => (citation, true),
            CiteOp::Del => return func.remove(path).map(Some),
        };
        if *path == citation_path() {
            return Err(CiteError::ReservedPath(path.clone()));
        }
        let is_dir = node(path)?.ok_or_else(|| CiteError::PathMissing(path.clone()))?;
        match (must_be_cited, func.contains(path)) {
            (false, true) => Err(CiteError::AlreadyCited(path.clone())),
            (true, false) => Err(CiteError::NotCited(path.clone())),
            _ => Ok(func.set(path.clone(), citation, is_dir)),
        }
    }
}

/// A citation-enabled project repository.
#[derive(Debug, Clone)]
pub struct CitedRepo {
    repo: Repository,
    func: CitationFunction,
    prune_policy: PrunePolicy,
}

impl CitedRepo {
    /// Creates a citation-enabled repository: an empty [`Repository`] whose
    /// worktree already contains a `citation.cite` with a default root
    /// citation built from `name`, `owner` and `url` (paper §2: "All
    /// versions have a default citation attached to the root").
    pub fn init(name: &str, owner: &str, url: &str) -> Self {
        Self::init_with_root(name, Self::default_root(name, owner, url))
    }

    /// [`CitedRepo::init`] on a caller-supplied object-store backend
    /// (e.g. a [`gitlite::DiskStore`] or [`gitlite::CachedStore`]); the
    /// citation model is backend-agnostic.
    pub fn init_with_store(
        name: &str,
        owner: &str,
        url: &str,
        store: Box<dyn gitlite::ObjectStore>,
    ) -> Self {
        Self::wrap_fresh(
            Repository::init_with(name, store),
            Self::default_root(name, owner, url),
        )
    }

    /// [`CitedRepo::init`] with a fully caller-specified root citation.
    pub fn init_with_root(name: &str, root: Citation) -> Self {
        Self::wrap_fresh(Repository::init(name), root)
    }

    fn default_root(name: &str, owner: &str, url: &str) -> Citation {
        Citation::builder(name, owner)
            .url(url)
            .author(owner)
            .build()
    }

    fn wrap_fresh(mut repo: Repository, root: Citation) -> Self {
        let func = CitationFunction::new(root);
        file::write_worktree(repo.worktree_mut(), &func).expect("fresh worktree accepts the file");
        CitedRepo {
            repo,
            func,
            prune_policy: PrunePolicy::default(),
        }
    }

    /// Wraps an existing repository whose worktree already carries a
    /// `citation.cite`. Fails with [`CiteError::BadCitationFile`] when the
    /// file is missing (see [`crate::retro`] for citation-enabling such
    /// repositories) or malformed.
    pub fn open(repo: Repository) -> Result<Self> {
        let func = file::read_worktree(repo.worktree())?.ok_or_else(|| {
            CiteError::BadCitationFile(
                "citation.cite not found; use retrofit to citation-enable this repository".into(),
            )
        })?;
        Ok(CitedRepo {
            repo,
            func,
            prune_policy: PrunePolicy::default(),
        })
    }

    /// Sets the stale-citation policy applied at commit time.
    pub fn set_prune_policy(&mut self, policy: PrunePolicy) {
        self.prune_policy = policy;
    }

    /// The underlying repository (read-only).
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// The underlying repository, mutable.
    ///
    /// Direct worktree edits are allowed — they are reconciled at the next
    /// [`CitedRepo::commit`] — but writing `citation.cite` by hand is not
    /// (the wrapper rewrites it from the working citation function).
    pub fn repo_mut(&mut self) -> &mut Repository {
        &mut self.repo
    }

    /// The working citation function.
    pub fn function(&self) -> &CitationFunction {
        &self.func
    }

    /// Unwraps back into the underlying repository (the worktree keeps the
    /// synced `citation.cite`). Hosted-platform code stores plain
    /// repositories and wraps them per operation.
    pub fn into_repository(self) -> Repository {
        self.repo
    }

    // ----- file operations (citation-carrying) ---------------------------

    /// Writes a file in the worktree.
    pub fn write_file(&mut self, path: &RepoPath, data: impl Into<bytes::Bytes>) -> Result<()> {
        if *path == citation_path() {
            return Err(CiteError::ReservedPath(path.clone()));
        }
        self.repo
            .worktree_mut()
            .write(path, data)
            .map_err(CiteError::Git)
    }

    /// Removes a file or directory subtree; citations beneath it are
    /// dropped immediately (DelCite as a side effect of deletion, §2).
    pub fn remove(&mut self, path: &RepoPath) -> Result<usize> {
        if *path == citation_path() {
            return Err(CiteError::ReservedPath(path.clone()));
        }
        let n = self
            .repo
            .worktree_mut()
            .remove(path)
            .map_err(CiteError::Git)?;
        self.func.retain(|p, _| !p.starts_with(path));
        self.sync_file()?;
        Ok(n)
    }

    /// Renames/moves a file or directory; citation keys follow (paper §2:
    /// "if a file or directory in the active domain ... is moved or
    /// renamed then the citation function must be modified").
    pub fn rename(&mut self, from: &RepoPath, to: &RepoPath) -> Result<()> {
        if *from == citation_path() || *to == citation_path() {
            return Err(CiteError::ReservedPath(citation_path()));
        }
        let was_dir = self.repo.worktree().is_dir(from);
        self.repo
            .worktree_mut()
            .rename(from, to)
            .map_err(CiteError::Git)?;
        if was_dir {
            self.func.rebase_subtree(from, to);
        } else {
            self.func.rekey(from, to);
        }
        self.sync_file()
    }

    /// Reads a file from the worktree.
    pub fn read_text(&self, path: &RepoPath) -> Result<String> {
        self.repo.worktree().read_text(path).map_err(CiteError::Git)
    }

    // ----- citation operators (paper §2/§3) -------------------------------

    /// `AddCite(path, value)`: attaches a citation to an existing,
    /// not-yet-cited node.
    pub fn add_cite(&mut self, path: &RepoPath, citation: Citation) -> Result<()> {
        self.edit(path, CiteOp::Add(citation)).map(drop)
    }

    /// `ModifyCite(path, value)`: replaces the citation of an
    /// already-cited node. Returns the previous citation.
    pub fn modify_cite(&mut self, path: &RepoPath, citation: Citation) -> Result<Citation> {
        let prev = self.edit(path, CiteOp::Modify(citation))?;
        Ok(prev.expect("a modify replaces a citation"))
    }

    /// `DelCite(path)`: detaches the citation of a cited node. The root's
    /// citation cannot be deleted.
    pub fn del_cite(&mut self, path: &RepoPath) -> Result<Citation> {
        let prev = self.edit(path, CiteOp::Del)?;
        Ok(prev.expect("a delete removes a citation"))
    }

    /// Applies `op` at `path` to the working function, looking `path` up
    /// in the worktree, and syncs the file. Returns the citation the op
    /// replaced or removed.
    pub fn edit(&mut self, path: &RepoPath, op: CiteOp) -> Result<Option<Citation>> {
        let prev = op.apply(&mut self.func, path, worktree_node(self.repo.worktree()))?;
        self.sync_file()?;
        Ok(prev)
    }

    // ----- citation generation (GenCite) ----------------------------------

    /// `Cite(V,P)(n)` against the current worktree state, default policy.
    ///
    /// When the citation comes from the root entry, its `commitID` /
    /// `committedDate` are stamped from HEAD (the version being cited);
    /// explicitly attached citations are returned as stored.
    pub fn cite(&self, path: &RepoPath) -> Result<Citation> {
        if !self.repo.worktree().exists(path) {
            return Err(CiteError::PathMissing(path.clone()));
        }
        let (at, citation) = self.func.resolve(path);
        Ok(self.maybe_stamp(at, citation))
    }

    /// [`CitedRepo::cite`] under an explicit resolution policy.
    pub fn cite_policy(&self, path: &RepoPath, policy: ResolvePolicy) -> Result<Vec<Citation>> {
        if !self.repo.worktree().exists(path) {
            return Err(CiteError::PathMissing(path.clone()));
        }
        Ok(self
            .func
            .resolve_policy(path, policy)
            .into_iter()
            .map(|(at, c)| self.maybe_stamp(at, c))
            .collect())
    }

    /// `Cite(V,P)(n)` for a committed version `V` (see
    /// [`crate::version::cite_at`]).
    pub fn cite_at(&self, version: ObjectId, path: &RepoPath) -> Result<Citation> {
        version::cite_at(&self.repo, version, path, |blob| {
            version::read_function(&self.repo, blob).map(Arc::new)
        })
    }

    fn maybe_stamp(&self, at: &RepoPath, citation: &Citation) -> Citation {
        if !at.is_root() {
            return citation.clone();
        }
        match self.repo.head_commit() {
            Ok(head) => {
                let ts = self
                    .repo
                    .commit_obj(head)
                    .map(|c| c.author.timestamp)
                    .unwrap_or_default();
                citation.stamped(&head.short(), &format_iso8601(ts))
            }
            Err(_) => citation.clone(),
        }
    }

    /// Stamps the root citation with a released version's identity —
    /// what a Zenodo-style release does (paper §1: "A released version ...
    /// uploaded to \[a\] public hosting platform like Zenodo which provides
    /// a DOI"). Returns the new commit.
    pub fn publish(
        &mut self,
        author: Signature,
        version_name: Option<&str>,
        doi: Option<&str>,
    ) -> Result<CommitOutcome> {
        let head = self.repo.head_commit().map_err(CiteError::Git)?;
        let head_commit = self.repo.commit_obj(head).map_err(CiteError::Git)?;
        let mut root = self.func.root().clone();
        root.commit_id = head.short();
        root.committed_date = format_iso8601(head_commit.author.timestamp);
        if let Some(v) = version_name {
            root.version = Some(v.to_owned());
        }
        if let Some(d) = doi {
            root.doi = Some(d.to_owned());
        }
        self.func.set_root(root);
        self.sync_file()?;
        let message = match version_name {
            Some(v) => format!("publish {v}"),
            None => format!("publish {}", head.short()),
        };
        self.commit(author, message)
    }

    // ----- version control (citation-aware) --------------------------------

    /// Commits the worktree as a new version. Before committing, the
    /// citation function is reconciled with any tree edits made since the
    /// previous version (renames carried, stale entries pruned per the
    /// [`PrunePolicy`]), and the refreshed `citation.cite` is written into
    /// the snapshot. Each file is hashed once: the listing reconciled is
    /// the listing committed.
    pub fn commit(
        &mut self,
        author: Signature,
        message: impl Into<String>,
    ) -> Result<CommitOutcome> {
        let (tree, carry) = self.reconciled_tree()?;
        let commit = self.repo.commit_tree(tree, author, message, false)?;
        Ok(CommitOutcome { commit, carry })
    }

    /// [`CitedRepo::commit`] short of the commit: the stored tree of the
    /// next version, and what reconciling with HEAD changed.
    pub(crate) fn reconciled_tree(&mut self) -> Result<(ObjectId, CarryReport)> {
        let wt = std::mem::take(self.repo.worktree_mut());
        let mut listing = worktree_listing(self.repo.odb_mut(), &wt);
        *self.repo.worktree_mut() = wt;
        let carry = match self.repo.head_commit() {
            Ok(head) => {
                let mut old_listing = self.repo.snapshot(head)?;
                old_listing.remove(&citation_path());
                let (repo, func) = (&self.repo, &mut self.func);
                reconcile_listing(func, &old_listing, &listing, repo.worktree(), repo.odb())
            }
            Err(_) => CarryReport::default(),
        };
        if self.prune_policy == PrunePolicy::Strict {
            if let Some(p) = carry.pruned.first() {
                return Err(CiteError::PathMissing(p.clone()));
            }
        }
        self.sync_file()?;
        let cite = self.repo.worktree().read(&citation_path())?.clone();
        listing.insert(citation_path(), self.repo.odb_mut().put_blob(cite));
        Ok((
            write_tree_from_listing(self.repo.odb_mut(), &listing),
            carry,
        ))
    }

    /// Checks out a branch and reloads the citation function from it.
    pub fn checkout_branch(&mut self, name: &str) -> Result<()> {
        self.repo.checkout_branch(name).map_err(CiteError::Git)?;
        self.reload_function()
    }

    /// Checks out a commit (detached) and reloads the citation function.
    pub fn checkout_commit(&mut self, id: ObjectId) -> Result<()> {
        self.repo.checkout_commit(id).map_err(CiteError::Git)?;
        self.reload_function()
    }

    /// Creates a branch at HEAD.
    pub fn create_branch(&mut self, name: &str) -> Result<()> {
        self.repo.create_branch(name).map_err(CiteError::Git)
    }

    /// Re-reads the working citation function from the worktree file
    /// (used after checkouts and merges).
    pub fn reload_function(&mut self) -> Result<()> {
        self.func = file::read_worktree(self.repo.worktree())?.ok_or_else(|| {
            CiteError::BadCitationFile("checked-out version has no citation.cite".into())
        })?;
        Ok(())
    }

    /// Replaces the working citation function wholesale (merge/copy flows)
    /// and syncs the file.
    pub(crate) fn install_function(&mut self, func: CitationFunction) -> Result<()> {
        self.func = func;
        self.sync_file()
    }

    fn sync_file(&mut self) -> Result<()> {
        // The citation file may not exist yet or may be stale; remove and
        // rewrite to keep the worktree invariant.
        let p = citation_path();
        if self.repo.worktree().is_file(&p) {
            let _ = self.repo.worktree_mut().remove_file(&p);
        }
        file::write_worktree(self.repo.worktree_mut(), &self.func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::{path, Object, ObjectStore};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    fn sig(n: &str, t: i64) -> Signature {
        Signature::new(n, format!("{n}@x"), t)
    }

    fn cite(name: &str) -> Citation {
        Citation::builder(name, "someone")
            .url(format!("https://x/{name}"))
            .build()
    }

    fn demo_repo() -> CitedRepo {
        let mut r = CitedRepo::init("P1", "Leshang", "https://hub/P1");
        r.write_file(&path("f1.txt"), &b"f1 content\n"[..]).unwrap();
        r.write_file(&path("d/f2.txt"), &b"f2 content\n"[..])
            .unwrap();
        r.commit(sig("Leshang", 100), "V1").unwrap();
        r
    }

    /// A `MemStore` that counts the blobs handed to it, by id.
    #[derive(Debug, Clone, Default)]
    struct CountingStore {
        inner: gitlite::MemStore,
        blob_puts: Arc<Mutex<BTreeMap<ObjectId, usize>>>,
    }

    impl CountingStore {
        fn count(&self, object: &Object, id: ObjectId) {
            if let Object::Blob(_) = object {
                *self.blob_puts.lock().unwrap().entry(id).or_default() += 1;
            }
        }
    }

    impl ObjectStore for CountingStore {
        fn get(&self, id: ObjectId) -> gitlite::Result<Arc<Object>> {
            self.inner.get(id)
        }
        fn put(&mut self, object: Object) -> ObjectId {
            self.count(&object, object.id());
            self.inner.put(object)
        }
        fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
            self.count(&object, id);
            self.inner.put_with_id(id, object)
        }
        fn contains(&self, id: ObjectId) -> bool {
            self.inner.contains(id)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn ids(&self) -> Vec<ObjectId> {
            self.inner.ids()
        }
        fn clone_box(&self) -> Box<dyn ObjectStore> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_commit_hands_each_blob_to_the_store_once() {
        let store = CountingStore::default();
        let puts = Arc::clone(&store.blob_puts);
        let mut r = CitedRepo::init_with_store("P1", "L", "u", Box::new(store));
        let commit = |r: &mut CitedRepo, t| {
            puts.lock().unwrap().clear();
            r.commit(sig("L", t), "v").unwrap();
            let puts = puts.lock().unwrap();
            assert!(puts.values().all(|&n| n == 1), "{puts:?}");
            puts.len()
        };
        for i in 0..6 {
            let body = format!("file {i}\n").into_bytes();
            r.write_file(&path(&format!("d/f{i}.txt")), body).unwrap();
        }
        r.add_cite(&path("d/f1.txt"), cite("f1")).unwrap();
        // The six files and citation.cite.
        assert_eq!(commit(&mut r, 1), 7);

        // An edit, a carried rename and one made behind the wrapper's back.
        r.write_file(&path("d/f0.txt"), &b"edited\n"[..]).unwrap();
        r.rename(&path("d/f1.txt"), &path("e/f1.txt")).unwrap();
        let wt = r.repo_mut().worktree_mut();
        wt.rename(&path("d/f2.txt"), &path("e/f2.txt")).unwrap();
        assert_eq!(commit(&mut r, 2), 7);
        assert!(r.function().contains(&path("e/f1.txt")));
    }

    #[test]
    fn init_creates_default_root_citation() {
        let r = CitedRepo::init("P1", "Leshang", "https://hub/P1");
        assert_eq!(r.function().root().repo_name, "P1");
        assert_eq!(r.function().root().owner, "Leshang");
        assert!(r.repo().worktree().is_file(&citation_path()));
    }

    #[test]
    fn open_requires_citation_file() {
        let repo = Repository::init("bare");
        assert!(matches!(
            CitedRepo::open(repo),
            Err(CiteError::BadCitationFile(_))
        ));
        let demo = demo_repo();
        let reopened = CitedRepo::open(demo.repo().clone()).unwrap();
        assert_eq!(reopened.function(), demo.function());
    }

    #[test]
    fn add_cite_then_resolve() {
        let mut r = demo_repo();
        r.add_cite(&path("f1.txt"), cite("f1")).unwrap();
        // Explicit citation returned as stored.
        assert_eq!(r.cite(&path("f1.txt")).unwrap().repo_name, "f1");
        // Uncited sibling resolves to the root, stamped with HEAD.
        let c = r.cite(&path("d/f2.txt")).unwrap();
        assert_eq!(c.repo_name, "P1");
        assert_eq!(c.commit_id.len(), 7);
        assert!(!c.committed_date.is_empty());
    }

    #[test]
    fn add_cite_validations() {
        let mut r = demo_repo();
        assert_eq!(
            r.add_cite(&path("missing.txt"), cite("x")).unwrap_err(),
            CiteError::PathMissing(path("missing.txt"))
        );
        r.add_cite(&path("f1.txt"), cite("x")).unwrap();
        assert_eq!(
            r.add_cite(&path("f1.txt"), cite("y")).unwrap_err(),
            CiteError::AlreadyCited(path("f1.txt"))
        );
        assert_eq!(
            r.add_cite(&citation_path(), cite("z")).unwrap_err(),
            CiteError::ReservedPath(citation_path())
        );
    }

    #[test]
    fn modify_and_del_cite() {
        let mut r = demo_repo();
        assert_eq!(
            r.modify_cite(&path("f1.txt"), cite("n")).unwrap_err(),
            CiteError::NotCited(path("f1.txt"))
        );
        r.add_cite(&path("f1.txt"), cite("v1")).unwrap();
        let prev = r.modify_cite(&path("f1.txt"), cite("v2")).unwrap();
        assert_eq!(prev.repo_name, "v1");
        assert_eq!(r.cite(&path("f1.txt")).unwrap().repo_name, "v2");
        let removed = r.del_cite(&path("f1.txt")).unwrap();
        assert_eq!(removed.repo_name, "v2");
        assert_eq!(
            r.del_cite(&path("f1.txt")).unwrap_err(),
            CiteError::NotCited(path("f1.txt"))
        );
        assert_eq!(
            r.del_cite(&RepoPath::root()).unwrap_err(),
            CiteError::RootCitationRequired
        );
    }

    use gitlite::RepoPath;

    #[test]
    fn figure1_v1_to_v2_addcite_changes_resolution() {
        // Figure 1: before AddCite, Cite(V1,P1)(f1) = C1 (root); after,
        // Cite(V2,P1)(f1) = C2 (the new citation).
        let mut r = demo_repo();
        let v1 = r.repo().head_commit().unwrap();
        let before = r.cite_at(v1, &path("f1.txt")).unwrap();
        assert_eq!(before.repo_name, "P1"); // C1 = root citation
        r.add_cite(&path("f1.txt"), cite("C2")).unwrap();
        let v2 = r
            .commit(sig("Leshang", 200), "V2: AddCite f1")
            .unwrap()
            .commit;
        let after = r.cite_at(v2, &path("f1.txt")).unwrap();
        assert_eq!(after.repo_name, "C2");
        // V1's resolution is unchanged (citations are per version).
        let still = r.cite_at(v1, &path("f1.txt")).unwrap();
        assert_eq!(still.repo_name, "P1");
    }

    #[test]
    fn cite_at_stamps_root_resolution_with_that_version() {
        let mut r = demo_repo();
        let v1 = r.repo().head_commit().unwrap();
        r.write_file(&path("extra.txt"), &b"x\n"[..]).unwrap();
        let v2 = r.commit(sig("Leshang", 200), "V2").unwrap().commit;
        let c1 = r.cite_at(v1, &path("f1.txt")).unwrap();
        let c2 = r.cite_at(v2, &path("f1.txt")).unwrap();
        assert_eq!(c1.commit_id, v1.short());
        assert_eq!(c2.commit_id, v2.short());
        assert_eq!(c1.committed_date, crate::time::format_iso8601(100));
        assert_eq!(c2.committed_date, crate::time::format_iso8601(200));
    }

    #[test]
    fn rename_file_carries_citation_eagerly() {
        let mut r = demo_repo();
        r.add_cite(&path("f1.txt"), cite("c")).unwrap();
        r.rename(&path("f1.txt"), &path("renamed.txt")).unwrap();
        assert!(r.function().contains(&path("renamed.txt")));
        assert!(!r.function().contains(&path("f1.txt")));
        // Commit works and keeps the carried key.
        let out = r.commit(sig("Leshang", 200), "rename").unwrap();
        assert!(out.carry.renamed.is_empty(), "already carried eagerly");
        assert!(r.function().contains(&path("renamed.txt")));
    }

    #[test]
    fn rename_dir_carries_subtree() {
        let mut r = demo_repo();
        r.add_cite(&path("d"), cite("dir")).unwrap();
        r.add_cite(&path("d/f2.txt"), cite("file")).unwrap();
        r.rename(&path("d"), &path("moved/dir")).unwrap();
        assert_eq!(
            r.function().get(&path("moved/dir")).unwrap().repo_name,
            "dir"
        );
        assert_eq!(
            r.function()
                .get(&path("moved/dir/f2.txt"))
                .unwrap()
                .repo_name,
            "file"
        );
    }

    #[test]
    fn behind_the_back_rename_reconciled_at_commit() {
        let mut r = demo_repo();
        r.add_cite(&path("f1.txt"), cite("c")).unwrap();
        // Bypass the wrapper: rename directly on the worktree.
        r.repo_mut()
            .worktree_mut()
            .rename(&path("f1.txt"), &path("sneaky.txt"))
            .unwrap();
        let out = r.commit(sig("Leshang", 200), "sneaky rename").unwrap();
        assert_eq!(
            out.carry.renamed,
            vec![(path("f1.txt"), path("sneaky.txt"))]
        );
        assert!(r.function().contains(&path("sneaky.txt")));
    }

    #[test]
    fn remove_drops_citations_and_strict_policy_errors() {
        let mut r = demo_repo();
        r.add_cite(&path("d/f2.txt"), cite("c")).unwrap();
        r.remove(&path("d")).unwrap();
        assert!(!r.function().contains(&path("d/f2.txt")));

        // Strict policy: behind-the-back delete fails the commit.
        let mut r2 = demo_repo();
        r2.add_cite(&path("f1.txt"), cite("c")).unwrap();
        r2.commit(sig("L", 150), "cited").unwrap();
        r2.set_prune_policy(PrunePolicy::Strict);
        r2.repo_mut()
            .worktree_mut()
            .remove_file(&path("f1.txt"))
            .unwrap();
        assert_eq!(
            r2.commit(sig("L", 200), "bad").unwrap_err(),
            CiteError::PathMissing(path("f1.txt"))
        );
    }

    #[test]
    fn citation_file_not_directly_writable() {
        let mut r = demo_repo();
        assert!(matches!(
            r.write_file(&citation_path(), &b"{}"[..]),
            Err(CiteError::ReservedPath(_))
        ));
        assert!(matches!(
            r.remove(&citation_path()),
            Err(CiteError::ReservedPath(_))
        ));
        assert!(matches!(
            r.rename(&citation_path(), &path("x")),
            Err(CiteError::ReservedPath(_))
        ));
    }

    #[test]
    fn commit_reloads_cleanly_across_checkout() {
        let mut r = demo_repo();
        r.add_cite(&path("f1.txt"), cite("on-main")).unwrap();
        r.commit(sig("L", 200), "cite f1").unwrap();
        r.create_branch("dev").unwrap();
        r.checkout_branch("dev").unwrap();
        r.modify_cite(&path("f1.txt"), cite("on-dev")).unwrap();
        r.commit(sig("L", 300), "dev cite").unwrap();
        r.checkout_branch("main").unwrap();
        assert_eq!(r.cite(&path("f1.txt")).unwrap().repo_name, "on-main");
        r.checkout_branch("dev").unwrap();
        assert_eq!(r.cite(&path("f1.txt")).unwrap().repo_name, "on-dev");
    }

    #[test]
    fn publish_stamps_root() {
        let mut r = demo_repo();
        let head = r.repo().head_commit().unwrap();
        let out = r
            .publish(sig("L", 300), Some("v1.0"), Some("10.5281/zenodo.99"))
            .unwrap();
        assert_ne!(out.commit, head);
        let root = r.function().root();
        assert_eq!(root.commit_id, head.short());
        assert_eq!(root.version.as_deref(), Some("v1.0"));
        assert_eq!(root.doi.as_deref(), Some("10.5281/zenodo.99"));
        // The stamped file is in the published version.
        let c = r.cite_at(out.commit, &path("d/f2.txt")).unwrap();
        assert_eq!(c.doi.as_deref(), Some("10.5281/zenodo.99"));
    }

    #[test]
    fn cite_policy_path_union() {
        let mut r = demo_repo();
        r.add_cite(&path("d"), cite("dir")).unwrap();
        r.add_cite(&path("d/f2.txt"), cite("file")).unwrap();
        let chain = r
            .cite_policy(&path("d/f2.txt"), ResolvePolicy::PathUnion)
            .unwrap();
        let names: Vec<&str> = chain.iter().map(|c| c.repo_name.as_str()).collect();
        assert_eq!(names, vec!["file", "dir", "P1"]);
    }
}
