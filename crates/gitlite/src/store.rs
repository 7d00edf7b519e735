//! The object database: pluggable, content-addressed storage for blobs,
//! trees and commits.
//!
//! Storage is defined by the [`ObjectStore`] trait — get/put/contains/
//! len/ids over canonical object bytes, keyed by [`ObjectId`] — so the
//! rest of the system ([`crate::Repository`], snapshots, diffs, merges,
//! remotes, and every layer above) is backend-agnostic. Four backends
//! ship with the crate:
//!
//! * [`MemStore`] — a `HashMap` of `Arc<Object>`s; the default backend
//!   and the fastest for ephemeral repositories (tests, hosted-platform
//!   simulation, benchmarks).
//! * [`DiskStore`] — durable loose objects in a sharded
//!   `objects/ab/cdef...` layout holding each object's canonical bytes
//!   (`"<kind> <len>\0<body>"`, hashed to its id). Writes go straight to
//!   disk (atomically, via temp file + rename); reads decode on demand.
//! * [`crate::PackStore`] — the packfile backend ([`crate::pack`]): reads
//!   served from buffered `pack-<checksum>.pack` files through a sorted
//!   fanout index (O(log n) id→offset, one file read per pack instead of
//!   one per object), with new writes overflowing into a loose
//!   [`DiskStore`] area under the same root. `PackStore::repack`/`gc`
//!   consolidate the overflow into a fresh pack (and `gc` drops objects
//!   unreachable from the given roots) — run `gitcite gc` after enough
//!   loose objects accumulate to matter (hundreds). This is what the
//!   local tool persists repositories with.
//! * [`CachedStore<S>`] — an LRU read-through cache over any other
//!   backend, for hot resolution paths (snapshot listing, citation
//!   resolution, diff/merge walks) where the same trees and blobs are
//!   fetched repeatedly. [`CachedStore::stats`] reports hits, misses and
//!   evictions for capacity planning.
//!
//! Objects are immutable once stored (they are keyed by the hash of
//! their bytes), so stores hand out `Arc<Object>` and never copy object
//! payloads on fetch. Because ids are content addresses, two stores —
//! or two handles onto the same on-disk store — can share objects
//! freely; inserts are idempotent.

use crate::codec::decode_object;
use crate::error::{GitError, Result};
use crate::hash::ObjectId;
use crate::object::{Blob, Object};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A content-addressed object database backend.
///
/// Implementations supply the five primitives (`get`, `put_with_id`,
/// `contains`, `len`, `ids`) plus `clone_box`; everything else — typed
/// fetches, hashing inserts, raw-byte loads and reads, reachability — is
/// provided on top. The trait is object-safe: [`crate::Repository`] holds
/// a `Box<dyn ObjectStore>`.
///
/// Objects travel two ways. [`ObjectStore::get`] hands out decoded
/// objects for the code that reads them. [`ObjectStore::get_raw`] hands
/// out the stored canonical bytes for the code that only moves them — a
/// clone's bundle, a gc's pack, an archive visit — so nothing is decoded
/// and re-encoded on the way through. Each backend keeps its own
/// integrity rule on the raw path: [`DiskStore`] re-hashes every file it
/// reads, [`crate::PackStore`] re-hashes every record it serves (a full
/// record's bytes or a delta's resolution), and [`CachedStore`] answers from
/// memory when it holds the object but never fills its LRU from a raw
/// read, so a bulk walk does not evict the hot set. The one reachability
/// walk, [`ObjectStore::walk_raw`], is built on that read.
pub trait ObjectStore: fmt::Debug + Send + Sync {
    /// Fetches an object.
    fn get(&self, id: ObjectId) -> Result<Arc<Object>>;

    /// Stores an object under a caller-supplied id, without re-hashing.
    /// Idempotent: inserting an id that is already present is a no-op.
    ///
    /// The id **must** be the object's content address; that is the
    /// caller's contract (debug builds verify it). Callers that do not
    /// already know the id use [`ObjectStore::put`] instead.
    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>);

    /// True when the id is present.
    fn contains(&self, id: ObjectId) -> bool;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// All stored ids, in unspecified order. (The object-safe form of
    /// iteration: pair with [`ObjectStore::get`] to walk objects.)
    fn ids(&self) -> Vec<ObjectId>;

    /// Clones the backend behind a fresh box. For shared-medium backends
    /// (e.g. [`DiskStore`]) the clone addresses the same underlying
    /// objects — safe, because object storage is append-only and
    /// content-addressed.
    fn clone_box(&self) -> Box<dyn ObjectStore>;

    /// Dynamic-typing escape hatch: lets code holding a `&dyn
    /// ObjectStore` recognize a concrete backend (e.g. the local tool
    /// skips re-syncing objects when a repository is already backed by
    /// the directory it is being saved to).
    fn as_any(&self) -> &dyn std::any::Any;

    // ----- provided API --------------------------------------------------

    /// True when no objects are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hashes and stores an object, returning its id. Idempotent.
    fn put(&mut self, object: Object) -> ObjectId {
        let id = object.id();
        if !self.contains(id) {
            self.put_with_id(id, Arc::new(object));
        }
        id
    }

    /// Stores an already-shared object (used by object transfer; avoids a
    /// deep copy). Prefer [`ObjectStore::put_with_id`] when the id is
    /// already known — this method must re-hash.
    fn put_shared(&mut self, object: Arc<Object>) -> ObjectId {
        let id = object.id();
        self.put_with_id(id, object);
        id
    }

    /// Stores an object from its canonical bytes under a claimed id,
    /// verifying that the bytes actually hash to that id before trusting
    /// it. This is the checked fast path for loading persisted objects:
    /// one hash over the raw bytes replaces re-encode + re-hash.
    fn put_raw(&mut self, id: ObjectId, bytes: &[u8]) -> Result<ObjectId> {
        verify_claimed_id(id, bytes)?;
        if !self.contains(id) {
            let object = decode_object(bytes)?;
            self.put_with_id(id, Arc::new(object));
        }
        Ok(id)
    }

    /// Stores a batch of objects under caller-supplied ids (the same
    /// contract as [`ObjectStore::put_with_id`], object by object).
    /// Object transfer (clone/fetch/push) inserts through this so
    /// backends can amortize per-insert overhead — [`DiskStore`] creates
    /// each shard directory once per batch instead of once per object.
    fn put_many(&mut self, objects: Vec<(ObjectId, Arc<Object>)>) {
        for (id, object) in objects {
            if !self.contains(id) {
                self.put_with_id(id, object);
            }
        }
    }

    /// Fetches an object expected to be a blob.
    fn blob(&self, id: ObjectId) -> Result<Arc<Object>> {
        expect_kind(self, id, "blob")
    }

    /// Fetches and clones a tree (mutation needs ownership). Walk-only
    /// callers use [`ObjectStore::tree_ref`] instead — cloning a wide
    /// tree per visit is pure overhead on hot paths.
    fn tree(&self, id: ObjectId) -> Result<crate::object::Tree> {
        let obj = expect_kind(self, id, "tree")?;
        Ok(obj.as_tree().expect("checked kind").clone())
    }

    /// Fetches and clones a commit. Walk-only callers use
    /// [`ObjectStore::commit_ref`] instead.
    fn commit(&self, id: ObjectId) -> Result<crate::object::Commit> {
        let obj = expect_kind(self, id, "commit")?;
        Ok(obj.as_commit().expect("checked kind").clone())
    }

    /// Fetches a commit **without cloning it**: the shared handle is
    /// kind-checked, so `.as_commit().expect("checked kind")` on the
    /// result is safe. This is what history walks (`log`, `merge_base`,
    /// reachability, annotate) use — a walk visits every commit once and
    /// needs only to *read* parents and timestamps, so cloning each
    /// `Commit` (parents vector, author strings, message) per visit is
    /// pure allocation overhead.
    fn commit_ref(&self, id: ObjectId) -> Result<Arc<Object>> {
        expect_kind(self, id, "commit")
    }

    /// Fetches a tree without cloning it (see [`ObjectStore::commit_ref`];
    /// the same applies to tree walks — snapshot listing, path
    /// resolution).
    fn tree_ref(&self, id: ObjectId) -> Result<Arc<Object>> {
        expect_kind(self, id, "tree")
    }

    /// The commit-graph index over this store's history, when the backend
    /// maintains one ([`crate::graph::CommitGraph`]): [`crate::PackStore`]
    /// loads the `GLCG` sidecar written by its own `repack`/`gc`;
    /// wrappers forward to their inner backend. `None` (the default)
    /// means history walks fall back to decoding commits — always
    /// correct, just slower. Callers must treat the graph as possibly
    /// *stale*: a commit absent from it simply is not covered, so walks
    /// check their starting points with [`crate::graph::CommitGraph::lookup`]
    /// before trusting it.
    fn commit_graph(&self) -> Option<Arc<crate::graph::CommitGraph>> {
        None
    }

    /// Number of pack records stored as deltas, when the backend packs
    /// its objects ([`crate::PackStore`]); `None` (the default) for
    /// backends with no delta concept. Wrappers forward to their inner
    /// backend.
    fn delta_objects(&self) -> Option<u64> {
        None
    }

    /// Fetches blob data directly.
    fn blob_data(&self, id: ObjectId) -> Result<bytes::Bytes> {
        let obj = expect_kind(self, id, "blob")?;
        Ok(obj.as_blob().expect("checked kind").data.clone())
    }

    /// Cache-effectiveness counters, when a read cache sits in this
    /// backend's stack ([`CachedStore`] reports its LRU; everything else
    /// returns `None`). This is the introspection hook that lets code
    /// holding a `&dyn ObjectStore` — e.g. the hub's `store_stats`
    /// endpoint — surface cache metrics without knowing the backend.
    fn cache_metrics(&self) -> Option<CacheStats> {
        None
    }

    /// Runs storage maintenance, keeping only objects reachable from
    /// `roots`: [`crate::PackStore`] consolidates packs + loose overflow
    /// into one fresh pack and drops the rest ([`crate::PackStore::gc`]);
    /// wrappers forward to their inner backend. Returns `None` when the
    /// backend has no maintenance concept (in-memory and plain loose
    /// stores).
    fn maintain(&mut self, roots: &[ObjectId]) -> Option<Result<crate::pack::MaintenanceReport>> {
        let _ = roots;
        None
    }

    /// Fetches an object's stored canonical bytes (`"<kind> <len>\0<body>"`,
    /// hashing to `id`) for callers that move objects rather than read
    /// them. The default encodes what [`ObjectStore::get`] returns;
    /// backends that store the bytes hand them out as they are, under
    /// the same integrity check as `get` (see the trait docs), and
    /// [`CachedStore`] serves them without filling its cache.
    fn get_raw(&self, id: ObjectId) -> Result<Vec<u8>> {
        Ok(self.get(id)?.canonical_bytes())
    }

    /// Visits every object reachable from `roots` once, as its stored
    /// bytes ([`ObjectStore::get_raw`]): commits lead to their tree and
    /// parents, trees to their entries. Only commits and trees are
    /// decoded, to find those edges; a blob is known by its `blob `
    /// prefix, and nothing is re-encoded. Objects are visited in a fixed
    /// depth-first order (a commit's parents before its tree, a tree's
    /// entries last-first), the order bundles are shipped in. Missing
    /// objects are an error — a reachable closure must be complete.
    fn walk_raw(&self, roots: &[ObjectId], visit: &mut dyn FnMut(ObjectId, Vec<u8>)) -> Result<()> {
        let mut seen = HashSet::new();
        let mut stack: Vec<ObjectId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let bytes = self.get_raw(id)?;
            if !bytes.starts_with(b"blob ") {
                match decode_object(&bytes)? {
                    Object::Blob(_) => {}
                    Object::Tree(t) => stack.extend(t.iter().map(|(_, entry)| entry.id)),
                    Object::Commit(c) => {
                        stack.push(c.tree);
                        stack.extend_from_slice(&c.parents);
                    }
                }
            }
            visit(id, bytes);
        }
        Ok(())
    }

    /// The ids of every object reachable from `roots`, in
    /// [`ObjectStore::walk_raw`]'s order.
    fn reachable_closure(&self, roots: &[ObjectId]) -> Result<Vec<ObjectId>> {
        let mut out = Vec::new();
        self.walk_raw(roots, &mut |id, _| out.push(id))?;
        Ok(out)
    }
}

/// Verifies that `bytes` really hash to the claimed `id` — the integrity
/// check shared by every raw-bytes path.
pub(crate) fn verify_claimed_id(id: ObjectId, bytes: &[u8]) -> Result<()> {
    let actual = ObjectId::hash_bytes(bytes);
    if actual != id {
        return Err(GitError::Corrupt(format!(
            "object {} does not match its content: bytes hash to {}",
            id.short(),
            actual.short()
        )));
    }
    Ok(())
}

fn expect_kind<S: ObjectStore + ?Sized>(
    store: &S,
    id: ObjectId,
    expected: &'static str,
) -> Result<Arc<Object>> {
    let obj = store.get(id)?;
    if obj.kind() != expected {
        return Err(GitError::WrongKind {
            id,
            expected,
            actual: obj.kind(),
        });
    }
    Ok(obj)
}

/// Convenience methods that need generics and therefore live outside the
/// object-safe trait. Blanket-implemented for every store, including
/// `dyn ObjectStore`.
pub trait ObjectStoreExt: ObjectStore {
    /// Stores raw bytes as a blob.
    fn put_blob(&mut self, data: impl Into<bytes::Bytes>) -> ObjectId {
        self.put(Object::Blob(Blob::new(data.into())))
    }
}

impl<S: ObjectStore + ?Sized> ObjectStoreExt for S {}

impl Clone for Box<dyn ObjectStore> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl ObjectStore for Box<dyn ObjectStore> {
    fn get(&self, id: ObjectId) -> Result<Arc<Object>> {
        (**self).get(id)
    }
    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        (**self).put_with_id(id, object)
    }
    fn contains(&self, id: ObjectId) -> bool {
        (**self).contains(id)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn ids(&self) -> Vec<ObjectId> {
        (**self).ids()
    }
    // Forward the provided methods with backend-specific overrides too,
    // so e.g. `DiskStore`'s no-decode `put_raw` survives boxing.
    fn put_raw(&mut self, id: ObjectId, bytes: &[u8]) -> Result<ObjectId> {
        (**self).put_raw(id, bytes)
    }
    fn get_raw(&self, id: ObjectId) -> Result<Vec<u8>> {
        (**self).get_raw(id)
    }
    fn put_many(&mut self, objects: Vec<(ObjectId, Arc<Object>)>) {
        (**self).put_many(objects)
    }
    fn commit_ref(&self, id: ObjectId) -> Result<Arc<Object>> {
        (**self).commit_ref(id)
    }
    fn tree_ref(&self, id: ObjectId) -> Result<Arc<Object>> {
        (**self).tree_ref(id)
    }
    fn cache_metrics(&self) -> Option<CacheStats> {
        (**self).cache_metrics()
    }
    fn commit_graph(&self) -> Option<Arc<crate::graph::CommitGraph>> {
        (**self).commit_graph()
    }
    fn delta_objects(&self) -> Option<u64> {
        (**self).delta_objects()
    }
    fn maintain(&mut self, roots: &[ObjectId]) -> Option<Result<crate::pack::MaintenanceReport>> {
        (**self).maintain(roots)
    }
    fn clone_box(&self) -> Box<dyn ObjectStore> {
        (**self).clone_box()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        (**self).as_any()
    }
}

/// The historical name of the in-memory object database; kept as an alias
/// so existing call sites and docs keep working.
pub type Odb = MemStore;

// ---------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------

/// An in-memory content-addressed object database (the default backend).
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    objects: HashMap<ObjectId, Arc<Object>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStore {
            objects: HashMap::new(),
        }
    }

    /// Iterates all `(id, object)` pairs in unspecified order (the
    /// in-memory store can iterate without fetching; generic code uses
    /// [`ObjectStore::ids`] + [`ObjectStore::get`] instead).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Arc<Object>)> {
        self.objects.iter().map(|(id, obj)| (*id, obj))
    }
}

impl ObjectStore for MemStore {
    fn get(&self, id: ObjectId) -> Result<Arc<Object>> {
        self.objects
            .get(&id)
            .cloned()
            .ok_or(GitError::ObjectNotFound(id))
    }

    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        debug_assert_eq!(object.id(), id, "put_with_id called with a mismatched id");
        self.objects.entry(id).or_insert(object);
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn ids(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    fn clone_box(&self) -> Box<dyn ObjectStore> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------
// DiskStore
// ---------------------------------------------------------------------

/// A durable object database: loose objects under a root directory, in
/// Git's sharded layout (`<root>/ab/cdef...` for id `abcdef...`), each
/// file holding the object's canonical bytes.
///
/// * `open` scans the shard directories once to index what is present;
///   after that, `contains`/`len` are in-memory operations.
/// * `put` writes through to disk immediately (via a temp file + rename,
///   so concurrent writers of the same content-addressed object are
///   safe). If an I/O error occurs, the object is kept in a staging map
///   so the store stays consistent, and the error is surfaced by the
///   next [`DiskStore::flush`].
/// * `get` reads and decodes on every call, verifying that the bytes
///   hash back to the requested id (corruption is detected at read
///   time); `get_raw` makes the same check and skips the decode. Wrap a
///   `DiskStore` in a [`CachedStore`] for hot paths.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
    ids: HashSet<ObjectId>,
    /// Objects whose disk write failed; kept readable, flushed later.
    staged: HashMap<ObjectId, Arc<Object>>,
    first_error: Option<String>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root` and indexes
    /// the objects already present.
    pub fn open(root: impl Into<PathBuf>) -> Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut ids = HashSet::new();
        for bucket in fs::read_dir(&root)? {
            let bucket = bucket?.path();
            let Some(prefix) = bucket
                .file_name()
                .and_then(|n| n.to_str())
                .map(str::to_owned)
            else {
                continue;
            };
            if !bucket.is_dir() || prefix.len() != 2 {
                continue;
            }
            for entry in fs::read_dir(&bucket)? {
                let entry = entry?.path();
                let Some(rest) = entry.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if let Some(id) = ObjectId::from_hex(&format!("{prefix}{rest}")) {
                    ids.insert(id);
                }
            }
        }
        Ok(DiskStore {
            root,
            ids,
            staged: HashMap::new(),
            first_error: None,
        })
    }

    /// The directory objects are stored under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// True when every object this handle holds has reached disk (no
    /// staged writes pending a [`DiskStore::flush`]).
    pub fn is_durable(&self) -> bool {
        self.staged.is_empty()
    }

    /// Retries any writes that previously failed and reports the first
    /// recorded I/O error if the store still is not fully durable.
    /// A no-op on a healthy store.
    pub fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            self.first_error = None;
            return Ok(());
        }
        let mut failed = HashMap::new();
        let mut error = None;
        for (id, object) in std::mem::take(&mut self.staged) {
            match self.write_object(id, &object.canonical_bytes()) {
                Ok(()) => {
                    self.ids.insert(id);
                }
                Err(e) => {
                    // Keep the object readable and retryable; report the
                    // oldest recorded error after attempting everything.
                    error.get_or_insert_with(|| {
                        self.first_error.clone().unwrap_or_else(|| e.to_string())
                    });
                    failed.insert(id, object);
                }
            }
        }
        self.staged = failed;
        match error {
            Some(msg) => Err(GitError::Io(msg)),
            None => {
                self.first_error = None;
                Ok(())
            }
        }
    }

    fn object_file(&self, id: ObjectId) -> PathBuf {
        let hex = id.to_hex();
        self.root.join(&hex[..2]).join(&hex[2..])
    }

    /// `contains` for the write paths: like [`ObjectStore::contains`],
    /// but when the object turns out to exist only as a file (written by
    /// another handle onto the same directory), the id is pulled into the
    /// index so `ids()`/`len()` reflect it from now on.
    fn known(&mut self, id: ObjectId) -> bool {
        if self.ids.contains(&id) || self.staged.contains_key(&id) {
            return true;
        }
        if self.object_file(id).is_file() {
            self.ids.insert(id);
            return true;
        }
        false
    }

    /// Reads `id`'s object file, verifying that its bytes hash back to
    /// the id (a file changed on disk is caught at every read).
    fn read_checked(&self, id: ObjectId) -> Result<Vec<u8>> {
        let bytes = match fs::read(self.object_file(id)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(GitError::ObjectNotFound(id))
            }
            Err(e) => return Err(GitError::Io(e.to_string())),
        };
        let actual = ObjectId::hash_bytes(&bytes);
        if actual != id {
            return Err(GitError::Corrupt(format!(
                "object file {} holds bytes hashing to {}",
                id.short(),
                actual.short()
            )));
        }
        Ok(bytes)
    }

    /// True when `id`'s stored bytes open with the `commit ` header: a
    /// kind test that reads seven bytes and neither hashes nor decodes.
    /// Callers that go on to use the commit read it through `get`, which
    /// makes the hash check.
    pub(crate) fn stored_as_commit(&self, id: ObjectId) -> bool {
        const PREFIX: &[u8; 7] = b"commit ";
        if let Some(obj) = self.staged.get(&id) {
            return obj.as_commit().is_some();
        }
        let mut head = [0u8; PREFIX.len()];
        fs::File::open(self.object_file(id))
            .and_then(|mut file| file.read_exact(&mut head))
            .is_ok_and(|()| head == *PREFIX)
    }

    fn write_object(&self, id: ObjectId, bytes: &[u8]) -> std::io::Result<()> {
        // No exists() pre-check: callers filter through `known()`, and a
        // racing duplicate write produces identical bytes via temp+rename
        // anyway, so re-writing is harmless — just skip the extra stat.
        let file = self.object_file(id);
        let bucket = file.parent().expect("object files live in a bucket");
        fs::create_dir_all(bucket)?;
        write_via_rename(bucket, &file, bytes)
    }
}

/// Temp-then-rename write, keeping readers (and racing writers of the
/// same object, which by content addressing write identical bytes) from
/// ever seeing a partial file. The bucket directory must already exist.
/// Shared with [`crate::pack`], whose pack/idx files are content-named
/// and need the same atomicity.
pub(crate) fn write_via_rename(bucket: &Path, file: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = bucket.join(format!(
        ".tmp-{}-{:x}",
        std::process::id(),
        bytes.as_ptr() as usize
    ));
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, file) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            if file.exists() {
                Ok(()) // lost a benign race to an identical writer
            } else {
                Err(e)
            }
        }
    }
}

impl ObjectStore for DiskStore {
    fn get(&self, id: ObjectId) -> Result<Arc<Object>> {
        if let Some(obj) = self.staged.get(&id) {
            return Ok(Arc::clone(obj));
        }
        Ok(Arc::new(decode_object(&self.read_checked(id)?)?))
    }

    /// The file's bytes as they are, after the same hash check as `get`.
    fn get_raw(&self, id: ObjectId) -> Result<Vec<u8>> {
        if let Some(obj) = self.staged.get(&id) {
            return Ok(obj.canonical_bytes());
        }
        self.read_checked(id)
    }

    /// Raw-bytes fast path: after the hash check, the bytes go straight
    /// to disk — no decode at all (the provided method would decode just
    /// to re-encode).
    fn put_raw(&mut self, id: ObjectId, bytes: &[u8]) -> Result<ObjectId> {
        verify_claimed_id(id, bytes)?;
        if self.known(id) {
            return Ok(id);
        }
        match self.write_object(id, bytes) {
            Ok(()) => {
                self.ids.insert(id);
            }
            Err(e) => {
                // Fall back to staging the decoded object in memory.
                self.first_error.get_or_insert_with(|| e.to_string());
                self.staged.insert(id, Arc::new(decode_object(bytes)?));
            }
        }
        Ok(id)
    }

    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        debug_assert_eq!(object.id(), id, "put_with_id called with a mismatched id");
        if self.known(id) {
            return;
        }
        match self.write_object(id, &object.canonical_bytes()) {
            Ok(()) => {
                self.ids.insert(id);
            }
            Err(e) => {
                self.first_error.get_or_insert_with(|| e.to_string());
                self.staged.insert(id, object);
            }
        }
    }

    /// Batch insert, amortizing the per-object `create_dir_all` syscall:
    /// each shard directory is created once per batch, and subsequent
    /// writes into it skip the directory check entirely.
    fn put_many(&mut self, objects: Vec<(ObjectId, Arc<Object>)>) {
        let mut made_buckets: HashSet<PathBuf> = HashSet::new();
        for (id, object) in objects {
            debug_assert_eq!(object.id(), id, "put_many called with a mismatched id");
            if self.known(id) {
                continue;
            }
            let file = self.object_file(id);
            let bucket = file.parent().expect("object files live in a bucket");
            let result = if made_buckets.contains(bucket) {
                write_via_rename(bucket, &file, &object.canonical_bytes())
            } else {
                match fs::create_dir_all(bucket) {
                    Ok(()) => {
                        made_buckets.insert(bucket.to_path_buf());
                        write_via_rename(bucket, &file, &object.canonical_bytes())
                    }
                    Err(e) => Err(e),
                }
            };
            match result {
                Ok(()) => {
                    self.ids.insert(id);
                }
                Err(e) => {
                    self.first_error.get_or_insert_with(|| e.to_string());
                    self.staged.insert(id, object);
                }
            }
        }
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.ids.contains(&id) || self.staged.contains_key(&id) || self.object_file(id).is_file()
    }

    fn len(&self) -> usize {
        self.ids.len() + self.staged.len()
    }

    fn ids(&self) -> Vec<ObjectId> {
        self.ids
            .iter()
            .copied()
            .chain(self.staged.keys().copied())
            .collect()
    }

    fn clone_box(&self) -> Box<dyn ObjectStore> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------
// CachedStore
// ---------------------------------------------------------------------

/// Default capacity (in objects) of a [`CachedStore`].
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// An LRU read-through cache over another backend.
///
/// `get` serves hot objects from memory; misses fall through to the
/// inner store and populate the cache. `get_raw` answers from memory
/// when the object is cached and otherwise reads the inner store's bytes
/// without filling the cache or counting a hit or miss: the objects a
/// clone or gc streams through once must not evict what readers keep
/// asking for. Writes go through to the inner store and prime the cache
/// (a freshly written object is usually read next).
/// `contains`/`len`/`ids` always reflect the inner store.
pub struct CachedStore<S> {
    inner: S,
    cache: Mutex<Lru>,
}

impl<S: ObjectStore> CachedStore<S> {
    /// Wraps `inner` with the default cache capacity.
    pub fn new(inner: S) -> Self {
        Self::with_capacity(inner, DEFAULT_CACHE_CAPACITY)
    }

    /// Wraps `inner`, keeping at most `capacity` objects in memory.
    pub fn with_capacity(inner: S, capacity: usize) -> Self {
        CachedStore {
            inner,
            cache: Mutex::new(Lru::new(capacity)),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps into the inner backend, discarding the cache.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// `(hits, misses)` since creation — used by benchmarks and tests to
    /// verify the cache is actually serving hot reads.
    pub fn cache_stats(&self) -> (u64, u64) {
        let stats = self.stats();
        (stats.hits, stats.misses)
    }

    /// Full cache-effectiveness counters since creation. The hub and the
    /// `store_backends` bench surface these for capacity planning: a high
    /// eviction count with a low hit rate means the capacity is too small
    /// for the working set.
    pub fn stats(&self) -> CacheStats {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            len: cache.map.len(),
            capacity: cache.capacity,
        }
    }
}

/// Counters reported by [`CachedStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from memory.
    pub hits: u64,
    /// Reads that fell through to the inner store.
    pub misses: u64,
    /// Objects pushed out by the LRU policy.
    pub evictions: u64,
    /// Objects currently cached.
    pub len: usize,
    /// Maximum objects the cache will hold.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when nothing was read yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for CachedStore<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("CachedStore")
            .field("inner", &self.inner)
            .field("cached", &cache.map.len())
            .field("capacity", &cache.capacity)
            .finish()
    }
}

impl<S: Clone> Clone for CachedStore<S> {
    fn clone(&self) -> Self {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        CachedStore {
            inner: self.inner.clone(),
            cache: Mutex::new(cache.clone()),
        }
    }
}

impl<S: ObjectStore + Clone + 'static> ObjectStore for CachedStore<S> {
    fn get(&self, id: ObjectId) -> Result<Arc<Object>> {
        {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(obj) = cache.get(id) {
                return Ok(obj);
            }
        }
        let obj = self.inner.get(id)?;
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.insert(id, Arc::clone(&obj));
        Ok(obj)
    }

    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        self.inner.put_with_id(id, Arc::clone(&object));
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.insert(id, object);
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

    /// A cached object is encoded from memory; anything else is the
    /// inner store's bytes, read past the cache (see the type docs).
    fn get_raw(&self, id: ObjectId) -> Result<Vec<u8>> {
        let cached = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .peek(id);
        match cached {
            Some(obj) => Ok(obj.canonical_bytes()),
            None => self.inner.get_raw(id),
        }
    }

    /// Delegates so the inner backend's raw-bytes fast path is kept
    /// (`DiskStore` writes the bytes without decoding them).
    fn put_raw(&mut self, id: ObjectId, bytes: &[u8]) -> Result<ObjectId> {
        self.inner.put_raw(id, bytes)
    }

    /// Delegates the batch to the inner backend (keeping its amortized
    /// path) and primes the cache with the freshly written objects.
    fn put_many(&mut self, objects: Vec<(ObjectId, Arc<Object>)>) {
        {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            for (id, object) in &objects {
                cache.insert(*id, Arc::clone(object));
            }
        }
        self.inner.put_many(objects);
    }

    fn cache_metrics(&self) -> Option<CacheStats> {
        Some(self.stats())
    }

    /// Forwards to the inner backend, so a `CachedStore<PackStore>` —
    /// the local tool's and the hub's serving stack — exposes the pack
    /// layer's commit-graph to history walks.
    fn commit_graph(&self) -> Option<Arc<crate::graph::CommitGraph>> {
        self.inner.commit_graph()
    }

    fn delta_objects(&self) -> Option<u64> {
        self.inner.delta_objects()
    }

    /// Forwards to the inner backend and, when maintenance actually ran,
    /// drops every cached object: gc may have discarded unreachable ids,
    /// and the cache must not keep serving them.
    fn maintain(&mut self, roots: &[ObjectId]) -> Option<Result<crate::pack::MaintenanceReport>> {
        let report = self.inner.maintain(roots)?;
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).clear();
        Some(report)
    }

    fn clone_box(&self) -> Box<dyn ObjectStore> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A small exact-LRU: map plus a recency index ordered by logical tick.
#[derive(Clone)]
struct Lru {
    capacity: usize,
    tick: u64,
    map: HashMap<ObjectId, (Arc<Object>, u64)>,
    recency: BTreeMap<u64, ObjectId>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, id: ObjectId) -> Option<Arc<Object>> {
        let tick = self.touch();
        match self.map.get_mut(&id) {
            Some((obj, last)) => {
                self.recency.remove(last);
                *last = tick;
                self.recency.insert(tick, id);
                self.hits += 1;
                Some(Arc::clone(obj))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The cached object, leaving recency and the counters as they are.
    fn peek(&self, id: ObjectId) -> Option<Arc<Object>> {
        self.map.get(&id).map(|(obj, _)| Arc::clone(obj))
    }

    fn insert(&mut self, id: ObjectId, obj: Arc<Object>) {
        let tick = self.touch();
        if let Some((_, last)) = self.map.remove(&id) {
            self.recency.remove(&last);
        }
        self.map.insert(id, (obj, tick));
        self.recency.insert(tick, id);
        while self.map.len() > self.capacity {
            let (_, evicted) = self.recency.pop_first().expect("recency tracks map");
            self.map.remove(&evicted);
            self.evictions += 1;
        }
    }

    /// Empties the cache, keeping the counters (an invalidation, not a
    /// reset — hit/miss history is still meaningful for capacity
    /// planning).
    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Commit, EntryMode, Signature, Tree, TreeEntry};

    fn sample_commit<S: ObjectStore + ?Sized>(
        odb: &mut S,
        msg: &str,
        parents: Vec<ObjectId>,
    ) -> ObjectId {
        let blob = odb.put_blob(format!("content of {msg}"));
        let mut tree = Tree::new();
        tree.insert(
            "f.txt",
            TreeEntry {
                mode: EntryMode::File,
                id: blob,
            },
        );
        let tree_id = odb.put(Object::Tree(tree));
        odb.put(Object::Commit(Commit {
            tree: tree_id,
            parents,
            author: Signature::new("t", "t@t", 0),
            message: msg.into(),
        }))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "gitlite-store-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn put_get_round_trip() {
        let mut odb = Odb::new();
        let id = odb.put_blob("hello");
        assert!(odb.contains(id));
        assert_eq!(odb.blob_data(id).unwrap().as_ref(), b"hello");
    }

    #[test]
    fn put_is_idempotent() {
        let mut odb = Odb::new();
        let a = odb.put_blob("same");
        let b = odb.put_blob("same");
        assert_eq!(a, b);
        assert_eq!(odb.len(), 1);
    }

    #[test]
    fn missing_object_errors() {
        let odb = Odb::new();
        let id = ObjectId::hash_bytes(b"nope");
        assert_eq!(odb.get(id).unwrap_err(), GitError::ObjectNotFound(id));
    }

    #[test]
    fn kind_mismatch_errors() {
        let mut odb = Odb::new();
        let id = odb.put_blob("x");
        let err = odb.tree(id).unwrap_err();
        assert_eq!(
            err,
            GitError::WrongKind {
                id,
                expected: "tree",
                actual: "blob"
            }
        );
    }

    #[test]
    fn reachable_closure_walks_commits_trees_blobs() {
        let mut odb = Odb::new();
        let c1 = sample_commit(&mut odb, "one", vec![]);
        let c2 = sample_commit(&mut odb, "two", vec![c1]);
        // Unreachable garbage:
        odb.put_blob("garbage");
        let closure = odb.reachable_closure(&[c2]).unwrap();
        // c2 + c1 + 2 trees + 2 blobs = 6
        assert_eq!(closure.len(), 6);
        assert!(closure.contains(&c1));
        assert!(closure.contains(&c2));
    }

    #[test]
    fn reachable_closure_detects_missing() {
        let mut odb = Odb::new();
        let c1 = sample_commit(&mut odb, "one", vec![]);
        // Commit referencing a parent we never stored.
        let dangling = Commit {
            tree: odb.commit(c1).unwrap().tree,
            parents: vec![ObjectId::hash_bytes(b"missing")],
            author: Signature::new("t", "t@t", 0),
            message: "dangling".into(),
        };
        let c2 = odb.put(Object::Commit(dangling));
        assert!(matches!(
            odb.reachable_closure(&[c2]),
            Err(GitError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn put_raw_verifies_the_claimed_id() {
        let mut odb = Odb::new();
        let blob = Blob::new(&b"raw"[..]);
        let bytes = blob.canonical_bytes();
        let id = odb.put_raw(blob.id(), &bytes).unwrap();
        assert_eq!(odb.blob_data(id).unwrap().as_ref(), b"raw");
        // Lying about the id is caught by a single hash over the bytes.
        let wrong = ObjectId::hash_bytes(b"lie");
        assert!(matches!(
            odb.put_raw(wrong, &bytes),
            Err(GitError::Corrupt(_))
        ));
    }

    #[test]
    fn disk_store_persists_and_reopens() {
        let dir = temp_dir("reopen");
        let mut disk = DiskStore::open(&dir).unwrap();
        let c1 = sample_commit(&mut disk, "one", vec![]);
        let blob = disk.put_blob("loose");
        assert_eq!(disk.len(), 4);
        drop(disk);

        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 4);
        assert!(reopened.contains(c1));
        assert_eq!(reopened.blob_data(blob).unwrap().as_ref(), b"loose");
        assert_eq!(reopened.commit(c1).unwrap().message, "one");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_layout_is_sharded_canonical_bytes() {
        let dir = temp_dir("layout");
        let mut disk = DiskStore::open(&dir).unwrap();
        let id = disk.put_blob("sharded");
        let hex = id.to_hex();
        let file = dir.join(&hex[..2]).join(&hex[2..]);
        assert!(file.is_file());
        let bytes = fs::read(&file).unwrap();
        assert_eq!(ObjectId::hash_bytes(&bytes), id);
        assert_eq!(decode_object(&bytes).unwrap().id(), id);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_put_raw_writes_without_decoding() {
        let dir = temp_dir("raw");
        let mut disk = DiskStore::open(&dir).unwrap();
        let blob = Blob::new(&b"raw bytes"[..]);
        let bytes = blob.canonical_bytes();
        let id = disk.put_raw(blob.id(), &bytes).unwrap();
        assert_eq!(disk.blob_data(id).unwrap().as_ref(), b"raw bytes");
        let wrong = ObjectId::hash_bytes(b"lie");
        assert!(matches!(
            disk.put_raw(wrong, &bytes),
            Err(GitError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_detects_corruption_on_read() {
        let dir = temp_dir("corrupt");
        let mut disk = DiskStore::open(&dir).unwrap();
        let id = disk.put_blob("pristine");
        let hex = id.to_hex();
        fs::write(dir.join(&hex[..2]).join(&hex[2..]), b"tampered").unwrap();
        assert!(matches!(disk.get(id), Err(GitError::Corrupt(_))));
        assert!(matches!(disk.get_raw(id), Err(GitError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_reads_are_the_stored_bytes() {
        let dir = temp_dir("raw");
        let mut disk = DiskStore::open(&dir).unwrap();
        let c = sample_commit(&mut disk, "c", vec![]);
        for id in disk.reachable_closure(&[c]).unwrap() {
            let hex = id.to_hex();
            let file = fs::read(dir.join(&hex[..2]).join(&hex[2..])).unwrap();
            assert_eq!(disk.get_raw(id).unwrap(), file);
            assert_eq!(file, disk.get(id).unwrap().canonical_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_clones_share_the_medium() {
        let dir = temp_dir("clone");
        let mut a = DiskStore::open(&dir).unwrap();
        let mut b = a.clone();
        let id = b.put_blob("written by clone");
        // The original can read it (content addressing makes sharing safe).
        assert_eq!(
            a.get(id).unwrap().as_blob().unwrap().data.as_ref(),
            b"written by clone"
        );
        a.flush().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_put_indexes_objects_written_by_another_handle() {
        let dir = temp_dir("shared-index");
        let mut a = DiskStore::open(&dir).unwrap();
        let mut b = a.clone();
        let id = b.put_blob("written by b");
        assert!(!a.ids().contains(&id), "a has not seen the object yet");
        // a's put must notice the file already exists AND index it, so
        // ids()/len() keep matching what the store reports as contained.
        a.put_with_id(id, b.get(id).unwrap());
        assert!(a.ids().contains(&id));
        assert_eq!(a.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_many_batches_across_backends() {
        let dir = temp_dir("put-many");
        let blobs: Vec<(ObjectId, Arc<Object>)> = (0..20)
            .map(|i| {
                let blob = Blob::new(format!("batch {i}").into_bytes());
                (blob.id(), Arc::new(Object::Blob(blob)))
            })
            .collect();

        // Default impl (MemStore) and the DiskStore override agree.
        let mut mem = MemStore::new();
        mem.put_many(blobs.clone());
        let mut disk = DiskStore::open(&dir).unwrap();
        disk.put_many(blobs.clone());
        assert_eq!(mem.len(), 20);
        assert_eq!(disk.len(), 20);
        for (id, _) in &blobs {
            assert!(disk.contains(*id));
            assert_eq!(mem.get(*id).unwrap(), disk.get(*id).unwrap());
        }
        // Batches are idempotent, and re-batching indexes nothing twice.
        disk.put_many(blobs.clone());
        assert_eq!(disk.len(), 20);
        // A fresh handle sees everything (the writes really hit disk).
        assert_eq!(DiskStore::open(&dir).unwrap().len(), 20);

        // The cached wrapper primes its cache from the batch: reading
        // every object back is pure hits.
        let mut cached = CachedStore::new(MemStore::new());
        cached.put_many(blobs.clone());
        for (id, _) in &blobs {
            cached.get(*id).unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.hits, 20);
        assert_eq!(stats.misses, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_stats_count_evictions() {
        let mut cached = CachedStore::with_capacity(MemStore::new(), 2);
        let ids: Vec<ObjectId> = (0..5).map(|i| cached.put_blob(format!("v{i}"))).collect();
        let stats = cached.stats();
        assert_eq!(stats.evictions, 3, "capacity 2, 5 inserts");
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
        // Hit rate reflects a miss (evicted) then hits (recached).
        cached.get(ids[0]).unwrap();
        cached.get(ids[0]).unwrap();
        let stats = cached.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn put_shared_deduplicates_against_put() {
        let mut odb = Odb::new();
        let id = odb.put_blob("shared");
        let same = odb.put_shared(odb.get(id).unwrap());
        assert_eq!(same, id);
        assert_eq!(odb.len(), 1);
    }

    #[test]
    fn cached_store_serves_hot_reads_from_memory() {
        let dir = temp_dir("cache");
        let mut cached = CachedStore::new(DiskStore::open(&dir).unwrap());
        let id = cached.put_blob("hot");
        for _ in 0..10 {
            assert_eq!(cached.blob_data(id).unwrap().as_ref(), b"hot");
        }
        let (hits, misses) = cached.cache_stats();
        assert_eq!(hits, 10, "writes prime the cache; every read hits");
        assert_eq!(misses, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_raw_reads_answer_hits_and_never_fill_the_cache() {
        let dir = temp_dir("cache-raw");
        let mut disk = DiskStore::open(&dir).unwrap();
        let cold = disk.put_blob("cold");
        let mut cached = CachedStore::with_capacity(disk, 4);
        let hot = cached.put_blob("hot");
        let before = cached.stats();
        assert_eq!(
            cached.get_raw(cold).unwrap(),
            cached.get(cold).unwrap().canonical_bytes()
        );
        let after_get = cached.stats();
        assert_eq!(after_get.len, before.len + 1, "a get fills the cache");
        // A hit is answered from memory, even once the file is gone; a
        // miss reads through and leaves the cache as it was.
        let hex = hot.to_hex();
        fs::remove_file(dir.join(&hex[..2]).join(&hex[2..])).unwrap();
        assert_eq!(cached.get_raw(hot).unwrap(), b"blob 3\0hot".to_vec());
        let other = cached
            .put_raw(ObjectId::hash_bytes(b"blob 1\0x"), b"blob 1\0x")
            .unwrap();
        // Boxed, as a `Repository` holds it: the box forwards `get_raw`.
        let boxed: Box<dyn ObjectStore> = Box::new(cached);
        assert_eq!(boxed.get_raw(other).unwrap(), b"blob 1\0x".to_vec());
        assert_eq!(boxed.cache_metrics(), Some(after_get));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_store_evicts_least_recently_used() {
        let mut cached = CachedStore::with_capacity(MemStore::new(), 2);
        let a = cached.put_blob("a");
        let b = cached.put_blob("b");
        let c = cached.put_blob("c"); // evicts a
        cached.get(b).unwrap();
        cached.get(c).unwrap();
        let before = cached.cache_stats();
        cached.get(a).unwrap(); // miss: was evicted, refetched from inner
        let after = cached.cache_stats();
        assert_eq!(after.1, before.1 + 1);
        // All objects still retrievable (inner store is authoritative).
        assert_eq!(cached.len(), 3);
    }

    #[test]
    fn boxed_stores_clone_and_delegate() {
        let mut store: Box<dyn ObjectStore> = Box::new(MemStore::new());
        let id = store.put_blob("boxed");
        let copy = store.clone();
        assert!(copy.contains(id));
        assert_eq!(copy.ids(), vec![id]);
        assert_eq!(copy.blob_data(id).unwrap().as_ref(), b"boxed");
    }
}
