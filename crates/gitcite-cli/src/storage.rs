//! On-disk persistence for the local tool.
//!
//! The paper's second component is "a local executable tool" used "when a
//! project member downloads a copy of the project repository" (§3). A real
//! tool must survive process exits, so repositories are persisted under a
//! `.gitcite/` directory next to the working files:
//!
//! ```text
//! <workdir>/
//!   .gitcite/
//!     objects/pack/pack-<checksum>.pack   # consolidated objects
//!     objects/pack/pack-<checksum>.idx    # fanout index into the pack
//!     objects/pack/commit-graph.glcg      # commit-graph history index
//!     objects/ab/cdef...                  # loose overflow (new writes)
//!     refs                 # "<branch> <hex>" per line
//!     HEAD                 # "branch <name>" | "detached <hex>" | "unborn <name>"
//!     name                 # repository name
//!     MERGE_HEAD           # "<hex>" while a conflicted merge awaits its commit
//!   src/main.rs ...        # the worktree, as real files
//!   citation.cite
//! ```
//!
//! Object persistence is **not** implemented here: the `objects/`
//! directory is a [`gitlite::PackStore`] — the same pluggable
//! [`gitlite::ObjectStore`] backend the substrate defines — so encoding,
//! packing, sharding, integrity checking and durability live in one
//! place. [`load`] hands the repository a `CachedStore<PackStore>`
//! backend, which means objects are read lazily (packs read in place +
//! loose files, with an LRU for hot trees/blobs) and every object written by a
//! later commit is already durable by the time [`save`] runs; `save`
//! only records refs, HEAD, the repository name and the worktree files,
//! plus any objects a memory-backed repository brought along. Metadata
//! files (refs/HEAD/name) are written atomically (temp file + rename),
//! after the worktree, so a crash mid-save can never leave a truncated
//! ref file behind, nor refs naming a worktree that was not written.
//! `MERGE_HEAD` ([`set_merge_head`]) is git's file of the same name: the
//! tip a conflicted merge brought in, which the commit that resolves the
//! merge takes as its second parent.
//!
//! `save` does work in proportion to what a command changed: it writes
//! only the worktree files whose bytes differ from the ones on disk and
//! removes only the files the repository dropped. A first save, into a
//! directory that holds no repository yet, never deletes anything: the
//! files already there are not the repository's, and `gitcite init`
//! adopts them into the next commit.
//!
//! New commits always write *loose* objects; `gitcite gc` ([`gc`])
//! consolidates them into a fresh pack, drops unreachable objects, and
//! rewrites the commit-graph ([`gitlite::CommitGraph`]) so subsequent
//! `log`/`history`/merge-base walks never decode commits. A repository
//! persisted by the older loose-only layout opens unchanged (packs and
//! the graph simply do not exist until the first `gc`).
//!
//! Loading reads the worktree back from the real files, so edits made with
//! any editor are picked up — exactly how Git behaves. HEAD's tree is
//! therefore never checked out: [`load`] puts HEAD where the `HEAD` file
//! says and reads only HEAD's commit and root tree, so a store that
//! cannot serve HEAD still fails the load. Opening the store checks each
//! pack's structure, not its bytes; every object is hashed against its
//! id when a command reads it. A command thus pays for the objects it
//! reads, not for the whole store.

use gitlite::{
    CachedStore, GitError, Head, MaintenanceReport, ObjectId, ObjectStore, PackStore, RepoPath,
    Repository, WorkTree,
};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the metadata directory.
pub const META_DIR: &str = ".gitcite";

const MERGE_HEAD: &str = "MERGE_HEAD";

fn meta(dir: &Path) -> PathBuf {
    dir.join(META_DIR)
}

fn objects_dir(dir: &Path) -> PathBuf {
    meta(dir).join("objects")
}

/// True when `dir` holds a persisted repository.
pub fn exists(dir: &Path) -> bool {
    meta(dir).join("HEAD").is_file()
}

/// Opens the object-store backend persisted under `dir`: a
/// [`PackStore`] over `.gitcite/objects` (packs read in place + loose
/// overflow), wrapped in a read-through LRU for the hot resolution paths
/// (snapshot, cite, diff/merge walks).
pub fn open_store(dir: &Path) -> Result<CachedStore<PackStore>, GitError> {
    Ok(CachedStore::new(PackStore::open(objects_dir(dir))?))
}

/// Repacks the repository under `dir`: consolidates every object
/// reachable from `roots` into one fresh pack and drops the rest (see
/// [`PackStore::gc`]). Run via `gitcite gc` once enough loose objects
/// accumulate to matter — on the order of hundreds, e.g. after importing
/// or retrofitting a large history.
pub fn gc(dir: &Path, roots: &[ObjectId]) -> Result<MaintenanceReport, GitError> {
    let mut store = PackStore::open(objects_dir(dir))?;
    store.gc(roots)
}

/// Default loose-object count at which the CLI's write paths trigger an
/// automatic [`gc`] after saving: a long edit session (each commit lands
/// ~3-4 loose objects) self-compacts instead of accumulating thousands
/// of files that slow every subsequent load. Override per invocation
/// with the `GITCITE_AUTO_GC` environment variable
/// ([`auto_gc_threshold`]).
pub const AUTO_GC_THRESHOLD: usize = 64;

/// The effective auto-gc threshold: `GITCITE_AUTO_GC` when set to a
/// number (`0` disables auto-gc entirely — `gitcite gc` still works),
/// [`AUTO_GC_THRESHOLD`] otherwise. An unparseable value falls back to
/// the default rather than disabling compaction by accident.
pub fn auto_gc_threshold() -> Option<usize> {
    match std::env::var("GITCITE_AUTO_GC") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) => None,
            Ok(n) => Some(n),
            Err(_) => Some(AUTO_GC_THRESHOLD),
        },
        Err(_) => Some(AUTO_GC_THRESHOLD),
    }
}

/// Runs [`gc`] when `loose`, the store's loose-object count (see
/// [`loose_count`]), has reached [`auto_gc_threshold`]; returns `None`
/// without touching the store when below it or when auto-gc is disabled.
pub fn maybe_gc(
    dir: &Path,
    roots: &[ObjectId],
    loose: usize,
) -> Result<Option<MaintenanceReport>, GitError> {
    match auto_gc_threshold() {
        Some(threshold) if loose >= threshold => gc(dir, roots).map(Some),
        _ => Ok(None),
    }
}

/// Loose objects in the store under `dir`. A repository [`load`]ed from
/// `dir` answers from its own [`PackStore`] handle, which indexed the
/// loose area at open and counted every write since, so no shard
/// directory is scanned twice in one command; any other repository
/// costs a scan of the loose area.
pub fn loose_count(dir: &Path, repo: &Repository) -> Result<usize, GitError> {
    match store_under(dir, repo) {
        Some(store) => Ok(store.loose_len()),
        // The loose overflow *is* a DiskStore over the same root.
        None => Ok(gitlite::DiskStore::open(objects_dir(dir))?.len()),
    }
}

/// `repo`'s own store when it is the [`PackStore`] under `dir` and
/// every object it accepted has reached disk: a repository [`load`]ed
/// from `dir`, whose writes went straight through to it.
fn store_under<'a>(dir: &Path, repo: &'a Repository) -> Option<&'a PackStore> {
    repo.odb()
        .as_any()
        .downcast_ref::<CachedStore<PackStore>>()
        .map(CachedStore::inner)
        .filter(|store| store.root() == objects_dir(dir) && store.is_durable())
}

/// Persists `repo` into `dir`: metadata under `.gitcite/`, worktree as
/// real files.
///
/// Only worktree files whose bytes differ from the ones on disk are
/// written, and only files the repository dropped are removed. When `dir`
/// holds no repository yet, no file there belongs to one: the first save
/// writes the worktree and deletes nothing.
///
/// Works for any backend: objects the on-disk store does not yet hold
/// (e.g. from a memory-backed repository being saved for the first time)
/// are copied in; a disk-backed repository's objects are already there.
pub fn save(dir: &Path, repo: &Repository) -> io::Result<()> {
    let on_disk = if exists(dir) {
        read_worktree(dir).map_err(io_err)?
    } else {
        WorkTree::new()
    };
    save_over(dir, repo, &on_disk)
}

/// [`save`] for a caller that already holds the worktree files under
/// `dir` as `on_disk`, typically the worktree [`load`] just read: every
/// file is then read once per command, and an unchanged file costs no
/// I/O at all.
pub(crate) fn save_over(dir: &Path, repo: &Repository, on_disk: &WorkTree) -> io::Result<()> {
    let meta_dir = meta(dir);
    fs::create_dir_all(&meta_dir)?;

    // Objects. Fast path: a repository loaded from this very directory
    // is already write-through onto its PackStore — re-opening the store
    // (a shard scan plus pack parsing) and re-checking every id would
    // find nothing to do. Recognize that case and skip it.
    if store_under(dir, repo).is_none() {
        // Sync through the PackStore backend (skips ids already packed or
        // on disk — objects are immutable), batching the inserts.
        let mut store = PackStore::open(objects_dir(dir)).map_err(io_err)?;
        let mut missing = Vec::new();
        for id in repo.odb().ids() {
            if !store.contains(id) {
                missing.push((id, repo.odb().get(id).map_err(io_err)?));
            }
        }
        store.put_many(missing);
        store.flush().map_err(io_err)?;
    }

    // The worktree goes before the metadata, which is the commit point:
    // a save that fails halfway leaves refs and HEAD naming the old state.
    write_worktree(dir, on_disk, repo.worktree())?;

    // Refs. All metadata writes are temp-file + rename, so a crash can
    // truncate neither the ref list nor HEAD.
    let mut refs_text = String::new();
    for (branch, tip) in repo.branches() {
        refs_text.push_str(&format!("{branch} {}\n", tip.to_hex()));
    }
    write_atomic(&meta_dir.join("refs"), refs_text.as_bytes())?;

    // HEAD.
    let head_text = match repo.head() {
        Head::Branch(b) => format!("branch {b}\n"),
        Head::Unborn(b) => format!("unborn {b}\n"),
        Head::Detached(id) => format!("detached {}\n", id.to_hex()),
    };
    write_atomic(&meta_dir.join("HEAD"), head_text.as_bytes())?;
    write_atomic(&meta_dir.join("name"), repo.name().as_bytes())?;
    Ok(())
}

/// Turns the files under `dir` from `old` into `new`. Dropped files go
/// first, with the directories they leave empty, so a path that changes
/// between file and directory is free by the time it is written; then
/// only the files whose bytes changed are written.
fn write_worktree(dir: &Path, old: &WorkTree, new: &WorkTree) -> io::Result<()> {
    let mut emptied = BTreeSet::new();
    for path in old.paths().filter(|p| !new.is_file(p)) {
        let _ = fs::remove_file(dir.join(path.to_string()));
        emptied.extend(path.ancestors().filter(|a| !a.is_root()));
    }
    // A directory sorts before everything under it, so reverse order
    // removes inner directories first. Removal fails, harmlessly, on a
    // directory that still holds files.
    for emptied_dir in emptied.iter().rev() {
        let _ = fs::remove_dir(dir.join(emptied_dir.to_string()));
    }
    for (path, data) in new.iter() {
        if old.read(path).is_ok_and(|current| current == data) {
            continue;
        }
        let target = dir.join(path.to_string());
        if let Some(parent) = target.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(target, data)?;
    }
    Ok(())
}

fn io_err(e: GitError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Records `theirs` as the second parent of the commit that resolves a
/// conflicted merge (`.gitcite/MERGE_HEAD`, temp file + rename); `None`
/// removes the record.
pub fn set_merge_head(dir: &Path, theirs: Option<ObjectId>) -> io::Result<()> {
    let file = meta(dir).join(MERGE_HEAD);
    match theirs {
        Some(id) => write_atomic(&file, format!("{}\n", id.to_hex()).as_bytes()),
        None => match fs::remove_file(&file) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        },
    }
}

/// The second parent [`set_merge_head`] recorded, if a merge awaits its
/// commit.
pub fn merge_head(dir: &Path) -> Result<Option<ObjectId>, GitError> {
    match fs::read_to_string(meta(dir).join(MERGE_HEAD)) {
        Ok(text) => ObjectId::from_hex(text.trim())
            .map(Some)
            .ok_or_else(|| GitError::Corrupt(format!("bad MERGE_HEAD {text:?}"))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(GitError::Io(format!("read MERGE_HEAD: {e}"))),
    }
}

/// Writes `bytes` to `file` via a temp file in the same directory plus a
/// rename, so readers (and crash recovery) never see a partial file.
fn write_atomic(file: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = file.parent().expect("metadata files live in .gitcite/");
    let tmp = dir.join(format!(
        ".tmp-{}-{:x}",
        std::process::id(),
        bytes.as_ptr() as usize
    ));
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, file) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Loads the repository persisted in `dir`, reading the worktree from the
/// real files on disk. HEAD is set, not checked out; its commit and root
/// tree are read so that a store unable to serve them fails here.
///
/// The returned repository stays backed by the on-disk object store (via
/// [`open_store`]): objects are fetched lazily and new commits write
/// through to `.gitcite/objects` immediately.
pub fn load(dir: &Path) -> Result<Repository, GitError> {
    let meta_dir = meta(dir);
    let name = fs::read_to_string(meta_dir.join("name"))
        .map_err(|e| GitError::Io(format!("read name: {e}")))?;
    let store = open_store(dir)?;
    let mut repo = Repository::init_with(name.trim().to_owned(), Box::new(store));

    // Refs.
    let refs_text = fs::read_to_string(meta_dir.join("refs")).unwrap_or_default();
    for line in refs_text.lines() {
        let Some((branch, hex)) = line.split_once(' ') else {
            continue;
        };
        let id = ObjectId::from_hex(hex.trim())
            .ok_or_else(|| GitError::Corrupt(format!("bad ref line {line:?}")))?;
        repo.set_branch(branch, id)?;
    }

    // HEAD, so commit parents line up. No checkout: the worktree comes
    // from the real files below, so HEAD's tree is not materialized.
    let head_text = fs::read_to_string(meta_dir.join("HEAD"))
        .map_err(|e| GitError::Io(format!("read HEAD: {e}")))?;
    let head_text = head_text.trim();
    match head_text.split_once(' ') {
        Some(("branch", b)) => repo.set_head(b)?,
        Some(("unborn", _)) => {}
        Some(("detached", hex)) => {
            let id = ObjectId::from_hex(hex)
                .ok_or_else(|| GitError::Corrupt(format!("bad HEAD {head_text:?}")))?;
            repo.set_head_detached(id)?;
        }
        _ => return Err(GitError::Corrupt(format!("bad HEAD {head_text:?}"))),
    }
    // A store that cannot serve HEAD's commit and root tree fails here,
    // not halfway through a command.
    if let Ok(head) = repo.head_commit() {
        let tree = repo.odb().commit(head)?.tree;
        repo.odb().tree_ref(tree)?;
    }

    // Worktree from the real files (user edits included).
    *repo.worktree_mut() = read_worktree(dir)?;
    Ok(repo)
}

/// Reads the worktree files under `dir`, everything but `.gitcite/`.
fn read_worktree(dir: &Path) -> Result<WorkTree, GitError> {
    let mut files = Vec::new();
    collect_files(dir, &mut files)?;
    let mut wt = WorkTree::new();
    for file in files {
        let rel = file
            .strip_prefix(dir)
            .expect("collected under dir")
            .to_string_lossy()
            .replace('\\', "/");
        let path = RepoPath::parse(&rel)?;
        wt.write(&path, fs::read(&file)?)?;
    }
    Ok(wt)
}

/// Recursively collects files under `dir`, skipping `.gitcite/`. The
/// entry's own file type saves a stat per entry; only symlinks are
/// stat'ed, to follow them.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name() == META_DIR {
            continue;
        }
        let path = entry.path();
        let mut file_type = entry.file_type()?;
        if file_type.is_symlink() {
            // A dangling link is neither file nor directory: skip it.
            match fs::metadata(&path) {
                Ok(target) => file_type = target.file_type(),
                Err(_) => continue,
            }
        }
        if file_type.is_dir() {
            collect_files(&path, out)?;
        } else if file_type.is_file() {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::{path, Signature};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gitcite-storage-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_repo() -> Repository {
        let mut r = Repository::init("disk-test");
        r.worktree_mut()
            .write(&path("a.txt"), &b"alpha\n"[..])
            .unwrap();
        r.worktree_mut()
            .write(&path("src/lib.rs"), &b"pub fn x(){}\n"[..])
            .unwrap();
        r.commit(Signature::new("alice", "a@x", 1), "c1").unwrap();
        r.create_branch("dev").unwrap();
        r.worktree_mut()
            .write(&path("b.txt"), &b"beta\n"[..])
            .unwrap();
        r.commit(Signature::new("alice", "a@x", 2), "c2").unwrap();
        r
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir();
        let repo = sample_repo();
        save(&dir, &repo).unwrap();
        assert!(exists(&dir));
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.name(), repo.name());
        assert_eq!(loaded.head_commit().unwrap(), repo.head_commit().unwrap());
        assert_eq!(
            loaded.branches().collect::<Vec<_>>(),
            repo.branches().collect::<Vec<_>>()
        );
        assert_eq!(loaded.worktree(), repo.worktree());
        assert_eq!(loaded.log_head().unwrap(), repo.log_head().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_repo_is_disk_backed_and_lazy() {
        let dir = temp_dir();
        let repo = sample_repo();
        save(&dir, &repo).unwrap();
        let loaded = load(&dir).unwrap();
        // Every object the memory-backed original held is visible through
        // the disk backend without having been eagerly decoded.
        assert_eq!(loaded.odb().len(), repo.odb().len());
        // A commit made on the loaded repo is durable *before* save:
        // write-through means a fresh DiskStore already sees it.
        let mut loaded = loaded;
        loaded
            .worktree_mut()
            .write(&path("new.txt"), &b"fresh\n"[..])
            .unwrap();
        let c = loaded
            .commit(Signature::new("bob", "b@x", 3), "c3")
            .unwrap();
        let fresh = PackStore::open(objects_dir(&dir)).unwrap();
        assert!(
            fresh.contains(c),
            "new commit object persisted at commit time"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_picks_up_external_edits() {
        let dir = temp_dir();
        let repo = sample_repo();
        save(&dir, &repo).unwrap();
        // Simulate the user editing with a plain editor.
        fs::write(dir.join("a.txt"), b"edited outside\n").unwrap();
        fs::create_dir_all(dir.join("new")).unwrap();
        fs::write(dir.join("new/file.md"), b"# new\n").unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(
            loaded.worktree().read_text(&path("a.txt")).unwrap(),
            "edited outside\n"
        );
        assert!(loaded.worktree().is_file(&path("new/file.md")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_removes_stale_worktree_files() {
        let dir = temp_dir();
        let mut repo = sample_repo();
        save(&dir, &repo).unwrap();
        assert!(dir.join("b.txt").is_file());
        repo.worktree_mut().remove_file(&path("b.txt")).unwrap();
        repo.worktree_mut()
            .remove_file(&path("src/lib.rs"))
            .unwrap();
        save(&dir, &repo).unwrap();
        assert!(!dir.join("b.txt").exists());
        // Emptied directory is pruned.
        assert!(!dir.join("src").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detached_head_round_trips() {
        let dir = temp_dir();
        let mut repo = sample_repo();
        let first = *repo.log_head().unwrap().last().unwrap();
        repo.checkout_commit(first).unwrap();
        save(&dir, &repo).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.head(), &Head::Detached(first));
        assert!(!loaded.worktree().is_file(&path("b.txt")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_fails() {
        let dir = temp_dir();
        assert!(!exists(&dir));
        assert!(load(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
