//! Clones and gc read each reachable object once, as its stored bytes
//! (`ObjectStore::walk_raw`). Over a `CachedStore<PackStore>` that mixes
//! deltified packed objects with loose ones and a partly warm cache, a
//! clone's bundle is the decode-and-re-encode walk it replaced, object for
//! object and in order, and gc keeps the same id set. A corrupt loose
//! file or pack record fails a clone instead of being shipped, and a
//! clone leaves the hub's object cache as it found it.

use gitlite::{
    path, Blob, CachedStore, Object, ObjectId, ObjectStore, PackIndex, PackStore, Repository,
    Signature, PACK_DIR,
};
use hub::api::{ApiRequest, ApiResponse, ErrorCode};
use hub::{Hub, RepoBundle};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("hub-raw-closure-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The walk bundles took before raw reads: decode every object to find
/// its edges, then re-encode it.
fn decoded_closure(store: &dyn ObjectStore, roots: &[ObjectId]) -> Vec<(ObjectId, Vec<u8>)> {
    let mut seen = HashSet::new();
    let mut stack = roots.to_vec();
    let mut out = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let obj = store.get(id).unwrap();
        match &*obj {
            Object::Blob(_) => {}
            Object::Tree(t) => stack.extend(t.iter().map(|(_, e)| e.id)),
            Object::Commit(c) => {
                stack.push(c.tree);
                stack.extend_from_slice(&c.parents);
            }
        }
        out.push((id, obj.canonical_bytes()));
    }
    out
}

fn tips(repo: &Repository) -> Vec<ObjectId> {
    repo.branches().map(|(_, tip)| tip).collect()
}

fn packs(repo: &Repository) -> &PackStore {
    repo.odb()
        .as_any()
        .downcast_ref::<CachedStore<PackStore>>()
        .expect("a cached pack store")
        .inner()
}

/// A file body that deltifies well against its other versions: a fixed
/// 60-line text with one line rewritten per version.
fn body(version: usize, line: usize) -> Vec<u8> {
    let mut text = String::new();
    for i in 0..60 {
        if i == line % 60 {
            text.push_str(&format!("let edited_{version} = {line};\n"));
        } else {
            text.push_str(&format!("let line_{i} = \"stable text of line {i}\";\n"));
        }
    }
    text.into_bytes()
}

/// `commits` seeded commits on a `CachedStore<PackStore>` with a 24-object
/// cache, across `main` and `dev` and four paths in three directories. After
/// commit `gc_at` a dangling blob is written and the store is gc'd, which
/// must pack exactly the decoded closure of the branch tips; the later
/// commits land loose on top of the pack.
fn history(dir: &PathBuf, seed: u64, commits: usize, gc_at: usize) -> Repository {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) as usize
    };
    let store = CachedStore::with_capacity(PackStore::open(dir).unwrap(), 24);
    let mut repo = Repository::init_with("p", Box::new(store));
    let paths = [
        "README.md",
        "src/lib.rs",
        "src/deep/mod.rs",
        "docs/notes.txt",
    ];
    for i in 0..commits {
        if i > 0 && next() % 5 == 0 {
            let other = if repo.current_branch() == Some("main") {
                "dev"
            } else {
                "main"
            };
            if !repo.has_branch(other) {
                repo.create_branch(other).unwrap();
            }
            repo.checkout_branch(other).unwrap();
        }
        for _ in 0..(1 + next() % 2) {
            let file = path(paths[next() % paths.len()]);
            repo.worktree_mut().write(&file, body(i, next())).unwrap();
        }
        repo.commit(
            Signature::new("ann", "ann@x", 100 + i as i64),
            format!("c{i}"),
        )
        .unwrap();
        if i == gc_at {
            repo.odb_mut().put(Object::Blob(Blob::new(
                format!("dangling {seed}").into_bytes(),
            )));
            let roots = tips(&repo);
            let kept: HashSet<ObjectId> = decoded_closure(repo.odb(), &roots)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let report = repo.odb_mut().maintain(&roots).unwrap().unwrap();
            assert_eq!(report.packed, kept.len());
            assert_eq!(report.dropped, 1, "only the dangling blob goes");
            let packed: HashSet<ObjectId> = repo.odb().ids().into_iter().collect();
            assert_eq!(packed, kept, "gc packs the closure of the tips");
        }
    }
    repo
}

proptest! {
    /// Whatever mix of packed, deltified, loose and cached objects a store
    /// holds, the raw walk's bundle is the decoded walk's, in order.
    #[test]
    fn raw_bundles_equal_the_decoded_walk_across_gc(seed in any::<u64>()) {
        let commits = 3 + (seed % 10) as usize;
        let gc_at = (seed / 16) as usize % (commits - 1);
        let dir = temp_dir("prop");
        let repo = history(&dir, seed, commits, gc_at);
        prop_assert!(packs(&repo).packed_len() > 0);
        prop_assert!(packs(&repo).loose_len() > 0);

        let bundle = RepoBundle::from_repository(&repo).unwrap();
        prop_assert_eq!(&bundle.objects, &decoded_closure(repo.odb(), &tips(&repo)));
        let branch = repo.current_branch().unwrap().to_owned();
        let one = RepoBundle::from_branch(&repo, &branch).unwrap();
        let tip = repo.branch_tip(&branch).unwrap();
        prop_assert_eq!(&one.objects, &decoded_closure(repo.odb(), &[tip]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The generator above does reach deltified records: without them the
/// property would never read a delta through `Pack::raw`.
#[test]
fn the_generated_histories_pack_deltas() {
    let dir = temp_dir("deltas");
    let repo = history(&dir, 7, 12, 9);
    assert!(packs(&repo).delta_objects() > 0);
    assert!(packs(&repo).loose_len() > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A pack-storage hub hosting a small project under `<dir>/repo-0`: its
/// first three commits imported, which writes them as one pack, and its
/// fourth pushed, which lands that commit's new objects loose. With
/// `cached`, the hub is `Hub::with_pack_storage`, whose object cache
/// keeps what the push walked; without, every read reaches the disk.
fn imported(dir: &Path, cached: bool) -> (Hub, String, Repository) {
    let hub = if cached {
        Hub::with_pack_storage("https://hub.example", dir).unwrap()
    } else {
        let root = dir.join("repo-0");
        Hub::with_store_factory(
            "https://hub.example",
            Box::new(move || Box::new(PackStore::open(&root).unwrap())),
        )
    };
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    let mut local = Repository::init("p");
    let mut repo_id = String::new();
    for i in 0..4 {
        local
            .worktree_mut()
            .write(&path(&format!("src/f{i}.txt")), body(i, i))
            .unwrap();
        local
            .commit(
                Signature::new("ann", "ann@x", 10 + i as i64),
                format!("v{i}"),
            )
            .unwrap();
        if i == 2 {
            repo_id = hub.import_repo(&token, "p", local.clone()).unwrap();
        }
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    (hub, repo_id, local)
}

/// The id of `src/<name>` at `local`'s HEAD.
fn src_blob(local: &Repository, name: &str) -> ObjectId {
    let head = local.head_commit().unwrap();
    local.blob_at(head, &path(&format!("src/{name}"))).unwrap()
}

#[test]
fn a_flipped_byte_in_a_loose_object_fails_the_clone() {
    let dir = temp_dir("corrupt");
    let (hub, repo_id, local) = imported(&dir, false);
    // Added by the pushed commit, so stored loose.
    let blob = src_blob(&local, "f3.txt");
    let hex = blob.to_hex();
    let file = dir.join("repo-0").join(&hex[..2]).join(&hex[2..]);
    let mut bytes = std::fs::read(&file).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&file, bytes).unwrap();

    let err = hub.clone_repo(&repo_id).unwrap_err().to_string();
    assert!(
        err.contains(&format!(
            "object file {} holds bytes hashing to",
            blob.short()
        )),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flipped_byte_in_an_import_pack_record_fails_the_clone() {
    let dir = temp_dir("corrupt-pack");
    let (hub, repo_id, local) = imported(&dir, false);
    // Imported, so stored as a record of the import's pack.
    let blob = src_blob(&local, "f0.txt");
    let pack_dir = dir.join("repo-0").join(PACK_DIR);
    let file = |ext: &str| {
        std::fs::read_dir(&pack_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == ext))
            .unwrap()
    };
    let index = PackIndex::parse(&std::fs::read(file("idx")).unwrap()).unwrap();
    let off = index.offset_of(blob).expect("the import packed it") as usize;
    let pack = file("pack");
    let mut bytes = std::fs::read(&pack).unwrap();
    let len = u32::from_be_bytes(bytes[off + 20..off + 24].try_into().unwrap()) as usize;
    bytes[off + 24 + len - 1] ^= 0x01;
    std::fs::write(&pack, bytes).unwrap();

    let request = ApiRequest::CloneRepo {
        repo_id: repo_id.clone(),
    };
    let err = match hub.dispatch(request) {
        ApiResponse::Error(err) => err,
        other => panic!("the clone must fail, got {other:?}"),
    };
    assert_eq!(err.code, ErrorCode::CorruptObject);
    let detail = err.detail.unwrap_or_default();
    assert!(detail.contains(&blob.short()), "{detail}");
    let err = hub.clone_repo(&repo_id).unwrap_err().to_string();
    assert!(
        err.contains(&format!(
            "packed object {} holds bytes hashing to",
            blob.short()
        )),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_clone_leaves_the_object_cache_as_it_found_it() {
    let dir = temp_dir("cache");
    let (hub, repo_id, local) = imported(&dir, true);
    // Warm the cache with the reads a popup makes.
    hub.log(&repo_id, "main").unwrap();
    hub.list_files(&repo_id, "main").unwrap();
    let before = hub.store_stats(&repo_id).unwrap().cache.unwrap();
    assert!(before.len > 0);

    let clone = hub.clone_repo(&repo_id).unwrap();
    assert_eq!(clone.head_commit().unwrap(), local.head_commit().unwrap());
    let after = hub.store_stats(&repo_id).unwrap().cache.unwrap();
    assert_eq!((after.len, after.evictions), (before.len, before.evictions));
    std::fs::remove_dir_all(&dir).unwrap();
}
