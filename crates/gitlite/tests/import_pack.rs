//! The import path's two shortcuts hold no surprises:
//!
//! * a tree's entry ids read straight from its body
//!   (`codec::tree_entry_ids`) are exactly what decoding the tree gives,
//!   error for error, on canonical, non-canonical and corrupt bodies;
//! * a store whose history arrived as one set (`put_raw_all`, which a
//!   `PackStore` writes as one pack plus a commit-graph, read in place)
//!   answers every read and walk exactly as the same objects stored
//!   loose, one by one, do.

use gitlite::codec::{decode_object, object_links, tree_entry_ids};
use gitlite::{
    merge_base, Blob, Commit, DiskStore, EntryMode, Object, ObjectId, ObjectStore, PackStore,
    Repository, Signature, Tree, TreeEntry,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "gitlite-import-pack-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tree body from `(mode, name, id)` picks: real and bogus modes,
/// names that repeat, run out of order, are empty or are not UTF-8, and
/// a last id that may be cut short.
fn tree_body(entries: &[(u8, u8, u8)], cut: u8) -> Vec<u8> {
    const MODES: [&[u8]; 4] = [b"100644", b"40000", b"100755", b""];
    const NAMES: [&[u8]; 7] = [b"a", b"b", b"citation.cite", b"src", b"", b"\xff", b"a b"];
    let mut body = Vec::new();
    for &(mode, name, id) in entries {
        // Mostly well-formed: a bogus mode or name one pick in eight.
        let mode = if mode % 8 == 0 {
            MODES[(mode / 8) as usize % 4]
        } else {
            MODES[mode as usize % 2]
        };
        let name = if name % 8 == 0 {
            NAMES[(name / 8) as usize % 7]
        } else {
            NAMES[name as usize % 4]
        };
        body.extend_from_slice(mode);
        body.push(b' ');
        body.extend_from_slice(name);
        body.push(0);
        body.extend_from_slice(&ObjectId::hash_bytes(&[id]).0);
    }
    let cut = cut as usize % 24;
    if cut < 20 {
        body.truncate(body.len().saturating_sub(cut));
    }
    body
}

/// What decoding the tree says its entry ids are.
fn decoded_ids(body: &[u8]) -> gitlite::Result<Vec<ObjectId>> {
    let mut bytes = format!("tree {}\0", body.len()).into_bytes();
    bytes.extend_from_slice(body);
    match decode_object(&bytes)? {
        Object::Tree(t) => Ok(t.iter().map(|(_, e)| e.id).collect()),
        other => panic!("decoded a {}", other.kind()),
    }
}

/// A random history of `n` commits over a few files, with merges and
/// several roots, stored loose; returns the store and its commits.
fn random_history(seed: u64, n: usize, root: &PathBuf) -> (DiskStore, Vec<ObjectId>) {
    let mut state = seed;
    let mut next = |below: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % below as u64) as usize
    };
    let mut store = DiskStore::open(root).unwrap();
    let mut commits: Vec<ObjectId> = Vec::new();
    for i in 0..n {
        let mut dir = Tree::new();
        for f in 0..1 + next(3) {
            let blob = store.put(Object::Blob(Blob::new(
                format!("{f}:{}", next(4)).into_bytes(),
            )));
            dir.insert(
                format!("f{f}.txt"),
                TreeEntry {
                    mode: EntryMode::File,
                    id: blob,
                },
            );
        }
        let dir = store.put(Object::Tree(dir));
        let mut root_tree = Tree::new();
        root_tree.insert(
            "src",
            TreeEntry {
                mode: EntryMode::Dir,
                id: dir,
            },
        );
        let tree = store.put(Object::Tree(root_tree));
        let parents = match (commits.len(), next(8)) {
            (0, _) | (_, 0) => Vec::new(),
            (len, 1) if len > 1 => {
                let a = commits[next(len)];
                let b = commits[next(len)];
                if a == b {
                    vec![a]
                } else {
                    vec![a, b]
                }
            }
            (len, _) => vec![commits[len - 1 - next(len.min(3))]],
        };
        commits.push(store.put(Object::Commit(Commit {
            tree,
            parents,
            author: Signature::new("t", "t@t", (i / 2) as i64),
            message: format!("c{i}"),
        })));
    }
    (store, commits)
}

proptest! {
    #[test]
    fn tree_entry_ids_equal_the_decoded_tree(
        entries in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..12),
        cut in any::<u8>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let body = tree_body(&entries, cut);
        prop_assert_eq!(tree_entry_ids(&body), decoded_ids(&body));
        prop_assert_eq!(tree_entry_ids(&garbage), decoded_ids(&garbage));
        // The same through the whole-object form the raw walk calls.
        let mut bytes = format!("tree {}\0", body.len()).into_bytes();
        bytes.extend_from_slice(&body);
        prop_assert_eq!(object_links(&bytes), decoded_ids(&body));
    }

    #[test]
    fn an_import_pack_answers_as_loose_objects_do(seed in any::<u64>()) {
        let (loose_dir, pack_dir) = (temp_dir("loose"), temp_dir("pack"));
        let n = 2 + (seed % 30) as usize;
        let (loose, commits) = random_history(seed, n, &loose_dir);
        let mut objects: Vec<(ObjectId, Vec<u8>)> =
            loose.ids().into_iter().map(|id| (id, loose.get_raw(id).unwrap())).collect();
        objects.sort();
        let mut packed = PackStore::open(&pack_dir).unwrap();
        let borrowed: Vec<(ObjectId, &[u8])> =
            objects.iter().map(|(id, b)| (*id, &b[..])).collect();
        packed.put_raw_all(&borrowed).unwrap();
        prop_assert_eq!((packed.pack_count(), packed.loose_len()), (1, 0));
        prop_assert!(packed.commit_graph().is_some());
        // Reopened, as the next process would see it.
        let packed = PackStore::open(&pack_dir).unwrap();

        for (id, bytes) in &objects {
            prop_assert_eq!(&packed.get_raw(*id).unwrap(), bytes);
            prop_assert_eq!(packed.get(*id).unwrap(), loose.get(*id).unwrap());
        }
        let tips = [commits[n - 1], commits[n / 2]];
        let walk = |store: &dyn ObjectStore| {
            let mut seen = Vec::new();
            store.walk_raw(&tips, &mut |id, bytes| seen.push((id, bytes))).unwrap();
            seen
        };
        prop_assert_eq!(walk(&packed), walk(&loose));

        let loose_repo = Repository::init_with("p", Box::new(loose));
        let packed_repo = Repository::init_with("p", Box::new(packed));
        for (i, &a) in commits.iter().enumerate() {
            for take in [1, 3, usize::MAX] {
                prop_assert_eq!(
                    packed_repo.log_take(a, take).unwrap(),
                    loose_repo.log_take(a, take).unwrap()
                );
            }
            let b = commits[(i * 7 + 3) % n];
            prop_assert_eq!(
                merge_base(packed_repo.odb(), a, b).unwrap(),
                merge_base(loose_repo.odb(), a, b).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&loose_dir);
        let _ = std::fs::remove_dir_all(&pack_dir);
    }
}
