//! Converting between worktrees and stored tree objects.
//!
//! * [`write_tree`] — snapshot a [`WorkTree`] into the object database,
//!   returning the root tree id (the "version" of paper §2).
//! * [`flatten_tree`] — list every file `(path → blob id)` under a tree.
//! * [`read_tree`] — materialize a stored tree back into a [`WorkTree`].

use crate::error::Result;
use crate::hash::ObjectId;
use crate::object::{EntryMode, Object, Tree, TreeEntry};
use crate::path::RepoPath;
use crate::store::{ObjectStore, ObjectStoreExt};
use crate::worktree::WorkTree;
use std::collections::BTreeMap;

/// Snapshots the worktree into `odb`, creating blob and tree objects
/// bottom-up, and returns the root tree id.
pub fn write_tree<S: ObjectStore + ?Sized>(odb: &mut S, worktree: &WorkTree) -> ObjectId {
    let mut listing = BTreeMap::new();
    for (path, data) in worktree.iter() {
        listing.insert(path.clone(), odb.put_blob(data.clone()));
    }
    write_tree_from_listing(odb, &listing)
}

/// Builds tree objects from a flattened `path → blob id` listing (the blobs
/// must already exist in `odb`) and returns the root tree id. This is the
/// inverse of [`flatten_tree`]. Where a path names both a file and a
/// directory, the directory wins.
pub fn write_tree_from_listing<S: ObjectStore + ?Sized>(
    odb: &mut S,
    listing: &BTreeMap<RepoPath, ObjectId>,
) -> ObjectId {
    let files = listing.iter().map(|(p, id)| (p.components(), *id));
    write_level(odb, &files.collect::<Vec<_>>())
}

/// One directory of [`write_tree_from_listing`]: `files` holds the paths
/// below it, in order, so each subdirectory's paths run together.
fn write_level<S: ObjectStore + ?Sized>(
    odb: &mut S,
    mut files: &[(&[String], ObjectId)],
) -> ObjectId {
    let mut tree = Tree::new();
    while let Some(&(path, id)) = files.first() {
        let (name, inner) = path.split_first().expect("files are never the root");
        let (mode, id, n) = if inner.is_empty() {
            (EntryMode::File, id, 1)
        } else {
            let n = files
                .iter()
                .take_while(|(p, _)| p[0] == *name && p.len() > 1)
                .count();
            let below: Vec<_> = files[..n].iter().map(|(p, id)| (&p[1..], *id)).collect();
            (EntryMode::Dir, write_level(odb, &below), n)
        };
        tree.insert(name.clone(), TreeEntry { mode, id });
        files = &files[n..];
    }
    odb.put(Object::Tree(tree))
}

/// Flattens a stored tree into `path → blob id` for every file beneath it.
/// Trees are read in place (`tree_ref`), never cloned — this runs on
/// every snapshot listing, so per-visit clones would dominate wide trees.
pub fn flatten_tree<S: ObjectStore + ?Sized>(
    odb: &S,
    root: ObjectId,
) -> Result<BTreeMap<RepoPath, ObjectId>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![(RepoPath::root(), root)];
    while let Some((base, tree_id)) = stack.pop() {
        let obj = odb.tree_ref(tree_id)?;
        let tree = obj.as_tree().expect("checked kind");
        for (name, entry) in tree.iter() {
            let p = base.child(name);
            match entry.mode {
                EntryMode::File => {
                    out.insert(p, entry.id);
                }
                EntryMode::Dir => stack.push((p, entry.id)),
            }
        }
    }
    Ok(out)
}

/// Lists every directory path beneath a stored tree (excluding the root).
pub fn tree_directories<S: ObjectStore + ?Sized>(odb: &S, root: ObjectId) -> Result<Vec<RepoPath>> {
    let mut out = Vec::new();
    let mut stack = vec![(RepoPath::root(), root)];
    while let Some((base, tree_id)) = stack.pop() {
        let obj = odb.tree_ref(tree_id)?;
        let tree = obj.as_tree().expect("checked kind");
        for (name, entry) in tree.iter() {
            if entry.mode == EntryMode::Dir {
                let p = base.child(name);
                out.push(p.clone());
                stack.push((p, entry.id));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Materializes a stored tree into a fresh worktree (checkout).
pub fn read_tree<S: ObjectStore + ?Sized>(odb: &S, root: ObjectId) -> Result<WorkTree> {
    let mut wt = WorkTree::new();
    for (path, blob_id) in flatten_tree(odb, root)? {
        let data = odb.blob_data(blob_id)?;
        wt.write(&path, data)?;
    }
    Ok(wt)
}

/// Resolves the entry at `path` within a stored tree: `Some((mode, id))`
/// when a file or directory exists there, `None` otherwise. The root
/// resolves to the tree itself.
pub fn resolve_path<S: ObjectStore + ?Sized>(
    odb: &S,
    root: ObjectId,
    path: &RepoPath,
) -> Result<Option<(EntryMode, ObjectId)>> {
    if path.is_root() {
        return Ok(Some((EntryMode::Dir, root)));
    }
    let root = odb.tree_ref(root)?;
    resolve_in(
        odb,
        root.as_tree().expect("checked kind"),
        path.components(),
    )
}

/// [`resolve_path`] below a tree in hand, which need not be stored: the
/// entry at the path `components` (at least one) under `tree`.
pub fn resolve_in<S: ObjectStore + ?Sized>(
    odb: &S,
    tree: &Tree,
    components: &[String],
) -> Result<Option<(EntryMode, ObjectId)>> {
    let (name, rest) = components.split_first().expect("a path below the tree");
    match tree.get(name) {
        Some(entry) if rest.is_empty() => Ok(Some((entry.mode, entry.id))),
        Some(entry) if entry.mode == EntryMode::Dir => {
            let subtree = odb.tree_ref(entry.id)?;
            resolve_in(odb, subtree.as_tree().expect("checked kind"), rest)
        }
        _ => Ok(None), // missing, or a file in the middle of the path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::path;
    use crate::store::Odb;

    fn sample() -> (Odb, WorkTree) {
        let mut wt = WorkTree::new();
        wt.write(&path("README.md"), &b"# p"[..]).unwrap();
        wt.write(&path("src/main.rs"), &b"fn main(){}"[..]).unwrap();
        wt.write(&path("src/util/mod.rs"), &b"pub fn u(){}"[..])
            .unwrap();
        (Odb::new(), wt)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut odb, wt) = sample();
        let root = write_tree(&mut odb, &wt);
        let restored = read_tree(&odb, root).unwrap();
        assert_eq!(restored, wt);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let (mut odb1, wt) = sample();
        let mut odb2 = Odb::new();
        assert_eq!(write_tree(&mut odb1, &wt), write_tree(&mut odb2, &wt));
    }

    #[test]
    fn empty_worktree_gives_empty_tree() {
        let mut odb = Odb::new();
        let root = write_tree(&mut odb, &WorkTree::new());
        assert_eq!(root, Tree::new().id());
        assert!(flatten_tree(&odb, root).unwrap().is_empty());
    }

    #[test]
    fn flatten_lists_all_files() {
        let (mut odb, wt) = sample();
        let root = write_tree(&mut odb, &wt);
        let flat = flatten_tree(&odb, root).unwrap();
        let paths: Vec<String> = flat.keys().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["README.md", "src/main.rs", "src/util/mod.rs"]);
    }

    #[test]
    fn directories_listed() {
        let (mut odb, wt) = sample();
        let root = write_tree(&mut odb, &wt);
        let dirs = tree_directories(&odb, root).unwrap();
        assert_eq!(dirs, vec![path("src"), path("src/util")]);
    }

    #[test]
    fn resolve_paths() {
        let (mut odb, wt) = sample();
        let root = write_tree(&mut odb, &wt);
        let (mode, _) = resolve_path(&odb, root, &path("src")).unwrap().unwrap();
        assert_eq!(mode, EntryMode::Dir);
        let (mode, blob) = resolve_path(&odb, root, &path("src/main.rs"))
            .unwrap()
            .unwrap();
        assert_eq!(mode, EntryMode::File);
        assert_eq!(odb.blob_data(blob).unwrap().as_ref(), b"fn main(){}");
        assert!(resolve_path(&odb, root, &path("missing"))
            .unwrap()
            .is_none());
        assert!(resolve_path(&odb, root, &path("README.md/below"))
            .unwrap()
            .is_none());
        let (mode, id) = resolve_path(&odb, root, &RepoPath::root())
            .unwrap()
            .unwrap();
        assert_eq!(mode, EntryMode::Dir);
        assert_eq!(id, root);
    }

    #[test]
    fn identical_subtrees_share_objects() {
        let mut odb = Odb::new();
        let mut wt = WorkTree::new();
        wt.write(&path("a/f.txt"), &b"same"[..]).unwrap();
        wt.write(&path("b/f.txt"), &b"same"[..]).unwrap();
        let root = write_tree(&mut odb, &wt);
        // Objects: root tree, one shared subtree, one shared blob.
        assert_eq!(odb.len(), 3);
        let flat = flatten_tree(&odb, root).unwrap();
        assert_eq!(flat[&path("a/f.txt")], flat[&path("b/f.txt")]);
    }
}
