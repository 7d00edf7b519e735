//! The in-memory working tree: the mutable file set a user edits between
//! commits.
//!
//! GitCite's local tool manipulates a checked-out copy of a project
//! (paper §3, "local executable tool"). `WorkTree` models that copy: a map
//! from [`RepoPath`] to file bytes, with directory-aware operations
//! (`remove_dir`, `rename`) because citation keys may name directories.

use crate::error::{GitError, Result};
use crate::path::RepoPath;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A flat, ordered map of file paths to contents.
///
/// Directories exist implicitly: a directory is "present" iff some file
/// lives beneath it. That mirrors Git, which does not track empty
/// directories — and matches the paper's model where citations attach to
/// nodes of the version tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkTree {
    files: BTreeMap<RepoPath, Bytes>,
}

impl WorkTree {
    /// Creates an empty worktree.
    pub fn new() -> Self {
        WorkTree {
            files: BTreeMap::new(),
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when there are no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Writes (creates or replaces) a file.
    ///
    /// Fails when `path` is the root or collides with an existing
    /// file/directory of the other kind (a file where a directory exists or
    /// vice versa).
    pub fn write(&mut self, path: &RepoPath, data: impl Into<Bytes>) -> Result<()> {
        if path.is_root() {
            return Err(GitError::NotAFile(path.clone()));
        }
        // A file cannot shadow an existing directory...
        if self.is_dir(path) {
            return Err(GitError::NotAFile(path.clone()));
        }
        // ...and no ancestor of the file may be an existing file.
        for anc in path.ancestors() {
            if anc.is_root() {
                break;
            }
            if self.files.contains_key(&anc) {
                return Err(GitError::NotAFile(anc));
            }
        }
        self.files.insert(path.clone(), data.into());
        Ok(())
    }

    /// Reads a file's bytes.
    pub fn read(&self, path: &RepoPath) -> Result<&Bytes> {
        self.files
            .get(path)
            .ok_or_else(|| GitError::FileNotFound(path.clone()))
    }

    /// Reads a file as UTF-8 text (lossy).
    pub fn read_text(&self, path: &RepoPath) -> Result<String> {
        Ok(String::from_utf8_lossy(self.read(path)?).into_owned())
    }

    /// True when a file exists at `path`.
    pub fn is_file(&self, path: &RepoPath) -> bool {
        self.files.contains_key(path)
    }

    /// True when `path` is a directory, i.e. some file lives strictly below
    /// it and `path` itself is not a file. The root is a directory iff the
    /// tree is non-empty.
    ///
    /// One ordered probe: [`RepoPath`] orders component-wise, so the files
    /// under `path` sort directly after `path` itself, and the first key at
    /// or after `path` decides.
    pub fn is_dir(&self, path: &RepoPath) -> bool {
        if path.is_root() {
            return !self.files.is_empty();
        }
        self.files
            .range((Bound::Included(path), Bound::Unbounded))
            .next()
            .is_some_and(|(first, _)| first != path && first.starts_with(path))
    }

    /// True when `path` names an existing file or directory (or the root).
    pub fn exists(&self, path: &RepoPath) -> bool {
        path.is_root() || self.is_file(path) || self.is_dir(path)
    }

    /// Deletes a file. Errors when the path is not a file.
    pub fn remove_file(&mut self, path: &RepoPath) -> Result<Bytes> {
        self.files
            .remove(path)
            .ok_or_else(|| GitError::FileNotFound(path.clone()))
    }

    /// Deletes a directory subtree, returning how many files were removed.
    /// Errors when nothing exists beneath `path`.
    pub fn remove_dir(&mut self, path: &RepoPath) -> Result<usize> {
        let doomed: Vec<RepoPath> = self
            .files
            .keys()
            .filter(|p| p.starts_with(path))
            .cloned()
            .collect();
        if doomed.is_empty() {
            return Err(GitError::FileNotFound(path.clone()));
        }
        for p in &doomed {
            self.files.remove(p);
        }
        Ok(doomed.len())
    }

    /// Removes a file or an entire directory subtree, whichever `path` is.
    pub fn remove(&mut self, path: &RepoPath) -> Result<usize> {
        if self.is_file(path) {
            self.remove_file(path)?;
            Ok(1)
        } else {
            self.remove_dir(path)
        }
    }

    /// Renames/moves a file or directory subtree from `from` to `to`.
    /// Returns the individual file moves performed (old → new), which the
    /// citation layer uses to rewrite citation keys (paper §2: "if a file
    /// or directory in the active domain ... is moved or renamed then the
    /// citation function must be modified").
    pub fn rename(&mut self, from: &RepoPath, to: &RepoPath) -> Result<Vec<(RepoPath, RepoPath)>> {
        if from.is_root() {
            return Err(GitError::NotAFile(from.clone()));
        }
        if self.exists(to) {
            return Err(GitError::NotAFile(to.clone()));
        }
        if to.starts_with(from) {
            // Moving a directory inside itself.
            return Err(GitError::NotAFile(to.clone()));
        }
        if self.is_file(from) {
            let data = self.remove_file(from)?;
            self.write(to, data)?;
            return Ok(vec![(from.clone(), to.clone())]);
        }
        let movers: Vec<RepoPath> = self
            .files
            .keys()
            .filter(|p| p.starts_with(from))
            .cloned()
            .collect();
        if movers.is_empty() {
            return Err(GitError::FileNotFound(from.clone()));
        }
        let mut moves = Vec::with_capacity(movers.len());
        for old in movers {
            let new = old.rebase(from, to).expect("starts_with checked");
            let data = self.files.remove(&old).expect("present");
            self.files.insert(new.clone(), data);
            moves.push((old, new));
        }
        Ok(moves)
    }

    /// Iterates `(path, contents)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&RepoPath, &Bytes)> {
        self.files.iter()
    }

    /// Iterates paths in order.
    pub fn paths(&self) -> impl Iterator<Item = &RepoPath> {
        self.files.keys()
    }

    /// All file paths under `prefix` (including `prefix` itself if a file).
    pub fn files_under(&self, prefix: &RepoPath) -> Vec<RepoPath> {
        self.files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// The set of directories implied by the current files (excluding root).
    pub fn directories(&self) -> Vec<RepoPath> {
        let mut dirs = std::collections::BTreeSet::new();
        for p in self.files.keys() {
            for anc in p.ancestors() {
                if !anc.is_root() {
                    dirs.insert(anc);
                }
            }
        }
        dirs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::path;

    fn wt(files: &[(&str, &str)]) -> WorkTree {
        let mut w = WorkTree::new();
        for (p, c) in files {
            w.write(&path(p), c.as_bytes().to_vec()).unwrap();
        }
        w
    }

    #[test]
    fn write_read_remove() {
        let mut w = WorkTree::new();
        w.write(&path("a/b.txt"), &b"hi"[..]).unwrap();
        assert_eq!(w.read(&path("a/b.txt")).unwrap().as_ref(), b"hi");
        assert_eq!(w.read_text(&path("a/b.txt")).unwrap(), "hi");
        w.remove_file(&path("a/b.txt")).unwrap();
        assert!(w.is_empty());
        assert!(matches!(
            w.read(&path("a/b.txt")),
            Err(GitError::FileNotFound(_))
        ));
    }

    #[test]
    fn file_dir_collisions_rejected() {
        let mut w = wt(&[("a/b/c.txt", "x")]);
        // "a/b" is a directory; can't write a file there.
        assert!(w.write(&path("a/b"), &b"y"[..]).is_err());
        // "a/b/c.txt" is a file; can't create files beneath it.
        assert!(w.write(&path("a/b/c.txt/d"), &b"y"[..]).is_err());
        // Root is not writable.
        assert!(w.write(&RepoPath::root(), &b"y"[..]).is_err());
    }

    use crate::path::RepoPath;

    #[test]
    fn dir_semantics() {
        let w = wt(&[("src/main.rs", "fn main(){}"), ("README.md", "# hi")]);
        assert!(w.is_dir(&path("src")));
        assert!(!w.is_dir(&path("README.md")));
        assert!(w.is_file(&path("README.md")));
        assert!(w.exists(&path("src")));
        assert!(w.exists(&RepoPath::root()));
        assert!(!w.exists(&path("nope")));
        assert_eq!(w.directories(), vec![path("src")]);
    }

    #[test]
    fn remove_dir_subtree() {
        let mut w = wt(&[("d/a.txt", "1"), ("d/sub/b.txt", "2"), ("keep.txt", "3")]);
        assert_eq!(w.remove_dir(&path("d")).unwrap(), 2);
        assert_eq!(w.len(), 1);
        assert!(w.is_file(&path("keep.txt")));
        assert!(w.remove_dir(&path("d")).is_err());
    }

    #[test]
    fn remove_either() {
        let mut w = wt(&[("d/a.txt", "1"), ("f.txt", "2")]);
        assert_eq!(w.remove(&path("f.txt")).unwrap(), 1);
        assert_eq!(w.remove(&path("d")).unwrap(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn rename_file() {
        let mut w = wt(&[("old.txt", "data")]);
        let moves = w.rename(&path("old.txt"), &path("new/name.txt")).unwrap();
        assert_eq!(moves, vec![(path("old.txt"), path("new/name.txt"))]);
        assert_eq!(w.read_text(&path("new/name.txt")).unwrap(), "data");
        assert!(!w.is_file(&path("old.txt")));
    }

    #[test]
    fn rename_directory_subtree() {
        let mut w = wt(&[
            ("gui/a.js", "1"),
            ("gui/css/b.css", "2"),
            ("other.txt", "3"),
        ]);
        let mut moves = w.rename(&path("gui"), &path("citation/GUI")).unwrap();
        moves.sort();
        assert_eq!(
            moves,
            vec![
                (path("gui/a.js"), path("citation/GUI/a.js")),
                (path("gui/css/b.css"), path("citation/GUI/css/b.css")),
            ]
        );
        assert!(w.is_dir(&path("citation/GUI")));
        assert!(!w.exists(&path("gui")));
    }

    #[test]
    fn rename_rejects_bad_targets() {
        let mut w = wt(&[("a/f.txt", "1"), ("b.txt", "2")]);
        // Destination exists.
        assert!(w.rename(&path("a/f.txt"), &path("b.txt")).is_err());
        // Source missing.
        assert!(w.rename(&path("zzz"), &path("q")).is_err());
        // Directory into itself.
        assert!(w.rename(&path("a"), &path("a/inner")).is_err());
        // Root cannot be moved.
        assert!(w.rename(&RepoPath::root(), &path("q")).is_err());
    }

    #[test]
    fn files_under_prefix() {
        let w = wt(&[("d/a.txt", "1"), ("d/sub/b.txt", "2"), ("e.txt", "3")]);
        let mut files = w.files_under(&path("d"));
        files.sort();
        assert_eq!(files, vec![path("d/a.txt"), path("d/sub/b.txt")]);
        assert_eq!(w.files_under(&RepoPath::root()).len(), 3);
    }
}
