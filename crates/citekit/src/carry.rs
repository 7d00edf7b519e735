//! Carrying citations through tree edits (paper §2): when files or
//! directories in the active domain are moved or renamed, their citation
//! keys are rewritten; when they are deleted, their citations are dropped.
//!
//! [`reconcile`] runs at commit time. It diffs the previous version's tree
//! against the worktree (with rename detection, including inferred
//! directory renames) and updates the citation function accordingly, so
//! the function stays consistent even when files were moved by hand rather
//! than through [`crate::ops::CitedRepo::rename`].

use crate::error::Result;
use crate::file::citation_path;
use crate::function::CitationFunction;
use gitlite::{diff_listings, Blob, ObjectId, ObjectStore, RepoPath, WorkTree};
use std::collections::BTreeMap;

/// What [`reconcile`] changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CarryReport {
    /// File-level key rewrites applied (`from → to`).
    pub renamed: Vec<(RepoPath, RepoPath)>,
    /// Directory-level key rewrites applied (`from → to`).
    pub dir_renamed: Vec<(RepoPath, RepoPath)>,
    /// Citation entries dropped because their paths left the tree.
    pub pruned: Vec<RepoPath>,
}

impl CarryReport {
    /// True when nothing had to change.
    pub fn is_empty(&self) -> bool {
        self.renamed.is_empty() && self.dir_renamed.is_empty() && self.pruned.is_empty()
    }
}

/// Computes the `path → blob id` listing of a worktree, storing blobs into
/// `odb` (they are needed both for rename similarity scoring and by the
/// commit that follows). The citation file itself is excluded — its keys
/// are what we are maintaining.
pub fn worktree_listing<S: ObjectStore + ?Sized>(
    odb: &mut S,
    wt: &WorkTree,
) -> BTreeMap<RepoPath, ObjectId> {
    let cite = citation_path();
    let mut listing = BTreeMap::new();
    for (path, data) in wt.iter() {
        if *path == cite {
            continue;
        }
        listing.insert(
            path.clone(),
            odb.put(gitlite::Object::Blob(Blob::new(data.clone()))),
        );
    }
    listing
}

/// Reconciles `func` with the edits between `old_listing` (the previous
/// version, without its citation file) and the current worktree.
pub fn reconcile<S: ObjectStore + ?Sized>(
    func: &mut CitationFunction,
    old_listing: &BTreeMap<RepoPath, ObjectId>,
    wt: &WorkTree,
    odb: &mut S,
) -> CarryReport {
    reconcile_listing(func, old_listing, &worktree_listing(odb, wt), wt, odb)
}

/// [`reconcile`] given the worktree's listing, whose blobs are stored.
pub(crate) fn reconcile_listing<S: ObjectStore + ?Sized>(
    func: &mut CitationFunction,
    old_listing: &BTreeMap<RepoPath, ObjectId>,
    new_listing: &BTreeMap<RepoPath, ObjectId>,
    wt: &WorkTree,
    odb: &S,
) -> CarryReport {
    let diff = diff_listings(old_listing, new_listing, odb, true);

    let mut report = CarryReport::default();

    // 1. Directory renames first: they move whole key subtrees, including
    //    keys of files the per-file pass would also move (rekeying is
    //    idempotent, but doing directories first attributes moves to the
    //    directory in the report).
    for (from, to) in diff.directory_renames(new_listing) {
        if func.paths().any(|p| p.starts_with(&from)) {
            func.rebase_subtree(&from, &to);
            report.dir_renamed.push((from, to));
        }
    }

    // 2. File renames.
    for r in &diff.renames {
        if func.contains(&r.from) {
            func.rekey(&r.from, &r.to);
            report.renamed.push((r.from.clone(), r.to.clone()));
        }
    }

    // 3. Prune citations whose nodes no longer exist, and normalize the
    //    is_dir flag to the worktree's reality.
    report.pruned = fit_to_tree(func, worktree_node(wt)).expect("worktree lookups cannot fail");
    report
}

/// Drops the non-root entries whose nodes `node` does not find and sets
/// each other entry's `is_dir` flag to its node's kind: the last step of
/// [`reconcile`], and all of it when the tree did not change. `node` is
/// `None` for a missing path, otherwise whether it is a directory.
/// Returns the dropped paths in path order.
pub(crate) fn fit_to_tree(
    func: &mut CitationFunction,
    mut node: impl FnMut(&RepoPath) -> Result<Option<bool>>,
) -> Result<Vec<RepoPath>> {
    let mut pruned = Vec::new();
    let mut flags = Vec::new();
    for (p, e) in func.iter().filter(|(p, _)| !p.is_root()) {
        match node(p)? {
            None => pruned.push(p.clone()),
            Some(is_dir) if is_dir != e.is_dir => flags.push((p.clone(), is_dir)),
            Some(_) => {}
        }
    }
    for p in &pruned {
        func.remove(p)?;
    }
    for (p, is_dir) in flags {
        let citation = func.get(&p).cloned().expect("kept entry");
        func.set(p, citation, is_dir);
    }
    Ok(pruned)
}

/// The `node` lookup of [`fit_to_tree`] and [`crate::CiteOp::apply`]
/// over a worktree.
pub(crate) fn worktree_node(wt: &WorkTree) -> impl Fn(&RepoPath) -> Result<Option<bool>> + '_ {
    |p| Ok(wt.exists(p).then(|| wt.is_dir(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citation::Citation;
    use gitlite::path;
    use gitlite::Odb;

    fn cite(name: &str) -> Citation {
        Citation::builder(name, "o").build()
    }

    fn setup() -> (
        Odb,
        WorkTree,
        CitationFunction,
        BTreeMap<RepoPath, ObjectId>,
    ) {
        let mut odb = Odb::new();
        let mut wt = WorkTree::new();
        wt.write(&path("keep.txt"), &b"keep\n"[..]).unwrap();
        wt.write(
            &path("old/name.rs"),
            &b"some unique content\nwith lines\n"[..],
        )
        .unwrap();
        wt.write(&path("gui/app.js"), &b"app\n"[..]).unwrap();
        wt.write(&path("gui/css/style.css"), &b"style\n"[..])
            .unwrap();
        let mut func = CitationFunction::new(cite("root"));
        func.set(path("old/name.rs"), cite("file-cite"), false);
        func.set(path("gui"), cite("gui-cite"), true);
        let old_listing = worktree_listing(&mut odb, &wt);
        (odb, wt, func, old_listing)
    }

    #[test]
    fn no_changes_no_report() {
        let (mut odb, wt, mut func, old) = setup();
        let before = func.clone();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        assert!(report.is_empty());
        assert_eq!(func, before);
    }

    #[test]
    fn file_rename_carries_citation() {
        let (mut odb, mut wt, mut func, old) = setup();
        wt.rename(&path("old/name.rs"), &path("new/renamed.rs"))
            .unwrap();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        assert_eq!(
            report.renamed,
            vec![(path("old/name.rs"), path("new/renamed.rs"))]
        );
        assert!(func.contains(&path("new/renamed.rs")));
        assert!(!func.contains(&path("old/name.rs")));
        assert_eq!(
            func.get(&path("new/renamed.rs")).unwrap().repo_name,
            "file-cite"
        );
    }

    #[test]
    fn edited_then_moved_file_still_carries() {
        let (mut odb, mut wt, mut func, old) = setup();
        // Move and lightly edit: similarity rename.
        wt.remove_file(&path("old/name.rs")).unwrap();
        wt.write(
            &path("moved/name.rs"),
            &b"some unique content\nwith lines\nplus one\n"[..],
        )
        .unwrap();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        // Carried either as a file rename or via the inferred directory
        // rename old/ → moved/ (both are correct carryings).
        assert_eq!(report.renamed.len() + report.dir_renamed.len(), 1);
        assert!(func.contains(&path("moved/name.rs")));
        assert!(!func.contains(&path("old/name.rs")));
    }

    #[test]
    fn directory_rename_carries_subtree() {
        let (mut odb, mut wt, mut func, old) = setup();
        wt.rename(&path("gui"), &path("citation/GUI")).unwrap();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        assert_eq!(
            report.dir_renamed,
            vec![(path("gui"), path("citation/GUI"))]
        );
        assert!(func.contains(&path("citation/GUI")));
        assert_eq!(
            func.get(&path("citation/GUI")).unwrap().repo_name,
            "gui-cite"
        );
        assert!(!func.contains(&path("gui")));
    }

    #[test]
    fn deletion_prunes_citation() {
        let (mut odb, mut wt, mut func, old) = setup();
        wt.remove_dir(&path("gui")).unwrap();
        wt.remove_file(&path("old/name.rs")).unwrap();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        let mut pruned = report.pruned.clone();
        pruned.sort();
        assert_eq!(pruned, vec![path("gui"), path("old/name.rs")]);
        assert_eq!(func.len(), 1); // root only
    }

    #[test]
    fn unrelated_new_files_leave_function_alone() {
        let (mut odb, mut wt, mut func, old) = setup();
        wt.write(&path("brand/new.txt"), &b"hi\n"[..]).unwrap();
        let before = func.clone();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        assert!(report.is_empty());
        assert_eq!(func, before);
    }

    #[test]
    fn is_dir_flag_normalized() {
        let (mut odb, mut wt, mut func, old) = setup();
        // Replace the gui directory with a file of the same name.
        wt.remove_dir(&path("gui")).unwrap();
        wt.write(&path("gui"), &b"now a file\n"[..]).unwrap();
        let _ = reconcile(&mut func, &old, &wt, &mut odb);
        let entry = func.entry(&path("gui")).unwrap();
        assert!(!entry.is_dir);
        assert_eq!(entry.citation.repo_name, "gui-cite");
    }

    #[test]
    fn citation_file_itself_is_ignored() {
        let (mut odb, mut wt, mut func, old) = setup();
        wt.write(&citation_path(), &b"{}"[..]).unwrap();
        let report = reconcile(&mut func, &old, &wt, &mut odb);
        assert!(report.is_empty());
        let listing = worktree_listing(&mut odb, &wt);
        assert!(!listing.contains_key(&citation_path()));
    }
}
