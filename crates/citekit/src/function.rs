//! The citation function (paper §2): a partial map from paths of a project
//! version to [`Citation`]s, total at the root, with closest-ancestor
//! resolution.

use crate::citation::Citation;
use crate::error::{CiteError, Result};
use gitlite::RepoPath;
use std::collections::BTreeMap;

/// One entry in the active domain of a citation function.
#[derive(Debug, Clone, PartialEq)]
pub struct CiteEntry {
    /// The attached citation.
    pub citation: Citation,
    /// Whether the cited node is a directory (affects only the rendered
    /// key: directories get a trailing `/`, Listing 1 style).
    pub is_dir: bool,
}

/// How `Cite(V,P)(n)` interprets the active domain (paper §2 defines
/// closest-ancestor and notes "there could be other definitions ... e.g.
/// ones that include every citation on the path from n to r").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolvePolicy {
    /// The citation of `n` itself, or of its closest cited ancestor — the
    /// paper's default.
    #[default]
    ClosestAncestor,
    /// Every citation on the path from `n` up to the root, nearest first.
    PathUnion,
    /// Only the root citation, regardless of `n`.
    RootOnly,
}

/// A citation function `C(V,P)`: partial map from paths to citations with
/// the root always in the active domain.
#[derive(Debug, Clone, PartialEq)]
pub struct CitationFunction {
    entries: BTreeMap<RepoPath, CiteEntry>,
}

impl CitationFunction {
    /// Creates a citation function whose active domain is just the root.
    pub fn new(root: Citation) -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(
            RepoPath::root(),
            CiteEntry {
                citation: root,
                is_dir: true,
            },
        );
        CitationFunction { entries }
    }

    /// Builds from raw entries. Fails unless the root is present.
    pub fn from_entries(entries: BTreeMap<RepoPath, CiteEntry>) -> Result<Self> {
        if !entries.contains_key(&RepoPath::root()) {
            return Err(CiteError::BadCitationFile(
                "the root entry \"/\" is required".into(),
            ));
        }
        Ok(CitationFunction { entries })
    }

    /// Number of entries in the active domain (≥ 1: the root).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Never true — the root is always present. Provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The root citation.
    pub fn root(&self) -> &Citation {
        &self.entries[&RepoPath::root()].citation
    }

    /// Replaces the root citation.
    pub fn set_root(&mut self, citation: Citation) {
        self.entries.insert(
            RepoPath::root(),
            CiteEntry {
                citation,
                is_dir: true,
            },
        );
    }

    /// The explicit citation at `path`, if `path` is in the active domain.
    pub fn get(&self, path: &RepoPath) -> Option<&Citation> {
        self.entries.get(path).map(|e| &e.citation)
    }

    /// The full entry at `path`.
    pub fn entry(&self, path: &RepoPath) -> Option<&CiteEntry> {
        self.entries.get(path)
    }

    /// True when `path` is in the active domain.
    pub fn contains(&self, path: &RepoPath) -> bool {
        self.entries.contains_key(path)
    }

    /// Inserts or replaces the citation at `path`. Returns the previous
    /// citation if any. (The op-level Add/Modify distinction lives in
    /// [`crate::ops`]; this is the raw mutation.)
    pub fn set(&mut self, path: RepoPath, citation: Citation, is_dir: bool) -> Option<Citation> {
        let is_dir = if path.is_root() { true } else { is_dir };
        self.entries
            .insert(path, CiteEntry { citation, is_dir })
            .map(|e| e.citation)
    }

    /// Removes the citation at `path`. The root cannot be removed.
    pub fn remove(&mut self, path: &RepoPath) -> Result<Citation> {
        if path.is_root() {
            return Err(CiteError::RootCitationRequired);
        }
        self.entries
            .remove(path)
            .map(|e| e.citation)
            .ok_or_else(|| CiteError::NotCited(path.clone()))
    }

    /// Iterates `(path, entry)` in path order (root first).
    pub fn iter(&self) -> impl Iterator<Item = (&RepoPath, &CiteEntry)> {
        self.entries.iter()
    }

    /// Iterates the active domain's paths.
    pub fn paths(&self) -> impl Iterator<Item = &RepoPath> {
        self.entries.keys()
    }

    // ----- resolution ---------------------------------------------------

    /// `Cite(V,P)(n)` with the default closest-ancestor policy; also
    /// returns the path of the entry that supplied the citation. Total:
    /// the root always matches.
    pub fn resolve(&self, path: &RepoPath) -> (&RepoPath, &Citation) {
        if let Some((p, e)) = self.entries.get_key_value(path) {
            return (p, &e.citation);
        }
        for anc in path.ancestors() {
            if let Some((p, e)) = self.entries.get_key_value(&anc) {
                return (p, &e.citation);
            }
        }
        // Unreachable in a well-formed function, but stay total regardless.
        let (p, e) = self
            .entries
            .get_key_value(&RepoPath::root())
            .expect("root entry is enforced at construction");
        (p, &e.citation)
    }

    /// Resolution under an explicit [`ResolvePolicy`]. Returns matched
    /// entries nearest-first (always at least one).
    pub fn resolve_policy(
        &self,
        path: &RepoPath,
        policy: ResolvePolicy,
    ) -> Vec<(&RepoPath, &Citation)> {
        match policy {
            ResolvePolicy::ClosestAncestor => vec![self.resolve(path)],
            ResolvePolicy::RootOnly => {
                let (p, e) = self
                    .entries
                    .get_key_value(&RepoPath::root())
                    .expect("root entry is enforced at construction");
                vec![(p, &e.citation)]
            }
            ResolvePolicy::PathUnion => {
                let mut out = Vec::new();
                if let Some((p, e)) = self.entries.get_key_value(path) {
                    out.push((p, &e.citation));
                }
                for anc in path.ancestors() {
                    if let Some((p, e)) = self.entries.get_key_value(&anc) {
                        out.push((p, &e.citation));
                    }
                }
                out
            }
        }
    }

    // ----- key maintenance under tree edits ------------------------------

    /// Rewrites the key `from` to `to` (paper §2: moved/renamed nodes keep
    /// their citations under the new path). No-op when `from` is not in
    /// the active domain.
    pub fn rekey(&mut self, from: &RepoPath, to: &RepoPath) {
        if let Some(entry) = self.entries.remove(from) {
            self.entries.insert(to.clone(), entry);
        }
    }

    /// Rewrites every key under `from` (inclusive) to live under `to` —
    /// used for directory renames and by `CopyCite`'s key migration.
    pub fn rebase_subtree(&mut self, from: &RepoPath, to: &RepoPath) {
        let movers: Vec<RepoPath> = self
            .entries
            .keys()
            .filter(|p| p.starts_with(from) && !p.is_root())
            .cloned()
            .collect();
        for old in movers {
            let new = old.rebase(from, to).expect("starts_with checked");
            let entry = self.entries.remove(&old).expect("present");
            self.entries.insert(new, entry);
        }
    }

    /// Applies a batch of file-level renames.
    pub fn apply_renames(&mut self, renames: &[(RepoPath, RepoPath)]) {
        for (from, to) in renames {
            self.rekey(from, to);
        }
    }

    /// Drops every non-root entry for which `keep` returns false (e.g.
    /// paths deleted from the version). Returns the removed paths.
    pub fn retain(&mut self, mut keep: impl FnMut(&RepoPath, &CiteEntry) -> bool) -> Vec<RepoPath> {
        let doomed: Vec<RepoPath> = self
            .entries
            .iter()
            .filter(|(p, e)| !p.is_root() && !keep(p, e))
            .map(|(p, _)| p.clone())
            .collect();
        for p in &doomed {
            self.entries.remove(p);
        }
        doomed
    }

    /// Every author credited anywhere in the function, with the keys
    /// crediting them (the "give credit to the appropriate contributors"
    /// view, §1). Authors in key order of first appearance.
    pub fn credited_authors(&self) -> Vec<(String, Vec<RepoPath>)> {
        let mut order: Vec<String> = Vec::new();
        let mut map: std::collections::HashMap<String, Vec<RepoPath>> =
            std::collections::HashMap::new();
        for (path, entry) in self.iter() {
            for author in &entry.citation.author_list {
                if !map.contains_key(author) {
                    order.push(author.clone());
                }
                map.entry(author.clone()).or_default().push(path.clone());
            }
        }
        order
            .into_iter()
            .map(|a| {
                let paths = map.remove(&a).unwrap_or_default();
                (a, paths)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::path;

    fn cite(name: &str) -> Citation {
        Citation::builder(name, "owner")
            .url(format!("https://x/{name}"))
            .build()
    }

    fn sample() -> CitationFunction {
        let mut f = CitationFunction::new(cite("root"));
        f.set(path("src"), cite("src"), true);
        f.set(path("src/core/main.rs"), cite("main"), false);
        f
    }

    #[test]
    fn root_always_present() {
        let f = CitationFunction::new(cite("root"));
        assert_eq!(f.len(), 1);
        assert_eq!(f.root().repo_name, "root");
        assert!(f.contains(&RepoPath::root()));
    }

    #[test]
    fn from_entries_requires_root() {
        let mut entries = BTreeMap::new();
        entries.insert(
            path("a"),
            CiteEntry {
                citation: cite("a"),
                is_dir: false,
            },
        );
        assert!(matches!(
            CitationFunction::from_entries(entries),
            Err(CiteError::BadCitationFile(_))
        ));
    }

    #[test]
    fn root_cannot_be_removed() {
        let mut f = sample();
        assert_eq!(
            f.remove(&RepoPath::root()).unwrap_err(),
            CiteError::RootCitationRequired
        );
        assert!(f.remove(&path("src")).is_ok());
        assert_eq!(
            f.remove(&path("src")).unwrap_err(),
            CiteError::NotCited(path("src"))
        );
    }

    #[test]
    fn resolve_exact_match() {
        let f = sample();
        let (p, c) = f.resolve(&path("src/core/main.rs"));
        assert_eq!(p, &path("src/core/main.rs"));
        assert_eq!(c.repo_name, "main");
    }

    #[test]
    fn resolve_closest_ancestor() {
        let f = sample();
        // src/core has no citation; closest is src.
        let (p, c) = f.resolve(&path("src/core"));
        assert_eq!(p, &path("src"));
        assert_eq!(c.repo_name, "src");
        // src/core/util.rs also resolves to src (sibling file's citation
        // does not leak).
        let (p, c) = f.resolve(&path("src/core/util.rs"));
        assert_eq!(p, &path("src"));
        assert_eq!(c.repo_name, "src");
        // Something outside src resolves to the root.
        let (p, c) = f.resolve(&path("docs/readme.md"));
        assert!(p.is_root());
        assert_eq!(c.repo_name, "root");
    }

    #[test]
    fn resolve_is_total_at_root() {
        let f = CitationFunction::new(cite("root"));
        let (p, _) = f.resolve(&RepoPath::root());
        assert!(p.is_root());
    }

    #[test]
    fn path_union_policy_collects_chain() {
        let f = sample();
        let chain = f.resolve_policy(&path("src/core/main.rs"), ResolvePolicy::PathUnion);
        let names: Vec<&str> = chain.iter().map(|(_, c)| c.repo_name.as_str()).collect();
        assert_eq!(names, vec!["main", "src", "root"]);
        let root_only = f.resolve_policy(&path("src/core/main.rs"), ResolvePolicy::RootOnly);
        assert_eq!(root_only.len(), 1);
        assert_eq!(root_only[0].1.repo_name, "root");
        let closest = f.resolve_policy(&path("src/core"), ResolvePolicy::ClosestAncestor);
        assert_eq!(closest[0].1.repo_name, "src");
    }

    #[test]
    fn set_returns_previous() {
        let mut f = sample();
        let prev = f.set(path("src"), cite("src2"), true);
        assert_eq!(prev.unwrap().repo_name, "src");
        assert_eq!(f.get(&path("src")).unwrap().repo_name, "src2");
        // New path returns None.
        assert!(f.set(path("new.txt"), cite("n"), false).is_none());
    }

    #[test]
    fn root_is_dir_forced() {
        let mut f = sample();
        f.set(RepoPath::root(), cite("r2"), false);
        assert!(f.entry(&RepoPath::root()).unwrap().is_dir);
    }

    #[test]
    fn rekey_moves_citation() {
        let mut f = sample();
        f.rekey(&path("src/core/main.rs"), &path("src/core/app.rs"));
        assert!(!f.contains(&path("src/core/main.rs")));
        assert_eq!(f.get(&path("src/core/app.rs")).unwrap().repo_name, "main");
        // Rekey of uncited path is a no-op.
        f.rekey(&path("ghost"), &path("zzz"));
        assert!(!f.contains(&path("zzz")));
    }

    #[test]
    fn rebase_subtree_moves_whole_prefix() {
        let mut f = sample();
        f.rebase_subtree(&path("src"), &path("lib"));
        assert!(f.contains(&path("lib")));
        assert!(f.contains(&path("lib/core/main.rs")));
        assert!(!f.contains(&path("src")));
        // The root never moves.
        assert!(f.contains(&RepoPath::root()));
    }

    #[test]
    fn retain_drops_non_root_only() {
        let mut f = sample();
        let dropped = f.retain(|_, _| false);
        assert_eq!(dropped.len(), 2);
        assert_eq!(f.len(), 1);
        assert!(f.contains(&RepoPath::root()));
    }

    #[test]
    fn apply_renames_batch() {
        let mut f = sample();
        f.apply_renames(&[
            (path("src/core/main.rs"), path("app/main.rs")),
            (path("src"), path("app")),
        ]);
        assert_eq!(f.get(&path("app/main.rs")).unwrap().repo_name, "main");
        assert_eq!(f.get(&path("app")).unwrap().repo_name, "src");
    }
}
