//! Citation provenance across versions: diffing citation functions and
//! reconstructing the history of a node's citation.
//!
//! The paper's model makes citations *versioned* ("Each version V in
//! project P has an associated citation function"), which means credit has
//! a history of its own: who was credited for a directory in V3 may differ
//! from V5. This module answers the audit questions that follow —
//! "what changed between these two versions' citation functions?" and
//! "when did this node's citation change, and to what?"

use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::function::CitationFunction;
use crate::ops::CitedRepo;
use gitlite::{ObjectId, RepoPath};
use std::collections::BTreeSet;

/// One changed key between two citation functions.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum CiteChange {
    /// The key entered the active domain.
    Added {
        /// The key.
        path: RepoPath,
        /// Its new citation.
        citation: Citation,
    },
    /// The key left the active domain.
    Removed {
        /// The key.
        path: RepoPath,
        /// The citation it used to carry.
        citation: Citation,
    },
    /// The key stayed but its citation changed.
    Modified {
        /// The key.
        path: RepoPath,
        /// Citation before.
        before: Citation,
        /// Citation after.
        after: Citation,
    },
}

impl CiteChange {
    /// The key this change is about.
    pub fn path(&self) -> &RepoPath {
        match self {
            CiteChange::Added { path, .. }
            | CiteChange::Removed { path, .. }
            | CiteChange::Modified { path, .. } => path,
        }
    }
}

/// Structural diff between two citation functions, in key order.
pub fn diff_functions(old: &CitationFunction, new: &CitationFunction) -> Vec<CiteChange> {
    let mut keys: BTreeSet<&RepoPath> = BTreeSet::new();
    keys.extend(old.paths());
    keys.extend(new.paths());
    let mut out = Vec::new();
    for key in keys {
        match (old.get(key), new.get(key)) {
            (None, Some(c)) => out.push(CiteChange::Added {
                path: key.clone(),
                citation: c.clone(),
            }),
            (Some(c), None) => out.push(CiteChange::Removed {
                path: key.clone(),
                citation: c.clone(),
            }),
            (Some(a), Some(b)) if a != b => out.push(CiteChange::Modified {
                path: key.clone(),
                before: a.clone(),
                after: b.clone(),
            }),
            _ => {}
        }
    }
    out
}

/// One step in a node's citation history.
#[derive(Debug, Clone, PartialEq)]
pub struct CitationEvent {
    /// The version where the node's *explicit* citation changed.
    pub commit: ObjectId,
    /// Commit timestamp.
    pub timestamp: i64,
    /// Commit author (who performed the citation change).
    pub author: String,
    /// The explicit citation after this version (`None` = not in the
    /// active domain; resolution falls to an ancestor).
    pub explicit: Option<Citation>,
}

impl CitedRepo {
    /// The history of `path`'s **explicit** citation along the
    /// first-parent chain from HEAD, oldest first: one event per version
    /// where the entry appeared, changed or disappeared.
    pub fn citation_log(&self, path: &RepoPath) -> Result<Vec<CitationEvent>> {
        let head = self.repo().head_commit().map_err(CiteError::Git)?;
        // First-parent chain, oldest first — served from the store's
        // commit-graph when one covers HEAD (no commit decodes).
        let mut chain = self
            .repo()
            .first_parent_chain(head)
            .map_err(CiteError::Git)?;
        chain.reverse();

        let mut events = Vec::new();
        let mut previous: Option<Citation> = None;
        let mut seen_any = false;
        let cite = crate::file::citation_path();
        for i in 0..chain.len() {
            let id = chain[i];
            // The chain is oldest-first along first parents, so element
            // i-1 *is* this commit's first parent: when the changed-path
            // Bloom filter proves `citation.cite` is identical to it,
            // this version's citation function equals the previous
            // iteration's and the event logic below is a no-op — skip
            // the whole read. (`i == 0` has no processed parent to
            // equal, so it always takes the exact path.)
            if i > 0 {
                use gitlite::PathChange;
                match self.repo().path_changed_hint(id, &cite) {
                    PathChange::No => continue,
                    PathChange::Maybe => {
                        // Exact check: same blob in both trees? Counts
                        // the false-positive metric and still skips.
                        let here = self.repo().tree_of(id).map_err(CiteError::Git)?;
                        let parent = self.repo().tree_of(chain[i - 1]).map_err(CiteError::Git)?;
                        let changed = gitlite::resolve_path(self.repo().odb(), here, &cite)
                            .map_err(CiteError::Git)?
                            != gitlite::resolve_path(self.repo().odb(), parent, &cite)
                                .map_err(CiteError::Git)?;
                        self.repo().count_bloom_outcome(changed);
                        if !changed {
                            continue;
                        }
                    }
                    PathChange::Absent => {}
                }
            }
            let func = match self.function_at(id) {
                Ok(f) => f,
                Err(_) => continue, // pre-citation-enabling versions
            };
            let current = func.get(path).cloned();
            if !seen_any || current != previous {
                let commit = self.repo().commit_obj(id).map_err(CiteError::Git)?;
                // Skip the leading "never cited" steady state.
                if seen_any || current.is_some() {
                    events.push(CitationEvent {
                        commit: id,
                        timestamp: commit.author.timestamp,
                        author: commit.author.name,
                        explicit: current.clone(),
                    });
                    seen_any = true;
                }
            }
            previous = current;
        }
        Ok(events)
    }

    /// Diff of the citation functions of two versions.
    pub fn diff_citations(&self, old: ObjectId, new: ObjectId) -> Result<Vec<CiteChange>> {
        let old_func = self.function_at(old)?;
        let new_func = self.function_at(new)?;
        Ok(diff_functions(&old_func, &new_func))
    }

    /// Every author credited anywhere in the current citation function
    /// (see [`CitationFunction::credited_authors`]).
    pub fn credited_authors(&self) -> Vec<(String, Vec<RepoPath>)> {
        self.function().credited_authors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::{path, Signature};

    fn sig(n: &str, t: i64) -> Signature {
        Signature::new(n, format!("{n}@x"), t)
    }

    fn cite(name: &str, author: &str) -> Citation {
        Citation::builder(name, "o").author(author).build()
    }

    fn repo() -> CitedRepo {
        let mut r = CitedRepo::init("P", "Owner", "https://x/P");
        r.write_file(&path("f.txt"), &b"f\n"[..]).unwrap();
        r.write_file(&path("g.txt"), &b"g\n"[..]).unwrap();
        r.commit(sig("Owner", 100), "V1").unwrap();
        r
    }

    #[test]
    fn diff_functions_reports_all_kinds() {
        let mut old = CitationFunction::new(cite("root", "A"));
        old.set(path("gone"), cite("x", "A"), false);
        old.set(path("same"), cite("s", "A"), false);
        old.set(path("changed"), cite("v1", "A"), false);
        let mut new = CitationFunction::new(cite("root", "A"));
        new.set(path("same"), cite("s", "A"), false);
        new.set(path("changed"), cite("v2", "B"), false);
        new.set(path("fresh"), cite("f", "C"), false);
        let diff = diff_functions(&old, &new);
        assert_eq!(diff.len(), 3);
        assert!(matches!(&diff[0], CiteChange::Modified { path, .. } if *path == path2("changed")));
        assert!(matches!(&diff[1], CiteChange::Added { path, .. } if *path == path2("fresh")));
        assert!(matches!(&diff[2], CiteChange::Removed { path, .. } if *path == path2("gone")));
    }

    fn path2(s: &str) -> RepoPath {
        path(s)
    }

    #[test]
    fn diff_identical_is_empty() {
        let f = CitationFunction::new(cite("root", "A"));
        assert!(diff_functions(&f, &f).is_empty());
    }

    #[test]
    fn citation_log_tracks_add_modify_delete() {
        let mut r = repo();
        // V2: add.
        r.add_cite(&path("f.txt"), cite("c1", "Alice")).unwrap();
        let v2 = r.commit(sig("Alice", 200), "add cite").unwrap().commit;
        // V3: unrelated change — no event.
        r.write_file(&path("g.txt"), &b"g2\n"[..]).unwrap();
        r.commit(sig("Owner", 300), "edit g").unwrap();
        // V4: modify.
        r.modify_cite(&path("f.txt"), cite("c2", "Bob")).unwrap();
        let v4 = r.commit(sig("Bob", 400), "modify cite").unwrap().commit;
        // V5: delete.
        r.del_cite(&path("f.txt")).unwrap();
        let v5 = r.commit(sig("Carol", 500), "del cite").unwrap().commit;

        let log = r.citation_log(&path("f.txt")).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].commit, v2);
        assert_eq!(log[0].author, "Alice");
        assert_eq!(log[0].explicit.as_ref().unwrap().repo_name, "c1");
        assert_eq!(log[1].commit, v4);
        assert_eq!(log[1].explicit.as_ref().unwrap().repo_name, "c2");
        assert_eq!(log[2].commit, v5);
        assert!(log[2].explicit.is_none());
    }

    #[test]
    fn citation_log_empty_for_never_cited() {
        let r = repo();
        assert!(r.citation_log(&path("f.txt")).unwrap().is_empty());
    }

    #[test]
    fn diff_citations_between_versions() {
        let mut r = repo();
        let v1 = r.repo().head_commit().unwrap();
        r.add_cite(&path("f.txt"), cite("c1", "Alice")).unwrap();
        let v2 = r.commit(sig("Alice", 200), "add").unwrap().commit;
        let diff = r.diff_citations(v1, v2).unwrap();
        assert_eq!(diff.len(), 1);
        assert!(matches!(&diff[0], CiteChange::Added { .. }));
        // Reverse direction reports a removal.
        let diff = r.diff_citations(v2, v1).unwrap();
        assert!(matches!(&diff[0], CiteChange::Removed { .. }));
    }

    #[test]
    fn credited_authors_inverts_the_function() {
        let mut r = repo();
        r.add_cite(&path("f.txt"), cite("c1", "Alice")).unwrap();
        let mut multi = cite("c2", "Alice");
        multi.author_list.push("Bob".into());
        r.add_cite(&path("g.txt"), multi).unwrap();
        let credits = r.credited_authors();
        // Root author "Owner" first (root is the first key), then Alice, Bob.
        let names: Vec<&str> = credits.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(names, vec!["Owner", "Alice", "Bob"]);
        let alice = &credits.iter().find(|(a, _)| a == "Alice").unwrap().1;
        assert_eq!(alice.len(), 2);
        let bob = &credits.iter().find(|(a, _)| a == "Bob").unwrap().1;
        assert_eq!(bob, &vec![path("g.txt")]);
    }
}
