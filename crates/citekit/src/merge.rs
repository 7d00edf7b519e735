//! `MergeCite` — merging branches *and* their citation functions
//! (paper §3).
//!
//! Regular files merge by Git's rules (three-way, diff3). `citation.cite`
//! does **not**: "we do not use them on citation.cite since it could leave
//! the citation function inconsistent. Instead, we simply take the union
//! of the citation files, and delete any entries that correspond to files
//! that were deleted by the Git merge. Conflicts over the values
//! associated with the same key ... are then resolved by showing them to
//! the user" (§3). The paper's future work asks for strategies "that
//! mirror the three-way merge method used in Git" — implemented here as
//! [`MergeStrategy::ThreeWay`].
//!
//! This module holds the rules: the strategies, the resolvers and
//! [`merge_functions`]. [`version::merge_op`] applies them once, in the
//! store, and [`CitedRepo::merge_cite`] checks out what it made.

use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::function::CitationFunction;
use crate::ops::CitedRepo;
use crate::version;
use gitlite::merge::Conflict;
use gitlite::{read_tree, GitError, ObjectId, RepoPath, Signature};

/// How same-key/different-value citation conflicts are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// The paper's default: union the two citation files; every key
    /// conflict goes to the [`ConflictResolver`].
    #[default]
    Union,
    /// Keep our side for every conflict (no resolver calls).
    Ours,
    /// Keep their side for every conflict (no resolver calls).
    Theirs,
    /// Future-work strategy: use the merge base's citation file to
    /// auto-resolve one-sided edits and honor one-sided deletions; only
    /// genuine double-edits reach the resolver.
    ThreeWay,
}

/// A resolver's verdict on one conflicted key.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Resolution {
    /// Keep our side's citation.
    Ours,
    /// Keep their side's citation.
    Theirs,
    /// Keep a caller-supplied citation (e.g. hand-merged by the user).
    Custom(Citation),
    /// Drop the entry entirely.
    Drop,
    /// Refuse: `merge_cite` fails with [`CiteError::UnresolvedConflict`].
    Unresolved,
}

/// Decides conflicted keys. The CLI implements this interactively ("showing
/// them to the user"); programmatic callers use the built-ins or a closure.
pub trait ConflictResolver {
    /// Called once per conflicted key. `ours`/`theirs` are `None` for
    /// delete-vs-modify citation conflicts (only possible under
    /// [`MergeStrategy::ThreeWay`]); `base` is the merge base's entry.
    fn resolve(
        &mut self,
        path: &RepoPath,
        ours: Option<&Citation>,
        theirs: Option<&Citation>,
        base: Option<&Citation>,
    ) -> Resolution;
}

/// Resolver that always keeps our side.
#[derive(Debug, Default, Clone, Copy)]
pub struct PreferOurs;

impl ConflictResolver for PreferOurs {
    fn resolve(
        &mut self,
        _: &RepoPath,
        ours: Option<&Citation>,
        _: Option<&Citation>,
        _: Option<&Citation>,
    ) -> Resolution {
        if ours.is_some() {
            Resolution::Ours
        } else {
            Resolution::Drop
        }
    }
}

/// Resolver that always keeps their side.
#[derive(Debug, Default, Clone, Copy)]
pub struct PreferTheirs;

impl ConflictResolver for PreferTheirs {
    fn resolve(
        &mut self,
        _: &RepoPath,
        _: Option<&Citation>,
        theirs: Option<&Citation>,
        _: Option<&Citation>,
    ) -> Resolution {
        if theirs.is_some() {
            Resolution::Theirs
        } else {
            Resolution::Drop
        }
    }
}

/// Resolver that refuses every conflict (merge fails loudly).
#[derive(Debug, Default, Clone, Copy)]
pub struct FailOnConflict;

impl ConflictResolver for FailOnConflict {
    fn resolve(
        &mut self,
        _: &RepoPath,
        _: Option<&Citation>,
        _: Option<&Citation>,
        _: Option<&Citation>,
    ) -> Resolution {
        Resolution::Unresolved
    }
}

/// Adapter turning a closure into a [`ConflictResolver`].
pub struct FnResolver<F>(pub F);

impl<F> ConflictResolver for FnResolver<F>
where
    F: FnMut(&RepoPath, Option<&Citation>, Option<&Citation>, Option<&Citation>) -> Resolution,
{
    fn resolve(
        &mut self,
        path: &RepoPath,
        ours: Option<&Citation>,
        theirs: Option<&Citation>,
        base: Option<&Citation>,
    ) -> Resolution {
        (self.0)(path, ours, theirs, base)
    }
}

/// Record of one conflicted key and how it was settled.
#[derive(Debug, Clone, PartialEq)]
pub struct CitationConflict {
    /// The conflicted key.
    pub path: RepoPath,
    /// The resolution that was applied.
    pub taken: Resolution,
}

/// Outcome of [`CitedRepo::merge_cite`].
#[derive(Debug, Clone)]
pub enum MergeCiteOutcome {
    /// Nothing to do; the other branch is already contained in ours.
    AlreadyUpToDate,
    /// Fast-forward: our branch simply advanced; no citation merging
    /// needed (there is only one citation file).
    FastForwarded(ObjectId),
    /// A merge commit was created with the merged citation file.
    Merged(ObjectId),
    /// Regular files conflicted. The worktree holds the conflict-marked
    /// files plus the already-merged `citation.cite`; resolve the files
    /// and call [`CitedRepo::commit_resolved_merge`] with these parents.
    FileConflicts {
        /// The conflicted regular files.
        conflicts: Vec<Conflict>,
        /// Parents for the resolution commit.
        parents: Vec<ObjectId>,
    },
}

/// Full report of a `MergeCite`.
#[derive(Debug, Clone)]
pub struct MergeCiteReport {
    /// What happened at the version level.
    pub outcome: MergeCiteOutcome,
    /// Citation-key conflicts and their resolutions.
    pub citation_conflicts: Vec<CitationConflict>,
    /// Citation entries dropped because the Git merge deleted their paths.
    pub dropped: Vec<RepoPath>,
}

/// Merges two citation functions (already loaded) under a strategy.
///
/// `exists` reports whether a path survives in the merged tree — entries
/// whose nodes were deleted by the Git merge are dropped, per §3.
pub fn merge_functions(
    ours: &CitationFunction,
    theirs: &CitationFunction,
    base: Option<&CitationFunction>,
    strategy: MergeStrategy,
    resolver: &mut dyn ConflictResolver,
    exists: impl Fn(&RepoPath, bool) -> bool,
) -> Result<(CitationFunction, Vec<CitationConflict>, Vec<RepoPath>)> {
    let mut conflicts = Vec::new();
    let mut merged = ours.clone();

    // Key union with conflict handling.
    let mut keys: Vec<RepoPath> = ours.paths().cloned().collect();
    for k in theirs.paths() {
        if !ours.contains(k) {
            keys.push(k.clone());
        }
    }
    keys.sort();

    for key in keys {
        let o = ours.get(&key);
        let t = theirs.get(&key);
        let b = base.and_then(|f| f.get(&key));
        let is_dir = theirs
            .entry(&key)
            .or_else(|| ours.entry(&key))
            .map(|e| e.is_dir)
            .unwrap_or(false);
        match (o, t) {
            (Some(oc), Some(tc)) if oc == tc => {} // agree — union keeps one
            (Some(oc), Some(tc)) => {
                // Same key, different values: the paper's conflict case.
                // ThreeWay auto-resolutions of one-sided edits are not
                // conflicts at all (that is the point of the strategy), so
                // they are applied silently.
                let (taken, record) = match strategy {
                    MergeStrategy::Ours => (Resolution::Ours, true),
                    MergeStrategy::Theirs => (Resolution::Theirs, true),
                    MergeStrategy::Union => (resolver.resolve(&key, Some(oc), Some(tc), b), true),
                    MergeStrategy::ThreeWay => match b {
                        Some(bc) if bc == oc => (Resolution::Theirs, false), // only theirs edited
                        Some(bc) if bc == tc => (Resolution::Ours, false),   // only ours edited
                        _ => (resolver.resolve(&key, Some(oc), Some(tc), b), true),
                    },
                };
                apply_resolution(&mut merged, &key, is_dir, &taken, o, t)?;
                if record {
                    conflicts.push(CitationConflict {
                        path: key.clone(),
                        taken,
                    });
                }
            }
            (Some(oc), None) => {
                // Union semantics keep our entry. Under ThreeWay, honor a
                // one-sided deletion: if theirs deleted it and we did not
                // change it since base, drop it.
                if strategy == MergeStrategy::ThreeWay {
                    match b {
                        // theirs deleted, ours unchanged → deletion wins.
                        // (The root cannot reach this arm: both functions
                        // always contain it.)
                        Some(bc) if bc == oc && !key.is_root() => {
                            let _ = merged.remove(&key);
                        }
                        Some(_) => {
                            // ours edited, theirs deleted → conflict.
                            let taken = resolver.resolve(&key, Some(oc), None, b);
                            apply_resolution(&mut merged, &key, is_dir, &taken, o, t)?;
                            conflicts.push(CitationConflict {
                                path: key.clone(),
                                taken,
                            });
                        }
                        None => {} // we added it; keep
                    }
                }
            }
            (None, Some(tc)) => {
                if strategy == MergeStrategy::ThreeWay {
                    match b {
                        Some(bc) if bc == tc => {
                            // ours deleted, theirs unchanged → stay deleted.
                        }
                        Some(_) => {
                            let taken = resolver.resolve(&key, None, Some(tc), b);
                            apply_resolution(&mut merged, &key, is_dir, &taken, o, t)?;
                            conflicts.push(CitationConflict {
                                path: key.clone(),
                                taken,
                            });
                        }
                        None => {
                            merged.set(key.clone(), tc.clone(), is_dir);
                        }
                    }
                } else {
                    // Union: their entry joins.
                    merged.set(key.clone(), tc.clone(), is_dir);
                }
            }
            (None, None) => unreachable!("key came from one of the functions"),
        }
    }

    // Drop entries whose nodes were deleted by the Git merge.
    let dropped = merged.retain(|p, e| exists(p, e.is_dir));
    Ok((merged, conflicts, dropped))
}

fn apply_resolution(
    merged: &mut CitationFunction,
    key: &RepoPath,
    is_dir: bool,
    taken: &Resolution,
    ours: Option<&Citation>,
    theirs: Option<&Citation>,
) -> Result<()> {
    match taken {
        Resolution::Ours => {
            match ours {
                Some(c) => {
                    merged.set(key.clone(), c.clone(), is_dir);
                }
                None if !key.is_root() => {
                    let _ = merged.remove(key);
                }
                None => {}
            }
            Ok(())
        }
        Resolution::Theirs => {
            match theirs {
                Some(c) => {
                    merged.set(key.clone(), c.clone(), is_dir);
                }
                None if !key.is_root() => {
                    let _ = merged.remove(key);
                }
                None => {}
            }
            Ok(())
        }
        Resolution::Custom(c) => {
            merged.set(key.clone(), c.clone(), is_dir);
            Ok(())
        }
        Resolution::Drop => {
            if key.is_root() {
                return Err(CiteError::RootCitationRequired);
            }
            let _ = merged.remove(key);
            Ok(())
        }
        Resolution::Unresolved => Err(CiteError::UnresolvedConflict(key.clone())),
    }
}

impl CitedRepo {
    /// `MergeCite`: merges `other` into the current branch, merging
    /// regular files by Git rules and the citation files by the selected
    /// strategy. This is [`version::merge_op`] followed by a checkout of
    /// what it made: the fast-forwarded tip, the merge commit, or the
    /// conflicted tree with the merged `citation.cite`. HEAD must be on a
    /// branch.
    pub fn merge_cite(
        &mut self,
        other: &str,
        author: Signature,
        message: impl Into<String>,
        strategy: MergeStrategy,
        resolver: &mut dyn ConflictResolver,
    ) -> Result<MergeCiteReport> {
        self.repo().head_commit()?;
        let branch = self
            .repo()
            .current_branch()
            .ok_or_else(|| GitError::BadBranchName("detached HEAD".into()))?
            .to_owned();
        let merge = version::merge_op(
            self.repo_mut(),
            &branch,
            other,
            author,
            message,
            strategy,
            resolver,
        )?;
        match merge.merged {
            Some((tree, func)) => {
                *self.repo_mut().worktree_mut() = read_tree(self.repo().odb(), tree)?;
                self.install_function(func)?;
            }
            None if matches!(merge.report.outcome, MergeCiteOutcome::FastForwarded(_)) => {
                self.checkout_branch(&branch)?;
            }
            None => {}
        }
        Ok(merge.report)
    }

    /// Completes a conflicted `MergeCite` after the user fixed the marked
    /// files in the worktree. The working function is reconciled with
    /// the fixed worktree as [`CitedRepo::commit`] reconciles it.
    pub fn commit_resolved_merge(
        &mut self,
        parents: Vec<ObjectId>,
        author: Signature,
        message: impl Into<String>,
    ) -> Result<ObjectId> {
        let (tree, _) = self.reconciled_tree()?;
        self.repo_mut()
            .commit_merge(tree, parents, author, message)
            .map_err(CiteError::Git)
    }

    /// Reads the citation function stored in a committed version.
    pub fn function_at(&self, version: ObjectId) -> Result<CitationFunction> {
        version::function_at(self.repo(), version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citation::Citation;
    use gitlite::path;

    fn sig(n: &str, t: i64) -> Signature {
        Signature::new(n, format!("{n}@x"), t)
    }

    fn cite(name: &str) -> Citation {
        Citation::builder(name, "o")
            .url(format!("https://x/{name}"))
            .build()
    }

    /// Repo with a base commit, a `dev` branch, both carrying citations.
    fn repo_with_branches() -> CitedRepo {
        let mut r = CitedRepo::init("P1", "Leshang", "https://hub/P1");
        r.write_file(&path("shared.txt"), &b"s1\ns2\ns3\n"[..])
            .unwrap();
        r.write_file(&path("main-only.txt"), &b"m\n"[..]).unwrap();
        r.add_cite(&path("shared.txt"), cite("base-shared"))
            .unwrap();
        r.commit(sig("L", 100), "base").unwrap();
        r.create_branch("dev").unwrap();
        r
    }

    #[test]
    fn union_merges_disjoint_citations() {
        let mut r = repo_with_branches();
        // dev adds a citation to a new file.
        r.checkout_branch("dev").unwrap();
        r.write_file(&path("dev.txt"), &b"d\n"[..]).unwrap();
        r.add_cite(&path("dev.txt"), cite("dev-cite")).unwrap();
        r.commit(sig("Yanssie", 200), "dev work").unwrap();
        // main adds a different citation.
        r.checkout_branch("main").unwrap();
        r.add_cite(&path("main-only.txt"), cite("main-cite"))
            .unwrap();
        r.commit(sig("L", 300), "main work").unwrap();

        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge dev",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap();
        assert!(matches!(report.outcome, MergeCiteOutcome::Merged(_)));
        assert!(report.citation_conflicts.is_empty());
        assert!(report.dropped.is_empty());
        // Union holds all three non-root citations.
        assert_eq!(
            r.function().get(&path("dev.txt")).unwrap().repo_name,
            "dev-cite"
        );
        assert_eq!(
            r.function().get(&path("main-only.txt")).unwrap().repo_name,
            "main-cite"
        );
        assert_eq!(
            r.function().get(&path("shared.txt")).unwrap().repo_name,
            "base-shared"
        );
        // And both files exist.
        assert!(r.repo().worktree().is_file(&path("dev.txt")));
    }

    #[test]
    fn union_key_conflict_goes_to_resolver() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        r.modify_cite(&path("shared.txt"), cite("dev-version"))
            .unwrap();
        r.commit(sig("Yanssie", 200), "dev recites").unwrap();
        r.checkout_branch("main").unwrap();
        r.modify_cite(&path("shared.txt"), cite("main-version"))
            .unwrap();
        r.commit(sig("L", 300), "main recites").unwrap();

        // Resolver picks theirs.
        let mut resolver = FnResolver(
            |p: &RepoPath, o: Option<&Citation>, t: Option<&Citation>, b: Option<&Citation>| {
                assert_eq!(p, &path("shared.txt"));
                assert_eq!(o.unwrap().repo_name, "main-version");
                assert_eq!(t.unwrap().repo_name, "dev-version");
                assert_eq!(b.unwrap().repo_name, "base-shared");
                Resolution::Theirs
            },
        );
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::Union,
                &mut resolver,
            )
            .unwrap();
        assert_eq!(report.citation_conflicts.len(), 1);
        assert_eq!(report.citation_conflicts[0].taken, Resolution::Theirs);
        assert_eq!(
            r.function().get(&path("shared.txt")).unwrap().repo_name,
            "dev-version"
        );
    }

    #[test]
    fn unresolved_conflict_fails_merge() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        r.modify_cite(&path("shared.txt"), cite("dev-version"))
            .unwrap();
        r.commit(sig("Y", 200), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        r.modify_cite(&path("shared.txt"), cite("main-version"))
            .unwrap();
        r.commit(sig("L", 300), "main").unwrap();
        let err = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap_err();
        assert_eq!(err, CiteError::UnresolvedConflict(path("shared.txt")));
    }

    #[test]
    fn ours_theirs_strategies_skip_resolver() {
        for (strategy, expect) in [
            (MergeStrategy::Ours, "main-version"),
            (MergeStrategy::Theirs, "dev-version"),
        ] {
            let mut r = repo_with_branches();
            r.checkout_branch("dev").unwrap();
            r.modify_cite(&path("shared.txt"), cite("dev-version"))
                .unwrap();
            r.commit(sig("Y", 200), "dev").unwrap();
            r.checkout_branch("main").unwrap();
            r.modify_cite(&path("shared.txt"), cite("main-version"))
                .unwrap();
            r.commit(sig("L", 300), "main").unwrap();
            let report = r
                .merge_cite("dev", sig("L", 400), "merge", strategy, &mut FailOnConflict)
                .unwrap();
            assert_eq!(report.citation_conflicts.len(), 1);
            assert_eq!(
                r.function().get(&path("shared.txt")).unwrap().repo_name,
                expect
            );
        }
    }

    #[test]
    fn three_way_auto_resolves_one_sided_edit() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        r.modify_cite(&path("shared.txt"), cite("dev-version"))
            .unwrap();
        r.commit(sig("Y", 200), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        // main makes an unrelated change so the merge is non-trivial.
        r.write_file(&path("other.txt"), &b"x\n"[..]).unwrap();
        r.commit(sig("L", 300), "main").unwrap();
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::ThreeWay,
                &mut FailOnConflict,
            )
            .unwrap();
        // One-sided edit resolves without the resolver (which would fail).
        assert!(matches!(report.outcome, MergeCiteOutcome::Merged(_)));
        assert_eq!(
            r.function().get(&path("shared.txt")).unwrap().repo_name,
            "dev-version"
        );
        // It is not even recorded as a conflict (base == ours).
        assert!(report.citation_conflicts.is_empty());
    }

    #[test]
    fn three_way_honors_one_sided_deletion() {
        let mut r = repo_with_branches();
        // dev deletes the citation (file stays).
        r.checkout_branch("dev").unwrap();
        r.del_cite(&path("shared.txt")).unwrap();
        r.commit(sig("Y", 200), "dev uncites").unwrap();
        r.checkout_branch("main").unwrap();
        r.write_file(&path("other.txt"), &b"x\n"[..]).unwrap();
        r.commit(sig("L", 300), "main").unwrap();

        // Union resurrects the entry (the paper's known simplification)...
        let mut union_repo = r.clone();
        union_repo
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap();
        assert!(union_repo.function().contains(&path("shared.txt")));

        // ...while ThreeWay honors the deletion.
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::ThreeWay,
                &mut FailOnConflict,
            )
            .unwrap();
        assert!(matches!(report.outcome, MergeCiteOutcome::Merged(_)));
        assert!(!r.function().contains(&path("shared.txt")));
    }

    #[test]
    fn three_way_delete_vs_edit_reaches_resolver() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        r.del_cite(&path("shared.txt")).unwrap();
        r.commit(sig("Y", 200), "dev uncites").unwrap();
        r.checkout_branch("main").unwrap();
        r.modify_cite(&path("shared.txt"), cite("main-edit"))
            .unwrap();
        r.commit(sig("L", 300), "main recites").unwrap();
        let mut called = false;
        let mut resolver = FnResolver(
            |_: &RepoPath, o: Option<&Citation>, t: Option<&Citation>, _: Option<&Citation>| {
                called = true;
                assert!(o.is_some());
                assert!(t.is_none());
                Resolution::Drop
            },
        );
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::ThreeWay,
                &mut resolver,
            )
            .unwrap();
        assert!(called);
        assert!(!r.function().contains(&path("shared.txt")));
        assert_eq!(report.citation_conflicts.len(), 1);
    }

    #[test]
    fn entries_for_files_deleted_by_git_merge_are_dropped() {
        let mut r = repo_with_branches();
        // dev deletes main-only.txt (the file), which main then cites — the
        // git merge removes the file, so the citation must go too.
        r.checkout_branch("dev").unwrap();
        r.remove(&path("main-only.txt")).unwrap();
        r.commit(sig("Y", 200), "dev deletes file").unwrap();
        r.checkout_branch("main").unwrap();
        r.add_cite(&path("main-only.txt"), cite("late-cite"))
            .unwrap();
        // Also make a content change so merge isn't FF.
        r.write_file(&path("other.txt"), &b"x\n"[..]).unwrap();
        r.commit(sig("L", 300), "main cites the doomed file")
            .unwrap();
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap();
        // Clean delete (file unmodified on main), so no file conflict; and
        // the citation entry is dropped with it.
        assert!(matches!(report.outcome, MergeCiteOutcome::Merged(_)));
        assert_eq!(report.dropped, vec![path("main-only.txt")]);
        assert!(!r.function().contains(&path("main-only.txt")));
        assert!(!r.repo().worktree().is_file(&path("main-only.txt")));
    }

    #[test]
    fn file_conflicts_surface_with_merged_citations() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        r.write_file(&path("shared.txt"), &b"s1\nDEV\ns3\n"[..])
            .unwrap();
        r.write_file(&path("dev.txt"), &b"d\n"[..]).unwrap();
        r.add_cite(&path("dev.txt"), cite("dev-cite")).unwrap();
        r.commit(sig("Y", 200), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        r.write_file(&path("shared.txt"), &b"s1\nMAIN\ns3\n"[..])
            .unwrap();
        r.commit(sig("L", 300), "main").unwrap();
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap();
        let MergeCiteOutcome::FileConflicts { conflicts, parents } = report.outcome else {
            panic!("expected file conflicts");
        };
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].path, path("shared.txt"));
        // The merged citation function is already installed.
        assert!(r.function().contains(&path("dev.txt")));
        // Resolve and complete.
        r.write_file(&path("shared.txt"), &b"s1\nRESOLVED\ns3\n"[..])
            .unwrap();
        let mc = r
            .commit_resolved_merge(parents, sig("L", 500), "resolved")
            .unwrap();
        let c = r.repo().commit_obj(mc).unwrap();
        assert_eq!(c.parents.len(), 2);
        // Final version carries both the resolution and the citations.
        let func = r.function_at(mc).unwrap();
        assert!(func.contains(&path("dev.txt")));
        assert_eq!(
            r.repo().file_at(mc, &path("shared.txt")).unwrap().as_ref(),
            b"s1\nRESOLVED\ns3\n"
        );
    }

    #[test]
    fn fast_forward_and_up_to_date() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        r.write_file(&path("dev.txt"), &b"d\n"[..]).unwrap();
        r.add_cite(&path("dev.txt"), cite("dev-cite")).unwrap();
        r.commit(sig("Y", 200), "dev").unwrap();
        r.checkout_branch("main").unwrap();
        let report = r
            .merge_cite(
                "dev",
                sig("L", 300),
                "merge",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap();
        assert!(matches!(report.outcome, MergeCiteOutcome::FastForwarded(_)));
        // Citation function followed the fast-forward.
        assert!(r.function().contains(&path("dev.txt")));
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "again",
                MergeStrategy::Union,
                &mut FailOnConflict,
            )
            .unwrap();
        assert!(matches!(report.outcome, MergeCiteOutcome::AlreadyUpToDate));
    }

    #[test]
    fn root_conflict_resolves_without_losing_root() {
        let mut r = repo_with_branches();
        r.checkout_branch("dev").unwrap();
        let mut dev_root = r.function().root().clone();
        dev_root.note = Some("dev note".into());
        r.modify_cite(&RepoPath::root(), dev_root).unwrap();
        r.commit(sig("Y", 200), "dev root").unwrap();
        r.checkout_branch("main").unwrap();
        let mut main_root = r.function().root().clone();
        main_root.note = Some("main note".into());
        r.modify_cite(&RepoPath::root(), main_root).unwrap();
        r.commit(sig("L", 300), "main root").unwrap();
        let report = r
            .merge_cite(
                "dev",
                sig("L", 400),
                "merge",
                MergeStrategy::Union,
                &mut PreferOurs,
            )
            .unwrap();
        assert_eq!(report.citation_conflicts.len(), 1);
        assert!(report.citation_conflicts[0].path.is_root());
        assert_eq!(r.function().root().note.as_deref(), Some("main note"));
    }

    use gitlite::RepoPath;
}
