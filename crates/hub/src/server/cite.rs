//! Server-side citation work: the cite ops, `MergeCite`, Zenodo
//! deposits, Software Heritage archiving and the credit queries.

use super::{frontier, ref_moves, unexpected, Held, HostedRepo, Hub, Token};
use crate::api::{ApiRequest, ApiResponse, MergeOutcome, MergeSummary};
use crate::audit::{Header, Record};
use crate::error::{HubError, Result};
use crate::heritage::{ArchiveReport, SwhKind};
use crate::perm::Action;
use crate::zenodo::Deposit;
use citekit::{Citation, CitedRepo, MergeStrategy, Resolution};
use gitlite::{ObjectId, RepoPath, Signature};

wrappers! {
    /// `GenCite` — generates the citation for a node at a branch tip.
    /// Anonymous: any visitor may do this (paper §3: "If the user is not a
    /// project member, the browser extension immediately generates the
    /// citation").
    fn generate_citation(repo_id: &str, branch: &str, path: &RepoPath) -> Citation =
        GenerateCitation {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        } => Citation;

    /// The *explicit* citation entry at a path, if any — what the popup's
    /// text box shows a project member before they edit (paper §3: "the
    /// text box will display the citation explicitly attached to the node,
    /// if it exists ... If such a citation does not exist, the text box
    /// will remain empty").
    fn citation_entry(repo_id: &str, branch: &str, path: &RepoPath) -> Option<Citation> =
        CitationEntry {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        } => CitationOpt;

    /// Server-side `MergeCite` of `other_branch` into `branch` using the
    /// given strategy; conflicts default to keeping ours (the interactive
    /// path lives in the local tool).
    fn merge_branches(
        token: &Token,
        repo_id: &str,
        branch: &str,
        other_branch: &str,
        strategy: MergeStrategy,
    ) -> MergeSummary =
        MergeBranches {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            other_branch: other_branch.to_owned(),
            strategy,
        } => Merge;

    /// Deposits a branch tip with the Zenodo simulator, minting a DOI.
    fn deposit(token: &Token, repo_id: &str, branch: &str, title: &str) -> Deposit =
        Deposit {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            title: title.to_owned(),
        } => Deposit;

    /// Resolves a DOI minted by [`Hub::deposit`].
    fn resolve_doi(doi: &str) -> Deposit = ResolveDoi { doi: doi.to_owned() } => Deposit;

    /// Archives a repository into the Software Heritage simulator.
    fn archive(repo_id: &str) -> ArchiveReport = Archive { repo_id: repo_id.to_owned() } => Archive;

    /// Every author credited in a repository's citation function at a
    /// branch tip, with the citing keys — the "give credit to the
    /// appropriate contributors" view (paper §1).
    fn credited_authors(repo_id: &str, branch: &str) -> Vec<(String, Vec<RepoPath>)> =
        CreditedAuthors { repo_id: repo_id.to_owned(), branch: branch.to_owned() } => Credits;

    /// `AddCite` on the remote repository (member+). Commits the updated
    /// citation file on `branch` and returns the new commit.
    fn add_cite(
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
        citation: Citation,
    ) -> ObjectId =
        AddCite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
            citation,
        } => Commit;

    /// `ModifyCite` on the remote repository (member+).
    fn modify_cite(
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
        citation: Citation,
    ) -> ObjectId =
        ModifyCite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
            citation,
        } => Commit;

    /// `DelCite` on the remote repository (member+).
    fn del_cite(token: &Token, repo_id: &str, branch: &str, path: &RepoPath) -> ObjectId =
        DelCite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        } => Commit;
}

impl Hub {
    /// Checks whether an SWHID is archived.
    pub fn resolve_swhid(&self, swhid: &str) -> Result<(SwhKind, ObjectId)> {
        match self.unwrap(ApiRequest::ResolveSwhid {
            swhid: swhid.to_owned(),
        })? {
            ApiResponse::Swhid(kind, id) => Ok((kind, id)),
            other => Err(unexpected(&other)),
        }
    }

    /// Number of archive visits recorded for a repository.
    pub fn archive_visits(&self, repo_id: &str) -> usize {
        match self.unwrap(ApiRequest::ArchiveVisits {
            repo_id: repo_id.to_owned(),
        }) {
            Ok(ApiResponse::Count(n)) => n as usize,
            _ => 0,
        }
    }

    /// All hosted repositories whose current citation function credits
    /// `author`, with the citing keys per repository — a platform-wide
    /// credit search.
    pub fn find_repos_citing(&self, author: &str) -> Vec<(String, Vec<RepoPath>)> {
        match self.unwrap(ApiRequest::FindReposCiting {
            author: author.to_owned(),
        }) {
            Ok(ApiResponse::Credits(c)) => c,
            _ => Vec::new(),
        }
    }

    // ----- operations ---------------------------------------------------------
    pub(super) fn cite_op(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        op_name: &str,
        op: impl FnOnce(&mut CitedRepo, &RepoPath) -> citekit::Result<()>,
        path: &RepoPath,
    ) -> Result<ObjectId> {
        let user = self.auth(token)?;
        self.write_repo(&user, repo_id, op_name, Action::Write, |hosted, ts, ok| {
            // Operate on a clone; replace on success so failures can't
            // corrupt the hosted state.
            let mut work = hosted.repo.clone();
            let (cited, outcome) = work
                .checkout_branch(branch)
                .map_err(citekit::CiteError::Git)
                .and_then(|()| {
                    let mut cited = CitedRepo::open(work)?;
                    op(&mut cited, path)?;
                    let outcome = cited.commit(
                        Signature::new(&user.display_name, &user.email, ts),
                        format!("{op_name} {}", path.to_cite_key(false)),
                    )?;
                    Ok((cited, outcome))
                })
                .map_err(HubError::Cite)?;
            self.swap_in(hosted, cited, repo_id, ok)?;
            Ok(outcome.commit)
        })
    }

    pub(super) fn op_merge(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        other_branch: &str,
        strategy: MergeStrategy,
    ) -> Result<MergeSummary> {
        let user = self.auth(token)?;
        self.write_repo(&user, repo_id, "merge", Action::Write, |hosted, ts, ok| {
            let mut work = hosted.repo.clone();
            work.checkout_branch(branch).map_err(HubError::Git)?;
            let mut cited = CitedRepo::open(work).map_err(HubError::Cite)?;
            let mut resolver = citekit::FnResolver(
                |_: &RepoPath, o: Option<&Citation>, _: Option<&Citation>, _: Option<&Citation>| {
                    if o.is_some() {
                        Resolution::Ours
                    } else {
                        Resolution::Theirs
                    }
                },
            );
            let report = cited
                .merge_cite(
                    other_branch,
                    Signature::new(&user.display_name, &user.email, ts),
                    format!("Merge branch '{other_branch}' into {branch}"),
                    strategy,
                    &mut resolver,
                )
                .map_err(HubError::Cite)?;
            let outcome = match report.outcome {
                citekit::MergeCiteOutcome::AlreadyUpToDate => MergeOutcome::AlreadyUpToDate,
                citekit::MergeCiteOutcome::FastForwarded(id) => MergeOutcome::FastForwarded(id),
                citekit::MergeCiteOutcome::Merged(id) => MergeOutcome::Merged(id),
                citekit::MergeCiteOutcome::FileConflicts { .. } => {
                    return Err(HubError::BadRequest(
                        "merge has file conflicts; resolve locally and push".into(),
                    ));
                }
            };
            self.swap_in(hosted, cited, repo_id, ok)?;
            Ok(MergeSummary {
                outcome,
                citation_conflicts: report
                    .citation_conflicts
                    .into_iter()
                    .map(|c| (c.path, c.taken))
                    .collect(),
                dropped: report.dropped,
            })
        })
    }

    /// Swaps a cite op's or merge's worked-on clone in for the hosted
    /// repository and applies the entry of the moves that made.
    fn swap_in(&self, into: &mut HostedRepo, cited: CitedRepo, id: &str, ok: Header) -> Result<()> {
        let before = frontier(&into.repo);
        into.repo = cited.into_repository();
        let records = ref_moves(id, &before, &into.repo);
        self.apply(ok, records, Held::None).map(drop)
    }

    pub(super) fn op_deposit(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        title: &str,
    ) -> Result<Deposit> {
        let user = self.auth(token)?;
        let deposit = |hosted: &mut HostedRepo, ts, ok| {
            let tip = hosted.repo.branch_tip(branch).map_err(HubError::Git)?;
            let tree = hosted.repo.tree_of(tip).map_err(HubError::Git)?;
            // Creators come from the deposited tip's root citation.
            let func = hosted.function_at(tip).map_err(HubError::Cite)?;
            let creators = func.root().author_list.clone();
            let mut zenodo = self.zenodo.lock();
            let deposit = zenodo.mint(repo_id, tip, tree, title, creators, ts);
            let records = vec![Record::Deposited(deposit.clone())];
            self.apply(ok, records, Held::Zenodo(&mut zenodo))?;
            Ok(deposit)
        };
        self.write_repo(&user, repo_id, "deposit", Action::Write, deposit)
    }

    /// Archives a repository's refs, holding its read guard until the
    /// entry is in the log, so a replay archives the same refs.
    pub(super) fn op_archive(&self, repo_id: &str) -> Result<ArchiveReport> {
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        let ts = self.tick();
        let header = Header::local(ts, None, "archive", repo_id, true);
        let records = vec![Record::Archived {
            repo_id: repo_id.to_owned(),
        }];
        let applied = self.apply(header, records, Held::Repo(&hosted))?;
        Ok(applied.archive.expect("an Archived record reports"))
    }

    pub(super) fn op_find_repos_citing(&self, author: &str) -> Vec<(String, Vec<RepoPath>)> {
        let mut out = Vec::new();
        for (repo_id, cell) in self.cells() {
            let hosted = cell.read();
            let Ok(head) = hosted.repo.head_commit() else {
                continue;
            };
            let Ok(func) = hosted.function_at(head) else {
                continue;
            };
            let paths: Vec<RepoPath> = func
                .iter()
                .filter(|(_, e)| e.citation.author_list.iter().any(|a| a == author))
                .map(|(p, _)| p.clone())
                .collect();
            if !paths.is_empty() {
                out.push((repo_id, paths));
            }
        }
        out
    }
}
