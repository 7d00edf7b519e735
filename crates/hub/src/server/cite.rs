//! Server-side citation work: the cite ops, `MergeCite`, Zenodo
//! deposits, Software Heritage archiving and the credit queries.

use super::{frontier, ref_moves, unexpected, Held, HostedRepo, Hub, Token};
use crate::api::{ApiRequest, ApiResponse, MergeOutcome, MergeSummary};
use crate::audit::{Header, Record};
use crate::error::{HubError, Result};
use crate::heritage::{ArchiveReport, SwhKind};
use crate::perm::Action;
use crate::zenodo::Deposit;
use citekit::{Citation, CiteOp, MergeCiteOutcome, MergeStrategy, Resolution};
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
    /// given strategy; citation conflicts default to keeping ours (the
    /// interactive path lives in the local tool). A merge whose regular
    /// files conflict is refused with `merge_conflicts` and the count,
    /// moving nothing: resolve it locally and push.
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

    /// Resolves a DOI minted by [`Self::deposit`].
    fn resolve_doi(doi: &str) -> Deposit = ResolveDoi { doi: doi.to_owned() } => Deposit;

    /// Archives a repository into the Software Heritage simulator.
    fn archive(repo_id: &str) -> ArchiveReport = Archive { repo_id: repo_id.to_owned() } => Archive;

    /// Number of archive visits recorded for a repository the hub hosts.
    fn archive_visits(repo_id: &str) -> u64 =
        ArchiveVisits { repo_id: repo_id.to_owned() } => Count;

    /// All hosted repositories whose current citation function credits
    /// `author`, with the citing keys per repository — a platform-wide
    /// credit search. A repository whose citation file cannot be read
    /// fails the search rather than reading as "cites nobody".
    fn find_repos_citing(author: &str) -> Vec<(String, Vec<RepoPath>)> =
        FindReposCiting { author: author.to_owned() } => Credits;

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

    // ----- operations ---------------------------------------------------------
    pub(super) fn cite_op(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
        op: CiteOp,
    ) -> Result<ObjectId> {
        let op_name = match op {
            CiteOp::Add(_) => "add_cite",
            CiteOp::Modify(_) => "modify_cite",
            CiteOp::Del => "del_cite",
        };
        let user = self.auth(token)?;
        self.write_repo(&user, repo_id, op_name, Action::Write, |hosted, ts, ok| {
            let before = frontier(&hosted.repo);
            let edit = citekit::version::commit_op(
                &mut hosted.repo,
                branch,
                path,
                op,
                |repo, blob| hosted.cite_memo.get(repo, blob),
                Signature::new(&user.display_name, &user.email, ts),
                format!("{op_name} {}", path.to_cite_key(false)),
            )
            .map_err(HubError::Cite)?;
            hosted.cite_memo.seed(edit.blob, edit.function);
            self.apply(ok, ref_moves(repo_id, &before, &hosted.repo), Held::None)?;
            Ok(edit.commit)
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
            let before = frontier(&hosted.repo);
            let mut resolver = citekit::FnResolver(
                |_: &RepoPath, o: Option<&Citation>, _: Option<&Citation>, _: Option<&Citation>| {
                    if o.is_some() {
                        Resolution::Ours
                    } else {
                        Resolution::Theirs
                    }
                },
            );
            let report = citekit::version::merge_op(
                &mut hosted.repo,
                branch,
                other_branch,
                Signature::new(&user.display_name, &user.email, ts),
                format!("Merge branch '{other_branch}' into {branch}"),
                strategy,
                &mut resolver,
            )
            .map_err(HubError::Cite)?
            .report;
            let outcome = match report.outcome {
                MergeCiteOutcome::AlreadyUpToDate => MergeOutcome::AlreadyUpToDate,
                MergeCiteOutcome::FastForwarded(id) => MergeOutcome::FastForwarded(id),
                MergeCiteOutcome::Merged(id) => MergeOutcome::Merged(id),
                MergeCiteOutcome::FileConflicts { conflicts, .. } => {
                    let conflicts = gitlite::GitError::MergeConflicts(conflicts.len());
                    return Err(HubError::Git(conflicts));
                }
            };
            self.apply(ok, ref_moves(repo_id, &before, &hosted.repo), Held::None)?;
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

    /// Repositories whose HEAD version credits `author`. One without
    /// commits, or whose HEAD has no `citation.cite`, cites nobody; one
    /// whose `citation.cite` fails to load fails the search with that
    /// error.
    pub(super) fn op_find_repos_citing(
        &self,
        author: &str,
    ) -> Result<Vec<(String, Vec<RepoPath>)>> {
        let mut out = Vec::new();
        for (repo_id, cell) in self.cells() {
            let hosted = cell.read();
            let head = match hosted.repo.head_commit() {
                Ok(head) => head,
                Err(gitlite::GitError::EmptyRepository) => continue,
                Err(e) => return Err(HubError::Git(e)),
            };
            let blob = match hosted.repo.blob_at(head, &citekit::citation_path()) {
                Ok(blob) => blob,
                Err(gitlite::GitError::FileNotFound(_)) => continue,
                Err(e) => return Err(HubError::Git(e)),
            };
            let func = hosted
                .cite_memo
                .get(&hosted.repo, blob)
                .map_err(HubError::Cite)?;
            let paths: Vec<RepoPath> = func
                .iter()
                .filter(|(_, e)| e.citation.author_list.iter().any(|a| a == author))
                .map(|(p, _)| p.clone())
                .collect();
            if !paths.is_empty() {
                out.push((repo_id, paths));
            }
        }
        Ok(out)
    }
}
