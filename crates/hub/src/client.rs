//! Client side of the Cloud Platform API: a typed [`HubClient`] speaking
//! the [`crate::api`] wire protocol through a pluggable [`Transport`].
//!
//! The client never touches [`Hub`] methods — every call is encoded to the
//! sjson wire envelope, handed to the transport as a string, and the
//! response string parsed back. [`InProcess`] is the transport used by the
//! in-repo simulation (the browser extension drives the hub through it);
//! a socket or HTTP transport slots in behind the same one-method trait
//! without touching any client logic.

use crate::api::{
    walk_pages, ApiRequest, ApiResponse, ErrorCode, MergeSummary, MetricsSnapshot, Negotiation,
    Page, PlacementInfo, ReplStatus, RepoBundle, RepoMaintenance, StoreStats,
};
use crate::audit::AuditEvent;
use crate::error::{HubError, Result};
use crate::heritage::{ArchiveReport, SwhKind};
use crate::perm::Role;
use crate::server::{Hub, LogEntry, Token, User};
use crate::zenodo::Deposit;
use citekit::{Citation, MergeStrategy};
use gitlite::{ObjectId, RepoPath, Repository};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Moves one request envelope to a hub and returns its response envelope.
///
/// The whole protocol rides on strings, so implementations range from a
/// function call ([`InProcess`]) to a socket round trip.
pub trait Transport {
    /// Sends an encoded [`ApiRequest`]; returns an encoded
    /// [`ApiResponse`].
    fn send(&self, request: &str) -> String;

    /// Typed round trip: one request in, one response out. The default
    /// rides on [`Transport::send`] — encode, exchange strings, parse —
    /// which is always correct; transports with a richer wire format
    /// (the socket's binary framing moves bundle objects as raw bytes
    /// instead of hex) override this to skip the hex detour.
    fn exchange(&self, request: &ApiRequest) -> ApiResponse {
        let reply = self.send(&request.encode());
        ApiResponse::parse(&reply).unwrap_or_else(ApiResponse::Error)
    }
}

/// The in-process transport: requests go straight to
/// [`Hub::handle_wire`]. Still a full encode → parse → dispatch →
/// encode → parse round trip, so anything that works here works over a
/// real wire.
pub struct InProcess<'h> {
    hub: &'h Hub,
}

impl<'h> InProcess<'h> {
    /// Binds the transport to a hub.
    pub fn new(hub: &'h Hub) -> Self {
        InProcess { hub }
    }
}

impl Transport for InProcess<'_> {
    fn send(&self, request: &str) -> String {
        self.hub.handle_wire(request)
    }
}

/// How [`HubClient::call`] retries after a dropped connection or a shed
/// (`server_busy`) reply: full-jitter exponential backoff, and **only**
/// for idempotent requests (see [`ApiRequest::is_idempotent`]) — a write
/// whose response was lost may already have landed, so replaying it is
/// the caller's deliberate decision, never the client's.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total tries including the first. `1` disables retrying.
    pub attempts: u32,
    /// Backoff before try `n + 1` is drawn uniformly from
    /// `0..=min(base_delay_ms << (n - 1), max_delay_ms)`.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff.
    pub max_delay_ms: u64,
}

impl RetryPolicy {
    /// One full-jitter backoff draw, in milliseconds, before try
    /// `attempt + 1`.
    pub(crate) fn jitter_ms(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1 << attempt.saturating_sub(1).min(16));
        let cap = exp.min(self.max_delay_ms);
        rng.gen_range(0..cap as usize + 1) as u64
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay_ms: 5,
            max_delay_ms: 80,
        }
    }
}

/// A typed client over the wire protocol. Method-for-method equivalent to
/// the hub's typed surface, but every call crosses the protocol boundary.
pub struct HubClient<T> {
    transport: T,
    retry: RetryPolicy,
    // Jitter source; seeded, so test runs back off on the same schedule.
    rng: Mutex<StdRng>,
}

impl<'h> HubClient<InProcess<'h>> {
    /// Client over the in-process transport.
    pub fn in_process(hub: &'h Hub) -> Self {
        HubClient::new(InProcess::new(hub))
    }
}

impl<T: Transport> HubClient<T> {
    /// Client over an arbitrary transport.
    pub fn new(transport: T) -> Self {
        HubClient {
            transport,
            retry: RetryPolicy::default(),
            rng: Mutex::new(StdRng::seed_from_u64(0x6769_7463_6974_6501)),
        }
    }

    /// Replaces the retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The underlying transport (e.g. for instrumentation wrappers that
    /// count bytes on the wire).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Sends one typed request and returns the typed response, with
    /// errors reconstructed from their wire codes. Idempotent requests
    /// that fail with [`HubError::TransportClosed`] or
    /// [`HubError::ServerBusy`] are retried per the [`RetryPolicy`];
    /// everything else surfaces immediately.
    pub fn call(&self, request: ApiRequest) -> Result<ApiResponse> {
        let mut attempt = 1u32;
        loop {
            let result = self.transport.exchange(&request).into_result();
            let retryable = matches!(
                result,
                Err(HubError::TransportClosed(_)) | Err(HubError::ServerBusy { .. })
            );
            if !retryable || attempt >= self.retry.attempts || !request.is_idempotent() {
                return result;
            }
            let jittered = self.retry.jitter_ms(attempt, &mut self.rng.lock());
            if jittered > 0 {
                std::thread::sleep(std::time::Duration::from_millis(jittered));
            }
            attempt += 1;
        }
    }

    /// Sends several requests in one round trip (a batch envelope) and
    /// returns the per-item responses in request order. Item-level
    /// failures come back as [`ApiResponse::Error`] entries without
    /// failing the batch; the `Err` arm is for transport-level trouble
    /// and for a malformed reply — one whose item count differs from the
    /// request's is a [`HubError::Protocol`].
    pub fn batch(&self, requests: Vec<ApiRequest>) -> Result<Vec<ApiResponse>> {
        let expected = requests.len();
        match self.call(ApiRequest::Batch { requests })? {
            ApiResponse::Batch(responses) if responses.len() == expected => Ok(responses),
            ApiResponse::Batch(responses) => Err(HubError::Protocol(format!(
                "batch response has {} items for {expected} requests",
                responses.len()
            ))),
            other => Err(shape(&other)),
        }
    }

    // ----- users & auth ------------------------------------------------------

    /// Registers a user with no login secret (open account).
    pub fn register_user(&self, username: &str, display_name: &str) -> Result<()> {
        match self.call(ApiRequest::RegisterUser {
            username: username.to_owned(),
            display_name: display_name.to_owned(),
            secret: None,
        })? {
            ApiResponse::Unit => Ok(()),
            other => Err(shape(&other)),
        }
    }

    /// Registers a user whose logins must present `secret`.
    pub fn register_user_with_secret(
        &self,
        username: &str,
        display_name: &str,
        secret: &str,
    ) -> Result<()> {
        match self.call(ApiRequest::RegisterUser {
            username: username.to_owned(),
            display_name: display_name.to_owned(),
            secret: Some(secret.to_owned()),
        })? {
            ApiResponse::Unit => Ok(()),
            other => Err(shape(&other)),
        }
    }

    /// Obtains a personal-access token.
    pub fn login(&self, username: &str) -> Result<Token> {
        match self.call(ApiRequest::Login {
            username: username.to_owned(),
            secret: None,
        })? {
            ApiResponse::Token(t) => Ok(Token::new(t)),
            other => Err(shape(&other)),
        }
    }

    /// Obtains a personal-access token for a secret-protected account.
    pub fn login_with_secret(&self, username: &str, secret: &str) -> Result<Token> {
        match self.call(ApiRequest::Login {
            username: username.to_owned(),
            secret: Some(secret.to_owned()),
        })? {
            ApiResponse::Token(t) => Ok(Token::new(t)),
            other => Err(shape(&other)),
        }
    }

    /// Exchanges a token (possibly expired) for a fresh one, revoking the
    /// old.
    pub fn refresh(&self, token: &Token) -> Result<Token> {
        match self.call(ApiRequest::Refresh {
            token: token.as_str().to_owned(),
        })? {
            ApiResponse::Token(t) => Ok(Token::new(t)),
            other => Err(shape(&other)),
        }
    }

    /// Revokes a token.
    pub fn revoke(&self, token: &Token) -> Result<()> {
        match self.call(ApiRequest::Revoke {
            token: token.as_str().to_owned(),
        })? {
            ApiResponse::Unit => Ok(()),
            other => Err(shape(&other)),
        }
    }

    /// Resolves a token to its user.
    pub fn whoami(&self, token: &Token) -> Result<User> {
        match self.call(ApiRequest::Whoami {
            token: token.as_str().to_owned(),
        })? {
            ApiResponse::User(u) => Ok(u),
            other => Err(shape(&other)),
        }
    }

    // ----- repositories ------------------------------------------------------

    /// Creates a repository; returns its id.
    pub fn create_repo(&self, token: &Token, name: &str) -> Result<String> {
        match self.call(ApiRequest::CreateRepo {
            token: token.as_str().to_owned(),
            name: name.to_owned(),
        })? {
            ApiResponse::Id(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// Imports an existing repository; returns its id.
    pub fn import_repo(&self, token: &Token, name: &str, repo: &Repository) -> Result<String> {
        let bundle = crate::api::RepoBundle::from_repository(repo).map_err(HubError::Git)?;
        match self.call(ApiRequest::ImportRepo {
            token: token.as_str().to_owned(),
            name: name.to_owned(),
            bundle,
        })? {
            ApiResponse::Id(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// Grants a role (owner only).
    pub fn add_member(
        &self,
        token: &Token,
        repo_id: &str,
        username: &str,
        role: Role,
    ) -> Result<()> {
        match self.call(ApiRequest::AddMember {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            username: username.to_owned(),
            role,
        })? {
            ApiResponse::Unit => Ok(()),
            other => Err(shape(&other)),
        }
    }

    /// The role a user holds on a repository.
    pub fn role_of(&self, repo_id: &str, username: &str) -> Result<Option<Role>> {
        match self.call(ApiRequest::RoleOf {
            repo_id: repo_id.to_owned(),
            username: username.to_owned(),
        })? {
            ApiResponse::RoleOpt(r) => Ok(r),
            other => Err(shape(&other)),
        }
    }

    /// Whether the token's user may modify citations on the repository.
    pub fn can_write(&self, token: &Token, repo_id: &str) -> Result<bool> {
        match self.call(ApiRequest::CanWrite {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Bool(b) => Ok(b),
            other => Err(shape(&other)),
        }
    }

    /// All repository ids, walked page by page.
    pub fn list_repos(&self) -> Result<Vec<String>> {
        walk_pages(|cursor, limit| self.list_repos_page(cursor, limit))
    }

    // ----- public reads ------------------------------------------------------

    /// Branch names.
    pub fn branches(&self, repo_id: &str) -> Result<Vec<String>> {
        match self.call(ApiRequest::Branches {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Names(names) => Ok(names),
            other => Err(shape(&other)),
        }
    }

    /// File paths at a branch tip.
    pub fn list_files(&self, repo_id: &str, branch: &str) -> Result<Vec<RepoPath>> {
        match self.call(ApiRequest::ListFiles {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
        })? {
            ApiResponse::Paths(paths) => Ok(paths),
            other => Err(shape(&other)),
        }
    }

    /// One file's bytes at a branch tip.
    pub fn read_file(&self, repo_id: &str, branch: &str, path: &RepoPath) -> Result<Vec<u8>> {
        match self.call(ApiRequest::ReadFile {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::FileData(data) => Ok(data),
            other => Err(shape(&other)),
        }
    }

    /// Commit log of a branch, newest first, walked page by page — one
    /// round trip per [`crate::api::MAX_PAGE_SIZE`] entries; prefer
    /// [`HubClient::log_page`] when only the recent history is shown.
    pub fn log(&self, repo_id: &str, branch: &str) -> Result<Vec<LogEntry>> {
        walk_pages(|cursor, limit| self.log_page(repo_id, branch, cursor, limit))
    }

    /// One page of a branch's log: pass `None` to start at the tip, then
    /// the returned `next` cursor to continue.
    pub fn log_page(
        &self,
        repo_id: &str,
        branch: &str,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<LogEntry>> {
        match self.call(ApiRequest::LogPage {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            cursor: cursor.map(str::to_owned),
            limit,
        })? {
            ApiResponse::LogPage(page) => Ok(page),
            other => Err(shape(&other)),
        }
    }

    /// One page of the repository listing, ordered by id.
    pub fn list_repos_page(
        &self,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<String>> {
        match self.call(ApiRequest::ListReposPage {
            cursor: cursor.map(str::to_owned),
            limit,
        })? {
            ApiResponse::NamesPage(page) => Ok(page),
            other => Err(shape(&other)),
        }
    }

    /// One page of the audit log, oldest first.
    pub fn audit_log_page(
        &self,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<AuditEvent>> {
        match self.call(ApiRequest::AuditLogPage {
            cursor: cursor.map(str::to_owned),
            limit,
        })? {
            ApiResponse::AuditPage(page) => Ok(page),
            other => Err(shape(&other)),
        }
    }

    /// Asks the server which of `haves` it already holds reachable from
    /// the repository's refs.
    pub fn negotiate(&self, repo_id: &str, haves: &[ObjectId]) -> Result<Negotiation> {
        match self.call(ApiRequest::Negotiate {
            repo_id: repo_id.to_owned(),
            haves: haves.to_vec(),
        })? {
            ApiResponse::Negotiation(n) => Ok(n),
            other => Err(shape(&other)),
        }
    }

    /// Clones a hosted repository over the wire into a fresh in-memory
    /// repository.
    pub fn clone_repo(&self, repo_id: &str) -> Result<Repository> {
        match self.call(ApiRequest::CloneRepo {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Bundle(bundle) => bundle
                .into_repository(Box::new(gitlite::MemStore::new()))
                .map_err(HubError::Git),
            other => Err(shape(&other)),
        }
    }

    // ----- citations ---------------------------------------------------------

    /// `GenCite` for a node at a branch tip (anonymous).
    pub fn generate_citation(
        &self,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
    ) -> Result<Citation> {
        match self.call(ApiRequest::GenerateCitation {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::Citation(c) => Ok(c),
            other => Err(shape(&other)),
        }
    }

    /// The explicit citation entry at a path, if any.
    pub fn citation_entry(
        &self,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
    ) -> Result<Option<Citation>> {
        match self.call(ApiRequest::CitationEntry {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::CitationOpt(c) => Ok(c),
            other => Err(shape(&other)),
        }
    }

    /// `AddCite` on the remote repository (member+).
    pub fn add_cite(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
        citation: Citation,
    ) -> Result<ObjectId> {
        match self.call(ApiRequest::AddCite {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
            citation,
        })? {
            ApiResponse::Commit(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// `ModifyCite` on the remote repository (member+).
    pub fn modify_cite(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
        citation: Citation,
    ) -> Result<ObjectId> {
        match self.call(ApiRequest::ModifyCite {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
            citation,
        })? {
            ApiResponse::Commit(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// `DelCite` on the remote repository (member+).
    pub fn del_cite(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
    ) -> Result<ObjectId> {
        match self.call(ApiRequest::DelCite {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::Commit(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    // ----- sync --------------------------------------------------------------

    /// Pushes `local_branch` of `local` to `branch` of the hosted
    /// repository. Negotiates first: the server names the commits it
    /// already has, and the request ships only the objects past that
    /// frontier instead of the whole branch closure. Falls back to a
    /// full-closure push when the negotiated push is refused as
    /// malformed, or when the negotiated basis went away between the two
    /// calls (e.g. a concurrent gc after a force push).
    pub fn push(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        local: &Repository,
        local_branch: &str,
        force: bool,
    ) -> Result<ObjectId> {
        match self.push_negotiated(token, repo_id, branch, local, local_branch, force) {
            Err(HubError::Protocol(_))
            | Err(HubError::Git(gitlite::GitError::ObjectNotFound(_))) => {
                self.push_full(token, repo_id, branch, local, local_branch, force)
            }
            result => result,
        }
    }

    /// The negotiated push: have/want exchange, then a delta bundle. Use
    /// [`HubClient::push`] for the wrapper that falls back to a full push.
    pub fn push_negotiated(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        local: &Repository,
        local_branch: &str,
        force: bool,
    ) -> Result<ObjectId> {
        let tip = local.branch_tip(local_branch).map_err(HubError::Git)?;
        let haves = sample_haves(local, tip)?;
        let reply = self.negotiate(repo_id, &haves)?;
        let common: HashSet<ObjectId> = reply.common.into_iter().collect();
        let bundle =
            RepoBundle::delta_from_branch(local, local_branch, &common).map_err(HubError::Git)?;
        match self.call(ApiRequest::Push {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            force,
            bundle,
        })? {
            ApiResponse::Commit(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// The full push: ships the whole closure of the branch in one bundle.
    pub fn push_full(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        local: &Repository,
        local_branch: &str,
        force: bool,
    ) -> Result<ObjectId> {
        let bundle = RepoBundle::from_branch(local, local_branch).map_err(HubError::Git)?;
        match self.call(ApiRequest::Push {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            force,
            bundle,
        })? {
            ApiResponse::Commit(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// Brings the hosted branch up to date with the local one, shipping
    /// nothing when there is nothing to ship: a one-entry `log_page`
    /// first, and if the hosted branch's tip already equals the local
    /// one the push is skipped entirely. Otherwise behaves like
    /// [`HubClient::push`] without force (a branch the server does not
    /// have yet is simply pushed into existence).
    pub fn sync(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        local: &Repository,
        local_branch: &str,
    ) -> Result<ObjectId> {
        let tip = local.branch_tip(local_branch).map_err(HubError::Git)?;
        match self.log_page(repo_id, branch, None, Some(1)) {
            // Exactly current: the *target branch's* tip matches (tip
            // reachability alone is not enough — the commit could sit on
            // a different branch while `branch` lags or does not exist).
            Ok(page) if page.items.first().map(|e| e.id) == Some(tip) => Ok(tip),
            // Behind, missing branch, a malformed reply, or a follower
            // too stale to answer (`not_primary` — over a
            // [`FleetTransport`] the push below re-routes to the primary,
            // so the primary is only ever touched when a push is
            // actually needed): push decides.
            Ok(_)
            | Err(HubError::Protocol(_))
            | Err(HubError::NotPrimary { .. })
            | Err(HubError::Git(gitlite::GitError::BranchNotFound(_))) => {
                self.push(token, repo_id, branch, local, local_branch, false)
            }
            Err(e) => Err(e),
        }
    }

    /// Forks a repository under the token's user.
    pub fn fork(&self, token: &Token, src_repo_id: &str, new_name: &str) -> Result<String> {
        match self.call(ApiRequest::Fork {
            token: token.as_str().to_owned(),
            src_repo_id: src_repo_id.to_owned(),
            new_name: new_name.to_owned(),
        })? {
            ApiResponse::Id(id) => Ok(id),
            other => Err(shape(&other)),
        }
    }

    /// Server-side `MergeCite`.
    pub fn merge_branches(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        other_branch: &str,
        strategy: MergeStrategy,
    ) -> Result<MergeSummary> {
        match self.call(ApiRequest::MergeBranches {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            other_branch: other_branch.to_owned(),
            strategy,
        })? {
            ApiResponse::Merge(m) => Ok(m),
            other => Err(shape(&other)),
        }
    }

    // ----- archives ----------------------------------------------------------

    /// Deposits a branch tip, minting a DOI.
    pub fn deposit(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        title: &str,
    ) -> Result<Deposit> {
        match self.call(ApiRequest::Deposit {
            token: token.as_str().to_owned(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            title: title.to_owned(),
        })? {
            ApiResponse::Deposit(d) => Ok(d),
            other => Err(shape(&other)),
        }
    }

    /// Resolves a minted DOI.
    pub fn resolve_doi(&self, doi: &str) -> Result<Deposit> {
        match self.call(ApiRequest::ResolveDoi {
            doi: doi.to_owned(),
        })? {
            ApiResponse::Deposit(d) => Ok(d),
            other => Err(shape(&other)),
        }
    }

    /// Archives a repository into the Software Heritage simulator.
    pub fn archive(&self, repo_id: &str) -> Result<ArchiveReport> {
        match self.call(ApiRequest::Archive {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Archive(report) => Ok(report),
            other => Err(shape(&other)),
        }
    }

    /// Resolves an archived SWHID.
    pub fn resolve_swhid(&self, swhid: &str) -> Result<(SwhKind, ObjectId)> {
        match self.call(ApiRequest::ResolveSwhid {
            swhid: swhid.to_owned(),
        })? {
            ApiResponse::Swhid(kind, id) => Ok((kind, id)),
            other => Err(shape(&other)),
        }
    }

    /// Archive visits recorded for a repository.
    pub fn archive_visits(&self, repo_id: &str) -> Result<u64> {
        match self.call(ApiRequest::ArchiveVisits {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Count(n) => Ok(n),
            other => Err(shape(&other)),
        }
    }

    // ----- credit & operations -----------------------------------------------

    /// Credited authors of a repository at a branch tip.
    pub fn credited_authors(
        &self,
        repo_id: &str,
        branch: &str,
    ) -> Result<Vec<(String, Vec<RepoPath>)>> {
        match self.call(ApiRequest::CreditedAuthors {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
        })? {
            ApiResponse::Credits(c) => Ok(c),
            other => Err(shape(&other)),
        }
    }

    /// Repositories citing an author.
    pub fn find_repos_citing(&self, author: &str) -> Result<Vec<(String, Vec<RepoPath>)>> {
        match self.call(ApiRequest::FindReposCiting {
            author: author.to_owned(),
        })? {
            ApiResponse::Credits(c) => Ok(c),
            other => Err(shape(&other)),
        }
    }

    /// The audit log, walked page by page.
    pub fn audit_log(&self) -> Result<Vec<AuditEvent>> {
        walk_pages(|cursor, limit| self.audit_log_page(cursor, limit))
    }

    /// Store statistics for one repository.
    pub fn store_stats(&self, repo_id: &str) -> Result<StoreStats> {
        match self.call(ApiRequest::StoreStats {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Stats(s) => Ok(s),
            other => Err(shape(&other)),
        }
    }

    /// Runs storage maintenance over every hosted repository.
    pub fn maintenance(&self) -> Result<Vec<RepoMaintenance>> {
        match self.call(ApiRequest::Maintenance)? {
            ApiResponse::Maintenance(repos) => Ok(repos),
            other => Err(shape(&other)),
        }
    }

    /// The server's telemetry snapshot: per-method call
    /// counts and latency histograms, the socket transport's gauges and
    /// byte counters, and store-layer read statistics. Operator-scoped
    /// over a socket — the token must belong to a user the server
    /// granted the operator capability — which is why, unlike
    /// [`HubClient::maintenance`], it takes one. What `gitcite hub top`
    /// renders.
    pub fn server_metrics(&self, token: Option<&Token>) -> Result<MetricsSnapshot> {
        match self.call(ApiRequest::ServerMetrics {
            token: token.map(|t| t.as_str().to_owned()),
        })? {
            ApiResponse::Metrics(m) => Ok(m),
            other => Err(shape(&other)),
        }
    }

    // ----- replication & placement ---------------------------------------------

    /// The hub's replication status: logical epoch, audit length, every
    /// repository's `(head, refs)` frontier, and the deposit registry.
    /// What a follower's sync round starts from (see [`crate::repl`]).
    pub fn repl_status(&self) -> Result<ReplStatus> {
        match self.call(ApiRequest::ReplStatus)? {
            ApiResponse::ReplStatus(s) => Ok(s),
            other => Err(shape(&other)),
        }
    }

    /// Fetches a replication bundle for one repository: a delta past
    /// the common frontier implied by `haves`, covering **all**
    /// branches (full when nothing is common — the bootstrap path).
    pub fn repl_fetch(&self, repo_id: &str, haves: &[ObjectId]) -> Result<RepoBundle> {
        match self.call(ApiRequest::ReplFetch {
            repo_id: repo_id.to_owned(),
            haves: haves.to_vec(),
        })? {
            ApiResponse::Bundle(bundle) => Ok(bundle),
            other => Err(shape(&other)),
        }
    }

    /// Queries the fleet placement map, resolving the home hub for
    /// `repo_id` when one is named (see [`crate::placement`]).
    pub fn placement(&self, repo_id: Option<&str>) -> Result<PlacementInfo> {
        match self.call(ApiRequest::Placement {
            repo_id: repo_id.map(str::to_owned),
        })? {
            ApiResponse::Placement(p) => Ok(p),
            other => Err(shape(&other)),
        }
    }
}

/// How a [`FleetTransport`] opens a connection to an advertised primary
/// address; `None` when the address is unreachable.
pub type DialFn<T> = Box<dyn Fn(&str) -> Option<T> + Send + Sync>;

/// A fleet-aware transport for read scaling (see [`crate::repl`]):
/// requests go to a follower hub first, and any `not_primary` refusal —
/// a write, or a read the follower cannot serve inside its staleness
/// bound — is transparently retried against the primary at the address
/// the error carries. The primary connection is dialed lazily on the
/// first redirect and cached; once known, non-idempotent requests skip
/// the follower round trip entirely (the redirect is certain).
///
/// Wrap it in a [`HubClient`] like any other transport:
/// `HubClient::new(FleetTransport::new(follower, dial))`.
pub struct FleetTransport<T> {
    follower: T,
    dial: DialFn<T>,
    primary: Mutex<Option<(String, T)>>,
}

impl<T: Transport> FleetTransport<T> {
    /// Reads ride `follower`; `dial` opens a connection to an advertised
    /// primary address on the first redirect (returning `None` when the
    /// address is unreachable, in which case the refusal surfaces to the
    /// caller unchanged).
    pub fn new(follower: T, dial: impl Fn(&str) -> Option<T> + Send + Sync + 'static) -> Self {
        FleetTransport {
            follower,
            dial: Box::new(dial),
            primary: Mutex::new(None),
        }
    }

    /// The follower transport reads are routed to.
    pub fn follower(&self) -> &T {
        &self.follower
    }

    /// The primary address learned from redirects so far, if any.
    pub fn primary_addr(&self) -> Option<String> {
        self.primary.lock().as_ref().map(|(addr, _)| addr.clone())
    }

    /// Runs `f` against a (dialed-and-cached) primary connection for
    /// `addr`; `None` when dialing fails. The lock is held across the
    /// call, serializing primary traffic from this transport.
    fn with_primary<R>(&self, addr: &str, f: impl FnOnce(&T) -> R) -> Option<R> {
        let mut guard = self.primary.lock();
        if guard.as_ref().is_none_or(|(cached, _)| cached != addr) {
            *guard = Some((addr.to_owned(), (self.dial)(addr)?));
        }
        guard.as_ref().map(|(_, t)| f(t))
    }
}

/// The primary address a `not_primary` refusal advertises, if that is
/// what `response` is.
fn not_primary_addr(response: &ApiResponse) -> Option<String> {
    match response {
        ApiResponse::Error(e) if e.code == ErrorCode::NotPrimary => e.detail.clone(),
        _ => None,
    }
}

impl<T: Transport> Transport for FleetTransport<T> {
    fn send(&self, request: &str) -> String {
        let reply = self.follower.send(request);
        let parsed = ApiResponse::parse(&reply).unwrap_or_else(ApiResponse::Error);
        if let Some(addr) = not_primary_addr(&parsed) {
            if let Some(retried) = self.with_primary(&addr, |t| t.send(request)) {
                return retried;
            }
        }
        reply
    }

    fn exchange(&self, request: &ApiRequest) -> ApiResponse {
        if !request.is_idempotent() {
            let guard = self.primary.lock();
            if let Some((_, t)) = guard.as_ref() {
                return t.exchange(request);
            }
        }
        let response = self.follower.exchange(request);
        if let Some(addr) = not_primary_addr(&response) {
            if let Some(retried) = self.with_primary(&addr, |t| t.exchange(request)) {
                return retried;
            }
        }
        response
    }
}

fn shape(response: &ApiResponse) -> HubError {
    HubError::Protocol(format!(
        "response shape does not match the request (got {})",
        response.kind()
    ))
}

/// Have sample for negotiation: the tip, every commit of the recent
/// first-parent history, then exponentially sparser picks, plus the root
/// (so histories sharing only their origin still negotiate a basis).
/// Capped — a sparse sample merely means a few already-known commits get
/// re-sent, never a wrong result.
fn sample_haves(local: &Repository, tip: ObjectId) -> Result<Vec<ObjectId>> {
    const DENSE: usize = 16;
    const CAP: usize = 64;
    let chain = local.first_parent_chain(tip).map_err(HubError::Git)?;
    let mut haves = Vec::new();
    let mut idx = 0;
    let mut step = 1;
    while idx < chain.len() && haves.len() < CAP {
        haves.push(chain[idx]);
        if haves.len() >= DENSE {
            step *= 2;
        }
        idx += step;
    }
    if let Some(&root) = chain.last() {
        if haves.last() != Some(&root) {
            haves.push(root);
        }
    }
    Ok(haves)
}
