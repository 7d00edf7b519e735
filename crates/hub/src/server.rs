//! The hub itself: users, tokens, hosted repositories and the versioned
//! Cloud Platform API (paper Figure 1's "Project Hosting Platform" +
//! "Cloud Platform API").
//!
//! # API surface
//!
//! Every operation is a [`crate::api::ApiRequest`] routed through
//! [`Hub::dispatch`]; [`Hub::handle_wire`] is the same router behind the
//! sjson wire encoding. The typed methods (`login`, `add_cite`, `push`,
//! ...) are thin wrappers that build the request, dispatch it, and unpack
//! the typed result — so the wire protocol is, by construction, the
//! complete surface; the whole-listing helpers (`log`, `audit_log`,
//! `list_repos`) walk the paginated reads. Negotiated pushes land through
//! `apply_delta_push`; see [`crate::api`] for the wire format.
//!
//! # Locking
//!
//! State is sharded so the read-heavy citation workload scales:
//!
//! * `users` / `tokens` — `RwLock`ed tables (auth is a shared read).
//! * `repos` — an `RwLock` map of `Arc<RwLock<HostedRepo>>`. Reads on
//!   different repositories touch different locks entirely; shared reads
//!   on the *same* repository (generate_citation, read_file, log, ...)
//!   proceed concurrently under one read guard.
//! * `audit` / `zenodo` / `heritage` — leaf `Mutex`es around append-mostly
//!   simulators.
//! * `clock` / token counter — atomics.
//!
//! Lock order: a repository lock is only ever taken *after* the `repos`
//! map guard has been dropped (the `Arc` is cloned out), and the leaf
//! mutexes never take any other lock — so the order
//! `users/tokens → repos map → one repository → leaf` is acyclic and
//! deadlock-free. The abuse-resistance tables added for untrusted
//! deployments (`credentials`, `login_states`, the token buckets and
//! `repo_bytes`) are leaves in the same sense: each is locked briefly
//! and never while holding another lock.
//!
//! # Credentials, lockout, quotas
//!
//! See [`crate::perm`] for the full model. In short: users may enroll a
//! secret at registration (stored as a salted SHA-256, verified
//! constant-time), tokens can carry a hub-clock expiry and be
//! `refresh`ed, repeated failed logins lock the account out with decay,
//! and [`Hub::set_limits`] arms per-user/per-repo token buckets plus
//! bundle/repository size quotas — all off by default, all denials
//! audited and tallied in the `limits` section of
//! [`Hub::server_metrics`].

use crate::api::{
    walk_pages, ApiRequest, ApiResponse, FollowerClass, LimitsMetrics, MergeOutcome, MergeSummary,
    MethodMetrics, MetricsSnapshot, Negotiation, Page, PlacementInfo, ReplRepoStatus, ReplStatus,
    RepoBundle, RepoMaintenance, StoreMetrics, StoreStats, TransportMetrics, WireHistogram,
    DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE,
};
use crate::audit::{AuditEvent, AuditLog};
use crate::error::{HubError, Result};
use crate::heritage::{ArchiveReport, Heritage, SwhKind};
use crate::perm::{Action, Role};
use crate::placement::Placement;
use crate::repl::ReplState;
use crate::zenodo::{Deposit, Zenodo};
use citekit::{Citation, CitedRepo, ForkOptions, MergeStrategy, Resolution};
use gitlite::{ObjectId, RepoPath, Repository, Signature};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An opaque personal-access token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token(String);

impl Token {
    /// Wraps a raw token string (e.g. one pasted into the popup's
    /// credential box, or received over the wire).
    pub fn new(raw: impl Into<String>) -> Token {
        Token(raw.into())
    }

    /// The raw token string (for display in the popup's credential box).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// A registered user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    /// Login name (unique).
    pub username: String,
    /// Display name used in citations and commit signatures.
    pub display_name: String,
    /// Email used in commit signatures.
    pub email: String,
}

#[derive(Debug)]
struct HostedRepo {
    repo: Repository,
    /// username → role. Absence means Reader (public repositories).
    roles: BTreeMap<String, Role>,
}

type RepoCell = Arc<RwLock<HostedRepo>>;

/// One repository's derived replication cursor as the follower sees it:
/// `(current branch, branch tips)`.
type LocalFrontier = (Option<String>, Vec<(String, ObjectId)>);

/// Factory producing the object-store backend for each newly created
/// hosted repository. Defaults to in-memory [`gitlite::MemStore`]s; a
/// deployment can plug in durable or cached backends without touching
/// any server logic (every repository operation goes through the
/// [`gitlite::ObjectStore`] trait).
pub type StoreFactory = Box<dyn Fn() -> Box<dyn gitlite::ObjectStore> + Send + Sync>;

/// One latency measurement per this many dispatches (see
/// [`Hub::dispatch`] for why latency is sampled at all).
const LATENCY_SAMPLE: u64 = 16;

/// Dispatch instrumentation for one wire method: lock-cheap cells for
/// the hot path (relaxed atomic bumps), a small mutexed tally map
/// touched only on the error path.
#[derive(Debug, Default)]
struct MethodStats {
    calls: telemetry::Counter,
    /// Dispatch latency, microseconds — a 1-in-[`LATENCY_SAMPLE`]
    /// sample of calls, so its `count` is the number of *timed* calls,
    /// not the (exact) `calls` counter.
    latency: telemetry::Histogram,
    /// error code → occurrences.
    errors: Mutex<BTreeMap<String, u64>>,
}

/// Consecutive failed logins before an account locks out.
pub const MAX_LOGIN_FAILURES: u32 = 5;

/// How long (hub-clock ticks) a locked-out account stays locked.
pub const LOCKOUT_TICKS: i64 = 60;

/// A failure streak decays to zero after this many ticks without a new
/// failure, so one fat-fingered week-old attempt never compounds.
pub const FAILURE_DECAY_TICKS: i64 = 60;

/// An enrolled login secret: `hash = SHA-256(salt ‖ secret)`. The salt is
/// derived deterministically per user (username + registration tick), so
/// identical secrets still hash differently across users and a stolen
/// table cannot be attacked with one precomputed dictionary.
#[derive(Clone)]
struct Credential {
    salt: [u8; 16],
    hash: [u8; 32],
}

impl Credential {
    fn derive(username: &str, registered_at: i64, secret: &str) -> Credential {
        let mut h = sha2::Sha256::new();
        h.update(b"gitcite.credential.salt\x00");
        h.update(username.as_bytes());
        h.update(&registered_at.to_be_bytes());
        let digest = h.finalize();
        let mut salt = [0u8; 16];
        salt.copy_from_slice(&digest[..16]);
        let hash = Self::hash_with(&salt, secret);
        Credential { salt, hash }
    }

    fn hash_with(salt: &[u8; 16], secret: &str) -> [u8; 32] {
        let mut h = sha2::Sha256::new();
        h.update(salt);
        h.update(secret.as_bytes());
        h.finalize()
    }

    fn verify(&self, secret: &str) -> bool {
        sha2::ct_eq(&Self::hash_with(&self.salt, secret), &self.hash)
    }
}

/// A minted token's session entry.
#[derive(Clone)]
struct TokenEntry {
    username: String,
    /// Hub-clock tick past which [`Hub::auth`] refuses with
    /// `TokenExpired`; `None` = no expiry (the default).
    expires_at: Option<i64>,
}

/// Per-user failed-login tracking (brute-force lockout with decay).
#[derive(Default)]
struct LoginState {
    failures: u32,
    last_failure: i64,
    locked_until: i64,
}

/// One deterministic token bucket, refilled by the hub clock — tests
/// drive it exactly via `advance_clock`, production drives it via the
/// mutating-operation ticks.
struct TokenBucket {
    tokens: u64,
    last_refill: i64,
}

impl TokenBucket {
    /// Refills for elapsed ticks, then tries to take one token.
    fn try_take(&mut self, now: i64, limit: RateLimit) -> bool {
        let elapsed = (now - self.last_refill).max(0) as u64;
        self.tokens = self
            .tokens
            .saturating_add(elapsed.saturating_mul(limit.refill_per_tick))
            .min(limit.capacity);
        self.last_refill = now;
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// A token-bucket shape: sustained rate `refill_per_tick` with bursts up
/// to `capacity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket size — how many requests may burst back-to-back.
    pub capacity: u64,
    /// Tokens restored per hub-clock tick (sustained rate).
    pub refill_per_tick: u64,
}

/// Abuse-resistance configuration, all off by default. Armed via
/// [`Hub::set_limits`]; every `None` disables that check entirely, so an
/// unconfigured hub behaves exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LimitsConfig {
    /// Per-user bucket charged for every token-bearing request.
    pub user_rate: Option<RateLimit>,
    /// Per-repository bucket charged for every request naming a repo.
    pub repo_rate: Option<RateLimit>,
    /// Largest push/import bundle accepted, in summed object bytes.
    pub max_bundle_bytes: Option<u64>,
    /// Cap on a repository's accumulated accepted object bytes
    /// (import + pushes) — checked before any object lands.
    pub max_repo_bytes: Option<u64>,
}

/// The hosting platform.
pub struct Hub {
    users: RwLock<BTreeMap<String, User>>,
    tokens: RwLock<HashMap<String, TokenEntry>>, // token → session
    /// Enrolled login secrets (username → salted hash). Users without an
    /// entry keep the paper simulator's open username-only login unless
    /// [`Hub::set_auth_required`] closes it.
    credentials: RwLock<HashMap<String, Credential>>,
    /// Failed-login streaks and lockouts, keyed by username.
    login_states: Mutex<HashMap<String, LoginState>>,
    limits: RwLock<LimitsConfig>,
    user_buckets: Mutex<HashMap<String, TokenBucket>>,
    repo_buckets: Mutex<HashMap<String, TokenBucket>>,
    /// Object bytes accepted over the wire per repository — the basis
    /// the `max_repo_bytes` quota is enforced against.
    repo_bytes: Mutex<HashMap<String, u64>>,
    /// Token lifetime in hub-clock ticks; 0 = tokens never expire.
    token_ttl: AtomicI64,
    /// When set, registration and login both require a secret.
    auth_required: AtomicBool,
    /// Denial tallies (plain fields, not registry instruments: the
    /// registry's emptiness is the "has a transport attached" signal).
    auth_failures: telemetry::Counter,
    rate_rejections: telemetry::Counter,
    quota_rejections: telemetry::Counter,
    repos: RwLock<BTreeMap<String, RepoCell>>,
    audit: Mutex<AuditLog>,
    zenodo: Mutex<Zenodo>,
    heritage: Mutex<Heritage>,
    clock: AtomicI64,
    next_token: AtomicU64,
    /// Base URL used when synthesizing repository URLs.
    base_url: String,
    /// Backend factory for server-side repositories.
    store_factory: StoreFactory,
    /// Per-method dispatch stats (calls, latency, error tallies), one
    /// flat slot per [`crate::api::METHOD_NAMES`] entry — the dispatch
    /// hot path indexes an array, it never takes a lock or clones an
    /// `Arc`.
    method_stats: Box<[MethodStats]>,
    /// Shared instrument registry: the socket transport hangs its
    /// gauges and counters here (see [`Hub::metrics`]), which is how
    /// `server_metrics` sees reactor state without a dependency cycle.
    metrics: Arc<telemetry::Registry>,
    /// Structured-tracing facade; sinks attach via `GITCITE_TRACE`
    /// (stderr JSON lines) or [`Hub::tracer`].
    tracer: telemetry::Tracer,
    /// Dispatch instrumentation switch — the observability bench
    /// measures both sides of it. On by default.
    metrics_enabled: AtomicBool,
    /// Usernames holding the operator capability (`server_metrics`
    /// over sockets, like `maintenance` is operator-only there).
    operators: RwLock<HashSet<String>>,
    /// Follower-mode replication state. `Some` routes every dispatch
    /// through the follower gate (see [`Hub::set_follower`] and
    /// [`crate::repl`]); `None` is an ordinary primary hub.
    repl: RwLock<Option<Arc<ReplState>>>,
    /// Fleet placement map served by the `placement` endpoint; `None`
    /// until an operator installs one via [`Hub::set_placement`].
    placement: RwLock<Option<Placement>>,
}

impl Default for Hub {
    fn default() -> Self {
        Hub::new("")
    }
}

/// A log entry returned by [`Hub::log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Commit id.
    pub id: ObjectId,
    /// Author display name.
    pub author: String,
    /// Commit timestamp.
    pub timestamp: i64,
    /// Commit message.
    pub message: String,
}

impl Hub {
    /// Creates a hub whose repositories live under `base_url`
    /// (e.g. `https://hub.example`).
    pub fn new(base_url: impl Into<String>) -> Self {
        Self::with_store_factory(base_url, Box::new(|| Box::new(gitlite::MemStore::new())))
    }

    /// [`Hub::new`] with a custom object-store backend per repository —
    /// e.g. `DiskStore`s under a data directory, or `CachedStore`s for
    /// read-heavy serving.
    pub fn with_store_factory(base_url: impl Into<String>, store_factory: StoreFactory) -> Self {
        Hub {
            users: RwLock::new(BTreeMap::new()),
            tokens: RwLock::new(HashMap::new()),
            credentials: RwLock::new(HashMap::new()),
            login_states: Mutex::new(HashMap::new()),
            limits: RwLock::new(LimitsConfig::default()),
            user_buckets: Mutex::new(HashMap::new()),
            repo_buckets: Mutex::new(HashMap::new()),
            repo_bytes: Mutex::new(HashMap::new()),
            token_ttl: AtomicI64::new(0),
            auth_required: AtomicBool::new(false),
            auth_failures: telemetry::Counter::default(),
            rate_rejections: telemetry::Counter::default(),
            quota_rejections: telemetry::Counter::default(),
            repos: RwLock::new(BTreeMap::new()),
            audit: Mutex::new(AuditLog::default()),
            zenodo: Mutex::new(Zenodo::default()),
            heritage: Mutex::new(Heritage::default()),
            clock: AtomicI64::new(0),
            next_token: AtomicU64::new(0),
            base_url: base_url.into(),
            store_factory,
            method_stats: crate::api::METHOD_NAMES
                .iter()
                .map(|_| MethodStats::default())
                .collect(),
            metrics: Arc::new(telemetry::Registry::new()),
            tracer: telemetry::Tracer::from_env(),
            metrics_enabled: AtomicBool::new(true),
            operators: RwLock::new(HashSet::new()),
            repl: RwLock::new(None),
            placement: RwLock::new(None),
        }
    }

    /// [`Hub::new`] with durable packfile storage: each hosted repository
    /// is created on a `CachedStore<PackStore>` rooted under its own
    /// subdirectory of `data_dir` (`repo-0`, `repo-1`, ...). Reads hit
    /// the LRU, cold loads come from buffered packs, and new pushes land
    /// as loose objects until maintenance repacks them — the server-side
    /// counterpart of the local tool's `.gitcite/objects` layout.
    ///
    /// Errors if `data_dir` cannot be created; per-repository stores are
    /// then created lazily by the factory. Directories left behind by an
    /// earlier hub over the same `data_dir` are skipped, never reused —
    /// the repo registry itself is in-memory, so a fresh hub must not
    /// silently adopt (or trip over) a previous run's objects.
    pub fn with_pack_storage(
        base_url: impl Into<String>,
        data_dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Self> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)?;
        let next = AtomicU64::new(0);
        Ok(Self::with_store_factory(
            base_url,
            Box::new(move || {
                let root = loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    let candidate = data_dir.join(format!("repo-{n}"));
                    if !candidate.exists() {
                        break candidate;
                    }
                };
                let store =
                    gitlite::PackStore::open(root).expect("hub data directory must stay writable");
                Box::new(gitlite::CachedStore::new(store))
            }),
        ))
    }

    /// Repository URL for an id.
    pub fn repo_url(&self, repo_id: &str) -> String {
        format!("{}/{}", self.base_url, repo_id)
    }

    // ----- the router --------------------------------------------------------

    /// Routes one typed request to its operation. Every public hub
    /// operation is reachable here; the typed methods below are wrappers
    /// over this single entry point.
    pub fn dispatch(&self, request: ApiRequest) -> ApiResponse {
        if !self.metrics_enabled.load(Ordering::Relaxed) {
            return match self.route(request) {
                Ok(response) => response,
                Err(e) => ApiResponse::from_error(&e),
            };
        }
        // Batch items recurse through this same entry point, so each is
        // counted and timed individually in addition to the envelope.
        // Span construction allocates its field strings, so it is built
        // only when a sink is actually attached.
        let _span = if self.tracer.enabled() {
            Some(
                self.tracer
                    .span("dispatch")
                    .field("method", request.method())
                    .enter(),
            )
        } else {
            None
        };
        let stats = &self.method_stats[request.method_index()];
        // Latency is sampled 1-in-LATENCY_SAMPLE: the two monotonic clock
        // reads cost more than all the counter bumps combined, and on
        // the microsecond-scale read path paying them every call blows
        // the <2% overhead budget. Sampling keys off the call counter,
        // so the first call of every method is always timed and sparse
        // methods still get real quantiles; `calls` stays exact.
        let sampled = stats.calls.bump().is_multiple_of(LATENCY_SAMPLE);
        let start = sampled.then(Instant::now);
        let response = match self.route(request) {
            Ok(response) => response,
            Err(e) => ApiResponse::from_error(&e),
        };
        if let Some(start) = start {
            let elapsed_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            stats.latency.record(elapsed_us);
        }
        if let ApiResponse::Error(e) = &response {
            *stats
                .errors
                .lock()
                .entry(e.code.as_str().to_owned())
                .or_insert(0) += 1;
        }
        response
    }

    /// [`Hub::dispatch`] behind the sjson wire encoding: parses the
    /// request envelope, routes it, and encodes the response envelope.
    /// This is the function a socket/HTTP transport would expose.
    pub fn handle_wire(&self, request: &str) -> String {
        match ApiRequest::parse(request) {
            Ok(req) => self.dispatch(req).encode(),
            Err(e) => ApiResponse::Error(e).encode(),
        }
    }

    fn route(&self, request: ApiRequest) -> Result<ApiResponse> {
        use ApiRequest as Q;
        use ApiResponse as R;
        // Abuse resistance runs before any operation logic: a
        // rate-limited caller costs two map lookups and a bucket charge,
        // never a repository lock. Batch envelopes carry no token or
        // repo, so only their items (which recurse through dispatch)
        // are charged.
        self.enforce_rate_limits(&request)?;
        // Follower gate: a replica refuses writes (and reads it cannot
        // answer faithfully or freshly) with a typed redirect to the
        // primary. No-op on ordinary hubs.
        self.check_follower(&request)?;
        Ok(match request {
            Q::RegisterUser {
                username,
                display_name,
                secret,
            } => {
                self.op_register_user(&username, &display_name, secret.as_deref())?;
                R::Unit
            }
            Q::Login { username, secret } => R::Token(self.op_login(&username, secret.as_deref())?),
            Q::Refresh { token } => R::Token(self.op_refresh(&token)?),
            Q::Revoke { token } => {
                self.tokens.write().remove(&token);
                R::Unit
            }
            Q::Whoami { token } => R::User(self.auth(&token)?),
            Q::CreateRepo { token, name } => R::Id(self.op_create_repo(&token, &name)?),
            Q::ImportRepo {
                token,
                name,
                bundle,
            } => R::Id(self.op_import_repo(&token, &name, &bundle)?),
            Q::AddMember {
                token,
                repo_id,
                username,
                role,
            } => {
                self.op_add_member(&token, &repo_id, &username, role)?;
                R::Unit
            }
            Q::RoleOf { repo_id, username } => {
                let cell = self.repo(&repo_id)?;
                let role = cell.read().roles.get(&username).copied();
                R::RoleOpt(role)
            }
            Q::CanWrite { token, repo_id } => {
                let user = self.auth(&token)?;
                let cell = self.repo(&repo_id)?;
                let allowed = cell
                    .read()
                    .roles
                    .get(&user.username)
                    .copied()
                    .unwrap_or(Role::Reader)
                    .allows(Action::Write);
                R::Bool(allowed)
            }
            Q::Branches { repo_id } => {
                let cell = self.repo(&repo_id)?;
                let names = cell
                    .read()
                    .repo
                    .branches()
                    .map(|(b, _)| b.to_owned())
                    .collect();
                R::Names(names)
            }
            Q::ListFiles { repo_id, branch } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                R::Paths(
                    hosted
                        .repo
                        .snapshot(tip)
                        .map_err(HubError::Git)?
                        .into_keys()
                        .collect(),
                )
            }
            Q::ReadFile {
                repo_id,
                branch,
                path,
            } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                R::FileData(
                    hosted
                        .repo
                        .file_at(tip, &path)
                        .map_err(HubError::Git)?
                        .to_vec(),
                )
            }
            Q::LogPage {
                repo_id,
                branch,
                cursor,
                limit,
            } => R::LogPage(self.op_log_page(&repo_id, &branch, cursor.as_deref(), limit)?),
            Q::AuditLogPage { cursor, limit } => {
                R::AuditPage(self.op_audit_log_page(cursor.as_deref(), limit)?)
            }
            Q::ListReposPage { cursor, limit } => {
                R::NamesPage(self.op_list_repos_page(cursor.as_deref(), limit))
            }
            Q::Negotiate { repo_id, haves } => R::Negotiation(self.op_negotiate(&repo_id, &haves)?),
            Q::CloneRepo { repo_id } => {
                let cell = self.repo(&repo_id)?;
                let bundle = {
                    let hosted = cell.read();
                    RepoBundle::from_repository(&hosted.repo).map_err(HubError::Git)?
                };
                let ts = self.tick();
                self.record(ts, None, "clone", &repo_id, true);
                R::Bundle(bundle)
            }
            Q::GenerateCitation {
                repo_id,
                branch,
                path,
            } => {
                let cell = self.repo(&repo_id)?;
                let citation = {
                    let hosted = cell.read();
                    let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                    let cited = CitedRepo::open(hosted.repo.clone()).map_err(HubError::Cite)?;
                    cited.cite_at(tip, &path).map_err(HubError::Cite)?
                };
                let ts = self.tick();
                self.record(ts, None, "generate_citation", &repo_id, true);
                R::Citation(citation)
            }
            Q::CitationEntry {
                repo_id,
                branch,
                path,
            } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                let text = hosted
                    .repo
                    .file_at(tip, &citekit::citation_path())
                    .map_err(HubError::Git)?;
                let func = citekit::file::parse(&String::from_utf8_lossy(&text))
                    .map_err(HubError::Cite)?;
                R::CitationOpt(func.get(&path).cloned())
            }
            Q::AddCite {
                token,
                repo_id,
                branch,
                path,
                citation,
            } => R::Commit(self.cite_op(
                &token,
                &repo_id,
                &branch,
                "add_cite",
                move |cited, p| cited.add_cite(p, citation),
                &path,
            )?),
            Q::ModifyCite {
                token,
                repo_id,
                branch,
                path,
                citation,
            } => R::Commit(self.cite_op(
                &token,
                &repo_id,
                &branch,
                "modify_cite",
                move |cited, p| cited.modify_cite(p, citation).map(|_| ()),
                &path,
            )?),
            Q::DelCite {
                token,
                repo_id,
                branch,
                path,
            } => R::Commit(self.cite_op(
                &token,
                &repo_id,
                &branch,
                "del_cite",
                move |cited, p| cited.del_cite(p).map(|_| ()),
                &path,
            )?),
            Q::Push {
                token,
                repo_id,
                branch,
                force,
                bundle,
            } => R::Commit(self.op_push(&token, &repo_id, &branch, force, &bundle)?),
            Q::Fork {
                token,
                src_repo_id,
                new_name,
            } => R::Id(self.op_fork(&token, &src_repo_id, &new_name)?),
            Q::MergeBranches {
                token,
                repo_id,
                branch,
                other_branch,
                strategy,
            } => R::Merge(self.op_merge(&token, &repo_id, &branch, &other_branch, strategy)?),
            Q::Deposit {
                token,
                repo_id,
                branch,
                title,
            } => R::Deposit(self.op_deposit(&token, &repo_id, &branch, &title)?),
            Q::ResolveDoi { doi } => R::Deposit(
                self.zenodo
                    .lock()
                    .resolve(&doi)
                    .cloned()
                    .ok_or(HubError::DoiNotFound(doi))?,
            ),
            Q::Archive { repo_id } => {
                let cell = self.repo(&repo_id)?;
                let repo = cell.read().repo.clone();
                let origin = format!("{}/{}", self.base_url, repo_id);
                let report = self.heritage.lock().archive(&origin, &repo)?;
                let ts = self.tick();
                self.record(ts, None, "archive", &repo_id, true);
                R::Archive(report)
            }
            Q::ResolveSwhid { swhid } => {
                let (kind, id) = self.heritage.lock().resolve(&swhid)?;
                R::Swhid(kind, id)
            }
            Q::ArchiveVisits { repo_id } => {
                let origin = format!("{}/{}", self.base_url, repo_id);
                R::Count(self.heritage.lock().visits(&origin) as u64)
            }
            Q::CreditedAuthors { repo_id, branch } => {
                let cell = self.repo(&repo_id)?;
                let mut work = cell.read().repo.clone();
                work.checkout_branch(&branch).map_err(HubError::Git)?;
                let cited = CitedRepo::open(work).map_err(HubError::Cite)?;
                R::Credits(cited.credited_authors())
            }
            Q::FindReposCiting { author } => R::Credits(self.op_find_repos_citing(&author)),
            Q::StoreStats { repo_id } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                R::Stats(StoreStats {
                    repo_id,
                    objects: hosted.repo.odb().len() as u64,
                    cache: hosted.repo.odb().cache_metrics(),
                    graph_commits: hosted.repo.odb().commit_graph().map(|g| g.len() as u64),
                    delta_objects: hosted.repo.odb().delta_objects(),
                    bloom_commits: hosted
                        .repo
                        .odb()
                        .commit_graph()
                        .map(|g| g.bloom_coverage() as u64),
                })
            }
            Q::Maintenance => R::Maintenance(self.op_maintenance()?),
            Q::ServerMetrics { token } => {
                // Tokenless requests are the trusted in-process path
                // (sockets always attach a token; see the transport's
                // operator seam). A token, wherever it came from, must
                // belong to an operator.
                if let Some(token) = &token {
                    let user = self.auth(token)?;
                    if !self.operators.read().contains(&user.username) {
                        return Err(HubError::PermissionDenied(
                            "server_metrics requires the operator capability".into(),
                        ));
                    }
                }
                R::Metrics(self.op_server_metrics())
            }
            Q::AdvanceClock { ts } => {
                self.clock.fetch_max(ts, Ordering::SeqCst);
                R::Unit
            }
            Q::Batch { requests } => {
                // Execute in request order; a failed item becomes an
                // error entry in the response list without aborting its
                // siblings. The parser refuses nested batches, but guard
                // here too for requests built in-process.
                let responses = requests
                    .into_iter()
                    .map(|inner| {
                        if matches!(inner, Q::Batch { .. }) {
                            ApiResponse::from_error(&HubError::Protocol(
                                "batch requests cannot nest".into(),
                            ))
                        } else {
                            self.dispatch(inner)
                        }
                    })
                    .collect();
                R::Batch(responses)
            }
            Q::ReplStatus => R::ReplStatus(self.op_repl_status()),
            Q::ReplFetch { repo_id, haves } => R::Bundle(self.op_repl_fetch(&repo_id, &haves)?),
            Q::Placement { repo_id } => R::Placement(self.op_placement(repo_id.as_deref())),
        })
    }

    /// The follower-mode dispatch gate (see [`crate::repl`] for the
    /// model): the method table's [`FollowerClass`] decides, per request,
    /// whether a replica may serve it or must answer
    /// [`HubError::NotPrimary`] with the primary's address, which
    /// fleet-aware clients follow transparently.
    fn check_follower(&self, request: &ApiRequest) -> Result<()> {
        let state = match self.repl.read().as_ref() {
            Some(state) => Arc::clone(state),
            None => return Ok(()),
        };
        let redirect = || HubError::NotPrimary {
            primary: state.primary().to_owned(),
        };
        match request.follower_class() {
            FollowerClass::Write => Err(redirect()),
            FollowerClass::KnownUser(username) => {
                if self.users.read().contains_key(username) {
                    Ok(())
                } else {
                    Err(redirect())
                }
            }
            FollowerClass::Read => {
                if state.is_stale(crate::repl::unix_now()) {
                    Err(redirect())
                } else {
                    Ok(())
                }
            }
            FollowerClass::Local => Ok(()),
        }
    }

    // ----- typed wrappers: users & auth --------------------------------------

    /// Registers a user with open (username-only) login — the paper
    /// simulator's trust model, refused when [`Hub::set_auth_required`]
    /// is on.
    pub fn register_user(&self, username: &str, display_name: &str) -> Result<()> {
        self.expect_unit(ApiRequest::RegisterUser {
            username: username.to_owned(),
            display_name: display_name.to_owned(),
            secret: None,
        })
    }

    /// Registers a user and enrolls a login secret: every future login
    /// must present it (verified against a salted hash, constant-time).
    pub fn register_user_with_secret(
        &self,
        username: &str,
        display_name: &str,
        secret: &str,
    ) -> Result<()> {
        self.expect_unit(ApiRequest::RegisterUser {
            username: username.to_owned(),
            display_name: display_name.to_owned(),
            secret: Some(secret.to_owned()),
        })
    }

    /// Issues a personal-access token (the credential the popup asks
    /// for). Open login: refused for users enrolled with a secret (use
    /// [`Hub::login_with_secret`]) and on auth-required hubs.
    pub fn login(&self, username: &str) -> Result<Token> {
        match self.unwrap(ApiRequest::Login {
            username: username.to_owned(),
            secret: None,
        })? {
            ApiResponse::Token(t) => Ok(Token(t)),
            other => Err(unexpected(&other)),
        }
    }

    /// Issues a token after verifying the user's enrolled secret.
    pub fn login_with_secret(&self, username: &str, secret: &str) -> Result<Token> {
        match self.unwrap(ApiRequest::Login {
            username: username.to_owned(),
            secret: Some(secret.to_owned()),
        })? {
            ApiResponse::Token(t) => Ok(Token(t)),
            other => Err(unexpected(&other)),
        }
    }

    /// Exchanges a known (possibly expired) token for a fresh one with a
    /// new lifetime; the old token is revoked.
    pub fn refresh(&self, token: &Token) -> Result<Token> {
        match self.unwrap(ApiRequest::Refresh {
            token: token.0.clone(),
        })? {
            ApiResponse::Token(t) => Ok(Token(t)),
            other => Err(unexpected(&other)),
        }
    }

    /// Revokes a token.
    pub fn revoke(&self, token: &Token) {
        let _ = self.unwrap(ApiRequest::Revoke {
            token: token.0.clone(),
        });
    }

    /// Resolves a token to its user.
    pub fn whoami(&self, token: &Token) -> Result<User> {
        match self.unwrap(ApiRequest::Whoami {
            token: token.0.clone(),
        })? {
            ApiResponse::User(u) => Ok(u),
            other => Err(unexpected(&other)),
        }
    }

    // ----- typed wrappers: repositories --------------------------------------

    /// Creates a citation-enabled repository owned by the token's user and
    /// commits the initial version (default root citation). Returns the
    /// repository id `owner/name`.
    pub fn create_repo(&self, token: &Token, name: &str) -> Result<String> {
        self.expect_id(ApiRequest::CreateRepo {
            token: token.0.clone(),
            name: name.to_owned(),
        })
    }

    /// Hosts an existing repository (e.g. a retrofitted one) under the
    /// token's user. The repository is re-homed onto the hub's configured
    /// store backend (all branches and their histories are transferred),
    /// so imported repositories get the same durability as created ones.
    pub fn import_repo(&self, token: &Token, name: &str, repo: Repository) -> Result<String> {
        let bundle = RepoBundle::from_repository(&repo).map_err(HubError::Git)?;
        self.expect_id(ApiRequest::ImportRepo {
            token: token.0.clone(),
            name: name.to_owned(),
            bundle,
        })
    }

    /// Grants `username` a role on a repository (owner only).
    pub fn add_member(
        &self,
        token: &Token,
        repo_id: &str,
        username: &str,
        role: Role,
    ) -> Result<()> {
        self.expect_unit(ApiRequest::AddMember {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            username: username.to_owned(),
            role,
        })
    }

    /// The role a user has on a repository (`None` = implicit reader).
    pub fn role_of(&self, repo_id: &str, username: &str) -> Result<Option<Role>> {
        match self.unwrap(ApiRequest::RoleOf {
            repo_id: repo_id.to_owned(),
            username: username.to_owned(),
        })? {
            ApiResponse::RoleOpt(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// True when the token's user may modify citations on the repository —
    /// the check that enables/disables the popup's Add/Delete buttons.
    pub fn can_write(&self, token: &Token, repo_id: &str) -> Result<bool> {
        match self.unwrap(ApiRequest::CanWrite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Bool(b) => Ok(b),
            other => Err(unexpected(&other)),
        }
    }

    /// All repository ids, walked page by page (empty when the listing
    /// cannot be read, e.g. on a follower past its staleness bound).
    pub fn list_repos(&self) -> Vec<String> {
        walk_pages(|cursor, limit| self.list_repos_page(cursor, limit)).unwrap_or_default()
    }

    /// One page of the repository listing, ordered by id.
    pub fn list_repos_page(
        &self,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<String>> {
        match self.unwrap(ApiRequest::ListReposPage {
            cursor: cursor.map(str::to_owned),
            limit,
        })? {
            ApiResponse::NamesPage(page) => Ok(page),
            other => Err(unexpected(&other)),
        }
    }

    // ----- typed wrappers: public reads ---------------------------------------

    /// Branch names of a repository.
    pub fn branches(&self, repo_id: &str) -> Result<Vec<String>> {
        match self.unwrap(ApiRequest::Branches {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Names(names) => Ok(names),
            other => Err(unexpected(&other)),
        }
    }

    /// File paths at a branch tip.
    pub fn list_files(&self, repo_id: &str, branch: &str) -> Result<Vec<RepoPath>> {
        match self.unwrap(ApiRequest::ListFiles {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
        })? {
            ApiResponse::Paths(paths) => Ok(paths),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads one file at a branch tip.
    pub fn read_file(&self, repo_id: &str, branch: &str, path: &RepoPath) -> Result<Vec<u8>> {
        match self.unwrap(ApiRequest::ReadFile {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::FileData(data) => Ok(data),
            other => Err(unexpected(&other)),
        }
    }

    /// Commit log of a branch, newest first, walked page by page.
    pub fn log(&self, repo_id: &str, branch: &str) -> Result<Vec<LogEntry>> {
        walk_pages(|cursor, limit| self.log_page(repo_id, branch, cursor, limit))
    }

    /// One page of a branch's log. Pass `None` to start at
    /// the tip; pass the returned `next` cursor to continue. The cursor
    /// pins the tip it started from, so the page sequence is stable even
    /// while writers advance the branch.
    pub fn log_page(
        &self,
        repo_id: &str,
        branch: &str,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<LogEntry>> {
        match self.unwrap(ApiRequest::LogPage {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            cursor: cursor.map(str::to_owned),
            limit,
        })? {
            ApiResponse::LogPage(page) => Ok(page),
            other => Err(unexpected(&other)),
        }
    }

    /// Which of `haves` the hub already holds reachable from the
    /// repository's refs — the have/want exchange that lets
    /// a push ship only missing objects.
    pub fn negotiate(&self, repo_id: &str, haves: &[ObjectId]) -> Result<Negotiation> {
        match self.unwrap(ApiRequest::Negotiate {
            repo_id: repo_id.to_owned(),
            haves: haves.to_vec(),
        })? {
            ApiResponse::Negotiation(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Clones a hosted repository (public read — what `git clone` does).
    pub fn clone_repo(&self, repo_id: &str) -> Result<Repository> {
        match self.unwrap(ApiRequest::CloneRepo {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Bundle(bundle) => bundle
                .into_repository(Box::new(gitlite::MemStore::new()))
                .map_err(HubError::Git),
            other => Err(unexpected(&other)),
        }
    }

    // ----- typed wrappers: citations ------------------------------------------

    /// `GenCite` — generates the citation for a node at a branch tip.
    /// Anonymous: any visitor may do this (paper §3: "If the user is not a
    /// project member, the browser extension immediately generates the
    /// citation").
    pub fn generate_citation(
        &self,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
    ) -> Result<Citation> {
        match self.unwrap(ApiRequest::GenerateCitation {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::Citation(c) => Ok(c),
            other => Err(unexpected(&other)),
        }
    }

    /// The *explicit* citation entry at a path, if any — what the popup's
    /// text box shows a project member before they edit (paper §3: "the
    /// text box will display the citation explicitly attached to the node,
    /// if it exists ... If such a citation does not exist, the text box
    /// will remain empty").
    pub fn citation_entry(
        &self,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
    ) -> Result<Option<Citation>> {
        match self.unwrap(ApiRequest::CitationEntry {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })? {
            ApiResponse::CitationOpt(c) => Ok(c),
            other => Err(unexpected(&other)),
        }
    }

    /// `AddCite` on the remote repository (member+). Commits the updated
    /// citation file on `branch` and returns the new commit.
    pub fn add_cite(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
        citation: Citation,
    ) -> Result<ObjectId> {
        self.expect_commit(ApiRequest::AddCite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
            citation,
        })
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
        self.expect_commit(ApiRequest::ModifyCite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
            citation,
        })
    }

    /// `DelCite` on the remote repository (member+).
    pub fn del_cite(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        path: &RepoPath,
    ) -> Result<ObjectId> {
        self.expect_commit(ApiRequest::DelCite {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        })
    }

    // ----- typed wrappers: sync -----------------------------------------------

    /// Pushes `local_branch` of `local` to `branch` of the hosted
    /// repository (member+; fast-forward unless `force`).
    pub fn push(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        local: &Repository,
        local_branch: &str,
        force: bool,
    ) -> Result<ObjectId> {
        let bundle = RepoBundle::from_branch(local, local_branch).map_err(HubError::Git)?;
        self.expect_commit(ApiRequest::Push {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            force,
            bundle,
        })
    }

    /// `ForkCite` via the platform: forks `src_repo_id` into a new
    /// repository under the token's user (paper §3: "ForkCite through
    /// GitHub's Fork").
    pub fn fork(&self, token: &Token, src_repo_id: &str, new_name: &str) -> Result<String> {
        self.expect_id(ApiRequest::Fork {
            token: token.0.clone(),
            src_repo_id: src_repo_id.to_owned(),
            new_name: new_name.to_owned(),
        })
    }

    /// Server-side `MergeCite` of `other_branch` into `branch` using the
    /// given strategy; conflicts default to keeping ours (the interactive
    /// path lives in the local tool).
    pub fn merge_branches(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        other_branch: &str,
        strategy: MergeStrategy,
    ) -> Result<MergeSummary> {
        match self.unwrap(ApiRequest::MergeBranches {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            other_branch: other_branch.to_owned(),
            strategy,
        })? {
            ApiResponse::Merge(m) => Ok(m),
            other => Err(unexpected(&other)),
        }
    }

    // ----- typed wrappers: archives -------------------------------------------

    /// Deposits a branch tip with the Zenodo simulator, minting a DOI.
    pub fn deposit(
        &self,
        token: &Token,
        repo_id: &str,
        branch: &str,
        title: &str,
    ) -> Result<Deposit> {
        match self.unwrap(ApiRequest::Deposit {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            title: title.to_owned(),
        })? {
            ApiResponse::Deposit(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Resolves a DOI minted by [`Hub::deposit`].
    pub fn resolve_doi(&self, doi: &str) -> Result<Deposit> {
        match self.unwrap(ApiRequest::ResolveDoi {
            doi: doi.to_owned(),
        })? {
            ApiResponse::Deposit(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Archives a repository into the Software Heritage simulator.
    pub fn archive(&self, repo_id: &str) -> Result<ArchiveReport> {
        match self.unwrap(ApiRequest::Archive {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Archive(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

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

    // ----- typed wrappers: credit queries -------------------------------------

    /// Every author credited in a repository's citation function at a
    /// branch tip, with the citing keys — the "give credit to the
    /// appropriate contributors" view (paper §1).
    pub fn credited_authors(
        &self,
        repo_id: &str,
        branch: &str,
    ) -> Result<Vec<(String, Vec<RepoPath>)>> {
        match self.unwrap(ApiRequest::CreditedAuthors {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
        })? {
            ApiResponse::Credits(c) => Ok(c),
            other => Err(unexpected(&other)),
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

    // ----- typed wrappers: operations -----------------------------------------

    /// A snapshot of the audit log, walked page by page (empty when it
    /// cannot be read).
    pub fn audit_log(&self) -> Vec<AuditEvent> {
        walk_pages(|cursor, limit| self.audit_log_page(cursor, limit)).unwrap_or_default()
    }

    /// One page of the audit log, oldest first; the cursor
    /// is the sequence number to continue from.
    pub fn audit_log_page(
        &self,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<AuditEvent>> {
        match self.unwrap(ApiRequest::AuditLogPage {
            cursor: cursor.map(str::to_owned),
            limit,
        })? {
            ApiResponse::AuditPage(page) => Ok(page),
            other => Err(unexpected(&other)),
        }
    }

    /// Object-store statistics for one hosted repository: object count
    /// plus cache counters when the backend stack has a read cache —
    /// the capacity-planning view over [`gitlite::CacheStats`].
    pub fn store_stats(&self, repo_id: &str) -> Result<StoreStats> {
        match self.unwrap(ApiRequest::StoreStats {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs storage maintenance over every hosted repository: backends
    /// with a maintenance concept (packfile stores) gc everything not
    /// reachable from their branch tips into one fresh pack; in-memory
    /// backends report `supported: false`.
    pub fn maintenance(&self) -> Result<Vec<RepoMaintenance>> {
        match self.unwrap(ApiRequest::Maintenance)? {
            ApiResponse::Maintenance(repos) => Ok(repos),
            other => Err(unexpected(&other)),
        }
    }

    /// One point-in-time health snapshot of the whole hub: per-method
    /// dispatch stats, socket-layer gauges (when a transport is
    /// attached) and aggregated storage counters. Pass `None` from a
    /// trusted in-process embedder; a token must belong to a user
    /// granted [`Hub::grant_operator`].
    pub fn server_metrics(&self, token: Option<&Token>) -> Result<MetricsSnapshot> {
        match self.unwrap(ApiRequest::ServerMetrics {
            token: token.map(|t| t.0.clone()),
        })? {
            ApiResponse::Metrics(m) => Ok(m),
            other => Err(unexpected(&other)),
        }
    }

    /// Grants `username` the operator capability: `server_metrics` over
    /// sockets is refused for every other token.
    pub fn grant_operator(&self, username: &str) -> Result<()> {
        if !self.users.read().contains_key(username) {
            return Err(HubError::UserNotFound(username.to_owned()));
        }
        self.operators.write().insert(username.to_owned());
        Ok(())
    }

    /// True when `token` is valid and its user holds the operator
    /// capability — the transport's guard for operator-scoped methods.
    pub fn is_operator_token(&self, token: &str) -> bool {
        match self.tokens.read().get(token) {
            Some(entry) if !self.token_expired(entry) => {
                self.operators.read().contains(&entry.username)
            }
            _ => false,
        }
    }

    /// The shared instrument registry. The socket transport registers
    /// its gauges and counters here so they appear in
    /// [`Hub::server_metrics`] snapshots.
    pub fn metrics(&self) -> Arc<telemetry::Registry> {
        Arc::clone(&self.metrics)
    }

    /// The tracer dispatch spans go to. Enabled automatically when
    /// `GITCITE_TRACE` is set (stderr JSON lines); tests attach a
    /// [`telemetry::RingSink`] through this accessor.
    pub fn tracer(&self) -> &telemetry::Tracer {
        &self.tracer
    }

    /// Switches dispatch instrumentation on or off (default: on). The
    /// observability bench measures the cost of the instrumented side
    /// against this escape hatch.
    pub fn set_metrics_enabled(&self, enabled: bool) {
        self.metrics_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Arms (or disarms) rate limits and size quotas. Applies to
    /// requests dispatched after the call; see [`LimitsConfig`].
    pub fn set_limits(&self, limits: LimitsConfig) {
        *self.limits.write() = limits;
    }

    /// The currently armed limits.
    pub fn limits(&self) -> LimitsConfig {
        *self.limits.read()
    }

    /// Sets the lifetime of newly minted tokens in hub-clock ticks
    /// (0 = never expire, the default). Existing tokens keep the
    /// lifetime they were minted with.
    pub fn set_token_ttl(&self, ticks: i64) {
        self.token_ttl.store(ticks.max(0), Ordering::SeqCst);
    }

    /// When on, registration and login both require a secret — the
    /// paper simulator's open username-only login is refused. Users
    /// enrolled with a secret are always verified, regardless of this
    /// switch.
    pub fn set_auth_required(&self, required: bool) {
        self.auth_required.store(required, Ordering::SeqCst);
    }

    /// Whether this hub refuses secretless registration and login.
    pub fn auth_required(&self) -> bool {
        self.auth_required.load(Ordering::SeqCst)
    }

    /// Advances the hub clock to at least `ts` (used by deterministic
    /// scenario scripts that want real dates, e.g. the CiteDB demo).
    pub fn advance_clock_to(&self, ts: i64) {
        let _ = self.unwrap(ApiRequest::AdvanceClock { ts });
    }

    // ----- replication (see `crate::repl`) ------------------------------------

    /// Flips this hub into follower mode, replicating the primary at
    /// `primary_addr`: writes start refusing with `not_primary`
    /// immediately, replicated reads open up once a sync round lands
    /// inside the staleness bound. Returns the shared [`ReplState`] the
    /// replication engine updates. Normally called via
    /// [`crate::repl::Follower::new`].
    pub fn set_follower(
        &self,
        primary_addr: impl Into<String>,
        staleness_secs: u64,
    ) -> Arc<ReplState> {
        let state = Arc::new(ReplState::new(primary_addr.into(), staleness_secs));
        *self.repl.write() = Some(Arc::clone(&state));
        state
    }

    /// The replication state when this hub is a follower, `None` on a
    /// primary.
    pub fn replication(&self) -> Option<Arc<ReplState>> {
        self.repl.read().clone()
    }

    /// Installs the fleet placement map the `placement` endpoint serves
    /// (see [`Placement`]); clients query it to route writes to a
    /// repository's home hub.
    pub fn set_placement(&self, placement: Placement) {
        *self.placement.write() = Some(placement);
    }

    /// The follower's local frontier for one repository: `(head, branch
    /// tips)` exactly as [`ReplRepoStatus`] would describe it — the
    /// derived replication cursor. `None` when the repository does not
    /// exist here yet.
    pub(crate) fn repl_local_frontier(&self, repo_id: &str) -> Option<LocalFrontier> {
        let cell = self.repos.read().get(repo_id).cloned()?;
        let hosted = cell.read();
        Some((
            hosted.repo.current_branch().map(str::to_owned),
            hosted
                .repo
                .branches()
                .map(|(b, tip)| (b.to_owned(), tip))
                .collect(),
        ))
    }

    /// The follower's *have* set for a `repl_fetch`: its local branch
    /// tips (empty for a repository it does not hold yet, which makes
    /// the primary answer with a full bootstrap bundle).
    pub(crate) fn repl_haves(&self, repo_id: &str) -> Vec<ObjectId> {
        self.repl_local_frontier(repo_id)
            .map(|(_, refs)| refs.into_iter().map(|(_, tip)| tip).collect())
            .unwrap_or_default()
    }

    /// Applies one replication bundle to the local copy of `repo_id`,
    /// creating the repository when it is new here. Follows the lock
    /// order: the repos-map guard is dropped before the repository's
    /// write lock is taken.
    pub(crate) fn repl_apply_bundle(&self, repo_id: &str, bundle: &RepoBundle) -> Result<()> {
        let existing = self.repos.read().get(repo_id).cloned();
        match existing {
            Some(cell) => {
                let mut hosted = cell.write();
                apply_replica_bundle(&mut hosted.repo, bundle).map_err(HubError::Git)
            }
            None => {
                if bundle.is_delta() {
                    return Err(HubError::Protocol(format!(
                        "delta bundle for a repository this replica does not hold ({repo_id})"
                    )));
                }
                let repo = bundle
                    .into_repository((self.store_factory)())
                    .map_err(HubError::Git)?;
                self.repos.write().insert(
                    repo_id.to_owned(),
                    Arc::new(RwLock::new(HostedRepo {
                        repo,
                        // Roles are not replicated: permission checks are
                        // the primary's job, and every write redirects
                        // there anyway.
                        roles: BTreeMap::new(),
                    })),
                );
                Ok(())
            }
        }
    }

    /// Drops local repositories absent from the primary's status reply
    /// (deleted upstream). Returns how many were dropped.
    pub(crate) fn repl_drop_missing(&self, keep: &HashSet<String>) -> usize {
        let mut repos = self.repos.write();
        let before = repos.len();
        repos.retain(|id, _| keep.contains(id));
        before - repos.len()
    }

    /// The derived audit cursor: the local log length (sequence numbers
    /// are dense, so this is the next seq to fetch).
    pub(crate) fn repl_audit_cursor(&self) -> u64 {
        self.audit.lock().events().len() as u64
    }

    /// Ingests a page of replicated audit events, preserving their
    /// primary-assigned sequence numbers. Returns how many were new; a
    /// sequence gap is a protocol error (the page stream is ordered).
    pub(crate) fn repl_ingest_audit(&self, events: Vec<AuditEvent>) -> Result<usize> {
        let mut audit = self.audit.lock();
        let mut ingested = 0;
        for event in events {
            match audit.ingest(event) {
                Ok(true) => ingested += 1,
                Ok(false) => {}
                Err(next) => {
                    return Err(HubError::Protocol(format!(
                        "audit replication gap: next local seq is {next}"
                    )))
                }
            }
        }
        Ok(ingested)
    }

    /// Ingests the primary's deposit registry wholesale (it is tiny and
    /// append-only). Returns how many DOIs were new here.
    pub(crate) fn repl_ingest_deposits(&self, deposits: Vec<Deposit>) -> usize {
        let mut zenodo = self.zenodo.lock();
        deposits
            .into_iter()
            .map(|d| zenodo.ingest(d))
            .filter(|&new| new)
            .count()
    }

    /// Folds the primary's logical epoch into the local clock
    /// (monotonic), keeping token-expiry and rate-limit arithmetic
    /// coherent across the fleet.
    pub(crate) fn repl_observe_epoch(&self, epoch: i64) {
        self.clock.fetch_max(epoch, Ordering::SeqCst);
    }

    // ----- wrapper plumbing ---------------------------------------------------

    fn unwrap(&self, request: ApiRequest) -> Result<ApiResponse> {
        self.dispatch(request).into_result()
    }

    fn expect_unit(&self, request: ApiRequest) -> Result<()> {
        match self.unwrap(request)? {
            ApiResponse::Unit => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn expect_id(&self, request: ApiRequest) -> Result<String> {
        match self.unwrap(request)? {
            ApiResponse::Id(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    fn expect_commit(&self, request: ApiRequest) -> Result<ObjectId> {
        match self.unwrap(request)? {
            ApiResponse::Commit(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    // ----- shared plumbing ----------------------------------------------------

    fn tick(&self) -> i64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The clock's current reading, without advancing it — expiry and
    /// bucket-refill checks must not make read paths mutate time.
    fn now(&self) -> i64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn record(&self, ts: i64, actor: Option<&str>, action: &str, target: &str, ok: bool) {
        // A follower's audit log is a replica of the primary's: locally
        // assigned events would collide with replicated sequence numbers
        // (see `repl_ingest_audit`), so follower-served reads go
        // unrecorded here — they are the primary's writes' history, not
        // this hub's.
        if self.repl.read().is_some() {
            return;
        }
        self.audit.lock().record(ts, actor, action, target, ok);
    }

    fn token_expired(&self, entry: &TokenEntry) -> bool {
        entry.expires_at.is_some_and(|e| self.now() >= e)
    }

    fn auth(&self, token: &str) -> Result<User> {
        let entry = match self.tokens.read().get(token) {
            Some(entry) => entry.clone(),
            None => {
                self.auth_failures.inc();
                return Err(HubError::AuthFailed);
            }
        };
        if self.token_expired(&entry) {
            self.auth_failures.inc();
            return Err(HubError::TokenExpired);
        }
        self.users
            .read()
            .get(&entry.username)
            .cloned()
            .ok_or(HubError::AuthFailed)
    }

    /// Charges the per-user and per-repo token buckets for one request.
    /// No-ops entirely (two atomic-free `Copy` reads) until
    /// [`Hub::set_limits`] arms a rate. Denials are audited and tallied.
    fn enforce_rate_limits(&self, request: &ApiRequest) -> Result<()> {
        let limits = *self.limits.read();
        if limits.user_rate.is_none() && limits.repo_rate.is_none() {
            return Ok(());
        }
        let now = self.now();
        if let (Some(rate), Some(token)) = (limits.user_rate, request.token()) {
            // Resolve the token leniently (expiry is auth's job): an
            // expired token still identifies whose bucket to charge.
            let username = self.tokens.read().get(token).map(|e| e.username.clone());
            if let Some(username) = username {
                let allowed = self
                    .user_buckets
                    .lock()
                    .entry(username.clone())
                    .or_insert(TokenBucket {
                        tokens: rate.capacity,
                        last_refill: now,
                    })
                    .try_take(now, rate);
                if !allowed {
                    return Err(self.rate_denial(now, Some(&username), request.method()));
                }
            }
        }
        if let (Some(rate), Some(repo_id)) = (limits.repo_rate, request.target_repo()) {
            let allowed = self
                .repo_buckets
                .lock()
                .entry(repo_id.to_owned())
                .or_insert(TokenBucket {
                    tokens: rate.capacity,
                    last_refill: now,
                })
                .try_take(now, rate);
            if !allowed {
                return Err(self.rate_denial(now, None, repo_id));
            }
        }
        Ok(())
    }

    fn rate_denial(&self, now: i64, actor: Option<&str>, target: &str) -> HubError {
        self.rate_rejections.inc();
        self.record(now, actor, "rate_limited", target, false);
        // One token accrues on the next refill tick, so the honest hint
        // is always "one tick from now".
        HubError::RateLimited { retry_after: 1 }
    }

    /// Enforces the size quotas on an incoming bundle before any object
    /// lands: the bundle's own size, then the repository's accumulated
    /// accepted bytes. `repo_id` is the accounting key (`None` while the
    /// repository does not exist yet — import racing its own creation).
    fn check_bundle_quota(
        &self,
        actor: &str,
        repo_id: &str,
        existing: bool,
        bundle: &RepoBundle,
    ) -> Result<u64> {
        let limits = *self.limits.read();
        let size: u64 = bundle.objects.iter().map(|(_, b)| b.len() as u64).sum();
        if let Some(cap) = limits.max_bundle_bytes {
            if size > cap {
                return Err(self.quota_denial(
                    actor,
                    repo_id,
                    format!("bundle is {size} bytes (cap {cap})"),
                ));
            }
        }
        if let Some(cap) = limits.max_repo_bytes {
            let current = if existing {
                self.repo_bytes.lock().get(repo_id).copied().unwrap_or(0)
            } else {
                0
            };
            let total = current.saturating_add(size);
            if total > cap {
                return Err(self.quota_denial(
                    actor,
                    repo_id,
                    format!("repository would hold {total} accepted bytes (cap {cap})"),
                ));
            }
        }
        Ok(size)
    }

    fn quota_denial(&self, actor: &str, target: &str, why: String) -> HubError {
        self.quota_rejections.inc();
        let ts = self.tick();
        self.record(ts, Some(actor), "quota_exceeded", target, false);
        HubError::QuotaExceeded(why)
    }

    /// Books accepted bundle bytes against a repository's quota ledger.
    fn account_repo_bytes(&self, repo_id: &str, size: u64) {
        *self
            .repo_bytes
            .lock()
            .entry(repo_id.to_owned())
            .or_insert(0) += size;
    }

    /// Clones the repository cell out of the map — the map guard is
    /// dropped before the caller locks the cell (see the module docs on
    /// lock order).
    fn repo(&self, repo_id: &str) -> Result<RepoCell> {
        self.repos
            .read()
            .get(repo_id)
            .cloned()
            .ok_or_else(|| HubError::RepoNotFound(repo_id.to_owned()))
    }

    // ----- operations ---------------------------------------------------------

    fn op_register_user(
        &self,
        username: &str,
        display_name: &str,
        secret: Option<&str>,
    ) -> Result<()> {
        if self.auth_required.load(Ordering::SeqCst) && secret.is_none() {
            return Err(HubError::BadRequest(
                "registration requires a secret on this hub".into(),
            ));
        }
        {
            let mut users = self.users.write();
            if users.contains_key(username) {
                return Err(HubError::UserExists(username.to_owned()));
            }
            if username.is_empty()
                || username.contains('/')
                || username.contains(char::is_whitespace)
            {
                return Err(HubError::BadRequest(format!(
                    "invalid username {username:?}"
                )));
            }
            users.insert(
                username.to_owned(),
                User {
                    username: username.to_owned(),
                    display_name: display_name.to_owned(),
                    email: format!("{username}@hub.example"),
                },
            );
        }
        let ts = self.tick();
        if let Some(secret) = secret {
            // Store only salt + hash; the secret itself never lands. The
            // users map was released above — credentials is a leaf table.
            self.credentials.write().insert(
                username.to_owned(),
                Credential::derive(username, ts, secret),
            );
        }
        self.record(ts, Some(username), "register_user", username, true);
        Ok(())
    }

    /// Records a failed login against `username`'s lockout state and
    /// returns the uniform error the caller should surface. Streaks decay:
    /// a failure more than [`FAILURE_DECAY_TICKS`] after the previous one
    /// starts a fresh count.
    fn login_failure(&self, ts: i64, username: &str) -> HubError {
        {
            let mut states = self.login_states.lock();
            let state = states.entry(username.to_owned()).or_default();
            if ts - state.last_failure >= FAILURE_DECAY_TICKS {
                state.failures = 0;
            }
            state.failures += 1;
            state.last_failure = ts;
            if state.failures >= MAX_LOGIN_FAILURES {
                state.locked_until = ts + LOCKOUT_TICKS;
            }
        }
        self.auth_failures.inc();
        self.record(ts, Some(username), "login", username, false);
        HubError::AuthFailed
    }

    fn op_login(&self, username: &str, secret: Option<&str>) -> Result<String> {
        let ts = self.tick();
        // Lockout gate first: while locked, even the right secret is
        // refused, so an attacker gets no oracle during the window.
        let locked_until = self
            .login_states
            .lock()
            .get(username)
            .map_or(0, |s| s.locked_until);
        if locked_until > ts {
            self.auth_failures.inc();
            self.record(ts, Some(username), "login", username, false);
            return Err(HubError::RateLimited {
                retry_after: locked_until - ts,
            });
        }
        if !self.users.read().contains_key(username) {
            return Err(HubError::UserNotFound(username.to_owned()));
        }
        let credential = self.credentials.read().get(username).cloned();
        match (&credential, secret) {
            // Secret-protected account: verify in constant time.
            (Some(cred), Some(secret)) if cred.verify(secret) => {}
            (Some(_), _) => return Err(self.login_failure(ts, username)),
            // Open account, but the hub demands credentials for everyone.
            (None, _) if self.auth_required.load(Ordering::SeqCst) => {
                return Err(self.login_failure(ts, username));
            }
            // Presenting a secret to an account that has none is refused
            // rather than ignored: the caller clearly expected protection.
            (None, Some(_)) => return Err(self.login_failure(ts, username)),
            (None, None) => {}
        }
        self.login_states.lock().remove(username);
        let token = self.mint_token(username, ts);
        self.record(ts, Some(username), "login", username, true);
        Ok(token)
    }

    fn mint_token(&self, username: &str, now: i64) -> String {
        let n = self.next_token.fetch_add(1, Ordering::SeqCst) + 1;
        let token = format!("ghp_{n:08x}_{username}");
        let ttl = self.token_ttl.load(Ordering::SeqCst);
        self.tokens.write().insert(
            token.clone(),
            TokenEntry {
                username: username.to_owned(),
                expires_at: (ttl > 0).then_some(now + ttl),
            },
        );
        token
    }

    fn op_refresh(&self, token: &str) -> Result<String> {
        let ts = self.tick();
        // Remove-then-mint: the old token is revoked even if it had not
        // expired yet, so a leaked predecessor dies with the exchange.
        let entry = match self.tokens.write().remove(token) {
            Some(entry) => entry,
            None => {
                self.auth_failures.inc();
                return Err(HubError::AuthFailed);
            }
        };
        let fresh = self.mint_token(&entry.username, ts);
        self.record(ts, Some(&entry.username), "refresh", &entry.username, true);
        Ok(fresh)
    }

    fn op_create_repo(&self, token: &str, name: &str) -> Result<String> {
        let user = self.auth(token)?;
        if name.is_empty() || name.contains('/') || name.contains(char::is_whitespace) {
            return Err(HubError::BadRequest(format!(
                "invalid repository name {name:?}"
            )));
        }
        let repo_id = format!("{}/{}", user.username, name);
        if self.repos.read().contains_key(&repo_id) {
            return Err(HubError::RepoExists(repo_id));
        }
        // Build the repository outside any lock; losing a creation race
        // only wastes the loser's work, never corrupts state.
        let url = format!("{}/{}", self.base_url, repo_id);
        let mut cited =
            CitedRepo::init_with_store(name, &user.display_name, &url, (self.store_factory)());
        let ts = self.tick();
        cited
            .commit(
                Signature::new(&user.display_name, &user.email, ts),
                "initialize repository",
            )
            .map_err(HubError::Cite)?;
        let mut roles = BTreeMap::new();
        roles.insert(user.username.clone(), Role::Owner);
        self.insert_repo(
            repo_id.clone(),
            HostedRepo {
                repo: cited.into_repository(),
                roles,
            },
        )?;
        self.record(ts, Some(&user.username), "create_repo", &repo_id, true);
        Ok(repo_id)
    }

    fn op_import_repo(&self, token: &str, name: &str, bundle: &RepoBundle) -> Result<String> {
        let user = self.auth(token)?;
        let repo_id = format!("{}/{}", user.username, name);
        if self.repos.read().contains_key(&repo_id) {
            return Err(HubError::RepoExists(repo_id));
        }
        // A delta bundle cannot seed a repository: its basis objects
        // live only on the peer it was negotiated against.
        if bundle.is_delta() {
            return Err(HubError::BadRequest(
                "import requires a full bundle (delta bundles are push-only)".into(),
            ));
        }
        // Quota check before any object is materialized or any lock held.
        let size = self.check_bundle_quota(&user.username, &repo_id, false, bundle)?;
        let rehomed = bundle
            .into_repository((self.store_factory)())
            .map_err(HubError::Git)?;
        rehomed.head_commit().map_err(HubError::Git)?; // must have content
        let mut roles = BTreeMap::new();
        roles.insert(user.username.clone(), Role::Owner);
        self.insert_repo(
            repo_id.clone(),
            HostedRepo {
                repo: rehomed,
                roles,
            },
        )?;
        self.account_repo_bytes(&repo_id, size);
        let ts = self.tick();
        self.record(ts, Some(&user.username), "import_repo", &repo_id, true);
        Ok(repo_id)
    }

    /// Inserts a freshly built repository, failing (not overwriting) if a
    /// racing request claimed the id first.
    fn insert_repo(&self, repo_id: String, hosted: HostedRepo) -> Result<()> {
        let mut repos = self.repos.write();
        if repos.contains_key(&repo_id) {
            return Err(HubError::RepoExists(repo_id));
        }
        repos.insert(repo_id, Arc::new(RwLock::new(hosted)));
        Ok(())
    }

    fn op_add_member(&self, token: &str, repo_id: &str, username: &str, role: Role) -> Result<()> {
        let actor = self.auth(token)?.username;
        if !self.users.read().contains_key(username) {
            return Err(HubError::UserNotFound(username.to_owned()));
        }
        let cell = self.repo(repo_id)?;
        {
            let mut hosted = cell.write();
            check(&hosted, &actor, Action::Admin)?;
            hosted.roles.insert(username.to_owned(), role);
        }
        let ts = self.tick();
        self.record(ts, Some(&actor), "add_member", repo_id, true);
        Ok(())
    }

    /// Clamps a wire `limit` to `1..=MAX_PAGE_SIZE`, defaulting absent or
    /// zero limits to [`DEFAULT_PAGE_SIZE`].
    fn page_limit(limit: Option<u32>) -> usize {
        match limit {
            None | Some(0) => DEFAULT_PAGE_SIZE,
            Some(n) => (n as usize).min(MAX_PAGE_SIZE),
        }
    }

    fn op_log_page(
        &self,
        repo_id: &str,
        branch: &str,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<LogEntry>> {
        let limit = Self::page_limit(limit);
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        // The cursor pins the tip the walk started from, so concurrent
        // pushes cannot shift entries between pages.
        let (tip, offset) = match cursor {
            None => (hosted.repo.branch_tip(branch).map_err(HubError::Git)?, 0),
            Some(c) => parse_log_cursor(c)?,
        };
        // The ordering walk is graph-served and cheap; only the page's
        // entries decode their commits.
        let ids = hosted.repo.log(tip).map_err(HubError::Git)?;
        let start = offset.min(ids.len());
        let end = (start + limit).min(ids.len());
        let mut items = Vec::with_capacity(end - start);
        for &id in &ids[start..end] {
            let obj = hosted.repo.odb().commit_ref(id).map_err(HubError::Git)?;
            let c = obj.as_commit().expect("checked kind");
            items.push(LogEntry {
                id,
                author: c.author.name.clone(),
                timestamp: c.author.timestamp,
                message: c.message.clone(),
            });
        }
        let next = (end < ids.len()).then(|| format!("{}:{end}", tip.to_hex()));
        Ok(Page { items, next })
    }

    fn op_audit_log_page(
        &self,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<AuditEvent>> {
        let limit = Self::page_limit(limit);
        let from: u64 = match cursor {
            None => 0,
            Some(c) => c
                .parse()
                .map_err(|_| HubError::BadRequest(format!("invalid audit cursor {c:?}")))?,
        };
        let audit = self.audit.lock();
        let events = audit.events();
        // Sequence numbers are assigned in append order, so they are
        // sorted; the cursor is simply the next seq to serve.
        let start = events.partition_point(|e| e.seq < from);
        let end = (start + limit).min(events.len());
        let next = (end < events.len()).then(|| events[end].seq.to_string());
        Ok(Page {
            items: events[start..end].to_vec(),
            next,
        })
    }

    fn op_list_repos_page(&self, cursor: Option<&str>, limit: Option<u32>) -> Page<String> {
        let limit = Self::page_limit(limit);
        let repos = self.repos.read();
        let mut items: Vec<String> = match cursor {
            None => repos.keys().take(limit + 1).cloned().collect(),
            Some(c) => repos
                .range::<String, _>((Bound::Excluded(c.to_owned()), Bound::Unbounded))
                .map(|(k, _)| k.clone())
                .take(limit + 1)
                .collect(),
        };
        let next = (items.len() > limit).then(|| {
            items.truncate(limit);
            items.last().expect("limit >= 1").clone()
        });
        Page { items, next }
    }

    fn op_negotiate(&self, repo_id: &str, haves: &[ObjectId]) -> Result<Negotiation> {
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        // "Common" means reachable from a ref. Mere store presence is
        // not enough: an object left behind by a force push may be
        // unreachable and about to be gc'd.
        let tips: Vec<ObjectId> = hosted.repo.branches().map(|(_, tip)| tip).collect();
        let graph_covers_tips = hosted
            .repo
            .odb()
            .commit_graph()
            .is_some_and(|g| tips.iter().all(|&t| g.lookup(t).is_some()));
        let mut negotiation = Negotiation::default();
        if graph_covers_tips {
            // Pack-backed repositories after maintenance: answer each
            // (client-capped) have with the generation-pruned
            // `is_ancestor` — near O(output) per probe, no O(history)
            // set materialized under the repository read lock.
            for &h in haves {
                let reachable = tips
                    .iter()
                    .any(|&t| hosted.repo.is_ancestor(h, t).unwrap_or(false));
                if reachable {
                    negotiation.common.push(h);
                } else {
                    negotiation.missing.push(h);
                }
            }
        } else {
            // Graph-less stores: a per-have decode walk would re-walk
            // the history up to |haves| times, so one materialized
            // ancestor-set walk per distinct tip is the cheaper shape.
            let mut reachable: HashSet<ObjectId> = HashSet::new();
            for tip in tips {
                if !reachable.contains(&tip) {
                    reachable.extend(
                        gitlite::ancestor_set(hosted.repo.odb(), tip).map_err(HubError::Git)?,
                    );
                }
            }
            for &h in haves {
                if reachable.contains(&h) {
                    negotiation.common.push(h);
                } else {
                    negotiation.missing.push(h);
                }
            }
        }
        Ok(negotiation)
    }

    fn cite_op(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        op_name: &str,
        op: impl FnOnce(&mut CitedRepo, &RepoPath) -> citekit::Result<()>,
        path: &RepoPath,
    ) -> Result<ObjectId> {
        let user = self.auth(token)?;
        let cell = self.repo(repo_id)?;
        let mut hosted = cell.write();
        // Tick *under* the write lock: commit timestamps must follow the
        // order writes actually land on the branch, or a racing writer
        // could stamp a child commit earlier than its parent.
        let ts = self.tick();
        if let Err(e) = check(&hosted, &user.username, Action::Write) {
            self.record(ts, Some(&user.username), op_name, repo_id, false);
            return Err(e);
        }
        // Operate on a clone; replace on success so failures can't corrupt
        // the hosted state.
        let mut work = hosted.repo.clone();
        let result = work
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
            });
        match result {
            Ok((cited, outcome)) => {
                hosted.repo = cited.into_repository();
                self.record(ts, Some(&user.username), op_name, repo_id, true);
                Ok(outcome.commit)
            }
            Err(e) => {
                self.record(ts, Some(&user.username), op_name, repo_id, false);
                Err(HubError::Cite(e))
            }
        }
    }

    fn op_push(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        force: bool,
        bundle: &RepoBundle,
    ) -> Result<ObjectId> {
        let user = self.auth(token)?;
        let src_branch = bundle
            .head
            .clone()
            .or_else(|| bundle.refs.first().map(|(b, _)| b.clone()))
            .ok_or_else(|| HubError::BadRequest("push bundle carries no ref".into()))?;
        // Quota check before materialization: an oversized bundle is
        // refused on its declared byte count alone, costing the server
        // nothing but the summation.
        let size = self.check_bundle_quota(&user.username, repo_id, true, bundle)?;
        // Materialize a full bundle (hash-verifying its whole closure)
        // *before* taking the repository's write lock — readers of this
        // repo must only stall for the ref update, not the verification.
        // A delta is O(new objects) and needs the hosted store anyway.
        let src = match bundle.is_delta() {
            true => None,
            false => Some(
                bundle
                    .into_repository(Box::new(gitlite::MemStore::new()))
                    .map_err(HubError::Git)?,
            ),
        };
        let cell = self.repo(repo_id)?;
        let mut hosted = cell.write();
        let ts = self.tick();
        check(&hosted, &user.username, Action::Write)?;
        let result = match &src {
            Some(src) => gitlite::push(src, &mut hosted.repo, &src_branch, branch, force),
            None => apply_delta_push(&mut hosted.repo, &src_branch, branch, force, bundle),
        };
        let ok = result.is_ok();
        if ok {
            self.account_repo_bytes(repo_id, size);
        }
        let out = result.map_err(HubError::Git);
        self.record(ts, Some(&user.username), "push", repo_id, ok);
        out
    }

    fn op_fork(&self, token: &str, src_repo_id: &str, new_name: &str) -> Result<String> {
        let user = self.auth(token)?;
        let new_repo_id = format!("{}/{}", user.username, new_name);
        if self.repos.read().contains_key(&new_repo_id) {
            return Err(HubError::RepoExists(new_repo_id));
        }
        let src_repo = self.repo(src_repo_id)?.read().repo.clone();
        let ts = self.tick();
        let opts = ForkOptions::new(
            new_name,
            &user.display_name,
            format!("{}/{}", self.base_url, new_repo_id),
        );
        let outcome = citekit::fork_cite_into(
            &src_repo,
            &opts,
            Signature::new(&user.display_name, &user.email, ts),
            (self.store_factory)(),
        )
        .map_err(HubError::Cite)?;
        let mut roles = BTreeMap::new();
        roles.insert(user.username.clone(), Role::Owner);
        self.insert_repo(
            new_repo_id.clone(),
            HostedRepo {
                repo: outcome.fork.into_repository(),
                roles,
            },
        )?;
        self.record(ts, Some(&user.username), "fork", &new_repo_id, true);
        Ok(new_repo_id)
    }

    fn op_merge(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        other_branch: &str,
        strategy: MergeStrategy,
    ) -> Result<MergeSummary> {
        let user = self.auth(token)?;
        let cell = self.repo(repo_id)?;
        let mut hosted = cell.write();
        let ts = self.tick();
        check(&hosted, &user.username, Action::Write)?;
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
                self.record(ts, Some(&user.username), "merge", repo_id, false);
                return Err(HubError::BadRequest(
                    "merge has file conflicts; resolve locally and push".into(),
                ));
            }
        };
        hosted.repo = cited.into_repository();
        self.record(ts, Some(&user.username), "merge", repo_id, true);
        Ok(MergeSummary {
            outcome,
            citation_conflicts: report
                .citation_conflicts
                .into_iter()
                .map(|c| (c.path, c.taken))
                .collect(),
            dropped: report.dropped,
        })
    }

    fn op_deposit(&self, token: &str, repo_id: &str, branch: &str, title: &str) -> Result<Deposit> {
        let user = self.auth(token)?;
        let ts = self.tick();
        let cell = self.repo(repo_id)?;
        let (tip, tree, creators) = {
            let hosted = cell.read();
            check(&hosted, &user.username, Action::Write)?;
            let tip = hosted.repo.branch_tip(branch).map_err(HubError::Git)?;
            let tree = hosted.repo.tree_of(tip).map_err(HubError::Git)?;
            // Creators come from the root citation's author list.
            let cited = CitedRepo::open(hosted.repo.clone()).map_err(HubError::Cite)?;
            let creators = cited.function().root().author_list.clone();
            (tip, tree, creators)
        };
        let deposit = self
            .zenodo
            .lock()
            .deposit(repo_id, tip, tree, title, creators, ts)
            .clone();
        self.record(ts, Some(&user.username), "deposit", repo_id, true);
        Ok(deposit)
    }

    fn op_find_repos_citing(&self, author: &str) -> Vec<(String, Vec<RepoPath>)> {
        let cells: Vec<(String, RepoCell)> = self
            .repos
            .read()
            .iter()
            .map(|(id, cell)| (id.clone(), Arc::clone(cell)))
            .collect();
        let mut out = Vec::new();
        for (repo_id, cell) in cells {
            let repo = cell.read().repo.clone();
            let Ok(cited) = CitedRepo::open(repo) else {
                continue;
            };
            let paths: Vec<RepoPath> = cited
                .function()
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

    fn op_maintenance(&self) -> Result<Vec<RepoMaintenance>> {
        let cells: Vec<(String, RepoCell)> = self
            .repos
            .read()
            .iter()
            .map(|(id, cell)| (id.clone(), Arc::clone(cell)))
            .collect();
        let mut out = Vec::new();
        for (repo_id, cell) in cells {
            let mut hosted = cell.write();
            let roots: Vec<ObjectId> = hosted.repo.branches().map(|(_, tip)| tip).collect();
            // One sick repository must not stop the rest from compacting:
            // gc failures are reported per-repo, never aborting the sweep.
            let entry = match hosted.repo.odb_mut().maintain(&roots) {
                None => RepoMaintenance {
                    repo_id,
                    supported: false,
                    packed: 0,
                    dropped: 0,
                    error: None,
                },
                Some(Ok(report)) => RepoMaintenance {
                    repo_id,
                    supported: true,
                    packed: report.packed as u64,
                    dropped: report.dropped as u64,
                    error: None,
                },
                Some(Err(e)) => RepoMaintenance {
                    repo_id,
                    supported: true,
                    packed: 0,
                    dropped: 0,
                    error: Some(e.to_string()),
                },
            };
            out.push(entry);
        }
        let ok = out.iter().all(|e| e.error.is_none());
        let ts = self.tick();
        self.record(ts, None, "maintenance", "*", ok);
        Ok(out)
    }

    /// Everything a replica needs to decide what to pull: the primary's
    /// epoch, audit length, every repository's `(head, refs)` frontier,
    /// and the (tiny) deposit registry. Read-only — snapshots each
    /// repository under its read lock, map guard dropped first.
    fn op_repl_status(&self) -> ReplStatus {
        let cells: Vec<(String, RepoCell)> = self
            .repos
            .read()
            .iter()
            .map(|(id, cell)| (id.clone(), Arc::clone(cell)))
            .collect();
        let mut repos = Vec::with_capacity(cells.len());
        for (repo_id, cell) in cells {
            let hosted = cell.read();
            repos.push(ReplRepoStatus {
                repo_id,
                head: hosted.repo.current_branch().map(str::to_owned),
                refs: hosted
                    .repo
                    .branches()
                    .map(|(b, tip)| (b.to_owned(), tip))
                    .collect(),
            });
        }
        ReplStatus {
            epoch: self.now(),
            audit_seq: self.audit.lock().events().len() as u64,
            repos,
            deposits: self.zenodo.lock().deposits().cloned().collect(),
        }
    }

    /// The pull half of replication: `negotiate` against the caller's
    /// haves, then a delta bundle past the common frontier covering
    /// *all* branches (a full bundle when nothing is common — the
    /// bootstrap path).
    fn op_repl_fetch(&self, repo_id: &str, haves: &[ObjectId]) -> Result<RepoBundle> {
        let negotiation = self.op_negotiate(repo_id, haves)?;
        let common: HashSet<ObjectId> = negotiation.common.iter().copied().collect();
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        RepoBundle::delta_from_refs(&hosted.repo, &common).map_err(HubError::Git)
    }

    /// The placement map, plus the resolved home hub when the caller
    /// named a repository. A follower without a configured map still
    /// advertises its primary so clients can route writes.
    fn op_placement(&self, repo_id: Option<&str>) -> PlacementInfo {
        match self.placement.read().clone() {
            Some(p) => PlacementInfo {
                primary: repo_id.and_then(|r| p.primary_for(r).map(str::to_owned)),
                hubs: p.hubs().to_vec(),
            },
            None => PlacementInfo {
                hubs: Vec::new(),
                primary: self.repl.read().as_ref().map(|s| s.primary().to_owned()),
            },
        }
    }

    fn op_server_metrics(&self) -> MetricsSnapshot {
        // Only methods that were actually dispatched appear, in name
        // order — the flat slot array is an implementation detail.
        let mut methods: Vec<MethodMetrics> = crate::api::METHOD_NAMES
            .iter()
            .zip(self.method_stats.iter())
            .filter(|(_, stats)| stats.calls.get() > 0)
            .map(|(name, stats)| MethodMetrics {
                method: (*name).to_owned(),
                calls: stats.calls.get(),
                errors: stats
                    .errors
                    .lock()
                    .iter()
                    .map(|(code, n)| (code.clone(), *n))
                    .collect(),
                latency: WireHistogram::from_snapshot(&stats.latency.snapshot()),
            })
            .collect();
        methods.sort_by(|a, b| a.method.cmp(&b.method));
        MetricsSnapshot {
            methods,
            transport: self.transport_metrics(),
            store: Some(self.op_store_metrics()),
            limits: self.limits_metrics(),
            repl: self.repl.read().as_ref().map(|s| s.metrics()),
        }
    }

    /// The abuse-resistance section: hub-side denial counters plus the
    /// transport's shed tally. Absent until anything has fired, so
    /// snapshots from hubs without limits configured are unchanged.
    fn limits_metrics(&self) -> Option<LimitsMetrics> {
        let conns_shed = if self.metrics.is_empty() {
            0
        } else {
            self.metrics.snapshot().counter("conns.shed")
        };
        let lm = LimitsMetrics {
            auth_failures: self.auth_failures.get(),
            rate_rejections: self.rate_rejections.get(),
            quota_rejections: self.quota_rejections.get(),
            conns_shed,
        };
        (!lm.is_empty()).then_some(lm)
    }

    /// The socket-layer section of the snapshot: read back out of the
    /// shared registry the transport populates. `None` when no
    /// transport ever attached (the registry is exclusively theirs —
    /// method stats live in [`Hub::method_stats`]).
    fn transport_metrics(&self) -> Option<TransportMetrics> {
        if self.metrics.is_empty() {
            return None;
        }
        let snap = self.metrics.snapshot();
        Some(TransportMetrics {
            open_connections: snap.gauge("conns.open"),
            queue_depth: snap.gauge("queue.depth"),
            busy_workers: snap.gauge("workers.busy"),
            bytes_in_line: 0,
            bytes_out_line: 0,
            bytes_in_binary: snap.counter("bytes.in.binary"),
            bytes_out_binary: snap.counter("bytes.out.binary"),
            frames_rejected: snap.counter("frames.rejected"),
            transport_closed: snap.counter("conns.transport_closed"),
            obj_raw_bytes: snap.counter("obj.raw_bytes"),
            obj_deflate_bytes: snap.counter("obj.deflate_bytes"),
        })
    }

    /// The storage section: read-cache counters summed over every
    /// hosted repository (via the same `cache_metrics` hook
    /// `store_stats` uses) plus the process-wide pack/loose and
    /// graph/fallback tallies from [`gitlite::metrics`].
    fn op_store_metrics(&self) -> StoreMetrics {
        let cells: Vec<RepoCell> = self.repos.read().values().cloned().collect();
        let (mut hits, mut misses) = (0u64, 0u64);
        for cell in &cells {
            if let Some(c) = cell.read().repo.odb().cache_metrics() {
                hits += c.hits;
                misses += c.misses;
            }
        }
        let reads = gitlite::metrics::snapshot();
        StoreMetrics {
            repos: cells.len() as u64,
            cache_hits: hits,
            cache_misses: misses,
            pack_reads: reads.pack_reads,
            loose_reads: reads.loose_reads,
            graph_walks: reads.graph_walks,
            fallback_walks: reads.fallback_walks,
            delta_resolutions: reads.delta_resolutions,
            bloom_hits: reads.bloom_hits,
            bloom_skips: reads.bloom_skips,
            bloom_false_positives: reads.bloom_false_positives,
        }
    }
}

fn unexpected(response: &ApiResponse) -> HubError {
    HubError::Protocol(format!(
        "response shape does not match the request (got {})",
        response.kind()
    ))
}

/// Decodes an opaque log cursor (`<tip hex>:<offset>`).
fn parse_log_cursor(c: &str) -> Result<(ObjectId, usize)> {
    c.split_once(':')
        .and_then(|(hex, off)| Some((ObjectId::from_hex(hex)?, off.parse().ok()?)))
        .ok_or_else(|| HubError::BadRequest(format!("invalid log cursor {c:?}")))
}

/// Applies a negotiated delta bundle onto the hosted
/// repository: the server-side half of the have/want exchange. Same ref
/// rules as [`gitlite::push`]; on top of them the delta must be
/// *anchored* (every basis commit already present) and *complete*
/// (everything reachable from the pushed tip exists once the delta's
/// objects are loaded), so a lying or stale client can make the push
/// fail but never leave the branch pointing into a hole.
fn apply_delta_push(
    repo: &mut Repository,
    src_branch: &str,
    dst_branch: &str,
    force: bool,
    bundle: &RepoBundle,
) -> gitlite::Result<ObjectId> {
    let new_tip = bundle
        .refs
        .iter()
        .find(|(b, _)| b == src_branch)
        .or_else(|| bundle.refs.first())
        .map(|(_, tip)| *tip)
        .ok_or(gitlite::GitError::BranchNotFound(src_branch.to_owned()))?;
    for &b in &bundle.basis {
        if !repo.odb().contains(b) {
            return Err(gitlite::GitError::ObjectNotFound(b));
        }
    }
    // Load the delta's objects; `put_raw` hash-verifies every one.
    for (id, bytes) in &bundle.objects {
        repo.odb_mut().put_raw(*id, bytes)?;
    }
    // Connectivity check: walk from the new tip, stopping at basis
    // commits (complete by the check above) and at commits the
    // commit-graph indexes (they were reachable at the last gc, so their
    // closures are complete too — this bounds the walk to roughly the
    // delta even when the client's have sample was sparse).
    let mut seen: HashSet<ObjectId> = bundle.basis.iter().copied().collect();
    let mut stack = vec![new_tip];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if repo
            .odb()
            .commit_graph()
            .is_some_and(|g| g.lookup(id).is_some())
        {
            continue;
        }
        let obj = repo.odb().get(id)?; // ObjectNotFound if the delta is short
        match &*obj {
            gitlite::Object::Commit(c) => {
                stack.push(c.tree);
                stack.extend_from_slice(&c.parents);
            }
            gitlite::Object::Tree(t) => {
                for (_, e) in t.iter() {
                    stack.push(e.id);
                }
            }
            gitlite::Object::Blob(_) => {}
        }
    }
    if let Ok(old_tip) = repo.branch_tip(dst_branch) {
        if !repo.is_ancestor(old_tip, new_tip)? && !force {
            return Err(gitlite::GitError::NonFastForward {
                branch: dst_branch.to_owned(),
            });
        }
    }
    repo.set_branch(dst_branch, new_tip)?;
    if repo.current_branch() == Some(dst_branch) {
        repo.checkout_branch(dst_branch)?;
    }
    Ok(new_tip)
}

/// Applies a replication bundle onto the local replica of a repository:
/// the multi-ref sibling of [`apply_delta_push`]. The same safety
/// ladder — anchored basis, hash-verified object insertion, a
/// connectivity walk from **every** advertised tip — guarantees a
/// corrupt, truncated or garbled bundle fails the whole application
/// without leaving partial state. Unlike a push there is no
/// fast-forward rule: the primary's frontier is authoritative, so refs
/// are force-set, branches deleted upstream are deleted here, and the
/// working tree tracks the primary's head.
fn apply_replica_bundle(repo: &mut Repository, bundle: &RepoBundle) -> gitlite::Result<()> {
    for &b in &bundle.basis {
        if !repo.odb().contains(b) {
            return Err(gitlite::GitError::ObjectNotFound(b));
        }
    }
    for (id, bytes) in &bundle.objects {
        repo.odb_mut().put_raw(*id, bytes)?;
    }
    // Connectivity: every tip's closure must exist once the bundle's
    // objects are loaded, stopping at basis commits and commit-graph
    // entries (complete by construction — same bound as a delta push).
    let mut seen: HashSet<ObjectId> = bundle.basis.iter().copied().collect();
    let mut stack: Vec<ObjectId> = bundle.refs.iter().map(|(_, tip)| *tip).collect();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if repo
            .odb()
            .commit_graph()
            .is_some_and(|g| g.lookup(id).is_some())
        {
            continue;
        }
        let obj = repo.odb().get(id)?;
        match &*obj {
            gitlite::Object::Commit(c) => {
                stack.push(c.tree);
                stack.extend_from_slice(&c.parents);
            }
            gitlite::Object::Tree(t) => {
                for (_, e) in t.iter() {
                    stack.push(e.id);
                }
            }
            gitlite::Object::Blob(_) => {}
        }
    }
    for (branch, tip) in &bundle.refs {
        repo.set_branch(branch, *tip)?;
    }
    // Track the primary's head (or any surviving ref) *before* pruning,
    // so the branch being deleted is never the checked-out one.
    let head = bundle
        .head
        .clone()
        .filter(|h| repo.has_branch(h))
        .or_else(|| bundle.refs.first().map(|(b, _)| b.clone()));
    if let Some(head) = head {
        repo.checkout_branch(&head)?;
    }
    if !bundle.refs.is_empty() {
        let stale: Vec<String> = repo
            .branches()
            .map(|(b, _)| b.to_owned())
            .filter(|b| !bundle.refs.iter().any(|(name, _)| name == b))
            .collect();
        for b in stale {
            repo.delete_branch(&b)?;
        }
    }
    Ok(())
}

fn check(hosted: &HostedRepo, username: &str, action: Action) -> Result<()> {
    let role = hosted.roles.get(username).copied().unwrap_or(Role::Reader);
    if role.allows(action) {
        Ok(())
    } else {
        Err(HubError::PermissionDenied(format!(
            "{username} lacks {action:?} rights on this repository"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::path;

    fn hub_with_repo() -> (Hub, Token, String) {
        let hub = Hub::new("https://hub.example");
        hub.register_user("leshang", "Leshang Chen").unwrap();
        let token = hub.login("leshang").unwrap();
        let repo_id = hub.create_repo(&token, "P1").unwrap();
        (hub, token, repo_id)
    }

    fn cite(name: &str) -> Citation {
        Citation::builder(name, "someone").build()
    }

    #[test]
    fn register_login_whoami() {
        let hub = Hub::new("https://hub.example");
        hub.register_user("alice", "Alice A").unwrap();
        assert!(matches!(
            hub.register_user("alice", "Again"),
            Err(HubError::UserExists(_))
        ));
        assert!(matches!(
            hub.register_user("bad name", "x"),
            Err(HubError::BadRequest(_))
        ));
        let t = hub.login("alice").unwrap();
        assert_eq!(hub.whoami(&t).unwrap().display_name, "Alice A");
        assert!(matches!(
            hub.login("nobody"),
            Err(HubError::UserNotFound(_))
        ));
        hub.revoke(&t);
        assert!(matches!(hub.whoami(&t), Err(HubError::AuthFailed)));
    }

    #[test]
    fn create_repo_initializes_citation_file() {
        let (hub, _, repo_id) = hub_with_repo();
        assert_eq!(repo_id, "leshang/P1");
        let files = hub.list_files(&repo_id, "main").unwrap();
        assert_eq!(files, vec![citekit::citation_path()]);
        let c = hub
            .generate_citation(&repo_id, "main", &RepoPath::root())
            .unwrap();
        assert_eq!(c.repo_name, "P1");
        assert_eq!(c.owner, "Leshang Chen");
        assert_eq!(c.url, "https://hub.example/leshang/P1");
    }

    use gitlite::RepoPath;

    #[test]
    fn member_writes_nonmember_reads() {
        let (hub, owner_token, repo_id) = hub_with_repo();
        hub.register_user("visitor", "A Visitor").unwrap();
        let visitor = hub.login("visitor").unwrap();

        // Owner pushes a file, then cites it.
        let mut local = hub.clone_repo(&repo_id).unwrap();
        local
            .worktree_mut()
            .write(&path("f1.txt"), &b"data\n"[..])
            .unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 100), "add f1")
            .unwrap();
        hub.push(&owner_token, &repo_id, "main", &local, "main", false)
            .unwrap();
        hub.add_cite(&owner_token, &repo_id, "main", &path("f1.txt"), cite("C2"))
            .unwrap();

        // Visitor may generate but not modify — Figure 2's split.
        assert!(!hub.can_write(&visitor, &repo_id).unwrap());
        assert!(hub.can_write(&owner_token, &repo_id).unwrap());
        let c = hub
            .generate_citation(&repo_id, "main", &path("f1.txt"))
            .unwrap();
        assert_eq!(c.repo_name, "C2");
        assert!(matches!(
            hub.add_cite(&visitor, &repo_id, "main", &path("f1.txt"), cite("X")),
            Err(HubError::PermissionDenied(_))
        ));
        assert!(matches!(
            hub.del_cite(&visitor, &repo_id, "main", &path("f1.txt")),
            Err(HubError::PermissionDenied(_))
        ));
        // Visitor push is rejected too.
        assert!(matches!(
            hub.push(&visitor, &repo_id, "main", &local, "main", false),
            Err(HubError::PermissionDenied(_))
        ));
    }

    #[test]
    fn membership_grants_write() {
        let (hub, owner_token, repo_id) = hub_with_repo();
        hub.register_user("yanssie", "Yanssie").unwrap();
        let yanssie = hub.login("yanssie").unwrap();
        // Non-owner cannot add members.
        assert!(matches!(
            hub.add_member(&yanssie, &repo_id, "yanssie", Role::Member),
            Err(HubError::PermissionDenied(_))
        ));
        hub.add_member(&owner_token, &repo_id, "yanssie", Role::Member)
            .unwrap();
        assert_eq!(
            hub.role_of(&repo_id, "yanssie").unwrap(),
            Some(Role::Member)
        );
        assert!(hub.can_write(&yanssie, &repo_id).unwrap());
        // Member can cite the root (ModifyCite).
        let c = hub
            .generate_citation(&repo_id, "main", &RepoPath::root())
            .unwrap();
        hub.modify_cite(&yanssie, &repo_id, "main", &RepoPath::root(), c)
            .unwrap();
    }

    #[test]
    fn cite_ops_create_commits() {
        let (hub, token, repo_id) = hub_with_repo();
        let before = hub.log(&repo_id, "main").unwrap().len();
        // Cite the root (always exists).
        let mut c = hub
            .generate_citation(&repo_id, "main", &RepoPath::root())
            .unwrap();
        c.note = Some("updated".into());
        hub.modify_cite(&token, &repo_id, "main", &RepoPath::root(), c)
            .unwrap();
        let log = hub.log(&repo_id, "main").unwrap();
        assert_eq!(log.len(), before + 1);
        assert!(log[0].message.contains("modify_cite"));
        // The change is visible.
        let entry = hub
            .citation_entry(&repo_id, "main", &RepoPath::root())
            .unwrap()
            .unwrap();
        assert_eq!(entry.note.as_deref(), Some("updated"));
    }

    #[test]
    fn failed_cite_op_leaves_repo_untouched() {
        let (hub, token, repo_id) = hub_with_repo();
        let before = hub.log(&repo_id, "main").unwrap();
        // AddCite on a missing path fails...
        assert!(matches!(
            hub.add_cite(&token, &repo_id, "main", &path("nope.txt"), cite("X")),
            Err(HubError::Cite(_))
        ));
        // ...and no commit happened.
        assert_eq!(hub.log(&repo_id, "main").unwrap(), before);
        // The failure is audited.
        let audit = hub.audit_log();
        let last = audit.last().unwrap();
        assert_eq!(last.action, "add_cite");
        assert!(!last.ok);
    }

    #[test]
    fn store_factory_backs_created_and_forked_repos() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let data_dir =
            std::env::temp_dir().join(format!("hub-store-factory-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let factory_dir = data_dir.clone();
        let factory_counter = counter.clone();
        let hub = Hub::with_store_factory(
            "https://hub.example",
            Box::new(move || {
                let n = factory_counter.fetch_add(1, Ordering::SeqCst);
                Box::new(gitlite::DiskStore::open(factory_dir.join(format!("repo{n}"))).unwrap())
            }),
        );
        hub.register_user("ann", "Ann").unwrap();
        let ann = hub.login("ann").unwrap();
        let repo_id = hub.create_repo(&ann, "durable").unwrap();
        let fork_id = hub.fork(&ann, &repo_id, "durable-fork").unwrap();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            2,
            "create and fork each drew a store"
        );
        // Both repositories' objects are actually on disk, not in memory.
        for n in 0..2 {
            let store = gitlite::DiskStore::open(data_dir.join(format!("repo{n}"))).unwrap();
            assert!(
                !gitlite::ObjectStore::is_empty(&store),
                "repo{n} store persisted objects"
            );
        }
        // And both still serve reads through the platform API.
        let c = hub
            .generate_citation(&fork_id, "main", &gitlite::RepoPath::root())
            .unwrap();
        assert_eq!(c.repo_name, "durable-fork");
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn fork_creates_new_repo_with_provenance() {
        let (hub, _, repo_id) = hub_with_repo();
        hub.register_user("susan", "Susan Davidson").unwrap();
        let susan = hub.login("susan").unwrap();
        let fork_id = hub.fork(&susan, &repo_id, "P1-fork").unwrap();
        assert_eq!(fork_id, "susan/P1-fork");
        let root = hub
            .generate_citation(&fork_id, "main", &RepoPath::root())
            .unwrap();
        assert_eq!(root.repo_name, "P1-fork");
        assert_eq!(root.owner, "Susan Davidson");
        assert_eq!(
            root.extra.get("forkedFrom").unwrap()["repoName"].as_str(),
            Some("P1")
        );
        // Susan owns the fork and can write to it but not to the origin.
        assert!(hub.can_write(&susan, &fork_id).unwrap());
        assert!(!hub.can_write(&susan, &repo_id).unwrap());
    }

    #[test]
    fn deposit_mints_doi_and_resolves() {
        let (hub, token, repo_id) = hub_with_repo();
        let dep = hub.deposit(&token, &repo_id, "main", "P1 v1.0").unwrap();
        assert!(dep.doi.starts_with("10.5281/zenodo."));
        let resolved = hub.resolve_doi(&dep.doi).unwrap();
        assert_eq!(resolved.repo_id, repo_id);
        assert_eq!(resolved.creators, vec!["Leshang Chen".to_owned()]);
        assert!(matches!(
            hub.resolve_doi("10.1/nope"),
            Err(HubError::DoiNotFound(_))
        ));
    }

    #[test]
    fn heritage_archive_via_hub() {
        let (hub, _, repo_id) = hub_with_repo();
        let report = hub.archive(&repo_id).unwrap();
        assert_eq!(report.heads.len(), 1);
        assert!(hub.resolve_swhid(&report.heads[0]).is_ok());
        assert_eq!(hub.archive_visits(&repo_id), 1);
        hub.archive(&repo_id).unwrap();
        assert_eq!(hub.archive_visits(&repo_id), 2);
    }

    #[test]
    fn server_side_merge() {
        let (hub, token, repo_id) = hub_with_repo();
        // Build a branch with a cited file locally, push both branches.
        let cloned = hub.clone_repo(&repo_id).unwrap();
        let mut local = citekit::CitedRepo::open(cloned).unwrap();
        local.write_file(&path("a.txt"), &b"a\n"[..]).unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 50), "a")
            .unwrap();
        local.create_branch("gui").unwrap();
        local.checkout_branch("gui").unwrap();
        local
            .write_file(&path("gui/app.js"), &b"app\n"[..])
            .unwrap();
        local.add_cite(&path("gui"), cite("gui-cite")).unwrap();
        local
            .commit(Signature::new("Yanssie", "y@x", 60), "gui work")
            .unwrap();
        local.checkout_branch("main").unwrap();
        local.write_file(&path("b.txt"), &b"b\n"[..]).unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 70), "b")
            .unwrap();
        let local_repo = local.into_repository();
        hub.push(&token, &repo_id, "main", &local_repo, "main", false)
            .unwrap();
        hub.push(&token, &repo_id, "gui", &local_repo, "gui", false)
            .unwrap();

        let report = hub
            .merge_branches(&token, &repo_id, "main", "gui", MergeStrategy::Union)
            .unwrap();
        assert!(matches!(report.outcome, MergeOutcome::Merged(_)));
        // The merged branch resolves gui files to the gui citation.
        let c = hub
            .generate_citation(&repo_id, "main", &path("gui/app.js"))
            .unwrap();
        assert_eq!(c.repo_name, "gui-cite");
    }

    #[test]
    fn credit_queries() {
        let (hub, token, repo_id) = hub_with_repo();
        let mut local = citekit::CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
        local.write_file(&path("core/a.rs"), &b"a\n"[..]).unwrap();
        let mut c = cite("core");
        c.author_list = vec!["Ada".into(), "Grace".into()];
        local.add_cite(&path("core"), c).unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 50), "core")
            .unwrap();
        hub.push(&token, &repo_id, "main", local.repo(), "main", false)
            .unwrap();

        let credits = hub.credited_authors(&repo_id, "main").unwrap();
        let names: Vec<&str> = credits.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(names, vec!["Leshang Chen", "Ada", "Grace"]);

        let found = hub.find_repos_citing("Ada");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, repo_id);
        assert_eq!(found[0].1, vec![path("core")]);
        assert!(hub.find_repos_citing("Nobody").is_empty());
    }

    #[test]
    fn audit_log_tracks_operations() {
        let (hub, token, repo_id) = hub_with_repo();
        hub.generate_citation(&repo_id, "main", &RepoPath::root())
            .unwrap();
        let mut c = hub
            .generate_citation(&repo_id, "main", &RepoPath::root())
            .unwrap();
        c.note = Some("x".into());
        hub.modify_cite(&token, &repo_id, "main", &RepoPath::root(), c)
            .unwrap();
        let log = hub.audit_log();
        let actions: Vec<&str> = log.iter().map(|e| e.action.as_str()).collect();
        assert!(actions.contains(&"register_user"));
        assert!(actions.contains(&"create_repo"));
        assert!(actions.contains(&"generate_citation"));
        assert!(actions.contains(&"modify_cite"));
        // Sequence numbers are dense and increasing.
        for (i, e) in log.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn store_stats_reports_objects_and_cache() {
        // MemStore-backed repos: object count, no cache in the stack.
        let (hub, _, repo_id) = hub_with_repo();
        let stats = hub.store_stats(&repo_id).unwrap();
        assert_eq!(stats.repo_id, repo_id);
        assert!(stats.objects > 0);
        assert!(stats.cache.is_none());
        assert!(matches!(
            hub.store_stats("nobody/none"),
            Err(HubError::RepoNotFound(_))
        ));

        // CachedStore-backed repos expose their LRU counters.
        let data_dir =
            std::env::temp_dir().join(format!("hub-store-stats-{}-{:p}", std::process::id(), &hub));
        let _ = std::fs::remove_dir_all(&data_dir);
        let hub2 = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
        hub2.register_user("ann", "Ann").unwrap();
        let ann = hub2.login("ann").unwrap();
        let rid = hub2.create_repo(&ann, "cached").unwrap();
        // Reads served straight off the hosted store hit its LRU.
        hub2.list_files(&rid, "main").unwrap();
        hub2.list_files(&rid, "main").unwrap();
        let stats = hub2.store_stats(&rid).unwrap();
        let cache = stats.cache.expect("pack storage stacks a read cache");
        assert!(cache.hits + cache.misses > 0, "reads were counted");
        assert!(cache.hits > 0, "repeat walks hit the cache");
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn maintenance_gcs_pack_backed_repos() {
        let data_dir = std::env::temp_dir().join(format!("hub-maintenance-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let hub = Hub::with_pack_storage("https://hub.example", &data_dir).unwrap();
        hub.register_user("ann", "Ann").unwrap();
        let ann = hub.login("ann").unwrap();
        let a = hub.create_repo(&ann, "one").unwrap();
        let b = hub.create_repo(&ann, "two").unwrap();
        // Grow some history so there is something to pack.
        for (i, repo_id) in [&a, &b].into_iter().enumerate() {
            let mut c = hub
                .generate_citation(repo_id, "main", &RepoPath::root())
                .unwrap();
            c.note = Some(format!("pass {i}"));
            hub.modify_cite(&ann, repo_id, "main", &RepoPath::root(), c)
                .unwrap();
        }
        let report = hub.maintenance().unwrap();
        assert_eq!(report.len(), 2);
        for entry in &report {
            assert!(entry.supported, "{} backend supports gc", entry.repo_id);
            assert!(entry.packed > 0, "{} packed objects", entry.repo_id);
        }
        // Repositories still serve reads after compaction.
        let c = hub
            .generate_citation(&a, "main", &RepoPath::root())
            .unwrap();
        assert_eq!(c.note.as_deref(), Some("pass 0"));
        // Mem-backed hubs report unsupported instead of failing.
        let (mem_hub, _, mem_repo) = hub_with_repo();
        let report = mem_hub.maintenance().unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].repo_id, mem_repo);
        assert!(!report[0].supported);
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn wire_round_trip_through_handle_wire() {
        let (hub, _, repo_id) = hub_with_repo();
        // A read request over the literal wire encoding.
        let request = ApiRequest::GenerateCitation {
            repo_id: repo_id.clone(),
            branch: "main".into(),
            path: RepoPath::root(),
        };
        let response = ApiResponse::parse(&hub.handle_wire(&request.encode())).unwrap();
        match response.into_result().unwrap() {
            ApiResponse::Citation(c) => assert_eq!(c.repo_name, "P1"),
            other => panic!("unexpected response {other:?}"),
        }
        // Errors carry structured codes.
        let request = ApiRequest::Branches {
            repo_id: "nobody/none".into(),
        };
        let response = ApiResponse::parse(&hub.handle_wire(&request.encode())).unwrap();
        let ApiResponse::Error(err) = response else {
            panic!("expected an error response");
        };
        assert_eq!(err.code, crate::api::ErrorCode::RepoNotFound);
        assert_eq!(err.detail.as_deref(), Some("nobody/none"));
        // Garbage is a protocol error, not a panic.
        let text = hub.handle_wire("not json");
        let ApiResponse::Error(err) = ApiResponse::parse(&text).unwrap() else {
            panic!("expected an error response");
        };
        assert_eq!(err.code, crate::api::ErrorCode::Protocol);
    }
}
