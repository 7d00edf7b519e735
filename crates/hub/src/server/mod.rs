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
//! `list_repos`) walk the paginated reads. Each `wrappers!` row declares
//! one typed method for both `Hub` and [`crate::client::HubClient`], so
//! the two typed surfaces are one declaration; the few methods whose two
//! forms differ (`import_repo`, `push`, `revoke`, ...) are written by
//! hand on each type, and [`crate::client`] lists them. The operations
//! live in submodules along their seams: `auth` (users, tokens, lockout, rate
//! limits, quotas), `repos` (hosting, roles, reads, pushes, forks),
//! `cite` (cite ops, merges, deposits, archives, credit queries),
//! `replica` (the follower side of [`crate::repl`]) and `operator`
//! (metrics, maintenance, settings).
//!
//! # One log, one mutation path
//!
//! Every operation appends one entry to the hub's log ([`crate::audit`]):
//! the [`crate::AuditEvent`] header `audit_log_page` serves and, for a
//! write, the typed records of what it changed. A write validates,
//! builds its records and hands them to `Hub::apply`, the only code that
//! changes users, credentials, the repository map, roles, deposits, the
//! archive and the log. Refs and HEAD move inside gitlite and citekit
//! (a cite op's or merge's store edit, a push); their records state the
//! move made. So a log and the repositories' object stores
//! are enough to rebuild the hub (`Hub::replay`).
//!
//! Some state is deliberately not logged, because it belongs to a
//! session or to operations rather than to what the hub hosts: tokens,
//! failed-login streaks and lockouts, rate-limit buckets, the quota
//! ledger of accepted bytes (`repo_bytes`), operator grants and
//! settings. A replayed hub starts without them. A follower's
//! repositories mirror its primary's through bundles instead (see
//! [`crate::repl`]).
//!
//! # Locking
//!
//! State is sharded so the read-heavy citation workload scales:
//!
//! * `users` / `tokens` — `RwLock`ed tables (auth is a shared read).
//! * `repos` — an `RwLock` map of `Arc<RwLock<HostedRepo>>`. Reads on
//!   different repositories touch different locks entirely; shared reads
//!   on the *same* repository (generate_citation, read_file, log, ...)
//!   proceed concurrently under one read guard and borrow the hosted
//!   repository in place. Writes share one preamble: take the
//!   repository's write lock, tick under it, check the role, and apply
//!   their entry before the lock is released — so the log order of a
//!   repository's `RefUpdated` records is the order its refs moved.
//!   A merge edits the store under the write lock like a cite op; a
//!   fork copies the source's objects under its read guard. Archive
//!   walks under the repository's read guard, which it holds until its
//!   entry is in the log.
//! * each repository's roles and citation memo — leaf locks inside the
//!   repository. The memo slot holds the last parsed `citation.cite`
//!   keyed by its blob id, taken only to look and to store, never across
//!   a store read or a parse.
//! * `log` / `zenodo` / `heritage` — leaf `Mutex`es. The log is taken
//!   last, inside a repository lock; a deposit holds `zenodo` from its
//!   mint to its entry, so `zenodo` comes before the log.
//! * `clock` / token counter — atomics.
//!
//! Lock order: a repository lock is only ever taken *after* the `repos`
//! map guard has been dropped (the `Arc` is cloned out), and the leaf
//! locks never take any lock but the log — so the order
//! `users/tokens → repos map → one repository → leaf → log` is acyclic
//! and deadlock-free. The abuse-resistance tables added for untrusted
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

/// Declares the typed methods of both [`Hub`] and
/// [`HubClient`](crate::client::HubClient), one row each: the method's
/// signature, the request it sends, and the response shape it unpacks
/// (optionally wrapped, as a token string in [`Token`]) — any other shape
/// is a protocol error. `Hub`'s form dispatches the request in process;
/// the client's sends it through its transport with [`HubClient::call`].
/// A method whose two forms differ is written by hand on each type.
///
/// [`HubClient::call`]: crate::client::HubClient::call
macro_rules! wrappers {
    (@unpack $response:expr, Unit) => {
        match $response {
            ApiResponse::Unit => Ok(()),
            other => Err(unexpected(&other)),
        }
    };
    (@unpack $response:expr, $shape:ident $(($wrap:path))?) => {
        match $response {
            ApiResponse::$shape(value) => Ok($($wrap)?(value)),
            other => Err(unexpected(&other)),
        }
    };
    ($(
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty =
            $request:ident { $($field:ident $(: $value:expr)?),* $(,)? }
            => $shape:ident $(($wrap:path))?;
    )*) => {
        impl Hub {
            $(
                $(#[$doc])*
                pub fn $name(&self, $($arg: $ty),*) -> Result<$ret> {
                    let request = ApiRequest::$request { $($field $(: $value)?),* };
                    wrappers!(@unpack self.unwrap(request)?, $shape $(($wrap))?)
                }
            )*
        }

        impl<T: crate::client::Transport> crate::client::HubClient<T> {
            $(
                $(#[$doc])*
                pub fn $name(&self, $($arg: $ty),*) -> Result<$ret> {
                    let request = ApiRequest::$request { $($field $(: $value)?),* };
                    wrappers!(@unpack self.call(request)?, $shape $(($wrap))?)
                }
            )*
        }
    };
}

mod auth;
mod cite;
mod operator;
mod replica;
mod repos;

pub(crate) use auth::Credential;
pub use auth::{LimitsConfig, RateLimit, FAILURE_DECAY_TICKS, LOCKOUT_TICKS, MAX_LOGIN_FAILURES};
pub use repos::LogEntry;

use crate::api::{ApiRequest, ApiResponse, RepoBundle, StoreStats};
use crate::audit::{AuditLog, Header, Record};
use crate::error::{HubError, Result};
use crate::heritage::{ArchiveReport, Heritage};
use crate::perm::{Action, Role};
use crate::repl::ReplState;
use crate::zenodo::Zenodo;
use auth::{LoginState, TokenBucket, TokenEntry};
use citekit::{CitationFunction, CiteOp};
use gitlite::{ObjectId, Repository};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// A hosted repository. `repo` holds no worktree: reads go by commit,
/// every later write — import, push, replica round, cite op, merge and
/// fork — edits the store and moves refs without a checkout, and create
/// drops the worktree its first commit was made from.
#[derive(Debug)]
pub(crate) struct HostedRepo {
    repo: Repository,
    /// username → role. Absence means Reader (public repositories). A
    /// leaf lock, so an entry holding the repository's read guard (an
    /// archive, a replay) can still set a role.
    roles: RwLock<BTreeMap<String, Role>>,
    cite_memo: CiteMemo,
}

/// The last citation function read from a repository, keyed by the id of
/// its `citation.cite` blob: a content address, so no write can make the
/// slot stale, and a new blob simply misses. One slot: every member edit
/// mints a new blob, and a map of past ones would only grow the resident
/// set. Locked only to look and to store, never across a read or a parse.
#[derive(Debug, Default)]
struct CiteMemo(Mutex<Option<(ObjectId, Arc<CitationFunction>)>>);

impl CiteMemo {
    /// The citation function stored in `blob`: the slot's when it holds
    /// that blob, otherwise read and parsed from `repo`'s store.
    fn get(&self, repo: &Repository, blob: ObjectId) -> citekit::Result<Arc<CitationFunction>> {
        if let Some((id, func)) = &*self.0.lock() {
            if *id == blob {
                return Ok(Arc::clone(func));
            }
        }
        let func = Arc::new(citekit::version::read_function(repo, blob)?);
        self.seed(blob, Arc::clone(&func));
        Ok(func)
    }

    /// Puts `func`, the function stored in `blob`, in the slot.
    fn seed(&self, blob: ObjectId, func: Arc<CitationFunction>) {
        *self.0.lock() = Some((blob, func));
    }
}

impl HostedRepo {
    fn new(repo: Repository, roles: BTreeMap<String, Role>) -> HostedRepo {
        HostedRepo {
            repo,
            roles: RwLock::new(roles),
            cite_memo: CiteMemo::default(),
        }
    }

    /// `username`'s role here.
    fn role(&self, username: &str) -> Role {
        *self.roles.read().get(username).unwrap_or(&Role::Reader)
    }

    /// The citation function of the committed version `version`.
    fn function_at(&self, version: ObjectId) -> citekit::Result<Arc<CitationFunction>> {
        let blob = citekit::version::function_blob(&self.repo, version)?;
        self.cite_memo.get(&self.repo, blob)
    }
}

type RepoCell = Arc<RwLock<HostedRepo>>;

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
    log: Mutex<AuditLog>,
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
}

impl Default for Hub {
    fn default() -> Self {
        Hub::new("")
    }
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
            log: Mutex::new(AuditLog::default()),
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
        }
    }

    /// [`Hub::new`] with durable packfile storage: each hosted repository
    /// is created on a `CachedStore<PackStore>` rooted under its own
    /// subdirectory of `data_dir` (`repo-0`, `repo-1`, ...). An import
    /// lands as one pack with a commit-graph, reads hit the LRU, cold
    /// loads are positioned reads of the pack file, and new pushes land
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
                let role = cell.read().roles.read().get(&username).copied();
                R::RoleOpt(role)
            }
            Q::CanWrite { token, repo_id } => {
                let user = self.auth(&token)?;
                let cell = self.repo(&repo_id)?;
                let allowed = cell.read().role(&user.username).allows(Action::Write);
                R::Bool(allowed)
            }
            Q::Branches { repo_id } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                R::Names(hosted.repo.branches().map(|(b, _)| b.to_owned()).collect())
            }
            Q::ListFiles { repo_id, branch } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                let snapshot = hosted.repo.snapshot(tip).map_err(HubError::Git)?;
                R::Paths(snapshot.into_keys().collect())
            }
            Q::ReadFile {
                repo_id,
                branch,
                path,
            } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                let data = hosted.repo.file_at(tip, &path).map_err(HubError::Git)?;
                R::FileData(data.to_vec())
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
                let bundle = RepoBundle::from_repository(&cell.read().repo);
                let bundle = bundle.map_err(HubError::Git)?;
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
                    citekit::version::cite_at(&hosted.repo, tip, &path, |blob| {
                        hosted.cite_memo.get(&hosted.repo, blob)
                    })
                    .map_err(HubError::Cite)?
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
                let blob = hosted
                    .repo
                    .blob_at(tip, &citekit::citation_path())
                    .map_err(HubError::Git)?;
                let func = hosted
                    .cite_memo
                    .get(&hosted.repo, blob)
                    .map_err(HubError::Cite)?;
                R::CitationOpt(func.get(&path).cloned())
            }
            Q::AddCite {
                token,
                repo_id,
                branch,
                path,
                citation,
            } => {
                R::Commit(self.cite_op(&token, &repo_id, &branch, &path, CiteOp::Add(citation))?)
            }
            Q::ModifyCite {
                token,
                repo_id,
                branch,
                path,
                citation,
            } => {
                let op = CiteOp::Modify(citation);
                R::Commit(self.cite_op(&token, &repo_id, &branch, &path, op)?)
            }
            Q::DelCite {
                token,
                repo_id,
                branch,
                path,
            } => R::Commit(self.cite_op(&token, &repo_id, &branch, &path, CiteOp::Del)?),
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
            Q::Archive { repo_id } => R::Archive(self.op_archive(&repo_id)?),
            Q::ResolveSwhid { swhid } => {
                let (kind, id) = self.heritage.lock().resolve(&swhid)?;
                R::Swhid(kind, id)
            }
            Q::ArchiveVisits { repo_id } => {
                self.repo(&repo_id)?;
                let origin = format!("{}/{}", self.base_url, repo_id);
                R::Count(self.heritage.lock().visits(&origin) as u64)
            }
            Q::CreditedAuthors { repo_id, branch } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let tip = hosted.repo.branch_tip(&branch).map_err(HubError::Git)?;
                let func = hosted.function_at(tip).map_err(HubError::Cite)?;
                R::Credits(func.credited_authors())
            }
            Q::FindReposCiting { author } => R::Credits(self.op_find_repos_citing(&author)?),
            Q::StoreStats { repo_id } => {
                let cell = self.repo(&repo_id)?;
                let hosted = cell.read();
                let odb = hosted.repo.odb();
                R::Stats(StoreStats {
                    repo_id,
                    objects: odb.len() as u64,
                    cache: odb.cache_metrics(),
                    graph_commits: odb.commit_graph().map(|g| g.len() as u64),
                    delta_objects: odb.delta_objects(),
                    bloom_commits: odb.commit_graph().map(|g| g.bloom_coverage() as u64),
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
        })
    }

    fn unwrap(&self, request: ApiRequest) -> Result<ApiResponse> {
        self.dispatch(request).into_result()
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

    /// Logs an entry that changed no state: a read, a login, a denial.
    fn record(&self, ts: i64, actor: Option<&str>, action: &str, target: &str, ok: bool) {
        let header = Header::local(ts, actor, action, target, ok);
        // Without records, apply cannot fail.
        let _ = self.apply(header, Vec::new(), Held::None);
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

    /// Every repository cell, cloned out of the map in id order.
    fn cells(&self) -> Vec<(String, RepoCell)> {
        let repos = self.repos.read();
        let cells = repos
            .iter()
            .map(|(id, cell)| (id.clone(), Arc::clone(cell)));
        cells.collect()
    }

    /// The preamble every repository write shares: take the repository's
    /// write lock, tick under it (commit timestamps must follow the order
    /// writes land on a branch), check `user`'s role, then run `body`
    /// with the tick and the header of its success. A denial or a failed
    /// body is logged as one `ok=false` entry; a body that succeeds
    /// applies its own entry before the lock is released.
    fn write_repo<T>(
        &self,
        user: &User,
        repo_id: &str,
        action: &str,
        needed: Action,
        body: impl FnOnce(&mut HostedRepo, i64, Header) -> Result<T>,
    ) -> Result<T> {
        let cell = self.repo(repo_id)?;
        let mut hosted = cell.write();
        let ts = self.tick();
        let ok = Header::local(ts, Some(&user.username), action, repo_id, true);
        let result =
            check(&hosted, &user.username, needed).and_then(|()| body(&mut hosted, ts, ok));
        if result.is_err() {
            self.record(ts, Some(&user.username), action, repo_id, false);
        }
        result
    }

    /// Hosts `repo` as `repo_id` for `user`: `RepoCreated`, then the
    /// moves from a fresh repository (no refs, HEAD on the default
    /// branch) to `repo`'s refs and HEAD.
    fn host(
        &self,
        ts: i64,
        user: &User,
        action: &str,
        repo_id: &str,
        repo: Repository,
    ) -> Result<()> {
        let fresh = (Some(gitlite::DEFAULT_BRANCH.to_owned()), Vec::new());
        let mut records = vec![Record::RepoCreated {
            repo_id: repo_id.to_owned(),
            name: repo.name().to_owned(),
            owner: user.username.clone(),
        }];
        records.extend(ref_moves(repo_id, &fresh, &repo));
        let header = Header::local(ts, Some(&user.username), action, repo_id, true);
        self.apply(header, records, Held::Created(repo)).map(drop)
    }

    /// Applies `records` in order, then appends them under `header`: the
    /// only code that changes users, credentials, the repository map,
    /// roles, deposits, the archive and the log. `RefUpdated` and
    /// `HeadSet` only log a move gitlite or citekit already made (or
    /// `Hub::replay` redid). A record that conflicts with the state — a
    /// taken username or repository id — fails the call before anything
    /// changed. A follower applies only `Deposited` records, and appends
    /// no local entries: its log is a copy of its primary's.
    pub(crate) fn apply(
        &self,
        header: Header,
        mut records: Vec<Record>,
        mut held: Held<'_>,
    ) -> Result<Applied> {
        let follower = self.repl.read().is_some();
        if follower {
            // Auth stays local: a follower takes only deposits.
            records.retain(|record| matches!(record, Record::Deposited(_)));
        }
        let mut applied = Applied::default();
        // A new repository stays out of reach until its entry is in the
        // log, so no write to it can be logged before its creation.
        let mut hosting = None;
        for record in &records {
            match record {
                Record::UserRegistered {
                    username,
                    display_name,
                    credential,
                } => {
                    let mut users = self.users.write();
                    if users.contains_key(username) {
                        return Err(HubError::UserExists(username.clone()));
                    }
                    users.insert(
                        username.clone(),
                        User {
                            username: username.clone(),
                            display_name: display_name.clone(),
                            email: format!("{username}@hub.example"),
                        },
                    );
                    drop(users);
                    if let Some(credential) = credential {
                        let mut credentials = self.credentials.write();
                        credentials.insert(username.clone(), credential.clone());
                    }
                }
                Record::RepoCreated { repo_id, owner, .. } => {
                    let Held::Created(repo) = std::mem::replace(&mut held, Held::None) else {
                        unreachable!("a RepoCreated record comes with its repository");
                    };
                    let mut repos = self.repos.write();
                    if repos.contains_key(repo_id) {
                        return Err(HubError::RepoExists(repo_id.clone()));
                    }
                    let roles = BTreeMap::from([(owner.clone(), Role::Owner)]);
                    let hosted = HostedRepo::new(repo, roles);
                    repos.insert(repo_id.clone(), Arc::new(RwLock::new(hosted)));
                    hosting = Some(repos);
                }
                Record::RoleSet {
                    repo_id,
                    username,
                    role,
                } => self.in_repo(&held, repo_id, |hosted| {
                    hosted.roles.write().insert(username.clone(), *role);
                    Ok(())
                })?,
                Record::RefUpdated { .. } | Record::HeadSet { .. } => {}
                Record::Deposited(deposit) => {
                    let new = match &mut held {
                        Held::Zenodo(zenodo) => zenodo.ingest(deposit.clone()),
                        _ => self.zenodo.lock().ingest(deposit.clone()),
                    };
                    applied.new_deposits += usize::from(new);
                }
                Record::Archived { repo_id } => {
                    let origin = self.repo_url(repo_id);
                    let report = self.in_repo(&held, repo_id, |hosted| {
                        self.heritage.lock().archive(&origin, &hosted.repo)
                    })?;
                    applied.archive = Some(report);
                }
            }
        }
        if !(follower && matches!(header, Header::Local(_))) {
            let mut log = self.log.lock();
            log.append(header, records).map_err(|next| {
                HubError::Protocol(format!("log replication gap: next local seq is {next}"))
            })?;
        }
        drop(hosting);
        Ok(applied)
    }

    /// Runs `f` on the repository an operation holds, or else locks it.
    fn in_repo<T>(
        &self,
        held: &Held,
        id: &str,
        f: impl FnOnce(&HostedRepo) -> Result<T>,
    ) -> Result<T> {
        match held {
            Held::Repo(hosted) => f(hosted),
            _ => f(&self.repo(id)?.read()),
        }
    }
}

pub(crate) fn unexpected(response: &ApiResponse) -> HubError {
    HubError::Protocol(format!(
        "response shape does not match the request (got {})",
        response.kind()
    ))
}

fn check(hosted: &HostedRepo, username: &str, action: Action) -> Result<()> {
    if hosted.role(username).allows(action) {
        Ok(())
    } else {
        Err(HubError::PermissionDenied(format!(
            "{username} lacks {action:?} rights on this repository"
        )))
    }
}

/// What an operation already holds that its records need.
pub(crate) enum Held<'a> {
    /// Nothing: apply locks what the records name.
    None,
    /// The locked repository the records are about.
    Repo(&'a HostedRepo),
    /// The repository a `RepoCreated` record hosts.
    Created(Repository),
    /// The deposit archive, locked from the mint on so no other deposit
    /// takes the same DOI.
    Zenodo(&'a mut Zenodo),
}

/// What [`Hub::apply`] did beyond changing state.
#[derive(Default)]
pub(crate) struct Applied {
    /// Deposits whose DOI was new here.
    pub new_deposits: usize,
    /// The report of an `Archived` record.
    pub archive: Option<ArchiveReport>,
}

/// A repository's HEAD branch and branch tips: the replication cursor
/// a follower derives, and the state an operation's ref records diff.
type Frontier = (Option<String>, Vec<(String, ObjectId)>);

fn frontier(repo: &Repository) -> Frontier {
    let refs = repo.branches().map(|(b, tip)| (b.to_owned(), tip));
    (repo.current_branch().map(str::to_owned), refs.collect())
}

/// The records of the moves from `before` to `after`: a `RefUpdated`
/// for each branch created or moved, then a `HeadSet` if HEAD moved.
/// Hub operations never delete a branch.
fn ref_moves(repo_id: &str, (head, refs): &Frontier, after: &Repository) -> Vec<Record> {
    let mut records: Vec<Record> = after
        .branches()
        .filter_map(|(branch, new)| {
            let old = refs.iter().find(|(b, _)| b == branch).map(|(_, tip)| *tip);
            (old != Some(new)).then(|| Record::RefUpdated {
                repo_id: repo_id.to_owned(),
                branch: branch.to_owned(),
                old,
                new,
            })
        })
        .collect();
    if after.current_branch() != head.as_deref() {
        records.extend(after.current_branch().map(|branch| Record::HeadSet {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
        }));
    }
    records
}

/// Replay is what reopening a durable hub will run; until then only the
/// tests rebuild hubs.
#[cfg(test)]
impl Hub {
    /// Rebuilds a hub from a log: every entry goes through
    /// [`Hub::apply`], each created repository opens its object store
    /// with `open_store(repo_id)`, and each ref move is redone as a
    /// compare-and-set. The in-memory precursor of reopening a durable
    /// hub; the state the log leaves out (see the module docs) starts
    /// empty, and the clock ends at or past the last entry's timestamp.
    pub(crate) fn replay(
        base_url: impl Into<String>,
        entries: Vec<crate::audit::Entry>,
        mut open_store: impl FnMut(&str) -> Box<dyn gitlite::ObjectStore>,
    ) -> Result<Hub> {
        let hub = Hub::new(base_url);
        for crate::audit::Entry { event, records } in entries {
            let ts = event.timestamp;
            let held = records
                .iter()
                .find_map(|record| match record {
                    Record::RepoCreated { repo_id, name, .. } => Some(Held::Created(
                        Repository::init_with(name.clone(), open_store(repo_id)),
                    )),
                    _ => None,
                })
                .unwrap_or(Held::None);
            let moves: Vec<Record> = records
                .iter()
                .filter(|r| matches!(r, Record::RefUpdated { .. } | Record::HeadSet { .. }))
                .cloned()
                .collect();
            hub.apply(Header::Copied(event), records, held)?;
            for record in moves {
                hub.redo_move(record)?;
            }
            hub.clock.fetch_max(ts, Ordering::SeqCst);
        }
        Ok(hub)
    }

    /// Redoes one logged ref or HEAD move. A ref must be where the
    /// record says it was; the log is corrupt or out of order otherwise.
    fn redo_move(&self, record: Record) -> Result<()> {
        match record {
            Record::RefUpdated {
                repo_id,
                branch,
                old,
                new,
            } => {
                let cell = self.repo(&repo_id)?;
                let repo = &mut cell.write().repo;
                let at = repo.branch_tip(&branch).ok();
                if at != old {
                    return Err(HubError::Protocol(format!(
                        "replay: {repo_id} branch {branch} is at {at:?}, the log says {old:?}"
                    )));
                }
                repo.set_branch(&branch, new).map_err(HubError::Git)?;
                // As a push does: HEAD stays on a branch that moved,
                // which also makes a new repository's unborn HEAD real.
                if repo.current_branch() == Some(branch.as_str()) {
                    repo.set_head(&branch).map_err(HubError::Git)?;
                }
            }
            Record::HeadSet { repo_id, branch } => {
                let cell = self.repo(&repo_id)?;
                let repo = &mut cell.write().repo;
                repo.set_head(&branch).map_err(HubError::Git)?;
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MergeOutcome;
    use citekit::{Citation, MergeStrategy};
    use gitlite::{path, Signature};

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
        let audit = hub.audit_log().unwrap();
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
        assert_eq!(hub.archive_visits(&repo_id).unwrap(), 1);
        hub.archive(&repo_id).unwrap();
        assert_eq!(hub.archive_visits(&repo_id).unwrap(), 2);
    }

    #[test]
    fn archive_visits_of_an_unhosted_repository_is_repo_not_found() {
        let (hub, _, repo_id) = hub_with_repo();
        assert_eq!(hub.archive_visits(&repo_id).unwrap(), 0);
        assert!(matches!(
            hub.archive_visits("nobody/none"),
            Err(HubError::RepoNotFound(id)) if id == "nobody/none"
        ));
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

        let found = hub.find_repos_citing("Ada").unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, repo_id);
        assert_eq!(found[0].1, vec![path("core")]);
        assert!(hub.find_repos_citing("Nobody").unwrap().is_empty());
    }

    #[test]
    fn credit_search_fails_on_a_citation_file_that_does_not_load() {
        let (hub, token, repo_id) = hub_with_repo();
        let mut local = hub.clone_repo(&repo_id).unwrap();
        local
            .worktree_mut()
            .write(&citekit::citation_path(), &b"{ not a citation file"[..])
            .unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 50), "corrupt")
            .unwrap();
        hub.push(&token, &repo_id, "main", &local, "main", false)
            .unwrap();
        // The corrupt repository is not read as "cites nobody".
        assert!(matches!(
            hub.find_repos_citing("Leshang Chen"),
            Err(HubError::Cite(citekit::CiteError::BadCitationFile(_)))
        ));
    }

    #[test]
    fn credit_search_reads_a_repository_without_a_citation_file_as_citing_nobody() {
        let (hub, token, cited) = hub_with_repo();
        // A plain import: commits, but no citation.cite.
        let mut plain = Repository::init_with("plain", Box::new(gitlite::MemStore::new()));
        plain
            .worktree_mut()
            .write(&path("a.txt"), &b"a\n"[..])
            .unwrap();
        plain
            .commit(Signature::new("Ann", "a@x", 10), "plain")
            .unwrap();
        hub.import_repo(&token, "plain", plain).unwrap();
        // A push that deletes the citation file from a cited repository.
        let dropped = hub.create_repo(&token, "P2").unwrap();
        let mut local = hub.clone_repo(&dropped).unwrap();
        local
            .worktree_mut()
            .remove_file(&citekit::citation_path())
            .unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 50), "drop citations")
            .unwrap();
        hub.push(&token, &dropped, "main", &local, "main", false)
            .unwrap();

        let found = hub.find_repos_citing("Leshang Chen").unwrap();
        let ids: Vec<&str> = found.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec![cited.as_str()]);
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
        let log = hub.audit_log().unwrap();
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

    /// Imports, pushes, replica rounds and cite ops leave the hosted
    /// worktree empty. A full
    /// push is the delta with an empty basis, so it leaves the state a
    /// negotiated push of the same commits leaves, and it fails the way
    /// a delta does: after the role check, logged as one `ok=false`
    /// entry, its objects hashed under the repository's write lock.
    #[test]
    fn hosted_worktrees_stay_empty() {
        use crate::client::{HubClient, InProcess};
        let empty = |hub: &Hub, id: &str| hub.repo(id).unwrap().read().repo.worktree().is_empty();
        let state = |hub: &Hub, id: &str| {
            let cell = hub.repo(id).unwrap();
            let hosted = cell.read();
            (frontier(&hosted.repo), hosted.repo.odb().len())
        };
        let mut local = citekit::CitedRepo::init("P", "Ann", "https://elsewhere/P");
        local.write_file(&path("a.txt"), &b"a\n"[..]).unwrap();
        local
            .commit(Signature::new("Ann", "a@x", 10), "files")
            .unwrap();
        let mut local = local.into_repository();
        let mut hubs = Vec::new();
        for _ in 0..2 {
            let hub = Hub::new("https://hub.example");
            hub.register_user("ann", "Ann").unwrap();
            let ann = hub.login("ann").unwrap();
            let id = hub.import_repo(&ann, "P", local.clone()).unwrap();
            assert!(empty(&hub, &id), "import");
            hubs.push((hub, ann, id));
        }
        local
            .worktree_mut()
            .write(&path("b.txt"), &b"b\n"[..])
            .unwrap();
        local
            .commit(Signature::new("Ann", "a@x", 20), "more")
            .unwrap();
        let [(full, ann, id), (neg, neg_ann, neg_id)] = &hubs[..] else {
            unreachable!()
        };
        HubClient::in_process(full)
            .push_full(ann, id, "main", &local, "main", false)
            .unwrap();
        assert!(empty(full, id), "full push into HEAD's branch");
        HubClient::in_process(neg)
            .push_negotiated(neg_ann, neg_id, "main", &local, "main", false)
            .unwrap();
        assert!(empty(neg, neg_id), "negotiated push");
        assert_eq!(state(full, id), state(neg, neg_id));

        full.add_cite(ann, id, "main", &path("a.txt"), cite("A"))
            .unwrap();
        assert!(empty(full, id), "cite op");
        let follower = Arc::new(Hub::new("https://follower.example"));
        let engine =
            crate::repl::Follower::new(Arc::clone(&follower), InProcess::new(full), "p:1", 30);
        engine.sync_once().unwrap();
        assert!(empty(&follower, id), "follower bootstrap");

        // A corrupt full push: refused by role first, then by hash.
        local
            .worktree_mut()
            .write(&path("c.txt"), &b"c\n"[..])
            .unwrap();
        local
            .commit(Signature::new("Ann", "a@x", 30), "corrupt")
            .unwrap();
        let mut bundle = RepoBundle::from_branch(&local, "main").unwrap();
        let tip = local.branch_tip("main").unwrap();
        let (_, bytes) = bundle.objects.iter_mut().find(|(o, _)| *o == tip).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        full.register_user("rob", "Rob").unwrap();
        let rob = full.login("rob").unwrap();
        let push = |token: &Token| {
            full.dispatch(ApiRequest::Push {
                token: token.as_str().to_owned(),
                repo_id: id.clone(),
                branch: "main".into(),
                force: false,
                bundle: bundle.clone(),
            })
            .into_result()
        };
        assert!(matches!(push(&rob), Err(HubError::PermissionDenied(_))));
        let logged = full.log.lock().events().len();
        assert!(matches!(
            push(ann),
            Err(HubError::Git(e)) if e.to_string().contains("does not match its content")
        ));
        let log = full.log.lock();
        let new: Vec<_> = log.events()[logged..].iter().collect();
        assert_eq!(new.len(), 1);
        assert_eq!((new[0].action.as_str(), new[0].ok), ("push", false));
    }

    /// No hosted repository holds a worktree, whatever wrote it: create,
    /// import, fork, a merge of each outcome, a cite op and a push.
    #[test]
    fn no_hosted_repository_holds_a_worktree() {
        let hub = Hub::new("https://hub.example");
        hub.register_user("ann", "Ann").unwrap();
        hub.register_user("bob", "Bob").unwrap();
        let ann = hub.login("ann").unwrap();
        let bob = hub.login("bob").unwrap();
        let bare = |step: &str| {
            for (id, cell) in hub.cells() {
                let hosted = cell.read();
                assert!(hosted.repo.worktree().is_empty(), "{id} after {step}");
            }
        };
        let created = hub.create_repo(&ann, "made").unwrap();
        bare("create");
        let mut local = citekit::CitedRepo::open(hub.clone_repo(&created).unwrap()).unwrap();
        local.write_file(&path("a.txt"), &b"a\n"[..]).unwrap();
        local.commit(Signature::new("Ann", "a@x", 10), "a").unwrap();
        local.create_branch("dev").unwrap();
        local.checkout_branch("dev").unwrap();
        local.write_file(&path("d.txt"), &b"d\n"[..]).unwrap();
        local.commit(Signature::new("Ann", "a@x", 20), "d").unwrap();
        let client = crate::client::HubClient::in_process(&hub);
        let id = client.import_repo(&ann, "P", local.repo()).unwrap();
        bare("import");
        let fork = hub.fork(&bob, &id, "F").unwrap();
        bare("fork");
        for branch in ["main", "dev"] {
            hub.push(&ann, &created, branch, local.repo(), branch, false)
                .unwrap();
        }
        bare("push");
        hub.add_cite(&ann, &created, "main", &path("a.txt"), cite("A"))
            .unwrap();
        bare("cite op");
        let merge = |id: &str, token: &Token| {
            let summary = hub.merge_branches(token, id, "main", "dev", MergeStrategy::Union);
            bare("merge");
            summary.unwrap().outcome
        };
        assert!(matches!(merge(&created, &ann), MergeOutcome::Merged(_)));
        assert!(matches!(
            merge(&created, &ann),
            MergeOutcome::AlreadyUpToDate
        ));
        assert!(matches!(merge(&fork, &bob), MergeOutcome::FastForwarded(_)));
        assert!(matches!(merge(&id, &ann), MergeOutcome::FastForwarded(_)));
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

#[cfg(test)]
mod log_tests;
