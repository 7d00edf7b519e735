//! Hub-to-hub replication: follower hubs that continuously pull state
//! from a primary and serve read traffic locally.
//!
//! # Model
//!
//! Replication is the client push path, inverted. A [`Follower`] owns a
//! [`HubClient`] pointed at the primary and repeats one idempotent
//! *sync round* ([`Follower::sync_once`]):
//!
//! 1. `repl_status` — the primary's logical epoch, audit length, every
//!    repository's `(head, refs)` frontier, and the deposit registry.
//! 2. For each repository whose frontier differs from the local copy,
//!    `repl_fetch` with the local branch tips as *haves*: the primary
//!    answers with a delta [`crate::api::RepoBundle`] past the common
//!    frontier (a full bundle when nothing is shared — which is also how
//!    a brand-new repository bootstraps). The bundle is applied under
//!    that repository's write lock; hash-verified object insertion plus
//!    a connectivity walk make a corrupt or truncated bundle fail the
//!    whole application rather than ever landing partial state.
//! 3. Audit catch-up through the ordinary `audit_log_page` endpoint,
//!    then the deposits from the status reply, both through `Hub::apply`
//!    (headers keep the primary's sequence numbers, deposits are
//!    `Deposited` records). A follower's `apply` admits only `Deposited`
//!    records, so users, credentials and roles — and auth — stay local.
//!
//! # Cursor semantics and restart safety
//!
//! The replication cursor is **derived, not stored**: the repo cursor is
//! the follower's own branch tips (what it would send as haves), and the
//! audit cursor is the length of its own audit log. There is no cursor
//! file to lose or corrupt, so the cursor can never disagree with the
//! data it describes: a restarted engine recomputes both from whatever
//! the hub still holds and resumes with deltas, and a follower that
//! lost its state entirely simply re-bootstraps with full bundles —
//! wrong answers are impossible, only wasted transfer. The primary's
//! epoch rides along in every status reply and is folded into the
//! follower's logical clock with `fetch_max`, keeping token expiry and
//! rate-limit arithmetic coherent across the fleet.
//!
//! # Staleness and redirects
//!
//! A follower answers replicated reads only while its last successful
//! sync round is younger than the configured staleness bound; outside
//! that window — and always, for writes and for reads it cannot answer
//! faithfully (roles, archive state) — it refuses with the typed
//! [`crate::HubError::NotPrimary`] carrying the primary's address, which
//! [`crate::client::FleetTransport`] uses to re-route the call.
//!
//! # Lock order
//!
//! The apply path follows the hub's global lock order (see
//! [`crate::server`]): `users/tokens → repos map → one repository →
//! leaf (zenodo) → log`. Concretely, a sync round takes the repos map
//! guard only to look up or insert a repo cell and **drops it before**
//! taking the repository's own write lock; the zenodo and log mutexes
//! are taken last and never while a repository is held. The pull loop
//! itself holds **no** hub lock across a network call — status and
//! fetch round trips complete before any local lock is taken, so a
//! stalled primary can never wedge the follower's read traffic.
//!
//! # Failure handling
//!
//! Network trouble must not kill replication: the pull loop reuses
//! [`RetryPolicy`]'s full-jitter backoff arithmetic between failed
//! rounds (the policy's `attempts` bound is ignored — a follower
//! retries forever), counts every failed round in `repl.reconnects`,
//! and relies on the transport's re-dial-on-error behaviour to get a
//! fresh connection. All of it surfaces through `server_metrics` →
//! Prometheus → `gitcite hub top`.

use crate::api::ReplMetrics;
use crate::audit::{Header, Record};
use crate::client::{HubClient, RetryPolicy, Transport};
use crate::error::Result;
use crate::server::{Held, Hub};
use gitlite::ObjectId;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Seconds since the Unix epoch (0 if the system clock is before it).
pub(crate) fn unix_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// Shared replication state of a follower hub: who the primary is, how
/// stale served reads may be, and the lag/health numbers exported
/// through `server_metrics`. Held by both the [`Hub`] (which consults it
/// on every dispatch) and the [`Follower`] engine (which updates it
/// after every sync round).
#[derive(Debug)]
pub struct ReplState {
    primary: String,
    staleness_secs: u64,
    /// Wall-clock second of the last fully successful sync round; 0
    /// until the first one completes.
    last_ok_unix: AtomicI64,
    /// Primary epoch observed by the last successful round.
    epoch: AtomicI64,
    /// Repositories whose frontier differed from the primary's at the
    /// start of the last round (with per-repo ref deltas in `behind`).
    repos_behind: AtomicU64,
    behind: Mutex<Vec<(String, u64)>>,
    rounds: telemetry::Counter,
    reconnects: telemetry::Counter,
}

impl ReplState {
    pub(crate) fn new(primary: String, staleness_secs: u64) -> ReplState {
        ReplState {
            primary,
            staleness_secs,
            last_ok_unix: AtomicI64::new(0),
            epoch: AtomicI64::new(0),
            repos_behind: AtomicU64::new(0),
            behind: Mutex::new(Vec::new()),
            rounds: telemetry::Counter::new(),
            reconnects: telemetry::Counter::new(),
        }
    }

    /// Wire address of the primary this follower replicates.
    pub fn primary(&self) -> &str {
        &self.primary
    }

    /// The staleness bound in wall-clock seconds: reads are served only
    /// while the last successful sync is at most this old.
    pub fn staleness_secs(&self) -> u64 {
        self.staleness_secs
    }

    /// Whether replicated reads must be refused at wall-clock second
    /// `now_unix`. True until the first successful sync round.
    pub fn is_stale(&self, now_unix: i64) -> bool {
        let last = self.last_ok_unix.load(Ordering::SeqCst);
        last == 0 || now_unix.saturating_sub(last) > self.staleness_secs as i64
    }

    /// Seconds since the last successful sync round, or `-1` before the
    /// first one — what `repl.lag_seconds` exports.
    pub fn lag_seconds(&self, now_unix: i64) -> i64 {
        let last = self.last_ok_unix.load(Ordering::SeqCst);
        if last == 0 {
            -1
        } else {
            now_unix.saturating_sub(last).max(0)
        }
    }

    /// Completed sync rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.get()
    }

    /// Failed rounds (each is followed by a backed-off reconnect).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// The metrics section exported through `server_metrics`.
    pub fn metrics(&self) -> ReplMetrics {
        ReplMetrics {
            primary: self.primary.clone(),
            lag_seconds: self.lag_seconds(unix_now()),
            epoch: self.epoch.load(Ordering::SeqCst),
            repos_behind: self.repos_behind.load(Ordering::SeqCst),
            behind: self.behind.lock().clone(),
            rounds: self.rounds.get(),
            reconnects: self.reconnects.get(),
        }
    }

    fn note_behind(&self, behind: Vec<(String, u64)>) {
        self.repos_behind
            .store(behind.len() as u64, Ordering::SeqCst);
        *self.behind.lock() = behind;
    }

    fn mark_synced(&self, epoch: i64, now_unix: i64) {
        self.epoch.store(epoch, Ordering::SeqCst);
        self.last_ok_unix.store(now_unix, Ordering::SeqCst);
        self.repos_behind.store(0, Ordering::SeqCst);
        self.behind.lock().clear();
        self.rounds.inc();
    }

    pub(crate) fn note_reconnect(&self) {
        self.reconnects.inc();
    }
}

/// What one [`Follower::sync_once`] round did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SyncReport {
    /// Repositories listed by the primary's status reply.
    pub repos_checked: usize,
    /// Repositories whose frontier differed and were (re)fetched.
    pub repos_synced: usize,
    /// Fetches answered with a full bundle (bootstrap or no common
    /// frontier).
    pub full_bundles: usize,
    /// Fetches answered with a delta bundle.
    pub delta_bundles: usize,
    /// Repositories dropped because the primary no longer has them.
    pub repos_dropped: usize,
    /// Audit events ingested this round.
    pub audit_ingested: usize,
    /// Deposits newly ingested this round.
    pub deposits_ingested: usize,
    /// The primary epoch this round observed.
    pub epoch: i64,
}

/// The replication engine: drives one follower [`Hub`] from a primary
/// reached through `T`. Construction flips the hub into follower mode
/// (see [`Hub::set_follower`]); the engine then runs sync rounds either
/// on demand ([`Follower::sync_once`], what tests call) or continuously
/// on a background thread ([`Follower::spawn`], what
/// `gitcite hub serve --follow` runs).
pub struct Follower<T> {
    hub: Arc<Hub>,
    client: HubClient<T>,
    state: Arc<ReplState>,
    backoff: RetryPolicy,
    interval: Duration,
    // Jitter source for reconnect backoff; seeded so tests replay the
    // same schedule.
    rng: Mutex<StdRng>,
}

/// Audit page size for catch-up; small enough to keep round trips
/// shallow, large enough that catch-up is O(events / 256) calls.
const AUDIT_PAGE: u32 = 256;

impl<T: Transport> Follower<T> {
    /// Binds `hub` (the follower) to a primary at `primary_addr`
    /// reachable through `transport`, with the given staleness bound.
    /// The hub starts refusing writes with `not_primary` immediately;
    /// reads open up after the first successful [`Follower::sync_once`].
    pub fn new(
        hub: Arc<Hub>,
        transport: T,
        primary_addr: impl Into<String>,
        staleness_secs: u64,
    ) -> Follower<T> {
        let state = hub.set_follower(primary_addr, staleness_secs);
        Follower {
            hub,
            client: HubClient::new(transport),
            state,
            backoff: RetryPolicy::default(),
            interval: Duration::from_millis(500),
            rng: Mutex::new(StdRng::seed_from_u64(0x6769_7463_7265_706c)),
        }
    }

    /// Replaces the reconnect backoff policy (builder style). The
    /// policy's `attempts` bound is ignored — a follower retries
    /// forever; only the delay shape is reused.
    pub fn with_backoff(mut self, backoff: RetryPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Replaces the pause between successful rounds (builder style).
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// The shared replication state (also reachable via
    /// [`Hub::replication`]).
    pub fn state(&self) -> &Arc<ReplState> {
        &self.state
    }

    /// The client talking to the primary — e.g. to inspect transport
    /// metrics in tests.
    pub fn client(&self) -> &HubClient<T> {
        &self.client
    }

    /// Runs one complete sync round; see the module docs for the steps.
    /// A round either completes and refreshes the staleness clock, or
    /// fails without having left partial per-repository state (each
    /// bundle applies atomically under its repository's write lock).
    pub fn sync_once(&self) -> Result<SyncReport> {
        let status = self.client.repl_status()?;
        let mut report = SyncReport {
            epoch: status.epoch,
            ..SyncReport::default()
        };

        // Diff the primary's per-repo frontier against local state; the
        // local tips are the haves of the fetch.
        let mut behind = Vec::new();
        for repo in &status.repos {
            report.repos_checked += 1;
            let refs = match self.hub.repl_local_frontier(&repo.repo_id) {
                Some((head, refs)) if head == repo.head && refs == repo.refs => continue,
                Some((_, refs)) => refs,
                None => Vec::new(),
            };
            // Refs added, moved, or deleted upstream.
            let moved = repo.refs.iter().filter(|r| !refs.contains(r)).count()
                + refs
                    .iter()
                    .filter(|(name, _)| !repo.refs.iter().any(|(n, _)| n == name))
                    .count();
            let haves: Vec<ObjectId> = refs.into_iter().map(|(_, tip)| tip).collect();
            behind.push((repo, moved.max(1) as u64, haves));
        }
        let lag = behind.iter().map(|(r, n, _)| (r.repo_id.clone(), *n));
        self.state.note_behind(lag.collect());

        // Pull and apply a bundle per out-of-date repository.
        for (repo, _, haves) in &behind {
            let bundle = self.client.repl_fetch(&repo.repo_id, haves)?;
            if bundle.basis.is_empty() {
                report.full_bundles += 1;
            } else {
                report.delta_bundles += 1;
            }
            self.hub.repl_apply_bundle(&repo.repo_id, &bundle)?;
            report.repos_synced += 1;
        }

        // Repositories the primary no longer has disappear here too.
        let keep: HashSet<String> = status.repos.iter().map(|r| r.repo_id.clone()).collect();
        report.repos_dropped = self.hub.repl_drop_missing(&keep);

        // Audit catch-up: cursor = local length, pages are seq-ordered.
        let start = self.hub.repl_audit_cursor();
        while self.hub.repl_audit_cursor() < status.audit_seq {
            let cursor = self.hub.repl_audit_cursor().to_string();
            let page = self
                .client
                .audit_log_page(Some(&cursor), Some(AUDIT_PAGE))?;
            if page.items.is_empty() {
                break;
            }
            for event in page.items {
                self.hub
                    .apply(Header::Copied(event), Vec::new(), Held::None)?;
            }
        }
        report.audit_ingested = (self.hub.repl_audit_cursor() - start) as usize;

        let deposits = status.deposits.into_iter().map(Record::Deposited).collect();
        let applied = self.hub.apply(Header::None, deposits, Held::None)?;
        report.deposits_ingested = applied.new_deposits;
        self.hub.repl_observe_epoch(status.epoch);
        self.state.mark_synced(status.epoch, unix_now());
        Ok(report)
    }

    /// Runs sync rounds until `stop` flips true: the interval between
    /// successful rounds, full-jitter backoff (doubling per consecutive
    /// failure, capped by the policy) after failed ones.
    pub fn run(&self, stop: &AtomicBool) {
        let mut failures: u32 = 0;
        while !stop.load(Ordering::SeqCst) {
            let pause = match self.sync_once() {
                Ok(_) => {
                    failures = 0;
                    self.interval
                }
                Err(_) => {
                    failures = failures.saturating_add(1);
                    self.state.note_reconnect();
                    Duration::from_millis(self.backoff.jitter_ms(failures, &mut self.rng.lock()))
                }
            };
            sleep_unless(stop, pause);
        }
    }
}

impl<T: Transport + Send + 'static> Follower<T> {
    /// Moves the engine onto a background thread running
    /// [`Follower::run`]; the returned handle stops and joins it on
    /// [`FollowerHandle::stop`] or drop.
    pub fn spawn(self) -> FollowerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::clone(&self.state);
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gitcite-repl".into())
            .spawn(move || self.run(&flag))
            .expect("spawn replication thread");
        FollowerHandle {
            stop,
            state,
            thread: Some(thread),
        }
    }
}

/// Sleeps up to `total`, waking early when `stop` flips true.
fn sleep_unless(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(20);
    let mut remaining = total;
    while !stop.load(Ordering::SeqCst) && !remaining.is_zero() {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// Handle to a background replication thread; stops and joins it when
/// dropped.
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    state: Arc<ReplState>,
    thread: Option<JoinHandle<()>>,
}

impl FollowerHandle {
    /// The engine's shared state (lag, rounds, reconnects).
    pub fn state(&self) -> &Arc<ReplState> {
        &self.state
    }

    /// Stops the pull loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
