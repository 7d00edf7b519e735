//! The operator's side: the audit log, storage maintenance and stats,
//! server metrics, and the hub's settings.

use super::{unexpected, Hub, LimitsConfig, Token};
use crate::api::{
    walk_pages, ApiRequest, ApiResponse, LimitsMetrics, MethodMetrics, MetricsSnapshot, Page,
    RepoMaintenance, StoreMetrics, StoreStats, TransportMetrics, WireHistogram,
};
use crate::audit::AuditEvent;
use crate::error::{HubError, Result};
use gitlite::ObjectId;
use std::sync::atomic::Ordering;
use std::sync::Arc;

wrappers! {
    /// Runs storage maintenance over every hosted repository: backends
    /// with a maintenance concept (packfile stores) gc everything not
    /// reachable from their branch tips into one fresh pack; in-memory
    /// backends report `supported: false`.
    fn maintenance() -> Vec<RepoMaintenance> = Maintenance {} => Maintenance;

    /// One page of the audit log, oldest first; the cursor
    /// is the sequence number to continue from.
    fn audit_log_page(cursor: Option<&str>, limit: Option<u32>) -> Page<AuditEvent> =
        AuditLogPage { cursor: cursor.map(str::to_owned), limit } => AuditPage;

    /// Object-store statistics for one hosted repository: object count
    /// plus cache counters when the backend stack has a read cache —
    /// the capacity-planning view over [`gitlite::CacheStats`].
    fn store_stats(repo_id: &str) -> StoreStats =
        StoreStats { repo_id: repo_id.to_owned() } => Stats;

    /// One point-in-time health snapshot of the whole hub: per-method
    /// dispatch stats, socket-layer gauges (when a transport is
    /// attached) and aggregated storage counters. Pass `None` from a
    /// trusted in-process embedder; a token must belong to a user
    /// granted [`Hub::grant_operator`]. What `gitcite hub top` renders.
    fn server_metrics(token: Option<&Token>) -> MetricsSnapshot =
        ServerMetrics { token: token.map(|t| t.0.clone()) } => Metrics;
}

impl Hub {
    /// A snapshot of the audit log, walked page by page.
    pub fn audit_log(&self) -> Result<Vec<AuditEvent>> {
        walk_pages(|cursor, limit| self.audit_log_page(cursor, limit))
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

    // ----- operations ---------------------------------------------------------
    pub(super) fn op_audit_log_page(
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
        let audit = self.log.lock();
        let events = audit.events();
        // Sequence numbers are dense from 0: the cursor is an index.
        let start = events.len().min(from as usize);
        let end = (start + limit).min(events.len());
        let next = (end < events.len()).then(|| events[end].seq.to_string());
        Ok(Page {
            items: events[start..end].to_vec(),
            next,
        })
    }

    pub(super) fn op_maintenance(&self) -> Result<Vec<RepoMaintenance>> {
        let mut out = Vec::new();
        for (repo_id, cell) in self.cells() {
            let mut hosted = cell.write();
            let roots: Vec<ObjectId> = hosted.repo.branches().map(|(_, tip)| tip).collect();
            // One sick repository must not stop the rest from compacting:
            // gc failures are reported per-repo, never aborting the sweep.
            let outcome = hosted.repo.odb_mut().maintain(&roots);
            let (packed, dropped) = match &outcome {
                Some(Ok(report)) => (report.packed as u64, report.dropped as u64),
                _ => (0, 0),
            };
            out.push(RepoMaintenance {
                repo_id,
                supported: outcome.is_some(),
                packed,
                dropped,
                error: outcome.and_then(|r| r.err()).map(|e| e.to_string()),
            });
        }
        let ok = out.iter().all(|e| e.error.is_none());
        let ts = self.tick();
        self.record(ts, None, "maintenance", "*", ok);
        Ok(out)
    }

    pub(super) fn op_server_metrics(&self) -> MetricsSnapshot {
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
    pub(super) fn op_store_metrics(&self) -> StoreMetrics {
        let cells = self.cells();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (_, cell) in &cells {
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
