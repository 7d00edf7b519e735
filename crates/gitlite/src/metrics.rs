//! Process-wide store read metrics.
//!
//! Two questions an operator keeps asking about the storage layer:
//! which tier serves object reads (packs vs the loose overflow), and whether history walks ride the commit-graph index or
//! fall back to decoding commits. These counters answer both without
//! threading a handle through every store: they are process-wide
//! statics (one hub process serves one metrics endpoint), incremented
//! with relaxed atomics at the decision points and read by
//! [`snapshot`]. Cache hit rates are *not* here — they stay
//! per-instance behind [`crate::ObjectStore::cache_metrics`], because a
//! cache's effectiveness is a property of one store, not the process.

use telemetry::Counter;

/// Object reads served from a pack buffer ([`crate::PackStore`]).
pub static PACK_READS: Counter = Counter::new();

/// Object reads that fell through to the loose overflow area.
pub static LOOSE_READS: Counter = Counter::new();

/// History walks (log, first-parent chain, ancestry, merge-base)
/// answered from the commit-graph index.
pub static GRAPH_WALKS: Counter = Counter::new();

/// History walks that decoded commits because the graph was absent or
/// did not cover the starting commit.
pub static FALLBACK_WALKS: Counter = Counter::new();

/// Delta links applied while resolving packed objects (one per chain
/// hop, so cost ∝ this counter; cache hits stop the walk early).
pub static DELTA_RESOLUTIONS: Counter = Counter::new();

/// Path queries a changed-path Bloom filter answered "maybe changed"
/// where the path really had changed.
pub static BLOOM_HITS: Counter = Counter::new();

/// Path queries a changed-path Bloom filter answered with a definitive
/// "unchanged" — each one is a tree diff (or blob fetch) skipped.
pub static BLOOM_SKIPS: Counter = Counter::new();

/// Path queries where the filter said "maybe changed" but the exact
/// check found no change (the Bloom false-positive rate, ~1% expected).
pub static BLOOM_FALSE_POSITIVES: Counter = Counter::new();

/// Records one history-walk routing decision.
pub(crate) fn count_walk(graph_served: bool) {
    if graph_served {
        GRAPH_WALKS.inc();
    } else {
        FALLBACK_WALKS.inc();
    }
}

/// A point-in-time copy of the process-wide store read counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreReadStats {
    /// Reads served from packs.
    pub pack_reads: u64,
    /// Reads served loose.
    pub loose_reads: u64,
    /// Graph-covered history walks.
    pub graph_walks: u64,
    /// Decode-fallback history walks.
    pub fallback_walks: u64,
    /// Delta links applied resolving packed objects.
    pub delta_resolutions: u64,
    /// Bloom "maybe" answers that were real changes.
    pub bloom_hits: u64,
    /// Bloom "unchanged" answers (diffs skipped).
    pub bloom_skips: u64,
    /// Bloom "maybe" answers the exact check refuted.
    pub bloom_false_positives: u64,
}

/// Reads all the counters (relaxed atomic loads).
pub fn snapshot() -> StoreReadStats {
    StoreReadStats {
        pack_reads: PACK_READS.get(),
        loose_reads: LOOSE_READS.get(),
        graph_walks: GRAPH_WALKS.get(),
        fallback_walks: FALLBACK_WALKS.get(),
        delta_resolutions: DELTA_RESOLUTIONS.get(),
        bloom_hits: BLOOM_HITS.get(),
        bloom_skips: BLOOM_SKIPS.get(),
        bloom_false_positives: BLOOM_FALSE_POSITIVES.get(),
    }
}
