//! Observability overhead bench: the telemetry layer (per-method call
//! counters, log2 latency histograms, error tallies) sits on every
//! `Hub::dispatch`. This bench measures what that instrumentation costs
//! on the read path by dispatching the same requests twice — once with
//! metrics recording on (the default) and once with it switched off via
//! `Hub::set_metrics_enabled(false)` — and reporting the delta.
//!
//! The acceptance target is <2% overhead on the read path. Results go
//! to stderr as `hub_obs_*` data lines, which `scripts/bench_obs.sh`
//! folds into `BENCH_obs.json`; the criterion groups track the absolute
//! timings PR over PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gitlite::{path, Signature};
use hub::{ApiRequest, ApiResponse, Hub, Token};
use std::time::Instant;

const FILES: usize = 32;
const COMMITS: usize = 24;
/// Iterations per timed pass of the data-line measurement. The per-call
/// instrumentation cost is tens of nanoseconds against a read that costs
/// microseconds, so the pass has to be long enough to resolve it.
const PASS_ITERS: usize = 8_000;
/// Measurement pairs. Each pair times one instrumented and one
/// uninstrumented pass back to back (order alternating pair to pair to
/// cancel ordering bias) and contributes one *paired delta*; the
/// reported overhead is the median delta. Temporally-adjacent passes
/// share their drift (CPU frequency, allocator state, neighbors on the
/// box), so the subtraction removes it — a plain min-vs-min or
/// median-vs-median across the whole run still wobbled by several
/// percent, swamping a sub-100ns effect.
const PAIRS: usize = 25;

fn populate(hub: &Hub) -> (String, Token) {
    hub.register_user("owner", "The Owner").unwrap();
    let token = hub.login("owner").unwrap();
    let repo_id = hub.create_repo(&token, "obs").unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for f in 0..FILES {
        local
            .worktree_mut()
            .write(
                &path(&format!("src/d{}/f{f}.txt", f % 8)),
                format!("contents {f}\n").into_bytes(),
            )
            .unwrap();
    }
    local
        .commit(Signature::new("The Owner", "o@x", 100), "seed")
        .unwrap();
    for c in 0..COMMITS {
        local
            .worktree_mut()
            .write(&path("src/churn.txt"), format!("rev {c}\n").into_bytes())
            .unwrap();
        local
            .commit(
                Signature::new("The Owner", "o@x", 101 + c as i64),
                format!("c{c}"),
            )
            .unwrap();
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    (repo_id, token)
}

/// The measured read-path mix: a file read, a log page, and the cheap
/// listing — the same shape the load bench drives over the socket.
fn read_mix(hub: &Hub, repo_id: &str, i: usize) {
    let f = i % FILES;
    let req = match i % 3 {
        0 => ApiRequest::ReadFile {
            repo_id: repo_id.to_owned(),
            branch: "main".into(),
            path: path(&format!("src/d{}/f{f}.txt", f % 8)),
        },
        1 => ApiRequest::LogPage {
            repo_id: repo_id.to_owned(),
            branch: "main".into(),
            cursor: None,
            limit: None,
        },
        _ => ApiRequest::ListReposPage {
            cursor: None,
            limit: None,
        },
    };
    if let ApiResponse::Error(e) = criterion::black_box(hub.dispatch(req)) {
        panic!("read path errored: {e:?}")
    }
}

/// One timed pass of `PASS_ITERS` dispatches; returns mean ns/dispatch.
fn timed_pass(hub: &Hub, repo_id: &str) -> f64 {
    let started = Instant::now();
    for i in 0..PASS_ITERS {
        read_mix(hub, repo_id, i);
    }
    started.elapsed().as_nanos() as f64 / PASS_ITERS as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    let hub = Hub::new("https://bench.example");
    let (repo_id, _token) = populate(&hub);

    // Warm both shapes before any measurement.
    for i in 0..PASS_ITERS {
        read_mix(&hub, &repo_id, i);
    }

    // Paired back-to-back passes, order alternating; the median paired
    // delta is the overhead estimate.
    let mut deltas = Vec::with_capacity(PAIRS);
    let mut on = Vec::with_capacity(PAIRS);
    let mut off = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (on_ns, off_ns) = if pair % 2 == 0 {
            hub.set_metrics_enabled(true);
            let a = timed_pass(&hub, &repo_id);
            hub.set_metrics_enabled(false);
            (a, timed_pass(&hub, &repo_id))
        } else {
            hub.set_metrics_enabled(false);
            let b = timed_pass(&hub, &repo_id);
            hub.set_metrics_enabled(true);
            (timed_pass(&hub, &repo_id), b)
        };
        deltas.push(on_ns - off_ns);
        on.push(on_ns);
        off.push(off_ns);
    }
    let delta_ns = median(&mut deltas);
    let off_ns = median(&mut off);
    let on_ns = median(&mut on);
    let overhead_pct = delta_ns / off_ns * 100.0;
    eprintln!(
        "hub_obs_dispatch iters={} instrumented_ns={:.0} uninstrumented_ns={:.0} delta_ns={:.0} overhead_pct={:.2}",
        PASS_ITERS * PAIRS * 2,
        on_ns,
        off_ns,
        delta_ns,
        overhead_pct
    );
    // Sanity: the instrumented passes actually recorded.
    hub.set_metrics_enabled(true);
    let calls: u64 = hub
        .server_metrics(None)
        .unwrap()
        .methods
        .iter()
        .map(|m| m.calls)
        .sum();
    eprintln!("hub_obs_recorded calls={calls}");

    // Criterion groups pin the absolute read-path cost PR over PR.
    let mut group = c.benchmark_group("hub_obs_dispatch");
    for (label, enabled) in [("instrumented", true), ("uninstrumented", false)] {
        hub.set_metrics_enabled(enabled);
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("read_mix", label), |b| {
            b.iter(|| {
                read_mix(&hub, &repo_id, i);
                i = i.wrapping_add(1);
            })
        });
    }
    group.finish();
    hub.set_metrics_enabled(true);
}

criterion_group!(benches, bench_dispatch_overhead);
criterion_main!(benches);
