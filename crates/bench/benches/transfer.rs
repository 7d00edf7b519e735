//! Transfer bench: full-closure vs negotiated push over the wire
//! protocol. The workload is the ROADMAP's incremental-sync story — 10
//! new commits landing on a 5k-commit hosted repository — measured two
//! ways on the same hub build:
//!
//! * `push_full` — the full path: `RepoBundle::from_branch` ships the
//!   entire branch closure every time.
//! * `push_negotiated` — the negotiated path: `negotiate` finds the
//!   common frontier, the delta bundle ships only the objects past it.
//!
//! Bytes on the wire are counted by a transport wrapper and printed as
//! `transfer_bytes ...` / `transfer_objects ...` lines (stderr), which
//! `scripts/bench_transfer.sh` folds together with the Criterion times
//! into `BENCH_transfer.json`. Expectation: the negotiated push moves
//! orders of magnitude fewer bytes, and its wall time stops scaling with
//! history depth.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gitlite::{path, Repository, Signature};
use hub::{Hub, HubClient, InProcess, Token, Transport};
use std::cell::Cell;
use std::time::Duration;

const BASE_COMMITS: usize = 5_000;
const NEW_COMMITS: usize = 10;

/// Counts request/response bytes crossing the transport.
struct Counting<'h> {
    inner: InProcess<'h>,
    sent: Cell<u64>,
    received: Cell<u64>,
}

impl<'h> Counting<'h> {
    fn new(hub: &'h Hub) -> Self {
        Counting {
            inner: InProcess::new(hub),
            sent: Cell::new(0),
            received: Cell::new(0),
        }
    }

    fn reset(&self) -> (u64, u64) {
        (self.sent.replace(0), self.received.replace(0))
    }
}

impl Transport for Counting<'_> {
    fn send(&self, request: &str) -> String {
        self.sent.set(self.sent.get() + request.len() as u64 + 1);
        let reply = self.inner.send(request);
        self.received
            .set(self.received.get() + reply.len() as u64 + 1);
        reply
    }
}

fn sig(t: i64) -> Signature {
    Signature::new("bench", "b@x", t)
}

/// A repository whose history is `commits` edits of one churn file next
/// to a stable README — each commit contributes a commit, a root tree
/// and one new blob.
fn deep_repo(commits: usize) -> Repository {
    let mut repo = Repository::init("big");
    repo.worktree_mut()
        .write(&path("README.md"), &b"# big\n"[..])
        .unwrap();
    for i in 0..commits {
        repo.worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        repo.commit(sig(1 + i as i64), format!("c{i}")).unwrap();
    }
    repo
}

struct Setup<'h> {
    client: HubClient<Counting<'h>>,
    token: Token,
    repo_id: String,
    base: Repository,
    advanced: Repository,
}

fn setup(hub: &Hub) -> Setup<'_> {
    hub.register_user("bench", "Bench").unwrap();
    let token = hub.login("bench").unwrap();
    let base = deep_repo(BASE_COMMITS);
    let repo_id = hub.import_repo(&token, "big", base.clone()).unwrap();
    let mut advanced = base.clone();
    for i in 0..NEW_COMMITS {
        advanced
            .worktree_mut()
            .write(&path("churn.txt"), format!("new {i}\n").into_bytes())
            .unwrap();
        advanced
            .commit(sig(100_000 + i as i64), format!("n{i}"))
            .unwrap();
    }
    Setup {
        client: HubClient::new(Counting::new(hub)),
        token,
        repo_id,
        base,
        advanced,
    }
}

/// Force the hosted branch back to the base tip (negotiated: this ships
/// nothing, it only moves the ref) so the next push re-transfers the
/// increment.
fn rewind(s: &Setup<'_>) {
    s.client
        .push(&s.token, &s.repo_id, "main", &s.base, "main", true)
        .unwrap();
}

fn bench(c: &mut Criterion) {
    let hub_full = Hub::new("https://h");
    let hub_neg = Hub::new("https://h");
    let full = setup(&hub_full);
    let neg = setup(&hub_neg);

    // ----- bytes on the wire (one measured push each) -------------------
    rewind(&full);
    full.client.transport().reset();
    full.client
        .push_full(
            &full.token,
            &full.repo_id,
            "main",
            &full.advanced,
            "main",
            false,
        )
        .unwrap();
    let (full_sent, full_recv) = full.client.transport().reset();

    rewind(&neg);
    neg.client.transport().reset();
    neg.client
        .push_negotiated(
            &neg.token,
            &neg.repo_id,
            "main",
            &neg.advanced,
            "main",
            false,
        )
        .unwrap();
    let (neg_sent, neg_recv) = neg.client.transport().reset();

    let full_objects = hub::RepoBundle::from_branch(&full.advanced, "main")
        .unwrap()
        .objects
        .len();
    // 3 objects per new commit: commit + root tree + churn blob.
    let delta_objects = NEW_COMMITS * 3;
    eprintln!(
        "transfer_bytes full={} negotiated={} ratio={:.1}",
        full_sent + full_recv,
        neg_sent + neg_recv,
        (full_sent + full_recv) as f64 / (neg_sent + neg_recv) as f64
    );
    eprintln!("transfer_objects full={full_objects} negotiated={delta_objects}");

    // ----- wall time ----------------------------------------------------
    let mut g = c.benchmark_group("transfer");
    g.bench_function("push_full", |b| {
        b.iter_batched(
            || rewind(&full),
            |()| {
                full.client
                    .push_full(
                        &full.token,
                        &full.repo_id,
                        "main",
                        &full.advanced,
                        "main",
                        false,
                    )
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("push_negotiated", |b| {
        b.iter_batched(
            || rewind(&neg),
            |()| {
                neg.client
                    .push(
                        &neg.token,
                        &neg.repo_id,
                        "main",
                        &neg.advanced,
                        "main",
                        false,
                    )
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    // The steady-state no-op: everything already on the server, sync
    // detects it in one negotiate round.
    g.bench_function("sync_noop", |b| {
        neg.client
            .push(
                &neg.token,
                &neg.repo_id,
                "main",
                &neg.advanced,
                "main",
                false,
            )
            .unwrap();
        b.iter(|| {
            neg.client
                .sync(&neg.token, &neg.repo_id, "main", &neg.advanced, "main")
                .unwrap()
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1_500))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
