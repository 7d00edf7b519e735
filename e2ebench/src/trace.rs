//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! 1. The workload runs over the socket as in an untraced run (paced hub
//!    sessions, or the developer's CLI loop), then a fixed *tail* that
//!    issues every hub method this benchmark uses, so each layer metric
//!    exists on every workload. `server_metrics` is read before and after.
//! 2. The same op stream is replayed in-process against a hub whose
//!    repository was materialised the way import does it
//!    (`RepoBundle::into_repository` onto `CachedStore<PackStore>`). Each
//!    op is a root span with children `api.request_encode` →
//!    `api.request_parse` → `server.dispatch` → `api.response_encode` →
//!    `api.response_parse`, and a sibling `replay.<method>` span that
//!    times the library calls dispatch makes, on a mirror of the hosted
//!    repository, from this benchmark's own code.
//! 3. Layer probes time what only the local tool does: opening and
//!    repacking a checkout's packs, writing a tree.
//!
//! Spans carry name, start, end, parent and op id; they stay in memory
//! and are written to `.bench_work/traces/<workload>-<seed>.json` at the
//! end, with each span's self time. End-to-end numbers never come from
//! this run.

use crate::drive::Session;
use crate::gen::{
    Op, Project, Stream, DEVELOPER_NAME, MAIN, MEMBER_NAME, OWNER, OWNER_NAME, PROJECT,
};
use crate::hubrun::{self, Phase, Tally, WARMUP};
use crate::localdev::{self, Developer, DEV_USER};
use crate::oracle::Expect;
use crate::proc::{HubProcess, WorkDir};
use crate::report::{metric, Metric};
use crate::stats;
use crate::workload::{self, Kind, Workload};
use citekit::CitedRepo;
use gitlite::{CachedStore, ObjectId, PackStore, Repository, Signature};
use hub::transport::frame;
use hub::{
    ApiRequest, ApiResponse, ErrorCode, Hub, HubClient, MetricsSnapshot, RepoBundle, TcpTransport,
    Transport, WireError,
};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Branch the tail pushes to and edits citations on; nobody else does.
pub const TAIL: &str = "tail";
/// Branch the CLI tail pushes to.
pub const CLI_BRANCH: &str = "cli";
const TAIL_REPS: usize = 16;
const TAIL_CLONES: usize = 4;
const CLI_TAIL_COMMANDS: usize = 40;
/// Most workload ops a traced run replays, which bounds the span file.
const MAX_REPLAYED: usize = 2000;

/// The hub methods the per-layer dispatch metrics cover.
pub const METHODS: [&str; 12] = [
    "generate_citation",
    "citation_entry",
    "read_file",
    "log_page",
    "list_files",
    "branches",
    "clone_repo",
    "add_cite",
    "modify_cite",
    "del_cite",
    "negotiate",
    "push",
];

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span. `method` is the wire method (or op class) it
/// served; `op` the replayed op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub method: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder for the single-threaded replay. Records only
/// inside [`Tracer::op`]; set-up traffic goes unrecorded.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<Option<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(None),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of op `n`.
    pub fn op<R>(&self, n: usize, method: &'static str, f: impl FnOnce() -> R) -> R {
        self.op.set(Some(n));
        let r = self.span("op", method, f);
        self.op.set(None);
        r
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, method: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(op) = self.op.get() else {
            return f();
        };
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                method,
                op,
                parent: self.stack.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let r = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Durations (µs) of spans named `name`, optionally of one method.
fn durations(spans: &[Span], name: &str, method: Option<&str>) -> Vec<f64> {
    stats::sorted(
        &spans
            .iter()
            .filter(|s| s.name == name && method.is_none_or(|m| s.method == m))
            .map(Span::us)
            .collect::<Vec<_>>(),
    )
}

fn p50(spans: &[Span], name: &str, method: Option<&str>) -> f64 {
    stats::quantile(&durations(spans, name, method), 0.5)
}

/// Writes the spans, with self times, as one JSON document.
fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"method\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}{}\n",
            s.name,
            s.method,
            s.op,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            self_ns as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// An in-process transport that runs every exchange through the same
/// encode → parse → dispatch → encode → parse steps a socket round trip
/// takes, as spans, with the v3 binary framing.
pub struct TracedTransport<'a> {
    hub: &'a Hub,
    tracer: &'a Tracer,
}

fn framing_error(e: std::io::Error) -> WireError {
    WireError {
        code: ErrorCode::Protocol,
        message: e.to_string(),
        detail: None,
    }
}

impl Transport for TracedTransport<'_> {
    fn send(&self, request: &str) -> String {
        self.hub.handle_wire(request)
    }

    fn exchange(&self, request: &ApiRequest) -> ApiResponse {
        let (t, m) = (self.tracer, request.method());
        let bytes = t.span("api.request_encode", m, || {
            let (text, objects) = request.encode_ext();
            frame::encode_message(&text, &objects)
        });
        let parsed = t.span("api.request_parse", m, || {
            let (text, objects) = frame::read_message(&mut &bytes[..]).map_err(framing_error)?;
            ApiRequest::parse_ext(&text, objects)
        });
        let parsed = match parsed {
            Ok(r) => r,
            Err(e) => return ApiResponse::Error(e),
        };
        let response = t.span("server.dispatch", m, || self.hub.dispatch(parsed));
        let bytes = t.span("api.response_encode", m, || {
            let (text, objects) = response.encode_ext();
            t.span("transport.frame_encode", m, || {
                frame::encode_message(&text, &objects)
            })
        });
        t.span("api.response_parse", m, || {
            let (text, objects) = frame::read_message(&mut &bytes[..]).map_err(framing_error)?;
            ApiResponse::parse_ext(&text, objects)
        })
        .unwrap_or_else(ApiResponse::Error)
    }
}

// ---------------------------------------------------------------------
// The tail
// ---------------------------------------------------------------------

/// The fixed tail every traced run ends with: each hub method the
/// benchmark issues. Reads, clones and pushes first; the citation edits
/// go to [`TAIL`], which the pushes created and nobody else writes, on
/// directories the generated project never cited.
fn tail_ops(project: &Project) -> (Vec<Op>, Vec<Op>) {
    let files = &project.files;
    let mut first = Vec::new();
    for i in 0..TAIL_REPS {
        let f = files[i % files.len()].clone();
        first.extend([
            Op::GenCite(f.clone()),
            Op::CiteEntry(f.clone()),
            Op::ReadFile(f),
            Op::LogPage,
            Op::ListFiles,
            Op::Branches,
        ]);
    }
    first.extend(std::iter::repeat_n(Op::Clone, TAIL_CLONES));
    let mut rng = rand::SeedableRng::seed_from_u64(7);
    for i in 0..TAIL_REPS {
        let f = files[i % files.len()].clone();
        first.push(Op::Push(
            f.clone(),
            crate::gen::file_text(&mut rng, &f, 2_000_000 + i),
        ));
    }
    let mut edits = Vec::new();
    let uncited = project
        .dirs
        .iter()
        .filter(|d| !project.explicit.contains_key(*d))
        .cycle()
        .take(TAIL_REPS);
    for (i, d) in uncited.enumerate() {
        let added = crate::gen::citation(&format!("t{i}"), MEMBER_NAME, &mut rng);
        let modified = crate::gen::citation(&format!("t{i}m"), MEMBER_NAME, &mut rng);
        edits.extend([
            Op::AddCite(d.clone(), added),
            Op::ModifyCite(d.clone(), modified),
            Op::DelCite(d.clone()),
        ]);
    }
    (first, edits)
}

/// Points `session` at the tail: signed in as the owner, with a local
/// clone whose [`TAIL`] branch its pushes come from.
fn tail_session<T: Transport>(session: &mut Session<T>, project: &Project, owner: hub::Token) {
    let mut local = project.repo.clone();
    local
        .create_branch(TAIL)
        .and_then(|()| local.checkout_branch(TAIL))
        .expect("fresh branch on the generated project");
    session.token = Some(owner);
    session.local = Some(local);
    session.push_branch = TAIL.to_owned();
    session.branch = MAIN.to_owned();
}

/// Runs the tail over `session`, returning each op's service time
/// (seconds) in order. Failures count in `tally`.
fn run_tail(
    session: &mut Session<TcpTransport>,
    ops: &(Vec<Op>, Vec<Op>),
    tally: &mut Tally,
) -> Vec<f64> {
    let mut times = Vec::new();
    for (edits, list) in [(false, &ops.0), (true, &ops.1)] {
        session.branch = if edits { TAIL } else { MAIN }.to_owned();
        for op in list {
            tally.attempted += 1;
            let start = Instant::now();
            let result = session.prepare(op).and_then(|()| session.exec(op));
            if let Err(e) = result {
                tally.failed += 1;
                tally.note(format!("tail {}: {e}", op.class()));
            }
            times.push(start.elapsed().as_secs_f64());
        }
    }
    session.branch = MAIN.to_owned();
    times
}

// ---------------------------------------------------------------------
// The replay
// ---------------------------------------------------------------------

/// The in-process hub, its sessions, and the mirror of the hosted
/// repository the `replay.<method>` spans work on.
struct Replay<'a> {
    tracer: &'a Tracer,
    sessions: Vec<Session<TracedTransport<'a>>>,
    mirror: Repository,
    base_tip: ObjectId,
    ops: usize,
}

impl Replay<'_> {
    fn run(&mut self, session: usize, op: &Op) -> Result<(), String> {
        let n = self.ops;
        self.ops += 1;
        let Replay {
            tracer,
            sessions,
            mirror,
            base_tip,
            ..
        } = self;
        let s = &mut sessions[session];
        s.prepare(op).map_err(|e| e.to_string())?;
        tracer.op(n, op.class(), || {
            let answer = s.exec(op);
            if answer.is_ok() {
                replay_op(tracer, mirror, s, op, *base_tip)?;
            }
            answer.map(|_| ()).map_err(|e| e.to_string())
        })
    }
}

/// In-process time of each `method` op: its request and response codec
/// and dispatch spans, the work a socket round trip adds transport to.
fn in_process_us(spans: &[Span], method: &str) -> Vec<f64> {
    let mut per_op: std::collections::BTreeMap<usize, f64> = Default::default();
    for s in spans.iter().filter(|s| s.method == method) {
        if s.name.starts_with("api.request")
            || s.name.starts_with("api.response")
            || s.name == "server.dispatch"
        {
            *per_op.entry(s.op).or_default() += s.us();
        }
    }
    per_op.into_values().collect()
}

fn git(e: gitlite::GitError) -> String {
    e.to_string()
}

/// The library calls `Hub::dispatch` makes for `op`, made again on the
/// mirror from this benchmark's code, each in its own span.
fn replay_op<T: Transport>(
    t: &Tracer,
    mirror: &mut Repository,
    session: &Session<T>,
    op: &Op,
    base_tip: ObjectId,
) -> Result<(), String> {
    let m = op.class();
    let branch = session.branch.as_str();
    let tip = || mirror.branch_tip(branch).map_err(git);
    match op {
        Op::GenCite(node) => t.span("replay.generate_citation", m, || {
            let tip = tip()?;
            let work = t.span("gitlite.repo_clone", m, || mirror.clone());
            let cited = t
                .span("citekit.open", m, || CitedRepo::open(work))
                .map_err(|e| e.to_string())?;
            t.span("citekit.cite_at", m, || cited.cite_at(tip, node))
                .map(|_| ())
                .map_err(|e| e.to_string())
        }),
        Op::CiteEntry(node) => t.span("replay.citation_entry", m, || {
            let tip = tip()?;
            let text = t
                .span("gitlite.file_at", m, || {
                    mirror.file_at(tip, &citekit::citation_path())
                })
                .map_err(git)?;
            let func = t
                .span("citekit.file_parse", m, || {
                    citekit::file::parse(&String::from_utf8_lossy(&text))
                })
                .map_err(|e| e.to_string())?;
            t.span("citekit.resolve", m, || {
                std::hint::black_box(func.resolve(node));
            });
            Ok(())
        }),
        Op::ReadFile(file) => t.span("replay.read_file", m, || {
            let tip = tip()?;
            t.span("gitlite.file_at", m, || mirror.file_at(tip, file))
                .map(|_| ())
                .map_err(git)
        }),
        Op::LogPage => t.span("replay.log_page", m, || {
            let tip = tip()?;
            let ids = t.span("gitlite.log", m, || mirror.log(tip)).map_err(git)?;
            t.span("gitlite.commit_reads", m, || {
                let mut page = Vec::new();
                for &id in ids.iter().take(crate::gen::LOG_PAGE as usize) {
                    let obj = mirror.odb().commit_ref(id).map_err(git)?;
                    let c = obj.as_commit().ok_or("not a commit")?;
                    page.push(hub::LogEntry {
                        id,
                        author: c.author.name.clone(),
                        timestamp: c.author.timestamp,
                        message: c.message.clone(),
                    });
                }
                std::hint::black_box(page);
                Ok(())
            })
        }),
        Op::ListFiles => t.span("replay.list_files", m, || {
            let tip = tip()?;
            t.span("gitlite.snapshot", m, || mirror.snapshot(tip))
                .map(|_| ())
                .map_err(git)
        }),
        Op::Branches => t.span("replay.branches", m, || {
            std::hint::black_box(mirror.branches().count());
            Ok(())
        }),
        Op::Clone => t.span("replay.clone_repo", m, || {
            let bundle = t
                .span("api.bundle_build", m, || {
                    RepoBundle::from_repository(mirror)
                })
                .map_err(git)?;
            t.span("api.bundle_materialize", m, || {
                bundle.into_repository(Box::new(gitlite::MemStore::new()))
            })
            .map(|_| ())
            .map_err(git)
        }),
        Op::AddCite(node, _) | Op::ModifyCite(node, _) | Op::DelCite(node) => {
            let name = match op {
                Op::AddCite(..) => "replay.add_cite",
                Op::ModifyCite(..) => "replay.modify_cite",
                _ => "replay.del_cite",
            };
            t.span(name, m, || {
                let mut work = t.span("gitlite.repo_clone", m, || mirror.clone());
                t.span("gitlite.checkout", m, || work.checkout_branch(branch))
                    .map_err(git)?;
                let mut cited = t
                    .span("citekit.open", m, || CitedRepo::open(work))
                    .map_err(|e| e.to_string())?;
                t.span("citekit.edit", m, || match op {
                    Op::AddCite(_, c) => cited.add_cite(node, c.clone()),
                    Op::ModifyCite(_, c) => cited.modify_cite(node, c.clone()).map(|_| ()),
                    _ => cited.del_cite(node).map(|_| ()),
                })
                .map_err(|e| e.to_string())?;
                let sig = Signature::new(MEMBER_NAME, "member@example.org", 1);
                let message = format!("{m} {}", node.to_cite_key(false));
                t.span("citekit.commit", m, || cited.commit(sig, message))
                    .map_err(|e| e.to_string())?;
                *mirror = cited.into_repository();
                Ok(())
            })
        }
        Op::Push(..) => t.span("replay.push", m, || {
            let pb = session.push_branch.as_str();
            let local = session.local.as_ref().ok_or("push without a local clone")?;
            let common: HashSet<ObjectId> = [mirror.branch_tip(pb).unwrap_or(base_tip)]
                .into_iter()
                .collect();
            let bundle = t
                .span("api.delta_build", m, || {
                    RepoBundle::delta_from_branch(local, pb, &common)
                })
                .map_err(git)?;
            t.span("gitlite.put_objects", m, || {
                for (id, bytes) in &bundle.objects {
                    mirror.odb_mut().put_raw(*id, bytes).map_err(git)?;
                }
                let tip = local.branch_tip(pb).map_err(git)?;
                mirror.set_branch(pb, tip).map_err(git)
            })
        }),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

fn counter_delta(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    f: impl Fn(&MetricsSnapshot) -> u64,
) -> f64 {
    f(b).saturating_sub(f(a)) as f64
}

fn method_mean_us(a: &MetricsSnapshot, b: &MetricsSnapshot, method: &str) -> f64 {
    let get = |s: &MetricsSnapshot| {
        s.methods
            .iter()
            .find(|m| m.method == method)
            .map_or((0, 0), |m| (m.latency.sum_us, m.latency.count))
    };
    let ((s0, c0), (s1, c1)) = (get(a), get(b));
    (s1 - s0) as f64 / (c1 - c0).max(1) as f64
}

/// What the socket side of a traced run produced.
struct SocketSide {
    /// Server readings before the workload and after the tail.
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Hub ops issued over the socket and their service times, per
    /// session; the tail's are last, as session `tail_session`.
    logs: Vec<Vec<(Op, f64)>>,
    /// Ops the generator issued (hub ops and CLI commands).
    issued: usize,
    /// CLI commands run, for the `cli.*` metrics.
    cli: Phase,
    autogc: (usize, usize),
    checkout: std::path::PathBuf,
    tally: Tally,
}

/// Layer probes of the local tool: pack open, repack, tree write.
fn layer_probes(checkout: &Path, mirror: &mut Repository) -> Result<Vec<Metric>, String> {
    let objects = checkout
        .join(gitcite_cli::storage::META_DIR)
        .join("objects");
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        std::hint::black_box(PackStore::open(&objects).map_err(git)?);
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let repo = gitcite_cli::storage::load(checkout).map_err(git)?;
    let roots: Vec<ObjectId> = repo.branches().map(|(_, tip)| tip).collect();
    drop(repo);
    let mut repack_ms = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        PackStore::open(&objects)
            .and_then(|mut s| s.gc(&roots))
            .map_err(git)?;
        repack_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let file = mirror
        .worktree()
        .paths()
        .find(|p| **p != citekit::citation_path())
        .cloned()
        .ok_or("empty worktree")?;
    let mut tree_ms = Vec::new();
    for i in 0..10 {
        mirror
            .worktree_mut()
            .write(&file, format!("probe {i}\n").into_bytes())
            .map_err(git)?;
        let wt = mirror.worktree().clone();
        let start = Instant::now();
        std::hint::black_box(gitlite::write_tree(mirror.odb_mut(), &wt));
        tree_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(vec![
        metric("gitlite.write_tree_ms", "ms", stats::median(&tree_ms)),
        metric("gitlite.pack_open_ms", "ms", stats::median(&open_ms)),
        metric("gitlite.repack_ms", "ms", stats::median(&repack_ms)),
    ])
}

fn cli_metrics(cli: &Phase, autogc: (usize, usize)) -> Vec<Metric> {
    let p50 = |class: &str| {
        stats::median(
            &cli.samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.secs * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    vec![
        metric("cli.commit_p50_ms", "ms", p50("commit")),
        metric("cli.cite_show_p50_ms", "ms", p50("cite_show")),
        metric("cli.push_p50_ms", "ms", p50("hub_push")),
        metric(
            "cli.autogc_share",
            "ratio",
            autogc.1 as f64 / autogc.0.max(1) as f64,
        ),
    ]
}

/// The socket side for the hub workloads.
fn socket_hub(
    bin: &Path,
    work: &WorkDir,
    w: &Workload,
    seed: u64,
    project: &Project,
    span: Duration,
) -> Result<(SocketSide, HubProcess), String> {
    let editors = w.kind == Kind::Editors;
    let expect = Expect::new(project, editors, editors);
    let (live, _) = hubrun::setup(bin, work, 0, w, project, &expect)?;
    let hubrun::Live {
        hub,
        sessions,
        owner,
        operator,
    } = live;
    let runners = hubrun::runners(w, seed, project, &expect, sessions, true);
    let hubrun::Paced {
        mut runners,
        phases,
        before,
        ..
    } = hubrun::run_paced(runners, w.rates, span, hub.pid(), &operator)?;
    // The logs hold the warm-up too, for the replay to reach the same
    // state; the per-op counters cover the measured window and the tail.
    let issued: usize = phases.iter().map(|p| p.samples.len()).sum();
    let mut tally = Tally::default();
    let mut logs = Vec::new();
    for d in runners.iter_mut() {
        logs.push(d.log.take().unwrap_or_default());
        tally.merge(std::mem::take(&mut d.tally));
    }
    let admin = runners.last_mut().expect("sessions");
    tail_session(&mut admin.session, project, owner);
    let tail = tail_ops(project);
    let times = run_tail(&mut admin.session, &tail, &mut tally);
    logs.push(tail.0.iter().chain(&tail.1).cloned().zip(times).collect());
    let after = hubrun::probe(&admin.session.client, &operator)?;

    // The CLI tail: a developer checkout of the same project pushing to
    // its own branch.
    let checkout = work.join("cli-tail");
    localdev::checkout(bin, &checkout, project)?;
    let repo_id = format!("{OWNER}/{PROJECT}");
    let stream = Stream::developer(seed, 7, workload::DEVELOPER, project);
    let mut dev = Developer::new(
        bin,
        checkout.clone(),
        &hub.addr,
        &repo_id,
        OWNER,
        CLI_BRANCH,
        project,
        stream,
    );
    let mut cli = Phase::default();
    for _ in 0..CLI_TAIL_COMMANDS {
        dev.step(&mut cli);
    }
    tally.merge(std::mem::take(&mut dev.tally));
    Ok((
        SocketSide {
            before,
            after,
            issued: issued + logs.last().map_or(0, Vec::len),
            logs,
            cli,
            autogc: (dev.writes, dev.autogc),
            checkout,
            tally,
        },
        hub,
    ))
}

/// The socket side for `local-dev`.
fn socket_dev(
    bin: &Path,
    work: &WorkDir,
    w: &Workload,
    seed: u64,
    project: &Project,
    span: Duration,
) -> Result<(SocketSide, HubProcess), String> {
    let (hub, mut dev, _) = localdev::setup(bin, work, 0, w, seed, project)?;
    let client = HubClient::connect(&hub.addr).map_err(|e| format!("connect: {e}"))?;
    let operator = client.login("operator").map_err(|e| e.to_string())?;
    dev.run(WARMUP);
    let before = hubrun::probe(&client, &operator)?;
    let cli = dev.run(span);
    let mut tally = std::mem::take(&mut dev.tally);
    let owner = client.login(DEV_USER).map_err(|e| e.to_string())?;
    let mut session = Session::new(client, &format!("{DEV_USER}/{PROJECT}"));
    tail_session(&mut session, project, owner);
    let tail = tail_ops(project);
    let times = run_tail(&mut session, &tail, &mut tally);
    let after = hubrun::probe(&session.client, &operator)?;
    let logs = vec![
        Vec::new(),
        tail.0
            .iter()
            .chain(&tail.1)
            .cloned()
            .zip(times)
            .collect::<Vec<_>>(),
    ];
    Ok((
        SocketSide {
            before,
            after,
            issued: cli.samples.len() + logs[1].len(),
            logs,
            cli,
            autogc: (dev.writes, dev.autogc),
            checkout: dev.dir.clone(),
            tally,
        },
        hub,
    ))
}

/// The traced run of any workload.
pub fn measure(
    bin: &Path,
    work: &WorkDir,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, Tally), String> {
    let project = crate::gen::project(w.spec, seed);
    let socket_span = Duration::from_secs_f64(seconds * 0.4);
    let (side, hub) = match w.kind {
        Kind::Developer => socket_dev(bin, work, w, seed, &project, socket_span)?,
        _ => socket_hub(bin, work, w, seed, &project, socket_span)?,
    };
    drop(hub);
    let SocketSide {
        before,
        after,
        logs,
        issued,
        cli,
        autogc,
        checkout,
        mut tally,
    } = side;

    // The in-process hub, set up as the socket one was (untraced).
    let tracer = Tracer::default();
    let inproc = Hub::with_pack_storage("https://hub.local", work.join("replay-hub"))
        .map_err(|e| format!("replay hub: {e}"))?;
    let account = if w.kind == Kind::Developer {
        (DEV_USER, DEVELOPER_NAME)
    } else {
        (OWNER, OWNER_NAME)
    };
    // One session per socket session, the last also the tail's.
    let mut sessions: Vec<Session<TracedTransport>> = logs
        .iter()
        .map(|_| {
            let transport = TracedTransport {
                hub: &inproc,
                tracer: &tracer,
            };
            Session::new(HubClient::new(transport), "")
        })
        .collect();
    let owner = hubrun::provision(&mut sessions, account, w.kind == Kind::Editors, &project)?;
    tail_session(
        sessions.last_mut().expect("the tail's session"),
        &project,
        owner,
    );
    let store = PackStore::open(work.join("replay-mirror")).map_err(git)?;
    let mirror = RepoBundle::from_repository(&project.repo)
        .and_then(|b| b.into_repository(Box::new(CachedStore::new(store))))
        .map_err(git)?;
    let mut replay = Replay {
        tracer: &tracer,
        sessions,
        mirror,
        base_tip: project.tip(),
        ops: 0,
    };

    // Replay the workload's ops round-robin across its sessions within
    // the budget (time and count), then the whole tail.
    let budget = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    let tail_index = logs.len() - 1;
    let longest = logs[..tail_index].iter().map(Vec::len).max().unwrap_or(0);
    'workload: for i in 0..longest {
        for (s, log) in logs[..tail_index].iter().enumerate() {
            if Instant::now() >= budget || replay.ops >= MAX_REPLAYED {
                break 'workload;
            }
            if let Some((op, _)) = log.get(i) {
                if let Err(e) = replay.run(s, op) {
                    tally.failed += 1;
                    tally.note(format!("replay {}: {e}", op.class()));
                }
            }
        }
    }
    let edits_from = tail_ops(&project).0.len();
    for (i, (op, _)) in logs[tail_index].iter().enumerate() {
        // The tail's citation edits go to its own branch, as over the
        // socket.
        let branch = if i < edits_from { MAIN } else { TAIL };
        replay.sessions[tail_index].branch = branch.to_owned();
        if let Err(e) = replay.run(tail_index, op) {
            tally.failed += 1;
            tally.note(format!("replay tail {}: {e}", op.class()));
        }
    }
    tally.attempted += replay.ops;

    let mut metrics = layer_probes(&checkout, &mut replay.mirror)?;
    let spans = tracer.spans();
    write_spans(
        &spans,
        Path::new(&format!(".bench_work/traces/{}-{seed}.json", w.name)),
    )?;
    let (a, b) = (&before, &after);
    let t = |s: &MetricsSnapshot| s.transport.clone().unwrap_or_default();
    let st = |s: &MetricsSnapshot| s.store.clone().unwrap_or_default();
    let per_op = |f: &dyn Fn(&MetricsSnapshot) -> u64| counter_delta(a, b, f) / issued as f64;
    // The socket's fixed cost per request, on `branches`, whose dispatch
    // is one map read: its socket round trip minus its in-process codec
    // and dispatch time.
    let socket_branches: Vec<f64> = logs
        .iter()
        .flatten()
        .filter(|(op, _)| *op == Op::Branches)
        .map(|(_, secs)| secs * 1e6)
        .collect();
    let residual =
        stats::median(&socket_branches) - stats::median(&in_process_us(&spans, "branches"));
    let hits = counter_delta(a, b, |s| st(s).cache_hits);
    let misses = counter_delta(a, b, |s| st(s).cache_misses);
    metrics.extend([
        metric("transport.residual_p50_us", "us", residual),
        metric(
            "transport.bytes_per_op",
            "B",
            (hubrun::wire_bytes(&after) - hubrun::wire_bytes(&before)) / issued as f64,
        ),
        metric(
            "transport.deflate_ratio",
            "ratio",
            counter_delta(a, b, |s| t(s).obj_deflate_bytes)
                / counter_delta(a, b, |s| t(s).obj_raw_bytes).max(1.0),
        ),
        metric(
            "transport.frame_encode_us",
            "us",
            p50(&spans, "transport.frame_encode", Some("clone_repo")),
        ),
        metric(
            "transport.closed",
            "count",
            counter_delta(a, b, |s| t(s).transport_closed),
        ),
        metric(
            "api.request_encode_us",
            "us",
            p50(&spans, "api.request_encode", None),
        ),
        metric(
            "api.request_parse_us",
            "us",
            p50(&spans, "api.request_parse", None),
        ),
        metric(
            "api.response_encode_us",
            "us",
            p50(&spans, "api.response_encode", None),
        ),
        metric(
            "api.response_parse_us",
            "us",
            p50(&spans, "api.response_parse", None),
        ),
        metric(
            "api.bundle_build_ms",
            "ms",
            p50(&spans, "api.bundle_build", None) / 1e3,
        ),
        metric(
            "api.delta_build_us",
            "us",
            p50(&spans, "api.delta_build", None),
        ),
        metric(
            "api.bundle_materialize_ms",
            "ms",
            p50(&spans, "api.bundle_materialize", None) / 1e3,
        ),
    ]);
    for method in METHODS {
        metrics.push(metric(
            format!("server.dispatch_us.{method}"),
            "us",
            p50(&spans, "server.dispatch", Some(method)),
        ));
    }
    for method in ["generate_citation", "log_page", "modify_cite", "push"] {
        metrics.push(metric(
            format!("server.served_mean_us.{method}"),
            "us",
            method_mean_us(a, b, method),
        ));
    }
    for method in ["generate_citation", "log_page", "modify_cite"] {
        metrics.push(metric(
            format!("replay.{method}_us"),
            "us",
            p50(&spans, &format!("replay.{method}"), None),
        ));
    }
    metrics.extend([
        metric(
            "citekit.open_us",
            "us",
            p50(&spans, "citekit.open", Some("generate_citation")),
        ),
        metric(
            "citekit.cite_at_us",
            "us",
            p50(&spans, "citekit.cite_at", None),
        ),
        metric(
            "citekit.file_parse_us",
            "us",
            p50(&spans, "citekit.file_parse", None),
        ),
        metric(
            "citekit.resolve_ns",
            "ns",
            p50(&spans, "citekit.resolve", None) * 1e3,
        ),
        metric(
            "citekit.commit_ms",
            "ms",
            p50(&spans, "citekit.commit", None) / 1e3,
        ),
        metric(
            "gitlite.repo_clone_us",
            "us",
            p50(&spans, "gitlite.repo_clone", Some("generate_citation")),
        ),
        metric(
            "gitlite.file_at_us",
            "us",
            p50(&spans, "gitlite.file_at", Some("read_file")),
        ),
        metric(
            "gitlite.snapshot_us",
            "us",
            p50(&spans, "gitlite.snapshot", None),
        ),
        metric("gitlite.log_us", "us", p50(&spans, "gitlite.log", None)),
        metric(
            "store.cache_hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
        ),
        metric(
            "store.loose_reads_per_op",
            "count",
            per_op(&|s| st(s).loose_reads),
        ),
        metric(
            "store.graph_walks_per_op",
            "count",
            per_op(&|s| st(s).graph_walks),
        ),
        metric(
            "store.fallback_walks_per_op",
            "count",
            per_op(&|s| st(s).fallback_walks),
        ),
    ]);
    metrics.extend(cli_metrics(&cli, autogc));
    // Keep the `BENCHMARK.json` order: by layer, as listed there.
    metrics.sort_by_key(|m| order(&m.name));
    eprintln!(
        "{}: replayed {} ops in-process ({} spans)",
        w.name,
        replay.ops,
        spans.len()
    );
    Ok((metrics, tally))
}

/// Position of a per-layer metric in the published list.
fn order(name: &str) -> usize {
    let layers = [
        "transport.",
        "api.",
        "server.",
        "replay.",
        "citekit.",
        "gitlite.",
        "store.",
        "cli.",
    ];
    layers
        .iter()
        .position(|l| name.starts_with(l))
        .unwrap_or(layers.len())
}
