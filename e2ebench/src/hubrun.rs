//! The hub workloads (`cite-small`, `cite-deep`, `edit-deep`): the shipped
//! `gitcite hub serve` driven over the v3 socket by two sessions, one
//! thread and one connection each.
//!
//! Each session runs paced: a seeded Poisson schedule, at most one
//! request outstanding, every latency timed from the request's scheduled
//! send, so a stall also delays the requests queued behind it.
//! `server_metrics` is read only before and after the measured window,
//! over the last session's connection signed in as the `operator` account
//! `hub serve` provisions.

use crate::drive::Session;
use crate::gen::MEMBER_NAME;
use crate::gen::{Op, Project, Stream, MAIN, MEMBER, OWNER, OWNER_NAME, PROJECT, PUSH_BRANCH};
use crate::oracle::{Checker, Expect};
use crate::proc::{self, HubProcess, WorkDir};
use crate::report::{self, Metric};
use crate::stats;
use crate::workload::{Kind, Workload};
use hub::{HubClient, HubError, MetricsSnapshot, Role, TcpTransport, Token, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Times a run sets the system up; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Unmeasured paced traffic before the measured phases: caches fill and
/// connections settle.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The served system after set-up: the hub process and one session per
/// workload session. The last session's connection also holds the owner
/// and operator tokens.
pub struct Live {
    pub hub: HubProcess,
    pub sessions: Vec<Session<TcpTransport>>,
    pub owner: Token,
    pub operator: Token,
}

fn hub_err(what: &str) -> impl Fn(HubError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Provisions the hosted project over `sessions`: the last one registers
/// `user`, logs in and imports the project; for `edit-deep` the first one
/// is signed in as the member, with a local clone whose own branch it has
/// pushed. Every session is pointed at the imported repository. Returns
/// the owner's token (minted on the last session's connection).
pub fn provision<T: Transport>(
    sessions: &mut [Session<T>],
    (user, display_name): (&str, &str),
    editors: bool,
    project: &Project,
) -> Result<Token, String> {
    let admin = &sessions.last().expect("at least one session").client;
    admin
        .register_user(user, display_name)
        .map_err(hub_err("register owner"))?;
    let owner = admin.login(user).map_err(hub_err("owner login"))?;
    let repo_id = admin
        .import_repo(&owner, PROJECT, &project.repo)
        .map_err(hub_err("import"))?;
    if editors {
        admin
            .register_user(MEMBER, MEMBER_NAME)
            .map_err(hub_err("register member"))?;
        admin
            .add_member(&owner, &repo_id, MEMBER, Role::Member)
            .map_err(hub_err("add member"))?;
    }
    for s in sessions.iter_mut() {
        s.repo_id = repo_id.clone();
    }
    if editors {
        let member = &mut sessions[0];
        let token = member
            .client
            .login(MEMBER)
            .map_err(hub_err("member login"))?;
        let mut local = project.repo.clone();
        local
            .create_branch(PUSH_BRANCH)
            .and_then(|()| local.checkout_branch(PUSH_BRANCH))
            .map_err(|e| format!("local branch: {e}"))?;
        member
            .client
            .push(&token, &repo_id, PUSH_BRANCH, &local, PUSH_BRANCH, false)
            .map_err(hub_err("first push"))?;
        member.token = Some(token);
        member.local = Some(local);
    }
    Ok(owner)
}

/// Starts a hub, provisions the project, and reads one citation back.
/// Returns the live system and the seconds all of it took.
pub fn setup(
    bin: &Path,
    work: &WorkDir,
    n: usize,
    w: &Workload,
    project: &Project,
    expect: &Expect,
) -> Result<(Live, f64), String> {
    let start = Instant::now();
    let hub = HubProcess::spawn(bin, &work.join(&format!("hub-{n}")))?;
    let mut sessions = (0..w.mixes.len())
        .map(|_| {
            HubClient::connect(&hub.addr)
                .map(|c| Session::new(c, ""))
                .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let editors = w.kind == Kind::Editors;
    let owner = provision(&mut sessions, (OWNER, OWNER_NAME), editors, project)?;
    let reader = sessions.last_mut().expect("at least one session");
    let operator = reader
        .client
        .login("operator")
        .map_err(hub_err("operator login"))?;
    let first = Op::GenCite(project.files[0].clone());
    let answer = reader.exec(&first).map_err(hub_err("first read"))?;
    expect.checker().check(&first, &answer)?;
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Live {
            hub,
            sessions,
            owner,
            operator,
        },
        secs,
    ))
}

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: &'static str,
    pub read: bool,
    /// A read or a write; not a clone.
    pub interactive: bool,
    /// When the op was due (paced) or started, and its latency from then.
    pub start: Instant,
    pub secs: f64,
}

impl Sample {
    /// The middle of the op's latency.
    pub fn middle(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.secs / 2.0)
    }
}

/// What one phase of one session measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// How late the generator sent requests it was idle for, seconds.
    pub lateness: Vec<f64>,
}

/// Attempted, failed and wrong ops.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub wrong: usize,
    /// The first few failures and wrong answers, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn note(&mut self, note: String) {
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in other.notes {
            self.note(n);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }
}

/// One session and what drives it.
pub struct Runner<'e> {
    pub session: Session<TcpTransport>,
    pub checker: Checker<'e>,
    pub stream: Stream,
    pub arrivals: StdRng,
    pub tally: Tally,
    /// Every op issued with its service time (seconds), warm-up
    /// included, when the traced run wants to replay them.
    pub log: Option<Vec<(Op, f64)>>,
    /// The session that reads the server's metrics also samples its
    /// resident set and CPU time.
    pub sampler: Option<proc::Sampler>,
}

impl Runner<'_> {
    fn issue(&mut self, op: &Op, due: Instant, phase: &mut Phase) {
        self.tally.attempted += 1;
        let sent = Instant::now();
        let result = self.session.exec(op);
        let service = sent.elapsed().as_secs_f64();
        let secs = due.elapsed().as_secs_f64();
        match result {
            Ok(answer) => {
                if let Err(e) = self.checker.check(op, &answer) {
                    self.tally.wrong += 1;
                    self.tally.note(e);
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                self.tally.note(format!("{}: {e}", op.class()));
            }
        }
        phase.samples.push(Sample {
            class: op.class(),
            read: op.is_read(),
            interactive: op.is_read() || op.is_write(),
            start: due,
            secs,
        });
        if let Some(log) = &mut self.log {
            log.push((op.clone(), service));
        }
    }

    /// Issues requests for `span`: at `rate` per second, or back to back
    /// with an infinite rate (closed loop). Paced arrivals are a Poisson
    /// process conditioned on its count: `rate × span` arrivals placed
    /// uniformly at random, so every run of a session schedules the same
    /// number of requests, and per-op figures do not vary with the count.
    pub fn run(&mut self, rate: f64, span: Duration) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let end = start + span;
        let mut arrivals: Vec<f64> = if rate.is_finite() {
            let n = (rate * span.as_secs_f64()).round() as usize;
            (0..n).map(|_| self.arrivals.gen_f64()).collect()
        } else {
            Vec::new()
        };
        arrivals.sort_by(f64::total_cmp);
        let mut arrivals = arrivals.into_iter();
        // How far clones have pushed the schedule back.
        let mut pushed = Duration::ZERO;
        loop {
            let due = if rate.is_finite() {
                let Some(at) = arrivals.next() else {
                    break;
                };
                start + span.mul_f64(at) + pushed
            } else {
                Instant::now()
            };
            if due >= end {
                break;
            }
            let op = self.stream.next().expect("streams are infinite");
            if let Err(e) = self.session.prepare(&op) {
                self.tally.attempted += 1;
                self.tally.failed += 1;
                self.tally.note(format!("preparing {}: {e}", op.class()));
                continue;
            }
            if let Some(s) = &mut self.sampler {
                // Reading `/proc` takes this thread's time; it waits for
                // an idle stretch.
                if Instant::now() + Duration::from_millis(1) < due {
                    s.tick();
                }
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
                phase.lateness.push(due.elapsed().as_secs_f64());
            }
            self.issue(&op, due, &mut phase);
            if op == Op::Clone {
                // A clone is its own user action (a `git clone`), not a
                // popup click: the clicks scheduled during it would not
                // have waited for it, so the schedule resumes from its
                // end instead of charging them.
                pushed += due.elapsed();
            }
        }
        if let Some(s) = &mut self.sampler {
            s.finish();
        }
        phase
    }
}

/// The server's own counters, read between phases. A failed read fails
/// the run: zeros in its place would make every counter delta wrong.
pub fn probe(
    client: &HubClient<TcpTransport>,
    operator: &Token,
) -> Result<MetricsSnapshot, String> {
    client
        .server_metrics(Some(operator))
        .map_err(hub_err("server_metrics"))
}

/// Builds the runners: each session with its stream and checker.
pub fn runners<'e>(
    w: &Workload,
    seed: u64,
    project: &Project,
    expect: &'e Expect,
    sessions: Vec<Session<TcpTransport>>,
    keep_log: bool,
) -> Vec<Runner<'e>> {
    // Visitors of `edit-deep` keep off the member's files (odd ones), so
    // every answer they get has one right value.
    let (visitor_files, member_files): (Vec<_>, Vec<_>) = match w.kind {
        Kind::Editors => {
            let (even, odd): (Vec<_>, Vec<_>) = project
                .files
                .iter()
                .enumerate()
                .partition(|(i, _)| i % 2 == 0);
            (
                even.into_iter().map(|(_, f)| f.clone()).collect(),
                odd.into_iter().map(|(_, f)| f.clone()).collect(),
            )
        }
        _ => (project.files.clone(), Vec::new()),
    };
    sessions
        .into_iter()
        .enumerate()
        .map(|(i, session)| {
            let id = i as u64;
            let mix = w.mixes[i];
            let stream = if w.kind == Kind::Editors && i == 0 {
                let cited = member_files
                    .iter()
                    .filter(|f| project.explicit.contains_key(*f))
                    .cloned()
                    .collect();
                Stream::member(seed, id, mix, member_files.clone(), cited)
            } else {
                let mut nodes = visitor_files.clone();
                nodes.extend(project.dirs.iter().cloned());
                Stream::visitor(seed, id, mix, nodes, visitor_files.clone())
            };
            Runner {
                session,
                checker: expect.checker(),
                stream,
                arrivals: StdRng::seed_from_u64(seed ^ (0xa11_u64 << 8) ^ id),
                tally: Tally::default(),
                log: keep_log.then(Vec::new),
                sampler: None,
            }
        })
        .collect()
}

/// What [`run_paced`] hands back: the runners, each session's measured
/// phase, and the server's counters read before and after the window.
pub struct Paced<'e> {
    pub runners: Vec<Runner<'e>>,
    pub phases: Vec<Phase>,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

/// Runs every session at its rate for [`WARMUP`], then for `span`, the
/// measured window.
pub fn run_paced<'e>(
    runners: Vec<Runner<'e>>,
    rates: &[f64],
    span: Duration,
    hub_pid: u32,
    operator: &Token,
) -> Result<Paced<'e>, String> {
    let barrier = Barrier::new(runners.len());
    let last = runners.len() - 1;
    let run = |i: usize, mut d: Runner<'e>| {
        let rate = rates[i];
        d.run(rate, WARMUP);
        barrier.wait();
        let before = (i == last).then(|| probe(&d.session.client, operator));
        if i == last {
            d.sampler = Some(proc::Sampler::new(hub_pid, false));
        }
        barrier.wait();
        let phase = d.run(rate, span);
        barrier.wait();
        let after = (i == last).then(|| probe(&d.session.client, operator));
        (d, phase, before.zip(after))
    };
    let results = std::thread::scope(|s| {
        let mut runners = runners.into_iter().enumerate();
        let (i0, d0) = runners.next().expect("at least one session");
        let others: Vec<_> = runners
            .map(|(i, d)| {
                let run = &run;
                s.spawn(move || run(i, d))
            })
            .collect();
        let mut results = vec![run(i0, d0)];
        results.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("session thread")),
        );
        results
    });
    let mut runners = Vec::new();
    let mut phases = Vec::new();
    let mut probes = None;
    for (d, phase, p) in results {
        runners.push(d);
        phases.push(phase);
        probes = probes.or(p);
    }
    let (before, after) = probes.expect("the last session reads the server");
    Ok(Paced {
        runners,
        phases,
        before: before?,
        after: after?,
    })
}

/// Bytes the server moved over its sockets, both directions, both
/// framings.
pub fn wire_bytes(m: &MetricsSnapshot) -> f64 {
    m.transport.as_ref().map_or(0.0, |t| {
        (t.bytes_in_line + t.bytes_out_line + t.bytes_in_binary + t.bytes_out_binary) as f64
    })
}

/// Sets the system up [`SETUPS`] times with `once(n)`, which returns what
/// it set up and the seconds that took. Each set-up starts after the
/// previous one is torn down and the file system has written back, so
/// no set-up pays for its predecessor's files. Returns the last system
/// and every set-up's seconds.
pub fn set_up_repeatedly<L>(
    mut once: impl FnMut(usize) -> Result<(L, f64), String>,
) -> Result<(L, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut live = None;
    for n in 0..SETUPS {
        drop(live.take());
        proc::settle();
        let (l, secs) = once(n)?;
        setups.push(secs);
        live = Some(l);
    }
    proc::settle();
    Ok((live.expect("SETUPS > 0"), setups))
}

/// The untraced run of a hub workload: set up [`SETUPS`] times, then the
/// paced sessions for `seconds`.
pub fn measure(
    bin: &Path,
    work: &WorkDir,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, Tally), String> {
    let project = crate::gen::project(w.spec, seed);
    let editors = w.kind == Kind::Editors;
    let expect = Expect::new(&project, editors, editors);
    let (live, setups) = set_up_repeatedly(|n| setup(bin, work, n, w, &project, &expect))?;
    let Live {
        hub,
        sessions,
        operator,
        ..
    } = live;
    let runners = runners(w, seed, &project, &expect, sessions, false);
    let span = Duration::from_secs_f64(seconds);
    let Paced {
        mut runners,
        phases,
        before,
        after,
    } = run_paced(runners, w.rates, span, hub.pid(), &operator)?;
    let mut tally = Tally::default();
    if editors {
        if let Err(e) = final_checks(&runners, &expect) {
            tally.wrong += 1;
            tally.note(e);
        }
    }
    let sampler = runners
        .last_mut()
        .and_then(|d| d.sampler.take())
        .expect("the last session samples");
    drop(hub);
    for d in runners {
        tally.merge(d.tally);
    }

    let samples: Vec<Sample> = phases
        .iter()
        .flat_map(|p| p.samples.iter().copied())
        .collect();
    let lateness = stats::sorted(
        &phases
            .iter()
            .flat_map(|p| p.lateness.iter().copied())
            .collect::<Vec<_>>(),
    );
    eprintln!("{}", class_table(&samples));
    eprintln!(
        "{}: {} ops, lateness p99 {:.3} ms, setups {setups:.3?} s, slowness {:.4}",
        w.name,
        samples.len(),
        stats::quantile(&lateness, 0.99) * 1e3,
        sampler.slowness(),
    );
    let wire = wire_bytes(&after) - wire_bytes(&before);
    let metrics = report::end_to_end(&setups, &samples, &sampler, wire);
    Ok((metrics, tally))
}

/// What the paced rates are derived from: each session's closed-loop
/// throughput, all sessions running at once, with every answer checked.
/// Returns a report line; the run fails on a wrong answer.
pub fn capacity(
    bin: &Path,
    work: &WorkDir,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(String, Tally), String> {
    let project = crate::gen::project(w.spec, seed);
    let editors = w.kind == Kind::Editors;
    let expect = Expect::new(&project, editors, editors);
    let (live, _) = setup(bin, work, 0, w, &project, &expect)?;
    let runners = runners(w, seed, &project, &expect, live.sessions, false);
    let closed = vec![f64::INFINITY; runners.len()];
    let span = Duration::from_secs_f64(seconds);
    let Paced {
        runners, phases, ..
    } = run_paced(runners, &closed, span, live.hub.pid(), &live.operator)?;
    let mut tally = Tally::default();
    for d in runners {
        tally.merge(d.tally);
    }
    let sessions: Vec<String> = phases
        .iter()
        .zip(w.rates)
        .map(|(p, rate)| {
            let ops_per_s = p.samples.len() as f64 / seconds;
            format!(
                "{{\"closed_loop_ops_per_s\": {ops_per_s:.1}, \"paced_rate\": {rate}, \"share\": {:.3}}}",
                rate / ops_per_s
            )
        })
        .collect();
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"sessions\": [{}]}}",
        w.name,
        sessions.join(", ")
    );
    Ok((line, tally))
}

/// Latencies (seconds) of `samples` by op class, each class sorted.
fn by_class(samples: &[Sample]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        classes.entry(s.class).or_default().push(s.secs);
    }
    classes
        .into_iter()
        .map(|(class, v)| (class, stats::sorted(&v)))
        .collect()
}

/// What one read or write of the mix costs, in ms: each class's median
/// latency weighted by its share of the interactive `samples`. Medians
/// keep it steady; the weights keep writes in it at their share. Clones
/// are left out: a clone is a `git clone`, not a click, and its time does
/// not follow the machine's speed the way the reference loop's does
/// (`speed.rs`), so scaling it would add noise rather than remove it.
pub fn mix_ms(samples: &[Sample]) -> f64 {
    let interactive: Vec<Sample> = samples.iter().filter(|s| s.interactive).copied().collect();
    by_class(&interactive)
        .values()
        .map(|v| stats::quantile(v, 0.5) * v.len() as f64)
        .sum::<f64>()
        / interactive.len() as f64
        * 1e3
}

/// `p50/p90/p99` of sorted latencies, in ms.
pub fn percentiles_ms(sorted: &[f64]) -> String {
    let [a, b, c] = [0.5, 0.9, 0.99].map(|q| stats::quantile(sorted, q) * 1e3);
    format!("{a:.3}/{b:.3}/{c:.3} ms")
}

/// Per-class count and latency percentiles of `samples`.
pub fn class_table(samples: &[Sample]) -> String {
    by_class(samples)
        .iter()
        .map(|(class, v)| format!("  {class:<18} n={:<6} {}\n", v.len(), percentiles_ms(v)))
        .collect()
}

/// End-of-run checks for `edit-deep`: the final history and the member's
/// citations must be exactly what the member did, and every answer read
/// off the moving tip must match a tip that existed.
pub fn final_checks(runners: &[Runner], expect: &Expect) -> Result<(), String> {
    let reader = &runners.last().expect("sessions").session;
    let log = reader
        .client
        .log(&reader.repo_id, MAIN)
        .map_err(hub_err("final log"))?;
    let checkers: Vec<&Checker> = runners.iter().map(|d| &d.checker).collect();
    crate::oracle::finish(expect, &checkers, &log)?;
    let member = &runners[0];
    if let Some(targets) = member.stream.member_targets() {
        for (node, want) in member.checker.explicit_on(targets.iter()) {
            let got = reader
                .client
                .citation_entry(&reader.repo_id, MAIN, &node)
                .map_err(hub_err("final citation_entry"))?;
            if got != want {
                return Err(format!(
                    "after the run {node} is cited {got:?}, want {want:?}"
                ));
            }
        }
    }
    Ok(())
}
