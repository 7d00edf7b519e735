//! The `local-dev` workload: a developer runs the real `gitcite` CLI in a
//! checkout, one command at a time, and pushes to a `gitcite hub serve`
//! that hosts the project. Auto-gc runs at its default threshold.

use crate::gen::DEVELOPER_NAME;
use crate::gen::{Op, Project, Stream, MAIN, PROJECT};
use crate::hubrun::{self, Phase, Sample, Tally, WARMUP};
use crate::oracle::DevChecker;
use crate::proc::{self, HubProcess, WorkDir};
use crate::report::{self, Metric};
use crate::workload::Workload;
use hub::HubClient;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Hub account of the developer, who imports and owns the project.
pub const DEV_USER: &str = "dev";

/// The developer's pause after each command, reading its output. It also
/// leaves the generator's CPU idle between commands, so the reference
/// loop there measures its speed (`speed.rs`) all through the window.
pub const THINK: Duration = Duration::from_millis(40);

fn cli(bin: &Path, dir: &Path, args: &[&str]) -> Result<(Duration, String), String> {
    let (secs, out) = proc::run_cli(bin, dir, args)?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "gitcite {args:?} failed: {}{}",
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok((secs, stdout))
}

/// Writes `project` as a `gitcite` checkout into `dir` and packs it with
/// `gitcite gc`, as a developer's clone looks after its first gc.
pub fn checkout(bin: &Path, dir: &Path, project: &Project) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    gitcite_cli::storage::save(dir, &project.repo).map_err(|e| format!("checkout: {e}"))?;
    cli(bin, dir, &["gc"]).map(|_| ())
}

/// A developer session: the checkout, the hub it pushes to, and the
/// checker holding every output to the developer's own record.
pub struct Developer<'b> {
    bin: &'b Path,
    pub dir: PathBuf,
    addr: String,
    repo_id: String,
    user: String,
    push_branch: String,
    checker: DevChecker,
    stream: Stream,
    pub tally: Tally,
    /// Write commands run, and how many of them ran auto-gc.
    pub writes: usize,
    pub autogc: usize,
    /// Samples the hub's resident set and the CPU time of the hub and
    /// the CLI while the developer works.
    pub sampler: Option<proc::Sampler>,
}

impl<'b> Developer<'b> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bin: &'b Path,
        dir: PathBuf,
        addr: &str,
        repo_id: &str,
        user: &str,
        push_branch: &str,
        project: &Project,
        stream: Stream,
    ) -> Developer<'b> {
        Developer {
            bin,
            dir,
            addr: addr.to_owned(),
            repo_id: repo_id.to_owned(),
            user: user.to_owned(),
            push_branch: push_branch.to_owned(),
            checker: DevChecker::new(project, repo_id, push_branch),
            stream,
            tally: Tally::default(),
            writes: 0,
            autogc: 0,
            sampler: None,
        }
    }

    fn args(&self, op: &Op) -> Vec<String> {
        let s = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        match op {
            Op::Commit(file, _) => s(&[
                "commit",
                "-m",
                &format!("edit {file}"),
                "--author",
                DEVELOPER_NAME,
                "--date",
                &citekit::format_iso8601(self.checker.next_commit_ts()),
            ]),
            Op::CliCiteAdd(node, c) | Op::CliCiteModify(node, c) => s(&[
                "cite",
                if matches!(op, Op::CliCiteAdd(..)) {
                    "add"
                } else {
                    "modify"
                },
                &node.to_string(),
                "--repo-name",
                &c.repo_name,
                "--owner",
                &c.owner,
                "--url",
                &c.url,
                "--authors",
                &c.author_list.join(","),
            ]),
            Op::CiteShow(node) => s(&["cite", "show", &node.to_string()]),
            Op::Log => s(&["log"]),
            Op::HubPush => s(&[
                "hub",
                "push",
                &self.repo_id,
                &self.push_branch,
                "--remote",
                &self.addr,
                "--user",
                &self.user,
            ]),
            other => unreachable!("{} is not a developer op", other.class()),
        }
    }

    /// Runs the next command of the stream.
    pub fn step(&mut self, phase: &mut Phase) {
        let op = self.stream.next().expect("streams are infinite");
        self.tally.attempted += 1;
        if let Op::Commit(file, text) = &op {
            // The edit is the developer's, made before the command runs.
            let path = self.dir.join(file.to_string());
            if let Err(e) = std::fs::write(&path, text) {
                self.tally.failed += 1;
                self.tally.note(format!("editing {}: {e}", path.display()));
                return;
            }
        }
        let args = self.args(&op);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let start = Instant::now();
        let result = cli(self.bin, &self.dir, &args);
        match result {
            Ok((secs, out)) => {
                phase.samples.push(Sample {
                    class: op.class(),
                    read: op.is_read(),
                    interactive: op.is_read() || op.is_write(),
                    start,
                    secs: secs.as_secs_f64(),
                });
                match self.checker.check(&op, &out) {
                    Ok(gc) => {
                        if op.is_write() {
                            self.writes += 1;
                            self.autogc += usize::from(gc);
                        }
                    }
                    Err(e) => {
                        self.tally.wrong += 1;
                        self.tally.note(e);
                    }
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                self.tally.note(e);
            }
        }
    }

    /// Runs commands one at a time for `span`, [`THINK`] apart.
    pub fn run(&mut self, span: Duration) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while start.elapsed() < span {
            self.step(&mut phase);
            if let Some(s) = &mut self.sampler {
                s.tick();
            }
            std::thread::sleep(THINK);
        }
        if let Some(s) = &mut self.sampler {
            s.finish();
        }
        phase
    }
}

/// Set-up: the checkout, a hub, the developer's account, and the
/// project imported with `gitcite hub import`; then one `cite show`.
pub fn setup<'b>(
    bin: &'b Path,
    work: &WorkDir,
    n: usize,
    w: &Workload,
    seed: u64,
    project: &Project,
) -> Result<(HubProcess, Developer<'b>, f64), String> {
    let start = Instant::now();
    let dir = work.join(&format!("dev-{n}"));
    checkout(bin, &dir, project)?;
    let hub = HubProcess::spawn(bin, &work.join(&format!("hub-{n}")))?;
    let addr = hub.addr.clone();
    cli(
        bin,
        &dir,
        &[
            "hub",
            "register",
            DEV_USER,
            "--name",
            DEVELOPER_NAME,
            "--remote",
            &addr,
        ],
    )?;
    let (_, out) = cli(
        bin,
        &dir,
        &[
            "hub", "import", PROJECT, "--remote", &addr, "--user", DEV_USER,
        ],
    )?;
    let repo_id = format!("{DEV_USER}/{PROJECT}");
    if out.trim() != format!("imported as {repo_id}") {
        return Err(format!("hub import said {out:?}"));
    }
    let stream = Stream::developer(seed, 0, w.mixes[0], project);
    let mut dev = Developer::new(bin, dir, &addr, &repo_id, DEV_USER, MAIN, project, stream);
    let first = Op::CiteShow(project.files[0].clone());
    let args = dev.args(&first);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, out) = cli(bin, &dev.dir, &args)?;
    dev.checker.check(&first, &out)?;
    Ok((hub, dev, start.elapsed().as_secs_f64()))
}

/// The untraced `local-dev` run: [`hubrun::SETUPS`] set-ups, a warm-up, then the
/// closed loop for `seconds`.
pub fn measure(
    bin: &Path,
    work: &WorkDir,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, Tally), String> {
    let project = crate::gen::project(w.spec, seed);
    let ((hub, mut dev), setups) = hubrun::set_up_repeatedly(|n| {
        setup(bin, work, n, w, seed, &project).map(|(hub, dev, secs)| ((hub, dev), secs))
    })?;
    let admin = HubClient::connect(&hub.addr).map_err(|e| format!("connect: {e}"))?;
    let operator = admin
        .login("operator")
        .map_err(|e| format!("operator login: {e}"))?;
    dev.run(WARMUP);
    let before = hubrun::probe(&admin, &operator)?;
    dev.sampler = Some(proc::Sampler::new(hub.pid(), true));
    let span = Duration::from_secs_f64(seconds);
    let phase = dev.run(span);
    let after = hubrun::probe(&admin, &operator)?;
    let sampler = dev.sampler.take().expect("sampled");
    drop(hub);

    eprintln!("{}", hubrun::class_table(&phase.samples));
    eprintln!(
        "{}: {} commands, {} of {} writes ran auto-gc, setups {setups:.3?} s, slowness {:.4}",
        w.name,
        phase.samples.len(),
        dev.autogc,
        dev.writes,
        sampler.slowness(),
    );
    let wire = hubrun::wire_bytes(&after) - hubrun::wire_bytes(&before);
    let metrics = report::end_to_end(&setups, &phase.samples, &sampler, wire);
    Ok((metrics, std::mem::take(&mut dev.tally)))
}
