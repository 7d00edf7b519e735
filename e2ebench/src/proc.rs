//! Processes the benchmark starts — the build, `gitcite hub serve` and
//! `gitcite` CLI invocations — and the `/proc` readings taken from them.

use crate::speed::{Speedometer, Track};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Set once the generator runs pinned: the CPU the hub is pinned to.
const HUB_CPU_ENV: &str = "E2EBENCH_HUB_CPU";

/// CPUs this process may run on (`Cpus_allowed_list`).
fn allowed_cpus() -> Vec<String> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    cpus.extend((a..=b).map(|c| c.to_string()));
                }
            }
            None => cpus.push(part.to_owned()),
        }
    }
    cpus
}

/// Re-executes this process pinned to its first allowed CPU, leaving the
/// second to the hub (see [`HubProcess::spawn`]): with each side on a
/// core of its own, neither preempts the other and the scheduler cannot
/// move them, which is most of the run-to-run noise on a small machine.
/// The CLI processes a run starts inherit the generator's CPU. Returns
/// (running unpinned) when there is one CPU or no `taskset`.
pub fn pin_generator() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os(HUB_CPU_ENV).is_some() {
        return;
    }
    let cpus = allowed_cpus();
    let (Some(own), Some(hub), Ok(exe)) = (cpus.first(), cpus.get(1), std::env::current_exe())
    else {
        return;
    };
    let err = Command::new("taskset")
        .args(["-c", own])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(HUB_CPU_ENV, hub)
        .exec();
    eprintln!("e2ebench: running unpinned: {err}");
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// Builds the shipped `gitcite` binary from the checkout in the current
/// directory and returns its path. Honors `CARGO_TARGET_DIR`.
pub fn build_gitcite() -> Result<PathBuf, String> {
    if !Path::new("crates/gitcite-cli/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/gitcite-cli is missing".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "gitcite-cli",
            "--bin",
            "gitcite",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building gitcite failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("gitcite");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// A `gitcite` command with the defaults a user gets (no tracing, default
/// auto-gc), run under `taskset -c <cpu>` when `cpu` is given.
fn gitcite(bin: &Path, cpu: Option<&str>) -> Command {
    let mut command = match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(bin);
            c
        }
        None => Command::new(bin),
    };
    command
        .env_remove("GITCITE_TRACE")
        .env_remove("GITCITE_AUTO_GC");
    command
}

/// Runs one CLI invocation in `dir`; returns its wall time and output.
pub fn run_cli(bin: &Path, dir: &Path, args: &[&str]) -> Result<(Duration, Output), String> {
    let start = Instant::now();
    let output = gitcite(bin, None)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run gitcite {args:?}: {e}"))?;
    Ok((start.elapsed(), output))
}

/// A running `gitcite hub serve` on a loopback port and a data directory
/// of its own. Dropping it kills the server, waits for it, and removes
/// the data directory.
pub struct HubProcess {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    data_dir: PathBuf,
    pub addr: String,
}

impl HubProcess {
    /// Starts the server and waits for its `listening` line.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<HubProcess, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let cpu = std::env::var(HUB_CPU_ENV).ok();
        let mut child = gitcite(bin, cpu.as_deref())
            .args(["hub", "serve", "--bind", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the hub: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("gitcite hub listening on ")
            .map(str::to_owned);
        let mut hub = HubProcess {
            child,
            _stdout: stdout,
            data_dir: data_dir.to_owned(),
            addr: String::new(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                hub.addr = addr;
                Ok(hub)
            }
            _ => Err(format!("the hub did not start (said {line:?})")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Writes the page cache back (`sync`). The benchmark creates and
/// deletes tens of thousands of files; settling the file system before
/// each timed stretch keeps one stretch's write-back out of the next.
pub fn settle() {
    let _ = Command::new("sync").status();
}

/// The two CPUs of a pinned run, the generator's and the hub's.
fn pinned_cpus() -> Option<Vec<String>> {
    let hub = std::env::var(HUB_CPU_ENV).ok()?;
    let own = allowed_cpus().into_iter().next()?;
    Some(vec![own, hub])
}

/// CPU seconds used so far on each side: the hub's, and the generator's
/// own plus that of the CLI processes it waited for.
#[derive(Clone, Copy)]
struct Sides {
    hub: f64,
    generator: f64,
    cli: f64,
}

impl Sides {
    fn now(hub_pid: u32) -> Sides {
        let cli = children_cpu_s();
        Sides {
            hub: process_cpu_s(hub_pid),
            generator: cpu_s("/proc/self/stat", false) + cli,
            cli,
        }
    }
}

/// Watches a measured window: the hub's resident set at most every
/// 100 ms, the CPU time each side used from start to finish, and (with a
/// [`Speedometer`] on each side's CPU) how slow the machine ran meanwhile.
pub struct Sampler {
    pid: u32,
    with_cli: bool,
    next: Instant,
    start: Sides,
    speedometer: Option<Speedometer>,
    /// CPU seconds the hub used in the window — plus the CLI processes'
    /// when sampling a developer — once [`Sampler::finish`]ed.
    pub cpu_s: f64,
    /// How slow the generator's and the hub's CPU ran, each with the
    /// share of the window's CPU time used on it.
    tracks: Vec<(Track, f64)>,
    pub rss_mb: Vec<f64>,
}

impl Sampler {
    /// Starts watching the hub `pid`; `with_cli` counts the CLI
    /// processes' CPU time in [`Sampler::cpu_s`].
    pub fn new(pid: u32, with_cli: bool) -> Sampler {
        let start = Sides::now(pid);
        Sampler {
            pid,
            with_cli,
            next: Instant::now(),
            start,
            speedometer: pinned_cpus().map(|cpus| Speedometer::start(&cpus)),
            cpu_s: 0.0,
            tracks: Vec::new(),
            rss_mb: Vec::new(),
        }
    }

    /// Samples when the last sample is old enough.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.next = now + Duration::from_millis(100);
            self.rss_mb.push(status_kb(self.pid, "VmRSS:") / 1024.0);
        }
    }

    /// Ends the window.
    pub fn finish(&mut self) {
        let end = Sides::now(self.pid);
        let hub = end.hub - self.start.hub;
        let generator = end.generator - self.start.generator;
        let cli = end.cli - self.start.cli;
        self.cpu_s = hub + if self.with_cli { cli } else { 0.0 };
        if let Some(speedometer) = self.speedometer.take() {
            let total = generator + hub;
            let shares = if total > 0.0 {
                [generator / total, hub / total]
            } else {
                [0.5, 0.5]
            };
            if let Some(tracks) = speedometer.finish(shares.len()) {
                self.tracks = tracks.into_iter().zip(shares).collect();
            }
        }
    }

    /// How many times slower than [`crate::speed::REFERENCE_NS`] the
    /// machine ran over the window: each CPU's slowness weighted by the
    /// CPU time used on it. 1 when unpinned.
    pub fn slowness(&self) -> f64 {
        self.weighted(Track::mean)
    }

    /// The same around time `t`.
    pub fn slowness_at(&self, t: Instant) -> f64 {
        self.weighted(|track| track.at(t))
    }

    fn weighted(&self, slowness: impl Fn(&Track) -> f64) -> f64 {
        if self.tracks.is_empty() {
            return 1.0;
        }
        let total: f64 = self.tracks.iter().map(|(_, w)| w).sum();
        self.tracks
            .iter()
            .map(|(t, w)| slowness(t) * w)
            .sum::<f64>()
            / total
    }
}

/// A `kB` field of `/proc/<pid>/status`.
fn status_kb(pid: u32, key: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// CPU time process `pid` has used so far, in seconds.
pub fn process_cpu_s(pid: u32) -> f64 {
    cpu_s(&format!("/proc/{pid}/stat"), false)
}

impl Drop for HubProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// CPU seconds of the processes this one has started and waited for
/// (the finished CLI invocations).
pub fn children_cpu_s() -> f64 {
    cpu_s("/proc/self/stat", true)
}

/// `utime + stime` (or, with `children`, `cutime + cstime`) from a
/// `/proc/<pid>/stat` file, in seconds.
fn cpu_s(stat_file: &str, children: bool) -> f64 {
    let text = std::fs::read_to_string(stat_file).unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // utime, stime, cutime, cstime are fields 14-17 of the whole line,
    // 10-13 (0-based) after the state field.
    let at = if children { 12 } else { 10 };
    let ticks = fields.get(at).copied().unwrap_or(0) + fields.get(at + 1).copied().unwrap_or(0);
    ticks as f64 / TICKS_PER_SEC
}

/// The benchmark's scratch directory inside the checkout, removed when
/// dropped. Holds hub data directories and the developer's worktrees.
///
/// A run creates and deletes up to a hundred thousand small files. On an
/// ext4 file system without a journal (the calibration machine's), the
/// inode allocator skips every inode freed in the last minute or more,
/// one by one, so a file created among many recently deleted ones cost
/// 250–650 µs there instead of 20 µs, and set-up and write times depended
/// on what earlier runs had deleted. The work directory and the run's
/// directory are marked as tops of directory hierarchies (`chattr +T`),
/// which makes ext4 place each directory created in them in a block group
/// chosen by a hash of its name; every name carries the run's own tag, so
/// each set-up's files land away from the ones deleted before them.
/// Elsewhere the mark is refused or means nothing, and is skipped.
pub struct WorkDir {
    pub dir: PathBuf,
    tag: String,
}

fn mark_top_dir(dir: &Path) {
    let _ = Command::new("chattr")
        .arg("+T")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let tag = format!("{}-{nanos:09}", std::process::id());
        let root = PathBuf::from(".bench_work");
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        mark_top_dir(&root);
        let dir = root.join(format!("run-{tag}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        mark_top_dir(&dir);
        let dir = std::fs::canonicalize(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir { dir, tag })
    }

    /// A path for `name` in the run's directory, tagged with the run.
    pub fn join(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{}", self.tag))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
