//! How fast the machine ran during a measured window.
//!
//! On a shared machine the same code runs at different speeds from one
//! moment to the next: the CPUs a virtual machine is given share their
//! cores with other tenants' work, and the same op took 35% longer while a
//! neighbour was busy, for stretches of seconds to minutes. A fixed
//! reference loop runs on each of the two CPUs the run uses, at the idle
//! scheduling class, so it runs only while neither the hub nor the
//! generator nor a CLI process wants that CPU and takes no time from them.
//! Each pass of the loop is timed; passes the scheduler cut into are
//! dropped. The mean pass time in each tenth of a second, against
//! [`REFERENCE_NS`], says how slow that CPU ran then. The loop is a
//! branchy search over a table that fits the first-level cache: on the
//! calibration machine its pass time followed the speed of
//! interpreter-like code on the same CPU closely (correlation 0.96 over
//! one-second windows), where a loop of dependent arithmetic did not move
//! at all.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Searches per pass of the reference loop.
const SEARCHES: usize = 2000;
/// Entries in the searched table (16 KiB).
const TABLE: usize = 4096;
/// About the shortest mean pass time over a tenth of a second seen on the
/// calibration machine (whole windows came out 1.3–1.8 times slower):
/// the speed scaled times are reported at.
pub const REFERENCE_NS: f64 = 15_000.0;
/// A pass longer than this many times the window's shortest was cut into
/// by the scheduler or an interrupt and is dropped.
const CUT: f64 = 3.0;
/// The stretch of time one slowness reading covers.
pub const BIN: Duration = Duration::from_millis(100);

/// One pass of the reference loop; returns a value the caller must use.
fn pass(table: &[u32], state: &mut u64) -> u64 {
    let mut found = 0u64;
    for _ in 0..SEARCHES {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let key = (*state >> 40) as u32;
        found += table.partition_point(|&v| v < key) as u64;
    }
    found
}

/// The reference loop, run as a process of its own (`e2ebench
/// --reference`): passes until standard input closes, then prints the
/// mean time of the passes kept, in ns, over the whole run and then over
/// each [`BIN`] from its start (0 for a bin without a kept pass).
pub fn reference_main() -> Result<String, String> {
    let mut table: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 8)
        .collect();
    table.sort_unstable();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        flag.store(true, Ordering::Relaxed);
    });
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut found = 0u64;
    // (bin, pass time in ns) of every pass.
    let mut passes: Vec<(u32, u32)> = Vec::new();
    let began = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let start = Instant::now();
        found = found.wrapping_add(pass(&table, &mut state));
        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let bin = (start - began).as_nanos() / BIN.as_nanos();
        passes.push((bin as u32, ns));
    }
    std::hint::black_box(found);
    let shortest = passes
        .iter()
        .map(|p| p.1)
        .min()
        .ok_or("no pass completed")?;
    let kept = passes
        .iter()
        .filter(|p| f64::from(p.1) <= f64::from(shortest) * CUT);
    let bins = passes.last().map_or(0, |p| p.0 as usize + 1);
    let (mut sums, mut counts) = (vec![0.0; bins], vec![0u32; bins]);
    for &(bin, ns) in kept {
        sums[bin as usize] += f64::from(ns);
        counts[bin as usize] += 1;
    }
    let mean = sums.iter().sum::<f64>() / f64::from(counts.iter().sum::<u32>());
    let mut line = format!("{mean}");
    for (sum, count) in sums.iter().zip(&counts) {
        let bin_mean = if *count > 0 {
            sum / f64::from(*count)
        } else {
            0.0
        };
        line.push_str(&format!(" {bin_mean:.0}"));
    }
    Ok(line)
}

/// How slow one CPU ran over a window, from its reference loop's line.
#[derive(Debug, Clone)]
pub struct Track {
    started: Instant,
    /// Over the whole window, and per [`BIN`] (0 where unmeasured), as
    /// multiples of [`REFERENCE_NS`].
    mean: f64,
    bins: Vec<f64>,
}

impl Track {
    fn parse(started: Instant, line: &str) -> Option<Track> {
        let mut values = line
            .split_whitespace()
            .map(|v| v.parse::<f64>().ok().map(|ns| ns / REFERENCE_NS));
        let mean = values.next()??;
        let bins = values.collect::<Option<Vec<f64>>>()?;
        mean.is_finite().then_some(Track {
            started,
            mean,
            bins,
        })
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The slowness in the bin holding `t`, or the mean where that bin
    /// had no kept pass.
    pub fn at(&self, t: Instant) -> f64 {
        let bin = (t.saturating_duration_since(self.started).as_nanos() / BIN.as_nanos()) as usize;
        match self.bins.get(bin) {
            Some(&s) if s > 0.0 => s,
            _ => self.mean,
        }
    }
}

/// Reference loops running on the generator's and the hub's CPUs.
pub struct Speedometer {
    started: Instant,
    loops: Vec<Child>,
}

impl Speedometer {
    /// Starts one reference loop pinned to each of `cpus`, at the idle
    /// scheduling class.
    pub fn start(cpus: &[String]) -> Speedometer {
        let started = Instant::now();
        let loops = std::env::current_exe().map_or_else(
            |_| Vec::new(),
            |exe| {
                cpus.iter()
                    .filter_map(|cpu| {
                        Command::new("taskset")
                            .args(["-c", cpu, "chrt", "-i", "0"])
                            .arg(&exe)
                            .arg("--reference")
                            .stdin(Stdio::piped())
                            .stdout(Stdio::piped())
                            .stderr(Stdio::null())
                            .spawn()
                            .ok()
                    })
                    .collect()
            },
        );
        Speedometer { started, loops }
    }

    /// Stops the loops and returns each CPU's track over the window, in
    /// the order of the CPUs given to [`Speedometer::start`]; `None` when
    /// any CPU went unmeasured (no `taskset` or `chrt`, say).
    pub fn finish(mut self, cpus: usize) -> Option<Vec<Track>> {
        let tracks: Vec<Option<Track>> = std::mem::take(&mut self.loops)
            .into_iter()
            .map(|mut child| {
                drop(child.stdin.take());
                let mut out = String::new();
                if let Some(mut stdout) = child.stdout.take() {
                    let _ = stdout.read_to_string(&mut out);
                }
                let _ = child.wait();
                Track::parse(self.started, &out)
            })
            .collect();
        let tracks: Option<Vec<Track>> = tracks.into_iter().collect();
        tracks.filter(|t| t.len() == cpus)
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        for child in &mut self.loops {
            drop(child.stdin.take());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_track_reads_its_bins_and_falls_back_to_the_mean() {
        let started = Instant::now();
        let line = format!(
            "{} {} 0 {}",
            REFERENCE_NS * 1.5,
            REFERENCE_NS,
            REFERENCE_NS * 2.0
        );
        let track = Track::parse(started, &line).expect("a well-formed line");
        assert_eq!(track.mean(), 1.5);
        assert_eq!(track.at(started), 1.0);
        // The second bin had no kept pass; past the last there is none.
        assert_eq!(track.at(started + BIN + BIN / 2), 1.5);
        assert_eq!(track.at(started + BIN * 2), 2.0);
        assert_eq!(track.at(started + BIN * 9), 1.5);
        assert!(Track::parse(started, "").is_none());
        assert!(Track::parse(started, "NaN").is_none());
    }

    #[test]
    fn a_pass_searches_the_whole_table() {
        // Entries spaced evenly over the 24 bits a key has.
        let table: Vec<u32> = (0..TABLE as u32).map(|i| i << 12).collect();
        let mut state = 1;
        // Keys spread over the table: the mean position is near the middle.
        let mean = pass(&table, &mut state) as f64 / SEARCHES as f64;
        assert!(
            (mean - TABLE as f64 / 2.0).abs() < TABLE as f64 / 8.0,
            "{mean}"
        );
    }
}
