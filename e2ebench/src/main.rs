//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result line; with `--capacity` it
//! measures the hub workload's closed-loop throughput instead.
//! `--compare` and `--summarize` read saved result lines. See
//! `README.md`.

use gitcite_e2ebench::proc::{self, WorkDir};
use gitcite_e2ebench::report;
use gitcite_e2ebench::workload::{self, Kind};
use gitcite_e2ebench::{compare, hubrun, localdev, speed, trace};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    capacity: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut capacity = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => trace = value()? == "1",
            "--capacity" => capacity = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        capacity,
    })
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let w = workload::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    // Build on every CPU, then pin; the pinned process finds it built.
    let bin = proc::build_gitcite()?;
    proc::pin_generator();
    let work = WorkDir::create()?;
    if args.capacity {
        if w.kind == Kind::Developer {
            return Err(format!("{} runs closed-loop; it has no rate", w.name));
        }
        let (line, tally) = hubrun::capacity(&bin, &work, w, args.seed, args.seconds)?;
        for note in &tally.notes {
            eprintln!("  {note}");
        }
        return Ok((tally.correct(), line));
    }
    let (metrics, tally) = match (w.kind, args.trace) {
        (Kind::Visitors | Kind::Editors, false) => {
            hubrun::measure(&bin, &work, w, args.seed, args.seconds)?
        }
        (Kind::Developer, false) => localdev::measure(&bin, &work, w, args.seed, args.seconds)?,
        (_, true) => trace::measure(&bin, &work, w, args.seed, args.seconds)?,
    };
    for note in &tally.notes {
        eprintln!("  {note}");
    }
    eprintln!("reported:");
    for m in &metrics {
        eprintln!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let line = report::json_line(tally.correct(), tally.attempted, tally.failed, &metrics)?;
    Ok((tally.correct(), line))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--compare") => match &args[1..] {
            [parent, change] => std::fs::read_to_string("BENCHMARK.json")
                .map_err(|e| format!("BENCHMARK.json: {e}"))
                .and_then(|b| compare::compare(&b, Path::new(parent), Path::new(change)))
                .map(|(report, regressed)| (!regressed, report)),
            _ => Err("--compare takes <parent-dir> <change-dir>".into()),
        },
        Some("--reference") => speed::reference_main().map(|line| (true, line)),
        Some("--summarize") => match &args[1..] {
            [dir] => compare::summarize(Path::new(dir)).map(|s| (true, s)),
            _ => Err("--summarize takes <results-dir>".into()),
        },
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok((ok, out)) => {
            println!("{out}");
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: wrong or failed answers, or a regression");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
