//! `e2ebench --compare <parent-dir> <change-dir>`: the rule a change that
//! claims a gain, or claims to hold every metric, is judged by.
//!
//! Each directory holds one result line per run, in files named
//! `<workload>.<seed>.json` (the last line a run prints). Runs of the same
//! workload and seed on the two sides form a pair; make them alternately.
//! For every (workload, end-to-end metric) in `BENCHMARK.json`:
//!
//! * **regression** — the change's median worse than the parent's by more
//!   than the metric's bound; when the parent's own spread exceeds the
//!   bound, only if every change run is also worse than every parent run;
//! * **unresolved** — otherwise, when the parent's own spread
//!   (interquartile range over median) exceeds the bound, so the runs
//!   cannot tell a change from noise, unless every change run is better
//!   than every parent run;
//! * **gain** — at least ten pairs, the change better in at least nine
//!   tenths of them (ties count for neither side), and the medians apart
//!   by more than the parent's interquartile range;
//! * **same** — otherwise.

use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    Same,
}

/// Reads the end-to-end metrics and bounds from `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = sjson::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(|l| l.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("metric without a name")?;
            let better = m.get("better").and_then(|b| b.as_str()).unwrap_or("lower");
            let bound = m
                .get("bound")
                .and_then(|b| b.as_f64())
                .ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_owned(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Judges one metric from paired runs: `pairs[i] = (parent, change)`.
pub fn judge(pairs: &[(f64, f64)], b: &Bound) -> Verdict {
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    if pairs.len() < 2 {
        return Verdict::Unresolved;
    }
    let (pm, cm) = (stats::median(&parent), stats::median(&change));
    let worse_by = if b.lower_is_better { cm - pm } else { pm - cm };
    let beyond_bound = worse_by > b.bound * pm.abs();
    let noisy = stats::spread(&parent) > b.bound;
    let all_worse = change.iter().all(|&c| parent.iter().all(|&p| better(p, c)));
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if beyond_bound && (!noisy || all_worse) {
        return Verdict::Regression;
    }
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    let [q1, _, q3] = stats::quartiles(&parent);
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let gain = pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && better(cm, pm)
        && (cm - pm).abs() > q3 - q1;
    if gain {
        Verdict::Gain
    } else {
        Verdict::Same
    }
}

/// `workload → seed → metric → value` from a directory of result files.
type Runs = BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>;

fn read_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(stem) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let Some((workload, seed)) = stem.rsplit_once('.') else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let v = sjson::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        let values = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.to_owned(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_owned())
            .or_default()
            .insert(seed.to_owned(), values);
    }
    Ok(runs)
}

/// Compares two result directories; the text report and whether any
/// metric regressed.
pub fn compare(
    benchmark_json: &str,
    parent: &Path,
    change: &Path,
) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (parent, change) = (read_runs(parent)?, read_runs(change)?);
    let mut out = format!(
        "{:<12} {:<20} {:>5} {:>14} {:>14} {:>7}  verdict\n",
        "workload", "metric", "pairs", "parent p50", "change p50", "bound"
    );
    let mut regressed = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        for b in &bounds {
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(seed, p)| Some((*p.get(&b.name)?, *c_runs.get(seed)?.get(&b.name)?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let verdict = judge(&pairs, b);
            regressed |= verdict == Verdict::Regression;
            let med = |side: fn(&(f64, f64)) -> f64| {
                stats::median(&pairs.iter().map(side).collect::<Vec<_>>())
            };
            out.push_str(&format!(
                "{workload:<12} {:<20} {:>5} {:>14.4} {:>14.4} {:>7.3}  {verdict:?}\n",
                b.name,
                pairs.len(),
                med(|p| p.0),
                med(|p| p.1),
                b.bound
            ));
        }
    }
    Ok((out, regressed))
}

/// The calibration record of a directory of result files: for each
/// workload and metric, the median, minimum and maximum over its runs,
/// the range and the interquartile range as shares of the median.
pub fn summarize(dir: &Path) -> Result<String, String> {
    let runs = read_runs(dir)?;
    let mut out = String::from("{\n");
    for (wi, (workload, seeds)) in runs.iter().enumerate() {
        out.push_str(&format!(
            "  \"{workload}\": {{\"runs\": {}, \"metrics\": {{\n",
            seeds.len()
        ));
        let names: Vec<&String> = seeds
            .values()
            .next()
            .map(|m| m.keys().collect())
            .unwrap_or_default();
        for (mi, name) in names.iter().enumerate() {
            let v: Vec<f64> = seeds
                .values()
                .filter_map(|m| m.get(*name).copied())
                .collect();
            let med = stats::median(&v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            let iqr = if v.len() >= 2 { stats::spread(&v) } else { 0.0 };
            out.push_str(&format!(
                "    \"{name}\": {{\"median\": {med}, \"min\": {lo}, \"max\": {hi}, \"range\": {:.4}, \"iqr\": {iqr:.4}}}{}\n",
                (hi - lo) / med.abs(),
                if mi + 1 < names.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  }}}}{}\n",
            if wi + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push('}');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool) -> Bound {
        with_bound(lower, 0.05)
    }

    fn with_bound(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    /// A parent whose quartiles are 101.75, 127 and 172.5: spread 0.557.
    const SKEWED: [f64; 10] = [
        100.0, 101.0, 102.0, 104.0, 120.0, 134.0, 160.0, 170.0, 180.0, 200.0,
    ];

    #[test]
    fn beating_every_run_is_no_gain_without_a_gap_beyond_the_iqr() {
        let pairs: Vec<(f64, f64)> = SKEWED.iter().map(|&p| (p, 99.0)).collect();
        // The gap between medians (28) is under the parent's IQR (70.75).
        assert_eq!(judge(&pairs, &with_bound(true, 0.6)), Verdict::Same);
        // Under a bound below the parent's spread too: every change run
        // is better, so it is no regression, but still no gain.
        assert_eq!(judge(&pairs, &bound(true)), Verdict::Same);
        // Higher-is-better: every change run worse, by more than the bound.
        assert_eq!(judge(&pairs, &bound(false)), Verdict::Regression);
    }

    #[test]
    fn a_noisy_parent_hides_drift_but_not_a_clear_regression() {
        // The median moves by 30%, past the bound, inside the noise.
        let drifted: Vec<(f64, f64)> = SKEWED.iter().map(|&p| (p, p * 1.3)).collect();
        assert_eq!(
            judge(&drifted, &with_bound(true, 0.25)),
            Verdict::Unresolved
        );
        // Every change run worse than every parent run.
        let clear: Vec<(f64, f64)> = SKEWED.iter().map(|&p| (p, p + 250.0)).collect();
        assert_eq!(judge(&clear, &with_bound(true, 0.25)), Verdict::Regression);
    }

    #[test]
    fn clear_gain_needs_ten_pairs_and_nine_wins() {
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 80.0 + i as f64))
            .collect();
        assert_eq!(judge(&pairs, &bound(true)), Verdict::Gain);
        assert_eq!(judge(&pairs[..9], &bound(true)), Verdict::Same);
        // Higher-is-better reads the same pairs as a regression.
        assert_eq!(judge(&pairs, &bound(false)), Verdict::Regression);
    }

    #[test]
    fn noise_within_the_bound_is_the_same() {
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + (i % 3) as f64, 100.0 + ((i + 1) % 3) as f64))
            .collect();
        assert_eq!(judge(&pairs, &bound(true)), Verdict::Same);
    }

    #[test]
    fn a_noisy_parent_is_unresolved() {
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (if i % 2 == 0 { 80.0 } else { 120.0 }, 100.0))
            .collect();
        assert_eq!(judge(&pairs, &bound(true)), Verdict::Unresolved);
    }
}
