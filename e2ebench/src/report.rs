//! The result line every run ends with, and the end-to-end metrics of an
//! untraced run.

use crate::hubrun::{mix_ms, Sample};
use crate::proc::Sampler;
use crate::stats;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run, from its set-up times, the
/// ops of its measured window, what the sampler saw in that window, and
/// the bytes the hub moved over its sockets in it. Times measured in the
/// window are scaled to the reference speed: each op's latency divided by
/// the machine's slowness around it ([`Sampler::slowness_at`]), CPU time
/// by the slowness over the window.
pub fn end_to_end(
    setups_s: &[f64],
    samples: &[Sample],
    sampler: &Sampler,
    wire_bytes: f64,
) -> Vec<Metric> {
    let samples: Vec<Sample> = samples
        .iter()
        .map(|s| Sample {
            secs: s.secs / sampler.slowness_at(s.middle()),
            ..*s
        })
        .collect();
    let reads = stats::sorted(
        &samples
            .iter()
            .filter(|s| s.read)
            .map(|s| s.secs)
            .collect::<Vec<_>>(),
    );
    let n = samples.len() as f64;
    vec![
        metric("setup_s", "s", stats::median(setups_s)),
        metric("read_p50_ms", "ms", stats::quantile(&reads, 0.5) * 1e3),
        metric("read_tail_ms", "ms", stats::quantile(&reads, 0.8) * 1e3),
        metric("mix_ms", "ms", mix_ms(&samples)),
        metric(
            "cpu_us_per_op",
            "us",
            sampler.cpu_s / sampler.slowness() / n * 1e6,
        ),
        metric("server_rss_mb", "MiB", stats::median(&sampler.rss_mb)),
        metric("wire_bytes_per_op", "B", wire_bytes / n),
    ]
}

/// The JSON object a run prints as its last line of standard output.
/// Fails on a metric that is not a finite number.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
