//! Metric names and units, the result line, and the machine fingerprint.

use std::collections::BTreeMap;

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// The untraced run's metrics (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("rounds_per_s", "1/s"),
    m("scd_rounds_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// The traced run's metrics (`--trace 1`). A layer the workload does not
/// drive reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("trace_overhead_frac", "frac"),
    m("policies.dispatch_share", "frac"),
    m("sim.engine.self_ns_per_round", "ns"),
    m("policies.scd.dispatch_ns_per_job", "ns"),
    m("policies.jsq.dispatch_ns_per_job", "ns"),
    m("policies.sed.dispatch_ns_per_job", "ns"),
    m("policies.lsq.dispatch_ns_per_job", "ns"),
    m("policies.led.dispatch_ns_per_job", "ns"),
    m("policies.wr.dispatch_ns_per_job", "ns"),
    m("policies.jsq.observe_ns_per_round", "ns"),
    m("policies.lsq.observe_ns_per_round", "ns"),
    m("policies.led.observe_ns_per_round", "ns"),
    m("model.round_cache.memo_hits_per_scd_call", "hits/call"),
    m("core.solver.solve_ns", "ns"),
    m("core.iwl.ns", "ns"),
    m("core.index.rebuild_ns", "ns"),
    m("model.class_partition.build_ns", "ns"),
    m("model.class_partition.classes", "count"),
    m("model.round_cache.refresh_ns", "ns"),
    m("model.alias.build_ns", "ns"),
    m("metrics.tracker.observe_ns", "ns"),
    m("sim.workload.sample_ns_per_round", "ns"),
    m("sim.scenario.server_down_rounds", "count"),
    m("sim.scenario.stale_decision_rounds", "count"),
    m("sim.scenario.probes_dropped", "count"),
    m("sim.scenario.arrivals_lost", "count"),
    m("sim.shard.inprocess_s", "s"),
    m("sim.shard.merge_ns", "ns"),
    m("sim.checkpoint.encode_ns", "ns"),
    m("sim.checkpoint.decode_ns", "ns"),
    m("sim.checkpoint.bytes", "bytes"),
    m("sim.fabric.frame_encode_ns", "ns"),
    m("sim.fabric.frame_decode_ns", "ns"),
    m("sim.fabric.frame_bytes", "bytes"),
    m("sim.fabric.attempts", "count"),
    m("sim.fabric.checkpoints_taken", "count"),
    m("sim.fabric.rounds_replayed", "count"),
    m("sim.fabric.overhead_ratio", "ratio"),
];

/// Median of `values` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// The peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The run's outcome: its checks and its metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Runs attempted (every policy run, traced or not).
    pub attempted: u64,
    /// Runs that returned an error or failed a check.
    pub failed: u64,
    /// The first failure messages, for stderr.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one attempted run and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// listed metrics, each with its unit.
    ///
    /// # Errors
    /// A listed metric is missing or not finite.
    pub fn json(&self, listed: &[Metric]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(listed.len());
        for metric in listed {
            let value = *self
                .metrics
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                number(value),
                metric.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine fingerprint every result is recorded with: absolute
/// numbers compare only between runs with equal fingerprints.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \"source_digest\": {}}}",
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_PROFILE")),
        json_string(env!("PERFBENCH_COMMIT")),
        json_string(env!("PERFBENCH_SOURCE_DIGEST")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn the_result_line_needs_every_listed_metric() {
        let mut outcome = Outcome::default();
        outcome.record(Ok(()));
        outcome.metrics.insert("x", 1.5);
        assert_eq!(outcome.error_rate(), 0.0);
        assert_eq!(
            outcome.json(&[m("x", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(outcome.json(&[m("y", "s")]).is_err());
        outcome.metrics.insert("y", f64::NAN);
        assert!(outcome.json(&[m("y", "s")]).is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(0.123456789012), "0.123456789012");
        assert_eq!(number(1e-7), "0.0000001");
    }
}
