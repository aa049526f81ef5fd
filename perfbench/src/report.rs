//! The metric catalogue, the host record, and the output format: one
//! human-readable line per figure, then the result object as the last
//! line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dfs::simkit::stats::percentile_sorted;

/// End-to-end metrics, reported by the untraced pass of every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, reported by the traced pass of every workload; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scheduler.assign_s", "s"),
    ("scheduler.calls", "count"),
    ("scheduler.us_per_call", "us"),
    ("scheduler.maps_per_call", "ratio"),
    ("scheduler.share", "ratio"),
    ("netsim.replay_s", "s"),
    ("netsim.updates", "count"),
    ("netsim.flows", "count"),
    ("netsim.cancelled", "count"),
    ("netsim.rate_changes", "count"),
    ("netsim.rate_changes_per_update", "ratio"),
    ("netsim.share", "ratio"),
    ("mapreduce.rest_s", "s"),
    ("mapreduce.map_launched", "count"),
    ("mapreduce.degraded_plan", "count"),
    ("mapreduce.redundant_fetch_issued", "count"),
    ("mapreduce.fetch_cancelled", "count"),
    ("obs.emit_s", "s"),
    ("obs.aggregator_s", "s"),
    ("obs.events", "count"),
    ("obs.flow_rate_share", "ratio"),
    ("sweep.wall_1t_s", "s"),
    ("sweep.parallel_eff", "ratio"),
    ("erasure.encode_mib_per_s", "MiB/s"),
    ("erasure.reconstruct_mib_per_s", "MiB/s"),
    ("textlab.jobs_s", "s"),
    ("textlab.degraded_reads", "count"),
    ("textlab.fetch_amplification", "ratio"),
];

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs (or shards, or text jobs) whose outputs were checked.
    pub attempted: u64,
    /// Of those, how many errored or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Catalogue metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed beside the catalogue:
    /// `(name, unit, value)`.
    pub extra: Vec<(&'static str, &'static str, f64)>,
    /// Deterministic work counters; must repeat exactly.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic model outputs (simulated seconds, percentages);
    /// must repeat exactly.
    pub sim: BTreeMap<String, f64>,
    /// Caveats printed with the figures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records the outcome of one checked unit of work.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Records a problem that is not tied to one unit of work (a
    /// non-repeating counter, say): it fails the run without counting
    /// an attempt.
    pub fn fail(&mut self, error: String) {
        self.failed = self.failed.max(1);
        self.errors.push(error);
    }

    /// Sets a catalogue metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// The median of a sample, via `simkit::stats`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p` quantile (`p` in `[0, 1]`) of a sample via
/// `simkit::stats::percentile_sorted`; 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Where the numbers were measured.
#[derive(Debug)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// The GF(256) kernel tier the erasure layer dispatched to.
    pub simd: &'static str,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// `git rev-parse HEAD` when run from a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = if std::path::Path::new(".git").exists() {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        } else {
            None
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            simd: dfs::erasure::simd::active().name(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit.unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Renders the human-readable lines and the final result object.
pub fn render(header: &str, host: &Host, catalogue: &[(&str, &str)], out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# perfbench {header}");
    let _ = writeln!(
        s,
        "host nproc={} cpu={:?} simd={} rustc={:?} commit={}",
        host.nproc, host.cpu, host.simd, host.rustc, host.commit
    );
    for &(name, unit) in catalogue {
        let _ = writeln!(s, "metric {name} {} {unit}", out.metrics[name]);
    }
    for &(name, unit, value) in &out.extra {
        let _ = writeln!(s, "extra {name} {value} {unit}");
    }
    for (name, value) in &out.counters {
        let _ = writeln!(s, "counter {name} {value}");
    }
    for (name, value) in &out.sim {
        let _ = writeln!(s, "sim {name} {value}");
    }
    let _ = writeln!(
        s,
        "extra failed_frac {} ratio",
        ratio(out.failed as f64, out.attempted as f64)
    );
    for note in &out.notes {
        let _ = writeln!(s, "note {note}");
    }
    for e in &out.errors {
        let _ = writeln!(s, "check-failed {e}");
    }
    let mut metrics = String::new();
    for (i, &(name, unit)) in catalogue.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(out.metrics[name])
        );
    }
    let _ = writeln!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    s
}

/// A finite number as JSON (non-finite values cannot occur in a valid
/// run; they render as 0 and the caller has already failed the run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The deterministic lines (`counter` and `sim`) of a saved output.
fn deterministic_lines(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| l.starts_with("counter ") || l.starts_with("sim "))
        .filter_map(|l| {
            let mut parts = l.splitn(3, ' ');
            let kind = parts.next()?;
            let name = parts.next()?;
            Some((format!("{kind} {name}"), parts.next()?.to_string()))
        })
        .collect()
}

/// Compares the deterministic counters and model outputs of two saved
/// outputs exactly; returns one line per difference.
pub fn diff_outputs(a: &str, b: &str) -> Vec<String> {
    let (a, b) = (deterministic_lines(a), deterministic_lines(b));
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| {
            let show = |v: Option<&String>| v.map_or("<absent>", String::as_str).to_string();
            format!("{k}: {} != {}", show(a.get(k)), show(b.get(k)))
        })
        .collect()
}
