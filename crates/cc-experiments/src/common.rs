//! Shared scenario construction, the policy table, and reporting helpers.
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde_json::Value;

use cc_compress::CompressionModel;
use cc_policies::{FaasCache, IceBreaker, Oracle, SitW};
use cc_sim::{
    ClusterConfig, FixedKeepAlive, JsonlSink, Scheduler, SimReport, Simulation, Tee, Telemetry,
};
use cc_trace::{SyntheticTrace, Trace};
use cc_types::{Cost, SimDuration};
use cc_workload::{Catalog, Workload};
use codecrunch::CodeCrunch;

/// A scenario: the synthetic trace, its workload and the cluster it runs
/// on. The experiments, the bench binaries and the parity suites build
/// their materialized scenarios from one of these ([`Scale::build`]).
///
/// The default scale deliberately over-subscribes the cluster's memory
/// (total warm footprint of all functions ≫ cluster memory), reproducing
/// the production regime in which the Azure trace's 200k functions share
/// 31 nodes. The smoke scale exists for tests and CI.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Unique functions in the trace.
    pub functions: usize,
    /// Trace length in minutes.
    pub minutes: u64,
    /// x86 worker nodes.
    pub x86_nodes: u32,
    /// ARM worker nodes.
    pub arm_nodes: u32,
    /// Master seed.
    pub seed: u64,
    /// Share of each node's memory open to warm instances, in (0, 1].
    pub warm_fraction: f64,
}

impl Scale {
    /// Tiny scale for unit tests (seconds to run).
    pub fn smoke() -> Scale {
        Scale {
            functions: 60,
            minutes: 90,
            x86_nodes: 1,
            arm_nodes: 2,
            seed: 7,
            warm_fraction: 0.20,
        }
    }

    /// The default experiment scale (a scaled-down Azure day: memory
    /// pressure comparable to the paper's setup, cores sized so queueing
    /// appears only during the load peaks).
    pub fn standard() -> Scale {
        Scale {
            functions: 600,
            minutes: 480,
            x86_nodes: 6,
            arm_nodes: 7,
            seed: 7,
            warm_fraction: 0.20,
        }
    }

    /// A larger overnight scale (a two-day, 2000-function slice closer to
    /// the paper's regime; the full suite takes tens of minutes).
    pub fn large() -> Scale {
        Scale {
            functions: 2000,
            minutes: 2 * 24 * 60,
            x86_nodes: 13,
            arm_nodes: 18,
            seed: 7,
            warm_fraction: 0.20,
        }
    }

    /// The synthetic trace for this scale (with the default load peaks).
    pub fn trace(&self) -> Trace {
        SyntheticTrace::builder()
            .functions(self.functions)
            .duration(SimDuration::from_mins(self.minutes))
            .seed(self.seed)
            .build()
    }

    /// Resolves the trace against the paper catalog.
    pub fn workload(&self, trace: &Trace) -> Workload {
        Workload::from_trace(
            trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        )
    }

    /// The cluster for this scale (paper node shapes, unlimited budget,
    /// the warm pool capped at `warm_fraction` of node memory).
    ///
    /// The presets cap the warm pool at 20% so the total warm demand of
    /// the function population exceeds what fits — the production
    /// memory-pressure regime in which the paper's compression and budget
    /// mechanisms have something to do. Cores stay plentiful so queueing
    /// appears only at load peaks.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::small(self.x86_nodes, self.arm_nodes)
            .with_warm_memory_fraction(self.warm_fraction)
    }

    /// The trace, its workload and the cluster, in one call.
    pub fn build(&self) -> (Trace, Workload, ClusterConfig) {
        let trace = self.trace();
        let workload = self.workload(&trace);
        (trace, workload, self.cluster())
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::standard()
    }
}

/// The six policies every comparison runs, in canonical order: the
/// fixed keep-alive baseline, the three published competitors, the
/// clairvoyant oracle and CodeCrunch.
pub const POLICIES: [&str; 6] = [
    "fixed_keepalive",
    "sitw",
    "faascache",
    "icebreaker",
    "oracle",
    "codecrunch",
];

/// Builds the policy named `name` (one of [`POLICIES`]). The oracle needs
/// the trace it will be replayed on; without one (a streaming scenario
/// that never materializes its trace) it is an error, as is an unknown
/// name.
pub fn policy(name: &str, trace: Option<&Trace>) -> Result<Box<dyn Scheduler>, String> {
    Ok(match name {
        "fixed_keepalive" => Box::new(FixedKeepAlive::ten_minutes()),
        "sitw" => Box::new(SitW::new()),
        "faascache" => Box::new(FaasCache::new()),
        "icebreaker" => Box::new(IceBreaker::new()),
        "oracle" => match trace {
            Some(trace) => Box::new(Oracle::new(trace)),
            None => {
                return Err("oracle needs a materialized trace, not a streaming one".to_string())
            }
        },
        "codecrunch" => Box::new(CodeCrunch::new()),
        other => return Err(format!("unknown policy {other:?} (known: {POLICIES:?})")),
    })
}

/// Measures SitW's natural keep-alive spend on `(trace, workload)` under
/// `config` and converts it into a per-interval budget — the paper's
/// normalization ("CodeCrunch's total keep-alive budget is the same as the
/// total keep-alive cost expenditure of SitW").
pub fn sitw_budget_per_interval(
    trace: &Trace,
    workload: &Workload,
    config: &ClusterConfig,
) -> Cost {
    let mut probe = SitW::new();
    let natural = Simulation::new(config.clone(), trace, workload).run(&mut probe);
    let intervals = (trace.duration().as_micros() / config.interval.as_micros()).max(1);
    natural.keep_alive_spend.scale(1.0 / intervals as f64)
}

static TELEMETRY_DIR: OnceLock<PathBuf> = OnceLock::new();
static TELEMETRY_SEQ: AtomicU64 = AtomicU64::new(0);

/// Opt in to telemetry capture: every subsequent [`run_policy`] call also
/// streams its JSONL event log (plus a final snapshot line) into `dir`,
/// one `runNNNN-<policy>.jsonl` file per simulation. Figure runs stay on
/// the uninstrumented fast path unless this is called (the `expr` binary
/// exposes it as `--telemetry DIR`).
pub fn enable_telemetry(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let _ = TELEMETRY_DIR.set(dir.to_path_buf());
    Ok(())
}

/// Runs one policy and returns its report.
pub fn run_policy(
    policy: &mut dyn Scheduler,
    config: &ClusterConfig,
    trace: &Trace,
    workload: &Workload,
) -> SimReport {
    let sim = Simulation::new(config.clone(), trace, workload);
    let Some(dir) = TELEMETRY_DIR.get() else {
        return sim.run(policy);
    };
    let seq = TELEMETRY_SEQ.fetch_add(1, Ordering::Relaxed);
    let name: String = policy
        .name()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("run{seq:04}-{name}.jsonl"));
    let file = match File::create(&path) {
        Ok(file) => file,
        Err(e) => {
            eprintln!(
                "telemetry: cannot create {}: {e}; running uninstrumented",
                path.display()
            );
            return sim.run(policy);
        }
    };
    let mut sink = Tee(
        Telemetry::new(config.interval),
        JsonlSink::new(BufWriter::new(file)),
    );
    let report = sim.run_with_sink(policy, &mut sink);
    let Tee(telemetry, mut jsonl) = sink;
    jsonl.write_line(&telemetry.snapshot_line());
    if let Err(e) = jsonl.finish().and_then(|mut w| w.flush()) {
        eprintln!("telemetry: error writing {}: {e}", path.display());
    }
    report
}

/// The output of one experiment: human-readable lines plus the raw data
/// (the "rows/series the paper reports") as JSON.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id.
    pub id: String,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Raw series/rows.
    pub data: Value,
}

impl ExperimentOutput {
    /// Creates an output bundle.
    pub fn new(id: &str, lines: Vec<String>, data: Value) -> ExperimentOutput {
        ExperimentOutput {
            id: id.to_owned(),
            lines,
            data,
        }
    }

    /// Prints the human-readable lines to stdout.
    pub fn print(&self) {
        println!("== {} ==", self.id);
        for line in &self.lines {
            println!("{line}");
        }
        println!();
    }
}

impl serde_json::ToJson for ExperimentOutput {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "id": self.id.as_str(),
            "lines": self.lines.clone(),
            "data": self.data.clone(),
        })
    }
}

/// Formats a compact numeric series for terminal output.
pub fn fmt_series(values: &[f64], precision: usize) -> String {
    let rendered: Vec<String> = values.iter().map(|v| format!("{v:.precision$}")).collect();
    rendered.join(", ")
}

/// Renders a numeric series as a unicode sparkline, scaled to the series'
/// own min-max range. Empty input yields an empty string; a constant
/// series renders at the lowest level; non-finite values render as a dot.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return values.iter().map(|_| '.').collect();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '.';
            }
            let level = if span <= 0.0 {
                0
            } else {
                (((v - min) / span) * 7.0).round() as usize
            };
            BARS[level.min(7)]
        })
        .collect()
}

/// Downsamples a series by averaging consecutive chunks of `factor`.
pub fn downsample(values: &[f64], factor: usize) -> Vec<f64> {
    if factor <= 1 {
        return values.to_vec();
    }
    values
        .chunks(factor)
        .map(|chunk| chunk.iter().sum::<f64>() / chunk.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_builds_consistent_pieces() {
        let scale = Scale::smoke();
        let trace = scale.trace();
        let workload = scale.workload(&trace);
        assert_eq!(trace.functions().len(), scale.functions);
        assert_eq!(workload.len(), scale.functions);
        scale.cluster().validate();
    }

    #[test]
    fn the_table_builds_every_policy_and_refuses_the_rest() {
        let trace = Scale::smoke().trace();
        for name in POLICIES {
            let built = policy(name, Some(&trace)).expect("every table entry builds");
            assert_eq!(built.name().replace('-', "_"), name);
        }
        assert!(policy("oracle", None).is_err());
        assert!(policy("nope", Some(&trace)).is_err());
        assert!(policy("nope", None).is_err());
    }

    #[test]
    fn presets_cap_the_warm_pool_at_a_fifth() {
        for scale in [Scale::smoke(), Scale::standard(), Scale::large()] {
            let explicit = ClusterConfig::small(scale.x86_nodes, scale.arm_nodes)
                .with_warm_memory_fraction(0.20);
            assert_eq!(scale.cluster(), explicit);
        }
    }

    #[test]
    fn sitw_budget_is_positive() {
        let scale = Scale::smoke();
        let trace = scale.trace();
        let workload = scale.workload(&trace);
        let budget = sitw_budget_per_interval(&trace, &workload, &scale.cluster());
        assert!(budget > Cost::ZERO);
    }

    #[test]
    fn downsample_averages() {
        assert_eq!(downsample(&[1.0, 3.0, 5.0, 7.0], 2), vec![2.0, 6.0]);
        assert_eq!(downsample(&[1.0, 3.0, 5.0], 2), vec![2.0, 5.0]);
        assert_eq!(downsample(&[1.0], 1), vec![1.0]);
    }

    #[test]
    fn fmt_series_renders() {
        assert_eq!(fmt_series(&[1.0, 2.5], 1), "1.0, 2.5");
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "\u{2581}\u{2581}\u{2581}");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('\u{2581}') && line.ends_with('\u{2588}'));
        assert_eq!(sparkline(&[1.0, f64::NAN, 2.0]).chars().nth(1), Some('.'));
    }
}
