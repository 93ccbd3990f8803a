//! Shared fixtures for the Criterion benchmarks and the bench binaries:
//! the benchmark scenarios, and the scenario flags `ccstat` and `ccserve`
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cc_compress::CompressionModel;
use cc_experiments::Scale;
use cc_sim::ClusterConfig;
use cc_trace::{StreamingTrace, StreamingTraceBuilder, Trace};
use cc_types::SimDuration;
use cc_workload::{Catalog, Workload};

/// A materialized benchmark scenario: the trace, its workload and the
/// cluster, built from one [`Scale`].
pub struct BenchScenario {
    /// The trace.
    pub trace: Trace,
    /// The resolved workload.
    pub workload: Workload,
    /// The cluster configuration.
    pub config: ClusterConfig,
}

impl BenchScenario {
    /// Builds the scenario `scale` describes.
    pub fn from_scale(scale: &Scale) -> BenchScenario {
        let (trace, workload, config) = scale.build();
        BenchScenario {
            trace,
            workload,
            config,
        }
    }

    /// The small benchmark scenario: enough functions and invocations
    /// that policy differences register, small enough that a Criterion
    /// iteration stays in the tens of milliseconds.
    pub fn small() -> BenchScenario {
        BenchScenario::from_scale(&Scale {
            functions: 40,
            minutes: 60,
            x86_nodes: 2,
            arm_nodes: 2,
            seed: 11,
            warm_fraction: 1.0,
        })
    }

    /// An eviction-bound scenario: 2000 functions over 30 minutes on a
    /// two-node cluster with 80% of each node's memory open to warm
    /// instances. Under fixed keep-alive each node holds about 60
    /// residents at a tick, and 40 316 invocations cause 34 261 evictions
    /// (`make_room`).
    pub fn capped() -> BenchScenario {
        BenchScenario::from_scale(&Scale {
            functions: 2000,
            minutes: 30,
            x86_nodes: 1,
            arm_nodes: 1,
            seed: 11,
            warm_fraction: 0.8,
        })
    }

    /// The hot-path stress scenario: 10 000 functions on a 124-node
    /// cluster (the paper's 13+18 topology scaled 4×) with a warm-memory
    /// cap tight enough that demand always exceeds it, so the pool holds
    /// thousands of instances and eviction (`make_room`) fires constantly.
    /// This is the scale at which per-arrival sorts, per-cold-start node
    /// sorts, and cluster-wide eviction scans dominate; the indexing
    /// refactor targets exactly this.
    pub fn large() -> BenchScenario {
        BenchScenario::from_scale(&Scale {
            functions: 10_000,
            minutes: 20,
            x86_nodes: 52,
            arm_nodes: 72,
            seed: 12,
            warm_fraction: 0.4,
        })
    }
}

/// The scenario `ccstat` and `ccserve` run when no scenario flag is given:
/// 200 functions over 20 minutes, seed 7, on 2 x86 + 2 ARM nodes whose
/// whole memory is open to warm instances.
pub fn cli_scale() -> Scale {
    Scale {
        functions: 200,
        minutes: 20,
        x86_nodes: 2,
        arm_nodes: 2,
        seed: 7,
        warm_fraction: 1.0,
    }
}

/// Parses one scenario flag (`--functions`, `--minutes`, `--seed`,
/// `--x86`, `--arm` or `--warm-fraction`) into `scale`, taking its value
/// from `args`. Returns `Ok(false)` for any other flag, which the caller
/// parses itself, and an error naming the flag when its value is missing
/// or out of range. Once every flag is in, [`check_scale`] checks what no
/// single flag can.
pub fn scale_flag(
    scale: &mut Scale,
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<bool, String> {
    fn value<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
        what: &str,
    ) -> Result<T, String> {
        args.next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} takes {what}"))
    }
    match flag {
        "--functions" => scale.functions = value(flag, args, "an integer")?,
        "--minutes" => scale.minutes = value(flag, args, "an integer")?,
        "--seed" => scale.seed = value(flag, args, "an integer")?,
        "--x86" => scale.x86_nodes = value(flag, args, "an integer")?,
        "--arm" => scale.arm_nodes = value(flag, args, "an integer")?,
        "--warm-fraction" => {
            let fraction: f64 = value(flag, args, "a fraction in (0, 1]")?;
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(format!("{flag} takes a fraction in (0, 1], not {fraction}"));
            }
            scale.warm_fraction = fraction;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Refuses a scenario the cluster cannot run (one without a node), an
/// empty one (no function, or no time), which would replay no invocation
/// and pass for a run, and one longer than the simulated clock can count.
pub fn check_scale(scale: &Scale) -> Result<(), String> {
    if scale.x86_nodes == 0 && scale.arm_nodes == 0 {
        return Err("--x86 and --arm are both 0: the cluster needs a node".to_string());
    }
    if scale.functions == 0 {
        return Err("--functions is 0: the scenario needs a function".to_string());
    }
    if scale.minutes == 0 {
        return Err("--minutes is 0: the scenario needs a duration".to_string());
    }
    if SimDuration::checked_from_mins(scale.minutes).is_none() {
        return Err(format!(
            "--minutes {} overflows the simulated clock",
            scale.minutes
        ));
    }
    Ok(())
}

/// A streaming benchmark scenario: the invocation stream is generated on
/// the fly (O(#functions) memory) instead of being materialized, which is
/// what makes the million-function scale reachable at all. Each replay
/// pulls a fresh, identically-seeded stream from [`StreamScenario::source`].
pub struct StreamScenario {
    builder: StreamingTraceBuilder,
    /// The resolved workload (from the function table alone).
    pub workload: Workload,
    /// The cluster configuration.
    pub config: ClusterConfig,
    /// Number of unique functions.
    pub functions: usize,
    /// Expected invocation count (Poisson mean) — the actual count is
    /// deterministic per seed but only known after a replay.
    pub expected_invocations: usize,
}

impl StreamScenario {
    /// The headline scale: one million functions over two simulated days,
    /// ~12M invocations, on the 124-node stress cluster.
    pub fn million() -> StreamScenario {
        StreamScenario::sized(1_000_000, 48 * 60, 8 * 60)
    }

    /// A CI-sized streaming scenario: 20k functions over half a day,
    /// ~250k invocations — large enough to exercise the feeder/encoder
    /// pipeline, small enough for a per-push smoke run.
    pub fn smoke() -> StreamScenario {
        StreamScenario::sized(20_000, 12 * 60, 2 * 60)
    }

    /// Builds a streaming scenario with `functions` functions over
    /// `duration_mins` minutes and a median per-function mean gap of
    /// `gap_mins` minutes.
    pub fn sized(functions: usize, duration_mins: u64, gap_mins: u64) -> StreamScenario {
        let mut builder = StreamingTrace::builder();
        builder
            .functions(functions)
            .duration(SimDuration::from_mins(duration_mins))
            .seed(31)
            .mean_gap_median(SimDuration::from_mins(gap_mins));
        let probe = builder.build();
        let workload = Workload::from_functions(
            probe.functions(),
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        StreamScenario {
            expected_invocations: probe.expected_invocations(),
            functions,
            builder,
            workload,
            config: ClusterConfig::small(52, 72).with_warm_memory_fraction(0.4),
        }
    }

    /// A fresh, identically-seeded arrival stream (one per replay).
    pub fn source(&self) -> StreamingTrace {
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a whitespace-separated flag line the way the binaries do.
    fn parse(line: &str) -> Result<Scale, String> {
        let mut scale = cli_scale();
        let mut args = line.split_whitespace().map(str::to_string);
        while let Some(flag) = args.next() {
            if !scale_flag(&mut scale, &flag, &mut args)? {
                return Err(format!("not a scenario flag: {flag}"));
            }
        }
        check_scale(&scale).map(|()| scale)
    }

    #[test]
    fn defaults_match_the_unflagged_cluster() {
        let scale = parse("").unwrap();
        assert_eq!((scale.functions, scale.minutes, scale.seed), (200, 20, 7));
        assert_eq!(scale.cluster(), ClusterConfig::small(2, 2));
    }

    #[test]
    fn every_scenario_flag_is_parsed() {
        let scale = "--functions 60 --minutes 30 --seed 9 --x86 1 --arm 0 --warm-fraction 0.35";
        let expected = Scale {
            functions: 60,
            minutes: 30,
            x86_nodes: 1,
            arm_nodes: 0,
            seed: 9,
            warm_fraction: 0.35,
        };
        assert_eq!(parse(scale), Ok(expected));
        assert_eq!(parse("--warm-fraction 1").unwrap().warm_fraction, 1.0);
    }

    #[test]
    fn bad_values_are_refused_naming_the_flag() {
        for (line, flag) in [
            ("--warm-fraction 1.5", "--warm-fraction"),
            ("--warm-fraction 0", "--warm-fraction"),
            ("--warm-fraction -0.2", "--warm-fraction"),
            ("--warm-fraction NaN", "--warm-fraction"),
            ("--warm-fraction", "--warm-fraction"),
            ("--functions many", "--functions"),
            ("--seed -1", "--seed"),
            ("--x86 0 --arm 0", "--x86"),
            ("--functions 0", "--functions"),
            ("--minutes 0", "--minutes"),
            ("--minutes 18446744073709551615", "--minutes"),
            ("--minutes 307445734562", "--minutes"),
            ("--functions 0 --minutes 0", "--functions"),
        ] {
            let error = parse(line).expect_err(line);
            assert!(error.contains(flag), "{line}: {error}");
        }
    }

    #[test]
    fn the_smallest_scenario_is_accepted() {
        let scale = parse("--functions 1 --minutes 1 --x86 0 --arm 1").unwrap();
        assert_eq!((scale.functions, scale.minutes), (1, 1));
    }

    #[test]
    fn other_flags_fall_through_untouched() {
        let mut scale = cli_scale();
        let mut args = ["3".to_string()].into_iter();
        assert_eq!(scale_flag(&mut scale, "--shards", &mut args), Ok(false));
        assert_eq!(
            args.next().as_deref(),
            Some("3"),
            "the value stays for the caller"
        );
        assert_eq!(scale, cli_scale());
    }
}
