//! Shared fixtures for the Criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cc_compress::CompressionModel;
use cc_sim::ClusterConfig;
use cc_trace::{StreamingTrace, StreamingTraceBuilder, SyntheticTrace, Trace};
use cc_types::SimDuration;
use cc_workload::{Catalog, Workload};

/// A small but non-trivial benchmark scenario: enough functions and
/// invocations that policy differences register, small enough that a
/// Criterion iteration stays in the tens of milliseconds.
pub struct BenchScenario {
    /// The trace.
    pub trace: Trace,
    /// The resolved workload.
    pub workload: Workload,
    /// The cluster configuration.
    pub config: ClusterConfig,
}

impl BenchScenario {
    /// Builds the standard benchmark scenario.
    pub fn new() -> BenchScenario {
        let trace = SyntheticTrace::builder()
            .functions(40)
            .duration(SimDuration::from_mins(60))
            .seed(11)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        BenchScenario {
            trace,
            workload,
            config: ClusterConfig::small(2, 2),
        }
    }
}

impl BenchScenario {
    /// An eviction-bound scenario: 2000 functions over 30 minutes on a
    /// two-node cluster with 80% of each node's memory open to warm
    /// instances. Under fixed keep-alive each node holds about 60
    /// residents at a tick, and 40 316 invocations cause 34 261 evictions
    /// (`make_room`).
    pub fn capped() -> BenchScenario {
        let trace = SyntheticTrace::builder()
            .functions(2000)
            .duration(SimDuration::from_mins(30))
            .seed(11)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        BenchScenario {
            trace,
            workload,
            config: ClusterConfig::small(1, 1).with_warm_memory_fraction(0.8),
        }
    }

    /// The hot-path stress scenario: 10 000 functions on a 124-node
    /// cluster (the paper's 13+18 topology scaled 4×) with a warm-memory
    /// cap tight enough that demand always exceeds it, so the pool holds
    /// thousands of instances and eviction (`make_room`) fires constantly.
    /// This is the scale at which per-arrival sorts, per-cold-start node
    /// sorts, and cluster-wide eviction scans dominate; the indexing
    /// refactor targets exactly this.
    pub fn large() -> BenchScenario {
        let trace = SyntheticTrace::builder()
            .functions(10_000)
            .duration(SimDuration::from_mins(20))
            .seed(12)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        BenchScenario {
            trace,
            workload,
            config: ClusterConfig::small(52, 72).with_warm_memory_fraction(0.4),
        }
    }
}

impl Default for BenchScenario {
    fn default() -> Self {
        BenchScenario::new()
    }
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
