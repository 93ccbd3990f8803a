//! Output of one simulation run.

use cc_metrics::ServiceStats;
use cc_obs::IntervalSample;
use cc_types::{Arch, Cost, Fnv1a, ServiceRecord, StartKind};

// The canonical byte digest now lives in `cc_types::hash` so the replay
// layer (which must not depend on cc-sim) can share it; re-exported here
// because this crate's API established the name.
pub use cc_types::fnv1a;

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Aggregated service-time statistics.
    pub stats: ServiceStats,
    /// Raw per-invocation records (for CDFs and custom analyses).
    pub records: Vec<ServiceRecord>,
    /// Total keep-alive expenditure (reservations minus refunds).
    pub keep_alive_spend: Cost,
    /// The engine's sample at each interval tick, in tick order (`index`
    /// `k` was taken at `k · interval`): keep-alive spend since the previous
    /// tick, warm and compressed pool sizes, compression events since the
    /// previous tick (the paper's Fig. 11 signal), core utilization and
    /// queue depth. The same values [`cc_obs::Event::IntervalSampled`]
    /// carries.
    pub intervals: Vec<IntervalSample>,
    /// Times an instance was stored compressed on entering the pool.
    pub compression_events: u64,
    /// Warm instances dropped to make room for others.
    pub evictions: u64,
    /// Pre-warm commands dropped for lack of capacity.
    pub dropped_prewarms: u64,
    /// Invocations the arrival source delivered for a function outside the
    /// workload: skipped at the engine's source boundary, never simulated.
    /// Kept out of [`SimReport::digest`], which covers what was simulated.
    pub rejected_arrivals: u64,
    /// Invocations the arrival source delivered earlier than the one it
    /// delivered before: skipped at the engine's source boundary like
    /// [`SimReport::rejected_arrivals`], and likewise kept out of
    /// [`SimReport::digest`].
    pub out_of_order_arrivals: u64,
    /// Invocations the arrival source delivered later than its own
    /// horizon: skipped at the engine's source boundary like
    /// [`SimReport::rejected_arrivals`], and likewise kept out of
    /// [`SimReport::digest`].
    pub past_horizon_arrivals: u64,
    /// Estimated wall-clock time spent inside policy callbacks (decision
    /// overhead). `on_interval` and ranked evictions are timed on every
    /// call; the per-invocation callbacks (`on_arrival`, `place`,
    /// `on_record`, `on_completion`) on one call in 16 of each kind, each
    /// timed call counting 16 times, because reading the clock around
    /// every call would cost more than many of the calls.
    pub decision_time: std::time::Duration,
}

impl SimReport {
    /// FNV-1a digest over a canonical byte encoding of everything the
    /// simulator measures (wall-clock `decision_time` excluded — it is the
    /// one nondeterministic field — and so are `rejected_arrivals`,
    /// `out_of_order_arrivals` and `past_horizon_arrivals`, which count
    /// input the simulation never saw).
    ///
    /// This is the workspace's equality oracle: the golden-determinism
    /// tests pin per-policy constants to it, and `simbench --shards N`
    /// compares sharded digests against serial ones to prove the parallel
    /// driver is behavior-preserving. The encoding is load-bearing — any
    /// change invalidates every recorded golden constant, so change it
    /// only together with the constants and an explanation.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.policy.as_bytes());
        h.u64(self.records.len() as u64);
        for r in &self.records {
            h.u64(r.function.index() as u64);
            h.u64(r.arrival.as_micros());
            h.u64(r.wait.as_micros());
            h.u64(r.start_penalty.as_micros());
            h.u64(r.execution.as_micros());
            h.u64(match r.kind {
                StartKind::WarmUncompressed => 0,
                StartKind::WarmCompressed => 1,
                StartKind::Cold => 2,
            });
            h.u64(match r.arch {
                Arch::X86 => 0,
                Arch::Arm => 1,
            });
        }
        h.u64(self.keep_alive_spend.as_picodollars());
        h.u64(self.evictions);
        h.u64(self.dropped_prewarms);
        h.u64(self.compression_events);
        // One column at a time, each as its length then its values: the
        // encoding the golden digest constants pin.
        let columns: [fn(&IntervalSample) -> f64; 5] = [
            |s| s.spend_delta_dollars,
            |s| s.warm_pool as f64,
            |s| s.compressed as f64,
            |s| s.compression_events_delta as f64,
            |s| s.utilization,
        ];
        for column in columns {
            h.u64(self.intervals.len() as u64);
            for sample in &self.intervals {
                h.f64(column(sample));
            }
        }
        h.f64(self.stats.mean_service_time_secs());
        h.f64(self.stats.warm_fraction());
        h.finish()
    }

    /// Mean service time in seconds — the paper's headline number.
    /// `0.0` (never NaN) for a zero-invocation run.
    pub fn mean_service_time_secs(&self) -> f64 {
        self.stats.mean_service_time_secs()
    }

    /// Warm-start fraction over the whole run.
    /// `0.0` (never NaN) for a zero-invocation run.
    pub fn warm_fraction(&self) -> f64 {
        self.stats.warm_fraction()
    }
}
