//! Aggregation of simulator service records into the paper's figures of
//! merit.

use cc_types::{ServiceRecord, SimDuration, StartKind};

use crate::TimeSeries;

/// Per-[`StartKind`] service-time totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct StartBreakdown {
    /// Number of invocations started this way.
    pub count: u64,
    /// Sum of their service times (seconds), added in record order.
    pub service_secs: f64,
}

impl StartBreakdown {
    /// Mean service time (seconds) of invocations started this way, or
    /// `0.0` if there were none.
    pub fn mean_service_secs(&self) -> f64 {
        mean(self.service_secs, self.count)
    }
}

fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// The complete figure-of-merit bundle the paper's evaluation reports for
/// one simulation run.
///
/// Feed it every [`ServiceRecord`] the simulator emits, then read off mean
/// service time, warm-start fraction (overall and per interval) and
/// per-start-kind breakdowns. It keeps counts and sums, never the samples:
/// its memory grows with the number of intervals, not of invocations.
/// Distributions (the service-time CDF) come from the run's records.
///
/// # Example
///
/// ```
/// use cc_metrics::ServiceStats;
/// use cc_types::{Arch, FunctionId, ServiceRecord, SimDuration, SimTime, StartKind};
///
/// let mut stats = ServiceStats::new(SimDuration::from_mins(1));
/// stats.observe(&ServiceRecord {
///     function: FunctionId::new(0),
///     arrival: SimTime::ZERO,
///     wait: SimDuration::ZERO,
///     start_penalty: SimDuration::from_secs(1),
///     execution: SimDuration::from_secs(2),
///     kind: StartKind::Cold,
///     arch: Arch::X86,
/// });
/// assert_eq!(stats.mean_service_time_secs(), 3.0);
/// assert_eq!(stats.warm_fraction(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceStats {
    service_secs: f64,
    warm_uncompressed: StartBreakdown,
    warm_compressed: StartBreakdown,
    cold: StartBreakdown,
    warm_per_interval: TimeSeries,
    invocations_per_interval: TimeSeries,
    service_per_interval: TimeSeries,
}

impl ServiceStats {
    /// Creates an empty aggregator bucketing time series at `interval`.
    pub fn new(interval: SimDuration) -> Self {
        ServiceStats {
            service_secs: 0.0,
            warm_uncompressed: StartBreakdown::default(),
            warm_compressed: StartBreakdown::default(),
            cold: StartBreakdown::default(),
            warm_per_interval: TimeSeries::new(interval),
            invocations_per_interval: TimeSeries::new(interval),
            service_per_interval: TimeSeries::new(interval),
        }
    }

    /// Incorporates one started invocation.
    pub fn observe(&mut self, record: &ServiceRecord) {
        let service_secs = record.service_time().as_secs_f64();
        self.service_secs += service_secs;
        let bucket = match record.kind {
            StartKind::WarmUncompressed => &mut self.warm_uncompressed,
            StartKind::WarmCompressed => &mut self.warm_compressed,
            StartKind::Cold => &mut self.cold,
        };
        bucket.service_secs += service_secs;
        bucket.count += 1;

        self.invocations_per_interval.record(record.arrival, 1.0);
        self.service_per_interval
            .record(record.arrival, service_secs);
        if record.kind.is_warm() {
            self.warm_per_interval.record(record.arrival, 1.0);
        }
    }

    /// Total number of observed invocations.
    pub fn invocations(&self) -> u64 {
        self.warm_uncompressed.count + self.warm_compressed.count + self.cold.count
    }

    /// Mean end-to-end service time in seconds (the paper's headline
    /// metric), or `0.0` before any invocation.
    pub fn mean_service_time_secs(&self) -> f64 {
        mean(self.service_secs, self.invocations())
    }

    /// Fraction of invocations that received any warm start, in `[0, 1]`.
    pub fn warm_fraction(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            return 0.0;
        }
        (self.warm_uncompressed.count + self.warm_compressed.count) as f64 / n as f64
    }

    /// Fraction of invocations that suffered a cold start, in `[0, 1]`.
    pub fn cold_fraction(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            return 0.0;
        }
        self.cold.count as f64 / n as f64
    }

    /// Per-start-kind breakdown.
    pub fn breakdown(&self, kind: StartKind) -> &StartBreakdown {
        match kind {
            StartKind::WarmUncompressed => &self.warm_uncompressed,
            StartKind::WarmCompressed => &self.warm_compressed,
            StartKind::Cold => &self.cold,
        }
    }

    /// Warm-start fraction per interval — Figs. 1(a-b), 10(a), 11.
    pub fn warm_fraction_series(&self) -> Vec<f64> {
        self.warm_per_interval
            .ratio_of_sums(&self.invocations_per_interval)
    }

    /// Invocations per interval, bucketed by arrival (load curve).
    pub fn load_series(&self) -> &TimeSeries {
        &self.invocations_per_interval
    }

    /// Warm starts per interval, bucketed by arrival.
    pub fn warm_series(&self) -> &TimeSeries {
        &self.warm_per_interval
    }

    /// Mean service time per interval — Fig. 15.
    pub fn service_time_series(&self) -> Vec<f64> {
        self.service_per_interval.means()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{Arch, FunctionId, SimTime};

    fn rec(kind: StartKind, at_min: u64, exec_secs: u64) -> ServiceRecord {
        ServiceRecord {
            function: FunctionId::new(0),
            arrival: SimTime::ZERO + SimDuration::from_mins(at_min),
            wait: SimDuration::ZERO,
            start_penalty: match kind {
                StartKind::WarmUncompressed => SimDuration::ZERO,
                StartKind::WarmCompressed => SimDuration::from_millis(370),
                StartKind::Cold => SimDuration::from_secs(3),
            },
            execution: SimDuration::from_secs(exec_secs),
            kind,
            arch: Arch::X86,
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut stats = ServiceStats::new(SimDuration::from_mins(1));
        stats.observe(&rec(StartKind::Cold, 0, 1));
        stats.observe(&rec(StartKind::WarmUncompressed, 0, 1));
        stats.observe(&rec(StartKind::WarmCompressed, 0, 1));
        stats.observe(&rec(StartKind::WarmUncompressed, 1, 1));
        assert_eq!(stats.invocations(), 4);
        assert!((stats.warm_fraction() + stats.cold_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(stats.warm_fraction(), 0.75);
    }

    #[test]
    fn per_kind_breakdown_counts() {
        let mut stats = ServiceStats::new(SimDuration::from_mins(1));
        stats.observe(&rec(StartKind::Cold, 0, 2));
        stats.observe(&rec(StartKind::Cold, 0, 2));
        assert_eq!(stats.breakdown(StartKind::Cold).count, 2);
        assert_eq!(stats.breakdown(StartKind::WarmCompressed).count, 0);
        // Cold service = 3s penalty + 2s exec.
        assert_eq!(stats.breakdown(StartKind::Cold).mean_service_secs(), 5.0);
        assert_eq!(
            stats
                .breakdown(StartKind::WarmCompressed)
                .mean_service_secs(),
            0.0
        );
    }

    #[test]
    fn warm_series_tracks_intervals() {
        let mut stats = ServiceStats::new(SimDuration::from_mins(1));
        stats.observe(&rec(StartKind::Cold, 0, 1));
        stats.observe(&rec(StartKind::WarmUncompressed, 0, 1));
        stats.observe(&rec(StartKind::WarmUncompressed, 1, 1));
        let series = stats.warm_fraction_series();
        assert_eq!(series, vec![0.5, 1.0]);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = ServiceStats::new(SimDuration::from_mins(1));
        assert_eq!(stats.invocations(), 0);
        assert_eq!(stats.mean_service_time_secs(), 0.0);
        assert_eq!(stats.warm_fraction(), 0.0);
        assert_eq!(stats.cold_fraction(), 0.0);
    }

    #[test]
    fn running_mean_is_the_summary_mean_bit_for_bit() {
        // Sums are added in record order, as `Summary` adds its samples,
        // so the mean is the same `f64`.
        let mut stats = ServiceStats::new(SimDuration::from_mins(1));
        let mut all = crate::Summary::new();
        let mut cold = crate::Summary::new();
        for i in 0..1000u64 {
            let kind = if i % 3 == 0 {
                StartKind::Cold
            } else {
                StartKind::WarmCompressed
            };
            let mut r = rec(kind, i % 7, 0);
            r.execution = SimDuration::from_micros(i * 1_234_567 % 9_999_991);
            stats.observe(&r);
            let secs = r.service_time().as_secs_f64();
            all.record(secs);
            if kind == StartKind::Cold {
                cold.record(secs);
            }
        }
        assert_eq!(
            stats.mean_service_time_secs().to_bits(),
            all.mean().to_bits()
        );
        let by_kind = stats.breakdown(StartKind::Cold).mean_service_secs();
        assert_eq!(by_kind.to_bits(), cold.mean().to_bits());
    }
}
