//! The standard telemetry aggregate: one sink that turns the event stream
//! into counters, histograms, per-minute series, and a printable report.

use cc_metrics::{P2Quantile, ServiceStats, Summary, TimeSeries};
use cc_types::{Fnv1a, ServiceRecord, SimDuration, SimTime, StartKind};

use crate::event::EventSink;
use crate::instruments::{Counter, Gauge, LogHistogram};
use crate::schema::{Event, IntervalSample, OptimizerRound, ReleaseReason};

/// Everything the standard instruments accumulate from one run.
///
/// Implements [`EventSink`], so it can observe a run directly or sit on
/// one side of a [`Tee`](crate::Tee) next to an exporter. After (or
/// during) the run, read the per-interval table ([`Telemetry::interval_rows`])
/// and the final report ([`Telemetry::report`]).
///
/// Starts are folded through a [`ServiceStats`], the aggregate the engine
/// keeps for its report, fed the [`ServiceRecord`] each
/// [`Event::ExecutionStarted`] describes; the interval samples are the
/// engine's own [`IntervalSample`]s.
#[derive(Debug)]
pub struct Telemetry {
    interval: SimDuration,

    // Counters.
    arrivals: Counter,
    queued: Counter,
    admissions: Counter,
    compressed_admissions: Counter,
    releases_reused: Counter,
    releases_evicted: Counter,
    releases_expired: Counter,
    compressions_finished: Counter,
    prewarms_dropped: Counter,
    budget_debits: Counter,
    budget_credits: Counter,

    // Budget totals (picodollars).
    debit_requested_pd: u128,
    debit_granted_pd: u128,
    credit_pd: u128,

    // Gauges.
    pool: Gauge,
    queue_depth_peak: u64,

    // Distributions.
    wait_us: LogHistogram,
    penalty_us: LogHistogram,
    service_p50: P2Quantile,
    service_p95: P2Quantile,
    service_p99: P2Quantile,
    objective: Summary,

    // Starts by kind, and per minute by arrival.
    stats: ServiceStats,

    // Per-minute series.
    debit_per_min: TimeSeries,
    credit_per_min: TimeSeries,
    compress_per_min: TimeSeries,
    objective_per_min: TimeSeries,

    // Optimizer progress.
    optimizer_rounds: Counter,
    accepted_moves: Counter,
    optimizer_evaluations: Counter,
    last_objective: Option<f64>,

    // Interval table state.
    samples: Vec<(SimTime, IntervalSample)>,
}

impl Telemetry {
    /// Creates an empty aggregate bucketing series at `interval`
    /// (use the cluster's optimization interval).
    pub fn new(interval: SimDuration) -> Telemetry {
        Telemetry {
            interval,
            arrivals: Counter::default(),
            queued: Counter::default(),
            admissions: Counter::default(),
            compressed_admissions: Counter::default(),
            releases_reused: Counter::default(),
            releases_evicted: Counter::default(),
            releases_expired: Counter::default(),
            compressions_finished: Counter::default(),
            prewarms_dropped: Counter::default(),
            budget_debits: Counter::default(),
            budget_credits: Counter::default(),
            debit_requested_pd: 0,
            debit_granted_pd: 0,
            credit_pd: 0,
            pool: Gauge::default(),
            queue_depth_peak: 0,
            wait_us: LogHistogram::new(),
            penalty_us: LogHistogram::new(),
            service_p50: P2Quantile::new(0.5),
            service_p95: P2Quantile::new(0.95),
            service_p99: P2Quantile::new(0.99),
            objective: Summary::new(),
            stats: ServiceStats::new(interval),
            debit_per_min: TimeSeries::new(interval),
            credit_per_min: TimeSeries::new(interval),
            compress_per_min: TimeSeries::new(interval),
            objective_per_min: TimeSeries::new(interval),
            optimizer_rounds: Counter::default(),
            accepted_moves: Counter::default(),
            optimizer_evaluations: Counter::default(),
            last_objective: None,
            samples: Vec::new(),
        }
    }

    /// The bucketing interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Executions started, by kind `(cold, warm_uncompressed, warm_compressed)`.
    pub fn starts(&self) -> (u64, u64, u64) {
        let count = |kind| self.stats.breakdown(kind).count;
        (
            count(StartKind::Cold),
            count(StartKind::WarmUncompressed),
            count(StartKind::WarmCompressed),
        )
    }

    /// Warm-start fraction over the run so far (0.0 when nothing started).
    pub fn warm_fraction(&self) -> f64 {
        self.stats.warm_fraction()
    }

    /// Net budget spend in dollars (debits granted minus credits).
    pub fn net_spend_dollars(&self) -> f64 {
        (self.debit_granted_pd as f64 - self.credit_pd as f64) / 1e12
    }

    /// The per-interval samples seen so far.
    pub fn samples(&self) -> &[(SimTime, IntervalSample)] {
        &self.samples
    }

    /// Column header matching [`Telemetry::interval_rows`].
    pub fn interval_header() -> String {
        format!(
            "{:>6} {:>8} {:>6} {:>6} {:>11} {:>11} {:>9} {:>6} {:>5} {:>12}",
            "min",
            "arrivals",
            "warm%",
            "cold",
            "debit$",
            "credit$",
            "compress",
            "pool",
            "util%",
            "objective"
        )
    }

    fn row_for(&self, tick: usize) -> Option<String> {
        // The tick at time k·interval closes bucket k-1.
        let (_, sample) = self.samples.get(tick)?;
        if sample.index == 0 {
            return None;
        }
        let bucket = (sample.index - 1) as usize;
        let starts = self.stats.load_series().bucket_sum(bucket);
        let warm = self.stats.warm_series().bucket_sum(bucket);
        let warm_pct = if starts > 0.0 {
            100.0 * warm / starts
        } else {
            0.0
        };
        let objective = self
            .objective_per_min
            .bucket_mean(bucket)
            .map(|o| format!("{o:>12.4}"))
            .unwrap_or_else(|| format!("{:>12}", "-"));
        Some(format!(
            "{:>6} {:>8.0} {:>5.1}% {:>6.0} {:>11.9} {:>11.9} {:>9.0} {:>6} {:>4.0}% {objective}",
            bucket,
            starts,
            warm_pct,
            starts - warm,
            self.debit_per_min.bucket_sum(bucket),
            self.credit_per_min.bucket_sum(bucket),
            self.compress_per_min.bucket_sum(bucket),
            sample.warm_pool,
            100.0 * sample.utilization,
        ))
    }

    /// The most recently completed interval's table row (for live
    /// printing: call after each [`Event::IntervalSampled`]).
    pub fn latest_row(&self) -> Option<String> {
        self.row_for(self.samples.len().checked_sub(1)?)
    }

    /// The full per-interval table: warm fraction, budget debit/credit,
    /// compression hits, pool size, utilization, and optimizer objective
    /// per completed interval.
    pub fn interval_rows(&self) -> Vec<String> {
        (0..self.samples.len())
            .filter_map(|t| self.row_for(t))
            .collect()
    }

    /// The final multi-line telemetry report.
    pub fn report(&self) -> String {
        let (cold, wu, wc) = self.starts();
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!(
            "arrivals {}  queued {}  (peak queue depth {})",
            self.arrivals.get(),
            self.queued.get(),
            self.queue_depth_peak
        ));
        line(format!(
            "starts: cold {cold}  warm {wu}  warm-compressed {wc}  (warm fraction {:.3})",
            self.warm_fraction()
        ));
        line(format!(
            "warm pool: admissions {} ({} compressed)  released: {} reused / {} evicted / {} expired  peak {}",
            self.admissions.get(),
            self.compressed_admissions.get(),
            self.releases_reused.get(),
            self.releases_evicted.get(),
            self.releases_expired.get(),
            self.pool.peak(),
        ));
        line(format!(
            "budget: {} debits ${:.9} granted (${:.9} requested)  {} credits ${:.9}  net ${:.9}",
            self.budget_debits.get(),
            self.debit_granted_pd as f64 / 1e12,
            self.debit_requested_pd as f64 / 1e12,
            self.budget_credits.get(),
            self.credit_pd as f64 / 1e12,
            self.net_spend_dollars(),
        ));
        line(format!(
            "wait: mean {:.1}us  p50<= {}us  p99<= {}us  max {}us",
            self.wait_us.mean(),
            self.wait_us.quantile(0.5),
            self.wait_us.quantile(0.99),
            self.wait_us.max(),
        ));
        line(format!(
            "start penalty: mean {:.1}us  p99<= {}us  max {}us",
            self.penalty_us.mean(),
            self.penalty_us.quantile(0.99),
            self.penalty_us.max(),
        ));
        line(format!(
            "service time: p50 {:.3}s  p95 {:.3}s  p99 {:.3}s",
            self.service_p50.estimate().unwrap_or(0.0),
            self.service_p95.estimate().unwrap_or(0.0),
            self.service_p99.estimate().unwrap_or(0.0),
        ));
        if self.optimizer_rounds.get() > 0 {
            line(format!(
                "optimizer: {} rounds  objective mean {:.4} min {:.4}  {} accepted moves  {} evaluations",
                self.optimizer_rounds.get(),
                self.objective.mean(),
                self.objective.min().unwrap_or(0.0),
                self.accepted_moves.get(),
                self.optimizer_evaluations.get(),
            ));
        }
        if self.prewarms_dropped.get() > 0 {
            line(format!("prewarms dropped: {}", self.prewarms_dropped.get()));
        }
        out
    }

    /// A single-line JSON snapshot of the headline aggregates, suitable
    /// for appending to a JSONL stream.
    pub fn snapshot_line(&self) -> String {
        let (cold, wu, wc) = self.starts();
        format!(
            concat!(
                "{{\"type\":\"snapshot\",\"arrivals\":{},\"queued\":{},\"cold\":{},",
                "\"warm_uncompressed\":{},\"warm_compressed\":{},\"warm_fraction\":{},",
                "\"admissions\":{},\"evictions\":{},\"expiries\":{},\"pool_peak\":{},",
                "\"debit_dollars\":{},\"credit_dollars\":{},\"net_spend_dollars\":{},",
                "\"opt_rounds\":{},\"opt_objective_mean\":{},\"accepted_moves\":{}}}"
            ),
            self.arrivals.get(),
            self.queued.get(),
            cold,
            wu,
            wc,
            self.warm_fraction(),
            self.admissions.get(),
            self.releases_evicted.get(),
            self.releases_expired.get(),
            self.pool.peak(),
            self.debit_granted_pd as f64 / 1e12,
            self.credit_pd as f64 / 1e12,
            self.net_spend_dollars(),
            self.optimizer_rounds.get(),
            self.objective.mean(),
            self.accepted_moves.get(),
        )
    }

    /// FNV-1a digest over a canonical encoding of every field this
    /// aggregate holds — counters, budget totals, gauges, histogram
    /// buckets, quantile estimates, all six time series, optimizer
    /// progress, and the raw per-interval samples.
    ///
    /// Two `Telemetry` values digest equal iff they observed equivalent
    /// event streams, which is the equality oracle the replay layer's
    /// differential tests rest on: a `Telemetry` reconstructed from a
    /// decoded JSONL log must digest identically to the live one.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.interval.as_micros());
        let (cold, warm_uncompressed, warm_compressed) = self.starts();
        for count in [
            self.arrivals.get(),
            self.queued.get(),
            cold,
            warm_uncompressed,
            warm_compressed,
            self.admissions.get(),
            self.compressed_admissions.get(),
            self.releases_reused.get(),
            self.releases_evicted.get(),
            self.releases_expired.get(),
            self.compressions_finished.get(),
            self.prewarms_dropped.get(),
            self.budget_debits.get(),
            self.budget_credits.get(),
            self.optimizer_rounds.get(),
            self.accepted_moves.get(),
            self.optimizer_evaluations.get(),
        ] {
            h.u64(count);
        }
        h.u128(self.debit_requested_pd);
        h.u128(self.debit_granted_pd);
        h.u128(self.credit_pd);
        h.i64(self.pool.get());
        h.i64(self.pool.peak());
        h.u64(self.queue_depth_peak);
        for histogram in [&self.wait_us, &self.penalty_us] {
            h.u64(histogram.count());
            h.u64(histogram.max());
            h.u128(histogram.sum());
            for (lo, hi, count) in histogram.nonzero_buckets() {
                h.u64(lo);
                h.u64(hi);
                h.u64(count);
            }
        }
        for quantile in [&self.service_p50, &self.service_p95, &self.service_p99] {
            h.u64(quantile.count() as u64);
            h.f64(quantile.estimate().unwrap_or(f64::NEG_INFINITY));
        }
        h.u64(self.objective.count() as u64);
        h.f64(self.objective.sum());
        h.f64(self.objective.min().unwrap_or(f64::NEG_INFINITY));
        h.f64(self.objective.max().unwrap_or(f64::NEG_INFINITY));
        for series in [
            self.stats.load_series(),
            self.stats.warm_series(),
            &self.debit_per_min,
            &self.credit_per_min,
            &self.compress_per_min,
            &self.objective_per_min,
        ] {
            h.u64(series.len() as u64);
            for &sum in series.sums() {
                h.f64(sum);
            }
            for &count in series.counts() {
                h.u64(count);
            }
        }
        h.f64(self.last_objective.unwrap_or(f64::NEG_INFINITY));
        h.u64(self.samples.len() as u64);
        for (at, sample) in &self.samples {
            h.u64(at.as_micros());
            h.u64(sample.index);
            h.f64(sample.spend_delta_dollars);
            h.u64(sample.warm_pool);
            h.u64(sample.compressed);
            h.f64(sample.utilization);
            h.u64(sample.compression_events_delta);
            h.u64(sample.pending);
        }
        h.finish()
    }

    fn observe_start(&mut self, record: &ServiceRecord) {
        self.wait_us.observe(record.wait.as_micros());
        self.penalty_us.observe(record.start_penalty.as_micros());
        let service = record.service_time().as_secs_f64();
        self.service_p50.observe(service);
        self.service_p95.observe(service);
        self.service_p99.observe(service);
        self.stats.observe(record);
    }

    fn observe_round(&mut self, at: SimTime, round: &OptimizerRound) {
        self.optimizer_rounds.incr();
        self.accepted_moves.add(round.accepted_moves);
        self.optimizer_evaluations.add(round.evaluations);
        if round.objective.is_finite() {
            self.objective.record(round.objective);
            self.objective_per_min.record(at, round.objective);
            self.last_objective = Some(round.objective);
        }
    }
}

impl EventSink for Telemetry {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::Arrival { .. } => self.arrivals.incr(),
            Event::Queued { depth, .. } => {
                self.queued.incr();
                self.queue_depth_peak = self.queue_depth_peak.max(depth);
            }
            Event::ExecutionStarted { .. } => {
                if let Some(record) = event.service_record() {
                    self.observe_start(&record);
                }
            }
            Event::InstanceAdmitted { compressed, .. } => {
                self.admissions.incr();
                self.pool.add(1);
                if compressed {
                    self.compressed_admissions.incr();
                }
            }
            Event::InstanceReleased { reason, .. } => {
                self.pool.add(-1);
                match reason {
                    ReleaseReason::Reused => self.releases_reused.incr(),
                    ReleaseReason::Evicted => self.releases_evicted.incr(),
                    ReleaseReason::Expired => self.releases_expired.incr(),
                }
            }
            Event::CompressionStarted { at, .. } => {
                self.compress_per_min.record(at, 1.0);
            }
            Event::CompressionFinished { .. } => self.compressions_finished.incr(),
            Event::BudgetDebit {
                at,
                requested,
                granted,
            } => {
                self.budget_debits.incr();
                self.debit_requested_pd += u128::from(requested.as_picodollars());
                self.debit_granted_pd += u128::from(granted.as_picodollars());
                self.debit_per_min.record(at, granted.as_dollars());
            }
            Event::BudgetCredit { at, amount } => {
                self.budget_credits.incr();
                self.credit_pd += u128::from(amount.as_picodollars());
                self.credit_per_min.record(at, amount.as_dollars());
            }
            Event::PrewarmDropped { .. } => self.prewarms_dropped.incr(),
            Event::OptimizerRound { at, ref round } => self.observe_round(at, round),
            Event::IntervalSampled { at, sample } => self.samples.push((at, sample)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{Arch, Cost, FunctionId, MemoryMb, NodeId, WarmId};

    fn minute() -> SimDuration {
        SimDuration::from_mins(1)
    }

    fn at_min(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    fn start_event(at: SimTime, kind: StartKind) -> Event {
        Event::ExecutionStarted {
            at,
            function: FunctionId::new(0),
            node: NodeId::new(0),
            arch: Arch::X86,
            kind,
            wait: SimDuration::ZERO,
            start_penalty: SimDuration::from_millis(100),
            execution: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn counts_starts_and_warm_fraction() {
        let mut t = Telemetry::new(minute());
        t.record(&start_event(SimTime::ZERO, StartKind::Cold));
        t.record(&start_event(SimTime::ZERO, StartKind::WarmUncompressed));
        t.record(&start_event(SimTime::ZERO, StartKind::WarmCompressed));
        assert_eq!(t.starts(), (1, 1, 1));
        assert!((t.warm_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pool_gauge_tracks_admissions_and_releases() {
        let mut t = Telemetry::new(minute());
        let admit = Event::InstanceAdmitted {
            at: SimTime::ZERO,
            id: WarmId::new(0, 0),
            function: FunctionId::new(0),
            node: NodeId::new(0),
            arch: Arch::Arm,
            compressed: true,
            memory: MemoryMb::new(128),
            expiry: at_min(10),
            reserved: Cost::from_picodollars(100),
        };
        t.record(&admit);
        t.record(&admit);
        t.record(&Event::InstanceReleased {
            at: at_min(1),
            id: WarmId::new(0, 0),
            function: FunctionId::new(0),
            node: NodeId::new(0),
            memory: MemoryMb::new(128),
            compressed: true,
            since: SimTime::ZERO,
            reason: ReleaseReason::Reused,
        });
        assert_eq!(t.pool.get(), 1);
        assert_eq!(t.pool.peak(), 2);
    }

    #[test]
    fn budget_totals_net_out() {
        let mut t = Telemetry::new(minute());
        t.record(&Event::BudgetDebit {
            at: SimTime::ZERO,
            requested: Cost::from_picodollars(500),
            granted: Cost::from_picodollars(300),
        });
        t.record(&Event::BudgetCredit {
            at: SimTime::ZERO,
            amount: Cost::from_picodollars(100),
        });
        assert!((t.net_spend_dollars() - 200e-12).abs() < 1e-18);
    }

    #[test]
    fn interval_rows_render_completed_buckets() {
        let mut t = Telemetry::new(minute());
        t.record(&start_event(SimTime::ZERO, StartKind::Cold));
        t.record(&start_event(SimTime::ZERO, StartKind::WarmUncompressed));
        let sample = |index| Event::IntervalSampled {
            at: at_min(index),
            sample: IntervalSample {
                index,
                spend_delta_dollars: 0.0,
                warm_pool: 3,
                compressed: 1,
                utilization: 0.5,
                compression_events_delta: 0,
                pending: 0,
            },
        };
        t.record(&sample(0));
        assert!(t.latest_row().is_none(), "tick 0 closes no bucket");
        t.record(&sample(1));
        let row = t.latest_row().expect("tick 1 closes bucket 0");
        assert!(row.contains("50.0%"), "row: {row}");
        assert_eq!(t.interval_rows().len(), 1);
        assert!(!Telemetry::interval_header().is_empty());
    }

    #[test]
    fn optimizer_rounds_accumulate() {
        let mut t = Telemetry::new(minute());
        t.record(&Event::OptimizerRound {
            at: at_min(1),
            round: OptimizerRound {
                round: 0,
                subproblems: 4,
                dimensions: 24,
                objective: 12.5,
                accepted_moves: 7,
                evaluations: 100,
            },
        });
        assert_eq!(t.optimizer_rounds.get(), 1);
        assert_eq!(t.objective.mean(), 12.5);
        let report = t.report();
        assert!(report.contains("optimizer: 1 rounds"), "{report}");
        let snapshot = t.snapshot_line();
        assert!(snapshot.starts_with("{\"type\":\"snapshot\""), "{snapshot}");
        assert!(snapshot.ends_with('}'), "{snapshot}");
    }
}
