//! The paper's re-invocation period estimator `P_est`.

use std::collections::VecDeque;

use cc_types::{SimDuration, SimTime};

/// Estimates a function's next re-invocation gap by blending **local**
/// (recent) and **global** (long-run) inter-arrival statistics:
///
/// ```text
/// w     = |L_m − G_m| / max(L_m, G_m)
/// P_est = w · (L_m + L_s) + (1 − w) · (G_m + G_s)
/// ```
///
/// where `L_m`/`L_s` are the mean/standard deviation of the last `n_l`
/// gaps (10 in the paper) and `G_m`/`G_s` of all gaps since the last
/// reset. The more the local behaviour diverges from the global pattern,
/// the more weight the local window gets — this is what lets CodeCrunch
/// track functions whose period drifts. Global statistics reset every
/// 1000 invocations, per the paper; the reset is aligned to *recorded
/// gaps* (the gap-less first arrival does not count, and the boundary gap
/// completes the old window rather than leaking into the new one).
///
/// `P_est` deliberately over-estimates by one standard deviation on each
/// term: the paper found exactly one σ optimal ("considering more than one
/// standard deviation slightly deteriorates the results").
///
/// # Example
///
/// ```
/// use cc_types::{SimDuration, SimTime};
/// use codecrunch::PestEstimator;
///
/// let mut est = PestEstimator::new();
/// let mut t = SimTime::ZERO;
/// for _ in 0..12 {
///     est.record(t);
///     t += SimDuration::from_mins(5);
/// }
/// // Perfectly periodic: P_est equals the period (σ = 0, L_m = G_m).
/// assert_eq!(est.estimate(), Some(SimDuration::from_mins(5)));
/// ```
#[derive(Debug, Clone)]
pub struct PestEstimator {
    /// Recent gaps, bounded at `local_window`.
    local: VecDeque<f64>,
    local_window: usize,
    /// Global accumulators (seconds).
    global_count: u64,
    global_sum: f64,
    global_sum_sq: f64,
    last_arrival: Option<SimTime>,
    /// [`PestEstimator::estimate`]'s value, derived at the end of every
    /// [`PestEstimator::record`] — the only method that changes the
    /// state it is a function of — so reading it costs nothing on the
    /// interval tick.
    estimate: Option<SimDuration>,
}

/// The paper's local window: the last 10 invocations.
pub const DEFAULT_LOCAL_WINDOW: usize = 10;

/// The paper resets global statistics every 1000 invocations.
pub const GLOBAL_RESET_EVERY: u64 = 1000;

impl PestEstimator {
    /// Creates an estimator with the paper's parameters.
    pub fn new() -> PestEstimator {
        PestEstimator::with_local_window(DEFAULT_LOCAL_WINDOW)
    }

    /// Creates an estimator with a custom local window (the paper sweeps
    /// 2..=100 and reports <2.6% sensitivity).
    ///
    /// # Panics
    ///
    /// Panics if `local_window` is zero.
    pub fn with_local_window(local_window: usize) -> PestEstimator {
        assert!(local_window > 0, "local window must be non-empty");
        PestEstimator {
            local: VecDeque::with_capacity(local_window),
            local_window,
            global_count: 0,
            global_sum: 0.0,
            global_sum_sq: 0.0,
            last_arrival: None,
            estimate: None,
        }
    }

    /// Records an invocation arrival.
    ///
    /// The global window is reset lazily, aligned to *recorded gaps*: once
    /// it holds `GLOBAL_RESET_EVERY` (1000) gaps, the next gap clears it and
    /// becomes the first entry of the fresh window. The gap-less first
    /// arrival never counts toward the threshold, and the boundary gap
    /// always lands in the window that was open when it was observed.
    pub fn record(&mut self, now: SimTime) {
        if let Some(last) = self.last_arrival {
            if self.global_count >= GLOBAL_RESET_EVERY {
                self.global_count = 0;
                self.global_sum = 0.0;
                self.global_sum_sq = 0.0;
            }
            let gap = now.saturating_since(last).as_secs_f64();
            if self.local.len() == self.local_window {
                self.local.pop_front();
            }
            self.local.push_back(gap);
            self.global_count += 1;
            self.global_sum += gap;
            self.global_sum_sq += gap * gap;
        }
        self.last_arrival = Some(now);
        self.estimate = self.compute_estimate();
    }

    /// The blended `P_est`, or `None` before two invocations.
    pub fn estimate(&self) -> Option<SimDuration> {
        self.estimate
    }

    /// The blended `P_est` of the current state, computed from scratch.
    fn compute_estimate(&self) -> Option<SimDuration> {
        if self.local.is_empty() || self.global_count == 0 {
            return None;
        }
        let l_m = self.local.iter().sum::<f64>() / self.local.len() as f64;
        let l_var = self
            .local
            .iter()
            .map(|g| (g - l_m) * (g - l_m))
            .sum::<f64>()
            / self.local.len() as f64;
        let l_s = l_var.sqrt();

        let g_m = self.global_sum / self.global_count as f64;
        let g_var = (self.global_sum_sq / self.global_count as f64 - g_m * g_m).max(0.0);
        let g_s = g_var.sqrt();

        let denom = l_m.max(g_m);
        let w = if denom > 0.0 {
            (l_m - g_m).abs() / denom
        } else {
            0.0
        };
        let pest = w * (l_m + l_s) + (1.0 - w) * (g_m + g_s);
        Some(SimDuration::from_secs_f64(pest))
    }

    /// Time of the most recent recorded arrival.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    /// Number of gaps currently in the local window.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Number of gaps in the current global window (resets every
    /// `GLOBAL_RESET_EVERY` (1000) recorded gaps).
    pub fn global_len(&self) -> u64 {
        self.global_count
    }
}

impl Default for PestEstimator {
    fn default() -> Self {
        PestEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(mins: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(mins)
    }

    #[test]
    fn no_estimate_before_two_arrivals() {
        let mut est = PestEstimator::new();
        assert_eq!(est.estimate(), None);
        est.record(at(0));
        assert_eq!(est.estimate(), None);
        est.record(at(5));
        assert!(est.estimate().is_some());
    }

    #[test]
    fn periodic_signal_estimates_the_period() {
        let mut est = PestEstimator::new();
        for i in 0..20 {
            est.record(at(i * 3));
        }
        assert_eq!(est.estimate(), Some(SimDuration::from_mins(3)));
    }

    #[test]
    fn local_shift_pulls_the_estimate() {
        let mut est = PestEstimator::new();
        // Long global history at 10-minute gaps, then the function speeds
        // up to 2-minute gaps: the estimate must move well below 10.
        let mut t = 0;
        for _ in 0..50 {
            est.record(at(t));
            t += 10;
        }
        for _ in 0..10 {
            est.record(at(t));
            t += 2;
        }
        let pest = est.estimate().unwrap().as_mins_f64();
        assert!(pest < 8.0, "P_est {pest} should track the local speed-up");
    }

    #[test]
    fn variance_inflates_estimate() {
        let mut regular = PestEstimator::new();
        let mut jittery = PestEstimator::new();
        for i in 0..30u64 {
            regular.record(at(i * 6));
        }
        let mut t = 0u64;
        for i in 0..30u64 {
            t += if i % 2 == 0 { 2 } else { 10 }; // same mean of 6
            jittery.record(at(t));
        }
        let r = regular.estimate().unwrap();
        let j = jittery.estimate().unwrap();
        assert!(j > r, "jittery {j} should exceed regular {r}");
    }

    #[test]
    fn global_resets_after_threshold() {
        let mut est = PestEstimator::new();
        for i in 0..(GLOBAL_RESET_EVERY + 10) {
            est.record(at(i * 2));
        }
        // Still estimating after the reset.
        assert!(est.estimate().is_some());
        assert!(est.local_len() <= DEFAULT_LOCAL_WINDOW);
    }

    /// Regression for the reset off-by-one: the gap-less first arrival
    /// used to count toward `GLOBAL_RESET_EVERY`, and the reset fired
    /// *before* the boundary gap was recorded, dropping it into the
    /// post-reset window. The reset is now aligned to recorded gaps: the
    /// window fills to exactly `GLOBAL_RESET_EVERY` gaps (boundary gap
    /// included), and the *next* gap opens the fresh window.
    #[test]
    fn global_reset_is_aligned_to_recorded_gaps() {
        let mut est = PestEstimator::new();
        est.record(at(0));
        assert_eq!(est.global_len(), 0, "first arrival records no gap");
        for i in 1..=GLOBAL_RESET_EVERY {
            est.record(at(i * 2));
        }
        assert_eq!(
            est.global_len(),
            GLOBAL_RESET_EVERY,
            "window immediately before reset holds the full 1000 gaps"
        );
        est.record(at((GLOBAL_RESET_EVERY + 1) * 2));
        assert_eq!(
            est.global_len(),
            1,
            "window immediately after reset holds only the fresh gap"
        );
        // The estimator never goes dark across the reset.
        assert!(est.estimate().is_some());
    }

    #[test]
    fn window_sensitivity_is_mild_on_periodic_input() {
        // The paper's claim at small scale: window size barely matters for
        // a periodic function.
        let build = |window| {
            let mut est = PestEstimator::with_local_window(window);
            for i in 0..120 {
                est.record(at(i * 4));
            }
            est.estimate().unwrap().as_mins_f64()
        };
        let p2 = build(2);
        let p100 = build(100);
        assert!((p2 - p100).abs() / p100 < 0.026);
    }

    #[test]
    #[should_panic(expected = "local window must be non-empty")]
    fn rejects_zero_window() {
        let _ = PestEstimator::with_local_window(0);
    }

    /// The blended estimate computed from the whole gap history alone:
    /// the local window is the last `window` gaps, and the global
    /// accumulators are in-order sums over the gaps since the last reset.
    fn reference_estimate(gaps: &[f64], window: usize) -> Option<SimDuration> {
        if gaps.is_empty() {
            return None;
        }
        let local = &gaps[gaps.len().saturating_sub(window)..];
        let reset = GLOBAL_RESET_EVERY as usize;
        let open = &gaps[(gaps.len() - 1) / reset * reset..];
        let global_count = open.len() as u64;
        let global_sum = open.iter().fold(0.0, |acc, g| acc + g);
        let global_sum_sq = open.iter().fold(0.0, |acc, g| acc + g * g);

        let l_m = local.iter().sum::<f64>() / local.len() as f64;
        let l_var = local.iter().map(|g| (g - l_m) * (g - l_m)).sum::<f64>() / local.len() as f64;
        let l_s = l_var.sqrt();

        let g_m = global_sum / global_count as f64;
        let g_var = (global_sum_sq / global_count as f64 - g_m * g_m).max(0.0);
        let g_s = g_var.sqrt();

        let denom = l_m.max(g_m);
        let w = if denom > 0.0 {
            (l_m - g_m).abs() / denom
        } else {
            0.0
        };
        let pest = w * (l_m + l_s) + (1.0 - w) * (g_m + g_s);
        Some(SimDuration::from_secs_f64(pest))
    }

    // The stored estimate has, after every `record`, the very bits a
    // from-scratch evaluation of the history gives: gaps of zero and gaps
    // across six orders of magnitude (`digit × 10^exponent` µs, digit 0 a
    // zero gap), windows 1–100, and histories long enough (up to 2 500
    // gaps) to reset the global window.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stored_estimate_matches_a_from_scratch_reference(
            window in 1usize..=100,
            steps in prop::collection::vec((0u64..10, 0u32..6), 1..=2_500),
        ) {
            let mut est = PestEstimator::with_local_window(window);
            let mut gaps = Vec::with_capacity(steps.len());
            let mut t = SimTime::ZERO;
            est.record(t);
            prop_assert_eq!(est.estimate(), None);
            for &(digit, exponent) in &steps {
                let gap = SimDuration::from_micros(digit * 10u64.pow(exponent));
                t += gap;
                gaps.push(gap.as_secs_f64());
                est.record(t);
                prop_assert_eq!(est.estimate(), reference_estimate(&gaps, window));
            }
            prop_assert!(est.global_len() <= GLOBAL_RESET_EVERY);
        }
    }
}
