//! Profile comparison: attributes a perf regression to a phase instead of
//! "the stress replay got slower".
//!
//! Two comparison modes:
//!
//! * **absolute** (default): per-phase self-nanoseconds, right when the
//!   two profiles come from the same machine in the same session (a local
//!   before/after run).
//! * **relative** (`--relative`): per-phase *share* of wall clock
//!   (`self_ns / wall_ns`), right when the profiles come from different
//!   hosts — CI runners vs the machine that recorded the committed
//!   baseline — where absolute nanoseconds are incomparable but the shape
//!   of the time distribution is.
//!
//! In both modes a phase only regresses if it exceeds the growth
//! threshold *and* clears a minimum share of new wall clock, so phases in
//! the measurement-noise floor (a 2 µs phase tripling) cannot fail a
//! gate. Allocation bytes are compared per-phase with the same threshold
//! whenever both profiles measured them.

use std::fmt::Write as _;

use crate::phase::Phase;
use crate::profile::{fmt_bytes, fmt_ns, SelfProfile};

/// Knobs for [`diff_profiles`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Allowed growth as a ratio: 0.5 passes anything up to 1.5x the
    /// baseline, 2.0 up to 3x.
    pub threshold: f64,
    /// Compare wall-clock *shares* instead of absolute nanoseconds.
    pub relative: bool,
    /// A phase must hold at least this share of new wall clock to count
    /// as a regression (noise floor).
    pub min_share: f64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threshold: 0.5,
            relative: false,
            min_share: 0.01,
        }
    }
}

/// What a phase's metric did between baseline and new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold (or below the noise floor).
    Ok,
    /// Grew past the threshold while above the noise floor.
    Regressed,
    /// Absent in the baseline, now above the noise floor.
    New,
}

/// One phase's comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Phase under comparison.
    pub phase: Phase,
    /// Baseline self time, ns.
    pub base_self_ns: u64,
    /// New self time, ns.
    pub new_self_ns: u64,
    /// Baseline share of wall clock.
    pub base_share: f64,
    /// New share of wall clock.
    pub new_share: f64,
    /// Baseline attributed alloc bytes.
    pub base_alloc_bytes: u64,
    /// New attributed alloc bytes.
    pub new_alloc_bytes: u64,
    /// Wall (or share) verdict.
    pub wall_verdict: Verdict,
    /// Alloc-bytes verdict ([`Verdict::Ok`] when not measured in both).
    pub alloc_verdict: Verdict,
}

/// The full comparison produced by [`diff_profiles`].
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Options the comparison ran under.
    pub options: DiffOptions,
    /// Baseline wall clock, ns.
    pub base_wall_ns: u64,
    /// New wall clock, ns.
    pub new_wall_ns: u64,
    /// Per-phase rows, canonical phase order, phases present in either.
    pub rows: Vec<DiffRow>,
    /// Whether total wall clock itself regressed (absolute mode only).
    pub wall_regressed: bool,
}

impl DiffReport {
    /// Whether anything regressed (drives the nonzero exit).
    pub fn has_regressions(&self) -> bool {
        self.wall_regressed
            || self
                .rows
                .iter()
                .any(|r| r.wall_verdict != Verdict::Ok || r.alloc_verdict != Verdict::Ok)
    }

    /// The regressed phase with the largest share increase, if any — the
    /// one-line attribution `ccprof diff` prints when a profile regressed.
    pub fn top_regression(&self) -> Option<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.wall_verdict != Verdict::Ok || r.alloc_verdict != Verdict::Ok)
            .max_by(|a, b| {
                (a.new_share - a.base_share)
                    .partial_cmp(&(b.new_share - b.base_share))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Renders the human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mode = if self.options.relative {
            "relative (share of wall)"
        } else {
            "absolute (self ns)"
        };
        let _ = writeln!(
            out,
            "ccprof diff: mode {mode}, threshold {:.2}x, noise floor {:.1}% of wall",
            1.0 + self.options.threshold,
            100.0 * self.options.min_share
        );
        let _ = writeln!(
            out,
            "  wall: {} -> {}{}",
            fmt_ns(self.base_wall_ns),
            fmt_ns(self.new_wall_ns),
            if self.wall_regressed {
                "  REGRESSED"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>7} {:>7} {:>10} {:>10}  verdict",
            "phase", "base self", "new self", "base%", "new%", "base B", "new B"
        );
        for row in &self.rows {
            let verdict = match (row.wall_verdict, row.alloc_verdict) {
                (Verdict::Ok, Verdict::Ok) => "ok",
                (Verdict::New, _) => "NEW",
                (Verdict::Regressed, _) => "REGRESSED",
                (Verdict::Ok, Verdict::Regressed) => "ALLOC-REGRESSED",
                (Verdict::Ok, Verdict::New) => "ALLOC-NEW",
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>6.1}% {:>6.1}% {:>10} {:>10}  {verdict}",
                row.phase.label(),
                fmt_ns(row.base_self_ns),
                fmt_ns(row.new_self_ns),
                100.0 * row.base_share,
                100.0 * row.new_share,
                fmt_bytes(row.base_alloc_bytes),
                fmt_bytes(row.new_alloc_bytes),
            );
        }
        out
    }
}

fn share(profile: &SelfProfile, phase: Phase) -> f64 {
    profile.self_share(phase)
}

/// Compares `new` against `base` under `options`.
pub fn diff_profiles(base: &SelfProfile, new: &SelfProfile, options: DiffOptions) -> DiffReport {
    let growth_ok = |base_v: f64, new_v: f64| new_v <= base_v * (1.0 + options.threshold);
    let both_alloc = base.alloc.installed && new.alloc.installed;

    let mut rows = Vec::new();
    for phase in Phase::ALL {
        let base_row = base.row(phase);
        let new_row = new.row(phase);
        if base_row.is_none() && new_row.is_none() {
            continue;
        }
        let base_self_ns = base_row.map_or(0, |r| r.self_ns);
        let new_self_ns = new_row.map_or(0, |r| r.self_ns);
        let base_share = share(base, phase);
        let new_share = share(new, phase);
        let base_alloc_bytes = base_row.map_or(0, |r| r.alloc_bytes);
        let new_alloc_bytes = new_row.map_or(0, |r| r.alloc_bytes);

        let above_floor = new_share >= options.min_share;
        let (base_metric, new_metric) = if options.relative {
            (base_share, new_share)
        } else {
            (base_self_ns as f64, new_self_ns as f64)
        };
        let wall_verdict = if !above_floor || growth_ok(base_metric, new_metric) {
            Verdict::Ok
        } else if base_metric == 0.0 {
            Verdict::New
        } else {
            Verdict::Regressed
        };

        // Alloc bytes are host-independent, so always compared
        // absolutely; the floor is a share of total new alloc bytes.
        let alloc_floor = options.min_share * new.alloc.total_bytes as f64;
        let alloc_verdict = if !both_alloc
            || (new_alloc_bytes as f64) < alloc_floor
            || growth_ok(base_alloc_bytes as f64, new_alloc_bytes as f64)
        {
            Verdict::Ok
        } else if base_alloc_bytes == 0 {
            Verdict::New
        } else {
            Verdict::Regressed
        };

        rows.push(DiffRow {
            phase,
            base_self_ns,
            new_self_ns,
            base_share,
            new_share,
            base_alloc_bytes,
            new_alloc_bytes,
            wall_verdict,
            alloc_verdict,
        });
    }

    let wall_regressed = !options.relative
        && base.wall_ns > 0
        && !growth_ok(base.wall_ns as f64, new.wall_ns as f64);

    DiffReport {
        options,
        base_wall_ns: base.wall_ns,
        new_wall_ns: new.wall_ns,
        rows,
        wall_regressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseRow;

    fn profile(wall_ns: u64, rows: &[(Phase, u64, u64)]) -> SelfProfile {
        SelfProfile {
            label: "t".to_string(),
            wall_ns,
            phases: rows
                .iter()
                .map(|&(phase, self_ns, alloc_bytes)| PhaseRow {
                    phase,
                    count: 1,
                    total_ns: self_ns,
                    self_ns,
                    max_ns: self_ns,
                    alloc_count: u64::from(alloc_bytes > 0),
                    alloc_bytes,
                })
                .collect(),
            ..SelfProfile::default()
        }
    }

    #[test]
    fn within_threshold_passes() {
        let base = profile(1_000_000, &[(Phase::Arrival, 400_000, 0)]);
        let new = profile(1_100_000, &[(Phase::Arrival, 500_000, 0)]);
        let report = diff_profiles(&base, &new, DiffOptions::default());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn injected_regression_is_caught_and_attributed() {
        let base = profile(
            1_000_000,
            &[
                (Phase::Arrival, 400_000, 0),
                (Phase::Completion, 300_000, 0),
            ],
        );
        let new = profile(
            2_000_000,
            &[
                (Phase::Arrival, 1_400_000, 0),
                (Phase::Completion, 310_000, 0),
            ],
        );
        let report = diff_profiles(&base, &new, DiffOptions::default());
        assert!(report.has_regressions());
        assert!(report.wall_regressed, "wall doubled");
        let top = report.top_regression().expect("attributed");
        assert_eq!(top.phase, Phase::Arrival);
        assert_eq!(top.wall_verdict, Verdict::Regressed);
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn relative_mode_ignores_uniform_slowdown() {
        // Same shape, 3x slower host: absolute mode would fail, relative
        // mode must not.
        let base = profile(1_000_000, &[(Phase::Arrival, 400_000, 0)]);
        let new = profile(3_000_000, &[(Phase::Arrival, 1_200_000, 0)]);
        let relative = DiffOptions {
            relative: true,
            ..DiffOptions::default()
        };
        assert!(!diff_profiles(&base, &new, relative).has_regressions());
        assert!(diff_profiles(&base, &new, DiffOptions::default()).has_regressions());
    }

    #[test]
    fn relative_mode_catches_shape_change() {
        let base = profile(
            1_000_000,
            &[
                (Phase::Arrival, 100_000, 0),
                (Phase::Completion, 800_000, 0),
            ],
        );
        let new = profile(
            1_000_000,
            &[
                (Phase::Arrival, 600_000, 0),
                (Phase::Completion, 300_000, 0),
            ],
        );
        let relative = DiffOptions {
            relative: true,
            threshold: 2.0,
            ..DiffOptions::default()
        };
        let report = diff_profiles(&base, &new, relative);
        assert!(report.has_regressions());
        assert_eq!(report.top_regression().unwrap().phase, Phase::Arrival);
    }

    #[test]
    fn noise_floor_suppresses_tiny_phases() {
        // A 2 µs phase tripling is irrelevant at 1 ms wall.
        let base = profile(1_000_000, &[(Phase::Tick, 2_000, 0)]);
        let new = profile(1_000_000, &[(Phase::Tick, 6_000, 0)]);
        let report = diff_profiles(&base, &new, DiffOptions::default());
        assert!(!report.has_regressions());
    }

    #[test]
    fn new_phase_above_floor_is_flagged() {
        let base = profile(1_000_000, &[(Phase::Arrival, 400_000, 0)]);
        let new = profile(
            1_000_000,
            &[(Phase::Arrival, 400_000, 0), (Phase::PoolEvict, 200_000, 0)],
        );
        let report = diff_profiles(&base, &new, DiffOptions::default());
        assert!(report.has_regressions());
        let evict = report
            .rows
            .iter()
            .find(|r| r.phase == Phase::PoolEvict)
            .unwrap();
        assert_eq!(evict.wall_verdict, Verdict::New);
    }

    #[test]
    fn alloc_regression_requires_both_measured() {
        let mut base = profile(1_000_000, &[(Phase::Arrival, 400_000, 1_000_000)]);
        let mut new = profile(1_000_000, &[(Phase::Arrival, 400_000, 10_000_000)]);
        // Not installed on either side: no alloc verdicts.
        let report = diff_profiles(&base, &new, DiffOptions::default());
        assert!(!report.has_regressions());

        base.alloc.installed = true;
        base.alloc.total_bytes = 1_000_000;
        new.alloc.installed = true;
        new.alloc.total_bytes = 10_000_000;
        let report = diff_profiles(&base, &new, DiffOptions::default());
        assert!(report.has_regressions());
        assert_eq!(report.rows[0].alloc_verdict, Verdict::Regressed);
        assert!(report.render().contains("ALLOC-REGRESSED"));
    }
}
