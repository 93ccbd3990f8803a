//! The per-function decision tuple `(C, T, K_t)` that CodeCrunch optimizes.

use std::fmt;

use crate::{Arch, SimDuration};

/// Maximum keep-alive time considered by any policy (the paper's 60-minute
/// commercial-platform bound).
pub const KEEP_ALIVE_MAX: SimDuration = SimDuration::from_mins(60);

/// Granularity at which keep-alive times are discretized by the choice-space
/// generator (one minute, matching the optimization interval).
pub const KEEP_ALIVE_STEP: SimDuration = SimDuration::from_mins(1);

/// One function's decision tuple: processor type `T`, compression choice
/// `C`, and keep-alive time `K_t`.
///
/// This is an element of the paper's choice set `S_t` restricted to a single
/// function; a full sample in `S_t` is a `Vec<FnChoice>` over the functions
/// invoked in the interval.
///
/// # Example
///
/// ```
/// use cc_types::{Arch, FnChoice, SimDuration};
///
/// let c = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(10));
/// assert!(c.compress);
/// assert_eq!(c.arch, Arch::Arm);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FnChoice {
    /// Which processor type executes (and keeps alive) the function.
    pub arch: Arch,
    /// Whether the warm instance is stored lz4-compressed during keep-alive.
    pub compress: bool,
    /// How long the instance is kept alive after execution completes.
    pub keep_alive: SimDuration,
}

impl FnChoice {
    /// Creates a choice tuple.
    ///
    /// The keep-alive time is clamped to [`KEEP_ALIVE_MAX`].
    pub fn new(arch: Arch, compress: bool, keep_alive: SimDuration) -> Self {
        FnChoice {
            arch,
            compress,
            keep_alive: keep_alive.min(KEEP_ALIVE_MAX),
        }
    }

    /// The conservative default the paper's production baselines use: x86,
    /// no compression, a fixed 10-minute keep-alive.
    pub fn production_default() -> Self {
        FnChoice::new(Arch::X86, false, SimDuration::from_mins(10))
    }

    /// A "drop immediately" choice: no keep-alive at all.
    pub fn drop_now(arch: Arch) -> Self {
        FnChoice::new(arch, false, SimDuration::ZERO)
    }

    /// Returns whether the instance is kept alive at all.
    pub fn keeps_alive(&self) -> bool {
        !self.keep_alive.is_zero()
    }

    /// How many of the three coordinates (architecture, compression,
    /// keep-alive) differ between this choice and `other`: the optimizer
    /// probes' accepted-move count.
    pub fn changed_coordinates(&self, other: &FnChoice) -> u64 {
        u64::from(self.arch != other.arch)
            + u64::from(self.compress != other.compress)
            + u64::from(self.keep_alive != other.keep_alive)
    }

    /// Returns the neighbors of this choice in the discrete choice lattice:
    /// flip compression, flip architecture, step keep-alive by
    /// ±[`KEEP_ALIVE_STEP`] (clamped to `[0, KEEP_ALIVE_MAX]`), and the
    /// *compound* moves pairing a compression flip with a keep-alive step.
    ///
    /// The compound moves matter under a binding budget: compressing alone
    /// never improves predicted service time (it adds decompression
    /// latency), but compressing **and** extending the keep-alive window
    /// can — the smaller footprint is what makes the longer window
    /// affordable. Without them, gradient descent could never route
    /// through compression.
    pub fn neighbors(&self) -> Vec<FnChoice> {
        self.neighbors_inline().as_slice().to_vec()
    }

    /// [`FnChoice::neighbors`] without the heap: the lattice degree is at
    /// most six, so the list fits a fixed-capacity inline buffer. The hot
    /// descent loops use this so a steady-state optimizer round performs
    /// zero allocations. Order is identical to [`FnChoice::neighbors`].
    pub fn neighbors_inline(&self) -> NeighborList {
        let mut out = NeighborList::default();
        out.push(FnChoice {
            compress: !self.compress,
            ..*self
        });
        out.push(FnChoice {
            arch: self.arch.other(),
            ..*self
        });
        if self.keep_alive < KEEP_ALIVE_MAX {
            let longer = (self.keep_alive + KEEP_ALIVE_STEP).min(KEEP_ALIVE_MAX);
            out.push(FnChoice {
                keep_alive: longer,
                ..*self
            });
            out.push(FnChoice {
                compress: !self.compress,
                keep_alive: longer,
                ..*self
            });
        }
        if !self.keep_alive.is_zero() {
            let shorter = self.keep_alive.saturating_sub(KEEP_ALIVE_STEP);
            out.push(FnChoice {
                keep_alive: shorter,
                ..*self
            });
            out.push(FnChoice {
                compress: !self.compress,
                keep_alive: shorter,
                ..*self
            });
        }
        out
    }
}

/// Inline, allocation-free neighbor list (see
/// [`FnChoice::neighbors_inline`]): at most six lattice neighbors in a
/// fixed buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborList {
    buf: [FnChoice; 6],
    len: u8,
}

impl NeighborList {
    fn push(&mut self, choice: FnChoice) {
        self.buf[self.len as usize] = choice;
        self.len += 1;
    }

    /// The populated neighbors, in lattice order.
    pub fn as_slice(&self) -> &[FnChoice] {
        &self.buf[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a NeighborList {
    type Item = FnChoice;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, FnChoice>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl Default for FnChoice {
    fn default() -> Self {
        FnChoice::production_default()
    }
}

impl fmt::Display for FnChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, keep {:.1}min)",
            self.arch,
            if self.compress { "compressed" } else { "raw" },
            self.keep_alive.as_mins_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_coordinates_counts_each_differing_axis() {
        let a = FnChoice::new(Arch::X86, false, SimDuration::from_mins(10));
        assert_eq!(a.changed_coordinates(&a), 0);
        for n in a.neighbors() {
            let expected = if n.compress != a.compress && n.keep_alive != a.keep_alive {
                2
            } else {
                1
            };
            assert_eq!(a.changed_coordinates(&n), expected, "{a} -> {n}");
        }
        let b = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(11));
        assert_eq!(a.changed_coordinates(&b), 3);
        assert_eq!(b.changed_coordinates(&a), 3);
    }

    #[test]
    fn new_clamps_keep_alive() {
        let c = FnChoice::new(Arch::X86, false, SimDuration::from_mins(90));
        assert_eq!(c.keep_alive, KEEP_ALIVE_MAX);
    }

    #[test]
    fn production_default_matches_paper() {
        let c = FnChoice::production_default();
        assert_eq!(c.arch, Arch::X86);
        assert!(!c.compress);
        assert_eq!(c.keep_alive, SimDuration::from_mins(10));
        assert_eq!(c, FnChoice::default());
    }

    #[test]
    fn drop_now_keeps_nothing() {
        assert!(!FnChoice::drop_now(Arch::Arm).keeps_alive());
        assert!(FnChoice::production_default().keeps_alive());
    }

    #[test]
    fn neighbors_interior_point_has_six() {
        let c = FnChoice::new(Arch::X86, false, SimDuration::from_mins(10));
        let n = c.neighbors();
        assert_eq!(n.len(), 6);
        assert!(n.contains(&FnChoice::new(Arch::X86, true, SimDuration::from_mins(10))));
        assert!(n.contains(&FnChoice::new(Arch::Arm, false, SimDuration::from_mins(10))));
        assert!(n.contains(&FnChoice::new(Arch::X86, false, SimDuration::from_mins(11))));
        assert!(n.contains(&FnChoice::new(Arch::X86, false, SimDuration::from_mins(9))));
        // The compound compression+window moves.
        assert!(n.contains(&FnChoice::new(Arch::X86, true, SimDuration::from_mins(11))));
        assert!(n.contains(&FnChoice::new(Arch::X86, true, SimDuration::from_mins(9))));
    }

    #[test]
    fn neighbors_respect_bounds() {
        let zero = FnChoice::new(Arch::X86, false, SimDuration::ZERO);
        assert!(zero
            .neighbors()
            .iter()
            .all(|n| n.keep_alive <= KEEP_ALIVE_MAX));
        assert_eq!(zero.neighbors().len(), 4);

        let max = FnChoice::new(Arch::X86, false, KEEP_ALIVE_MAX);
        assert_eq!(max.neighbors().len(), 4);
        assert!(max
            .neighbors()
            .iter()
            .all(|n| n.keep_alive <= KEEP_ALIVE_MAX));
    }

    #[test]
    fn inline_neighbors_match_allocating_neighbors() {
        for mins in [0u64, 1, 10, 59, 60] {
            for compress in [false, true] {
                for arch in [Arch::X86, Arch::Arm] {
                    let c = FnChoice::new(arch, compress, SimDuration::from_mins(mins));
                    assert_eq!(c.neighbors_inline().as_slice(), &c.neighbors()[..]);
                    let iterated: Vec<FnChoice> = c.neighbors_inline().into_iter().collect();
                    assert_eq!(iterated, c.neighbors());
                }
            }
        }
    }

    #[test]
    fn display_mentions_all_dimensions() {
        let s = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(5)).to_string();
        assert!(s.contains("arm") && s.contains("compressed") && s.contains("5.0"));
    }
}
