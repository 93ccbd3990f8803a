//! Choice-space utilities: size accounting, sub-problem sampling, and
//! solution recombination.

use rand::rngs::StdRng;
use rand::Rng;

use cc_types::{Arch, FnChoice, SimDuration, KEEP_ALIVE_MAX, KEEP_ALIVE_STEP};

/// Size of the joint choice space for `n` functions: each function
/// contributes 2 (compression) × 2 (processor) × 61 (keep-alive minutes
/// 0..=60) options — the quantity plotted in the paper's Fig. 3(a).
///
/// Saturates at `u128::MAX`.
pub fn search_space_size(n: usize) -> u128 {
    let per_fn: u128 =
        2 * 2 * (KEEP_ALIVE_MAX.as_micros() / KEEP_ALIVE_STEP.as_micros() + 1) as u128;
    let mut total: u128 = 1;
    for _ in 0..n {
        total = total.saturating_mul(per_fn);
    }
    total
}

/// Weights per block of the sampler's partial sums.
const BLOCK: usize = 64;

/// Safety factor of the sampler's fast-path tolerance over its
/// rounding-error bound, running-sum terms included (DESIGN.md §14).
const TOL_FACTOR: f64 = 8.0;

/// Reusable buffers for [`sample_subproblems_into`]: the sampling-weight
/// vector and its per-block partial sums. A caller that holds one of these
/// across rounds (and intervals) pays the allocation cost once.
#[derive(Debug, Default)]
pub struct SubproblemScratch {
    weights: Vec<f64>,
    /// `block_sums[b]` is the in-order sum of the `b`-th run of [`BLOCK`]
    /// weights at the start of a round; the round's draws then subtract
    /// each picked weight from its block's sum.
    block_sums: Vec<f64>,
    /// `live[b]` counts the positive weights of block `b`, so that a
    /// block the draws drain reads exactly 0 rather than a rounding
    /// residue of its subtractions.
    live: Vec<u32>,
    /// The blocks [`SubproblemScratch::refresh`] re-sums.
    dirty_blocks: Vec<usize>,
}

impl SubproblemScratch {
    /// Sets every sampling weight from `opt_counts` and sums the blocks.
    pub(crate) fn fill(&mut self, opt_counts: &[u32]) {
        self.weights.clear();
        self.weights.extend(opt_counts.iter().map(|&c| weight(c)));
        self.block_sums.clear();
        self.block_sums
            .extend(self.weights.chunks(BLOCK).map(|b| b.iter().sum::<f64>()));
        self.live.clear();
        self.live.extend(
            self.weights
                .chunks(BLOCK)
                .map(|b| b.iter().filter(|&&w| w > 0.0).count() as u32),
        );
    }

    /// Brings the weights and block sums back to what
    /// [`SubproblemScratch::fill`] would give for `opt_counts`, re-deriving
    /// only the weights at `changed` and the blocks that hold them. Valid
    /// when the weights agree with `opt_counts` everywhere else — as after
    /// a draw, which zeroes exactly the weights it picked, once the picked
    /// functions' counts have moved.
    pub(crate) fn refresh(&mut self, opt_counts: &[u32], changed: &[usize]) {
        self.dirty_blocks.clear();
        for &i in changed {
            self.live[i / BLOCK] += u32::from(self.weights[i] <= 0.0);
            self.weights[i] = weight(opt_counts[i]);
            self.dirty_blocks.push(i / BLOCK);
        }
        self.dirty_blocks.sort_unstable();
        self.dirty_blocks.dedup();
        for &block in &self.dirty_blocks {
            self.block_sums[block] = block_sum(&self.weights, block);
        }
    }
}

/// A function's sampling weight: inverse to how often it was optimized.
fn weight(opt_count: u32) -> f64 {
    1.0 / (1.0 + opt_count as f64)
}

/// The in-order sum of the `block`-th run of [`BLOCK`] weights.
fn block_sum(weights: &[f64], block: usize) -> f64 {
    weights[block * BLOCK..].iter().take(BLOCK).sum()
}

/// Disjoint sub-problem index groups in one flat buffer.
///
/// Group `g` is the slice `indices[bounds[g]..bounds[g + 1]]`. The nested
/// `Vec<Vec<usize>>` layout this replaces kept every group in its own heap
/// block; the flat layout keeps one round's entire sampling in two
/// contiguous arrays, so refilling it in steady state allocates nothing
/// and iterating it walks a single cache-friendly run of indices.
#[derive(Debug, Default)]
pub struct IndexGroups {
    indices: Vec<usize>,
    /// Group boundaries: `len() + 1` entries, starting at 0.
    bounds: Vec<usize>,
}

impl IndexGroups {
    /// Removes all groups, keeping capacity.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `g`-th group's function indices.
    pub fn group(&self, g: usize) -> &[usize] {
        &self.indices[self.bounds[g]..self.bounds[g + 1]]
    }

    /// Iterates the groups in sampling order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.len()).map(|g| self.group(g))
    }

    /// Appends an index to the group currently being built (the span past
    /// the last committed bound).
    fn push(&mut self, idx: usize) {
        self.indices.push(idx);
    }

    /// Commits the indices pushed since the last commit as one group —
    /// unless none were, in which case nothing changes.
    fn commit_group(&mut self) {
        let last = *self.bounds.last().expect("bounds start at 0");
        if self.indices.len() > last {
            self.bounds.push(self.indices.len());
        }
    }
}

/// Samples disjoint sub-problems for one SRE round.
///
/// Each of the `num_subproblems` groups receives up to
/// `funcs_per_subproblem` function indices, drawn without replacement with
/// probability inversely proportional to how often each function has been
/// optimized before (`opt_counts`) — the paper's fairness mechanism: rarely
/// optimized functions are more likely to be selected.
///
/// `groups` is cleared and refilled in place, and the weight buffers live
/// in `scratch`, so steady-state rounds allocate nothing.
///
/// The groups are defined by an exact O(N) scan per draw: the in-order
/// float sum of the weights, scaled by the draw, consumed by sequential
/// subtraction. Each draw first locates its weight from per-block partial
/// sums in O(N/64 + 64) and keeps that answer only when the scaled draw
/// lies farther from both edges of the weight's span than the scan's
/// accumulated rounding could reach; otherwise it runs the exact scan. The
/// result is bit-identical either way (DESIGN.md §14).
pub fn sample_subproblems_into(
    rng: &mut StdRng,
    opt_counts: &[u32],
    num_subproblems: usize,
    funcs_per_subproblem: usize,
    scratch: &mut SubproblemScratch,
    groups: &mut IndexGroups,
) {
    scratch.fill(opt_counts);
    sample_filled(rng, num_subproblems, funcs_per_subproblem, scratch, groups);
}

/// [`sample_subproblems_into`] from weights the scratch already holds,
/// set by [`SubproblemScratch::fill`] (or kept current by
/// [`SubproblemScratch::refresh`]). The draws zero the weights they pick.
pub(crate) fn sample_filled(
    rng: &mut StdRng,
    num_subproblems: usize,
    funcs_per_subproblem: usize,
    scratch: &mut SubproblemScratch,
    groups: &mut IndexGroups,
) {
    sample_with_tolerance(
        rng,
        num_subproblems,
        funcs_per_subproblem,
        TOL_FACTOR,
        scratch,
        groups,
    );
}

/// [`sample_filled`] with the fast-path tolerance factor as a parameter
/// (an infinite factor forces the exact scan on every draw). Returns how
/// many draws the block-sum search decided.
///
/// The block sums and their total are running sums: each draw subtracts
/// the picked weight from its block's sum and from the total, and a
/// drained block is set to exactly 0. The tolerance is fixed for the
/// round, relative to its starting total, and widened by what the
/// round's `k` subtractions can round (DESIGN.md §14).
fn sample_with_tolerance(
    rng: &mut StdRng,
    num_subproblems: usize,
    funcs_per_subproblem: usize,
    tol_factor: f64,
    scratch: &mut SubproblemScratch,
    groups: &mut IndexGroups,
) -> usize {
    groups.clear();
    let SubproblemScratch {
        weights,
        block_sums,
        live,
        ..
    } = scratch;
    let n = weights.len();
    let k = n.min(num_subproblems * funcs_per_subproblem);
    let mut total: f64 = block_sums.iter().sum();
    // Bounds the rounding of the exact scan's sum and subtraction chain,
    // of the block estimate and of the running sums.
    let tol = tol_factor * (n + BLOCK + k) as f64 * f64::EPSILON * total;
    let mut fast = 0;
    // Every weight is positive and each draw zeroes one, so the weights
    // run out exactly when `remaining` does.
    let mut remaining = n;
    for _ in 0..num_subproblems {
        for _ in 0..funcs_per_subproblem {
            if remaining == 0 {
                break;
            }
            let (idx, decided) = pick(weights, block_sums, total, rng.gen(), tol / total);
            fast += usize::from(decided);
            groups.push(idx);
            let w = std::mem::take(&mut weights[idx]);
            let block = idx / BLOCK;
            live[block] -= 1;
            block_sums[block] = if live[block] == 0 {
                0.0
            } else {
                block_sums[block] - w
            };
            total -= w;
            remaining -= 1;
        }
        groups.commit_group();
    }
    fast
}

/// The index draw `r` samples, given the block sums and their `total`:
/// the block-sum answer where it provably equals the exact scan's
/// (`tol_per_total × total` bounds their disagreement), otherwise the
/// exact scan's. The flag is whether the block-sum search decided.
fn pick(
    weights: &[f64],
    block_sums: &[f64],
    total: f64,
    r: f64,
    tol_per_total: f64,
) -> (usize, bool) {
    let by_blocks = if total > 0.0 {
        pick_by_blocks(weights, block_sums, r * total, tol_per_total * total)
    } else {
        None
    };
    match by_blocks {
        Some(idx) => (idx, true),
        None => (pick_exact(weights, r), false),
    }
}

/// Finds the positive weight whose prefix-sum span contains `target`,
/// walking block sums and then one block. Returns `None` when `target`
/// lies within `tol` of either edge of that span — there rounding could
/// make [`pick_exact`] choose a neighbour — or when no span is found.
fn pick_by_blocks(weights: &[f64], block_sums: &[f64], target: f64, tol: f64) -> Option<usize> {
    let mut lo = 0.0;
    for (block, &sum) in block_sums.iter().enumerate() {
        if lo + sum < target {
            lo += sum;
            continue;
        }
        let start = block * BLOCK;
        for (offset, &w) in weights[start..].iter().take(BLOCK).enumerate() {
            if w <= 0.0 {
                continue;
            }
            let hi = lo + w;
            if hi >= target {
                return (target - lo > tol && hi - target > tol).then_some(start + offset);
            }
            lo = hi;
        }
        return None;
    }
    None
}

/// The exact scan that defines the sampled index for draw `r`.
fn pick_exact(weights: &[f64], r: f64) -> usize {
    // The total is re-summed in order on purpose: a running total would
    // change the float rounding of the thresholds and thus the draws.
    let total: f64 = weights.iter().sum();
    let mut draw = r * total;
    for (idx, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        draw -= w;
        if draw <= 0.0 {
            return idx;
        }
    }
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("total > 0 implies a positive weight")
}

/// Recombines the per-round solutions into SRE's final answer: the paper
/// takes "the mean of all the `P_num` optimization solutions". Keep-alive
/// times average arithmetically; the binary dimensions take a majority
/// vote (ties resolve to the last round's value, the freshest optimum).
///
/// The rounds sit in one flat rounds-major buffer (round `r` is
/// `flat[r * n..(r + 1) * n]`); the combination is written into a
/// recycled output vector.
///
/// # Panics
///
/// Panics if `flat` is empty or its length is not a multiple of `n`.
pub fn combine_solutions_into(flat: &[FnChoice], n: usize, out: &mut Vec<FnChoice>) {
    assert!(!flat.is_empty(), "need at least one round to combine");
    assert_eq!(
        flat.len() % n.max(1),
        0,
        "rounds must agree on the function count"
    );
    let rounds = flat.len().checked_div(n).unwrap_or(1);
    let get = |r: usize, i: usize| flat[r * n + i];
    out.clear();
    for i in 0..n {
        let mean_mins = (0..rounds)
            .map(|r| get(r, i).keep_alive.as_mins_f64())
            .sum::<f64>()
            / rounds as f64;
        let compress_votes = (0..rounds).filter(|&r| get(r, i).compress).count() * 2;
        let arm_votes = (0..rounds).filter(|&r| get(r, i).arch == Arch::Arm).count() * 2;
        let last = get(rounds - 1, i);
        let compress = match compress_votes.cmp(&rounds) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => last.compress,
        };
        let arch = match arm_votes.cmp(&rounds) {
            std::cmp::Ordering::Greater => Arch::Arm,
            std::cmp::Ordering::Less => Arch::X86,
            std::cmp::Ordering::Equal => last.arch,
        };
        out.push(FnChoice::new(
            arch,
            compress,
            SimDuration::from_secs_f64(mean_mins * 60.0),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn space_size_matches_paper_scale() {
        assert_eq!(search_space_size(0), 1);
        assert_eq!(search_space_size(1), 244);
        assert_eq!(search_space_size(2), 244 * 244);
        // Thousands of functions: astronomically large (saturates).
        assert_eq!(search_space_size(100_000), u128::MAX);
    }

    /// The groups [`sample_subproblems_into`] draws, one `Vec` each.
    fn sample(
        rng: &mut StdRng,
        opt_counts: &[u32],
        num_subproblems: usize,
        funcs_per_subproblem: usize,
    ) -> Vec<Vec<usize>> {
        let mut groups = IndexGroups::default();
        sample_subproblems_into(
            rng,
            opt_counts,
            num_subproblems,
            funcs_per_subproblem,
            &mut SubproblemScratch::default(),
            &mut groups,
        );
        groups.iter().map(|g| g.to_vec()).collect()
    }

    /// [`combine_solutions_into`] over nested rounds.
    fn combine(rounds: &[Vec<FnChoice>]) -> Vec<FnChoice> {
        let flat: Vec<FnChoice> = rounds.iter().flatten().copied().collect();
        let mut out = Vec::new();
        combine_solutions_into(&flat, rounds.first().map_or(0, Vec::len), &mut out);
        out
    }

    #[test]
    fn subproblems_are_disjoint() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = vec![0u32; 20];
        let groups = sample(&mut rng, &counts, 4, 3);
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for &i in g {
                assert!(seen.insert(i), "index {i} sampled twice");
                assert!(i < 20);
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn sampling_favors_rarely_optimized() {
        let mut rng = StdRng::seed_from_u64(2);
        // Function 0 never optimized, the rest heavily optimized.
        let mut counts = vec![1000u32; 50];
        counts[0] = 0;
        let mut hits = 0;
        for _ in 0..100 {
            let groups = sample(&mut rng, &counts, 1, 1);
            if groups[0][0] == 0 {
                hits += 1;
            }
        }
        assert!(hits > 80, "function 0 selected only {hits}/100 times");
    }

    #[test]
    fn sampling_handles_small_populations() {
        let mut rng = StdRng::seed_from_u64(3);
        let counts = vec![0u32; 2];
        let groups = sample(&mut rng, &counts, 5, 3);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 2, "cannot sample more than exists");
    }

    /// After a round's draws, moving the picked functions' counts and
    /// refreshing only them leaves the weights and block sums exactly as a
    /// full refill would, so the next round draws the same groups.
    #[test]
    fn refreshing_the_picked_weights_matches_a_refill() {
        for (n, seed) in [(1usize, 0u64), (63, 1), (200, 2), (1_313, 3), (5_000, 4)] {
            let mut counts: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 5).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut kept = SubproblemScratch::default();
            let mut groups = IndexGroups::default();
            kept.fill(&counts);
            for round in 0..4 {
                sample_filled(&mut rng, 16, 12, &mut kept, &mut groups);
                let picked: Vec<usize> = groups.iter().flatten().copied().collect();
                for &i in &picked {
                    counts[i] += 1;
                }
                kept.refresh(&counts, &picked);
                let mut fresh = SubproblemScratch::default();
                fresh.fill(&counts);
                let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&kept.weights),
                    bits(&fresh.weights),
                    "n {n} round {round}"
                );
                assert_eq!(
                    bits(&kept.block_sums),
                    bits(&fresh.block_sums),
                    "n {n} round {round}"
                );
            }
        }
    }

    /// The O(k·N) sampler the block-sum search replaced, kept as the
    /// differential reference: per draw it re-sums every weight in order
    /// and rescans them.
    fn reference_sample(
        rng: &mut StdRng,
        opt_counts: &[u32],
        num_subproblems: usize,
        funcs_per_subproblem: usize,
    ) -> Vec<Vec<usize>> {
        let mut weights: Vec<f64> = opt_counts.iter().map(|&c| 1.0 / (1.0 + c as f64)).collect();
        let mut remaining = weights.len();
        let mut groups = Vec::new();
        for _ in 0..num_subproblems {
            let mut group = Vec::new();
            for _ in 0..funcs_per_subproblem {
                if remaining == 0 {
                    break;
                }
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    break;
                }
                let mut draw = rng.gen::<f64>() * total;
                let mut chosen = None;
                for (idx, &w) in weights.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    draw -= w;
                    if draw <= 0.0 {
                        chosen = Some(idx);
                        break;
                    }
                }
                let idx = chosen.unwrap_or_else(|| {
                    weights
                        .iter()
                        .rposition(|&w| w > 0.0)
                        .expect("total > 0 implies a positive weight")
                });
                group.push(idx);
                weights[idx] = 0.0;
                remaining -= 1;
            }
            if !group.is_empty() {
                groups.push(group);
            }
        }
        groups
    }

    /// One differential case: a population, how its optimization counts
    /// are spread, the round shape, and the seeds.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        n: usize,
        spread: u8,
        num_subproblems: usize,
        funcs_per_subproblem: usize,
        counts_seed: u64,
        draw_seed: u64,
    }

    impl Case {
        /// Optimization counts: uniform over all of `u32` (spread 0),
        /// log-uniform across magnitudes (1), one shared value (2), or a
        /// shared value with ±2 jitter (3).
        fn counts(&self) -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(self.counts_seed);
            let base: u32 = rng.gen_range(0..=u32::MAX - 2);
            (0..self.n)
                .map(|_| match self.spread {
                    0 => rng.gen_range(0..=u32::MAX),
                    1 => (2f64.powf(rng.gen_range(0.0..32.0)) as u64).min(u32::MAX as u64) as u32,
                    2 => base,
                    _ => base + rng.gen_range(0..=2u32),
                })
                .collect()
        }
    }

    /// Populations log-uniform over `1..=100_000` (so most cases are
    /// small, and many have fewer functions than draws), every count
    /// spread, the production round shapes (up to 16 × 12 draws).
    fn cases() -> impl Strategy<Value = Case> {
        (
            0.0f64..=1.0,
            0u8..=3,
            1usize..=16,
            1usize..=12,
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(
                |(t, spread, num_subproblems, funcs_per_subproblem, counts_seed, draw_seed)| Case {
                    n: (100_000f64.powf(t).round() as usize).clamp(1, 100_000),
                    spread,
                    num_subproblems,
                    funcs_per_subproblem,
                    counts_seed,
                    draw_seed,
                },
            )
    }

    /// Runs `case` through the reference, the production sampler, and the
    /// sampler with the fast path disabled; all three must agree on the
    /// groups and leave their RNGs in the same state. Returns the draws
    /// the fast path decided and the draws made.
    fn differential(case: Case) -> Result<(usize, usize), String> {
        let counts = case.counts();
        let (subs, per) = (case.num_subproblems, case.funcs_per_subproblem);
        let mut rng = StdRng::seed_from_u64(case.draw_seed);
        let expected = reference_sample(&mut rng, &counts, subs, per);
        let after = rng.gen::<u64>();
        let draws = expected.iter().map(Vec::len).sum();
        let mut scratch = SubproblemScratch::default();
        let mut groups = IndexGroups::default();
        let mut fast = 0;
        for (tol_factor, label) in [(TOL_FACTOR, "fast"), (f64::INFINITY, "forced-fallback")] {
            let mut rng = StdRng::seed_from_u64(case.draw_seed);
            scratch.fill(&counts);
            let decided =
                sample_with_tolerance(&mut rng, subs, per, tol_factor, &mut scratch, &mut groups);
            let got: Vec<Vec<usize>> = groups.iter().map(|g| g.to_vec()).collect();
            prop_assert_eq!(&got, &expected, "{} sampler diverged on {:?}", label, case);
            prop_assert_eq!(rng.gen::<u64>(), after, "{} RNG state diverged", label);
            if tol_factor.is_infinite() {
                prop_assert_eq!(
                    decided,
                    0,
                    "an infinite tolerance must force the exact scan"
                );
            } else {
                fast = decided;
            }
        }
        Ok((fast, draws))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_sampler_matches_the_reference(case in cases()) {
            differential(case)?;
        }
    }

    /// A round that drains whole blocks leaves their running sums at
    /// exactly 0, not at a residue of their subtractions, and still draws
    /// the reference's groups. Blocks 0 and 1 hold weights 1, 1/2, …, 1/7
    /// (their subtractions round) and every other weight is about
    /// 2.3e-10, so the first 128 draws drain both blocks and the last 64
    /// pick among weights not far above the rounding the running sums
    /// have gathered: with the tolerance of exact block sums, relative to
    /// the running total, seed 0 already draws a different group.
    #[test]
    fn drained_blocks_read_exactly_zero() {
        let mut counts = vec![u32::MAX; 300];
        for (i, c) in counts[..2 * BLOCK].iter_mut().enumerate() {
            *c = i as u32 % 7;
        }
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let expected = reference_sample(&mut rng, &counts, 16, 12);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = SubproblemScratch::default();
            let mut groups = IndexGroups::default();
            scratch.fill(&counts);
            sample_filled(&mut rng, 16, 12, &mut scratch, &mut groups);
            let got: Vec<Vec<usize>> = groups.iter().map(|g| g.to_vec()).collect();
            assert_eq!(got, expected, "seed {seed}");
            let picked: Vec<usize> = got.iter().flatten().copied().collect();
            assert!((0..2 * BLOCK).all(|i| picked.contains(&i)), "seed {seed}");
            assert_eq!(scratch.live[..2], [0, 0]);
            assert_eq!(scratch.block_sums[0].to_bits(), 0.0f64.to_bits());
            assert_eq!(scratch.block_sums[1].to_bits(), 0.0f64.to_bits());
        }
    }

    /// Draws that land on or near a boundary between two weights' spans,
    /// where the block estimate and the exact scan's rounding can
    /// disagree, must still pick what the exact scan picks.
    #[test]
    fn edge_draws_match_the_exact_scan() {
        let (mut fast, mut fallback) = (0, 0);
        for (n, spread) in [(1, 2), (100, 3), (5_000, 1), (70_000, 0), (70_000, 2)] {
            let case = Case {
                n,
                spread,
                num_subproblems: 1,
                funcs_per_subproblem: 1,
                counts_seed: n as u64,
                draw_seed: 0,
            };
            let mut weights: Vec<f64> = case
                .counts()
                .iter()
                .map(|&c| 1.0 / (1.0 + c as f64))
                .collect();
            // Zero a scattered few so the scans also skip picked weights.
            for i in (0..n).step_by(7) {
                weights[i] = 0.0;
            }
            weights[n - 1] = 1.0;
            let block_sums: Vec<f64> = weights.chunks(BLOCK).map(|b| b.iter().sum()).collect();
            let total: f64 = block_sums.iter().sum();
            let exact_total: f64 = weights.iter().sum();
            let mut prefix = 0.0;
            let step = n as f64 * f64::EPSILON;
            for (i, &w) in weights.iter().enumerate() {
                prefix += w;
                if w <= 0.0 || i % (n / 50).max(1) != 0 {
                    continue;
                }
                let edge = prefix / exact_total;
                for j in -40..=40 {
                    let r = edge + f64::from(j) * step;
                    if !(0.0..1.0).contains(&r) {
                        continue;
                    }
                    let (idx, decided) = pick(
                        &weights,
                        &block_sums,
                        total,
                        r,
                        TOL_FACTOR * (n + BLOCK) as f64 * f64::EPSILON,
                    );
                    assert_eq!(
                        idx,
                        pick_exact(&weights, r),
                        "n {n}, edge after {i}, r {r:e}"
                    );
                    if decided {
                        fast += 1;
                    } else {
                        fallback += 1;
                    }
                }
            }
        }
        assert!(fast > 0 && fallback > 0, "fast {fast}, fallback {fallback}");
    }

    /// The tolerance must not be so wide that the exact O(N) scan comes
    /// back: over a fresh run of differential cases, the block-sum search
    /// decides at least 99% of the draws.
    #[test]
    fn fast_path_decides_nearly_every_draw() {
        let strategy = cases();
        let mut rng = TestRng::for_test("fast_path_decides_nearly_every_draw");
        let (mut fast, mut draws) = (0, 0);
        for _ in 0..64 {
            let case = strategy.sample(&mut rng);
            let (f, d) = differential(case).unwrap_or_else(|e| panic!("{e}"));
            fast += f;
            draws += d;
        }
        println!("fast path decided {fast} of {draws} draws");
        assert!(draws > 1_000, "too few draws to judge: {draws}");
        assert!(
            fast * 100 >= draws * 99,
            "fast path decided only {fast} of {draws} draws"
        );
    }

    #[test]
    fn combine_averages_and_votes() {
        let a = vec![FnChoice::new(Arch::X86, true, SimDuration::from_mins(10))];
        let b = vec![FnChoice::new(Arch::Arm, true, SimDuration::from_mins(20))];
        let c = vec![FnChoice::new(Arch::Arm, false, SimDuration::from_mins(30))];
        let combined = combine(&[a, b, c]);
        assert_eq!(combined[0].keep_alive, SimDuration::from_mins(20));
        assert!(combined[0].compress, "2/3 voted compress");
        assert_eq!(combined[0].arch, Arch::Arm, "2/3 voted ARM");
    }

    #[test]
    fn combine_tie_takes_last_round() {
        let a = vec![FnChoice::new(Arch::X86, false, SimDuration::from_mins(0))];
        let b = vec![FnChoice::new(Arch::Arm, true, SimDuration::from_mins(0))];
        let combined = combine(&[a, b]);
        assert_eq!(combined[0].arch, Arch::Arm);
        assert!(combined[0].compress);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn combine_rejects_empty() {
        let _ = combine(&[]);
    }
}
