//! Sequential threshold testing — Wald's SPRT over skyline worlds
//! (extension; the paper's probabilistic-skyline definition needs only the
//! *comparison* `sky(O) ≥ τ`, not the value).
//!
//! The fixed-budget Hoeffding bound of Theorem 2 spends
//! `(1/2ε²)·ln(2/δ)` worlds on *every* object, even ones whose skyline
//! probability is nowhere near the threshold. Wald's sequential
//! probability-ratio test instead samples until the evidence separates
//!
//! ```text
//! H0: sky ≤ τ − margin     vs     H1: sky ≥ τ + margin
//! ```
//!
//! accepting whichever hypothesis the log-likelihood ratio certifies at
//! error levels `(α, β)`. Objects far from τ resolve after a handful of
//! worlds; only genuinely borderline objects pay the full budget (the test
//! is truncated at `max_samples` and reports `Undecided` with the running
//! estimate). This is the engine behind the query layer's threshold
//! filter.
//!
//! Worlds are evaluated through the bit-parallel kernel of
//! [`presky_core::bitworlds`]: the Wald statistic advances in 64-world
//! blocks (`llr += hits·l_hit + misses·l_miss`) and the decision
//! boundaries are checked **between** blocks. Group-stepping can only
//! overshoot a boundary, and overshoot strengthens the evidence beyond
//! the certified level, so the `(α, β)` guarantees are preserved; the
//! reported `samples_used` is rounded up to the block that crossed (a
//! truncated test still uses exactly `max_samples`, via a lane-masked
//! final block).
//!
//! The kernel evaluates a superblock of four words (256 worlds) per step,
//! but the Wald statistic still **walks the superblock's words
//! sequentially**, checking the boundaries after every 64-world word; a
//! crossing mid-superblock discards the already-evaluated later words.
//! Decisions, `samples_used`, and running estimates are therefore those of
//! a word-at-a-time walk; the superblock only trades a little overshoot
//! work for kernel throughput.

use std::time::Instant;

use presky_core::bitworlds::{superblock_lane_mask, survivors_wide, WideScratch, LANE_WORDS};
use presky_core::coins::CoinView;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use crate::error::{ApproxError, Result};
use crate::sampler::SamScratch;

/// Half-width of the indifference region around τ.
pub const MARGIN: f64 = 0.02;
/// Type-I error (accepting `≥ τ` when the truth is `≤ τ − MARGIN`).
pub const ALPHA: f64 = 0.01;
/// Type-II error (accepting `< τ` when the truth is `≥ τ + MARGIN`).
pub const BETA: f64 = 0.01;

/// Configuration of the sequential test. The indifference region and the
/// error levels are the constants [`MARGIN`], [`ALPHA`] and [`BETA`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SprtOptions {
    /// Truncation point.
    pub max_samples: u64,
    /// RNG seed.
    pub seed: u64,
    /// Optional absolute wall-clock cut-off, checked between superblocks.
    /// An expired deadline truncates the test early with an honest
    /// `Undecided` (never a fabricated certificate).
    pub deadline_at: Option<Instant>,
}

impl Default for SprtOptions {
    fn default() -> Self {
        Self { max_samples: 200_000, seed: 0, deadline_at: None }
    }
}

impl SprtOptions {
    /// Chainable: set the truncation point.
    pub fn with_max_samples(mut self, max_samples: u64) -> Self {
        self.max_samples = max_samples;
        self
    }

    /// Chainable: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chainable: set (or clear) the absolute wall-clock cut-off.
    pub fn with_deadline_at(mut self, deadline_at: Option<Instant>) -> Self {
        self.deadline_at = deadline_at;
        self
    }
}

/// Decision of the sequential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdDecision {
    /// Certified (at level β) that `sky ≥ τ − margin`; treat as a member.
    AtLeast,
    /// Certified (at level α) that `sky ≤ τ + margin`; treat as a
    /// non-member.
    Below,
    /// Truncated before separation (truth within the indifference region,
    /// most likely).
    Undecided,
}

/// Outcome of a sequential threshold test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprtOutcome {
    /// The decision.
    pub decision: ThresholdDecision,
    /// Worlds actually sampled.
    pub samples_used: u64,
    /// Running estimate `Y/m` at stopping time (biased by optional
    /// stopping — use for diagnostics, not as a point estimate).
    pub estimate: f64,
    /// Coin draws of the kernel, counted per world as in
    /// [`SamOutcome::coin_draws`](crate::sampler::SamOutcome::coin_draws).
    /// A test that stops mid-superblock still counts the words of that
    /// superblock it evaluated and discarded.
    pub coin_draws: u64,
    /// Attacker dominance checks of the kernel, counted per world.
    pub attacker_checks: u64,
}

/// Sequentially test `sky(target) ≥ τ` over a table.
pub fn sky_threshold_test<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    tau: f64,
    opts: SprtOptions,
) -> Result<SprtOutcome> {
    let view = CoinView::build(table, prefs, target)?;
    sky_threshold_test_view(&view, tau, opts)
}

/// Sequentially test `sky ≥ τ` on a reduced instance.
pub fn sky_threshold_test_view(
    view: &CoinView,
    tau: f64,
    opts: SprtOptions,
) -> Result<SprtOutcome> {
    sky_threshold_test_view_with(view, tau, opts, &mut SamScratch::default())
}

/// Allocation-reusing form of [`sky_threshold_test_view`]: the checking
/// order and the kernel state live in `scratch`, the same buffers the
/// fixed-budget sampler uses, so a worker's repeated tests allocate
/// nothing once they have grown. Decisions, `samples_used`, estimates and
/// counters are those of the allocating form.
pub fn sky_threshold_test_view_with(
    view: &CoinView,
    tau: f64,
    opts: SprtOptions,
    scratch: &mut SamScratch,
) -> Result<SprtOutcome> {
    if tau.is_nan() || !(0.0..=1.0).contains(&tau) {
        return Err(ApproxError::InvalidParameter { name: "tau", value: tau });
    }
    if opts.max_samples == 0 {
        return Err(ApproxError::ZeroSamples);
    }
    // Clamp the hypotheses into (0, 1) so the likelihood ratio is finite.
    let p0 = (tau - MARGIN).clamp(1e-9, 1.0 - 1e-9);
    let p1 = (tau + MARGIN).clamp(1e-9, 1.0 - 1e-9);
    let l_hit = (p1 / p0).ln();
    let l_miss = ((1.0 - p1) / (1.0 - p0)).ln();
    let upper = ((1.0 - BETA) / ALPHA).ln();
    let lower = (BETA / (1.0 - ALPHA)).ln();

    view.checking_sequence_into(&mut scratch.probs, &mut scratch.order);
    let walk = WaldWalk { l_hit, l_miss, upper, lower };
    run_sprt(view, &scratch.order, opts, walk, &mut scratch.bits)
}

/// The precomputed Wald statistic increments and decision boundaries.
#[derive(Clone, Copy)]
struct WaldWalk {
    l_hit: f64,
    l_miss: f64,
    upper: f64,
    lower: f64,
}

/// One sequential test: superblocks are evaluated wide, the Wald statistic
/// walks their words sequentially (see module docs).
fn run_sprt(
    view: &CoinView,
    order: &[usize],
    opts: SprtOptions,
    walk: WaldWalk,
    bits: &mut WideScratch,
) -> Result<SprtOutcome> {
    bits.prepare(view);
    let worlds_per = 64 * LANE_WORDS as u64;
    let mut llr = 0.0;
    let mut hits = 0u64;
    let mut used = 0u64;
    for sb in 0..opts.max_samples.div_ceil(worlds_per) {
        if let Some(at) = opts.deadline_at {
            // An expired budget truncates the test: report the honest
            // `Undecided` over the words completed so far rather than a
            // certificate the evidence has not earned.
            if Instant::now() >= at {
                let estimate = if used == 0 { 0.0 } else { hits as f64 / used as f64 };
                return Ok(outcome(ThresholdDecision::Undecided, used, estimate, bits));
            }
        }
        let lane_mask = superblock_lane_mask(opts.max_samples, sb);
        let live = survivors_wide(view, order, opts.seed, sb, &lane_mask, true, bits);
        for w in 0..LANE_WORDS {
            if lane_mask[w] == 0 {
                break;
            }
            let worlds = u64::from(lane_mask[w].count_ones());
            let word_hits = u64::from(live[w].count_ones());
            hits += word_hits;
            used += worlds;
            llr += word_hits as f64 * walk.l_hit + (worlds - word_hits) as f64 * walk.l_miss;
            let decision = if llr >= walk.upper {
                ThresholdDecision::AtLeast
            } else if llr <= walk.lower {
                ThresholdDecision::Below
            } else {
                continue;
            };
            return Ok(outcome(decision, used, hits as f64 / used as f64, bits));
        }
    }
    let estimate = hits as f64 / opts.max_samples as f64;
    Ok(outcome(ThresholdDecision::Undecided, opts.max_samples, estimate, bits))
}

/// The outcome at stopping time, with the kernel's work counters.
fn outcome(
    decision: ThresholdDecision,
    samples_used: u64,
    estimate: f64,
    bits: &WideScratch,
) -> SprtOutcome {
    SprtOutcome {
        decision,
        samples_used,
        estimate,
        coin_draws: bits.coin_draws,
        attacker_checks: bits.attacker_checks,
    }
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PrefPair, TablePreferences};

    use super::*;
    use crate::bounds::hoeffding_samples;
    use crate::sampler::{sky_sam_view_with, SamOptions};

    fn example1() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn far_thresholds_resolve_fast() {
        // sky(O) = 3/16 = 0.1875.
        let (t, p) = example1();
        let above = sky_threshold_test(&t, &p, ObjectId(0), 0.5, SprtOptions::default()).unwrap();
        assert_eq!(above.decision, ThresholdDecision::Below);
        let below = sky_threshold_test(&t, &p, ObjectId(0), 0.05, SprtOptions::default()).unwrap();
        assert_eq!(below.decision, ThresholdDecision::AtLeast);
        // Both should use far fewer worlds than the fixed Hoeffding budget
        // for comparable errors.
        let hoeffding = hoeffding_samples(0.02, 0.01).unwrap();
        assert!(above.samples_used < hoeffding / 10, "{}", above.samples_used);
        assert!(below.samples_used < hoeffding / 10, "{}", below.samples_used);
    }

    #[test]
    fn near_threshold_truncates_undecided() {
        // At τ = sky the walk has no drift, and 200 worlds are far too few
        // for it to reach a boundary ln(99) away.
        let (t, p) = example1();
        let opts = SprtOptions::default().with_max_samples(200);
        let out = sky_threshold_test(&t, &p, ObjectId(0), 0.1875, opts).unwrap();
        assert_eq!(out.decision, ThresholdDecision::Undecided);
        assert_eq!(out.samples_used, 200);
        assert!((out.estimate - 0.1875).abs() < 0.05);
    }

    #[test]
    fn decisions_are_correct_across_seeds() {
        let (t, p) = example1();
        let mut wrong = 0;
        for seed in 0..40 {
            let opts = SprtOptions { seed, ..Default::default() };
            let hi = sky_threshold_test(&t, &p, ObjectId(0), 0.4, opts).unwrap();
            if hi.decision != ThresholdDecision::Below {
                wrong += 1;
            }
            let lo = sky_threshold_test(&t, &p, ObjectId(0), 0.05, opts).unwrap();
            if lo.decision != ThresholdDecision::AtLeast {
                wrong += 1;
            }
        }
        assert!(wrong <= 1, "{wrong}/80 sequential decisions were wrong");
    }

    #[test]
    fn parameter_validation() {
        let (t, p) = example1();
        let nan = sky_threshold_test(&t, &p, ObjectId(0), f64::NAN, SprtOptions::default());
        assert!(nan.is_err());
        let bad = SprtOptions { max_samples: 0, ..Default::default() };
        assert!(matches!(
            sky_threshold_test(&t, &p, ObjectId(0), 0.5, bad),
            Err(ApproxError::ZeroSamples)
        ));
        assert!(sky_threshold_test(&t, &p, ObjectId(0), 1.5, SprtOptions::default()).is_err());
    }

    #[test]
    fn reused_scratch_matches_fresh_tests_and_counts_kernel_work() {
        // One scratch carried across views of different sizes, with a
        // fixed-budget sampler run in between, must reproduce every fresh
        // test exactly, counters included.
        let (t, p) = example1();
        let views: Vec<CoinView> = (0..5)
            .map(|o| CoinView::build(&t, &p, ObjectId(o)).unwrap())
            .chain([
                CoinView::from_parts(vec![0.3; 70], (0..70).map(|k| vec![k]).collect()).unwrap()
            ])
            .collect();
        let mut scratch = SamScratch::default();
        for (v, view) in views.iter().enumerate() {
            for tau in [0.05, 0.1875, 0.5] {
                let opts = SprtOptions::default().with_seed(v as u64);
                let fresh = sky_threshold_test_view(view, tau, opts).unwrap();
                let reused = sky_threshold_test_view_with(view, tau, opts, &mut scratch).unwrap();
                assert_eq!(fresh, reused, "view {v}, τ = {tau}");
                if view.n_attackers() > 0 {
                    assert!(fresh.attacker_checks > 0 && fresh.coin_draws > 0, "{fresh:?}");
                }
                let sam = SamOptions::with_samples(300, v as u64);
                sky_sam_view_with(view, sam, &mut scratch).unwrap();
            }
        }
    }

    #[test]
    fn degenerate_instances_decide_immediately_enough() {
        // No attackers: sky = 1 -> any τ below 1 accepts quickly.
        let view = CoinView::from_parts(vec![], vec![]).unwrap();
        let out = sky_threshold_test_view(&view, 0.5, SprtOptions::default()).unwrap();
        assert_eq!(out.decision, ThresholdDecision::AtLeast);
        // Certain attacker: sky = 0 -> rejects quickly.
        let view = CoinView::from_parts(vec![1.0], vec![vec![0]]).unwrap();
        let out = sky_threshold_test_view(&view, 0.5, SprtOptions::default()).unwrap();
        assert_eq!(out.decision, ThresholdDecision::Below);
    }
}
