//! `Sam` — the Monte-Carlo sampling estimator (Algorithm 2).
//!
//! Each iteration samples one possible world and checks whether the target
//! is a skyline point in it; the hit rate estimates `sky(O)` with the
//! Hoeffding guarantee of Theorem 2. Two design choices from the paper are
//! implemented faithfully (and exposed as toggles for the ablation study):
//!
//! * **lazy sampling** — preferences are drawn only when a dominance check
//!   first touches them, and the world is abandoned as soon as any attacker
//!   dominates ("the corresponding ω_h can be safely discarded even \[if\] we
//!   may have only partially sampled all ω_h's preferences");
//! * **sorted checking sequence** — attackers are checked in descending
//!   `Pr(e_i)` so that non-skyline worlds are refuted "as early as
//!   possible, if not \[by\] the first" attacker; the sort is paid once and
//!   shared by all `m` iterations.
//!
//! Crucially, a coin drawn for one attacker is *reused* by every other
//! attacker sharing that value within the same world — this is what makes
//! the estimator correct where the independence assumption of `Sac` fails.
//!
//! ## Bit-parallel kernel (default) and its seeding scheme
//!
//! With [`SamOptions::bit_parallel`] (the default), worlds are evaluated
//! 64 at a time through [`presky_core::bitworlds`]: each coin draws a
//! `u64` Bernoulli *mask* (one bit per world lane), an attacker dominates
//! in the lanes where the AND of its coin masks is set, and the target
//! survives in the complement of the OR over attackers. Lazy sampling and
//! the sorted checking sequence carry over at lane granularity: a mask is
//! materialised only when a still-live attacker touches it, and a block is
//! abandoned once every lane has found a dominator.
//!
//! **Seeding.** The sample budget is split into blocks of 64 worlds, and
//! block `b`'s randomness is rooted at `BlockKey::new(opts.seed, b)` — a
//! SplitMix64-style mix of the `(seed, block_index)` pair. Within a block,
//! coin `k` reads bit planes from the independent sub-stream `k` of that
//! key, so every mask is a pure function of `(seed, block, coin)`.
//! Estimates are therefore **bit-reproducible** regardless of thread
//! count, work order, or lazy vs eager mask materialisation; only the work
//! telemetry (`coin_draws`, `attacker_checks`) reflects the evaluation
//! strategy. A final partial block (`samples % 64 ≠ 0`) masks its dead
//! lanes out of both the hit count and the telemetry, so the estimate
//! denominator is exactly `opts.samples`.
//!
//! **Superblocks.** The kernel advances four 64-world words — a
//! *superblock* of 256 worlds, one AVX2 register — per step, through a
//! runtime-detected AVX2 compilation where the CPU offers it. Word `w` of
//! superblock `sb` is keyed as block `4·sb + w`, so the estimate and the
//! telemetry are exactly those of a walk over single 64-world blocks.
//!
//! The scalar world-at-a-time loop remains available as the ablation
//! baseline via `bit_parallel: false`; it draws from a *different*
//! (sequential `StdRng`) stream, so scalar and bit-parallel runs agree
//! statistically — within the Hoeffding ε — but not bit-for-bit.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use presky_core::bitworlds::{superblock_lane_mask, survivors_wide, WideScratch, LANE_WORDS};
use presky_core::coins::CoinView;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use crate::bounds::hoeffding_samples;
use crate::error::{ApproxError, Result};

/// Configuration of the sampling estimator.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SamOptions {
    /// Number of worlds to sample (`m`).
    pub samples: u64,
    /// RNG seed (the estimator is deterministic given the seed).
    pub seed: u64,
    /// Check attackers in descending dominance probability (Algorithm 2's
    /// first step). Off = table order; results are unbiased either way,
    /// only the work per world changes.
    pub sort_checking: bool,
    /// Draw coins on demand (lazy) instead of materialising the full world
    /// up front. Off = eager; same estimate distribution, more draws.
    pub lazy: bool,
    /// Evaluate 64 worlds per machine word (see the module docs). Off =
    /// the scalar world-at-a-time loop, kept as the ablation baseline;
    /// the two paths use different RNG streams, so they agree within the
    /// Hoeffding ε but not bit-for-bit.
    pub bit_parallel: bool,
    /// Optional absolute wall-clock cut-off. Checked between 256-world
    /// superblocks (bit-parallel) or every 64 worlds (scalar); on expiry the
    /// run aborts with [`ApproxError::DeadlineExceeded`] rather than
    /// returning a partial estimate, so every returned estimate is
    /// bit-identical to an unbudgeted run with the same seed.
    pub deadline_at: Option<Instant>,
}

impl SamOptions {
    /// `m` samples with the given seed, paper defaults otherwise.
    pub fn with_samples(samples: u64, seed: u64) -> Self {
        Self {
            samples,
            seed,
            sort_checking: true,
            lazy: true,
            bit_parallel: true,
            deadline_at: None,
        }
    }

    /// Chainable: set the sample budget `m`.
    pub fn with_sample_budget(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// Chainable: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chainable: toggle the sorted checking sequence.
    pub fn with_sort_checking(mut self, on: bool) -> Self {
        self.sort_checking = on;
        self
    }

    /// Chainable: toggle lazy coin materialisation.
    pub fn with_lazy(mut self, on: bool) -> Self {
        self.lazy = on;
        self
    }

    /// Chainable: toggle the 64-worlds-per-word kernel.
    pub fn with_bit_parallel(mut self, on: bool) -> Self {
        self.bit_parallel = on;
        self
    }

    /// Chainable: set (or clear) the absolute wall-clock cut-off.
    pub fn with_deadline_at(mut self, deadline_at: Option<Instant>) -> Self {
        self.deadline_at = deadline_at;
        self
    }

    /// Sample size from the Hoeffding bound for `(ε, δ)` (Theorem 2).
    pub fn hoeffding(epsilon: f64, delta: f64, seed: u64) -> Result<Self> {
        Ok(Self::with_samples(hoeffding_samples(epsilon, delta)?, seed))
    }

    /// Rough cost model of this sampling run on an instance with
    /// `n_attackers` attackers and `n_coins` coins, in machine-word
    /// operations: the bit-parallel kernel pays roughly one word-AND per
    /// attacker plus ~7 bit planes per coin mask per 64-world block, while
    /// the scalar loop pays per world. The query layer's adaptive policy
    /// budgets the exact engine against this prediction.
    pub fn predicted_cost(&self, n_attackers: usize, n_coins: usize) -> u64 {
        if self.bit_parallel {
            let blocks = self.samples.div_ceil(64);
            blocks.saturating_mul(n_attackers as u64 + 7 * n_coins as u64)
        } else {
            self.samples.saturating_mul(n_attackers as u64 + n_coins as u64)
        }
    }
}

impl Default for SamOptions {
    fn default() -> Self {
        // The empirical sweet spot of Section 6.2: 3000 samples already
        // meet the ε = 0.01 bound on the paper's workloads.
        Self::with_samples(3000, 0)
    }
}

/// Result of a sampling run, with work accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamOutcome {
    /// The estimate `Y/m`.
    pub estimate: f64,
    /// Worlds sampled (`m`).
    pub samples: u64,
    /// Worlds in which the target was a skyline point (`Y`).
    pub skyline_hits: u64,
    /// Individual coin draws performed (the lazy-sampling work metric).
    /// Counted **per world**, not per mask: the bit-parallel kernel adds
    /// the number of lanes that demanded the coin when a mask is
    /// materialised, so eager runs report exactly `samples × n_coins`
    /// under either kernel and lazy figures stay comparable to the
    /// scalar loop's.
    pub coin_draws: u64,
    /// Attacker dominance checks performed, counted per world (the
    /// kernel adds the live-lane popcount per attacker visit).
    pub attacker_checks: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Estimate `sky(target)` over a table.
pub fn sky_sam<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    opts: SamOptions,
) -> Result<SamOutcome> {
    let view = CoinView::build(table, prefs, target)?;
    sky_sam_view(&view, opts)
}

/// Estimate the skyline probability of a reduced instance.
pub fn sky_sam_view(view: &CoinView, opts: SamOptions) -> Result<SamOutcome> {
    sky_sam_view_with(view, opts, &mut SamScratch::default())
}

/// Reusable buffers for [`sky_sam_view_with`] and
/// [`sky_threshold_test_view_with`](crate::sprt::sky_threshold_test_view_with).
/// A default value works for any view; after the first call on the
/// largest view, subsequent calls allocate nothing.
#[derive(Debug, Default)]
pub struct SamScratch {
    stamp: Vec<u64>,
    win: Vec<bool>,
    /// Checking-sequence buffers, shared with the sequential test.
    pub(crate) probs: Vec<f64>,
    pub(crate) order: Vec<usize>,
    /// Monotone world counter: world `h` of a run stamps coins with
    /// `base + h`, so stale stamps from earlier runs (all `≤ base`) can
    /// never alias a current world and the stamp array needs no clearing.
    generation: u64,
    /// Bit-parallel kernel state (thresholds, mask cache, telemetry),
    /// shared with the sequential test.
    pub(crate) bits: WideScratch,
}

/// One bit-parallel run: superblock loop, deadline checks between
/// superblocks, dead-lane masking on the final partial superblock.
/// Returns `(hits, coin_draws, attacker_checks)`.
fn run_wide(
    view: &CoinView,
    order: &[usize],
    opts: &SamOptions,
    start: Instant,
    bits: &mut WideScratch,
) -> Result<(u64, u64, u64)> {
    bits.prepare(view);
    let worlds_per = 64 * LANE_WORDS as u64;
    let mut hits = 0u64;
    for sb in 0..opts.samples.div_ceil(worlds_per) {
        check_deadline(opts, start, sb * worlds_per)?;
        let lane_mask = superblock_lane_mask(opts.samples, sb);
        let live = survivors_wide(view, order, opts.seed, sb, &lane_mask, opts.lazy, bits);
        hits += live.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    }
    Ok((hits, bits.coin_draws, bits.attacker_checks))
}

/// Allocation-reusing form of [`sky_sam_view`]: identical RNG draw sequence
/// and hit accounting for a given seed, hence a bit-identical estimate.
pub fn sky_sam_view_with(
    view: &CoinView,
    opts: SamOptions,
    scratch: &mut SamScratch,
) -> Result<SamOutcome> {
    if opts.samples == 0 {
        return Err(ApproxError::ZeroSamples);
    }
    let start = Instant::now();
    let n = view.n_attackers();
    let m_coins = view.n_coins();
    if opts.sort_checking {
        view.checking_sequence_into(&mut scratch.probs, &mut scratch.order);
    } else {
        scratch.order.clear();
        scratch.order.extend(0..n);
    }
    if opts.bit_parallel {
        let (hits, coin_draws, attacker_checks) =
            run_wide(view, &scratch.order, &opts, start, &mut scratch.bits)?;
        return Ok(SamOutcome {
            estimate: hits as f64 / opts.samples as f64,
            samples: opts.samples,
            skyline_hits: hits,
            coin_draws,
            attacker_checks,
            elapsed: start.elapsed(),
        });
    }
    let order = &scratch.order;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Generation-stamped world: a coin belongs to the current world iff its
    // stamp equals base + h; entries surviving from previous runs are all
    // ≤ base and therefore read as "not drawn yet".
    if scratch.stamp.len() < m_coins {
        scratch.stamp.resize(m_coins, 0);
        scratch.win.resize(m_coins, false);
    }
    let base = scratch.generation;
    scratch.generation += opts.samples;
    let stamp = &mut scratch.stamp;
    let win = &mut scratch.win;

    let mut hits = 0u64;
    let mut coin_draws = 0u64;
    let mut attacker_checks = 0u64;

    for h in 1..=opts.samples {
        if h % 64 == 1 {
            check_deadline(&opts, start, h - 1)?;
        }
        let world = base + h;
        if !opts.lazy {
            for k in 0..m_coins {
                stamp[k] = world;
                win[k] = rng.random::<f64>() < view.coin_prob(k as u32);
                coin_draws += 1;
            }
        }
        let mut dominated = false;
        'attackers: for &i in order {
            attacker_checks += 1;
            for &k in view.attacker_coins(i) {
                let ku = k as usize;
                if stamp[ku] != world {
                    stamp[ku] = world;
                    win[ku] = rng.random::<f64>() < view.coin_prob(k);
                    coin_draws += 1;
                }
                if !win[ku] {
                    continue 'attackers;
                }
            }
            dominated = true;
            break;
        }
        if !dominated {
            hits += 1;
        }
    }

    Ok(SamOutcome {
        estimate: hits as f64 / opts.samples as f64,
        samples: opts.samples,
        skyline_hits: hits,
        coin_draws,
        attacker_checks,
        elapsed: start.elapsed(),
    })
}

/// Abort a sampling run whose absolute deadline has passed. Called between
/// 256-world superblocks by the kernel and every 64 worlds by the scalar
/// loop, so completed work stays bit-deterministic: a run either finishes
/// all `m` worlds (identical to an unbudgeted run) or fails — never a
/// silently truncated estimate.
#[inline]
fn check_deadline(opts: &SamOptions, start: Instant, samples_drawn: u64) -> Result<()> {
    if let Some(at) = opts.deadline_at {
        if Instant::now() >= at {
            return Err(ApproxError::DeadlineExceeded { elapsed: start.elapsed(), samples_drawn });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PrefPair, TablePreferences};

    use super::*;

    fn example1() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn converges_to_three_sixteenths_on_example1() {
        let (t, p) = example1();
        let opts = SamOptions::with_samples(60_000, 7);
        let out = sky_sam(&t, &p, ObjectId(0), opts).unwrap();
        assert!(
            (out.estimate - 3.0 / 16.0).abs() < 0.006,
            "estimate {} vs exact 0.1875",
            out.estimate
        );
    }

    #[test]
    fn handles_dependence_that_breaks_sac() {
        // Observation fixture: truth 1/2, Sac says 3/8.
        let t = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        let out = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(60_000, 3)).unwrap();
        assert!((out.estimate - 0.5).abs() < 0.007, "estimate {}", out.estimate);
    }

    #[test]
    fn deterministic_per_seed() {
        let (t, p) = example1();
        let a = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(500, 42)).unwrap();
        let b = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(500, 42)).unwrap();
        let c = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(500, 43)).unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.coin_draws, b.coin_draws);
        // Different seed almost surely differs somewhere in the counters.
        assert!(a.skyline_hits != c.skyline_hits || a.coin_draws != c.coin_draws);
    }

    #[test]
    fn lazy_sampling_draws_fewer_coins_than_eager() {
        let (t, p) = example1();
        let lazy = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(2000, 5)).unwrap();
        let eager = sky_sam(
            &t,
            &p,
            ObjectId(0),
            SamOptions { lazy: false, ..SamOptions::with_samples(2000, 5) },
        )
        .unwrap();
        assert!(lazy.coin_draws < eager.coin_draws);
        assert_eq!(eager.coin_draws, 2000 * 4, "eager draws every coin every world");
        // Both remain unbiased.
        assert!((lazy.estimate - 0.1875).abs() < 0.03);
        assert!((eager.estimate - 0.1875).abs() < 0.03);
    }

    #[test]
    fn sorted_checking_refutes_earlier() {
        let (t, p) = example1();
        let sorted = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(4000, 9)).unwrap();
        let unsorted = sky_sam(
            &t,
            &p,
            ObjectId(0),
            SamOptions { sort_checking: false, ..SamOptions::with_samples(4000, 9) },
        )
        .unwrap();
        // In Example 1 the unsorted order begins with Q1 (prob 1/4) while
        // the sorted order begins with Q2/Q4 (prob 1/2): sorted should
        // terminate dominated worlds with fewer attacker checks on average.
        assert!(
            sorted.attacker_checks < unsorted.attacker_checks,
            "{} vs {}",
            sorted.attacker_checks,
            unsorted.attacker_checks
        );
    }

    #[test]
    fn degenerate_preferences_give_exact_zero_or_one() {
        // An attacker with all coins at probability 1 dominates always.
        let view = CoinView::from_parts(vec![1.0, 1.0], vec![vec![0, 1]]).unwrap();
        let out = sky_sam_view(&view, SamOptions::with_samples(100, 0)).unwrap();
        assert_eq!(out.estimate, 0.0);
        // No attackers: always a skyline point.
        let empty = CoinView::from_parts(vec![], vec![]).unwrap();
        let out = sky_sam_view(&empty, SamOptions::with_samples(100, 0)).unwrap();
        assert_eq!(out.estimate, 1.0);
    }

    #[test]
    fn hoeffding_constructor_matches_bound() {
        let opts = SamOptions::hoeffding(0.01, 0.01, 0).unwrap();
        assert_eq!(opts.samples, 26_492);
        assert!(SamOptions::hoeffding(0.0, 0.01, 0).is_err());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_views() {
        // One scratch threaded through runs on different views (different
        // coin counts) must reproduce the allocating form exactly.
        let (t, p) = example1();
        let views = [
            CoinView::build(&t, &p, ObjectId(0)).unwrap(),
            CoinView::from_parts(vec![0.3, 0.8, 0.5], vec![vec![0, 1], vec![2]]).unwrap(),
            CoinView::from_parts(vec![0.9], vec![vec![0]]).unwrap(),
        ];
        let mut scratch = SamScratch::default();
        for round in 0..3 {
            for (v, view) in views.iter().enumerate() {
                let opts = SamOptions::with_samples(400, 11 + v as u64);
                let fresh = sky_sam_view(view, opts).unwrap();
                let reused = sky_sam_view_with(view, opts, &mut scratch).unwrap();
                assert_eq!(fresh.estimate.to_bits(), reused.estimate.to_bits());
                assert_eq!(fresh.skyline_hits, reused.skyline_hits, "round {round} view {v}");
                assert_eq!(fresh.coin_draws, reused.coin_draws);
                assert_eq!(fresh.attacker_checks, reused.attacker_checks);
            }
        }
    }

    #[test]
    fn zero_samples_rejected() {
        let view = CoinView::from_parts(vec![0.5], vec![vec![0]]).unwrap();
        assert!(matches!(
            sky_sam_view(&view, SamOptions::with_samples(0, 0)),
            Err(ApproxError::ZeroSamples)
        ));
    }

    #[test]
    fn partial_final_blocks_have_exact_denominators() {
        // samples % 64 ∈ {1, 63, 0, 1, 0}: dead lanes of the final block
        // must be masked out of the hit count AND the telemetry.
        let view = CoinView::from_parts(vec![0.5, 0.3], vec![vec![0], vec![0, 1]]).unwrap();
        for m in [1u64, 63, 64, 65, 128] {
            let out = sky_sam_view(&view, SamOptions::with_samples(m, 7)).unwrap();
            assert_eq!(out.samples, m);
            assert!(out.skyline_hits <= m);
            assert_eq!(out.estimate, out.skyline_hits as f64 / m as f64, "m = {m}");
            // Lane-exact telemetry: eager mode draws exactly m × n_coins,
            // and no more than n_attackers checks can happen per world.
            let eager =
                sky_sam_view(&view, SamOptions { lazy: false, ..SamOptions::with_samples(m, 7) })
                    .unwrap();
            assert_eq!(eager.coin_draws, m * 2, "m = {m}");
            assert!(out.attacker_checks <= m * 2);
        }
    }

    #[test]
    fn kernel_estimates_do_not_depend_on_lazy_mode_or_scratch_history() {
        // Counter-based seeding: masks are pure functions of
        // (seed, block, coin), so lazy and eager runs agree bit-for-bit
        // and scratch reuse cannot perturb the stream.
        let (t, p) = example1();
        let view = CoinView::build(&t, &p, ObjectId(0)).unwrap();
        let opts = SamOptions::with_samples(1000, 3);
        let lazy = sky_sam_view(&view, opts).unwrap();
        let eager = sky_sam_view(&view, SamOptions { lazy: false, ..opts }).unwrap();
        assert_eq!(lazy.skyline_hits, eager.skyline_hits);
        assert_eq!(lazy.estimate.to_bits(), eager.estimate.to_bits());
        let mut scratch = SamScratch::default();
        let warm = sky_sam_view_with(&view, opts, &mut scratch).unwrap();
        let again = sky_sam_view_with(&view, opts, &mut scratch).unwrap();
        assert_eq!(warm.skyline_hits, lazy.skyline_hits);
        assert_eq!(again.skyline_hits, lazy.skyline_hits);
    }

    #[test]
    fn scalar_and_bit_parallel_agree_statistically() {
        let (t, p) = example1();
        let m = 60_000;
        let scalar = sky_sam(
            &t,
            &p,
            ObjectId(0),
            SamOptions { bit_parallel: false, ..SamOptions::with_samples(m, 21) },
        )
        .unwrap();
        let vector = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(m, 21)).unwrap();
        assert!(
            (scalar.estimate - vector.estimate).abs() < 0.01,
            "scalar {} vs bit-parallel {}",
            scalar.estimate,
            vector.estimate
        );
    }

    #[test]
    fn predicted_cost_reflects_the_64x_lane_batching() {
        let vector = SamOptions::with_samples(6400, 0);
        let scalar = SamOptions { bit_parallel: false, ..vector };
        assert!(vector.predicted_cost(10, 10) * 8 < scalar.predicted_cost(10, 10));
    }

    #[test]
    fn shared_coin_is_drawn_once_per_world() {
        // Two attackers sharing one coin: lazily at most 1 draw for the
        // shared coin per world even when both attackers are checked.
        let view = CoinView::from_parts(vec![0.0, 0.9], vec![vec![0, 1], vec![0]]).unwrap();
        let out = sky_sam_view(&view, SamOptions::with_samples(1000, 1)).unwrap();
        // Coin 0 never wins, so every world checks both attackers but coin
        // 0 is drawn exactly once per world thanks to the stamp cache.
        // Checking sequence sorts attacker 1 ({0}, prob 0) after attacker 0
        // ({0,1}, prob 0)? Both probs 0 — order irrelevant; the world draws
        // coin 0 once, maybe coin 1 once.
        assert!(out.coin_draws <= 2 * 1000);
        assert_eq!(out.estimate, 1.0);
    }
}
