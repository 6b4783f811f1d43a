//! Pins the Monte-Carlo estimators' output bits to a recorded digest.
//!
//! The other sampler tests compare estimates with the truth or with each
//! other within a statistical band, so a change that moved the sampled
//! worlds but kept the estimator unbiased would pass all of them. This test
//! hashes the outputs of a fixed corpus and compares the hash with a
//! recorded value:
//!
//! * `Sam` through the bit-parallel kernel, lazy or eager × sorted or
//!   unsorted checking, and through the scalar world-at-a-time loop:
//!   estimate bits, skyline hits, coin draws and attacker checks;
//! * the sequential threshold test at three τ: decision, worlds used and
//!   running-estimate bits;
//! * Karp–Luby: estimate, union-estimate and total-mass bits.
//!
//! The corpus is the paper's fixtures (Example 1 and the Observation, every
//! target) plus seeded clause systems with at most 64 and with more than 64
//! coins, some coins at probability exactly 0 or 1. Every run uses each
//! budget in {1, 63, 64, 65, 255, 257, 3000}, so partial 64-world words and
//! partial 256-world superblocks both occur. One `SamScratch` serves every
//! run, so scratch reuse is pinned too.
//!
//! If a change is meant to move these bits, the failure message prints the
//! new digest; re-recording it is a deliberate, reviewed step.

use presky_approx::karp_luby::{sky_karp_luby_view, KarpLubyOptions};
use presky_approx::sampler::{sky_sam_view_with, SamOptions, SamScratch};
use presky_approx::sprt::{sky_threshold_test_view, SprtOptions, ThresholdDecision};
use presky_core::coins::CoinView;
use presky_core::preference::{PrefPair, TablePreferences};
use presky_core::table::Table;
use presky_core::types::ObjectId;

/// Digest of the corpus below, recorded while the kernel still offered
/// lane widths of 1, 2, 4 and 8 words (at its default of 4).
const RECORDED_DIGEST: u64 = 0x2d32_322b_bb20_139a;

/// Sample budgets: partial and full 64-world words, partial and full
/// 256-world superblocks, and the paper's 3000.
const BUDGETS: [u64; 7] = [1, 63, 64, 65, 255, 257, 3000];

/// Thresholds of the sequential test: below, near and above most truths.
const TAUS: [f64; 3] = [0.1, 0.5, 0.9];

/// xorshift64: a fixed, dependency-free stream so the corpus never drifts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A coin probability: exactly 0 or 1 now and then, otherwise a full
    /// 53-bit fraction.
    fn prob(&mut self) -> f64 {
        match self.below(12) {
            0 => 0.0,
            1 => 1.0,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64,
        }
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every target of Example 1 (Fig. 1–2) and of the Observation of
/// Section 1, all pairwise value preferences one half.
fn paper_fixtures() -> Vec<CoinView> {
    let prefs = TablePreferences::with_default(PrefPair::half());
    let example1 =
        Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
            .unwrap();
    let observation = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
    let mut views = Vec::new();
    for table in [&example1, &observation] {
        for o in 0..table.len() {
            views.push(CoinView::build(table, &prefs, ObjectId(o as u32)).unwrap());
        }
    }
    views
}

/// `n` attackers of 1–4 coins drawn from `hot` coin ids spread over `m`
/// coins: a small hot set makes attackers share coins.
fn system(rng: &mut Rng, n: usize, m: usize, hot: usize) -> CoinView {
    let probs: Vec<f64> = (0..m).map(|_| rng.prob()).collect();
    let ids: Vec<u32> = (0..hot).map(|_| rng.below(m as u64) as u32).collect();
    let clauses: Vec<Vec<u32>> = (0..n)
        .map(|_| (0..1 + rng.below(4)).map(|_| ids[rng.below(hot as u64) as usize]).collect())
        .collect();
    CoinView::from_parts(probs, clauses).expect("valid system")
}

fn corpus() -> Vec<CoinView> {
    let mut views = paper_fixtures();
    views.push(CoinView::from_parts(vec![], vec![]).unwrap());
    let mut rng = Rng(0x5a3b_1e5e_ed00_c0de);
    for case in 0..24 {
        let wide = case % 2 == 1;
        let n = 1 + rng.below(24) as usize;
        let m = if wide { 65 + rng.below(40) as usize } else { 2 + rng.below(40) as usize };
        let hot = 2 + rng.below(12) as usize;
        let view = system(&mut rng, n, m, hot);
        assert_eq!(view.n_coins() > 64, wide);
        views.push(view);
    }
    views
}

fn corpus_digest() -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut scratch = SamScratch::default();
    for (v, view) in corpus().iter().enumerate() {
        for (b, &m) in BUDGETS.iter().enumerate() {
            let seed = (v * BUDGETS.len() + b) as u64;
            for bit_parallel in [true, false] {
                for lazy in [true, false] {
                    for sort_checking in [true, false] {
                        let opts = SamOptions::with_samples(m, seed)
                            .with_bit_parallel(bit_parallel)
                            .with_lazy(lazy)
                            .with_sort_checking(sort_checking);
                        let out = sky_sam_view_with(view, opts, &mut scratch).unwrap();
                        d.word(out.estimate.to_bits());
                        d.word(out.skyline_hits);
                        d.word(out.coin_draws);
                        d.word(out.attacker_checks);
                    }
                }
            }
            for tau in TAUS {
                let opts = SprtOptions::default().with_max_samples(m).with_seed(seed);
                let out = sky_threshold_test_view(view, tau, opts).unwrap();
                d.word(match out.decision {
                    ThresholdDecision::AtLeast => 1,
                    ThresholdDecision::Below => 2,
                    ThresholdDecision::Undecided => 3,
                });
                d.word(out.samples_used);
                d.word(out.estimate.to_bits());
            }
            let opts = KarpLubyOptions::default().with_samples(m).with_seed(seed);
            let out = sky_karp_luby_view(view, opts).unwrap();
            d.word(out.estimate.to_bits());
            d.word(out.union_estimate.to_bits());
            d.word(out.total_mass.to_bits());
        }
    }
    d.0
}

#[test]
fn sampling_bits_match_the_recorded_digest() {
    let digest = corpus_digest();
    assert_eq!(digest, RECORDED_DIGEST, "sampling digest moved: now {digest:#018x}");
}
