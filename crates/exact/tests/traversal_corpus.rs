//! Pins the exact traversal's output bits to a recorded digest.
//!
//! The other `det` tests compare the solver's paths with each other (mask
//! against counters, gradient against value), so a change that moved every
//! path's rounding alike would pass all of them. This test hashes the sky
//! bits, joint counts and gradient bits of a fixed corpus of random clause
//! systems and compares the hash with a recorded value. The corpus covers
//! both coin regimes (≤ 64 coins on the bitset path, > 64 on the
//! multiplicity counters), all four `prune_zero`/`prune_covered` settings,
//! repeated solves of 17–19-attacker systems, joint-capped solves (which
//! pin the rule for when a cap trips) and the gradient.
//!
//! The digest was recorded when the traversal still had a within-component
//! parallel path, which solved each large system at 1, 2 and 4 threads.
//! The serial walk now solves it three times and reproduces the digest, so
//! those parallel solves returned the serial bits.
//!
//! If a change to the traversal is meant to move bits, the failure message
//! prints the new digest; re-recording it is a deliberate, reviewed step.

use presky_core::coins::CoinView;
use presky_exact::det::{sky_det_grad_view_with, sky_det_view_with, DetOptions, DetScratch};

/// Digest of the corpus below, recorded before the traversal's six DFS
/// bodies were folded into one generic walk, and unchanged since.
const RECORDED_DIGEST: u64 = 0x6931_be0e_d141_19f4;

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

    /// A coin probability: exactly 0 or 1 now and then (so zero products
    /// and certain coins occur), otherwise a full 53-bit fraction.
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

/// `n` attackers of 1–4 coins drawn from `hot` coin ids spread over `m`
/// coins: a small hot set makes coins shared, so absorption-free overlap,
/// covered attackers and saturated products all occur.
fn system(rng: &mut Rng, n: usize, m: usize, hot: usize) -> CoinView {
    let probs: Vec<f64> = (0..m).map(|_| rng.prob()).collect();
    let ids: Vec<u32> = (0..hot).map(|_| rng.below(m as u64) as u32).collect();
    let clauses: Vec<Vec<u32>> = (0..n)
        .map(|_| (0..1 + rng.below(4)).map(|_| ids[rng.below(hot as u64) as usize]).collect())
        .collect();
    CoinView::from_parts(probs, clauses).expect("valid system")
}

const PRUNES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn hash_solve(d: &mut Digest, view: &CoinView, opts: DetOptions, scratch: &mut DetScratch) {
    match sky_det_view_with(view, opts, scratch) {
        Ok(out) => {
            d.word(out.sky.to_bits());
            d.word(out.joints_computed);
        }
        Err(e) => panic!("uncapped solve failed: {e}"),
    }
}

fn hash_grad(d: &mut Digest, view: &CoinView, opts: DetOptions, scratch: &mut DetScratch) {
    let mut grad = Vec::new();
    let out = sky_det_grad_view_with(view, opts, scratch, &mut grad).expect("gradient solve");
    d.word(out.sky.to_bits());
    d.word(out.joints_computed);
    d.word(grad.len() as u64);
    for g in grad {
        d.word(g.to_bits());
    }
}

fn corpus_digest() -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut rng = Rng(0x0005_eed0_fd37);
    let mut scratch = DetScratch::default();
    // Small systems: every prune setting, value and gradient, both regimes.
    for case in 0..2000 {
        let wide = case % 2 == 1;
        let n = 1 + rng.below(14) as usize;
        let m = if wide { 65 + rng.below(40) as usize } else { 2 + rng.below(40) as usize };
        let hot = 2 + rng.below(10) as usize;
        let view = system(&mut rng, n, m, hot);
        assert_eq!(view.n_coins() > 64, wide);
        for (prune_zero, prune_covered) in PRUNES {
            let opts =
                DetOptions::default().with_prune_zero(prune_zero).with_prune_covered(prune_covered);
            hash_solve(&mut d, &view, opts, &mut scratch);
            hash_grad(&mut d, &view, opts, &mut scratch);
        }
    }
    // Larger systems: three solves (which must give the same bits), the
    // gradient, and joint-capped solves.
    for case in 0..12 {
        let wide = case % 2 == 1;
        let n = 17 + rng.below(3) as usize;
        let m = if wide { 70 + rng.below(30) as usize } else { 20 + rng.below(40) as usize };
        let view = system(&mut rng, n, m, 24);
        assert_eq!(view.n_coins() > 64, wide);
        for (prune_zero, prune_covered) in PRUNES {
            let opts =
                DetOptions::default().with_prune_zero(prune_zero).with_prune_covered(prune_covered);
            for _ in 0..3 {
                hash_solve(&mut d, &view, opts, &mut scratch);
            }
            hash_grad(&mut d, &view, opts, &mut scratch);
            for cap in [500, 20_000] {
                match sky_det_view_with(&view, opts.with_max_joints(Some(cap)), &mut scratch) {
                    Ok(out) => {
                        d.word(out.sky.to_bits());
                        d.word(out.joints_computed);
                    }
                    Err(presky_exact::error::ExactError::JointBudgetExceeded {
                        joints_computed,
                        max,
                    }) => {
                        d.word(u64::MAX);
                        d.word(joints_computed);
                        d.word(max);
                    }
                    Err(e) => panic!("capped solve failed otherwise: {e}"),
                }
            }
        }
    }
    d.0
}

#[test]
fn traversal_bits_match_the_recorded_digest() {
    let digest = corpus_digest();
    assert_eq!(digest, RECORDED_DIGEST, "traversal digest moved: now {digest:#018x}");
}
