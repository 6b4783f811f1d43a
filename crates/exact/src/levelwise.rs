//! The literal, layer-at-a-time formulation of Algorithm 1.
//!
//! Algorithm 1 in the paper proceeds level by level: "compute all `C(n,k)`
//! joint probabilities `Pr(E_I)` where `|I| = k` from the already computed
//! `C(n, k−1)` probabilities". This module implements exactly that, with the
//! `O(d)` sharing trick realised through per-coin *owner bitmasks*: coin `c`
//! is already contributed by subset `I'` iff `owners[c] & I' ≠ 0`.
//!
//! The layered scheme needs `O(C(n, ⌈n/2⌉))` memory for the widest layer,
//! which is why [`crate::det`] (depth-first, `O(n + m)` memory, identical
//! arithmetic) is the production engine. Levelwise earns its keep twice
//! over: as a fidelity check that the paper's Algorithm 1 is implemented
//! as published, and as the machinery behind the A2 *truncated*
//! inclusion–exclusion approximation of Figure 6(b), which needs the terms
//! in exactly this order.

use std::time::{Duration, Instant};

use presky_core::coins::CoinView;

use crate::det::{DetOptions, DetOutcome, CHECK_EVERY};
use crate::error::{ExactError, Result};

/// Per-coin bitmask of owning attackers (bit `i` set iff attacker `i`'s
/// conjunction contains the coin). Requires `n ≤ 64`.
fn owner_masks(view: &CoinView) -> Result<Vec<u64>> {
    let n = view.n_attackers();
    if n > 64 {
        return Err(ExactError::MaskWidthExceeded { n });
    }
    let mut owners = vec![0u64; view.n_coins()];
    for i in 0..n {
        for &k in view.attacker_coins(i) {
            owners[k as usize] |= 1u64 << i;
        }
    }
    Ok(owners)
}

/// Extend `Pr(E_{I'})` with attacker `i`: multiply in the coins of `i` not
/// already owned by any attacker of `I'` — the `O(d)` sharing step.
#[inline]
fn extend(view: &CoinView, owners: &[u64], mask: u64, prob: f64, i: usize) -> f64 {
    let mut p = prob;
    for &k in view.attacker_coins(i) {
        if owners[k as usize] & mask == 0 {
            p *= view.coin_prob(k);
        }
    }
    p
}

/// Full levelwise evaluation — Algorithm 1 verbatim.
pub fn sky_levelwise(view: &CoinView, opts: DetOptions) -> Result<DetOutcome> {
    let start = Instant::now();
    let n = view.n_attackers();
    if n > opts.max_attackers {
        return Err(ExactError::TooManyAttackers { n, max: opts.max_attackers });
    }
    let owners = owner_masks(view)?;
    let mut acc = 1.0;
    let mut joints = 0u64;
    // Layer k = 1.
    let mut layer: Vec<(u64, f64)> = (0..n).map(|i| (1u64 << i, view.attacker_prob(i))).collect();
    joints += layer.len() as u64;
    let mut sign = -1.0;
    acc += sign * layer.iter().map(|&(_, p)| p).sum::<f64>();

    for _k in 2..=n {
        check_deadline(start, opts.deadline, joints)?;
        let mut next: Vec<(u64, f64)> = Vec::new();
        for &(mask, prob) in &layer {
            // Extend only with indices above the highest set bit so each
            // subset is produced exactly once, from exactly one parent —
            // the computational sequence of the paper's Figure 5.
            let top = 63 - mask.leading_zeros() as usize;
            for i in (top + 1)..n {
                let p = extend(view, &owners, mask, prob, i);
                next.push((mask | (1 << i), p));
            }
        }
        if next.is_empty() {
            break;
        }
        joints += next.len() as u64;
        sign = -sign;
        acc += sign * next.iter().map(|&(_, p)| p).sum::<f64>();
        layer = next;
    }
    Ok(DetOutcome { sky: acc, joints_computed: joints, elapsed: start.elapsed() })
}

/// Partial (budgeted) levelwise evaluation — the engine of the A2
/// approximation.
///
/// Computes joint probabilities in levelwise order until `max_joints` terms
/// have been added, then stops mid-layer. Returns the truncated
/// inclusion–exclusion sum, the number of joints actually computed, and
/// whether the evaluation ran to completion (in which case the sum is
/// exact).
pub fn sky_levelwise_partial(view: &CoinView, max_joints: u64) -> Result<(f64, u64, bool)> {
    let n = view.n_attackers();
    let owners = owner_masks(view)?;
    let mut acc = 1.0;
    let mut joints = 0u64;
    let mut layer: Vec<(u64, f64)> = Vec::with_capacity(n);
    let mut sign = -1.0;
    for i in 0..n {
        if joints >= max_joints {
            return Ok((acc, joints, false));
        }
        let p = view.attacker_prob(i);
        layer.push((1u64 << i, p));
        acc += sign * p;
        joints += 1;
    }
    for _k in 2..=n {
        sign = -sign;
        let mut next: Vec<(u64, f64)> = Vec::new();
        for &(mask, prob) in &layer {
            let top = 63 - mask.leading_zeros() as usize;
            for i in (top + 1)..n {
                if joints >= max_joints {
                    return Ok((acc, joints, false));
                }
                let p = extend(view, &owners, mask, prob, i);
                next.push((mask | (1 << i), p));
                acc += sign * p;
                joints += 1;
            }
        }
        if next.is_empty() {
            break;
        }
        layer = next;
    }
    Ok((acc, joints, true))
}

/// Budgeted levelwise evaluation for instances beyond the 64-attacker mask
/// width — the engine of the Figure 6(b) experiment, where A2 runs on a
/// thousand objects.
///
/// Subsets are enumerated per level in lexicographic order and each
/// `Pr(E_I)` is computed directly from a stamped coin-union buffer in
/// `O(|I| · d)`; no layer is materialised, so memory stays `O(n + m)` at
/// the price of losing the `O(d)` sharing (acceptable: A2 budgets bound the
/// number of subsets touched, and A2 exists to be shown inadequate).
pub fn sky_levelwise_partial_big(view: &CoinView, max_joints: u64) -> (f64, u64, bool) {
    partial_big_until(view, max_joints, None)
        .unwrap_or_else(|_| unreachable!("only a deadline stops the enumeration early"))
}

/// [`sky_levelwise_partial_big`] under an absolute deadline, checked every
/// [`CHECK_EVERY`] joints: once it has passed, the enumeration stops with
/// [`ExactError::DeadlineExceeded`], so overshoot is bounded by one chunk.
pub(crate) fn partial_big_until(
    view: &CoinView,
    max_joints: u64,
    deadline_at: Option<Instant>,
) -> Result<(f64, u64, bool)> {
    let start = Instant::now();
    let n = view.n_attackers();
    let mut acc = 1.0;
    let mut joints = 0u64;
    let mut stamp = vec![0u64; view.n_coins()];
    let mut tick = 0u64;
    for k in 1..=n {
        let sign = if k % 2 == 1 { -1.0 } else { 1.0 };
        // Lexicographic k-combinations of 0..n.
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            if joints >= max_joints {
                return Ok((acc, joints, false));
            }
            // Pr(E_I): product over the distinct coins of the subset.
            tick += 1;
            let mut p = 1.0;
            for &i in &idx {
                for &c in view.attacker_coins(i) {
                    if stamp[c as usize] != tick {
                        stamp[c as usize] = tick;
                        p *= view.coin_prob(c);
                    }
                }
            }
            acc += sign * p;
            joints += 1;
            if joints.is_multiple_of(CHECK_EVERY)
                && deadline_at.is_some_and(|at| Instant::now() >= at)
            {
                let elapsed = start.elapsed();
                return Err(ExactError::DeadlineExceeded { elapsed, joints_computed: joints });
            }
            // Advance to the next lexicographic combination, or end the
            // level when every index is at its maximum.
            let mut advanced = false;
            for pos in (0..k).rev() {
                if idx[pos] != pos + n - k {
                    idx[pos] += 1;
                    for q in (pos + 1)..k {
                        idx[q] = idx[q - 1] + 1;
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
    }
    Ok((acc, joints, true))
}

fn check_deadline(start: Instant, deadline: Option<Duration>, joints: u64) -> Result<()> {
    if let Some(d) = deadline {
        if start.elapsed() > d {
            return Err(ExactError::DeadlineExceeded {
                elapsed: start.elapsed(),
                joints_computed: joints,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PairLaw, PrefPair, SeededPreferences, TablePreferences};
    use presky_core::table::Table;
    use presky_core::types::ObjectId;

    use super::*;
    use crate::det::sky_det_view;

    fn example1_view() -> CoinView {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        CoinView::build(&t, &p, ObjectId(0)).unwrap()
    }

    #[test]
    fn example1_value_and_work() {
        let out = sky_levelwise(&example1_view(), DetOptions::default()).unwrap();
        assert!((out.sky - 3.0 / 16.0).abs() < 1e-12);
        assert_eq!(out.joints_computed, 15);
    }

    #[test]
    fn agrees_with_dfs_engine_on_random_instances() {
        for seed in 0..25u64 {
            let n = 2 + (seed % 6) as usize;
            let d = 1 + (seed % 3) as usize;
            let rows: Vec<Vec<u32>> = (0..=n)
                .map(|i| {
                    (0..d).map(|j| ((i as u64 * 13 + j as u64 * 5 + seed * 3) % 4) as u32).collect()
                })
                .collect();
            let Ok(t) = Table::from_rows_raw(d, &rows) else { continue };
            if t.find_duplicate().is_some() {
                continue;
            }
            let prefs = SeededPreferences::new(seed, PairLaw::Complementary);
            let view = CoinView::build(&t, &prefs, ObjectId(0)).unwrap();
            let a = sky_det_view(&view, DetOptions::default()).unwrap();
            let b = sky_levelwise(&view, DetOptions::default()).unwrap();
            assert!((a.sky - b.sky).abs() < 1e-9, "seed {seed}");
            assert_eq!(a.joints_computed, b.joints_computed, "same lattice, same work");
        }
    }

    #[test]
    fn partial_with_infinite_budget_is_exact() {
        let view = example1_view();
        let (sum, joints, complete) = sky_levelwise_partial(&view, u64::MAX).unwrap();
        assert!(complete);
        assert_eq!(joints, 15);
        assert!((sum - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn partial_truncation_reproduces_bonferroni_layers() {
        // Truncating after level 1 gives 1 − Σ Pr(e_i) = 1 − 3/2 = −1/2:
        // the Figure 6(b) phenomenon — truncated sums can leave [0, 1].
        let view = example1_view();
        let (sum, joints, complete) = sky_levelwise_partial(&view, 4).unwrap();
        assert!(!complete);
        assert_eq!(joints, 4);
        assert!((sum - (1.0 - 1.5)).abs() < 1e-12, "got {sum}");
        // After level 2 (4 + 6 = 10 joints): 1 − 3/2 + 17/16 = 9/16.
        let (sum2, j2, c2) = sky_levelwise_partial(&view, 10).unwrap();
        assert!(!c2);
        assert_eq!(j2, 10);
        assert!((sum2 - 9.0 / 16.0).abs() < 1e-12, "got {sum2}");
    }

    #[test]
    fn big_variant_agrees_with_masked_variant() {
        let view = example1_view();
        for budget in [0u64, 1, 4, 7, 10, 13, 15, 100] {
            let (a, ja, ca) = sky_levelwise_partial(&view, budget).unwrap();
            let (b, jb, cb) = sky_levelwise_partial_big(&view, budget);
            assert_eq!(ja, jb, "budget {budget}");
            assert_eq!(ca, cb, "budget {budget}");
            assert!((a - b).abs() < 1e-12, "budget {budget}: {a} vs {b}");
        }
    }

    #[test]
    fn big_variant_handles_more_than_64_attackers() {
        let view = CoinView::from_parts(vec![0.5; 70], (0..70).map(|i| vec![i]).collect()).unwrap();
        let (sum, joints, complete) = sky_levelwise_partial_big(&view, 70);
        assert_eq!(joints, 70);
        assert!(!complete);
        // Level 1 only: 1 − 70 · 0.5 = −34.
        assert!((sum - (1.0 - 35.0)).abs() < 1e-12);
        // Exhaustive on a small instance recovers the exact value.
        let small = CoinView::from_parts(vec![0.3, 0.7], vec![vec![0], vec![1]]).unwrap();
        let (sum, _, complete) = sky_levelwise_partial_big(&small, u64::MAX);
        assert!(complete);
        assert!((sum - 0.7 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn mask_width_is_enforced() {
        let view = CoinView::from_parts(vec![0.1; 70], (0..70).map(|i| vec![i]).collect()).unwrap();
        let err = sky_levelwise(&view, DetOptions { max_attackers: 100, ..DetOptions::default() })
            .unwrap_err();
        assert!(matches!(err, ExactError::MaskWidthExceeded { n: 70 }));
    }

    #[test]
    fn empty_and_single_attacker_edges() {
        let empty = CoinView::from_parts(vec![], vec![]).unwrap();
        assert_eq!(sky_levelwise(&empty, DetOptions::default()).unwrap().sky, 1.0);
        let single = CoinView::from_parts(vec![0.4], vec![vec![0]]).unwrap();
        let out = sky_levelwise(&single, DetOptions::default()).unwrap();
        assert!((out.sky - 0.6).abs() < 1e-12);
        assert_eq!(out.joints_computed, 1);
    }
}
