//! Cheap deterministic bounds on `sky(O)`.
//!
//! Two families, both free of the exponential lattice walk:
//!
//! * **Bonferroni brackets** — truncating Equation 4 after a full level
//!   `k` yields a lower bound for odd `k` and an upper bound for even `k`
//!   (the classical Bonferroni inequalities applied to the complement
//!   union). Level 1 costs `O(n·d)`, level 2 `O(n²·d)`.
//! * **Correlation bounds** — the dominance events are increasing
//!   functions of independent coins, so by the Harris/FKG inequality they
//!   are positively associated:
//!
//!   ```text
//!   Π_i (1 − Pr(e_i))   ≤   sky(O)   ≤   min_i (1 − Pr(e_i)).
//!   ```
//!
//!   The lower bound is exactly the (generally wrong) `Sac` value — wrong
//!   as an estimate, but always *sound as a bound*, and tight when
//!   attackers are value-disjoint.
//!
//! **Per component.** The independence components of a prepared view
//! (Theorem 4) have independent dominance events, so `sky` is the product
//! of the components' factors and the product of their cheap brackets
//! ([`sky_bounds_cheap_subset`] on each component) encloses it:
//!
//! ```text
//! Π_g lower_g   ≤   sky(O)   ≤   Π_g upper_g.
//! ```
//!
//! The product costs the same `O(n·d)` as the whole-view bracket and is
//! never looser. Below, each `lower_g` is at least its component's FKG
//! product, so `Π_g lower_g` is at least the whole view's FKG product,
//! which already dominates `1 − Σ_i Pr(e_i)`. Above, each `upper_g ≤ 1`,
//! so `Π_g upper_g ≤ min_g upper_g`.
//!
//! The query layer uses these to resolve threshold membership without
//! sampling: an object whose upper bound is below τ (or lower bound above)
//! is decided outright — first from the per-component product, then from
//! the whole-view Bonferroni bracket.

use presky_core::coins::CoinView;

use crate::error::Result;
use crate::levelwise::sky_levelwise_partial_big;

/// A certified enclosure `lower ≤ sky ≤ upper`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyBounds {
    /// Certified lower bound.
    pub lower: f64,
    /// Certified upper bound.
    pub upper: f64,
}

impl SkyBounds {
    /// Width of the enclosure.
    pub fn width(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }

    /// Whether the enclosure proves `sky ≥ tau`.
    pub fn certainly_at_least(&self, tau: f64) -> bool {
        self.lower >= tau
    }

    /// Whether the enclosure proves `sky < tau`.
    pub fn certainly_below(&self, tau: f64) -> bool {
        self.upper < tau
    }
}

/// Cheap `O(n·d)` bounds: FKG product and level-1 Bonferroni below,
/// minimum complement above.
pub fn sky_bounds_cheap(view: &CoinView) -> SkyBounds {
    sky_bounds_cheap_subset(view, 0..view.n_attackers())
}

/// [`sky_bounds_cheap`] over the sub-instance of the given `attackers` of
/// `view`, visited in the order given — for example one independence
/// component (Theorem 4) of a prepared view, without restricting it into
/// a sub-view first. The whole-view function is this one over `0..n`, so
/// both produce the same bits on the same attackers.
///
/// An empty subset has no dominance event: `sky = 1` at both ends. A
/// single attacker's bracket is `1 − Pr(e)` at both ends.
pub fn sky_bounds_cheap_subset(
    view: &CoinView,
    attackers: impl IntoIterator<Item = usize>,
) -> SkyBounds {
    let mut product = 1.0;
    let mut sum = 0.0;
    let mut min_complement = 1.0f64;
    for i in attackers {
        let p = view.attacker_prob(i);
        product *= 1.0 - p;
        sum += p;
        min_complement = min_complement.min(1.0 - p);
    }
    SkyBounds { lower: product.max(1.0 - sum).max(0.0), upper: min_complement.min(1.0) }
}

/// Bonferroni bounds through full level `max_level` (each level `k` costs
/// `C(n, k)` joint probabilities — keep `max_level ≤ 3` on big instances).
/// The result is intersected with the cheap correlation bounds.
pub fn sky_bounds_bonferroni(view: &CoinView, max_level: usize) -> Result<SkyBounds> {
    let mut bounds = sky_bounds_cheap(view);
    let n = view.n_attackers();
    let mut joints_through_level = 0u64;
    for k in 1..=max_level.min(n) {
        joints_through_level = joints_through_level.saturating_add(binomial(n, k));
        let (partial, _, complete) = sky_levelwise_partial_big(view, joints_through_level);
        if complete {
            // The truncation covered the whole lattice: exact value.
            return Ok(SkyBounds { lower: partial, upper: partial });
        }
        if k % 2 == 1 {
            bounds.lower = bounds.lower.max(partial);
        } else {
            bounds.upper = bounds.upper.min(partial);
        }
    }
    // Numerical guard: Bonferroni partials can be slightly crossed by
    // floating error on near-degenerate instances.
    if bounds.lower > bounds.upper {
        let mid = 0.5 * (bounds.lower + bounds.upper);
        bounds = SkyBounds { lower: mid, upper: mid };
    }
    Ok(bounds)
}

fn binomial(n: usize, k: usize) -> u64 {
    let mut r: u64 = 1;
    for i in 0..k {
        r = r.saturating_mul((n - i) as u64) / (i + 1) as u64;
    }
    r
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PrefPair, TablePreferences};
    use presky_core::table::Table;
    use presky_core::types::ObjectId;

    use super::*;
    use crate::det::{sky_det_view, DetOptions};
    use crate::partition::partition;

    fn example1_view() -> CoinView {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        CoinView::build(&t, &p, ObjectId(0)).unwrap()
    }

    #[test]
    fn cheap_bounds_enclose_example1() {
        let view = example1_view();
        let b = sky_bounds_cheap(&view);
        let exact = 3.0 / 16.0;
        assert!(b.lower <= exact && exact <= b.upper, "{b:?}");
        // FKG bound equals the Sac value 9/64 here, and dominates 1 − 3/2.
        assert!((b.lower - 9.0 / 64.0).abs() < 1e-12);
        assert!((b.upper - 0.5).abs() < 1e-12, "min complement is 1 − 1/2");
    }

    #[test]
    fn bonferroni_tightens_with_level() {
        let view = example1_view();
        let exact = 3.0 / 16.0;
        let mut last_width = f64::INFINITY;
        for level in 1..=4 {
            let b = sky_bounds_bonferroni(&view, level).unwrap();
            assert!(b.lower <= exact + 1e-12 && exact <= b.upper + 1e-12, "level {level}: {b:?}");
            assert!(b.width() <= last_width + 1e-12);
            last_width = b.width();
        }
        // Level 4 covers the whole lattice: exact.
        let b = sky_bounds_bonferroni(&view, 4).unwrap();
        assert!(b.width() < 1e-12);
    }

    #[test]
    fn bounds_enclose_truth_on_random_systems() {
        let mut s = 0xabcdu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..50 {
            let m = 3 + (next() % 4) as usize;
            let n = 1 + (next() % 6) as usize;
            let clauses: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mask = (next() % ((1 << m) - 1)) + 1;
                    (0..m as u32).filter(|&b| mask & (1 << b) != 0).collect()
                })
                .collect();
            let probs: Vec<f64> = (0..m).map(|_| (next() % 1001) as f64 / 1000.0).collect();
            let view = CoinView::from_parts(probs, clauses).unwrap();
            let exact = sky_det_view(&view, DetOptions::default()).unwrap().sky;
            let cheap = sky_bounds_cheap(&view);
            assert!(
                cheap.lower <= exact + 1e-9 && exact <= cheap.upper + 1e-9,
                "cheap {cheap:?} vs {exact}"
            );
            for level in 1..=3 {
                let b = sky_bounds_bonferroni(&view, level).unwrap();
                assert!(
                    b.lower <= exact + 1e-9 && exact <= b.upper + 1e-9,
                    "level {level}: {b:?} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn component_bracket_product_encloses_det_on_multi_component_systems() {
        let mut s = 0x5eedu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut singletons = 0;
        for _ in 0..200 {
            // Two to five blocks of coins; each block's attackers draw only
            // from its own coins, so no attacker spans two blocks.
            let blocks = 2 + (next() % 4) as usize;
            let mut probs = Vec::new();
            let mut clauses: Vec<Vec<u32>> = Vec::new();
            for _ in 0..blocks {
                let base = probs.len() as u32;
                let m = 1 + (next() % 4) as usize;
                probs.extend((0..m).map(|_| (next() % 1001) as f64 / 1000.0));
                for _ in 0..1 + next() % 4 {
                    let mask = (next() % ((1 << m) - 1)) + 1;
                    clauses.push(
                        (0..m as u32).filter(|&b| mask & (1 << b) != 0).map(|b| base + b).collect(),
                    );
                }
            }
            let view = CoinView::from_parts(probs, clauses).unwrap();
            let exact = sky_det_view(&view, DetOptions::default()).unwrap().sky;
            let groups = partition(&view);
            assert!(groups.len() >= 2 || view.n_attackers() < 2);
            let mut product = SkyBounds { lower: 1.0, upper: 1.0 };
            for g in &groups {
                let b = sky_bounds_cheap_subset(&view, g.iter().copied());
                if let [i] = g[..] {
                    let complement = (1.0 - view.attacker_prob(i)).to_bits();
                    assert_eq!((b.lower.to_bits(), b.upper.to_bits()), (complement, complement));
                    singletons += 1;
                }
                product =
                    SkyBounds { lower: product.lower * b.lower, upper: product.upper * b.upper };
            }
            assert!(
                product.lower <= exact + 1e-12 && exact <= product.upper + 1e-12,
                "{product:?} vs {exact}"
            );
            let whole = sky_bounds_cheap(&view);
            assert!(whole.lower <= product.lower + 1e-12 && product.upper <= whole.upper + 1e-12);
        }
        assert!(singletons > 0, "the corpus must contain singleton components");
    }

    #[test]
    fn threshold_predicates() {
        let b = SkyBounds { lower: 0.3, upper: 0.6 };
        assert!(b.certainly_at_least(0.25));
        assert!(!b.certainly_at_least(0.4));
        assert!(b.certainly_below(0.7));
        assert!(!b.certainly_below(0.5));
        assert!((b.width() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_instance_is_exact_one() {
        let view = CoinView::from_parts(vec![], vec![]).unwrap();
        let b = sky_bounds_cheap(&view);
        assert_eq!((b.lower, b.upper), (1.0, 1.0));
    }

    #[test]
    fn disjoint_attackers_make_fkg_tight() {
        let view = CoinView::from_parts(vec![0.2, 0.3], vec![vec![0], vec![1]]).unwrap();
        let b = sky_bounds_cheap(&view);
        let exact = 0.8 * 0.7;
        assert!((b.lower - exact).abs() < 1e-12, "FKG is tight on disjoint attackers");
    }
}
