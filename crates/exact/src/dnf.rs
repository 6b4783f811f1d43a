//! Positive-DNF counting and the Theorem 1 reduction.
//!
//! Theorem 1 proves #P-completeness of skyline-probability computation by
//! reducing *positive DNF counting* (#DNF restricted to positive literals,
//! itself #P-complete) to `sky(O)`: each clause `C_i` becomes an object
//! `Q_i` that differs from `O` exactly on the dimensions of its literals,
//! all preferences are the unanimous coin `½`, and
//!
//! ```text
//! U = (1 − sky(O)) / µ          with µ = 2^{−d}
//! ```
//!
//! This module implements the formula type, a brute-force counter (the test
//! oracle), and the reduction in **both** directions:
//!
//! * [`PositiveDnf::to_coin_view`] / [`PositiveDnf::to_table_instance`] —
//!   formula → skyline instance (the hardness direction);
//! * [`PositiveDnf::count_via_sky`] — run any exact skyline algorithm on
//!   the reduced instance and recover the model count (demonstrates the
//!   reduction end to end);
//! * membership direction: a coin view with unanimous `½` coins *is* a
//!   positive DNF — [`PositiveDnf::from_half_coin_view`] recovers it.

use presky_core::coins::CoinView;
use presky_core::error::CoreError;
use presky_core::preference::{PrefPair, TablePreferences};
use presky_core::table::Table;
use presky_core::types::ObjectId;

use crate::det::{sky_det_view, DetOptions};
use crate::error::{ExactError, Result};

/// A DNF formula over positive literals: a disjunction of conjunctions of
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositiveDnf {
    n_vars: usize,
    clauses: Vec<Vec<u32>>,
}

impl PositiveDnf {
    /// Build a formula; clauses are sorted and deduplicated internally,
    /// empty clauses and out-of-range variables are rejected.
    pub fn new(n_vars: usize, clauses: Vec<Vec<u32>>) -> Result<Self> {
        let mut cleaned = Vec::with_capacity(clauses.len());
        for mut c in clauses {
            c.sort_unstable();
            c.dedup();
            if c.is_empty() {
                return Err(ExactError::Core(CoreError::UnknownValue {
                    dim: presky_core::types::DimId(0),
                    label: "empty DNF clause".to_owned(),
                }));
            }
            if let Some(&v) = c.iter().find(|&&v| v as usize >= n_vars) {
                return Err(ExactError::Core(CoreError::UnknownValue {
                    dim: presky_core::types::DimId(0),
                    label: format!("variable x{v} out of range ({n_vars} vars)"),
                }));
            }
            cleaned.push(c);
        }
        Ok(Self { n_vars, clauses: cleaned })
    }

    /// The worked formula of Section 3.1:
    /// `(x0 ∧ x2) ∨ (x1 ∧ x3) ∨ (x2 ∧ x3)` over four variables
    /// (the paper's 1-indexed `(x1∧x3)∨(x2∧x4)∨(x3∧x4)`).
    pub fn paper_example() -> Self {
        Self::new(4, vec![vec![0, 2], vec![1, 3], vec![2, 3]]).expect("valid fixture")
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<u32>] {
        &self.clauses
    }

    /// Count satisfying assignments by brute force (`O(2^v · clauses)`).
    ///
    /// The oracle for reduction tests; refuses formulas with more than 26
    /// variables.
    pub fn count_satisfying_brute(&self) -> Result<u64> {
        if self.n_vars > 26 {
            return Err(ExactError::TooManyPairs { pairs: self.n_vars, max: 26 });
        }
        let mut count = 0u64;
        for assignment in 0u64..(1u64 << self.n_vars) {
            let satisfied =
                self.clauses.iter().any(|c| c.iter().all(|&v| assignment & (1 << v) != 0));
            if satisfied {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Formula → reduced skyline instance: one `½` coin per variable, one
    /// attacker per clause.
    pub fn to_coin_view(&self) -> CoinView {
        CoinView::from_parts(vec![0.5; self.n_vars], self.clauses.clone())
            .expect("validated clauses")
    }

    /// Formula → full table instance, following the construction in the
    /// Theorem 1 proof: `d = n_vars` dimensions, the target `O` holds value
    /// `0` everywhere, clause object `Q_i` holds value `1` on the
    /// dimensions of its literals, and every value pair has the unanimous
    /// preference `½`.
    ///
    /// Clauses are deduplicated by [`PositiveDnf::new`], so rows are
    /// distinct; the target is row 0.
    pub fn to_table_instance(&self) -> (Table, TablePreferences, ObjectId) {
        let d = self.n_vars;
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(self.clauses.len() + 1);
        rows.push(vec![0; d]);
        let mut distinct = std::collections::HashSet::new();
        for c in &self.clauses {
            let mut row = vec![0u32; d];
            for &v in c {
                row[v as usize] = 1;
            }
            if distinct.insert(row.clone()) {
                rows.push(row);
            }
        }
        let table = Table::from_rows_raw(d, &rows).expect("valid rows");
        let prefs = TablePreferences::with_default(PrefPair::half());
        (table, prefs, ObjectId(0))
    }

    /// Recover the model count from a skyline computation on the reduced
    /// instance: `U = (1 − sky(O)) · 2^v` (Theorem 1, with `µ = 2^{−v}`).
    pub fn count_via_sky(&self, opts: DetOptions) -> Result<u64> {
        let view = self.to_coin_view();
        let sky = sky_det_view(&view, opts)?.sky;
        let scaled = (1.0 - sky) * (1u64 << self.n_vars) as f64;
        Ok(scaled.round() as u64)
    }

    /// Membership direction: a reduced skyline instance whose coins are all
    /// the unanimous `½` *is* a positive DNF over its coins. Returns `None`
    /// if any coin probability differs from `½`.
    pub fn from_half_coin_view(view: &CoinView) -> Option<Self> {
        if view.coin_probs().iter().any(|&p| (p - 0.5).abs() > 1e-15) {
            return None;
        }
        let clauses = view.attackers().iter().map(|a| a.coins.clone()).collect();
        Self::new(view.n_coins(), clauses).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::sky_det;

    #[test]
    fn paper_example_counts() {
        let f = PositiveDnf::paper_example();
        // (x0∧x2) ∨ (x1∧x3) ∨ (x2∧x3): enumerate 16 assignments by hand:
        // satisfied by x0x2 (4 assignments), x1x3 (4), x2x3 (4), minus
        // overlaps: x0x2∧x1x3 (1), x0x2∧x2x3 (2), x1x3∧x2x3 (2), plus the
        // triple (1) -> 4+4+4-1-2-2+1 = 8.
        assert_eq!(f.count_satisfying_brute().unwrap(), 8);
    }

    #[test]
    fn reduction_recovers_the_count() {
        let f = PositiveDnf::paper_example();
        let u = f.count_via_sky(DetOptions::default()).unwrap();
        assert_eq!(u, 8);
    }

    #[test]
    fn table_instance_matches_coin_instance() {
        let f = PositiveDnf::paper_example();
        let (table, prefs, target) = f.to_table_instance();
        let via_table = sky_det(&table, &prefs, target, DetOptions::default()).unwrap().sky;
        let via_coins = sky_det_view(&f.to_coin_view(), DetOptions::default()).unwrap().sky;
        assert!((via_table - via_coins).abs() < 1e-12);
        // sky(O) = 1 − U/2^4 = 1 − 8/16 = 1/2.
        assert!((via_table - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_formulas_round_trip() {
        let mut s = 0xdead_beefu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..30 {
            let v = 3 + (next() % 6) as usize; // 3..8 vars
            let n_clauses = 1 + (next() % 5) as usize;
            let clauses: Vec<Vec<u32>> = (0..n_clauses)
                .map(|_| {
                    let mask = (next() % ((1 << v) - 1)) + 1;
                    (0..v as u32).filter(|&b| mask & (1 << b) != 0).collect()
                })
                .collect();
            let f = PositiveDnf::new(v, clauses).unwrap();
            let brute = f.count_satisfying_brute().unwrap();
            let via = f.count_via_sky(DetOptions::default()).unwrap();
            assert_eq!(brute, via, "formula {f:?}");
        }
    }

    #[test]
    fn membership_direction_round_trips() {
        let f = PositiveDnf::paper_example();
        let view = f.to_coin_view();
        let back = PositiveDnf::from_half_coin_view(&view).unwrap();
        assert_eq!(back, f);
        // Non-half coins are rejected.
        let other = CoinView::from_parts(vec![0.4], vec![vec![0]]).unwrap();
        assert!(PositiveDnf::from_half_coin_view(&other).is_none());
    }

    #[test]
    fn validation_rejects_bad_formulas() {
        assert!(PositiveDnf::new(3, vec![vec![]]).is_err());
        assert!(PositiveDnf::new(3, vec![vec![3]]).is_err());
        assert!(PositiveDnf::new(3, vec![vec![0, 0, 2]]).is_ok(), "dups inside clause collapse");
    }

    #[test]
    fn tautology_and_contradiction_extremes() {
        // Single clause with a single variable: U = 2^{v-1}.
        let f = PositiveDnf::new(4, vec![vec![0]]).unwrap();
        assert_eq!(f.count_satisfying_brute().unwrap(), 8);
        assert_eq!(f.count_via_sky(DetOptions::default()).unwrap(), 8);
        // Clause over all variables: exactly one satisfying assignment.
        let f = PositiveDnf::new(4, vec![vec![0, 1, 2, 3]]).unwrap();
        assert_eq!(f.count_via_sky(DetOptions::default()).unwrap(), 1);
    }

    #[test]
    fn brute_force_guard() {
        let f = PositiveDnf::new(30, vec![vec![0]]).unwrap();
        assert!(f.count_satisfying_brute().is_err());
    }

    #[test]
    fn duplicate_clauses_dedup_in_table_reduction() {
        let f = PositiveDnf::new(3, vec![vec![0, 1], vec![1, 0]]).unwrap();
        assert_eq!(f.clauses().len(), 2, "kept in formula form");
        let (table, _, _) = f.to_table_instance();
        assert_eq!(table.len(), 2, "one O + one distinct clause row");
        assert!(table.find_duplicate().is_none());
    }
}
