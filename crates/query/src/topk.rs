//! Top-k by skyline probability — the paper's stated future work.
//!
//! The conclusion of the paper points at "the generic top-k evaluation
//! framework for uncertain databases" \[20\] as the efficient route to
//! ranking objects by skyline probability. This module provides a
//! practical two-phase realisation over this library's estimators:
//!
//! 1. **scout** — every object gets a cheap estimate (adaptive: exact when
//!    its reduced instance is small, a low-budget sample otherwise);
//! 2. **refine** — the top `k · OVERFETCH` candidates are re-evaluated with
//!    a much larger budget, and the final ranking is taken from the refined
//!    values. Exact scout values skip refinement.
//!
//! The two-phase design keeps total work near `O(n · m_scout)` while the
//! ranking quality is governed by the refined budget — the same
//! additive-error calculus as Theorem 2, applied only where it matters.
//!
//! This module holds the options; the query itself runs in the resident
//! driver [`crate::engine::top_k_resident`], whose scout phase is the
//! all-objects driver [`crate::engine::all_sky_resident`] and whose refine
//! phase shares its component cache.

use presky_approx::sampler::SamOptions;

use crate::prob_skyline::SkyResult;

/// Scout-phase sampler budget, for objects whose instance is too large to
/// solve exactly.
pub const SCOUT: SamOptions = SamOptions::with_samples(500, 0);
/// Refine-phase sampler budget (reseeded per candidate).
pub const REFINE: SamOptions = SamOptions::with_samples(20_000, 1);
/// The refine phase re-evaluates the top `k · OVERFETCH` scouted objects.
pub const OVERFETCH: usize = 3;

/// Options of the two-phase top-k query. The phases' sampler budgets and
/// the refine cut are the constants [`SCOUT`], [`REFINE`] and
/// [`OVERFETCH`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct TopKOptions {
    /// Components up to this size are solved exactly in both phases.
    pub exact_component_limit: usize,
    /// Worker threads of the scout phase's all-objects fan-out (`None` =
    /// available parallelism). The refine phase runs on the calling
    /// thread.
    pub threads: Option<usize>,
    /// Share exact component results between the scout and refine phases
    /// through one hash-consed component cache (bit-identical either way).
    /// Refined candidates re-prepare instances the scout already solved,
    /// so this is a natural 100%-hit regime.
    pub component_cache: bool,
}

impl Default for TopKOptions {
    fn default() -> Self {
        Self { exact_component_limit: 20, threads: None, component_cache: true }
    }
}

impl TopKOptions {
    /// Chainable: set the exact component-size limit for both phases.
    pub fn with_exact_component_limit(mut self, limit: usize) -> Self {
        self.exact_component_limit = limit;
        self
    }

    /// Chainable: set the worker thread count (`None` = available
    /// parallelism).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Chainable: toggle the shared scout/refine component cache.
    pub fn with_component_cache(mut self, on: bool) -> Self {
        self.component_cache = on;
        self
    }
}

pub(crate) fn sort_desc(v: &mut [SkyResult]) {
    v.sort_by(|a, b| {
        b.sky.partial_cmp(&a.sky).unwrap_or(std::cmp::Ordering::Equal).then(a.object.cmp(&b.object))
    });
}

#[cfg(test)]
mod tests {
    use presky_core::batch::BatchCoinContext;
    use presky_core::preference::{PrefPair, PreferenceModel, TablePreferences};
    use presky_core::table::Table;
    use presky_core::types::ObjectId;
    use presky_exact::cache::ComponentCache;

    use super::*;
    use crate::engine::{top_k_resident, CacheScope, EngineBudget};
    use crate::error::Result;
    use crate::oracle::all_sky_naive;

    // One-shot shim over the resident driver, standing in for the removed
    // free function these tests were written against.
    fn top_k_skyline<M: PreferenceModel + Sync>(
        table: &Table,
        prefs: &M,
        k: usize,
        opts: TopKOptions,
    ) -> Result<Vec<SkyResult>> {
        let ctx = BatchCoinContext::build(table)?;
        let cache = ComponentCache::default();
        let scope = Some(CacheScope::new(&cache));
        let out = top_k_resident(&ctx, prefs, k, opts, scope, EngineBudget::default())?;
        Ok(out.results.into_iter().map(Option::unwrap).collect())
    }

    fn fixture() -> (Table, TablePreferences) {
        // Example 1 plus the Observation layout merged: 5 distinct objects.
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn ranks_match_the_oracle() {
        let (t, p) = fixture();
        let oracle = all_sky_naive(&t, &p, 20).unwrap();
        let mut expected: Vec<(usize, f64)> = oracle.iter().copied().enumerate().collect();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        let got = top_k_skyline(&t, &p, 3, TopKOptions::default()).unwrap();
        assert_eq!(got.len(), 3);
        for (r, (obj, sky)) in got.iter().zip(expected.iter()) {
            assert_eq!(r.object, ObjectId::from(*obj));
            assert!((r.sky - sky).abs() < 1e-12, "small instance solves exactly");
        }
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let (t, p) = fixture();
        let got = top_k_skyline(&t, &p, 50, TopKOptions::default()).unwrap();
        assert_eq!(got.len(), 5);
        for w in got.windows(2) {
            assert!(w[0].sky >= w[1].sky);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (t, p) = fixture();
        let a = top_k_skyline(&t, &p, 2, TopKOptions::default()).unwrap();
        let b = top_k_skyline(&t, &p, 2, TopKOptions::default()).unwrap();
        assert_eq!(a, b);
    }
}
