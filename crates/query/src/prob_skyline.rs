//! Probabilistic skyline queries: every object against a threshold τ.
//!
//! The paper focuses on a *single* object's skyline probability (already
//! #P-complete) and names the all-objects probabilistic skyline as the
//! eventual goal. This module provides that query as the paper's
//! conclusion suggests — "a naive approach will be calculating every
//! object's skyline probability by applying the sampling algorithm
//! proposed in this paper" — upgraded with per-object *adaptive* algorithm
//! selection and a multi-threaded batch driver.
//!
//! The per-target work itself lives in [`crate::engine`] (one
//! Prepare → Plan → Execute pipeline shared by every entry point); this
//! module defines the public policy/result types and
//! [`probabilistic_skyline`], which runs the resident all-objects driver
//! [`engine::all_sky_resident`] on a fresh index and component cache:
//!
//! * the table is indexed **once** into a
//!   [`presky_core::batch::BatchCoinContext`], so each
//!   object's coin view is assembled by array lookups instead of the
//!   per-target hashing of `CoinView::build`;
//! * each worker owns a [`SkyScratch`] threaded through the whole
//!   per-object pipeline, so the hot loop performs no per-object heap
//!   allocation once the buffers have warmed up;
//! * per-object algorithm choice is adaptive: exact per-component solving
//!   when the reduced components are small and the summed `2^|g|` cost
//!   undercuts the sampler's own predicted cost, Monte-Carlo otherwise.
//!
//! The batch driver produces **bit-identical** results to calling
//! [`engine::solve_one`] per object with the same options (see
//! `crates/query/tests/properties.rs`).

use presky_core::batch::BatchCoinContext;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use presky_approx::sampler::SamOptions;
use presky_exact::cache::ComponentCache;
use presky_exact::det::DetOptions;

use crate::engine;
use crate::error::{QueryError, Result};

pub use crate::engine::SkyScratch;

/// Per-object algorithm policy.
#[derive(Debug, Clone, Copy)]
pub enum Algorithm {
    /// Preprocess, then choose exactly (small components whose summed
    /// `2^|g|` cost undercuts the sampler's predicted cost) or sampling.
    Adaptive {
        /// Components up to this size are solved exactly.
        exact_component_limit: usize,
        /// Sampler budget for the rest.
        sam: SamOptions,
    },
    /// Always the exact `Det+` pipeline (errors on oversized components).
    Exact {
        /// Budgets for the per-component engine.
        det: DetOptions,
    },
    /// Always the sampler (after the same sound preprocessing).
    Sampling(SamOptions),
}

impl Default for Algorithm {
    fn default() -> Self {
        Algorithm::Adaptive { exact_component_limit: 20, sam: SamOptions::default() }
    }
}

/// The skyline probability of one object, with provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyResult {
    /// The object.
    pub object: ObjectId,
    /// Its skyline probability (exact or estimated).
    pub sky: f64,
    /// Whether `sky` is exact.
    pub exact: bool,
}

/// Options of the all-objects query driver.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct QueryOptions {
    /// Per-object policy.
    pub algorithm: Algorithm,
    /// Worker threads of the all-objects fan-out (`None` = available
    /// parallelism). Each target is solved on one thread, so a
    /// single-target read runs on the calling thread.
    pub threads: Option<usize>,
    /// Share exact component results across targets through the
    /// hash-consed component cache. Results are bit-identical either way
    /// (`--no-component-cache` is the ablation baseline).
    pub component_cache: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self { algorithm: Algorithm::default(), threads: None, component_cache: true }
    }
}

impl QueryOptions {
    /// Chainable: set the per-object policy.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Chainable: set the worker thread count (`None` = available
    /// parallelism).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Chainable: toggle the cross-target component cache.
    pub fn with_component_cache(mut self, on: bool) -> Self {
        self.component_cache = on;
        self
    }
}

pub(crate) fn reseed(algo: Algorithm, salt: u64) -> Algorithm {
    let mix = |s: SamOptions| s.with_seed(s.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match algo {
        Algorithm::Adaptive { exact_component_limit, sam } => {
            Algorithm::Adaptive { exact_component_limit, sam: mix(sam) }
        }
        Algorithm::Sampling(s) => Algorithm::Sampling(mix(s)),
        e @ Algorithm::Exact { .. } => e,
    }
}

/// The probabilistic skyline: all objects whose skyline probability is at
/// least `tau`, sorted by descending probability.
///
/// The threshold must satisfy `0 < τ < 1`, exactly as in the paper's
/// definition: τ = 0 would admit every object and τ = 1 would demand
/// certainty, both degenerate readings the definition excludes.
///
/// A policy whose own limit trips on some object (a relative
/// `DetOptions::deadline` under [`Algorithm::Exact`]) returns that error,
/// never a shorter list.
pub fn probabilistic_skyline<M: PreferenceModel + Sync>(
    table: &Table,
    prefs: &M,
    tau: f64,
    opts: QueryOptions,
) -> Result<Vec<SkyResult>> {
    if !(tau > 0.0 && tau < 1.0) {
        return Err(QueryError::InvalidThreshold { value: tau });
    }
    let ctx = BatchCoinContext::build(table)?;
    let cache = ComponentCache::default();
    let scope = Some(engine::CacheScope::new(&cache));
    let budget = engine::EngineBudget::default();
    let (out, trip) = engine::all_sky_with_trip(&ctx, prefs, opts, scope, budget)?;
    if let Some(e) = trip {
        return Err(e);
    }
    let mut all: Vec<SkyResult> = out.results.into_iter().flatten().collect();
    all.retain(|r| r.sky >= tau);
    all.sort_by(|a, b| b.sky.total_cmp(&a.sky));
    Ok(all)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use presky_core::preference::{DeterministicOrder, PrefPair, TablePreferences};
    use presky_core::types::{DimId, ValueId};
    use presky_exact::det::DetOptions;
    use presky_exact::error::ExactError;

    use super::*;
    use crate::certain::{skyline_bnl, Degenerate};
    use crate::engine::{EngineBudget, PipelineStats, PrepareOptions};
    use crate::oracle::all_sky_naive;

    // One-shot shims over the resident driver, standing in for the
    // removed free functions these tests were written against. Like
    // `probabilistic_skyline`, they return a policy's budget trip as the
    // error.
    fn all_sky_with_stats<M: PreferenceModel + Sync>(
        table: &Table,
        prefs: &M,
        opts: QueryOptions,
    ) -> Result<(Vec<SkyResult>, PipelineStats)> {
        let ctx = BatchCoinContext::build(table)?;
        let cache = ComponentCache::default();
        let scope = Some(engine::CacheScope::new(&cache));
        let (out, trip) =
            engine::all_sky_with_trip(&ctx, prefs, opts, scope, EngineBudget::default())?;
        match trip {
            Some(e) => Err(e),
            None => Ok((out.results.into_iter().flatten().collect(), out.stats)),
        }
    }

    fn all_sky<M: PreferenceModel + Sync>(
        table: &Table,
        prefs: &M,
        opts: QueryOptions,
    ) -> Result<Vec<SkyResult>> {
        all_sky_with_stats(table, prefs, opts).map(|(r, _)| r)
    }

    fn sky_one<M: PreferenceModel>(
        table: &Table,
        prefs: &M,
        target: ObjectId,
        algo: Algorithm,
    ) -> Result<SkyResult> {
        let mut stats = PipelineStats::default();
        engine::solve_one(
            table,
            prefs,
            target,
            algo,
            PrepareOptions::default(),
            &mut SkyScratch::default(),
            &mut stats,
        )
    }

    fn observation() -> (Table, TablePreferences) {
        let t = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn adaptive_matches_oracle_exactly_on_small_instances() {
        let (t, p) = observation();
        let oracle = all_sky_naive(&t, &p, 16).unwrap();
        let got = all_sky(&t, &p, QueryOptions::default()).unwrap();
        for (r, &expect) in got.iter().zip(&oracle) {
            assert!(r.exact, "small components must be solved exactly");
            assert!((r.sky - expect).abs() < 1e-12, "{:?} vs {expect}", r);
        }
    }

    #[test]
    fn threshold_filters_and_sorts() {
        let (t, p) = observation();
        let sky = probabilistic_skyline(&t, &p, 0.3, QueryOptions::default()).unwrap();
        // sky = [1/2, 1/4, 1/2] -> τ = 0.3 keeps P1 and P3.
        assert_eq!(sky.len(), 2);
        assert!(sky[0].sky >= sky[1].sky);
        let objs: Vec<ObjectId> = sky.iter().map(|r| r.object).collect();
        assert!(objs.contains(&ObjectId(0)));
        assert!(objs.contains(&ObjectId(2)));
    }

    #[test]
    fn invalid_threshold_rejected() {
        let (t, p) = observation();
        for tau in [1.5, -0.1, 0.0, 1.0, f64::NAN] {
            assert!(
                matches!(
                    probabilistic_skyline(&t, &p, tau, QueryOptions::default()),
                    Err(QueryError::InvalidThreshold { .. })
                ),
                "τ = {tau} must be rejected"
            );
        }
    }

    #[test]
    fn degenerate_preferences_agree_with_bnl() {
        let t =
            Table::from_rows_raw(2, &[vec![0, 2], vec![1, 1], vec![2, 0], vec![2, 2], vec![0, 0]])
                .unwrap();
        let order = DeterministicOrder::ascending();
        let results = all_sky(&t, &order, QueryOptions::default()).unwrap();
        let bnl = skyline_bnl(&t, &Degenerate(order));
        for r in &results {
            let in_skyline = bnl.contains(&r.object);
            let expected = if in_skyline { 1.0 } else { 0.0 };
            assert_eq!(r.sky, expected, "object {}", r.object);
            assert!(r.exact);
        }
    }

    #[test]
    fn certain_attacker_short_circuits_to_exact_zero() {
        // Object 1 is dominated by object 0 with probability 1 on both
        // dims; even the sampling policy reports it exactly.
        let t = Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![2, 2]]).unwrap();
        let order = DeterministicOrder::ascending();
        let opts = QueryOptions {
            algorithm: Algorithm::Sampling(SamOptions::with_samples(50, 3)),
            threads: Some(1),
            ..Default::default()
        };
        let results = all_sky(&t, &order, opts).unwrap();
        assert_eq!(results[1].sky, 0.0);
        assert!(results[1].exact, "short-circuit marks the zero exact");
        assert_eq!(results[2].sky, 0.0);
        assert!(results[2].exact);
    }

    #[test]
    fn sampling_policy_estimates_within_tolerance() {
        let (t, p) = observation();
        let opts = QueryOptions {
            algorithm: Algorithm::Sampling(SamOptions::with_samples(40_000, 0)),
            threads: Some(2),
            ..Default::default()
        };
        let got = all_sky(&t, &p, opts).unwrap();
        let oracle = all_sky_naive(&t, &p, 16).unwrap();
        for (r, &expect) in got.iter().zip(&oracle) {
            assert!((r.sky - expect).abs() < 0.01, "{:?} vs {expect}", r);
        }
    }

    #[test]
    fn exact_policy_errors_on_oversized_components() {
        // 10 attackers sharing a common coin with pairwise distinct extras:
        // one component of size 10; use a tiny limit to force the error
        // deterministically.
        let rows: Vec<Vec<u32>> =
            std::iter::once(vec![0, 0]).chain((1..=10).map(|i| vec![i, 99])).collect();
        let t = Table::from_rows_raw(2, &rows).unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        let opts = QueryOptions {
            algorithm: Algorithm::Exact { det: DetOptions::default().with_max_attackers(3) },
            threads: Some(1),
            ..Default::default()
        };
        let err = all_sky(&t, &p, opts).unwrap_err();
        assert!(matches!(err, QueryError::Exact(_)));
    }

    #[test]
    fn a_policy_deadline_trip_is_an_error_not_a_shorter_skyline() {
        // Target (0, 0) with 16 attackers (i, 1) joined by their shared
        // coin on dimension 1: one component of 2^16 subsets, past the
        // exact walk's first deadline check at 8 192 joints.
        let mut rows = vec![vec![0, 0]];
        let mut p = TablePreferences::new();
        p.set(DimId(1), ValueId(1), ValueId(0), 0.5, 0.5).unwrap();
        for i in 1..=16 {
            rows.push(vec![i, 1]);
            p.set(DimId(0), ValueId(i), ValueId(0), 0.5, 0.5).unwrap();
        }
        let t = Table::from_rows_raw(2, &rows).unwrap();
        let exact = |det| {
            QueryOptions::default().with_algorithm(Algorithm::Exact { det }).with_threads(Some(1))
        };
        let full = probabilistic_skyline(&t, &p, 0.01, exact(DetOptions::default())).unwrap();
        assert_eq!(full.len(), t.len(), "every object clears τ = 0.01");
        let tight = DetOptions::default().with_deadline(Duration::ZERO);
        let err = probabilistic_skyline(&t, &p, 0.01, exact(tight)).unwrap_err();
        assert!(matches!(err, QueryError::Exact(ExactError::DeadlineExceeded { .. })), "{err:?}");
    }

    #[test]
    fn duplicate_rows_rejected_up_front() {
        let t = Table::from_rows_raw(1, &[vec![0], vec![0]]).unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        assert!(matches!(all_sky(&t, &p, QueryOptions::default()), Err(QueryError::Core(_))));
    }

    #[test]
    fn thread_counts_do_not_change_exact_results() {
        let (t, p) = observation();
        let one = all_sky(&t, &p, QueryOptions { threads: Some(1), ..Default::default() }).unwrap();
        let many =
            all_sky(&t, &p, QueryOptions { threads: Some(8), ..Default::default() }).unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn batch_driver_matches_per_object_driver_bitwise() {
        let (t, p) = observation();
        for algo in [
            Algorithm::default(),
            Algorithm::Sampling(SamOptions::with_samples(500, 9)),
            Algorithm::Exact { det: DetOptions::default() },
        ] {
            let batch = all_sky(
                &t,
                &p,
                QueryOptions { algorithm: algo, threads: Some(3), ..Default::default() },
            )
            .unwrap();
            for (i, r) in batch.iter().enumerate() {
                let single = sky_one(&t, &p, ObjectId::from(i), reseed(algo, i as u64)).unwrap();
                assert_eq!(r.sky.to_bits(), single.sky.to_bits(), "object {i}");
                assert_eq!(r.exact, single.exact);
            }
        }
    }

    #[test]
    fn stats_aggregate_across_the_batch_driver() {
        let (t, p) = observation();
        let (results, stats) = all_sky_with_stats(&t, &p, QueryOptions::default()).unwrap();
        assert_eq!(stats.objects as usize, results.len());
        assert_eq!(stats.plan_exact + stats.plan_sample + stats.short_circuited, stats.objects);
        assert!(stats.attackers_in >= stats.survivors);
        assert!(stats.joints_computed > 0, "small instance must be solved exactly: {stats}");
        // Counters (not wall-times) are thread-count independent: largest
        // merges by max, the rest are sums over the same per-object work.
        let (_, stats8) =
            all_sky_with_stats(&t, &p, QueryOptions { threads: Some(8), ..Default::default() })
                .unwrap();
        let untimed = |mut s: PipelineStats| {
            s.prepare_nanos = 0;
            s.plan_nanos = 0;
            s.execute_nanos = 0;
            // Which worker reaches a shared component first is a race, so
            // hit/insert tallies may shift with the thread count; probes
            // and (logical) joints stay deterministic and are compared.
            s.cache_hits = 0;
            s.cache_insertions = 0;
            s.cache_bytes = 0;
            s
        };
        assert_eq!(untimed(stats), untimed(stats8));
    }
}
