//! Threshold membership with certified pruning — the production form of
//! the probabilistic skyline query.
//!
//! [`crate::prob_skyline::probabilistic_skyline`] computes a full
//! probability for every object; but the probabilistic-skyline *answer*
//! needs only the comparison `sky(O) ≥ τ`. Each object runs through the
//! shared [`crate::engine`] Prepare stage at most once, and the engine's
//! threshold executor resolves it through an escalation ladder of plan
//! refinements, cheapest first:
//!
//! 0. **per-component brackets before absorption** (`presky_exact::bounds`):
//!    after Prepare's pruning half (certain-attacker short-circuit,
//!    impossible-coin pruning), the pruned view's independence components
//!    (Theorem 4) each get the `O(n·d)` FKG / min-complement bracket, and
//!    their product `Π lower_g ≤ sky ≤ Π upper_g` decides most objects
//!    outright — in block-zipf and real workloads nearly every object's
//!    product lies far from any useful τ. Absorption keeps `sky` (Theorem
//!    3), so the product is certified without it, and a decided object
//!    never pays for absorption;
//! 1. **per-component brackets after absorption**: the same product over
//!    the prepared (absorbed, restricted, re-partitioned) view, whose
//!    components are smaller;
//! 2. **whole-view Bonferroni bounds** (level 2 by default) for the
//!    objects the brackets leave open;
//! 3. **exact solving** wherever the adaptive flat query would solve the
//!    prepared instance exactly (the planner's own rule, with
//!    `exact_component_limit` and the [`FALLBACK`] sampler's predicted
//!    cost), exiting as soon as the factors solved so far times the
//!    remaining components' brackets decide either side of τ;
//! 4. **Wald's sequential test** (`presky_approx::sprt`) — samples only
//!    until the evidence separates, escalating to
//! 5. a fixed-budget estimate for the rare `Undecided` stragglers.
//!
//! The per-object [`Resolution`] records which rung decided it (the three
//! bounds rungs and the exact rung's early exit report
//! [`Resolution::Bounds`]), so the harness can report how much work the
//! pruning saves; the aggregated [`PipelineStats`] additionally carries
//! rung counters and stage times. A request budget reaches the ladder as
//! it reaches the flat query's plan: deadline and joint allowance in the
//! exact rung, deadline in the sequential test and the fallback (see
//! [`crate::engine::threshold_resident`]).

use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use presky_exact::bounds::SkyBounds;

use presky_approx::sampler::SamOptions;
use presky_approx::sprt::SprtOptions;

use crate::engine::{self, PipelineStats, SkyScratch};
use crate::error::{QueryError, Result};

/// How an object's membership was decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Resolution {
    /// A certified bound enclosure settled it (no sampling at all).
    Bounds(SkyBounds),
    /// The exact engine produced the true probability.
    Exact(f64),
    /// Wald's sequential test separated the hypotheses.
    Sequential {
        /// Worlds consumed by the test.
        samples_used: u64,
    },
    /// Fixed-budget estimate (sequential test truncated undecided).
    Estimated(f64),
}

/// Membership verdict for one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdAnswer {
    /// The object.
    pub object: ObjectId,
    /// Whether `sky(object) ≥ τ` (best available decision).
    pub member: bool,
    /// The rung of the ladder that decided it.
    pub resolution: Resolution,
}

/// The fixed-budget sampler behind the ladder's last rung, for the
/// objects the sequential test leaves undecided (reseeded per object);
/// also the sampling side of the exact rung's cost comparison. A request
/// budget's deadline is stamped into it.
pub const FALLBACK: SamOptions = SamOptions::with_samples(3000, 0);

/// Options of the threshold query.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ThresholdOptions {
    /// Bonferroni depth of the whole-view bounds rung (level 1 is
    /// `O(n·d)`; level 2 adds `O(n²·d)` worst case but is computed on the
    /// *preprocessed* instance, which is far smaller). The per-component
    /// bracket rungs before it are always the `O(n·d)` cheap bracket.
    pub bonferroni_level: usize,
    /// Components up to this size are solved exactly. The exact rung
    /// engages where the adaptive flat query with this limit and the
    /// [`FALLBACK`] sampler would solve exactly: every component within
    /// the limit and the summed lattice work `Σ 2^|component|` at most the
    /// sampler's predicted cost (floored at `2^22`).
    pub exact_component_limit: usize,
    /// Sequential-test truncation, seed and deadline (its indifference
    /// margin and error levels are constants of `presky_approx::sprt`). A
    /// request budget's deadline takes precedence over its `deadline_at`.
    pub sprt: SprtOptions,
    /// Worker threads of the all-objects fan-out (`None` = available
    /// parallelism). Each target is decided on one thread.
    pub threads: Option<usize>,
    /// Share exact-rung component results across targets through the
    /// hash-consed component cache (bit-identical either way).
    pub component_cache: bool,
}

impl Default for ThresholdOptions {
    fn default() -> Self {
        Self {
            bonferroni_level: 2,
            exact_component_limit: 20,
            sprt: SprtOptions::default(),
            threads: None,
            component_cache: true,
        }
    }
}

impl ThresholdOptions {
    /// Chainable: set the Bonferroni depth of the whole-view bounds rung.
    pub fn with_bonferroni_level(mut self, level: usize) -> Self {
        self.bonferroni_level = level;
        self
    }

    /// Chainable: set the exact rung's component-size limit.
    pub fn with_exact_component_limit(mut self, limit: usize) -> Self {
        self.exact_component_limit = limit;
        self
    }

    /// Chainable: set the sequential test's truncation, seed and deadline.
    pub fn with_sprt(mut self, sprt: SprtOptions) -> Self {
        self.sprt = sprt;
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

pub(crate) fn validate_tau(tau: f64) -> Result<()> {
    if tau.is_nan() || !(0.0..=1.0).contains(&tau) {
        return Err(QueryError::InvalidThreshold { value: tau });
    }
    Ok(())
}

/// Decide `sky(O) ≥ τ` for one object via the escalation ladder.
pub fn threshold_one<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
) -> Result<ThresholdAnswer> {
    validate_tau(tau)?;
    let mut scratch = SkyScratch::default();
    let mut stats = PipelineStats::default();
    engine::threshold_solve_one(table, prefs, target, tau, opts, &mut scratch, &mut stats)
}

/// Aggregate how the ladder resolved a result set (for reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Objects decided by certified bounds alone.
    pub by_bounds: usize,
    /// Objects solved exactly.
    pub by_exact: usize,
    /// Objects decided by the sequential test.
    pub by_sequential: usize,
    /// Objects that needed the fixed-budget fallback.
    pub by_estimate: usize,
}

/// Tally resolutions.
pub fn resolution_stats(answers: &[ThresholdAnswer]) -> ResolutionStats {
    let mut s = ResolutionStats::default();
    for a in answers {
        match a.resolution {
            Resolution::Bounds(_) => s.by_bounds += 1,
            Resolution::Exact(_) => s.by_exact += 1,
            Resolution::Sequential { .. } => s.by_sequential += 1,
            Resolution::Estimated(_) => s.by_estimate += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use presky_core::batch::BatchCoinContext;
    use presky_core::preference::{PrefPair, TablePreferences};
    use presky_exact::cache::ComponentCache;

    use super::*;
    use crate::engine::{threshold_resident, CacheScope, EngineBudget};
    use crate::oracle::all_sky_naive;

    // One-shot shim over the resident driver, standing in for the removed
    // free functions these tests were written against.
    fn threshold_skyline<M: PreferenceModel + Sync>(
        table: &Table,
        prefs: &M,
        tau: f64,
        opts: ThresholdOptions,
    ) -> Result<(Vec<ThresholdAnswer>, PipelineStats)> {
        let ctx = BatchCoinContext::build(table)?;
        let cache = ComponentCache::default();
        let scope = Some(CacheScope::new(&cache));
        let out = threshold_resident(&ctx, prefs, tau, opts, scope, EngineBudget::default())?;
        Ok((out.results.into_iter().map(Option::unwrap).collect(), out.stats))
    }

    fn example1() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn membership_matches_the_oracle() {
        let (t, p) = example1();
        let oracle = all_sky_naive(&t, &p, 20).unwrap();
        for tau in [0.05, 0.15, 0.2, 0.5, 0.9] {
            let (answers, _) = threshold_skyline(&t, &p, tau, ThresholdOptions::default()).unwrap();
            for (a, &sky) in answers.iter().zip(&oracle) {
                assert_eq!(a.member, sky >= tau, "τ = {tau}, object {}: sky {sky}", a.object);
            }
        }
    }

    #[test]
    fn bounds_decide_extreme_thresholds_without_sampling() {
        let (t, p) = example1();
        // τ = 0.9: every object's cheap upper bound is below, so all five
        // must resolve at the bounds rung... upper = min(1 − Pr(e_i)); for
        // O that is 0.5 < 0.9 ✓. For others likewise under these ½ prefs.
        let (answers, pipeline) =
            threshold_skyline(&t, &p, 0.9, ThresholdOptions::default()).unwrap();
        let stats = resolution_stats(&answers);
        assert_eq!(stats.by_bounds, answers.len(), "{stats:?}");
        assert!(answers.iter().all(|a| !a.member));
        // The product over each pruned view already decides, so rung 0
        // settles all five before absorption, restriction or the reduced
        // partition.
        assert_eq!(pipeline.plan_bounds_unabsorbed as usize, answers.len(), "{pipeline}");
        assert_eq!((pipeline.absorbed, pipeline.survivors, pipeline.components), (0, 0, 0));
    }

    #[test]
    fn exact_rung_handles_borderline_small_instances() {
        let (t, p) = example1();
        // After absorption the level-2 Bonferroni enclosure for O is
        // [3/16, 1/4]; τ = 0.2 falls strictly inside, so the bounds rung
        // cannot separate and the exact rung must decide (sky = 3/16 < τ).
        let a = threshold_one(&t, &p, ObjectId(0), 0.2, ThresholdOptions::default()).unwrap();
        assert!(!a.member);
        // The exact rung either completes the product (Exact 3/16) or
        // early-exits the moment the running product certifies < τ
        // (Bounds with upper < 0.2) — both are sound refutations.
        match a.resolution {
            Resolution::Exact(v) => assert!((v - 0.1875).abs() < 1e-12),
            Resolution::Bounds(b) => assert!(b.upper < 0.2, "{b:?}"),
            other => panic!("unexpected resolution {other:?}"),
        }
        // At τ = 0.1875 exactly, the FKG lower bound (tight on the three
        // disjoint survivors) certifies membership with no lattice walk.
        let a = threshold_one(&t, &p, ObjectId(0), 0.1875, ThresholdOptions::default()).unwrap();
        assert!(a.member);
        assert!(matches!(a.resolution, Resolution::Bounds(_)), "{:?}", a.resolution);
    }

    #[test]
    fn sequential_rung_engages_on_large_components() {
        // Force a large irreducible component: attackers {i, shared} for
        // i = 0..30 share one coin, no absorption applies, component 30.
        let rows: Vec<Vec<u32>> =
            std::iter::once(vec![0, 0]).chain((1..=30).map(|i| vec![i, 99])).collect();
        let t = Table::from_rows_raw(2, &rows).unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        let opts = ThresholdOptions {
            exact_component_limit: 8,
            bonferroni_level: 1,
            ..ThresholdOptions::default()
        };
        // sky(O) here: dominated iff coin99 wins AND some coin_i wins:
        // P = 0.5 · (1 − 0.5^30) ≈ 0.5 -> sky ≈ 0.5.
        let a = threshold_one(&t, &p, ObjectId(0), 0.25, opts).unwrap();
        assert!(a.member, "sky ≈ 0.5 ≥ 0.25");
        match a.resolution {
            Resolution::Sequential { samples_used } => {
                assert!(samples_used < 10_000, "separates fast: {samples_used}")
            }
            Resolution::Bounds(b) => {
                // Level-1 bounds may already certify: lower = max(Π(1−p),
                // 1 − Σp) — Σp is ~15 here so 1−Σp < 0, product ~ tiny...
                // upper = min(1−p_i) = 1 − 0.25? Pr(e_i) = 0.25 each ->
                // upper = 0.75, lower ~ 0.0002: cannot certify 0.25. So
                // bounds should NOT decide this.
                panic!("bounds unexpectedly decided: {b:?}");
            }
            other => panic!("unexpected resolution {other:?}"),
        }
    }

    #[test]
    fn invalid_threshold_and_duplicates_are_rejected() {
        let (t, p) = example1();
        assert!(threshold_skyline(&t, &p, 2.0, ThresholdOptions::default()).is_err());
        let dup = Table::from_rows_raw(1, &[vec![0], vec![0]]).unwrap();
        assert!(threshold_skyline(&dup, &p, 0.5, ThresholdOptions::default()).is_err());
    }

    #[test]
    fn stats_tally_matches_resolutions() {
        let (t, p) = example1();
        let (answers, pipeline) =
            threshold_skyline(&t, &p, 0.15, ThresholdOptions::default()).unwrap();
        let stats = resolution_stats(&answers);
        assert_eq!(
            stats.by_bounds + stats.by_exact + stats.by_sequential + stats.by_estimate,
            answers.len()
        );
        // The engine's rung counters see the same ladder: every object is
        // accounted for by exactly one rung (the exact rung's counter also
        // covers certified early exits, which `resolution_stats` files
        // under bounds).
        assert_eq!(pipeline.objects as usize, answers.len());
        assert_eq!(
            pipeline.short_circuited
                + pipeline.plan_bounds
                + pipeline.plan_exact
                + pipeline.plan_sequential
                + pipeline.plan_fallback,
            pipeline.objects,
            "{pipeline}"
        );
        assert!(pipeline.plan_bounds_unabsorbed <= pipeline.plan_bounds, "{pipeline}");
    }
}
