//! Resident batch drivers — the one batch driver per query kind.
//!
//! The [`BatchCoinContext`] (dense value codes, posting lists, the
//! `pr_strict` memo) and the cross-target component cache are exactly the
//! state worth keeping warm across requests, so every all-objects query
//! runs here against *caller-owned* context and cache: the service layer
//! keeps them resident, and the one-shot
//! [`crate::prob_skyline::probabilistic_skyline`] (like the test shims)
//! builds a fresh pair per call. Each driver runs the Prepare → Plan →
//! Execute pipeline per object and accepts a per-request [`EngineBudget`],
//! with the same semantics for every query kind:
//!
//! * the **deadline** is stamped into the exact DFS (checked every 8192
//!   joints) and the samplers (checked every 64-world block) — for
//!   threshold queries into the ladder's whole-view Bonferroni pass
//!   (checked every 8192 joints), exact rung, sequential test and
//!   fallback sampler;
//! * the **joint/sample ledgers** are request-wide: each object charges
//!   the work it consumed, and objects starting after exhaustion are
//!   skipped outright; each object's exact solves get the remaining joint
//!   allowance;
//! * a budget trip never yields a wrong value — the tripped object's slot
//!   is `None` and `truncated` counts it; every `Some` value is
//!   bit-identical to the unbudgeted run of the same options.
//!
//! With `EngineBudget::default()` (unlimited) the outputs are bit-identical
//! to the single-target entry points ([`super::solve_one`] with the
//! driver's per-object reseeding, [`crate::threshold::threshold_one`]),
//! proptest-guarded in `crates/query/tests/properties.rs` and checked under
//! budgets by the service-layer stress tests.
//!
//! When the [`CacheScope`] carries the pinned epoch's answer store,
//! [`sky_one_resident`] and [`all_sky_resident`] record every exact answer
//! they compute in it. None of the drivers reads it: the one reader is
//! [`sky_one_stored`], which a service calls at admission, before any
//! pipeline state exists, and which answers a stored target only where
//! the read's budget lets it start and its own policy would plan the
//! stored shape exact (see `reusable`). All-sky, threshold and top-k
//! still compute every target.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use presky_core::batch::BatchCoinContext;
use presky_core::epoch::{AnswerStore, PreparedShape, StoredAnswer};
use presky_core::preference::PreferenceModel;
use presky_core::types::ObjectId;

use presky_approx::sampler::SamOptions;
use presky_exact::det::DetOptions;

use super::plan::{self, Plan};
use super::{CacheScope, EngineBudget, PipelineStats, PrepareOptions, SkyScratch};
use crate::error::{QueryError, Result};
use crate::prob_skyline::{reseed, Algorithm, QueryOptions, SkyResult};
use crate::threshold::{validate_tau, ThresholdAnswer, ThresholdOptions};
use crate::topk::{sort_desc, TopKOptions, OVERFETCH, REFINE, SCOUT};

/// A budgeted batch answer: one slot per object, `None` where the budget
/// ran out before (or while) that object was solved.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentOutcome<T> {
    /// Per-object results in object order; `None` marks a truncated slot.
    /// Every `Some` value is bit-identical to the unbudgeted run.
    pub results: Vec<Option<T>>,
    /// Aggregated pipeline statistics over the objects that ran.
    pub stats: PipelineStats,
    /// Objects whose slot was truncated by the budget.
    pub truncated: u64,
}

impl<T> ResidentOutcome<T> {
    /// Whether every object completed within budget.
    pub fn complete(&self) -> bool {
        self.truncated == 0
    }
}

/// Request-wide work ledgers shared by all workers of one request.
///
/// `charge` is called with the per-object deltas of the worker's local
/// [`PipelineStats`], so the ledgers see *logical* work (cache hits re-add
/// the joints the cached solve computed) and stay comparable across warm
/// and cold caches.
pub(super) struct Ledger {
    max_joints: Option<u64>,
    max_samples: Option<u64>,
    joints: AtomicU64,
    samples: AtomicU64,
    pub(super) truncated: AtomicU64,
    /// The budget error of the first slot withheld for one.
    first_trip: OnceLock<QueryError>,
}

impl Ledger {
    pub(super) fn new(budget: &EngineBudget) -> Self {
        Self {
            max_joints: budget.max_joints,
            max_samples: budget.max_samples,
            joints: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            first_trip: OnceLock::new(),
        }
    }

    /// Joints still available, `None` when unlimited.
    fn remaining_joints(&self) -> Option<u64> {
        self.max_joints.map(|max| max.saturating_sub(self.joints.load(Ordering::Relaxed)))
    }

    /// Whether a new object may start at all.
    fn admits(&self, budget: &EngineBudget) -> bool {
        if budget.expired() {
            return false;
        }
        if self.remaining_joints() == Some(0) {
            return false;
        }
        if let Some(max) = self.max_samples {
            if self.samples.load(Ordering::Relaxed) >= max {
                return false;
            }
        }
        true
    }

    fn charge(&self, joints: u64, samples: u64) {
        if self.max_joints.is_some() && joints > 0 {
            self.joints.fetch_add(joints, Ordering::Relaxed);
        }
        if self.max_samples.is_some() && samples > 0 {
            self.samples.fetch_add(samples, Ordering::Relaxed);
        }
    }

    fn truncate_one(&self) {
        self.truncated.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run one object's closure under the ledger: admission check, per-object
/// budget stamp, delta charging, and budget-trip → `None` conversion.
pub(super) fn run_budgeted<T>(
    ledger: &Ledger,
    budget: &EngineBudget,
    stats: &mut PipelineStats,
    f: impl FnOnce(EngineBudget, &mut PipelineStats) -> Result<T>,
) -> Result<Option<T>> {
    if !ledger.admits(budget) {
        ledger.truncate_one();
        return Ok(None);
    }
    // Each object receives the *remaining* joint allowance, so one monster
    // DFS cannot silently overrun the request-wide ledger between charges.
    let per_object = budget.with_max_joints(ledger.remaining_joints());
    let joints_before = stats.joints_computed;
    let samples_before = stats.samples_drawn;
    let outcome = f(per_object, stats);
    ledger.charge(stats.joints_computed - joints_before, stats.samples_drawn - samples_before);
    match outcome {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.is_budget_exhausted() => {
            let _ = ledger.first_trip.set(e);
            ledger.truncate_one();
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// All-objects skyline probabilities against a resident context:
/// bit-identical, when `budget` is unlimited, to [`super::solve_one`] per
/// object with the policy reseeded by object id.
pub fn all_sky_resident<M: PreferenceModel + Sync>(
    ctx: &BatchCoinContext,
    prefs: &M,
    opts: QueryOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ResidentOutcome<SkyResult>> {
    all_sky_with_trip(ctx, prefs, opts, cache, budget).map(|(out, _)| out)
}

/// [`all_sky_resident`], and the budget error of the first slot it
/// withheld. Without a request budget a withheld slot can only be the
/// policy's own limit tripping (a relative `DetOptions::deadline`), which
/// [`crate::prob_skyline::probabilistic_skyline`] reports as its error.
pub(crate) fn all_sky_with_trip<M: PreferenceModel + Sync>(
    ctx: &BatchCoinContext,
    prefs: &M,
    opts: QueryOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<(ResidentOutcome<SkyResult>, Option<QueryError>)> {
    let n = ctx.n_objects();
    let threads = super::effective_threads(opts.threads, n);
    let cache = cache.filter(|_| opts.component_cache);
    let answers = cache.and_then(|scope| scope.answers());
    let ledger = Ledger::new(&budget);
    let (results, stats) = super::run_chunked(n, threads, |i, scratch, stats| {
        run_budgeted(&ledger, &budget, stats, |per_object, stats| {
            let algo = reseed(opts.algorithm, i as u64);
            solve_recorded(
                ctx,
                prefs,
                ObjectId::from(i),
                algo,
                per_object,
                scratch,
                stats,
                cache,
                answers,
            )
        })
    });
    let results = results.into_iter().collect::<Result<Vec<_>>>()?;
    let outcome = ResidentOutcome { results, stats, truncated: ledger.truncated.into_inner() };
    Ok((outcome, ledger.first_trip.into_inner()))
}

/// One object's skyline probability against a resident context.
///
/// Deliberately *not* seed-decorrelated: with an unlimited budget the
/// value is bit-identical to [`super::solve_one`] under the same policy.
/// An exact answer it computes is recorded in the scope's answer store; it
/// never reads the store (the caller asks [`sky_one_stored`] first).
pub fn sky_one_resident<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    opts: QueryOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ResidentOutcome<SkyResult>> {
    let cache = cache.filter(|_| opts.component_cache);
    let answers = cache.and_then(|scope| scope.answers());
    let ledger = Ledger::new(&budget);
    let mut scratch = SkyScratch::default();
    let mut stats = PipelineStats::default();
    let result = run_budgeted(&ledger, &budget, &mut stats, |per_object, stats| {
        solve_recorded(
            ctx,
            prefs,
            target,
            opts.algorithm,
            per_object,
            &mut scratch,
            stats,
            cache,
            answers,
        )
    })?;
    Ok(ResidentOutcome { results: vec![result], stats, truncated: ledger.truncated.into_inner() })
}

/// The stored answer to a single-target read of `target` under `opts` and
/// `budget`, with the counters such a read reports: one store hit, and the
/// stored logical joints re-added, as a component-cache hit re-adds the
/// joints of its cached solve.
///
/// `None` unless the read opted into caching, its budget would let the
/// object start at all (the request ledger's admission test: deadline not
/// expired, no zero joint or sample allowance), `target` is stored, and
/// the request's policy and joint allowance accept the stored solve (see
/// `reusable`). The value is then bit-identical to what
/// [`sky_one_resident`] computes under the same policy. `answers` must
/// hold the base answers of the model the read is asked under.
pub fn sky_one_stored(
    answers: &AnswerStore,
    target: ObjectId,
    opts: QueryOptions,
    budget: EngineBudget,
) -> Option<(SkyResult, PipelineStats)> {
    if !opts.component_cache || !Ledger::new(&budget).admits(&budget) {
        return None;
    }
    let answer = answers.get(target).filter(|a| reusable(opts.algorithm, budget, a))?;
    let result = SkyResult { object: target, sky: f64::from_bits(answer.sky_bits), exact: true };
    let stats =
        PipelineStats { store_hits: 1, joints_computed: answer.joints, ..PipelineStats::default() };
    Some((result, stats))
}

/// One target through the batch pipeline; an exact answer computed with
/// the default value-defining options (or a short-circuit) is recorded in
/// `answers` with the prepared shape its plan was made from and its
/// logical joints.
#[allow(clippy::too_many_arguments)]
fn solve_recorded<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
    budget: EngineBudget,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
    answers: Option<&AnswerStore>,
) -> Result<SkyResult> {
    let joints_before = stats.joints_computed;
    let prep = PrepareOptions::default();
    let (result, decided) = super::solve_batch_one_explained(
        ctx, prefs, target, algo, budget, prep, scratch, stats, cache,
    )?;
    let shape = match decided {
        Plan::ShortCircuit => Some(PreparedShape::default()),
        Plan::Exact { det, shape } if default_values(&det) => Some(shape),
        _ => None,
    };
    if let (Some(store), Some(shape)) = (answers, shape) {
        let joints = stats.joints_computed - joints_before;
        if store.record(target, StoredAnswer { sky_bits: result.sky.to_bits(), joints, shape }) {
            stats.store_records += 1;
        }
    }
    Ok(result)
}

/// Whether a stored exact `answer` is what `algo` computes for its target
/// under `budget`: the planner decides the stored shape exact (the same
/// [`plan::plans_exact`] the pipeline runs), the exact engine accepts the
/// shape with the options every stored value was computed under, and the
/// joint allowance covers the joints the solve took.
fn reusable(algo: Algorithm, budget: EngineBudget, answer: &StoredAnswer) -> bool {
    let (engine_accepts, det_joints) = match algo {
        Algorithm::Exact { det } => {
            (default_values(&det) && answer.shape.largest <= det.max_attackers, det.max_joints)
        }
        _ => (true, None),
    };
    let affordable =
        [budget.max_joints, det_joints].into_iter().flatten().all(|m| answer.joints <= m);
    engine_accepts && affordable && plan::plans_exact(algo, &answer.shape)
}

/// Whether `det` computes the default bits. Turning zero- or
/// covered-subtree pruning off changes a value's rounding, so answers
/// computed that way are neither recorded nor served.
fn default_values(det: &DetOptions) -> bool {
    det.prune_zero && det.prune_covered
}

/// Threshold membership for every object against a resident context.
///
/// The request budget reaches the ladder as it reaches the flat query's
/// plan: its deadline and the object's remaining joint allowance are
/// stamped into the exact rung, and the deadline into the whole-view
/// Bonferroni pass, the sequential test (where it takes precedence over
/// the test's own `deadline_at`) and the fallback sampler.
pub fn threshold_resident<M: PreferenceModel + Sync>(
    ctx: &BatchCoinContext,
    prefs: &M,
    tau: f64,
    opts: ThresholdOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ResidentOutcome<ThresholdAnswer>> {
    validate_tau(tau)?;
    let n = ctx.n_objects();
    let threads = super::effective_threads(opts.threads, n);
    let cache = cache.filter(|_| opts.component_cache);
    let ledger = Ledger::new(&budget);
    let (results, stats) = super::run_chunked(n, threads, |i, scratch, stats| {
        run_budgeted(&ledger, &budget, stats, |per_object, stats| {
            let target = ObjectId::from(i);
            super::threshold_batch_one(
                ctx, prefs, target, tau, opts, per_object, scratch, stats, cache,
            )
        })
    });
    let results = results.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(ResidentOutcome { results, stats, truncated: ledger.truncated.into_inner() })
}

/// Two-phase top-k against a resident context.
///
/// Scout and refine both charge the request ledgers. A scout slot
/// truncated by the budget drops out of candidacy (its probability is
/// unknown); a refine trip keeps the candidate's scout estimate — still a
/// correct (lower-fidelity) value, never a fabricated one. The returned
/// `results` vector holds the final ranking (`Some` for each of the up-to
/// `k` ranked objects); `truncated` counts both kinds of budget trips.
pub fn top_k_resident<M: PreferenceModel + Sync>(
    ctx: &BatchCoinContext,
    prefs: &M,
    k: usize,
    opts: TopKOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ResidentOutcome<SkyResult>> {
    if k == 0 {
        return Err(crate::error::QueryError::ZeroK);
    }
    let cache = cache.filter(|_| opts.component_cache);

    // Phase 1: scout everything.
    let scout_opts = QueryOptions::default()
        .with_algorithm(Algorithm::Adaptive {
            exact_component_limit: opts.exact_component_limit,
            sam: SCOUT,
        })
        .with_threads(opts.threads)
        .with_component_cache(opts.component_cache);
    let scout = all_sky_resident(ctx, prefs, scout_opts, cache, budget)?;
    let mut stats = scout.stats;
    let mut truncated = scout.truncated;
    let mut scouted: Vec<SkyResult> = scout.results.into_iter().flatten().collect();
    sort_desc(&mut scouted);

    // Phase 2: refine the head of the ranking, serially, sharing one
    // scratch (bit-identical to fresh scratch per target).
    let ledger = Ledger::new(&budget);
    ledger.charge(stats.joints_computed, stats.samples_drawn);
    let cut = (k.saturating_mul(OVERFETCH)).min(scouted.len());
    let mut refined: Vec<SkyResult> = Vec::with_capacity(cut);
    let mut scratch = SkyScratch::default();
    let prep = PrepareOptions::default();
    for r in &scouted[..cut] {
        if r.exact {
            refined.push(*r);
            continue;
        }
        let algo = Algorithm::Adaptive {
            exact_component_limit: opts.exact_component_limit,
            sam: refine_seed(r.object),
        };
        let slot = run_budgeted(&ledger, &budget, &mut stats, |per_object, stats| {
            super::solve_batch_one_explained(
                ctx,
                prefs,
                r.object,
                algo,
                per_object,
                prep,
                &mut scratch,
                stats,
                cache,
            )
            .map(|(result, _)| result)
        })?;
        // A refine trip keeps the scout estimate: correct, just coarser.
        refined.push(slot.unwrap_or(*r));
    }
    truncated += ledger.truncated.into_inner();
    sort_desc(&mut refined);
    refined.truncate(k);
    Ok(ResidentOutcome { results: refined.into_iter().map(Some).collect(), stats, truncated })
}

/// The refine phase's per-object seed decorrelation; `top_k_reference` in
/// `crates/query/tests/properties.rs` must use the same to compare bits.
fn refine_seed(object: ObjectId) -> SamOptions {
    REFINE.with_seed(REFINE.seed ^ (object.0 as u64).wrapping_mul(0x9e37))
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use presky_core::preference::{PrefPair, TablePreferences};
    use presky_core::table::Table;

    use super::*;
    use crate::engine::solve_one;
    use crate::threshold::threshold_one;

    fn fixture() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn unbudgeted_resident_matches_one_shot_bitwise() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let cache = presky_exact::cache::ComponentCache::default();
        let resident = all_sky_resident(
            &ctx,
            &p,
            QueryOptions::default(),
            Some(CacheScope::new(&cache)),
            EngineBudget::default(),
        )
        .unwrap();
        assert!(resident.complete());
        let mut scratch = SkyScratch::default();
        let mut stats = PipelineStats::default();
        for (i, r) in resident.results.iter().enumerate() {
            let r = r.expect("unlimited budget truncates nothing");
            let algo = reseed(QueryOptions::default().algorithm, i as u64);
            let prep = PrepareOptions::default();
            let o = solve_one(&t, &p, r.object, algo, prep, &mut scratch, &mut stats).unwrap();
            assert_eq!(r.sky.to_bits(), o.sky.to_bits());
            assert_eq!(r.exact, o.exact);
        }
    }

    #[test]
    fn expired_deadline_truncates_everything_and_returns_no_values() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let budget =
            EngineBudget::default().with_deadline_at(Some(Instant::now() - Duration::from_secs(1)));
        let out = all_sky_resident(&ctx, &p, QueryOptions::default(), None, budget).unwrap();
        assert_eq!(out.truncated, t.len() as u64);
        assert!(out.results.iter().all(Option::is_none));
    }

    #[test]
    fn joint_ledger_truncates_the_tail_but_never_corrupts_completed_slots() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let full = all_sky_resident(
            &ctx,
            &p,
            QueryOptions::default().with_threads(Some(1)),
            None,
            EngineBudget::default(),
        )
        .unwrap();
        let tiny = all_sky_resident(
            &ctx,
            &p,
            QueryOptions::default().with_threads(Some(1)),
            None,
            EngineBudget::default().with_max_joints(Some(3)),
        )
        .unwrap();
        assert!(tiny.truncated > 0, "a 3-joint ledger cannot cover the batch");
        for (got, want) in tiny.results.iter().zip(&full.results) {
            if let Some(got) = got {
                assert_eq!(got.sky.to_bits(), want.unwrap().sky.to_bits());
            }
        }
    }

    #[test]
    fn threshold_resident_matches_one_shot() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let opts = ThresholdOptions::default();
        let out = threshold_resident(&ctx, &p, 0.15, opts, None, EngineBudget::default()).unwrap();
        assert!(out.complete());
        // The single-target path assembles its view with `CoinView::build`,
        // so this also cross-checks the two view-assembly paths.
        for r in out.results {
            let r = r.unwrap();
            assert_eq!(r, threshold_one(&t, &p, r.object, 0.15, opts).unwrap());
        }
    }

    #[test]
    fn zero_k_rejected() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        assert!(matches!(
            top_k_resident(&ctx, &p, 0, TopKOptions::default(), None, EngineBudget::default()),
            Err(crate::error::QueryError::ZeroK)
        ));
    }
}
