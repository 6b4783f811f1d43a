//! Stage 3 — **Execute**: run the chosen plan on the prepared instance.
//!
//! Two executors live here:
//!
//! * [`execute`] — the flat query: per-component inclusion–exclusion for
//!   [`Plan::Exact`], the Monte-Carlo estimator for [`Plan::Sample`];
//! * the threshold query's escalation ladder, a sequence of progressively
//!   more expensive plan refinements. [`threshold_unabsorbed`] is rung 0:
//!   the product of per-component cheap brackets over the pruned view,
//!   taken between Prepare's two halves, before absorption.
//!   [`threshold_ladder`] walks the rest over the prepared instance: the
//!   same product over the reduced view's components → whole-view
//!   Bonferroni bounds → exact with a bracketed early exit → sequential
//!   test → fixed-budget estimate. The exact rung engages where
//!   [`plan::plans_exact`] would plan the flat adaptive query exact, and
//!   the request's [`EngineBudget`] is stamped into the exact and sampling
//!   rungs as [`plan::plan`] stamps it into the flat query's engines.
//!
//! Both record executor telemetry — joints computed, worlds sampled, coin
//! draws, attacker checks, which ladder rung resolved each object — into
//! the run's [`PipelineStats`].

use std::time::Instant;

use presky_core::coins::CoinView;
use presky_core::types::ObjectId;

use presky_approx::sampler::sky_sam_view_with;
use presky_approx::sprt::{sky_threshold_test_view_with, ThresholdDecision};
use presky_exact::bounds::{sky_bounds_bonferroni_until, sky_bounds_cheap_subset, SkyBounds};
use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::det::{sky_det_view_with, DetOptions};
use presky_exact::partition::{partition_into, PartitionScratch};
use presky_exact::signature::component_signature;

use super::plan::{self, Plan};
use super::prepare::SkyScratch;
use super::{CacheScope, EngineBudget, PipelineStats};
use crate::error::Result;
use crate::prob_skyline::{Algorithm, SkyResult};
use crate::threshold::{Resolution, ThresholdAnswer, ThresholdOptions, FALLBACK};

/// Execute `plan` on the prepared instance in `s`.
pub(crate) fn execute(
    object: ObjectId,
    plan: &Plan,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<SkyResult> {
    let t0 = Instant::now();
    let result = match *plan {
        Plan::ShortCircuit => SkyResult { object, sky: 0.0, exact: true },
        Plan::Exact { det, .. } => {
            let mut sky = 1.0;
            for g in 0..s.partition.n_groups() {
                sky *= component_factor(g, det, s, stats, cache)?;
            }
            SkyResult { object, sky, exact: true }
        }
        Plan::Sample { sam, .. } => {
            let out = sky_sam_view_with(&s.work, sam, &mut s.sam)?;
            stats.samples_drawn += out.samples;
            stats.coin_draws += out.coin_draws;
            stats.attacker_checks += out.attacker_checks;
            // On an attacker-free instance the estimate is the constant 1,
            // which is exact. Only a forced-sampling policy gets here with
            // one: the adaptive policy plans it exact.
            SkyResult { object, sky: out.estimate, exact: s.work.n_attackers() == 0 }
        }
    };
    stats.execute_nanos += t0.elapsed().as_nanos() as u64;
    Ok(result)
}

/// Exact skyline factor of partition group `g`, served from `cache` when
/// possible.
///
/// Keyed views are *always* restricted canonically — whether or not a cache
/// is present — so the DFS multiplies in a canonical order and the result
/// bits are a function of the component's content alone. That is what
/// makes a hit bit-identical to a solve, and cache-on runs bit-identical
/// to `--no-component-cache` runs. Synthetic (key-less) views cannot be
/// canonicalized and fall back to the plain first-appearance restriction,
/// bypassing the cache.
fn component_factor(
    g: usize,
    det: DetOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<f64> {
    let group = s.partition.group(g);
    if !s.work.restrict_canonical_into(group, &mut s.canon, &mut s.sub) {
        s.work.restrict_into(group, &mut s.remap, &mut s.sub);
        let out = sky_det_view_with(&s.sub, det, &mut s.det)?;
        stats.joints_computed += out.joints_computed;
        return Ok(out.sky);
    }
    let Some(scope) = cache else {
        let out = sky_det_view_with(&s.sub, det, &mut s.det)?;
        stats.joints_computed += out.joints_computed;
        return Ok(out.sky);
    };
    let keyed = component_signature(&s.sub, &mut s.sig);
    debug_assert!(keyed, "canonical views always carry coin keys");
    // Tenant-namespaced scopes (the no-sharing ablation) suffix the key
    // with the namespace. Base signatures are uniquely decodable with no
    // trailing bytes, so the suffix cannot collide with any base key, and
    // `signature_coins` ignores it, so the eviction scan of a preference
    // edit still sees the embedded coins.
    if scope.namespace() != 0 {
        s.sig.extend_from_slice(&scope.namespace().to_le_bytes());
    }
    stats.cache_probes += 1;
    if let Some(entry) = scope.cache().get(&s.sig) {
        stats.cache_hits += 1;
        if scope.hit_is_base(&s.sig) {
            stats.cache_base_hits += 1;
        }
        // Logical work accounting stays deterministic across warm and cold
        // caches: a hit re-adds the joints the solve would have computed.
        stats.joints_computed += entry.joints_computed;
        return Ok(f64::from_bits(entry.sky_bits));
    }
    let out = sky_det_view_with(&s.sub, det, &mut s.det)?;
    stats.joints_computed += out.joints_computed;
    let entry = CacheEntry { sky_bits: out.sky.to_bits(), joints_computed: out.joints_computed };
    if scope.cache().insert(&s.sig, entry) {
        stats.cache_insertions += 1;
        stats.cache_bytes += ComponentCache::entry_bytes(&s.sig);
    }
    Ok(out.sky)
}

/// Rung 0 of the threshold ladder, on the pruned but un-absorbed `s.view`
/// (the caller has run [`super::prepare::prune`] and handled its
/// short-circuit): partition `s.view` into `s.partition` and decide from
/// the product of its components' cheap brackets.
///
/// Absorption never changes `sky` (Theorem 3) and the components of any
/// view are independent (Theorem 4), so this product is as certified as
/// rung 1's over the reduced view; it may differ in value, since an
/// absorbed attacker can join components the reduced view keeps apart.
/// `None` leaves the target to [`super::prepare::reduce`] and
/// [`threshold_ladder`].
pub(crate) fn threshold_unabsorbed(
    target: ObjectId,
    tau: f64,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
) -> Option<ThresholdAnswer> {
    let t0 = Instant::now();
    partition_into(&s.view, &mut s.partition);
    let answer = decide(target, tau, component_brackets(&s.view, &s.partition, &mut s.brackets));
    if answer.is_some() {
        stats.plan_bounds += 1;
        stats.plan_bounds_unabsorbed += 1;
    }
    stats.execute_nanos += t0.elapsed().as_nanos() as u64;
    answer
}

/// The escalation ladder on the prepared instance — rungs 1–5 are plan
/// refinements over one Prepare pass, cheapest first. The caller has
/// already run both halves of Prepare (and handled the short-circuit) and
/// rung 0 has left the target open.
pub(crate) fn threshold_ladder(
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    budget: EngineBudget,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<ThresholdAnswer> {
    let t0 = Instant::now();
    let answer = threshold_ladder_inner(target, tau, opts, budget, s, stats, cache);
    stats.execute_nanos += t0.elapsed().as_nanos() as u64;
    answer
}

fn threshold_ladder_inner(
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    budget: EngineBudget,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<ThresholdAnswer> {
    // Rung 1: the product of per-component cheap brackets over the reduced
    // view. The components are independent (Theorem 4), so the product
    // encloses sky at O(n·d) cost, with no joint probability computed; it
    // can decide where rung 0's product did not, since absorption drops
    // attackers and splits components.
    if let Some(answer) =
        decide(target, tau, component_brackets(&s.work, &s.partition, &mut s.brackets))
    {
        stats.plan_bounds += 1;
        return Ok(answer);
    }

    // Rung 2: whole-view Bonferroni bounds, on instances small enough that
    // level-2 enumeration stays cheap; level 1 otherwise. The request
    // deadline is checked every 8192 joints of the enumeration.
    let level = if s.work.n_attackers() <= 2_000 { opts.bonferroni_level } else { 1 };
    let bounds = sky_bounds_bonferroni_until(&s.work, level, budget.deadline_at)?;
    if let Some(answer) = decide(target, tau, bounds) {
        stats.plan_bounds += 1;
        return Ok(answer);
    }

    // Rung 3: exact wherever the adaptive flat query would solve exactly
    // (the same `plans_exact` rule, with the FALLBACK sampler's predicted
    // cost as the sampling side). After each solved factor, the factors
    // solved so far times the remaining components' brackets enclose sky,
    // so the scan exits as soon as that product decides either side of τ.
    let algo =
        Algorithm::Adaptive { exact_component_limit: opts.exact_component_limit, sam: FALLBACK };
    if plan::plans_exact(algo, &plan::prepared_shape(s)) {
        stats.plan_exact += 1;
        let det =
            budget.stamp_det(DetOptions::default().with_max_attackers(opts.exact_component_limit));
        let n_groups = s.partition.n_groups();
        let mut sky = 1.0;
        for g in 0..n_groups {
            sky *= component_factor(g, det, s, stats, cache)?;
            if g + 1 < n_groups {
                let rest = s.brackets[g + 1];
                let bounds = SkyBounds { lower: sky * rest.lower, upper: sky * rest.upper };
                if let Some(answer) = decide(target, tau, bounds) {
                    return Ok(answer);
                }
            }
        }
        return Ok(ThresholdAnswer {
            object: target,
            member: sky >= tau,
            resolution: Resolution::Exact(sky),
        });
    }

    // Rung 4: sequential test.
    let sprt = opts
        .sprt
        .with_seed(opts.sprt.seed ^ target.0 as u64)
        .with_deadline_at(budget.deadline_at.or(opts.sprt.deadline_at));
    let out = sky_threshold_test_view_with(&s.work, tau, sprt, &mut s.sam)?;
    stats.samples_drawn += out.samples_used;
    stats.coin_draws += out.coin_draws;
    stats.attacker_checks += out.attacker_checks;
    match out.decision {
        ThresholdDecision::AtLeast => {
            stats.plan_sequential += 1;
            Ok(ThresholdAnswer {
                object: target,
                member: true,
                resolution: Resolution::Sequential { samples_used: out.samples_used },
            })
        }
        ThresholdDecision::Below => {
            stats.plan_sequential += 1;
            Ok(ThresholdAnswer {
                object: target,
                member: false,
                resolution: Resolution::Sequential { samples_used: out.samples_used },
            })
        }
        ThresholdDecision::Undecided => {
            // Rung 5: fixed-budget estimate.
            stats.plan_fallback += 1;
            let sam = FALLBACK
                .with_seed(FALLBACK.seed ^ target.0 as u64)
                .with_deadline_at(budget.deadline_at);
            let out = sky_sam_view_with(&s.work, sam, &mut s.sam)?;
            stats.samples_drawn += out.samples;
            stats.coin_draws += out.coin_draws;
            stats.attacker_checks += out.attacker_checks;
            Ok(ThresholdAnswer {
                object: target,
                member: out.estimate >= tau,
                resolution: Resolution::Estimated(out.estimate),
            })
        }
    }
}

/// Fill `brackets` with the suffix products of the per-component cheap
/// brackets over `view`'s partition `groups`, and return the whole
/// product.
fn component_brackets(
    view: &CoinView,
    groups: &PartitionScratch,
    brackets: &mut Vec<SkyBounds>,
) -> SkyBounds {
    let n_groups = groups.n_groups();
    brackets.clear();
    brackets.resize(n_groups + 1, SkyBounds { lower: 1.0, upper: 1.0 });
    for g in (0..n_groups).rev() {
        let b = sky_bounds_cheap_subset(view, groups.group(g).iter().copied());
        let rest = brackets[g + 1];
        brackets[g] = SkyBounds { lower: b.lower * rest.lower, upper: b.upper * rest.upper };
    }
    brackets[0]
}

/// The membership a certified enclosure decides, if it decides one.
fn decide(target: ObjectId, tau: f64, bounds: SkyBounds) -> Option<ThresholdAnswer> {
    let member = bounds.certainly_at_least(tau);
    (member || bounds.certainly_below(tau)).then_some(ThresholdAnswer {
        object: target,
        member,
        resolution: Resolution::Bounds(bounds),
    })
}
