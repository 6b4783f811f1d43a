//! Stage 3 — **Execute**: run the chosen plan on the prepared instance.
//!
//! Two executors live here:
//!
//! * [`execute`] — the flat query: per-component inclusion–exclusion for
//!   [`Plan::Exact`], the Monte-Carlo estimator for [`Plan::Sample`];
//! * [`threshold_ladder`] — the threshold query's escalation ladder, a
//!   sequence of progressively more expensive plan refinements over the
//!   same prepared instance: the product of per-component cheap brackets →
//!   whole-view Bonferroni bounds → exact with a bracketed early exit →
//!   sequential test → fixed-budget estimate.
//!
//! Both record executor telemetry — joints computed, worlds sampled, coin
//! draws, attacker checks, which ladder rung resolved each object — into
//! the run's [`PipelineStats`].

use std::time::Instant;

use presky_core::types::ObjectId;

use presky_approx::sampler::sky_sam_view_with;
use presky_approx::sprt::{sky_threshold_test_view_with, ThresholdDecision};
use presky_exact::bounds::{sky_bounds_bonferroni, sky_bounds_cheap_subset, SkyBounds};
use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::det::{sky_det_view_with, DetOptions};
use presky_exact::signature::component_signature;

use super::plan::{self, Plan, PlanReason};
use super::prepare::SkyScratch;
use super::{CacheScope, PipelineStats};
use crate::error::Result;
use crate::prob_skyline::SkyResult;
use crate::threshold::{Resolution, ThresholdAnswer, ThresholdOptions};

/// Execute `plan` on the prepared instance in `s`, annotating the plan's
/// cache provenance in place (`Plan::Exact::cached`, and
/// [`PlanReason::CacheHit`] when every component was served from `cache`).
pub(crate) fn execute(
    object: ObjectId,
    plan: &mut Plan,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<SkyResult> {
    let t0 = Instant::now();
    let result = match plan {
        Plan::ShortCircuit => SkyResult { object, sky: 0.0, exact: true },
        Plan::Exact { det, components, cached, reason, .. } => {
            let det = *det;
            let mut hits = 0usize;
            let mut sky = 1.0;
            for g in 0..s.partition.n_groups() {
                let (factor, hit) = component_factor(g, det, s, stats, cache)?;
                sky *= factor;
                hits += usize::from(hit);
            }
            // Post-hoc provenance only: the planner's exact-vs-sample
            // choice must not depend on cache contents, or cached and
            // uncached runs would diverge.
            *cached = hits;
            if hits == *components && *components > 0 {
                *reason = PlanReason::CacheHit;
            }
            SkyResult { object, sky, exact: true }
        }
        Plan::Sample { sam, reason, .. } => {
            let out = sky_sam_view_with(&s.work, *sam, &mut s.sam)?;
            stats.samples_drawn += out.samples;
            stats.coin_draws += out.coin_draws;
            stats.attacker_checks += out.attacker_checks;
            // A forced-sampling policy on an attacker-free instance is
            // still exact (the estimate is the constant 1); an adaptive
            // policy never reaches sampling in that case.
            let exact = matches!(reason, PlanReason::Forced) && s.work.n_attackers() == 0;
            SkyResult { object, sky: out.estimate, exact }
        }
    };
    stats.execute_nanos += t0.elapsed().as_nanos() as u64;
    Ok(result)
}

/// Exact skyline factor of partition group `g`, served from `cache` when
/// possible. Returns `(factor, was_cache_hit)`.
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
) -> Result<(f64, bool)> {
    let group = s.partition.group(g);
    if !s.work.restrict_canonical_into(group, &mut s.canon, &mut s.sub) {
        s.work.restrict_into(group, &mut s.remap, &mut s.sub);
        let out = sky_det_view_with(&s.sub, det, &mut s.det)?;
        stats.joints_computed += out.joints_computed;
        return Ok((out.sky, false));
    }
    let Some(scope) = cache else {
        let out = sky_det_view_with(&s.sub, det, &mut s.det)?;
        stats.joints_computed += out.joints_computed;
        return Ok((out.sky, false));
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
        return Ok((f64::from_bits(entry.sky_bits), true));
    }
    let out = sky_det_view_with(&s.sub, det, &mut s.det)?;
    stats.joints_computed += out.joints_computed;
    let entry = CacheEntry { sky_bits: out.sky.to_bits(), joints_computed: out.joints_computed };
    if scope.cache().insert(&s.sig, entry) {
        stats.cache_insertions += 1;
        stats.cache_bytes += ComponentCache::entry_bytes(&s.sig);
    }
    Ok((out.sky, false))
}

/// The escalation ladder on the prepared instance — rungs are plan
/// refinements over one Prepare pass, cheapest first. The caller has
/// already run [`super::prepare::prepare`] (and handled its short-circuit).
pub(crate) fn threshold_ladder(
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<ThresholdAnswer> {
    let t0 = Instant::now();
    let answer = threshold_ladder_inner(target, tau, opts, s, stats, cache);
    stats.execute_nanos += t0.elapsed().as_nanos() as u64;
    answer
}

fn threshold_ladder_inner(
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<ThresholdAnswer> {
    // Rung 1: the product of per-component cheap brackets. The components
    // are independent (Theorem 4), so the product encloses sky at O(n·d)
    // cost, with no joint probability computed.
    if let Some(answer) = decide(target, tau, component_brackets(s)) {
        stats.plan_bounds += 1;
        return Ok(answer);
    }

    // Rung 2: whole-view Bonferroni bounds, on instances small enough that
    // level-2 enumeration stays cheap; level 1 otherwise.
    let level = if s.work.n_attackers() <= 2_000 { opts.bonferroni_level } else { 1 };
    if let Some(answer) = decide(target, tau, sky_bounds_bonferroni(&s.work, level)?) {
        stats.plan_bounds += 1;
        return Ok(answer);
    }

    // Rung 3: exact when cheap — the flat query's cost shape (largest
    // component, summed lattice cost) refined with the ladder's own work
    // limit. After each solved factor, the factors solved so far times the
    // remaining components' brackets enclose sky, so the scan exits as
    // soon as that product decides either side of τ.
    let largest = plan::largest_component(&s.partition);
    let exact_work = plan::exact_cost(&s.partition);
    if largest <= opts.exact_component_limit && exact_work <= opts.exact_work_limit {
        stats.plan_exact += 1;
        let det = DetOptions::default()
            .with_max_attackers(opts.exact_component_limit)
            .with_deadline_at(opts.deadline_at)
            .with_max_joints(opts.max_joints);
        let n_groups = s.partition.n_groups();
        let mut sky = 1.0;
        for g in 0..n_groups {
            let (factor, _) = component_factor(g, det, s, stats, cache)?;
            sky *= factor;
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
        .with_deadline_at(opts.deadline_at.or(opts.sprt.deadline_at));
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
            let sam = opts
                .fallback
                .with_seed(opts.fallback.seed ^ target.0 as u64)
                .with_deadline_at(opts.deadline_at.or(opts.fallback.deadline_at));
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

/// Fill `s.brackets` with the suffix products of the per-component cheap
/// brackets over `s.work`'s partition, and return the whole product.
fn component_brackets(s: &mut SkyScratch) -> SkyBounds {
    let n_groups = s.partition.n_groups();
    s.brackets.clear();
    s.brackets.resize(n_groups + 1, SkyBounds { lower: 1.0, upper: 1.0 });
    for g in (0..n_groups).rev() {
        let b = sky_bounds_cheap_subset(&s.work, s.partition.group(g).iter().copied());
        let rest = s.brackets[g + 1];
        s.brackets[g] = SkyBounds { lower: b.lower * rest.lower, upper: b.upper * rest.upper };
    }
    s.brackets[0]
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
