//! Stage 2 — **Plan**: decide how the prepared instance will be solved.
//!
//! The planner looks only at the *shape* left behind by Prepare — the
//! component sizes in `SkyScratch::partition` and the reduced view's
//! attacker/coin counts — and emits an inspectable [`Plan`]:
//!
//! * exact per-component inclusion–exclusion costs up to `2^|g|` subset
//!   terms per component, summed (saturating) over the partition;
//! * the sampler's side of the ledger is its own predicted cost under the
//!   configured kernel ([`SamOptions::predicted_cost`] accounts for the
//!   64-worlds-per-word bit-parallel batching), floored at `1 << 22` so
//!   small instances stay on the exact path even under tiny budgets.
//!
//! A [`Plan`] carries its provenance ([`PlanReason`]) so the CLI and the
//! bench harness can report *why* each target went exact or sampled.

use std::fmt;

use presky_approx::sampler::SamOptions;
use presky_core::epoch::PreparedShape;
use presky_exact::det::DetOptions;
use presky_exact::partition::PartitionScratch;

use super::prepare::SkyScratch;
use super::{EngineBudget, PipelineStats};
use crate::prob_skyline::Algorithm;

/// Why the planner chose the branch it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReason {
    /// The policy dictates this engine unconditionally.
    Forced,
    /// The cost model compared `Σ 2^|g|` against the sampler's predicted
    /// cost and this side won.
    CostModel,
    /// Some component exceeds the exact engine's size limit, so only the
    /// sampler is feasible.
    ComponentTooLarge,
    /// Refinement recorded after execution: the plan was exact and *every*
    /// component was served from the cross-target component cache, so no
    /// inclusion–exclusion ran at all. (The planner never chooses this —
    /// the cache must not influence exact-vs-sample, or cached and
    /// uncached runs would diverge.)
    CacheHit,
}

/// The execution plan for one prepared target.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Prepare proved `sky = 0` exactly (certain attacker); nothing to
    /// execute.
    ShortCircuit,
    /// Per-component inclusion–exclusion over the partition groups.
    Exact {
        /// Budgets handed to the per-component engine.
        det: DetOptions,
        /// Number of independent components.
        components: usize,
        /// Largest component size.
        largest: usize,
        /// Per-component sizes in partition order — the breakdown the
        /// `--stats` display prints unconditionally (a single component is
        /// a breakdown of one, not an omission).
        component_sizes: Vec<usize>,
        /// Summed `2^|g|` lattice cost (saturating).
        exact_cost: u64,
        /// Components served from the component cache, recorded by the
        /// Execute stage after the fact (always 0 before execution).
        cached: usize,
        /// Why this branch was taken.
        reason: PlanReason,
    },
    /// Monte-Carlo sampling on the reduced instance.
    Sample {
        /// Sampler configuration (budget, seed, kernel flags).
        sam: SamOptions,
        /// The sampler's predicted cost that entered the comparison.
        predicted_cost: u64,
        /// Why this branch was taken.
        reason: PlanReason,
    },
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::ShortCircuit => write!(f, "short-circuit (certain attacker, sky = 0 exact)"),
            Plan::Exact {
                components,
                largest,
                component_sizes,
                exact_cost,
                cached,
                reason,
                ..
            } => {
                write!(
                    f,
                    "exact: {components} component(s), largest {largest}, lattice cost {exact_cost}"
                )?;
                // The breakdown prints unconditionally — cache-hit
                // provenance must be visible even for single-component
                // targets.
                write!(f, "; components [")?;
                for (i, len) in component_sizes.iter().enumerate() {
                    write!(f, "{}{len}", if i > 0 { " " } else { "" })?;
                }
                write!(f, "], {cached}/{components} cached ({reason:?})")
            }
            Plan::Sample { sam, predicted_cost, reason } => write!(
                f,
                "sample: {} worlds, predicted cost {predicted_cost} ({reason:?})",
                sam.samples
            ),
        }
    }
}

/// Summed per-component inclusion–exclusion cost `Σ 2^min(|g|, 63)`,
/// saturating — the exact engine's side of the cost-model ledger.
pub fn exact_cost(partition: &PartitionScratch) -> u64 {
    (0..partition.n_groups())
        .map(|g| 1u64 << partition.group(g).len().min(63))
        .fold(0u64, u64::saturating_add)
}

/// Size of the largest partition group (0 when there are none).
pub fn largest_component(partition: &PartitionScratch) -> usize {
    (0..partition.n_groups()).map(|g| partition.group(g).len()).max().unwrap_or(0)
}

/// Per-component sizes in partition order.
pub fn component_sizes(partition: &PartitionScratch) -> Vec<usize> {
    (0..partition.n_groups()).map(|g| partition.group(g).len()).collect()
}

/// The numbers the planner reads off the prepared target in `s`.
pub(crate) fn prepared_shape(s: &SkyScratch) -> PreparedShape {
    PreparedShape {
        largest: largest_component(&s.partition),
        exact_cost: exact_cost(&s.partition),
        attackers: s.work.n_attackers(),
        coins: s.work.n_coins(),
    }
}

/// The adaptive policy's sampling side of the ledger: the sampler's own
/// predicted cost under the configured kernel (bit-parallel batching makes
/// sampling ~64× cheaper per world, so the break-even point genuinely
/// depends on the kernel), floored at `1 << 22` so small instances stay on
/// the exact path even under tiny sampling budgets.
fn adaptive_sample_cost(sam: SamOptions, shape: &PreparedShape) -> u64 {
    sam.predicted_cost(shape.attackers, shape.coins).max(1 << 22)
}

/// Whether `algo` plans a prepared target of `shape` exact. This is the
/// decision [`plan`] makes; the answer store replays it on the shape it
/// recorded, so a stored exact answer is only reused where the request's
/// own policy would have solved exactly.
pub(crate) fn plans_exact(algo: Algorithm, shape: &PreparedShape) -> bool {
    match algo {
        Algorithm::Exact { .. } => true,
        Algorithm::Sampling(_) => false,
        // Exact inclusion–exclusion costs up to 2^|g| subset terms per
        // component; it must fit the size limit and undercut the sampler.
        Algorithm::Adaptive { exact_component_limit, sam } => {
            shape.largest <= exact_component_limit
                && shape.exact_cost <= adaptive_sample_cost(sam, shape)
        }
    }
}

/// Decide the plan for the prepared target in `s` under `algo`.
///
/// The request budget is stamped into whichever engine options the plan
/// selects (deadline + joint ceiling for exact, deadline for sampling);
/// it never influences the exact-vs-sample decision itself, so budgeted
/// and unbudgeted runs choose identical plans and differ only in whether
/// execution is allowed to finish.
pub(crate) fn plan(
    algo: Algorithm,
    budget: EngineBudget,
    s: &SkyScratch,
    stats: &mut PipelineStats,
) -> Plan {
    let t0 = std::time::Instant::now();
    let shape = prepared_shape(s);
    let exact = |det: DetOptions, reason| Plan::Exact {
        det: budget.stamp_det(det),
        components: s.partition.n_groups(),
        largest: shape.largest,
        component_sizes: component_sizes(&s.partition),
        exact_cost: shape.exact_cost,
        cached: 0,
        reason,
    };
    let decided = match algo {
        Algorithm::Exact { det } => exact(det, PlanReason::Forced),
        Algorithm::Sampling(sam) => Plan::Sample {
            sam: budget.stamp_sam(sam),
            predicted_cost: sam.predicted_cost(shape.attackers, shape.coins),
            reason: PlanReason::Forced,
        },
        Algorithm::Adaptive { exact_component_limit, .. } if plans_exact(algo, &shape) => exact(
            DetOptions::default().with_max_attackers(exact_component_limit),
            PlanReason::CostModel,
        ),
        Algorithm::Adaptive { exact_component_limit, sam } => Plan::Sample {
            sam: budget.stamp_sam(sam),
            predicted_cost: adaptive_sample_cost(sam, &shape),
            reason: if shape.largest > exact_component_limit {
                PlanReason::ComponentTooLarge
            } else {
                PlanReason::CostModel
            },
        },
    };
    match decided {
        Plan::Exact { .. } => stats.plan_exact += 1,
        Plan::Sample { .. } => stats.plan_sample += 1,
        Plan::ShortCircuit => {}
    }
    stats.plan_nanos += t0.elapsed().as_nanos() as u64;
    decided
}
