//! Stage 2 — **Plan**: decide how the prepared instance will be solved.
//!
//! The planner looks only at the *shape* left behind by Prepare — the
//! [`PreparedShape`] of the partition in `SkyScratch::partition` and the
//! reduced view — and emits a [`Plan`] that carries the decision and the
//! shape it was made from:
//!
//! * exact per-component inclusion–exclusion costs up to `2^|g|` subset
//!   terms per component, summed (saturating) over the partition;
//! * the sampler's side of the ledger is its own predicted cost under the
//!   configured kernel ([`SamOptions::predicted_cost`] accounts for the
//!   64-worlds-per-word bit-parallel batching), floored at `1 << 22` so
//!   small instances stay on the exact path even under tiny budgets.
//!
//! The answer store records the same shape with every exact answer, so a
//! later read replays the decision ([`plans_exact`]) without re-running
//! Prepare.

use std::fmt;

use presky_approx::sampler::SamOptions;
use presky_core::epoch::PreparedShape;
use presky_exact::det::DetOptions;
use presky_exact::partition::PartitionScratch;

use super::prepare::SkyScratch;
use super::{EngineBudget, PipelineStats};
use crate::prob_skyline::Algorithm;

/// The execution plan for one prepared target: the decision and the
/// shape it was made from.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Prepare proved `sky = 0` exactly (certain attacker); nothing to
    /// execute.
    ShortCircuit,
    /// Per-component inclusion–exclusion over the partition groups.
    Exact {
        /// Budgets handed to the per-component engine.
        det: DetOptions,
        /// The prepared shape the decision was made from.
        shape: PreparedShape,
    },
    /// Monte-Carlo sampling on the reduced instance.
    Sample {
        /// Sampler configuration (budget, seed, kernel flags).
        sam: SamOptions,
        /// The prepared shape the decision was made from.
        shape: PreparedShape,
    },
}

impl Plan {
    /// The prepared shape the decision was made from; empty for a
    /// short-circuit, which leaves nothing to solve.
    pub fn shape(&self) -> PreparedShape {
        match self {
            Plan::ShortCircuit => PreparedShape::default(),
            Plan::Exact { shape, .. } | Plan::Sample { shape, .. } => *shape,
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = match self {
            Plan::ShortCircuit => {
                return write!(f, "short-circuit (certain attacker, sky = 0 exact)")
            }
            Plan::Exact { shape, .. } => {
                write!(f, "exact")?;
                shape
            }
            Plan::Sample { sam, shape } => {
                write!(f, "sample {} worlds", sam.samples)?;
                shape
            }
        };
        write!(
            f,
            " on {} attackers over {} coins, largest component {}, lattice cost {}",
            shape.attackers, shape.coins, shape.largest, shape.exact_cost
        )
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
    let decided = match algo {
        Algorithm::Exact { det } => Plan::Exact { det: budget.stamp_det(det), shape },
        Algorithm::Adaptive { exact_component_limit, .. } if plans_exact(algo, &shape) => {
            let det = DetOptions::default().with_max_attackers(exact_component_limit);
            Plan::Exact { det: budget.stamp_det(det), shape }
        }
        Algorithm::Adaptive { sam, .. } | Algorithm::Sampling(sam) => {
            Plan::Sample { sam: budget.stamp_sam(sam), shape }
        }
    };
    match decided {
        Plan::Exact { .. } => stats.plan_exact += 1,
        Plan::Sample { .. } => stats.plan_sample += 1,
        Plan::ShortCircuit => {}
    }
    stats.plan_nanos += t0.elapsed().as_nanos() as u64;
    decided
}
