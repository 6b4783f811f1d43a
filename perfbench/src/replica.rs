//! Single-threaded replica of the engine's per-target all-sky pipeline,
//! built only from the layers' public functions and timed call by call.
//!
//! For every target, in the engine's order: `BatchCoinContext::view_into`
//! → `has_certain_attacker`, `prune_impossible` → `absorb_into` →
//! `restrict_into` → `partition_into` → `exact_cost`/`largest_component`
//! (the adaptive plan) → per component `restrict_canonical_into`,
//! `component_signature`, `ComponentCache::get`, and on a miss
//! `sky_det_view_with`, `sky_det_grad_view_with` and
//! `ComponentCache::insert` (`sky_sam_view_with` when the plan samples).
//! Threshold workloads also run `sky_bounds_bonferroni` on each prepared
//! target. Each call is one span under a per-target root span.
//!
//! The replica's values are compared bit for bit against
//! `Engine::run(all_sky)` (see [`crate::workloads`]); the gradient solve
//! must return the same `sky` bits as the plain solve on every component.

use presky_approx::sampler::{sky_sam_view_with, SamOptions, SamScratch};
use presky_core::batch::{BatchCoinContext, BatchScratch};
use presky_core::coins::{CanonScratch, CoinRemap, CoinView};
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;
use presky_exact::absorption::{absorb_into, AbsorbScratch, AbsorptionResult};
use presky_exact::bounds::sky_bounds_bonferroni;
use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::det::{sky_det_grad_view_with, sky_det_view_with, DetOptions, DetScratch};
use presky_exact::partition::{partition_into, PartitionScratch};
use presky_exact::signature::component_signature;
use presky_query::engine::{exact_cost, largest_component};
use presky_query::prob_skyline::Algorithm;
use presky_query::threshold::ThresholdOptions;

use crate::trace::{Trace, ROOT};

/// Span names of the layer calls the engine's own all-sky also makes
/// (everything but the gradient twin, the bounds and the index build).
pub const ENGINE_LAYERS: [&str; 12] = [
    "core.batch.view_into",
    "core.coins.prune",
    "exact.absorption.absorb",
    "core.coins.restrict",
    "exact.partition.partition",
    "query.engine.plan_cost",
    "core.coins.canonicalise",
    "exact.signature.sign",
    "exact.cache.get",
    "exact.det.dfs",
    "exact.cache.insert",
    "approx.sampler.sample",
];

/// Work counted by the replica.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attackers_assembled: u64,
    pub absorb_in: u64,
    pub absorb_kept: u64,
    pub components: u64,
    pub largest: u64,
    pub probes: u64,
    pub hits: u64,
    pub refused: u64,
    pub solves: u64,
    pub joints: u64,
    pub grad_mismatches: u64,
    pub bounds_targets: u64,
    pub bounds_resolved: u64,
    pub sampled_worlds: u64,
}

/// The replica's answer: one `sky` bit pattern per object, plus counts.
#[derive(Debug)]
pub struct Replica {
    pub sky_bits: Vec<u64>,
    pub counts: Counts,
}

struct Scratch {
    batch: BatchScratch,
    view: CoinView,
    work: CoinView,
    sub: CoinView,
    remap: CoinRemap,
    canon: CanonScratch,
    sig: Vec<u8>,
    absorb: AbsorbScratch,
    absorbed: AbsorptionResult,
    part: PartitionScratch,
    det: DetScratch,
    grad: Vec<f64>,
    sam: SamScratch,
}

impl Scratch {
    fn new() -> Self {
        Self {
            batch: BatchScratch::default(),
            view: CoinView::empty(),
            work: CoinView::empty(),
            sub: CoinView::empty(),
            remap: CoinRemap::default(),
            canon: CanonScratch::default(),
            sig: Vec::new(),
            absorb: AbsorbScratch::default(),
            absorbed: AbsorptionResult::default(),
            part: PartitionScratch::default(),
            det: DetScratch::default(),
            grad: Vec::new(),
            sam: SamScratch::default(),
        }
    }
}

/// The engine's default per-object policy (adaptive exact-or-sample).
fn default_policy() -> (usize, SamOptions) {
    match Algorithm::default() {
        Algorithm::Adaptive { exact_component_limit, sam } => (exact_component_limit, sam),
        other => panic!("replica mirrors the adaptive default policy, found {other:?}"),
    }
}

/// Run the replica over `table` with a fresh cache of `cache_bytes`.
/// `tau` enables the threshold bounds rung on every prepared target.
pub fn run<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    cache_bytes: usize,
    tau: Option<f64>,
    trace: &mut Trace,
) -> Result<Replica, String> {
    let ctx = trace
        .span("core.batch.build", ROOT, 0, || BatchCoinContext::build(table))
        .map_err(|e| format!("replica index build: {e}"))?;
    let cache = ComponentCache::with_byte_cap(cache_bytes);
    let (limit, sam0) = default_policy();
    let det = DetOptions::default().with_max_attackers(limit).with_threads(1);
    let level = ThresholdOptions::default().bonferroni_level;
    let mut s = Scratch::new();
    let mut c = Counts::default();
    let n = ctx.n_objects();
    let mut sky_bits = Vec::with_capacity(n);
    for i in 0..n {
        let id = i as u64;
        let root = trace.open("replica.target", ROOT, id);
        trace
            .span("core.batch.view_into", root, id, || {
                ctx.view_into(prefs, ObjectId::from(i), &mut s.batch, &mut s.view)
            })
            .map_err(|e| format!("view_into({i}): {e}"))?;
        c.attackers_assembled += s.view.n_attackers() as u64;
        if trace.span("core.coins.prune", root, id, || s.view.has_certain_attacker()) {
            sky_bits.push(0f64.to_bits());
            trace.close(root);
            continue;
        }
        trace.span("core.coins.prune", root, id, || s.view.prune_impossible());
        c.absorb_in += s.view.n_attackers() as u64;
        trace.span("exact.absorption.absorb", root, id, || {
            absorb_into(&s.view, &mut s.absorb, &mut s.absorbed)
        });
        c.absorb_kept += s.absorbed.kept.len() as u64;
        trace.span("core.coins.restrict", root, id, || {
            s.view.restrict_into(&s.absorbed.kept, &mut s.remap, &mut s.work)
        });
        trace.span("exact.partition.partition", root, id, || partition_into(&s.work, &mut s.part));
        c.components += s.part.n_groups() as u64;

        // The adaptive plan: exact when the largest component fits and the
        // summed 2^|g| lattice undercuts the sampler's predicted cost.
        let sam = sam0.with_seed(sam0.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (largest, exact) = trace.span("query.engine.plan_cost", root, id, || {
            let largest = largest_component(&s.part);
            let lattice = exact_cost(&s.part);
            let sample_cost =
                sam.predicted_cost(s.work.n_attackers(), s.work.n_coins()).max(1 << 22);
            (largest, largest <= limit && lattice <= sample_cost)
        });
        c.largest = c.largest.max(largest as u64);

        if let Some(tau) = tau {
            let level = if s.work.n_attackers() <= 2_000 { level } else { 1 };
            let bounds = trace
                .span("exact.bounds.bonferroni", root, id, || sky_bounds_bonferroni(&s.work, level))
                .map_err(|e| format!("bounds({i}): {e}"))?;
            c.bounds_targets += 1;
            if bounds.certainly_at_least(tau) || bounds.certainly_below(tau) {
                c.bounds_resolved += 1;
            }
        }

        let value = if exact {
            let mut value = 1.0f64;
            for g in 0..s.part.n_groups() {
                let group = s.part.group(g);
                let keyed = trace.span("core.coins.canonicalise", root, id, || {
                    s.work.restrict_canonical_into(group, &mut s.canon, &mut s.sub)
                });
                if !keyed {
                    return Err(format!("target {i}: batch views always carry coin keys"));
                }
                trace.span("exact.signature.sign", root, id, || {
                    component_signature(&s.sub, &mut s.sig)
                });
                c.probes += 1;
                if let Some(hit) = trace.span("exact.cache.get", root, id, || cache.get(&s.sig)) {
                    c.hits += 1;
                    value *= f64::from_bits(hit.sky_bits);
                    continue;
                }
                let out = trace
                    .span("exact.det.dfs", root, id, || sky_det_view_with(&s.sub, det, &mut s.det))
                    .map_err(|e| format!("dfs({i}): {e}"))?;
                c.solves += 1;
                c.joints += out.joints_computed;
                let twin = trace
                    .span("exact.det.grad", root, id, || {
                        sky_det_grad_view_with(&s.sub, det, &mut s.det, &mut s.grad)
                    })
                    .map_err(|e| format!("grad({i}): {e}"))?;
                if twin.sky.to_bits() != out.sky.to_bits() {
                    c.grad_mismatches += 1;
                }
                let entry = CacheEntry {
                    sky_bits: out.sky.to_bits(),
                    joints_computed: out.joints_computed,
                };
                if !trace.span("exact.cache.insert", root, id, || cache.insert(&s.sig, entry)) {
                    c.refused += 1;
                }
                value *= out.sky;
            }
            value
        } else {
            let out = trace
                .span("approx.sampler.sample", root, id, || {
                    sky_sam_view_with(&s.work, sam, &mut s.sam)
                })
                .map_err(|e| format!("sample({i}): {e}"))?;
            c.sampled_worlds += out.samples;
            out.estimate
        };
        sky_bits.push(value.to_bits());
        trace.close(root);
    }
    Ok(Replica { sky_bits, counts: c })
}
