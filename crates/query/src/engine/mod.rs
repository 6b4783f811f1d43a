//! The unified query pipeline: **Prepare → Plan → Execute**.
//!
//! Every per-target flow in this repository — `sky_one`, the parallel
//! batch driver behind `all_sky`, the threshold escalation ladder, top-k's
//! scout/refine phases, the CLI and the bench harness — runs through this
//! one engine:
//!
//! * **Prepare** assembles (batch or single-target) and reduces the
//!   instance: certain-attacker short-circuit, impossible-coin pruning,
//!   absorption, coin-compacting restriction, independence partition.
//!   Stage toggles ([`PrepareOptions`]) exist for ablations.
//! * **Plan** compares the summed `2^|g|` inclusion–exclusion cost
//!   against the sampler's predicted cost and emits an inspectable
//!   [`Plan`] with provenance ([`PlanReason`]).
//! * **Execute** dispatches to the exact per-component engine or the
//!   Monte-Carlo estimator — or, for threshold queries, walks the
//!   escalation ladder of plan refinements.
//!
//! Every stage records into a [`PipelineStats`] counters struct that
//! aggregates across the parallel batch driver and is surfaced by the
//! `--stats` flags of the `skyprob` CLI and by the bench harness. All
//! results are **bit-identical** to the pre-engine implementations
//! (guarded in `crates/query/tests/properties.rs`).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use presky_core::batch::BatchCoinContext;
use presky_core::coins::CoinView;
use presky_core::epoch::AnswerStore;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use presky_exact::cache::ComponentCache;
use presky_exact::signature::CoinMask;

use crate::error::Result;
use crate::prob_skyline::{Algorithm, SkyResult};
use crate::threshold::{Resolution, ThresholdAnswer, ThresholdOptions};

mod execute;
mod plan;
mod prepare;
mod resident;
mod sensitivity;

pub use plan::{exact_cost, largest_component, Plan, PlanReason};
pub use prepare::{PrepareOptions, SkyScratch};
pub use resident::{
    all_sky_resident, sky_one_resident, sky_one_stored, threshold_resident, top_k_resident,
    ResidentOutcome,
};
pub use sensitivity::{
    elicitation_rank_resident, sensitivity_one_resident, sensitivity_resident, ElicitOptions,
    ElicitationCandidate, ElicitationOutcome, Sensitivity, SensitivityOptions, TargetSensitivity,
};

/// A component cache plus the per-request overlay scoping that governs
/// how it is keyed and how hits are classified.
///
/// The plain scope ([`CacheScope::new`]) behaves exactly like handing the
/// executor a bare `&ComponentCache` — the multi-tenant machinery costs
/// untenanted requests nothing. A **mask** marks the overlay-touched
/// `(dim, value)` coins of the active tenant: hits on signatures disjoint
/// from it are counted in [`PipelineStats::cache_base_hits`] (they hit
/// entries any tenant could have inserted — the cross-user shared ones).
/// A nonzero **namespace** appends its eight bytes to every cache key,
/// giving each tenant a private key space: the no-sharing ablation
/// (`skyprob serve --tenant-namespace`). Neither field affects computed
/// values — the cache is content-addressed, so scoping only moves *where*
/// hits land, never what a solve returns.
///
/// An attached **answer store** (the pinned epoch's
/// [`AnswerStore`]) records every exact answer [`sky_one_resident`] and
/// [`all_sky_resident`] compute; reads go through [`sky_one_stored`]
/// before a scope is built. The caller attaches it only where every answer
/// the request can compute is the epoch's base answer: no tenant overlay,
/// or a single target no overlay pair touches.
#[derive(Debug, Clone, Copy)]
pub struct CacheScope<'a> {
    cache: &'a ComponentCache,
    mask: Option<&'a CoinMask>,
    namespace: u64,
    answers: Option<&'a AnswerStore>,
}

impl<'a> CacheScope<'a> {
    /// Scope `cache` with no mask, the shared (zero) namespace and no
    /// answer store.
    pub fn new(cache: &'a ComponentCache) -> Self {
        Self { cache, mask: None, namespace: 0, answers: None }
    }

    /// Chainable: attach (or detach) the pinned epoch's answer store.
    pub fn with_answers(mut self, answers: Option<&'a AnswerStore>) -> Self {
        self.answers = answers;
        self
    }

    /// Chainable: classify hits against the overlay-touched coin set.
    pub fn with_mask(mut self, mask: Option<&'a CoinMask>) -> Self {
        self.mask = mask;
        self
    }

    /// Chainable: set the key namespace (0 = shared cross-user key space).
    pub fn with_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// The underlying cache.
    pub fn cache(&self) -> &'a ComponentCache {
        self.cache
    }

    pub(crate) fn namespace(&self) -> u64 {
        self.namespace
    }

    pub(crate) fn answers(&self) -> Option<&'a AnswerStore> {
        self.answers
    }

    /// Whether a hit on the key `sig` is a base-signature (cross-user
    /// shareable) hit under this scope.
    pub(crate) fn hit_is_base(&self, sig: &[u8]) -> bool {
        self.namespace == 0 && !self.mask.is_some_and(|m| m.touches_signature(sig))
    }
}

/// Per-request work budget stamped into the exact and sampling engines.
///
/// `deadline_at` is an *absolute* cut-off so one value can be threaded
/// through every stage of a request without re-deriving remaining time;
/// `max_joints` caps the inclusion–exclusion work of a single solve. Both
/// default to `None` (unlimited), in which case the stamped options are
/// identical to the unstamped ones and every code path is bit-identical to
/// the legacy entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineBudget {
    /// Absolute wall-clock cut-off for this request.
    pub deadline_at: Option<Instant>,
    /// Joint-probability ceiling for the exact engine. The resident batch
    /// drivers treat this as a *request-wide* ledger (each object receives
    /// the remaining allowance); a single solve treats it as its own cap.
    pub max_joints: Option<u64>,
    /// Monte-Carlo world ceiling, enforced by the resident batch drivers
    /// at object boundaries (a single sampling run is already bounded by
    /// its own `samples` option).
    pub max_samples: Option<u64>,
}

impl EngineBudget {
    /// Chainable: set (or clear) the absolute deadline.
    pub fn with_deadline_at(mut self, deadline_at: Option<Instant>) -> Self {
        self.deadline_at = deadline_at;
        self
    }

    /// Chainable: set (or clear) the joint ceiling.
    pub fn with_max_joints(mut self, max_joints: Option<u64>) -> Self {
        self.max_joints = max_joints;
        self
    }

    /// Chainable: set (or clear) the sampled-world ceiling.
    pub fn with_max_samples(mut self, max_samples: Option<u64>) -> Self {
        self.max_samples = max_samples;
        self
    }

    /// Whether this budget constrains anything at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_at.is_none() && self.max_joints.is_none() && self.max_samples.is_none()
    }

    /// Whether the deadline (if any) has already passed.
    pub fn expired(&self) -> bool {
        self.deadline_at.is_some_and(|at| Instant::now() >= at)
    }

    pub(crate) fn stamp_det(
        &self,
        det: presky_exact::det::DetOptions,
    ) -> presky_exact::det::DetOptions {
        det.with_deadline_at(self.deadline_at).with_max_joints(self.max_joints)
    }

    pub(crate) fn stamp_sam(
        &self,
        sam: presky_approx::sampler::SamOptions,
    ) -> presky_approx::sampler::SamOptions {
        sam.with_deadline_at(self.deadline_at)
    }
}

/// Number of buckets in [`PipelineStats::component_hist`].
pub const HIST_BUCKETS: usize = 8;

/// Upper bounds (inclusive) of the component-size histogram buckets.
pub const HIST_EDGES: [&str; HIST_BUCKETS] = ["1", "2", "≤4", "≤8", "≤16", "≤32", "≤64", ">64"];

pub(crate) fn hist_bucket(len: usize) -> usize {
    match len {
        0..=1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

/// Per-stage counters recorded by every engine run.
///
/// All counters are totals over the objects processed with this value;
/// [`PipelineStats::merge`] folds per-worker stats together, which is how
/// the parallel batch driver aggregates. `largest_component` merges by
/// maximum; everything else is additive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Objects that entered the pipeline.
    pub objects: u64,
    /// Objects resolved by the certain-attacker short-circuit.
    pub short_circuited: u64,
    /// Attackers in the assembled (raw) views.
    pub attackers_in: u64,
    /// Attackers dropped by impossible-coin pruning.
    pub pruned_impossible: u64,
    /// Attackers removed by absorption.
    pub absorbed: u64,
    /// Attackers surviving preparation.
    pub survivors: u64,
    /// Independent components over all prepared objects.
    pub components: u64,
    /// Largest component seen (merged by max).
    pub largest_component: u64,
    /// Component-size histogram; bucket edges in [`HIST_EDGES`].
    pub component_hist: [u64; HIST_BUCKETS],
    /// Wall-time of the Prepare stage (view assembly included), in ns.
    pub prepare_nanos: u64,
    /// Wall-time of the Plan stage, in ns.
    pub plan_nanos: u64,
    /// Wall-time of the Execute stage, in ns.
    pub execute_nanos: u64,
    /// Flat queries planned exact; for threshold queries, objects on which
    /// the exact rung engaged (including certified early exits).
    pub plan_exact: u64,
    /// Flat queries planned for sampling.
    pub plan_sample: u64,
    /// Threshold objects resolved by certified bounds before the exact
    /// rung: the product of per-component brackets (rung 1) or the
    /// whole-view Bonferroni bounds (rung 2).
    pub plan_bounds: u64,
    /// Threshold objects resolved by the sequential test (rung 4).
    pub plan_sequential: u64,
    /// Threshold objects needing the fixed-budget fallback (rung 5).
    pub plan_fallback: u64,
    /// Joint probabilities computed by the exact engine. Component-cache
    /// hits re-add the joints the cached solve computed, so this counter is
    /// *logical* work and stays deterministic whether the cache is cold,
    /// warm, or disabled.
    pub joints_computed: u64,
    /// Component-cache lookups (one per canonicalizable component executed
    /// exactly while a cache was attached).
    pub cache_probes: u64,
    /// Probes answered from the cache. Depends on which worker reached a
    /// component first, so unlike `cache_probes` this is not deterministic
    /// across thread counts.
    pub cache_hits: u64,
    /// The subset of `cache_hits` on base-signature keys: no overlay mask
    /// coin embedded and no tenant namespace appended, i.e. hits that any
    /// tenant's request could have shared. Equal to `cache_hits` whenever
    /// no overlay scope is active.
    pub cache_base_hits: u64,
    /// Entries admitted into the cache by this worker.
    pub cache_insertions: u64,
    /// Bytes (keys + entries) admitted into the cache by this worker.
    pub cache_bytes: u64,
    /// Single-target reads answered from the epoch's answer store. No
    /// Prepare, Plan or Execute runs for them; only `joints_computed`
    /// re-adds the joints of the stored solve.
    pub store_hits: u64,
    /// Exact answers recorded into the epoch's answer store.
    pub store_records: u64,
    /// Worlds drawn by the samplers (fixed-budget and sequential).
    pub samples_drawn: u64,
    /// Coin draws of the Monte-Carlo kernel, counted per world, over the
    /// fixed-budget sampler and the sequential test.
    pub coin_draws: u64,
    /// Attacker checks of the Monte-Carlo kernel, counted per world, over
    /// the fixed-budget sampler and the sequential test.
    pub attacker_checks: u64,
}

impl PipelineStats {
    /// Fold `other` into `self` (additive counters; max for
    /// `largest_component`).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.objects += other.objects;
        self.short_circuited += other.short_circuited;
        self.attackers_in += other.attackers_in;
        self.pruned_impossible += other.pruned_impossible;
        self.absorbed += other.absorbed;
        self.survivors += other.survivors;
        self.components += other.components;
        self.largest_component = self.largest_component.max(other.largest_component);
        for (a, b) in self.component_hist.iter_mut().zip(&other.component_hist) {
            *a += b;
        }
        self.prepare_nanos += other.prepare_nanos;
        self.plan_nanos += other.plan_nanos;
        self.execute_nanos += other.execute_nanos;
        self.plan_exact += other.plan_exact;
        self.plan_sample += other.plan_sample;
        self.plan_bounds += other.plan_bounds;
        self.plan_sequential += other.plan_sequential;
        self.plan_fallback += other.plan_fallback;
        self.joints_computed += other.joints_computed;
        self.cache_probes += other.cache_probes;
        self.cache_hits += other.cache_hits;
        self.cache_base_hits += other.cache_base_hits;
        self.cache_insertions += other.cache_insertions;
        self.cache_bytes += other.cache_bytes;
        self.store_hits += other.store_hits;
        self.store_records += other.store_records;
        self.samples_drawn += other.samples_drawn;
        self.coin_draws += other.coin_draws;
        self.attacker_checks += other.attacker_checks;
    }

    /// Cache hits as a fraction of probes (0 when nothing was probed).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_probes as f64
        }
    }
}

fn fmt_nanos(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline: {} object(s), {} short-circuited",
            self.objects, self.short_circuited
        )?;
        writeln!(
            f,
            "prepare:  {} attackers in; {} impossible, {} absorbed, {} survive; {} components (largest {})",
            self.attackers_in,
            self.pruned_impossible,
            self.absorbed,
            self.survivors,
            self.components,
            self.largest_component,
        )?;
        write!(f, "          component sizes:")?;
        for (edge, count) in HIST_EDGES.iter().zip(&self.component_hist) {
            if *count > 0 {
                write!(f, " {edge}:{count}")?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "plan:     {} exact, {} sampled, {} bounds, {} sequential, {} fallback",
            self.plan_exact,
            self.plan_sample,
            self.plan_bounds,
            self.plan_sequential,
            self.plan_fallback,
        )?;
        writeln!(
            f,
            "execute:  {} joints; {} worlds sampled ({} coin draws, {} attacker checks)",
            self.joints_computed, self.samples_drawn, self.coin_draws, self.attacker_checks,
        )?;
        writeln!(
            f,
            "cache:    {} probes, {} hits ({:.1}%), {} insertions ({} bytes)",
            self.cache_probes,
            self.cache_hits,
            100.0 * self.cache_hit_rate(),
            self.cache_insertions,
            self.cache_bytes,
        )?;
        write!(
            f,
            "time:     prepare {}, plan {}, execute {}",
            fmt_nanos(self.prepare_nanos),
            fmt_nanos(self.plan_nanos),
            fmt_nanos(self.execute_nanos),
        )
    }
}

// ------------------------------------------------------------ entry points

/// Prepare, plan and execute one preassembled `s.view`, returning the
/// chosen [`Plan`] alongside the result.
pub(crate) fn solve_view_explained(
    object: ObjectId,
    algo: Algorithm,
    budget: EngineBudget,
    prep: PrepareOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<(SkyResult, Plan)> {
    if let Some(short) = prepare::prepare(object, prep, s, stats) {
        return Ok((short, Plan::ShortCircuit));
    }
    let cache = if prep.component_cache { cache } else { None };
    let mut decided = plan::plan(algo, budget, s, stats);
    let result = execute::execute(object, &mut decided, s, stats, cache)?;
    Ok((result, decided))
}

/// One target end to end: assemble its view from the table, then
/// Prepare → Plan → Execute. This is the engine's single-target entry
/// point; `sky_one` is a thin wrapper with the default [`PrepareOptions`].
pub fn solve_one<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
    prep: PrepareOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
) -> Result<SkyResult> {
    solve_one_explained(table, prefs, target, algo, prep, scratch, stats).map(|(r, _)| r)
}

/// [`solve_one`] returning the chosen [`Plan`] alongside the result.
///
/// Single-target queries run with a private per-call component cache (so
/// repeated components *within* one target still share work); cross-target
/// sharing belongs to the batch drivers, which thread one cache through
/// the crate-private `solve_batch_one`.
pub fn solve_one_explained<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
    prep: PrepareOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
) -> Result<(SkyResult, Plan)> {
    let cache = ComponentCache::default();
    solve_one_explained_cached(
        table,
        prefs,
        target,
        algo,
        EngineBudget::default(),
        prep,
        scratch,
        stats,
        Some(CacheScope::new(&cache)),
    )
}

/// [`solve_one_explained`] against a caller-owned component cache — the
/// hook top-k's refine phase uses to share the scout pass's cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_one_explained_cached<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
    budget: EngineBudget,
    prep: PrepareOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<(SkyResult, Plan)> {
    let t0 = Instant::now();
    scratch.view = CoinView::build(table, prefs, target)?;
    stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
    solve_view_explained(target, algo, budget, prep, scratch, stats, cache)
}

/// One target through the batch assembly path (shared coin indexes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_batch_one<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
    budget: EngineBudget,
    prep: PrepareOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<SkyResult> {
    solve_batch_one_explained(ctx, prefs, target, algo, budget, prep, scratch, stats, cache)
        .map(|(r, _)| r)
}

/// [`solve_batch_one`] returning the chosen [`Plan`] alongside the result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_batch_one_explained<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
    budget: EngineBudget,
    prep: PrepareOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<(SkyResult, Plan)> {
    let t0 = Instant::now();
    ctx.view_into(prefs, target, &mut scratch.batch, &mut scratch.view)?;
    stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
    solve_view_explained(target, algo, budget, prep, scratch, stats, cache)
}

/// Decide `sky(target) ≥ τ` on a preassembled `s.view`: Prepare with the
/// default options, then the escalation ladder as plan refinements.
pub(crate) fn threshold_view(
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<ThresholdAnswer> {
    if let Some(short) = prepare::prepare(target, PrepareOptions::default(), s, stats) {
        return Ok(ThresholdAnswer {
            object: target,
            member: short.sky >= tau,
            resolution: Resolution::Exact(short.sky),
        });
    }
    let cache = if opts.component_cache { cache } else { None };
    execute::threshold_ladder(target, tau, opts, s, stats, cache)
}

/// One threshold decision end to end (single-target assembly).
pub fn threshold_solve_one<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
) -> Result<ThresholdAnswer> {
    let t0 = Instant::now();
    scratch.view = CoinView::build(table, prefs, target)?;
    stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
    let cache = ComponentCache::default();
    threshold_view(target, tau, opts, scratch, stats, Some(CacheScope::new(&cache)))
}

/// One threshold decision through the batch assembly path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn threshold_batch_one<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
    scratch: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
) -> Result<ThresholdAnswer> {
    let t0 = Instant::now();
    ctx.view_into(prefs, target, &mut scratch.batch, &mut scratch.view)?;
    stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
    threshold_view(target, tau, opts, scratch, stats, cache)
}

// ------------------------------------------------------ parallel driver

/// Objects handed to a worker per dispatch; large enough to amortise the
/// atomic fetch and to keep consecutive targets (which often share
/// dimension values, and hence `pr_strict` memo entries) on one worker.
pub(crate) const CHUNK: usize = 16;

/// Resolve a thread-count request against the instance size.
pub(crate) fn effective_threads(requested: Option<usize>, n: usize) -> usize {
    presky_core::num_threads(requested).clamp(1, n.max(1))
}

/// Run `f(i, scratch, stats)` for every `i in 0..n` across `threads`
/// workers, returning the stitched results and the merged per-worker
/// [`PipelineStats`].
///
/// Work is dispatched in contiguous chunks of [`CHUNK`] indices; each
/// worker owns a private [`SkyScratch`] and [`PipelineStats`] and appends
/// `(start, results)` runs to a private vector; the runs are stitched in
/// index order afterwards — no shared mutex. A panic in any worker is
/// re-raised on the caller's thread with its original payload after all
/// workers have been joined.
pub(crate) fn run_chunked<T, F>(n: usize, threads: usize, f: F) -> (Vec<T>, PipelineStats)
where
    T: Send,
    F: Fn(usize, &mut SkyScratch, &mut PipelineStats) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, Vec<T>)> = Vec::new();
    let mut stats = PipelineStats::default();
    let mut panic_payload = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = SkyScratch::default();
                    let mut local = PipelineStats::default();
                    let mut parts: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + CHUNK).min(n);
                        let mut chunk = Vec::with_capacity(end - start);
                        for i in start..end {
                            chunk.push(f(i, &mut scratch, &mut local));
                        }
                        parts.push((start, chunk));
                    }
                    (parts, local)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((parts, local)) => {
                    collected.extend(parts);
                    stats.merge(&local);
                }
                Err(payload) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
    });
    // Every handle was joined above, so the scope exits cleanly and the
    // first worker panic propagates as a single ordinary panic.
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    collected.sort_unstable_by_key(|&(start, _)| start);
    (collected.into_iter().flat_map(|(_, chunk)| chunk).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_is_additive_with_max_for_largest() {
        let mut a = PipelineStats { objects: 2, largest_component: 5, ..Default::default() };
        a.component_hist[0] = 3;
        let mut b = PipelineStats { objects: 1, largest_component: 9, ..Default::default() };
        b.component_hist[0] = 1;
        b.joints_computed = 7;
        b.cache_probes = 4;
        b.cache_hits = 3;
        b.cache_insertions = 1;
        b.cache_bytes = 120;
        a.merge(&b);
        assert_eq!(a.objects, 3);
        assert_eq!(a.largest_component, 9);
        assert_eq!(a.component_hist[0], 4);
        assert_eq!(a.joints_computed, 7);
        assert_eq!(a.cache_probes, 4);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_insertions, 1);
        assert_eq!(a.cache_bytes, 120);
        assert!((a.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hist_buckets_partition_the_sizes() {
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(8), 3);
        assert_eq!(hist_bucket(16), 4);
        assert_eq!(hist_bucket(32), 5);
        assert_eq!(hist_bucket(64), 6);
        assert_eq!(hist_bucket(65), 7);
    }

    #[test]
    fn stats_display_mentions_every_stage() {
        let s = PipelineStats::default();
        let text = s.to_string();
        for needle in ["pipeline:", "prepare:", "plan:", "execute:", "cache:", "time:"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
