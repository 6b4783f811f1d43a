//! Sensitivity analysis and preference elicitation — the gradient face of
//! the engine.
//!
//! The skyline probability of a target is a **multilinear polynomial** in
//! the coin probabilities of its view, and every coin is one direction of
//! one preference pair `Pr(a ≺ b)`. The exact engine can therefore report,
//! almost for free, how much each elicitable preference matters:
//!
//! * [`sensitivity_resident`] runs the ordinary Prepare stage, then the
//!   exact DFS with its gradient hook
//!   ([`presky_exact::det::sky_det_grad_view_with`]) per independent
//!   component, and stitches the per-component gradients through the
//!   product rule `sky = Π F_g` (prefix/suffix products — no division, so
//!   zero factors are handled exactly). Each coin's derivative is mapped
//!   back to its preference direction `(dim, a, b)` via the coin key and
//!   [`BatchCoinContext::target_value`].
//! * [`elicitation_rank_resident`] folds those per-target gradients into a
//!   **value-of-information** ranking over unordered preference pairs: by
//!   multilinearity, `sky(p_c = x) = sky + (x − p_c) · ∂sky/∂p_c`
//!   *exactly*, so eliciting a coin to certainty moves the target by
//!   `(1 − p)·|g|` with probability `p` and by `p·|g|` with probability
//!   `1 − p` — expected churn `2p(1 − p)|g|`, summed over every target
//!   and both directions of the pair.
//!
//! Gradients are **per-signature facts**: the canonical component
//! signature embeds each coin's `(dim, value, prob)` and the canonical
//! restriction fixes the coin order, so one request-wide memo keyed by the
//! same signatures the component cache uses shares gradient solves across
//! targets. Memo hits are bit-identical to solves (the memo stores the
//! solve's own bits), so results do not depend on which worker reached a
//! component first. Sky values returned here are bit-identical to the
//! scalar pipeline's at any thread count, cache on or off.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use presky_core::batch::BatchCoinContext;
use presky_core::coins::CoinKey;
use presky_core::preference::PreferenceModel;
use presky_core::types::{DimId, ObjectId, ValueId};

use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::det::{sky_det_grad_view_with, DetOptions};
use presky_exact::signature::component_signature;

use super::resident::{run_budgeted, Ledger, ResidentOutcome};
use super::{CacheScope, EngineBudget, PipelineStats, PrepareOptions, SkyScratch};
use crate::error::Result;

/// One coin's partial derivative, named by its preference direction.
///
/// `dsky` is `∂sky(target)/∂Pr(a ≺ b)` — how fast the target's skyline
/// probability moves as the modelled probability that the foreign value
/// `a` beats the target's own value `b` on dimension `dim` changes. By
/// multilinearity the relationship is exact, not just first-order:
/// `sky(Pr(a ≺ b) = x) = sky + (x − prob) · dsky`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// Dimension of the comparison.
    pub dim: DimId,
    /// The foreign (attacker-side) value.
    pub a: ValueId,
    /// The target's own value on `dim`.
    pub b: ValueId,
    /// The current modelled `Pr(a ≺ b)` — the coin's probability.
    pub prob: f64,
    /// `∂sky(target)/∂Pr(a ≺ b)`.
    pub dsky: f64,
}

/// A target's skyline probability plus the full gradient of its view.
///
/// `sky` is always exact and bit-identical to the scalar pipeline;
/// `sensitivities` lists every surviving coin in `(dim, a)` order. The
/// list is empty when the certain-attacker short-circuit fired (`sky` is
/// pinned at exactly 0 in a neighbourhood of the current model, and the
/// certain coins' one-sided derivatives carry no value of information).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSensitivity {
    /// The analysed target.
    pub object: ObjectId,
    /// Its exact skyline probability.
    pub sky: f64,
    /// Per-coin derivatives, sorted by `(dim, a)`.
    pub sensitivities: Vec<Sensitivity>,
}

/// One unordered preference pair ranked by expected skyline churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElicitationCandidate {
    /// Dimension of the pair.
    pub dim: DimId,
    /// The smaller value id of the pair.
    pub lo: ValueId,
    /// The larger value id of the pair.
    pub hi: ValueId,
    /// Current modelled `Pr(lo ≺ hi)`.
    pub forward: f64,
    /// Current modelled `Pr(hi ≺ lo)`.
    pub backward: f64,
    /// Expected total |Δsky| over all targets if the pair were elicited
    /// to certainty: `Σ 2·p·(1 − p)·|∂sky/∂p|` over every coin occurrence
    /// of either direction.
    pub voi: f64,
    /// Coin occurrences aggregated into this candidate (target × direction
    /// incidences).
    pub targets: u64,
}

/// A ranked elicitation answer: candidates plus the run's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ElicitationOutcome {
    /// Pairs with nonzero value of information, highest first (ties broken
    /// by ascending `(dim, lo, hi)` for determinism).
    pub candidates: Vec<ElicitationCandidate>,
    /// Aggregated pipeline statistics of the underlying sensitivity sweep.
    pub stats: PipelineStats,
    /// Targets truncated by the request budget (their gradients are
    /// missing from the ranking).
    pub truncated: u64,
}

impl ElicitationOutcome {
    /// Whether every target's gradient entered the ranking.
    pub fn complete(&self) -> bool {
        self.truncated == 0
    }
}

/// Options for the sensitivity sweep.
///
/// Same shape as every other options struct: `#[non_exhaustive]` with
/// chainable `with_*` builders.
///
/// ```
/// use presky_query::prelude::SensitivityOptions;
///
/// let opts = SensitivityOptions::default()
///     .with_threads(Some(2))
///     .with_component_cache(false)
///     .with_exact_component_limit(24);
/// assert_eq!(opts.exact_component_limit, 24);
/// assert!(!opts.component_cache);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SensitivityOptions {
    /// Worker threads for the cross-target sweep (`None` = available
    /// parallelism). Each per-component gradient solve is serial — that is
    /// what keeps the gradient vector deterministic — so parallelism lives
    /// entirely at the target level.
    pub threads: Option<usize>,
    /// Share gradient solves across targets through the request-wide
    /// signature-keyed memo (and warm the scalar component cache when the
    /// driver supplies one). Results are bit-identical either way.
    pub component_cache: bool,
    /// Largest component the exact gradient engine will accept; larger
    /// ones fail the request (gradients have no sampling fallback).
    pub exact_component_limit: usize,
}

impl Default for SensitivityOptions {
    fn default() -> Self {
        Self { threads: None, component_cache: true, exact_component_limit: 30 }
    }
}

impl SensitivityOptions {
    /// Chainable: set the worker-thread request.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Chainable: toggle gradient-memo / component-cache participation.
    pub fn with_component_cache(mut self, on: bool) -> Self {
        self.component_cache = on;
        self
    }

    /// Chainable: set the largest admissible component.
    pub fn with_exact_component_limit(mut self, limit: usize) -> Self {
        self.exact_component_limit = limit;
        self
    }
}

/// Options for the elicitation ranking.
///
/// ```
/// use presky_query::prelude::ElicitOptions;
///
/// let opts = ElicitOptions::default().with_top(5).with_threads(Some(1));
/// assert_eq!(opts.top, 5);
/// assert_eq!(opts.threads, Some(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ElicitOptions {
    /// Worker threads for the underlying sensitivity sweep.
    pub threads: Option<usize>,
    /// Share gradient solves across targets (see
    /// [`SensitivityOptions::component_cache`]).
    pub component_cache: bool,
    /// Largest component the exact gradient engine will accept.
    pub exact_component_limit: usize,
    /// Keep at most this many ranked candidates (`0` = keep all).
    pub top: usize,
}

impl Default for ElicitOptions {
    fn default() -> Self {
        Self { threads: None, component_cache: true, exact_component_limit: 30, top: 16 }
    }
}

impl ElicitOptions {
    /// Chainable: set the worker-thread request.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Chainable: toggle gradient-memo / component-cache participation.
    pub fn with_component_cache(mut self, on: bool) -> Self {
        self.component_cache = on;
        self
    }

    /// Chainable: set the largest admissible component.
    pub fn with_exact_component_limit(mut self, limit: usize) -> Self {
        self.exact_component_limit = limit;
        self
    }

    /// Chainable: set the ranking cut (`0` = unlimited).
    pub fn with_top(mut self, top: usize) -> Self {
        self.top = top;
        self
    }

    /// The sweep options this ranking runs with.
    pub fn sensitivity(&self) -> SensitivityOptions {
        SensitivityOptions {
            threads: self.threads,
            component_cache: self.component_cache,
            exact_component_limit: self.exact_component_limit,
        }
    }
}

/// Per-component gradient data in canonical coin order: each coin's key,
/// probability and raw (within-component) derivative. Shared via `Arc` so
/// a memo hit costs one pointer clone.
type GradCoins = Arc<Vec<(CoinKey, f64, f64)>>;

#[derive(Clone)]
struct MemoEntry {
    sky_bits: u64,
    joints: u64,
    coins: GradCoins,
}

/// Request-wide gradient memo, keyed by the same canonical component
/// signatures as the scalar component cache. Hits return the inserting
/// solve's own bits, so which worker solved first is unobservable.
#[derive(Default)]
struct GradMemo(Mutex<HashMap<Vec<u8>, MemoEntry>>);

impl GradMemo {
    fn get(&self, sig: &[u8]) -> Option<MemoEntry> {
        self.0.lock().unwrap().get(sig).cloned()
    }

    fn insert(&self, sig: Vec<u8>, entry: MemoEntry) {
        // First insertion wins; racing entries are bit-identical anyway.
        self.0.lock().unwrap().entry(sig).or_insert(entry);
    }
}

/// Gradient factor of partition group `g`: the component's exact skyline
/// factor (bit-identical to the scalar executor's) and its per-coin
/// derivatives, served from the request memo when possible.
fn component_gradient(
    g: usize,
    det: DetOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
    memo: Option<&GradMemo>,
) -> Result<(f64, GradCoins)> {
    let group = s.partition.group(g);
    let keyed = s.work.restrict_canonical_into(group, &mut s.canon, &mut s.sub);
    if !keyed {
        // Synthetic (key-less) coins have no preference-pair identity;
        // solve uncached and report only the coins that carry keys.
        s.work.restrict_into(group, &mut s.remap, &mut s.sub);
    }
    if keyed && memo.is_some() {
        component_signature(&s.sub, &mut s.sig);
        if let Some(scope) = cache {
            if scope.namespace() != 0 {
                s.sig.extend_from_slice(&scope.namespace().to_le_bytes());
            }
        }
        stats.cache_probes += 1;
        if let Some(hit) = memo.and_then(|m| m.get(&s.sig)) {
            stats.cache_hits += 1;
            if cache.is_some_and(|scope| scope.hit_is_base(&s.sig)) {
                stats.cache_base_hits += 1;
            }
            stats.joints_computed += hit.joints;
            return Ok((f64::from_bits(hit.sky_bits), hit.coins));
        }
    }
    let mut grad = Vec::new();
    let out = sky_det_grad_view_with(&s.sub, det, &mut s.det, &mut grad)?;
    stats.joints_computed += out.joints_computed;
    let coins: GradCoins = Arc::new(
        (0..s.sub.n_coins() as u32)
            .filter_map(|k| {
                s.sub.coin_key(k).map(|key| (key, s.sub.coin_prob(k), grad[k as usize]))
            })
            .collect(),
    );
    if keyed {
        if let Some(memo) = memo {
            let entry = MemoEntry {
                sky_bits: out.sky.to_bits(),
                joints: out.joints_computed,
                coins: Arc::clone(&coins),
            };
            memo.insert(s.sig.clone(), entry);
            // Warm the shared scalar cache as a side effect: later sky
            // queries hit the very bits this solve produced.
            if let Some(scope) = cache {
                let scalar = CacheEntry {
                    sky_bits: out.sky.to_bits(),
                    joints_computed: out.joints_computed,
                };
                if scope.cache().insert(&s.sig, scalar) {
                    stats.cache_insertions += 1;
                    stats.cache_bytes += ComponentCache::entry_bytes(&s.sig);
                }
            }
        }
    }
    Ok((out.sky, coins))
}

/// One target's sensitivity through the batch assembly path.
#[allow(clippy::too_many_arguments)]
fn sensitivity_batch_one<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    opts: SensitivityOptions,
    budget: EngineBudget,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
    cache: Option<CacheScope<'_>>,
    memo: Option<&GradMemo>,
) -> Result<TargetSensitivity> {
    let t0 = Instant::now();
    ctx.view_into(prefs, target, &mut s.batch, &mut s.view)?;
    stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
    if let Some(short) = super::prepare::prepare(target, PrepareOptions::default(), s, stats) {
        return Ok(TargetSensitivity { object: target, sky: short.sky, sensitivities: Vec::new() });
    }
    let t0 = Instant::now();
    stats.plan_exact += 1;
    let det =
        budget.stamp_det(DetOptions::default().with_max_attackers(opts.exact_component_limit));
    let n_groups = s.partition.n_groups();
    let mut groups: Vec<(f64, GradCoins)> = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        groups.push(component_gradient(g, det, s, stats, cache, memo)?);
    }
    // Product rule over components: ∂sky/∂p_c = grad_g[c] · Π_{h≠g} F_h,
    // via prefix/suffix products so zero factors need no division. The
    // prefix runs left to right — the scalar executor's own order — so
    // `sky` keeps its bits.
    let mut suffix = vec![1.0; n_groups + 1];
    for g in (0..n_groups).rev() {
        suffix[g] = suffix[g + 1] * groups[g].0;
    }
    let mut sensitivities = Vec::new();
    let mut prefix = 1.0;
    for (g, (factor, coins)) in groups.iter().enumerate() {
        let outer = prefix * suffix[g + 1];
        for &(key, prob, grad) in coins.iter() {
            sensitivities.push(Sensitivity {
                dim: key.dim,
                a: key.value,
                b: ctx.target_value(target, key.dim),
                prob,
                dsky: grad * outer,
            });
        }
        prefix *= factor;
    }
    let sky = prefix;
    sensitivities.sort_unstable_by_key(|sens| (sens.dim, sens.a));
    stats.execute_nanos += t0.elapsed().as_nanos() as u64;
    Ok(TargetSensitivity { object: target, sky, sensitivities })
}

/// Sensitivity of every target against a resident context.
///
/// Runs the ordinary Prepare stage per target, then the serial gradient
/// DFS per component, sharing solves across targets through a request-wide
/// signature-keyed memo when `opts.component_cache` is on. The request
/// [`EngineBudget`] is a shared ledger exactly as in
/// [`super::all_sky_resident`]: truncated targets get a `None` slot.
pub fn sensitivity_resident<M: PreferenceModel + Sync>(
    ctx: &BatchCoinContext,
    prefs: &M,
    opts: SensitivityOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ResidentOutcome<TargetSensitivity>> {
    let n = ctx.n_objects();
    let threads = super::effective_threads(opts.threads, n);
    let ledger = Ledger::new(&budget);
    let memo = opts.component_cache.then(GradMemo::default);
    let cache = if opts.component_cache { cache } else { None };
    let (results, stats) = super::run_chunked(n, threads, |i, scratch, stats| {
        run_budgeted(&ledger, &budget, stats, |per_object, stats| {
            sensitivity_batch_one(
                ctx,
                prefs,
                ObjectId::from(i),
                opts,
                per_object,
                scratch,
                stats,
                cache,
                memo.as_ref(),
            )
        })
    });
    let results = results.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(ResidentOutcome { results, stats, truncated: ledger.truncated.into_inner() })
}

/// One target's sensitivity against a resident context.
pub fn sensitivity_one_resident<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    opts: SensitivityOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ResidentOutcome<TargetSensitivity>> {
    let ledger = Ledger::new(&budget);
    let memo = opts.component_cache.then(GradMemo::default);
    let cache = if opts.component_cache { cache } else { None };
    let mut scratch = SkyScratch::default();
    let mut stats = PipelineStats::default();
    let result = run_budgeted(&ledger, &budget, &mut stats, |per_object, stats| {
        sensitivity_batch_one(
            ctx,
            prefs,
            target,
            opts,
            per_object,
            &mut scratch,
            stats,
            cache,
            memo.as_ref(),
        )
    })?;
    Ok(ResidentOutcome { results: vec![result], stats, truncated: ledger.truncated.into_inner() })
}

/// Rank preference pairs by value of information against a resident
/// context.
///
/// Sweeps every target's gradient, then folds per-coin expected churn
/// `2·p·(1 − p)·|∂sky/∂p|` into unordered pairs `(dim, lo, hi)` — both
/// directions of a pair fold into one candidate. Pairs whose value of
/// information is zero (already-certain preferences among them) are
/// dropped. The fold walks targets in object order, so the ranking is
/// deterministic at any thread count.
pub fn elicitation_rank_resident<M: PreferenceModel + Sync>(
    ctx: &BatchCoinContext,
    prefs: &M,
    opts: ElicitOptions,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<ElicitationOutcome> {
    let sweep = sensitivity_resident(ctx, prefs, opts.sensitivity(), cache, budget)?;
    let mut agg: BTreeMap<(DimId, ValueId, ValueId), (f64, u64)> = BTreeMap::new();
    for target in sweep.results.iter().flatten() {
        for sens in &target.sensitivities {
            let (lo, hi) = if sens.a <= sens.b { (sens.a, sens.b) } else { (sens.b, sens.a) };
            let churn = 2.0 * sens.prob * (1.0 - sens.prob) * sens.dsky.abs();
            let slot = agg.entry((sens.dim, lo, hi)).or_insert((0.0, 0));
            slot.0 += churn;
            slot.1 += 1;
        }
    }
    let mut candidates: Vec<ElicitationCandidate> = agg
        .into_iter()
        .filter(|&(_, (voi, _))| voi > 0.0)
        .map(|((dim, lo, hi), (voi, targets))| {
            let pair = prefs.pair(dim, lo, hi);
            ElicitationCandidate {
                dim,
                lo,
                hi,
                forward: pair.forward,
                backward: pair.backward,
                voi,
                targets,
            }
        })
        .collect();
    candidates.sort_by(|x, y| {
        y.voi
            .partial_cmp(&x.voi)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.dim, x.lo, x.hi).cmp(&(y.dim, y.lo, y.hi)))
    });
    if opts.top > 0 {
        candidates.truncate(opts.top);
    }
    Ok(ElicitationOutcome { candidates, stats: sweep.stats, truncated: sweep.truncated })
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PrefPair, TablePreferences};
    use presky_core::table::Table;

    use super::super::all_sky_resident;
    use super::*;
    use crate::prob_skyline::QueryOptions;

    fn fixture() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    /// Wrap a model with one strict probability nudged by `eps` — the
    /// query-level finite-difference probe.
    struct Nudged<'m, M> {
        inner: &'m M,
        dim: DimId,
        a: ValueId,
        b: ValueId,
        eps: f64,
    }

    impl<M: PreferenceModel> PreferenceModel for Nudged<'_, M> {
        fn pr_strict(&self, dim: DimId, a: ValueId, b: ValueId) -> f64 {
            let p = self.inner.pr_strict(dim, a, b);
            if (dim, a, b) == (self.dim, self.a, self.b) {
                p + self.eps
            } else {
                p
            }
        }
    }

    fn exact_sweep_opts() -> SensitivityOptions {
        SensitivityOptions::default()
    }

    #[test]
    fn sky_bits_match_the_scalar_pipeline() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let sweep =
            sensitivity_resident(&ctx, &p, exact_sweep_opts(), None, EngineBudget::default())
                .unwrap();
        assert!(sweep.complete());
        let scalar =
            all_sky_resident(&ctx, &p, QueryOptions::default(), None, EngineBudget::default())
                .unwrap();
        for (s, r) in sweep.results.iter().zip(&scalar.results) {
            assert_eq!(s.as_ref().unwrap().sky.to_bits(), r.unwrap().sky.to_bits());
        }
    }

    #[test]
    fn gradients_match_central_finite_differences_through_the_pipeline() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let eps = 1e-5;
        for (cache_on, threads) in [(true, None), (false, None), (true, Some(1)), (true, Some(4))] {
            let opts = exact_sweep_opts().with_component_cache(cache_on).with_threads(threads);
            let sweep =
                sensitivity_resident(&ctx, &p, opts, None, EngineBudget::default()).unwrap();
            for target in sweep.results.iter().flatten() {
                for sens in &target.sensitivities {
                    let up = Nudged { inner: &p, dim: sens.dim, a: sens.a, b: sens.b, eps };
                    let down = Nudged { inner: &p, dim: sens.dim, a: sens.a, b: sens.b, eps: -eps };
                    let sky = |m: &Nudged<'_, _>| {
                        all_sky_resident(
                            &ctx,
                            m,
                            QueryOptions::default(),
                            None,
                            EngineBudget::default(),
                        )
                        .unwrap()
                        .results[target.object.index()]
                        .unwrap()
                        .sky
                    };
                    let fd = (sky(&up) - sky(&down)) / (2.0 * eps);
                    let scale = fd.abs().max(sens.dsky.abs()).max(1.0);
                    assert!(
                        (sens.dsky - fd).abs() <= 1e-6 * scale,
                        "target {:?} {:?}: grad {} vs fd {fd} (cache={cache_on}, threads={threads:?})",
                        target.object,
                        (sens.dim, sens.a, sens.b),
                        sens.dsky,
                    );
                }
            }
        }
    }

    #[test]
    fn memo_reuse_changes_no_bits() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let warm =
            sensitivity_resident(&ctx, &p, exact_sweep_opts(), None, EngineBudget::default())
                .unwrap();
        let cold = sensitivity_resident(
            &ctx,
            &p,
            exact_sweep_opts().with_component_cache(false),
            None,
            EngineBudget::default(),
        )
        .unwrap();
        assert!(warm.stats.cache_probes > 0 && cold.stats.cache_probes == 0);
        for (a, b) in warm.results.iter().zip(&cold.results) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.sky.to_bits(), b.sky.to_bits());
            assert_eq!(a.sensitivities.len(), b.sensitivities.len());
            for (x, y) in a.sensitivities.iter().zip(&b.sensitivities) {
                assert_eq!(x.dsky.to_bits(), y.dsky.to_bits());
            }
        }
    }

    #[test]
    fn elicitation_ranking_is_deterministic_and_multilinear_exact() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let a = elicitation_rank_resident(
            &ctx,
            &p,
            ElicitOptions::default(),
            None,
            EngineBudget::default(),
        )
        .unwrap();
        let b = elicitation_rank_resident(
            &ctx,
            &p,
            ElicitOptions::default().with_threads(Some(4)),
            None,
            EngineBudget::default(),
        )
        .unwrap();
        assert!(a.complete());
        assert_eq!(a.candidates, b.candidates, "ranking must not depend on thread count");
        assert!(!a.candidates.is_empty());
        for w in a.candidates.windows(2) {
            assert!(w[0].voi >= w[1].voi);
        }
        // Multilinearity: setting the top pair's forward coin to 1 via the
        // model must move each target by exactly (1 − p)·dsky.
        let top = a.candidates[0];
        let sweep =
            sensitivity_resident(&ctx, &p, exact_sweep_opts(), None, EngineBudget::default())
                .unwrap();
        for target in sweep.results.iter().flatten() {
            for sens in &target.sensitivities {
                if (sens.dim, sens.a, sens.b) != (top.dim, top.lo, top.hi)
                    && (sens.dim, sens.a, sens.b) != (top.dim, top.hi, top.lo)
                {
                    continue;
                }
                let certain =
                    Nudged { inner: &p, dim: sens.dim, a: sens.a, b: sens.b, eps: 1.0 - sens.prob };
                let moved = all_sky_resident(
                    &ctx,
                    &certain,
                    QueryOptions::default(),
                    None,
                    EngineBudget::default(),
                )
                .unwrap()
                .results[target.object.index()]
                .unwrap()
                .sky;
                let predicted = target.sky + (1.0 - sens.prob) * sens.dsky;
                assert!(
                    (moved - predicted).abs() < 1e-12,
                    "multilinear extrapolation broke: {moved} vs {predicted}"
                );
            }
        }
    }

    #[test]
    fn budget_truncation_yields_none_slots() {
        let (t, p) = fixture();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let out = sensitivity_resident(
            &ctx,
            &p,
            exact_sweep_opts().with_threads(Some(1)),
            None,
            EngineBudget::default().with_max_joints(Some(1)),
        )
        .unwrap();
        assert!(out.truncated > 0);
        assert!(out.results.iter().any(Option::is_none));
    }
}
