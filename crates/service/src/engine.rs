//! The resident [`Engine`]: load once, serve many — and now, mutate live.
//!
//! `Engine::new` pays the per-dataset costs exactly once — duplicate
//! validation, dense value codes, posting lists and the `pr_strict` memo
//! of the [`BatchCoinContext`], plus
//! an empty cross-request
//! [`ComponentCache`] — and then serves any number of concurrent
//! [`Request`]s from `&self`. All mutability is interior (atomics, the
//! sharded cache, a poison-recovering stats mutex, the epoch swap), so one
//! engine handle can be shared across threads with a plain `Arc` or
//! scoped borrows.
//!
//! ## Epochs and the write path
//!
//! The dataset lives behind an epoch/MVCC cell: one
//! [`DatasetEpoch`] bundles a consistent version of the table, its batch
//! indexes and the preference model. Readers **pin** the current epoch at
//! admission (one `Arc` clone) and read only it for the whole request, so
//! a concurrent write never alters a value mid-request — the bit-identity
//! contract survives mutation. Writes ([`Engine::insert_object`],
//! [`Engine::remove_object`], [`Engine::set_preference`]) are
//! single-writer/multi-reader: a writer lock serialises commits, each
//! commit derives the next epoch copy-on-write (only touched structures
//! are rebuilt) and installs it with one pointer swap. A superseded epoch
//! *retires* — counted in [`MetricsSnapshot::epochs_retired`] — when its
//! last pinned reader drains.
//!
//! Each epoch also carries an [`AnswerStore`]: every exact per-target
//! answer the resident drivers compute on it is recorded once, and a
//! repeated `SkyOne` read is answered from it at admission — ahead of
//! coalescing, with no Prepare — when the read's budget lets it start and
//! its own policy would plan the stored shape exact ([`Engine::run`]). A
//! commit carries the store into the next epoch minus the targets the
//! write dirtied ([`CommitReceipt::dirtied_targets`] counts them; a
//! removal also shifts later slots down), an O(n) copy per write.
//! Untenanted requests read it (`SkyOne`) and fill it (`SkyOne` and
//! all-sky). A tenanted `SkyOne` uses it only for a target none of its
//! overlay pairs touches, and never under
//! [`EngineOptions::tenant_namespacing`]. All-sky, threshold and top-k
//! still compute every target.
//!
//! ## Incremental cache invalidation
//!
//! The component cache is content-addressed: keys embed every
//! `(dim, value, prob_bits)` coin triple an entry depends on. Inserting
//! or removing an object changes no triple, so those writes evict
//! **nothing** — every cached component stays reachable and correct.
//! Editing a preference pair changes at most two triples; the cache scans
//! its shards one at a time, parses each key's coins, and evicts exactly
//! the entries whose signature embeds a touched coin with its old bits,
//! leaving the rest warm. The scan reads every cached entry, so an edit
//! costs O(cached entries). Entries keyed by the *old* bits that
//! escape eviction (a concurrent old-epoch reader may insert one after
//! the scan) are stale-unreachable garbage, never wrong answers.
//!
//! ## Admission control
//!
//! Two deterministic gates shed load *before* any query work runs:
//!
//! 1. **in-flight ceiling** — at most
//!    [`EngineOptions::max_in_flight`] requests run concurrently; the
//!    `max_in_flight + 1`-th arrival gets
//!    [`ServiceError::Overloaded`] immediately;
//! 2. **predicted-cost ceiling** — each request's cost is predicted from
//!    the sampler cost model (the same `Σ 2^|g|`-vs-samples model the
//!    planner budgets with, collapsed to its admission-time upper bound:
//!    every object, `n − 1` attackers, `(n − 1)·d` coins) and compared
//!    against [`EngineOptions::max_predicted_cost`].
//!
//! Both decisions depend only on the request and the pinned epoch's
//! dimensions — never on timing — so shedding is reproducible per epoch.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use presky_core::batch::BatchCoinContext;
use presky_core::epoch::{AnswerStore, DatasetEpoch, SnapshotView, WriteEffects};
use presky_core::preference::{DeltaOverlay, PreferenceModel};
use presky_core::table::Table;
use presky_core::types::{DimId, ObjectId, ValueId};

use presky_approx::sampler::SamOptions;
use presky_exact::cache::{ComponentCache, Eviction, DEFAULT_BYTE_CAP};
use presky_exact::snapshot::{self, Fnv, SnapshotFingerprint};
use presky_query::engine::{
    all_sky_resident, elicitation_rank_resident, sensitivity_one_resident, sensitivity_resident,
    sky_one_resident, sky_one_stored, threshold_resident, top_k_resident, CacheScope, EngineBudget,
    PipelineStats,
};
use presky_query::prob_skyline::Algorithm;
use presky_query::{threshold, topk};

use crate::coalesce::{request_signature, Join, SingleFlight};
use crate::error::{Result, ServiceError};
use crate::metrics::{get, inc, Metrics, MetricsSnapshot};
use crate::request::{Outcome, Query, Request, Response, Value};
use crate::tenant::{self, OverlayHandle, TenantId, TenantRegistry, TenantState};

/// Construction-time configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineOptions {
    /// Maximum concurrently running requests; arrivals beyond this are
    /// shed with [`ServiceError::Overloaded`].
    pub max_in_flight: usize,
    /// Per-request predicted-cost ceiling (machine-word operations);
    /// `None` disables the gate.
    pub max_predicted_cost: Option<u64>,
    /// Byte cap of the cross-request component cache.
    pub cache_bytes: usize,
    /// Single-flight coalescing of identical concurrent requests (see
    /// [`crate::coalesce`]): on by default; off makes every submission
    /// execute solo (the `skyprob serve --no-coalesce` arm of CI's
    /// coalescing gate).
    pub coalescing: bool,
    /// Per-tenant component-cache key namespacing — the **no-sharing
    /// ablation** (`skyprob serve --tenant-namespace`, the baseline arm
    /// of CI's tenant sharing gate). Off (the default), tenants share one
    /// content-addressed key space and every overlay-untouched component
    /// is served across users; on, each tenanted request suffixes its
    /// cache keys with the tenant id, so no entry is ever shared between
    /// tenants. Values are bit-identical either way (the cache only
    /// memoizes, never alters).
    pub tenant_namespacing: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            max_predicted_cost: None,
            cache_bytes: DEFAULT_BYTE_CAP,
            coalescing: true,
            tenant_namespacing: false,
        }
    }
}

impl EngineOptions {
    /// Chainable: set the in-flight ceiling.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Chainable: set (or clear) the predicted-cost ceiling.
    pub fn with_max_predicted_cost(mut self, max_predicted_cost: Option<u64>) -> Self {
        self.max_predicted_cost = max_predicted_cost;
        self
    }

    /// Chainable: set the component-cache byte cap.
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Chainable: enable or disable single-flight coalescing.
    pub fn with_coalescing(mut self, coalescing: bool) -> Self {
        self.coalescing = coalescing;
        self
    }

    /// Chainable: enable or disable the per-tenant cache-namespacing
    /// ablation.
    pub fn with_tenant_namespacing(mut self, tenant_namespacing: bool) -> Self {
        self.tenant_namespacing = tenant_namespacing;
        self
    }
}

/// What one committed write did, for the caller's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CommitReceipt {
    /// The epoch id this write installed (readers admitted after the
    /// commit pin this id or later).
    pub epoch: u64,
    /// Targets whose coin view the write may change (the size of
    /// [`WriteEffects::dirtied_targets`]); their stored answers are not
    /// carried into the new epoch.
    pub dirtied_targets: usize,
    /// Component-cache entries evicted by invalidation.
    pub evicted_components: u64,
    /// Component-cache bytes evicted by invalidation.
    pub evicted_bytes: u64,
}

/// A long-lived query service over one live dataset.
///
/// See the [module docs](self) for the epoch, admission and budget
/// semantics. The preference model `M` is wrapped in an
/// [`OverlayPreferences`](presky_core::preference::OverlayPreferences)
/// internally, which is what makes [`set_preference`](Engine::set_preference)
/// work over any base model.
#[derive(Debug)]
pub struct Engine<M> {
    /// The current epoch; readers pin it with one `Arc` clone under the
    /// read lock, the writer swaps it under the write lock. The lock is
    /// held only for the clone/swap — never across query work.
    current: RwLock<Arc<DatasetEpoch<M>>>,
    /// Serialises commits (single-writer/multi-reader).
    writer: Mutex<()>,
    cache: ComponentCache,
    opts: EngineOptions,
    metrics: Metrics,
    in_flight: AtomicUsize,
    flights: Arc<SingleFlight>,
    /// Superseded epochs whose last pinned reader has drained.
    epochs_retired: Arc<AtomicU64>,
    /// Registered per-user preference overlays.
    tenants: TenantRegistry,
}

/// Per-dimension cap on the value universe hashed pairwise into the
/// engine [`fingerprint`](Engine::fingerprint). Categorical domains (the
/// warmstart regime) sit far below it; huge numeric domains hash a
/// deterministic prefix of the grid plus the universe size.
pub const FINGERPRINT_PAIR_CAP: usize = 128;

/// The `(dataset, preferences)` fingerprint pair of one epoch.
///
/// Both hashes are computed from the **raw table** and the preference
/// grid over its occurring values — deliberately not from
/// [`BatchCoinContext::fingerprint`], whose dense code assignment depends
/// on the build *path* (a context derived by incremental removal keeps
/// orphan codes a fresh build never assigns). Hashing the raw cells keeps
/// the fingerprint stable across "mutated here" vs "rebuilt there", which
/// is exactly what snapshot warmstart needs.
fn compute_fingerprints<M: PreferenceModel>(epoch: &DatasetEpoch<M>) -> (u64, u64) {
    let table = epoch.table();
    let prefs = epoch.prefs();
    let d = table.dimensionality();

    let mut h = Fnv::new();
    h.eat(&(d as u64).to_le_bytes());
    h.eat(&(table.len() as u64).to_le_bytes());
    for j in 0..d {
        for v in table.column(DimId(j as u32)) {
            h.eat(&v.0.to_le_bytes());
        }
    }
    let dataset = h.finish();

    let mut h = Fnv::new();
    h.eat(&(d as u64).to_le_bytes());
    for j in 0..d {
        let dim = DimId(j as u32);
        let values: BTreeSet<ValueId> = table.column(dim).iter().copied().collect();
        h.eat(&(values.len() as u64).to_le_bytes());
        let head: Vec<ValueId> = values.into_iter().take(FINGERPRINT_PAIR_CAP).collect();
        for &a in &head {
            for &b in &head {
                if a != b {
                    h.eat(&prefs.pr_strict(dim, a, b).to_bits().to_le_bytes());
                }
            }
        }
    }
    (dataset, h.finish())
}

/// Releases one in-flight slot even if the query worker panics.
struct InFlightSlot<'a>(&'a AtomicUsize);

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<M: PreferenceModel + Sync> Engine<M> {
    /// Index `table` once and stand up an empty component cache.
    pub fn new(table: Table, prefs: M, opts: EngineOptions) -> Result<Self> {
        let mut epoch =
            DatasetEpoch::build(table, prefs).map_err(presky_query::error::QueryError::from)?;
        let epochs_retired = Arc::new(AtomicU64::new(0));
        epoch.set_retirement_counter(Arc::clone(&epochs_retired));
        Ok(Self {
            current: RwLock::new(Arc::new(epoch)),
            writer: Mutex::new(()),
            cache: ComponentCache::with_byte_cap(opts.cache_bytes),
            opts,
            metrics: Metrics::default(),
            in_flight: AtomicUsize::new(0),
            flights: Arc::default(),
            epochs_retired,
            tenants: TenantRegistry::default(),
        })
    }

    /// Serialize the live component cache to `path`, keyed by the current
    /// epoch's [`fingerprint`](Engine::fingerprint). The file is
    /// versioned and checksummed; equal cache contents produce
    /// byte-identical files.
    pub fn save_cache_snapshot(&self, path: &Path) -> Result<()> {
        snapshot::save_to_path(&self.cache, self.fingerprint(), path)?;
        Ok(())
    }

    /// Identity hashes of the dataset, the preference model, and the
    /// tenant registry — the three-field key a cache snapshot is saved
    /// and validated under, so a refused warmstart can say *which* side
    /// drifted.
    ///
    /// The dataset field covers dimensionality, row count and every raw
    /// cell; the preference field covers the `pr_strict` grid over each
    /// dimension's occurring values (capped at [`FINGERPRINT_PAIR_CAP`]
    /// per dimension — a pair edit on values beyond the cap, or absent
    /// from the dataset, may collide, which can only ever cost cache
    /// *misses*, never wrong values: cache keys embed every probability
    /// bit they depend on, so a stale entry simply fails to match).
    /// Computed lazily once per epoch; the tenant field is `0` while no
    /// tenants are registered, so untenanted deployments keep their
    /// snapshot identity, and is re-read on every call (tenant
    /// registration is cheap and epoch-independent).
    pub fn fingerprint(&self) -> SnapshotFingerprint {
        let epoch = self.pin();
        let (dataset, preferences) = epoch.cached_fingerprints(|| compute_fingerprints(&epoch));
        SnapshotFingerprint { dataset, preferences, tenants: self.tenants.fingerprint() }
    }

    /// Pin the current epoch: one `Arc` clone under the read lock.
    fn pin(&self) -> Arc<DatasetEpoch<M>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// A read-only view pinned to the current epoch. The view keeps its
    /// epoch alive: table, indexes and preferences stay consistent (and
    /// bit-stable) for as long as the caller holds it, however many
    /// writes commit meanwhile.
    pub fn snapshot(&self) -> SnapshotView<M> {
        SnapshotView::pin(&self.pin())
    }

    /// The current epoch id (0 until the first write commits).
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap_or_else(|e| e.into_inner()).id()
    }

    /// Replace the component cache with a snapshot loaded from `path`
    /// (see [`presky_exact::snapshot`]).
    ///
    /// The snapshot must carry this engine's [`fingerprint`]; one taken
    /// over a different dataset, preference model or tenant registry is
    /// refused with [`ServiceError::Warmstart`], whose detail names *which*
    /// side mismatched, and the cache is left as it was. A tenant-serving
    /// process constructs the engine,
    /// [`register_tenant`](Engine::register_tenant)s the registry the
    /// snapshot was saved under, *then* loads it. An engine warm-started
    /// this way serves its first requests at the steady-state cache hit
    /// rate instead of paying the cold pass.
    ///
    /// [`fingerprint`]: Engine::fingerprint
    pub fn load_cache_snapshot(&mut self, path: &Path) -> Result<()> {
        self.cache = snapshot::load_from_path(path, self.fingerprint(), self.opts.cache_bytes)?;
        Ok(())
    }

    /// Register (or wholesale replace) `tenant`'s preference overlay from
    /// `(dim, a, b, forward, backward)` rows, validated like any other
    /// preference write (probabilities in `[0, 1]`, pair mass ≤ 1, no
    /// self-pairs). Returns a receipt carrying the overlay's content
    /// [fingerprint](OverlayHandle::fingerprint).
    ///
    /// Registration never touches the component cache: overlay-affected
    /// components get *different* cache keys (their probability bits
    /// differ), so base entries stay shared and valid. An empty
    /// `overlay_pairs` registers a tenant whose responses are
    /// contractually **byte-identical** to untenanted requests.
    pub fn register_tenant(
        &self,
        tenant: TenantId,
        overlay_pairs: &[(DimId, ValueId, ValueId, f64, f64)],
    ) -> Result<OverlayHandle> {
        let delta = tenant::delta_from_pairs(overlay_pairs)
            .map_err(presky_query::error::QueryError::from)?;
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        Ok(self.tenants.install(tenant, delta))
    }

    /// Copy-on-write update of one pair in `tenant`'s overlay: builds a
    /// new validated delta and atomically swaps it in. Requests already
    /// in flight keep the state they resolved at admission (the same MVCC
    /// discipline dataset writes use); requests admitted after the swap
    /// see the new overlay. Serialised under the engine's writer lock,
    /// like dataset writes. Unknown tenants are refused.
    pub fn set_tenant_preference(
        &self,
        tenant: TenantId,
        dim: DimId,
        a: ValueId,
        b: ValueId,
        forward: f64,
        backward: f64,
    ) -> Result<OverlayHandle> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let Some(state) = self.tenants.resolve(tenant.0) else {
            return Err(ServiceError::UnknownTenant { tenant: tenant.0 });
        };
        let delta = state
            .delta
            .clone()
            .with_pair(dim, a, b, forward, backward)
            .map_err(presky_query::error::QueryError::from)?;
        Ok(self.tenants.install(tenant, delta))
    }

    /// Registered tenants.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Objects in the current epoch.
    pub fn n_objects(&self) -> usize {
        self.current.read().unwrap_or_else(|e| e.into_inner()).n_objects()
    }

    /// Commit a new object with `values`; readers admitted before the
    /// commit keep answering from their pinned epoch.
    ///
    /// No coin signature changes, so **nothing is evicted** from the
    /// component cache — every entry remains reachable and correct under
    /// the new epoch; the receipt reports how many existing targets the
    /// new object can attack (their next computation sees a changed coin
    /// view and caches fresh components alongside the old ones).
    pub fn insert_object(&self, values: &[ValueId]) -> Result<CommitReceipt> {
        self.commit(|epoch| epoch.insert_object(values))
    }

    /// Commit the removal of object `obj` (later ids shift down by one).
    /// Like inserts, removals evict nothing: component signatures are
    /// content-addressed, not id-addressed.
    pub fn remove_object(&self, obj: ObjectId) -> Result<CommitReceipt> {
        self.commit(|epoch| epoch.remove_object(obj))
    }

    /// Commit `Pr(a ≺ b) = forward`, `Pr(b ≺ a) = backward` on `dim`.
    ///
    /// The only write that strands cache entries: per direction whose
    /// probability bits actually changed, entries whose signature embeds
    /// the touched `(dim, value)` coin with its pre-edit bits are evicted
    /// by one scan over every cached entry, O(entries) under one shard
    /// lock at a time. The receipt carries the exact eviction counts.
    pub fn set_preference(
        &self,
        dim: DimId,
        a: ValueId,
        b: ValueId,
        forward: f64,
        backward: f64,
    ) -> Result<CommitReceipt>
    where
        M: Clone,
    {
        self.commit(|epoch| epoch.set_preference(dim, a, b, forward, backward))
    }

    /// Single-writer commit protocol: serialise, derive the next epoch
    /// from the current one, invalidate the cache for the write's touched
    /// coins, swap the epoch pointer, and mark the old epoch superseded
    /// (it retires when its last pinned reader drains; derived epochs
    /// inherit the retirement counter). A failed write installs nothing
    /// and leaves the current epoch untouched.
    ///
    /// Invalidation runs *before* the swap so no reader of the new epoch
    /// can observe a stale-reachable entry; entries a concurrent
    /// old-epoch reader re-inserts afterwards carry old probability bits
    /// and are unreachable from new-epoch signatures.
    fn commit(
        &self,
        write: impl FnOnce(
            &DatasetEpoch<M>,
        ) -> presky_core::error::Result<(DatasetEpoch<M>, WriteEffects)>,
    ) -> Result<CommitReceipt> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let (next, effects) = write(&self.pin()).map_err(presky_query::error::QueryError::from)?;
        let evicted = self.invalidate(&effects);
        let next = Arc::new(next);
        let epoch = next.id();
        let old = {
            let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *current, next)
        };
        old.mark_superseded();
        drop(old);
        inc(&self.metrics.writes);
        self.metrics.evicted_components.fetch_add(evicted.entries, Ordering::Relaxed);
        self.metrics.evicted_bytes.fetch_add(evicted.bytes, Ordering::Relaxed);
        Ok(CommitReceipt {
            epoch,
            dirtied_targets: effects.dirtied_targets.len(),
            evicted_components: evicted.entries,
            evicted_bytes: evicted.bytes,
        })
    }

    /// Evict what one write stranded (see the [module docs](self)).
    fn invalidate(&self, effects: &WriteEffects) -> Eviction {
        if effects.touched_coins.is_empty() {
            return Eviction::default();
        }
        // Both directions of one edited pair share a dimension, but group
        // defensively so a future multi-pair effects batch stays correct.
        let mut by_dim: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
        for coin in &effects.touched_coins {
            match by_dim.iter_mut().find(|(d, _)| *d == coin.dim.0) {
                Some((_, v)) => v.push((coin.value.0, coin.old_bits)),
                None => by_dim.push((coin.dim.0, vec![(coin.value.0, coin.old_bits)])),
            }
        }
        let mut total = Eviction::default();
        for (dim, touched) in by_dim {
            let ev = self.cache.evict_signature_touched(dim, &touched);
            total.entries += ev.entries;
            total.bytes += ev.bytes;
        }
        total
    }

    /// Serve one request from this thread.
    ///
    /// The request resolves its tenant's overlay, then pins the current
    /// epoch and answers entirely from it; [`Response::epoch`] records
    /// which. A `SkyOne` whose answer the pinned epoch has stored is then
    /// answered from the store, where the read's budget lets it start and
    /// its own policy would plan the stored shape exact
    /// ([`sky_one_stored`]). Such a read passes the same admission gates and
    /// counters as a computed one, but never joins a coalescing flight and
    /// runs no pipeline. With coalescing enabled (the default), other
    /// identical concurrent submissions *that pinned the same epoch* share
    /// one execution: the first becomes the leader and runs the solo path;
    /// the rest block and receive the leader's [`Response`] (own `elapsed`,
    /// leader's value and stats), provided the leader's [`Budget`] covers
    /// theirs — see [`crate::coalesce`] for the exact rule. A submission
    /// arriving after a write commits pins a newer epoch and opens its own
    /// flight. A failed leader sends its followers to solo execution; every
    /// submission is counted exactly once in the metrics. Any number of
    /// threads may call this concurrently on one engine.
    ///
    /// [`Budget`]: crate::request::Budget
    pub fn run(&self, request: Request) -> Result<Response> {
        inc(&self.metrics.requests);
        let overlay = self.resolve_overlay(&request)?;
        let epoch = self.pin();
        if let Some(stored) = self.run_stored(&request, &epoch, overlay.as_deref()) {
            return stored;
        }
        if !self.opts.coalescing {
            return self.run_solo(&request, &epoch, overlay.as_deref());
        }
        let overlay_fp = overlay.as_ref().map_or(0, |state| state.fingerprint);
        let Some(key) = request_signature(&request, epoch.id(), overlay_fp) else {
            return self.run_solo(&request, &epoch, overlay.as_deref());
        };
        match self.flights.join(key, request.budget) {
            Join::Leader(guard) => {
                let outcome = self.run_solo(&request, &epoch, overlay.as_deref());
                let followers = guard.publish(outcome.as_ref().ok().cloned());
                if followers > 0 {
                    inc(&self.metrics.coalesce_led);
                }
                outcome
            }
            Join::Follower(flight) => {
                let started = Instant::now();
                match flight.wait() {
                    Some(response) => {
                        inc(&self.metrics.coalesced);
                        if let Some(t) = request.tenant {
                            self.metrics.tenant_add(t.0, |m| m.coalesced += 1);
                        }
                        Ok(Response { elapsed: started.elapsed(), ..response })
                    }
                    // The leader failed without publishing; this
                    // submission still owes its caller an answer (and was
                    // already counted in `requests`), so run it solo on
                    // the epoch it pinned (the flight key guarantees the
                    // leader pinned the same one).
                    None => self.run_solo(&request, &epoch, overlay.as_deref()),
                }
            }
            Join::Bypass => self.run_solo(&request, &epoch, overlay.as_deref()),
        }
    }

    /// Resolve the request's tenant (if any) to its pinned overlay state.
    /// An unregistered tenant is a terminal failure, counted like any
    /// other non-shed error; registered tenants get their per-tenant
    /// request counted here, at admission into the tenant path.
    fn resolve_overlay(&self, request: &Request) -> Result<Option<Arc<TenantState>>> {
        let Some(t) = request.tenant else { return Ok(None) };
        match self.tenants.resolve(t.0) {
            Some(state) => {
                self.metrics.tenant_add(t.0, |m| m.requests += 1);
                Ok(Some(state))
            }
            None => {
                inc(&self.metrics.failed);
                Err(ServiceError::UnknownTenant { tenant: t.0 })
            }
        }
    }

    /// Answer a stored single-target read at admission: `None`, with no
    /// counter touched, unless the request is a `SkyOne`, the pinned
    /// epoch's store holds base answers for it ([`Self::answers_for`]) and
    /// [`sky_one_stored`] accepts it. An accepted read then passes both
    /// admission gates and lands in exactly one terminal counter, as
    /// [`Self::run_solo`] does, with no flight, pipeline or allocation.
    fn run_stored(
        &self,
        request: &Request,
        epoch: &DatasetEpoch<M>,
        overlay: Option<&TenantState>,
    ) -> Option<Result<Response>> {
        let Query::SkyOne { target, opts } = request.query else { return None };
        let answers = self.answers_for(request, epoch, overlay)?;
        let admitted_at = Instant::now();
        let budget = request.budget.to_engine_budget(admitted_at);
        let (result, stats) = sky_one_stored(answers, target, opts, budget)?;
        Some(self.admit(epoch, &request.query).map(|slot| {
            drop(slot);
            self.complete(request, epoch, admitted_at, Value::Sky(Some(result)), stats, 0)
        }))
    }

    /// Execute one request outside the single-flight layer: admission
    /// gates, budget pinning, the resident pipeline, outcome
    /// classification. Exactly one terminal counter (`completed`, a shed
    /// counter, or `failed`) is incremented per call.
    fn run_solo(
        &self,
        request: &Request,
        epoch: &Arc<DatasetEpoch<M>>,
        overlay: Option<&TenantState>,
    ) -> Result<Response> {
        let result = self.run_admitted(request, epoch, overlay);
        if let Err(e) = &result {
            if !e.is_shed() {
                inc(&self.metrics.failed);
            }
        }
        result
    }

    fn run_admitted(
        &self,
        request: &Request,
        epoch: &Arc<DatasetEpoch<M>>,
        overlay: Option<&TenantState>,
    ) -> Result<Response> {
        let slot = self.admit(epoch, &request.query)?;
        let admitted_at = Instant::now();
        let budget = request.budget.to_engine_budget(admitted_at);
        let scope = self
            .scope_for(overlay, request.tenant)
            .with_answers(self.answers_for(request, epoch, overlay));
        let ctx = epoch.ctx().as_ref();
        // The two arms below monomorphize `dispatch` separately; an empty
        // (or absent) overlay takes the *same* instantiation untenanted
        // requests take, which is what makes the empty-overlay
        // bit-identity contract structural rather than numerical.
        let (value, stats, truncated) = match overlay {
            Some(state) if !state.delta.is_empty() => {
                let prefs = DeltaOverlay::new(&state.delta, epoch.prefs().as_ref());
                dispatch(&request.query, ctx, &prefs, Some(scope), budget)?
            }
            _ => dispatch(&request.query, ctx, epoch.prefs().as_ref(), Some(scope), budget)?,
        };
        drop(slot);
        Ok(self.complete(request, epoch, admitted_at, value, stats, truncated))
    }

    /// The two admission gates of the [module docs](self), in order: a
    /// shed request is counted here and gets its error; an admitted one
    /// holds the returned in-flight slot while it runs.
    fn admit(&self, epoch: &DatasetEpoch<M>, query: &Query) -> Result<InFlightSlot<'_>> {
        if let Some(max) = self.opts.max_predicted_cost {
            let predicted = self.predicted_cost_on(epoch, query);
            if predicted > max {
                inc(&self.metrics.shed_cost);
                return Err(ServiceError::CostCeiling { predicted, max });
            }
        }
        let previous = self.in_flight.fetch_add(1, Ordering::AcqRel);
        let slot = InFlightSlot(&self.in_flight);
        if previous >= self.opts.max_in_flight {
            inc(&self.metrics.shed_overload);
            return Err(ServiceError::Overloaded {
                in_flight: previous,
                max: self.opts.max_in_flight,
            });
        }
        inc(&self.metrics.admitted);
        Ok(slot)
    }

    /// Count one admitted request's completion and classify its outcome.
    fn complete(
        &self,
        request: &Request,
        epoch: &DatasetEpoch<M>,
        admitted_at: Instant,
        value: Value,
        stats: PipelineStats,
        truncated: u64,
    ) -> Response {
        self.metrics.merge_stats(&stats);
        self.count_tenant_stats(request.tenant, &stats);
        inc(&self.metrics.completed);
        if matches!(request.query, Query::SkyOne { .. }) {
            inc(&self.metrics.single_reads);
        }
        let outcome = Outcome::classify(value, truncated);
        if !outcome.complete() {
            inc(&self.metrics.deadline_misses);
        }
        Response { outcome, stats, elapsed: admitted_at.elapsed(), epoch: epoch.id() }
    }

    /// The cache scope a request executes under: the shared cache, plus —
    /// for tenanted requests — the overlay's touched-coin mask (telemetry
    /// classification of hits into cross-user vs overlay-specific) and,
    /// under the [`EngineOptions::tenant_namespacing`] ablation, a
    /// per-tenant key namespace that forbids all cross-user sharing.
    fn scope_for<'a>(
        &'a self,
        overlay: Option<&'a TenantState>,
        tenant: Option<TenantId>,
    ) -> CacheScope<'a> {
        let mut scope = CacheScope::new(&self.cache);
        if overlay.is_some() {
            scope = scope.with_mask(overlay.map(|state| &state.mask));
            if self.opts.tenant_namespacing {
                scope = scope.with_namespace(tenant.map_or(0, |t| t.0.wrapping_add(1)));
            }
        }
        scope
    }

    /// The pinned epoch's answer store, where every answer the request can
    /// compute is the epoch's base answer: untenanted and empty-overlay
    /// requests always; a tenanted single-target read only when none of
    /// its overlay pairs touches the target, and never under
    /// [`EngineOptions::tenant_namespacing`].
    fn answers_for<'a>(
        &self,
        request: &Request,
        epoch: &'a DatasetEpoch<M>,
        overlay: Option<&TenantState>,
    ) -> Option<&'a AnswerStore> {
        let base_answers = match overlay {
            None => true,
            Some(_) if self.opts.tenant_namespacing => false,
            Some(state) => {
                state.delta.is_empty()
                    || matches!(request.query, Query::SkyOne { target, .. }
                        if !state.touches(epoch.ctx(), target))
            }
        };
        base_answers.then(|| epoch.answers())
    }

    /// Fold one tenanted execution's cache traffic into the per-tenant
    /// counters and the engine-wide cross-user hit counter. A response
    /// with no cache probe (a stored or short-circuited read) has no hit
    /// either, so it takes neither the tenant lock nor the add.
    fn count_tenant_stats(&self, tenant: Option<TenantId>, stats: &PipelineStats) {
        let Some(t) = tenant.filter(|_| stats.cache_probes > 0) else { return };
        self.metrics.tenant_add(t.0, |m| {
            m.cache_probes += stats.cache_probes;
            m.cache_hits += stats.cache_hits;
        });
        self.metrics.cross_user_hits.fetch_add(stats.cache_base_hits, Ordering::Relaxed);
    }

    /// Predicted cost of a request against the current epoch, in the
    /// sampler cost model's machine-word operations.
    ///
    /// This is the admission-time collapse of the planner's model: the
    /// per-object `Σ 2^|g|`-vs-sampling comparison needs the prepared
    /// component structure, which does not exist yet, so every object is
    /// charged its sampling upper bound (`n − 1` attackers over
    /// `(n − 1)·d` coins). Deterministic in the request and the epoch.
    pub fn predicted_cost(&self, query: &Query) -> u64 {
        self.predicted_cost_on(&self.pin(), query)
    }

    fn predicted_cost_on(&self, epoch: &DatasetEpoch<M>, query: &Query) -> u64 {
        let n = epoch.n_objects();
        let d = epoch.table().dimensionality();
        let attackers = n.saturating_sub(1);
        let coins = attackers.saturating_mul(d);
        let per_object = |sam: SamOptions| sam.predicted_cost(attackers, coins).max(1);
        let policy_sam = |algo: &Algorithm| match algo {
            Algorithm::Adaptive { sam, .. } | Algorithm::Sampling(sam) => *sam,
            Algorithm::Exact { .. } => SamOptions::default(),
        };
        match query {
            Query::SkyOne { opts, .. } => per_object(policy_sam(&opts.algorithm)),
            Query::AllSky { opts } => {
                (n as u64).saturating_mul(per_object(policy_sam(&opts.algorithm)))
            }
            Query::Threshold { .. } => (n as u64).saturating_mul(per_object(threshold::FALLBACK)),
            Query::TopK { k, .. } => {
                let scout = (n as u64).saturating_mul(per_object(topk::SCOUT));
                let refine = (k.saturating_mul(topk::OVERFETCH).min(n) as u64)
                    .saturating_mul(per_object(topk::REFINE));
                scout.saturating_add(refine)
            }
            // Gradient passes are exact-only, so the planner's sampling
            // comparison never applies; charge the same per-object upper
            // bound the exact policy is charged elsewhere.
            Query::Sensitivity { target: Some(_), .. } => per_object(SamOptions::default()),
            Query::Sensitivity { target: None, .. } | Query::ElicitationRank { .. } => {
                (n as u64).saturating_mul(per_object(SamOptions::default()))
            }
        }
    }

    /// A point-in-time view of the engine's counters and cache.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: get(&self.metrics.requests),
            admitted: get(&self.metrics.admitted),
            completed: get(&self.metrics.completed),
            coalesced: get(&self.metrics.coalesced),
            coalesce_led: get(&self.metrics.coalesce_led),
            deadline_misses: get(&self.metrics.deadline_misses),
            shed_overload: get(&self.metrics.shed_overload),
            shed_cost: get(&self.metrics.shed_cost),
            failed: get(&self.metrics.failed),
            epoch: self.epoch(),
            writes: get(&self.metrics.writes),
            epochs_retired: self.epochs_retired.load(Ordering::Relaxed),
            evicted_components: get(&self.metrics.evicted_components),
            evicted_bytes: get(&self.metrics.evicted_bytes),
            in_flight: self.in_flight.load(Ordering::Acquire),
            stats: self.metrics.stats_snapshot(),
            cache_entries: self.cache.len(),
            cache_bytes: self.cache.bytes(),
            cross_user_hits: get(&self.metrics.cross_user_hits),
            single_reads: get(&self.metrics.single_reads),
            tenants: self.metrics.tenants_snapshot(),
        }
    }
}

/// Run one query shape through the resident drivers.
///
/// Generic over the resolved preference model so untenanted and
/// empty-overlay requests share one monomorphized instantiation (the
/// bit-identity contract) while overlaid requests reuse the identical
/// code at a [`DeltaOverlay`] instantiation.
fn dispatch<P: PreferenceModel + Sync>(
    query: &Query,
    ctx: &BatchCoinContext,
    prefs: &P,
    cache: Option<CacheScope<'_>>,
    budget: EngineBudget,
) -> Result<(Value, PipelineStats, u64)> {
    Ok(match query {
        Query::SkyOne { target, opts } => {
            let out = sky_one_resident(ctx, prefs, *target, *opts, cache, budget)?;
            (Value::Sky(out.results.into_iter().next().flatten()), out.stats, out.truncated)
        }
        Query::AllSky { opts } => {
            let out = all_sky_resident(ctx, prefs, *opts, cache, budget)?;
            (Value::AllSky(out.results), out.stats, out.truncated)
        }
        Query::Threshold { tau, opts } => {
            let out = threshold_resident(ctx, prefs, *tau, *opts, cache, budget)?;
            (Value::Threshold(out.results), out.stats, out.truncated)
        }
        Query::TopK { k, opts } => {
            let out = top_k_resident(ctx, prefs, *k, *opts, cache, budget)?;
            (Value::TopK(out.results.into_iter().flatten().collect()), out.stats, out.truncated)
        }
        Query::Sensitivity { target: Some(target), opts } => {
            let out = sensitivity_one_resident(ctx, prefs, *target, *opts, cache, budget)?;
            (Value::Sensitivity(out.results), out.stats, out.truncated)
        }
        Query::Sensitivity { target: None, opts } => {
            let out = sensitivity_resident(ctx, prefs, *opts, cache, budget)?;
            (Value::Sensitivity(out.results), out.stats, out.truncated)
        }
        Query::ElicitationRank { opts } => {
            let out = elicitation_rank_resident(ctx, prefs, *opts, cache, budget)?;
            (Value::ElicitationRank(out.candidates), out.stats, out.truncated)
        }
    })
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PrefPair, TablePreferences};
    use presky_core::types::ObjectId;
    use presky_query::engine::{ElicitOptions, SensitivityOptions};
    use presky_query::prob_skyline::QueryOptions;
    use presky_query::threshold::ThresholdOptions;
    use presky_query::topk::TopKOptions;

    use super::*;
    use crate::metrics::TenantMetrics;
    use crate::request::Budget;

    fn engine(opts: EngineOptions) -> Engine<TablePreferences> {
        let table =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        Engine::new(table, TablePreferences::with_default(PrefPair::half()), opts).unwrap()
    }

    fn all_sky_bits<M: PreferenceModel + Sync>(e: &Engine<M>) -> Vec<u64> {
        e.run(Request::all_sky(QueryOptions::default()))
            .unwrap()
            .outcome
            .value()
            .as_all_sky()
            .unwrap()
            .iter()
            .map(|r| r.unwrap().sky.to_bits())
            .collect()
    }

    #[test]
    fn serves_every_request_shape() {
        let e = engine(EngineOptions::default());
        let r = e.run(Request::sky_one(ObjectId(0), QueryOptions::default())).unwrap();
        assert!((r.outcome.value().as_sky().unwrap().sky - 3.0 / 16.0).abs() < 1e-12);
        assert_eq!(r.epoch, 0);
        let r = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        assert_eq!(r.outcome.value().as_all_sky().unwrap().len(), 5);
        let r = e.run(Request::threshold(0.15, ThresholdOptions::default())).unwrap();
        assert_eq!(r.outcome.value().as_threshold().unwrap().len(), 5);
        let r = e.run(Request::top_k(2, TopKOptions::default())).unwrap();
        assert_eq!(r.outcome.value().as_top_k().unwrap().len(), 2);
        let r = e.run(Request::sensitivity(None, SensitivityOptions::default())).unwrap();
        assert!(matches!(r.outcome, Outcome::Exact(_)), "gradients are exact-only");
        assert_eq!(r.outcome.value().as_sensitivity().unwrap().len(), 5);
        let r =
            e.run(Request::sensitivity(Some(ObjectId(0)), SensitivityOptions::default())).unwrap();
        let slots = r.outcome.value().as_sensitivity().unwrap();
        assert_eq!(slots.len(), 1);
        assert!(!slots[0].as_ref().unwrap().sensitivities.is_empty());
        let r = e.run(Request::elicitation_rank(ElicitOptions::default())).unwrap();
        assert!(matches!(r.outcome, Outcome::Exact(_)));
        assert!(!r.outcome.value().as_elicitation_rank().unwrap().is_empty());
        let m = e.metrics();
        assert_eq!(m.admitted, 7);
        assert_eq!(m.completed, 7);
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.epoch, 0);
        assert_eq!(m.writes, 0);
    }

    #[test]
    fn sensitivity_gradients_predict_all_sky_exactly_under_a_commit() {
        // Multilinearity end-to-end through the service: for the top
        // elicitation candidate, sky(p → 1) = sky + (1 − p)·Σ dsky per
        // target, and committing the pair must land every object exactly
        // there (within fp roundoff of the re-solved pipeline).
        let e = engine(EngineOptions::default());
        let ranked = e.run(Request::elicitation_rank(ElicitOptions::default())).unwrap();
        let top = ranked.outcome.value().as_elicitation_rank().unwrap()[0];
        let grads = e.run(Request::sensitivity(None, SensitivityOptions::default())).unwrap();
        let predicted: Vec<f64> = grads
            .outcome
            .value()
            .as_sensitivity()
            .unwrap()
            .iter()
            .map(|slot| {
                let t = slot.as_ref().unwrap();
                let delta: f64 = t
                    .sensitivities
                    .iter()
                    .filter(|s| {
                        s.dim == top.dim && (s.a.min(s.b), s.a.max(s.b)) == (top.lo, top.hi)
                    })
                    .map(|s| {
                        // Forward-direction coins move to 1, backward to 0.
                        let to = if s.a == top.lo { 1.0 } else { 0.0 };
                        (to - s.prob) * s.dsky
                    })
                    .sum();
                t.sky + delta
            })
            .collect();
        e.set_preference(top.dim, top.lo, top.hi, 1.0, 0.0).unwrap();
        let after = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        for (slot, want) in after.outcome.value().as_all_sky().unwrap().iter().zip(&predicted) {
            assert!((slot.unwrap().sky - want).abs() < 1e-12, "{} vs {want}", slot.unwrap().sky);
        }
    }

    #[test]
    fn elicitation_commits_drive_total_voi_monotonically_down() {
        // Committing the top-ranked pair each round must never increase
        // the total value of information: resolved coins contribute
        // nothing, and all other coins' probabilities are untouched.
        let e = engine(EngineOptions::default());
        let mut last = f64::INFINITY;
        for round in 0..4 {
            let r = e.run(Request::elicitation_rank(ElicitOptions::default())).unwrap();
            let ranked = r.outcome.value().as_elicitation_rank().unwrap().to_vec();
            let total: f64 = ranked.iter().map(|c| c.voi).sum();
            assert!(total <= last + 1e-12, "round {round}: total VoI rose from {last} to {total}");
            last = total;
            let Some(top) = ranked.first().copied() else { break };
            let receipt = e.set_preference(top.dim, top.lo, top.hi, 1.0, 0.0).unwrap();
            assert_eq!(receipt.epoch, round + 1);
            // The committed pair is certain now: it must leave the ranking.
            let again = e.run(Request::elicitation_rank(ElicitOptions::default())).unwrap();
            assert!(
                again.outcome.value().as_elicitation_rank().unwrap().iter().all(|c| (
                    c.dim, c.lo, c.hi
                ) != (
                    top.dim, top.lo, top.hi
                )),
                "committed pair survived the re-rank"
            );
        }
        assert!(last < f64::INFINITY, "fixture must expose uncertain pairs");
    }

    #[test]
    fn writes_install_fresh_epochs_and_readers_track_them() {
        let e = engine(EngineOptions::default());
        assert_eq!(e.epoch(), 0);
        let before = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        assert_eq!(before.epoch, 0);

        let receipt = e.insert_object(&[ValueId(3), ValueId(0)]).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.evicted_components, 0, "inserts never evict");
        assert_eq!(e.n_objects(), 6);

        let after = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.outcome.value().as_all_sky().unwrap().len(), 6);

        let receipt = e.remove_object(ObjectId(5)).unwrap();
        assert_eq!(receipt.epoch, 2);
        assert_eq!(e.n_objects(), 5);

        let m = e.metrics();
        assert_eq!(m.epoch, 2);
        assert_eq!(m.writes, 2);
        // Both superseded epochs had no lingering pins.
        assert_eq!(m.epochs_retired, 2);
        // Back to the original dataset: answers are bit-identical to the
        // pre-write run.
        let roundtrip = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        let a = before.outcome.value().as_all_sky().unwrap();
        let b = roundtrip.outcome.value().as_all_sky().unwrap();
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.unwrap().sky.to_bits(), y.unwrap().sky.to_bits());
        }
    }

    #[test]
    fn a_pinned_snapshot_is_immune_to_later_writes() {
        let e = engine(EngineOptions::default());
        let view = e.snapshot();
        assert_eq!(view.id(), 0);
        e.insert_object(&[ValueId(3), ValueId(0)]).unwrap();
        e.set_preference(DimId(0), ValueId(0), ValueId(1), 0.9, 0.05).unwrap();
        // The view still reads epoch 0: five objects, the original grid.
        assert_eq!(view.n_objects(), 5);
        assert_eq!(view.prefs().pr_strict(DimId(0), ValueId(0), ValueId(1)), 0.5);
        assert_eq!(e.n_objects(), 6);
        // Epoch 0 cannot retire while the view pins it.
        assert_eq!(e.metrics().epochs_retired, 1, "only the insert's epoch 1 retired");
        drop(view);
        assert_eq!(e.metrics().epochs_retired, 2);
    }

    #[test]
    fn preference_edits_evict_only_signature_touched_components() {
        let e = engine(EngineOptions::default());
        e.run(Request::all_sky(QueryOptions::default())).unwrap();
        let entries_before = e.metrics().cache_entries;
        assert!(entries_before > 0, "fixture must populate the cache");

        // Edit one pair on dim 0; only components embedding the touched
        // coins may go, and the rest of the cache stays warm.
        let receipt = e.set_preference(DimId(0), ValueId(0), ValueId(1), 0.9, 0.05).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert!(receipt.evicted_components > 0, "the edited coins were cached");
        assert!(
            (receipt.evicted_components as usize) < entries_before,
            "incremental invalidation must not drop the whole cache \
             ({} evicted of {entries_before})",
            receipt.evicted_components,
        );
        assert!(receipt.evicted_bytes > 0);
        let m = e.metrics();
        assert_eq!(m.evicted_components, receipt.evicted_components);
        assert_eq!(m.cache_entries, entries_before - receipt.evicted_components as usize);

        // Post-edit answers match a fresh engine over the same epoch's
        // table and (edited) preferences.
        let got = all_sky_bits(&e);
        let view = e.snapshot();
        let fresh = Engine::new(
            view.table().as_ref().clone(),
            view.prefs().as_ref().clone(),
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(got, all_sky_bits(&fresh), "edited engine must answer like a fresh build");
    }

    #[test]
    fn failed_writes_install_nothing() {
        let e = engine(EngineOptions::default());
        // Duplicate row, bad dimensionality, out-of-range removal, and an
        // invalid probability pair: all refused, none bump the epoch.
        assert!(e.insert_object(&[ValueId(1), ValueId(1)]).is_err());
        assert!(e.insert_object(&[ValueId(9)]).is_err());
        assert!(e.remove_object(ObjectId(40)).is_err());
        assert!(e.set_preference(DimId(0), ValueId(0), ValueId(1), 0.8, 0.8).is_err());
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.metrics().writes, 0);
    }

    #[test]
    fn cost_ceiling_sheds_deterministically() {
        let e = engine(EngineOptions::default().with_max_predicted_cost(Some(1)));
        let err = e.run(Request::all_sky(QueryOptions::default())).unwrap_err();
        assert!(matches!(err, ServiceError::CostCeiling { .. }));
        assert!(err.is_shed());
        assert_eq!(e.metrics().shed_cost, 1);
        assert_eq!(e.metrics().admitted, 0);
    }

    #[test]
    fn zero_in_flight_sheds_everything_and_slots_are_released() {
        let e = engine(EngineOptions::default().with_max_in_flight(0));
        for _ in 0..3 {
            let err = e.run(Request::sky_one(ObjectId(0), QueryOptions::default())).unwrap_err();
            assert!(matches!(err, ServiceError::Overloaded { .. }));
        }
        let m = e.metrics();
        assert_eq!(m.shed_overload, 3);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn query_errors_propagate_and_engine_survives() {
        let e = engine(EngineOptions::default());
        assert!(matches!(
            e.run(Request::threshold(1.5, ThresholdOptions::default())),
            Err(ServiceError::Query(_))
        ));
        assert!(matches!(
            e.run(Request::top_k(0, TopKOptions::default())),
            Err(ServiceError::Query(_))
        ));
        // The engine keeps serving; the failed requests released their slots.
        let r = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        assert!(r.outcome.complete());
        assert_eq!(e.metrics().in_flight, 0);
    }

    #[test]
    fn tiny_deadline_concludes_deadline_exceeded_never_wrong() {
        let e = engine(EngineOptions::default());
        let full = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        let budget = Budget::default().with_deadline(Some(std::time::Duration::ZERO));
        let r = e.run(Request::all_sky(QueryOptions::default()).with_budget(budget)).unwrap();
        match &r.outcome {
            Outcome::DeadlineExceeded { partial, truncated } => {
                assert!(*truncated > 0);
                let got = partial.as_all_sky().unwrap();
                let want = full.outcome.value().as_all_sky().unwrap();
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    if let Some(g) = g {
                        assert_eq!(g.sky.to_bits(), w.unwrap().sky.to_bits());
                    }
                }
                let withheld = got.iter().filter(|g| g.is_none()).count() as u64;
                assert_eq!(*truncated, withheld, "truncation count must match the None slots");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let m = e.metrics();
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.failed, 0);
    }

    #[test]
    fn answer_store_serves_repeated_single_target_reads() {
        let e = engine(EngineOptions::default());
        let one = |t: u32| {
            let r = e.run(Request::sky_one(ObjectId(t), QueryOptions::default())).unwrap();
            (*r.outcome.value().as_sky().unwrap(), r.stats)
        };
        // A cold read computes and records; the repeat is served from the
        // store with the same bits and the same logical joints.
        let (cold, cold_stats) = one(0);
        assert_eq!((cold_stats.store_hits, cold_stats.store_records), (0, 1));
        let (warm, warm_stats) = one(0);
        assert_eq!((warm_stats.store_hits, warm_stats.store_records), (1, 0));
        assert_eq!(warm.sky.to_bits(), cold.sky.to_bits());
        assert!(warm.exact);
        assert_eq!(warm_stats.joints_computed, cold_stats.joints_computed);
        assert_eq!(warm_stats.objects, 0, "a stored answer skips the pipeline");
        // All-sky records the four other targets but reads none.
        let all = e.run(Request::all_sky(QueryOptions::default())).unwrap();
        assert_eq!((all.stats.store_hits, all.stats.store_records), (0, 4));
        one(3);
        let m = e.metrics();
        assert_eq!((m.stats.store_hits, m.stats.store_records, m.single_reads), (2, 5, 3));
        assert!((m.store_reuse_share() - 2.0 / 3.0).abs() < 1e-12);

        // The edit on dim 0 dirties every row valued 0 or 1 there; row 3
        // (valued 2) keeps its answer into the next epoch.
        let receipt = e.set_preference(DimId(0), ValueId(0), ValueId(1), 0.9, 0.05).unwrap();
        assert_eq!(receipt.dirtied_targets, 4);
        let (kept, kept_stats) = one(3);
        assert_eq!(kept_stats.store_hits, 1);
        let (_, recomputed) = one(0);
        assert_eq!((recomputed.store_hits, recomputed.store_records), (0, 1));
        let view = e.snapshot();
        let fresh = Engine::new(
            view.table().as_ref().clone(),
            view.prefs().as_ref().clone(),
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(all_sky_bits(&fresh)[3], kept.sky.to_bits());
        let m = e.metrics();
        assert_eq!((m.stats.store_hits, m.stats.store_records, m.single_reads), (3, 6, 5));
    }

    #[test]
    fn stored_and_computed_reads_keep_every_counter() {
        // One fixed serial sequence; every constant below was recorded
        // while stored reads still ran through coalescing and the pipeline.
        let e = engine(EngineOptions::default());
        e.register_tenant(TenantId(7), &[(DimId(0), ValueId(0), ValueId(1), 0.9, 0.05)]).unwrap();
        e.register_tenant(TenantId(8), &[]).unwrap();
        let one = QueryOptions::default().with_threads(Some(1));
        let sky_one = |t: u32| Request::sky_one(ObjectId(t), one);
        let run = |r: Request| e.run(r).unwrap();

        run(sky_one(0)); // cold: computed and recorded
        run(Request::all_sky(one)); // records the other four targets
        run(sky_one(0)); // stored
        run(sky_one(3)); // stored
        let sam = SamOptions::with_samples(500, 3);
        run(Request::sky_one(ObjectId(1), one.with_algorithm(Algorithm::Sampling(sam))));
        run(Request::sky_one(ObjectId(2), one.with_component_cache(false)));
        let expired = Budget::default().with_deadline(Some(std::time::Duration::ZERO));
        run(sky_one(4).with_budget(expired)); // truncated before the store

        // Tenant 7's pair touches every row valued 0 or 1 on dim 0; row 3
        // (valued 2) keeps its base answer.
        run(sky_one(3).with_tenant(TenantId(7))); // stored
        run(sky_one(0).with_tenant(TenantId(7))); // computed under the overlay
        run(sky_one(0).with_tenant(TenantId(7))); // computed again, warm cache
        run(Request::all_sky(one).with_tenant(TenantId(7)));
        run(sky_one(1).with_tenant(TenantId(8))); // empty overlay: stored

        let m = e.metrics();
        assert_eq!((m.requests, m.admitted, m.completed, m.coalesced), (12, 12, 12, 0));
        assert_eq!((m.coalesce_led, m.deadline_misses, m.shed(), m.failed), (0, 1, 0, 0));
        assert_eq!(m.single_reads, 10);
        assert_eq!((m.stats.store_hits, m.stats.store_records), (4, 5));
        assert_eq!(m.stats.joints_computed, 86);
        assert_eq!(m.stats.objects, 15, "stored reads run no pipeline");
        assert_eq!((m.stats.cache_probes, m.stats.cache_hits, m.cross_user_hits), (35, 27, 13));
        let tenant = |tenant, requests, cache_probes, cache_hits| TenantMetrics {
            tenant,
            requests,
            cache_probes,
            cache_hits,
            coalesced: 0,
        };
        assert_eq!(m.tenants, vec![tenant(7, 4, 19, 17), tenant(8, 1, 0, 0)]);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn cache_stays_warm_across_requests() {
        let e = engine(EngineOptions::default());
        e.run(Request::all_sky(QueryOptions::default())).unwrap();
        let cold = e.metrics();
        e.run(Request::all_sky(QueryOptions::default())).unwrap();
        let warm = e.metrics();
        assert!(warm.stats.cache_hits > cold.stats.cache_hits);
        assert!(warm.cache_hit_rate() > 0.0);
        assert!(warm.cache_entries > 0);
    }

    #[test]
    fn warm_cache_round_trips_and_refuses_mismatched_fingerprints() {
        let dir = std::env::temp_dir().join(format!("presky-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snapshot");

        let cold = engine(EngineOptions::default());
        let cold_resp = cold.run(Request::all_sky(QueryOptions::default())).unwrap();
        assert!(cold.metrics().cache_entries > 0, "fixture must populate the cache");
        cold.save_cache_snapshot(&path).unwrap();

        let table = cold.snapshot().table().as_ref().clone();
        let mut warm = Engine::new(
            table.clone(),
            TablePreferences::with_default(PrefPair::half()),
            EngineOptions::default(),
        )
        .unwrap();
        warm.load_cache_snapshot(&path).unwrap();
        assert_eq!(warm.metrics().cache_entries, cold.metrics().cache_entries);
        assert_eq!(warm.fingerprint(), cold.fingerprint());
        // First pass on the warm engine: every probe hits, values are
        // bit-identical to the cold engine's answer.
        let warm_resp = warm.run(Request::all_sky(QueryOptions::default())).unwrap();
        let m = warm.metrics();
        assert_eq!(m.stats.cache_hits, m.stats.cache_probes);
        let a = cold_resp.outcome.value().as_all_sky().unwrap();
        let b = warm_resp.outcome.value().as_all_sky().unwrap();
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.unwrap().sky.to_bits(), y.unwrap().sky.to_bits());
        }
        // Logical work accounting replays identically (hits re-add the
        // cached joints).
        assert_eq!(
            cold_resp.stats.joints_computed, warm_resp.stats.joints_computed,
            "joints_computed must be deterministic across cold/warm caches"
        );

        // A different preference model is a different fingerprint, and
        // the refusal names the preference side.
        let mut other = Engine::new(
            table,
            TablePreferences::with_default(PrefPair::new(0.25, 0.25).unwrap()),
            EngineOptions::default(),
        )
        .unwrap();
        match other.load_cache_snapshot(&path) {
            Err(ServiceError::Warmstart { detail }) => {
                assert!(detail.contains("preference grid"), "detail: {detail}");
            }
            other => panic!("expected Warmstart refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_and_rebuilt_engines_share_a_fingerprint() {
        // A snapshot saved by a long-lived mutated engine must warm-start
        // a process that rebuilt the same dataset from scratch: the
        // fingerprint hashes raw table contents, not the (build-path
        // dependent) incremental index state.
        let e = engine(EngineOptions::default());
        e.insert_object(&[ValueId(3), ValueId(2)]).unwrap();
        e.remove_object(ObjectId(1)).unwrap();
        let rebuilt = Engine::new(
            e.snapshot().table().as_ref().clone(),
            TablePreferences::with_default(PrefPair::half()),
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(e.fingerprint(), rebuilt.fingerprint());
        // A preference edit moves only the preference field.
        let fp_before = e.fingerprint();
        e.set_preference(DimId(0), ValueId(0), ValueId(1), 0.9, 0.05).unwrap();
        let fp_after = e.fingerprint();
        assert_eq!(fp_before.dataset, fp_after.dataset);
        assert_ne!(fp_before.preferences, fp_after.preferences);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_execution() {
        let e = engine(EngineOptions::default());
        // Prime the cache so execution time stays small relative to the
        // join window; then hammer one signature from many threads while
        // the leader holds the flight open.
        const THREADS: usize = 8;
        const ROUNDS: usize = 20;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        let r = e.run(Request::all_sky(QueryOptions::default())).unwrap();
                        assert_eq!(r.outcome.value().as_all_sky().unwrap().len(), 5);
                    }
                });
            }
        });
        let m = e.metrics();
        let total = (THREADS * ROUNDS) as u64;
        assert_eq!(m.requests, total);
        assert_eq!(m.completed + m.coalesced, total, "every submission answered exactly once");
        assert_eq!(m.admitted, m.completed);
        assert_eq!(m.failed, 0);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn coalescing_off_runs_every_submission_solo() {
        let e = engine(EngineOptions::default().with_coalescing(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    e.run(Request::all_sky(QueryOptions::default())).unwrap();
                });
            }
        });
        let m = e.metrics();
        assert_eq!(m.requests, 4);
        assert_eq!(m.completed, 4);
        assert_eq!(m.coalesced, 0);
        assert_eq!(m.coalesce_led, 0);
    }

    #[test]
    fn every_submission_lands_in_exactly_one_terminal_counter() {
        // Mixed fates: successes, overload sheds, cost sheds, and
        // query-layer failures — the request-conservation regression test
        // for the old double-count of a shed-after-admission request.
        let e = engine(EngineOptions::default().with_max_in_flight(1));
        e.run(Request::all_sky(QueryOptions::default())).unwrap();
        e.run(Request::threshold(7.0, ThresholdOptions::default())).unwrap_err(); // invalid τ
        e.run(Request::top_k(0, TopKOptions::default())).unwrap_err(); // k = 0
        let m = e.metrics();
        assert_eq!(m.requests, 3);
        assert_eq!(
            m.completed + m.coalesced + m.shed_overload + m.shed_cost + m.failed,
            m.requests,
            "terminal counters must partition submissions: {m:?}"
        );
        assert_eq!(m.failed, 2);
    }
}
