//! Stage 1 — **Prepare**: reduce one target's instance to its solvable core.
//!
//! Prepare owns the sound preprocessing chain of the paper's Sections 4–5
//! on an assembled coin view:
//!
//! 1. **certain-attacker short-circuit** — an attacker whose every coin has
//!    probability 1 dominates in every world, so `sky = 0` exactly and the
//!    rest of the pipeline is skipped;
//! 2. **impossible-coin pruning** — attackers containing a probability-0
//!    coin can never dominate and are dropped;
//! 3. **absorption** (Theorem 3) — clause-subset removal;
//! 4. **coin-compacting restriction** — the survivors are re-indexed into a
//!    dense view (`SkyScratch::work`);
//! 5. **independence partition** (Theorem 4) — connected components of the
//!    coin-overlap graph, left in CSR form in `SkyScratch::partition`.
//!
//! Steps 1 and 2 always run: the exact engine's values depend on them.
//! Absorption and the partition can be toggled via [`PrepareOptions`] (for
//! ablations and raw-algorithm baselines); the default runs everything,
//! which is the configuration every query entry point uses. Every run
//! records its reductions and wall-time into a [`PipelineStats`].

use std::time::Instant;

use presky_core::batch::BatchScratch;
use presky_core::coins::{CanonScratch, CoinRemap, CoinView};
use presky_core::types::ObjectId;

use presky_approx::sampler::SamScratch;
use presky_exact::absorption::{absorb_into, AbsorbScratch, AbsorptionResult};
use presky_exact::bounds::SkyBounds;
use presky_exact::det::DetScratch;
use presky_exact::partition::{partition_into, PartitionScratch};

use super::PipelineStats;
use crate::prob_skyline::SkyResult;

/// Reusable per-worker workspace for the per-object pipeline.
///
/// Owns every buffer the pipeline touches: batch view assembly, the
/// pruned/absorbed working view, per-component sub-views, and the scratch
/// state of the exact engine and the sampler. A default-constructed value
/// works for any instance; buffers grow to the largest object processed
/// and are then recycled, making the steady-state loop allocation-free.
#[derive(Debug)]
pub struct SkyScratch {
    pub(crate) batch: BatchScratch,
    pub(crate) view: CoinView,
    pub(crate) work: CoinView,
    pub(crate) sub: CoinView,
    pub(crate) remap: CoinRemap,
    pub(crate) canon: CanonScratch,
    pub(crate) sig: Vec<u8>,
    pub(crate) absorb: AbsorbScratch,
    pub(crate) absorbed: AbsorptionResult,
    pub(crate) partition: PartitionScratch,
    /// The threshold ladder's per-component cheap brackets, as suffix
    /// products: entry `g` encloses `Π_{h ≥ g}` of the component factors,
    /// and a final `[1, 1]` closes the list.
    pub(crate) brackets: Vec<SkyBounds>,
    pub(crate) det: DetScratch,
    pub(crate) sam: SamScratch,
}

impl Default for SkyScratch {
    fn default() -> Self {
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
            partition: PartitionScratch::default(),
            brackets: Vec::new(),
            det: DetScratch::default(),
            sam: SamScratch::default(),
        }
    }
}

/// Which optional Prepare stages run.
///
/// The certain-attacker short-circuit and impossible-coin pruning always
/// run (they are exactness requirements, not optimisations). The default
/// enables everything else too — the configuration whose results are
/// proptest-guarded to be bit-identical across every entry point. Turning
/// stages off is value-preserving but changes cost: it exists for the
/// bench ablations and for the CLI's raw-algorithm labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PrepareOptions {
    /// Absorption (Theorem 3): drop attackers whose coin set is a superset
    /// of another attacker's.
    pub absorption: bool,
    /// Independence partition (Theorem 4): factor the instance into
    /// connected components of the coin-overlap graph. When off, the whole
    /// instance is treated as a single component.
    pub partition: bool,
    /// Let the Execute stage probe and fill the cross-target component
    /// cache when the driver supplies one. Off is the `--no-component-cache`
    /// ablation baseline; results are bit-identical either way (keyed
    /// components are restricted canonically regardless, and a hit returns
    /// the very bits the canonical solve produces).
    pub component_cache: bool,
}

impl Default for PrepareOptions {
    fn default() -> Self {
        Self { absorption: true, partition: true, component_cache: true }
    }
}

impl PrepareOptions {
    /// The full pipeline — what every library query runs.
    pub fn full() -> Self {
        Self::default()
    }

    /// Soundness-only preparation: the short-circuit and impossible-coin
    /// pruning run as always, but absorption and partition are skipped.
    /// This is the raw-`Det`/`Sam` baseline mode of the CLI and the
    /// ablations.
    pub fn minimal() -> Self {
        Self { absorption: false, partition: false, component_cache: true }
    }

    /// Chainable: toggle absorption.
    pub fn with_absorption(mut self, on: bool) -> Self {
        self.absorption = on;
        self
    }

    /// Chainable: toggle the independence partition.
    pub fn with_partition(mut self, on: bool) -> Self {
        self.partition = on;
        self
    }

    /// Chainable: toggle component-cache participation.
    pub fn with_component_cache(mut self, on: bool) -> Self {
        self.component_cache = on;
        self
    }
}

/// Run the Prepare stage on the assembled `s.view`.
///
/// On completion, `s.work` holds the reduced coin-compacted instance and
/// `s.partition` its component structure. Returns `Some(result)` when the
/// certain-attacker short-circuit fired (nothing to plan or execute).
/// Every entry point — single-target, batch, threshold — funnels through
/// this function, which is what makes their outputs bit-identical.
pub(crate) fn prepare(
    object: ObjectId,
    opts: PrepareOptions,
    s: &mut SkyScratch,
    stats: &mut PipelineStats,
) -> Option<SkyResult> {
    let t0 = Instant::now();
    stats.objects += 1;
    stats.attackers_in += s.view.n_attackers() as u64;
    // An attacker whose every coin has probability 1 dominates in every
    // world: sky = 0 exactly, no pipeline needed. (The inclusion–exclusion
    // engine would reach ~0 only up to float cancellation, so this exit
    // must sit in the shared path for all drivers to agree bitwise.)
    if s.view.has_certain_attacker() {
        stats.short_circuited += 1;
        stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
        return Some(SkyResult { object, sky: 0.0, exact: true });
    }
    stats.pruned_impossible += s.view.prune_impossible() as u64;
    if opts.absorption {
        absorb_into(&s.view, &mut s.absorb, &mut s.absorbed);
    } else {
        s.absorbed.kept.clear();
        s.absorbed.kept.extend(0..s.view.n_attackers());
        s.absorbed.removed.clear();
    }
    stats.absorbed += s.absorbed.removed.len() as u64;
    s.view.restrict_into(&s.absorbed.kept, &mut s.remap, &mut s.work);
    if opts.partition {
        partition_into(&s.work, &mut s.partition);
    } else {
        s.partition.single_group(s.work.n_attackers());
    }
    stats.survivors += s.work.n_attackers() as u64;
    let n_groups = s.partition.n_groups();
    stats.components += n_groups as u64;
    let mut largest = 0usize;
    for g in 0..n_groups {
        let len = s.partition.group(g).len();
        largest = largest.max(len);
        stats.component_hist[super::hist_bucket(len)] += 1;
    }
    stats.largest_component = stats.largest_component.max(largest as u64);
    stats.prepare_nanos += t0.elapsed().as_nanos() as u64;
    None
}
