//! Epoch/MVCC snapshots of one live dataset.
//!
//! Every structure a query reads — the [`Table`], its [`BatchCoinContext`]
//! indexes, the preference model — is immutable. Mutability lives one
//! level up: a [`DatasetEpoch`] bundles one consistent version of all
//! three under a single epoch id, and a write produces the **next** epoch
//! by copy-on-write of only the touched structures:
//!
//! * `insert_object` / `remove_object` derive a new table and context
//!   (incrementally — see [`BatchCoinContext::with_row_appended`]) and
//!   share the preference `Arc`;
//! * `set_preference` derives a new [`OverlayPreferences`] and shares the
//!   table and context `Arc`s.
//!
//! Readers *pin* an epoch at admission by cloning its `Arc` (see
//! [`SnapshotView`]) and keep reading it for the whole request: a
//! concurrent write never alters a value mid-request, which is what makes
//! the bit-identity contract survive mutation. When a writer installs the
//! next epoch it marks the old one superseded
//! ([`DatasetEpoch::mark_superseded`]); the epoch *retires* — counted via
//! the hook installed with [`DatasetEpoch::set_retirement_counter`] — when
//! the last pinned reader drops its `Arc`, which is exactly "the last
//! pinned reader drains".
//!
//! Each write also reports [`WriteEffects`]: the coins whose
//! content-addressed signature bits changed (feeding incremental cache
//! invalidation — only `set_preference` produces any, because insert and
//! remove never change a `(dim, value, prob_bits)` triple) and the targets
//! the write dirtied (found via posting lists, see
//! [`BatchCoinContext::attackable_targets`]).
//!
//! ## The answer store
//!
//! Every epoch owns an [`AnswerStore`]: one write-once slot per object for
//! an exact `sky(target)` answer computed on that epoch, together with the
//! prepared shape the planner decided from ([`StoredAnswer`]). The query
//! layer fills it and answers repeated single-target reads from it. A
//! write carries the store into the next epoch minus its dirtied targets
//! (a removal also drops the removed row's slot and shifts later slots
//! down). That is sound because a target outside the dirtied set keeps
//! the same pruned, coin-compacted view, and the pipeline is a function of
//! that view: an insert or removal leaves every view the row cannot
//! attack unchanged, and a preference edit changes only the coin its
//! edited value faces in views of targets carrying the pair's other value.
//! The copy costs O(n) per write.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::batch::BatchCoinContext;
use crate::error::Result;
use crate::preference::{OverlayPreferences, PreferenceModel};
use crate::table::Table;
use crate::types::{DimId, ObjectId, ValueId};

/// A coin whose content-addressed `(dim, value, prob_bits)` signature was
/// changed by a write: any cached component whose signature embeds this
/// triple (with the **old** bits) is stale-unreachable afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchedCoin {
    /// Dimension of the edited pair.
    pub dim: DimId,
    /// The coin's value (the attacker-side value of the edited direction).
    pub value: ValueId,
    /// `pr_strict` bits this coin carried *before* the write.
    pub old_bits: u64,
}

/// What a write did, for the caller's invalidation and accounting.
#[derive(Debug, Clone, Default)]
pub struct WriteEffects {
    /// Targets whose coin view the write may change, ascending: rows the
    /// inserted/removed object can attack, or rows carrying an edited
    /// pair's target-side value. Ids are the old epoch's (an insert never
    /// lists the new row). Everything else's view — and its stored answer
    /// and cached components — is untouched.
    pub dirtied_targets: Vec<ObjectId>,
    /// Coins whose signature bits changed (at most two: one per edited
    /// direction). Empty for insert/remove.
    pub touched_coins: Vec<TouchedCoin>,
}

/// The numbers the query planner decides from: what Prepare leaves of
/// one target's instance after pruning, absorption and partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreparedShape {
    /// Attackers in the largest independent component.
    pub largest: usize,
    /// Summed `2^|g|` inclusion–exclusion lattice cost of the partition.
    pub exact_cost: u64,
    /// Attackers in the prepared view.
    pub attackers: usize,
    /// Coins in the prepared view.
    pub coins: usize,
}

/// One exact `sky(target)` answer kept in an epoch's [`AnswerStore`],
/// with the prepared shape the planner decided from, so that a later
/// request can replay its own policy's exact-or-sample decision without
/// re-running Prepare. A target that Prepare short-circuited records the
/// empty shape (value 0, nothing left to solve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredAnswer {
    /// `f64::to_bits` of the exact value.
    pub sky_bits: u64,
    /// Logical joints of the solve (component-cache hits counted with the
    /// joints their cached solve computed); a reuse re-adds them.
    pub joints: u64,
    /// The prepared shape the value was solved from.
    pub shape: PreparedShape,
}

/// An epoch's exact per-target answers, indexed by object id (see the
/// [module docs](self)).
///
/// Slots are write-once and read without locking: every exact answer
/// computed on one epoch for one target carries the same bits, so the
/// first recorder wins and later ones are no-ops.
#[derive(Debug)]
pub struct AnswerStore {
    slots: Box<[OnceLock<StoredAnswer>]>,
}

impl AnswerStore {
    fn empty(n: usize) -> Self {
        Self { slots: (0..n).map(|_| OnceLock::new()).collect() }
    }

    /// The answer recorded for `target`, if any.
    pub fn get(&self, target: ObjectId) -> Option<StoredAnswer> {
        self.slots.get(target.index()).and_then(OnceLock::get).copied()
    }

    /// Record `answer` for `target`. Returns whether the slot was empty
    /// (false when it was already recorded or `target` is out of range).
    pub fn record(&self, target: ObjectId, answer: StoredAnswer) -> bool {
        self.slots.get(target.index()).is_some_and(|slot| slot.set(answer).is_ok())
    }

    /// The next epoch's store: every recorded slot outside `dirtied` (old
    /// ids) carried over, `removed`'s slot dropped with later slots shifted
    /// down, then empty slots up to `n_next` (an insert's new row).
    fn carried(&self, dirtied: &[ObjectId], removed: Option<ObjectId>, n_next: usize) -> Self {
        let mut stale = vec![false; self.slots.len()];
        for t in dirtied {
            stale[t.index()] = true;
        }
        let mut slots = Vec::with_capacity(n_next);
        for (i, slot) in self.slots.iter().enumerate() {
            if removed.is_some_and(|r| r.index() == i) {
                continue;
            }
            slots.push(if stale[i] { OnceLock::new() } else { slot.clone() });
        }
        slots.resize_with(n_next, OnceLock::new);
        Self { slots: slots.into_boxed_slice() }
    }
}

/// One immutable version of the dataset: table + batch indexes +
/// preferences, tagged with a monotonically increasing epoch id. See the
/// [module docs](self) for the lifecycle.
#[derive(Debug)]
pub struct DatasetEpoch<M> {
    id: u64,
    table: Arc<Table>,
    ctx: Arc<BatchCoinContext>,
    prefs: Arc<OverlayPreferences<M>>,
    answers: AnswerStore,
    /// Lazily computed (dataset, preference-grid) fingerprints; the
    /// computation lives in the service layer, the cache per epoch here.
    fingerprints: OnceLock<(u64, u64)>,
    superseded: AtomicBool,
    retired: Option<Arc<AtomicU64>>,
}

impl<M: PreferenceModel> DatasetEpoch<M> {
    /// Epoch 0 over a freshly built context, wrapping `prefs` in a
    /// pristine [`OverlayPreferences`] so it becomes editable.
    pub fn build(table: Table, prefs: M) -> Result<Self> {
        let ctx = BatchCoinContext::build(&table)?;
        Ok(Self {
            id: 0,
            answers: AnswerStore::empty(table.len()),
            table: Arc::new(table),
            ctx: Arc::new(ctx),
            prefs: Arc::new(OverlayPreferences::new(prefs)),
            fingerprints: OnceLock::new(),
            superseded: AtomicBool::new(false),
            retired: None,
        })
    }

    /// Install the counter bumped when a *superseded* epoch is dropped by
    /// its last holder. Writes propagate the hook to derived epochs.
    pub fn set_retirement_counter(&mut self, counter: Arc<AtomicU64>) {
        self.retired = Some(counter);
    }

    /// The epoch id (0 for the initial build, +1 per committed write).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The pinned table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The pinned batch indexes.
    pub fn ctx(&self) -> &Arc<BatchCoinContext> {
        &self.ctx
    }

    /// The pinned preference overlay.
    pub fn prefs(&self) -> &Arc<OverlayPreferences<M>> {
        &self.prefs
    }

    /// Objects in this epoch.
    pub fn n_objects(&self) -> usize {
        self.table.len()
    }

    /// The exact answers computed on this epoch so far.
    pub fn answers(&self) -> &AnswerStore {
        &self.answers
    }

    /// Mark this epoch superseded by a committed successor; its eventual
    /// drop (once the last pinned reader drains) then counts as a
    /// retirement.
    pub fn mark_superseded(&self) {
        self.superseded.store(true, Ordering::Release);
    }

    /// The cached (dataset, preference-grid) fingerprint pair, computing
    /// it with `init` on first use.
    pub fn cached_fingerprints(&self, init: impl FnOnce() -> (u64, u64)) -> (u64, u64) {
        *self.fingerprints.get_or_init(init)
    }

    fn derive(
        &self,
        table: Arc<Table>,
        ctx: Arc<BatchCoinContext>,
        prefs: Arc<OverlayPreferences<M>>,
        answers: AnswerStore,
    ) -> Self {
        Self {
            id: self.id + 1,
            table,
            ctx,
            prefs,
            answers,
            fingerprints: OnceLock::new(),
            superseded: AtomicBool::new(false),
            retired: self.retired.clone(),
        }
    }

    /// The next epoch with `values` appended as a new object.
    ///
    /// Copy-on-write: the preference `Arc` is shared; table and context
    /// are derived incrementally (the context's posting lists also serve
    /// the duplicate check). No coin signature changes — the component
    /// cache stays fully valid — but the new object dirties the targets
    /// it can attack: their stored answers are not carried over.
    pub fn insert_object(&self, values: &[ValueId]) -> Result<(Self, WriteEffects)> {
        let table = self.table.with_row_appended(values)?;
        let ctx = self.ctx.with_row_appended(&table)?;
        let new_row = ObjectId((table.len() - 1) as u32);
        let dirtied = ctx.attackable_targets(self.prefs.as_ref(), new_row)?;
        let answers = self.answers.carried(&dirtied, None, table.len());
        let next = self.derive(Arc::new(table), Arc::new(ctx), Arc::clone(&self.prefs), answers);
        Ok((next, WriteEffects { dirtied_targets: dirtied, touched_coins: Vec::new() }))
    }

    /// The next epoch with object `obj` removed (later ids shift down by
    /// one). Dirtied targets are the rows `obj` could attack, computed on
    /// the *old* context before it is spliced out.
    pub fn remove_object(&self, obj: ObjectId) -> Result<(Self, WriteEffects)> {
        let dirtied = self.ctx.attackable_targets(self.prefs.as_ref(), obj)?;
        let table = self.table.with_row_removed(obj)?;
        let ctx = self.ctx.with_row_removed(&table, obj)?;
        let answers = self.answers.carried(&dirtied, Some(obj), table.len());
        let next = self.derive(Arc::new(table), Arc::new(ctx), Arc::clone(&self.prefs), answers);
        Ok((next, WriteEffects { dirtied_targets: dirtied, touched_coins: Vec::new() }))
    }

    /// The next epoch with `Pr(a ≺ b) = forward`, `Pr(b ≺ a) = backward`
    /// on `dim`. Table and context `Arc`s are shared; only the preference
    /// overlay is copied.
    ///
    /// The effects report, per direction whose probability bits actually
    /// changed, the coin `(dim, value, old_bits)` that became
    /// stale-unreachable (the coin a view keyed by value `a` carries
    /// probability `Pr(a ≺ b)` against targets valued `b`, and vice
    /// versa), plus the targets carrying the affected target-side value —
    /// none when the attacker-side value never occurs in the dataset.
    pub fn set_preference(
        &self,
        dim: DimId,
        a: ValueId,
        b: ValueId,
        forward: f64,
        backward: f64,
    ) -> Result<(Self, WriteEffects)>
    where
        M: Clone,
    {
        let old_ab = self.prefs.pr_strict(dim, a, b);
        let old_ba = self.prefs.pr_strict(dim, b, a);
        let prefs = self.prefs.with_pair(dim, a, b, forward, backward)?;
        let mut effects = WriteEffects::default();
        let rows = |v| self.ctx.value_rows(dim, v);
        // Coin (dim, a) with the forward bits appears only in views of
        // targets valued b, and only when some row carries a (and vice
        // versa); the two target sets are disjoint.
        for (changed, old, value, faces) in [
            (forward.to_bits() != old_ab.to_bits(), old_ab, a, b),
            (backward.to_bits() != old_ba.to_bits(), old_ba, b, a),
        ] {
            if changed {
                effects.touched_coins.push(TouchedCoin { dim, value, old_bits: old.to_bits() });
                if !rows(value).is_empty() {
                    effects.dirtied_targets.extend(rows(faces).iter().map(|&r| ObjectId(r)));
                }
            }
        }
        effects.dirtied_targets.sort_unstable();
        let answers = self.answers.carried(&effects.dirtied_targets, None, self.n_objects());
        let next =
            self.derive(Arc::clone(&self.table), Arc::clone(&self.ctx), Arc::new(prefs), answers);
        Ok((next, effects))
    }
}

impl<M> Drop for DatasetEpoch<M> {
    fn drop(&mut self) {
        // Dropping a *superseded* epoch means its last pin drained after a
        // successor was installed — a retirement. Dropping a current
        // epoch (engine teardown) is not one.
        if self.superseded.load(Ordering::Acquire) {
            if let Some(counter) = &self.retired {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A reader's pin on one epoch: a cheap `Arc` clone taken at admission and
/// held for the request's lifetime, guaranteeing every structure read —
/// table, indexes, preferences — belongs to one consistent version.
#[derive(Debug)]
pub struct SnapshotView<M> {
    epoch: Arc<DatasetEpoch<M>>,
}

impl<M> Clone for SnapshotView<M> {
    fn clone(&self) -> Self {
        Self { epoch: Arc::clone(&self.epoch) }
    }
}

impl<M: PreferenceModel> SnapshotView<M> {
    /// Pin `epoch`.
    pub fn pin(epoch: &Arc<DatasetEpoch<M>>) -> Self {
        Self { epoch: Arc::clone(epoch) }
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> &DatasetEpoch<M> {
        &self.epoch
    }

    /// The pinned epoch id.
    pub fn id(&self) -> u64 {
        self.epoch.id()
    }

    /// The pinned table.
    pub fn table(&self) -> &Arc<Table> {
        self.epoch.table()
    }

    /// The pinned batch indexes.
    pub fn ctx(&self) -> &Arc<BatchCoinContext> {
        self.epoch.ctx()
    }

    /// The pinned preference overlay.
    pub fn prefs(&self) -> &Arc<OverlayPreferences<M>> {
        self.epoch.prefs()
    }

    /// Objects in the pinned epoch.
    pub fn n_objects(&self) -> usize {
        self.epoch.n_objects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::preference::{PairLaw, SeededPreferences};

    fn fixture() -> DatasetEpoch<SeededPreferences> {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        DatasetEpoch::build(t, SeededPreferences::complementary(7)).unwrap()
    }

    #[test]
    fn writes_derive_monotone_epochs_and_share_untouched_arcs() {
        let e0 = fixture();
        assert_eq!(e0.id(), 0);
        let (e1, fx) = e0.insert_object(&[ValueId(2), ValueId(0)]).unwrap();
        assert_eq!(e1.id(), 1);
        assert_eq!(e1.n_objects(), 6);
        assert!(fx.touched_coins.is_empty(), "insert never changes a signature");
        // Prefs shared, table/ctx fresh.
        assert!(Arc::ptr_eq(e0.prefs(), e1.prefs()));
        assert!(!Arc::ptr_eq(e0.table(), e1.table()));
        // e0 unchanged.
        assert_eq!(e0.n_objects(), 5);

        let (e2, _) = e1.set_preference(DimId(0), ValueId(0), ValueId(1), 0.9, 0.05).unwrap();
        assert_eq!(e2.id(), 2);
        assert!(Arc::ptr_eq(e1.table(), e2.table()));
        assert!(Arc::ptr_eq(e1.ctx(), e2.ctx()));
        assert!(!Arc::ptr_eq(e1.prefs(), e2.prefs()));

        let (e3, fx) = e2.remove_object(ObjectId(0)).unwrap();
        assert_eq!(e3.n_objects(), 5);
        assert!(fx.touched_coins.is_empty());
    }

    #[test]
    fn set_preference_reports_only_changed_directions() {
        let e0 = fixture();
        let p = e0.prefs().clone();
        let (dim, a, b) = (DimId(0), ValueId(0), ValueId(1));
        let old_ab = p.pr_strict(dim, a, b);
        let old_ba = p.pr_strict(dim, b, a);
        // Change only the forward direction (the seeded model is
        // complementary, so halving it keeps the pair mass legal).
        let (e1, fx) = e0.set_preference(dim, a, b, old_ab * 0.5, old_ba).unwrap();
        assert_eq!(fx.touched_coins.len(), 1);
        assert_eq!(fx.touched_coins[0], TouchedCoin { dim, value: a, old_bits: old_ab.to_bits() });
        // Values 0 and 1 both occur on dim 0 (rows 0/4 and 1/2): targets
        // valued b attacked via the a-coin.
        assert_eq!(fx.dirtied_targets, [ObjectId(1), ObjectId(2)]);
        // A bit-identical rewrite touches nothing.
        let new_ab = e1.prefs().pr_strict(dim, a, b);
        let (_, fx) = e1.set_preference(dim, a, b, new_ab, old_ba).unwrap();
        assert!(fx.touched_coins.is_empty());
        assert!(fx.dirtied_targets.is_empty());
    }

    #[test]
    fn set_preference_on_absent_values_dirties_nothing() {
        let e0 = fixture();
        let (_, fx) = e0.set_preference(DimId(1), ValueId(40), ValueId(41), 0.3, 0.3).unwrap();
        // Signatures for coins on absent values did "change", but no
        // target carries them.
        assert!(fx.dirtied_targets.is_empty());
    }

    fn recorded<M: PreferenceModel>(e: &DatasetEpoch<M>) -> usize {
        e.table().objects().filter(|&t| e.answers().get(t).is_some()).count()
    }

    #[test]
    fn answer_store_carries_untouched_slots_across_writes() {
        // Under the ascending certain order a row attacks only rows it is
        // at most on every dimension, so (2, 2) attacks nothing.
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        let e0 =
            DatasetEpoch::build(t, SeededPreferences::new(3, PairLaw::CertainAscending)).unwrap();
        let answer =
            |i: u64| StoredAnswer { sky_bits: i, joints: i, shape: PreparedShape::default() };
        for i in 0..5u32 {
            assert!(e0.answers().record(ObjectId(i), answer(u64::from(i))));
        }
        assert!(!e0.answers().record(ObjectId(0), answer(9)), "slots are write-once");
        assert!(!e0.answers().record(ObjectId(5), answer(9)), "out of range");
        assert_eq!(e0.answers().get(ObjectId(0)), Some(answer(0)));

        // Removing (2, 2) dirties nothing: every other slot survives and
        // the slot of row 4 moves down to id 3.
        let (e1, fx) = e0.remove_object(ObjectId(3)).unwrap();
        assert!(fx.dirtied_targets.is_empty());
        assert_eq!(recorded(&e1), 4);
        assert_eq!(e1.answers().get(ObjectId(3)), Some(answer(4)));

        // Re-inserting it dirties nothing either; the new row starts empty.
        let (e2, fx) = e1.insert_object(&[ValueId(2), ValueId(2)]).unwrap();
        assert!(fx.dirtied_targets.is_empty());
        assert_eq!(recorded(&e2), 4);
        assert_eq!(e2.answers().get(ObjectId(4)), None);
        assert!(e2.answers().record(ObjectId(4), answer(7)));

        // Pr(1 ≺ 2) on dim 1 moves: only the target valued 2 there (row 4)
        // faces that coin, so only its slot is dropped.
        let (e3, fx) = e2.set_preference(DimId(1), ValueId(1), ValueId(2), 0.5, 0.0).unwrap();
        assert_eq!(fx.dirtied_targets, [ObjectId(4)]);
        assert_eq!(recorded(&e3), 4);
        assert_eq!(e3.answers().get(ObjectId(4)), None);
        assert_eq!(e3.answers().get(ObjectId(3)), Some(answer(4)));
        // The older epochs keep their own stores.
        assert_eq!(e2.answers().get(ObjectId(4)), Some(answer(7)));
    }

    #[test]
    fn writes_validate_inputs() {
        let e0 = fixture();
        // Duplicate row.
        assert!(matches!(
            e0.insert_object(&[ValueId(1), ValueId(0)]),
            Err(CoreError::DuplicateObject { .. })
        ));
        assert!(matches!(
            e0.insert_object(&[ValueId(1)]),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(e0.remove_object(ObjectId(9)), Err(CoreError::TargetOutOfRange { .. })));
        assert!(matches!(
            e0.set_preference(DimId(0), ValueId(3), ValueId(3), 0.5, 0.5),
            Err(CoreError::SelfPreference { .. })
        ));
    }

    #[test]
    fn superseded_epochs_retire_when_the_last_pin_drops() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut e0 = fixture();
        e0.set_retirement_counter(Arc::clone(&counter));
        let e0 = Arc::new(e0);
        let (e1, _) = e0.insert_object(&[ValueId(9), ValueId(9)]).unwrap();
        let e1 = Arc::new(e1);
        let pin = SnapshotView::pin(&e0);
        e0.mark_superseded();
        drop(e0);
        // A reader still pins epoch 0: not retired yet.
        assert_eq!(counter.load(Ordering::Relaxed), 0);
        assert_eq!(pin.id(), 0);
        drop(pin);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        // Tearing down the *current* epoch is not a retirement.
        drop(e1);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
