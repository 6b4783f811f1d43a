//! Live-dataset integration tests: the contracts that make a *mutable*
//! resident engine safe to run.
//!
//! 1. **snapshot isolation** — a response is bit-identical to a serial
//!    run on the epoch it pinned at admission, whatever writes commit
//!    meanwhile (property-tested over random write interleavings);
//! 2. **epoch-keyed coalescing** — an identical query submitted after a
//!    write must not join a leader still executing on the old epoch;
//! 3. **incremental invalidation** — a preference edit evicts exactly the
//!    signature-touched cache slice (accounted entry-for-entry against
//!    the public snapshot format) and the next all-sky pass stays warm;
//! 4. **epoch-aware warmstart** — a refused cache snapshot names which
//!    fingerprint field drifted (dataset vs preference grid);
//! 5. **conservation under a storm** — an 8-thread mixed read/write
//!    workload accounts every submission and commit exactly once, and
//!    the final state is bit-identical to a fresh engine rebuilt from
//!    the final snapshot;
//! 6. **answer-store policy** — an epoch's stored exact answers are served
//!    only where the request's own policy and budget would compute them
//!    (the snapshot-isolation property of 1 covers their soundness across
//!    writes and tenants).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use presky_approx::sampler::SamOptions;
use presky_core::preference::{PreferenceModel, SeededPreferences};
use presky_core::table::Table;
use presky_core::types::{DimId, ObjectId, ValueId};
use presky_datagen::car::car_projected;
use presky_exact::signature::signature_coins;
use presky_exact::snapshot::load_from_path;
use presky_query::prob_skyline::Algorithm;
use presky_service::prelude::*;

fn all_sky() -> Request {
    Request::all_sky(QueryOptions::default().with_threads(Some(1)))
}

/// The serial all-sky value of a fresh engine rebuilt from `engine`'s
/// current snapshot — the "cold restart on the final state" reference.
fn rebuilt_value<M: PreferenceModel + Clone + Sync>(engine: &Engine<M>) -> Value {
    let view = engine.snapshot();
    let fresh = Engine::new(
        view.table().as_ref().clone(),
        view.prefs().as_ref().clone(),
        EngineOptions::default(),
    )
    .unwrap();
    fresh.run(all_sky()).unwrap().outcome.value().clone()
}

// ---------------------------------------------------------------------
// 2. epoch-keyed coalescing

/// A preference model that parks the next thread to consult it (one-shot)
/// until released — the deterministic way to hold a leader mid-execution
/// while a write commits underneath it.
#[derive(Clone)]
struct GatedPrefs {
    inner: SeededPreferences,
    armed: Arc<AtomicBool>,
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl PreferenceModel for GatedPrefs {
    fn pr_strict(&self, dim: DimId, a: ValueId, b: ValueId) -> f64 {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.entered.store(true, Ordering::SeqCst);
            while !self.release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
        self.inner.pr_strict(dim, a, b)
    }
}

/// The regression this PR's coalescing key exists for: leader starts on
/// epoch 0, a write commits, then an *identical* submission arrives. The
/// follower pins epoch 1, so its key differs and it must run solo — it
/// completes (on the new state) while the leader is still parked, and
/// both answer bit-identically for their own pinned epochs.
#[test]
fn a_write_between_leader_start_and_follower_join_splits_the_flight() {
    let table = car_projected(4).unwrap();
    let inner = SeededPreferences::complementary(7);
    let armed = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gated = GatedPrefs {
        inner,
        armed: Arc::clone(&armed),
        entered: Arc::clone(&entered),
        release: Arc::clone(&release),
    };
    let engine = Engine::new(table.clone(), gated, EngineOptions::default()).unwrap();

    // Epoch-0 reference from a throwaway engine over the same instance.
    let ref0 = Engine::new(table, inner, EngineOptions::default())
        .unwrap()
        .run(all_sky())
        .unwrap()
        .outcome
        .value()
        .clone();

    armed.store(true, Ordering::SeqCst);
    let (leader, follower) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| engine.run(all_sky()).unwrap());
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The leader is parked mid-execution on epoch 0: commit a write.
        let receipt = engine.set_preference(DimId(0), ValueId(0), ValueId(1), 0.4, 0.4).unwrap();
        assert_eq!(receipt.epoch, 1);
        // An identical submission now pins epoch 1 and completes even
        // though the "same" query is still in flight on epoch 0.
        let follower = engine.run(all_sky()).unwrap();
        release.store(true, Ordering::SeqCst);
        (leader.join().unwrap(), follower)
    });

    assert_eq!(leader.epoch, 0);
    assert_eq!(follower.epoch, 1);
    assert_eq!(*leader.outcome.value(), ref0, "the leader answers from its pinned epoch");
    assert_eq!(
        *follower.outcome.value(),
        rebuilt_value(&engine),
        "the follower answers from the post-write epoch"
    );
    let m = engine.metrics();
    assert_eq!(m.coalesced, 0, "epoch-skewed identical submissions must not share a flight");
    assert_eq!(m.completed, 2);
    assert_eq!(m.writes, 1);
    assert_eq!(m.epoch, 1);
}

// ---------------------------------------------------------------------
// 4. epoch-aware warmstart

#[test]
fn refused_warmstarts_name_the_drifted_fingerprint_field() {
    let table = car_projected(4).unwrap();
    let prefs = SeededPreferences::complementary(7);
    let dir = std::env::temp_dir().join("presky-mutation-warmstart");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.snap");

    let engine = Engine::new(table.clone(), prefs, EngineOptions::default()).unwrap();
    engine.run(all_sky()).unwrap();
    engine.save_cache_snapshot(&path).unwrap();

    // Identical instance: the snapshot loads and the cache is warm.
    let warm =
        Engine::with_warm_cache(table.clone(), prefs, EngineOptions::default(), &path).unwrap();
    assert!(warm.metrics().cache_entries > 0);

    // Dataset drift (one row removed): refused, and the message blames
    // the dataset half of the key.
    let drifted = Engine::new(table.clone(), prefs, EngineOptions::default()).unwrap();
    drifted.remove_object(ObjectId(0)).unwrap();
    let t2 = drifted.snapshot().table().as_ref().clone();
    let e = Engine::with_warm_cache(t2, prefs, EngineOptions::default(), &path)
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(e.contains("dataset"), "dataset drift must name the dataset field: {e}");
    assert!(!e.contains("preference grid"), "{e}");

    // Preference drift (re-elicited model): refused, blaming the grid.
    let e = Engine::with_warm_cache(
        table,
        SeededPreferences::complementary(8),
        EngineOptions::default(),
        &path,
    )
    .map(|_| ())
    .unwrap_err()
    .to_string();
    assert!(e.contains("preference grid"), "preference drift must name the grid field: {e}");

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 3. incremental invalidation accounting

#[test]
fn preference_edits_evict_exactly_the_signature_touched_slice() {
    let table = car_projected(4).unwrap();
    let prefs = SeededPreferences::complementary(7);
    let engine = Engine::new(table.clone(), prefs, EngineOptions::default()).unwrap();
    engine.run(all_sky()).unwrap();
    let entries_before = engine.metrics().cache_entries as u64;
    assert!(entries_before > 0);

    // Enumerate the resident keys through the public snapshot format,
    // then predict the eviction set the same way the write path does:
    // keys embedding a coin on the edited pair with the *old* bits.
    let dir = std::env::temp_dir().join("presky-mutation-accounting");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.snap");
    engine.save_cache_snapshot(&path).unwrap();
    let resident = load_from_path(&path, engine.fingerprint(), 1 << 30).unwrap().sorted_entries();
    assert_eq!(resident.len() as u64, entries_before);
    std::fs::remove_dir_all(&dir).ok();

    let (dim, a, b) = (DimId(0), ValueId(0), ValueId(1));
    let view = engine.snapshot();
    let old_ab = view.prefs().pr_strict(dim, a, b);
    let old_ba = view.prefs().pr_strict(dim, b, a);
    let (fwd, bwd) = (0.40f64, 0.35f64);
    assert_ne!(old_ab.to_bits(), fwd.to_bits(), "the edit must change the forward direction");
    assert_ne!(old_ba.to_bits(), bwd.to_bits(), "the edit must change the backward direction");
    let touched = [(a.0, old_ab.to_bits()), (b.0, old_ba.to_bits())];
    let expected = resident
        .iter()
        .filter(|(key, _)| {
            signature_coins(key).any(|(d, v, bits)| d == dim.0 && touched.contains(&(v, bits)))
        })
        .count() as u64;

    let receipt = engine.set_preference(dim, a, b, fwd, bwd).unwrap();
    assert_eq!(receipt.evicted_components, expected, "eviction accounting must be exact");
    assert!(expected > 0, "the edited coin appears in cached components");
    assert!(expected < entries_before, "untouched components must survive");
    assert_eq!(engine.metrics().cache_entries as u64, entries_before - expected);

    // The surviving slice keeps the next pass warm …
    let resp = engine.run(all_sky()).unwrap();
    let hit_rate = resp.stats.cache_hits as f64 / resp.stats.cache_probes as f64;
    assert!(hit_rate >= 0.8, "post-edit all-sky hit rate {hit_rate:.3} below 0.8");

    // … where the full-drop baseline starts cold: same edit, whole cache
    // gone, strictly worse hit rate on the next pass.
    let naive =
        Engine::new(table, prefs, EngineOptions::default().with_incremental_invalidation(false))
            .unwrap();
    naive.run(all_sky()).unwrap();
    let naive_before = naive.metrics().cache_entries as u64;
    let receipt = naive.set_preference(dim, a, b, fwd, bwd).unwrap();
    assert_eq!(receipt.evicted_components, naive_before, "full drop clears everything");
    assert_eq!(naive.metrics().cache_entries, 0);
    let resp = naive.run(all_sky()).unwrap();
    let naive_rate = resp.stats.cache_hits as f64 / resp.stats.cache_probes as f64;
    assert!(
        naive_rate < hit_rate,
        "full-drop rate {naive_rate:.3} must trail incremental {hit_rate:.3}"
    );
}

// ---------------------------------------------------------------------
// 1. snapshot isolation (property)

/// One deterministic write against a live engine. Parameters are small
/// indices so every op is valid by construction and replays identically.
#[derive(Debug, Clone)]
enum WriteOp {
    Pref { dim: u8, a: u8, b: u8, fwd: u16, bwd: u16 },
    Insert,
    Remove,
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>()).prop_map(
        |(sel, dim, a, b, fwd, bwd)| match sel % 3 {
            0 => WriteOp::Pref { dim, a, b, fwd, bwd },
            1 => WriteOp::Insert,
            _ => WriteOp::Remove,
        },
    )
}

/// A 10-row, 2-dim, 4-value instance: big enough for non-trivial
/// components, small enough that each proptest case replays all-sky over
/// every epoch in microseconds.
fn tiny_table() -> Table {
    let rows: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i % 4, (i / 4) % 4]).collect();
    Table::from_rows_raw(2, &rows).unwrap()
}

/// Apply `op` to `engine`; returns true iff a commit was installed.
/// `fresh` hands out never-seen value codes so inserts cannot collide.
fn apply<M: PreferenceModel + Clone + Sync>(
    engine: &Engine<M>,
    op: &WriteOp,
    fresh: &AtomicU32,
) -> bool {
    match op {
        WriteOp::Pref { dim, a, b, fwd, bwd } => {
            let dim = DimId(u32::from(dim % 2));
            let a = ValueId(u32::from(a % 4));
            let mut b = ValueId(u32::from(b % 4));
            if b == a {
                b = ValueId((b.0 + 1) % 4);
            }
            // Each direction in [0, 0.5]: the pair mass stays legal.
            let fwd = f64::from(*fwd) / f64::from(u16::MAX) * 0.5;
            let bwd = f64::from(*bwd) / f64::from(u16::MAX) * 0.5;
            engine.set_preference(dim, a, b, fwd, bwd).unwrap();
            true
        }
        WriteOp::Insert => {
            let code = 100 + fresh.fetch_add(1, Ordering::Relaxed);
            engine.insert_object(&[ValueId(code), ValueId(code)]).unwrap();
            true
        }
        WriteOp::Remove => {
            let n = engine.n_objects();
            if n <= 2 {
                return false;
            }
            engine.remove_object(ObjectId((n - 1) as u32)).unwrap();
            true
        }
    }
}

/// The tenant of the snapshot-isolation property: its overlay pair on
/// dim 0 touches every target valued 0 or 1 there (half of
/// [`tiny_table`]), so its other targets may reuse stored base answers.
const TENANT: TenantId = TenantId(1);

fn register_tenant<M: PreferenceModel + Sync>(engine: &Engine<M>) {
    engine.register_tenant(TENANT, &[(DimId(0), ValueId(0), ValueId(1), 0.2, 0.3)]).unwrap();
}

fn sky_one(target: u32, tenant: Option<TenantId>) -> Request {
    let r = Request::sky_one(ObjectId(target), QueryOptions::default().with_threads(Some(1)));
    match tenant {
        Some(t) => r.with_tenant(t),
        None => r,
    }
}

/// The serial answers of one epoch, from a cold engine rebuilt from it.
struct EpochAnswers {
    all: Value,
    one: Vec<Value>,
    tenant_one: Vec<Value>,
}

impl EpochAnswers {
    fn of<M: PreferenceModel + Clone + Sync>(engine: &Engine<M>) -> Self {
        let view = engine.snapshot();
        let fresh = Engine::new(
            view.table().as_ref().clone(),
            view.prefs().as_ref().clone(),
            EngineOptions::default(),
        )
        .unwrap();
        register_tenant(&fresh);
        let value = |r: Request| fresh.run(r).unwrap().outcome.value().clone();
        let n = view.n_objects() as u32;
        Self {
            all: value(all_sky()),
            one: (0..n).map(|t| value(sky_one(t, None))).collect(),
            tenant_one: (0..n).map(|t| value(sky_one(t, Some(TENANT)))).collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot isolation, property-tested: a single writer applies a
    /// random op sequence while readers hammer all-sky and every target's
    /// `sky_one`, untenanted and under a tenant whose overlay touches some
    /// targets. Every response must be bit-identical to the serial answer
    /// of the epoch it pinned — a reader can observe *any* committed epoch,
    /// but never a torn in-between state — including the `sky_one` answers
    /// served from an epoch's answer store (which must serve some).
    #[test]
    fn concurrent_readers_match_the_serial_answer_of_their_pinned_epoch(
        ops in proptest::collection::vec(write_op(), 1..6),
    ) {
        let prefs = SeededPreferences::complementary(11);

        // Serial reference per epoch id (ops replay deterministically, so
        // the live engine walks exactly this epoch sequence).
        let serial = Engine::new(tiny_table(), prefs, EngineOptions::default()).unwrap();
        let fresh = AtomicU32::new(0);
        let mut by_epoch = vec![EpochAnswers::of(&serial)];
        for op in &ops {
            if apply(&serial, op, &fresh) {
                by_epoch.push(EpochAnswers::of(&serial));
            }
        }
        // Every target of some epoch; those beyond `everywhere` are absent
        // from at least one.
        let targets = by_epoch.iter().map(|e| e.one.len()).max().unwrap() as u32;
        let everywhere = by_epoch.iter().map(|e| e.one.len()).min().unwrap() as u32;

        let engine = Engine::new(tiny_table(), prefs, EngineOptions::default()).unwrap();
        register_tenant(&engine);
        let fresh = AtomicU32::new(0);
        let done = AtomicBool::new(false);
        let store_hits = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let engine = &engine;
                    let by_epoch = &by_epoch;
                    let done = &done;
                    scope.spawn(move || {
                        // (untenanted, tenanted) sky_one reads served from
                        // the store.
                        let mut hits = (0u64, 0u64);
                        // Two full passes after the last commit, so the
                        // final epoch's repeats are always reads.
                        let mut passes_after_done = 0;
                        while passes_after_done < 2 {
                            if done.load(Ordering::SeqCst) {
                                passes_after_done += 1;
                            }
                            let resp = engine.run(all_sky()).unwrap();
                            assert_eq!(
                                *resp.outcome.value(),
                                by_epoch[resp.epoch as usize].all,
                                "epoch {} all-sky diverged from its serial answer",
                                resp.epoch
                            );
                            for t in 0..targets {
                                for tenant in [None, Some(TENANT)] {
                                    let resp = match engine.run(sky_one(t, tenant)) {
                                        Ok(resp) => resp,
                                        // Out of range in the epoch it pinned.
                                        Err(ServiceError::Query(_)) if t >= everywhere => continue,
                                        Err(e) => panic!("sky_one({t}): {e}"),
                                    };
                                    let want = &by_epoch[resp.epoch as usize];
                                    let want = match tenant {
                                        None => want.one.get(t as usize),
                                        Some(_) => want.tenant_one.get(t as usize),
                                    };
                                    assert_eq!(
                                        Some(resp.outcome.value()),
                                        want,
                                        "epoch {} sky_one({t}) under {tenant:?} diverged",
                                        resp.epoch
                                    );
                                    let hit = resp.stats.store_hits;
                                    match tenant {
                                        None => hits.0 += hit,
                                        Some(_) => hits.1 += hit,
                                    }
                                }
                            }
                        }
                        hits
                    })
                })
                .collect();
            for op in &ops {
                apply(&engine, op, &fresh);
                std::thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
            readers.into_iter().map(|r| r.join().unwrap()).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        });
        prop_assert_eq!(engine.epoch() as usize, by_epoch.len() - 1);
        prop_assert_eq!(engine.metrics().in_flight, 0);
        prop_assert!(store_hits.0 > 0, "the answer store served no untenanted read");
        prop_assert!(store_hits.1 > 0, "the answer store served no tenanted read");
    }
}

// ---------------------------------------------------------------------
// 6. answer-store policy and budgets

/// A stored exact answer is served only where the request itself would
/// compute that exact value: a forced-sampling read, or an adaptive one
/// whose component limit is below a target's largest component, answers
/// exactly as a fresh engine does; an expired deadline or a zero joint or
/// sample allowance still concludes `DeadlineExceeded`; a served answer
/// carries the cold joints; and a stored read passes both admission gates.
#[test]
fn stored_answers_respect_each_requests_policy_and_budget() {
    let table = car_projected(4).unwrap();
    let prefs = SeededPreferences::complementary(7);
    let engine = Engine::new(table.clone(), prefs, EngineOptions::default()).unwrap();
    let fresh = Engine::new(table.clone(), prefs, EngineOptions::default()).unwrap();
    let n = engine.n_objects() as u32;
    let filled = engine.run(all_sky()).unwrap();
    assert_eq!(filled.stats.store_records, u64::from(n), "every car target solves exactly");

    let sam = SamOptions::with_samples(4_000, 3);
    let mut policies = vec![Algorithm::Sampling(sam)];
    policies.extend((0..3).map(|limit| Algorithm::Adaptive { exact_component_limit: limit, sam }));
    let mut estimates = 0;
    for algo in policies {
        for t in (0..n).step_by(7) {
            let request = Request::sky_one(
                ObjectId(t),
                QueryOptions::default().with_algorithm(algo).with_threads(Some(1)),
            );
            let got = engine.run(request.clone()).unwrap();
            let want = fresh.run(request).unwrap();
            assert_eq!(got.outcome, want.outcome, "{algo:?} sky_one({t})");
            if matches!(got.outcome, Outcome::Estimate(_)) {
                estimates += 1;
                assert_eq!(got.stats.store_hits, 0, "an estimate never comes from the store");
            }
        }
    }
    assert!(estimates > 0, "some policy must plan some target for sampling");

    // Served answers carry the cold solve's logical joints.
    for t in (0..n).step_by(7) {
        let warm = engine.run(sky_one(t, None)).unwrap();
        let cold = fresh.run(sky_one(t, None)).unwrap();
        assert_eq!(warm.stats.store_hits, 1);
        assert_eq!(warm.outcome, cold.outcome);
        assert_eq!(warm.stats.joints_computed, cold.stats.joints_computed);
    }

    // An expired deadline, or a zero joint or sample allowance, truncates
    // before the store is consulted.
    let expired = Budget::default().with_deadline(Some(std::time::Duration::ZERO));
    let no_joints = Budget::default().with_max_joints(Some(0));
    let no_samples = Budget::default().with_max_samples(Some(0));
    for budget in [expired, no_joints, no_samples] {
        let resp = engine.run(sky_one(0, None).with_budget(budget)).unwrap();
        assert!(
            matches!(resp.outcome, Outcome::DeadlineExceeded { truncated: 1, .. }),
            "{budget:?}: got {:?}",
            resp.outcome
        );
        assert_eq!(resp.stats.store_hits, 0, "{budget:?}");
    }

    stored_reads_pass_both_admission_gates(table, prefs);
}

/// Every submission lands in exactly one terminal counter.
fn assert_conserved(m: &MetricsSnapshot) {
    assert_eq!(m.completed + m.coalesced + m.shed() + m.failed, m.requests, "{m:?}");
    assert_eq!(m.in_flight, 0);
}

/// A stored read is shed as `Overloaded` while another request holds the
/// engine's only in-flight slot, and as `CostCeiling` when its own
/// predicted cost is over the ceiling. An engine with no slot at all
/// never admits the read that would fill its store, so the slot is held
/// by a read parked mid-execution.
fn stored_reads_pass_both_admission_gates(table: Table, inner: SeededPreferences) {
    let armed = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gated = GatedPrefs {
        inner,
        armed: Arc::clone(&armed),
        entered: Arc::clone(&entered),
        release: Arc::clone(&release),
    };
    let one_slot = EngineOptions::default().with_max_in_flight(1);
    let engine = Engine::new(table.clone(), gated, one_slot).unwrap();
    engine.run(all_sky()).unwrap();
    assert_eq!(engine.run(sky_one(0, None)).unwrap().stats.store_hits, 1);
    armed.store(true, Ordering::SeqCst);
    let shed = std::thread::scope(|scope| {
        let parked = scope.spawn(|| engine.run(all_sky()).unwrap());
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let shed = engine.run(sky_one(0, None));
        release.store(true, Ordering::SeqCst);
        parked.join().unwrap();
        shed
    });
    assert!(matches!(shed, Err(ServiceError::Overloaded { in_flight: 1, max: 1 })), "{shed:?}");
    let m = engine.metrics();
    assert_eq!((m.shed_overload, m.shed_cost, m.completed), (1, 0, 3));
    assert_conserved(&m);

    // The ceiling sits one below a default `sky_one`'s predicted cost. An
    // adaptive read with a 64-world sampler is predicted far cheaper yet
    // still plans these targets exact, so it fills the store under it.
    let probe = Request::sky_one(ObjectId(0), QueryOptions::default());
    let max = engine.predicted_cost(&probe.query) - 1;
    let capped = EngineOptions::default().with_max_predicted_cost(Some(max));
    let engine = Engine::new(table, inner, capped).unwrap();
    let cheap =
        Algorithm::Adaptive { exact_component_limit: 20, sam: SamOptions::with_samples(64, 0) };
    for t in [0, 7] {
        let fill = Request::sky_one(ObjectId(t), QueryOptions::default().with_algorithm(cheap));
        assert_eq!(engine.run(fill).unwrap().stats.store_records, 1);
        let shed = engine.run(sky_one(t, None));
        assert!(matches!(shed, Err(ServiceError::CostCeiling { .. })), "{shed:?}");
    }
    let m = engine.metrics();
    assert_eq!((m.shed_overload, m.shed_cost, m.completed), (0, 2, 2));
    assert_eq!(m.stats.store_hits, 0);
    assert_conserved(&m);
}

// ---------------------------------------------------------------------
// 5. mixed read/write storm (the CI mutation-stress leg)

#[test]
fn eight_thread_mixed_read_write_storm_conserves_accounting_and_state() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 10;
    let table = car_projected(4).unwrap();
    let prefs = SeededPreferences::complementary(7);
    let engine = Engine::new(table, prefs, EngineOptions::default()).unwrap();
    let n0 = engine.n_objects();
    let requests = vec![
        Request::sky_one(ObjectId(0), QueryOptions::default().with_threads(Some(1))),
        Request::all_sky(QueryOptions::default().with_threads(Some(1))),
        Request::threshold(0.05, ThresholdOptions::default().with_threads(Some(1))),
        Request::top_k(5, TopKOptions::default().with_threads(Some(1))),
    ];
    let fresh = AtomicU32::new(0);

    let (reads, commits, losers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let requests = &requests;
                let fresh = &fresh;
                scope.spawn(move || {
                    let (mut reads, mut commits, mut losers) = (0u64, 0u64, 0u64);
                    for i in 0..OPS_PER_THREAD {
                        if i % 4 == 3 {
                            // A write. Removals keep a wide margin above
                            // the seed size so no read target ever goes
                            // out of range; a removal can still lose a
                            // race for the last row, which surfaces as a
                            // clean error and installs nothing.
                            let outcome = match (t + i) % 3 {
                                0 => engine.set_preference(
                                    DimId((t % 4) as u32),
                                    ValueId((i % 3) as u32),
                                    ValueId((i % 3 + 1) as u32),
                                    0.05 + 0.04 * t as f64,
                                    0.03 + 0.02 * i as f64,
                                ),
                                1 => {
                                    let code = 1_000 + fresh.fetch_add(1, Ordering::Relaxed);
                                    engine.insert_object(&[ValueId(code); 4])
                                }
                                _ => {
                                    let n = engine.n_objects();
                                    if n > n0 {
                                        engine.remove_object(ObjectId((n - 1) as u32))
                                    } else {
                                        let code = 1_000 + fresh.fetch_add(1, Ordering::Relaxed);
                                        engine.insert_object(&[ValueId(code); 4])
                                    }
                                }
                            };
                            match outcome {
                                Ok(_) => commits += 1,
                                Err(_) => losers += 1,
                            }
                        } else {
                            let resp = engine.run(requests[(i + t) % requests.len()].clone());
                            resp.unwrap();
                            reads += 1;
                        }
                    }
                    (reads, commits, losers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1, acc.2 + x.2))
    });

    // Conservation: every read submission lands in exactly one bucket,
    // every successful commit is one epoch, failed writes install nothing.
    let m = engine.metrics();
    assert_eq!(m.requests, reads);
    assert_eq!(m.completed + m.coalesced, reads);
    assert_eq!(m.failed, 0);
    assert_eq!(m.shed(), 0);
    assert_eq!(m.in_flight, 0);
    assert_eq!(m.writes, commits);
    assert_eq!(m.epoch, commits);
    assert!(commits > 0);
    let _ = losers; // racy removals may or may not lose — both are legal

    // Post-storm digest: the live engine's answer over the final state is
    // bit-identical to a cold engine rebuilt from the final snapshot.
    let live = engine.run(all_sky()).unwrap().outcome.value().clone();
    assert_eq!(live, rebuilt_value(&engine), "a write corrupted live state");
}
