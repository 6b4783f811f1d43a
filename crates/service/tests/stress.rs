//! Service-layer stress tests: one resident [`Engine`], many threads, a
//! mixed workload — and the two contracts that make the service usable:
//!
//! 1. **bit-identity** — concurrent answers are bit-for-bit the answers
//!    the same requests get serially (the cache and the metrics are the
//!    only shared mutable state, and neither may influence values);
//! 2. **budget honesty** — a deadline- or ledger-bounded request
//!    terminates near its budget and returns only slots identical to the
//!    unbudgeted run.

use std::time::{Duration, Instant};

use presky_core::preference::{PreferenceModel, SeededPreferences, TablePreferences};
use presky_core::table::Table;
use presky_core::types::{DimId, ValueId};
use presky_datagen::car::car_projected;
use presky_query::engine::PipelineStats;
use presky_query::threshold::Resolution;
use presky_service::prelude::*;
use presky_service::Outcome;

fn car_engine(opts: EngineOptions) -> Engine<SeededPreferences> {
    let table = car_projected(4).unwrap();
    Engine::new(table, SeededPreferences::complementary(7), opts).unwrap()
}

/// The mixed workload: every request shape, inner parallelism pinned to
/// one thread so the outer stress threads provide all the concurrency.
fn workload(n: usize) -> Vec<Request> {
    use presky_core::types::ObjectId;
    vec![
        Request::sky_one(ObjectId(0), QueryOptions::default().with_threads(Some(1))),
        Request::sky_one(ObjectId((n / 2) as u32), QueryOptions::default().with_threads(Some(1))),
        Request::all_sky(QueryOptions::default().with_threads(Some(1))),
        Request::threshold(0.05, ThresholdOptions::default().with_threads(Some(1))),
        Request::top_k(5, TopKOptions::default().with_threads(Some(1))),
    ]
}

#[test]
fn eight_thread_mixed_workload_is_bit_identical_to_serial() {
    const THREADS: usize = 8;
    let engine = car_engine(EngineOptions::default());
    let requests = workload(engine.n_objects());

    // Serial reference pass (also warms the component cache).
    let reference: Vec<Value> =
        requests.iter().map(|r| engine.run(r.clone()).unwrap().outcome.value().clone()).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let requests = &requests;
                let reference = &reference;
                scope.spawn(move || {
                    // Each thread walks the workload from a different
                    // offset so distinct shapes overlap in time.
                    for i in 0..requests.len() {
                        let idx = (i + t) % requests.len();
                        let resp = engine.run(requests[idx].clone()).unwrap();
                        assert!(resp.outcome.complete(), "unlimited budget must not truncate");
                        assert_eq!(
                            *resp.outcome.value(),
                            reference[idx],
                            "thread {t} diverged from the serial answer on request {idx}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let m = engine.metrics();
    let total = (requests.len() * (THREADS + 1)) as u64;
    // Identical concurrent submissions may share one execution under
    // single-flight coalescing; every submission is still answered and
    // counted exactly once.
    assert_eq!(m.requests, total);
    assert_eq!(m.completed + m.coalesced, total);
    assert_eq!(m.admitted, m.completed);
    assert_eq!(m.failed, 0);
    assert_eq!(m.deadline_misses, 0);
    assert_eq!(m.shed(), 0);
    assert_eq!(m.in_flight, 0);
    assert!(m.cache_hit_rate() > 0.0, "cross-request cache must be warm on the car workload");
    assert!(m.cache_entries > 0);
}

/// Every slot of a batch value as bits, `None` where truncated: an
/// all-sky slot's object, value and exactness; a threshold slot's object,
/// membership, resolution kind, and the resolution's bits or sample count.
fn slot_bits(value: &Value) -> Vec<Option<[u64; 5]>> {
    match value {
        Value::AllSky(slots) => slots
            .iter()
            .map(|s| s.map(|r| [r.object.0.into(), r.sky.to_bits(), r.exact.into(), 0, 0]))
            .collect(),
        Value::Threshold(slots) => slots
            .iter()
            .map(|s| {
                s.map(|a| {
                    let (kind, x, y) = match a.resolution {
                        Resolution::Bounds(b) => (1, b.lower.to_bits(), b.upper.to_bits()),
                        Resolution::Exact(v) => (2, v.to_bits(), 0),
                        Resolution::Sequential { samples_used } => (3, samples_used, 0),
                        Resolution::Estimated(v) => (4, v.to_bits(), 0),
                    };
                    [a.object.0.into(), a.member.into(), kind, x, y]
                })
            })
            .collect(),
        other => panic!("not a batch value: {other:?}"),
    }
}

/// Run `request` unbudgeted, then under deadlines from "already expired"
/// up to "tight but real" and under joint and world ledgers of half the
/// unbudgeted work: every budget must terminate promptly and only ever
/// withhold slots, never alter them. Returns the unbudgeted run's stats.
fn check_budgets<M: PreferenceModel + Sync>(engine: &Engine<M>, request: Request) -> PipelineStats {
    let full = engine.run(request.clone()).unwrap();
    let want = slot_bits(full.outcome.value());
    let stats = full.stats;
    let deadlines = [0u64, 50, 500, 5_000].map(|us| Some(Duration::from_micros(us)));
    let budgets = deadlines.map(|d| Budget::default().with_deadline(d)).into_iter().chain([
        Budget::default().with_max_joints(Some(stats.joints_computed / 2)),
        Budget::default().with_max_samples(Some(stats.samples_drawn / 2)),
    ]);
    for budget in budgets {
        let started = Instant::now();
        let resp = engine.run(request.clone().with_budget(budget)).unwrap();
        // Budget + one chunk of slack (the DFS checks every 8192 joints,
        // the samplers every 64-world block); a generous absolute bound
        // keeps this robust on loaded CI machines.
        let allowance = budget.deadline.unwrap_or_default() + Duration::from_secs(5);
        assert!(started.elapsed() < allowance, "{budget:?} must terminate promptly");
        let got = slot_bits(resp.outcome.value());
        assert_eq!(got.len(), want.len());
        let mut missing = 0u64;
        for (g, w) in got.iter().zip(&want) {
            match g {
                Some(g) => assert_eq!(g, &w.expect("unbudgeted slot"), "{budget:?} altered a slot"),
                None => missing += 1,
            }
        }
        match resp.outcome {
            Outcome::DeadlineExceeded { truncated, .. } => {
                assert_eq!(truncated, missing, "{budget:?}: truncation count vs missing slots");
                assert!(truncated > 0);
            }
            _ => assert_eq!(missing, 0, "complete outcomes must have every slot present"),
        }
        if budget.deadline.is_none_or(|d| d.is_zero()) {
            assert!(missing > 0, "{budget:?} must truncate");
        }
    }
    let m = engine.metrics();
    assert_eq!(m.completed, m.admitted);
    assert_eq!(m.in_flight, 0);
    stats
}

#[test]
fn deadline_bounded_requests_terminate_in_budget_and_never_lie() {
    let engine = car_engine(EngineOptions::default());
    check_budgets(&engine, Request::all_sky(QueryOptions::default().with_threads(Some(1))));

    // A threshold request on two blocks with no comparable value pair
    // between them, every set pair a fifty-fifty coin: target (0, 0) with
    // 18 attackers (i, 1) joined by their shared coin on dimension 1 (one
    // component of 2^18 subsets, solved exactly, long enough for a budget
    // to trip inside its walk), then target (100, 100) with 30 such
    // attackers (too many for the exact rung: the SPRT). At τ = 0.45 no
    // bracket decides either. With the component cache off every run
    // repeats the unbudgeted run's work.
    let mut rows = Vec::new();
    let mut prefs = TablePreferences::new();
    for (base, k) in [(0u32, 18u32), (100, 30)] {
        rows.push(vec![base, base]);
        prefs.set(DimId(1), ValueId(base + 1), ValueId(base), 0.5, 0.5).unwrap();
        for i in 1..=k {
            rows.push(vec![base + i, base + 1]);
            prefs.set(DimId(0), ValueId(base + i), ValueId(base), 0.5, 0.5).unwrap();
        }
    }
    let table = Table::from_rows_raw(2, &rows).unwrap();
    let engine = Engine::new(table, prefs, EngineOptions::default()).unwrap();
    let opts = ThresholdOptions::default().with_threads(Some(1)).with_component_cache(false);
    let stats = check_budgets(&engine, Request::threshold(0.45, opts));
    assert!(stats.plan_exact > 0 && stats.plan_sequential > 0, "{stats}");
}

#[test]
fn overload_shedding_is_accounted_exactly_under_concurrency() {
    const THREADS: usize = 8;
    let engine = car_engine(EngineOptions::default().with_max_in_flight(2));
    let requests = workload(engine.n_objects());

    let (ok, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let requests = &requests;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for i in 0..requests.len() {
                        let idx = (i + t) % requests.len();
                        match engine.run(requests[idx].clone()) {
                            Ok(_) => ok += 1,
                            Err(ServiceError::Overloaded { .. }) => shed += 1,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    });

    let m = engine.metrics();
    let total = (requests.len() * THREADS) as u64;
    assert_eq!(ok + shed, total);
    assert_eq!(m.requests, total);
    // A coalesced follower is answered without occupying an in-flight
    // slot, so successes split into executed-and-completed vs coalesced.
    assert_eq!(m.completed + m.coalesced, ok);
    assert_eq!(m.admitted, m.completed);
    assert_eq!(m.shed_overload, shed);
    assert_eq!(m.failed, 0);
    assert_eq!(m.in_flight, 0);
}

#[test]
fn invalid_requests_fail_cleanly_without_wedging_the_engine() {
    let engine = car_engine(EngineOptions::default());
    assert!(matches!(
        engine.run(Request::threshold(-0.5, ThresholdOptions::default())),
        Err(ServiceError::Query(_))
    ));
    assert!(matches!(
        engine.run(Request::top_k(0, TopKOptions::default())),
        Err(ServiceError::Query(_))
    ));
    let resp = engine
        .run(Request::threshold(0.05, ThresholdOptions::default().with_threads(Some(1))))
        .unwrap();
    assert!(resp.outcome.complete());
    assert_eq!(engine.metrics().in_flight, 0);
}
