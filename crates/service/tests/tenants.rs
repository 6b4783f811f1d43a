//! Multi-tenant serving: per-user overlays over one shared base model.
//!
//! Two contracts pin the whole feature:
//!
//! * **bit-identity** — a registered tenant with an *empty* overlay
//!   receives byte-identical responses to untenanted requests, with
//!   namespacing on or off; and a tenant with a non-empty overlay
//!   receives exactly what a dedicated engine built on the overlaid model
//!   would compute;
//! * **sharing** — components untouched by a tenant's overlay hit the
//!   same cross-user cache entries the base workload populates, and the
//!   namespacing ablation (which forbids all sharing) changes hit
//!   counts, never values.

use presky_core::preference::{OverlayPreferences, SeededPreferences};
use presky_core::types::{DimId, ObjectId, ValueId};
use presky_datagen::car::car_projected;
use presky_service::prelude::*;
use presky_service::ServiceError;

fn car_table() -> presky_core::table::Table {
    car_projected(4).unwrap()
}

fn prefs() -> SeededPreferences {
    SeededPreferences::complementary(7)
}

/// A small overlay with interior probabilities (always simplex-valid
/// whatever the base holds).
fn overlay_pairs() -> Vec<(DimId, ValueId, ValueId, f64, f64)> {
    vec![
        (DimId(0), ValueId(0), ValueId(1), 0.85, 0.10),
        (DimId(1), ValueId(0), ValueId(2), 0.05, 0.90),
    ]
}

fn all_sky_bits(r: &Response) -> Vec<u64> {
    r.outcome.value().as_all_sky().unwrap().iter().map(|x| x.unwrap().sky.to_bits()).collect()
}

#[test]
fn empty_overlay_tenant_is_byte_identical_to_untenanted() {
    for namespacing in [false, true] {
        let opts = EngineOptions::default().with_tenant_namespacing(namespacing);
        let engine = Engine::new(car_table(), prefs(), opts).unwrap();
        let handle = engine.register_tenant(TenantId(42), &[]).unwrap();
        assert_eq!(handle.fingerprint, 0, "empty overlay hashes to the untenanted key");
        assert_eq!(handle.pairs, 0);
        assert_eq!(engine.n_tenants(), 1);

        let base = engine.run(Request::all_sky(QueryOptions::default())).unwrap();
        let tenanted = engine
            .run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(42)))
            .unwrap();
        assert_eq!(all_sky_bits(&tenanted), all_sky_bits(&base), "namespacing {namespacing}");

        let t = engine
            .run(Request::sky_one(ObjectId(3), QueryOptions::default()).with_tenant(TenantId(42)))
            .unwrap();
        let b = engine.run(Request::sky_one(ObjectId(3), QueryOptions::default())).unwrap();
        assert_eq!(
            t.outcome.value().as_sky().unwrap().sky.to_bits(),
            b.outcome.value().as_sky().unwrap().sky.to_bits(),
        );
    }
}

#[test]
fn overlaid_tenant_matches_an_engine_built_on_the_overlaid_model() {
    let engine = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    let handle = engine.register_tenant(TenantId(1), &overlay_pairs()).unwrap();
    assert_ne!(handle.fingerprint, 0);
    assert_eq!(handle.pairs, 2);

    // The ground truth: a dedicated engine whose *base* model carries the
    // tenant's pairs. The overlay path must reproduce it bit for bit.
    let mut truth_model = OverlayPreferences::new(prefs());
    for (dim, a, b, f, r) in overlay_pairs() {
        truth_model = truth_model.with_pair(dim, a, b, f, r).unwrap();
    }
    let truth = Engine::new(car_table(), truth_model, EngineOptions::default()).unwrap();

    let got =
        engine.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(1))).unwrap();
    let want = truth.run(Request::all_sky(QueryOptions::default())).unwrap();
    assert_eq!(all_sky_bits(&got), all_sky_bits(&want));
    // The overlay genuinely changes the answer (the base run differs).
    let base = engine.run(Request::all_sky(QueryOptions::default())).unwrap();
    assert_ne!(all_sky_bits(&got), all_sky_bits(&base));
}

#[test]
fn unknown_tenants_are_refused_and_counted_failed() {
    let engine = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    let err =
        engine.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(9))).unwrap_err();
    assert!(matches!(err, ServiceError::UnknownTenant { tenant: 9 }));
    let m = engine.metrics();
    assert_eq!((m.requests, m.failed, m.admitted), (1, 1, 0));
    assert!(m.tenants.is_empty(), "unregistered tenants never get a counter row");

    let err = engine
        .set_tenant_preference(TenantId(9), DimId(0), ValueId(0), ValueId(1), 0.5, 0.4)
        .unwrap_err();
    assert!(matches!(err, ServiceError::UnknownTenant { tenant: 9 }));
}

#[test]
fn overlay_updates_are_copy_on_write_and_move_the_fingerprint() {
    let engine = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    let first = engine.register_tenant(TenantId(5), &overlay_pairs()).unwrap();
    let second = engine
        .set_tenant_preference(TenantId(5), DimId(2), ValueId(0), ValueId(1), 0.6, 0.3)
        .unwrap();
    assert_eq!(second.pairs, 3);
    assert_ne!(second.fingerprint, first.fingerprint);
    // Re-registering the original pairs restores the original content
    // fingerprint: the handle addresses overlay *content*, not history.
    let third = engine.register_tenant(TenantId(5), &overlay_pairs()).unwrap();
    assert_eq!(third.fingerprint, first.fingerprint);
    // Invalid updates are refused and leave the registry untouched.
    assert!(engine
        .set_tenant_preference(TenantId(5), DimId(0), ValueId(1), ValueId(1), 0.5, 0.4)
        .is_err());
    assert_eq!(engine.register_tenant(TenantId(5), &overlay_pairs()).unwrap().pairs, 2);
}

#[test]
fn namespacing_ablation_changes_hit_counts_never_values() {
    let run_workload = |namespacing: bool| {
        let opts = EngineOptions::default().with_tenant_namespacing(namespacing);
        let engine = Engine::new(car_table(), prefs(), opts).unwrap();
        // Tenants whose overlays touch values absent from the dataset's
        // coin signatures share *every* component with the base workload.
        let far = vec![(DimId(0), ValueId(900), ValueId(901), 0.2, 0.7)];
        for t in 0..4u64 {
            engine.register_tenant(TenantId(t), &far).unwrap();
        }
        // Warm the shared cache untenanted, then serve each tenant.
        engine.run(Request::all_sky(QueryOptions::default())).unwrap();
        let mut answers = Vec::new();
        for t in 0..4u64 {
            let r = engine
                .run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(t)))
                .unwrap();
            answers.push(all_sky_bits(&r));
        }
        (answers, engine.metrics())
    };
    let (shared_answers, shared) = run_workload(false);
    let (namespaced_answers, namespaced) = run_workload(true);

    assert_eq!(shared_answers, namespaced_answers, "the ablation may never move a value");
    assert!(shared.cross_user_hits > 0, "disjoint overlays must share the base entries");
    assert!(
        shared.cross_user_hit_rate() > 0.9,
        "expected near-total sharing, got {}",
        shared.cross_user_hit_rate()
    );
    assert_eq!(namespaced.cross_user_hits, 0, "namespaced keys can never hit base entries");
    assert_eq!(shared.tenants.len(), 4);
    for row in &shared.tenants {
        assert_eq!(row.requests, 1);
        assert!(row.cache_probes > 0);
    }
}

#[test]
fn warmstart_accepts_the_same_registry_and_refuses_a_drifted_one() {
    let dir = std::env::temp_dir().join("presky-tenant-warmstart");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenants.snap");

    let engine = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    engine.register_tenant(TenantId(1), &overlay_pairs()).unwrap();
    engine.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(1))).unwrap();
    engine.save_cache_snapshot(&path).unwrap();

    // Accept arm: same registry content (re-registered from scratch on a
    // fresh engine) revalidates and the warm cache serves immediately.
    let mut warm = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    warm.register_tenant(TenantId(1), &overlay_pairs()).unwrap();
    warm.load_cache_snapshot(&path).unwrap();
    let m0 = warm.metrics();
    assert!(m0.cache_entries > 0, "snapshot entries must survive the round-trip");
    let warm_resp =
        warm.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(1))).unwrap();
    assert!(warm.metrics().stats.cache_hits > 0, "warm start must hit immediately");
    let cold =
        engine.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(1))).unwrap();
    assert_eq!(all_sky_bits(&warm_resp), all_sky_bits(&cold));

    // Refuse arm: a drifted registry (different overlay content) is a
    // fingerprint mismatch naming the tenant registry.
    let mut drifted = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    drifted.register_tenant(TenantId(1), &overlay_pairs()[..1]).unwrap();
    let err = drifted.load_cache_snapshot(&path).unwrap_err();
    match err {
        ServiceError::Warmstart { detail } => {
            assert!(detail.contains("tenant registry"), "detail must name the side: {detail}")
        }
        other => panic!("expected a warmstart refusal, got {other:?}"),
    }
    // An engine with *no* tenants is refused the same way.
    let mut untenanted = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    assert!(untenanted.load_cache_snapshot(&path).is_err());
}

#[test]
fn identical_tenant_requests_coalesce_and_distinct_overlays_do_not() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    let engine = Engine::new(car_table(), prefs(), EngineOptions::default()).unwrap();
    engine.register_tenant(TenantId(1), &overlay_pairs()).unwrap();
    engine.register_tenant(TenantId(2), &overlay_pairs()[..1]).unwrap();

    // Round 1: many submissions of one tenant's identical request — some
    // must coalesce (retry until the race produces at least one follower).
    let mut coalesced_seen = 0;
    for _ in 0..20 {
        let barrier = Barrier::new(8);
        let errors = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let req = Request::all_sky(QueryOptions::default()).with_tenant(TenantId(1));
                    if engine.run(req).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(errors.load(Ordering::Relaxed), 0);
        coalesced_seen = engine.metrics().coalesced;
        if coalesced_seen > 0 {
            break;
        }
    }
    assert!(coalesced_seen > 0, "identical same-tenant submissions should share a flight");
    let row = engine
        .metrics()
        .tenants
        .iter()
        .find(|r| r.tenant == 1)
        .copied()
        .expect("tenant 1 has a counter row");
    assert_eq!(row.coalesced, coalesced_seen, "coalesced followers attribute to their tenant");

    // Round 2: two tenants with *different* overlays submitting the same
    // query never share a flight — whatever the interleaving, both get
    // their own overlay's answer.
    let r1 =
        engine.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(1))).unwrap();
    let r2 =
        engine.run(Request::all_sky(QueryOptions::default()).with_tenant(TenantId(2))).unwrap();
    assert_ne!(all_sky_bits(&r1), all_sky_bits(&r2), "distinct overlays, distinct answers");
}
