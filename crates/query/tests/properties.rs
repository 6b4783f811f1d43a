//! Property-based tests of the query layer: the ladder, the flat query,
//! top-k and the certain-skyline substrate must all tell one story.
//!
//! The one-shot wrappers below rebuild the removed free-function entry
//! points from the public resident drivers — they are the bit-identity
//! baselines the rest of the suite is pinned to.

use proptest::prelude::*;

use presky_core::batch::BatchCoinContext;
use presky_core::preference::{PrefPair, PreferenceModel, TablePreferences};
use presky_core::table::Table;
use presky_core::types::{DimId, ObjectId, ValueId};

use presky_approx::sampler::SamOptions;
use presky_approx::sprt::SprtOptions;
use presky_exact::cache::ComponentCache;
use presky_query::certain::{skyline_bnl, Degenerate};
use presky_query::engine::{
    all_sky_resident, solve_one, threshold_resident, top_k_resident, CacheScope, EngineBudget,
    PipelineStats, PrepareOptions, SkyScratch,
};
use presky_query::error::QueryError;
use presky_query::oracle::all_sky_naive;
use presky_query::prob_skyline::{probabilistic_skyline, Algorithm, QueryOptions, SkyResult};
use presky_query::threshold::{
    threshold_one, Resolution, ThresholdAnswer, ThresholdOptions, FALLBACK,
};
use presky_query::topk::{TopKOptions, OVERFETCH, REFINE, SCOUT};

/// One-shot all-objects query over the public resident driver —
/// bit-identical to the removed `all_sky` free function (guarded by
/// `unbudgeted_resident_matches_one_shot_bitwise` in the engine).
fn all_sky<M: PreferenceModel + Sync>(
    table: &Table,
    prefs: &M,
    opts: QueryOptions,
) -> Result<Vec<SkyResult>, QueryError> {
    let ctx = BatchCoinContext::build(table)?;
    let cache = ComponentCache::default();
    let out = all_sky_resident(
        &ctx,
        prefs,
        opts,
        Some(CacheScope::new(&cache)),
        EngineBudget::default(),
    )?;
    Ok(out.results.into_iter().map(|r| r.expect("unlimited budget")).collect())
}

/// One-shot single-object query over the public engine entry point.
fn sky_one<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
) -> Result<SkyResult, QueryError> {
    let mut stats = PipelineStats::default();
    solve_one(
        table,
        prefs,
        target,
        algo,
        PrepareOptions::default(),
        &mut SkyScratch::default(),
        &mut stats,
    )
}

/// One-shot threshold query over the public resident driver.
fn threshold_skyline<M: PreferenceModel + Sync>(
    table: &Table,
    prefs: &M,
    tau: f64,
    opts: ThresholdOptions,
) -> Result<Vec<ThresholdAnswer>, QueryError> {
    let ctx = BatchCoinContext::build(table)?;
    let cache = ComponentCache::default();
    let out = threshold_resident(
        &ctx,
        prefs,
        tau,
        opts,
        Some(CacheScope::new(&cache)),
        EngineBudget::default(),
    )?;
    Ok(out.results.into_iter().map(|r| r.expect("unlimited budget")).collect())
}

/// One-shot top-k query over the public resident driver.
fn top_k_skyline<M: PreferenceModel + Sync>(
    table: &Table,
    prefs: &M,
    k: usize,
    opts: TopKOptions,
) -> Result<Vec<SkyResult>, QueryError> {
    let ctx = BatchCoinContext::build(table)?;
    let cache = ComponentCache::default();
    let out = top_k_resident(
        &ctx,
        prefs,
        k,
        opts,
        Some(CacheScope::new(&cache)),
        EngineBudget::default(),
    )?;
    Ok(out.results.into_iter().map(|r| r.expect("unlimited budget")).collect())
}

fn decode_row(mut idx: usize, d: usize, values: usize) -> Vec<u32> {
    let mut row = Vec::with_capacity(d);
    for _ in 0..d {
        row.push((idx % values) as u32);
        idx /= values;
    }
    row
}

/// Simplex preferences over `values` values in each of `d` dimensions,
/// one `(forward, backward)` draw per value pair.
fn simplex_prefs(d: usize, values: u32, pair_probs: Vec<(f64, f64)>) -> TablePreferences {
    let mut prefs = TablePreferences::new();
    let mut it = pair_probs.into_iter();
    for dim in 0..d {
        for a in 0..values {
            for b in (a + 1)..values {
                let (mut u, mut v) = it.next().unwrap_or((0.5, 0.5));
                if u + v > 1.0 {
                    u = 1.0 - u;
                    v = 1.0 - v;
                }
                prefs.set(DimId::from(dim), ValueId(a), ValueId(b), u, v).expect("simplex pair");
            }
        }
    }
    prefs
}

/// Distinct-row tables with simplex preferences over a small value space.
fn instance() -> impl Strategy<Value = (Table, TablePreferences)> {
    (1usize..=3).prop_flat_map(|d| {
        let space = 4usize.pow(d as u32);
        (2usize..=space.min(7)).prop_flat_map(move |n| {
            (
                proptest::collection::btree_set(0..space, n),
                proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 6 * d),
            )
                .prop_map(move |(idxs, pair_probs)| {
                    let rows: Vec<Vec<u32>> = idxs.iter().map(|&i| decode_row(i, d, 4)).collect();
                    let table = Table::from_rows_raw(d, &rows).expect("valid rows");
                    (table, simplex_prefs(d, 4, pair_probs))
                })
        })
    })
}

/// Larger distinct-row tables — 20 to 40 rows over 5 dimensions of 3
/// values each — with simplex preferences: enough attackers per target
/// that absorption leaves multi-attacker components, whose brackets stay
/// open around the target's sky value, so the ladder's sampling rungs
/// engage.
fn sampling_instance() -> impl Strategy<Value = (Table, TablePreferences)> {
    const D: usize = 5;
    (20usize..=40).prop_flat_map(|n| {
        (
            proptest::collection::btree_set(0..3usize.pow(D as u32), n),
            proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3 * D),
        )
            .prop_map(|(idxs, pair_probs)| {
                let rows: Vec<Vec<u32>> = idxs.iter().map(|&i| decode_row(i, D, 3)).collect();
                let table = Table::from_rows_raw(D, &rows).expect("valid rows");
                (table, simplex_prefs(D, 3, pair_probs))
            })
    })
}

/// The per-object threshold ladder as it stood before the per-component
/// bracket rung (whole-view bounds → exact with an early exit on the
/// falling component product → sequential test → fixed budget), rebuilt
/// verbatim from the public *allocating* primitives (fresh buffers at
/// every step, no engine, no scratch reuse). It is the oracle of the
/// ladder contract [`threshold_one`] keeps (see
/// `threshold_one_keeps_the_reference_ladder_contract`).
fn threshold_one_reference(
    table: &Table,
    prefs: &TablePreferences,
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
) -> ThresholdAnswer {
    use presky_approx::sampler::sky_sam_view;
    use presky_approx::sprt::{sky_threshold_test_view, SprtOptions, ThresholdDecision};
    use presky_core::coins::CoinView;
    use presky_exact::absorption::absorb;
    use presky_exact::bounds::{sky_bounds_bonferroni, SkyBounds};
    use presky_exact::det::{sky_det_view, DetOptions};
    use presky_exact::partition::partition;

    let mut view = CoinView::build(table, prefs, target).expect("valid instance");
    if view.has_certain_attacker() {
        return ThresholdAnswer {
            object: target,
            member: 0.0 >= tau,
            resolution: Resolution::Exact(0.0),
        };
    }
    view.prune_impossible();
    let kept = absorb(&view).kept;
    let work = view.restrict(&kept);
    let groups = partition(&work);

    // Rung 1: certified bounds.
    let level = if work.n_attackers() <= 2_000 { opts.bonferroni_level } else { 1 };
    let bounds = sky_bounds_bonferroni(&work, level).expect("bounds");
    if bounds.certainly_at_least(tau) || bounds.certainly_below(tau) {
        return ThresholdAnswer {
            object: target,
            member: bounds.certainly_at_least(tau),
            resolution: Resolution::Bounds(bounds),
        };
    }

    // Rung 2: exact with the early exit on the falling component product,
    // under the previous ladder's own summed lattice-work limit of 2^22.
    let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
    let exact_work: u64 =
        groups.iter().map(|g| 1u64 << g.len().min(63)).fold(0, u64::saturating_add);
    if largest <= opts.exact_component_limit && exact_work <= 1 << 22 {
        let det = DetOptions::default().with_max_attackers(opts.exact_component_limit);
        let mut sky = 1.0;
        for g in &groups {
            // The engine restricts keyed components canonically (the
            // component-cache key demands an enumeration-order-independent
            // form), so the reference must too for bitwise agreement.
            let sub = work.restrict_canonical(g).unwrap_or_else(|| work.restrict(g));
            sky *= sky_det_view(&sub, det).expect("within budgets").sky;
            if sky < tau {
                return ThresholdAnswer {
                    object: target,
                    member: false,
                    resolution: Resolution::Bounds(SkyBounds { lower: 0.0, upper: sky }),
                };
            }
        }
        return ThresholdAnswer {
            object: target,
            member: sky >= tau,
            resolution: Resolution::Exact(sky),
        };
    }

    // Rung 3: sequential test; rung 4: fixed-budget fallback.
    let _ = SprtOptions::default();
    let sprt = opts.sprt.with_seed(opts.sprt.seed ^ target.0 as u64);
    let out = sky_threshold_test_view(&work, tau, sprt).expect("positive samples");
    match out.decision {
        ThresholdDecision::AtLeast => ThresholdAnswer {
            object: target,
            member: true,
            resolution: Resolution::Sequential { samples_used: out.samples_used },
        },
        ThresholdDecision::Below => ThresholdAnswer {
            object: target,
            member: false,
            resolution: Resolution::Sequential { samples_used: out.samples_used },
        },
        ThresholdDecision::Undecided => {
            let sam = FALLBACK.with_seed(FALLBACK.seed ^ target.0 as u64);
            let out = sky_sam_view(&work, sam).expect("positive samples");
            ThresholdAnswer {
                object: target,
                member: out.estimate >= tau,
                resolution: Resolution::Estimated(out.estimate),
            }
        }
    }
}

/// Decide one target through [`threshold_one`] and its reference ladder
/// and check the contract between them: the bracket rungs and the
/// bracketed early exit may certify a target sooner, so resolutions may
/// differ, but a certified reference membership may not; Exact values are
/// bit-identical; and a sampled answer appears only where the reference
/// sampled the same worlds to the same result. Returns the engine's
/// answer.
fn check_ladder_contract(
    table: &Table,
    prefs: &TablePreferences,
    target: ObjectId,
    tau: f64,
    opts: ThresholdOptions,
) -> Result<ThresholdAnswer, TestCaseError> {
    let got = threshold_one(table, prefs, target, tau, opts).unwrap();
    let reference = threshold_one_reference(table, prefs, target, tau, opts);
    let i = target.0;
    prop_assert_eq!(got.object, reference.object);
    if matches!(reference.resolution, Resolution::Bounds(_) | Resolution::Exact(_)) {
        prop_assert_eq!(
            got.member,
            reference.member,
            "object {}: {:?} vs reference {:?} under {:?}",
            i,
            got,
            reference,
            opts
        );
    }
    match (got.resolution, reference.resolution) {
        (Resolution::Exact(a), Resolution::Exact(b)) => {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "object {}: {} vs {}", i, a, b);
        }
        (
            Resolution::Sequential { samples_used: a },
            Resolution::Sequential { samples_used: b },
        ) => {
            prop_assert_eq!(a, b, "object {}", i);
            prop_assert_eq!(got.member, reference.member, "object {}", i);
        }
        (Resolution::Estimated(a), Resolution::Estimated(b)) => {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "object {}: {} vs {}", i, a, b);
            prop_assert_eq!(got.member, reference.member, "object {}", i);
        }
        (Resolution::Sequential { .. } | Resolution::Estimated(_), _) => {
            prop_assert!(false, "object {}: {:?} where the reference gave {:?}", i, got, reference);
        }
        _ => {}
    }
    Ok(got)
}

/// The pre-engine two-phase top-k, rebuilt from the public entry points:
/// adaptive scout over everything, then per-candidate refinement through
/// `sky_one` with a *fresh* scratch per target (the engine version shares
/// one scratch across the refine loop — that reuse must not change a bit).
fn top_k_reference(
    table: &Table,
    prefs: &TablePreferences,
    k: usize,
    opts: TopKOptions,
) -> Vec<SkyResult> {
    fn sort_desc(v: &mut [SkyResult]) {
        v.sort_by(|a, b| {
            b.sky
                .partial_cmp(&a.sky)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.object.cmp(&b.object))
        });
    }

    let scout_opts = QueryOptions::default()
        .with_algorithm(Algorithm::Adaptive {
            exact_component_limit: opts.exact_component_limit,
            sam: SCOUT,
        })
        .with_threads(opts.threads);
    let mut scouted = all_sky(table, prefs, scout_opts).expect("scout");
    sort_desc(&mut scouted);
    let cut = (k.saturating_mul(OVERFETCH)).min(scouted.len());
    let mut refined: Vec<SkyResult> = Vec::with_capacity(cut);
    for r in &scouted[..cut] {
        if r.exact {
            refined.push(*r);
        } else {
            let algo = Algorithm::Adaptive {
                exact_component_limit: opts.exact_component_limit,
                sam: REFINE.with_seed(REFINE.seed ^ (r.object.0 as u64).wrapping_mul(0x9e37)),
            };
            refined.push(sky_one(table, prefs, r.object, algo).expect("refine"));
        }
    }
    sort_desc(&mut refined);
    refined.truncate(k);
    refined
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn ladder_agrees_with_exact_memberships((table, prefs) in instance(), tau in 0.05f64..0.95) {
        // On these small instances the flat query is exact and the ladder
        // must agree everywhere except when the sequential rung fires
        // (which it cannot here: components are tiny).
        let flat = all_sky(&table, &prefs, QueryOptions::default().with_threads(Some(1)))
            .unwrap();
        let ladder = threshold_skyline(
            &table,
            &prefs,
            tau,
            ThresholdOptions::default().with_threads(Some(1)),
        )
        .unwrap();
        for (f, l) in flat.iter().zip(&ladder) {
            prop_assert!(f.exact);
            prop_assert_eq!(l.member, f.sky >= tau, "object {}: sky {}", f.object, f.sky);
            // No sampling rung should ever engage on instances this small.
            prop_assert!(
                !matches!(l.resolution, Resolution::Sequential { .. } | Resolution::Estimated(_)),
                "{:?}", l.resolution
            );
        }
    }

    #[test]
    fn topk_head_equals_sorted_all_sky((table, prefs) in instance(), k in 1usize..5) {
        let mut flat = all_sky(&table, &prefs, QueryOptions::default().with_threads(Some(1)))
            .unwrap();
        flat.sort_by(|a, b| {
            b.sky.partial_cmp(&a.sky).unwrap().then(a.object.cmp(&b.object))
        });
        let top = top_k_skyline(
            &table,
            &prefs,
            k,
            TopKOptions::default().with_threads(Some(1)),
        )
        .unwrap();
        prop_assert_eq!(top.len(), k.min(table.len()));
        for (t, f) in top.iter().zip(flat.iter()) {
            prop_assert_eq!(t.object, f.object);
            prop_assert!((t.sky - f.sky).abs() < 1e-9);
        }
    }

    #[test]
    fn probabilistic_skyline_is_a_filter_of_all_sky((table, prefs) in instance(), tau in 0.01f64..0.99) {
        let flat = all_sky(&table, &prefs, QueryOptions::default().with_threads(Some(1)))
            .unwrap();
        let sky = probabilistic_skyline(
            &table,
            &prefs,
            tau,
            QueryOptions::default().with_threads(Some(1)),
        )
        .unwrap();
        let expected: usize = flat.iter().filter(|r| r.sky >= tau).count();
        prop_assert_eq!(sky.len(), expected);
        for w in sky.windows(2) {
            prop_assert!(w[0].sky >= w[1].sky);
        }
    }

    #[test]
    fn oracle_mass_is_positive_under_simplex_preferences((table, prefs) in instance()) {
        // Note: Σ sky_i ≥ 1 does NOT hold in general — realized pairwise
        // preferences can be cyclic (a≺b, b≺c, c≺a), making a world's
        // skyline empty. But simplex preferences leave positive
        // incomparability mass on every pair, so the all-incomparable
        // world (where everyone is a skyline point) has positive
        // probability, and the total mass is strictly positive.
        let oracle = all_sky_naive(&table, &prefs, 12);
        prop_assume!(oracle.is_ok());
        let oracle = oracle.unwrap();
        for &s in &oracle {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s));
        }
        let mass: f64 = oracle.iter().sum();
        prop_assert!(mass > 0.0, "total mass {mass}");
    }

    #[test]
    fn batch_engine_matches_sky_one_bitwise(
        (table, prefs) in instance(),
        threads in 1usize..=4,
        algo_sel in 0usize..3,
    ) {
        use presky_exact::det::DetOptions;
        let algorithm = match algo_sel {
            0 => Algorithm::default(),
            1 => Algorithm::Sampling(SamOptions::with_samples(400, 11)),
            _ => Algorithm::Exact { det: DetOptions::default() },
        };
        let batch = all_sky(
            &table,
            &prefs,
            QueryOptions::default().with_algorithm(algorithm).with_threads(Some(threads)),
        )
        .unwrap();
        prop_assert_eq!(batch.len(), table.len());
        for (i, r) in batch.iter().enumerate() {
            // Replicate the driver's per-object seed decorrelation so the
            // single-object path sees identical sampler options.
            let salted = match algorithm {
                Algorithm::Adaptive { exact_component_limit, sam } => Algorithm::Adaptive {
                    exact_component_limit,
                    sam: sam.with_seed(sam.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                },
                Algorithm::Sampling(sam) => Algorithm::Sampling(
                    sam.with_seed(sam.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                ),
                e @ Algorithm::Exact { .. } => e,
            };
            let single = sky_one(&table, &prefs, ObjectId::from(i), salted).unwrap();
            prop_assert_eq!(r.object, single.object);
            prop_assert_eq!(
                r.sky.to_bits(), single.sky.to_bits(),
                "object {}: batch {} vs single {}", i, r.sky, single.sky
            );
            prop_assert_eq!(r.exact, single.exact);
        }
    }

    #[test]
    fn cached_all_sky_is_bit_identical_to_cache_disabled(
        (table, prefs) in instance(),
        threads in 1usize..=4,
    ) {
        // The tentpole's correctness contract: the component cache is a
        // pure work-sharing device. A warm hit returns the exact bits the
        // canonical solve produces, so enabling it must not move any
        // result by even one ulp — `--no-component-cache` is the ablation
        // baseline this pins.
        let cached = all_sky(
            &table,
            &prefs,
            QueryOptions::default().with_threads(Some(threads)).with_component_cache(true),
        )
        .unwrap();
        let uncached = all_sky(
            &table,
            &prefs,
            QueryOptions::default().with_threads(Some(threads)).with_component_cache(false),
        )
        .unwrap();
        prop_assert_eq!(cached.len(), uncached.len());
        for (c, u) in cached.iter().zip(&uncached) {
            prop_assert_eq!(c.object, u.object);
            prop_assert_eq!(
                c.sky.to_bits(), u.sky.to_bits(),
                "object {}: cached {} vs uncached {}", c.object, c.sky, u.sky
            );
            prop_assert_eq!(c.exact, u.exact);
        }
    }

    #[test]
    fn threshold_one_keeps_the_reference_ladder_contract(
        (table, prefs) in instance(),
        (big, big_prefs) in sampling_instance(),
        tau in 0.05f64..0.95,
        offset in -0.04f64..0.04,
        arm in 0usize..3,
    ) {
        // Arm 0: default options exercise the bounds and exact rungs.
        // Arms 1 and 2 zero the exact component limit, which sends every
        // bounds-inconclusive object down to the sequential test and the
        // fixed-budget fallback, covering the sampling rungs (and their
        // per-target seed derivation) too; whole-view level-2 Bonferroni
        // would decide nearly every object, so they drop to level 1 and
        // truncate the test at 512 worlds to reach both sampling rungs.
        let sampling = ThresholdOptions::default()
            .with_exact_component_limit(0)
            .with_bonferroni_level(1)
            .with_sprt(SprtOptions::default().with_max_samples(512));
        if arm < 2 {
            let opts = if arm == 0 { ThresholdOptions::default() } else { sampling };
            for i in 0..table.len() {
                check_ladder_contract(&table, &prefs, ObjectId::from(i), tau, opts)?;
            }
        } else {
            // Arm 2: on instances of at most 7 rows the brackets decide
            // nearly every object before the sampling rungs, so this arm
            // runs the larger tables with each target's τ placed near its
            // own sky value (a 2 000-world estimate, shifted by `offset`),
            // where no bracket can separate, and requires that at least a
            // quarter of the objects reach the sequential test (rung 4).
            let mut sampled = 0usize;
            for i in 0..big.len() {
                let target = ObjectId::from(i);
                let estimate = sky_one(
                    &big,
                    &big_prefs,
                    target,
                    Algorithm::Sampling(SamOptions::with_samples(2_000, 17)),
                )
                .unwrap()
                .sky;
                let tau = (estimate + offset).clamp(0.01, 0.99);
                let got = check_ladder_contract(&big, &big_prefs, target, tau, sampling)?;
                if matches!(got.resolution, Resolution::Sequential { .. } | Resolution::Estimated(_)) {
                    sampled += 1;
                }
            }
            prop_assert!(
                4 * sampled >= big.len(),
                "only {} of {} objects reached the sequential test", sampled, big.len()
            );
        }
    }

    #[test]
    fn ladder_certified_resolutions_match_the_oracle(
        (table, prefs) in instance(),
        tau in 0.05f64..0.95,
    ) {
        // Every certified resolution (bounds enclosure or exact value) must
        // agree with brute-force possible-world enumeration — the ladder's
        // short-cuts may never flip a certified membership.
        let oracle = all_sky_naive(&table, &prefs, 12);
        prop_assume!(oracle.is_ok());
        let oracle = oracle.unwrap();
        let answers = threshold_skyline(
            &table,
            &prefs,
            tau,
            ThresholdOptions::default().with_threads(Some(1)),
        )
        .unwrap();
        for (a, &sky) in answers.iter().zip(&oracle) {
            match a.resolution {
                Resolution::Bounds(b) => {
                    prop_assert!(b.lower <= sky + 1e-9 && sky <= b.upper + 1e-9,
                        "object {}: sky {} outside [{}, {}]", a.object, sky, b.lower, b.upper);
                    prop_assert_eq!(a.member, sky >= tau,
                        "object {}: sky {} vs tau {}", a.object, sky, tau);
                }
                Resolution::Exact(v) => {
                    prop_assert!((v - sky).abs() < 1e-9,
                        "object {}: exact {} vs oracle {}", a.object, v, sky);
                    prop_assert_eq!(a.member, sky >= tau);
                }
                // Sampling rungs cannot engage on instances this small
                // (guarded by `ladder_agrees_with_exact_memberships`).
                _ => {}
            }
        }
    }

    #[test]
    fn unabsorbed_bracket_product_encloses_the_prepared_value(
        (table, prefs) in instance(),
        touched in proptest::collection::vec((0usize..3, 0u32..4, 0u32..4), 0..4),
        probs in proptest::collection::vec((0.05f64..0.45, 0.05f64..0.45), 4),
        tau in 0.05f64..0.95,
    ) {
        // Rung 0 of the threshold ladder decides from the bracket product
        // over the components of the pruned view *before* absorption.
        // Absorption keeps sky (Theorem 3) and components multiply
        // (Theorem 4), so that product must enclose the exact value of the
        // prepared (absorbed, restricted) view; wherever it decides a
        // membership, possible-world enumeration must agree, and the
        // engine must report exactly that bracket. Tenant-style overlays
        // rewrite some pair probabilities, as the resident service's
        // tenants do.
        use presky_core::coins::CoinView;
        use presky_core::preference::{DeltaOverlay, PrefDelta};
        use presky_exact::absorption::absorb;
        use presky_exact::bounds::{sky_bounds_cheap_subset, SkyBounds};
        use presky_exact::det::{sky_det_view, DetOptions};
        use presky_exact::partition::partition;

        let d = table.dimensionality();
        let mut delta = PrefDelta::new();
        for (i, &(dim, a, b)) in touched.iter().enumerate() {
            if a == b {
                continue;
            }
            let (f, r) = probs[i % probs.len()];
            delta = delta
                .with_pair(DimId::from(dim % d), ValueId(a), ValueId(b), f, r)
                .expect("interior probabilities always satisfy the simplex");
        }
        let overlay = DeltaOverlay::new(&delta, &prefs);
        // Enumerated once, at the first decided target, and only on tables
        // with at most 10 uncertain pairs (at most 3^10 worlds).
        let mut oracle = None;
        for i in 0..table.len() {
            let target = ObjectId::from(i);
            let mut view = CoinView::build(&table, &overlay, target).unwrap();
            if view.has_certain_attacker() {
                continue;
            }
            view.prune_impossible();
            // The engine's suffix-product order, so the bits match.
            let mut product = SkyBounds { lower: 1.0, upper: 1.0 };
            for g in partition(&view).iter().rev() {
                let b = sky_bounds_cheap_subset(&view, g.iter().copied());
                product = SkyBounds {
                    lower: b.lower * product.lower,
                    upper: b.upper * product.upper,
                };
            }
            let prepared = view.restrict(&absorb(&view).kept);
            let exact = sky_det_view(&prepared, DetOptions::default()).unwrap().sky;
            prop_assert!(product.lower <= exact + 1e-9 && exact <= product.upper + 1e-9,
                "object {}: prepared sky {} outside [{}, {}]",
                i, exact, product.lower, product.upper);
            if !(product.certainly_at_least(tau) || product.certainly_below(tau)) {
                continue;
            }
            if let Ok(oracle) = oracle.get_or_insert_with(|| all_sky_naive(&table, &overlay, 10)) {
                prop_assert_eq!(product.certainly_at_least(tau), oracle[i] >= tau,
                    "object {}: oracle sky {} vs tau {} under [{}, {}]",
                    i, oracle[i], tau, product.lower, product.upper);
            }
            let got = threshold_one(&table, &overlay, target, tau, ThresholdOptions::default())
                .unwrap();
            prop_assert_eq!(got.resolution, Resolution::Bounds(product), "object {}", i);
        }
    }

    #[test]
    fn topk_matches_pre_engine_reference(
        (table, prefs) in instance(),
        k in 1usize..5,
        force_refine in any::<bool>(),
    ) {
        // With the default options every scout value on these instances is
        // exact and refinement is skipped; zeroing the exact component
        // limit forces the sampled scout + refine path, covering the
        // engine's scratch reuse and per-target refine seeds.
        let opts = if force_refine {
            TopKOptions::default().with_exact_component_limit(0).with_threads(Some(1))
        } else {
            TopKOptions::default().with_threads(Some(1))
        };
        let got = top_k_skyline(&table, &prefs, k, opts).unwrap();
        let expect = top_k_reference(&table, &prefs, k, opts);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g.object, e.object);
            prop_assert_eq!(g.sky.to_bits(), e.sky.to_bits(),
                "object {}: {} vs {}", g.object, g.sky, e.sky);
            prop_assert_eq!(g.exact, e.exact, "object {}", g.object);
        }
    }

    #[test]
    fn topk_exact_provenance_survives_the_refine_skip((table, prefs) in instance(), k in 1usize..5) {
        // Scout values solved exactly skip refinement and must keep
        // `exact = true` AND their bitwise value from the flat query; on
        // these small instances that is every object.
        let opts = TopKOptions::default().with_threads(Some(1));
        let top = top_k_skyline(&table, &prefs, k, opts).unwrap();
        let flat = all_sky(&table, &prefs, QueryOptions::default().with_threads(Some(1)))
            .unwrap();
        for r in &top {
            prop_assert!(r.exact, "object {} lost its exact provenance", r.object);
            let f = &flat[r.object.0 as usize];
            prop_assert_eq!(r.sky.to_bits(), f.sky.to_bits(),
                "object {}: refine changed a skipped value", r.object);
        }
    }

    #[test]
    fn overlay_disjoint_components_share_base_signatures(
        (table, prefs) in instance(),
        touched in proptest::collection::vec((0usize..3, 0u32..4, 0u32..4), 0..4),
        probs in proptest::collection::vec((0.05f64..0.45, 0.05f64..0.45), 4),
    ) {
        // The multi-tenant sharing guarantee: a component embedding none
        // of the overlay's written coins serializes to the *same* cache
        // key under the overlay as under the base model — that key is
        // what every tenant's requests probe, so the entry is shared
        // across users. Interior probabilities keep every overlay pair a
        // valid simplex pair whatever the base held.
        use presky_core::coins::CoinView;
        use presky_core::preference::{DeltaOverlay, PrefDelta};
        use presky_exact::partition::partition;
        use presky_exact::signature::{component_signature, CoinMask};

        let d = table.dimensionality();
        let mut delta = PrefDelta::new();
        for (i, &(dim, a, b)) in touched.iter().enumerate() {
            if a == b {
                continue;
            }
            let (f, r) = probs[i % probs.len()];
            delta = delta
                .with_pair(DimId::from(dim % d), ValueId(a), ValueId(b), f, r)
                .expect("interior probabilities always satisfy the simplex");
        }
        let mask: CoinMask = delta
            .pairs_sorted()
            .into_iter()
            .flat_map(|(dm, a, b, pair)| {
                [(dm.0, a.0, pair.forward.to_bits()), (dm.0, b.0, pair.backward.to_bits())]
            })
            .collect();
        let overlay = DeltaOverlay::new(&delta, &prefs);
        for i in 0..table.len() {
            let target = ObjectId::from(i);
            // `CoinView::build` is structural — probabilities fill a side
            // table — so both views hold identical attackers and coin ids
            // and one partition speaks for both.
            let base_view = CoinView::build(&table, &prefs, target).unwrap();
            let over_view = CoinView::build(&table, &overlay, target).unwrap();
            prop_assert_eq!(base_view.n_attackers(), over_view.n_attackers());
            for g in &partition(&base_view) {
                let mut base_sig = Vec::new();
                let mut over_sig = Vec::new();
                prop_assert!(component_signature(
                    &base_view.restrict_canonical(g).unwrap(), &mut base_sig));
                prop_assert!(component_signature(
                    &over_view.restrict_canonical(g).unwrap(), &mut over_sig));
                // An overlay serialization free of every written coin
                // never received an overlay probability: it shares the
                // base cache key byte for byte. (The converse need not
                // hold — the base model could coincidentally carry a
                // masked bit pattern — so only the overlay side is the
                // sharing classifier.)
                if !mask.touches_signature(&over_sig) {
                    prop_assert_eq!(
                        &over_sig, &base_sig,
                        "object {}: unwritten component must share the base cache key", i
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_policy_brackets_exact((table, prefs) in instance()) {
        use presky_query::prob_skyline::Algorithm;
        let exact = all_sky(&table, &prefs, QueryOptions::default().with_threads(Some(1)))
            .unwrap();
        let sampled = all_sky(
            &table,
            &prefs,
            QueryOptions::default()
                .with_algorithm(Algorithm::Sampling(SamOptions::with_samples(3000, 7)))
                .with_threads(Some(1)),
        )
        .unwrap();
        for (e, s) in exact.iter().zip(&sampled) {
            prop_assert!((e.sky - s.sky).abs() < 0.09, "{} vs {}", e.sky, s.sky);
        }
    }
}

#[test]
fn worker_panic_in_all_sky_propagates_cleanly() {
    // A model that blows up mid-query: the driver must re-raise the
    // original panic payload on the caller's thread — not die on a
    // poisoned mutex or a double panic.
    struct Panicker;
    impl PreferenceModel for Panicker {
        fn pr_strict(&self, _dim: DimId, _a: ValueId, _b: ValueId) -> f64 {
            panic!("model exploded");
        }
    }
    let table = Table::from_rows_raw(1, &[vec![0], vec![1], vec![2]]).unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        all_sky(&table, &Panicker, QueryOptions::default().with_threads(Some(2)))
    }));
    let payload = caught.expect_err("worker panic must propagate to the caller");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "model exploded", "original payload must survive");
}

#[test]
fn cyclic_worlds_can_have_empty_skylines() {
    // Realized preferences a≺b, b≺c, c≺a on one dimension: objects (a),
    // (b), (c) dominate each other in a cycle, so the true skyline is
    // empty — this is why the cycle-safe oracle exists and why Σ sky_i ≥ 1
    // does NOT hold in general under pairwise-independent preferences.
    use presky_core::world::{PairId, Relation, World};
    use presky_query::certain::skyline_naive_certain;
    let table = Table::from_rows_raw(1, &[vec![0], vec![1], vec![2]]).unwrap();
    let d = DimId(0);
    let mut w = World::new();
    // Codes: a=0, b=1, c=2. a≺b and b≺c are LoWins; c≺a is HiWins on (0,2).
    w.set(PairId::new(d, ValueId(0), ValueId(1)), Relation::LoWins);
    w.set(PairId::new(d, ValueId(1), ValueId(2)), Relation::LoWins);
    w.set(PairId::new(d, ValueId(0), ValueId(2)), Relation::HiWins);
    let sky = skyline_naive_certain(&table, &w);
    assert!(sky.is_empty(), "every object is dominated inside the cycle: {sky:?}");
    // BNL's window discipline is not applicable here and reports a
    // non-empty set — the documented caveat.
    let bnl = skyline_bnl(&table, &w);
    assert!(!bnl.is_empty());
}

#[test]
fn naive_certain_matches_bnl_on_transitive_worlds() {
    let order = presky_core::preference::DeterministicOrder::ascending();
    for seed in 0..10u64 {
        let mut s = seed.wrapping_mul(0x2545f4914f6cdd1d) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut rows = std::collections::BTreeSet::new();
        while rows.len() < 8 {
            rows.insert((next() % 64) as usize);
        }
        let decoded: Vec<Vec<u32>> = rows.iter().map(|&i| decode_row(i, 3, 4)).collect();
        let table = Table::from_rows_raw(3, &decoded).unwrap();
        use presky_query::certain::skyline_naive_certain;
        assert_eq!(
            skyline_naive_certain(&table, &Degenerate(order)),
            skyline_bnl(&table, &Degenerate(order)),
            "seed {seed}"
        );
    }
}

#[test]
fn certain_world_skyline_is_never_empty() {
    // BNL on any certain order returns at least one object.
    for seed in 0..10u64 {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut rows = std::collections::BTreeSet::new();
        while rows.len() < 9 {
            rows.insert((next() % 64) as usize);
        }
        let decoded: Vec<Vec<u32>> = rows.iter().map(|&i| decode_row(i, 3, 4)).collect();
        let table = Table::from_rows_raw(3, &decoded).unwrap();
        let order = presky_core::preference::DeterministicOrder::ascending();
        let sky = skyline_bnl(&table, &Degenerate(order));
        assert!(!sky.is_empty());
        // Every non-skyline object is dominated by some skyline object
        // (transitive total-order worlds make the skyline a dominating set).
        for o in table.objects() {
            if !sky.contains(&o) {
                assert!(sky.iter().any(|&w| {
                    presky_query::certain::dominates_certain(&table, &Degenerate(order), w, o)
                }));
            }
        }
    }
    let _ = ObjectId(0);
    let _ = PrefPair::half();
    let _: Option<&dyn PreferenceModel> = None;
}
