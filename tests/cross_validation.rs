//! Property-based cross-validation of every algorithm against the naive
//! enumerator on randomly generated small instances.
//!
//! Strategy: random tables (n ≤ 8, d ≤ 3, small domains to force value
//! sharing) with random preference pairs drawn from the simplex (so
//! incomparability mass is exercised). On each instance the full algorithm
//! stack must agree with ground truth.

use proptest::prelude::*;

use presky::prelude::*;

/// Decode a row index into base-4 digits (one value per dimension).
fn decode_row(mut idx: usize, d: usize) -> Vec<u32> {
    let mut row = Vec::with_capacity(d);
    for _ in 0..d {
        row.push((idx % 4) as u32);
        idx /= 4;
    }
    row
}

/// A random small instance: (table, prefs, target). Rows are drawn as a
/// set of distinct points of the 4^d value space, so the no-duplicates
/// invariant holds by construction (no filter-rejection storms).
fn small_instance() -> impl Strategy<Value = (Table, TablePreferences, ObjectId)> {
    (1usize..=3).prop_flat_map(|d| {
        let space = 4usize.pow(d as u32);
        let max_n = space.min(8);
        (2usize..=max_n).prop_flat_map(move |n| {
            (
                proptest::collection::btree_set(0..space, n),
                proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 6 * d),
                0..n,
            )
                .prop_map(move |(idxs, pair_probs, target)| {
                    let rows: Vec<Vec<u32>> = idxs.iter().map(|&i| decode_row(i, d)).collect();
                    let table = Table::from_rows_raw(d, &rows).expect("valid rows");
                    // Preferences for every pair of values 0..4 per
                    // dimension, folded onto the simplex.
                    let mut prefs = TablePreferences::new();
                    let mut it = pair_probs.into_iter();
                    for dim in 0..d {
                        for a in 0u32..4 {
                            for b in (a + 1)..4 {
                                let (mut u, mut v) = it.next().unwrap_or((0.5, 0.5));
                                if u + v > 1.0 {
                                    u = 1.0 - u;
                                    v = 1.0 - v;
                                }
                                prefs
                                    .set(DimId::from(dim), ValueId(a), ValueId(b), u, v)
                                    .expect("simplex pair");
                            }
                        }
                    }
                    (table, prefs, ObjectId::from(target))
                })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_engines_agree_with_naive((table, prefs, target) in small_instance()) {
        let truth = sky_naive_worlds(&table, &prefs, target, NaiveOptions::default()).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&truth));

        let view = CoinView::build(&table, &prefs, target).unwrap();
        let coins = sky_naive_coins(&view, NaiveOptions::default()).unwrap();
        prop_assert!((truth - coins).abs() < 1e-9, "coin enumeration: {coins} vs {truth}");

        let det = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        prop_assert!((truth - det).abs() < 1e-9, "det: {det} vs {truth}");

        let level = sky_levelwise(&view, DetOptions::default()).unwrap().sky;
        prop_assert!((truth - level).abs() < 1e-9, "levelwise: {level} vs {truth}");

        let detp = skyline_probability(&table, &prefs, target).unwrap();
        prop_assert!((truth - detp).abs() < 1e-9, "det+: {detp} vs {truth}");
    }

    #[test]
    fn absorption_and_partition_preserve_sky((table, prefs, target) in small_instance()) {
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let full = sky_det_view(&view, DetOptions::default()).unwrap().sky;

        // Absorption alone.
        let kept = absorb(&view).kept;
        let reduced = view.restrict(&kept);
        let after_abs = sky_det_view(&reduced, DetOptions::default()).unwrap().sky;
        prop_assert!((full - after_abs).abs() < 1e-9);

        // Partition alone (factorised product).
        let product: f64 = partition(&view)
            .iter()
            .map(|g| sky_det_view(&view.restrict(g), DetOptions::default()).unwrap().sky)
            .product();
        prop_assert!((full - product).abs() < 1e-9);
    }

    #[test]
    fn sac_is_exact_iff_attackers_are_coin_disjoint((table, prefs, target) in small_instance()) {
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let sac = sky_sac_view(&view);
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        if sac_is_exact(&view) {
            prop_assert!((sac - truth).abs() < 1e-9, "disjoint attackers: {sac} vs {truth}");
        }
        // Either way Sac is a probability.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&sac));
    }

    #[test]
    fn truncated_inclusion_exclusion_brackets_the_truth((table, prefs, target) in small_instance()) {
        // Bonferroni: odd truncation levels underestimate, even levels
        // overestimate.
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let n = view.n_attackers();
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let mut joints_at_level = 0u64;
        for k in 1..=n {
            joints_at_level += binomial(n, k);
            let (partial, _, _) = sky_levelwise_partial(&view, joints_at_level).unwrap();
            if k % 2 == 1 {
                prop_assert!(partial <= truth + 1e-9, "level {k}: {partial} vs {truth}");
            } else {
                prop_assert!(partial >= truth - 1e-9, "level {k}: {partial} vs {truth}");
            }
        }
    }

    #[test]
    fn a1_overestimates_monotonically((table, prefs, target) in small_instance()) {
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let mut last = f64::INFINITY;
        for k in 0..=view.n_attackers() {
            let est = sky_a1(&view, k, DetOptions::default()).unwrap().estimate;
            prop_assert!(est >= truth - 1e-9, "k={k}");
            prop_assert!(est <= last + 1e-9, "k={k}: not monotone");
            last = est;
        }
    }

    #[test]
    fn sampler_is_deterministic_and_within_loose_bounds((table, prefs, target) in small_instance()) {
        let truth = sky_naive_worlds(&table, &prefs, target, NaiveOptions::default()).unwrap();
        let opts = SamOptions::with_samples(4000, 11);
        let a = sky_sam(&table, &prefs, target, opts).unwrap();
        let b = sky_sam(&table, &prefs, target, opts).unwrap();
        prop_assert_eq!(a.estimate, b.estimate);
        // 4000 samples -> Hoeffding ε at δ=0.001 is ~0.031; use a looser
        // 0.08 so the property almost never flakes while still biting.
        prop_assert!((a.estimate - truth).abs() < 0.08, "{} vs {truth}", a.estimate);
    }

    #[test]
    fn karp_luby_matches_truth_loosely((table, prefs, target) in small_instance()) {
        let truth = sky_naive_worlds(&table, &prefs, target, NaiveOptions::default()).unwrap();
        let kl = sky_karp_luby(&table, &prefs, target, KarpLubyOptions::default().with_samples(4000).with_seed(13))
            .unwrap();
        prop_assert!((kl.estimate - truth).abs() < 0.08, "{} vs {truth}", kl.estimate);
    }

    #[test]
    fn query_layer_matches_per_object_oracle((table, prefs, _t) in small_instance()) {
        // Cap the oracle at 10 relevant pairs: three-outcome pairs mean
        // 3^pairs worlds, and the all-objects pair set grows quadratically.
        let oracle = all_sky_naive(&table, &prefs, 10);
        prop_assume!(oracle.is_ok());
        let oracle = oracle.unwrap();
        let engine = Engine::new(table, prefs, EngineOptions::default()).unwrap();
        let response = engine
            .run(Request::all_sky(QueryOptions::default().with_threads(Some(2))))
            .unwrap();
        let got: Vec<SkyResult> =
            response.outcome.value().as_all_sky().unwrap().iter().flatten().copied().collect();
        for (r, &expect) in got.iter().zip(&oracle) {
            prop_assert!(r.exact);
            prop_assert!((r.sky - expect).abs() < 1e-9, "{:?} vs {}", r, expect);
        }
    }
}

fn binomial(n: usize, k: usize) -> u64 {
    let mut r = 1u64;
    for i in 0..k {
        r = r * (n - i) as u64 / (i + 1) as u64;
    }
    r
}
