//! Cross-crate integration tests: every worked number in the paper, pushed
//! through every algorithm in the workspace.

use presky::prelude::*;

/// The Observation of Section 1: P1=(α,s), P2=(α,t), P3=(β,t), all value
/// preferences one half. Codes: dim0 {α=0, β=1}, dim1 {s=0, t=1}.
fn observation() -> (Table, TablePreferences) {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
    (t, TablePreferences::with_default(PrefPair::half()))
}

/// Example 1 of Section 2 (Figure 4): O=(o1,o2), Q1=(a,b), Q2=(a,o2),
/// Q3=(c,e), Q4=(o1,b).
fn example1() -> (Table, TablePreferences) {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
        .unwrap();
    (t, TablePreferences::with_default(PrefPair::half()))
}

#[test]
fn observation_every_algorithm_agrees_on_the_truth() {
    let (t, p) = observation();
    let target = ObjectId(0);
    let expect = 0.5;

    let naive = sky_naive_worlds(&t, &p, target, NaiveOptions::default()).unwrap();
    let det = sky_det(&t, &p, target, DetOptions::default()).unwrap().sky;
    let detp = skyline_probability(&t, &p, target).unwrap();
    let view = CoinView::build(&t, &p, target).unwrap();
    let level = sky_levelwise(&view, DetOptions::default()).unwrap().sky;
    let coins = sky_naive_coins(&view, NaiveOptions::default()).unwrap();

    for (name, v) in [
        ("naive", naive),
        ("det", det),
        ("det+", detp),
        ("levelwise", level),
        ("naive-coins", coins),
    ] {
        assert!((v - expect).abs() < 1e-12, "{name} gave {v}");
    }

    // Estimators converge to the same value.
    let sam = sky_sam(&t, &p, target, SamOptions::with_samples(60_000, 3)).unwrap();
    assert!((sam.estimate - expect).abs() < 0.008, "Sam {}", sam.estimate);
    let mut stats = PipelineStats::default();
    let samp = presky::query::engine::solve_one(
        &t,
        &p,
        target,
        Algorithm::Sampling(SamOptions::with_samples(60_000, 3)),
        PrepareOptions::full(),
        &mut SkyScratch::default(),
        &mut stats,
    )
    .unwrap();
    assert!((samp.sky - expect).abs() < 0.008, "Sam+ {}", samp.sky);
    let kl =
        sky_karp_luby(&t, &p, target, KarpLubyOptions::default().with_samples(60_000).with_seed(3))
            .unwrap();
    assert!((kl.estimate - expect).abs() < 0.01, "KL {}", kl.estimate);

    // And Sac is wrong, exactly as the paper computes: 3/8.
    let sac = sky_sac(&t, &p, target).unwrap();
    assert!((sac - 0.375).abs() < 1e-12);
}

#[test]
fn observation_sac_is_right_only_for_p2() {
    let (t, p) = observation();
    for target in t.objects() {
        let truth = sky_naive_worlds(&t, &p, target, NaiveOptions::default()).unwrap();
        let sac = sky_sac(&t, &p, target).unwrap();
        let view = CoinView::build(&t, &p, target).unwrap();
        if sac_is_exact(&view) {
            assert_eq!(target, ObjectId(1), "only P2's attackers are value-disjoint");
            assert!((truth - sac).abs() < 1e-12);
        } else {
            assert!((truth - sac).abs() > 1e-3, "target {target}: Sac accidentally right?");
        }
    }
}

#[test]
fn example1_full_narrative() {
    let (t, p) = example1();
    let target = ObjectId(0);

    // Equation 2 values.
    let view = CoinView::build(&t, &p, target).unwrap();
    let probs: Vec<f64> = (0..4).map(|i| view.attacker_prob(i)).collect();
    assert_eq!(probs, vec![0.25, 0.5, 0.25, 0.5]);

    // Figure 2-style joint: Pr(e1 ∩ e2 ∩ e3) = 1/16 — via levelwise
    // truncations on the 3-attacker restriction.
    let sub = view.restrict(&[0, 1, 2]);
    let (after_l2, _, _) = sky_levelwise_partial(&sub, 6).unwrap();
    let (after_l3, _, complete) = sky_levelwise_partial(&sub, 7).unwrap();
    assert!(complete);
    assert!((after_l3 - after_l2 - (-1.0f64).powi(3) * (1.0 / 16.0)).abs() < 1e-12);

    // sky(O) = 3/16 on every exact engine.
    for v in [
        sky_det(&t, &p, target, DetOptions::default()).unwrap().sky,
        skyline_probability(&t, &p, target).unwrap(),
        sky_levelwise(&view, DetOptions::default()).unwrap().sky,
        sky_naive_worlds(&t, &p, target, NaiveOptions::default()).unwrap(),
    ] {
        assert!((v - 3.0 / 16.0).abs() < 1e-12);
    }

    // Absorption: exactly Q1, by Q2 or Q4 (Section 5).
    let res = absorb(&view);
    assert_eq!(res.removed.len(), 1);
    assert_eq!(view.source(res.removed[0].0), ObjectId(1));

    // Partition after absorption: three singletons; product form equals
    // Π (1 − Pr(e_i)) = (1−1/2)(1−1/4)(1−1/2) = 3/16.
    let reduced = view.restrict(&res.kept);
    let groups = partition(&reduced);
    assert_eq!(groups.len(), 3);
    let product: f64 = (0..reduced.n_attackers()).map(|i| 1.0 - reduced.attacker_prob(i)).product();
    assert!((product - 3.0 / 16.0).abs() < 1e-12);

    // Checking sequence: Q2 and Q4 first (Section 4.1).
    let seq = view.checking_sequence();
    let first_two: Vec<u32> = seq[..2].iter().map(|&i| view.source(i).0).collect();
    assert!(first_two.contains(&2) && first_two.contains(&4));
}

#[test]
fn example1_all_objects_through_the_query_layer() {
    let (t, p) = example1();
    let oracle = all_sky_naive(&t, &p, 16).unwrap();
    // Served by the resident engine — same pipeline, one unified API.
    let engine = Engine::new(t.clone(), p.clone(), EngineOptions::default()).unwrap();
    let response = engine.run(Request::all_sky(QueryOptions::default())).unwrap();
    assert!(matches!(response.outcome, Outcome::Exact(_)));
    let results: Vec<SkyResult> =
        response.outcome.value().as_all_sky().unwrap().iter().flatten().copied().collect();
    for (r, &expect) in results.iter().zip(&oracle) {
        assert!(r.exact);
        assert!((r.sky - expect).abs() < 1e-12, "{:?} vs {expect}", r);
    }
    // Every sky in Example 1 is ≥ 1/16, so any τ below that keeps all
    // five objects (τ itself must satisfy 0 < τ < 1, per the definition).
    let everyone = probabilistic_skyline(&t, &p, 0.01, QueryOptions::default()).unwrap();
    assert_eq!(everyone.len(), 5);
    let top_response = engine.run(Request::top_k(2, TopKOptions::default())).unwrap();
    let top = top_response.outcome.value().as_top_k().unwrap().to_vec();
    assert_eq!(top.len(), 2);
    assert!(top[0].sky >= top[1].sky);
    assert!((top[0].sky - everyone[0].sky).abs() < 1e-12);
}

#[test]
fn hoeffding_bound_honoured_across_seeds_on_example1() {
    // Theorem 2 at ε = 0.05, δ = 0.05 -> m = 738. Run 30 seeds and check
    // the empirical failure rate is far below δ (it should be, since
    // Hoeffding is loose).
    let (t, p) = example1();
    let eps = 0.05;
    let m = hoeffding_samples(eps, 0.05).unwrap();
    let exact = 3.0 / 16.0;
    let mut failures = 0;
    for seed in 0..30 {
        let est = sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(m, seed)).unwrap().estimate;
        if (est - exact).abs() >= eps {
            failures += 1;
        }
    }
    assert!(failures <= 2, "{failures}/30 seeds breached the ε bound");
}

#[test]
fn dnf_example_and_both_reduction_directions() {
    let f = PositiveDnf::paper_example();
    assert_eq!(f.count_satisfying_brute().unwrap(), 8);
    assert_eq!(f.count_via_sky(DetOptions::default()).unwrap(), 8);
    let view = f.to_coin_view();
    let back = PositiveDnf::from_half_coin_view(&view).unwrap();
    assert_eq!(back.clauses(), f.clauses());
    // The table reduction builds a valid instance whose sky matches.
    let (table, prefs, target) = f.to_table_instance();
    let sky = skyline_probability(&table, &prefs, target).unwrap();
    assert!((sky - 0.5).abs() < 1e-12);
}
