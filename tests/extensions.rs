//! Integration tests of the extension layer: conditioning, certified
//! bounds, sequential threshold tests, the escalation-ladder query, and
//! preference elicitation — all validated against the exact engines.

use presky::prelude::*;

fn example1() -> (Table, TablePreferences) {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
        .unwrap();
    (t, TablePreferences::with_default(PrefPair::half()))
}

#[test]
fn conditioning_agrees_with_det_plus_on_workloads() {
    let prefs = SeededPreferences::complementary(17);
    let table = generate_block_zipf(BlockZipfConfig::new(120, 3, 9)).unwrap();
    for target in [ObjectId(0), ObjectId(60), ObjectId(119)] {
        let a = skyline_probability(&table, &prefs, target).unwrap();
        let b =
            sky_conditioning(&table, &prefs, target, ConditioningOptions::default()).unwrap().sky;
        assert!((a - b).abs() < 1e-9, "target {target}: {a} vs {b}");
    }
}

#[test]
fn conditioning_handles_what_det_cannot() {
    // 60 attackers over only 6 coins: Det would need 2^60 joints; the
    // conditioning engine needs at most ~2^6 assignments (modulo component
    // splits).
    let mut clauses = Vec::new();
    let mut s = 0x51u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut distinct = std::collections::HashSet::new();
    while clauses.len() < 60 {
        let mask = (next() % 63) + 1;
        if distinct.insert(mask) {
            clauses.push((0..6u32).filter(|&b| mask & (1 << b) != 0).collect::<Vec<_>>());
        }
    }
    let probs: Vec<f64> = (0..6).map(|i| 0.1 + 0.13 * i as f64).collect();
    let view = CoinView::from_parts(probs, clauses).unwrap();
    let cond = sky_conditioning_view(&view, ConditioningOptions::default()).unwrap();
    assert!(cond.nodes < 10_000, "{} nodes", cond.nodes);
    // Validate against naive coin enumeration (2^6 worlds).
    let truth = sky_naive_coins(&view, NaiveOptions::default()).unwrap();
    assert!((cond.sky - truth).abs() < 1e-9, "{} vs {truth}", cond.sky);
    // Det, by contrast, refuses the 60-attacker instance outright. After
    // absorption the distinct masks form subset chains, so Det+ may still
    // manage — the point is plain Det cannot.
    assert!(sky_det_view(&view, DetOptions::default()).is_err());
}

#[test]
fn bounds_enclose_and_tighten_on_real_data() {
    let table = nursery_projected(4).unwrap();
    let prefs = SeededPreferences::complementary(3);
    for target in [ObjectId(0), ObjectId(120), ObjectId(239)] {
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let exact = skyline_probability(&table, &prefs, target).unwrap();
        let cheap = sky_bounds_cheap(&view);
        assert!(
            cheap.lower <= exact + 1e-9 && exact <= cheap.upper + 1e-9,
            "target {target}: {cheap:?} vs {exact}"
        );
        let tight = sky_bounds_bonferroni(&view, 2).unwrap();
        assert!(tight.lower <= exact + 1e-9 && exact <= tight.upper + 1e-9);
        assert!(tight.width() <= cheap.width() + 1e-9);
    }
}

#[test]
fn sprt_agrees_with_exact_memberships() {
    let (t, p) = example1();
    let exact = skyline_probability(&t, &p, ObjectId(0)).unwrap(); // 3/16
    for (tau, expect) in [(0.05, true), (0.4, false), (0.8, false)] {
        let out = sky_threshold_test(&t, &p, ObjectId(0), tau, SprtOptions::default()).unwrap();
        let decided = match out.decision {
            ThresholdDecision::AtLeast => Some(true),
            ThresholdDecision::Below => Some(false),
            ThresholdDecision::Undecided => None,
        };
        assert_eq!(decided, Some(expect), "τ = {tau}, exact = {exact}");
    }
}

#[test]
fn ladder_query_matches_flat_query_on_blockzipf() {
    let table = generate_block_zipf(BlockZipfConfig::new(160, 4, 31)).unwrap();
    let prefs = SeededPreferences::complementary(8);
    let tau = 0.05;
    // Both queries through one resident engine: the ladder and the flat
    // query share the warmed context and component cache.
    let engine = Engine::new(table, prefs, EngineOptions::default()).unwrap();
    let ladder_response = engine.run(Request::threshold(tau, ThresholdOptions::default())).unwrap();
    let ladder: Vec<ThresholdAnswer> =
        ladder_response.outcome.value().as_threshold().unwrap().iter().flatten().copied().collect();
    let flat_response = engine.run(Request::all_sky(QueryOptions::default())).unwrap();
    let flat: Vec<SkyResult> =
        flat_response.outcome.value().as_all_sky().unwrap().iter().flatten().copied().collect();
    let mut disagreements = 0;
    for (a, r) in ladder.iter().zip(&flat) {
        // The flat query is exact here (adaptive exact limit covers the
        // components); ladder decisions on borderline objects may use
        // sampling, so allow disagreement only within the SPRT margin.
        if a.member != (r.sky >= tau) {
            assert!(
                (r.sky - tau).abs() <= 0.03,
                "object {}: member {} but sky {}",
                a.object,
                a.member,
                r.sky
            );
            disagreements += 1;
        }
    }
    assert!(disagreements <= 3, "{disagreements} borderline disagreements");
    // Most objects must resolve without any sampling.
    let stats = resolution_stats(&ladder);
    assert!(stats.by_bounds + stats.by_exact >= ladder.len() * 9 / 10, "{stats:?}");
}

#[test]
fn elicited_preferences_flow_into_skyline_probabilities() {
    // Ballots -> preferences -> sky, validated against naive enumeration.
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![1, 0], vec![0, 1]]).unwrap();
    let mut b = ElicitationBuilder::new(0.0);
    b.record_tally(
        DimId(0),
        ValueId(0),
        ValueId(1),
        VoteTally { wins_a: 3, wins_b: 5, abstain: 2 },
    )
    .unwrap();
    b.record_tally(
        DimId(1),
        ValueId(0),
        ValueId(1),
        VoteTally { wins_a: 6, wins_b: 2, abstain: 2 },
    )
    .unwrap();
    let prefs = b.build().unwrap();
    // sky(O) with O = (0,0): attackers (1,0) needs 1≺0 on d0 (p = 0.5),
    // (0,1) needs 1≺0 on d1 (p = 0.2). Disjoint coins -> product form.
    let sky = skyline_probability(&t, &prefs, ObjectId(0)).unwrap();
    assert!((sky - 0.5 * 0.8).abs() < 1e-12, "{sky}");
    let naive = sky_naive_worlds(&t, &prefs, ObjectId(0), NaiveOptions::default()).unwrap();
    assert!((sky - naive).abs() < 1e-12);
}

#[test]
fn profile_predicts_exact_feasibility() {
    let prefs = SeededPreferences::complementary(5);
    // Block-zipf: the planned shape (what `skyprob profile` prints) must
    // have components bounded by the block.
    let cfg = BlockZipfConfig::new(320, 4, 3);
    let table = generate_block_zipf(cfg).unwrap();
    let plan = presky::query::engine::plan_one(
        &table,
        &prefs,
        ObjectId(7),
        Algorithm::default(),
        PrepareOptions::full(),
        &mut SkyScratch::default(),
        &mut PipelineStats::default(),
    )
    .unwrap();
    let largest = plan.shape().largest;
    assert!(largest <= cfg.block_size);
    // The prediction holds: Det+ succeeds with that very limit.
    let det = DetOptions::default().with_max_attackers(cfg.block_size);
    let mut stats = PipelineStats::default();
    presky::query::engine::solve_one(
        &table,
        &prefs,
        ObjectId(7),
        Algorithm::Exact { det },
        PrepareOptions::full(),
        &mut SkyScratch::default(),
        &mut stats,
    )
    .unwrap();
    assert_eq!(stats.largest_component, largest as u64);
}
