//! End-to-end tests over the paper's workload generators: the structural
//! properties each experiment relies on actually hold.

use presky::prelude::*;
use presky::query::engine::solve_one;

/// One target through the engine's full Prepare stage and `algo`'s plan —
/// `Det+` for a forced-exact plan, `Sam+` for forced sampling — with the
/// stage counters.
fn solve<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    algo: Algorithm,
) -> (SkyResult, PipelineStats) {
    let (mut scratch, mut stats) = (SkyScratch::default(), PipelineStats::default());
    let r = solve_one(table, prefs, target, algo, PrepareOptions::full(), &mut scratch, &mut stats)
        .unwrap();
    (r, stats)
}

#[test]
fn blockzipf_components_never_span_blocks() {
    let cfg = BlockZipfConfig::new(200, 4, 5);
    let table = generate_block_zipf(cfg).unwrap();
    let prefs = SeededPreferences::complementary(1);
    for target in [ObjectId(0), ObjectId(77), ObjectId(199)] {
        let view = CoinView::build(&table, &prefs, target).unwrap();
        for group in partition(&view) {
            let blocks: std::collections::BTreeSet<usize> =
                group.iter().map(|&i| view.source(i).index() / cfg.block_size).collect();
            assert_eq!(blocks.len(), 1, "component {group:?} spans blocks {blocks:?}");
            assert!(group.len() <= cfg.block_size);
        }
    }
}

#[test]
fn detplus_equals_sampling_on_blockzipf() {
    let table = generate_block_zipf(BlockZipfConfig::new(300, 3, 11)).unwrap();
    let prefs = SeededPreferences::complementary(2);
    for target in [ObjectId(4), ObjectId(150), ObjectId(299)] {
        let det = DetOptions::default().with_max_attackers(40);
        let exact = solve(&table, &prefs, target, Algorithm::Exact { det }).0.sky;
        let est =
            sky_sam(&table, &prefs, target, SamOptions::with_samples(30_000, 9)).unwrap().estimate;
        assert!((exact - est).abs() < 0.012, "target {target}: exact {exact} vs est {est}");
    }
}

#[test]
fn nursery_absorption_keeps_exactly_the_single_coin_attackers() {
    // On a full Cartesian product, every attacker differing from O on two
    // or more dimensions is absorbed by one differing on a subset — the
    // minimal clauses are exactly the Σ_j (|domain_j| − 1) single-coin
    // attackers.
    let table = nursery_projected(4).unwrap();
    let prefs = SeededPreferences::complementary(3);
    let expected: usize = DOMAINS[..4].iter().map(|d| d.len() - 1).sum();
    for target in [ObjectId(0), ObjectId(100), ObjectId(239)] {
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let kept = absorb(&view).kept;
        assert_eq!(kept.len(), expected, "target {target}");
        let reduced = view.restrict(&kept);
        assert!(reduced.attackers().iter().all(|a| a.coins.len() == 1));
        // Consequently sky factorises into the independent product.
        let sky = skyline_probability(&table, &prefs, target).unwrap();
        let product: f64 =
            (0..reduced.n_attackers()).map(|i| 1.0 - reduced.attacker_prob(i)).product();
        assert!((sky - product).abs() < 1e-12);
    }
}

#[test]
fn nursery_8d_pipeline_is_fast_and_consistent() {
    let table = nursery_table().unwrap();
    let prefs = SeededPreferences::complementary(3);
    let target = ObjectId(6_480);
    let start = std::time::Instant::now();
    let det = DetOptions::default();
    let (exact, stats) = solve(&table, &prefs, target, Algorithm::Exact { det });
    assert!(start.elapsed().as_secs() < 30, "Det+ must stay fast on Nursery");
    assert_eq!(stats.attackers_in, 12_959);
    let expected: usize = DOMAINS.iter().map(|d| d.len() - 1).sum();
    assert_eq!(stats.attackers_in - stats.absorbed, expected as u64);
    let est =
        sky_sam(&table, &prefs, target, SamOptions::with_samples(20_000, 17)).unwrap().estimate;
    assert!((exact.sky - est).abs() < 0.015, "exact {} vs est {est}", exact.sky);
}

#[test]
fn uniform_generator_supports_the_exact_experiments() {
    // n = 20, d = 5: Det must be able to finish (2^19 joints at worst).
    let table = generate_uniform(UniformConfig::new(20, 5, 7)).unwrap();
    let prefs = SeededPreferences::complementary(5);
    let det =
        sky_det(&table, &prefs, ObjectId(0), DetOptions::default().with_max_attackers(25)).unwrap();
    let exact = Algorithm::Exact { det: DetOptions::default().with_max_attackers(25) };
    let (detp, stats) = solve(&table, &prefs, ObjectId(0), exact);
    assert!((det.sky - detp.sky).abs() < 1e-9);
    assert!(
        stats.joints_computed <= det.joints_computed,
        "preprocessing never increases work: {} vs {}",
        stats.joints_computed,
        det.joints_computed
    );
}

#[test]
fn structured_preferences_shift_skyline_mass() {
    // Correlated: few strong winners. Anti-correlated: many middling
    // objects (Figure 8's point).
    let table = generate_block_zipf(BlockZipfConfig::new(96, 4, 13)).unwrap();
    let strong = 0.95;
    let run = |prefs: &StructuredPreferences| -> (usize, f64) {
        let engine = Engine::new(table.clone(), prefs.clone(), EngineOptions::default()).unwrap();
        let opts = QueryOptions::default()
            .with_algorithm(Algorithm::Adaptive {
                exact_component_limit: 18,
                sam: SamOptions::with_samples(2000, 1),
            })
            .with_threads(Some(2));
        let response = engine.run(Request::all_sky(opts)).unwrap();
        let results: Vec<SkyResult> =
            response.outcome.value().as_all_sky().unwrap().iter().flatten().copied().collect();
        let winners = results.iter().filter(|r| r.sky > 0.5).count();
        let mass: f64 = results.iter().map(|r| r.sky).sum();
        (winners, mass)
    };
    let (corr_winners, corr_mass) = run(&StructuredPreferences::correlated(4, strong));
    let (anti_winners, anti_mass) = run(&StructuredPreferences::anti_correlated(4, strong));
    assert!(corr_winners >= 1);
    assert!(
        anti_mass > corr_mass,
        "anti-correlated spreads more total skyline mass: {anti_mass} vs {corr_mass}"
    );
    let _ = anti_winners;
}

#[test]
fn block_scoped_preferences_reproduce_the_samplus_advantage() {
    // Under the block-scoped reading (preferences materialised only within
    // blocks), every cross-block attacker is impossible; Sam+ prunes them
    // before sampling while Sam drags all n − 1 attackers through every
    // world. This is the regime where the paper's "Sam+ below Sam" shape
    // emerges.
    let cfg = BlockZipfConfig::new(4_000, 5, 3);
    let table = generate_block_zipf(cfg).unwrap();
    let prefs =
        BlockScopedPreferences::new(SeededPreferences::complementary(42), cfg.values_per_block);
    let target = ObjectId(123);
    let m = 2_000;
    let sam = sky_sam(&table, &prefs, target, SamOptions::with_samples(m, 1)).unwrap();
    let sampling = Algorithm::Sampling(SamOptions::with_samples(m, 1));
    let (plus, stats) = solve(&table, &prefs, target, sampling);
    // Pruning removes every attacker outside the target's block.
    assert!(stats.pruned_impossible >= (4_000 - cfg.block_size) as u64);
    assert!(
        stats.attacker_checks * 10 <= sam.attacker_checks,
        "Sam+ checks {} vs Sam checks {}",
        stats.attacker_checks,
        sam.attacker_checks
    );
    // Both still agree with the exact value (which is now non-degenerate).
    let exact = skyline_probability(&table, &prefs, target).unwrap();
    assert!(exact > 0.001 && exact < 0.999, "non-degenerate sky: {exact}");
    assert!((sam.estimate - exact).abs() < 0.05);
    assert!((plus.sky - exact).abs() < 0.05);
}

#[test]
fn table1_ranges_are_generable() {
    // Every synthetic configuration of Table 1 must materialise (the
    // largest block-zipf is exercised at reduced size in CI-speed tests;
    // the harness runs the full 100K).
    for &n in &[10usize, 20, 40, 50] {
        for &d in &[2usize, 3, 4, 5] {
            let t = generate_uniform(UniformConfig::new(n, d, 1)).unwrap();
            assert_eq!((t.len(), t.dimensionality()), (n, d));
        }
    }
    for &n in &[10usize, 1_000, 10_000] {
        let t = generate_block_zipf(BlockZipfConfig::new(n, 5, 1)).unwrap();
        assert_eq!(t.len(), n);
    }
}
