//! Music catalogue — the introduction's "music fan" motivation, at scale.
//!
//! "A music fan prefers Mozart's brisk minuet while another may like
//! Beethoven's pastoral symphony": population-level preferences over
//! categorical attributes are inherently probabilistic. This example builds
//! a synthetic catalogue with block-zipf structure (labels grouped by
//! era/catalogue block), attaches population preferences — including
//! genuine *incomparability* mass via the simplex law — and contrasts:
//!
//! * the exact `Det+` answer (feasible here thanks to absorption and
//!   partition),
//! * the `Sam`/`Sam+` estimates and their measured error,
//! * the correlated vs anti-correlated preference regimes of Figure 8.
//!
//! Run with: `cargo run --release --example music_catalogue`

use presky::prelude::*;
use presky::query::engine::solve_one;

fn main() {
    // 240 recordings over 4 attributes (composer block, tempo, mood,
    // recording quality), block-zipf so popular values dominate each block.
    let cfg = BlockZipfConfig::new(240, 4, 99);
    let catalogue = generate_block_zipf(cfg).expect("valid configuration");
    println!(
        "Catalogue: {} recordings x {} attributes ({} value-disjoint blocks)",
        catalogue.len(),
        catalogue.dimensionality(),
        cfg.n_blocks()
    );

    // Population preferences with incomparability (some listener pairs just
    // cannot rank a minuet against a symphony).
    let prefs = SeededPreferences::new(7, PairLaw::Simplex);
    let target = ObjectId(17);

    // Exact via Det+ (the engine's full Prepare stage and a forced-exact
    // plan) — feasible because blocks bound component sizes.
    let mut scratch = SkyScratch::default();
    let mut solve = |algo| {
        let mut stats = PipelineStats::default();
        let out = solve_one(
            &catalogue,
            &prefs,
            target,
            algo,
            PrepareOptions::full(),
            &mut scratch,
            &mut stats,
        )
        .expect("block structure keeps components small");
        (out, stats)
    };
    let (exact, stats) =
        solve(Algorithm::Exact { det: DetOptions::default().with_max_attackers(40) });
    println!(
        "\nDet+  : sky = {:.6}  (attackers {} -> absorbed {}, largest component {})",
        exact.sky, stats.attackers_in, stats.absorbed, stats.largest_component
    );

    // Sampling, with and without preprocessing (Sam+ is the engine's
    // forced-sampling plan).
    let sam = sky_sam(&catalogue, &prefs, target, SamOptions::with_samples(3000, 1))
        .expect("valid instance");
    let (samp, samp_stats) = solve(Algorithm::Sampling(SamOptions::with_samples(3000, 1)));
    println!(
        "Sam   : sky ≈ {:.6}  (|err| = {:.6}, {} attacker checks)",
        sam.estimate,
        (sam.estimate - exact.sky).abs(),
        sam.attacker_checks
    );
    println!(
        "Sam+  : sky ≈ {:.6}  (|err| = {:.6}, {} attacker checks after preprocessing)",
        samp.sky,
        (samp.sky - exact.sky).abs(),
        samp_stats.attacker_checks
    );
    assert!((sam.estimate - exact.sky).abs() < 0.05);
    assert!((samp.sky - exact.sky).abs() < 0.05);

    // Figure 8: the same data under correlated vs anti-correlated
    // *preference* structure.
    println!("\nFigure 8 regimes on the same catalogue (first 200 recordings):");
    let head = catalogue.head(200);
    for (name, model) in [
        ("correlated", StructuredPreferences::correlated(4, 0.9)),
        ("anti-correlated", StructuredPreferences::anti_correlated(4, 0.9)),
    ] {
        // One resident engine per preference regime: the catalogue is
        // indexed once and the whole batch runs through the service API.
        let engine =
            Engine::new(head.clone(), model, EngineOptions::default()).expect("valid instance");
        let response = engine
            .run(Request::all_sky(QueryOptions::default().with_algorithm(Algorithm::Adaptive {
                exact_component_limit: 22,
                sam: SamOptions::with_samples(2000, 5),
            })))
            .expect("valid instance");
        let results: Vec<SkyResult> = response
            .outcome
            .value()
            .as_all_sky()
            .expect("all-sky request yields per-object slots")
            .iter()
            .flatten()
            .copied()
            .collect();
        let strong = results.iter().filter(|r| r.sky >= 0.5).count();
        let middling = results.iter().filter(|r| (0.05..0.5).contains(&r.sky)).count();
        println!(
            "  {name:>15}: {strong:>3} recordings with sky >= 0.5, {middling:>3} in [0.05, 0.5)"
        );
    }
    println!(
        "\nCorrelated preferences concentrate probability on few winners; \
         anti-correlated spread it over many contenders — Figure 8 in action."
    );
}
