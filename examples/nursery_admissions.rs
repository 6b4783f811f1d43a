//! Nursery admissions — the paper's real-data scenario (Section 6,
//! Figure 15).
//!
//! Each of the 12 960 Nursery instances is an application to a nursery
//! school described by 8 categorical attributes; the school ranks
//! applications by preferences over attribute values that vary across
//! committee members — exactly the uncertain-preference model.
//! "Semantically, an instance's skyline probability is its possibility to
//! be accepted by the school as a good application."
//!
//! The example scores a handful of applications on the full 8-d data set,
//! then runs the all-objects probabilistic skyline on the 4-d variant.
//!
//! Run with: `cargo run --release --example nursery_admissions`

use presky::prelude::*;
use presky::query::engine::solve_one;

fn main() {
    // The paper generates synthetic preferences for the 8 attributes; we do
    // the same with a seeded model so the run is reproducible.
    let prefs = SeededPreferences::complementary(2013);

    // --- Full 8-attribute data set: score a few applications. ------------
    let full = nursery_table().expect("generator is deterministic");
    println!("Nursery: {} applications x {} attributes", full.len(), full.dimensionality());

    let picks = [0usize, 647, 6_480, 12_959];
    // Sam+ is the engine's forced-sampling plan after its full Prepare stage.
    println!("\nPer-application acceptance probability (Sam+, 3000 samples):");
    let sam_plus = Algorithm::Sampling(SamOptions::default());
    let mut scratch = SkyScratch::default();
    for &row in &picks {
        let target = ObjectId::from(row);
        let mut stats = PipelineStats::default();
        let out = solve_one(
            &full,
            &prefs,
            target,
            sam_plus,
            PrepareOptions::full(),
            &mut scratch,
            &mut stats,
        )
        .expect("valid instance");
        println!(
            "  #{row:>5} {}  sky ≈ {:.4}   ({} of {} attackers left after preprocessing)",
            full.display_row(target),
            out.sky,
            stats.survivors,
            stats.attackers_in,
        );
    }

    // --- 4-attribute variant: the admission committee looks only at the
    //     family attributes. The 240 distinct profiles are few enough for
    //     the adaptive exact/threshold query. --------------------------------
    let small = nursery_projected(4).expect("generator is deterministic");
    let tau = 0.005;
    let accepted = probabilistic_skyline(&small, &prefs, tau, QueryOptions::default())
        .expect("valid instance");
    println!(
        "\n4-d variant: {} distinct profiles; {} have sky(O) >= {tau}",
        small.len(),
        accepted.len()
    );
    for r in accepted.iter().take(5) {
        println!(
            "  {}  sky = {:.4}{}",
            small.display_row(r.object),
            r.sky,
            if r.exact { "" } else { "  (estimated)" }
        );
    }

    // Top-3 applications overall on the 4-d variant, served by the
    // resident engine.
    let engine = Engine::new(small, prefs, EngineOptions::default()).expect("valid instance");
    let response = engine.run(Request::top_k(3, TopKOptions::default())).expect("valid instance");
    let top = response.outcome.value().as_top_k().expect("top-k request yields a ranking");
    println!("\nTop-3 profiles by acceptance probability:");
    for (rank, r) in top.iter().enumerate() {
        println!(
            "  {}. {}  sky = {:.4}",
            rank + 1,
            engine.snapshot().table().display_row(r.object),
            r.sky
        );
    }
}
