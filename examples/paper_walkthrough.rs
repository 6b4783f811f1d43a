//! Paper walkthrough — every worked number of the paper, recomputed.
//!
//! Follows the text end to end:
//!
//! 1. the Section 1 Observation (Figures 1–2): why independent object
//!    dominance fails;
//! 2. Example 1 (Figure 4): the inclusion–exclusion layers
//!    `1 − 3/2 + 17/16 − 7/16 + 1/16 = 3/16`;
//! 3. Section 5: absorption of `Q1` and the three-way partition;
//! 4. Theorem 1: the positive-DNF reduction on the paper's own formula.
//!
//! Run with: `cargo run --example paper_walkthrough`

use presky::prelude::*;
use presky::query::engine::solve_one;

fn observation() {
    println!("== Observation (Section 1, Figures 1-2) ==");
    // P1=(α,s), P2=(α,t), P3=(β,t); all preferences ½.
    let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
    let prefs = TablePreferences::with_default(PrefPair::half());

    let p21 = pr_dominates(&table, &prefs, ObjectId(1), ObjectId(0));
    let p31 = pr_dominates(&table, &prefs, ObjectId(2), ObjectId(0));
    println!("Pr(P2 ≺ P1) = {p21}   Pr(P3 ≺ P1) = {p31}");

    let sac = sky_sac(&table, &prefs, ObjectId(0)).unwrap();
    let truth = sky_naive_worlds(&table, &prefs, ObjectId(0), NaiveOptions::default()).unwrap();
    println!("Sac (independent dominance): sky(P1) = {sac}  <- 3/8, wrong");
    println!("Naive sample-space sum     : sky(P1) = {truth}  <- 1/2, correct");
    assert!((sac - 0.375).abs() < 1e-12 && (truth - 0.5).abs() < 1e-12);

    // Sac is right for P2 (its attackers share no values).
    let sac2 = sky_sac(&table, &prefs, ObjectId(1)).unwrap();
    let truth2 = sky_naive_worlds(&table, &prefs, ObjectId(1), NaiveOptions::default()).unwrap();
    println!("For P2 the attackers are value-disjoint: Sac {sac2} == truth {truth2}\n");
    assert_eq!(sac2, truth2);
}

fn example1() {
    println!("== Example 1 (Section 2, Figure 4) ==");
    let table =
        Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
            .unwrap();
    let prefs = TablePreferences::with_default(PrefPair::half());
    let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();

    println!("Dominance probabilities (Equation 2):");
    for i in 0..view.n_attackers() {
        println!("  Pr(e{}) = {}", view.source(i).0, view.attacker_prob(i));
    }

    // The inclusion–exclusion layer sums, via the literal Algorithm 1
    // truncations: levels end after 4, 10, 14, 15 joints.
    let l1 = sky_a2(&view, 4).unwrap().estimate; // 1 - 3/2
    let l2 = sky_a2(&view, 10).unwrap().estimate; // + 17/16
    let l3 = sky_a2(&view, 14).unwrap().estimate; // - 7/16
    let l4 = sky_a2(&view, 15).unwrap().estimate; // + 1/16
    println!("Layer sums: 1 - 3/2 = {l1}, +17/16 = {l2}, -7/16 = {l3}, +1/16 = {l4}");
    assert!((l4 - 3.0 / 16.0).abs() < 1e-12);

    let sac = sky_sac_view(&view);
    println!("sky(O) = {l4} = 3/16; the independence assumption would give {sac} = 9/64\n");
}

fn preprocessing() {
    println!("== Absorption and partition (Section 5) ==");
    let table =
        Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
            .unwrap();
    let prefs = TablePreferences::with_default(PrefPair::half());
    // Det+ is the engine's forced-exact plan after its full Prepare stage.
    let det_plus = Algorithm::Exact { det: DetOptions::default() };
    let (mut scratch, mut stats) = (SkyScratch::default(), PipelineStats::default());
    let out = solve_one(
        &table,
        &prefs,
        ObjectId(0),
        det_plus,
        PrepareOptions::full(),
        &mut scratch,
        &mut stats,
    )
    .unwrap();
    println!(
        "Q1 absorbed ({} object), remaining objects split into {} independent sets (largest {})",
        stats.absorbed, stats.components, stats.largest_component
    );
    println!(
        "sky(O) = Π Pr(ē_i) = {} with only {} joint probabilities (Det alone needs 15)\n",
        out.sky, stats.joints_computed
    );
    assert_eq!(stats.joints_computed, 3);
}

fn theorem1() {
    println!("== Theorem 1: positive-DNF reduction ==");
    // (x1 ∧ x3) ∨ (x2 ∧ x4) ∨ (x3 ∧ x4), zero-indexed in code.
    let f = PositiveDnf::paper_example();
    let brute = f.count_satisfying_brute().unwrap();
    let via_sky = f.count_via_sky(DetOptions::default()).unwrap();
    let (table, prefs, target) = f.to_table_instance();
    let sky = sky_det(&table, &prefs, target, DetOptions::default()).unwrap().sky;
    println!("formula: (x1∧x3) ∨ (x2∧x4) ∨ (x3∧x4) over 4 variables");
    println!("brute-force model count U = {brute}");
    println!("sky(O) on the reduced instance = {sky}; U = (1 − sky)·2⁴ = {via_sky}");
    assert_eq!(brute, via_sky);
}

fn main() {
    observation();
    example1();
    preprocessing();
    theorem1();
    println!("\nEvery number matches the paper.");
}
