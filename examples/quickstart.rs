//! Quickstart: compute one object's skyline probability four ways.
//!
//! Uses Example 1 of the paper (five 2-d objects, every value preference ½)
//! and shows the exact answer (3/16), why the independence-assuming
//! baseline is wrong (9/64), and how the `(ε, δ)` sampler converges.
//!
//! Run with: `cargo run --example quickstart`

use presky::prelude::*;
use presky::query::engine::solve_one;

fn main() {
    // O = (o1, o2), Q1 = (a, b), Q2 = (a, o2), Q3 = (c, e), Q4 = (o1, b).
    // Value codes: dim0 {o1=0, a=1, c=2}, dim1 {o2=0, b=1, e=2}.
    let table =
        Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
            .expect("valid rows");

    // "All attribute values are equally preferred with probability 0.5."
    let prefs = TablePreferences::with_default(PrefPair::half());
    let target = ObjectId(0);

    // 1. Exact, via inclusion–exclusion (Algorithm 1).
    let det = sky_det(&table, &prefs, target, DetOptions::default()).expect("small instance");
    println!("Det   : sky(O) = {:.6}  ({} joint probabilities)", det.sky, det.joints_computed);

    // 2. Exact, with absorption + partition preprocessing (Det+): the
    //    query engine's full Prepare stage, then a forced-exact plan.
    let (mut scratch, mut stats) = (SkyScratch::default(), PipelineStats::default());
    let det_plus = Algorithm::Exact { det: DetOptions::default() };
    let detp = solve_one(
        &table,
        &prefs,
        target,
        det_plus,
        PrepareOptions::full(),
        &mut scratch,
        &mut stats,
    )
    .expect("small instance");
    println!(
        "Det+  : sky(O) = {:.6}  ({} absorbed, {} components, {} joints)",
        detp.sky, stats.absorbed, stats.components, stats.joints_computed
    );

    // 3. The independence-assuming baseline — wrong whenever attackers
    //    share values.
    let sac = sky_sac(&table, &prefs, target).expect("valid instance");
    println!("Sac   : sky(O) = {sac:.6}  (independence assumption; should be 0.187500)");

    // 4. Monte-Carlo with the Hoeffding (ε, δ) guarantee.
    let opts = SamOptions::hoeffding(0.01, 0.01, 42).expect("valid parameters");
    let sam = sky_sam(&table, &prefs, target, opts).expect("valid instance");
    println!(
        "Sam   : sky(O) ≈ {:.6}  ({} samples, {} lazy coin draws)",
        sam.estimate, sam.samples, sam.coin_draws
    );

    assert!((det.sky - 3.0 / 16.0).abs() < 1e-12);
    assert!((detp.sky - det.sky).abs() < 1e-12);
    assert!((sac - 9.0 / 64.0).abs() < 1e-12);
    assert!((sam.estimate - det.sky).abs() < 0.01);
    println!("\nAll four agree with the paper: exact 3/16 = 0.1875, Sac's incorrect 9/64.");
}
