//! Degenerate-preference consistency: when every preference is 0/1, the
//! probabilistic machinery must collapse to classical skyline computation.

use proptest::prelude::*;

use presky::prelude::*;

fn decode_row(mut idx: usize, d: usize, base: usize) -> Vec<u32> {
    let mut row = Vec::with_capacity(d);
    for _ in 0..d {
        row.push((idx % base) as u32);
        idx /= base;
    }
    row
}

fn distinct_table() -> impl Strategy<Value = Table> {
    (2usize..=3).prop_flat_map(|d| {
        let base = 5usize;
        let space = base.pow(d as u32);
        (4usize..=10).prop_flat_map(move |n| {
            proptest::collection::btree_set(0..space, n.min(space)).prop_map(move |idxs| {
                let rows: Vec<Vec<u32>> = idxs.iter().map(|&i| decode_row(i, d, base)).collect();
                Table::from_rows_raw(d, &rows).expect("valid rows")
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certain_order_collapses_to_bnl(table in distinct_table()) {
        let order = DeterministicOrder::ascending();
        let bnl = skyline_bnl(&table, &Degenerate(order));
        let sfs = skyline_sfs(&table, order);
        prop_assert_eq!(&bnl, &sfs, "the two certain-skyline algorithms agree");

        for target in table.objects() {
            let expected = if bnl.contains(&target) { 1.0 } else { 0.0 };
            let det = sky_det(&table, &order, target, DetOptions::default()).unwrap().sky;
            prop_assert_eq!(det, expected, "Det on target {}", target);
            let detp = skyline_probability(&table, &order, target).unwrap();
            prop_assert_eq!(detp, expected, "Det+ on target {}", target);
            let sam = sky_sam(&table, &order, target, SamOptions::with_samples(64, 5))
                .unwrap()
                .estimate;
            prop_assert_eq!(sam, expected, "Sam is exact under certain preferences");
            let sac = sky_sac(&table, &order, target).unwrap();
            // Sac multiplies (1 - Pr(e_i)) ∈ {0,1}: also exact here.
            prop_assert_eq!(sac, expected, "Sac on target {}", target);
        }
    }

    #[test]
    fn descending_order_mirrors_ascending_on_mirrored_data(table in distinct_table()) {
        // Negating the value codes (within the 0..5 range: v -> 4-v) and
        // flipping the order must give the same skyline.
        let d = table.dimensionality();
        let mirrored_rows: Vec<Vec<u32>> = table
            .objects()
            .map(|o| table.row(o).iter().map(|v| 4 - v.0).collect())
            .collect();
        let mirrored = Table::from_rows_raw(d, &mirrored_rows).unwrap();
        let a = skyline_bnl(&table, &Degenerate(DeterministicOrder::ascending()));
        let b = skyline_bnl(&mirrored, &Degenerate(DeterministicOrder::descending()));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn one_dimension_distinct_values_make_sac_exact(n in 2usize..10) {
        // d = 1 with all-distinct values: every pair of attackers relates
        // to the target through *different* coins... actually every
        // attacker has exactly one coin and coins are distinct, so
        // dominance events are independent and Sac equals Det — the paper's
        // remark that d = 1 is polynomial.
        let rows: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
        let table = Table::from_rows_raw(1, &rows).unwrap();
        let prefs = SeededPreferences::complementary(9);
        for target in table.objects() {
            let view = CoinView::build(&table, &prefs, target).unwrap();
            prop_assert!(sac_is_exact(&view));
            let sac = sky_sac_view(&view);
            let det = sky_det_view(&view, DetOptions::default()).unwrap().sky;
            prop_assert!((sac - det).abs() < 1e-12);
        }
    }
}

#[test]
fn realized_worlds_agree_with_certain_skyline() {
    // Sample worlds from an uncertain model; in each world the certain
    // skyline (BNL over the world) must contain exactly the objects no one
    // dominates — and the frequency of membership estimates sky.
    let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
    let prefs = TablePreferences::with_default(PrefPair::half());
    let pairs = relevant_pairs_all(&table);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let trials = 20_000;
    let mut member = vec![0usize; table.len()];
    for _ in 0..trials {
        let world = sample_world(&pairs, &prefs, &mut rng);
        for obj in skyline_bnl(&table, &world) {
            member[obj.index()] += 1;
        }
    }
    let oracle = all_sky_naive(&table, &prefs, 16).unwrap();
    for (i, &count) in member.iter().enumerate() {
        let freq = count as f64 / trials as f64;
        assert!(
            (freq - oracle[i]).abs() < 0.02,
            "object {i}: frequency {freq} vs sky {}",
            oracle[i]
        );
    }
}

use rand::SeedableRng;
