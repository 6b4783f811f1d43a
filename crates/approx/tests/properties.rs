//! Property-based tests of the approximation layer on synthetic clause
//! systems.

use proptest::prelude::*;

use presky_core::bitworlds::{block_lane_mask, survivors_block, BlockScratch};
use presky_core::coins::CoinView;
use presky_core::preference::{PrefPair, TablePreferences};
use presky_core::table::Table;
use presky_core::types::ObjectId;
use presky_exact::det::{sky_det_view, DetOptions};

use presky_approx::a1::sky_a1;
use presky_approx::a2::{sky_a2, sky_a2_big};
use presky_approx::bounds::{hoeffding_delta, hoeffding_epsilon, hoeffding_samples};
use presky_approx::karp_luby::{sky_karp_luby_view, KarpLubyOptions};
use presky_approx::sac::{sac_is_exact, sky_sac_view};
use presky_approx::sampler::{sky_sam_view, SamOptions};
use presky_exact::absorption::absorb;

/// `Sam+`'s preprocessing of a bare view: drop the attackers holding an
/// impossible coin, then the absorbed ones.
fn sam_plus_view(view: &CoinView) -> CoinView {
    let mut work = view.clone();
    work.prune_impossible();
    work.restrict(&absorb(&work).kept)
}

/// Example 1 of the paper (Fig. 1–2): sky(O) = 3/16 with all pairwise
/// value preferences one half.
fn example1_view() -> CoinView {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
        .unwrap();
    let p = TablePreferences::with_default(PrefPair::half());
    CoinView::build(&t, &p, ObjectId(0)).unwrap()
}

/// The Observation of Section 1: sky(P1) = 1/2 — P2 and P3 share the
/// value `t`, so their dominance events are dependent.
fn observation_view() -> CoinView {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
    let p = TablePreferences::with_default(PrefPair::half());
    CoinView::build(&t, &p, ObjectId(0)).unwrap()
}

/// The bit-parallel kernel honours the paper's additive Hoeffding budget
/// on the ground-truth fixtures: at (ε, δ) = (0.01, 0.01) every seed's
/// estimate lands within ε of the enumerated truth.
#[test]
fn kernel_meets_tight_epsilon_on_paper_fixtures() {
    let eps = 0.01;
    let m = hoeffding_samples(eps, 0.01).unwrap();
    for (view, truth) in [(example1_view(), 3.0 / 16.0), (observation_view(), 0.5)] {
        let enumerated = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        assert!((enumerated - truth).abs() < 1e-12, "fixture truth");
        for seed in 0..5 {
            let out = sky_sam_view(&view, SamOptions::with_samples(m, seed)).unwrap();
            assert!((out.estimate - truth).abs() < eps, "seed {seed}: {} vs {truth}", out.estimate);
        }
    }
}

fn clause_system() -> impl Strategy<Value = CoinView> {
    (2usize..=6).prop_flat_map(|m| {
        let probs = proptest::collection::vec(0.0f64..=1.0, m);
        let clauses = proptest::collection::vec(1u32..(1 << m as u32), 1..=6);
        (probs, clauses).prop_map(move |(probs, masks)| {
            let clauses: Vec<Vec<u32>> = masks
                .into_iter()
                .map(|mask| (0..m as u32).filter(|&b| mask & (1 << b) != 0).collect())
                .collect();
            CoinView::from_parts(probs, clauses).expect("valid system")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn estimators_stay_in_range_and_near_truth(view in clause_system()) {
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let sam = sky_sam_view(&view, SamOptions::with_samples(4000, 3)).unwrap();
        prop_assert!((0.0..=1.0).contains(&sam.estimate));
        prop_assert!((sam.estimate - truth).abs() < 0.08, "{} vs {truth}", sam.estimate);

        let samp = sky_sam_view(&sam_plus_view(&view), SamOptions::with_samples(4000, 3)).unwrap();
        prop_assert!((samp.estimate - truth).abs() < 0.08, "{} vs {truth}", samp.estimate);

        let kl = sky_karp_luby_view(&view, KarpLubyOptions::default().with_samples(4000).with_seed(3))
            .unwrap();
        prop_assert!((0.0..=1.0).contains(&kl.estimate));
        prop_assert!((kl.estimate - truth).abs() < 0.08, "{} vs {truth}", kl.estimate);
    }

    #[test]
    fn lazy_and_eager_sampling_are_both_unbiased_but_lazy_draws_less(
        view in clause_system()
    ) {
        let lazy = sky_sam_view(&view, SamOptions::with_samples(2000, 5)).unwrap();
        let eager = sky_sam_view(
            &view,
            SamOptions::with_samples(2000, 5).with_lazy(false),
        )
        .unwrap();
        prop_assert!(lazy.coin_draws <= eager.coin_draws);
        prop_assert_eq!(eager.coin_draws, 2000 * view.n_coins() as u64);
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        prop_assert!((lazy.estimate - truth).abs() < 0.1);
        prop_assert!((eager.estimate - truth).abs() < 0.1);
    }

    #[test]
    fn samplus_check_budget_shrinks_with_the_attacker_set(view in clause_system()) {
        let m = 1000u64;
        let reduced = sam_plus_view(&view);
        let plus = sky_sam_view(&reduced, SamOptions::with_samples(m, 9)).unwrap();
        // Per-world checks are bounded by the preprocessed attacker count,
        // not the raw one — the whole point of Sam+.
        prop_assert!(reduced.n_attackers() <= view.n_attackers());
        prop_assert!(plus.attacker_checks <= m * reduced.n_attackers() as u64);
        prop_assert_eq!(plus.samples, m);
    }

    #[test]
    fn a1_and_a2_converge_to_exact_at_full_budget(view in clause_system()) {
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let n = view.n_attackers();
        let a1 = sky_a1(&view, n, DetOptions::default()).unwrap();
        prop_assert!((a1.estimate - truth).abs() < 1e-9);
        let a2 = sky_a2(&view, u64::MAX).unwrap();
        prop_assert!(a2.complete);
        prop_assert!((a2.estimate - truth).abs() < 1e-9);
        let a2b = sky_a2_big(&view, u64::MAX);
        prop_assert!((a2b.estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn sac_exactness_detector_is_sound(view in clause_system()) {
        if sac_is_exact(&view) {
            let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
            prop_assert!((sky_sac_view(&view) - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn hoeffding_arithmetic_is_self_consistent(
        eps in 0.001f64..0.5,
        delta in 0.001f64..0.5,
    ) {
        let m = hoeffding_samples(eps, delta).unwrap();
        prop_assert!(m >= 1);
        // The achieved epsilon at that m is no worse than requested.
        let achieved = hoeffding_epsilon(m, delta).unwrap();
        prop_assert!(achieved <= eps + 1e-12);
        // And the achieved delta at (m, eps) is no worse than requested.
        let d = hoeffding_delta(m, eps).unwrap();
        prop_assert!(d <= delta + 1e-12);
    }

    #[test]
    fn scalar_and_bit_parallel_kernels_agree_within_shared_hoeffding_budget(
        view in clause_system()
    ) {
        // Both kernels consume the same (ε, δ) contract, so with
        // probability ≥ 1 − 2δ their estimates sit within 2ε of each
        // other (each within ε of the truth). δ = 10⁻⁶ makes a spurious
        // failure over 64 cases essentially impossible.
        let m = 4000;
        let bound = 2.0 * hoeffding_epsilon(m, 1e-6).unwrap();
        let kernel = sky_sam_view(&view, SamOptions::with_samples(m, 7)).unwrap();
        let scalar = sky_sam_view(
            &view,
            SamOptions::with_samples(m, 7).with_bit_parallel(false),
        )
        .unwrap();
        prop_assert!(
            (kernel.estimate - scalar.estimate).abs() <= bound,
            "kernel {} vs scalar {} (bound {bound})",
            kernel.estimate,
            scalar.estimate
        );
    }

    #[test]
    fn kernel_matches_the_narrow_reference_bit_for_bit(
        view in clause_system(),
        seed in 0u64..1000,
        lazy in any::<bool>(),
    ) {
        // The sampler runs 256-world superblocks, through the AVX2 build
        // where the CPU has it; word w of superblock sb is keyed as block
        // 4·sb + w. The portable single-word walk over those blocks must
        // give the same hits and the same lane-weighted telemetry. 700
        // worlds end in a partial word of a partial superblock.
        let m = 700;
        let out = sky_sam_view(&view, SamOptions::with_samples(m, seed).with_lazy(lazy)).unwrap();
        let order = view.checking_sequence();
        let mut narrow = BlockScratch::default();
        narrow.prepare(&view);
        let hits: u64 = (0..m.div_ceil(64))
            .map(|b| {
                let live = survivors_block(&view, &order, seed, b, block_lane_mask(m, b), lazy, &mut narrow);
                u64::from(live.count_ones())
            })
            .sum();
        prop_assert_eq!(out.skyline_hits, hits);
        prop_assert_eq!(out.estimate.to_bits(), (hits as f64 / m as f64).to_bits());
        prop_assert_eq!(out.coin_draws, narrow.coin_draws);
        prop_assert_eq!(out.attacker_checks, narrow.attacker_checks);
    }

    #[test]
    fn karp_luby_union_mass_bounds(view in clause_system()) {
        let kl = sky_karp_luby_view(&view, KarpLubyOptions::default().with_samples(500).with_seed(1))
            .unwrap();
        // The unclamped union estimate lies in [max_i Pr(e_i) / n, M]...
        // more loosely: in [0, M].
        prop_assert!(kl.union_estimate >= -1e-12);
        prop_assert!(kl.union_estimate <= kl.total_mass + 1e-12);
    }
}
