//! Property-based tests of the exact engines on synthetic clause systems
//! (weighted positive DNFs), independent of the table layer.

use proptest::prelude::*;

use presky_core::coins::CoinView;
use presky_exact::absorption::{absorb, absorbs};
use presky_exact::det::{sky_det_view, DetOptions};
use presky_exact::dnf::PositiveDnf;
use presky_exact::levelwise::{sky_levelwise, sky_levelwise_partial_big};
use presky_exact::naive::{sky_naive_coins, NaiveOptions};
use presky_exact::partition::partition;

/// Random clause systems: ≤ 6 coins, ≤ 6 clauses, arbitrary probabilities.
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_exact_engines_agree(view in clause_system()) {
        let truth = sky_naive_coins(&view, NaiveOptions::default()).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&truth));
        let det = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        prop_assert!((det - truth).abs() < 1e-9, "det {det} vs {truth}");
        let lw = sky_levelwise(&view, DetOptions::default()).unwrap().sky;
        prop_assert!((lw - truth).abs() < 1e-9, "levelwise {lw} vs {truth}");
        let (big, _, complete) = sky_levelwise_partial_big(&view, u64::MAX);
        prop_assert!(complete);
        prop_assert!((big - truth).abs() < 1e-9, "big {big} vs {truth}");
        // Det+'s stages: absorption, then Det per independent component.
        let reduced = view.restrict(&absorb(&view).kept);
        let dp: f64 = partition(&reduced)
            .iter()
            .map(|g| sky_det_view(&reduced.restrict(g), DetOptions::default()).unwrap().sky)
            .product();
        prop_assert!((dp - truth).abs() < 1e-9, "det+ {dp} vs {truth}");
    }

    #[test]
    fn independence_baseline_never_overestimates(view in clause_system()) {
        // The dominance events are increasing functions of independent
        // coins, hence positively associated (Harris/FKG):
        // P(no attacker wins) >= Π P(attacker i does not win).
        // The Sac product is therefore always a LOWER bound on sky.
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let product: f64 =
            (0..view.n_attackers()).map(|i| 1.0 - view.attacker_prob(i)).product();
        prop_assert!(
            product <= truth + 1e-9,
            "independence product {product} exceeds sky {truth}"
        );
    }

    #[test]
    fn absorption_keeps_exactly_the_subset_minimal_clauses(view in clause_system()) {
        let res = absorb(&view);
        // Brute-force minimality check.
        for i in 0..view.n_attackers() {
            let has_absorber = (0..view.n_attackers()).any(|j| {
                j != i
                    && absorbs(&view, j, i)
                    && !(view.attacker_coins(j) == view.attacker_coins(i) && j > i)
            });
            let kept = res.kept.contains(&i);
            prop_assert_eq!(kept, !has_absorber, "attacker {}", i);
        }
        // And removal is sound.
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let sky = sky_det_view(&view.restrict(&res.kept), DetOptions::default())
            .unwrap()
            .sky;
        prop_assert!((truth - sky).abs() < 1e-9);
    }

    #[test]
    fn partition_is_the_connected_components(view in clause_system()) {
        let groups = partition(&view);
        // Every attacker appears exactly once.
        let mut seen = vec![false; view.n_attackers()];
        for g in &groups {
            for &i in g {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Groups are closed under coin sharing: no coin appears in two
        // groups.
        let mut owner: Vec<Option<usize>> = vec![None; view.n_coins()];
        for (gi, g) in groups.iter().enumerate() {
            for &i in g {
                for &c in view.attacker_coins(i) {
                    match owner[c as usize] {
                        None => owner[c as usize] = Some(gi),
                        Some(o) => prop_assert_eq!(o, gi, "coin {} crosses groups", c),
                    }
                }
            }
        }
        // And within a group the overlap graph is connected (BFS).
        for g in &groups {
            prop_assert!(connected_via_coins(&view, g), "group {g:?} not connected");
        }
    }

    #[test]
    fn det_work_is_exactly_two_to_the_n_minus_one_without_zeros(
        view in clause_system()
    ) {
        prop_assume!(view.coin_probs().iter().all(|&p| p > 0.0));
        let n = view.n_attackers() as u32;
        let literal = DetOptions::default().with_prune_covered(false);
        let out = sky_det_view(&view, literal).unwrap();
        prop_assert_eq!(out.joints_computed, (1u64 << n) - 1);
    }

    #[test]
    fn covered_cancellation_prunes_without_moving_the_answer(
        view in clause_system()
    ) {
        let literal = DetOptions::default().with_prune_covered(false);
        let a = sky_det_view(&view, literal).unwrap();
        let b = sky_det_view(&view, DetOptions::default()).unwrap();
        prop_assert!(b.joints_computed <= a.joints_computed);
        // The skipped cells cancel in exact arithmetic; only rounding of
        // the cancelled pairs can differ.
        prop_assert!((a.sky - b.sky).abs() < 1e-12, "{} vs {}", a.sky, b.sky);
    }

    #[test]
    fn component_signature_is_invariant_under_attacker_permutation(
        seed in 0u64..1_000,
        rows in proptest::collection::btree_set(0usize..64, 3..=8),
        perm_seed in 1u64..1_000,
    ) {
        use presky_core::preference::{PairLaw, SeededPreferences};
        use presky_core::table::Table;
        use presky_core::types::ObjectId;
        use presky_exact::signature::component_signature;

        // Keyed views come from real tables (synthetic `from_parts` views
        // carry no coin keys and are refused by canonicalization).
        let decoded: Vec<Vec<u32>> = rows
            .iter()
            .map(|&i| vec![(i % 4) as u32, ((i / 4) % 4) as u32, ((i / 16) % 4) as u32])
            .collect();
        let table = Table::from_rows_raw(3, &decoded).unwrap();
        let prefs = SeededPreferences::new(seed, PairLaw::Complementary);
        let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
        let n = view.n_attackers();
        prop_assume!(n >= 2);

        // Fisher–Yates over the attacker ids with a xorshift stream.
        let ids: Vec<usize> = (0..n).collect();
        let mut perm = ids.clone();
        let mut s = perm_seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        for i in (1..n).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            perm.swap(i, (s % (i as u64 + 1)) as usize);
        }

        let a = view.restrict_canonical(&ids).expect("keyed view");
        let b = view.restrict_canonical(&perm).expect("keyed view");
        let (mut sig_a, mut sig_b) = (Vec::new(), Vec::new());
        prop_assert!(component_signature(&a, &mut sig_a));
        prop_assert!(component_signature(&b, &mut sig_b));
        prop_assert_eq!(&sig_a, &sig_b, "signature must not see enumeration order");

        // Equal signatures must mean bit-identical exact results — the
        // component cache's soundness contract.
        let ra = sky_det_view(&a, DetOptions::default()).unwrap();
        let rb = sky_det_view(&b, DetOptions::default()).unwrap();
        prop_assert_eq!(ra.sky.to_bits(), rb.sky.to_bits());
    }

    #[test]
    fn components_of_one_prepared_view_have_distinct_signatures(
        seed in 0u64..1_000,
        rows in proptest::collection::btree_set(proptest::collection::vec(0u32..10, 3), 2..=40),
        target in 0usize..40,
        law in 0usize..3,
    ) {
        use std::collections::HashSet;

        use presky_core::preference::{PairLaw, SeededPreferences};
        use presky_core::table::Table;
        use presky_core::types::ObjectId;
        use presky_exact::signature::component_signature;

        // The partition splits attackers by shared coins, and one view's
        // coins have distinct `(dim, value)` keys, so its components embed
        // disjoint keys: no cache probe of a single target can hit an
        // entry another of its own components inserted.
        let rows: Vec<Vec<u32>> = rows.into_iter().collect();
        let table = Table::from_rows_raw(3, &rows).unwrap();
        let law = [PairLaw::Complementary, PairLaw::Simplex, PairLaw::Unanimous][law];
        let prefs = SeededPreferences::new(seed, law);
        let target = ObjectId::from(target % rows.len());
        let mut view = CoinView::build(&table, &prefs, target).unwrap();
        prop_assume!(!view.has_certain_attacker());
        // Prepare: pruning, absorption, restriction, partition.
        view.prune_impossible();
        let work = view.restrict(&absorb(&view).kept);
        let mut seen = HashSet::new();
        for group in partition(&work) {
            let sub = work.restrict_canonical(&group).expect("keyed view");
            let mut sig = Vec::new();
            prop_assert!(component_signature(&sub, &mut sig));
            prop_assert!(seen.insert(sig), "two components of one view share a signature");
        }
    }

    #[test]
    fn dnf_counting_round_trips(
        v in 2usize..=7,
        masks in proptest::collection::vec(1u32..128, 1..=5),
    ) {
        let clauses: Vec<Vec<u32>> = masks
            .iter()
            .map(|&m| (0..v as u32).filter(|&b| m & (1 << b) != 0).collect())
            .collect();
        prop_assume!(clauses.iter().all(|c| !c.is_empty()));
        let f = PositiveDnf::new(v, clauses).unwrap();
        let brute = f.count_satisfying_brute().unwrap();
        let via = f.count_via_sky(DetOptions::default()).unwrap();
        prop_assert_eq!(brute, via);
        prop_assert!(brute <= 1 << v);
    }
}

fn connected_via_coins(view: &CoinView, group: &[usize]) -> bool {
    if group.len() <= 1 {
        return true;
    }
    let in_group: std::collections::HashSet<usize> = group.iter().copied().collect();
    let mut visited = std::collections::HashSet::new();
    let mut queue = vec![group[0]];
    visited.insert(group[0]);
    while let Some(i) = queue.pop() {
        for &j in &in_group {
            if !visited.contains(&j)
                && view.attacker_coins(i).iter().any(|c| view.attacker_coins(j).contains(c))
            {
                visited.insert(j);
                queue.push(j);
            }
        }
    }
    visited.len() == group.len()
}

// ---------------------------------------------------------------------------
// Cache snapshot codec: round-trips are bit-identical, damage is rejected.
// ---------------------------------------------------------------------------

use std::collections::BTreeMap;

use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::snapshot::{read_snapshot, write_snapshot, SnapshotError, SnapshotFingerprint};

/// Arbitrary three-field fingerprint for the v3 snapshot header.
fn fingerprints() -> impl Strategy<Value = SnapshotFingerprint> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(dataset, preferences, tenants)| {
        SnapshotFingerprint { dataset, preferences, tenants }
    })
}

/// Arbitrary cache contents: unique keys (any bytes, including empty),
/// arbitrary `sky_bits` (any bit pattern, NaN payloads included) and
/// joint counts.
fn cache_contents() -> impl Strategy<Value = BTreeMap<Vec<u8>, (u64, u64)>> {
    proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 0..24), any::<u64>(), any::<u64>()),
        0..32,
    )
    .prop_map(|pairs| pairs.into_iter().map(|(k, s, j)| (k, (s, j))).collect())
}

fn build_cache(contents: &BTreeMap<Vec<u8>, (u64, u64)>) -> ComponentCache {
    let cache = ComponentCache::with_byte_cap(usize::MAX);
    for (key, &(sky_bits, joints_computed)) in contents {
        cache.insert(key, CacheEntry { sky_bits, joints_computed });
    }
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A save→load round trip replays every entry with the same hit bits
    /// and the same `joints_computed` — the loaded cache is
    /// indistinguishable from the one that was saved.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        contents in cache_contents(),
        fingerprint in fingerprints(),
    ) {
        let cache = build_cache(&contents);
        let mut bytes = Vec::new();
        write_snapshot(&cache, fingerprint, &mut bytes).unwrap();
        let loaded = read_snapshot(&mut bytes.as_slice(), fingerprint, usize::MAX).unwrap();

        prop_assert_eq!(loaded.len(), contents.len());
        prop_assert_eq!(loaded.bytes(), cache.bytes());
        for (key, &(sky_bits, joints_computed)) in &contents {
            let hit = loaded.get(key);
            prop_assert_eq!(hit, Some(CacheEntry { sky_bits, joints_computed }));
        }
        prop_assert_eq!(loaded.sorted_entries(), cache.sorted_entries());

        // Saving the loaded cache reproduces the file byte-for-byte, so
        // snapshots are canonical regardless of shard distribution.
        let mut again = Vec::new();
        write_snapshot(&loaded, fingerprint, &mut again).unwrap();
        prop_assert_eq!(again, bytes);
    }

    /// Every proper prefix of a valid snapshot is rejected with a typed
    /// error — truncation can never admit a partially-valid cache.
    #[test]
    fn truncated_snapshot_is_rejected_cleanly(
        contents in cache_contents(),
        fingerprint in fingerprints(),
        cut in any::<usize>(),
    ) {
        let cache = build_cache(&contents);
        let mut bytes = Vec::new();
        write_snapshot(&cache, fingerprint, &mut bytes).unwrap();
        let cut = cut % bytes.len(); // strictly less than the full length
        let err = read_snapshot(&mut bytes[..cut].as_ref(), fingerprint, usize::MAX)
            .expect_err("a truncated snapshot must not load");
        prop_assert!(
            matches!(
                err,
                SnapshotError::Corrupted { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion { .. }
            ),
            "unexpected error for truncation at {}: {:?}",
            cut,
            err
        );
    }

    /// Flipping any single bit anywhere in the file is caught — by the
    /// magic, the version gate, the structural bounds, or ultimately the
    /// checksum — and never yields an `Ok` cache with altered contents.
    #[test]
    fn corrupted_snapshot_is_rejected_cleanly(
        contents in cache_contents(),
        fingerprint in fingerprints(),
        pos in any::<usize>(),
        bit in 0u32..8,
    ) {
        let cache = build_cache(&contents);
        let mut bytes = Vec::new();
        write_snapshot(&cache, fingerprint, &mut bytes).unwrap();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let err = read_snapshot(&mut bytes.as_slice(), fingerprint, usize::MAX)
            .expect_err("a bit-flipped snapshot must not load");
        // Any typed error is acceptable; what is *not* acceptable is Ok.
        prop_assert!(!matches!(err, SnapshotError::Io(_)), "io error from in-memory bytes");
    }
}
