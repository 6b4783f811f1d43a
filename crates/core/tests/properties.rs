//! Property-based tests of the core data model.

use proptest::prelude::*;

use presky_core::prelude::*;

fn decode_row(mut idx: usize, d: usize, base: usize) -> Vec<u32> {
    let mut row = Vec::with_capacity(d);
    for _ in 0..d {
        row.push((idx % base) as u32);
        idx /= base;
    }
    row
}

/// Distinct-row tables over small categorical domains.
fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=4).prop_flat_map(|d| {
        let base = 4usize;
        let space = base.pow(d as u32);
        (2usize..=space.min(10)).prop_flat_map(move |n| {
            proptest::collection::btree_set(0..space, n).prop_map(move |idxs| {
                let rows: Vec<Vec<u32>> = idxs.iter().map(|&i| decode_row(i, d, base)).collect();
                Table::from_rows_raw(d, &rows).expect("valid rows")
            })
        })
    })
}

/// One write against a live epoch; small raw indices, resolved against
/// the table at hand.
#[derive(Debug, Clone)]
enum Write {
    Insert(Vec<u32>),
    Remove(usize),
    Pref { dim: usize, a: u32, b: u32, forward: f64, backward: f64 },
}

fn write_strategy() -> impl Strategy<Value = Write> {
    // Values range over 0..5 against the tables' 0..4, so a write may also
    // insert or edit a value the table does not carry; probabilities hit 0
    // and 1, where attackers appear in or vanish from pruned views.
    const PROBS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
    (0u8..3, proptest::collection::vec(0u32..5, 4), 0usize..16, (0u32..5, 0u32..4), 0usize..16)
        .prop_map(|(kind, values, i, (a, b), probs)| match kind {
            0 => Write::Insert(values),
            1 => Write::Remove(i),
            _ => {
                let forward = PROBS[probs % 4];
                Write::Pref {
                    dim: i,
                    a,
                    b: if b >= a { b + 1 } else { b },
                    forward,
                    backward: PROBS[probs / 4].min(1.0 - forward),
                }
            }
        })
}

/// Per attacker in order: its source row and its coins as
/// `(dim, value, probability bits)`.
type CompactedView = Vec<(u32, Vec<(u32, u32, u64)>)>;

/// `target`'s view after impossible-coin pruning and coin compaction, with
/// coins named by content so that neither coin numbering nor the
/// dense-vs-sparse assembly path shows.
fn compacted_view<M: PreferenceModel>(
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
) -> CompactedView {
    let mut view = CoinView::empty();
    ctx.view_into(prefs, target, &mut BatchScratch::default(), &mut view).unwrap();
    view.prune_impossible();
    let all: Vec<usize> = (0..view.n_attackers()).collect();
    let mut compact = CoinView::empty();
    view.restrict_into(&all, &mut CoinRemap::default(), &mut compact);
    (0..compact.n_attackers())
        .map(|i| {
            let coins = compact
                .attacker_coins(i)
                .iter()
                .map(|&k| {
                    let key = compact.coin_key(k).expect("table coins carry keys");
                    (key.dim.0, key.value.0, compact.coin_prob(k).to_bits())
                })
                .collect();
            (compact.source(i).0, coins)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The invariant an epoch's answer store rests on: after one insert,
    /// removal or preference edit, every target outside the write's
    /// dirtied set keeps its pruned, coin-compacted view (a removal shifts
    /// later ids down by one), so its stored answer stays exact. The set
    /// is strictly ascending, so its size is the dirtied count a commit
    /// reports; for an insert or removal it is exactly the targets whose
    /// view gains or loses the row.
    #[test]
    fn writes_keep_the_view_of_every_undirtied_target(
        table in table_strategy(),
        seed in any::<u64>(),
        law in 0usize..4,
        write in write_strategy(),
    ) {
        let d = table.dimensionality();
        let law = [
            PairLaw::Complementary,
            PairLaw::Simplex,
            PairLaw::CertainCoin,
            PairLaw::CertainAscending,
        ][law];
        let before = DatasetEpoch::build(table.clone(), SeededPreferences::new(seed, law)).unwrap();
        let is_pref = matches!(write, Write::Pref { .. });
        let (after, effects, removed) = match write {
            Write::Insert(values) => {
                let values: Vec<ValueId> = values[..d].iter().map(|&v| ValueId(v)).collect();
                let Ok((after, fx)) = before.insert_object(&values) else {
                    // A duplicate row is refused and installs nothing.
                    return Ok(());
                };
                (after, fx, None)
            }
            Write::Remove(i) => {
                let obj = ObjectId((i % table.len()) as u32);
                let (after, fx) = before.remove_object(obj).unwrap();
                (after, fx, Some(obj))
            }
            Write::Pref { dim, a, b, forward, backward } => {
                let dim = DimId((dim % d) as u32);
                let (after, fx) =
                    before.set_preference(dim, ValueId(a), ValueId(b), forward, backward).unwrap();
                (after, fx, None)
            }
        };
        let dirtied = &effects.dirtied_targets;
        prop_assert!(dirtied.windows(2).all(|w| w[0] < w[1]), "{dirtied:?}");
        prop_assert!(dirtied.iter().all(|t| t.index() < before.n_objects()));
        prop_assert!(removed.is_none_or(|r| !dirtied.contains(&r)));
        let shift = |o: u32| match removed {
            Some(r) if o > r.0 => o - 1,
            _ => o,
        };
        for t in table.objects().filter(|&t| Some(t) != removed) {
            let old = compacted_view(before.ctx(), before.prefs().as_ref(), t);
            let old: Vec<_> = old.into_iter().map(|(src, coins)| (shift(src), coins)).collect();
            let new = compacted_view(after.ctx(), after.prefs().as_ref(), ObjectId(shift(t.0)));
            if dirtied.binary_search(&t).is_err() {
                prop_assert_eq!(&new, &old, "undirtied target {} changed its view", t);
            } else if !is_pref {
                prop_assert_ne!(&new, &old, "dirtied target {} kept its view", t);
            }
        }
    }

    #[test]
    fn seeded_models_satisfy_the_contract(
        seed in any::<u64>(),
        dim in 0u32..8,
        a in 0u32..64,
        b in 0u32..64,
    ) {
        for law in [
            PairLaw::Unanimous,
            PairLaw::Complementary,
            PairLaw::Simplex,
            PairLaw::CertainCoin,
            PairLaw::CertainAscending,
        ] {
            let m = SeededPreferences::new(seed, law);
            let f = m.pr_strict(DimId(dim), ValueId(a), ValueId(b));
            let r = m.pr_strict(DimId(dim), ValueId(b), ValueId(a));
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!((0.0..=1.0).contains(&r));
            if a == b {
                prop_assert_eq!(f, 0.0);
            } else {
                prop_assert!(f + r <= 1.0 + 1e-12, "{law:?}: {f} + {r}");
            }
            // Weak preference is 1 on the diagonal, strict elsewhere.
            let w = m.pr_weak(DimId(dim), ValueId(a), ValueId(b));
            if a == b {
                prop_assert_eq!(w, 1.0);
            } else {
                prop_assert_eq!(w, f);
            }
        }
    }

    #[test]
    fn coin_view_structure_matches_the_table(table in table_strategy()) {
        let prefs = SeededPreferences::complementary(7);
        for target in table.objects() {
            let view = CoinView::build(&table, &prefs, target).unwrap();
            prop_assert_eq!(view.n_attackers(), table.len() - 1);
            // Coins are exactly the relevant pairs.
            let pairs = relevant_pairs_for_target(&table, target);
            prop_assert_eq!(view.n_coins(), pairs.len());
            for (i, a) in view.attackers().iter().enumerate() {
                // Sorted, deduplicated, non-empty.
                prop_assert!(!a.coins.is_empty());
                prop_assert!(a.coins.windows(2).all(|w| w[0] < w[1]));
                // Pr(e_i) from the view equals Equation 2 from the table.
                let direct = pr_dominates(&table, &prefs, a.source, target);
                prop_assert!((view.attacker_prob(i) - direct).abs() < 1e-12);
                // Coin count = number of differing dimensions.
                prop_assert_eq!(
                    a.coins.len(),
                    differing_dims(&table, a.source, target).len()
                );
            }
        }
    }

    #[test]
    fn restriction_preserves_attacker_semantics(table in table_strategy()) {
        let prefs = SeededPreferences::complementary(13);
        let target = ObjectId(0);
        let view = CoinView::build(&table, &prefs, target).unwrap();
        let n = view.n_attackers();
        // Keep every other attacker.
        let keep: Vec<usize> = (0..n).step_by(2).collect();
        let sub = view.restrict(&keep);
        prop_assert_eq!(sub.n_attackers(), keep.len());
        for (new_i, &old_i) in keep.iter().enumerate() {
            prop_assert_eq!(sub.source(new_i), view.source(old_i));
            prop_assert!((sub.attacker_prob(new_i) - view.attacker_prob(old_i)).abs() < 1e-12);
        }
        prop_assert!(sub.n_coins() <= view.n_coins());
    }

    #[test]
    fn world_enumeration_is_a_probability_distribution(table in table_strategy()) {
        let prefs = SeededPreferences::new(3, PairLaw::Simplex);
        let pairs = relevant_pairs_for_target(&table, ObjectId(0));
        prop_assume!(pairs.len() <= 10);
        let mut total = 0.0;
        let mut worlds = 0usize;
        for_each_world(&pairs, &prefs, |w, p| {
            total += p;
            worlds += 1;
            assert!(p > 0.0, "zero-probability branches must be pruned");
            assert_eq!(w.len(), pairs.len(), "every pair resolved");
        });
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total} over {worlds} worlds");
    }

    #[test]
    fn checking_sequence_is_a_permutation_sorted_by_probability(table in table_strategy()) {
        let prefs = SeededPreferences::complementary(23);
        let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
        let seq = view.checking_sequence();
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..view.n_attackers()).collect::<Vec<_>>());
        for w in seq.windows(2) {
            prop_assert!(
                view.attacker_prob(w[0]) >= view.attacker_prob(w[1]) - 1e-15
            );
        }
    }

    #[test]
    fn projection_then_dedup_never_grows(table in table_strategy()) {
        let d = table.dimensionality();
        prop_assume!(d >= 2);
        let keep: Vec<DimId> = (0..d - 1).map(DimId::from).collect();
        let projected = table.project(&keep).unwrap();
        prop_assert_eq!(projected.len(), table.len());
        let dd = projected.dedup_rows();
        prop_assert!(dd.len() <= projected.len());
        prop_assert!(dd.find_duplicate().is_none());
    }

    #[test]
    fn dominance_is_antisymmetric_in_certain_orders(table in table_strategy()) {
        let order = DeterministicOrder::ascending();
        for a in table.objects() {
            for b in table.objects() {
                let ab = pr_dominates(&table, &order, a, b);
                let ba = pr_dominates(&table, &order, b, a);
                prop_assert!(ab == 0.0 || ba == 0.0, "{a} vs {b}: {ab}, {ba}");
            }
        }
    }
}
