//! Persistence round-trips: serialising a workload and reloading it must
//! leave every computed probability bit-identical.

use presky::prelude::*;

#[test]
fn serialised_instance_computes_identically() {
    let table = generate_block_zipf(BlockZipfConfig::new(64, 3, 21)).unwrap();
    // Materialise explicit preferences for the observed pairs so they can
    // be persisted.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let prefs = generate_table_preferences(&table, PrefDistribution::Simplex, &mut rng).unwrap();

    let table_text = table_to_string(&table);
    let prefs_text = prefs_to_string(&prefs);
    let table2 = table_from_str(&table_text).unwrap();
    let prefs2 = prefs_from_str(&prefs_text).unwrap();

    for target in [ObjectId(0), ObjectId(31), ObjectId(63)] {
        let a = skyline_probability(&table, &prefs, target).unwrap();
        let b = skyline_probability(&table2, &prefs2, target).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "target {target}");

        let sa = sky_sam(&table, &prefs, target, SamOptions::with_samples(500, 9)).unwrap();
        let sb = sky_sam(&table2, &prefs2, target, SamOptions::with_samples(500, 9)).unwrap();
        assert_eq!(sa.estimate, sb.estimate);
        assert_eq!(sa.coin_draws, sb.coin_draws);
    }
}

#[test]
fn files_round_trip_through_disk() {
    let dir = std::env::temp_dir().join("presky-int-io");
    std::fs::create_dir_all(&dir).unwrap();
    let table = generate_uniform(UniformConfig::new(12, 2, 3)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let prefs =
        generate_table_preferences(&table, PrefDistribution::Complementary, &mut rng).unwrap();
    let tp = dir.join("t.tbl");
    let pp = dir.join("p.prefs");
    write_table(&tp, &table).unwrap();
    write_prefs(&pp, &prefs).unwrap();
    let table2 = read_table(&tp).unwrap();
    let prefs2 = read_prefs(&pp).unwrap();
    assert_eq!(table, table2);
    let a = skyline_probability(&table, &prefs, ObjectId(5)).unwrap();
    let b = skyline_probability(&table2, &prefs2, ObjectId(5)).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
    std::fs::remove_file(tp).ok();
    std::fs::remove_file(pp).ok();
}

use rand::SeedableRng;
