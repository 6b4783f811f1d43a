//! Pins the threshold query's answers to a recorded digest.
//!
//! The ladder's other tests compare it with a rebuilt reference ladder or
//! with possible-world enumeration on small tables, so a change that moved
//! which rung decides a target, or a bracket's bits, or an SPRT's world
//! count, while keeping every membership, would pass all of them. This test
//! hashes every target's object, membership, resolution kind and its bits
//! (bracket ends, exact value, estimate) or sample count over a fixed corpus
//! and compares the hash with a recorded value.
//!
//! The corpus is xorshift-generated tables with simplex-style (`u + v ≤ 1`,
//! some pairs certain or impossible) or complementary (`u + v = 1`) pair
//! probabilities, queried at three τ under three ladder configurations:
//! the defaults, whole-view Bonferroni at level 1, and a sequential test
//! truncated at 64 worlds. It is built so that every rung decides at least
//! one target, which the test asserts from the [`PipelineStats`] and the
//! resolutions. Every run is repeated at 1 and 2 threads with the component
//! cache on and off, and each repetition must reproduce the digest.
//!
//! If a change is meant to move these answers, the failure message prints
//! the new digest; re-recording it is a deliberate, reviewed step.

use presky_approx::sprt::SprtOptions;
use presky_core::batch::BatchCoinContext;
use presky_core::preference::TablePreferences;
use presky_core::table::Table;
use presky_core::types::{DimId, ValueId};
use presky_exact::cache::ComponentCache;
use presky_query::engine::{threshold_resident, CacheScope, EngineBudget, PipelineStats};
use presky_query::threshold::{Resolution, ThresholdOptions};

/// Digest of every answer over the corpus below.
const RECORDED_DIGEST: u64 = 0x648b_62a4_e682_f16b;

/// Thresholds: below, near and above most targets' skyline probabilities.
const TAUS: [f64; 3] = [0.1, 0.5, 0.9];

/// xorshift64: a fixed, dependency-free stream so the corpus never drifts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A full 53-bit fraction in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `n` distinct rows over `d` dimensions of `values` values each, with one
/// probability pair per value pair: complementary (`u + v = 1`), or
/// simplex-style (`u + v ≤ 1`), where one pair in twelve is certain in one
/// direction and one in twelve is impossible in both.
fn instance(
    rng: &mut Rng,
    n: usize,
    d: usize,
    values: u64,
    complementary: bool,
) -> (Table, TablePreferences) {
    let mut rows = std::collections::BTreeSet::new();
    while rows.len() < n {
        rows.insert((0..d).map(|_| rng.below(values) as u32).collect::<Vec<_>>());
    }
    let rows: Vec<Vec<u32>> = rows.into_iter().collect();
    let mut prefs = TablePreferences::new();
    for dim in 0..d {
        for a in 0..values as u32 {
            for b in a + 1..values as u32 {
                let u = rng.unit();
                let (u, v) = match (complementary, rng.below(12)) {
                    (true, _) => (u, 1.0 - u),
                    (false, 0) => (1.0, 0.0),
                    (false, 1) => (0.0, 0.0),
                    _ => match rng.unit() {
                        v if u + v > 1.0 => (1.0 - u, 1.0 - v),
                        v => (u, v),
                    },
                };
                prefs.set(DimId::from(dim), ValueId(a), ValueId(b), u, v).expect("simplex pair");
            }
        }
    }
    (Table::from_rows_raw(d, &rows).expect("distinct rows"), prefs)
}

/// Small 3-d tables (the bracket, Bonferroni and exact rungs), 8-d
/// simplex tables (whole-view Bonferroni at τ = 0.9) and 5-d
/// complementary tables (components too large for the exact rung).
fn corpus() -> Vec<(Table, TablePreferences)> {
    let mut rng = Rng(0x7e51_d0c4_a11a_b0b5);
    let mut tables = Vec::new();
    for _ in 0..6 {
        let (n, values) = (20 + rng.below(30) as usize, 4 + rng.below(2));
        tables.push(instance(&mut rng, n, 3, values, false));
    }
    for _ in 0..2 {
        let n = 40 + rng.below(20) as usize;
        tables.push(instance(&mut rng, n, 8, 3, false));
    }
    for _ in 0..2 {
        let n = 120 + rng.below(60) as usize;
        tables.push(instance(&mut rng, n, 5, 6, true));
    }
    tables
}

/// The ladder configurations: defaults, whole-view Bonferroni at level 1,
/// and a sequential test truncated at 64 worlds.
fn configs() -> [ThresholdOptions; 3] {
    [
        ThresholdOptions::default(),
        ThresholdOptions::default().with_bonferroni_level(1),
        ThresholdOptions::default().with_sprt(SprtOptions::default().with_max_samples(64)),
    ]
}

/// Hash every answer of the corpus under `threads` and `cache`, and
/// return the digest with each configuration's merged stats and count of
/// `Exact` resolutions.
fn corpus_digest(threads: usize, cache: bool) -> (u64, [(PipelineStats, u64); 3]) {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut totals = [(PipelineStats::default(), 0); 3];
    for (table, prefs) in corpus() {
        let ctx = BatchCoinContext::build(&table).unwrap();
        for tau in TAUS {
            for (c, opts) in configs().into_iter().enumerate() {
                let opts = opts.with_threads(Some(threads)).with_component_cache(cache);
                let components = ComponentCache::default();
                let scope = Some(CacheScope::new(&components));
                let out =
                    threshold_resident(&ctx, &prefs, tau, opts, scope, EngineBudget::default())
                        .unwrap();
                for a in out.results.into_iter().map(Option::unwrap) {
                    let (kind, x, y) = match a.resolution {
                        Resolution::Bounds(b) => (1, b.lower.to_bits(), b.upper.to_bits()),
                        Resolution::Exact(v) => (2, v.to_bits(), 0),
                        Resolution::Sequential { samples_used } => (3, samples_used, 0),
                        Resolution::Estimated(v) => (4, v.to_bits(), 0),
                    };
                    for w in [u64::from(a.object.0), u64::from(a.member), kind, x, y] {
                        d.word(w);
                    }
                    totals[c].1 += u64::from(kind == 2);
                }
                totals[c].0.merge(&out.stats);
            }
        }
    }
    (d.0, totals)
}

#[test]
fn threshold_answers_match_the_recorded_digest() {
    for threads in [1, 2] {
        for cache in [true, false] {
            let (digest, [(default, exact), (level1, _), (truncated, _)]) =
                corpus_digest(threads, cache);
            assert_eq!(
                digest, RECORDED_DIGEST,
                "threshold digest moved at {threads} thread(s), cache {cache}: now {digest:#018x}"
            );
            // Rung 0: the bracket product before absorption.
            assert!(default.plan_bounds_unabsorbed > 0, "{default}");
            // Rung 1: the product after absorption. At level 1 the
            // whole-view rung's bracket is the whole view's cheap bracket,
            // never tighter than that product, so the level-1 bounds
            // decisions past rung 0 are rung 1's.
            assert!(level1.plan_bounds > level1.plan_bounds_unabsorbed, "{level1}");
            // Rung 2: level-2 whole-view Bonferroni decides targets level 1
            // leaves to the exact and sampling rungs.
            assert!(default.plan_bounds > level1.plan_bounds, "{default}\n{level1}");
            // Rung 3: exact values past the certain-attacker short-circuit
            // (which also reports Exact), and early exits, which engage the
            // exact rung but report Bounds.
            let full = exact - default.short_circuited;
            assert!(full > 0 && default.plan_exact > full, "{default}\n{exact} exact");
            // Rung 4: the sequential test; rung 5: the fallback behind the
            // truncated sequential test.
            assert!(default.plan_sequential > 0, "{default}");
            assert!(truncated.plan_fallback > 0, "{truncated}");
        }
    }
}
