//! Criterion micro-benchmarks of the exact engines (Figures 9/10 in
//! microcosm): Det vs Det+ across instance sizes, the DFS's value and
//! gradient walks on both coin-set representations, and the DFS against
//! the layered formulation of Algorithm 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use presky_core::coins::CoinView;
use presky_core::preference::SeededPreferences;
use presky_core::table::Table;
use presky_core::types::ObjectId;
use presky_exact::bounds::{sky_bounds_bonferroni, sky_bounds_cheap};
use presky_exact::conditioning::{sky_conditioning_view, ConditioningOptions};
use presky_exact::det::{
    sky_det_grad_view_with, sky_det_view, sky_det_view_with, DetOptions, DetScratch,
};
use presky_exact::levelwise::sky_levelwise;
use presky_query::engine::{solve_one, PipelineStats, PrepareOptions, SkyScratch};
use presky_query::prob_skyline::Algorithm;

use presky_datagen::blockzipf::{generate_block_zipf, BlockZipfConfig};
use presky_datagen::uniform::{generate_uniform, UniformConfig};

/// `Det+` on object 0: the engine's full Prepare stage and a forced-exact
/// plan. Its time includes assembling the object's view.
fn det_plus(table: &Table, prefs: &SeededPreferences, det: DetOptions, s: &mut SkyScratch) -> f64 {
    let (algo, mut stats) = (Algorithm::Exact { det }, PipelineStats::default());
    solve_one(table, prefs, ObjectId(0), algo, PrepareOptions::full(), s, &mut stats).unwrap().sky
}

fn det_vs_detplus_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/uniform5d");
    group.sample_size(10);
    let prefs = SeededPreferences::complementary(42);
    let mut scratch = SkyScratch::default();
    for n in [10usize, 14, 18] {
        let table = generate_uniform(UniformConfig::new(n, 5, 1)).unwrap();
        let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
        group.bench_with_input(BenchmarkId::new("Det", n), &view, |b, v| {
            b.iter(|| sky_det_view(v, DetOptions::default()).unwrap().sky)
        });
        group.bench_with_input(BenchmarkId::new("Det+", n), &table, |b, t| {
            b.iter(|| det_plus(t, &prefs, DetOptions::default(), &mut scratch))
        });
    }
    group.finish();
}

fn detplus_blockzipf_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/blockzipf5d_detplus");
    group.sample_size(10);
    let prefs = SeededPreferences::complementary(42);
    let mut scratch = SkyScratch::default();
    for n in [100usize, 1_000, 10_000] {
        let table = generate_block_zipf(BlockZipfConfig::new(n, 5, 1)).unwrap();
        let det = DetOptions::default().with_max_attackers(64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, t| {
            b.iter(|| det_plus(t, &prefs, det, &mut scratch))
        });
    }
    group.finish();
}

/// `view`'s clause system over `m > 64` coins (the extra coins unused):
/// the same lattice and joints, walked with multiplicity counters instead
/// of the ≤ 64-coin bitset.
fn padded_past_64_coins(view: &CoinView, m: usize) -> CoinView {
    let mut probs = view.coin_probs().to_vec();
    probs.resize(m, 0.5);
    let clauses = (0..view.n_attackers()).map(|i| view.attacker_coins(i).to_vec()).collect();
    CoinView::from_parts(probs, clauses).unwrap()
}

fn dfs_vs_levelwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/engine");
    group.sample_size(10);
    let prefs = SeededPreferences::complementary(42);
    let table = generate_uniform(UniformConfig::new(16, 4, 1)).unwrap();
    let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
    let wide = padded_past_64_coins(&view, 80);
    assert!(view.n_coins() <= 64 && wide.n_coins() > 64);
    for (name, v) in [("dfs", &view), ("dfs_wide", &wide)] {
        let mut scratch = DetScratch::default();
        group.bench_function(name, |b| {
            b.iter(|| sky_det_view_with(v, DetOptions::default(), &mut scratch).unwrap().sky)
        });
    }
    for (name, v) in [("grad", &view), ("grad_wide", &wide)] {
        let (mut scratch, mut grad) = (DetScratch::default(), Vec::new());
        group.bench_function(name, |b| {
            b.iter(|| {
                sky_det_grad_view_with(v, DetOptions::default(), &mut scratch, &mut grad)
                    .unwrap()
                    .sky
            })
        });
    }
    group.bench_function("levelwise", |b| {
        b.iter(|| sky_levelwise(&view, DetOptions::default()).unwrap().sky)
    });
    group.finish();
}

fn conditioning_vs_det(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/conditioning");
    group.sample_size(10);
    let prefs = SeededPreferences::complementary(42);
    // Dense regime: many attackers over few values — conditioning's home
    // turf, Det's nightmare.
    let table =
        generate_uniform(UniformConfig { values_per_dim: Some(3), ..UniformConfig::new(20, 4, 1) })
            .unwrap();
    let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
    group.bench_function("Det_dense", |b| {
        b.iter(|| sky_det_view(&view, DetOptions::default()).unwrap().sky)
    });
    group.bench_function("Cond_dense", |b| {
        b.iter(|| sky_conditioning_view(&view, ConditioningOptions::default()).unwrap().sky)
    });
    group.finish();
}

fn bounds_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/bounds");
    group.sample_size(10);
    let prefs = SeededPreferences::complementary(42);
    for n in [1_000usize, 10_000] {
        let table = generate_block_zipf(BlockZipfConfig::new(n, 5, 1)).unwrap();
        let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
        group.bench_with_input(BenchmarkId::new("cheap", n), &view, |b, v| {
            b.iter(|| sky_bounds_cheap(v).width())
        });
        if n <= 1_000 {
            // Level 2 enumerates C(n, 2) joints — meaningful only on the
            // preprocessed instances the query layer feeds it.
            group.bench_with_input(BenchmarkId::new("bonferroni2", n), &view, |b, v| {
                b.iter(|| sky_bounds_bonferroni(v, 2).unwrap().width())
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    det_vs_detplus_uniform,
    detplus_blockzipf_scaling,
    dfs_vs_levelwise,
    conditioning_vs_det,
    bounds_cost
);
criterion_main!(benches);
