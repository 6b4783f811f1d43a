//! Criterion micro-benchmarks of the sampling estimators (Figures 11/13 in
//! microcosm): Sam vs Sam+ (the engine's forced-sampling plan) vs
//! Karp–Luby, and the cost of the lazy-sampling and sorted-checking design
//! choices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use presky_approx::karp_luby::{sky_karp_luby_view, KarpLubyOptions};
use presky_approx::sampler::{sky_sam_view, SamOptions};
use presky_core::coins::CoinView;
use presky_core::preference::SeededPreferences;
use presky_core::table::Table;
use presky_core::types::ObjectId;
use presky_datagen::blockzipf::{generate_block_zipf, BlockZipfConfig};
use presky_query::engine::{solve_one, PipelineStats, PrepareOptions, SkyScratch};
use presky_query::prob_skyline::Algorithm;

fn table(n: usize) -> Table {
    generate_block_zipf(BlockZipfConfig::new(n, 5, 1)).unwrap()
}

fn view(n: usize) -> CoinView {
    CoinView::build(&table(n), &SeededPreferences::complementary(42), ObjectId(0)).unwrap()
}

fn sam_vs_samplus(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx/blockzipf5d");
    group.sample_size(10);
    let prefs = SeededPreferences::complementary(42);
    let mut scratch = SkyScratch::default();
    for n in [1_000usize, 10_000] {
        let t = table(n);
        let v = CoinView::build(&t, &prefs, ObjectId(0)).unwrap();
        let sam = SamOptions::with_samples(3000, 7);
        group.bench_with_input(BenchmarkId::new("Sam", n), &v, |b, v| {
            b.iter(|| sky_sam_view(v, sam).unwrap().estimate)
        });
        // The paper's world-at-a-time loop, against the kernel above.
        let scalar = sam.with_bit_parallel(false);
        group.bench_with_input(BenchmarkId::new("Sam-scalar", n), &v, |b, v| {
            b.iter(|| sky_sam_view(v, scalar).unwrap().estimate)
        });
        // Sam+: the engine's full Prepare stage and a forced-sampling plan
        // (its time includes assembling the object's view).
        group.bench_with_input(BenchmarkId::new("Sam+", n), &t, |b, t| {
            b.iter(|| {
                let (algo, mut stats) = (Algorithm::Sampling(sam), PipelineStats::default());
                solve_one(
                    t,
                    &prefs,
                    ObjectId(0),
                    algo,
                    PrepareOptions::full(),
                    &mut scratch,
                    &mut stats,
                )
                .unwrap()
                .sky
            })
        });
        group.bench_with_input(BenchmarkId::new("KarpLuby", n), &v, |b, v| {
            b.iter(|| {
                sky_karp_luby_view(v, KarpLubyOptions::default().with_samples(3000).with_seed(7))
                    .unwrap()
                    .estimate
            })
        });
    }
    group.finish();
}

fn sam_design_choices(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx/sam_design");
    group.sample_size(10);
    let v = view(10_000);
    for (name, sort_checking, lazy) in
        [("sorted_lazy", true, true), ("sorted_eager", true, false), ("unsorted_lazy", false, true)]
    {
        let opts =
            SamOptions::with_samples(1000, 7).with_sort_checking(sort_checking).with_lazy(lazy);
        group.bench_function(name, |b| b.iter(|| sky_sam_view(&v, opts).unwrap().estimate));
    }
    group.finish();
}

criterion_group!(benches, sam_vs_samplus, sam_design_choices);
criterion_main!(benches);
