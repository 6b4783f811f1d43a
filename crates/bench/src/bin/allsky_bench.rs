//! `allsky_bench` — throughput of the batch all-objects query engine.
//!
//! ```text
//! allsky_bench [--smoke | --quick] [--threads T] [--out <path>]
//!              [--check <baseline.json>] [--rebaseline] [--no-component-cache]
//! ```
//!
//! Three tiers:
//!
//! * `--smoke` — n = 2 000, the CI tier. Writes the legacy single-run
//!   report shape and supports `--check` / `--rebaseline` regression
//!   gating on the batch-vs-legacy *speedup ratio* (machine-independent,
//!   unlike absolute objects/second). With `--threads T > 1` the batch
//!   run is repeated single-threaded and the two result vectors are
//!   asserted **bit-identical** — the CI multi-thread identity leg.
//! * `--quick` — n = 10⁵, the mid-size multi-thread datapoint. Runs the
//!   batch driver single-threaded and multi-threaded (same bit-identity
//!   spot checks) and writes a multi-row report.
//! * default — the full baseline ladder: n = 10⁴ single-threaded against
//!   the legacy per-object driver (comparable with the historical
//!   baseline), n = 10⁴ multi-threaded, and the honest n = 10⁶ block-zipf
//!   row. Takes minutes; documented, not CI-gated.
//!
//! Every report records the sampler kernel's width (`lane_words`, fixed at
//! 4) and the `threads` the numbers were measured under, plus `host_cores`
//! (the detected parallelism): a "4-thread" row measured on a single-core
//! host is honest only with the core count beside it. `--check` refuses
//! baselines measured at a different `n`, `threads`, or `lane_words` —
//! ratios only transfer between like configurations.
//!
//! The legacy driver is a `legacy::sky_one` loop: fresh `CoinView::build`
//! hashing and fresh buffers per target, timed on a deterministic target
//! subsample and extrapolated. Batch-vs-legacy and multi-vs-single-thread
//! results are always checked **bit-identical** on the sampled targets.
//!
//! `--no-component-cache` disables the cross-target component cache — the
//! ablation baseline; results are bit-identical either way.

use std::process::ExitCode;
use std::time::Instant;

use presky_bench::workloads;
use presky_core::bitworlds::LANE_WORDS;
use presky_core::types::ObjectId;
use presky_query::engine::PipelineStats;
use presky_query::prob_skyline::{Algorithm, QueryOptions, SkyResult};

use presky_approx::sampler::SamOptions;

/// The pre-engine per-object entry point, rebuilt over the public
/// pipeline now that the deprecated `sky_one` free function is gone: a
/// fresh scratch and fresh per-target `CoinView::build` hashing per call,
/// exactly the cost profile the legacy ladder row is meant to measure.
mod legacy {
    use presky_core::preference::PreferenceModel;
    use presky_core::table::Table;
    use presky_core::types::ObjectId;
    use presky_query::engine::{solve_one, PipelineStats, PrepareOptions, SkyScratch};
    use presky_query::error::QueryError;
    use presky_query::prob_skyline::{Algorithm, SkyResult};

    pub fn sky_one<M: PreferenceModel>(
        table: &Table,
        prefs: &M,
        target: ObjectId,
        algo: Algorithm,
    ) -> Result<SkyResult, QueryError> {
        let mut stats = PipelineStats::default();
        solve_one(
            table,
            prefs,
            target,
            algo,
            PrepareOptions::default(),
            &mut SkyScratch::default(),
            &mut stats,
        )
    }
}

/// A speedup regression beyond this factor versus the `--check` baseline
/// fails the run.
const CHECK_TOLERANCE: f64 = 1.5;

/// Threads for the multi-threaded ladder rows. Requested, not detected:
/// the point of the row is a like-for-like config across hosts, with
/// `host_cores` recording how much hardware actually backed it.
const LADDER_THREADS: usize = 4;

/// Extract a top-level `"<key>": <number-or-bool>` field from a report
/// written by this binary. Hand-rolled (no JSON dependency),
/// shape-tolerant to whitespace only.
fn parse_baseline_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_'))
        .unwrap_or(rest.len());
    Some(rest[..end].to_owned())
}

/// Check that `text` (a prior report) was measured under the same `key`
/// value as this run; on mismatch, print a refusal naming **both** values
/// and return false. Missing fields refuse too — an old-format baseline
/// should be regenerated, not silently assumed compatible.
fn same_field_or_refuse(
    text: &str,
    path: &std::path::Path,
    key: &str,
    ours: &str,
    verb: &str,
) -> bool {
    let theirs = parse_baseline_field(text, key);
    if theirs.as_deref() == Some(ours) {
        return true;
    }
    eprintln!(
        "{} {} was measured at {key}={} but this run used {key}={ours}; \
         compare like for like (regenerate the baseline if its format predates this field)",
        verb,
        path.display(),
        theirs.as_deref().unwrap_or("?"),
    );
    false
}

/// Mirror of the driver's per-object seed decorrelation, so the legacy
/// loop feeds the sampler the exact options the batch driver would.
fn reseed(algo: Algorithm, salt: u64) -> Algorithm {
    let mix = |s: SamOptions| s.with_seed(s.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match algo {
        Algorithm::Adaptive { exact_component_limit, sam } => {
            Algorithm::Adaptive { exact_component_limit, sam: mix(sam) }
        }
        Algorithm::Sampling(s) => Algorithm::Sampling(mix(s)),
        e @ Algorithm::Exact { .. } => e,
    }
}

/// One timed pass of the batch driver.
fn run_batch(
    table: &presky_core::table::Table,
    threads: usize,
    component_cache: bool,
) -> (Vec<SkyResult>, PipelineStats, f64) {
    let prefs = workloads::block_prefs();
    let opts = QueryOptions::default()
        .with_algorithm(Algorithm::default())
        .with_threads(Some(threads))
        .with_component_cache(component_cache);
    // One-shot semantics: the context build is part of the timed pass,
    // exactly as the removed `all_sky_with_stats` free function timed it.
    let start = Instant::now();
    let ctx = presky_core::batch::BatchCoinContext::build(table).expect("context");
    let cache = presky_exact::cache::ComponentCache::default();
    let out = presky_query::engine::all_sky_resident(
        &ctx,
        &prefs,
        opts,
        Some(presky_query::engine::CacheScope::new(&cache)),
        presky_query::engine::EngineBudget::default(),
    )
    .expect("batch driver");
    let elapsed = start.elapsed().as_secs_f64();
    let results = out.results.into_iter().map(|r| r.expect("unlimited budget")).collect::<Vec<_>>();
    (results, out.stats, elapsed)
}

/// Assert bit-identity of `batch` against the legacy per-object driver on
/// `targets`, returning the legacy pass's elapsed seconds.
fn check_legacy_identity(
    table: &presky_core::table::Table,
    batch: &[SkyResult],
    targets: &[usize],
) -> f64 {
    let prefs = workloads::block_prefs();
    let algo = Algorithm::default();
    let start = Instant::now();
    for &i in targets {
        let legacy = legacy::sky_one(table, &prefs, ObjectId::from(i), reseed(algo, i as u64))
            .expect("legacy");
        let b = &batch[i];
        assert_eq!(b.object, legacy.object);
        assert_eq!(
            b.sky.to_bits(),
            legacy.sky.to_bits(),
            "object {i}: batch {} vs legacy {}",
            b.sky,
            legacy.sky
        );
        assert_eq!(b.exact, legacy.exact, "object {i}");
    }
    start.elapsed().as_secs_f64()
}

/// Evenly spread target subsample for legacy / identity spot checks.
fn spread_targets(n: usize, count: usize) -> Vec<usize> {
    let stride = (n / count).max(1);
    (0..n).step_by(stride).take(count).collect()
}

/// One row of the baseline ladder.
struct Row {
    name: &'static str,
    n: usize,
    threads: usize,
    elapsed_s: f64,
    objects_per_sec: f64,
    legacy_objects_per_sec: Option<f64>,
    speedup_vs_legacy: Option<f64>,
    spot_checks: usize,
    joints_computed: u64,
    samples_drawn: u64,
}

impl Row {
    fn to_json(&self) -> String {
        let legacy = match (self.legacy_objects_per_sec, self.speedup_vs_legacy) {
            (Some(rate), Some(speedup)) => format!(
                " \"legacy_objects_per_sec\": {rate:.1}, \"speedup_vs_legacy\": {speedup:.3},"
            ),
            _ => String::new(),
        };
        format!(
            "    {{ \"name\": \"{}\", \"n\": {}, \"threads\": {}, \"elapsed_s\": {:.6}, \
             \"objects_per_sec\": {:.1},{} \"bit_identical_spot_checks\": {}, \
             \"joints_computed\": {}, \"samples_drawn\": {} }}",
            self.name,
            self.n,
            self.threads,
            self.elapsed_s,
            self.objects_per_sec,
            legacy,
            self.spot_checks,
            self.joints_computed,
            self.samples_drawn,
        )
    }
}

/// Run one ladder row: batch at `threads`, spot-checked bit-identical
/// against the legacy driver on `legacy_targets` sampled objects (which
/// also yields the legacy rate when `time_legacy` is set).
fn ladder_row(
    name: &'static str,
    n: usize,
    d: usize,
    threads: usize,
    legacy_targets: usize,
    time_legacy: bool,
    component_cache: bool,
) -> Row {
    println!("## {name}: n={n} threads={threads}");
    let table = workloads::block_zipf(n, d);
    let (batch, stats, elapsed) = run_batch(&table, threads, component_cache);
    let rate = n as f64 / elapsed;
    println!("batch:  {n} objects in {elapsed:.3}s  ({rate:.0} objects/s)");
    let targets = spread_targets(n, legacy_targets);
    let legacy_elapsed = check_legacy_identity(&table, &batch, &targets);
    let legacy_rate = targets.len() as f64 / legacy_elapsed;
    println!("bit-identity: {}/{} spot checks passed", targets.len(), targets.len());
    let (legacy_out, speedup) = if time_legacy {
        println!(
            "legacy: {} objects in {legacy_elapsed:.3}s  ({legacy_rate:.0} objects/s); \
             speedup {:.2}x",
            targets.len(),
            rate / legacy_rate
        );
        (Some(legacy_rate), Some(rate / legacy_rate))
    } else {
        (None, None)
    };
    Row {
        name,
        n,
        threads,
        elapsed_s: elapsed,
        objects_per_sec: rate,
        legacy_objects_per_sec: legacy_out,
        speedup_vs_legacy: speedup,
        spot_checks: targets.len(),
        joints_computed: stats.joints_computed,
        samples_drawn: stats.samples_drawn,
    }
}

fn usage() {
    eprintln!(
        "usage: allsky_bench [--smoke | --quick] [--threads T] [--out <path>] \
         [--check <baseline.json>] [--rebaseline] [--no-component-cache]"
    );
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut quick = false;
    let mut rebaseline = false;
    let mut component_cache = true;
    let mut threads = 1usize;
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut check_path: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--quick" => quick = true,
            "--rebaseline" => rebaseline = true,
            "--no-component-cache" => component_cache = false,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 1 => threads = t,
                _ => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p.into()),
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(p) => check_path = Some(p.into()),
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    if smoke && quick {
        eprintln!("--smoke and --quick are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if check_path.is_some() && !smoke {
        eprintln!("--check gates the single-run --smoke shape only");
        return ExitCode::FAILURE;
    }
    let host_cores = presky_core::num_threads(None);

    if !smoke {
        // Baseline ladder (default: full; --quick: mid-size). Multi-row
        // report; bit-identity against the legacy driver on every row
        // doubles as the multi-thread identity check, since the legacy
        // loop is single-threaded by construction.
        let out = out_path.unwrap_or_else(|| {
            std::path::PathBuf::from(if quick {
                "BENCH_allsky_quick.json"
            } else {
                "BENCH_allsky.json"
            })
        });
        let d = 5;
        println!(
            "# allsky_bench — block-zipf baseline ladder ({}), adaptive policy, \
             lane_words={LANE_WORDS}, host cores {host_cores}, component cache {}",
            if quick { "quick: n=1e5" } else { "full: n=1e4 + n=1e6" },
            if component_cache { "on" } else { "off" }
        );
        let rows = if quick {
            vec![
                ladder_row("n1e5-t1", 100_000, d, 1, 100, true, component_cache),
                ladder_row("n1e5-t4", 100_000, d, LADDER_THREADS, 100, false, component_cache),
            ]
        } else {
            vec![
                ladder_row("n1e4-t1", 10_000, d, 1, 500, true, component_cache),
                ladder_row("n1e4-t4", 10_000, d, LADDER_THREADS, 500, false, component_cache),
                ladder_row("n1e6-t4", 1_000_000, d, LADDER_THREADS, 25, false, component_cache),
            ]
        };
        let body: Vec<String> = rows.iter().map(Row::to_json).collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"block-zipf\",\n",
                "  \"d\": {},\n",
                "  \"algorithm\": \"adaptive-default\",\n",
                "  \"lane_words\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"quick\": {},\n",
                "  \"component_cache\": {},\n",
                "  \"runs\": [\n{}\n  ]\n",
                "}}\n"
            ),
            d,
            LANE_WORDS,
            host_cores,
            quick,
            component_cache,
            body.join(",\n"),
        );
        if let Err(e) = std::fs::write(&out, &json) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", out.display());
        return ExitCode::SUCCESS;
    }

    // --smoke: the CI tier, single-run report shape with regression gate.
    let out_path = out_path.unwrap_or_else(|| std::path::PathBuf::from("BENCH_allsky_smoke.json"));
    let (n, d) = (2_000, 5);
    let legacy_targets = 200;
    println!(
        "# allsky_bench — smoke, block-zipf n={n} d={d}, adaptive policy, threads={threads}, \
         lane_words={LANE_WORDS}, host cores {host_cores}, component cache {}",
        if component_cache { "on" } else { "off" }
    );

    let table = workloads::block_zipf(n, d);
    let (batch, stats, batch_elapsed) = run_batch(&table, threads, component_cache);
    let batch_rate = n as f64 / batch_elapsed;
    println!("batch:  {n} objects in {batch_elapsed:.3}s  ({batch_rate:.0} objects/s)");

    // Multi-thread identity leg: re-run single-threaded and require the
    // full result vectors to match bit for bit.
    if threads > 1 {
        let (serial, _, _) = run_batch(&table, 1, component_cache);
        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.object, s.object);
            assert_eq!(
                b.sky.to_bits(),
                s.sky.to_bits(),
                "object {:?}: {threads} threads gave {}, 1 thread gave {}",
                b.object,
                b.sky,
                s.sky
            );
            assert_eq!(b.exact, s.exact, "object {:?}", b.object);
        }
        println!("thread identity: {threads}-thread run == 1-thread run bit-for-bit ({n} objects)");
    }

    // Legacy driver: per-object CoinView::build + fresh buffers, on an
    // evenly spread subsample (extrapolated to objects/second), with
    // bit-identity asserted on every sampled target.
    let targets = spread_targets(n, legacy_targets);
    let legacy_elapsed = check_legacy_identity(&table, &batch, &targets);
    let legacy_rate = targets.len() as f64 / legacy_elapsed;
    println!(
        "legacy: {} objects in {legacy_elapsed:.3}s  ({legacy_rate:.0} objects/s)",
        targets.len()
    );
    let speedup = batch_rate / legacy_rate;
    println!("speedup: {speedup:.2}x");
    println!("bit-identity: {}/{} spot checks passed", targets.len(), targets.len());
    println!("--- engine pipeline stats (batch side) ---");
    println!("{stats}");

    // Top-level scalar fields stay above the nested objects: the baseline
    // field lookup is first-occurrence.
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"block-zipf\",\n",
            "  \"n\": {},\n",
            "  \"d\": {},\n",
            "  \"algorithm\": \"adaptive-default\",\n",
            "  \"threads\": {},\n",
            "  \"lane_words\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"quick\": true,\n",
            "  \"component_cache\": {},\n",
            "  \"batch\": {{ \"objects\": {}, \"elapsed_s\": {:.6}, \"objects_per_sec\": {:.1} }},\n",
            "  \"legacy\": {{ \"objects\": {}, \"elapsed_s\": {:.6}, \"objects_per_sec\": {:.1} }},\n",
            "  \"speedup\": {:.3},\n",
            "  \"bit_identical_spot_checks\": {},\n",
            "  \"pipeline\": {{\n",
            "    \"short_circuited\": {},\n",
            "    \"attackers_in\": {},\n",
            "    \"absorbed\": {},\n",
            "    \"survivors\": {},\n",
            "    \"components\": {},\n",
            "    \"largest_component\": {},\n",
            "    \"plan_exact\": {},\n",
            "    \"plan_sample\": {},\n",
            "    \"joints_computed\": {},\n",
            "    \"samples_drawn\": {},\n",
            "    \"cache_probes\": {},\n",
            "    \"cache_hits\": {},\n",
            "    \"cache_hit_rate\": {:.4},\n",
            "    \"cache_insertions\": {},\n",
            "    \"cache_bytes\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        n,
        d,
        threads,
        LANE_WORDS,
        host_cores,
        component_cache,
        n,
        batch_elapsed,
        batch_rate,
        targets.len(),
        legacy_elapsed,
        legacy_rate,
        speedup,
        targets.len(),
        stats.short_circuited,
        stats.attackers_in,
        stats.absorbed,
        stats.survivors,
        stats.components,
        stats.largest_component,
        stats.plan_exact,
        stats.plan_sample,
        stats.joints_computed,
        stats.samples_drawn,
        stats.cache_probes,
        stats.cache_hits,
        stats.cache_hit_rate(),
        stats.cache_insertions,
        stats.cache_bytes,
    );

    // Refuse to compare or overwrite across configurations: a speedup
    // ratio only transfers between runs with matching problem size,
    // thread count, and kernel width.
    let config_matches = |text: &str, path: &std::path::Path, verb: &str| {
        same_field_or_refuse(text, path, "n", &n.to_string(), verb)
            && same_field_or_refuse(text, path, "threads", &threads.to_string(), verb)
            && same_field_or_refuse(text, path, "lane_words", &LANE_WORDS.to_string(), verb)
    };

    // `--rebaseline` makes baseline drift explicit: read the report being
    // replaced and print how the headline ratio moved before overwriting.
    if rebaseline {
        match std::fs::read_to_string(&out_path) {
            Ok(old) => {
                if !config_matches(&old, &out_path, "rebaseline target") {
                    return ExitCode::FAILURE;
                }
                match parse_baseline_field(&old, "speedup").and_then(|s| s.parse::<f64>().ok()) {
                    Some(old_speedup) => println!(
                        "rebaseline: speedup {old_speedup:.2}x -> {speedup:.2}x \
                         (new/old ratio {:.3})",
                        speedup / old_speedup
                    ),
                    None => println!(
                        "rebaseline: no \"speedup\" field in old {}; writing fresh",
                        out_path.display()
                    ),
                }
            }
            Err(_) => {
                println!("rebaseline: no existing {}; writing fresh", out_path.display())
            }
        }
    }

    // Plain runs overwrite too (the report is always this run's numbers),
    // but never silently replace a report for a different configuration.
    if !rebaseline {
        if let Ok(old) = std::fs::read_to_string(&out_path) {
            if !config_matches(&old, &out_path, "overwrite target") {
                return ExitCode::FAILURE;
            }
        }
    }

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if !config_matches(&text, &path, "baseline") {
            return ExitCode::FAILURE;
        }
        let Some(baseline) =
            parse_baseline_field(&text, "speedup").and_then(|s| s.parse::<f64>().ok())
        else {
            eprintln!("no \"speedup\" field in baseline {}", path.display());
            return ExitCode::FAILURE;
        };
        let floor = baseline / CHECK_TOLERANCE;
        println!(
            "check: measured speedup {speedup:.2}x vs baseline {baseline:.2}x \
             (floor {floor:.2}x, tolerance {CHECK_TOLERANCE}x)"
        );
        if speedup < floor {
            eprintln!(
                "REGRESSION: speedup {speedup:.2}x fell below {floor:.2}x \
                 (baseline {baseline:.2}x / {CHECK_TOLERANCE})"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
