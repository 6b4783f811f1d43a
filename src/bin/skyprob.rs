//! `skyprob` — command-line front end for skyline probability over
//! uncertain preferences.
//!
//! ```text
//! skyprob gen uniform   --n 50 --d 5 [--seed 1] [--values 8] --out data.tbl
//! skyprob gen blockzipf --n 10000 --d 5 [--seed 1] [--block 16] [--values 8] --out data.tbl
//! skyprob gen nursery   [--d 8] --out data.tbl
//! skyprob gen car       [--d 6] --out data.tbl
//! skyprob gen prefs     --table data.tbl [--law complementary|simplex|unanimous|certain]
//!                       [--seed 1] --out prefs.txt
//!
//! skyprob sky      --table data.tbl (--prefs prefs.txt | --seed-prefs 42)
//!                  --target 0 [--algo adaptive|detplus|det|sam|samplus|cond|sac]
//!                  [--samples 3000] [--stats] [--no-component-cache]
//! skyprob profile  --table data.tbl (--prefs … | --seed-prefs …) --target 0
//! skyprob skyline  --table data.tbl (--prefs … | --seed-prefs …) --tau 0.1
//!                  [--stats] [--no-component-cache] [--deadline-ms 50]
//! skyprob topk     --table data.tbl (--prefs … | --seed-prefs …) --k 5
//!                  [--no-component-cache] [--deadline-ms 50]
//! skyprob elicit   [--dataset nursery|car] [--d 3] [--n 48] [--rounds 3]
//!                  [--top 8] [--seed-prefs 42] [--threads T]
//! skyprob serve    --table data.tbl (--prefs … | --seed-prefs …)
//!                  [--threads 4] [--rounds 2] [--tau 0.1] [--k 5]
//!                  [--deadline-ms 50] [--max-joints J] [--max-samples S]
//!                  [--max-in-flight 64] [--max-predicted-cost C]
//!                  [--duplicate-fraction 0.9] [--no-coalesce]
//!                  [--save-cache snap] [--warm-cache snap] [--min-warm-hit-rate 0.9]
//!                  [--mutation-rate 0.1] [--mutation-mix prefs|mixed]
//!                  [--min-post-mutation-hit-rate 0.8]
//!                  [--tenants N] [--overlay-pairs K] [--tenant-zipf 1.1]
//!                  [--tenant-namespace] [--min-cross-user-hit-rate 0.9]
//! ```
//!
//! Tables and preference files use the `presky-datagen` text formats.
//! Each command accepts only the flags it reads: any other flag (a stale
//! or misspelt one, say) is refused before the command does any work.
//!
//! The `sky` algorithms `adaptive`, `detplus`, `det`, `sam` and `samplus`
//! all run through the unified `presky_query::engine` pipeline
//! (Prepare → Plan → Execute), so the values and timings the CLI reports
//! are the library path's. `det` and `sam` disable the absorption and
//! partition stages (`PrepareOptions::minimal()`); `detplus`, `samplus`
//! and `adaptive` run the full preparation. `sac` and `cond` remain
//! explicitly-labelled raw-view baselines that bypass the engine.
//! `--stats` prints the per-stage `PipelineStats` counters.
//! `--no-component-cache` disables the hash-consed exact component cache
//! (the ablation baseline; results are bit-identical either way).
//!
//! `skyline`, `topk` and `serve` run through the resident
//! `presky_service::Engine`: the dataset is indexed once, requests may
//! carry a budget (`--deadline-ms`, `--max-joints`, `--max-samples`), and
//! a tripped budget truncates slots — it never alters a value. `serve` is
//! an in-process mixed-workload driver that exercises one engine from
//! many threads and prints its `MetricsSnapshot` plus requests/s and
//! p50/p99 latency; CI's serving gates compare the logs of `serve` runs
//! that differ in one flag. `--duplicate-fraction` injects identical
//! concurrent submissions (the single-flight coalescing workload;
//! `--no-coalesce` is the A/B baseline), and `--save-cache` /
//! `--warm-cache` persist the component cache across restarts
//! (`--min-warm-hit-rate` turns the warm first-round hit rate into an
//! exit-code assertion for CI). The first and post-storm all-sky times
//! print in seconds, so two logs divide without unit parsing.
//!
//! `--mutation-rate` turns that fraction of serve submissions into
//! *writes* against the live engine — preference edits, plus inserts and
//! removals under the default `--mutation-mix mixed` (`prefs` keeps the
//! row set fixed so the workload replays bit-identically). After every
//! storm the driver probes one all-sky pass: its cache hit rate gates
//! `--min-post-mutation-hit-rate` (the incremental-invalidation evidence)
//! and its digest must match a fresh engine rebuilt from the final
//! snapshot, or the command fails.
//!
//! `elicit` closes the preference-elicitation loop end-to-end over a live
//! engine: each round ranks the still-uncertain preference pairs by value
//! of information (expected total skyline-probability churn if the pair
//! were resolved to certainty, from the exact DFS gradients), answers the
//! top-ranked question with a deterministic oracle (the direction the
//! current model already favours), commits the answer through the
//! epoch/MVCC write path, reports the commit's exact cache-eviction cost
//! from its `CommitReceipt`, and re-ranks against the new epoch. The
//! driver is non-interactive and fully deterministic, so CI can diff two
//! runs for rank determinism; after the last round it asserts the live
//! all-sky digest equals a fresh engine built from the final snapshot
//! (exit code gates the check).
//!
//! `--tenants N` registers N synthetic tenants, each with a deterministic
//! `--overlay-pairs`-pair preference overlay over the dataset's rarest
//! value codes, and stamps every read submission with a tenant drawn
//! zipf(`--tenant-zipf`) from a per-submission hash. Overlay-untouched
//! components hit the shared cross-user component cache; the run prints
//! the cross-user hit rate (`--min-cross-user-hit-rate` gates it for CI)
//! and the all-sky digests of tenants 0 and N−1. `--tenant-namespace` is
//! the no-sharing ablation: per-tenant cache key spaces, bit-identical
//! answers.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use presky::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("skyprob: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let flags = parse_flags(&args[1..]);
    if let Some(accepted) = accepted_flags(cmd, args.get(1).map(String::as_str)) {
        let mut unknown: Vec<&str> = flags
            .keys()
            .map(String::as_str)
            .filter(|f| !accepted.split_whitespace().any(|a| a == *f))
            .collect();
        if !unknown.is_empty() {
            unknown.sort_unstable();
            return Err(format!(
                "{cmd}: unknown flag --{} (accepted: --{})",
                unknown.join(", --"),
                accepted.split_whitespace().collect::<Vec<_>>().join(", --")
            ));
        }
    }
    match cmd.as_str() {
        "gen" => gen(args.get(1).map(String::as_str), &flags),
        "sky" => sky(&flags),
        "profile" => profile_cmd(&flags),
        "skyline" => skyline(&flags),
        "topk" => topk(&flags),
        "elicit" => elicit(&flags),
        "serve" => serve(&flags),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  skyprob gen <uniform|blockzipf|nursery|car|prefs> [flags] --out FILE\n  \
     skyprob sky --table FILE (--prefs FILE | --seed-prefs N) --target I [--algo A] [--samples M] [--stats]\n  \
     skyprob profile --table FILE (--prefs FILE | --seed-prefs N) --target I\n  \
     skyprob skyline --table FILE (--prefs FILE | --seed-prefs N) --tau T [--stats] [--deadline-ms D]\n  \
     skyprob topk --table FILE (--prefs FILE | --seed-prefs N) --k K [--deadline-ms D]\n  \
     skyprob elicit [--dataset nursery|car] [--d 3] [--n 48] [--rounds 3] [--top 8]\n  \
                [--seed-prefs 42] [--threads T]\n  \
     skyprob serve --table FILE (--prefs FILE | --seed-prefs N) [--threads T] [--rounds R]\n  \
                [--tau T] [--k K] [--deadline-ms D] [--max-joints J] [--max-samples S]\n  \
                [--max-in-flight F] [--max-predicted-cost C] [--duplicate-fraction F]\n  \
                [--no-coalesce] [--save-cache FILE] [--warm-cache FILE]\n  \
                [--min-warm-hit-rate R] [--mutation-rate F] [--mutation-mix prefs|mixed]\n  \
                [--min-post-mutation-hit-rate R] [--tenants N] [--overlay-pairs K]\n  \
                [--tenant-zipf Z] [--tenant-namespace] [--min-cross-user-hit-rate R]"
        .to_owned()
}

/// The flags `cmd` reads, space-separated (for `gen`, those of generator
/// `kind`), or `None` for an unknown command or generator, which the
/// dispatcher reports itself. `run` refuses every other flag, so a stale
/// or misspelt one fails loudly instead of being ignored — a misspelt
/// exit-code gate would otherwise switch its check off.
fn accepted_flags(cmd: &str, kind: Option<&str>) -> Option<&'static str> {
    Some(match (cmd, kind) {
        ("gen", Some("uniform")) => "n d seed values out",
        ("gen", Some("blockzipf")) => "n d seed block values zipf out",
        ("gen", Some("nursery" | "car")) => "d out",
        ("gen", Some("prefs")) => "table law seed out",
        ("sky", _) => "table prefs seed-prefs target algo samples stats no-component-cache",
        ("profile", _) => "table prefs seed-prefs target",
        ("skyline", _) => {
            "table prefs seed-prefs tau stats no-component-cache \
             deadline-ms max-joints max-samples"
        }
        ("topk", _) => {
            "table prefs seed-prefs k no-component-cache deadline-ms max-joints max-samples"
        }
        ("elicit", _) => "dataset d n rounds top seed-prefs threads",
        ("serve", _) => {
            "table prefs seed-prefs threads rounds tau k deadline-ms max-joints max-samples \
             max-in-flight max-predicted-cost duplicate-fraction no-coalesce save-cache \
             warm-cache min-warm-hit-rate mutation-rate mutation-mix min-post-mutation-hit-rate \
             tenants overlay-pairs tenant-zipf tenant-namespace min-cross-user-hit-rate"
        }
        ("--help" | "-h" | "help", _) => "",
        _ => return None,
    })
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_owned(),
            };
            flags.insert(name.to_owned(), value);
        }
    }
    flags
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|e| format!("--{key} {v:?}: {e}")),
    }
}

fn require<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    get(flags, key)?.ok_or_else(|| format!("missing required flag --{key}"))
}

// ------------------------------------------------------------------ gen

fn gen(kind: Option<&str>, flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = kind.ok_or_else(usage)?;
    if kind == "prefs" {
        return gen_prefs(flags);
    }
    let out: PathBuf = require(flags, "out")?;
    let seed: u64 = get(flags, "seed")?.unwrap_or(1);
    let table = match kind {
        "uniform" => {
            let n: usize = require(flags, "n")?;
            let d: usize = require(flags, "d")?;
            let mut cfg = UniformConfig::new(n, d, seed);
            cfg.values_per_dim = get(flags, "values")?;
            generate_uniform(cfg).map_err(|e| e.to_string())?
        }
        "blockzipf" => {
            let n: usize = require(flags, "n")?;
            let d: usize = require(flags, "d")?;
            let mut cfg = BlockZipfConfig::new(n, d, seed);
            if let Some(b) = get(flags, "block")? {
                cfg.block_size = b;
            }
            if let Some(v) = get(flags, "values")? {
                cfg.values_per_block = v;
            }
            if let Some(s) = get(flags, "zipf")? {
                cfg.zipf_s = s;
            }
            generate_block_zipf(cfg).map_err(|e| e.to_string())?
        }
        "nursery" => {
            let d: usize = get(flags, "d")?.unwrap_or(8);
            nursery_projected(d).map_err(|e| e.to_string())?
        }
        "car" => {
            let d: usize = get(flags, "d")?.unwrap_or(6);
            car_projected(d).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown generator {other:?}")),
    };
    write_table(&out, &table).map_err(|e| e.to_string())?;
    println!(
        "wrote {} objects x {} dims to {}",
        table.len(),
        table.dimensionality(),
        out.display()
    );
    Ok(())
}

fn gen_prefs(flags: &HashMap<String, String>) -> Result<(), String> {
    let table_path: PathBuf = require(flags, "table")?;
    let out: PathBuf = require(flags, "out")?;
    let seed: u64 = get(flags, "seed")?.unwrap_or(1);
    let law = flags.get("law").map(String::as_str).unwrap_or("complementary");
    let dist = match law {
        "complementary" => PrefDistribution::Complementary,
        "simplex" => PrefDistribution::Simplex,
        "unanimous" => PrefDistribution::Unanimous(0.5),
        "certain" => PrefDistribution::CertainCoin,
        other => return Err(format!("unknown law {other:?}")),
    };
    let table = read_table(&table_path).map_err(|e| e.to_string())?;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let prefs = generate_table_preferences(&table, dist, &mut rng).map_err(|e| e.to_string())?;
    write_prefs(&out, &prefs).map_err(|e| e.to_string())?;
    println!("wrote {} preference pairs to {}", prefs.len(), out.display());
    Ok(())
}

// ------------------------------------------------------------- instance

#[derive(Clone)]
enum Prefs {
    File(TablePreferences),
    Seeded(SeededPreferences),
}

impl PreferenceModel for Prefs {
    fn pr_strict(&self, dim: DimId, a: ValueId, b: ValueId) -> f64 {
        match self {
            Prefs::File(p) => p.pr_strict(dim, a, b),
            Prefs::Seeded(p) => p.pr_strict(dim, a, b),
        }
    }
}

fn load_instance(flags: &HashMap<String, String>) -> Result<(Table, Prefs), String> {
    let table_path: PathBuf = require(flags, "table")?;
    let table = read_table(Path::new(&table_path)).map_err(|e| e.to_string())?;
    let prefs = if let Some(p) = flags.get("prefs") {
        Prefs::File(read_prefs(Path::new(p)).map_err(|e| e.to_string())?)
    } else if let Some(seed) = get::<u64>(flags, "seed-prefs")? {
        Prefs::Seeded(SeededPreferences::complementary(seed))
    } else {
        return Err("need --prefs FILE or --seed-prefs N".to_owned());
    };
    Ok((table, prefs))
}

// ------------------------------------------------------------------ sky

fn sky(flags: &HashMap<String, String>) -> Result<(), String> {
    let (table, prefs) = load_instance(flags)?;
    let target = ObjectId::from(require::<usize>(flags, "target")?);
    let algo_name = flags.get("algo").map(String::as_str).unwrap_or("detplus");
    let samples: u64 = get(flags, "samples")?.unwrap_or(3000);
    let want_stats = flags.contains_key("stats");
    let start = std::time::Instant::now();

    // `sac` and `cond` are kept as raw-view baselines: they deliberately
    // bypass the engine's Prepare stage so their reported numbers show
    // what the rejected/conditioning estimators do on the unreduced
    // instance. Everything else goes through the unified pipeline, so the
    // CLI reports the same values and timings as the library path.
    match algo_name {
        "sac" => {
            let value = sky_sac(&table, &prefs, target).map_err(|e| e.to_string())?;
            println!(
                "sky({target}) = {value:.9}  [sac, raw-view baseline] in {:.1?}",
                start.elapsed()
            );
            return Ok(());
        }
        "cond" => {
            let value = sky_conditioning(&table, &prefs, target, ConditioningOptions::default())
                .map_err(|e| e.to_string())?
                .sky;
            println!(
                "sky({target}) = {value:.9}  [cond, exact, raw-view baseline] in {:.1?}",
                start.elapsed()
            );
            return Ok(());
        }
        _ => {}
    }

    let (algo, mut prep) = match algo_name {
        "detplus" => (Algorithm::Exact { det: DetOptions::default() }, PrepareOptions::full()),
        "det" => (Algorithm::Exact { det: DetOptions::default() }, PrepareOptions::minimal()),
        "adaptive" => (Algorithm::default(), PrepareOptions::full()),
        "sam" => {
            (Algorithm::Sampling(SamOptions::with_samples(samples, 0)), PrepareOptions::minimal())
        }
        "samplus" => {
            (Algorithm::Sampling(SamOptions::with_samples(samples, 0)), PrepareOptions::full())
        }
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    prep.component_cache = !flags.contains_key("no-component-cache");
    let mut scratch = SkyScratch::default();
    let mut stats = PipelineStats::default();
    let (result, plan) = presky::query::engine::solve_one_explained(
        &table,
        &prefs,
        target,
        algo,
        prep,
        &mut scratch,
        &mut stats,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "sky({target}) = {:.9}  [{algo_name}{}] in {:.1?}",
        result.sky,
        if result.exact { ", exact" } else { "" },
        start.elapsed()
    );
    if want_stats {
        println!("chosen:   {plan}");
        println!("{stats}");
    }
    Ok(())
}

fn profile_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let (table, prefs) = load_instance(flags)?;
    let target = ObjectId::from(require::<usize>(flags, "target")?);
    let view = CoinView::build(&table, &prefs, target).map_err(|e| e.to_string())?;
    let prof = profile(&view);
    println!("attackers            {}", prof.n_attackers);
    println!("coins                {}", prof.n_coins);
    println!("mean coins/attacker  {:.2}", prof.mean_coins_per_attacker);
    println!("mean sharing         {:.2}", prof.mean_sharing);
    println!("max sharing          {}", prof.max_sharing);
    println!("impossible           {}", prof.impossible);
    println!("absorbed             {}", prof.absorbed);
    println!("survivors            {}", prof.survivors());
    println!("largest component    {}", prof.largest_component());
    println!("log2(exact work)     {:.1}", prof.log2_exact_work());
    let bounds = sky_bounds_cheap(&view);
    println!("certified bounds     [{:.6}, {:.6}]", bounds.lower, bounds.upper);
    Ok(())
}

/// A per-request budget assembled from `--deadline-ms` / `--max-joints` /
/// `--max-samples` flags (absent flags leave the budget unlimited).
fn budget_from(flags: &HashMap<String, String>) -> Result<Budget, String> {
    Ok(Budget::default()
        .with_deadline(get::<u64>(flags, "deadline-ms")?.map(std::time::Duration::from_millis))
        .with_max_joints(get::<u64>(flags, "max-joints")?)
        .with_max_samples(get::<u64>(flags, "max-samples")?))
}

fn report_truncation(outcome: &Outcome) {
    if let Outcome::DeadlineExceeded { truncated, .. } = outcome {
        println!("  (budget exceeded: {truncated} slots truncated — shown values are unaffected)");
    }
}

fn skyline(flags: &HashMap<String, String>) -> Result<(), String> {
    let (table, prefs) = load_instance(flags)?;
    let tau: f64 = require(flags, "tau")?;
    let want_stats = flags.contains_key("stats");
    let start = std::time::Instant::now();
    let opts =
        ThresholdOptions::default().with_component_cache(!flags.contains_key("no-component-cache"));
    let engine = Engine::new(table, prefs, EngineOptions::default()).map_err(|e| e.to_string())?;
    let response = engine
        .run(Request::threshold(tau, opts).with_budget(budget_from(flags)?))
        .map_err(|e| e.to_string())?;
    let answers: Vec<ThresholdAnswer> = response
        .outcome
        .value()
        .as_threshold()
        .expect("threshold request yields threshold slots")
        .iter()
        .flatten()
        .copied()
        .collect();
    let stats = resolution_stats(&answers);
    let members: Vec<_> = answers.iter().filter(|a| a.member).collect();
    println!(
        "{} of {} objects have sky >= {tau}  ({:.1?}; resolved: {} bounds, {} exact, {} sequential, {} fallback)",
        members.len(),
        answers.len(),
        start.elapsed(),
        stats.by_bounds,
        stats.by_exact,
        stats.by_sequential,
        stats.by_estimate,
    );
    report_truncation(&response.outcome);
    let view = engine.snapshot();
    for a in members.iter().take(20) {
        println!("  {}  {}", a.object, view.table().display_row(a.object));
    }
    if members.len() > 20 {
        println!("  … and {} more", members.len() - 20);
    }
    if want_stats {
        println!("{}", response.stats);
    }
    Ok(())
}

fn topk(flags: &HashMap<String, String>) -> Result<(), String> {
    let (table, prefs) = load_instance(flags)?;
    let k: usize = require(flags, "k")?;
    let start = std::time::Instant::now();
    let opts =
        TopKOptions::default().with_component_cache(!flags.contains_key("no-component-cache"));
    let engine = Engine::new(table, prefs, EngineOptions::default()).map_err(|e| e.to_string())?;
    let response = engine
        .run(Request::top_k(k, opts).with_budget(budget_from(flags)?))
        .map_err(|e| e.to_string())?;
    let top = response.outcome.value().as_top_k().expect("top-k request yields a ranking");
    println!("top-{k} by skyline probability ({:.1?}):", start.elapsed());
    report_truncation(&response.outcome);
    let view = engine.snapshot();
    for (rank, r) in top.iter().enumerate() {
        println!(
            "  {:>2}. {}  sky = {:.6}{}  {}",
            rank + 1,
            r.object,
            r.sky,
            if r.exact { "" } else { " (est)" },
            view.table().display_row(r.object)
        );
    }
    Ok(())
}

/// The preference-elicitation loop closed end-to-end over a live engine:
/// rank uncertain pairs by value of information, answer the top question
/// with a deterministic oracle, commit through the epoch/MVCC write path,
/// re-rank, and finally cross-check the live engine's all-sky digest
/// against a fresh engine built from the final snapshot.
fn elicit(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = flags.get("dataset").map(String::as_str).unwrap_or("nursery");
    let d: usize = get(flags, "d")?.unwrap_or(3);
    let n: usize = get(flags, "n")?.unwrap_or(48);
    let rounds: usize = get(flags, "rounds")?.unwrap_or(3);
    let top: usize = get(flags, "top")?.unwrap_or(8);
    let seed: u64 = get(flags, "seed-prefs")?.unwrap_or(42);
    let threads: Option<usize> = get(flags, "threads")?;
    let full = match dataset {
        "nursery" => nursery_projected(d).map_err(|e| e.to_string())?,
        "car" => car_projected(d).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown dataset {other:?} (expected nursery|car)")),
    };
    let table = full.head(n).dedup_rows();
    println!("elicit: dataset {dataset} d={d} -> {} rows, {rounds} round(s)", table.len());
    let prefs = SeededPreferences::complementary(seed);
    let engine = Engine::new(table, prefs, EngineOptions::default()).map_err(|e| e.to_string())?;
    let opts = ElicitOptions::default().with_top(top).with_threads(threads);

    for round in 1..=rounds {
        let resp = engine.run(Request::elicitation_rank(opts)).map_err(|e| e.to_string())?;
        let ranked = resp
            .outcome
            .value()
            .as_elicitation_rank()
            .expect("elicitation request yields ranked candidates");
        println!(
            "round {round}: {} uncertain pair(s) ranked by value of information",
            ranked.len()
        );
        for (i, c) in ranked.iter().enumerate() {
            println!(
                "  #{:<2} dim {} values ({}, {})  Pr(lo<hi) {:.4}  Pr(hi<lo) {:.4}  \
                 voi {:.6}  coin occurrences {}",
                i + 1,
                c.dim.0,
                c.lo.0,
                c.hi.0,
                c.forward,
                c.backward,
                c.voi,
                c.targets,
            );
        }
        let Some(top) = ranked.first() else {
            println!("round {round}: every preference is certain — elicitation converged");
            break;
        };
        // Deterministic oracle: resolve the pair to certainty in the
        // direction the current model already favours (ties go forward).
        let (fwd, bwd) = if top.forward >= top.backward { (1.0, 0.0) } else { (0.0, 1.0) };
        let receipt =
            engine.set_preference(top.dim, top.lo, top.hi, fwd, bwd).map_err(|e| e.to_string())?;
        println!(
            "  commit: dim {} ({}, {}) -> Pr(lo<hi)={fwd} | epoch {} dirtied {} \
             evicted {} component(s) / {} byte(s)",
            top.dim.0,
            top.lo.0,
            top.hi.0,
            receipt.epoch,
            receipt.dirtied_targets,
            receipt.evicted_components,
            receipt.evicted_bytes,
        );
    }

    // Digest cross-check: the live engine (incremental invalidation across
    // all commits) must answer bit-identically to a fresh engine built
    // from the final snapshot.
    let live = engine.run(Request::all_sky(QueryOptions::default())).map_err(|e| e.to_string())?;
    let live_digest = digest(std::slice::from_ref(&live.outcome));
    let view = engine.snapshot();
    let fresh_engine = Engine::new(
        view.table().as_ref().clone(),
        view.prefs().as_ref().clone(),
        EngineOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let fresh =
        fresh_engine.run(Request::all_sky(QueryOptions::default())).map_err(|e| e.to_string())?;
    let fresh_digest = digest(std::slice::from_ref(&fresh.outcome));
    println!(
        "digest: live {live_digest:016x} fresh {fresh_digest:016x} match {}",
        live_digest == fresh_digest
    );
    if live_digest == fresh_digest {
        Ok(())
    } else {
        Err("live all-sky digest differs from a fresh engine built from the final snapshot"
            .to_owned())
    }
}

/// splitmix64 finaliser — the serve driver's deterministic hash: the same
/// sequence number always yields the same bits, so a workload replays
/// identically across A/B runs. Salting the input (`seq ^ SALT`) derives
/// independent streams from one sequence.
fn mix64(seq: u64) -> u64 {
    let mut z = seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic per-submission coin in `[0, 1)` for
/// `--duplicate-fraction` and `--mutation-rate`.
fn duplicate_coin(seq: u64) -> f64 {
    (mix64(seq) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Salt separating the mutation coin stream from the duplicate stream.
const MUTATE_SALT: u64 = 0x6d75_7461_7465_5f5f;
/// Salt for the write-op parameter stream.
const WRITE_OP_SALT: u64 = 0x7772_6974_655f_6f70;

fn percentile(sorted_nanos: &[u64], p: f64) -> std::time::Duration {
    if sorted_nanos.is_empty() {
        return std::time::Duration::ZERO;
    }
    let rank = ((sorted_nanos.len() - 1) as f64 * p).round() as usize;
    std::time::Duration::from_nanos(sorted_nanos[rank])
}

/// Salt for the per-submission tenant-pick stream.
const TENANT_PICK_SALT: u64 = 0x7465_6e61_6e74_5f69;
/// Salt for the synthetic per-tenant overlay-pair stream.
const TENANT_PAIR_SALT: u64 = 0x7465_6e61_6e74_5f70;

/// Deterministic synthetic overlay for one tenant: `k` elicited pairs
/// over the rarest value codes of hashed dimensions, with interior
/// probabilities in `[0.05, 0.45]` (always simplex-valid whatever the
/// base model holds). Rare values keep each overlay's touched-coin set
/// small, so most components stay on shared cross-user cache keys — the
/// production shape of per-user elicitation over distinctive attribute
/// levels. A pure function of the tenant id: every serve run — shared or
/// namespaced — registers bit-identical overlays.
fn synthetic_overlay(
    tenant: u64,
    k: usize,
    rare_dims: &[(DimId, Vec<ValueId>)],
) -> Vec<(DimId, ValueId, ValueId, f64, f64)> {
    let mut pairs = Vec::with_capacity(k);
    for j in 0..k {
        let h = mix64(tenant.wrapping_mul(0x1_0000).wrapping_add(j as u64) ^ TENANT_PAIR_SALT);
        let (dim, vals) = &rare_dims[(h % rare_dims.len() as u64) as usize];
        let a = ((h >> 16) % vals.len() as u64) as usize;
        let mut b = ((h >> 32) % (vals.len() - 1) as u64) as usize;
        if b >= a {
            b += 1;
        }
        let forward = 0.05 + ((h >> 40) & 0xfff) as f64 / 4095.0 * 0.40;
        let backward = 0.05 + ((h >> 52) & 0xfff) as f64 / 4095.0 * 0.40;
        pairs.push((*dim, vals[a], vals[b], forward, backward));
    }
    pairs
}

/// Cumulative zipf(`theta`) distribution over `n` ranks (`theta` = 0 is
/// uniform): rank `i` carries weight `1 / (i + 1)^theta`.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(theta);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Inverse-CDF draw: the rank whose cumulative bucket contains `u`.
fn pick_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len().saturating_sub(1))
}

/// In-process mixed-workload driver against one resident engine:
/// `--threads` workers each issue `--rounds` passes over a five-shape
/// workload, every request under the same optional budget.
/// `--duplicate-fraction` replaces that fraction of submissions with one
/// fixed all-sky request so single-flight coalescing wins are measurable
/// (`--no-coalesce` is the A/B baseline). The run opens with a timed
/// first-round all-sky probe — its cache hit rate backs
/// `--min-warm-hit-rate` and its digest is the CI bit-identity handle —
/// and closes with requests/s, p50/p99 latency, a post-storm all-sky
/// probe checked against a freshly rebuilt engine, and the engine's
/// [`MetricsSnapshot`]. `--save-cache` / `--warm-cache` snapshot and
/// restore the component cache across runs.
fn serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let (table, prefs) = load_instance(flags)?;
    let threads: usize = get(flags, "threads")?.unwrap_or(4).max(1);
    let rounds: usize = get(flags, "rounds")?.unwrap_or(2).max(1);
    let tau: f64 = get(flags, "tau")?.unwrap_or(0.1);
    let k: usize = get(flags, "k")?.unwrap_or(5);
    let duplicate_fraction: f64 = get(flags, "duplicate-fraction")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&duplicate_fraction) {
        return Err(format!("--duplicate-fraction {duplicate_fraction} must be in [0, 1]"));
    }
    let mutation_rate: f64 = get(flags, "mutation-rate")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&mutation_rate) {
        return Err(format!("--mutation-rate {mutation_rate} must be in [0, 1]"));
    }
    let mutation_mixed = match flags.get("mutation-mix").map(String::as_str) {
        None | Some("mixed") => true,
        Some("prefs") => false,
        Some(other) => return Err(format!("--mutation-mix {other:?} must be prefs or mixed")),
    };
    // Distinct sorted values per dimension, harvested before the table
    // moves into the engine: the pool `set_preference` mutations draw
    // their edited pairs from.
    let editable_dims: Vec<(DimId, Vec<ValueId>)> = (0..table.dimensionality())
        .map(|dim| {
            let dim = DimId(dim as u32);
            let mut vals = table.column(dim).to_vec();
            vals.sort_unstable();
            vals.dedup();
            (dim, vals)
        })
        .filter(|(_, vals)| vals.len() >= 2)
        .collect();
    if mutation_rate > 0.0 && editable_dims.is_empty() {
        return Err("--mutation-rate needs a dimension with >= 2 distinct values".to_owned());
    }
    // The rarest value codes per dimension — the pool the synthetic
    // tenant overlays elicit over (see [`synthetic_overlay`]).
    let rare_dims: Vec<(DimId, Vec<ValueId>)> = (0..table.dimensionality())
        .map(|dim| {
            let dim = DimId(dim as u32);
            let mut freq: HashMap<ValueId, usize> = HashMap::new();
            for &v in table.column(dim) {
                *freq.entry(v).or_insert(0) += 1;
            }
            let mut by_rarity: Vec<(usize, ValueId)> =
                freq.into_iter().map(|(v, c)| (c, v)).collect();
            by_rarity.sort_unstable_by_key(|&(c, v)| (c, v.0));
            (dim, by_rarity.into_iter().map(|(_, v)| v).take(4).collect::<Vec<_>>())
        })
        .filter(|(_, vals)| vals.len() >= 2)
        .collect();
    let dims = table.dimensionality();
    let budget = budget_from(flags)?;
    let mut engine_opts = EngineOptions::default();
    if let Some(max) = get::<usize>(flags, "max-in-flight")? {
        engine_opts = engine_opts.with_max_in_flight(max);
    }
    if let Some(ceiling) = get::<u64>(flags, "max-predicted-cost")? {
        engine_opts = engine_opts.with_max_predicted_cost(Some(ceiling));
    }
    if flags.contains_key("no-coalesce") {
        engine_opts = engine_opts.with_coalescing(false);
    }
    let warm: Option<PathBuf> = get(flags, "warm-cache")?;
    let tenants_n: usize = get(flags, "tenants")?.unwrap_or(0);
    let overlay_k: usize = get(flags, "overlay-pairs")?.unwrap_or(2);
    let tenant_theta: f64 = get(flags, "tenant-zipf")?.unwrap_or(0.0);
    if flags.contains_key("tenant-namespace") {
        engine_opts = engine_opts.with_tenant_namespacing(true);
    }
    if tenants_n > 0 && overlay_k > 0 && rare_dims.is_empty() {
        return Err("--tenants needs a dimension with >= 2 distinct values".to_owned());
    }
    let mut engine = Engine::new(table, prefs, engine_opts).map_err(|e| e.to_string())?;
    // Tenants register *before* any warm load: the snapshot fingerprint
    // covers the tenant registry, so a tenant-serving snapshot only
    // revalidates against the same registration set.
    if tenants_n > 0 {
        for t in 0..tenants_n as u64 {
            let pairs = synthetic_overlay(t, overlay_k, &rare_dims);
            engine.register_tenant(TenantId(t), &pairs).map_err(|e| e.to_string())?;
        }
        println!(
            "registered {tenants_n} tenants with {overlay_k}-pair overlays \
             (zipf theta {tenant_theta}{})",
            if engine_opts.tenant_namespacing { ", namespaced ablation" } else { "" }
        );
    }
    if let Some(path) = &warm {
        engine.load_cache_snapshot(path).map_err(|e| e.to_string())?;
    }
    let tenant_cdf: Option<Vec<f64>> = (tenants_n > 0).then(|| zipf_cdf(tenants_n, tenant_theta));
    let n = engine.n_objects();

    // First-round probe: one unbudgeted all-sky pass. Its hit rate is the
    // warmstart evidence (a warm engine answers its *first* round at the
    // steady-state rate) and its digest the bit-identity handle.
    let probe_started = std::time::Instant::now();
    let probe = engine
        .run(Request::all_sky(QueryOptions::default().with_threads(Some(1))))
        .map_err(|e| e.to_string())?;
    let probe_elapsed = probe_started.elapsed();
    let (hits, probes) = (probe.stats.cache_hits, probe.stats.cache_probes);
    let hit_rate = if probes == 0 { 0.0 } else { hits as f64 / probes as f64 };
    println!(
        "first all-sky: {:.6} s, cache hit rate {hit_rate:.3} ({hits}/{probes} probes), digest {:016x}",
        probe_elapsed.as_secs_f64(),
        digest(std::slice::from_ref(&probe.outcome))
    );
    if let Some(floor) = get::<f64>(flags, "min-warm-hit-rate")? {
        if hit_rate < floor {
            return Err(format!(
                "first-round cache hit rate {hit_rate:.3} below --min-warm-hit-rate {floor}"
            ));
        }
    }

    // Inner query parallelism pinned to one thread: the serve driver's
    // workers are the concurrency under test.
    let requests: Vec<Request> = vec![
        Request::sky_one(ObjectId(0), QueryOptions::default().with_threads(Some(1)))
            .with_budget(budget),
        Request::sky_one(ObjectId((n / 2) as u32), QueryOptions::default().with_threads(Some(1)))
            .with_budget(budget),
        Request::all_sky(QueryOptions::default().with_threads(Some(1))).with_budget(budget),
        Request::threshold(tau, ThresholdOptions::default().with_threads(Some(1)))
            .with_budget(budget),
        Request::top_k(k, TopKOptions::default().with_threads(Some(1))).with_budget(budget),
    ];
    // The duplicate-heavy traffic shape: many users, one elicited model,
    // the same batch question — always the *same* request object, so
    // identical concurrent submissions are coalescible.
    let hot = Request::all_sky(QueryOptions::default().with_threads(Some(1))).with_budget(budget);
    println!(
        "serve: {threads} threads x {rounds} rounds x {} request shapes over {n} objects \
         (duplicate fraction {duplicate_fraction}, mutation rate {mutation_rate})",
        requests.len()
    );
    // Globally fresh value codes for inserted rows: far above any dataset
    // value, so an insert never aliases an existing coin.
    let fresh_values = std::sync::atomic::AtomicU32::new(0);
    let start = std::time::Instant::now();
    let (tallies, writes, mut latencies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = &engine;
                let requests = &requests;
                let hot = &hot;
                let editable_dims = &editable_dims;
                let fresh_values = &fresh_values;
                let tenant_cdf = &tenant_cdf;
                scope.spawn(move || {
                    // (exact, estimate, deadline-exceeded, shed, failed)
                    let mut tally = [0u64; 5];
                    // (pref edits, inserts, removals, failed writes)
                    let mut writes = [0u64; 4];
                    let mut lat = Vec::with_capacity(rounds * requests.len());
                    let mut seq = (t as u64) << 32;
                    for round in 0..rounds {
                        for i in 0..requests.len() {
                            seq += 1;
                            if mutation_rate > 0.0
                                && duplicate_coin(seq ^ MUTATE_SALT) < mutation_rate
                            {
                                // This submission is a write. Parameters are
                                // a pure function of `seq` (prefs-only
                                // workloads replay bit-identically; removals
                                // depend on the racy live row count).
                                let h = mix64(seq ^ WRITE_OP_SALT);
                                let op = if mutation_mixed { h % 4 } else { 0 };
                                let (slot, outcome) = match op {
                                    2 => {
                                        let code = 1_000_000
                                            + fresh_values
                                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                        let row = vec![ValueId(code); dims];
                                        (1, engine.insert_object(&row))
                                    }
                                    3 => {
                                        // Keep the dataset from draining:
                                        // below half the seed size, top up
                                        // instead of removing.
                                        let n_now = engine.n_objects();
                                        if n_now > n / 2 {
                                            let last = ObjectId((n_now - 1) as u32);
                                            (2, engine.remove_object(last))
                                        } else {
                                            let code = 1_000_000
                                                + fresh_values.fetch_add(
                                                    1,
                                                    std::sync::atomic::Ordering::Relaxed,
                                                );
                                            (1, engine.insert_object(&vec![ValueId(code); dims]))
                                        }
                                    }
                                    _ => {
                                        let (dim, vals) = &editable_dims
                                            [((h >> 8) % editable_dims.len() as u64) as usize];
                                        let a = ((h >> 16) % vals.len() as u64) as usize;
                                        let mut b = ((h >> 32) % (vals.len() - 1) as u64) as usize;
                                        if b >= a {
                                            b += 1;
                                        }
                                        // Each direction in [0, 0.5]: mass
                                        // forward + backward never exceeds 1.
                                        let forward = ((h >> 40) & 0xfff) as f64 / 4095.0 * 0.5;
                                        let backward = ((h >> 52) & 0xfff) as f64 / 4095.0 * 0.5;
                                        (
                                            0,
                                            engine.set_preference(
                                                *dim, vals[a], vals[b], forward, backward,
                                            ),
                                        )
                                    }
                                };
                                match outcome {
                                    Ok(_) => writes[slot] += 1,
                                    // e.g. two racing removals of the same
                                    // last row: the loser's epoch is simply
                                    // never installed.
                                    Err(_) => writes[3] += 1,
                                }
                                continue;
                            }
                            let idx = (i + t + round) % requests.len();
                            let mut request = if duplicate_coin(seq) < duplicate_fraction {
                                hot.clone()
                            } else {
                                requests[idx].clone()
                            };
                            if let Some(cdf) = tenant_cdf {
                                let rank = pick_rank(cdf, duplicate_coin(seq ^ TENANT_PICK_SALT));
                                request = request.with_tenant(TenantId(rank as u64));
                            }
                            let submitted = std::time::Instant::now();
                            match engine.run(request) {
                                Ok(resp) => match resp.outcome {
                                    Outcome::Exact(_) => tally[0] += 1,
                                    Outcome::Estimate(_) => tally[1] += 1,
                                    Outcome::DeadlineExceeded { .. } => tally[2] += 1,
                                    _ => {}
                                },
                                Err(e) if e.is_shed() => tally[3] += 1,
                                Err(_) => tally[4] += 1,
                            }
                            lat.push(submitted.elapsed().as_nanos() as u64);
                        }
                    }
                    (tally, writes, lat)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).fold(
            ([0u64; 5], [0u64; 4], Vec::new()),
            |(mut acc, mut wr, mut all), (t, w, lat)| {
                for (a, b) in acc.iter_mut().zip(t) {
                    *a += b;
                }
                for (a, b) in wr.iter_mut().zip(w) {
                    *a += b;
                }
                all.extend(lat);
                (acc, wr, all)
            },
        )
    });
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    println!(
        "done in {elapsed:.1?}: {total} read submissions, requests/s {:.1}, p50 {:.1?}, p99 {:.1?}",
        total as f64 / elapsed.as_secs_f64(),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
    println!(
        "outcomes: {} exact, {} estimate, {} deadline-exceeded, {} shed, {} failed",
        tallies[0], tallies[1], tallies[2], tallies[3], tallies[4],
    );
    if mutation_rate > 0.0 {
        println!(
            "writes: {} committed ({} preference edits, {} inserts, {} removals), {} failed, at epoch {}",
            writes[0] + writes[1] + writes[2],
            writes[0],
            writes[1],
            writes[2],
            writes[3],
            engine.epoch(),
        );
    }
    // Post-storm probe. After a mutation storm the surviving cache should
    // still answer most of the next all-sky pass (the incremental-
    // invalidation evidence `--min-post-mutation-hit-rate` gates) …
    let post_started = std::time::Instant::now();
    let post = engine
        .run(Request::all_sky(QueryOptions::default().with_threads(Some(1))))
        .map_err(|e| e.to_string())?;
    let post_elapsed = post_started.elapsed();
    let (hits, probes) = (post.stats.cache_hits, post.stats.cache_probes);
    let hit_rate = if probes == 0 { 0.0 } else { hits as f64 / probes as f64 };
    let live_digest = digest(std::slice::from_ref(&post.outcome));
    println!(
        "post-storm all-sky: {:.6} s, cache hit rate {hit_rate:.3} ({hits}/{probes} probes), \
         digest {live_digest:016x}",
        post_elapsed.as_secs_f64()
    );
    if let Some(floor) = get::<f64>(flags, "min-post-mutation-hit-rate")? {
        if hit_rate < floor {
            return Err(format!(
                "post-storm cache hit rate {hit_rate:.3} below \
                 --min-post-mutation-hit-rate {floor}"
            ));
        }
    }
    // … and every one of its values must be bit-identical to a cold
    // engine rebuilt from the final snapshot: cached, coalesced, stored
    // and warm-started answers are fast, never different.
    let view = engine.snapshot();
    let rebuilt = Engine::new(
        view.table().as_ref().clone(),
        view.prefs().as_ref().clone(),
        EngineOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let rebuilt_resp = rebuilt
        .run(Request::all_sky(QueryOptions::default().with_threads(Some(1))))
        .map_err(|e| e.to_string())?;
    let rebuilt_digest = digest(std::slice::from_ref(&rebuilt_resp.outcome));
    if live_digest != rebuilt_digest {
        return Err(format!(
            "post-storm digest {live_digest:016x} differs from fresh-rebuild digest \
             {rebuilt_digest:016x}: the live engine diverged"
        ));
    }
    println!("post-storm digest matches a fresh engine rebuilt from the final snapshot");
    if tenants_n > 0 {
        let m = engine.metrics();
        let tenant_probes: u64 = m.tenants.iter().map(|r| r.cache_probes).sum();
        let rate = m.cross_user_hit_rate();
        println!(
            "cross-user hit rate {rate:.3} ({} / {tenant_probes} tenant probes)",
            m.cross_user_hits
        );
        // Deterministic all-sky probes of the most and least popular
        // tenants: the bit-identity handles for the namespacing ablation
        // (equal digests across shared and namespaced runs ⇔ namespacing
        // shares less but never answers differently).
        let mut probed = vec![0u64];
        if tenants_n > 1 {
            probed.push(tenants_n as u64 - 1);
        }
        for t in probed {
            let tenant_probe = engine
                .run(
                    Request::all_sky(QueryOptions::default().with_threads(Some(1)))
                        .with_tenant(TenantId(t)),
                )
                .map_err(|e| e.to_string())?;
            let d = digest(std::slice::from_ref(&tenant_probe.outcome));
            println!("tenant {t} digest {d:016x}");
        }
        if let Some(floor) = get::<f64>(flags, "min-cross-user-hit-rate")? {
            if rate < floor {
                return Err(format!(
                    "cross-user hit rate {rate:.3} below --min-cross-user-hit-rate {floor}"
                ));
            }
        }
    }
    println!("{}", engine.metrics());
    if let Some(path) = get::<PathBuf>(flags, "save-cache")? {
        engine.save_cache_snapshot(&path).map_err(|e| e.to_string())?;
        println!("cache snapshot saved to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(args: &[&str]) -> HashMap<String, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing_handles_values_and_booleans() {
        let f = flags_of(&["--n", "50", "--quick", "--out", "x.tbl"]);
        assert_eq!(f.get("n").map(String::as_str), Some("50"));
        assert_eq!(f.get("quick").map(String::as_str), Some("true"));
        assert_eq!(f.get("out").map(String::as_str), Some("x.tbl"));
        assert_eq!(get::<usize>(&f, "n").unwrap(), Some(50));
        assert!(get::<usize>(&f, "out").is_err());
        assert_eq!(get::<usize>(&f, "missing").unwrap(), None);
        assert!(require::<usize>(&f, "missing").is_err());
    }

    #[test]
    fn unknown_commands_error_with_usage() {
        let e = run(&["frobnicate".to_owned()]).unwrap_err();
        assert!(e.contains("unknown command"));
        assert!(e.contains("usage"));
        assert!(run(&[]).is_err());
        // Every command refuses the flags it does not read, before doing
        // any work: a stale `--shards`, a misspelt exit-code gate and a
        // made-up generator flag each fail with an error naming the flag.
        let out = std::env::temp_dir().join("skyprob-unknown-flag.tbl");
        for (argv, flag) in [
            ("serve --table t.tbl --seed-prefs 9 --shards 2".to_owned(), "--shards"),
            (
                "serve --table t.tbl --seed-prefs 9 --min-warm-hit-rte 0.999".to_owned(),
                "--min-warm-hit-rte",
            ),
            (format!("gen nursery --d 5 --out {} --bogus-flag 3", out.display()), "--bogus-flag"),
        ] {
            let args: Vec<String> = argv.split_whitespace().map(String::from).collect();
            let e = run(&args).unwrap_err();
            assert!(e.contains(&format!("unknown flag {flag}")), "{argv}: {e}");
        }
        assert!(!out.exists(), "gen ran despite the bad flag");
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join("skyprob-selftest");
        std::fs::create_dir_all(&dir).unwrap();
        let tbl = dir.join("t.tbl").display().to_string();
        let prefs = dir.join("p.txt").display().to_string();
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        run(&argv(&format!("gen blockzipf --n 60 --d 3 --seed 5 --out {tbl}"))).unwrap();
        run(&argv(&format!("gen prefs --table {tbl} --law complementary --seed 2 --out {prefs}")))
            .unwrap();
        run(&argv(&format!("sky --table {tbl} --prefs {prefs} --target 3 --algo detplus")))
            .unwrap();
        run(&argv(&format!(
            "sky --table {tbl} --seed-prefs 9 --target 3 --algo sam --samples 500"
        )))
        .unwrap();
        run(&argv(&format!(
            "sky --table {tbl} --prefs {prefs} --target 3 --algo adaptive --stats"
        )))
        .unwrap();
        // Ablation baseline: same query with the component cache disabled.
        run(&argv(&format!(
            "sky --table {tbl} --prefs {prefs} --target 3 --algo adaptive --stats \
             --no-component-cache"
        )))
        .unwrap();
        run(&argv(&format!(
            "sky --table {tbl} --prefs {prefs} --target 3 --algo samplus --samples 500"
        )))
        .unwrap();
        // Paper-literal `det` runs on the raw view (no absorption/partition),
        // so this 59-attacker instance exceeds its budget: the refusal must
        // surface as a clean error, not a panic.
        let e = run(&argv(&format!("sky --table {tbl} --prefs {prefs} --target 3 --algo det")))
            .unwrap_err();
        assert!(e.contains("exact-algorithm budget"), "{e}");
        run(&argv(&format!("sky --table {tbl} --prefs {prefs} --target 3 --algo sac"))).unwrap();
        run(&argv(&format!("skyline --table {tbl} --prefs {prefs} --tau 0.2 --stats"))).unwrap();
        // Two elicitation rounds end-to-end: rank, commit, re-rank, and
        // the final live-vs-fresh digest gate.
        run(&argv("elicit --d 3 --n 24 --rounds 2 --top 4")).unwrap();
        run(&argv(&format!("profile --table {tbl} --prefs {prefs} --target 3"))).unwrap();
        // Bad algorithm name surfaces cleanly.
        let e = run(&argv(&format!("sky --table {tbl} --prefs {prefs} --target 3 --algo nope")))
            .unwrap_err();
        assert!(e.contains("unknown algorithm"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_arms_and_exit_code_gates() {
        let dir = std::env::temp_dir().join(format!("skyprob-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tbl = dir.join("t.tbl").display().to_string();
        let snap = dir.join("cache.snap").display().to_string();
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        run(&argv(&format!("gen blockzipf --n 40 --d 3 --seed 5 --out {tbl}"))).unwrap();
        // Every run also checks its post-storm all-sky against a rebuilt
        // engine and fails on a mismatch.
        let serve = format!("serve --table {tbl} --seed-prefs 7 --threads 2 --rounds 2");
        run(&argv(&format!("{serve} --duplicate-fraction 0.9"))).unwrap();
        run(&argv(&format!("{serve} --duplicate-fraction 0.9 --no-coalesce"))).unwrap();
        // The snapshot a cold run saves answers every probe of the warm
        // run's first all-sky; a cold engine fails the same gate.
        run(&argv(&format!("{serve} --save-cache {snap}"))).unwrap();
        run(&argv(&format!("{serve} --warm-cache {snap} --min-warm-hit-rate 0.999"))).unwrap();
        let e = run(&argv(&format!("{serve} --min-warm-hit-rate 0.999"))).unwrap_err();
        assert!(e.contains("below --min-warm-hit-rate 0.999"), "{e}");
        // Shared tenants hit cross-user entries; the namespaced ablation
        // never can, so the same floor fails there.
        let tenants = format!("{serve} --tenants 8 --overlay-pairs 2 --tenant-zipf 1.1");
        run(&argv(&format!("{tenants} --min-cross-user-hit-rate 0.5"))).unwrap();
        let e = run(&argv(&format!("{tenants} --tenant-namespace --min-cross-user-hit-rate 0.5")))
            .unwrap_err();
        assert!(e.contains("below --min-cross-user-hit-rate 0.5"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
