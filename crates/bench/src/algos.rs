//! Measurement adapters: one closure per algorithm, shaped for
//! [`crate::harness::measure`].

use std::collections::HashMap;
use std::time::Duration;

use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use presky_approx::sampler::{sky_sam, SamOptions};
use presky_exact::det::{sky_det, DetOptions};
use presky_exact::error::ExactError;
use presky_query::engine::{self, PipelineStats, PrepareOptions, SkyScratch};
use presky_query::error::QueryError;
use presky_query::prob_skyline::{Algorithm, SkyResult};

use crate::harness::{measure, Measurement};

/// Beyond this `n`, plain `Det` is not even attempted: `2^n` joints cannot
/// terminate within any realistic deadline, and a recursion `n` deep serves
/// no purpose. Reported as a timeout, matching the paper's cut-off lines.
const DET_HOPELESS: usize = 2000;

fn map_exact_err(e: ExactError) -> String {
    match e {
        ExactError::DeadlineExceeded { .. } => "deadline".to_owned(),
        other => other.to_string(),
    }
}

fn map_query_err(e: QueryError) -> String {
    match e {
        QueryError::Exact(ExactError::DeadlineExceeded { .. }) => "deadline".to_owned(),
        other => other.to_string(),
    }
}

/// One exact `Det+`-policy solve through the unified engine (full
/// preparation, forced-exact plan). All `Det+` numbers the harness reports
/// come from this path, so they measure the same pipeline the library and
/// CLI entry points run.
fn detplus_engine<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    deadline: Duration,
    scratch: &mut SkyScratch,
) -> Result<SkyResult, QueryError> {
    let algo = Algorithm::Exact {
        det: DetOptions::default().with_max_attackers(DET_HOPELESS).with_deadline(deadline),
    };
    let mut stats = PipelineStats::default();
    engine::solve_one(table, prefs, target, algo, PrepareOptions::full(), scratch, &mut stats)
}

/// One `Sam+` estimate through the unified engine: full preparation, then
/// a forced-sampling plan over the reduced instance.
fn samplus_engine<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    sam: SamOptions,
    scratch: &mut SkyScratch,
) -> Result<f64, String> {
    let mut stats = PipelineStats::default();
    let algo = Algorithm::Sampling(sam);
    engine::solve_one(table, prefs, target, algo, PrepareOptions::full(), scratch, &mut stats)
        .map(|r| r.sky)
        .map_err(|e| e.to_string())
}

/// Mean per-object runtime of plain `Det`.
///
/// "Det" is the paper's Algorithm 1 measured literally: every joint
/// probability is computed, with zero-probability subtree pruning turned
/// off (the published algorithm has no such short-circuit, and on
/// workloads with impossible attackers the pruning would make "Det" look
/// artificially polynomial). Beyond the hopeless threshold the point is
/// reported as a timeout outright (`DET_HOPELESS` objects) — `2^2000`
/// joints cannot terminate under any budget.
pub fn det_time<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    targets: &[ObjectId],
    deadline: Duration,
) -> Measurement {
    if table.len() > DET_HOPELESS {
        return Measurement::Timeout;
    }
    measure(targets, deadline, |t, remaining| {
        let opts = DetOptions::default()
            .with_max_attackers(DET_HOPELESS)
            .with_deadline(remaining)
            .with_prune_zero(false)
            .with_prune_covered(false);
        sky_det(table, prefs, t, opts).map(|_| None).map_err(map_exact_err)
    })
}

/// Mean per-object runtime of `Det+` (engine path).
pub fn detplus_time<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    targets: &[ObjectId],
    deadline: Duration,
) -> Measurement {
    let mut scratch = SkyScratch::default();
    measure(targets, deadline, |t, remaining| {
        detplus_engine(table, prefs, t, remaining, &mut scratch)
            .map(|_| None)
            .map_err(map_query_err)
    })
}

/// Mean per-object runtime of `Sam` (`plus = true` for `Sam+`, engine
/// path).
pub fn sam_time<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    targets: &[ObjectId],
    deadline: Duration,
    samples: u64,
    plus: bool,
) -> Measurement {
    let mut scratch = SkyScratch::default();
    measure(targets, deadline, |t, _remaining| {
        let sam = SamOptions::with_samples(samples, 7 ^ t.0 as u64);
        if plus {
            samplus_engine(table, prefs, t, sam, &mut scratch).map(|_| None)
        } else {
            sky_sam(table, prefs, t, sam).map(|_| None).map_err(|e| e.to_string())
        }
    })
}

/// Exact reference values for the error experiments, via the engine's
/// forced-exact (`Det+`) path.
pub fn exact_reference<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    targets: &[ObjectId],
    deadline: Duration,
) -> Result<HashMap<ObjectId, f64>, String> {
    let mut out = HashMap::with_capacity(targets.len());
    let mut scratch = SkyScratch::default();
    for &t in targets {
        let r =
            detplus_engine(table, prefs, t, deadline, &mut scratch).map_err(|e| e.to_string())?;
        out.insert(t, r.sky);
    }
    Ok(out)
}

/// Pick targets with *non-degenerate* skyline probability and return their
/// exact values.
///
/// On large instances almost every object is dominated with overwhelming
/// probability, so the sampling error at `sky ≈ 0` is trivially ≈ 0 and an
/// error figure built on random targets measures nothing. This helper
/// scans a candidate pool (exactly solving each via `Det+`) and keeps
/// targets with `sky ∈ (floor, 1 − floor)`, topping up with arbitrary
/// candidates when the workload genuinely has too few interesting objects.
pub fn interesting_targets<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    want: usize,
    floor: f64,
    per_target_deadline: Duration,
    seed: u64,
) -> Result<(Vec<ObjectId>, HashMap<ObjectId, f64>), String> {
    let pool = crate::harness::pick_targets(table.len(), want.saturating_mul(8), seed);
    let mut chosen = Vec::with_capacity(want);
    let mut fallback = Vec::new();
    let mut reference = HashMap::new();
    let start = std::time::Instant::now();
    // Enough total budget to exactly solve `want` targets plus slack for
    // the scan; the per-target deadline keeps any one solve bounded.
    let scan_budget = per_target_deadline.saturating_mul(want.max(1) as u32);
    let mut scratch = SkyScratch::default();
    for &t in &pool {
        if chosen.len() >= want || start.elapsed() > scan_budget {
            break;
        }
        match detplus_engine(table, prefs, t, per_target_deadline, &mut scratch) {
            Ok(out) => {
                reference.insert(t, out.sky);
                if out.sky > floor && out.sky < 1.0 - floor {
                    chosen.push(t);
                } else {
                    fallback.push(t);
                }
            }
            Err(QueryError::Exact(ExactError::DeadlineExceeded { .. })) => {
                // This target is too hard for the exact reference; so will
                // its siblings be — stop scanning and work with what we
                // have.
                break;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    for t in fallback {
        if chosen.len() >= want {
            break;
        }
        chosen.push(t);
    }
    if chosen.is_empty() {
        return Err("no exactly-solvable target within the deadline".to_owned());
    }
    chosen.sort_unstable();
    Ok((chosen, reference))
}

/// Mean absolute error of `Sam`/`Sam+` against an exact reference
/// (auxiliary value of the measurement).
pub fn sam_error<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    targets: &[ObjectId],
    deadline: Duration,
    samples: u64,
    plus: bool,
    reference: &HashMap<ObjectId, f64>,
) -> Measurement {
    let mut scratch = SkyScratch::default();
    measure(targets, deadline, |t, _remaining| {
        let sam = SamOptions::with_samples(samples, 7 ^ t.0 as u64);
        let est = if plus {
            samplus_engine(table, prefs, t, sam, &mut scratch)?
        } else {
            sky_sam(table, prefs, t, sam).map(|o| o.estimate).map_err(|e| e.to_string())?
        };
        let exact = reference.get(&t).copied().ok_or("missing reference")?;
        Ok(Some((est - exact).abs()))
    })
}

#[cfg(test)]
mod tests {
    use crate::harness::pick_targets;
    use crate::workloads;

    use super::*;

    #[test]
    fn det_and_detplus_agree_on_small_blockzipf() {
        // Keep the instance genuinely small: plain Det walks 2^(n-1)
        // subsets, so 18 objects is already half a million joints.
        let table = workloads::block_zipf(18, 3);
        let prefs = workloads::prefs();
        let targets = pick_targets(table.len(), 4, 1);
        let mut scratch = SkyScratch::default();
        for &t in &targets {
            let a = sky_det(&table, &prefs, t, DetOptions::default().with_max_attackers(64))
                .unwrap()
                .sky;
            let b = detplus_engine(&table, &prefs, t, Duration::from_secs(30), &mut scratch)
                .unwrap()
                .sky;
            assert!((a - b).abs() < 1e-9, "target {t}: {a} vs {b}");
        }
    }

    #[test]
    fn hopeless_det_is_a_timeout_not_a_hang() {
        let table = workloads::block_zipf(4000, 2);
        let prefs = workloads::prefs();
        let targets = pick_targets(table.len(), 2, 1);
        let m = det_time(&table, &prefs, &targets, Duration::from_secs(5));
        assert_eq!(m, Measurement::Timeout);
    }

    #[test]
    fn error_measurement_is_small_on_blockzipf() {
        let table = workloads::block_zipf(200, 3);
        let prefs = workloads::prefs();
        let targets = pick_targets(table.len(), 5, 1);
        let reference = exact_reference(&table, &prefs, &targets, Duration::from_secs(30)).unwrap();
        let m =
            sam_error(&table, &prefs, &targets, Duration::from_secs(30), 3000, false, &reference);
        match m {
            Measurement::Ok { aux: Some(err), .. } => {
                assert!(err < 0.03, "mean abs error {err}")
            }
            other => panic!("{other:?}"),
        }
    }
}
