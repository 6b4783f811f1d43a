//! The three workloads, their closed-loop replay, and the answer checks.
//!
//! Load comes from one process with at most `host_cores` busy threads:
//! either two closed-loop clients that each send single-threaded
//! requests, or one client whose all-sky runs on two threads. The loop is
//! closed because every caller of the in-process engine blocks on
//! `Engine::run`, and admission sheds instead of queueing, so there is no
//! backlog for an open-loop schedule to expose. `--seed` drives the
//! request stream (target popularity, tenant picks, read order); the
//! datasets are fixed so that every all-sky digest can be checked against
//! the value recorded here.
//!
//! End-to-end metrics (every workload, tracing off): `setup_s`,
//! `req_per_s`, `allsky_objects_per_s`, `read_p50_ms`, `read_p90_ms`,
//! `ok_share`, `peak_rss_mib` — each must exist on every workload, so
//! per-kind latencies (`sky_one_p50_ms`, `allsky_p50_ms`, `write_p90_ms`,
//! …) and `failed_share` are printed as `extra` lines on the workloads
//! whose mix contains that kind.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use presky_bench::workloads::{block_prefs, block_zipf, nursery};
use presky_core::preference::{PreferenceModel, SeededPreferences};
use presky_core::table::Table;
use presky_core::types::{DimId, ObjectId, ValueId};
use presky_datagen::prefs::BlockScopedPreferences;
use presky_query::engine::PipelineStats;
use presky_query::threshold::Resolution;
use presky_service::prelude::*;

use crate::replica;
use crate::trace::{SelfTimes, Trace, ROOT};
use crate::{Args, Metric, Outcome};

/// Workload names. `BENCHMARK.json` lists `nursery-serve` and
/// `live-mixed`; `blockzipf-cold-allsky` runs by name only, because its
/// few multi-second passes left its run-to-run spread above the
/// benchmark's bounds on a host whose CPU speed drifts.
pub const NAMES: [&str; 3] = ["nursery-serve", "blockzipf-cold-allsky", "live-mixed"];

/// Seed of the complementary preference model on nursery and live-mixed.
const PREF_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Segments a run's window is cut into for the timing metrics (see
/// [`end_to_end`]).
const SEGMENTS: usize = 3;
/// Threshold of the `threshold` reads.
const TAU: f64 = 0.1;
/// `k` of the `top_k` reads.
const TOP_K: usize = 5;
/// Client 0 of `live-mixed` commits a write as every this-many-th operation.
const WRITE_EVERY: u64 = 10;
/// Length of the write cycle; the dataset is back at its base state after
/// every full cycle, which is what lets reads at those epochs be checked.
const WRITE_CYCLE: u64 = 6;

/// All-sky digests of the base datasets, recorded with the benchmark
/// (`presky_service::digest` of one untenanted `all_sky`).
const NURSERY_DIGEST: u64 = 0xdb71_49e6_0c3f_899e;
const BLOCKZIPF_DIGEST: u64 = 0x94b3_eb4d_71d3_79ea;
const LIVE_DIGEST: u64 = 0x8f67_6659_41ef_160f;

// ------------------------------------------------------------ workloads

/// `nursery-serve` — **why:** prepare-bound real categorical data
/// (ROADMAP item 3). Absorption is ~87 % of a one-thread all-sky, the DFS
/// ~0 and ~99 % of component probes hit, so absorption work shows here and
/// DFS or cache work cannot.
///
/// Shape: Nursery d = 5 (n = 720), complementary preferences (seed 7),
/// read-only and untenanted, default 64 MiB cache. Two closed-loop
/// clients; every request single-threaded; mix per ten reads: 7
/// `sky_one` over zipf(1.0)-popular targets, 1 `threshold(0.1)`, 1
/// `top_k(5)`, 1 `all_sky`. One untimed warm-up all-sky per set-up.
/// Metrics: all end-to-end ones; extras `sky_one_p50/p90_ms`,
/// `allsky_p50_ms`, `threshold_p50_ms`, `topk_p50_ms`, `set_query_p90_ms`.
fn nursery_serve(args: &Args) -> Result<Outcome, String> {
    let table = nursery(5);
    let prefs = SeededPreferences::complementary(PREF_SEED);
    let n = table.len();
    let stream = Stream::new(args.seed, n, &NURSERY_MIX, None, None, None);
    serve(
        args,
        Serve {
            table,
            prefs,
            opts: EngineOptions::default(),
            tenants: 0,
            digest: NURSERY_DIGEST,
            stream,
            replica_tau: Some(TAU),
        },
    )
}

const NURSERY_MIX: [Kind; 10] = [
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::Threshold,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::TopK,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::AllSky,
];

/// `live-mixed` — **why:** writes beside reads on the cache layer, with a
/// working set larger than the cache cap. The DFS dominates summed engine
/// time, so cache policy, the DFS, `exact::bounds` (threshold) and the
/// write path all show here.
///
/// Shape: block-zipf n = 200, d = 3, complementary preferences (seed 7),
/// cache cap 1 MiB. 1 000 tenants with 2-pair overlays over the rarest
/// values, picked zipf(1.1); half the reads are tenanted. Two
/// closed-loop clients, single-threaded requests; read mix per twenty:
/// 16 `sky_one`, 1 `sensitivity(Some(t))`, 1 `threshold(0.1)`, 1
/// `top_k(5)`, 1 `all_sky` (the set queries still take most of the
/// engine's time); the popular targets shift every 25 requests, and
/// `sensitivity` targets are drawn from the objects whose base all-sky
/// value is exact (a sampled object has a component too large for the
/// exact-only gradient). Client 0
/// also commits every tenth operation from a fixed write cycle (4
/// `set_preference`, one `insert_object` and the `remove_object` of that
/// row) that returns the dataset to its base state; after the window it
/// finishes its current cycle, so the final all-sky digest is the recorded
/// base digest and must equal that of a fresh engine rebuilt from
/// `Engine::snapshot()`. Metrics: all end-to-end ones; extras for every
/// read kind plus `write_p50_ms`, `write_p90_ms`.
fn live_mixed(args: &Args) -> Result<Outcome, String> {
    let table = block_zipf(200, 3);
    let prefs = SeededPreferences::complementary(PREF_SEED);
    let n = table.len();
    let writes = WritePlan::new(&table, &prefs);
    let stream = Stream::new(
        args.seed,
        n,
        &LIVE_MIX,
        Some(25),
        Some((Zipf::new(LIVE_TENANTS, 1.1), 0.5)),
        Some(writes),
    );
    serve(
        args,
        Serve {
            table,
            prefs,
            opts: EngineOptions::default().with_cache_bytes(1 << 20),
            tenants: LIVE_TENANTS,
            digest: LIVE_DIGEST,
            stream,
            replica_tau: Some(TAU),
        },
    )
}

const LIVE_TENANTS: usize = 1_000;

const LIVE_MIX: [Kind; 20] = [
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::Sensitivity,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::Threshold,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::TopK,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::AllSky,
    Kind::SkyOne,
    Kind::SkyOne,
    Kind::SkyOne,
];

/// `blockzipf-cold-allsky` — **why:** the paper's batch job, with no
/// component sharing (~0.04 % of probes hit). View assembly (~55 %) and
/// the DFS (~31 %) dominate one-thread time and cache inserts take ~7 %,
/// so `core::batch` and `exact::det` show here; absorption (~4 %) does
/// not.
///
/// Shape: block-zipf n = 20 000, d = 5, block-scoped complementary
/// preferences (seed 42), default 64 MiB cache, one client. Each pass
/// builds a fresh `Engine` (its `Engine::new` is a `setup_s` sample) and
/// runs one 2-thread `all_sky`, whose digest must equal the recorded one.
/// Metrics: all end-to-end ones (a read is one pass's all-sky).
fn blockzipf_cold_allsky(args: &Args) -> Result<Outcome, String> {
    let table = block_zipf(20_000, 5);
    let prefs = block_prefs();
    let opts = EngineOptions::default();
    let mut checks = Checks::default();

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let engine = Engine::new(table.clone(), prefs, opts).map_err(|e| e.to_string())?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(engine);
    }
    let seconds = replay_seconds(args);
    let untraced = cold_passes(&table, prefs, opts, seconds, None, &mut setup, &mut checks)?;
    let mut out = Outcome {
        attempted: untraced.ops.len() as u64,
        failed: untraced.ops.iter().filter(|d| !d.ok).count() as u64,
        ..Outcome::default()
    };
    print_properties("blockzipf-cold-allsky", &untraced, opts.cache_bytes);
    print_extras(&untraced.ops);
    if !args.trace {
        out.metrics = end_to_end(&untraced, &setup);
        out.correct = checks.all_ok();
        return Ok(out);
    }

    let origin = Instant::now();
    let mut tr = Trace::new(origin);
    let mut unused = Vec::new();
    let traced =
        cold_passes(&table, prefs, opts, seconds, Some(&mut tr), &mut unused, &mut checks)?;
    let layer = layers(&table, prefs, opts, None, &mut tr, &mut checks)?;
    let st = tr.self_times();
    let metrics = layer_metrics(&st, &layer, &traced, &untraced);
    // Growth record: the replica at smaller n, to put on record whether
    // the large rows are bound by view assembly or by the DFS.
    for n in [5_000usize, 10_000] {
        let t = block_zipf(n, 5);
        let mut g = Trace::new(Instant::now());
        let r = replica::run(&t, &prefs, opts.cache_bytes, None, &mut g)?;
        print_growth(n, &g.self_times(), &r.counts);
    }
    print_growth(table.len(), &st, &layer.replica.counts);
    write_spans(args, &tr);
    out.metrics = metrics;
    out.correct = checks.all_ok();
    Ok(out)
}

/// Length of one replay: the whole `--seconds` untraced; a traced run
/// splits it between the untraced and the traced replay (their rates give
/// the tracing overhead) so it stays about as long as an untraced one.
fn replay_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// Dispatch `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "nursery-serve" => nursery_serve(args),
        "blockzipf-cold-allsky" => blockzipf_cold_allsky(args),
        "live-mixed" => live_mixed(args),
        other => Err(format!("unknown workload {other}; known: {}", NAMES.join(", "))),
    }
}

// ------------------------------------------------------------ streams

/// splitmix64: the hash behind every seeded choice.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Zipf(`theta`) over ranks `0..n`.
#[derive(Debug)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        let total = acc;
        cdf.iter_mut().for_each(|c| *c /= total);
        Self { cdf }
    }

    fn pick(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SkyOne,
    Threshold,
    TopK,
    AllSky,
    Sensitivity,
    SetPreference,
    Insert,
    Remove,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::SkyOne => "sky_one",
            Kind::Threshold => "threshold",
            Kind::TopK => "topk",
            Kind::AllSky => "allsky",
            Kind::Sensitivity => "sensitivity",
            Kind::SetPreference => "set_preference",
            Kind::Insert => "insert_object",
            Kind::Remove => "remove_object",
        }
    }

    /// The span around the engine call that serves this kind.
    fn span(self) -> &'static str {
        match self {
            Kind::SkyOne => "service.engine.run.sky_one",
            Kind::Threshold => "service.engine.run.threshold",
            Kind::TopK => "service.engine.run.top_k",
            Kind::AllSky => "service.engine.run.all_sky",
            Kind::Sensitivity => "service.engine.run.sensitivity",
            Kind::SetPreference => "service.engine.set_preference",
            Kind::Insert => "service.engine.insert_object",
            Kind::Remove => "service.engine.remove_object",
        }
    }

    fn is_write(self) -> bool {
        matches!(self, Kind::SetPreference | Kind::Insert | Kind::Remove)
    }

    fn is_set_query(self) -> bool {
        matches!(self, Kind::AllSky | Kind::Threshold | Kind::TopK)
    }
}

#[derive(Debug, Clone)]
enum Write {
    SetPreference(DimId, ValueId, ValueId, f64, f64),
    Insert(Vec<ValueId>),
    Remove(ObjectId),
}

impl Write {
    fn kind(&self) -> Kind {
        match self {
            Write::SetPreference(..) => Kind::SetPreference,
            Write::Insert(_) => Kind::Insert,
            Write::Remove(_) => Kind::Remove,
        }
    }
}

#[derive(Debug)]
enum Action {
    Read { kind: Kind, target: ObjectId, tenant: Option<TenantId> },
    Write(Write),
}

/// The fixed write sequence of `live-mixed`: cycle `c` edits two
/// preference pairs, inserts one fresh row, removes it again and restores
/// both pairs to their base probabilities.
#[derive(Debug)]
struct WritePlan {
    /// `(dim, a, b, base forward, base backward)`.
    pairs: Vec<(DimId, ValueId, ValueId, f64, f64)>,
    /// Fresh rows to insert, one per cycle (modulo).
    rows: Vec<Vec<ValueId>>,
    n_base: usize,
}

impl WritePlan {
    fn new<M: PreferenceModel>(table: &Table, prefs: &M) -> Self {
        let d = table.dimensionality();
        let mut pairs = Vec::new();
        let mut domains = Vec::new();
        for j in 0..d {
            let dim = DimId(j as u32);
            let mut vals: Vec<ValueId> = table.column(dim).to_vec();
            vals.sort_unstable();
            vals.dedup();
            for w in vals.windows(2) {
                let (a, b) = (w[0], w[1]);
                pairs.push((dim, a, b, prefs.pr_strict(dim, a, b), prefs.pr_strict(dim, b, a)));
            }
            domains.push(vals);
        }
        // Inserted rows use values absent from the table: their coins are
        // shared with no other attacker, so the row joins every target's
        // instance as a singleton component and never merges components
        // into one the exact-only gradient could not solve.
        let rows = (0..64u32)
            .map(|c| {
                domains.iter().map(|dom| ValueId(dom.last().map_or(0, |v| v.0) + 1 + c)).collect()
            })
            .collect();
        Self { pairs, rows, n_base: table.len() }
    }

    /// The `w`-th write of the sequence.
    fn write(&self, w: u64) -> Write {
        let cycle = w / WRITE_CYCLE;
        let pair = |slot: u64| self.pairs[((2 * cycle + slot) % self.pairs.len() as u64) as usize];
        let edited = |slot: u64| {
            let (dim, a, b, ..) = pair(slot);
            let f = 0.05 + 0.4 * unit(mix64(cycle.wrapping_mul(2).wrapping_add(slot)));
            Write::SetPreference(dim, a, b, f, 0.9 - f)
        };
        let restored = |slot: u64| {
            let (dim, a, b, fwd, bwd) = pair(slot);
            Write::SetPreference(dim, a, b, fwd, bwd)
        };
        match w % WRITE_CYCLE {
            0 => edited(0),
            1 => Write::Insert(self.rows[(cycle % self.rows.len() as u64) as usize].clone()),
            2 => edited(1),
            3 => Write::Remove(ObjectId(self.n_base as u32)),
            4 => restored(0),
            _ => restored(1),
        }
    }
}

/// A seeded request stream; `action(client, k)` is a pure function.
#[derive(Debug)]
struct Stream {
    seed: u64,
    n: usize,
    kinds: &'static [Kind],
    perm: Vec<u32>,
    /// Objects `sensitivity` reads may target (all until restricted).
    exact: Vec<u32>,
    targets: Zipf,
    shift_every: Option<u64>,
    tenants: Option<(Zipf, f64)>,
    writes: Option<WritePlan>,
}

impl Stream {
    fn new(
        seed: u64,
        n: usize,
        kinds: &'static [Kind],
        shift_every: Option<u64>,
        tenants: Option<(Zipf, f64)>,
        writes: Option<WritePlan>,
    ) -> Self {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (mix64(seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f)) % (i as u64 + 1))
                as usize;
            perm.swap(i, j);
        }
        let exact = (0..n as u32).collect();
        Self {
            seed,
            n,
            kinds,
            perm,
            exact,
            targets: Zipf::new(n, 1.0),
            shift_every,
            tenants,
            writes,
        }
    }

    /// Keep `sensitivity` reads on the objects the base answer solved
    /// exactly.
    fn restrict_sensitivity(&mut self, base: &Baseline) {
        self.exact = (0..self.n as u32).filter(|&o| base.exact[o as usize]).collect();
    }

    fn action(&self, client: usize, k: u64) -> Action {
        if let Some(plan) = &self.writes {
            if client == 0 && k % WRITE_EVERY == WRITE_EVERY - 1 {
                return Action::Write(plan.write(k / WRITE_EVERY));
            }
        }
        let h = mix64(self.seed ^ ((client as u64) << 56) ^ k.wrapping_mul(0x9e37_79b9));
        // Each client walks the mix from a seeded rotation per cycle, so the
        // two clients never fall into lockstep (identical concurrent set
        // queries coalesce, which would leave one client idle).
        let len = self.kinds.len() as u64;
        let rotation = mix64(self.seed ^ ((client as u64) << 40) ^ (k / len)) % len;
        let kind = self.kinds[((k + rotation) % len) as usize];
        let rank = self.targets.pick(unit(h));
        let phase = self.shift_every.map_or(0, |s| k / s);
        let slot = self.perm[rank] as u64 + phase * 37;
        let target = if kind == Kind::Sensitivity {
            ObjectId(self.exact[(slot % self.exact.len() as u64) as usize])
        } else {
            ObjectId((slot % self.n as u64) as u32)
        };
        let tenant = self.tenants.as_ref().and_then(|(zipf, share)| {
            let h2 = mix64(h ^ 0x7465_6e61_6e74);
            (unit(h2) < *share).then(|| TenantId(zipf.pick(unit(mix64(h2))) as u64))
        });
        Action::Read { kind, target, tenant }
    }
}

// ------------------------------------------------------------ replay

/// The all-sky answer of the base dataset every check compares against.
#[derive(Debug)]
struct Baseline {
    digest: u64,
    bits: Vec<u64>,
    exact: Vec<bool>,
}

impl Baseline {
    fn of(outcome: &presky_service::Outcome) -> Result<Self, String> {
        let slots = outcome.value().as_all_sky().ok_or("warm-up all-sky returned no batch")?;
        let results = slots
            .iter()
            .map(|s| s.ok_or("warm-up all-sky left a slot empty"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            digest: digest(std::slice::from_ref(outcome)),
            bits: results.iter().map(|r| r.sky.to_bits()).collect(),
            exact: results.iter().map(|r| r.exact).collect(),
        })
    }

    fn sky(&self, object: ObjectId) -> f64 {
        f64::from_bits(self.bits[object.index()])
    }

    fn same(&self, object: ObjectId, sky: f64) -> bool {
        self.bits.get(object.index()) == Some(&sky.to_bits())
    }

    /// Whether a read answered at a base-state epoch agrees with the
    /// base all-sky: exact values bit for bit, certified threshold
    /// decisions by membership.
    fn agrees(&self, kind: Kind, target: ObjectId, outcome: &presky_service::Outcome) -> bool {
        let v = outcome.value();
        match kind {
            Kind::AllSky => digest(std::slice::from_ref(outcome)) == self.digest,
            Kind::SkyOne => v.as_sky().is_some_and(|r| !r.exact || self.same(r.object, r.sky)),
            Kind::TopK => v.as_top_k().is_some_and(|top| {
                top.len() == TOP_K.min(self.bits.len())
                    && top.iter().all(|r| !r.exact || self.same(r.object, r.sky))
            }),
            Kind::Threshold => v.as_threshold().is_some_and(|answers| {
                answers.len() == self.bits.len()
                    && answers.iter().all(|a| match a {
                        Some(a) => match a.resolution {
                            Resolution::Exact(sky) => {
                                self.same(a.object, sky) && a.member == (sky >= TAU)
                            }
                            Resolution::Bounds(_) => a.member == (self.sky(a.object) >= TAU),
                            _ => true,
                        },
                        None => false,
                    })
            }),
            Kind::Sensitivity => v.as_sensitivity().is_some_and(|s| {
                s.len() == 1
                    && s[0]
                        .as_ref()
                        .is_some_and(|t| t.object == target && self.same(t.object, t.sky))
            }),
            _ => true,
        }
    }
}

/// One finished operation.
#[derive(Debug, Clone)]
struct Done {
    kind: Kind,
    ns: u64,
    ok: bool,
    tenanted: bool,
    /// Outer `Engine::run` time minus `Response.elapsed`.
    pre_admission_ns: u64,
    stats: PipelineStats,
    objects: usize,
    /// `Some(agrees)` for reads answered at a base-state epoch.
    check: Option<bool>,
    evicted: u64,
    dirtied: u64,
    /// Completion time, in seconds since the replay started.
    end_s: f64,
    /// The closed-loop client that issued it.
    client: usize,
}

impl Done {
    fn failed(kind: Kind, ns: u64, tenanted: bool) -> Self {
        Self {
            kind,
            ns,
            ok: false,
            tenanted,
            pre_admission_ns: 0,
            stats: PipelineStats::default(),
            objects: 0,
            check: None,
            evicted: 0,
            dirtied: 0,
            end_s: 0.0,
            client: 0,
        }
    }
}

fn request(kind: Kind, target: ObjectId, tenant: Option<TenantId>) -> Request {
    let one = QueryOptions::default().with_threads(Some(1));
    let r = match kind {
        Kind::SkyOne => Request::sky_one(target, one),
        Kind::Threshold => {
            Request::threshold(TAU, ThresholdOptions::default().with_threads(Some(1)))
        }
        Kind::TopK => Request::top_k(TOP_K, TopKOptions::default().with_threads(Some(1))),
        Kind::AllSky => Request::all_sky(one),
        Kind::Sensitivity => {
            Request::sensitivity(Some(target), SensitivityOptions::default().with_threads(Some(1)))
        }
        _ => unreachable!("writes are not requests"),
    };
    match tenant {
        Some(t) => r.with_tenant(t),
        None => r,
    }
}

/// Execute one action, inside a span when tracing.
fn execute<M: PreferenceModel + Sync + Clone>(
    engine: &Engine<M>,
    action: Action,
    base: &Baseline,
    trace: &mut Option<Trace>,
    id: u64,
) -> Done {
    let kind = match &action {
        Action::Read { kind, .. } => *kind,
        Action::Write(w) => w.kind(),
    };
    let span = trace.as_mut().map(|t| t.open(kind.span(), ROOT, id));
    let t0 = Instant::now();
    let done = match action {
        Action::Read { kind, target, tenant } => {
            let result = engine.run(request(kind, target, tenant));
            let ns = t0.elapsed().as_nanos() as u64;
            match result {
                Ok(resp) => {
                    let at_base = tenant.is_none() && resp.epoch % WRITE_CYCLE == 0;
                    Done {
                        kind,
                        ns,
                        ok: resp.outcome.complete(),
                        tenanted: tenant.is_some(),
                        pre_admission_ns: ns.saturating_sub(resp.elapsed.as_nanos() as u64),
                        stats: resp.stats,
                        objects: resp.outcome.value().as_all_sky().map_or(0, <[_]>::len),
                        check: at_base.then(|| base.agrees(kind, target, &resp.outcome)),
                        evicted: 0,
                        dirtied: 0,
                        end_s: 0.0,
                        client: 0,
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {} read of {target} failed: {e}", kind.label());
                    Done::failed(kind, ns, tenant.is_some())
                }
            }
        }
        Action::Write(w) => {
            let result = match w {
                Write::SetPreference(dim, a, b, f, bk) => engine.set_preference(dim, a, b, f, bk),
                Write::Insert(values) => engine.insert_object(&values),
                Write::Remove(obj) => engine.remove_object(obj),
            };
            let ns = t0.elapsed().as_nanos() as u64;
            match result {
                Ok(receipt) => Done {
                    evicted: receipt.evicted_components,
                    dirtied: receipt.dirtied_targets as u64,
                    ok: true,
                    ..Done::failed(kind, ns, false)
                },
                Err(_) => Done::failed(kind, ns, false),
            }
        }
    };
    if let (Some(t), Some(idx)) = (trace.as_mut(), span) {
        t.close(idx);
    }
    done
}

/// Everything one closed-loop replay produced.
#[derive(Debug)]
struct Replay {
    ops: Vec<Done>,
    window_s: f64,
    /// The engine's counters after the replay (merged over passes).
    metrics: MetricsSnapshot,
}

/// Run `clients` closed-loop clients for `seconds`. Client 0 finishes its
/// current write cycle after the window closes.
fn replay<M: PreferenceModel + Send + Sync + Clone>(
    engine: &Engine<M>,
    clients: usize,
    seconds: f64,
    stream: &Stream,
    base: &Baseline,
    trace: Option<&mut Trace>,
) -> Replay {
    let origin = trace.as_ref().map(|t| t.origin());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Done>, Option<Trace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = origin.map(Trace::new);
                    let mut ops = Vec::new();
                    let mut run = |action: Action, k: u64, tr: &mut Option<Trace>| {
                        let mut done = execute(engine, action, base, tr, ((c as u64) << 32) | k);
                        done.end_s = start.elapsed().as_secs_f64();
                        done.client = c;
                        ops.push(done);
                    };
                    let mut writes = 0u64;
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let action = stream.action(c, k);
                        writes += u64::from(matches!(action, Action::Write(_)));
                        run(action, k, &mut tr);
                        k += 1;
                    }
                    if let (0, Some(plan)) = (c, &stream.writes) {
                        while !writes.is_multiple_of(WRITE_CYCLE) {
                            run(Action::Write(plan.write(writes)), k, &mut tr);
                            writes += 1;
                            k += 1;
                        }
                    }
                    (ops, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut trace = trace;
    let mut ops = Vec::new();
    for (client_ops, tr) in per_client {
        ops.extend(client_ops);
        if let (Some(t), Some(tr)) = (trace.as_deref_mut(), tr) {
            t.absorb(tr);
        }
    }
    let metrics = match trace {
        Some(t) => t.span("service.engine.metrics", ROOT, 0, || engine.metrics()),
        None => engine.metrics(),
    };
    Replay { ops, window_s, metrics }
}

/// Pass loop of `blockzipf-cold-allsky`: fresh engine, one 2-thread
/// all-sky, digest check, until the window closes.
fn cold_passes(
    table: &Table,
    prefs: BlockScopedPreferences<SeededPreferences>,
    opts: EngineOptions,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    setup: &mut Vec<f64>,
    checks: &mut Checks,
) -> Result<Replay, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut merged: Option<MetricsSnapshot> = None;
    let mut pass = 0u64;
    let mut occupancy = (0, 0);
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let span = open(&mut trace, "service.engine.new", pass);
        let engine = Engine::new(table.clone(), prefs, opts).map_err(|e| e.to_string())?;
        close(&mut trace, span);
        setup.push(t0.elapsed().as_secs_f64());
        let span = open(&mut trace, Kind::AllSky.span(), pass);
        let t1 = Instant::now();
        let result = engine.run(Request::all_sky(QueryOptions::default().with_threads(Some(2))));
        let ns = t1.elapsed().as_nanos() as u64;
        close(&mut trace, span);
        ops.push(match result {
            Ok(resp) => {
                let d = digest(std::slice::from_ref(&resp.outcome));
                checks.digest(&format!("pass {pass} all-sky"), d, BLOCKZIPF_DIGEST);
                Done {
                    ok: resp.outcome.complete(),
                    pre_admission_ns: ns.saturating_sub(resp.elapsed.as_nanos() as u64),
                    stats: resp.stats,
                    objects: resp.outcome.value().as_all_sky().map_or(0, <[_]>::len),
                    end_s: start.elapsed().as_secs_f64(),
                    ..Done::failed(Kind::AllSky, ns, false)
                }
            }
            Err(_) => Done::failed(Kind::AllSky, ns, false),
        });
        let span = open(&mut trace, "service.engine.metrics", pass);
        let m = engine.metrics();
        close(&mut trace, span);
        occupancy = (m.cache_entries, m.cache_bytes);
        match merged.as_mut() {
            Some(acc) => acc.merge(&m),
            None => merged = Some(m),
        }
        pass += 1;
    }
    // Counters add up over passes; cache occupancy is the last pass's.
    let mut metrics = merged.ok_or("the window closed before the first pass")?;
    (metrics.cache_entries, metrics.cache_bytes) = occupancy;
    Ok(Replay { ops, window_s: start.elapsed().as_secs_f64(), metrics })
}

/// Open a span when tracing.
fn open(trace: &mut Option<&mut Trace>, name: &'static str, id: u64) -> Option<u32> {
    trace.as_deref_mut().map(|t| t.open(name, ROOT, id))
}

/// Close a span opened by [`open`].
fn close(trace: &mut Option<&mut Trace>, span: Option<u32>) {
    if let (Some(t), Some(idx)) = (trace.as_deref_mut(), span) {
        t.close(idx);
    }
}

// ------------------------------------------------------------ serving workloads

/// A two-client serving workload (`nursery-serve`, `live-mixed`).
struct Serve<M> {
    table: Table,
    prefs: M,
    opts: EngineOptions,
    tenants: usize,
    digest: u64,
    stream: Stream,
    replica_tau: Option<f64>,
}

/// The four rarest values of every dimension with at least two values.
fn rare_values(table: &Table) -> Vec<(DimId, Vec<ValueId>)> {
    (0..table.dimensionality())
        .map(|j| {
            let dim = DimId(j as u32);
            let mut freq: HashMap<ValueId, usize> = HashMap::new();
            for &v in table.column(dim) {
                *freq.entry(v).or_insert(0) += 1;
            }
            let mut by_rarity: Vec<(usize, ValueId)> =
                freq.into_iter().map(|(v, c)| (c, v)).collect();
            by_rarity.sort_unstable_by_key(|&(c, v)| (c, v.0));
            (dim, by_rarity.into_iter().take(4).map(|(_, v)| v).collect::<Vec<_>>())
        })
        .filter(|(_, vals)| vals.len() >= 2)
        .collect()
}

/// Tenant `t`'s 2-pair overlay over the rare values, probabilities in
/// `[0.05, 0.45]`.
fn overlay(t: u64, rare: &[(DimId, Vec<ValueId>)]) -> Vec<(DimId, ValueId, ValueId, f64, f64)> {
    (0..2u64)
        .map(|j| {
            let h = mix64(t.wrapping_mul(0x1_0000).wrapping_add(j) ^ 0x7465_6e61_6e74);
            let (dim, vals) = &rare[(h % rare.len() as u64) as usize];
            let a = ((h >> 16) % vals.len() as u64) as usize;
            let mut b = ((h >> 32) % (vals.len() - 1) as u64) as usize;
            if b >= a {
                b += 1;
            }
            let forward = 0.05 + ((h >> 40) & 0xfff) as f64 / 4095.0 * 0.40;
            let backward = 0.05 + ((h >> 52) & 0xfff) as f64 / 4095.0 * 0.40;
            (*dim, vals[a], vals[b], forward, backward)
        })
        .collect()
}

/// Build the engine, register the tenants and run the untimed warm-up
/// all-sky; returns the engine, the base answer and the set-up seconds.
fn setup<M: PreferenceModel + Send + Sync + Clone>(
    spec: &Serve<M>,
    mut trace: Option<&mut Trace>,
) -> Result<(Engine<M>, Baseline, f64), String> {
    let t0 = Instant::now();
    let span = open(&mut trace, "service.engine.new", 0);
    let engine = Engine::new(spec.table.clone(), spec.prefs.clone(), spec.opts)
        .map_err(|e| e.to_string())?;
    close(&mut trace, span);
    let rare = rare_values(&spec.table);
    for t in 0..spec.tenants as u64 {
        let span = open(&mut trace, "service.tenant.register", t);
        engine.register_tenant(TenantId(t), &overlay(t, &rare)).map_err(|e| e.to_string())?;
        close(&mut trace, span);
    }
    let span = open(&mut trace, Kind::AllSky.span(), 0);
    let warm = engine
        .run(Request::all_sky(QueryOptions::default().with_threads(Some(1))))
        .map_err(|e| format!("warm-up all-sky: {e}"))?;
    close(&mut trace, span);
    let secs = t0.elapsed().as_secs_f64();
    Ok((engine, Baseline::of(&warm.outcome)?, secs))
}

/// Run a serving workload: set-ups, the untraced replay, the final
/// checks, and with `--trace 1` the traced replay plus the replica.
fn serve<M: PreferenceModel + Send + Sync + Clone>(
    args: &Args,
    mut spec: Serve<M>,
) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (engine, base, secs) = setup(&spec, None)?;
        setup_s.push(secs);
        built = Some((engine, base));
    }
    let (engine, base) = built.expect("SETUP_REPS > 0");
    checks.digest("warm-up all-sky", base.digest, spec.digest);
    spec.stream.restrict_sensitivity(&base);
    let seconds = replay_seconds(args);
    let untraced = replay(&engine, 2, seconds, &spec.stream, &base, None);
    final_checks(&engine, &spec, &base, &untraced, &mut checks)?;
    drop(engine);

    let mut out = Outcome {
        attempted: untraced.ops.len() as u64,
        failed: untraced.ops.iter().filter(|d| !d.ok).count() as u64,
        ..Outcome::default()
    };
    print_properties(&args.workload, &untraced, spec.opts.cache_bytes);
    print_extras(&untraced.ops);
    if !args.trace {
        out.metrics = end_to_end(&untraced, &setup_s);
        out.correct = checks.all_ok();
        return Ok(out);
    }

    let mut tr = Trace::new(Instant::now());
    let (engine, base, _) = setup(&spec, Some(&mut tr))?;
    let traced = replay(&engine, 2, seconds, &spec.stream, &base, Some(&mut tr));
    final_checks(&engine, &spec, &base, &traced, &mut checks)?;
    drop(engine);
    let layer =
        layers(&spec.table, spec.prefs.clone(), spec.opts, spec.replica_tau, &mut tr, &mut checks)?;
    out.metrics = layer_metrics(&tr.self_times(), &layer, &traced, &untraced);
    write_spans(args, &tr);
    out.correct = checks.all_ok();
    Ok(out)
}

/// Per-read answer checks, then (when the workload writes) the final
/// all-sky digest against the base digest and against an engine rebuilt
/// from `Engine::snapshot()`.
fn final_checks<M: PreferenceModel + Send + Sync + Clone>(
    engine: &Engine<M>,
    spec: &Serve<M>,
    base: &Baseline,
    rep: &Replay,
    checks: &mut Checks,
) -> Result<(), String> {
    let checked: Vec<bool> = rep.ops.iter().filter_map(|d| d.check).collect();
    let bad = checked.iter().filter(|ok| !**ok).count();
    checks.record(
        &format!("{} reads at base epochs agree with the base all-sky", checked.len()),
        bad == 0,
    );
    if spec.stream.writes.is_none() {
        return Ok(());
    }
    let all = Request::all_sky(QueryOptions::default().with_threads(Some(1)));
    let live = engine.run(all.clone()).map_err(|e| format!("final all-sky: {e}"))?;
    let live = digest(std::slice::from_ref(&live.outcome));
    checks.digest("final all-sky after the write cycles", live, base.digest);
    let view = engine.snapshot();
    let rebuilt =
        Engine::new(view.table().as_ref().clone(), view.prefs().as_ref().clone(), spec.opts)
            .map_err(|e| format!("rebuild from snapshot: {e}"))?;
    let fresh = rebuilt.run(all).map_err(|e| format!("rebuilt all-sky: {e}"))?;
    checks.digest(
        "engine rebuilt from snapshot",
        digest(std::slice::from_ref(&fresh.outcome)),
        live,
    );
    Ok(())
}

// ------------------------------------------------------------ traced layers

/// The replica plus the engine all-sky it is gated against.
struct Layers {
    replica: replica::Replica,
    engine_allsky_ms: f64,
    mismatches: u64,
}

/// Run the replica over the base dataset and gate it: every value must
/// equal a fresh engine's one-thread `all_sky` bit for bit, and the
/// gradient twin must agree with the plain DFS on every component.
fn layers<M: PreferenceModel + Send + Sync + Clone>(
    table: &Table,
    prefs: M,
    opts: EngineOptions,
    tau: Option<f64>,
    tr: &mut Trace,
    checks: &mut Checks,
) -> Result<Layers, String> {
    let replica = replica::run(table, &prefs, opts.cache_bytes, tau, tr)?;
    let engine = Engine::new(table.clone(), prefs, opts).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let resp = engine
        .run(Request::all_sky(QueryOptions::default().with_threads(Some(1))))
        .map_err(|e| format!("gate all-sky: {e}"))?;
    let engine_allsky_ms = t0.elapsed().as_secs_f64() * 1e3;
    let slots = resp.outcome.value().as_all_sky().ok_or("gate all-sky returned no batch")?;
    let mismatches = slots
        .iter()
        .zip(&replica.sky_bits)
        .filter(|(slot, bits)| slot.map(|r| r.sky.to_bits()) != Some(**bits))
        .count() as u64
        + slots.len().abs_diff(replica.sky_bits.len()) as u64;
    checks.record(
        &format!("replica equals engine all-sky bit for bit ({mismatches} mismatches)"),
        mismatches == 0,
    );
    let grad = replica.counts.grad_mismatches;
    checks.record(&format!("gradient DFS sky bits equal plain DFS ({grad} mismatches)"), grad == 0);
    Ok(Layers { replica, engine_allsky_ms, mismatches })
}

fn write_spans(args: &Args, tr: &Trace) {
    if let Some(dir) = &args.trace_out {
        let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match tr.write_tsv(&path) {
            Ok(()) => println!("# spans: {} written to {}", tr.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }
}

// ------------------------------------------------------------ metrics

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted_ms<'a>(ops: impl Iterator<Item = &'a Done>) -> Vec<f64> {
    let mut v: Vec<f64> = ops.map(|d| d.ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timing metrics of one segment of a run.
struct Segment {
    ops: usize,
    req_per_s: f64,
    allsky: usize,
    allsky_objects_per_s: f64,
    reads: usize,
    read_p50_ms: f64,
    read_p90_ms: f64,
}

impl Segment {
    fn of(ops: &[&Done]) -> Self {
        let reads = sorted_ms(ops.iter().copied().filter(|d| !d.kind.is_write()));
        let allsky: Vec<&Done> = ops.iter().copied().filter(|d| d.kind == Kind::AllSky).collect();
        let allsky_ms = sorted_ms(allsky.iter().copied());
        let objects: usize = allsky.iter().map(|d| d.objects).sum();
        let allsky_s: f64 = allsky_ms.iter().sum::<f64>() / 1e3;
        // Each closed-loop client completes one operation per latency, so
        // its rate is its operation count over its summed latency; unlike
        // counting completions in the segment, this does not quantise when
        // an operation is long against the segment.
        let mut per_client: HashMap<usize, (usize, f64)> = HashMap::new();
        for d in ops {
            let e = per_client.entry(d.client).or_default();
            e.0 += 1;
            e.1 += d.ns as f64 / 1e9;
        }
        let req_per_s: f64 = per_client.values().map(|&(n, s)| n as f64 / s).sum();
        Self {
            ops: ops.len(),
            req_per_s,
            allsky: allsky.len(),
            allsky_objects_per_s: if allsky_s > 0.0 { objects as f64 / allsky_s } else { 0.0 },
            reads: reads.len(),
            read_p50_ms: pct(&reads, 0.5),
            read_p90_ms: pct(&reads, 0.9),
        }
    }
}

/// The end-to-end metrics of a run.
///
/// The host's CPU speed drifts between modes up to ~1.6x apart, in
/// episodes of several seconds (a fixed integer loop shows it), which is
/// as large as the effects the benchmark must resolve. So the window is
/// cut into [`SEGMENTS`] equal segments by completion time, every timing
/// metric is computed on each segment, and the best segment is reported:
/// it tracks the code rather than the host. `setup_s` is the median of
/// the run's set-ups; `ok_share` and `peak_rss_mib` cover the whole run.
fn end_to_end(rep: &Replay, setup_s: &[f64]) -> Vec<Metric> {
    let seg_s = rep.window_s / SEGMENTS as f64;
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|i| {
            let ops: Vec<&Done> = rep
                .ops
                .iter()
                .filter(|d| d.ok && ((d.end_s / seg_s) as usize).min(SEGMENTS - 1) == i)
                .collect();
            Segment::of(&ops)
        })
        .collect();
    // Best segment by `value` among those with samples; `higher` picks
    // the maximum, otherwise the minimum.
    let best = |name: &str, unit: &'static str, higher: bool, f: fn(&Segment) -> (f64, usize)| {
        let mut picked: Option<(f64, usize)> = None;
        for (v, n) in segments.iter().map(f).filter(|&(_, n)| n > 0) {
            if picked.is_none_or(|(p, _)| if higher { v > p } else { v < p }) {
                picked = Some((v, n));
            }
        }
        let (v, n) = picked.unwrap_or((0.0, 0));
        Metric::new(name, v, unit, n)
    };
    let ok = rep.ops.iter().filter(|d| d.ok).count();
    vec![
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        best("req_per_s", "1/s", true, |s| (s.req_per_s, s.ops)),
        best("allsky_objects_per_s", "1/s", true, |s| (s.allsky_objects_per_s, s.allsky)),
        best("read_p50_ms", "ms", false, |s| (s.read_p50_ms, s.reads)),
        best("read_p90_ms", "ms", false, |s| (s.read_p90_ms, s.reads)),
        Metric::new("ok_share", ok as f64 / rep.ops.len().max(1) as f64, "share", rep.ops.len()),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1),
    ]
}

/// Per-kind latencies under the names the workload definitions use, for
/// the kinds present in this workload's mix.
fn print_extras(ops: &[Done]) {
    let ok = |k: Kind| sorted_ms(ops.iter().filter(move |d| d.ok && d.kind == k));
    let mut lines: Vec<(String, f64, &str, usize)> = Vec::new();
    let sky = ok(Kind::SkyOne);
    if !sky.is_empty() {
        lines.push(("sky_one_p50_ms".into(), pct(&sky, 0.5), "ms", sky.len()));
        lines.push(("sky_one_p90_ms".into(), pct(&sky, 0.9), "ms", sky.len()));
    }
    for k in [Kind::AllSky, Kind::Threshold, Kind::TopK, Kind::Sensitivity] {
        let v = ok(k);
        if !v.is_empty() {
            lines.push((format!("{}_p50_ms", k.label()), pct(&v, 0.5), "ms", v.len()));
        }
    }
    let set = sorted_ms(ops.iter().filter(|d| d.ok && d.kind.is_set_query()));
    if !set.is_empty() {
        lines.push(("set_query_p90_ms".into(), pct(&set, 0.9), "ms", set.len()));
    }
    let writes = sorted_ms(ops.iter().filter(|d| d.ok && d.kind.is_write()));
    if !writes.is_empty() {
        lines.push(("write_p50_ms".into(), pct(&writes, 0.5), "ms", writes.len()));
        lines.push(("write_p90_ms".into(), pct(&writes, 0.9), "ms", writes.len()));
    }
    for k in [Kind::SkyOne, Kind::Threshold, Kind::TopK, Kind::AllSky, Kind::Sensitivity] {
        let failed = ops.iter().filter(|d| !d.ok && d.kind == k).count();
        if failed > 0 {
            lines.push((format!("failed_{}", k.label()), failed as f64, "count", 1));
        }
    }
    let failed = ops.iter().filter(|d| !d.ok).count();
    lines.push((
        "failed_share".into(),
        failed as f64 / ops.len().max(1) as f64,
        "share",
        ops.len(),
    ));
    for (name, v, unit, n) in lines {
        println!("extra {name} = {v} {unit} (samples {n})");
    }
}

/// The workload-property line: what kind of input this is, measured.
fn print_properties(workload: &str, rep: &Replay, cap: usize) {
    let m = &rep.metrics;
    let s = &m.stats;
    let n = rep.ops.len().max(1) as f64;
    let reads = rep.ops.iter().filter(|d| !d.kind.is_write()).count().max(1) as f64;
    println!(
        "properties workload={workload} cache_hit_rate={:.4} survivors_per_attacker={:.4} \
         largest_component={} working_set_bytes={} cache_cap_bytes={cap} refused_inserts={} \
         tenanted_share={:.3} write_share={:.3} worlds_sampled={}",
        s.cache_hit_rate(),
        s.survivors as f64 / s.attackers_in.max(1) as f64,
        s.largest_component,
        m.cache_bytes,
        s.cache_probes.saturating_sub(s.cache_hits + s.cache_insertions),
        rep.ops.iter().filter(|d| d.tenanted).count() as f64 / reads,
        rep.ops.iter().filter(|d| d.kind.is_write()).count() as f64 / n,
        s.samples_drawn,
    );
}

fn print_growth(n: usize, st: &SelfTimes, c: &replica::Counts) {
    println!(
        "growth n={n} core.batch.view_into_ms={:.1} exact.det.dfs_ms={:.1} exact.det.joints={}",
        st.ms("core.batch.view_into"),
        st.ms("exact.det.dfs"),
        c.joints
    );
}

fn mean<'a>(values: impl Iterator<Item = &'a Done>, f: impl Fn(&Done) -> f64) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), d| (s + f(d), n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn layer_metrics(st: &SelfTimes, l: &Layers, traced: &Replay, untraced: &Replay) -> Vec<Metric> {
    let c = &l.replica.counts;
    let m = &traced.metrics;
    let s = &m.stats;
    let ops = &traced.ops;
    let mut resp = PipelineStats::default();
    let mut sprt_worlds = 0;
    for d in ops {
        resp.merge(&d.stats);
        if d.kind == Kind::Threshold {
            sprt_worlds += d.stats.samples_drawn;
        }
    }
    let engine_layers: f64 = replica::ENGINE_LAYERS.iter().map(|n| st.ms(n)).sum();
    let rate = |r: &Replay| r.ops.iter().filter(|d| d.ok).count() as f64 / r.window_s;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count", 1);
    let ms = |name: &str, span: &str| Metric::new(name, st.ms(span), "ms", st.count(span) as usize);
    vec![
        ms("core.batch.build_ms", "core.batch.build"),
        ms("core.batch.view_into_ms", "core.batch.view_into"),
        count("core.batch.attackers_assembled", c.attackers_assembled),
        ms("exact.absorption.absorb_ms", "exact.absorption.absorb"),
        count("exact.absorption.attackers_in", c.absorb_in),
        Metric::new("exact.absorption.kept_share", ratio(c.absorb_kept, c.absorb_in), "share", 1),
        ms("exact.signature.sign_ms", "exact.signature.sign"),
        ms("exact.cache.get_ms", "exact.cache.get"),
        ms("exact.cache.insert_ms", "exact.cache.insert"),
        Metric::new("exact.cache.hit_rate", s.cache_hit_rate(), "share", s.cache_probes as usize),
        count(
            "exact.cache.refused_inserts",
            s.cache_probes.saturating_sub(s.cache_hits + s.cache_insertions),
        ),
        count("exact.cache.entries", m.cache_entries as u64),
        Metric::new("exact.cache.bytes", m.cache_bytes as f64, "bytes", 1),
        count("exact.cache.evicted", m.evicted_components),
        ms("exact.det.dfs_ms", "exact.det.dfs"),
        count("exact.det.solves", c.solves),
        count("exact.det.joints", c.joints),
        Metric::new(
            "exact.det.ns_per_joint",
            st.ms("exact.det.dfs") * 1e6 / c.joints.max(1) as f64,
            "ns",
            c.joints as usize,
        ),
        ms("exact.det.grad_ms", "exact.det.grad"),
        ms("exact.bounds.bonferroni_ms", "exact.bounds.bonferroni"),
        Metric::new(
            "exact.bounds.resolved_share",
            ratio(c.bounds_resolved, c.bounds_targets),
            "share",
            c.bounds_targets as usize,
        ),
        ms("core.coins.prune_ms", "core.coins.prune"),
        ms("core.coins.restrict_ms", "core.coins.restrict"),
        ms("core.coins.canonicalise_ms", "core.coins.canonicalise"),
        ms("exact.partition.partition_ms", "exact.partition.partition"),
        count("exact.partition.components", c.components),
        count("exact.partition.largest", c.largest),
        count("approx.sampler.worlds", resp.samples_drawn - sprt_worlds + c.sampled_worlds),
        count("approx.sprt.worlds", sprt_worlds),
        Metric::new("query.engine.prepare_ms", resp.prepare_nanos as f64 / 1e6, "ms", ops.len()),
        Metric::new("query.engine.plan_ms", resp.plan_nanos as f64 / 1e6, "ms", ops.len()),
        Metric::new("query.engine.execute_ms", resp.execute_nanos as f64 / 1e6, "ms", ops.len()),
        Metric::new("query.engine.unattributed_ms", l.engine_allsky_ms - engine_layers, "ms", 1),
        Metric::new(
            "service.engine.pre_admission_us",
            mean(ops.iter().filter(|d| d.ok && !d.kind.is_write()), |d| {
                d.pre_admission_ns as f64 / 1e3
            }),
            "us",
            ops.len(),
        ),
        ms("service.engine.set_preference_ms", Kind::SetPreference.span()),
        ms("service.engine.insert_ms", Kind::Insert.span()),
        ms("service.engine.remove_ms", Kind::Remove.span()),
        Metric::new(
            "service.engine.evicted_per_edit",
            mean(ops.iter().filter(|d| d.kind == Kind::SetPreference), |d| d.evicted as f64),
            "count",
            1,
        ),
        Metric::new(
            "service.engine.dirtied_per_write",
            mean(ops.iter().filter(|d| d.kind.is_write()), |d| d.dirtied as f64),
            "count",
            1,
        ),
        count("service.coalesce.coalesced", m.coalesced),
        ms("service.tenant.register_ms", "service.tenant.register"),
        Metric::new("service.tenant.cross_user_hit_rate", m.cross_user_hit_rate(), "share", 1),
        count("core.epoch.retired", m.epochs_retired),
        count("replica.mismatches", l.mismatches),
        count("replica.grad_mismatches", c.grad_mismatches),
        Metric::new("trace.overhead_share", 1.0 - rate(traced) / rate(untraced), "share", 1),
    ]
}

// ------------------------------------------------------------ checks

/// Answer checks of one run; any failure makes the run incorrect.
#[derive(Debug, Default)]
struct Checks {
    failures: usize,
}

impl Checks {
    fn record(&mut self, what: &str, ok: bool) {
        println!("check {what}: {}", if ok { "ok" } else { "MISMATCH" });
        self.failures += usize::from(!ok);
    }

    fn digest(&mut self, what: &str, got: u64, want: u64) {
        self.record(&format!("{what} digest {got:#018x} (expected {want:#018x})"), got == want);
    }

    fn all_ok(&self) -> bool {
        self.failures == 0
    }
}
