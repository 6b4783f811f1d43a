//! `Det` — the deterministic inclusion–exclusion algorithm (Algorithm 1).
//!
//! From Equation 4,
//!
//! ```text
//! sky(O) = 1 + Σ_{k=1..n} (−1)^k Σ_{|I| = k} Pr(E_I)
//! ```
//!
//! where `Pr(E_I)` multiplies, per dimension, the win probabilities of the
//! *distinct* values of the attackers in `I` (Equation 6). The paper's key
//! implementation point is the *sharing computation* of Section 3: derive
//! `Pr(E_I)` from `Pr(E_{I∖{i}})` in `O(d)` by multiplying only the coins
//! of attacker `i` not already contributed by `I∖{i}`.
//!
//! This module realises that scheme as one depth-first walk of the subset
//! lattice ordered by largest attacker index: the path to each node *is*
//! the chain `∅ ⊂ … ⊂ I` the paper's Figure 5 arrows describe, the subset's
//! coin union gives the O(d) incremental factor, and memory stays
//! `O(n + m)` instead of the layer-at-a-time `O(C(n, k))` of the literal
//! layered formulation (provided separately in [`crate::levelwise`] and
//! proven equivalent in tests).
//!
//! The walk is generic over two things. The *coin set* holds the union:
//! one `u64` mask travelling down the recursion when the instance has at
//! most 64 coins, per-coin multiplicity counters otherwise. Both multiply
//! a node's fresh coins in ascending order, so they agree bit for bit. The
//! *hook* decides what happens below each node: the plain sum recurses,
//! the gradient also credits each node's sum to its fresh coins, and the
//! parallel split cuts the lattice into jobs.
//!
//! Three sound prunings keep practical cost below `2^n`:
//!
//! * **zero product** — once `Pr(E_I) = 0`, every superset also has zero
//!   joint probability and the subtree is skipped;
//! * **saturated product** — attackers whose every coin is already counted
//!   contribute factor 1; no pruning applies, but no new multiplication is
//!   paid either (the sharing at work);
//! * **covered-attacker cancellation** — if, after taking attacker `i`,
//!   some remaining attacker `j > i` has every coin already in the union,
//!   then pairing each extension `T` with `T ∪ {j}` matches equal joint
//!   probabilities of opposite sign, so the entire cell (the `{…, i}` term
//!   and all its extensions) sums to exactly zero and is skipped whole.
//!
//! ## Parallel DFS (within one component)
//!
//! With [`DetOptions::threads`] `> 1` and at least [`PAR_MIN_ATTACKERS`]
//! attackers, the walk runs in three phases:
//!
//! 1. **Split** — a serial walk down to [`PAR_SPLIT_DEPTH`] attackers
//!    records each node at that depth as a *job*: its path of attacker
//!    indices. Its joints are charged to the budget like the serial walk's;
//! 2. **Compute** — a scoped worker pool drains the jobs through an atomic
//!    cursor. A worker replays a job's path into its own coin set, which
//!    recomputes the node's product bit for bit, and walks the subtree
//!    below it with the plain-sum hook. Workers charge a shared joints
//!    ledger every 8192 joints and check the deadline and joint caps
//!    against the committed total;
//! 3. **Fold** — a second walk of the shallow levels recomputes their
//!    terms and substitutes each job's sum for the subtree below it, so
//!    every partial sum is formed in the bracketing of the serial walk.
//!
//! The result is therefore **bit-identical at every thread count** — the
//! property the engine's component cache and the all-sky reproducibility
//! tests rely on. A joint cap trips on both paths exactly when the total
//! joint count reaches the first multiple of 8192 at or above the cap; a
//! tripped budget aborts all workers and surfaces the first error. The
//! value is withheld, never wrong.

use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use presky_core::coins::CoinView;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use crate::error::{ExactError, Result};

/// Depth at which the parallel path cuts the lattice into jobs. Depth 3
/// yields `O(n³)` jobs — enough for work stealing to balance the heavily
/// skewed subtree sizes — while keeping the serial split phase trivial.
pub const PAR_SPLIT_DEPTH: usize = 3;

/// Components smaller than this stay serial even when threads are granted:
/// below ~2^17 lattice nodes the spawn cost exceeds the traversal cost.
pub const PAR_MIN_ATTACKERS: usize = 17;

/// Joints between two budget checks.
const CHECK_EVERY: u64 = 8192;

/// Budgets for the exponential exact computation.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`DetOptions::default`] and the chainable `with_*` builders, which keep
/// downstream code compiling as budget knobs are added.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct DetOptions {
    /// Refuse instances with more attackers than this (after any
    /// preprocessing the caller applied). `Det` visits up to `2^n − 1`
    /// subsets; 30 attackers ≈ a billion nodes.
    pub max_attackers: usize,
    /// Optional wall-clock cut-off *relative to the start of this call*,
    /// mirroring the paper's 10⁴-second cap.
    pub deadline: Option<Duration>,
    /// Optional *absolute* wall-clock cut-off — the resident service stamps
    /// its per-request deadline here so one budget spans every component
    /// (and every object) a request touches. Checked inside the DFS at the
    /// same chunk granularity as `deadline`.
    pub deadline_at: Option<Instant>,
    /// Optional cap on the joint probabilities computed by this call. The
    /// DFS checks it every 8192 joints and fails once the count reaches the
    /// first multiple of 8192 at or above the cap — at every thread count,
    /// so a solve trips exactly when its serial solve does. `None` =
    /// unbounded.
    pub max_joints: Option<u64>,
    /// Threads this call may use for the within-component parallel DFS.
    /// `1` (the default) stays serial; values above 1 engage the
    /// split/compute/fold path on components with at least
    /// [`PAR_MIN_ATTACKERS`] attackers. Results are bit-identical at every
    /// setting. The engine stamps this from a [`ThreadLease`] grant so one
    /// machine-wide pot bounds total parallelism.
    ///
    /// [`ThreadLease`]: presky_core::pool::ThreadLease
    pub threads: usize,
    /// Skip subtrees whose joint probability is already zero (sound:
    /// every superset of a zero-probability event set has zero
    /// probability). On by default; the benchmark harness turns it off to
    /// measure Algorithm 1's literal cost, which computes every joint.
    pub prune_zero: bool,
    /// Skip lattice cells whose alternating sum cancels exactly: once the
    /// union of the current subset covers every coin of some remaining
    /// attacker `j`, pairing each extension `T` with `T ∪ {j}` matches
    /// equal products of opposite sign, so the cell contributes zero. On
    /// by default; turn off to reproduce Algorithm 1's literal term count
    /// (the final sum differs from the literal one only by floating-point
    /// rounding of terms that cancel in exact arithmetic).
    pub prune_covered: bool,
}

impl Default for DetOptions {
    fn default() -> Self {
        Self {
            max_attackers: 30,
            deadline: None,
            deadline_at: None,
            max_joints: None,
            threads: 1,
            prune_zero: true,
            prune_covered: true,
        }
    }
}

impl DetOptions {
    /// Chainable: set the relative wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Chainable: set (or clear) the absolute wall-clock cut-off.
    pub fn with_deadline_at(mut self, deadline_at: Option<Instant>) -> Self {
        self.deadline_at = deadline_at;
        self
    }

    /// Chainable: set (or clear) the joint-computation cap.
    pub fn with_max_joints(mut self, max_joints: Option<u64>) -> Self {
        self.max_joints = max_joints;
        self
    }

    /// Chainable: set the attacker ceiling (raise it only with a deadline!).
    pub fn with_max_attackers(mut self, max_attackers: usize) -> Self {
        self.max_attackers = max_attackers;
        self
    }

    /// Chainable: set the thread allowance (`0` is sanitised to `1`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Chainable: toggle the zero-product pruning.
    pub fn with_prune_zero(mut self, prune_zero: bool) -> Self {
        self.prune_zero = prune_zero;
        self
    }

    /// Chainable: toggle the covered-attacker cancellation.
    pub fn with_prune_covered(mut self, prune_covered: bool) -> Self {
        self.prune_covered = prune_covered;
        self
    }
}

/// Result of an exact computation, with work accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetOutcome {
    /// The exact skyline probability.
    pub sky: f64,
    /// Number of joint probabilities `Pr(E_I)` computed (`|I| ≥ 1`).
    pub joints_computed: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Compute `sky(target)` exactly over a table (builds the coin view first).
pub fn sky_det<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    opts: DetOptions,
) -> Result<DetOutcome> {
    let view = CoinView::build(table, prefs, target)?;
    sky_det_view(&view, opts)
}

/// Compute the skyline probability of a reduced instance exactly.
pub fn sky_det_view(view: &CoinView, opts: DetOptions) -> Result<DetOutcome> {
    sky_det_view_with(view, opts, &mut DetScratch::default())
}

/// Reusable working memory for [`sky_det_view_with`]: the per-coin
/// multiplicity counters of the wide path and the attacker masks of the
/// ≤ 64-coin bitset path. One per worker thread.
#[derive(Debug, Clone, Default)]
pub struct DetScratch {
    mult: Vec<u32>,
    masks: Vec<u64>,
}

/// [`sky_det_view`] with caller-owned scratch, allocation-free after
/// warm-up.
///
/// Instances whose coin count fits a machine word (≤ 64) take a bitset fast
/// path: each attacker is a `u64` mask, the subset union travels down the
/// recursion as one word, and the incremental factor of Equation 6 walks
/// `mask & !union` by `trailing_zeros` — ascending coin order, exactly the
/// multiplication order of the multiplicity-counter path, so both paths are
/// bit-identical. Wider instances fall back to the counters.
pub fn sky_det_view_with(
    view: &CoinView,
    opts: DetOptions,
    scratch: &mut DetScratch,
) -> Result<DetOutcome> {
    let start = Instant::now();
    check_size(view, &opts)?;
    let parallel = opts.threads > 1 && view.n_attackers() >= PAR_MIN_ATTACKERS;
    let budget = DfsBudget::new(&opts, start);
    let (sum, joints) = if view.n_coins() <= 64 {
        let masks = Masks::new(view, &mut scratch.masks);
        if parallel {
            walk_parallel(view, &opts, start, || masks)?
        } else {
            Walk::new(view, masks, Sum, budget, &opts).run()?
        }
    } else if parallel {
        walk_parallel(view, &opts, start, || Counters { view, mult: vec![0; view.n_coins()] })?
    } else {
        Walk::new(view, Counters::new(view, &mut scratch.mult), Sum, budget, &opts).run()?
    };
    Ok(DetOutcome { sky: 1.0 + sum, joints_computed: joints, elapsed: start.elapsed() })
}

/// [`sky_det_view_with`] plus the polynomial's gradient: on success,
/// `grad[k]` holds `∂sky/∂p_k` for every coin `k` of `view` (the vector is
/// cleared and resized first).
///
/// The skyline probability is **multilinear** in each coin probability
/// (every joint `Pr(E_I)` multiplies the *distinct* coins of `I` exactly
/// once), so reverse-mode accumulation falls out of the same traversal:
/// a coin freshly introduced at a lattice node divides every signed term
/// of that node's subtree, and crediting `subtree_sum / p_k` once per
/// fresh introduction sums the true partial derivative. The credit is a
/// hook of the one walk, which adds the terms in the same order, so the
/// returned `sky` is **bit-identical** to [`sky_det_view_with`] (which is
/// itself bit-identical at every thread count).
///
/// Two deliberate deviations from the scalar solver:
///
/// * the traversal is **always serial** — [`DetOptions::threads`] is
///   ignored, which is what makes the gradient vector deterministic
///   without a parallel fold (callers parallelise across targets instead);
/// * coins with probability `0` report gradient `0` rather than the
///   one-sided derivative (their subtrees carry zero mass under
///   `prune_zero`, and such coins are certain preferences with no value
///   of information anyway).
pub fn sky_det_grad_view_with(
    view: &CoinView,
    opts: DetOptions,
    scratch: &mut DetScratch,
    grad: &mut Vec<f64>,
) -> Result<DetOutcome> {
    let start = Instant::now();
    check_size(view, &opts)?;
    grad.clear();
    grad.resize(view.n_coins(), 0.0);
    let (hook, budget) = (Grad(grad), DfsBudget::new(&opts, start));
    let (sum, joints) = if view.n_coins() <= 64 {
        Walk::new(view, Masks::new(view, &mut scratch.masks), hook, budget, &opts).run()?
    } else {
        Walk::new(view, Counters::new(view, &mut scratch.mult), hook, budget, &opts).run()?
    };
    Ok(DetOutcome { sky: 1.0 + sum, joints_computed: joints, elapsed: start.elapsed() })
}

fn check_size(view: &CoinView, opts: &DetOptions) -> Result<()> {
    let n = view.n_attackers();
    if n > opts.max_attackers {
        return Err(ExactError::TooManyAttackers { n, max: opts.max_attackers });
    }
    Ok(())
}

/// The coin union of the current subset, in one of two representations
/// chosen by coin count. Both visit an attacker's fresh coins in ascending
/// order, so the products they feed the walk agree bit for bit.
trait CoinSet {
    /// What travels down the recursion: the union itself as one word, or
    /// nothing when counters hold it.
    type Union: Copy + Default;
    /// Take attacker `i` into a subset whose union is `u`; returns the
    /// union with `i`.
    fn take(&mut self, u: Self::Union, i: usize) -> Self::Union;
    /// Undo [`CoinSet::take`] of attacker `i`.
    fn untake(&mut self, i: usize);
    /// Whether some attacker after `i` has every coin in `covers`.
    fn covers_later(&self, covers: Self::Union, i: usize) -> bool;
    /// Visit, ascending, the coins of the just-taken attacker `i` that are
    /// not in `u`, the union before it.
    fn for_fresh(&self, u: Self::Union, i: usize, f: impl FnMut(u32));
}

/// At most 64 coins: each attacker is a word mask (coin id = bit index).
#[derive(Clone, Copy)]
struct Masks<'a>(&'a [u64]);

impl<'a> Masks<'a> {
    fn new(view: &CoinView, buf: &'a mut Vec<u64>) -> Self {
        buf.clear();
        buf.extend(
            (0..view.n_attackers())
                .map(|i| view.attacker_coins(i).iter().fold(0u64, |m, &k| m | (1u64 << k))),
        );
        Masks(buf)
    }
}

impl CoinSet for Masks<'_> {
    type Union = u64;

    #[inline]
    fn take(&mut self, u: u64, i: usize) -> u64 {
        u | self.0[i]
    }

    #[inline]
    fn untake(&mut self, _: usize) {}

    #[inline]
    fn covers_later(&self, covers: u64, i: usize) -> bool {
        self.0[i + 1..].iter().any(|&m| m & !covers == 0)
    }

    #[inline]
    fn for_fresh(&self, u: u64, i: usize, mut f: impl FnMut(u32)) {
        let mut fresh = self.0[i] & !u;
        while fresh != 0 {
            f(fresh.trailing_zeros());
            fresh &= fresh - 1;
        }
    }
}

/// Any coin count: the multiplicity of each coin in the union. A coin is
/// fresh when its multiplicity rises from zero — Equation 6's "distinct
/// values". `M` is the scratch slice (serial) or a worker's own vector.
struct Counters<'v, M> {
    view: &'v CoinView,
    mult: M,
}

impl<'v, 'b> Counters<'v, &'b mut [u32]> {
    fn new(view: &'v CoinView, buf: &'b mut Vec<u32>) -> Self {
        buf.clear();
        buf.resize(view.n_coins(), 0);
        Counters { view, mult: buf }
    }
}

impl<M: DerefMut<Target = [u32]>> CoinSet for Counters<'_, M> {
    type Union = ();

    #[inline]
    fn take(&mut self, (): (), i: usize) {
        for &k in self.view.attacker_coins(i) {
            self.mult[k as usize] += 1;
        }
    }

    #[inline]
    fn untake(&mut self, i: usize) {
        for &k in self.view.attacker_coins(i) {
            self.mult[k as usize] -= 1;
        }
    }

    #[inline]
    fn covers_later(&self, (): (), i: usize) -> bool {
        (i + 1..self.view.n_attackers())
            .any(|j| self.view.attacker_coins(j).iter().all(|&k| self.mult[k as usize] > 0))
    }

    #[inline]
    fn for_fresh(&self, (): (), i: usize, mut f: impl FnMut(u32)) {
        // A local slice, so a store in `f` cannot force a reload of it.
        let mult = &*self.mult;
        for &k in self.view.attacker_coins(i) {
            if mult[k as usize] == 1 {
                f(k);
            }
        }
    }
}

/// What the walk does at a node besides adding its signed term.
trait Hook: Sized {
    /// The signed sum of the subtree below the node that just took
    /// attacker `i` (`p` is the node's joint, `negative` the sign of the
    /// next level, `covers` the node's union). By default: walk it.
    #[inline]
    fn below<C: CoinSet, B: JointBudget>(
        w: &mut Walk<'_, C, B, Self>,
        i: usize,
        p: f64,
        negative: bool,
        covers: C::Union,
    ) -> Result<f64> {
        w.walk(i + 1, p, negative, covers)
    }

    /// Called with the node's term plus subtree sum while attacker `i` is
    /// still taken (`u` is the union before it). By default: nothing.
    #[inline]
    fn credit<C: CoinSet, B: JointBudget>(
        _w: &mut Walk<'_, C, B, Self>,
        _u: C::Union,
        _i: usize,
        _node_sum: f64,
    ) {
    }
}

/// The plain sum.
struct Sum;

impl Hook for Sum {}

/// Reverse-mode gradient: every coin a node introduces divides each term
/// of the node's subtree exactly once, so crediting `node_sum / p_k` to
/// each fresh coin `k` sums `∂sky/∂p_k`.
struct Grad<'g>(&'g mut [f64]);

impl Hook for Grad<'_> {
    #[inline]
    fn credit<C: CoinSet, B: JointBudget>(
        w: &mut Walk<'_, C, B, Self>,
        u: C::Union,
        i: usize,
        node_sum: f64,
    ) {
        // Slices in locals: a store through a field of `w` could alias the
        // walk's other fields and force their reload on every coin.
        let (probs, grad) = (w.view.coin_probs(), &mut *w.hook.0);
        w.set.for_fresh(u, i, |k| {
            let pk = probs[k as usize];
            if pk > 0.0 {
                grad[k as usize] += node_sum / pk;
            }
        });
    }
}

/// The parallel path's two shallow walks. Above the cut it walks on like
/// [`Sum`]; at a node of [`PAR_SPLIT_DEPTH`] attackers it records the
/// node's path as a job (split walk) or returns that job's subtree sum
/// (fold walk, when `sums` is set).
#[derive(Default)]
struct Split {
    depth: usize,
    path: [usize; PAR_SPLIT_DEPTH],
    jobs: Vec<[usize; PAR_SPLIT_DEPTH]>,
    sums: Option<Vec<f64>>,
    next: usize,
}

impl Hook for Split {
    fn below<C: CoinSet, B: JointBudget>(
        w: &mut Walk<'_, C, B, Self>,
        i: usize,
        p: f64,
        negative: bool,
        covers: C::Union,
    ) -> Result<f64> {
        let h = &mut w.hook;
        h.path[h.depth] = i;
        if h.depth + 1 < PAR_SPLIT_DEPTH {
            h.depth += 1;
            let sub = w.walk(i + 1, p, negative, covers);
            w.hook.depth -= 1;
            return sub;
        }
        Ok(match &h.sums {
            None => {
                h.jobs.push(h.path);
                0.0
            }
            Some(sums) => {
                h.next += 1;
                sums[h.next - 1]
            }
        })
    }
}

/// One depth-first walk of the subset lattice: the coin set `C`, the
/// budget `B` charged once per joint, and the per-node hook `H`.
struct Walk<'v, C, B, H> {
    view: &'v CoinView,
    set: C,
    budget: B,
    hook: H,
    prune_zero: bool,
    prune_covered: bool,
}

impl<'v, C: CoinSet, B: JointBudget, H: Hook> Walk<'v, C, B, H> {
    fn new(view: &'v CoinView, set: C, hook: H, budget: B, opts: &DetOptions) -> Self {
        let (prune_zero, prune_covered) = (opts.prune_zero, opts.prune_covered);
        Self { view, set, budget, hook, prune_zero, prune_covered }
    }

    /// Extend the current subset (union `u`, joint `prod`) with every
    /// attacker index `>= from`, returning this subtree's share of
    /// `Σ (−1)^{|I|} Pr(E_I)` as a fresh partial sum. `negative` is the
    /// sign of the *next* level.
    fn walk(&mut self, from: usize, prod: f64, negative: bool, u: C::Union) -> Result<f64> {
        let mut local = 0.0;
        for i in from..self.view.n_attackers() {
            let covers = self.set.take(u, i);
            // Covered-attacker cancellation: if some remaining attacker's
            // coins are all in the union already, the whole cell (this term
            // and every extension) telescopes to zero — skip it.
            if self.prune_covered && self.set.covers_later(covers, i) {
                self.set.untake(i);
                continue;
            }
            let p = self.times_fresh(u, i, prod);
            let term = if negative { -p } else { p };
            local += term;
            self.budget.tick()?;
            let sub = if p > 0.0 || !self.prune_zero {
                H::below(self, i, p, !negative, covers)?
            } else {
                0.0
            };
            H::credit(self, u, i, term + sub);
            self.set.untake(i);
            local += sub;
        }
        Ok(local)
    }

    /// `prod` times the probabilities of attacker `i`'s fresh coins.
    #[inline]
    fn times_fresh(&self, u: C::Union, i: usize, prod: f64) -> f64 {
        let mut p = prod;
        self.set.for_fresh(u, i, |k| p *= self.view.coin_prob(k));
        p
    }
}

impl<C: CoinSet, H: Hook> Walk<'_, C, DfsBudget, H> {
    /// Walk the whole lattice: the signed sum and the joints computed.
    fn run(mut self) -> Result<(f64, u64)> {
        let sum = self.walk(0, 1.0, true, C::Union::default())?;
        Ok((sum, self.budget.joints))
    }
}

impl<C: CoinSet, B: JointBudget> Walk<'_, C, B, Sum> {
    /// Solve one job: replay its path into this worker's coin set (which
    /// recomputes the node's joint bit for bit), walk the subtree below,
    /// and unwind.
    fn job(&mut self, path: &[usize; PAR_SPLIT_DEPTH]) -> Result<f64> {
        let (mut u, mut prod, mut negative) = (C::Union::default(), 1.0, true);
        for &i in path {
            let covers = self.set.take(u, i);
            prod = self.times_fresh(u, i, prod);
            (u, negative) = (covers, !negative);
        }
        let sum = self.walk(path[PAR_SPLIT_DEPTH - 1] + 1, prod, negative, u);
        for &i in path.iter().rev() {
            self.set.untake(i);
        }
        sum
    }
}

/// Split, compute, fold (see the module docs). `new_set` makes an empty
/// coin set for each walk and worker.
fn walk_parallel<C: CoinSet>(
    view: &CoinView,
    opts: &DetOptions,
    start: Instant,
    new_set: impl Fn() -> C + Sync,
) -> Result<(f64, u64)> {
    let mut split = Walk::new(view, new_set(), Split::default(), DfsBudget::new(opts, start), opts);
    let root = C::Union::default();
    split.walk(0, 1.0, true, root)?;
    let ledger = SharedLedger::new(opts, start, split.budget.joints);
    let jobs = std::mem::take(&mut split.hook.jobs);
    let sums = run_jobs(opts.threads, &jobs, &ledger, || {
        Walk::new(view, new_set(), Sum, WorkerBudget { ledger: &ledger, pending: 0 }, opts)
    })?;
    let fold = Split { sums: Some(sums), ..Split::default() };
    let sum = Walk::new(view, split.set, fold, Unmetered, opts).walk(0, 1.0, true, root)?;
    Ok((sum, ledger.total()))
}

/// Drain `jobs` across `threads` scoped workers (the caller's thread
/// included), each solving its share on its own walk from `new_walk`, and
/// return every job's subtree sum. Worker panics are re-raised on the
/// caller's thread; a tripped budget aborts the drain and returns the first
/// error, and a completed drain whose total reaches the joint cap fails
/// like the serial walk would.
fn run_jobs<'v, 'l, C: CoinSet>(
    threads: usize,
    jobs: &[[usize; PAR_SPLIT_DEPTH]],
    ledger: &'l SharedLedger,
    new_walk: impl Fn() -> Walk<'v, C, WorkerBudget<'l>, Sum> + Sync,
) -> Result<Vec<f64>> {
    // Sums are written as bit patterns into atomics so the result vector
    // can be shared without locks; each slot has exactly one writer.
    let sums: Vec<AtomicU64> = jobs.iter().map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut w = new_walk();
        while !ledger.abort.load(Ordering::Acquire) {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(path) = jobs.get(k) else { break };
            match w.job(path) {
                Ok(sum) => sums[k].store(sum.to_bits(), Ordering::Relaxed),
                Err(e) => {
                    ledger.trip(e);
                    break;
                }
            }
        }
        ledger.commit(w.budget.pending);
    };
    let mut panic_payload = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        worker();
        for h in handles {
            if let Err(payload) = h.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    if ledger.abort.load(Ordering::Acquire) {
        return Err(ledger.failure());
    }
    ledger.limits.check_joints(ledger.total())?;
    Ok(sums.into_iter().map(|b| f64::from_bits(b.into_inner())).collect())
}

/// Per-joint accounting hook of a walk: called once per joint probability
/// computed.
trait JointBudget {
    fn tick(&mut self) -> Result<()>;
}

/// The budgets of one solve, checked between chunks of joints.
struct Limits {
    deadline: Option<Duration>,
    deadline_at: Option<Instant>,
    max_joints: Option<u64>,
    start: Instant,
}

impl Limits {
    fn new(opts: &DetOptions, start: Instant) -> Self {
        let (deadline, deadline_at, max_joints) =
            (opts.deadline, opts.deadline_at, opts.max_joints);
        Self { deadline, deadline_at, max_joints, start }
    }

    #[cold]
    fn check(&self, joints: u64) -> Result<()> {
        self.check_joints(joints)?;
        let expired = self.deadline.is_some_and(|d| self.start.elapsed() > d)
            || self.deadline_at.is_some_and(|at| Instant::now() >= at);
        if expired {
            let elapsed = self.start.elapsed();
            return Err(ExactError::DeadlineExceeded { elapsed, joints_computed: joints });
        }
        Ok(())
    }

    /// Fail once `joints` reaches the first multiple of [`CHECK_EVERY`] at
    /// or above the cap. The serial walk checks exactly at those multiples;
    /// parallel workers check whenever they commit a chunk and the driver
    /// once more after they finish, so both fail exactly when the total
    /// joint count of the instance reaches that point.
    fn check_joints(&self, joints: u64) -> Result<()> {
        match self.max_joints {
            Some(max) if joints >= max.div_ceil(CHECK_EVERY).max(1).saturating_mul(CHECK_EVERY) => {
                Err(ExactError::JointBudgetExceeded { joints_computed: joints, max })
            }
            _ => Ok(()),
        }
    }
}

/// Budget state of a serial walk: the joints counted so far, checked
/// against the [`Limits`] every [`CHECK_EVERY`] joints so the per-joint
/// cost stays one counter increment. Overshoot past any budget is bounded
/// by one chunk — the guarantee the resident service's "terminates within
/// budget + one chunk granularity" contract relies on.
struct DfsBudget {
    limits: Limits,
    joints: u64,
}

impl DfsBudget {
    fn new(opts: &DetOptions, start: Instant) -> Self {
        Self { limits: Limits::new(opts, start), joints: 0 }
    }
}

impl JointBudget for DfsBudget {
    #[inline]
    fn tick(&mut self) -> Result<()> {
        self.joints += 1;
        if self.joints.is_multiple_of(CHECK_EVERY) {
            self.limits.check(self.joints)?;
        }
        Ok(())
    }
}

/// The fold walk's budget: its joints were counted by the split walk.
struct Unmetered;

impl JointBudget for Unmetered {
    #[inline]
    fn tick(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The shared budget of one parallel solve: a joints ledger all workers
/// charge, an abort flag, and the first error to trip. Preloaded with the
/// joints the split walk computed.
struct SharedLedger {
    joints: AtomicU64,
    abort: AtomicBool,
    fail: Mutex<Option<ExactError>>,
    limits: Limits,
}

impl SharedLedger {
    fn new(opts: &DetOptions, start: Instant, preload: u64) -> Self {
        Self {
            joints: AtomicU64::new(preload),
            abort: AtomicBool::new(false),
            fail: Mutex::new(None),
            limits: Limits::new(opts, start),
        }
    }

    fn commit(&self, delta: u64) -> u64 {
        self.joints.fetch_add(delta, Ordering::Relaxed) + delta
    }

    fn total(&self) -> u64 {
        self.joints.load(Ordering::Relaxed)
    }

    /// Record the first tripping error and tell every worker to stop.
    fn trip(&self, e: ExactError) {
        self.fail
            .lock()
            .expect("ledger mutex poisoned: a thread panicked while recording an error")
            .get_or_insert(e);
        self.abort.store(true, Ordering::Release);
    }

    fn failure(&self) -> ExactError {
        let fail = self
            .fail
            .lock()
            .expect("ledger mutex poisoned: a thread panicked while recording an error");
        fail.clone().unwrap_or(ExactError::DeadlineExceeded {
            elapsed: self.limits.start.elapsed(),
            joints_computed: self.total(),
        })
    }
}

/// A worker's view of the [`SharedLedger`]: joints are buffered locally
/// and committed (plus budget-checked) every [`CHECK_EVERY`], mirroring
/// the serial check cadence.
struct WorkerBudget<'a> {
    ledger: &'a SharedLedger,
    pending: u64,
}

impl JointBudget for WorkerBudget<'_> {
    #[inline]
    fn tick(&mut self) -> Result<()> {
        self.pending += 1;
        if self.pending == CHECK_EVERY {
            let total = self.ledger.commit(self.pending);
            self.pending = 0;
            if self.ledger.abort.load(Ordering::Acquire) {
                return Err(self.ledger.failure());
            }
            self.ledger.limits.check(total)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PairLaw, PrefPair, SeededPreferences, TablePreferences};

    use super::*;
    use crate::naive::{sky_naive_coins, NaiveOptions};

    fn example1() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn example1_layers_and_total() {
        let (t, p) = example1();
        let literal = DetOptions { prune_covered: false, ..DetOptions::default() };
        let out = sky_det(&t, &p, ObjectId(0), literal).unwrap();
        // Paper: sky(O) = 1 − 3/2 + 17/16 − 7/16 + 1/16 = 3/16.
        assert!((out.sky - 3.0 / 16.0).abs() < 1e-12, "got {}", out.sky);
        // All 2^4 − 1 = 15 joints computed in the literal formulation.
        assert_eq!(out.joints_computed, 15);
        // Covered-attacker cancellation skips the cells that telescope to
        // zero (8 of the 15 here) without moving the answer.
        let pruned = sky_det(&t, &p, ObjectId(0), DetOptions::default()).unwrap();
        assert!((pruned.sky - 3.0 / 16.0).abs() < 1e-12, "got {}", pruned.sky);
        assert_eq!(pruned.joints_computed, 7);
    }

    #[test]
    fn example1_running_joint() {
        // Pr(e1 ∩ e2 ∩ e3) = (1/2)^2 × (1/2)^2 = 1/16 from the paper:
        // restrict to attackers {Q1, Q2, Q3} and read the |I| = 3 term.
        let (t, p) = example1();
        let view = CoinView::build(&t, &p, ObjectId(0)).unwrap();
        let sub = view.restrict(&[0, 1, 2]);
        // For the 3-attacker sub-instance, sky = Σ (−1)^k Σ Pr(E_I); we can
        // recover Pr(E_{123}) = union of coins (d0:a, d1:b, d0:c, d1:e).
        let coins: std::collections::BTreeSet<u32> =
            (0..3).flat_map(|i| sub.attacker_coins(i).iter().copied()).collect();
        let joint: f64 = coins.iter().map(|&k| sub.coin_prob(k)).product();
        assert!((joint - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_on_fixtures() {
        let (t, p) = example1();
        for target in t.objects() {
            let det = sky_det(&t, &p, target, DetOptions::default()).unwrap().sky;
            let view = CoinView::build(&t, &p, target).unwrap();
            let naive = sky_naive_coins(&view, NaiveOptions::default()).unwrap();
            assert!((det - naive).abs() < 1e-12, "target {target}: {det} vs {naive}");
        }
    }

    #[test]
    fn matches_naive_on_seeded_random_instances() {
        // 20 random small instances with value sharing and general
        // (incomparability-bearing) preferences.
        for seed in 0..20u64 {
            let n = 3 + (seed % 5) as usize;
            let d = 1 + (seed % 3) as usize;
            let rows: Vec<Vec<u32>> = (0..=n)
                .map(|i| {
                    (0..d).map(|j| ((i as u64 * 31 + j as u64 * 7 + seed) % 4) as u32).collect()
                })
                .collect();
            let Ok(t) = Table::from_rows_raw(d, &rows) else { continue };
            if t.find_duplicate().is_some() {
                continue;
            }
            let prefs = SeededPreferences::new(seed, PairLaw::Simplex);
            let view = CoinView::build(&t, &prefs, ObjectId(0)).unwrap();
            let det = sky_det_view(&view, DetOptions::default()).unwrap().sky;
            let naive = sky_naive_coins(&view, NaiveOptions::default()).unwrap();
            assert!((det - naive).abs() < 1e-9, "seed {seed}: det {det} vs naive {naive}");
        }
    }

    #[test]
    fn mask_and_counter_paths_agree_bit_for_bit() {
        // The same clause structure computed once with 6 coins (bitset fast
        // path) and once padded to 70 coins (multiplicity-counter fallback):
        // identical multiplication order must give identical bits, for the
        // value and for every gradient entry (the padded coins belong to no
        // attacker, so their partial derivatives read exactly 0).
        let mut s = 0xdecafu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..50 {
            let m = 6usize;
            let probs: Vec<f64> = (0..m).map(|_| (next() % 1000) as f64 / 1000.0).collect();
            let clauses: Vec<Vec<u32>> = (0..1 + next() % 6)
                .map(|_| {
                    let mask = 1 + next() % ((1 << m) - 1);
                    (0..m as u32).filter(|&b| mask & (1 << b) != 0).collect()
                })
                .collect();
            let narrow = CoinView::from_parts(probs.clone(), clauses.clone()).unwrap();
            let mut padded = probs;
            padded.resize(70, 0.5);
            let wide = CoinView::from_parts(padded, clauses).unwrap();
            assert!(narrow.n_coins() <= 64 && wide.n_coins() > 64);
            let mut scratch = DetScratch::default();
            let a = sky_det_view_with(&narrow, DetOptions::default(), &mut scratch).unwrap();
            let b = sky_det_view_with(&wide, DetOptions::default(), &mut scratch).unwrap();
            assert_eq!(a.sky.to_bits(), b.sky.to_bits(), "{} vs {}", a.sky, b.sky);
            assert_eq!(a.joints_computed, b.joints_computed);
            let (mut ga, mut gb) = (Vec::new(), Vec::new());
            let a = sky_det_grad_view_with(&narrow, DetOptions::default(), &mut scratch, &mut ga)
                .unwrap();
            let b = sky_det_grad_view_with(&wide, DetOptions::default(), &mut scratch, &mut gb)
                .unwrap();
            assert_eq!(a.sky.to_bits(), b.sky.to_bits());
            assert_eq!(a.joints_computed, b.joints_computed);
            assert_eq!((ga.len(), gb.len()), (m, 70));
            for (k, (x, y)) in ga.iter().zip(&gb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "coin {k}: {x} vs {y}");
            }
            assert!(gb[m..].iter().all(|g| g.to_bits() == 0), "padded coins: {:?}", &gb[m..]);
        }
    }

    /// Random instance with `n` attackers over `m` coins, every coin
    /// probability strictly inside (0, 1).
    fn random_instance(n: usize, m: usize, seed: u64) -> CoinView {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let probs: Vec<f64> = (0..m).map(|_| (1 + next() % 999) as f64 / 1000.0).collect();
        let clauses: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut coins: Vec<u32> = (0..m as u32).filter(|_| next() % 5 == 0).collect();
                if coins.is_empty() {
                    coins.push((next() % m as u64) as u32);
                }
                coins
            })
            .collect();
        CoinView::from_parts(probs, clauses).unwrap()
    }

    #[test]
    fn parallel_mask_path_is_bit_identical_to_serial() {
        for seed in 1..=3u64 {
            let view = random_instance(18, 40, seed);
            assert!(view.n_coins() <= 64);
            let serial = sky_det_view(&view, DetOptions::default()).unwrap();
            let par = sky_det_view(&view, DetOptions::default().with_threads(4)).unwrap();
            assert_eq!(serial.sky.to_bits(), par.sky.to_bits(), "seed {seed}");
            assert_eq!(serial.joints_computed, par.joints_computed, "seed {seed}");
        }
    }

    #[test]
    fn parallel_counter_path_is_bit_identical_to_serial() {
        for seed in 1..=3u64 {
            let view = random_instance(18, 70, seed);
            assert!(view.n_coins() > 64);
            let serial = sky_det_view(&view, DetOptions::default()).unwrap();
            let par = sky_det_view(&view, DetOptions::default().with_threads(4)).unwrap();
            assert_eq!(serial.sky.to_bits(), par.sky.to_bits(), "seed {seed}");
            assert_eq!(serial.joints_computed, par.joints_computed, "seed {seed}");
        }
    }

    #[test]
    fn parallel_path_respects_deadline_and_joint_caps() {
        // 22 independent attackers: 2^22 lattice nodes, no pruning bites.
        let view = CoinView::from_parts(vec![0.5; 22], (0..22).map(|i| vec![i]).collect()).unwrap();
        let opts = DetOptions::default().with_threads(4);
        let err = sky_det_view(&view, opts.with_deadline(Duration::from_millis(0))).unwrap_err();
        assert!(matches!(err, ExactError::DeadlineExceeded { .. }));
        let err = sky_det_view(&view, opts.with_max_joints(Some(1000))).unwrap_err();
        assert!(matches!(err, ExactError::JointBudgetExceeded { .. }));
        // The serial path trips the same way on the same budgets.
        let err =
            sky_det_view(&view, DetOptions::default().with_max_joints(Some(1000))).unwrap_err();
        assert!(matches!(err, ExactError::JointBudgetExceeded { .. }));
    }

    #[test]
    fn thread_allowance_is_inert_below_the_size_gate() {
        // Small instances ignore the allowance entirely (pure serial path),
        // so granting threads can never perturb them.
        let (t, p) = example1();
        let a = sky_det(&t, &p, ObjectId(0), DetOptions::default()).unwrap();
        let b = sky_det(&t, &p, ObjectId(0), DetOptions::default().with_threads(8)).unwrap();
        assert_eq!(a.sky.to_bits(), b.sky.to_bits());
        assert_eq!(a.joints_computed, b.joints_computed);
    }

    #[test]
    fn attacker_budget_enforced() {
        let view = CoinView::from_parts(vec![0.5; 40], (0..40).map(|i| vec![i]).collect()).unwrap();
        let err = sky_det_view(&view, DetOptions::default()).unwrap_err();
        assert!(matches!(err, ExactError::TooManyAttackers { n: 40, max: 30 }));
    }

    #[test]
    fn deadline_triggers_on_large_instance() {
        // 28 independent attackers -> 2^28 nodes; a zero deadline must trip.
        let view = CoinView::from_parts(vec![0.5; 28], (0..28).map(|i| vec![i]).collect()).unwrap();
        let opts = DetOptions {
            max_attackers: 28,
            deadline: Some(Duration::from_millis(0)),
            ..DetOptions::default()
        };
        let err = sky_det_view(&view, opts).unwrap_err();
        assert!(matches!(err, ExactError::DeadlineExceeded { .. }));
    }

    #[test]
    fn independent_attackers_reproduce_product_form() {
        // With disjoint coin sets inclusion–exclusion must equal the
        // independent product Π(1 − Pr(e_i)).
        let probs = [0.3, 0.25, 0.6];
        let view = CoinView::from_parts(
            vec![probs[0], probs[1], probs[2]],
            vec![vec![0], vec![1], vec![2]],
        )
        .unwrap();
        let det = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let expected: f64 = probs.iter().map(|p| 1.0 - p).product();
        assert!((det - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_prunes_subtrees() {
        // A zero coin shared by many attackers collapses most of the lattice.
        let view =
            CoinView::from_parts(vec![0.0, 0.5, 0.5], vec![vec![0, 1], vec![0, 2], vec![0, 1, 2]])
                .unwrap();
        let out = sky_det_view(&view, DetOptions::default()).unwrap();
        assert_eq!(out.sky, 1.0, "no attacker can ever win");
        // Level-1 joints are computed (3), but all subtrees below are pruned.
        assert_eq!(out.joints_computed, 3);
    }

    #[test]
    fn empty_instance_is_certain_skyline() {
        let view = CoinView::from_parts(vec![], vec![]).unwrap();
        let out = sky_det_view(&view, DetOptions::default()).unwrap();
        assert_eq!(out.sky, 1.0);
        assert_eq!(out.joints_computed, 0);
    }

    #[test]
    fn sac_is_wrong_but_det_is_right_on_observation() {
        // Independent-dominance gives 3/8 for sky(P1); truth is 1/2.
        let t = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        let out = sky_det(&t, &p, ObjectId(0), DetOptions::default()).unwrap();
        assert!((out.sky - 0.5).abs() < 1e-12);
        let view = CoinView::build(&t, &p, ObjectId(0)).unwrap();
        let sac: f64 = (0..view.n_attackers()).map(|i| 1.0 - view.attacker_prob(i)).product();
        assert!((sac - 3.0 / 8.0).abs() < 1e-12);
        assert!((out.sky - sac).abs() > 0.1, "the assumption is materially wrong");
    }

    /// `sky` recomputed from parts with coin `k` nudged to `p + dp`.
    fn sky_at(view: &CoinView, k: usize, dp: f64) -> f64 {
        let mut probs = view.coin_probs().to_vec();
        probs[k] += dp;
        let clauses: Vec<Vec<u32>> =
            (0..view.n_attackers()).map(|i| view.attacker_coins(i).to_vec()).collect();
        let nudged = CoinView::from_parts(probs, clauses).unwrap();
        sky_det_view(&nudged, DetOptions { prune_covered: false, ..DetOptions::default() })
            .unwrap()
            .sky
    }

    fn assert_grad_matches_fd(view: &CoinView, opts: DetOptions, label: &str) {
        let mut scratch = DetScratch::default();
        let mut grad = Vec::new();
        let out = sky_det_grad_view_with(view, opts, &mut scratch, &mut grad).unwrap();
        // The gradient entry must match sky's central finite difference, and
        // the sky itself must match the scalar solver bit for bit.
        let scalar = sky_det_view_with(view, opts, &mut scratch).unwrap();
        assert_eq!(out.sky.to_bits(), scalar.sky.to_bits(), "{label}: sky drifted");
        assert_eq!(out.joints_computed, scalar.joints_computed, "{label}: joints drifted");
        let eps = 1e-6;
        for (k, &g) in grad.iter().enumerate().take(view.n_coins()) {
            let fd = (sky_at(view, k, eps) - sky_at(view, k, -eps)) / (2.0 * eps);
            let scale = fd.abs().max(g.abs()).max(1.0);
            assert!((g - fd).abs() <= 1e-6 * scale, "{label}: coin {k}: grad {g} vs fd {fd}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences_mask_path() {
        for seed in 1..=5u64 {
            let view = random_instance(8, 12, seed);
            assert!(view.n_coins() <= 64);
            assert_grad_matches_fd(&view, DetOptions::default(), "mask pruned");
            let literal = DetOptions { prune_covered: false, ..DetOptions::default() };
            assert_grad_matches_fd(&view, literal, "mask literal");
        }
    }

    #[test]
    fn gradient_matches_finite_differences_counter_path() {
        for seed in 1..=5u64 {
            let view = random_instance(8, 70, seed);
            assert!(view.n_coins() > 64);
            assert_grad_matches_fd(&view, DetOptions::default(), "counter pruned");
        }
    }

    #[test]
    fn gradient_of_independent_attackers_is_product_form() {
        // sky = Π(1 − p_i), so ∂sky/∂p_k = −Π_{j≠k}(1 − p_j).
        let probs = [0.3, 0.25, 0.6];
        let view = CoinView::from_parts(probs.to_vec(), vec![vec![0], vec![1], vec![2]]).unwrap();
        let mut grad = Vec::new();
        let out = sky_det_grad_view_with(
            &view,
            DetOptions::default(),
            &mut DetScratch::default(),
            &mut grad,
        )
        .unwrap();
        let sky: f64 = probs.iter().map(|p| 1.0 - p).product();
        assert!((out.sky - sky).abs() < 1e-12);
        for (k, &g) in grad.iter().enumerate().take(3) {
            let expected: f64 = -probs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != k)
                .map(|(_, p)| 1.0 - p)
                .product::<f64>();
            assert!((g - expected).abs() < 1e-12, "coin {k}: {g} vs {expected}");
        }
    }

    #[test]
    fn zero_probability_coins_report_zero_gradient() {
        // Coin 0 is certain-false: its subtrees are pruned and its
        // (one-sided) derivative is deliberately reported as 0.
        let view =
            CoinView::from_parts(vec![0.0, 0.5, 0.5], vec![vec![0, 1], vec![0, 2], vec![0, 1, 2]])
                .unwrap();
        let mut grad = Vec::new();
        let out = sky_det_grad_view_with(
            &view,
            DetOptions::default(),
            &mut DetScratch::default(),
            &mut grad,
        )
        .unwrap();
        assert_eq!(out.sky, 1.0);
        assert_eq!(grad, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn gradient_example1_closed_form() {
        // Coins of P1's view all sit at 1/2; sky = 3/16. Perturbing any
        // single coin must agree with the multilinear slope exactly:
        // sky(p_k = x) = sky + (x − 1/2) · grad[k].
        let (t, p) = example1();
        let view = CoinView::build(&t, &p, ObjectId(0)).unwrap();
        let mut grad = Vec::new();
        let out = sky_det_grad_view_with(
            &view,
            DetOptions::default(),
            &mut DetScratch::default(),
            &mut grad,
        )
        .unwrap();
        assert!((out.sky - 3.0 / 16.0).abs() < 1e-12);
        for (k, &g) in grad.iter().enumerate().take(view.n_coins()) {
            let up = sky_at(&view, k, 0.25);
            assert!(
                (up - (out.sky + 0.25 * g)).abs() < 1e-12,
                "coin {k}: multilinear extrapolation broke"
            );
        }
    }
}
