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
//! *hook* decides what a node does besides adding its signed term: the
//! plain sum nothing, the gradient credits the node's sum to its fresh
//! coins.
//!
//! The walk is serial. Callers parallelise across targets (the engine's
//! all-objects drivers), which keeps every value independent of the thread
//! count.
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

use std::time::{Duration, Instant};

use presky_core::coins::CoinView;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use crate::error::{ExactError, Result};

/// Joints between two budget checks.
pub(crate) const CHECK_EVERY: u64 = 8192;

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
    /// DFS checks it every 8192 joints and fails at the first check whose
    /// count has reached the cap. `None` = unbounded.
    pub max_joints: Option<u64>,
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

    /// Does nothing: the DFS is always serial, and callers parallelise
    /// across targets instead.
    #[deprecated(note = "the exact DFS is serial; this setter does nothing")]
    pub fn with_threads(self, _threads: usize) -> Self {
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
    solve(view, &opts, scratch, Sum)
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
/// returned `sky` is **bit-identical** to [`sky_det_view_with`].
///
/// Coins with probability `0` report gradient `0` rather than the
/// one-sided derivative (their subtrees carry zero mass under
/// `prune_zero`, and such coins are certain preferences with no value of
/// information anyway).
pub fn sky_det_grad_view_with(
    view: &CoinView,
    opts: DetOptions,
    scratch: &mut DetScratch,
    grad: &mut Vec<f64>,
) -> Result<DetOutcome> {
    grad.clear();
    grad.resize(view.n_coins(), 0.0);
    solve(view, &opts, scratch, Grad(grad))
}

/// Walk `view`'s whole lattice with `hook`, on the coin set its coin count
/// selects.
fn solve<H: Hook>(
    view: &CoinView,
    opts: &DetOptions,
    scratch: &mut DetScratch,
    hook: H,
) -> Result<DetOutcome> {
    let start = Instant::now();
    let n = view.n_attackers();
    if n > opts.max_attackers {
        return Err(ExactError::TooManyAttackers { n, max: opts.max_attackers });
    }
    let (sum, joints) = if view.n_coins() <= 64 {
        Walk::new(view, Masks::new(view, &mut scratch.masks), hook, opts, start).run()?
    } else {
        Walk::new(view, Counters::new(view, &mut scratch.mult), hook, opts, start).run()?
    };
    Ok(DetOutcome { sky: 1.0 + sum, joints_computed: joints, elapsed: start.elapsed() })
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
/// values".
struct Counters<'a> {
    view: &'a CoinView,
    mult: &'a mut [u32],
}

impl<'a> Counters<'a> {
    fn new(view: &'a CoinView, buf: &'a mut Vec<u32>) -> Self {
        buf.clear();
        buf.resize(view.n_coins(), 0);
        Counters { view, mult: buf }
    }
}

impl CoinSet for Counters<'_> {
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
    /// Called with the node's term plus subtree sum while attacker `i` is
    /// still taken (`u` is the union before it). By default: nothing.
    #[inline]
    fn credit<C: CoinSet>(_w: &mut Walk<'_, C, Self>, _u: C::Union, _i: usize, _node_sum: f64) {}
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
    fn credit<C: CoinSet>(w: &mut Walk<'_, C, Self>, u: C::Union, i: usize, node_sum: f64) {
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

/// One depth-first walk of the subset lattice: the coin set `C`, the
/// budget charged once per joint, and the per-node hook `H`.
struct Walk<'v, C, H> {
    view: &'v CoinView,
    set: C,
    budget: DfsBudget,
    hook: H,
    prune_zero: bool,
    prune_covered: bool,
}

impl<'v, C: CoinSet, H: Hook> Walk<'v, C, H> {
    fn new(view: &'v CoinView, set: C, hook: H, opts: &DetOptions, start: Instant) -> Self {
        let budget = DfsBudget::new(opts, start);
        let (prune_zero, prune_covered) = (opts.prune_zero, opts.prune_covered);
        Self { view, set, budget, hook, prune_zero, prune_covered }
    }

    /// Walk the whole lattice: the signed sum and the joints computed.
    fn run(mut self) -> Result<(f64, u64)> {
        let sum = self.walk(0, 1.0, true, C::Union::default())?;
        Ok((sum, self.budget.joints))
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
                self.walk(i + 1, p, !negative, covers)?
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

/// The budgets of one solve and the joints counted so far, checked every
/// [`CHECK_EVERY`] joints so the per-joint cost stays one counter
/// increment. Overshoot past any budget is bounded by one chunk — the
/// guarantee the resident service's "terminates within budget + one chunk
/// granularity" contract relies on.
struct DfsBudget {
    deadline: Option<Duration>,
    deadline_at: Option<Instant>,
    max_joints: Option<u64>,
    start: Instant,
    joints: u64,
}

impl DfsBudget {
    fn new(opts: &DetOptions, start: Instant) -> Self {
        let (deadline, deadline_at, max_joints) =
            (opts.deadline, opts.deadline_at, opts.max_joints);
        Self { deadline, deadline_at, max_joints, start, joints: 0 }
    }

    #[inline]
    fn tick(&mut self) -> Result<()> {
        self.joints += 1;
        if self.joints.is_multiple_of(CHECK_EVERY) {
            return self.check();
        }
        Ok(())
    }

    #[cold]
    fn check(&self) -> Result<()> {
        let joints = self.joints;
        if let Some(max) = self.max_joints.filter(|&max| joints >= max) {
            return Err(ExactError::JointBudgetExceeded { joints_computed: joints, max });
        }
        let expired = self.deadline.is_some_and(|d| self.start.elapsed() > d)
            || self.deadline_at.is_some_and(|at| Instant::now() >= at);
        if expired {
            let elapsed = self.start.elapsed();
            return Err(ExactError::DeadlineExceeded { elapsed, joints_computed: joints });
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
    fn joint_cap_trips_on_large_instance() {
        // 22 independent attackers: 2^22 lattice nodes, no pruning bites.
        let view = CoinView::from_parts(vec![0.5; 22], (0..22).map(|i| vec![i]).collect()).unwrap();
        let err =
            sky_det_view(&view, DetOptions::default().with_max_joints(Some(1000))).unwrap_err();
        assert!(matches!(err, ExactError::JointBudgetExceeded { .. }));
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
