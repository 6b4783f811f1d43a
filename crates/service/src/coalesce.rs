//! Signature-keyed single-flight request coalescing.
//!
//! Duplicate-heavy traffic is the realistic serving shape for this
//! workload: per-user preference elicitation produces many users with the
//! *same* elicited model asking the *same* question (the all-sky batch,
//! the τ-membership list), often at the same moment. The component cache
//! already dedups identical exact sub-results *after* preparation; this
//! module lifts the same canonical-signature idea to whole requests, so N
//! identical concurrent submissions run the pipeline **once**.
//!
//! ## Protocol
//!
//! Requests are keyed by a canonical byte serialisation of their [`Query`]
//! (every option field in declaration order, little-endian — the same
//! content-only discipline as `presky_exact::signature`). The first
//! submission of a key becomes the **leader** and executes normally; later
//! submissions with the same key become **followers** and block until the
//! leader publishes its [`Response`], which they return with their own
//! `elapsed`. A request whose options embed an absolute `deadline_at`
//! has no canonical serialisation (wall-clock instants are never equal
//! across submissions) and bypasses coalescing entirely.
//!
//! ## Budget rule
//!
//! A follower may only take the leader's response if the leader's budget
//! *covers* its own — the leader's response is then at least as complete
//! as the follower's solo run would have been, and every present slot is
//! bit-identical ([`Budget::covers`]; wall-clock allowances are compared
//! as absolute cut-offs, `leader_admission + leader_deadline ≥
//! follower_arrival + follower_deadline`, so a follower never inherits a
//! response truncated earlier than its own allowance). An uncovered
//! submission bypasses the flight and runs solo.
//!
//! ## Failure
//!
//! A leader that errors (or panics — the guard publishes on drop)
//! publishes "no response"; its followers fall through to solo execution.
//! The engine counts each submission exactly once whatever path it takes.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use presky_query::prob_skyline::Algorithm;

use crate::request::{Budget, Query, Request, Response};

/// Canonical byte signature of a request's query, or `None` when the
/// query is not coalescible (an embedded absolute `deadline_at`).
///
/// The budget is deliberately **not** part of the key: submissions with
/// different budgets may still share one execution under the
/// [`Budget::covers`] rule, checked at join time. The **epoch** the
/// submission pinned at admission *is* part of the key: a follower may
/// only take a leader's response if both pinned the same dataset version,
/// otherwise a write committed between the leader's start and the
/// follower's join would hand the follower answers from an epoch it never
/// pinned. The resolved **overlay fingerprint** is part of the key for
/// the same reason: identical queries under different tenant overlays
/// compute different values and must not share a flight. It is the
/// overlay's *content* hash, not the tenant id — same-tenant duplicates
/// coalesce, and so do tenants whose overlays agree bit-for-bit (their
/// responses are bit-identical by construction); an empty overlay hashes
/// to `0` and coalesces with untenanted traffic, sound under the
/// empty-overlay bit-identity contract.
pub(crate) fn request_signature(
    request: &Request,
    epoch: u64,
    overlay_fingerprint: u64,
) -> Option<Vec<u8>> {
    let mut sig = Sig { buf: Vec::with_capacity(96), ok: true };
    sig.u64(epoch);
    sig.u64(overlay_fingerprint);
    match &request.query {
        Query::SkyOne { target, opts } => {
            sig.u8(0);
            sig.u64(target.0 as u64);
            sig.query_options(opts);
        }
        Query::AllSky { opts } => {
            sig.u8(1);
            sig.query_options(opts);
        }
        Query::Threshold { tau, opts } => {
            sig.u8(2);
            sig.u64(tau.to_bits());
            sig.u64(opts.bonferroni_level as u64);
            sig.u64(opts.exact_component_limit as u64);
            sig.u64(opts.sprt.max_samples);
            sig.u64(opts.sprt.seed);
            sig.absent_deadline(opts.sprt.deadline_at);
            sig.opt_u64(opts.threads.map(|t| t as u64));
            sig.bool(opts.component_cache);
        }
        Query::TopK { k, opts } => {
            sig.u8(3);
            sig.u64(*k as u64);
            sig.u64(opts.exact_component_limit as u64);
            sig.opt_u64(opts.threads.map(|t| t as u64));
            sig.bool(opts.component_cache);
        }
        Query::Sensitivity { target, opts } => {
            sig.u8(4);
            sig.opt_u64(target.map(|t| t.0 as u64));
            sig.opt_u64(opts.threads.map(|t| t as u64));
            sig.bool(opts.component_cache);
            sig.u64(opts.exact_component_limit as u64);
        }
        Query::ElicitationRank { opts } => {
            sig.u8(5);
            sig.opt_u64(opts.threads.map(|t| t as u64));
            sig.bool(opts.component_cache);
            sig.u64(opts.exact_component_limit as u64);
            sig.u64(opts.top as u64);
        }
    }
    sig.ok.then_some(sig.buf)
}

/// Little-endian field-order serialiser; `ok` drops to `false` on the
/// first non-canonicalizable field (an absolute instant).
struct Sig {
    buf: Vec<u8>,
    ok: bool,
}

impl Sig {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// An absolute instant can only be serialised by its absence.
    fn absent_deadline(&mut self, v: Option<Instant>) {
        if v.is_some() {
            self.ok = false;
        }
        self.u8(0);
    }

    fn sam(&mut self, sam: &presky_approx::sampler::SamOptions) {
        self.u64(sam.samples);
        self.u64(sam.seed);
        self.bool(sam.sort_checking);
        self.bool(sam.lazy);
        self.bool(sam.bit_parallel);
        self.absent_deadline(sam.deadline_at);
    }

    fn det(&mut self, det: &presky_exact::det::DetOptions) {
        self.u64(det.max_attackers as u64);
        self.opt_u64(det.deadline.map(|d| d.as_nanos() as u64));
        self.absent_deadline(det.deadline_at);
        self.opt_u64(det.max_joints);
        self.bool(det.prune_zero);
        self.bool(det.prune_covered);
    }

    fn algorithm(&mut self, algo: &Algorithm) {
        match algo {
            Algorithm::Adaptive { exact_component_limit, sam } => {
                self.u8(0);
                self.u64(*exact_component_limit as u64);
                self.sam(sam);
            }
            Algorithm::Exact { det } => {
                self.u8(1);
                self.det(det);
            }
            Algorithm::Sampling(sam) => {
                self.u8(2);
                self.sam(sam);
            }
        }
    }

    fn query_options(&mut self, opts: &presky_query::prob_skyline::QueryOptions) {
        self.algorithm(&opts.algorithm);
        self.opt_u64(opts.threads.map(|t| t as u64));
        self.bool(opts.component_cache);
    }
}

/// One in-flight execution that identical submissions may attach to.
#[derive(Debug)]
pub(crate) struct Flight {
    /// The leader's budget, for the join-time coverage check.
    budget: Budget,
    /// When the leader was submitted (absolute-deadline comparisons).
    admitted_at: Instant,
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct FlightState {
    done: bool,
    /// `Some` once a successful response is published; `None` after a
    /// failed/panicked leader — followers then run solo.
    response: Option<Response>,
    followers: u64,
}

impl Flight {
    /// Block until the leader publishes; `None` means the leader failed.
    pub(crate) fn wait(&self) -> Option<Response> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !state.done {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.response.clone()
    }
}

/// Whether the leader's budget covers a follower arriving `now`.
///
/// Work ledgers compare by [`Budget::covers`]; wall-clock allowances are
/// pinned to absolute cut-offs first, so a leader that has already burned
/// most of its deadline does not adopt a follower it can no longer serve
/// in full.
fn flight_covers(leader: &Flight, follower: &Budget, now: Instant) -> bool {
    let deadline_ok = match (leader.budget.deadline, follower.deadline) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(l), Some(f)) => leader.admitted_at + l >= now + f,
    };
    deadline_ok && leader.budget.with_deadline(None).covers(&follower.with_deadline(None))
}

/// How one submission enters the single-flight layer.
pub(crate) enum Join {
    /// First submission of this key: execute, then publish via the guard.
    Leader(LeaderGuard),
    /// Identical covered submission: wait on the flight.
    Follower(Arc<Flight>),
    /// Identical but uncovered submission: run solo, outside the flight.
    Bypass,
}

/// The engine's table of in-flight coalescible executions.
#[derive(Debug, Default)]
pub(crate) struct SingleFlight {
    flights: Mutex<HashMap<Vec<u8>, Arc<Flight>>>,
}

impl SingleFlight {
    /// Join (or open) the flight for `key`.
    pub(crate) fn join(self: &Arc<Self>, key: Vec<u8>, budget: Budget) -> Join {
        let now = Instant::now();
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(flight) = flights.get(&key) {
            if !flight_covers(flight, &budget, now) {
                return Join::Bypass;
            }
            let flight = Arc::clone(flight);
            flight.state.lock().unwrap_or_else(|e| e.into_inner()).followers += 1;
            return Join::Follower(flight);
        }
        let flight = Arc::new(Flight {
            budget,
            admitted_at: now,
            state: Mutex::new(FlightState::default()),
            cv: Condvar::new(),
        });
        flights.insert(key.clone(), Arc::clone(&flight));
        Join::Leader(LeaderGuard { registry: Arc::clone(self), key: Some(key), flight })
    }
}

/// Publishes the leader's result to its followers; publishing on drop
/// (with "no response") keeps followers from hanging if the leader's
/// execution panics.
pub(crate) struct LeaderGuard {
    registry: Arc<SingleFlight>,
    key: Option<Vec<u8>>,
    flight: Arc<Flight>,
}

impl LeaderGuard {
    /// Publish the leader's outcome and return how many followers were
    /// waiting. `None` (failure) sends followers to solo execution.
    pub(crate) fn publish(mut self, response: Option<Response>) -> u64 {
        self.publish_inner(response)
    }

    fn publish_inner(&mut self, response: Option<Response>) -> u64 {
        let Some(key) = self.key.take() else { return 0 };
        // Remove the key first: a submission arriving after this point
        // opens a fresh flight instead of joining a concluded one.
        self.registry.flights.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
        let mut state = self.flight.state.lock().unwrap_or_else(|e| e.into_inner());
        state.response = response;
        state.done = true;
        let followers = state.followers;
        drop(state);
        self.flight.cv.notify_all();
        followers
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        self.publish_inner(None);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use presky_core::types::ObjectId;
    use presky_query::engine::{ElicitOptions, SensitivityOptions};
    use presky_query::prob_skyline::QueryOptions;
    use presky_query::threshold::ThresholdOptions;
    use presky_query::topk::TopKOptions;

    use super::*;
    use crate::request::Request;

    #[test]
    fn identical_queries_share_a_signature_and_distinct_ones_do_not() {
        let a = request_signature(&Request::all_sky(QueryOptions::default()), 0, 0).unwrap();
        let b = request_signature(&Request::all_sky(QueryOptions::default()), 0, 0).unwrap();
        assert_eq!(a, b);
        let c = request_signature(
            &Request::all_sky(QueryOptions::default().with_threads(Some(2))),
            0,
            0,
        )
        .unwrap();
        assert_ne!(a, c, "thread policy is part of the key");
        let shapes = [
            request_signature(&Request::sky_one(ObjectId(0), QueryOptions::default()), 0, 0)
                .unwrap(),
            request_signature(&Request::sky_one(ObjectId(1), QueryOptions::default()), 0, 0)
                .unwrap(),
            request_signature(&Request::threshold(0.2, ThresholdOptions::default()), 0, 0).unwrap(),
            request_signature(&Request::threshold(0.3, ThresholdOptions::default()), 0, 0).unwrap(),
            request_signature(&Request::top_k(2, TopKOptions::default()), 0, 0).unwrap(),
            request_signature(&Request::sensitivity(None, SensitivityOptions::default()), 0, 0)
                .unwrap(),
            request_signature(
                &Request::sensitivity(Some(ObjectId(0)), SensitivityOptions::default()),
                0,
                0,
            )
            .unwrap(),
            request_signature(&Request::elicitation_rank(ElicitOptions::default()), 0, 0).unwrap(),
            request_signature(
                &Request::elicitation_rank(ElicitOptions::default().with_top(4)),
                0,
                0,
            )
            .unwrap(),
            a,
        ];
        for (i, x) in shapes.iter().enumerate() {
            for y in &shapes[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn the_pinned_epoch_is_part_of_the_key() {
        let req = Request::all_sky(QueryOptions::default());
        let e0 = request_signature(&req, 0, 0).unwrap();
        let e1 = request_signature(&req, 1, 0).unwrap();
        assert_ne!(e0, e1, "a write between leader start and follower join must split the flight");
        assert_eq!(e0, request_signature(&req, 0, 0).unwrap());
    }

    #[test]
    fn the_overlay_fingerprint_is_part_of_the_key() {
        let req = Request::all_sky(QueryOptions::default());
        let base = request_signature(&req, 0, 0).unwrap();
        let tenant_a = request_signature(&req, 0, 0xdead_beef).unwrap();
        let tenant_b = request_signature(&req, 0, 0xfeed_f00d).unwrap();
        assert_ne!(base, tenant_a, "an overlay must not share the base flight");
        assert_ne!(tenant_a, tenant_b, "distinct overlays must not share a flight");
        // Identical overlay content (same fingerprint) shares the flight,
        // whoever submits it; an empty overlay (fp 0) shares the base one.
        assert_eq!(tenant_a, request_signature(&req, 0, 0xdead_beef).unwrap());
        assert_eq!(
            base,
            request_signature(&req.clone().with_tenant(crate::tenant::TenantId(4)), 0, 0).unwrap()
        );
    }

    #[test]
    fn budgets_do_not_change_the_key() {
        let plain = request_signature(&Request::all_sky(QueryOptions::default()), 3, 0).unwrap();
        let budgeted = request_signature(
            &Request::all_sky(QueryOptions::default())
                .with_budget(Budget::default().with_max_joints(Some(5))),
            3,
            0,
        )
        .unwrap();
        assert_eq!(plain, budgeted, "coverage is checked at join time, not in the key");
    }

    #[test]
    fn absolute_deadlines_are_not_coalescible() {
        let opts = QueryOptions::default().with_algorithm(Algorithm::Sampling(
            presky_approx::sampler::SamOptions::default()
                .with_deadline_at(Some(Instant::now() + Duration::from_secs(1))),
        ));
        assert!(request_signature(&Request::all_sky(opts), 0, 0).is_none());
        let topts = ThresholdOptions::default().with_sprt(
            presky_approx::sprt::SprtOptions::default()
                .with_deadline_at(Some(Instant::now() + Duration::from_secs(1))),
        );
        assert!(request_signature(&Request::threshold(0.2, topts), 0, 0).is_none());
    }

    #[test]
    fn leader_follower_handshake_delivers_the_response() {
        let registry = Arc::new(SingleFlight::default());
        let key = vec![1, 2, 3];
        let Join::Leader(guard) = registry.join(key.clone(), Budget::default()) else {
            panic!("first join must lead");
        };
        let Join::Follower(flight) = registry.join(key.clone(), Budget::default()) else {
            panic!("second join must follow");
        };
        let response = Response {
            outcome: crate::request::Outcome::Exact(crate::request::Value::TopK(vec![])),
            stats: Default::default(),
            elapsed: Duration::ZERO,
            epoch: 0,
        };
        let waiter = std::thread::spawn(move || flight.wait());
        assert_eq!(guard.publish(Some(response.clone())), 1);
        assert_eq!(waiter.join().unwrap(), Some(response));
        // The flight is gone: the next join leads again.
        assert!(matches!(registry.join(key, Budget::default()), Join::Leader(_)));
    }

    #[test]
    fn dropped_leader_unblocks_followers_with_no_response() {
        let registry = Arc::new(SingleFlight::default());
        let Join::Leader(guard) = registry.join(vec![9], Budget::default()) else {
            panic!("first join must lead");
        };
        let Join::Follower(flight) = registry.join(vec![9], Budget::default()) else {
            panic!("second join must follow");
        };
        drop(guard); // leader panicked / errored without publishing
        assert_eq!(flight.wait(), None);
    }

    #[test]
    fn uncovered_budgets_bypass_the_flight() {
        let registry = Arc::new(SingleFlight::default());
        let tight = Budget::default().with_max_joints(Some(10));
        let loose = Budget::default().with_max_joints(Some(100));
        let Join::Leader(_guard) = registry.join(vec![7], tight) else {
            panic!("first join must lead");
        };
        assert!(matches!(registry.join(vec![7], loose), Join::Bypass));
        assert!(matches!(registry.join(vec![7], tight), Join::Follower(_)));
    }

    #[test]
    fn spent_leader_deadline_is_not_inherited() {
        let registry = Arc::new(SingleFlight::default());
        let leader = Budget::default().with_deadline(Some(Duration::from_millis(20)));
        let Join::Leader(_guard) = registry.join(vec![4], leader) else {
            panic!("first join must lead");
        };
        std::thread::sleep(Duration::from_millis(25));
        // The leader's absolute cut-off has passed; a follower with any
        // fresh allowance would be served a response truncated earlier
        // than its own budget permits, so it must bypass.
        let follower = Budget::default().with_deadline(Some(Duration::from_millis(20)));
        assert!(matches!(registry.join(vec![4], follower), Join::Bypass));
    }
}
