//! Thread accounting shared across the workspace.
//!
//! Every driver that fans work out over threads needs the same two
//! decisions made consistently:
//!
//! 1. **How many threads does "default" mean?** [`num_threads`] is the one
//!    place that resolves `Option<usize>` (a `--threads` flag, a
//!    `QueryOptions` field) against `std::thread::available_parallelism`,
//!    replacing the `available_parallelism().map(Into::into).unwrap_or(1)`
//!    fallback that used to be copy-pasted across the engine, the service
//!    stress tests, and `serve`.
//! 2. **Who may spawn what?** The all-sky driver parallelises over
//!    *objects*; the exact solver can parallelise *within* one component's
//!    inclusion–exclusion DFS. Running both at full width would
//!    oversubscribe the machine. [`ThreadBudget`] is a token pot holding
//!    the threads *not* already committed to object-level workers; a
//!    worker that meets an oversized component takes a [`ThreadLease`] for
//!    however many spare threads exist (possibly zero) and the DFS runs
//!    `1 + granted` wide. Dropping the lease returns the tokens. One pot,
//!    no nested oversubscription.
//!
//! Leases are advisory capacity, not OS threads: the pot never blocks, and
//! a zero-token grant simply means "stay serial".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Resolve a requested thread count against the machine.
///
/// `None` means "use every available hardware thread"; `Some(0)` is
/// sanitised to 1. The result is *not* clamped to any workload size —
/// callers dividing `n` items among workers should clamp themselves.
pub fn num_threads(requested: Option<usize>) -> usize {
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map(Into::into).unwrap_or(1))
        .max(1)
}

/// A pot of spare thread tokens shared by all workers of one request.
///
/// Created by a driver with the threads it did **not** commit to top-level
/// workers; workers lease from it when they meet work items big enough to
/// split further (the within-component parallel DFS).
#[derive(Debug, Default)]
pub struct ThreadBudget {
    spare: AtomicUsize,
}

impl ThreadBudget {
    /// A pot holding `spare` tokens.
    pub fn new(spare: usize) -> Arc<Self> {
        Arc::new(Self { spare: AtomicUsize::new(spare) })
    }

    /// Tokens currently unleased (a racy snapshot, for telemetry/tests).
    pub fn spare(&self) -> usize {
        self.spare.load(Ordering::Relaxed)
    }

    /// Take up to `want` tokens, without blocking. The returned lease may
    /// hold fewer tokens than requested — including zero.
    pub fn lease(self: &Arc<Self>, want: usize) -> ThreadLease {
        let mut cur = self.spare.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return ThreadLease { budget: None, granted: 0 };
            }
            match self.spare.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return ThreadLease { budget: Some(Arc::clone(self)), granted: take },
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A grant of extra threads from a [`ThreadBudget`]; tokens return to the
/// pot on drop.
#[derive(Debug, Default)]
pub struct ThreadLease {
    budget: Option<Arc<ThreadBudget>>,
    granted: usize,
}

impl ThreadLease {
    /// The empty lease: zero extra threads, tied to no pot.
    pub fn none() -> Self {
        Self::default()
    }

    /// Extra threads granted beyond the caller's own.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for ThreadLease {
    fn drop(&mut self) {
        if let Some(budget) = self.budget.take() {
            budget.spare.fetch_add(self.granted, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_resolves_requests() {
        assert_eq!(num_threads(Some(3)), 3);
        assert_eq!(num_threads(Some(0)), 1, "zero sanitised to one");
        assert!(num_threads(None) >= 1);
    }

    #[test]
    fn leases_draw_down_and_refill_the_pot() {
        let pot = ThreadBudget::new(3);
        let a = pot.lease(2);
        assert_eq!(a.granted(), 2);
        assert_eq!(pot.spare(), 1);
        let b = pot.lease(5);
        assert_eq!(b.granted(), 1, "grants are best-effort, never blocking");
        assert_eq!(pot.spare(), 0);
        let c = pot.lease(1);
        assert_eq!(c.granted(), 0);
        drop(a);
        assert_eq!(pot.spare(), 2);
        drop(b);
        drop(c);
        assert_eq!(pot.spare(), 3);
    }

    #[test]
    fn empty_lease_is_inert() {
        let l = ThreadLease::none();
        assert_eq!(l.granted(), 0);
        drop(l);
    }
}
