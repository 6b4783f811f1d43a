//! # presky-exact — exact skyline-probability algorithms
//!
//! Exact algorithms of *"Skyline Probability over Uncertain Preferences"*
//! (EDBT 2013):
//!
//! * [`naive`] — sample-space enumeration (Equation 8), the unconditional
//!   ground truth;
//! * [`det`] — Algorithm 1, inclusion–exclusion with the `O(d)` sharing
//!   computation, realised as a memory-light depth-first traversal;
//! * [`levelwise`] — the literal layer-at-a-time Algorithm 1, plus the
//!   budget-truncated variant behind the A2 approximation;
//! * [`absorption`] — Theorem 3 / Algorithm 3 preprocessing (clause-subset
//!   removal on the coin view);
//! * [`partition`] — Theorem 4 independence factorisation (connected
//!   components of the coin-overlap graph);
//! * [`dnf`] — positive-DNF counting and the Theorem 1 #P-completeness
//!   reduction, in both directions.
//!
//! The problem is #P-complete, so [`det::DetOptions`] carries explicit
//! attacker budgets and wall-clock deadlines; exceeding either yields a
//! typed [`error::ExactError`] instead of an unbounded computation.
//!
//! The paper's `Det+` — absorption, then partition, then `Det` per
//! component — is the query engine's forced-exact plan after its full
//! Prepare stage (`presky_query::engine::solve_one` with
//! `PrepareOptions::full()`); this crate provides its stages.
//!
//! ```
//! use presky_core::prelude::*;
//! use presky_exact::prelude::*;
//!
//! // Example 1 of the paper: sky(O) = 3/16.
//! let table = Table::from_rows_raw(
//!     2,
//!     &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]],
//! ).unwrap();
//! let prefs = TablePreferences::with_default(PrefPair::half());
//! let out = sky_det(&table, &prefs, ObjectId(0), DetOptions::default()).unwrap();
//! assert!((out.sky - 3.0 / 16.0).abs() < 1e-12);
//!
//! // Absorption finds Q1 dispensable, and the three attackers left are
//! // independent: sky is the product of one-attacker factors.
//! let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
//! let reduced = view.restrict(&absorb(&view).kept);
//! assert_eq!(reduced.n_attackers(), 3);
//! assert_eq!(partition(&reduced).len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod absorption;
pub mod bounds;
pub mod cache;
pub mod conditioning;
pub mod det;
pub mod dnf;
pub mod error;
pub mod levelwise;
pub mod naive;
pub mod partition;
pub mod signature;
pub mod snapshot;

/// Commonly used names.
pub mod prelude {
    pub use crate::absorption::{absorb, absorb_into, absorbs, AbsorbScratch, AbsorptionResult};
    pub use crate::bounds::{sky_bounds_bonferroni, sky_bounds_cheap, SkyBounds};
    pub use crate::cache::{CacheEntry, ComponentCache};
    pub use crate::conditioning::{
        sky_conditioning, sky_conditioning_view, ConditioningOptions, ConditioningOutcome,
    };
    pub use crate::det::{
        sky_det, sky_det_grad_view_with, sky_det_view, sky_det_view_with, DetOptions, DetOutcome,
        DetScratch,
    };
    pub use crate::dnf::PositiveDnf;
    pub use crate::error::ExactError;
    pub use crate::levelwise::{sky_levelwise, sky_levelwise_partial, sky_levelwise_partial_big};
    pub use crate::naive::{sky_naive_coins, sky_naive_worlds, NaiveOptions};
    pub use crate::partition::{partition, partition_into, PartitionScratch, UnionFind};
    pub use crate::signature::component_signature;
    pub use crate::snapshot::{
        load_from_path, read_snapshot, save_to_path, write_snapshot, SnapshotError,
    };
}
