//! # presky-approx — approximate skyline-probability algorithms
//!
//! The approximation layer of *"Skyline Probability over Uncertain
//! Preferences"* (EDBT 2013):
//!
//! * [`sampler`] — `Sam`, the Monte-Carlo estimator of Algorithm 2 with
//!   lazy sampling and the sorted checking sequence;
//! * [`bounds`] — Hoeffding sample-size arithmetic (Theorem 2);
//! * [`sac`] — the independent-object-dominance baseline of Sacharidis et
//!   al., wrong in general and implemented as the comparison target;
//! * [`a1`], [`a2`] — the two tentative approximations the paper evaluates
//!   and rejects in Figure 6;
//! * [`karp_luby`] — a Karp–Luby importance sampler over the coin view
//!   (relative-error extension; DESIGN.md ablation X1).
//!
//! The paper's `Sam+` — the sampler after absorption and partition — is
//! the query engine's forced-sampling plan after its full Prepare stage
//! (`presky_query::engine::solve_one` with `PrepareOptions::full()`).
//!
//! ```
//! use presky_core::prelude::*;
//! use presky_approx::prelude::*;
//!
//! // Observation of Section 1: truth is sky(P1) = 1/2; Sac claims 3/8.
//! let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
//! let prefs = TablePreferences::with_default(PrefPair::half());
//!
//! let sac = sky_sac(&table, &prefs, ObjectId(0)).unwrap();
//! assert!((sac - 0.375).abs() < 1e-12);
//!
//! let sam = sky_sam(&table, &prefs, ObjectId(0), SamOptions::with_samples(40_000, 1)).unwrap();
//! assert!((sam.estimate - 0.5).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod a1;
pub mod a2;
pub mod bounds;
pub mod error;
pub mod karp_luby;
pub mod sac;
pub mod sampler;
pub mod sprt;

/// Commonly used names.
pub mod prelude {
    pub use crate::a1::{a1_sweep, sky_a1, A1Outcome};
    pub use crate::a2::{a2_sweep, sky_a2, sky_a2_big, A2Outcome};
    pub use crate::bounds::{hoeffding_delta, hoeffding_epsilon, hoeffding_samples};
    pub use crate::error::ApproxError;
    pub use crate::karp_luby::{
        sky_karp_luby, sky_karp_luby_view, KarpLubyOptions, KarpLubyOutcome,
    };
    pub use crate::sac::{sac_is_exact, sky_sac, sky_sac_view};
    pub use crate::sampler::{
        sky_sam, sky_sam_view, sky_sam_view_with, SamOptions, SamOutcome, SamScratch,
    };
    pub use crate::sprt::{
        sky_threshold_test, sky_threshold_test_view, sky_threshold_test_view_with, SprtOptions,
        SprtOutcome, ThresholdDecision,
    };
}
