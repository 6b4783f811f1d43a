//! # presky-query — query layer over the skyline-probability engines
//!
//! The paper computes a *single* object's skyline probability; real
//! deployments ask set-level questions. This crate provides:
//!
//! * [`engine`] — the unified Prepare → Plan → Execute pipeline every
//!   entry point (library, CLI, bench) runs through, with per-stage
//!   [`engine::PipelineStats`] instrumentation;
//! * [`prob_skyline`] — the probabilistic skyline (every object against a
//!   threshold τ) with **adaptive** per-object algorithm choice (exact
//!   `Det+`-style solving when the reduced instance is small, Monte-Carlo
//!   otherwise) and a multi-threaded driver;
//! * [`topk`] — two-phase top-k by skyline probability (the paper's stated
//!   future work, realised as scout + refine);
//! * [`certain`] — the classical certain-skyline substrate (BNL, SFS) used
//!   both inside sampled worlds and as a degenerate-preference consistency
//!   oracle;
//! * [`oracle`] — exhaustive all-objects enumeration for tiny instances
//!   (test ground truth).
//!
//! ```
//! use presky_core::prelude::*;
//! use presky_query::prelude::*;
//!
//! let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
//! let prefs = TablePreferences::with_default(PrefPair::half());
//!
//! let sky = probabilistic_skyline(&table, &prefs, 0.3, QueryOptions::default()).unwrap();
//! assert_eq!(sky.len(), 2); // P1 and P3 at 1/2 each; P2 at 1/4 is filtered
//! assert!(sky.iter().all(|r| r.exact));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod certain;
pub mod engine;
pub mod error;
pub mod oracle;
pub mod prob_skyline;
pub mod threshold;
pub mod topk;

/// Commonly used names.
pub mod prelude {
    pub use crate::certain::{
        dominates_certain, skyline_bnl, skyline_naive_certain, skyline_sfs, CertainPreferences,
        Degenerate,
    };
    pub use crate::engine::{
        all_sky_resident, elicitation_rank_resident, sensitivity_one_resident,
        sensitivity_resident, sky_one_resident, threshold_resident, top_k_resident, CacheScope,
        ElicitOptions, ElicitationCandidate, ElicitationOutcome, EngineBudget, PipelineStats, Plan,
        PrepareOptions, ResidentOutcome, Sensitivity, SensitivityOptions, TargetSensitivity,
    };
    pub use crate::error::QueryError;
    pub use crate::oracle::all_sky_naive;
    pub use crate::prob_skyline::{
        probabilistic_skyline, Algorithm, QueryOptions, SkyResult, SkyScratch,
    };
    pub use crate::threshold::{
        resolution_stats, threshold_one, Resolution, ResolutionStats, ThresholdAnswer,
        ThresholdOptions,
    };
    pub use crate::topk::TopKOptions;
}
