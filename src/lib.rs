//! # presky — skyline probability over uncertain preferences
//!
//! A complete Rust implementation of *"Skyline Probability over Uncertain
//! Preferences"* (Qing Zhang, Pengjie Ye, Xuemin Lin, Ying Zhang —
//! EDBT 2013): objects with fixed categorical attribute values, uncertain
//! pairwise value preferences (`Pr(a ≺ b) + Pr(b ≺ a) ≤ 1`), and the
//! question *"with what probability is this object dominated by nobody?"*.
//!
//! The facade re-exports the six sub-crates:
//!
//! * [`core`] — data model: tables, preference models,
//!   dominance, possible worlds, and the reduced *coin view*;
//! * [`exact`] — `Det` (inclusion–exclusion with shared
//!   computation), the absorption and partition preprocessing, naive
//!   enumeration and the #P-completeness reduction;
//! * [`approx`] — the `Sam` Monte-Carlo estimator with
//!   the Hoeffding `(ε, δ)` guarantee, the `Sac` baseline and the rejected
//!   A1/A2 approximations, plus a Karp–Luby extension;
//! * [`datagen`] — the paper's evaluation workloads
//!   (uniform, block-zipf, Nursery) and preference generators;
//! * [`query`] — the Prepare → Plan → Execute engine (`Det+` and
//!   `Sam+` are its forced-exact and forced-sampling plans after the full
//!   Prepare stage), probabilistic skyline with threshold, top-k, and the
//!   certain-skyline substrate;
//! * [`service`] — the resident query service: a long-lived
//!   engine with concurrent sessions, per-request budgets, admission
//!   control, and one unified request API.
//!
//! ## Quickstart
//!
//! ```
//! use presky::prelude::*;
//!
//! // Example 1 of the paper: five 2-d objects, all value preferences ½.
//! let table = Table::from_rows_raw(
//!     2,
//!     &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]],
//! ).unwrap();
//! let prefs = TablePreferences::with_default(PrefPair::half());
//!
//! // Exact: sky(O) = 3/16, not the 9/64 the independence assumption gives.
//! let exact = skyline_probability(&table, &prefs, ObjectId(0)).unwrap();
//! assert!((exact - 3.0 / 16.0).abs() < 1e-12);
//!
//! // (ε, δ)-approximate, for instances beyond exact reach:
//! let est = sky_sam(&table, &prefs, ObjectId(0), SamOptions::with_samples(20_000, 7)).unwrap();
//! assert!((est.estimate - exact).abs() < 0.02);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use presky_approx as approx;
pub use presky_core as core;
pub use presky_datagen as datagen;
pub use presky_exact as exact;
pub use presky_query as query;
pub use presky_service as service;

use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;
use presky_exact::det::DetOptions;
use presky_query::engine::{solve_one, PipelineStats, PrepareOptions, SkyScratch};
use presky_query::error::QueryError;
use presky_query::prob_skyline::Algorithm;

/// Compute one object's **exact** skyline probability with `Det+`: the
/// query engine's full Prepare stage (certain-attacker short-circuit,
/// impossible-coin pruning, absorption, partition) and a forced-exact plan
/// (per-component inclusion–exclusion) under default budgets.
///
/// For instances whose irreducible components exceed the default budget,
/// call [`presky_query::engine::solve_one`] with an explicit
/// [`Algorithm::Exact`] budget, or fall back to the sampling estimator
/// ([`presky_approx::sampler::sky_sam`]).
pub fn skyline_probability<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
) -> Result<f64, QueryError> {
    let algo = Algorithm::Exact { det: DetOptions::default() };
    let (mut scratch, mut stats) = (SkyScratch::default(), PipelineStats::default());
    solve_one(table, prefs, target, algo, PrepareOptions::full(), &mut scratch, &mut stats)
        .map(|r| r.sky)
}

/// One-stop imports: everything from the sub-crate preludes plus the
/// facade helpers.
pub mod prelude {
    pub use crate::skyline_probability;
    pub use presky_approx::prelude::*;
    pub use presky_core::prelude::*;
    pub use presky_datagen::prelude::*;
    pub use presky_exact::prelude::*;
    pub use presky_query::prelude::*;
    pub use presky_service::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_helper_matches_subcrate_api() {
        let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
        let prefs = TablePreferences::with_default(PrefPair::half());
        let a = crate::skyline_probability(&table, &prefs, ObjectId(0)).unwrap();
        let b = sky_det(&table, &prefs, ObjectId(0), DetOptions::default()).unwrap().sky;
        assert_eq!(a, b);
        assert!((a - 0.5).abs() < 1e-12);
    }
}
