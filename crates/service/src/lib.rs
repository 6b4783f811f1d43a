//! # presky-service — the resident query service
//!
//! The query crate answers one-shot questions; this crate keeps the
//! answers *coming*. An [`Engine`] loads a dataset once — dense value
//! codes, posting lists, the `pr_strict` memo of the batch coin context,
//! and a cross-request component cache — and then serves a mixed workload
//! of [`Request`]s (`sky_one`, `all_sky`, threshold, top-k) from any
//! number of threads over one shared handle.
//!
//! Each request carries a [`Budget`] (wall-clock deadline plus
//! joint/sample ceilings) enforced at chunk granularity inside the exact
//! DFS and the samplers; the conclusion is a typed [`Outcome`]:
//!
//! * [`Outcome::Exact`] — every value certified exact;
//! * [`Outcome::Estimate`] — at least one Monte-Carlo or sequential
//!   decision;
//! * [`Outcome::DeadlineExceeded`] — the budget tripped; the partial
//!   value holds everything completed in time, each slot bit-identical
//!   to the unbudgeted run. **A budget never changes a value — it can
//!   only withhold one.**
//!
//! Two deterministic admission gates ([`EngineOptions::max_in_flight`],
//! [`EngineOptions::max_predicted_cost`]) shed load before any work runs,
//! and a [`MetricsSnapshot`] exposes merged pipeline statistics, cache
//! occupancy and hit rate, and the deadline-miss / shed counters.
//!
//! The dataset is **live**: [`Engine::insert_object`],
//! [`Engine::remove_object`] and [`Engine::set_preference`] commit new
//! epoch/MVCC snapshots while readers keep answering bit-identically from
//! the epoch they pinned at admission ([`Response::epoch`] records
//! which), and preference edits invalidate only the signature-touched
//! slice of the component cache. Each commit returns a [`CommitReceipt`]
//! with the installed epoch and exact eviction accounting.
//!
//! ```
//! use presky_core::prelude::*;
//! use presky_service::prelude::*;
//!
//! let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
//! let prefs = TablePreferences::with_default(PrefPair::half());
//! let engine = Engine::new(table, prefs, EngineOptions::default()).unwrap();
//!
//! let response = engine.run(Request::sky_one(ObjectId(0), QueryOptions::default())).unwrap();
//! let sky = response.outcome.value().as_sky().unwrap();
//! assert!((sky.sky - 0.5).abs() < 1e-12);
//! assert!(engine.metrics().completed == 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coalesce;
pub mod digest;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod request;
pub mod tenant;

pub use digest::digest;
pub use engine::{CommitReceipt, Engine, EngineOptions};
pub use error::ServiceError;
pub use metrics::{MetricsSnapshot, TenantMetrics};
pub use request::{Budget, Outcome, Query, Request, Response, Value};
pub use tenant::{OverlayHandle, TenantId};

/// Commonly used names.
pub mod prelude {
    pub use crate::digest::digest;
    pub use crate::engine::{CommitReceipt, Engine, EngineOptions};
    pub use crate::error::ServiceError;
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::request::{Budget, Outcome, Query, Request, Response, Value};
    pub use crate::tenant::{OverlayHandle, TenantId};
    pub use presky_query::engine::{
        ElicitOptions, ElicitationCandidate, Sensitivity, SensitivityOptions, TargetSensitivity,
    };
    pub use presky_query::prob_skyline::QueryOptions;
    pub use presky_query::threshold::ThresholdOptions;
    pub use presky_query::topk::TopKOptions;
}
