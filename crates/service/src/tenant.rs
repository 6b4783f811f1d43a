//! Multi-tenant preference overlays over one shared base model.
//!
//! The production shape for this workload is millions of users sharing a
//! population-level base preference model plus a small per-user delta of
//! elicited pairs. A [`TenantId`] names one such user; registering it
//! deposits a validated [`PrefDelta`] in the engine's tenant registry,
//! and a [`Request`](crate::Request) carrying the tenant resolves its
//! preferences through a
//! [`DeltaOverlay`](presky_core::preference::DeltaOverlay) layered over
//! the pinned epoch's base model.
//!
//! ## The sharing guarantee
//!
//! Component-cache keys are content-addressed over `(dim, value,
//! prob_bits)` coin triples, so a component whose coins are disjoint from
//! a tenant's overlay serializes to the **same bytes** as the base
//! model's component — one shared cache entry serves every tenant that
//! reaches it. Only overlay-touched components get tenant-specific keys
//! (their probability bits differ), and those too are shared between
//! tenants whose overlays happen to agree. The per-tenant written-coin mask
//! classifies hits into cross-user (base-signature) vs overlay-touched
//! for the [`cross_user_hits`](crate::MetricsSnapshot::cross_user_hits)
//! telemetry; cache *soundness* never depends on it.
//!
//! ## Update semantics
//!
//! Tenant state is copy-on-write: an update builds a new validated
//! [`PrefDelta`] and swaps the registry's `Arc` — in-flight requests that
//! already resolved the old state keep serving it bit-identically, the
//! same MVCC discipline the dataset epochs use. An overlay edit never
//! touches the component cache: entries keyed by the old overlay bits
//! simply become unreachable from the new fingerprint's signatures.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use presky_core::batch::BatchCoinContext;
use presky_core::preference::PrefDelta;
use presky_core::types::{DimId, ObjectId, ValueId};
use presky_exact::signature::CoinMask;
use presky_exact::snapshot::Fnv;

/// An opaque tenant identifier, assigned by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// Receipt of one tenant registration or overlay update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct OverlayHandle {
    /// The tenant this handle describes.
    pub tenant: TenantId,
    /// Content fingerprint of the overlay: `0` for an empty overlay
    /// (which is contractually bit-identical to no tenant at all), an
    /// FNV over the sorted pair table otherwise. Mixed into the
    /// single-flight coalescing key, so identical concurrent queries
    /// coalesce exactly when their overlays agree bit-for-bit.
    pub fingerprint: u64,
    /// Distinct preference pairs in the overlay.
    pub pairs: usize,
}

/// One tenant's resolved overlay state: the validated delta, its content
/// fingerprint, and the written-coin mask for hit classification.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub(crate) delta: PrefDelta,
    pub(crate) fingerprint: u64,
    pub(crate) mask: CoinMask,
}

impl TenantState {
    /// Whether some overlay pair `(d, a, b)` can change `target`'s view
    /// (and so its answer): `target`'s value on `d` is `a` or `b`. Every
    /// other target's view, and answer, equals the base model's. An
    /// out-of-range target counts as touched.
    pub(crate) fn touches(&self, ctx: &BatchCoinContext, target: ObjectId) -> bool {
        target.index() >= ctx.n_objects()
            || self
                .delta
                .touched_values()
                .any(|(d, v)| d.index() < ctx.dimensionality() && ctx.target_value(target, d) == v)
    }

    fn new(delta: PrefDelta) -> Self {
        let fingerprint = delta_fingerprint(&delta);
        // The exact coins this overlay writes: for a pair `(a, b)`, the
        // value-`a` coin facing `b` carries `Pr(a ≺ b)` and the value-`b`
        // coin facing `a` carries `Pr(b ≺ a)`. Coins on the same values
        // facing other partners keep their base bits — and their shared
        // base cache keys — so they stay out of the mask.
        let mask: CoinMask = delta
            .pairs_sorted()
            .into_iter()
            .flat_map(|(d, a, b, pair)| {
                [(d.0, a.0, pair.forward.to_bits()), (d.0, b.0, pair.backward.to_bits())]
            })
            .collect();
        Self { delta, fingerprint, mask }
    }
}

/// Content fingerprint of one overlay: `0` when empty, FNV over the
/// sorted `(dim, lo, hi, forward_bits, backward_bits)` rows otherwise.
/// Depends only on the pair table — not on insertion order, the tenant
/// id, or the base model.
pub(crate) fn delta_fingerprint(delta: &PrefDelta) -> u64 {
    if delta.is_empty() {
        return 0;
    }
    let mut h = Fnv::new();
    for (dim, a, b, pair) in delta.pairs_sorted() {
        h.eat(&(dim.0 as u64).to_le_bytes());
        h.eat(&(a.0 as u64).to_le_bytes());
        h.eat(&(b.0 as u64).to_le_bytes());
        h.eat(&pair.forward.to_bits().to_le_bytes());
        h.eat(&pair.backward.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The engine's tenant table: tenant id → the overlay state requests
/// resolve at admission.
#[derive(Debug, Default)]
pub(crate) struct TenantRegistry {
    tenants: RwLock<HashMap<u64, Arc<TenantState>>>,
}

impl TenantRegistry {
    /// Resolve a tenant to its current overlay state (an `Arc` pin: the
    /// request keeps this exact state for its whole execution, however
    /// many updates land meanwhile).
    pub(crate) fn resolve(&self, tenant: u64) -> Option<Arc<TenantState>> {
        self.tenants.read().unwrap_or_else(|e| e.into_inner()).get(&tenant).cloned()
    }

    /// Install `delta` as `tenant`'s overlay (registering or replacing).
    pub(crate) fn install(&self, tenant: TenantId, delta: PrefDelta) -> OverlayHandle {
        let state = TenantState::new(delta);
        let handle =
            OverlayHandle { tenant, fingerprint: state.fingerprint, pairs: state.delta.len() };
        self.tenants.write().unwrap_or_else(|e| e.into_inner()).insert(tenant.0, Arc::new(state));
        handle
    }

    /// Registered tenants.
    pub(crate) fn len(&self) -> usize {
        self.tenants.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Identity hash of the whole registry: `0` when no tenants are
    /// registered (so untenanted snapshot files keep their fingerprint),
    /// an FNV over the sorted `(id, overlay_fingerprint)` rows otherwise.
    /// This is the third field of
    /// [`SnapshotFingerprint`](presky_exact::snapshot::SnapshotFingerprint):
    /// a cache snapshot saved by a tenant-serving engine may hold
    /// overlay-keyed entries, so warm-starting an engine with a drifted
    /// registry is refused naming the tenant-registry field.
    pub(crate) fn fingerprint(&self) -> u64 {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        if tenants.is_empty() {
            return 0;
        }
        let mut rows: Vec<(u64, u64)> =
            tenants.iter().map(|(&id, state)| (id, state.fingerprint)).collect();
        rows.sort_unstable();
        let mut h = Fnv::new();
        for (id, fp) in rows {
            h.eat(&id.to_le_bytes());
            h.eat(&fp.to_le_bytes());
        }
        h.finish()
    }
}

/// Build a validated [`PrefDelta`] from `(dim, a, b, forward, backward)`
/// rows. Shared by registration and the deterministic synthetic-overlay
/// generator of the `serve`/`tenant_bench` workloads.
pub(crate) fn delta_from_pairs(
    pairs: &[(DimId, ValueId, ValueId, f64, f64)],
) -> presky_core::error::Result<PrefDelta> {
    let mut delta = PrefDelta::new();
    for &(dim, a, b, forward, backward) in pairs {
        delta = delta.with_pair(dim, a, b, forward, backward)?;
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(rows: &[(u32, u32, u32, f64, f64)]) -> Vec<(DimId, ValueId, ValueId, f64, f64)> {
        rows.iter().map(|&(d, a, b, f, r)| (DimId(d), ValueId(a), ValueId(b), f, r)).collect()
    }

    #[test]
    fn fingerprint_is_content_addressed_and_order_free() {
        let fwd = delta_from_pairs(&pairs(&[(0, 1, 2, 0.7, 0.2), (1, 0, 3, 0.4, 0.4)])).unwrap();
        let rev = delta_from_pairs(&pairs(&[(1, 0, 3, 0.4, 0.4), (0, 1, 2, 0.7, 0.2)])).unwrap();
        assert_eq!(delta_fingerprint(&fwd), delta_fingerprint(&rev));
        let other = delta_from_pairs(&pairs(&[(0, 1, 2, 0.7, 0.25)])).unwrap();
        assert_ne!(delta_fingerprint(&fwd), delta_fingerprint(&other));
        assert_eq!(delta_fingerprint(&PrefDelta::new()), 0, "empty overlay ≡ no tenant");
    }

    #[test]
    fn registry_round_trips_and_fingerprints_sorted() {
        let reg = TenantRegistry::default();
        assert_eq!(reg.fingerprint(), 0);
        let d1 = delta_from_pairs(&pairs(&[(0, 1, 2, 0.7, 0.2)])).unwrap();
        let d2 = delta_from_pairs(&pairs(&[(1, 0, 3, 0.4, 0.4)])).unwrap();
        let h1 = reg.install(TenantId(7), d1.clone());
        assert_eq!(h1.pairs, 1);
        assert_ne!(h1.fingerprint, 0);
        reg.install(TenantId(3), d2.clone());
        assert_eq!(reg.len(), 2);
        let fp_a = reg.fingerprint();

        // Same contents inserted in the other order: same registry hash.
        let reg2 = TenantRegistry::default();
        reg2.install(TenantId(3), d2);
        reg2.install(TenantId(7), d1);
        assert_eq!(reg2.fingerprint(), fp_a);

        // Replacing an overlay moves the registry fingerprint.
        reg.install(TenantId(7), PrefDelta::new());
        assert_ne!(reg.fingerprint(), fp_a);
        assert_eq!(reg.resolve(7).unwrap().fingerprint, 0);
        assert!(reg.resolve(99).is_none());
    }

    #[test]
    fn mask_covers_exactly_the_written_coins_of_every_pair() {
        let delta = delta_from_pairs(&pairs(&[(0, 1, 2, 0.7, 0.2)])).unwrap();
        let state = TenantState::new(delta);
        // Coin (0, 1) facing 2 carries Pr(1 ≺ 2) = 0.7; coin (0, 2)
        // facing 1 carries Pr(2 ≺ 1) = 0.2. Nothing else is written.
        assert!(state.mask.contains(0, 1, 0.7f64.to_bits()));
        assert!(state.mask.contains(0, 2, 0.2f64.to_bits()));
        assert!(!state.mask.contains(0, 1, 0.2f64.to_bits()));
        assert!(!state.mask.contains(1, 1, 0.7f64.to_bits()));
        assert_eq!(state.mask.len(), 2);
    }

    #[test]
    fn invalid_pairs_are_refused_at_registration() {
        assert!(delta_from_pairs(&pairs(&[(0, 1, 1, 0.5, 0.5)])).is_err(), "self pair");
        assert!(delta_from_pairs(&pairs(&[(0, 1, 2, 0.8, 0.8)])).is_err(), "mass > 1");
    }
}
