//! Engine observability: lock-free counters plus a merged
//! [`PipelineStats`] accumulator, snapshotted on demand.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use presky_query::engine::PipelineStats;

/// Internal counter block of a live engine. All counters are monotone;
/// readers take a coherent-enough snapshot without stopping traffic.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Requests submitted to `run` (each submission counted exactly once,
    /// whatever its fate: admitted, coalesced, shed, or failed).
    pub(crate) requests: AtomicU64,
    /// Requests admitted (work actually started).
    pub(crate) admitted: AtomicU64,
    /// Admitted requests that produced a `Response`.
    pub(crate) completed: AtomicU64,
    /// Requests answered from a concurrent identical leader's response
    /// (no work of their own was admitted or executed).
    pub(crate) coalesced: AtomicU64,
    /// Admitted requests that executed on behalf of at least one follower.
    pub(crate) coalesce_led: AtomicU64,
    /// Admitted requests whose outcome was `DeadlineExceeded`.
    pub(crate) deadline_misses: AtomicU64,
    /// Requests shed by the in-flight ceiling.
    pub(crate) shed_overload: AtomicU64,
    /// Requests shed by the predicted-cost ceiling.
    pub(crate) shed_cost: AtomicU64,
    /// Requests that returned a query-layer error.
    pub(crate) failed: AtomicU64,
    /// Write commits installed (each producing a new dataset epoch).
    pub(crate) writes: AtomicU64,
    /// Component-cache entries evicted by write invalidation.
    pub(crate) evicted_components: AtomicU64,
    /// Component-cache bytes evicted by write invalidation.
    pub(crate) evicted_bytes: AtomicU64,
    /// Cache hits of tenanted requests that landed on base-signature
    /// entries — the cross-user shared ones (see
    /// [`MetricsSnapshot::cross_user_hits`]).
    pub(crate) cross_user_hits: AtomicU64,
    /// Completed single-target `SkyOne` requests.
    pub(crate) single_reads: AtomicU64,
    /// Per-tenant counters, keyed by tenant id.
    tenants: Mutex<HashMap<u64, TenantMetrics>>,
    /// Pipeline counters merged across every completed request.
    stats: Mutex<PipelineStats>,
}

impl Metrics {
    /// Fold one request's pipeline counters into the engine totals.
    ///
    /// A panicking query worker can poison this mutex; the counters are
    /// plain-old-data whose worst corruption is a partially-merged stats
    /// block, so recovery (rather than propagating the panic to every
    /// later request) is the right call.
    pub(crate) fn merge_stats(&self, stats: &PipelineStats) {
        let mut guard = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        guard.merge(stats);
    }

    pub(crate) fn stats_snapshot(&self) -> PipelineStats {
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bump one tenant's counters under the per-tenant lock; callers with
    /// nothing to add skip the call.
    pub(crate) fn tenant_add(&self, tenant: u64, f: impl FnOnce(&mut TenantMetrics)) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let entry = tenants
            .entry(tenant)
            .or_insert_with(|| TenantMetrics { tenant, ..TenantMetrics::default() });
        f(entry);
    }

    /// Per-tenant counters sorted by tenant id.
    pub(crate) fn tenants_snapshot(&self) -> Vec<TenantMetrics> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<TenantMetrics> = tenants.values().copied().collect();
        rows.sort_unstable_by_key(|t| t.tenant);
        rows
    }
}

/// One tenant's request and cache counters, as surfaced in
/// [`MetricsSnapshot::tenants`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TenantMetrics {
    /// The tenant id these counters belong to.
    pub tenant: u64,
    /// Requests submitted on behalf of this tenant.
    pub requests: u64,
    /// Component-cache probes issued by this tenant's completed requests.
    pub cache_probes: u64,
    /// Component-cache hits of this tenant's completed requests.
    pub cache_hits: u64,
    /// Submissions of this tenant answered from a coalesced leader.
    pub coalesced: u64,
}

impl TenantMetrics {
    /// Fold another tenant's-worth of counters (same id) into this one.
    fn merge(&mut self, other: &TenantMetrics) {
        self.requests += other.requests;
        self.cache_probes += other.cache_probes;
        self.cache_hits += other.cache_hits;
        self.coalesced += other.coalesced;
    }
}

/// A point-in-time view of a live engine's counters.
///
/// Counters are read individually (relaxed), so a snapshot taken under
/// load may be a few requests out of phase with itself; each individual
/// counter is exact.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Requests submitted, each counted exactly once: every submission
    /// ends up in exactly one of `completed`, `coalesced`, the shed
    /// counters, or `failed` — never two (regression-tested against the
    /// old double-count of a shed-after-admission request).
    pub requests: u64,
    /// Requests admitted (work actually started).
    pub admitted: u64,
    /// Admitted requests that produced a [`Response`](crate::Response).
    pub completed: u64,
    /// Requests answered from a concurrent identical leader's response.
    pub coalesced: u64,
    /// Admitted requests that executed on behalf of ≥ 1 follower.
    pub coalesce_led: u64,
    /// Admitted requests that concluded `DeadlineExceeded`.
    pub deadline_misses: u64,
    /// Requests shed by the in-flight ceiling.
    pub shed_overload: u64,
    /// Requests shed by the predicted-cost ceiling.
    pub shed_cost: u64,
    /// Requests that returned a query-layer error.
    pub failed: u64,
    /// The current dataset epoch (0 until the first write commits). A
    /// gauge, not a counter: [`merge`](Self::merge) takes the max.
    pub epoch: u64,
    /// Write commits installed (each producing a new dataset epoch).
    pub writes: u64,
    /// Superseded epochs fully retired (last pinned reader drained).
    pub epochs_retired: u64,
    /// Component-cache entries evicted by write invalidation.
    pub evicted_components: u64,
    /// Component-cache bytes evicted by write invalidation.
    pub evicted_bytes: u64,
    /// Requests running at snapshot time.
    pub in_flight: usize,
    /// Pipeline counters merged across every completed request.
    pub stats: PipelineStats,
    /// Entries resident in the cross-request component cache.
    pub cache_entries: usize,
    /// Bytes resident in the cross-request component cache.
    pub cache_bytes: u64,
    /// Cache hits of **tenanted** requests that landed on base-signature
    /// entries (no overlay-touched coin embedded, no tenant namespace):
    /// the hits any other tenant could equally have produced — the
    /// cross-user sharing the multi-tenant design banks on. Hits on
    /// overlay-touched (tenant-private) components are counted in
    /// `stats.cache_hits` but not here.
    pub cross_user_hits: u64,
    /// Completed single-target (`SkyOne`) requests. `stats.store_hits` of
    /// them were answered from the pinned epoch's answer store, and
    /// `stats.store_records` counts the exact answers recorded there.
    pub single_reads: u64,
    /// Per-tenant counters, sorted by tenant id. Only tenants that have
    /// submitted at least one request appear.
    pub tenants: Vec<TenantMetrics>,
}

impl MetricsSnapshot {
    /// Requests shed by either admission gate.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_cost
    }

    /// Component-cache hits as a fraction of probes, across all requests
    /// served so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.stats.cache_hit_rate()
    }

    /// Cross-user hits as a fraction of the cache probes issued by
    /// tenanted requests (0 when no tenanted request has probed yet).
    /// This is the headline multi-tenant number: the fraction of
    /// per-tenant cache traffic served by components shared across users.
    pub fn cross_user_hit_rate(&self) -> f64 {
        let probes: u64 = self.tenants.iter().map(|t| t.cache_probes).sum();
        if probes == 0 {
            0.0
        } else {
            self.cross_user_hits as f64 / probes as f64
        }
    }

    /// Single-target reads answered from the answer store, as a fraction
    /// of completed single-target reads (0 when none completed).
    pub fn store_reuse_share(&self) -> f64 {
        if self.single_reads == 0 {
            0.0
        } else {
            self.stats.store_hits as f64 / self.single_reads as f64
        }
    }

    /// Fold another engine's snapshot into this one — how a caller that
    /// builds several engines over a run (one per pass, say) reports
    /// totals. Counters and pipeline stats are additive
    /// (`largest_component` by max, as in [`PipelineStats::merge`]); the
    /// `epoch` gauge takes the max; cache occupancy sums across the
    /// engines' caches.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.requests += other.requests;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.coalesced += other.coalesced;
        self.coalesce_led += other.coalesce_led;
        self.deadline_misses += other.deadline_misses;
        self.shed_overload += other.shed_overload;
        self.shed_cost += other.shed_cost;
        self.failed += other.failed;
        self.epoch = self.epoch.max(other.epoch);
        self.writes += other.writes;
        self.epochs_retired += other.epochs_retired;
        self.evicted_components += other.evicted_components;
        self.evicted_bytes += other.evicted_bytes;
        self.in_flight += other.in_flight;
        self.stats.merge(&other.stats);
        self.cache_entries += other.cache_entries;
        self.cache_bytes += other.cache_bytes;
        self.cross_user_hits += other.cross_user_hits;
        self.single_reads += other.single_reads;
        for t in &other.tenants {
            match self.tenants.iter_mut().find(|mine| mine.tenant == t.tenant) {
                Some(mine) => mine.merge(t),
                None => self.tenants.push(*t),
            }
        }
        self.tenants.sort_unstable_by_key(|t| t.tenant);
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} admitted, {} completed, {} coalesced ({} leaders), {} deadline-missed, {} shed ({} overload / {} cost), {} failed, {} in flight",
            self.requests,
            self.admitted,
            self.completed,
            self.coalesced,
            self.coalesce_led,
            self.deadline_misses,
            self.shed(),
            self.shed_overload,
            self.shed_cost,
            self.failed,
            self.in_flight,
        )?;
        writeln!(
            f,
            "epochs:   at {}, {} writes, {} retired, invalidated {} components ({} bytes)",
            self.epoch,
            self.writes,
            self.epochs_retired,
            self.evicted_components,
            self.evicted_bytes,
        )?;
        writeln!(
            f,
            "cache:    {} entries, {} bytes, hit rate {:.1}% ({} hits / {} probes)",
            self.cache_entries,
            self.cache_bytes,
            100.0 * self.cache_hit_rate(),
            self.stats.cache_hits,
            self.stats.cache_probes,
        )?;
        writeln!(
            f,
            "store:    {} of {} single-target reads answered from the answer store ({:.1}%), {} answers recorded",
            self.stats.store_hits,
            self.single_reads,
            100.0 * self.store_reuse_share(),
            self.stats.store_records,
        )?;
        if !self.tenants.is_empty() {
            let requests: u64 = self.tenants.iter().map(|t| t.requests).sum();
            let probes: u64 = self.tenants.iter().map(|t| t.cache_probes).sum();
            writeln!(
                f,
                "tenants:  {} active, {} requests, cross-user hit rate {:.1}% ({} / {} probes)",
                self.tenants.len(),
                requests,
                100.0 * self.cross_user_hit_rate(),
                self.cross_user_hits,
                probes,
            )?;
        }
        write!(f, "{}", self.stats)
    }
}

/// Bump a counter.
pub(crate) fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Read a counter.
pub(crate) fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_display_mentions_every_counter_block() {
        let snap = MetricsSnapshot {
            requests: 15,
            admitted: 10,
            completed: 8,
            coalesced: 6,
            coalesce_led: 2,
            deadline_misses: 2,
            shed_overload: 1,
            shed_cost: 3,
            failed: 0,
            epoch: 4,
            writes: 4,
            epochs_retired: 3,
            evicted_components: 7,
            evicted_bytes: 512,
            in_flight: 0,
            stats: PipelineStats::default(),
            cache_entries: 5,
            cache_bytes: 1234,
            cross_user_hits: 0,
            single_reads: 4,
            tenants: Vec::new(),
        };
        assert_eq!(snap.shed(), 4);
        let s = snap.to_string();
        assert!(s.contains("15 submitted"));
        assert!(s.contains("10 admitted"));
        assert!(s.contains("6 coalesced (2 leaders)"));
        assert!(s.contains("at 4, 4 writes, 3 retired"));
        assert!(s.contains("invalidated 7 components (512 bytes)"));
        assert!(s.contains("hit rate"));
        assert!(s.contains("0 of 4 single-target reads answered from the answer store"));
    }

    #[test]
    fn snapshot_merge_sums_counters_and_caches() {
        let mut a = MetricsSnapshot {
            requests: 5,
            admitted: 4,
            completed: 4,
            coalesced: 1,
            coalesce_led: 1,
            deadline_misses: 0,
            shed_overload: 0,
            shed_cost: 0,
            failed: 0,
            epoch: 2,
            writes: 2,
            epochs_retired: 1,
            evicted_components: 4,
            evicted_bytes: 40,
            in_flight: 1,
            stats: PipelineStats { objects: 3, largest_component: 2, ..Default::default() },
            cache_entries: 10,
            cache_bytes: 100,
            cross_user_hits: 6,
            single_reads: 3,
            tenants: vec![
                TenantMetrics {
                    tenant: 1,
                    requests: 2,
                    cache_probes: 8,
                    cache_hits: 7,
                    coalesced: 0,
                },
                TenantMetrics {
                    tenant: 3,
                    requests: 1,
                    cache_probes: 2,
                    cache_hits: 1,
                    coalesced: 1,
                },
            ],
        };
        let b = MetricsSnapshot {
            epoch: 5,
            stats: PipelineStats { objects: 7, largest_component: 9, ..Default::default() },
            cache_entries: 2,
            cache_bytes: 20,
            cross_user_hits: 4,
            tenants: vec![TenantMetrics {
                tenant: 2,
                requests: 5,
                cache_probes: 10,
                cache_hits: 9,
                coalesced: 2,
            }],
            ..a.clone()
        };
        a.merge(&b);
        assert_eq!(a.requests, 10);
        assert_eq!(a.coalesced, 2);
        assert_eq!(a.in_flight, 2);
        assert_eq!(a.epoch, 5, "epoch is a gauge: merge takes the max");
        assert_eq!(a.writes, 4);
        assert_eq!(a.epochs_retired, 2);
        assert_eq!(a.evicted_components, 8);
        assert_eq!(a.evicted_bytes, 80);
        assert_eq!(a.stats.objects, 10);
        assert_eq!(a.stats.largest_component, 9);
        assert_eq!(a.cache_entries, 12);
        assert_eq!(a.cache_bytes, 120);
        assert_eq!(a.cross_user_hits, 10);
        assert_eq!(a.single_reads, 6);
        assert_eq!(a.tenants.len(), 3, "disjoint tenant rows concatenate");
        assert_eq!(a.tenants[1].tenant, 2);
        assert!((a.cross_user_hit_rate() - 10.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_rows_with_matching_ids_fold_together() {
        let row = |probes, hits| TenantMetrics {
            tenant: 7,
            requests: 1,
            cache_probes: probes,
            cache_hits: hits,
            coalesced: 0,
        };
        let mut a = MetricsSnapshot {
            requests: 1,
            admitted: 1,
            completed: 1,
            coalesced: 0,
            coalesce_led: 0,
            deadline_misses: 0,
            shed_overload: 0,
            shed_cost: 0,
            failed: 0,
            epoch: 0,
            writes: 0,
            epochs_retired: 0,
            evicted_components: 0,
            evicted_bytes: 0,
            in_flight: 0,
            stats: PipelineStats::default(),
            cache_entries: 0,
            cache_bytes: 0,
            cross_user_hits: 3,
            single_reads: 0,
            tenants: vec![row(4, 3)],
        };
        let b = MetricsSnapshot { cross_user_hits: 2, tenants: vec![row(2, 2)], ..a.clone() };
        a.merge(&b);
        assert_eq!(a.tenants.len(), 1);
        assert_eq!(a.tenants[0].requests, 2);
        assert_eq!(a.tenants[0].cache_probes, 6);
        assert_eq!(a.tenants[0].cache_hits, 5);
        assert_eq!(a.cross_user_hits, 5);
        let shown = a.to_string();
        assert!(shown.contains("tenants:  1 active"), "display: {shown}");
    }

    #[test]
    fn poisoned_stats_mutex_recovers() {
        let m = std::sync::Arc::new(Metrics::default());
        let m2 = m.clone();
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = m2.stats.lock().unwrap();
            panic!("poison");
        })
        .join();
        let one = PipelineStats { objects: 1, ..Default::default() };
        m.merge_stats(&one);
        assert_eq!(m.stats_snapshot().objects, 1);
    }
}
