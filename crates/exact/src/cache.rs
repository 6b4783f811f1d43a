//! The cross-target component cache: hash-consed exact sub-results.
//!
//! Exact per-component results keyed by the canonical signature of
//! [`crate::signature`]. Categorical domains repeat components heavily
//! across targets of an all-sky batch (the car/nursery workloads re-solve
//! the same handful of components hundreds of times), so the batch driver
//! shares one cache across all worker threads; `sky_one`, the threshold
//! ladder and top-k's scout→refine pair share one per query for the same
//! reason.
//!
//! Because the cached value is the bit-exact `f64` the canonical DFS would
//! produce (see [`crate::signature`] for why equal signatures imply equal
//! bits), a hit is indistinguishable from a solve — results with the cache
//! on and off are `to_bits`-identical, which the query-crate property tests
//! pin down.
//!
//! Concurrency is striped locking: keys are hashed once, the top bits pick
//! one of [`SHARDS`] independent `Mutex<HashMap>` shards, so parallel
//! workers rarely contend. No capacity eviction is performed; instead
//! admission stops once the byte budget is spent (component populations in
//! the duplicate-heavy regimes are tiny — tens of entries — so the budget
//! is a safety rail against adversarial unbounded growth, not a
//! working-set knob). An insert reserves its bytes with one atomic update
//! that refuses past the cap, so concurrent inserts cannot overshoot it.
//!
//! ## Incremental invalidation
//!
//! Signatures are content-addressed — `(dim, value, prob_bits)` per coin —
//! so a *dataset* write (insert/remove object) invalidates **nothing**:
//! every stored entry keeps meaning exactly what its bytes say, wherever
//! those bytes recur in the new epoch. Only a *preference* edit strands
//! entries: components embedding the edited coin's old bits can never be
//! probed again (new requests serialize the new bits).
//! [`ComponentCache::evict_signature_touched`] reclaims exactly those
//! entries instead of dropping the cache wholesale: it scans the shards one
//! at a time and parses each key's coins back out of its bytes
//! ([`signature_coins`]), so an edit costs O(entries) and the cache keeps
//! no index beside its shards. Evicting a key whose old bits
//! coincidentally match another live pair's bits is sound — equal
//! signature bytes imply equal results, so the worst case is one
//! recompute, never a wrong answer.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::signature::signature_coins;

/// Number of independent shards (power of two).
pub const SHARDS: usize = 64;

/// Default admission budget: keys + entries may occupy this many bytes.
pub const DEFAULT_BYTE_CAP: usize = 64 << 20;

/// A cached exact component result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// `f64::to_bits` of the component's exact skyline factor. Stored as
    /// bits to keep the entry `Eq` and to make the bit-identity contract
    /// explicit.
    pub sky_bits: u64,
    /// Joint probabilities the canonical DFS computed for this component —
    /// re-added to the pipeline stats on every hit so logical work
    /// accounting stays deterministic whether or not the cache is warm.
    pub joints_computed: u64,
}

/// What [`ComponentCache::evict_signature_touched`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Eviction {
    /// Entries removed.
    pub entries: u64,
    /// Bytes returned to the admission budget.
    pub bytes: u64,
}

/// Sharded concurrent map from canonical component signature to
/// [`CacheEntry`]. Shared by reference across batch worker threads.
#[derive(Debug)]
pub struct ComponentCache {
    shards: Vec<Mutex<HashMap<Box<[u8]>, CacheEntry>>>,
    hasher: RandomState,
    bytes: AtomicU64,
    byte_cap: u64,
}

impl Default for ComponentCache {
    fn default() -> Self {
        Self::with_byte_cap(DEFAULT_BYTE_CAP)
    }
}

impl ComponentCache {
    /// An empty cache admitting up to `byte_cap` bytes of keys + entries.
    pub fn with_byte_cap(byte_cap: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            bytes: AtomicU64::new(0),
            byte_cap: byte_cap as u64,
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<HashMap<Box<[u8]>, CacheEntry>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h >> (64 - SHARDS.trailing_zeros())) as usize]
    }

    /// Look up a component signature.
    pub fn get(&self, key: &[u8]) -> Option<CacheEntry> {
        self.shard(key).lock().unwrap_or_else(|e| e.into_inner()).get(key).copied()
    }

    /// Insert a result; returns `true` if the entry was admitted (false
    /// once the byte budget is exhausted — existing entries stay valid
    /// until a preference edit strands them, new ones are simply not
    /// remembered). The entry's bytes are reserved before the shard lock
    /// is taken, so a full cache refuses without locking, and given back
    /// if the key turns out to be present already.
    pub fn insert(&self, key: &[u8], entry: CacheEntry) -> bool {
        let cost = Self::entry_bytes(key);
        let reserve = |b: u64| (b + cost <= self.byte_cap).then_some(b + cost);
        if self.bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, reserve).is_err() {
            return false;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.contains_key(key) {
            self.bytes.fetch_sub(cost, Ordering::Relaxed);
            return false;
        }
        shard.insert(key.into(), entry);
        true
    }

    /// Evict every entry whose signature embeds a coin `(dim, value,
    /// bits)` for some `(value, bits)` in `touched` — the entries a
    /// preference edit on `dim` made stale-unreachable (callers pass each
    /// edited direction's value with its **pre-edit** probability bits).
    ///
    /// Visits the shards one at a time, under each shard's own lock, and
    /// parses every key's coins, so the cost is O(entries) per call;
    /// readers and inserters wait for at most one shard's scan. Freed
    /// bytes return to the admission budget shard by shard. Entries on the
    /// same `(dim, value)` whose bits differ survive: the signature they
    /// carry is still exactly what new requests serialize.
    pub fn evict_signature_touched(&self, dim: u32, touched: &[(u32, u64)]) -> Eviction {
        let mut ev = Eviction::default();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let mut freed = 0;
            shard.retain(|key, _| {
                let stale =
                    signature_coins(key).any(|(d, v, b)| d == dim && touched.contains(&(v, b)));
                if stale {
                    ev.entries += 1;
                    freed += Self::entry_bytes(key);
                }
                !stale
            });
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            ev.bytes += freed;
        }
        ev
    }

    /// Bytes charged against the budget for one entry with this key.
    pub fn entry_bytes(key: &[u8]) -> u64 {
        (key.len() + std::mem::size_of::<CacheEntry>()) as u64
    }

    /// Total bytes of admitted keys + entries.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of cached components.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry, sorted by key bytes.
    ///
    /// Shard assignment depends on a per-process `RandomState`, so shard
    /// order is not reproducible — sorting by key is what makes snapshot
    /// serialisation ([`crate::snapshot`]) byte-identical across runs and
    /// across caches populated in different orders.
    pub fn sorted_entries(&self) -> Vec<(Box<[u8]>, CacheEntry)> {
        let mut out: Vec<(Box<[u8]>, CacheEntry)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(shard.iter().map(|(k, v)| (k.clone(), *v)));
        }
        out.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_counts_bytes() {
        let cache = ComponentCache::default();
        assert!(cache.is_empty());
        let entry = CacheEntry { sky_bits: 0.25f64.to_bits(), joints_computed: 7 };
        assert!(cache.get(b"alpha").is_none());
        assert!(cache.insert(b"alpha", entry));
        assert_eq!(cache.get(b"alpha"), Some(entry));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), ComponentCache::entry_bytes(b"alpha"));
        // Re-inserting the same key is a no-op (first result wins; both are
        // bit-identical by construction anyway).
        assert!(!cache.insert(b"alpha", entry));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn admission_stops_at_the_byte_cap() {
        let one = ComponentCache::entry_bytes(b"k0") as usize;
        let cache = ComponentCache::with_byte_cap(2 * one);
        let entry = CacheEntry { sky_bits: 0, joints_computed: 0 };
        assert!(cache.insert(b"k0", entry));
        assert!(cache.insert(b"k1", entry));
        assert!(!cache.insert(b"k2", entry), "budget spent");
        assert_eq!(cache.len(), 2);
        // Existing entries remain readable.
        assert_eq!(cache.get(b"k1"), Some(entry));
    }

    #[test]
    fn keys_spread_across_shards_and_stay_isolated() {
        let cache = ComponentCache::default();
        for i in 0..500u32 {
            let key = i.to_le_bytes();
            assert!(cache.insert(&key, CacheEntry { sky_bits: u64::from(i), joints_computed: 1 }));
        }
        assert_eq!(cache.len(), 500);
        for i in 0..500u32 {
            let key = i.to_le_bytes();
            assert_eq!(cache.get(&key).unwrap().sky_bits, u64::from(i));
        }
    }

    /// Serialize a synthetic signature with the given coins (and no
    /// attackers) in the layout of [`crate::signature`].
    fn sig(coins: &[(u32, u32, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(coins.len() as u32).to_le_bytes());
        for &(dim, value, bits) in coins {
            out.extend_from_slice(&dim.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
        }
        out.extend_from_slice(&0u32.to_le_bytes());
        out
    }

    #[test]
    fn eviction_removes_exactly_the_touched_signatures() {
        let cache = ComponentCache::default();
        let entry = CacheEntry { sky_bits: 1, joints_computed: 1 };
        let old = 0.5f64.to_bits();
        // Stale: embeds coin (0, 7, old). Survivors: same (dim, value)
        // with different bits, same value on another dim, unrelated.
        let stale_a = sig(&[(0, 7, old), (1, 3, 99)]);
        let stale_b = sig(&[(0, 7, old)]);
        let other_bits = sig(&[(0, 7, 0.25f64.to_bits())]);
        let other_dim = sig(&[(1, 7, old)]);
        let unrelated = sig(&[(2, 2, 42)]);
        // Tenant-namespaced keys carry an 8-byte namespace suffix after the
        // signature, which the coin parse ignores.
        let namespaced = |coins: &[(u32, u32, u64)]| {
            let mut key = sig(coins);
            key.extend_from_slice(&3u64.to_le_bytes());
            key
        };
        let stale_tenant = namespaced(&[(2, 5, 8), (0, 7, old)]);
        let other_tenant = namespaced(&[(0, 7, 0.25f64.to_bits())]);
        let keys =
            [&stale_a, &stale_b, &other_bits, &other_dim, &unrelated, &stale_tenant, &other_tenant];
        for k in keys {
            assert!(cache.insert(k, entry));
        }
        let before = cache.bytes();
        let ev = cache.evict_signature_touched(0, &[(7, old)]);
        assert_eq!(ev.entries, 3);
        assert_eq!(
            ev.bytes,
            [&stale_a, &stale_b, &stale_tenant]
                .map(|k| ComponentCache::entry_bytes(k))
                .iter()
                .sum()
        );
        assert_eq!(cache.bytes(), before - ev.bytes);
        assert_eq!(cache.len(), 4);
        assert!(cache.get(&stale_a).is_none());
        assert!(cache.get(&stale_b).is_none());
        assert!(cache.get(&stale_tenant).is_none());
        assert!(cache.get(&other_bits).is_some());
        assert!(cache.get(&other_dim).is_some());
        assert!(cache.get(&unrelated).is_some());
        assert!(cache.get(&other_tenant).is_some());
        // Freed bytes are re-admittable.
        assert!(cache.insert(&stale_b, entry));
    }

    #[test]
    fn eviction_cleans_foreign_registrations_lazily() {
        let cache = ComponentCache::default();
        let entry = CacheEntry { sky_bits: 0, joints_computed: 0 };
        // One key embedding coins on both (0, 1) and (0, 2).
        let two_coins = sig(&[(0, 1, 11), (0, 2, 22)]);
        assert!(cache.insert(&two_coins, entry));
        // Evict via the first coin; the key is gone for the second too.
        assert_eq!(cache.evict_signature_touched(0, &[(1, 11)]).entries, 1);
        assert!(cache.is_empty());
        // Evicting through the second coin must not double-free bytes.
        let ev = cache.evict_signature_touched(0, &[(2, 22)]);
        assert_eq!(ev, Eviction::default());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn shared_across_threads() {
        let cache = ComponentCache::default();
        // One small cache per round, each with room for one 4-byte key.
        // Every round releases the threads together to race for its cache.
        let cap = ComponentCache::entry_bytes(&0u32.to_le_bytes());
        let smalls: Vec<_> =
            (0..200).map(|_| ComponentCache::with_byte_cap(cap as usize)).collect();
        let round = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (cache, smalls, round) = (&cache, &smalls, &round);
                scope.spawn(move || {
                    for (i, small) in (0..200u32).zip(smalls) {
                        let key = (t * 1000 + i).to_le_bytes();
                        cache.insert(&key, CacheEntry { sky_bits: 1, joints_computed: 1 });
                        round.wait();
                        small.insert(&key, CacheEntry { sky_bits: 1, joints_computed: 1 });
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
        let peak = smalls.iter().map(ComponentCache::bytes).max().unwrap();
        assert!(peak <= cap, "{peak} bytes admitted under a {cap}-byte cap");
    }
}
