//! Heap footprint of a full component cache, measured by a counting
//! global allocator.
//!
//! The byte budget (`ComponentCache::bytes`) charges one key copy plus the
//! entry per admitted component. This test fills a 1 MiB cache with
//! signatures shaped like a block-zipf d = 3 workload's (about 450-byte
//! keys, 16 distinct `(dim, value)` coins each, coins recurring across
//! keys) and checks that the live heap the cache holds stays within twice
//! what the budget accounts. Anything the cache stores per coin or per key
//! outside the budget shows up here as a multiple of `bytes()`.
//!
//! It lives in its own test binary, with a single test, so the allocator
//! counts this cache and nothing else running concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::signature::signature_coins;

/// Forwards to the system allocator and tracks the bytes currently live.
/// `realloc` and `alloc_zeroed` keep their default implementations, which
/// route through `alloc` and `dealloc`.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the only addition is a statistic counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const COINS: u32 = 16;
const ATTACKERS: u32 = 12;

/// The `k`-th synthetic signature, in the layout of
/// `presky_exact::signature`: 16 coins over 3 dimensions whose values
/// slide slowly with `k` (so neighbouring keys share most coins), then 12
/// three-coin attackers, the first of which spells out `k` so every key is
/// distinct. 456 bytes in all.
fn synthetic_signature(k: u32, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&COINS.to_le_bytes());
    for i in 0..COINS {
        let (dim, value) = (i % 3, (k / 8 + i) % 64);
        let bits = (0.5 + f64::from(value) / 256.0).to_bits();
        out.extend_from_slice(&dim.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
        out.extend_from_slice(&bits.to_le_bytes());
    }
    out.extend_from_slice(&ATTACKERS.to_le_bytes());
    for a in 0..ATTACKERS {
        let ids = if a == 0 {
            [k & 15, (k >> 4) & 15, (k >> 8) & 15]
        } else {
            [a, (a + 3) % COINS, (a + 7) % COINS]
        };
        out.extend_from_slice(&3u32.to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

#[test]
fn full_cache_heap_stays_within_twice_its_accounted_bytes() {
    let mut key = Vec::with_capacity(512);
    let before = LIVE.load(Ordering::Relaxed);
    let cache = ComponentCache::with_byte_cap(1 << 20);
    let entry = CacheEntry { sky_bits: 0.5f64.to_bits(), joints_computed: 4_096 };
    let mut k = 0;
    loop {
        synthetic_signature(k, &mut key);
        if !cache.insert(&key, entry) {
            break;
        }
        k += 1;
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    let accounted = cache.bytes() as usize;
    assert_eq!(key.len(), 456);
    let pairs: HashSet<(u32, u32)> = signature_coins(&key).map(|(d, v, _)| (d, v)).collect();
    assert_eq!(pairs.len(), COINS as usize, "every coin is a distinct (dim, value)");
    assert!(k < 4_096, "keys stay distinct up to 4 096");
    assert_eq!(cache.len(), k as usize);
    assert!(accounted > (1 << 20) - 512, "filled to the cap: {accounted} bytes");
    let ratio = held as f64 / accounted as f64;
    println!("{k} entries, {accounted} accounted bytes, {held} live heap bytes, ratio {ratio:.2}");
    assert!(
        held <= 2 * accounted,
        "cache holds {held} heap bytes for {accounted} accounted ({ratio:.2}x)"
    );
}
