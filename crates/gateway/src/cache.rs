//! Shared sensing-matrix cache.
//!
//! Every CS session's handshake names its sensing matrix by value —
//! `(window, measurements, density, seed, lead)` — and fleets are
//! provisioned in bulk, so many sessions (and, in the sharded
//! gateway, many shards on worker threads) keep asking for the *same*
//! Φ. A `SparseTernaryMatrix` for a 256×128 window costs ~1 k RNG draws to
//! build and ~8 kB to hold; regenerating it per session wastes both.
//! [`MatrixCache`] shares one immutable copy per distinct key across
//! every [`Gateway`](crate::Gateway) that holds a handle.
//!
//! Determinism: construction happens *inside* the lock, so however
//! many workers race for a key, exactly one miss builds it and every
//! later lookup hits — [`MatrixCacheStats`] totals are identical for
//! any worker count, which the shard-determinism suite pins.

use crate::Result;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use wbsn_cs::encoder::CsEncoder;

/// Everything that identifies one sensing matrix: the CS geometry
/// from the session handshake plus the lead index (lead `l` senses
/// with `seed + l`; see [`CsEncoder::for_lead`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MatrixKey {
    /// Window length `n` in samples.
    pub window: u32,
    /// Measurement count `m`.
    pub measurements: u32,
    /// Non-zeros per sensing-matrix column.
    pub d_per_col: u8,
    /// The session's *base* seed (before the per-lead offset).
    pub seed: u64,
    /// Lead index.
    pub lead: u8,
}

/// Hit/miss counters of one [`MatrixCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the matrix.
    pub misses: u64,
    /// Distinct matrices currently held.
    pub entries: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    matrices: BTreeMap<MatrixKey, Arc<CsEncoder>>,
    hits: u64,
    misses: u64,
}

/// A process-wide cache of per-lead sensing matrices, shared across
/// gateways and across the sharded gateway's shards.
#[derive(Debug, Default)]
pub struct MatrixCache {
    inner: Mutex<CacheInner>,
}

impl MatrixCache {
    /// An empty cache.
    pub fn new() -> Self {
        MatrixCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // A poisoned lock means some thread panicked mid-lookup; the
        // map itself only ever holds fully-built immutable matrices,
        // so its contents are still valid — recover instead of
        // propagating the poison.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The matrix for `key`, built through [`CsEncoder::for_lead`] on
    /// first use and shared afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`CsEncoder::for_lead`] rejections (zero or
    /// inconsistent dimensions) without caching anything.
    pub fn get_or_build(&self, key: MatrixKey) -> Result<Arc<CsEncoder>> {
        let mut inner = self.lock();
        if let Some(enc) = inner.matrices.get(&key).map(Arc::clone) {
            inner.hits += 1;
            return Ok(enc);
        }
        let enc = Arc::new(CsEncoder::for_lead(
            key.window as usize,
            key.measurements as usize,
            key.d_per_col as usize,
            key.seed,
            key.lead,
        )?);
        inner.misses += 1;
        inner.matrices.insert(key, Arc::clone(&enc));
        Ok(enc)
    }

    /// Counters so far.
    pub fn stats(&self) -> MatrixCacheStats {
        let inner = self.lock();
        MatrixCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.matrices.len() as u64,
        }
    }

    /// Drops every cached matrix (counters are kept — they describe
    /// lookup history, not current contents).
    pub fn clear(&self) {
        self.lock().matrices.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64, lead: u8) -> MatrixKey {
        MatrixKey {
            window: 256,
            measurements: 128,
            d_per_col: 4,
            seed,
            lead,
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_same_matrix() {
        let cache = MatrixCache::new();
        let a = cache.get_or_build(key(9, 0)).unwrap();
        let b = cache.get_or_build(key(9, 0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            MatrixCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn distinct_leads_are_distinct_entries_with_the_for_lead_seed() {
        let cache = MatrixCache::new();
        let l0 = cache.get_or_build(key(9, 0)).unwrap();
        let l1 = cache.get_or_build(key(9, 1)).unwrap();
        assert_eq!(l0.seed(), 9);
        assert_eq!(l1.seed(), 10);
        assert_eq!(cache.stats().entries, 2);
        // Lead 1 of base seed 9 and lead 0 of base seed 10 are the
        // same matrix value but different keys: the cache is keyed by
        // handshake identity, not by derived seed.
        let other = cache.get_or_build(key(10, 0)).unwrap();
        assert_eq!(other.sensing_matrix(), l1.sensing_matrix());
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn invalid_geometry_is_an_error_and_not_cached() {
        let cache = MatrixCache::new();
        let bad = MatrixKey {
            window: 16,
            measurements: 32, // m > n
            d_per_col: 4,
            seed: 1,
            lead: 0,
        };
        assert!(cache.get_or_build(bad).is_err());
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_drops_entries_but_keeps_history() {
        let cache = MatrixCache::new();
        cache.get_or_build(key(1, 0)).unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 1);
        // Rebuilding after clear is a fresh miss.
        cache.get_or_build(key(1, 0)).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn shared_across_threads() {
        let cache = Arc::new(MatrixCache::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cache);
                std::thread::spawn(move || c.get_or_build(key(5, 0)).unwrap())
            })
            .collect();
        let built: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(built.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let s = cache.stats();
        assert_eq!(s.misses, 1, "construction under the lock: one miss");
        assert_eq!(s.hits, 3);
    }
}
