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
//! An entry also holds the Lipschitz constant FISTA steps by, which
//! depends only on Φ and the solver's wavelet dictionary: the 12-round
//! power iteration that finds it (24 operator applications) runs once
//! per entry and dictionary, not once per session or window
//! ([`MatrixCache::get_or_build_for`]).
//!
//! Determinism: construction happens *inside* the lock, so however
//! many workers race for a key, exactly one miss builds it and every
//! later lookup hits — [`MatrixCacheStats`] totals are identical for
//! any worker count, which the shard-determinism suite pins.

use crate::Result;
use std::collections::{btree_map, BTreeMap};
use std::sync::{Arc, Mutex, MutexGuard};
use wbsn_core::link::SessionHandshake;
use wbsn_core::WbsnError;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::Fista;
use wbsn_sigproc::wavelet::Wavelet;

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

/// One cached matrix and the Lipschitz constants computed for it, one
/// per `(wavelet, levels)` dictionary a solver asked with.
#[derive(Debug)]
struct Entry {
    encoder: Arc<CsEncoder>,
    lipschitz: Vec<((Wavelet, usize), f64)>,
}

#[derive(Debug, Default)]
struct CacheInner {
    matrices: BTreeMap<MatrixKey, Entry>,
    hits: u64,
    misses: u64,
}

impl CacheInner {
    /// The entry for `key`, counting the lookup as a hit or a miss.
    fn entry(&mut self, key: MatrixKey) -> Result<&mut Entry> {
        match self.matrices.entry(key) {
            btree_map::Entry::Occupied(e) => {
                self.hits += 1;
                Ok(e.into_mut())
            }
            btree_map::Entry::Vacant(slot) => {
                let encoder = Arc::new(CsEncoder::for_lead(
                    key.window as usize,
                    key.measurements as usize,
                    key.d_per_col as usize,
                    key.seed,
                    key.lead,
                )?);
                self.misses += 1;
                Ok(slot.insert(Entry {
                    encoder,
                    lipschitz: Vec::new(),
                }))
            }
        }
    }
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
        Ok(Arc::clone(&self.lock().entry(key)?.encoder))
    }

    /// [`MatrixCache::get_or_build`] plus the Lipschitz constant
    /// `solver` steps by on that matrix ([`Fista::lipschitz`]),
    /// computed on the first request for the solver's `(wavelet,
    /// levels)` and shared afterwards. Counts one lookup, as
    /// [`MatrixCache::get_or_build`] does.
    ///
    /// # Errors
    ///
    /// As [`MatrixCache::get_or_build`], or the solver's rejection of
    /// its configuration or of the window length; a rejected constant
    /// is not cached.
    pub fn get_or_build_for(
        &self,
        key: MatrixKey,
        solver: &Fista,
    ) -> Result<(Arc<CsEncoder>, f64)> {
        let mut inner = self.lock();
        let entry = inner.entry(key)?;
        let basis = (solver.config().wavelet, solver.config().levels);
        let lip = match entry.lipschitz.iter().find(|(b, _)| *b == basis) {
            Some(&(_, lip)) => lip,
            None => {
                let lip = solver.lipschitz(entry.encoder.sensing_matrix())?;
                entry.lipschitz.push((basis, lip));
                lip
            }
        };
        Ok((Arc::clone(&entry.encoder), lip))
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

/// A lead's sensing matrix and the Lipschitz constant FISTA steps by
/// on it.
pub type LeadMatrix = (Arc<CsEncoder>, f64);

/// One session's installed handshake and the per-lead matrices it
/// names, each resolved through a [`MatrixCache`] on the lead's first
/// window. The gateway keeps one per session, and archive replay keeps
/// one per archived session, so both resolve Φ by the same rule.
#[derive(Debug, Default)]
pub struct SessionMatrices {
    handshake: Option<SessionHandshake>,
    leads: Vec<Option<LeadMatrix>>,
}

impl SessionMatrices {
    /// Installs a handshake. A changed handshake (new seed or shape)
    /// drops the matrices, so a stale Φ can never reconstruct
    /// plausible-looking garbage; an identical re-announce (after a
    /// reboot) keeps them.
    pub fn install(&mut self, hs: SessionHandshake) {
        if self.handshake != Some(hs) {
            self.leads.clear();
        }
        self.handshake = Some(hs);
    }

    /// The installed handshake, if any.
    pub fn handshake(&self) -> Option<&SessionHandshake> {
        self.handshake.as_ref()
    }

    /// Lead `lead`'s matrix under the installed handshake (lead `l`
    /// senses with `seed + l`, as the node's CS stage does), with the
    /// Lipschitz constant `solver` steps by on it.
    ///
    /// # Errors
    ///
    /// No handshake is installed, or the cache cannot build the matrix
    /// or its constant ([`MatrixCache::get_or_build_for`]).
    pub fn lead(&mut self, lead: u8, cache: &MatrixCache, solver: &Fista) -> Result<LeadMatrix> {
        let Some(hs) = self.handshake else {
            return Err(WbsnError::Malformed {
                what: "sensing matrix",
                detail: "no handshake installed".into(),
            });
        };
        let ix = usize::from(lead);
        if self.leads.len() <= ix {
            self.leads.resize(ix + 1, None);
        }
        if let Some(Some(matrix)) = self.leads.get(ix) {
            return Ok(matrix.clone());
        }
        let matrix = cache.get_or_build_for(
            MatrixKey {
                window: hs.cs_window,
                measurements: hs.cs_measurements,
                d_per_col: hs.cs_d_per_col,
                seed: hs.seed,
                lead,
            },
            solver,
        )?;
        if let Some(slot) = self.leads.get_mut(ix) {
            *slot = Some(matrix.clone());
        }
        Ok(matrix)
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
    fn lipschitz_constant_is_computed_once_per_dictionary_and_counts_one_lookup() {
        use wbsn_cs::solver::FistaConfig;
        let cache = MatrixCache::new();
        let db4 = Fista::new(FistaConfig::default());
        let haar = Fista::new(FistaConfig {
            wavelet: Wavelet::Haar,
            ..FistaConfig::default()
        });
        let (enc, lip) = cache.get_or_build_for(key(3, 0), &db4).unwrap();
        assert_eq!(
            lip.to_bits(),
            db4.lipschitz(enc.sensing_matrix()).unwrap().to_bits()
        );
        let (again, lip_again) = cache.get_or_build_for(key(3, 0), &db4).unwrap();
        assert!(Arc::ptr_eq(&enc, &again));
        assert_eq!(lip.to_bits(), lip_again.to_bits());
        let (_, lip_haar) = cache.get_or_build_for(key(3, 0), &haar).unwrap();
        assert_eq!(
            lip_haar.to_bits(),
            haar.lipschitz(enc.sensing_matrix()).unwrap().to_bits()
        );
        assert_eq!(
            cache.stats(),
            MatrixCacheStats {
                hits: 2,
                misses: 1,
                entries: 1
            }
        );
        // A dictionary the window cannot carry is an error, and the
        // matrix lookup still counts.
        let deep = Fista::new(FistaConfig {
            levels: 9,
            ..FistaConfig::default()
        });
        assert!(cache.get_or_build_for(key(3, 0), &deep).is_err());
        assert_eq!(cache.stats().hits, 3);
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

    #[test]
    fn session_matrices_resolve_once_per_lead_and_reset_on_a_changed_handshake() {
        use wbsn_cs::solver::FistaConfig;
        let cache = MatrixCache::new();
        let solver = Fista::new(FistaConfig::default());
        let hs = SessionHandshake {
            version: wbsn_core::link::PROTOCOL_VERSION,
            session: 4,
            fs_hz: 250,
            n_leads: 2,
            cs_window: 256,
            cs_measurements: 128,
            cs_d_per_col: 4,
            seed: 11,
        };
        let mut m = SessionMatrices::default();
        assert!(m.lead(0, &cache, &solver).is_err(), "no handshake yet");
        m.install(hs);
        let (a, lip) = m.lead(1, &cache, &solver).unwrap();
        assert!(Arc::ptr_eq(&a, &cache.get_or_build(key(11, 1)).unwrap()));
        assert_eq!(cache.stats().misses, 1);
        // Repeat lookups and an identical re-announce keep the lead's
        // matrix without asking the cache again.
        m.lead(1, &cache, &solver).unwrap();
        m.install(hs);
        let (b, lip_b) = m.lead(1, &cache, &solver).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(lip.to_bits(), lip_b.to_bits());
        assert_eq!(cache.stats().hits, 1, "only the test's own lookup hit");
        // A new seed drops the matrices: the next lookup resolves the
        // new Φ.
        m.install(SessionHandshake { seed: 12, ..hs });
        let (c, _) = m.lead(1, &cache, &solver).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().misses, 2);
    }
}
