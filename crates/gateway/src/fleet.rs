//! Sharded base-station gateway: parallel reassembly + decode.
//!
//! One [`Gateway`] serializes every session's FISTA solves onto one
//! core; a base station terminating hundreds of uplinks has cores to
//! spare. [`ShardedGateway`] keeps plain `Gateway` shards that share
//! one [`MatrixCache`], so a fleet provisioned with identical CS
//! geometry builds each Φ once per process. With `w` worker threads
//! there are `4w` shards, and session `s` lives on shard `s % 4w` for
//! its whole lifetime; the shard is read straight out of a packet's
//! fixed link header.
//!
//! There are no long-lived threads. The calls that can run FISTA
//! ([`ShardedGateway::ingest_batch`],
//! [`ShardedGateway::flush_sessions_tagged`]) fan the shards out over
//! `w` threads through [`map_on_workers`], the workspace's one
//! scoped-thread helper, which borrows the batch and joins every
//! thread before it returns. A thread takes the next shard as soon as
//! it finishes one, and with more shards than threads an expensive
//! shard does not leave the other threads idle. Every
//! other call runs on the calling thread: per-session calls go to the
//! owning shard directly, and the cheap cross-session merges walk the
//! shards in turn.
//!
//! Sessions are fully isolated (separate reassemblers, decoders,
//! rhythm state, sensing matrices) and every per-session computation
//! is deterministic, so the merges only restore the sequential order:
//! ingest results by batch index, flushes and reports by ascending
//! session id, counters by commutative sums. The result is
//! **byte-identical** to a single `Gateway` fed the same packets, for
//! any shard count — pinned by `tests/gateway_shard_determinism.rs`,
//! including lossy/corrupting channel replays (a corrupted session id
//! may route a packet to a "wrong" shard, where the CRC check rejects
//! it exactly as the right one would have).

use std::sync::Arc;

use wbsn_core::link::SessionHandshake;
use wbsn_core::workers::map_on_workers;
use wbsn_core::WbsnError;

use crate::cache::{MatrixCache, MatrixCacheStats};
use crate::gateway::{
    Gateway, GatewayConfig, GatewayEvent, GatewayStats, RhythmState, SessionReport,
};
use crate::record::TapItem;
use crate::Result;

/// Shards per worker thread. More shards than threads lets a thread
/// that finishes a cheap shard take another while a costly one runs;
/// each shard is a full [`Gateway`], so more also costs memory.
const SHARDS_PER_WORKER: usize = 4;

/// A gateway sharded by session id, whose FISTA-bearing calls run the
/// shards on up to `workers` scoped threads — the parallel counterpart
/// of [`Gateway`] with byte-identical results (see the module docs).
pub struct ShardedGateway {
    shards: Vec<Gateway>,
    workers: usize,
    cache: Arc<MatrixCache>,
}

impl core::fmt::Debug for ShardedGateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedGateway")
            .field("workers", &self.workers)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Reads the session id out of a raw packet's fixed header (bytes
/// 1..9, little endian — see `wbsn-core`'s link layer) without
/// validating anything else. The CRC still guards the packet: a
/// corrupted id merely routes the packet to a shard that will
/// CRC-reject it.
fn peek_session(raw: &[u8]) -> Option<u64> {
    let bytes = raw.get(1..9)?;
    let mut id = [0u8; 8];
    id.copy_from_slice(bytes);
    Some(u64::from_le_bytes(id))
}

impl ShardedGateway {
    /// `4 × n_workers` gateway shards (`n_workers` at least 1), each a
    /// [`Gateway`] with this configuration, all sharing one fresh
    /// sensing-matrix cache. FISTA-bearing calls run on up to
    /// `n_workers` threads.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for zero workers.
    pub fn new(cfg: GatewayConfig, n_workers: usize) -> Result<Self> {
        if n_workers == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "n_workers",
                detail: "must be at least 1".into(),
            });
        }
        let cache = Arc::new(MatrixCache::new());
        let shards = (0..n_workers * SHARDS_PER_WORKER)
            .map(|_| Gateway::with_cache(cfg.clone(), Arc::clone(&cache)))
            .collect();
        Ok(ShardedGateway {
            shards,
            workers: n_workers,
            cache,
        })
    }

    /// The most threads a call runs on.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Handle on the shared sensing-matrix cache.
    pub fn matrix_cache(&self) -> Arc<MatrixCache> {
        Arc::clone(&self.cache)
    }

    /// Counters of the shared sensing-matrix cache.
    pub fn cache_stats(&self) -> MatrixCacheStats {
        self.cache.stats()
    }

    /// The shard owning `session`.
    fn shard_of(&self, session: u64) -> usize {
        (session % self.shards.len() as u64) as usize
    }

    /// The shard for a raw packet, by the session id in its header. A
    /// packet too short to carry a header goes to shard 0, whose
    /// `Gateway` rejects it with the same typed truncation error any
    /// other shard would.
    fn shard_of_packet(&self, raw: &[u8]) -> usize {
        peek_session(raw).map_or(0, |session| self.shard_of(session))
    }

    fn owner(&self, session: u64) -> &Gateway {
        &self.shards[self.shard_of(session)]
    }

    fn owner_mut(&mut self, session: u64) -> &mut Gateway {
        let shard = self.shard_of(session);
        &mut self.shards[shard]
    }

    /// Ingests a batch of raw packets: each goes to its session's
    /// shard, the shards with work run on up to
    /// [`num_workers`](Self::num_workers) threads, and the
    /// per-packet results come back **in batch order** —
    /// byte-identical to calling [`Gateway::ingest`] on each packet in
    /// order, for any worker count. Per-packet rejections (CRC,
    /// truncation, …) are values in the returned vector, exactly as
    /// the sequential gateway returns them; they do not abort the
    /// batch.
    ///
    /// # Errors
    ///
    /// [`WbsnError::WorkerLost`] when a thread running shards
    /// panicked.
    #[allow(clippy::type_complexity)]
    pub fn ingest_batch(&mut self, packets: &[Vec<u8>]) -> Result<Vec<Result<Vec<GatewayEvent>>>> {
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (batch_idx, raw) in packets.iter().enumerate() {
            routed[self.shard_of_packet(raw)].push(batch_idx);
        }
        let mut jobs: Vec<(&mut Gateway, Vec<usize>)> = self
            .shards
            .iter_mut()
            .zip(routed)
            .filter(|(_, idxs)| !idxs.is_empty())
            .collect();
        let per_shard = map_on_workers(self.workers, &mut jobs, |(gw, idxs)| {
            Ok(idxs
                .iter()
                .map(|&i| (i, gw.ingest(&packets[i])))
                .collect::<Vec<_>>())
        })?;
        let mut merged: Vec<_> = per_shard.into_iter().flatten().collect();
        // Each batch index appears exactly once.
        merged.sort_unstable_by_key(|(i, _)| *i);
        Ok(merged.into_iter().map(|(_, result)| result).collect())
    }

    /// Opens (or re-opens) a session out of band on its shard — see
    /// [`Gateway::register`].
    ///
    /// # Errors
    ///
    /// As [`Gateway::register`].
    pub fn register(&mut self, hs: SessionHandshake) -> Result<()> {
        self.owner_mut(hs.session).register(hs)
    }

    /// Attaches a per-lead reference signal for PRD reporting — see
    /// [`Gateway::attach_reference`].
    ///
    /// # Errors
    ///
    /// As [`Gateway::attach_reference`].
    pub fn attach_reference(&mut self, session: u64, lead: u8, samples: Vec<f64>) -> Result<()> {
        self.attach_reference_at(session, lead, 0, samples)
    }

    /// Attaches a mid-stream reference starting at `offset_samples` of
    /// the session's CS stream — see [`Gateway::attach_reference_at`].
    ///
    /// # Errors
    ///
    /// As [`Gateway::attach_reference_at`].
    pub fn attach_reference_at(
        &mut self,
        session: u64,
        lead: u8,
        offset_samples: u64,
        samples: Vec<f64>,
    ) -> Result<()> {
        self.owner_mut(session)
            .attach_reference_at(session, lead, offset_samples, samples)
    }

    /// End of stream: drains every session's reassembler on every
    /// shard, shards running on up to [`num_workers`](Self::num_workers)
    /// threads, with each session's events grouped under its id (ids
    /// ascending) — identical to [`Gateway::flush_sessions_tagged`].
    ///
    /// # Errors
    ///
    /// [`WbsnError::WorkerLost`] when a thread running shards
    /// panicked.
    pub fn flush_sessions_tagged(&mut self) -> Result<Vec<(u64, Vec<GatewayEvent>)>> {
        let mut shards: Vec<&mut Gateway> = self.shards.iter_mut().collect();
        let per_shard = map_on_workers(self.workers, &mut shards, |gw| {
            Ok(gw.flush_sessions_tagged())
        })?;
        Ok(by_session(per_shard))
    }

    /// Drains every shard's recording tap, merged in ascending
    /// session-id order. Each session lives wholly on one shard, so the
    /// merged per-session item streams are byte-identical to a
    /// sequential [`Gateway::drain_tap`] at any worker count.
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the fan-out calls.
    pub fn drain_tap(&mut self) -> Result<Vec<(u64, Vec<TapItem>)>> {
        Ok(by_session(self.shards.iter_mut().map(Gateway::drain_tap)))
    }

    /// One downlink pump across every shard, merged in ascending
    /// session-id order — byte-identical to [`Gateway::pump_downlink`]
    /// on a sequential gateway fed the same packets (each session's
    /// feedback state lives wholly on its shard, so the per-session
    /// frame streams cannot interleave differently).
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the fan-out calls.
    #[allow(clippy::type_complexity)]
    pub fn pump_downlink(&mut self) -> Result<Vec<(u64, Vec<Vec<u8>>)>> {
        Ok(by_session(
            self.shards.iter_mut().map(Gateway::pump_downlink),
        ))
    }

    /// Link-health report of one session — see
    /// [`Gateway::session_report`].
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the fan-out calls.
    pub fn session_report(&self, session: u64) -> Result<Option<SessionReport>> {
        Ok(self.owner(session).session_report(session))
    }

    /// Link-health reports of every session across all shards, ids
    /// ascending — identical to [`Gateway::session_reports`].
    pub fn session_reports(&self) -> Vec<SessionReport> {
        let mut all: Vec<SessionReport> = self
            .shards
            .iter()
            .flat_map(Gateway::session_reports)
            .collect();
        all.sort_unstable_by_key(|r| r.session);
        all
    }

    /// Closes one session on its shard — see
    /// [`Gateway::close_session`].
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the fan-out calls.
    pub fn close_session(&mut self, session: u64) -> Result<Option<Vec<GatewayEvent>>> {
        Ok(self.owner_mut(session).close_session(session))
    }

    /// Field-wise sum of every shard's [`GatewayStats`] — identical to
    /// the sequential gateway's counters for the same packets.
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the fan-out calls.
    pub fn stats(&self) -> Result<GatewayStats> {
        let mut total = GatewayStats::default();
        for s in self.shards.iter().map(Gateway::stats) {
            total.packets += s.packets;
            total.crc_rejected += s.crc_rejected;
            total.rejected += s.rejected;
            total.items_rejected += s.items_rejected;
            total.payloads += s.payloads;
            total.messages_lost += s.messages_lost;
            total.messages_recovered += s.messages_recovered;
            total.acks_sent += s.acks_sent;
            total.nacks_sent += s.nacks_sent;
            total.retransmits_requested += s.retransmits_requested;
            total.directives_issued += s.directives_issued;
            total.windows_reconstructed += s.windows_reconstructed;
            total.windows_skipped += s.windows_skipped;
            total.solver_iters += s.solver_iters;
        }
        Ok(total)
    }

    /// Sessions seen across all shards, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.shards.iter().flat_map(Gateway::session_ids).collect();
        all.sort_unstable();
        all
    }

    /// Rhythm/alert state of one session — see [`Gateway::rhythm`].
    pub fn rhythm(&self, session: u64) -> Option<&RhythmState> {
        self.owner(session).rhythm(session)
    }

    /// The handshake of one session — see [`Gateway::handshake`].
    pub fn handshake(&self, session: u64) -> Option<&SessionHandshake> {
        self.owner(session).handshake(session)
    }

    /// All reconstructed `(window_seq, samples)` of one lead, in
    /// window order — see [`Gateway::reconstructed_windows`].
    pub fn reconstructed_windows(
        &self,
        session: u64,
        lead: u8,
    ) -> impl Iterator<Item = (u32, &[f64])> + '_ {
        self.owner(session).reconstructed_windows(session, lead)
    }
}

/// Concatenates per-shard `(session, value)` lists and orders them by
/// ascending session id — the sequential gateway's order, since every
/// session lives on exactly one shard.
fn by_session<T>(per_shard: impl IntoIterator<Item = Vec<(u64, T)>>) -> Vec<(u64, T)> {
    let mut out: Vec<(u64, T)> = per_shard.into_iter().flatten().collect();
    out.sort_unstable_by_key(|(id, _)| *id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_core::link::LinkFramer;
    use wbsn_core::Payload;

    fn sharded(n: usize) -> ShardedGateway {
        ShardedGateway::new(GatewayConfig::default(), n).unwrap()
    }

    #[test]
    fn zero_workers_is_rejected() {
        assert!(ShardedGateway::new(GatewayConfig::default(), 0).is_err());
        assert_eq!(sharded(3).num_workers(), 3);
    }

    #[test]
    fn routing_is_modulo_and_stable() {
        // 4 workers, 16 shards.
        let gw = sharded(4);
        assert_eq!(gw.num_workers(), 4);
        assert_eq!(gw.shards.len(), 16);
        assert_eq!(gw.shard_of(0), 0);
        assert_eq!(gw.shard_of(7), 7);
        assert_eq!(gw.shard_of(15), 15);
        assert_eq!(gw.shard_of(16), 0);
        assert_eq!(gw.shard_of(u64::MAX), (u64::MAX % 16) as usize);
    }

    #[test]
    fn peeks_the_framed_session_id() {
        let mut framer = LinkFramer::new(0xDEAD_BEEF_0042);
        let mut packets = Vec::new();
        framer
            .frame_payload(&Payload::Beats { beats: Vec::new() }, &mut packets)
            .unwrap();
        for p in &packets {
            assert_eq!(peek_session(p), Some(0xDEAD_BEEF_0042));
        }
        let gw = sharded(3);
        assert_eq!(
            gw.shard_of_packet(&packets[0]),
            gw.shard_of(0xDEAD_BEEF_0042)
        );
    }

    #[test]
    fn truncated_packets_route_to_worker_zero() {
        let gw = sharded(5);
        assert_eq!(peek_session(&[1, 2, 3]), None);
        assert_eq!(gw.shard_of_packet(&[1, 2, 3]), 0);
        assert_eq!(gw.shard_of_packet(&[]), 0);
    }

    #[test]
    fn sessions_land_on_their_shard() {
        // 3 workers, 12 shards, three sessions per shard.
        let mut gw = sharded(3);
        assert_eq!(gw.num_workers(), 3);
        let mut packets = Vec::new();
        for session in 0..36 {
            LinkFramer::new(session)
                .frame_payload(&Payload::Beats { beats: Vec::new() }, &mut packets)
                .unwrap();
        }
        for result in gw.ingest_batch(&packets).unwrap() {
            result.unwrap();
        }
        for (shard, gateway) in gw.shards.iter().enumerate() {
            let ids: Vec<u64> = gateway.session_ids().collect();
            assert_eq!(ids.len(), 3);
            assert!(ids.iter().all(|&id| gw.shard_of(id) == shard));
        }
        assert_eq!(gw.shards.len(), 12);
        assert_eq!(gw.session_ids(), (0..36).collect::<Vec<_>>());
    }
}
