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
//! There are no long-lived threads. The calls that can release CS
//! windows ([`ShardedGateway::ingest_batch`],
//! [`ShardedGateway::flush_sessions_tagged`],
//! [`ShardedGateway::close_session`]) run in three steps. Decoding
//! fans the shards out over `w` threads through [`map_on_workers`],
//! the workspace's one scoped-thread helper, which borrows the batch
//! and joins every thread before it returns; a thread takes the next
//! shard as soon as it finishes one. Each shard queues the CS windows
//! it decodes instead of solving them, and one pool-wide
//! [`SolvePhase`] then solves every shard's windows together on the
//! same `w` threads, four windows of one Φ per pass, so the lanes stay
//! full however the windows are spread over shards. Last, each shard
//! completes its windows in decode order. Every other call runs on
//! the calling thread: per-session calls go to the owning shard
//! directly, and the cheap cross-session merges walk the shards in
//! turn.
//!
//! Sessions are fully isolated (separate reassemblers, AF flags,
//! sensing matrices) and every per-session computation
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
use crate::gateway::{put, Gateway, GatewayConfig, GatewayEvent, GatewayStats, SessionReport};
use crate::record::TapItem;
use crate::solve::SolvePhase;
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
    /// The pool-wide solve phase every call's CS windows run in (boxed:
    /// its queues and solver working memory stay off the handle).
    phase: Box<SolvePhase>,
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
        let phase = Box::new(SolvePhase::new(cfg.solver));
        let shards = (0..n_workers * SHARDS_PER_WORKER)
            .map(|_| Gateway::with_cache(cfg.clone(), Arc::clone(&cache)))
            .collect();
        Ok(ShardedGateway {
            shards,
            workers: n_workers,
            cache,
            phase,
        })
    }

    /// The most threads a call runs on.
    pub fn num_workers(&self) -> usize {
        self.workers
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
    /// shard, and the per-packet results come back **in batch order**
    /// — byte-identical to calling [`Gateway::ingest`] on each packet in
    /// order, for any worker count. Per-packet rejections (CRC,
    /// truncation, …) are values in the returned vector, exactly as
    /// the sequential gateway returns them; they do not abort the
    /// batch.
    ///
    /// A batch runs in three steps:
    /// 1. **Decode and enqueue**, the shards with work on up to
    ///    [`num_workers`](Self::num_workers) threads. Each packet is
    ///    reassembled and decoded in order; a CS window is checked
    ///    against its Φ (a measurement count that does not match is a
    ///    [`GatewayEvent::PayloadRejected`] in its place), queued for
    ///    its solve, and its event and tap item are reserved.
    /// 2. **Solve**: every shard's queued windows in one pool-wide
    ///    solve phase ([`SolvePhase`]) on up to `num_workers` threads,
    ///    four windows of one Φ per pass. Skipped when nothing is
    ///    queued.
    /// 3. **Complete**, shard by shard in decode order: each window's
    ///    PRD, the session's PRD sum, its tap item and its
    ///    `WindowReconstructed` event, which takes the solved samples.
    ///
    /// # Errors
    ///
    /// [`WbsnError::WorkerLost`] when a thread decoding shards
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
        let decoded = map_on_workers(self.workers, &mut jobs, |(gw, idxs)| {
            Ok(idxs
                .iter()
                .enumerate()
                .map(|(list, &i)| (i, gw.decode(&packets[i], list)))
                .collect::<Vec<_>>())
        });
        let mut shards: Vec<&mut Gateway> = jobs.into_iter().map(|(gw, _)| gw).collect();
        let mut per_shard = abandon_on_error(&mut shards, decoded)?;
        solve_and_complete(
            &mut self.phase,
            self.workers,
            &mut shards,
            |k, list, at, event| {
                let events = per_shard[k]
                    .get_mut(list)
                    .and_then(|(_, r)| r.as_mut().ok());
                put(events, at, event);
            },
        );
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
    /// The released CS windows are solved in the pool-wide phase, as in
    /// [`ShardedGateway::ingest_batch`].
    ///
    /// # Errors
    ///
    /// [`WbsnError::WorkerLost`] when a thread running shards
    /// panicked.
    pub fn flush_sessions_tagged(&mut self) -> Result<Vec<(u64, Vec<GatewayEvent>)>> {
        let mut shards: Vec<&mut Gateway> = self.shards.iter_mut().collect();
        let decoded = map_on_workers(self.workers, &mut shards, |gw| Ok(gw.decode_flush()));
        let mut per_shard = abandon_on_error(&mut shards, decoded)?;
        solve_and_complete(
            &mut self.phase,
            self.workers,
            &mut shards,
            |k, list, at, event| {
                put(
                    per_shard[k].get_mut(list).map(|(_, events)| events),
                    at,
                    event,
                );
            },
        );
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
    /// [`Gateway::close_session`]. The tail's CS windows are solved in
    /// the pool-wide phase.
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the fan-out calls.
    pub fn close_session(&mut self, session: u64) -> Result<Option<Vec<GatewayEvent>>> {
        let shard = self.shard_of(session);
        let gw = &mut self.shards[shard];
        let Some(mut events) = gw.decode_close(session) else {
            return Ok(None);
        };
        solve_and_complete(
            &mut self.phase,
            self.workers,
            &mut [gw],
            |_, _, at, event| {
                put(Some(&mut events), at, event);
            },
        );
        gw.remove_session(session);
        Ok(Some(events))
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

    /// The handshake of one session — see [`Gateway::handshake`].
    pub fn handshake(&self, session: u64) -> Option<&SessionHandshake> {
        self.owner(session).handshake(session)
    }
}

/// Step 1's outcome: on success the per-shard decodes. On a lost
/// thread, every shard's queued windows are dropped, so no later call
/// completes them, and the error is returned.
fn abandon_on_error<T>(shards: &mut [&mut Gateway], decoded: Result<T>) -> Result<T> {
    if decoded.is_err() {
        for gw in shards.iter_mut() {
            gw.abandon_pending();
        }
    }
    decoded
}

/// Steps 2 and 3 of a call: moves every shard's queued windows into
/// `phase`, solves them on up to `workers` threads, and completes them
/// shard by shard in decode order. `patch(k, list, at, event)` writes
/// the final event of a window of `shards[k]`.
fn solve_and_complete(
    phase: &mut SolvePhase,
    workers: usize,
    shards: &mut [&mut Gateway],
    mut patch: impl FnMut(usize, usize, usize, GatewayEvent),
) {
    for gw in shards.iter_mut() {
        phase.append(&mut gw.phase);
    }
    if phase.is_empty() {
        return;
    }
    let mut solves = phase.run(workers);
    for (k, gw) in shards.iter_mut().enumerate() {
        let queued = gw.pending_len();
        gw.complete(solves.by_ref().take(queued), |list, at, event| {
            patch(k, list, at, event)
        });
    }
    debug_assert!(
        solves.next().is_none(),
        "every queued window is completed exactly once"
    );
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

    /// One lead's CS window `seq` under the handshake `hs`: a ramp
    /// through `hs`'s Φ, or `short` measurements fewer.
    fn cs_window(hs: &SessionHandshake, seq: u32, short: usize) -> Payload {
        let enc = wbsn_cs::CsEncoder::for_lead(
            hs.cs_window as usize,
            hs.cs_measurements as usize,
            hs.cs_d_per_col as usize,
            hs.seed,
            0,
        )
        .unwrap();
        let x: Vec<i32> = (0..hs.cs_window as i32)
            .map(|i| (i * 37 + seq as i32 * 11) % 200 - 100)
            .collect();
        let mut measurements: Vec<i16> =
            enc.encode(&x).unwrap().iter().map(|&v| v as i16).collect();
        measurements.truncate(measurements.len() - short);
        Payload::CsWindow {
            lead: 0,
            window_seq: seq,
            measurements,
        }
    }

    #[test]
    fn batched_windows_complete_in_place_as_the_sequential_gateway_does() {
        let session = 7;
        let base = SessionHandshake::for_config(
            session,
            wbsn_core::monitor::MonitorBuilder::new()
                .build()
                .unwrap()
                .config(),
        );
        let hs = |seed| SessionHandshake {
            cs_window: 256,
            cs_measurements: 96,
            cs_d_per_col: 4,
            seed,
            ..base
        };
        let (first, second) = (hs(1), hs(2));
        let mut framer = LinkFramer::new(session);
        let mut packets = Vec::new();
        framer.frame_handshake(&first, &mut packets).unwrap();
        framer
            .frame_payload(&cs_window(&first, 0, 0), &mut packets)
            .unwrap();
        // One measurement short of Φ's rows: rejected in its place.
        framer
            .frame_payload(&cs_window(&first, 1, 1), &mut packets)
            .unwrap();
        framer
            .frame_payload(&cs_window(&first, 2, 0), &mut packets)
            .unwrap();
        framer.frame_handshake(&second, &mut packets).unwrap();
        framer
            .frame_payload(&cs_window(&second, 3, 0), &mut packets)
            .unwrap();
        let reference: Vec<f64> = (0..4 * 256).map(|i| f64::from(i % 97) - 40.0).collect();
        let cfg = GatewayConfig {
            tap: true,
            ..GatewayConfig::default()
        };

        let mut sequential = Gateway::new(cfg.clone());
        sequential
            .attach_reference(session, 0, reference.clone())
            .unwrap();
        let want: Vec<Result<Vec<GatewayEvent>>> =
            packets.iter().map(|p| sequential.ingest(p)).collect();
        let mut sharded = ShardedGateway::new(cfg, 2).unwrap();
        sharded.attach_reference(session, 0, reference).unwrap();
        let got = sharded.ingest_batch(&packets).unwrap();
        assert_eq!(got, want);

        let events: Vec<GatewayEvent> = got.into_iter().flat_map(Result::unwrap).collect();
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e {
                GatewayEvent::SessionOpened { .. } => "opened",
                GatewayEvent::WindowReconstructed { .. } => "window",
                GatewayEvent::PayloadRejected { .. } => "rejected",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            ["opened", "window", "rejected", "window", "opened", "window"]
        );
        let stats = sharded.stats().unwrap();
        assert_eq!(stats, sequential.stats());
        assert_eq!((stats.windows_reconstructed, stats.items_rejected), (3, 1));
        assert_eq!(sharded.drain_tap().unwrap(), sequential.drain_tap());
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
