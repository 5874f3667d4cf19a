//! The node fleet: many monitoring sessions in one process.
//!
//! [`NodeFleet`] multiplexes N independent [`CardiacMonitor`] sessions
//! behind one ingestion front end, run inline on the calling thread.
//! Sessions are stored sorted by id; ids are handed out monotonically
//! and never reused, so lookup is a binary search and iteration order
//! is insertion order.
//!
//! ## The determinism guarantee
//!
//! Sessions are fully isolated and every per-session computation is
//! deterministic, so **a fleet produces byte-identical payloads to the
//! same monitors run sequentially**. Cross-session results come back
//! in a fixed order (batch order for ingestion, ascending session id —
//! which equals insertion order — for flushes and reports), so
//! aggregated counters and energy reports are bit-identical too. The
//! property is pinned by `tests/fleet_determinism.rs`.
//!
//! ```
//! use wbsn_core::fleet::NodeFleet;
//! use wbsn_core::monitor::MonitorBuilder;
//! use wbsn_core::level::ProcessingLevel;
//!
//! let mut fleet = NodeFleet::new();
//! let id = fleet
//!     .add_session(MonitorBuilder::new().level(ProcessingLevel::RawStreaming))
//!     .unwrap();
//! let payloads = fleet.push_block(id, &[0; 3 * 250], 250).unwrap();
//! assert!(!payloads.is_empty());
//! let report = fleet.energy_report();
//! assert_eq!(report.sessions, 1);
//! ```

use crate::energy::EnergyReport;
use crate::level::{OperatingMode, ProcessingLevel};
use crate::monitor::{ActivityCounters, CardiacMonitor, MonitorBuilder};
use crate::payload::Payload;
use crate::{Result, WbsnError};

/// Opaque, process-unique session handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// Raw id value, stable for logging: ids are handed out
    /// monotonically and never reused, so ascending raw ids are a
    /// fleet's insertion order.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for SessionId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Aggregated fleet energy view (sums and extremes over the sessions'
/// individual [`EnergyReport`]s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEnergyReport {
    /// Sessions aggregated.
    pub sessions: usize,
    /// Element-wise summed activity (`seconds` counts session-seconds).
    pub counters: ActivityCounters,
    /// Sum of per-session average node power, mW.
    pub total_power_mw: f64,
    /// Mean per-session average node power, mW.
    pub mean_power_mw: f64,
    /// Shortest projected battery lifetime over the fleet, days.
    pub min_lifetime_days: f64,
}

struct Session {
    id: SessionId,
    monitor: CardiacMonitor,
}

impl core::fmt::Debug for Session {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("level", &self.monitor.config().level)
            .finish()
    }
}

/// N independent monitoring sessions behind one ingestion front end,
/// run inline on the calling thread.
#[derive(Debug, Default)]
pub struct NodeFleet {
    // Sorted by id; ids are assigned monotonically, so insertion order
    // and ascending-id order coincide.
    sessions: Vec<Session>,
    next_id: u64,
}

impl NodeFleet {
    /// Empty fleet.
    pub fn new() -> Self {
        NodeFleet::default()
    }

    /// Empty fleet with room for `n` sessions.
    pub fn with_capacity(n: usize) -> Self {
        NodeFleet {
            sessions: Vec::with_capacity(n),
            next_id: 0,
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Live session ids in insertion order.
    pub fn session_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.sessions.iter().map(|s| s.id)
    }

    /// Stores a monitor under the next id; ids only grow, so pushing
    /// keeps `sessions` sorted.
    fn insert(&mut self, monitor: CardiacMonitor) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.sessions.push(Session { id, monitor });
        id
    }

    /// Builds and registers a new session.
    ///
    /// # Errors
    ///
    /// Propagates builder validation failures; the fleet is unchanged
    /// on error.
    pub fn add_session(&mut self, builder: MonitorBuilder) -> Result<SessionId> {
        let monitor = builder.build()?;
        Ok(self.insert(monitor))
    }

    /// Builds and registers `n` identically-configured sessions.
    ///
    /// # Errors
    ///
    /// Propagates builder validation failures; no sessions are added
    /// on error.
    pub fn add_sessions(&mut self, builder: &MonitorBuilder, n: usize) -> Result<Vec<SessionId>> {
        // Build everything first so a failure adds nothing.
        let monitors: Vec<CardiacMonitor> = (0..n)
            .map(|_| builder.clone().build())
            .collect::<Result<_>>()?;
        Ok(monitors.into_iter().map(|m| self.insert(m)).collect())
    }

    fn index_of(&self, id: SessionId) -> Option<usize> {
        self.sessions.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Removes a session, returning its monitor so the caller can
    /// flush it; `None` when the id is unknown.
    pub fn remove_session(&mut self, id: SessionId) -> Option<CardiacMonitor> {
        let idx = self.index_of(id)?;
        Some(self.sessions.remove(idx).monitor)
    }

    /// Read access to one session.
    pub fn session(&self, id: SessionId) -> Option<&CardiacMonitor> {
        self.index_of(id).map(|i| &self.sessions[i].monitor)
    }

    /// Mutable access to one session.
    pub fn session_mut(&mut self, id: SessionId) -> Option<&mut CardiacMonitor> {
        self.index_of(id)
            .map(move |i| &mut self.sessions[i].monitor)
    }

    fn monitor_mut(&mut self, id: SessionId) -> Result<&mut CardiacMonitor> {
        self.session_mut(id)
            .ok_or(WbsnError::UnknownSession { id: id.raw() })
    }

    /// Pushes one frame into one session.
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] for a stale id, plus the
    /// session's own ingestion errors.
    pub fn push_frame(&mut self, id: SessionId, frame: &[i32]) -> Result<Vec<Payload>> {
        self.monitor_mut(id)?.try_push(frame)
    }

    /// Batched ingestion into one session (see
    /// [`CardiacMonitor::push_block`]). Routes through the stage's
    /// block kernel: in the steady state (warm session, no payload
    /// due) this performs **zero heap allocations per frame** — pinned
    /// by the counting-allocator harness in
    /// `tests/alloc_steady_state.rs`.
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] for a stale id, plus the
    /// session's own ingestion errors.
    pub fn push_block(
        &mut self,
        id: SessionId,
        frames: &[i32],
        n_frames: usize,
    ) -> Result<Vec<Payload>> {
        self.monitor_mut(id)?.push_block(frames, n_frames)
    }

    /// Cross-session batched ingestion: entries are processed in batch
    /// order; each entry's sample count must be a multiple of its
    /// session's lead count (the frame count is derived per session).
    /// Returns one `(id, payloads)` per entry, in batch order.
    ///
    /// ```
    /// use wbsn_core::fleet::{NodeFleet, SessionId};
    /// use wbsn_core::monitor::MonitorBuilder;
    /// use wbsn_core::level::ProcessingLevel;
    ///
    /// let mut fleet = NodeFleet::new();
    /// let ids = fleet
    ///     .add_sessions(
    ///         &MonitorBuilder::new().level(ProcessingLevel::RawStreaming),
    ///         3,
    ///     )
    ///     .unwrap();
    /// // One second of zeroed 3-lead signal for every session.
    /// let frames = [0i32; 3 * 250];
    /// let batch: Vec<(SessionId, &[i32])> =
    ///     ids.iter().map(|&id| (id, &frames[..])).collect();
    /// let results = fleet.ingest_batch(&batch).unwrap();
    /// assert_eq!(results.len(), 3);
    /// assert!(results.iter().all(|(_, payloads)| !payloads.is_empty()));
    /// ```
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] and shape mismatches
    /// ([`WbsnError::InvalidParameter`]) are validated upfront, before
    /// any samples land — a malformed batch leaves every session
    /// untouched. A mid-batch stage failure (none of the current
    /// stages can raise one) aborts with earlier entries applied.
    pub fn ingest_batch(
        &mut self,
        batch: &[(SessionId, &[i32])],
    ) -> Result<Vec<(SessionId, Vec<Payload>)>> {
        for &(id, frames) in batch {
            let monitor = self
                .session(id)
                .ok_or(WbsnError::UnknownSession { id: id.raw() })?;
            let n_leads = monitor.config().n_leads;
            if frames.len() % n_leads != 0 {
                return Err(WbsnError::InvalidParameter {
                    what: "frames",
                    detail: format!(
                        "entry for {id} has {} samples, not a multiple of its {n_leads} leads",
                        frames.len()
                    ),
                });
            }
        }
        batch
            .iter()
            .map(|&(id, frames)| {
                let monitor = self.monitor_mut(id)?;
                let n_frames = frames.len() / monitor.config().n_leads;
                Ok((id, monitor.push_block(frames, n_frames)?))
            })
            .collect()
    }

    /// Switches one session's operating mode live — the per-session
    /// reconfigure command of the power governor
    /// ([`crate::governor`]). Returns the boundary flush payloads; the
    /// switched session is bit-identical to a fresh one at the new
    /// mode from the same boundary (see
    /// [`CardiacMonitor::switch_mode`]), so fleet determinism is
    /// preserved.
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] for a stale id, plus mode
    /// validation errors (the session is untouched on error).
    pub fn switch_mode(&mut self, id: SessionId, mode: OperatingMode) -> Result<Vec<Payload>> {
        self.monitor_mut(id)?.switch_mode(mode)
    }

    /// Renegotiates one session's CS compression ratio live — the
    /// node-side application of a gateway downlink
    /// [`SetCr`](crate::link::DirectiveAction::SetCr) directive,
    /// routed to the owning session. Returns whether the running
    /// stage applied it now (see [`CardiacMonitor::switch_cs_cr`]).
    ///
    /// # Errors
    ///
    /// [`WbsnError::UnknownSession`] for a stale id, plus ratio
    /// validation errors (the session is untouched on error).
    pub fn switch_cs_cr(&mut self, id: SessionId, cr_percent: f64) -> Result<bool> {
        self.monitor_mut(id)?.switch_cs_cr(cr_percent)
    }

    /// Switches one session's processing level, keeping its powered
    /// lead count (see [`Self::switch_mode`]).
    ///
    /// # Errors
    ///
    /// As [`Self::switch_mode`].
    pub fn switch_level(&mut self, id: SessionId, level: ProcessingLevel) -> Result<Vec<Payload>> {
        let monitor = self.monitor_mut(id)?;
        let active_leads = monitor.active_leads();
        monitor.switch_mode(OperatingMode {
            level,
            active_leads,
        })
    }

    /// Flushes every session, returning whatever payloads were still
    /// buffered, tagged by session (insertion order, non-empty only).
    ///
    /// # Errors
    ///
    /// The first stage failure aborts the sweep.
    pub fn flush_all(&mut self) -> Result<Vec<(SessionId, Vec<Payload>)>> {
        let mut out = Vec::with_capacity(self.sessions.len());
        for s in &mut self.sessions {
            let payloads = s.monitor.flush()?;
            if !payloads.is_empty() {
                out.push((s.id, payloads));
            }
        }
        Ok(out)
    }

    /// Element-wise sum of every session's [`ActivityCounters`] in
    /// insertion order (`seconds` therefore counts session-seconds).
    pub fn aggregate_counters(&self) -> ActivityCounters {
        self.sessions
            .iter()
            .fold(ActivityCounters::default(), |acc, s| {
                acc.merged(&s.monitor.counters())
            })
    }

    /// Per-session energy reports (insertion order), priced on the
    /// default node model.
    pub fn session_energy_reports(&self) -> Vec<(SessionId, EnergyReport)> {
        self.sessions
            .iter()
            .map(|s| (s.id, s.monitor.energy_report()))
            .collect()
    }

    /// Aggregated fleet energy report on the default node model.
    pub fn energy_report(&self) -> FleetEnergyReport {
        let reports = self.session_energy_reports();
        let sessions = reports.len();
        let total_power_mw: f64 = reports
            .iter()
            .map(|(_, e)| e.breakdown.avg_power_mw())
            .sum();
        let min_lifetime_days = reports
            .iter()
            .map(|(_, e)| e.lifetime_days)
            .fold(f64::INFINITY, f64::min);
        FleetEnergyReport {
            sessions,
            counters: self.aggregate_counters(),
            total_power_mw,
            mean_power_mw: if sessions == 0 {
                0.0
            } else {
                total_power_mw / sessions as f64
            },
            min_lifetime_days: if sessions == 0 {
                0.0
            } else {
                min_lifetime_days
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::ProcessingLevel;
    use wbsn_ecg_synth::noise::NoiseConfig;
    use wbsn_ecg_synth::RecordBuilder;

    fn interleaved(seed: u64, secs: f64) -> (Vec<i32>, usize) {
        let rec = RecordBuilder::new(seed)
            .duration_s(secs)
            .n_leads(3)
            .noise(NoiseConfig::ambulatory(22.0))
            .build();
        let n = rec.n_samples();
        let mut buf = Vec::with_capacity(n * 3);
        for i in 0..n {
            for l in 0..3 {
                buf.push(rec.lead(l)[i]);
            }
        }
        (buf, n)
    }

    #[test]
    fn sessions_are_isolated_and_removable() {
        let mut fleet = NodeFleet::new();
        let a = fleet
            .add_session(MonitorBuilder::new().level(ProcessingLevel::RawStreaming))
            .unwrap();
        let b = fleet
            .add_session(MonitorBuilder::new().level(ProcessingLevel::Delineated))
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(fleet.len(), 2);
        let (buf, n) = interleaved(3, 2.0);
        fleet.push_block(a, &buf, n).unwrap();
        assert_eq!(
            fleet.session(a).unwrap().counters().samples_in,
            3 * n as u64
        );
        assert_eq!(fleet.session(b).unwrap().counters().samples_in, 0);
        let removed = fleet.remove_session(a).unwrap();
        assert_eq!(removed.counters().samples_in, 3 * n as u64);
        assert_eq!(fleet.len(), 1);
        assert!(matches!(
            fleet.push_frame(a, &[0, 0, 0]),
            Err(WbsnError::UnknownSession { .. })
        ));
    }

    #[test]
    fn remove_session_returns_the_monitor() {
        let mut fleet = NodeFleet::new();
        let id = fleet.add_session(MonitorBuilder::new()).unwrap();
        fleet.push_block(id, &[0; 9], 3).unwrap();
        let monitor = fleet.remove_session(id).unwrap();
        assert_eq!(monitor.counters().samples_in, 9);
        assert!(fleet.is_empty());
        assert!(fleet.remove_session(id).is_none());
        assert!(matches!(
            fleet.push_frame(id, &[0, 0, 0]),
            Err(WbsnError::UnknownSession { id: raw }) if raw == id.raw()
        ));
    }

    #[test]
    fn insert_keeps_sessions_sorted_by_id() {
        let mut fleet = NodeFleet::new();
        let ids = fleet.add_sessions(&MonitorBuilder::new(), 4).unwrap();
        fleet.remove_session(ids[1]).unwrap();
        let late = fleet.add_session(MonitorBuilder::new()).unwrap();
        // Ids are never reused: the newcomer sorts after every survivor.
        let raw: Vec<u64> = fleet.session_ids().map(SessionId::raw).collect();
        assert_eq!(raw, vec![0, 2, 3, 4]);
        assert_eq!(late.raw(), 4);
        assert!(fleet.session(ids[1]).is_none());
        assert!(fleet.session(late).is_some());
    }

    #[test]
    fn add_sessions_is_all_or_nothing() {
        let mut fleet = NodeFleet::new();
        let bad = MonitorBuilder::new().n_leads(0);
        assert!(fleet.add_sessions(&bad, 5).is_err());
        assert!(fleet.is_empty());
        let ids = fleet.add_sessions(&MonitorBuilder::new(), 5).unwrap();
        assert_eq!(ids.len(), 5);
        assert_eq!(fleet.len(), 5);
    }

    #[test]
    fn aggregate_counters_sum_sessions() {
        let mut fleet = NodeFleet::new();
        let ids = fleet.add_sessions(&MonitorBuilder::new(), 4).unwrap();
        let (buf, n) = interleaved(8, 4.0);
        for &id in &ids {
            fleet.push_block(id, &buf, n).unwrap();
        }
        fleet.flush_all().unwrap();
        let agg = fleet.aggregate_counters();
        assert_eq!(agg.samples_in, 4 * 3 * n as u64);
        assert!((agg.seconds - 4.0 * 4.0).abs() < 0.1);
        let one = fleet.session(ids[0]).unwrap().counters();
        assert_eq!(agg.beats, 4 * one.beats);
    }

    #[test]
    fn energy_report_aggregates() {
        let mut fleet = NodeFleet::new();
        let ids = fleet.add_sessions(&MonitorBuilder::new(), 3).unwrap();
        let (buf, n) = interleaved(9, 10.0);
        for &id in &ids {
            fleet.push_block(id, &buf, n).unwrap();
        }
        let report = fleet.energy_report();
        assert_eq!(report.sessions, 3);
        assert!(report.total_power_mw > 0.0);
        assert!(
            (report.mean_power_mw - report.total_power_mw / 3.0).abs() < 1e-12,
            "mean {}",
            report.mean_power_mw
        );
        assert!(report.min_lifetime_days > 0.0);
    }

    #[test]
    fn empty_fleet_reports_zero() {
        let fleet = NodeFleet::new();
        let report = fleet.energy_report();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.mean_power_mw, 0.0);
        assert_eq!(report.min_lifetime_days, 0.0);
        assert_eq!(fleet.aggregate_counters(), ActivityCounters::default());
    }

    #[test]
    fn ingest_batch_matches_per_session_push_block() {
        let (buf, n) = interleaved(21, 3.0);
        let mut a = NodeFleet::new();
        let mut b = NodeFleet::new();
        let ids_a = a.add_sessions(&MonitorBuilder::new(), 3).unwrap();
        let ids_b = b.add_sessions(&MonitorBuilder::new(), 3).unwrap();
        let batch: Vec<(SessionId, &[i32])> = ids_a.iter().map(|&id| (id, &buf[..])).collect();
        let batched = a.ingest_batch(&batch).unwrap();
        for (i, &id) in ids_b.iter().enumerate() {
            let direct = b.push_block(id, &buf, n).unwrap();
            assert_eq!(batched[i].1, direct);
        }
        assert_eq!(a.aggregate_counters(), b.aggregate_counters());
    }

    #[test]
    fn ingest_batch_rejects_unknown_ids_before_ingesting() {
        let (buf, _) = interleaved(22, 1.0);
        let mut fleet = NodeFleet::new();
        let id = fleet.add_session(MonitorBuilder::new()).unwrap();
        let ghost = SessionId(99);
        let batch: Vec<(SessionId, &[i32])> = vec![(id, &buf[..]), (ghost, &buf[..])];
        assert!(matches!(
            fleet.ingest_batch(&batch),
            Err(WbsnError::UnknownSession { id: 99 })
        ));
        // Nothing landed, not even the valid first entry.
        assert_eq!(fleet.session(id).unwrap().counters().samples_in, 0);
    }

    #[test]
    fn ingest_batch_rejects_bad_shapes_before_ingesting() {
        let mut fleet = NodeFleet::new();
        let ids = fleet.add_sessions(&MonitorBuilder::new(), 2).unwrap();
        let good = [0i32; 9];
        let bad = [0i32; 10]; // not a multiple of 3 leads
        let batch: Vec<(SessionId, &[i32])> = vec![(ids[0], &good[..]), (ids[1], &bad[..])];
        assert!(matches!(
            fleet.ingest_batch(&batch),
            Err(WbsnError::InvalidParameter { what: "frames", .. })
        ));
        // The malformed batch left every session untouched — no
        // payloads were produced and then lost to the abort.
        assert_eq!(fleet.session(ids[0]).unwrap().counters().samples_in, 0);
        assert_eq!(fleet.session(ids[1]).unwrap().counters().samples_in, 0);
    }

    #[test]
    fn fleet_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CardiacMonitor>();
        assert_send::<MonitorBuilder>();
        assert_send::<Payload>();
        assert_send::<NodeFleet>();
        assert_send::<crate::stage::RawForwarder>();
        assert_send::<crate::stage::CsStage>();
        assert_send::<crate::stage::DelineationStage>();
        assert_send::<crate::stage::ClassifyStage>();
        assert_send::<Box<dyn crate::stage::PipelineStage>>();
    }
}
