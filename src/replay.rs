//! Cohort-level deterministic replay from a `wbsn-archive` recording.
//!
//! [`CohortReplayer`] is the read side of
//! [`CohortRunner::run_recorded`](crate::cohort::CohortRunner::run_recorded):
//! it loads an epoch-block archive and re-derives, **without the live
//! system**, each of the three things the recording promises:
//!
//! 1. [`CohortReplayer::report`] — the run's
//!    [`CohortReport`], rebuilt from
//!    archived observations alone. It is **bit-identical** to the
//!    report the live run returned (same accumulators, same fold,
//!    same floating-point summation order), pinned by
//!    `tests/archive_replay.rs`.
//! 2. [`CohortReplayer::solver_replay`] — CS reconstruction re-run
//!    from the archived measurements at arbitrary solver settings.
//!    At [`SolverReplayConfig::archived`] settings the replayed PRDs
//!    match the live ones bit for bit; at different settings (fewer
//!    iterations, cold starts) the report carries the PRD deltas.
//! 3. [`CohortReplayer::policy_replay`] — an [`AlertPolicy`] re-run
//!    over the archived rhythm stream, comparing the alerts it would
//!    raise with the alerts the live gateway did raise.
//!
//! The replayer is strict: damage anywhere in the stream (truncation,
//! bit rot, malformed payloads) surfaces as a typed error instead of
//! a silently partial report. For forensic recovery of a damaged
//! archive, use [`wbsn_archive::ArchiveReader::into_contents`]
//! directly — every block before the damage is still recoverable.

use crate::cohort::{aggregate, CohortReport, SessionOutcome};
use std::collections::BTreeMap;
use std::io::Read;
use wbsn_archive::reader::read_archive;
use wbsn_archive::replay::{replay_policy, replay_reconstruction};
use wbsn_archive::{
    AlertPolicy, ArchiveBlock, EpochItem, PolicyReplayReport, RunMeta, RunTrailer,
    SolverReplayConfig, SolverReplayReport,
};
use wbsn_core::{Result, WbsnError};
use wbsn_ecg_synth::cohort::RhythmBurden;

/// A loaded cohort recording, ready to replay.
#[derive(Debug, Clone)]
pub struct CohortReplayer {
    meta: RunMeta,
    blocks: Vec<ArchiveBlock>,
}

fn malformed(detail: String) -> WbsnError {
    WbsnError::Malformed {
        what: "cohort replay",
        detail,
    }
}

impl CohortReplayer {
    /// Loads a recording from any [`Read`] source, strictly: any
    /// damage in the stream is an error.
    ///
    /// # Errors
    ///
    /// Typed archive errors (truncation, CRC mismatch, malformed
    /// blocks), unified into [`WbsnError`].
    pub fn from_reader<R: Read>(src: R) -> Result<CohortReplayer> {
        let (meta, blocks) = read_archive(src)?;
        Ok(CohortReplayer { meta, blocks })
    }

    /// Loads a recording from in-memory bytes.
    ///
    /// # Errors
    ///
    /// As [`Self::from_reader`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CohortReplayer> {
        CohortReplayer::from_reader(bytes)
    }

    /// The recording's header metadata (scoring parameters and the
    /// live run's exact solver settings).
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// The decoded blocks, in stream order.
    pub fn blocks(&self) -> &[ArchiveBlock] {
        &self.blocks
    }

    /// Regenerates the live run's [`CohortReport`] from the recorded
    /// observations — bit-identical to the report the live run
    /// returned, at any gateway worker count.
    ///
    /// # Errors
    ///
    /// A structurally inconsistent recording: an unknown stratum
    /// label, an epoch or session end for a session never announced,
    /// or a missing run trailer (an unsealed recording cannot
    /// reproduce the run-wide skip counter).
    pub fn report(&self) -> Result<CohortReport> {
        let mut outcomes: BTreeMap<u64, SessionOutcome> = BTreeMap::new();
        let mut trailer: Option<RunTrailer> = None;
        for block in &self.blocks {
            match block {
                ArchiveBlock::SessionMeta { session, meta } => {
                    let burden = RhythmBurden::ALL
                        .into_iter()
                        .find(|b| b.label() == meta.burden)
                        .ok_or_else(|| {
                            malformed(format!("unknown stratum label {:?}", meta.burden))
                        })?;
                    outcomes.insert(*session, SessionOutcome::new(burden));
                }
                ArchiveBlock::Epoch(rec) => {
                    let Some(o) = outcomes.get_mut(&rec.session) else {
                        return Err(malformed(format!(
                            "epoch block for unannounced session {}",
                            rec.session
                        )));
                    };
                    for item in &rec.items {
                        match item {
                            EpochItem::CsWindow { prd: Some(p), .. } => o.prds.push(*p),
                            EpochItem::Alert { t_s } => o.alerts.push(*t_s),
                            EpochItem::Lost { count, .. } => o.lost_events += u64::from(*count),
                            EpochItem::Recovered { .. } => o.recovered_events += 1,
                            EpochItem::Expired { .. } => o.expired += 1,
                            EpochItem::Unavailable { .. } => o.unavailable += 1,
                            EpochItem::Reboot { .. } => o.reboots += 1,
                            EpochItem::Truth {
                                flutter,
                                start_s,
                                end_s,
                            } => {
                                if *flutter {
                                    o.flutter.push((*start_s, *end_s));
                                } else {
                                    o.episodes.push((*start_s, *end_s));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                ArchiveBlock::SessionEnd { session, end } => {
                    let Some(o) = outcomes.get_mut(session) else {
                        return Err(malformed(format!(
                            "session-end block for unannounced session {session}"
                        )));
                    };
                    o.modeled_s = end.modeled_s;
                    o.battery_days = end.battery_days;
                    o.report = end.report.clone();
                }
                ArchiveBlock::Trailer(t) => trailer = Some(*t),
            }
        }
        let Some(trailer) = trailer else {
            return Err(malformed(
                "recording has no trailer (the run was cut before finishing)".into(),
            ));
        };
        let mut outcomes: Vec<SessionOutcome> = outcomes.into_values().collect();
        for o in &mut outcomes {
            o.finalize(self.meta.min_episode_s);
        }
        Ok(aggregate(
            &outcomes,
            trailer.modeled_hours,
            trailer.windows_skipped,
            self.meta.alert_grace_s,
        ))
    }

    /// Re-runs CS reconstruction from the archived measurements at
    /// `cfg`'s solver settings, reporting per-window PRD deltas
    /// against the recorded live values.
    ///
    /// Windows are solved on scoped worker threads, one per core that
    /// [`std::thread::available_parallelism`] reports (1 if it cannot
    /// tell), all joined before this returns. The report is the same
    /// at any thread count: see [`replay_reconstruction`].
    ///
    /// # Errors
    ///
    /// Solver/matrix construction failures, a recording whose CS
    /// windows precede any handshake (the first such window in archive
    /// order wins), or [`WbsnError::WorkerLost`] for a lost thread.
    pub fn solver_replay(&self, cfg: &SolverReplayConfig) -> Result<SolverReplayReport> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        replay_reconstruction(&self.blocks, cfg, workers)
    }

    /// [`Self::solver_replay`] at the recording's own settings — the
    /// bit-identity check ([`SolverReplayReport::bit_identical`]).
    ///
    /// # Errors
    ///
    /// As [`Self::solver_replay`].
    pub fn solver_replay_archived(&self) -> Result<SolverReplayReport> {
        self.solver_replay(&SolverReplayConfig::archived(&self.meta))
    }

    /// Re-runs `policy` over the archived rhythm stream, comparing
    /// replayed against live alert counts per session.
    pub fn policy_replay(&self, policy: &AlertPolicy) -> PolicyReplayReport {
        replay_policy(&self.blocks, policy)
    }
}
