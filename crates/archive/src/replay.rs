//! Deterministic replay from archived blocks.
//!
//! Two reprocessing loops run straight off an archive, no live system
//! required:
//!
//! - [`replay_reconstruction`] re-runs CS reconstruction from the
//!   archived measurements. At the archived settings it reproduces the
//!   live PRDs **bit for bit** (same matrices through the same shared
//!   [`MatrixCache`], same warm-start state evolution, same arrival
//!   order); at different settings (fewer iterations, cold starts, a
//!   different probing stride) it reports per-window PRD deltas
//!   against the recorded live values — the solver-regression loop
//!   ROADMAP item 5 asks for.
//! - [`replay_policy`] re-runs an alert policy over the archived
//!   rhythm stream and compares the alerts it would have raised with
//!   the alerts the live gateway did raise.

use crate::format::{ArchiveBlock, EpochItem};
use crate::ArchiveError;
use std::collections::BTreeMap;
use std::sync::Arc;
use wbsn_core::link::SessionHandshake;
use wbsn_core::Result;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Fista, FistaConfig, FistaScratch, FistaState};
use wbsn_gateway::{MatrixCache, MatrixKey};
use wbsn_sigproc::stats::prd_percent;

/// Solver settings for a reconstruction replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverReplayConfig {
    /// FISTA configuration to solve with.
    pub solver: FistaConfig,
    /// Warm-start each stream's solves from its previous window.
    pub warm_start: bool,
    /// Solve every k-th window (mirrors the gateway's periodic
    /// probing; values of 0 are clamped to 1).
    pub reconstruct_every: u32,
}

impl SolverReplayConfig {
    /// The exact settings of the archived live run — replaying with
    /// these reproduces the archived PRDs bit for bit.
    pub fn archived(meta: &crate::format::RunMeta) -> Self {
        SolverReplayConfig {
            solver: meta.solver,
            warm_start: meta.warm_start,
            reconstruct_every: meta.reconstruct_every,
        }
    }
}

/// Outcome of a reconstruction replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverReplayReport {
    /// CS-window items seen in the archive.
    pub windows_seen: u64,
    /// Windows this replay solved.
    pub windows_solved: u64,
    /// Windows this replay skipped (periodic probing).
    pub windows_skipped: u64,
    /// Total FISTA iterations spent.
    pub solver_iters: u64,
    /// Windows where both the live run and this replay scored a PRD.
    pub compared: u64,
    /// Mean live PRD over the compared windows (%).
    pub live_prd_mean: f64,
    /// Mean replayed PRD over the compared windows (%).
    pub replayed_prd_mean: f64,
    /// Mean of `replayed − live` over the compared windows.
    pub mean_delta: f64,
    /// Largest `|replayed − live|` over the compared windows.
    pub max_abs_delta: f64,
    /// Whether every compared PRD matched the live value bit for bit.
    pub bit_identical: bool,
}

/// Per-session reconstruction state, mirroring the live gateway's
/// `SessionState` solver fields exactly.
#[derive(Debug, Default)]
struct SessStream {
    handshake: Option<SessionHandshake>,
    encoders: Vec<Option<Arc<CsEncoder>>>,
    fista: Vec<FistaState>,
    /// Per-lead PRD reference: `(offset, samples)`.
    refs: BTreeMap<u8, (u64, Vec<f64>)>,
}

impl SessStream {
    /// Mirrors the gateway's `install_handshake`: a changed handshake
    /// invalidates matrices and warm state, an identical re-announce
    /// (post-reboot) does not. References survive either way — the
    /// recorded `Reference` item stream replays the attachments.
    fn install_handshake(&mut self, hs: SessionHandshake) {
        if self.handshake != Some(hs) {
            self.encoders.clear();
            self.fista.clear();
        }
        self.handshake = Some(hs);
    }
}

/// Re-runs CS reconstruction from archived measurements at `cfg`'s
/// settings, comparing per-window PRD with the archived live values.
pub fn replay_reconstruction(
    blocks: &[ArchiveBlock],
    cfg: &SolverReplayConfig,
) -> Result<SolverReplayReport> {
    let cache = MatrixCache::new();
    let fista = Fista::new(cfg.solver);
    let every = cfg.reconstruct_every.max(1);
    let mut sessions: BTreeMap<u64, SessStream> = BTreeMap::new();
    let mut report = SolverReplayReport {
        windows_seen: 0,
        windows_solved: 0,
        windows_skipped: 0,
        solver_iters: 0,
        compared: 0,
        live_prd_mean: 0.0,
        replayed_prd_mean: 0.0,
        mean_delta: 0.0,
        max_abs_delta: 0.0,
        bit_identical: true,
    };
    let mut live_sum = 0.0;
    let mut replayed_sum = 0.0;
    let mut delta_sum = 0.0;
    let mut y_scratch: Vec<f64> = Vec::new();
    let mut scratch = FistaScratch::new();
    for block in blocks {
        let ArchiveBlock::Epoch(rec) = block else {
            continue;
        };
        let sess = sessions.entry(rec.session).or_default();
        for item in &rec.items {
            match item {
                EpochItem::Handshake(hs) => sess.install_handshake(*hs),
                EpochItem::Reference {
                    lead,
                    offset,
                    samples,
                } => {
                    let as_f64: Vec<f64> = samples.iter().map(|&v| f64::from(v)).collect();
                    sess.refs.insert(*lead, (*offset, as_f64));
                }
                EpochItem::CsWindow {
                    lead,
                    window_seq,
                    prd: live_prd,
                    measurements,
                    ..
                } => {
                    report.windows_seen += 1;
                    if every > 1 && window_seq % every != 0 {
                        report.windows_skipped += 1;
                        continue;
                    }
                    let Some(hs) = sess.handshake else {
                        return Err(ArchiveError::Malformed {
                            what: "archive replay",
                            detail: format!(
                                "session {} has a CS window before any handshake",
                                rec.session
                            ),
                        }
                        .into());
                    };
                    let lead_ix = *lead as usize;
                    if sess.encoders.len() <= lead_ix {
                        sess.encoders.resize(lead_ix + 1, None);
                        sess.fista.resize(lead_ix + 1, FistaState::new());
                    }
                    let enc = match &sess.encoders[lead_ix] {
                        Some(enc) => Arc::clone(enc),
                        None => {
                            let enc = cache.get_or_build(MatrixKey {
                                window: hs.cs_window,
                                measurements: hs.cs_measurements,
                                d_per_col: hs.cs_d_per_col,
                                seed: hs.seed,
                                lead: *lead,
                            })?;
                            sess.encoders[lead_ix] = Some(Arc::clone(&enc));
                            enc
                        }
                    };
                    // Mirror the live pipeline's value path exactly:
                    // i16 → i64 (reassembly) → f64 (solver front end).
                    y_scratch.clear();
                    y_scratch.extend(measurements.iter().map(|&v| v as i64 as f64));
                    let warm = if cfg.warm_start {
                        sess.fista.get_mut(lead_ix)
                    } else {
                        None
                    };
                    let solve =
                        fista.solve_with(&mut scratch, enc.sensing_matrix(), &y_scratch, warm)?;
                    report.windows_solved += 1;
                    report.solver_iters += solve.iters as u64;
                    let n = hs.cs_window as usize;
                    let replayed_prd = sess.refs.get(lead).and_then(|(offset, samples)| {
                        let start =
                            (u64::from(*window_seq) * n as u64).checked_sub(*offset)? as usize;
                        let orig = samples.get(start..start + n)?;
                        if orig.iter().all(|&v| v == 0.0) {
                            return None;
                        }
                        Some(prd_percent(orig, &solve.x))
                    });
                    if let (Some(live), Some(replayed)) = (live_prd, replayed_prd) {
                        report.compared += 1;
                        live_sum += live;
                        replayed_sum += replayed;
                        let delta = replayed - live;
                        delta_sum += delta;
                        if delta.abs() > report.max_abs_delta {
                            report.max_abs_delta = delta.abs();
                        }
                        if live.to_bits() != replayed.to_bits() {
                            report.bit_identical = false;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if report.compared > 0 {
        let n = report.compared as f64;
        report.live_prd_mean = live_sum / n;
        report.replayed_prd_mean = replayed_sum / n;
        report.mean_delta = delta_sum / n;
    }
    Ok(report)
}

/// An alert-onset policy over the archived rhythm stream.
///
/// The live gateway's policy is the neutral element — alert on every
/// AF activation ([`AlertPolicy::default`]); stricter policies gate
/// the onset on burden and persistence, the knobs alert-fatigue
/// tuning turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertPolicy {
    /// Minimum AF burden (%) for a rhythm event to arm the onset.
    pub min_burden_pct: u8,
    /// Consecutive qualifying events required to fire (values of 0
    /// are clamped to 1).
    pub onset_consecutive: u32,
}

impl Default for AlertPolicy {
    /// The live gateway's behaviour: any AF activation alerts.
    fn default() -> Self {
        AlertPolicy {
            min_burden_pct: 0,
            onset_consecutive: 1,
        }
    }
}

/// One session's live-vs-replayed alert counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySessionOutcome {
    /// The session.
    pub session: u64,
    /// Alerts the live gateway raised.
    pub live_alerts: u64,
    /// Alerts the replayed policy raises.
    pub replayed_alerts: u64,
}

/// Outcome of a policy replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyReplayReport {
    /// Sessions with any rhythm or alert history.
    pub sessions: u64,
    /// Total live alerts.
    pub live_alerts: u64,
    /// Total replayed alerts.
    pub replayed_alerts: u64,
    /// Sessions whose alert count changed under the policy.
    pub changed_sessions: u64,
    /// Per-session outcomes, ascending by session id.
    pub per_session: Vec<PolicySessionOutcome>,
}

/// Re-runs `policy` over the archived rhythm stream.
pub fn replay_policy(blocks: &[ArchiveBlock], policy: &AlertPolicy) -> PolicyReplayReport {
    let onset = policy.onset_consecutive.max(1);
    #[derive(Default)]
    struct Acc {
        live: u64,
        replayed: u64,
        in_episode: bool,
        streak: u32,
    }
    let mut sessions: BTreeMap<u64, Acc> = BTreeMap::new();
    for block in blocks {
        let ArchiveBlock::Epoch(rec) = block else {
            continue;
        };
        for item in &rec.items {
            match item {
                EpochItem::Alert { .. } => {
                    sessions.entry(rec.session).or_default().live += 1;
                }
                EpochItem::Rhythm {
                    af_burden_pct,
                    af_active,
                    ..
                } => {
                    let acc = sessions.entry(rec.session).or_default();
                    if !af_active {
                        acc.in_episode = false;
                        acc.streak = 0;
                        continue;
                    }
                    if acc.in_episode {
                        continue;
                    }
                    if *af_burden_pct >= policy.min_burden_pct {
                        acc.streak += 1;
                    } else {
                        acc.streak = 0;
                    }
                    if acc.streak >= onset {
                        acc.replayed += 1;
                        acc.in_episode = true;
                        acc.streak = 0;
                    }
                }
                _ => {}
            }
        }
    }
    let mut report = PolicyReplayReport {
        sessions: sessions.len() as u64,
        live_alerts: 0,
        replayed_alerts: 0,
        changed_sessions: 0,
        per_session: Vec::with_capacity(sessions.len()),
    };
    for (session, acc) in sessions {
        report.live_alerts += acc.live;
        report.replayed_alerts += acc.replayed;
        if acc.live != acc.replayed {
            report.changed_sessions += 1;
        }
        report.per_session.push(PolicySessionOutcome {
            session,
            live_alerts: acc.live,
            replayed_alerts: acc.replayed,
        });
    }
    report
}
