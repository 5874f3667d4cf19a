//! Deterministic replay from archived blocks.
//!
//! Two reprocessing loops run straight off an archive, no live system
//! required:
//!
//! - [`replay_reconstruction`] re-runs CS reconstruction from the
//!   archived measurements. At the archived settings it reproduces the
//!   live PRDs **bit for bit** (same matrices and Lipschitz constants
//!   through a shared [`MatrixCache`], same solver settings, the
//!   continuation schedule included); at different settings (fewer
//!   iterations, another tolerance or schedule, a different probing
//!   stride) it reports per-window PRD deltas against the recorded live
//!   values, as means, 95th percentiles and the largest change — the
//!   loop `examples/solver_frontier.rs` chooses solver defaults on.
//!
//!   Windows, not sessions, are the parallel unit. A cheap sequential
//!   pre-pass walks the archive in order, keeping each session's
//!   handshake and per-lead matrices in the gateway's own
//!   [`SessionMatrices`] and its PRD references as the live gateway
//!   kept them (each window is scored against the slice the
//!   gateway's [`reference_window`] picks), and queues every window it
//!   must solve in one [`SolvePhase`]; the phase solves the queue on
//!   the worker threads, four windows of one Φ per pass, each bit for
//!   bit its one-window solve. The per-window PRDs are then folded in
//!   archive order, which keeps the report bit-identical at any worker
//!   count.
//! - [`replay_policy`] re-runs an alert policy over the archived
//!   rhythm stream and compares the alerts it would have raised with
//!   the alerts the live gateway did raise.

use crate::format::{ArchiveBlock, EpochItem};
use crate::ArchiveError;
use std::collections::BTreeMap;
use wbsn_core::Result;
use wbsn_cs::solver::FistaConfig;
use wbsn_gateway::{
    probes_window, reference_window, MatrixCache, SessionMatrices, SolvePhase, TapItem,
};
use wbsn_sigproc::stats::{percentile95_sorted, prd_percent};

/// Solver settings for a reconstruction replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverReplayConfig {
    /// FISTA configuration to solve with.
    pub solver: FistaConfig,
    /// Solve every k-th window, by the gateway's own
    /// [`probes_window`] rule (0 reads as 1).
    pub reconstruct_every: u32,
}

impl SolverReplayConfig {
    /// The exact settings of the archived live run — replaying with
    /// these reproduces the archived PRDs bit for bit.
    pub fn archived(meta: &crate::format::RunMeta) -> Self {
        SolverReplayConfig {
            solver: meta.solver,
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
    /// Nearest-rank 95th percentile of the live PRDs over the compared
    /// windows (%), as the cohort report computes its PRD p95.
    pub live_prd_p95: f64,
    /// Nearest-rank 95th percentile of the replayed PRDs over the
    /// compared windows (%).
    pub replayed_prd_p95: f64,
    /// Nearest-rank 95th percentile of `|replayed − live|` over the
    /// compared windows.
    pub p95_abs_delta: f64,
    /// Whether every compared PRD matched the live value bit for bit.
    pub bit_identical: bool,
}

/// Per-session reconstruction state: the handshake and per-lead Φ
/// through the gateway's own [`SessionMatrices`], and the PRD
/// references, each `(offset, samples)`. References survive a
/// handshake change, as on the gateway: the recorded `Reference` items
/// replay the attachments.
#[derive(Debug, Default)]
struct SessStream<'a> {
    matrices: SessionMatrices,
    refs: BTreeMap<u8, (u64, &'a [i32])>,
}

/// Windows one solve phase takes at a time: about one live pump's worth,
/// enough to keep every thread's lanes full while bounding the queued
/// measurements and the solved samples waiting for their PRD.
const WINDOWS_PER_RUN: usize = 160;

/// A queued window: what its replayed PRD is computed and compared
/// against once it is solved.
#[derive(Debug)]
struct QueuedWindow<'a> {
    window_seq: u32,
    /// Window length of its handshake.
    n: usize,
    live_prd: Option<f64>,
    /// Its lead's PRD reference when it was read.
    reference: Option<(u64, &'a [i32])>,
}

/// The report's counters and the compared PRDs, in archive order.
#[derive(Debug, Default)]
struct Fold {
    seen: u64,
    solved: u64,
    skipped: u64,
    iters: u64,
    /// `(live, replayed)` for each window both runs scored.
    compared: Vec<(f64, f64)>,
    /// A reference window as `f64`, reused.
    orig: Vec<f64>,
}

impl Fold {
    /// Solves the queued windows on up to `workers` threads and folds
    /// their results in queue order.
    fn solve(
        &mut self,
        phase: &mut SolvePhase,
        queued: &mut Vec<QueuedWindow<'_>>,
        workers: usize,
    ) -> Result<()> {
        for (window, solve) in queued.drain(..).zip(phase.run(workers)) {
            let solve = solve?;
            self.solved += 1;
            self.iters += solve.iters as u64;
            let replayed = window
                .reference
                .and_then(|(offset, samples)| {
                    reference_window(samples, offset, window.window_seq, window.n)
                })
                .map(|orig| {
                    self.orig.clear();
                    self.orig.extend(orig.iter().map(|&v| f64::from(v)));
                    prd_percent(&self.orig, &solve.x)
                });
            if let (Some(live), Some(replayed)) = (window.live_prd, replayed) {
                self.compared.push((live, replayed));
            }
        }
        Ok(())
    }
}

/// Re-runs CS reconstruction from archived measurements at `cfg`'s
/// settings, comparing per-window PRD with the archived live values.
///
/// A sequential pre-pass reads the archive in order and queues every
/// window to solve; the queue is solved in [`SolvePhase`] runs of up to
/// `WINDOWS_PER_RUN` windows on up to `workers` threads (0 counts as
/// 1), and the results are folded in archive order, so the report is
/// bit-identical at any worker count.
///
/// # Errors
///
/// The error of the first failing CS window in archive order: a window
/// before its session's handshake, a matrix that cannot be built, or
/// a window the solver rejects; or `WbsnError::WorkerLost` for a
/// lost thread.
pub fn replay_reconstruction(
    blocks: &[ArchiveBlock],
    cfg: &SolverReplayConfig,
    workers: usize,
) -> Result<SolverReplayReport> {
    let cache = MatrixCache::new();
    let mut phase = SolvePhase::new(cfg.solver);
    let mut sessions: BTreeMap<u64, SessStream<'_>> = BTreeMap::new();
    let mut queued = Vec::new();
    let mut fold = Fold::default();
    for block in blocks {
        let ArchiveBlock::Epoch(rec) = block else {
            continue;
        };
        let sess = sessions.entry(rec.session).or_default();
        for item in &rec.items {
            match item {
                EpochItem::Gateway(TapItem::Handshake(hs)) => {
                    sess.matrices.install(*hs);
                }
                EpochItem::Reference {
                    lead,
                    offset,
                    samples,
                } => {
                    sess.refs.insert(*lead, (*offset, samples));
                }
                EpochItem::Gateway(TapItem::CsWindow {
                    lead,
                    window_seq,
                    prd: live_prd,
                    measurements,
                    ..
                }) => {
                    fold.seen += 1;
                    if !probes_window(*window_seq, cfg.reconstruct_every) {
                        fold.skipped += 1;
                        continue;
                    }
                    let Some(&hs) = sess.matrices.handshake() else {
                        return Err(ArchiveError::Malformed {
                            what: "archive replay",
                            detail: format!(
                                "session {} has a CS window before any handshake",
                                rec.session
                            ),
                        }
                        .into());
                    };
                    let (enc, lip) = sess.matrices.lead(*lead, &cache, phase.solver())?;
                    // Mirror the live pipeline's value path exactly:
                    // i16 → i64 (reassembly) → f64 (solver front end).
                    phase.push(&enc, lip, measurements.iter().map(|&v| v as i64 as f64))?;
                    queued.push(QueuedWindow {
                        window_seq: *window_seq,
                        n: hs.cs_window as usize,
                        live_prd: *live_prd,
                        reference: sess.refs.get(lead).copied(),
                    });
                    if queued.len() == WINDOWS_PER_RUN {
                        fold.solve(&mut phase, &mut queued, workers)?;
                    }
                }
                _ => {}
            }
        }
    }
    fold.solve(&mut phase, &mut queued, workers)?;

    let mut report = SolverReplayReport {
        windows_seen: fold.seen,
        windows_solved: fold.solved,
        windows_skipped: fold.skipped,
        solver_iters: fold.iters,
        compared: 0,
        live_prd_mean: 0.0,
        replayed_prd_mean: 0.0,
        mean_delta: 0.0,
        max_abs_delta: 0.0,
        live_prd_p95: 0.0,
        replayed_prd_p95: 0.0,
        p95_abs_delta: 0.0,
        bit_identical: true,
    };
    // Sum in archive order, as a single sequential pass would.
    let mut live_sum = 0.0;
    let mut replayed_sum = 0.0;
    let mut delta_sum = 0.0;
    let mut lives = Vec::with_capacity(fold.compared.len());
    let mut replays = Vec::with_capacity(fold.compared.len());
    let mut abs_deltas = Vec::with_capacity(fold.compared.len());
    for (live, replayed) in fold.compared {
        report.compared += 1;
        live_sum += live;
        replayed_sum += replayed;
        let delta = replayed - live;
        delta_sum += delta;
        lives.push(live);
        replays.push(replayed);
        abs_deltas.push(delta.abs());
        if delta.abs() > report.max_abs_delta {
            report.max_abs_delta = delta.abs();
        }
        if live.to_bits() != replayed.to_bits() {
            report.bit_identical = false;
        }
    }
    if report.compared > 0 {
        let n = report.compared as f64;
        report.live_prd_mean = live_sum / n;
        report.replayed_prd_mean = replayed_sum / n;
        report.mean_delta = delta_sum / n;
        report.live_prd_p95 = p95(lives);
        report.replayed_prd_p95 = p95(replays);
        report.p95_abs_delta = p95(abs_deltas);
    }
    Ok(report)
}

/// Nearest-rank 95th percentile, as the cohort report ranks PRDs.
fn p95(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile95_sorted(&values)
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
                EpochItem::Gateway(TapItem::Rhythm {
                    af_burden_pct,
                    af_active,
                    ..
                }) => {
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
