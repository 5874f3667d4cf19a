//! Record → replay acceptance: the archive subsystem's headline
//! guarantees, pinned on the CI smoke cohort.
//!
//! * Recording is a pure observer: a recorded run returns the same
//!   [`CohortReport`] as an unrecorded one.
//! * The archive **bytes** are identical at 1, 2 and 4 gateway
//!   workers — recording inherits the sharded gateway's determinism —
//!   and hash to a pinned value, so a refactor that changes a byte of
//!   the recording fails here.
//! * Replaying the archive regenerates the live report bit for bit
//!   (struct equality *and* canonical-JSON equality).
//! * Solver replay at the archived settings reproduces the live PRDs
//!   bit for bit; at reduced settings it reports honest deltas.
//! * The neutral alert policy reproduces the live alert stream; a
//!   stricter one can only remove alerts.
//! * The reference-window codec stays lossless while at least halving
//!   the raw little-endian footprint.

use std::sync::OnceLock;
use wbsn::cohort::{CohortReport, CohortRunConfig, CohortRunner};
use wbsn::replay::CohortReplayer;
use wbsn_archive::codec::write_i32_section;
use wbsn_archive::{AlertPolicy, ArchiveBlock, EpochItem, SolverReplayConfig};

fn smoke_runner(workers: usize) -> CohortRunner {
    CohortRunner::new(CohortRunConfig {
        workers,
        ..CohortRunConfig::smoke()
    })
}

/// The shared two-worker smoke recording (one live run per process).
fn recording() -> &'static (CohortReport, Vec<u8>) {
    static REC: OnceLock<(CohortReport, Vec<u8>)> = OnceLock::new();
    REC.get_or_init(|| {
        smoke_runner(2)
            .run_recorded(Vec::new())
            .expect("smoke cohort records")
    })
}

#[test]
fn recording_does_not_change_the_report() {
    let live = smoke_runner(2).run().expect("smoke cohort runs");
    let (recorded, _) = recording();
    assert_eq!(
        &live, recorded,
        "enabling the recorder changed the cohort report"
    );
}

#[test]
fn replayed_report_is_bit_identical_to_live() {
    let (live, bytes) = recording();
    let replayer = CohortReplayer::from_bytes(bytes).expect("archive reads back");
    let replayed = replayer.report().expect("report replays");
    assert_eq!(live, &replayed);
    assert_eq!(
        live.to_json(),
        replayed.to_json(),
        "replayed report JSON differs from the live artifact"
    );
}

#[test]
fn archive_bytes_are_worker_invariant() {
    let (live, bytes2) = recording();
    for workers in [1usize, 4] {
        let (report, bytes) = smoke_runner(workers)
            .run_recorded(Vec::new())
            .expect("smoke cohort records");
        assert_eq!(live, &report, "report differs at {workers} workers");
        assert_eq!(
            bytes2, &bytes,
            "archive bytes differ between 2 and {workers} workers"
        );
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The smoke recording's FNV-1a hash and length. Change them only with
/// a change that is meant to move archive bytes, and say why. Last
/// moved when format version 3 stopped archiving the reconstructed
/// samples of CS windows (replay re-solves them from the measurements).
const SMOKE_ARCHIVE: (u64, usize) = (0x0a1a_9658_e282_8722, 139_926);

#[test]
fn archive_bytes_match_the_pinned_hash() {
    let (_, bytes) = recording();
    assert_eq!(
        (fnv1a(bytes), bytes.len()),
        SMOKE_ARCHIVE,
        "the smoke recording's bytes changed"
    );
}

#[test]
fn solver_replay_at_archived_settings_is_bit_identical() {
    let (_, bytes) = recording();
    let replayer = CohortReplayer::from_bytes(bytes).expect("archive reads back");
    let report = replayer.solver_replay_archived().expect("solver replays");
    assert!(
        report.windows_seen > 0,
        "smoke cohort must carry CS windows"
    );
    assert!(report.compared > 0, "some windows must have live PRDs");
    assert!(
        report.bit_identical,
        "replayed PRDs diverged from live at the archived settings \
         (max |Δ| = {}, {} windows compared)",
        report.max_abs_delta, report.compared
    );
    assert_eq!(report.mean_delta, 0.0);
}

#[test]
fn solver_replay_at_reduced_settings_reports_deltas() {
    let (_, bytes) = recording();
    let replayer = CohortReplayer::from_bytes(bytes).expect("archive reads back");
    let mut cfg = SolverReplayConfig::archived(replayer.meta());
    cfg.solver.max_iters = 4;
    cfg.solver.tol = 0.0;
    let starved = replayer.solver_replay(&cfg).expect("solver replays");
    assert!(starved.compared > 0);
    assert!(
        !starved.bit_identical,
        "a 4-iteration solve cannot match the live gateway's"
    );
    assert!(starved.max_abs_delta > 0.0);
    // Mean PRD must be honest about the degradation direction.
    assert!(
        starved.replayed_prd_mean > starved.live_prd_mean,
        "starving the solver should worsen mean PRD \
         (live {}, replayed {})",
        starved.live_prd_mean,
        starved.replayed_prd_mean
    );

    // A sparser probing stride solves strictly fewer windows.
    let mut sparse = SolverReplayConfig::archived(replayer.meta());
    sparse.reconstruct_every *= 2;
    let sparse = replayer.solver_replay(&sparse).expect("solver replays");
    assert!(sparse.windows_skipped > starved.windows_skipped);
    assert!(sparse.windows_solved < starved.windows_solved);
}

#[test]
fn neutral_policy_reproduces_live_alerts() {
    let (_, bytes) = recording();
    let replayer = CohortReplayer::from_bytes(bytes).expect("archive reads back");
    let neutral = replayer.policy_replay(&AlertPolicy::default());
    assert!(neutral.live_alerts > 0, "smoke cohort must raise alerts");
    assert_eq!(
        neutral.replayed_alerts, neutral.live_alerts,
        "the neutral policy must reproduce the live gateway's alerts"
    );
    assert_eq!(neutral.changed_sessions, 0);

    let strict = replayer.policy_replay(&AlertPolicy {
        min_burden_pct: 0,
        onset_consecutive: 3,
    });
    assert!(
        strict.replayed_alerts <= strict.live_alerts,
        "a stricter onset gate can only remove alerts"
    );
}

#[test]
fn reference_codec_is_lossless_and_at_least_halves_raw_size() {
    let (_, bytes) = recording();
    let replayer = CohortReplayer::from_bytes(bytes).expect("archive reads back");
    let mut raw = 0u64;
    let mut coded = 0u64;
    let mut scratch = Vec::new();
    for block in replayer.blocks() {
        let ArchiveBlock::Epoch(rec) = block else {
            continue;
        };
        for item in &rec.items {
            let EpochItem::Reference { samples, .. } = item else {
                continue;
            };
            // Losslessness of the decode is already proven: `samples`
            // IS the decoded section. Re-encode it to measure the
            // coded footprint against raw little-endian storage.
            scratch.clear();
            write_i32_section(&mut scratch, samples);
            raw += 4 * samples.len() as u64;
            coded += scratch.len() as u64;
        }
    }
    assert!(raw > 0, "smoke cohort must archive reference windows");
    assert!(
        coded * 2 <= raw,
        "delta+varint reference coding must at least halve raw \
         little-endian storage (raw {raw} B, coded {coded} B)"
    );
}
