//! Solver replay is worker-invariant: `replay_reconstruction` solves
//! each session's window stream on its own thread and folds the PRDs
//! back in archive order, so its report must not depend on the thread
//! count — not in a count, and not in a single bit of a mean.
//!
//! * The smoke recording's reports at 1, 2, 3, 5 and 17 workers equal
//!   pinned values, under three solver settings (archived, a starved
//!   4-iteration solve, a sparser probing stride), p95 fields
//!   included. The pins are the single-threaded replay's reports of a
//!   recording made at the gateway's default solver. Every solve
//!   starts cold, so the sparser stride reproduces the live PRDs of
//!   the windows it still solves bit for bit.
//! * When several sessions fail, the error of the first failing window
//!   in archive order comes back, at every worker count.

use std::sync::OnceLock;
use wbsn::cohort::{CohortRunConfig, CohortRunner};
use wbsn::replay::CohortReplayer;
use wbsn_archive::replay::replay_reconstruction;
use wbsn_archive::{ArchiveBlock, EpochItem, EpochRecord, SolverReplayConfig, SolverReplayReport};
use wbsn_core::WbsnError;
use wbsn_gateway::TapItem;

const WORKERS: [usize; 5] = [1, 2, 3, 5, 17];

/// The smoke cohort recorded at two workers (one live run per process).
fn replayer() -> &'static CohortReplayer {
    static REC: OnceLock<CohortReplayer> = OnceLock::new();
    REC.get_or_init(|| {
        let (_, bytes) = CohortRunner::new(CohortRunConfig {
            workers: 2,
            ..CohortRunConfig::smoke()
        })
        .run_recorded(Vec::new())
        .expect("smoke cohort records");
        CohortReplayer::from_bytes(&bytes).expect("archive reads back")
    })
}

/// A report's counts and the bit patterns of its f64 fields.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    seen: u64,
    solved: u64,
    skipped: u64,
    iters: u64,
    compared: u64,
    live_prd_mean: u64,
    replayed_prd_mean: u64,
    mean_delta: u64,
    max_abs_delta: u64,
    live_prd_p95: u64,
    replayed_prd_p95: u64,
    p95_abs_delta: u64,
    bit_identical: bool,
}

impl From<&SolverReplayReport> for Pin {
    fn from(r: &SolverReplayReport) -> Self {
        Pin {
            seen: r.windows_seen,
            solved: r.windows_solved,
            skipped: r.windows_skipped,
            iters: r.solver_iters,
            compared: r.compared,
            live_prd_mean: r.live_prd_mean.to_bits(),
            replayed_prd_mean: r.replayed_prd_mean.to_bits(),
            mean_delta: r.mean_delta.to_bits(),
            max_abs_delta: r.max_abs_delta.to_bits(),
            live_prd_p95: r.live_prd_p95.to_bits(),
            replayed_prd_p95: r.replayed_prd_p95.to_bits(),
            p95_abs_delta: r.p95_abs_delta.to_bits(),
            bit_identical: r.bit_identical,
        }
    }
}

fn assert_pinned(name: &str, cfg: &SolverReplayConfig, pin: &Pin) {
    for workers in WORKERS {
        let report = replay_reconstruction(replayer().blocks(), cfg, workers)
            .unwrap_or_else(|e| panic!("{name} replay at {workers} workers: {e:?}"));
        assert_eq!(&Pin::from(&report), pin, "{name} at {workers} workers");
    }
}

#[test]
fn archived_settings_report_is_pinned_at_every_worker_count() {
    let cfg = SolverReplayConfig::archived(replayer().meta());
    let pin = Pin {
        seen: 116,
        solved: 20,
        skipped: 96,
        iters: 3666,
        compared: 20,
        live_prd_mean: 0x401f_32a7_13a5_0bdb,
        replayed_prd_mean: 0x401f_32a7_13a5_0bdb,
        mean_delta: 0,
        max_abs_delta: 0,
        live_prd_p95: 0x4029_9d76_4539_fdb7,
        replayed_prd_p95: 0x4029_9d76_4539_fdb7,
        p95_abs_delta: 0,
        bit_identical: true,
    };
    assert_pinned("archived", &cfg, &pin);
}

#[test]
fn starved_cold_report_is_pinned_at_every_worker_count() {
    let mut cfg = SolverReplayConfig::archived(replayer().meta());
    cfg.solver.max_iters = 4;
    cfg.solver.tol = 0.0;
    let pin = Pin {
        seen: 116,
        solved: 20,
        skipped: 96,
        iters: 80,
        compared: 20,
        live_prd_mean: 0x401f_32a7_13a5_0bdb,
        replayed_prd_mean: 0x4052_0ef8_994f_4c84,
        mean_delta: 0x4050_1bce_2814_fbc7,
        max_abs_delta: 0x4051_979e_21cf_6751,
        live_prd_p95: 0x4029_9d76_4539_fdb7,
        replayed_prd_p95: 0x4053_1644_0b55_9a4e,
        p95_abs_delta: 0x4051_02e5_2440_ee99,
        bit_identical: false,
    };
    assert_pinned("cold 4-iteration", &cfg, &pin);
}

#[test]
fn sparser_stride_report_is_pinned_at_every_worker_count() {
    let mut cfg = SolverReplayConfig::archived(replayer().meta());
    cfg.reconstruct_every *= 2;
    let pin = Pin {
        seen: 116,
        solved: 10,
        skipped: 106,
        iters: 1919,
        compared: 10,
        live_prd_mean: 0x401e_ef80_e18f_c78a,
        replayed_prd_mean: 0x401e_ef80_e18f_c78a,
        mean_delta: 0,
        max_abs_delta: 0,
        live_prd_p95: 0x4029_a2d1_d457_8a1e,
        replayed_prd_p95: 0x4029_a2d1_d457_8a1e,
        p95_abs_delta: 0,
        bit_identical: true,
    };
    assert_pinned("reconstruct_every x2", &cfg, &pin);
}

#[test]
fn the_first_failing_window_in_archive_order_wins_at_every_worker_count() {
    // Session A: the first recorded epoch that announces a handshake
    // and carries CS windows, solved in full.
    let a = replayer()
        .blocks()
        .iter()
        .find_map(|block| match block {
            ArchiveBlock::Epoch(rec)
                if rec
                    .items
                    .iter()
                    .any(|item| matches!(item, EpochItem::Gateway(TapItem::Handshake(_))))
                    && rec.items.iter().any(|item| {
                        matches!(item, EpochItem::Gateway(TapItem::CsWindow { .. }))
                    }) =>
            {
                Some(rec.clone())
            }
            _ => None,
        })
        .expect("smoke recording has a CS session");
    let window = a
        .items
        .iter()
        .find(|item| matches!(item, EpochItem::Gateway(TapItem::CsWindow { .. })))
        .cloned()
        .expect("session A has a CS window");
    // Sessions B and C each send A's window before any handshake of
    // their own. B's comes first in the archive, but C has the lower
    // id, so one thread replays C (and sees it fail) before B; the
    // fold must still return B's error.
    let (b, c) = (a.session + 20, a.session + 10);
    let headless = |session| {
        ArchiveBlock::Epoch(EpochRecord {
            session,
            epoch: 0,
            items: vec![window.clone()],
        })
    };
    let blocks = vec![ArchiveBlock::Epoch(a), headless(b), headless(c)];
    let mut cfg = SolverReplayConfig::archived(replayer().meta());
    cfg.reconstruct_every = 1;
    cfg.solver.max_iters = 4;
    let expected = WbsnError::Malformed {
        what: "archive",
        detail: format!(
            "malformed archive archive replay: session {b} has a CS window before any handshake"
        ),
    };
    for workers in WORKERS {
        let err = replay_reconstruction(&blocks, &cfg, workers)
            .expect_err("a headless CS window must fail the replay");
        assert_eq!(err, expected, "{workers} workers");
    }
    // Without the headless sessions the same archive replays cleanly.
    let report = replay_reconstruction(&blocks[..1], &cfg, 2).expect("session A replays");
    assert!(report.windows_solved > 0);
}
