//! Recording & replay: the flight recorder for a cohort run.
//!
//! Paper context: the DAC'14 evaluation lives or dies on repeatable
//! experiments — the same population, the same channel adversities,
//! the same solver — yet a live cohort run discards everything the
//! gateway learned the moment it returns. This example runs the CI
//! smoke cohort **recorded**: every CS window's measurements and live
//! PRD, PRD reference (lossless delta+varint coded), fiducial batch,
//! rhythm/alert event, link-health report and handshake is streamed
//! into a CRC-protected `wbsn-archive` epoch-block file, with writer
//! memory bounded at O(epoch) regardless of recording length. The
//! reconstructed samples are not archived; solver replay re-solves
//! them from the measurements. It then demonstrates the
//! three replay entry points:
//!
//! 1. **Report replay** — [`CohortReplayer::report`] regenerates the
//!    `CohortReport` from the archive alone, bit-identical to the live
//!    run (and ~10,000× faster than re-simulating).
//! 2. **Solver replay** — CS reconstruction re-run from the archived
//!    measurements: first at the archived FISTA settings (PRDs match
//!    bit for bit), then starved to 4 cold iterations (the report
//!    carries honest PRD deltas) — post-hoc solver experiments without
//!    touching a node.
//! 3. **Policy replay** — the AF alert policy re-run against the
//!    recorded rhythm stream: the neutral policy reproduces the live
//!    alert stream exactly; a stricter onset gate shows what alerts it
//!    would have suppressed.
//!
//! Flags: `--out <path>` keeps the archive file (default: in-memory
//! only).
//!
//! Run with: `cargo run --release --example record_replay`

use wbsn::cohort::{CohortRunConfig, CohortRunner};
use wbsn::replay::CohortReplayer;
use wbsn_archive::{AlertPolicy, SolverReplayConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());

    // ---- record: a live smoke-cohort run with the tap open ----
    let cfg = CohortRunConfig::smoke();
    println!(
        "recording: {} sessions x {} modeled hours, seed {:#x}",
        cfg.cohort.sessions, cfg.cohort.modeled_hours, cfg.cohort.cohort_seed
    );
    let (live, bytes) = CohortRunner::new(cfg)
        .run_recorded(Vec::new())
        .expect("recorded cohort run failed");
    println!(
        "  archive: {:.1} KiB for {:.2} modeled patient-days",
        bytes.len() as f64 / 1024.0,
        live.modeled_days
    );
    if let Some(path) = &out {
        std::fs::write(path, &bytes).expect("failed to write archive");
        println!("  wrote {path}");
    }

    // ---- 1. report replay: bit-identical, no simulation ----
    let replayer = CohortReplayer::from_bytes(&bytes).expect("archive reads back");
    let replayed = replayer.report().expect("report replay failed");
    assert_eq!(live, replayed, "replay diverged from the live run");
    assert_eq!(live.to_json(), replayed.to_json());
    println!("\n== report replay ==");
    println!(
        "  bit-identical: {}/{} episodes detected, PRD mean {:.2}%, {} link messages",
        replayed.detection.detected,
        replayed.detection.episodes,
        replayed.prd.mean_percent,
        replayed.link.messages
    );

    // ---- 2. solver replay: re-run FISTA from archived measurements ----
    println!("== solver replay ==");
    let exact = replayer
        .solver_replay_archived()
        .expect("solver replay failed");
    println!(
        "  archived settings: {} windows solved, bit-identical to live: {}",
        exact.windows_solved, exact.bit_identical
    );
    assert!(exact.bit_identical);
    let mut starved = SolverReplayConfig::archived(replayer.meta());
    starved.solver.max_iters = 4;
    let starved = replayer
        .solver_replay(&starved)
        .expect("solver replay failed");
    println!(
        "  4 cold iterations: mean PRD {:.2}% vs live {:.2}% (max |dPRD| {:.2})",
        starved.replayed_prd_mean, starved.live_prd_mean, starved.max_abs_delta
    );

    // ---- 3. policy replay: what would a different alert gate do? ----
    println!("== policy replay ==");
    let neutral = replayer.policy_replay(&AlertPolicy::default());
    println!(
        "  neutral policy: {} alerts replayed vs {} live ({} sessions changed)",
        neutral.replayed_alerts, neutral.live_alerts, neutral.changed_sessions
    );
    assert_eq!(neutral.replayed_alerts, neutral.live_alerts);
    let strict = replayer.policy_replay(&AlertPolicy {
        min_burden_pct: 0,
        onset_consecutive: 3,
    });
    println!(
        "  3-consecutive onset gate: {} alerts ({} sessions changed)",
        strict.replayed_alerts, strict.changed_sessions
    );
}
