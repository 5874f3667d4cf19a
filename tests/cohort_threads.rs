//! The cohort runner spreads node-side work over scoped threads and a
//! sharded gateway, and the archive's solver replay spreads sessions
//! over scoped threads; every one of them must be gone by the time a
//! run or a replay returns, so a caller that measures or forks between
//! runs sees a single-threaded process again.

/// Threads of this process, from `/proc/self/task`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[cfg(target_os = "linux")]
#[test]
fn runs_leave_no_threads_behind() {
    use wbsn::cohort::{CohortRunConfig, CohortRunner};
    use wbsn::replay::CohortReplayer;
    use wbsn_ecg_synth::cohort::CohortConfig;

    let runner = CohortRunner::new(CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: 11,
            sessions: 6,
            modeled_hours: 1,
            segment_s: 30.0,
            cs_fraction: 0.5,
            ..CohortConfig::default()
        },
        workers: 3,
        batch_sessions: 4,
        ..CohortRunConfig::default()
    });
    let plans = runner.plans();
    let before = thread_count();
    let report = runner.run_plans(&plans).unwrap();
    assert_eq!(thread_count(), before, "run_plans left threads running");
    let (recorded, bytes) = runner.run_plans_recorded(&plans, Vec::new()).unwrap();
    assert_eq!(
        thread_count(),
        before,
        "run_plans_recorded left threads running"
    );
    assert_eq!(report, recorded);
    let replayer = CohortReplayer::from_bytes(&bytes).unwrap();
    let replay = replayer.solver_replay_archived().unwrap();
    assert_eq!(
        thread_count(),
        before,
        "solver_replay_archived left threads running"
    );
    assert!(replay.windows_solved > 0 && replay.bit_identical);
}
