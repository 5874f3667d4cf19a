//! Determinism pins for the cohort engine: a cohort run is a pure
//! function of `(cohort seed, config)` — bit-identical across repeated
//! runs and across gateway worker counts — and the seed actually
//! matters (different seeds give different cohorts).

use proptest::prelude::*;
use wbsn::cohort::{CohortRunConfig, CohortRunner};
use wbsn_ecg_synth::cohort::CohortConfig;

/// A reduced cohort that still exercises every moving part (CS
/// patients, reboots, regimes) but keeps the property runs fast.
fn tiny(seed: u64) -> CohortRunConfig {
    CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: seed,
            sessions: 8,
            modeled_hours: 1,
            segment_s: 40.0,
            cs_fraction: 0.25,
            reboot_rate: 0.2,
            regime_shift_rate: 0.4,
            ..CohortConfig::default()
        },
        ..CohortRunConfig::default()
    }
}

// Same seed ⇒ the full typed report (every float included) replays
// bit-identically. (Comments live outside the macro: the vendored
// proptest only matches bare `#[test] fn` items.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn same_seed_replays_bit_identically(seed in 0u64..1_000_000) {
        let a = CohortRunner::new(tiny(seed)).run().unwrap();
        let b = CohortRunner::new(tiny(seed)).run().unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_give_different_cohorts(seed in 0u64..1_000_000) {
        let a = CohortRunner::new(tiny(seed)).run().unwrap();
        let b = CohortRunner::new(tiny(seed ^ 0x5EED)).run().unwrap();
        prop_assert_ne!(a, b);
    }
}

#[test]
fn worker_count_never_changes_the_report() {
    // The acceptance invariant: the CohortReport carries no trace of
    // gateway parallelism, so sweeping the decode workers over
    // {1, 2, 4} must reproduce the exact same artifact.
    let reference = CohortRunner::new(CohortRunConfig {
        workers: 1,
        ..CohortRunConfig::smoke()
    })
    .run()
    .unwrap();
    assert!(reference.link.messages > 0);
    for workers in [2usize, 4] {
        let replay = CohortRunner::new(CohortRunConfig {
            workers,
            ..CohortRunConfig::smoke()
        })
        .run()
        .unwrap();
        assert_eq!(
            reference, replay,
            "cohort report diverged at {workers} gateway workers"
        );
        assert_eq!(reference.to_json(), replay.to_json());
    }
}

#[test]
fn awkward_batch_shapes_never_change_the_report_or_archive() {
    // Seven sessions in batches of five (5 + 2): most worker counts in
    // the sweep split a batch unevenly, and 17 workers leave most
    // threads without a node. Two plans are cut short so that, in the
    // second modeled hour, some chunks hold nodes with no segment.
    let cfg = CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: 0xA3C,
            sessions: 7,
            modeled_hours: 2,
            segment_s: 30.0,
            cs_fraction: 0.4,
            reboot_rate: 0.3,
            regime_shift_rate: 0.4,
            ..CohortConfig::default()
        },
        workers: 1,
        batch_sessions: 5,
        reconstruct_every: 2,
        ..CohortRunConfig::default()
    };
    let runner = CohortRunner::new(cfg.clone());
    let mut plans = runner.plans();
    plans[1].scripts.truncate(1);
    plans[5].scripts.truncate(1);
    let reference = runner.run_plans(&plans).unwrap();
    let (recorded, archive) = runner.run_plans_recorded(&plans, Vec::new()).unwrap();
    assert_eq!(reference, recorded);
    assert_eq!(reference.sessions, 7);
    assert_eq!(reference.modeled_hours, 2);
    assert!(reference.link.messages > 0);
    for workers in [2usize, 3, 5, 17] {
        let runner = CohortRunner::new(CohortRunConfig {
            workers,
            ..cfg.clone()
        });
        let report = runner.run_plans(&plans).unwrap();
        assert_eq!(reference, report, "report diverged at {workers} workers");
        assert_eq!(reference.to_json(), report.to_json());
        let (report, bytes) = runner.run_plans_recorded(&plans, Vec::new()).unwrap();
        assert_eq!(
            reference, report,
            "recorded report diverged at {workers} workers"
        );
        assert!(
            bytes == archive,
            "archive bytes diverged at {workers} workers"
        );
    }
}
