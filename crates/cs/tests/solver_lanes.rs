//! Lane identity: a batch through the gateway's solve phase equals
//! per-window `Fista::solve_with`, in iteration counts and sample bits.
//!
//! The phase sorts its windows by matrix and runs each run of four or
//! more windows of one Φ in four lanes, refilling a lane the iteration
//! its window stops; shorter runs, and what is left of a run when fewer
//! than four windows remain to claim, are solved one at a time. So the
//! batch sizes 1..=13 over two matrices cover one-lane-only batches,
//! full lanes, refills and one-lane tails, and the configurations cover
//! stops at every iteration count: windows that settle early, windows
//! that hit `max_iters`, continuation schedules that end after
//! different stage counts, the tree model, and an all-zero window that
//! stops at its first iteration.

use proptest::prelude::*;
use std::sync::Arc;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Continuation, Fista, FistaConfig, FistaScratch, FistaSolve};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::SolvePhase;

const WINDOW: usize = 256;

/// Measurements of consecutive windows of one ambulatory lead, each
/// scaled by its own factor so the windows settle at different
/// iterations.
fn windows(enc: &CsEncoder, seed: u64, count: usize) -> Vec<Vec<f64>> {
    let rec = RecordBuilder::new(seed)
        .duration_s((count * WINDOW) as f64 / 250.0 + 1.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(18.0))
        .build();
    rec.lead(0)
        .chunks_exact(WINDOW)
        .take(count)
        .enumerate()
        .map(|(k, w)| {
            let scale = 1 + (seed as usize + k) % 4;
            let w: Vec<i32> = w.iter().map(|&v| v / scale as i32).collect();
            enc.encode(&w).unwrap().iter().map(|&v| v as f64).collect()
        })
        .collect()
}

/// The configurations the batches run at, picked by `which`.
fn config(which: u64, max_iters: usize) -> FistaConfig {
    let schedule = Continuation {
        start_rel: 0.01,
        factor: 0.5,
        stage_tol: 3e-3,
    };
    match which % 4 {
        // The gateway's shape: restart and continuation.
        0 => FistaConfig {
            lambda_rel: 0.001,
            max_iters,
            tol: 1e-4,
            restart: true,
            continuation: Some(schedule),
            ..FistaConfig::default()
        },
        // Plain FISTA at a tight tolerance: most windows hit the cap.
        1 => FistaConfig {
            max_iters,
            tol: 1e-7,
            ..FistaConfig::default()
        },
        // Continuation with a stage tolerance that never fires: every
        // window hits the cap in its first stage.
        2 => FistaConfig {
            max_iters,
            continuation: Some(Continuation {
                stage_tol: 0.0,
                ..schedule
            }),
            ..FistaConfig::default()
        },
        _ => FistaConfig {
            tree_model: true,
            lambda_rel: 0.02,
            max_iters,
            restart: true,
            ..FistaConfig::default()
        },
    }
}

fn bits(solve: &FistaSolve) -> Vec<u64> {
    solve.x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solve_phase_matches_per_window_solves_bitwise(
        seed in 0u64..1_000_000,
        batch in 1usize..14,
        which in 0u64..4,
        max_iters in 5usize..240,
        zero_at in 0usize..20,
        split in 0usize..14,
        workers in 1usize..4,
    ) {
        let cfg = config(which, max_iters);
        let fista = Fista::new(cfg);
        // Two matrices: the first `split` windows of the batch go
        // through the second one.
        let encs = [
            Arc::new(CsEncoder::for_lead(WINDOW, 96, 4, seed, 0).unwrap()),
            Arc::new(CsEncoder::for_lead(WINDOW, 112, 4, seed, 1).unwrap()),
        ];
        let lips = [
            fista.lipschitz(encs[0].sensing_matrix()).unwrap(),
            fista.lipschitz(encs[1].sensing_matrix()).unwrap(),
        ];
        let mut pool = [windows(&encs[0], seed, batch), windows(&encs[1], seed ^ 1, batch)];
        // One all-zero window, when `zero_at` lands in the batch.
        if let Some(y) = pool[0].get_mut(zero_at) {
            y.fill(0.0);
        }
        let mut phase = SolvePhase::new(cfg);
        let mut scratch = FistaScratch::new();
        let mut want = Vec::new();
        for (k, (y0, y1)) in pool[0].iter().zip(&pool[1]).enumerate() {
            let (e, y) = if k < split { (1, y1) } else { (0, y0) };
            phase.push(&encs[e], lips[e], y.iter().copied()).unwrap();
            want.push(fista.solve_with(&mut scratch, encs[e].sensing_matrix(), y, lips[e]).unwrap());
        }
        let got: Vec<FistaSolve> = phase.run(workers).map(Result::unwrap).collect();
        prop_assert_eq!(got.len(), batch);
        for (k, (got, want)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(got.iters, want.iters, "window {} of {}", k, batch);
            prop_assert_eq!(bits(got), bits(want), "window {} of {}", k, batch);
            if zero_at == k && k >= split {
                prop_assert_eq!(got.iters, 1, "an all-zero window stops at once");
            }
        }
        prop_assert!(phase.is_empty());
    }
}

#[test]
fn a_window_the_solver_rejects_is_not_queued() {
    let enc = Arc::new(CsEncoder::new(WINDOW, 96, 4, 3).unwrap());
    let cfg = FistaConfig::default();
    let lip = Fista::new(cfg).lipschitz(enc.sensing_matrix()).unwrap();
    let mut phase = SolvePhase::new(cfg);
    // One measurement short of Φ's rows.
    assert!(phase.push(&enc, lip, vec![1.0; 95]).is_err());
    assert!(phase.push(&enc, lip, vec![f64::NAN; 96]).is_err());
    assert!(phase.is_empty());
    phase.push(&enc, lip, vec![0.0; 96]).unwrap();
    let solves: Vec<_> = phase.run(2).collect();
    assert_eq!(solves.len(), 1);
    assert_eq!(solves[0].as_ref().unwrap().iters, 1);
}
