//! The gateway's default FISTA on realistic traces, against the
//! decoder it replaced.
//!
//! The gateway originally reconstructed every window with a
//! fixed-budget solve: `tol = 1e-7` is below what FISTA's movement
//! criterion ever reaches on these problems, so each window burned the
//! full `max_iters = 800`. The default keeps the same λ but adds
//! gradient restart (O'Donoghue & Candès), λ-continuation (Hale, Yin &
//! Zhang) and a live early-exit tolerance at the target λ; every solve
//! starts cold. Pinned here:
//!
//! * the default meets or beats the legacy PRD on scenario-style
//!   traces (quiet, noisy ambulatory, AF) — both as a trace mean and
//!   window by window — including randomized traces (proptest);
//! * on quiet windows it spends at most half the legacy iterations;
//! * the solver settings exercised here are exactly the gateway's
//!   defaults, so the pins cover the real server path.

use proptest::prelude::*;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Continuation, Fista, FistaConfig};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::{RecordBuilder, Rhythm};
use wbsn_gateway::GatewayConfig;
use wbsn_sigproc::stats::prd_percent;

const WINDOW: usize = 256;
const M: usize = 128; // CR 50%
const D_PER_COL: usize = 4;

/// The fixed-budget configuration the gateway started from: the
/// tolerance never fires, so this is always `max_iters` iterations per
/// window.
fn legacy_gateway_solver() -> Fista {
    Fista::new(FistaConfig {
        lambda_rel: 0.001,
        max_iters: 800,
        tol: 1e-7,
        ..FistaConfig::default()
    })
}

/// The gateway's default solver settings (see [`GatewayConfig`];
/// [`gateway_defaults_match_this_test`] pins the equality).
fn gateway_solver() -> Fista {
    Fista::new(FistaConfig {
        lambda_rel: 0.001,
        max_iters: 800,
        tol: 1e-4,
        restart: true,
        continuation: Some(Continuation {
            start_rel: 0.01,
            factor: 0.5,
            stage_tol: 3e-3,
        }),
        ..FistaConfig::default()
    })
}

#[test]
fn gateway_defaults_match_this_test() {
    assert_eq!(
        *gateway_solver().config(),
        GatewayConfig::default().solver,
        "gateway solver defaults drifted away from the pinned point"
    );
}

struct TraceRun {
    legacy_prd: Vec<f64>,
    default_prd: Vec<f64>,
    legacy_iters: Vec<usize>,
    default_iters: Vec<usize>,
}

fn run_trace(seed: u64, duration_s: f64, rhythm: Rhythm, noise: NoiseConfig) -> TraceRun {
    let rec = RecordBuilder::new(seed)
        .duration_s(duration_s)
        .n_leads(1)
        .rhythm(rhythm)
        .noise(noise)
        .build();
    let enc = CsEncoder::for_lead(WINDOW, M, D_PER_COL, seed, 0).unwrap();
    let legacy = legacy_gateway_solver();
    let default = gateway_solver();
    let mut out = TraceRun {
        legacy_prd: Vec::new(),
        default_prd: Vec::new(),
        legacy_iters: Vec::new(),
        default_iters: Vec::new(),
    };
    for (i, w) in rec.lead(0).chunks_exact(WINDOW).enumerate() {
        let orig: Vec<f64> = w.iter().map(|&v| v as f64).collect();
        let y: Vec<f64> = enc.encode(w).unwrap().iter().map(|&v| v as f64).collect();
        let old = legacy
            .solve(enc.sensing_matrix(), &y)
            .unwrap_or_else(|e| panic!("legacy solve of window {i} failed: {e}"));
        let new = default.solve(enc.sensing_matrix(), &y).unwrap();
        out.legacy_prd.push(prd_percent(&orig, &old.x));
        out.default_prd.push(prd_percent(&orig, &new.x));
        out.legacy_iters.push(old.iters);
        out.default_iters.push(new.iters);
    }
    out
}

/// Per-window and mean PRD bars for one trace against the legacy
/// baseline. Both solvers minimize the same convex objective; the
/// default stops at its plateau, so individual windows may differ by
/// a fraction of a percent in either direction but never degrade.
fn assert_meets_or_beats(r: &TraceRun, label: &str, window_margin: f64, mean_margin: f64) {
    for (i, (&c, &w)) in r.legacy_prd.iter().zip(&r.default_prd).enumerate() {
        assert!(
            w <= c + window_margin,
            "{label} window {i}: default PRD {w:.3}% vs legacy {c:.3}%"
        );
    }
    let mean_c = r.legacy_prd.iter().sum::<f64>() / r.legacy_prd.len() as f64;
    let mean_w = r.default_prd.iter().sum::<f64>() / r.default_prd.len() as f64;
    assert!(
        mean_w <= mean_c + mean_margin,
        "{label}: default mean PRD {mean_w:.3}% vs legacy {mean_c:.3}%"
    );
}

#[test]
fn default_meets_or_beats_legacy_prd_on_scenario_traces() {
    let traces = [
        (
            71,
            Rhythm::NormalSinus { mean_hr_bpm: 62.0 },
            NoiseConfig::clean(),
        ),
        (
            72,
            Rhythm::NormalSinus { mean_hr_bpm: 75.0 },
            NoiseConfig::ambulatory(24.0),
        ),
        (
            73,
            Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 },
            NoiseConfig::clean(),
        ),
    ];
    for (seed, rhythm, noise) in traces {
        let r = run_trace(seed, 20.0, rhythm, noise);
        assert!(r.legacy_prd.len() >= 15, "trace {seed} too short");
        assert_meets_or_beats(&r, &format!("trace {seed}"), 0.6, 0.15);
    }
}

#[test]
fn default_iterations_halve_on_quiet_windows() {
    let r = run_trace(
        81,
        20.0,
        Rhythm::NormalSinus { mean_hr_bpm: 60.0 },
        NoiseConfig::clean(),
    );
    let legacy: usize = r.legacy_iters.iter().sum();
    let default: usize = r.default_iters.iter().sum();
    assert!(
        default * 2 <= legacy,
        "iterations: legacy {legacy}, default {default} (need ≥2× drop)"
    );
    eprintln!(
        "quiet trace: legacy {legacy} iters over {} windows, default {default} ({:.2}x)",
        r.legacy_iters.len(),
        legacy as f64 / default as f64
    );
}

// Randomized traces: any rhythm/noise the synthesizer produces, the
// default never loses to the legacy baseline by more than noise margins,
// and every trace keeps a real iteration advantage. (Comments live
// outside the macro: the vendored proptest only matches bare
// `#[test] fn` items.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn default_meets_or_beats_legacy_prd_on_random_traces(
        seed in 0u64..10_000,
        hr in 55.0f64..100.0,
        af in 0u8..2,
        noisy in 0u8..2,
    ) {
        let rhythm = if af == 1 {
            Rhythm::AtrialFibrillation { mean_hr_bpm: hr }
        } else {
            Rhythm::NormalSinus { mean_hr_bpm: hr }
        };
        let noise = if noisy == 1 {
            NoiseConfig::ambulatory(24.0)
        } else {
            NoiseConfig::clean()
        };
        let r = run_trace(seed, 8.0, rhythm, noise);
        prop_assert!(r.legacy_prd.len() >= 7);
        // Wider margins than the pinned scenario traces: arbitrary
        // seeds can hit less sparse windows where both solvers sit
        // farther from the optimum when they stop.
        assert_meets_or_beats(&r, &format!("random seed {seed}"), 1.0, 0.25);
        // The ≥2× drop is pinned on the quiet trace above; arbitrary
        // rhythm/noise draws can produce harder windows that converge
        // later, so the universal bound is looser — but early exit
        // must always keep a real margin over the fixed budget.
        let legacy: usize = r.legacy_iters.iter().sum();
        let default: usize = r.default_iters.iter().sum();
        prop_assert!(
            default * 5 <= legacy * 4,
            "random seed {}: legacy {} iters, default {}", seed, legacy, default
        );
    }
}
