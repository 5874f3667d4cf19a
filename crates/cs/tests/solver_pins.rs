//! Bit pins on FISTA's outputs.
//!
//! Each case hashes the reconstruction bits plus the iteration count of
//! a fixed solve with 64-bit FNV-1a. The hashes were recorded from the
//! allocating, `%`-indexed solver that preceded the in-place hot path,
//! so any change to a float expression or a summation order anywhere
//! in the solve — DWT taps, Φ/Φᵀ sweeps, the iterate updates, the
//! Lipschitz power iteration — moves a pin.

use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Fista, FistaConfig, FistaSolve, FistaState};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

const WINDOW: usize = 512;
const M: usize = 192;
const D_PER_COL: usize = 4;
const SEED: u64 = 0x5EED_F15A;

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold(h: &mut u64, solve: &FistaSolve) {
    for v in &solve.x {
        fnv1a(h, v.to_bits());
    }
    fnv1a(h, solve.iters as u64);
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Five consecutive windows of one ambulatory lead, as measurements.
fn windows() -> (CsEncoder, Vec<Vec<i64>>) {
    let rec = RecordBuilder::new(SEED)
        .duration_s(12.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(24.0))
        .build();
    let enc = CsEncoder::for_lead(WINDOW, M, D_PER_COL, SEED, 0).unwrap();
    let ys = rec
        .lead(0)
        .chunks_exact(WINDOW)
        .take(5)
        .map(|w| enc.encode(w).unwrap())
        .collect::<Vec<_>>();
    assert_eq!(ys.len(), 5);
    (enc, ys)
}

fn as_f64(y: &[i64]) -> Vec<f64> {
    y.iter().map(|&v| v as f64).collect()
}

fn gateway_config() -> FistaConfig {
    FistaConfig {
        lambda_rel: 0.001,
        max_iters: 800,
        tol: 3e-5,
        restart: true,
        ..FistaConfig::default()
    }
}

#[test]
fn cold_default_solve_is_pinned() {
    let (enc, ys) = windows();
    let solve = Fista::new(FistaConfig::default())
        .solve(enc.sensing_matrix(), &as_f64(&ys[0]), None)
        .unwrap();
    let mut h = FNV_OFFSET;
    fold(&mut h, &solve);
    assert_eq!(h, PIN_COLD_DEFAULT, "cold default solve: {h:#018x}");
}

#[test]
fn warm_gateway_chain_is_pinned() {
    let (enc, ys) = windows();
    let fista = Fista::new(gateway_config());
    let mut state = FistaState::new();
    let mut h = FNV_OFFSET;
    for y in &ys {
        let solve = fista.reconstruct_warm(&enc, y, &mut state).unwrap();
        fold(&mut h, &solve);
    }
    assert_eq!(h, PIN_WARM_CHAIN, "warm gateway chain: {h:#018x}");
}

#[test]
fn tree_model_solve_is_pinned() {
    let (enc, ys) = windows();
    let solve = Fista::new(FistaConfig {
        tree_model: true,
        lambda_rel: 0.02,
        ..FistaConfig::default()
    })
    .solve(enc.sensing_matrix(), &as_f64(&ys[1]), None)
    .unwrap();
    let mut h = FNV_OFFSET;
    fold(&mut h, &solve);
    assert_eq!(h, PIN_TREE_MODEL, "tree-model solve: {h:#018x}");
}

#[test]
fn reconstruct_f64_is_pinned() {
    let (enc, ys) = windows();
    let x = Fista::new(FistaConfig::default())
        .reconstruct_f64(enc.sensing_matrix(), &as_f64(&ys[2]))
        .unwrap();
    let mut h = FNV_OFFSET;
    for v in &x {
        fnv1a(&mut h, v.to_bits());
    }
    assert_eq!(h, PIN_RECONSTRUCT_F64, "reconstruct_f64: {h:#018x}");
}

const PIN_COLD_DEFAULT: u64 = 0x0c23_5a69_3bfe_34d6;
const PIN_WARM_CHAIN: u64 = 0x3e46_df05_8aa8_5061;
const PIN_TREE_MODEL: u64 = 0x47de_a759_2e4f_9771;
const PIN_RECONSTRUCT_F64: u64 = 0x65c1_f4c1_63a7_985d;
