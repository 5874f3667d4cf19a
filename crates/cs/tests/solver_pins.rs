//! Bit pins on FISTA's outputs.
//!
//! Each case hashes the reconstruction bits plus the iteration count of
//! a fixed solve with 64-bit FNV-1a. The hashes were recorded from the
//! allocating, `%`-indexed solver that preceded the in-place hot path,
//! so any change to a float expression or a summation order anywhere
//! in the solve — DWT taps, Φ/Φᵀ sweeps, the iterate updates, the
//! Lipschitz power iteration — moves a pin. The gateway-shaped chains
//! were recorded from the warm-start solver that preceded
//! λ-continuation, run cold; the continuation chains pin the schedule
//! path itself.

use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Continuation, Fista, FistaConfig, FistaScratch, FistaSolve};
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
    windows_at(M)
}

/// [`windows`] encoded with `m` measurements per window.
fn windows_at(m: usize) -> (CsEncoder, Vec<Vec<i64>>) {
    let rec = RecordBuilder::new(SEED)
        .duration_s(12.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(24.0))
        .build();
    let enc = CsEncoder::for_lead(WINDOW, m, D_PER_COL, SEED, 0).unwrap();
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

/// The gateway's solver before λ-continuation.
fn plain_gateway_config() -> FistaConfig {
    FistaConfig {
        lambda_rel: 0.001,
        max_iters: 800,
        tol: 3e-5,
        restart: true,
        ..FistaConfig::default()
    }
}

/// The gateway's default schedule (`GatewayConfig::default_solver`).
fn continuation_config() -> FistaConfig {
    FistaConfig {
        tol: 1e-4,
        continuation: Some(Continuation {
            start_rel: 0.01,
            factor: 0.5,
            stage_tol: 3e-3,
        }),
        ..plain_gateway_config()
    }
}

#[test]
fn cold_default_solve_is_pinned() {
    let (enc, ys) = windows();
    let solve = Fista::new(FistaConfig::default())
        .solve(enc.sensing_matrix(), &as_f64(&ys[0]))
        .unwrap();
    let mut h = FNV_OFFSET;
    fold(&mut h, &solve);
    assert_eq!(h, PIN_COLD_DEFAULT, "cold default solve: {h:#018x}");
}

/// Hash of a chain of `cfg` solves over [`windows_at`]`(m)`, each
/// window solved through one scratch with the constant computed once,
/// as the gateway does.
fn chain_hash(cfg: FistaConfig, m: usize) -> u64 {
    let (enc, ys) = windows_at(m);
    let fista = Fista::new(cfg);
    let lip = fista.lipschitz(enc.sensing_matrix()).unwrap();
    let mut scratch = FistaScratch::new();
    let mut h = FNV_OFFSET;
    for y in &ys {
        let solve = fista
            .solve_with(&mut scratch, enc.sensing_matrix(), &as_f64(y), lip)
            .unwrap();
        fold(&mut h, &solve);
    }
    h
}

#[test]
fn cold_gateway_chain_is_pinned() {
    let h = chain_hash(plain_gateway_config(), M);
    assert_eq!(h, PIN_COLD_CHAIN, "cold gateway chain: {h:#018x}");
}

/// The link controller's CR ladder (45/50/54 %) at n = 512: the
/// measurement counts every streamed window is actually solved at.
#[test]
fn cold_gateway_chains_at_the_cr_ladder_are_pinned() {
    for (m, pin) in [
        (282, PIN_COLD_CHAIN_M282),
        (256, PIN_COLD_CHAIN_M256),
        (236, PIN_COLD_CHAIN_M236),
    ] {
        let h = chain_hash(plain_gateway_config(), m);
        assert_eq!(h, pin, "cold gateway chain at m = {m}: {h:#018x}");
    }
}

#[test]
fn continuation_chains_at_the_cr_ladder_are_pinned() {
    for (m, pin) in [
        (282, PIN_CONTINUATION_M282),
        (256, PIN_CONTINUATION_M256),
        (236, PIN_CONTINUATION_M236),
    ] {
        let h = chain_hash(continuation_config(), m);
        assert_eq!(h, pin, "continuation chain at m = {m}: {h:#018x}");
    }
}

#[test]
fn tree_model_solve_is_pinned() {
    let (enc, ys) = windows();
    let solve = Fista::new(FistaConfig {
        tree_model: true,
        lambda_rel: 0.02,
        ..FistaConfig::default()
    })
    .solve(enc.sensing_matrix(), &as_f64(&ys[1]))
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
const PIN_COLD_CHAIN: u64 = 0x1a26_4119_f3b6_7799;
const PIN_TREE_MODEL: u64 = 0x47de_a759_2e4f_9771;
const PIN_RECONSTRUCT_F64: u64 = 0x65c1_f4c1_63a7_985d;
const PIN_COLD_CHAIN_M282: u64 = 0x0464_3866_c6b0_88d2;
const PIN_COLD_CHAIN_M256: u64 = 0x48c8_3103_ae06_92b8;
const PIN_COLD_CHAIN_M236: u64 = 0x150d_6f46_00b3_d098;
const PIN_CONTINUATION_M282: u64 = 0xcbd3_3078_0d4a_b8d3;
const PIN_CONTINUATION_M256: u64 = 0x294c_a2e2_9ed8_2913;
const PIN_CONTINUATION_M236: u64 = 0x5534_deeb_8b23_9d34;
