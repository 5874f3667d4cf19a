//! CS encoder (node side) and FISTA decoder (base-station side).
//!
//! The `fista_lanes` group prices lane solving: 16 windows of one Φ at
//! the gateway's settings through the gateway's solve phase on one
//! thread (four windows per pass), against the same 16 windows through
//! one `solve_with` call each.
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::joint::{GroupFista, GroupFistaConfig};
use wbsn_cs::solver::{Fista, FistaConfig, FistaScratch};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::{GatewayConfig, SolvePhase};
use wbsn_sigproc::SparseTernaryMatrix;

fn window(n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| {
            let q = 900.0 * (-((i as f64 - 200.0) / 6.0).powi(2) / 2.0).exp();
            let t = 250.0 * (-((i as f64 - 320.0) / 20.0).powi(2) / 2.0).exp();
            (q + t) as i32
        })
        .collect()
}

fn bench_cs(c: &mut Criterion) {
    let x = window(512);
    let enc = CsEncoder::new(512, 256, 4, 7).unwrap();
    let mut g = c.benchmark_group("cs");
    g.sample_size(10);
    g.bench_function("encode_512_to_256_d4", |b| {
        b.iter(|| enc.encode(black_box(&x)).unwrap())
    });
    let y = enc.encode(&x).unwrap();
    let fista = Fista::new(FistaConfig {
        max_iters: 50,
        ..FistaConfig::default()
    });
    g.bench_function("fista_50it_512", |b| {
        b.iter(|| fista.reconstruct(black_box(&enc), black_box(&y)).unwrap())
    });
    // The same 50 plain-FISTA iterations on a reused scratch with the
    // Lipschitz constant computed once: the kernels' cost per
    // iteration, without the power iteration or any allocation.
    let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
    let lip = fista.lipschitz(enc.sensing_matrix()).unwrap();
    let mut scratch = FistaScratch::new();
    g.bench_function("fista_50it_512_scratch", |b| {
        b.iter(|| {
            fista
                .solve_with(&mut scratch, enc.sensing_matrix(), black_box(&yf), lip)
                .unwrap()
        })
    });
    // The gateway's decode path: a solve to convergence at the
    // gateway's default settings (restart and λ-continuation), on a
    // reused scratch with the constant its matrix cache would hold.
    let gateway = Fista::new(GatewayConfig::default_solver());
    let gateway_lip = gateway.lipschitz(enc.sensing_matrix()).unwrap();
    g.bench_function("fista_gateway_default_512", |b| {
        b.iter(|| {
            gateway
                .solve_with(
                    &mut scratch,
                    enc.sensing_matrix(),
                    black_box(&yf),
                    gateway_lip,
                )
                .unwrap()
        })
    });
    let phis: Vec<SparseTernaryMatrix> = (0..3)
        .map(|l| SparseTernaryMatrix::random(256, 512, 4, 50 + l).unwrap())
        .collect();
    let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    let ys: Vec<Vec<f64>> = phis.iter().map(|p| p.apply(&xf)).collect();
    let joint = GroupFista::new(GroupFistaConfig {
        max_iters: 50,
        ..GroupFistaConfig::default()
    });
    g.bench_function("group_fista_50it_3x512", |b| {
        let refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
        b.iter(|| joint.reconstruct(black_box(&refs), black_box(&ys)).unwrap())
    });
    g.finish();
}

fn bench_fista_lanes(c: &mut Criterion) {
    let cfg = GatewayConfig::default_solver();
    let enc = Arc::new(CsEncoder::new(512, 192, 4, 0xCAFE).unwrap());
    let rec = RecordBuilder::new(0x1A4E5)
        .duration_s(16.0 * 512.0 / 250.0 + 1.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(20.0))
        .build();
    let ys: Vec<Vec<f64>> = rec
        .lead(0)
        .chunks_exact(512)
        .take(16)
        .map(|w| enc.encode(w).unwrap().iter().map(|&v| v as f64).collect())
        .collect();
    let fista = Fista::new(cfg);
    let lip = fista.lipschitz(enc.sensing_matrix()).unwrap();
    let mut g = c.benchmark_group("fista_lanes");
    g.sample_size(10);
    let mut scratch = FistaScratch::new();
    g.bench_function("solve_with_16x512", |b| {
        b.iter(|| {
            for y in &ys {
                black_box(
                    fista
                        .solve_with(&mut scratch, enc.sensing_matrix(), y, lip)
                        .unwrap(),
                );
            }
        })
    });
    let mut phase = SolvePhase::new(cfg);
    g.bench_function("solve_phase_16x512_1_worker", |b| {
        b.iter(|| {
            for y in &ys {
                phase.push(&enc, lip, y.iter().copied()).unwrap();
            }
            for solve in phase.run(1) {
                black_box(solve.unwrap());
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cs, bench_fista_lanes);
criterion_main!(benches);
