//! CS encoder (node side) and FISTA decoder (base-station side).
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::joint::{GroupFista, GroupFistaConfig};
use wbsn_cs::solver::{Fista, FistaConfig, FistaScratch};
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
    // Same solve on a reused scratch: the gateway's decode path.
    let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
    let mut scratch = FistaScratch::new();
    g.bench_function("fista_50it_512_scratch", |b| {
        b.iter(|| {
            fista
                .solve_with(&mut scratch, enc.sensing_matrix(), black_box(&yf), None)
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

criterion_group!(benches, bench_cs);
criterion_main!(benches);
