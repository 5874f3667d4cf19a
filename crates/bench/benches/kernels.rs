//! Timing of the sigproc primitives the node runs per sample, and of
//! the DWT and Φ/Φᵀ kernels every FISTA iteration runs at the gateway:
//! the one-window forms, and the lane forms at `K = 1` and `K = 4`
//! (`*_lanes{K}_*`), which process `K` windows per call — divide a
//! `K = 4` row by four for its cost per window, and compare it with the
//! `K = 1` row to see whether the kernel vectorises across lanes.
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::hint::black_box;
use wbsn_sigproc::matrix::SparseTernaryMatrix;
use wbsn_sigproc::morphology::{dilate, erode, mmd_transform_unscaled, MorphologicalFilter};
use wbsn_sigproc::wavelet::{
    wavedec_into, wavedec_lanes, waverec_into, waverec_lanes, AtrousQspline, DwtScratch, Wavelet,
};

fn signal(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i * 37) % 211) as i32 - 100).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let x = signal(2500); // 10 s at 250 Hz
    let mut g = c.benchmark_group("sigproc");
    g.sample_size(20);
    g.bench_function("erode_w15_10s", |b| b.iter(|| erode(black_box(&x), 15)));
    g.bench_function("dilate_w31_10s", |b| b.iter(|| dilate(black_box(&x), 31)));
    g.bench_function("mmd_s16_10s", |b| {
        b.iter(|| mmd_transform_unscaled(black_box(&x), 16))
    });
    let mf = MorphologicalFilter::for_sample_rate(250);
    g.bench_function("morph_filter_10s", |b| b.iter(|| mf.filter(black_box(&x))));
    let t = AtrousQspline::new(4).unwrap();
    g.bench_function("atrous_l4_10s", |b| b.iter(|| t.transform(black_box(&x))));
    let xf: Vec<f64> = (0..512).map(|i| (i as f64 * 0.13).sin()).collect();
    // The `_into` forms with warm scratch: the FISTA inner-loop kernels.
    let mut scratch = DwtScratch::default();
    let mut out = Vec::new();
    let mut coeffs = Vec::new();
    wavedec_into(&xf, Wavelet::Db4, 5, &mut scratch, &mut coeffs).unwrap();
    g.bench_function("wavedec_into_db4_512", |b| {
        b.iter(|| wavedec_into(black_box(&xf), Wavelet::Db4, 5, &mut scratch, &mut out).unwrap())
    });
    g.bench_function("waverec_into_db4_512", |b| {
        b.iter(|| {
            waverec_into(black_box(&coeffs), Wavelet::Db4, 5, &mut scratch, &mut out).unwrap()
        })
    });
    // A CR-50 sensing matrix at the gateway's window: Φ·v and Φᵀ·r.
    let phi = SparseTernaryMatrix::random(256, 512, 4, 0x5EED).unwrap();
    let mut meas = Vec::new();
    g.bench_function("sparse_apply_into_512x256_d4", |b| {
        b.iter(|| phi.apply_into(black_box(&xf), &mut meas))
    });
    let r = phi.apply(&xf);
    g.bench_function("sparse_apply_t_into_512x256_d4", |b| {
        b.iter(|| phi.apply_t_into(black_box(&r), &mut out))
    });
    lane_rows::<1>(&mut g, &xf, &phi);
    lane_rows::<4>(&mut g, &xf, &phi);
    g.finish();
}

/// The four FISTA kernels on `K` lanes of 512-sample windows (lane `l`
/// a shifted copy of `xf`), through one warm scratch.
fn lane_rows<const K: usize>(g: &mut BenchmarkGroup<'_>, xf: &[f64], phi: &SparseTernaryMatrix) {
    let lanes = |n: usize| -> Vec<[f64; K]> {
        (0..n)
            .map(|i| core::array::from_fn(|l| xf[(i + 61 * l) % xf.len()]))
            .collect()
    };
    let x = lanes(512);
    let r = lanes(256);
    let mut scratch = DwtScratch::default();
    let mut out = vec![[0.0; K]; 512];
    let mut meas = vec![[0.0; K]; 256];
    g.bench_function(format!("wavedec_lanes{K}_db4_512"), |b| {
        b.iter(|| wavedec_lanes(black_box(&x), Wavelet::Db4, 5, &mut scratch, &mut out).unwrap())
    });
    g.bench_function(format!("waverec_lanes{K}_db4_512"), |b| {
        b.iter(|| waverec_lanes(black_box(&x), Wavelet::Db4, 5, &mut scratch, &mut out).unwrap())
    });
    g.bench_function(format!("sparse_apply_lanes{K}_512x256_d4"), |b| {
        b.iter(|| phi.apply_lanes(black_box(&x), &mut meas))
    });
    g.bench_function(format!("sparse_apply_t_lanes{K}_512x256_d4"), |b| {
        b.iter(|| phi.apply_t_lanes(black_box(&r), &mut out))
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
