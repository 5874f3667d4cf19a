//! Timing of the sigproc primitives the node runs per sample.
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wbsn_sigproc::morphology::{dilate, erode, mmd_transform_unscaled, MorphologicalFilter};
use wbsn_sigproc::wavelet::{
    wavedec, wavedec_into, waverec, waverec_into, AtrousQspline, DwtScratch, Wavelet,
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
    g.bench_function("wavedec_db4_512", |b| {
        b.iter(|| wavedec(black_box(&xf), Wavelet::Db4, 5).unwrap())
    });
    let coeffs = wavedec(&xf, Wavelet::Db4, 5).unwrap();
    g.bench_function("waverec_db4_512", |b| {
        b.iter(|| waverec(black_box(&coeffs), Wavelet::Db4, 5).unwrap())
    });
    // The `_into` forms with warm scratch: the FISTA inner-loop kernels.
    let mut scratch = DwtScratch::default();
    let mut out = Vec::new();
    g.bench_function("wavedec_into_db4_512", |b| {
        b.iter(|| wavedec_into(black_box(&xf), Wavelet::Db4, 5, &mut scratch, &mut out).unwrap())
    });
    g.bench_function("waverec_into_db4_512", |b| {
        b.iter(|| {
            waverec_into(black_box(&coeffs), Wavelet::Db4, 5, &mut scratch, &mut out).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
