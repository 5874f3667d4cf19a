//! Pinned DSP-kernel benchmark: the node's per-call forms vs the
//! block kernels it runs (`encode_batch_into` for the CS stage's Φ
//! CSC, `combine_block_into` for the RMS lead combiner). CI captures
//! the JSON lines into `BENCH_sigproc_kernels.json` next to
//! `BENCH_monitor.json`; the `*_block` / `*_into` vs per-frame /
//! per-window ratios are the evidence that the block datapath stays
//! at least on par with the reference while allocating nothing per
//! call.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wbsn_cs::encoder::CsEncoder;
use wbsn_sigproc::combine::RmsCombiner;

const N: usize = 2500; // 10 s at 250 Hz

/// Deterministic pseudo-ECG-scale test signal.
fn signal(n: usize) -> Vec<i32> {
    let mut state = 0x1234_5678u64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 52) as i32 - 2048;
            let wave = (800.0 * (i as f64 * 0.05).sin()) as i32;
            wave + noise / 8
        })
        .collect()
}

fn bench_cs_encode(c: &mut Criterion) {
    // 10 s of one lead in 512-sample windows at the paper's operating
    // point (CR ≈ 66%, d = 4).
    let enc = CsEncoder::new(512, 175, 4, 0xC5).unwrap();
    let x = signal(2048); // 4 whole windows
    let mut g = c.benchmark_group("sigproc_kernels");
    g.sample_size(20);
    g.bench_function("cs_encode_per_window_alloc", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for w in black_box(&x).chunks_exact(512) {
                acc += enc.encode(w).unwrap().iter().sum::<i64>();
            }
            acc
        })
    });
    g.bench_function("cs_encode_batch_into", |b| {
        let mut y = Vec::new();
        b.iter(|| {
            enc.encode_batch_into(black_box(&x), &mut y).unwrap();
            y.iter().sum::<i64>()
        })
    });
    g.finish();
}

fn bench_rms(c: &mut Criterion) {
    let frames = signal(3 * N);
    let combiner = RmsCombiner::new(3).unwrap();
    let mut g = c.benchmark_group("sigproc_kernels");
    g.sample_size(20);
    g.bench_function("rms3_per_frame_10s", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for f in black_box(&frames).chunks_exact(3) {
                acc += combiner.push(f) as i64;
            }
            acc
        })
    });
    g.bench_function("rms3_block_10s", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            combiner.combine_block_into(black_box(&frames), &mut out);
            out.iter().map(|&v| v as i64).sum::<i64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cs_encode, bench_rms);
criterion_main!(benches);
