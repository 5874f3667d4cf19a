//! The session-pipeline ingestion hot paths: per-frame `try_push`
//! dispatch versus the batched `push_block` used for server-side
//! replay, plus the governor's costs. `monitor_push_block` is the
//! pinned entry future PRs track in `BENCH_*.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::{CardiacMonitor, MonitorBuilder};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

/// 10 s of interleaved 3-lead frames from a fixed synthetic record.
fn frames(n_leads: usize, secs: f64) -> (Vec<i32>, usize) {
    let rec = RecordBuilder::new(0xBE2C)
        .duration_s(secs)
        .n_leads(n_leads)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    let n = rec.n_samples();
    let mut out = Vec::with_capacity(n * n_leads);
    for i in 0..n {
        for l in 0..n_leads {
            out.push(rec.lead(l)[i]);
        }
    }
    (out, n)
}

fn monitor(level: ProcessingLevel) -> CardiacMonitor {
    MonitorBuilder::new()
        .level(level)
        .n_leads(3)
        .build()
        .expect("valid builder config")
}

fn bench_monitor(c: &mut Criterion) {
    let (buf, n_frames) = frames(3, 10.0);
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.bench_function("push_frame_10s_delineated", |b| {
        b.iter(|| {
            let mut m = monitor(ProcessingLevel::Delineated);
            let mut total = 0usize;
            for f in buf.chunks_exact(3) {
                total += m.try_push(black_box(f)).unwrap().len();
            }
            total
        })
    });
    g.bench_function("monitor_push_block", |b| {
        b.iter(|| {
            let mut m = monitor(ProcessingLevel::Delineated);
            m.push_block(black_box(&buf), n_frames).unwrap().len()
        })
    });
    g.bench_function("push_block_10s_classified", |b| {
        b.iter(|| {
            let mut m = monitor(ProcessingLevel::Classified);
            m.push_block(black_box(&buf), n_frames).unwrap().len()
        })
    });
    g.finish();
}

/// The governor's runtime costs: a live mode switch at a stream
/// boundary, and a fully governed session (epoch accounting + rhythm
/// sentinel + controller) against the bare monitor it wraps — the
/// overhead of closing the control loop.
fn bench_governor(c: &mut Criterion) {
    use wbsn_core::governor::{GovernedMonitor, GovernorConfig};
    use wbsn_core::level::OperatingMode;

    let (buf, n_frames) = frames(3, 10.0);
    let mut g = c.benchmark_group("governor");
    g.sample_size(10);
    g.bench_function("live_switch_roundtrip", |b| {
        // Classified -> delineated -> classified, with 1 s of signal
        // between switches so each new stage does real work.
        let second = &buf[..250 * 3];
        b.iter(|| {
            let mut m = monitor(ProcessingLevel::Classified);
            let mut total = 0usize;
            for _ in 0..5 {
                m.push_block(black_box(second), 250).unwrap();
                total += m
                    .switch_mode(OperatingMode::new(ProcessingLevel::Delineated, 3))
                    .unwrap()
                    .len();
                m.push_block(black_box(second), 250).unwrap();
                total += m
                    .switch_mode(OperatingMode::new(ProcessingLevel::Classified, 1))
                    .unwrap()
                    .len();
            }
            total
        })
    });
    g.bench_function("governed_push_block_10s", |b| {
        b.iter(|| {
            let mut gm = GovernedMonitor::new(
                MonitorBuilder::new().n_leads(3),
                GovernorConfig::for_leads(3),
                Default::default(),
            )
            .unwrap();
            gm.push_block(black_box(&buf), n_frames).unwrap().len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_monitor, bench_governor);
criterion_main!(benches);
