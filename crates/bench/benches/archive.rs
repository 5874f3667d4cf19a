//! Archive subsystem throughput and the recording quality lines.
//!
//! `archive/record` times a full recorded smoke-cohort run (the live
//! run plus the recorder tap), `archive/write` times re-streaming the
//! recording's blocks through a fresh [`ArchiveWriter`] (the pure
//! serialization cost, sink = `io::sink()`), and
//! `archive/replay_report` times regenerating the `CohortReport` from
//! the archive — the operation whose speedup over a live re-run is the
//! whole point of recording.
//!
//! One measured pass prints `{"bench": "archive/<metric>", "value":
//! ...}` JSON lines for CI's `BENCH_archive.json`: recording size and
//! overhead, per-codec compression ratios, writer throughput in MB/s,
//! and the replay-vs-live speedup.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use wbsn::cohort::{CohortReport, CohortRunConfig, CohortRunner};
use wbsn::replay::CohortReplayer;
use wbsn_archive::{ArchiveBlock, ArchiveWriter, CodecStats, RunTrailer};

fn smoke_runner(workers: usize) -> CohortRunner {
    CohortRunner::new(CohortRunConfig {
        workers,
        ..CohortRunConfig::smoke()
    })
}

fn record_smoke() -> (CohortReport, Vec<u8>) {
    smoke_runner(2)
        .run_recorded(Vec::new())
        .expect("smoke cohort records")
}

/// Re-streams already-decoded blocks through a fresh writer; the pure
/// encode + frame + CRC cost, no cohort simulation attached.
fn rewrite(meta: &wbsn_archive::RunMeta, blocks: &[ArchiveBlock]) -> (u64, CodecStats) {
    let mut w = ArchiveWriter::new(std::io::sink(), meta).expect("writer opens");
    let mut trailer = RunTrailer {
        sessions: 0,
        modeled_hours: 0,
        windows_skipped: 0,
    };
    for block in blocks {
        match block {
            ArchiveBlock::SessionMeta { session, meta } => {
                w.session_meta(*session, meta).expect("block writes")
            }
            ArchiveBlock::Epoch(rec) => w.epoch(rec).expect("block writes"),
            ArchiveBlock::SessionEnd { session, end } => {
                w.session_end(*session, end).expect("block writes")
            }
            ArchiveBlock::Trailer(t) => trailer = *t,
        }
    }
    let bytes = w.bytes_written();
    let stats = w.codec_stats();
    w.finish(&trailer).expect("trailer writes");
    (bytes, stats)
}

fn quality_lines(bytes: &[u8]) {
    let replayer = CohortReplayer::from_bytes(bytes).expect("archive reads back");
    let (_, stats) = rewrite(replayer.meta(), replayer.blocks());
    println!(
        "{{\"bench\": \"archive/size_kib\", \"value\": {:.1}}}",
        bytes.len() as f64 / 1024.0
    );
    let ratio = |raw: u64, coded: u64| {
        if coded == 0 {
            0.0
        } else {
            raw as f64 / coded as f64
        }
    };
    println!(
        "{{\"bench\": \"archive/reference_compression_x\", \"value\": {:.2}}}",
        ratio(stats.reference_raw, stats.reference_coded)
    );
    println!(
        "{{\"bench\": \"archive/measurement_compression_x\", \"value\": {:.2}}}",
        ratio(stats.measurement_raw, stats.measurement_coded)
    );

    // Writer throughput: wall-time to re-stream the whole recording.
    let reps = 20u32;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(rewrite(replayer.meta(), replayer.blocks()));
    }
    let per_pass = t0.elapsed().as_secs_f64() / f64::from(reps);
    println!(
        "{{\"bench\": \"archive/write_mib_per_s\", \"value\": {:.1}}}",
        bytes.len() as f64 / (1024.0 * 1024.0) / per_pass
    );

    // Replay-vs-live speedup: regenerate the report from the archive
    // vs re-running the cohort simulation.
    let t0 = Instant::now();
    let replayed = replayer.report().expect("report replays");
    let replay_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let live = smoke_runner(2).run().expect("smoke cohort runs");
    let live_s = t0.elapsed().as_secs_f64();
    assert_eq!(live, replayed, "replay diverged from live inside the bench");
    println!(
        "{{\"bench\": \"archive/replay_speedup_x\", \"value\": {:.0}}}",
        live_s / replay_s.max(1e-9)
    );
}

fn bench_archive(c: &mut Criterion) {
    let (_, bytes) = record_smoke();
    quality_lines(&bytes);
    let replayer = CohortReplayer::from_bytes(&bytes).expect("archive reads back");

    let mut g = c.benchmark_group("archive");
    g.sample_size(10);
    g.bench_function("record", |b| b.iter(|| black_box(record_smoke())));
    g.bench_function("write", |b| {
        b.iter(|| black_box(rewrite(replayer.meta(), replayer.blocks())))
    });
    g.bench_function("replay_report", |b| {
        b.iter(|| {
            let r = CohortReplayer::from_bytes(black_box(&bytes)).expect("archive reads back");
            black_box(r.report().expect("report replays"))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_archive);
criterion_main!(benches);
