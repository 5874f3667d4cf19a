//! Counting-allocator harness pinning the zero-allocation guarantee of
//! the batched ingest hot path.
//!
//! The serving layer's contract (see `CardiacMonitor::push_block`) is
//! that steady-state ingestion performs **zero heap allocations per
//! frame**: every buffer the block kernels touch is preallocated or
//! caller-owned, and the only allocations left are per-payload /
//! per-beat materializations, which occur at a rate orders of
//! magnitude below the frame rate. This test wraps the system
//! allocator with an allocation counter and measures the hot path
//! directly, so a stray `Vec::new()` sneaking into a kernel fails CI
//! rather than showing up as a bench regression three PRs later.
//!
//! The archive writer (`wbsn-archive`) makes the same promise at the
//! recording layer: after its scratch buffers reach steady-state
//! capacity, appending an epoch block performs zero heap allocations,
//! so memory stays O(epoch) at any recording length.
//!
//! The gateway's decode path makes it per solver iteration: a FISTA
//! solve on a warm `FistaScratch` allocates a small constant (its
//! returned samples), the same at 20 iterations as at 400. The
//! gateway's solve phase makes it per window: a warm phase solving N
//! windows in lanes allocates exactly its N returned sample vectors,
//! and a warm joint solve of L leads its L sample vectors and the one
//! vector that holds them.
//!
//! All scenarios live in ONE `#[test]` so the counter is never
//! polluted by a concurrently running test.
//!
//! This file is the single workspace-wide exception to the
//! unsafe-freedom policy (`[workspace.lints]` denies `unsafe_code`;
//! `analyze.toml` allow-lists exactly this path): a `GlobalAlloc`
//! wrapper cannot be written without `unsafe`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use wbsn_archive::{ArchiveWriter, EpochItem, EpochRecord, RunMeta};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Continuation, Fista, FistaConfig, FistaScratch};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::{SolvePhase, TapItem};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Interleaved 3-lead frames from a synthetic ambulatory record.
fn ecg_frames(secs: f64) -> (Vec<i32>, usize) {
    let rec = RecordBuilder::new(0xA110C)
        .duration_s(secs)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    let n = rec.n_samples();
    let mut out = Vec::with_capacity(n * 3);
    for i in 0..n {
        for l in 0..3 {
            out.push(rec.lead(l)[i]);
        }
    }
    (out, n)
}

#[test]
fn steady_state_ingest_is_allocation_free() {
    // ---- 1. Quiet steady state: exactly zero allocations. ----
    // A flat signal produces no beats and no payloads, so a warm
    // session's ingest path must not touch the allocator at all.
    let mut monitor = MonitorBuilder::new()
        .level(ProcessingLevel::Delineated)
        .build()
        .expect("valid session");
    let quiet = vec![0i32; 3 * 250];
    // Warm-up: sizes every scratch buffer and finishes QRS learning.
    for _ in 0..8 {
        monitor.push_block(&quiet, 250).expect("ingest");
    }
    let before = allocs();
    for _ in 0..16 {
        let payloads = monitor.push_block(&quiet, 250).expect("ingest");
        assert!(payloads.is_empty(), "flat signal must not emit");
    }
    let frame_allocs = allocs() - before;
    assert_eq!(
        frame_allocs, 0,
        "steady-state monitor ingest allocated {frame_allocs} times over 4000 quiet frames; \
         the block kernels must be allocation-free per frame"
    );

    // ---- 2. Active signal: allocations scale with beats/payloads,
    // never with frames. ----
    let (ecg, n_frames) = ecg_frames(10.0);
    let mut monitor = MonitorBuilder::new()
        .level(ProcessingLevel::Delineated)
        .build()
        .expect("valid session");
    // Warm-up replay of the same record.
    monitor.push_block(&ecg, n_frames).expect("ingest");
    let before = allocs();
    monitor.push_block(&ecg, n_frames).expect("ingest");
    let active_allocs = allocs() - before;
    let beats = monitor.counters().beats;
    assert!(beats > 10, "record should contain beats, got {beats}");
    // ~12 beats and 1-2 payloads in 2500 frames: allocations must be
    // bounded by the (small) per-beat/per-payload materializations,
    // nowhere near one per frame.
    assert!(
        (active_allocs as usize) < n_frames / 10,
        "active ingest allocated {active_allocs} times for {n_frames} frames — \
         that is per-frame allocation, not per-beat"
    );

    // ---- 3. Archive writer: appending a warm epoch block allocates
    // exactly zero times, so recorder memory is O(epoch) at any
    // recording length. ----
    let epoch = EpochRecord {
        session: 7,
        epoch: 0,
        items: vec![
            EpochItem::Gateway(TapItem::Rhythm {
                msg_seq: 42,
                n_beats: 11,
                mean_hr_x10: 734,
                af_burden_pct: 3,
                af_active: false,
            }),
            EpochItem::Gateway(TapItem::Beats {
                msg_seq: 42,
                beats: (0..12)
                    .map(|i| wbsn_delineation::BeatFiducials::new(200 * i + 40))
                    .collect(),
            }),
            EpochItem::Gateway(TapItem::CsWindow {
                lead: 0,
                window_seq: 9,
                prd: Some(4.5),
                measurements: (0..192).map(|i| (i as i16) * 13 - 700).collect(),
            }),
            EpochItem::Reference {
                lead: 0,
                offset: 4608,
                samples: (0..512i32).map(|i| (i * 29) % 803 - 400).collect(),
            },
        ],
    };
    let meta = RunMeta {
        alert_grace_s: 30.0,
        min_episode_s: 20.0,
        reconstruct_every: 8,
        solver: wbsn_cs::solver::FistaConfig::default(),
    };
    let mut w = ArchiveWriter::new(std::io::sink(), &meta).expect("writer opens");
    // Warm-up: grows scratch + payload buffers to their final size.
    for _ in 0..8 {
        w.epoch(&epoch).expect("epoch writes");
    }
    let before = allocs();
    for _ in 0..16 {
        w.epoch(&epoch).expect("epoch writes");
    }
    let writer_allocs = allocs() - before;
    assert_eq!(
        writer_allocs, 0,
        "steady-state ArchiveWriter::epoch allocated {writer_allocs} times over 16 \
         appends; the recording hot path must reuse its scratch buffers"
    );

    // ---- 4. Gateway decode: a FISTA solve on a warm scratch
    // allocates a per-solve constant, never per iteration. `tol = 0`
    // never fires, so each solve runs exactly `max_iters`. ----
    let rec = RecordBuilder::new(0xF157A)
        .duration_s(3.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(24.0))
        .build();
    let enc = CsEncoder::new(512, 192, 4, 0xF157A).expect("valid encoder");
    let y: Vec<f64> = enc
        .encode(&rec.lead(0)[..512])
        .expect("encodes")
        .iter()
        .map(|&v| v as f64)
        .collect();
    let solve_allocs = |max_iters: usize, continuation: Option<Continuation>| -> (u64, usize) {
        let fista = Fista::new(FistaConfig {
            max_iters,
            tol: 0.0,
            restart: true,
            continuation,
            ..FistaConfig::default()
        });
        let lip = fista.lipschitz(enc.sensing_matrix()).expect("lipschitz");
        let mut scratch = FistaScratch::new();
        // Warm-up: sizes the scratch.
        fista
            .solve_with(&mut scratch, enc.sensing_matrix(), &y, lip)
            .expect("solves");
        let before = allocs();
        let solve = fista
            .solve_with(&mut scratch, enc.sensing_matrix(), &y, lip)
            .expect("solves");
        (allocs() - before, solve.iters)
    };
    let schedule = Continuation {
        start_rel: 0.01,
        factor: 0.3,
        stage_tol: 0.0,
    };
    for continuation in [None, Some(schedule)] {
        let (short, short_iters) = solve_allocs(20, continuation);
        let (long, long_iters) = solve_allocs(400, continuation);
        assert_eq!((short_iters, long_iters), (20, 400));
        assert_eq!(
            short, long,
            "FISTA on a warm scratch allocated {short} times at 20 iterations but {long} \
             at 400 (continuation: {continuation:?}); the iteration loop must not allocate"
        );
        assert!(
            short <= 2,
            "a warm-scratch solve should allocate only its output, got {short}"
        );
    }

    // ---- 5. Solve phase: a warm phase over N windows allocates only
    // its N returned sample vectors, the same at 20 iterations as at
    // 400. Six windows of one Φ run in four lanes (refills, then a
    // one-window tail), two of another Φ one at a time; one worker, so
    // no thread is spawned. ----
    let rec = RecordBuilder::new(0x1A4E5)
        .duration_s(17.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(24.0))
        .build();
    let encs = [
        Arc::new(CsEncoder::new(512, 192, 4, 0x1A4E5).expect("valid encoder")),
        Arc::new(CsEncoder::new(512, 160, 4, 0x1A4E6).expect("valid encoder")),
    ];
    let jobs: Vec<(usize, Vec<f64>)> = rec
        .lead(0)
        .chunks_exact(512)
        .take(8)
        .enumerate()
        .map(|(k, w)| {
            let e = usize::from(k >= 6);
            let y = encs[e].encode(w).expect("encodes");
            (e, y.iter().map(|&v| v as f64).collect())
        })
        .collect();
    assert_eq!(jobs.len(), 8);
    let phase_allocs = |max_iters: usize, continuation: Option<Continuation>| -> (u64, usize) {
        let cfg = FistaConfig {
            max_iters,
            tol: 0.0,
            restart: true,
            continuation,
            ..FistaConfig::default()
        };
        let fista = Fista::new(cfg);
        let lips = encs
            .each_ref()
            .map(|enc| fista.lipschitz(enc.sensing_matrix()).expect("lipschitz"));
        let mut phase = SolvePhase::new(cfg);
        let run = |phase: &mut SolvePhase| -> usize {
            for (e, y) in &jobs {
                phase
                    .push(&encs[*e], lips[*e], y.iter().copied())
                    .expect("queues");
            }
            phase.run(1).map(|solve| solve.expect("solves").iters).sum()
        };
        // Warm-up: sizes the queue, the lanes and the results.
        run(&mut phase);
        let before = allocs();
        let iters = run(&mut phase);
        (allocs() - before, iters)
    };
    for continuation in [None, Some(schedule)] {
        let (short, short_iters) = phase_allocs(20, continuation);
        let (long, long_iters) = phase_allocs(400, continuation);
        assert_eq!((short_iters, long_iters), (8 * 20, 8 * 400));
        assert_eq!(
            (short, long),
            (8, 8),
            "a warm solve phase over 8 windows allocated {short} times at 20 iterations \
             and {long} at 400 (continuation: {continuation:?}); it must allocate only \
             the 8 returned sample vectors"
        );
    }

    // ---- 6. Joint solve: a warm joint solve of three leads allocates
    // only its result (three sample vectors and the vector holding
    // them), the same at 20 iterations as at 400. ----
    let rec = RecordBuilder::new(0x101E7)
        .duration_s(3.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(24.0))
        .build();
    let lead_encs: Vec<CsEncoder> = (0..3)
        .map(|l| CsEncoder::new(512, 160, 4, 0x101E7 + l).expect("valid encoder"))
        .collect();
    let phis: Vec<&wbsn_sigproc::SparseTernaryMatrix> =
        lead_encs.iter().map(CsEncoder::sensing_matrix).collect();
    let ys: Vec<Vec<f64>> = lead_encs
        .iter()
        .enumerate()
        .map(|(l, enc)| {
            let y = enc.encode(&rec.lead(l)[..512]).expect("encodes");
            y.iter().map(|&v| v as f64).collect()
        })
        .collect();
    let joint_allocs = |max_iters: usize, continuation: Option<Continuation>| -> (u64, usize) {
        let fista = Fista::new(FistaConfig {
            max_iters,
            tol: 0.0,
            restart: true,
            continuation,
            ..FistaConfig::default()
        });
        let lips: Vec<f64> = phis
            .iter()
            .map(|phi| fista.lipschitz(phi).expect("lipschitz"))
            .collect();
        let mut scratch = FistaScratch::new();
        // Warm-up: sizes the lanes and the temporaries.
        fista
            .solve_joint(&mut scratch, &phis, &ys, &lips)
            .expect("solves");
        let before = allocs();
        let solves = fista
            .solve_joint(&mut scratch, &phis, &ys, &lips)
            .expect("solves");
        (allocs() - before, solves.iter().map(|s| s.iters).sum())
    };
    for continuation in [None, Some(schedule)] {
        let (short, short_iters) = joint_allocs(20, continuation);
        let (long, long_iters) = joint_allocs(400, continuation);
        assert_eq!((short_iters, long_iters), (3 * 20, 3 * 400));
        assert_eq!(
            (short, long),
            (4, 4),
            "a warm joint solve of 3 leads allocated {short} times at 20 iterations \
             and {long} at 400 (continuation: {continuation:?}); it must allocate only \
             its result"
        );
    }
}
