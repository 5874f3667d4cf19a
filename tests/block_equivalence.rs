//! Property-based equivalence of the batched ingest path with the
//! per-frame reference, over the whole monitor.
//!
//! The block kernels of the DSP hot path (the Φ CSC, the RMS combiner
//! and the stage-level `process_block`) promise **bit-exactness**: the
//! same frames must produce byte-identical payloads and bit-identical
//! counters whether they arrive one frame at a time through
//! `try_push` or in arbitrary blocks through `push_block`. This suite
//! randomizes the lead count, processing level, and block size
//! (including 1 and sizes that do not divide the record) and compares
//! the two paths end to end.

use proptest::prelude::*;
use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::payload::Payload;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

/// Interleaved frames from a synthetic record.
fn interleaved(seed: u64, secs: f64, n_leads: usize) -> (Vec<i32>, usize) {
    let rec = RecordBuilder::new(seed)
        .duration_s(secs)
        .n_leads(n_leads)
        .noise(NoiseConfig::ambulatory(20.0))
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

fn builder(level: ProcessingLevel, n_leads: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .level(level)
        .n_leads(n_leads)
        // A short CS window so compressed levels emit several windows
        // within a short record.
        .cs_window(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn push_block_is_bit_identical_to_per_frame(
        seed in 0u64..10_000,
        n_leads in 1usize..4, // synthetic records project at most 3 leads
        level_idx in 0usize..4,
        block_frames in 1usize..400,
    ) {
        let level = ProcessingLevel::ALL[level_idx];
        let (frames, n) = interleaved(seed, 6.0, n_leads);

        // Reference: one frame at a time.
        let mut per_frame = builder(level, n_leads).build().unwrap();
        let mut want = Vec::new();
        for frame in frames.chunks_exact(n_leads) {
            want.extend(per_frame.try_push(frame).unwrap());
        }
        want.extend(per_frame.flush().unwrap());

        // Batched: arbitrary block size, including a final partial
        // block when `block_frames` does not divide the record.
        let mut batched = builder(level, n_leads).build().unwrap();
        let mut got = Vec::new();
        for chunk in frames.chunks(block_frames * n_leads) {
            got.extend(batched.push_block(chunk, chunk.len() / n_leads).unwrap());
        }
        got.extend(batched.flush().unwrap());

        let bytes_want: Vec<u8> = want.iter().flat_map(Payload::encode).collect();
        let bytes_got: Vec<u8> = got.iter().flat_map(Payload::encode).collect();
        prop_assert_eq!(bytes_want, bytes_got, "{} leads at {}", n_leads, level);
        prop_assert_eq!(per_frame.counters(), batched.counters());
        prop_assert_eq!(n * n_leads, per_frame.counters().samples_in as usize);
    }
}
