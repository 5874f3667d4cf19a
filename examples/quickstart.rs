//! Quickstart: generate a synthetic 3-lead ECG, run the on-node
//! pipeline at the "delineated" abstraction level, and print what the
//! node would transmit plus its energy budget.
//!
//! Paper section: Figure 1 + Section IV-A — the delineated rung of
//! the abstraction ladder with its Figure 6-style energy breakdown.
//!
//! Run with: `cargo run --example quickstart`

use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::payload::Payload;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

fn main() {
    // 1. A 30 s annotated synthetic record (the MIT-BIH stand-in).
    let record = RecordBuilder::new(42)
        .duration_s(30.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    println!(
        "record: {} leads × {} samples at {} Hz ({} ground-truth beats)",
        record.n_leads(),
        record.n_samples(),
        record.fs(),
        record.beats().len()
    );

    // 2. The node, configured to delineate on-board and transmit only
    //    fiducial points.
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::Delineated)
        .n_leads(3)
        .build()
        .expect("default configuration is valid");

    // 3. Stream the record through the node.
    let payloads = node
        .process_record(record.leads())
        .expect("record matches the configured lead count");
    let beats: usize = payloads
        .iter()
        .map(|p| match p {
            Payload::Beats { beats } => beats.len(),
            _ => 0,
        })
        .sum();
    println!(
        "node output: {} payloads carrying {} delineated beats ({} bytes total)",
        payloads.len(),
        beats,
        node.counters().payload_bytes
    );
    if let Some(Payload::Beats { beats }) = payloads.first() {
        if let Some(b) = beats.first() {
            println!(
                "first beat: R at sample {} (P {:?}, T {:?})",
                b.r_peak, b.p_peak, b.t_peak
            );
        }
    }

    // 4. What did that cost?
    let report = node.energy_report();
    println!(
        "energy: {:.2} mW average ({:.0}% radio) → {:.0} days on a 100 mAh cell",
        report.breakdown.avg_power_mw(),
        report.breakdown.shares().0 * 100.0,
        report.lifetime_days
    );
    println!(
        "versus raw streaming the same record costs ≈2.8 mW and <4 days —\nthe Figure 1 trade-off of the paper. Try `--example arrhythmia_monitor` next."
    );
}
