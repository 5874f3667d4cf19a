//! Figure 6: breakdown of node energy consumption for raw streaming
//! vs single-lead CS vs multi-lead CS.
//!
//! Paper: "The average power reduction estimates are 44.7% and 56.1%
//! compared to raw-data streaming for single-lead and multi-lead CS
//! compression", with the radio dominating the raw-streaming budget.
//! Each configuration transmits at its own Figure 5 operating point
//! (the CR that still yields ≈20 dB reconstruction).

use wbsn_bench::{bar, fmt_power, header};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

fn main() {
    header(
        "Figure 6",
        "node energy breakdown: No Comp. / Single-Lead CS / Multi-Lead CS",
        "avg power reduction 44.7% (SL) and 56.1% (ML) vs raw streaming",
    );
    let rec = RecordBuilder::new(0xF166)
        .duration_s(60.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(25.0))
        .build();

    // Operating points from the Figure 5 experiment: the CR at which
    // each mode still reaches ~20 dB with our decoder.
    let configs = [
        ("No Comp.", ProcessingLevel::RawStreaming, 0.0),
        (
            "Single-Lead CS",
            ProcessingLevel::CompressedSingleLead,
            54.8,
        ),
        ("Multi-lead CS", ProcessingLevel::CompressedMultiLead, 66.5),
    ];
    let mut totals = Vec::new();
    println!(
        "\n{:<16} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "config", "radio", "sampling", "comp.", "OS+sleep", "total"
    );
    for (name, level, cr) in configs {
        let mut builder = MonitorBuilder::new().level(level);
        if cr > 0.0 {
            builder = builder.cs_compression_ratio(cr);
        }
        let mut node = builder.build().unwrap();
        let _ = node.process_record(rec.leads()).unwrap();
        let r = node.energy_report();
        let b = r.breakdown;
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>12} {:>12}",
            name,
            fmt_power(b.radio_j),
            fmt_power(b.sampling_j),
            fmt_power(b.computation_j),
            fmt_power(b.os_j + b.sleep_j),
            fmt_power(b.total_j()),
        );
        totals.push((name, b.total_j(), b));
    }

    println!("\nper-second energy [µJ] (bar ∝ energy):");
    let max = totals.iter().map(|t| t.1).fold(0.0, f64::max);
    for (name, total, b) in &totals {
        println!(
            "{:<16} |{}| {:7.1} µJ  (radio {:4.0}%, sampling {:4.0}%, comp {:4.0}%)",
            name,
            bar(*total, max, 40),
            total * 1e6,
            b.shares().0 * 100.0,
            b.shares().1 * 100.0,
            b.shares().2 * 100.0,
        );
    }

    let raw = totals[0].1;
    println!("\naverage power reduction vs raw streaming:");
    println!(
        "  single-lead CS : {:5.1}%   (paper: 44.7%)",
        (1.0 - totals[1].1 / raw) * 100.0
    );
    println!(
        "  multi-lead CS  : {:5.1}%   (paper: 56.1%)",
        (1.0 - totals[2].1 / raw) * 100.0
    );
}
