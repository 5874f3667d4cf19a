//! Figure 1 (+ text claim T5): the abstraction ladder — transmitted
//! bandwidth, node power and battery lifetime at each on-node
//! processing level.
//!
//! Paper: "on-node digital signal processing increases the energy
//! efficiency of cardiac monitoring by rising the abstraction level
//! and decreasing the bandwidth of transmitted data"; the SmartCardia
//! node's "mean time between charges is typically one week".

use wbsn_bench::{bar, fmt_power, header};
use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

fn main() {
    header(
        "Figure 1",
        "bandwidth / power / lifetime per processing abstraction level",
        "bandwidth and energy fall as abstraction rises; ≈1 week between charges",
    );
    let rec = RecordBuilder::new(0xF161)
        .duration_s(60.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(25.0))
        .build();

    println!(
        "\n{:<18} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "level", "bytes/s", "power", "duty@8MHz", "lifetime", "beats"
    );
    let mut rows = Vec::new();
    for level in ProcessingLevel::ALL {
        // CS levels run at their Figure 5 operating points.
        let cr = match level {
            ProcessingLevel::CompressedSingleLead => 54.8,
            ProcessingLevel::CompressedMultiLead => 66.5,
            _ => 65.9,
        };
        let mut node = MonitorBuilder::new()
            .level(level)
            .cs_compression_ratio(cr)
            .build()
            .unwrap();
        let _ = node.process_record(rec.leads()).unwrap();
        let c = node.counters();
        let r = node.energy_report();
        let bytes_per_s = c.payload_bytes as f64 / c.seconds;
        println!(
            "{:<18} {:>12.1} {:>12} {:>9.1}% {:>9.1} days {:>10}",
            level.label(),
            bytes_per_s,
            fmt_power(r.breakdown.total_j()),
            r.duty_cycle_8mhz * 100.0,
            r.lifetime_days,
            c.beats,
        );
        rows.push((level.label(), bytes_per_s, r.breakdown.total_j()));
    }

    println!("\ntransmitted bandwidth (log-ish view):");
    let max_b = rows.iter().map(|r| r.1).fold(0.0, f64::max);
    for (name, bytes, _) in &rows {
        println!(
            "{:<18} |{}| {:9.1} B/s",
            name,
            bar((bytes + 1.0).ln(), (max_b + 1.0).ln(), 40),
            bytes
        );
    }
    println!("\nnode power:");
    let max_p = rows.iter().map(|r| r.2).fold(0.0, f64::max);
    for (name, _, p) in &rows {
        println!("{:<18} |{}| {}", name, bar(*p, max_p, 40), fmt_power(*p));
    }
}
