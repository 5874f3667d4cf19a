//! Figure 5: averaged output SNR over all records vs compression
//! ratio, single-lead vs multi-lead CS.
//!
//! Paper: SNR stays above 20 dB ("good reconstruction quality") up to
//! CR = 65.9% for single-lead and CR = 72.7% for multi-lead CS, with
//! the multi-lead curve dominating at high CR.
//!
//! Usage: `fig5_snr_vs_cr [n_records] [fast]`

use wbsn_bench::sweep::{cr_at_snr, snr_vs_cr_joint, snr_vs_cr_single, SweepConfig};
use wbsn_bench::{ascii_plot, header};
use wbsn_ecg_synth::suite::cs_eval_suite;

fn main() {
    let n_records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let fast = std::env::args().any(|a| a == "fast");
    header(
        "Figure 5",
        "averaged SNR vs compression ratio (single-lead vs multi-lead CS)",
        "20 dB crossing at CR ≈ 65.9% (SL) / 72.7% (ML); ML ≥ SL at high CR",
    );

    let records = cs_eval_suite(n_records, 0xF165);
    let mut cfg = SweepConfig::default();
    if fast {
        cfg.fista.max_iters = 60;
    }
    let crs: Vec<f64> = if fast {
        vec![30.0, 50.0, 65.0, 75.0, 85.0]
    } else {
        vec![
            20.0, 30.0, 40.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 90.0,
        ]
    };

    println!(
        "records: {n_records}  window: {}  d/col: {}",
        cfg.window, cfg.d_per_col
    );
    let single = snr_vs_cr_single(&records, &crs, &cfg).expect("single-lead sweep");
    let joint = snr_vs_cr_joint(&records, &crs, &cfg).expect("multi-lead sweep");

    println!(
        "\n{:>8} {:>14} {:>14}",
        "CR [%]", "SL SNR [dB]", "ML SNR [dB]"
    );
    for (s, j) in single.iter().zip(&joint) {
        println!(
            "{:>8.1} {:>14.2} {:>14.2}",
            s.cr_percent, s.snr_db, j.snr_db
        );
    }

    let sl_cross = cr_at_snr(&single, 20.0);
    let ml_cross = cr_at_snr(&joint, 20.0);
    println!("\nCR at 20 dB:");
    println!(
        "  single-lead : {}   (paper: 65.9%)",
        sl_cross.map_or("not reached".into(), |c| format!("{c:.1}%"))
    );
    println!(
        "  multi-lead  : {}   (paper: 72.7%)",
        ml_cross.map_or("not reached".into(), |c| format!("{c:.1}%"))
    );
    if let (Some(sl), Some(ml)) = (sl_cross, ml_cross) {
        println!(
            "  multi-lead sustains {:+.1} CR points over single-lead (paper: +6.8)",
            ml - sl
        );
    }

    let s_pts: Vec<(f64, f64)> = single.iter().map(|p| (p.cr_percent, p.snr_db)).collect();
    let j_pts: Vec<(f64, f64)> = joint.iter().map(|p| (p.cr_percent, p.snr_db)).collect();
    println!(
        "\n{}",
        ascii_plot(
            &[("single-lead CS", &s_pts), ("multi-lead CS", &j_pts)],
            60,
            16
        )
    );
}
