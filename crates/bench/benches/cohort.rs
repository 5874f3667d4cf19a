//! Cohort-engine throughput and the cohort-level quality lines.
//!
//! `cohort/smoke` times one full run of the CI smoke cohort (24
//! scripted sessions × 2 modeled hours through node pipeline → uplink
//! → lossy duplex channel → sharded gateway), and
//! `cohort/smoke_w{1,4}` time the same plans at the other worker
//! counts — the spread between them is the decode-parallelism payoff,
//! while `tests/cohort_determinism.rs` pins that the *report* never
//! moves. `cohort/synth_smoke` renders every script of the same plans
//! with `Script::record` and nothing else, so the synthetic workload's
//! share of `cohort/smoke` reads off as its own line: it is the input
//! the system is fed, not cost of the system. `cohort/noise_emg_7500`
//! prices the largest noise source alone: one 30 s, 250 Hz EMG trace
//! through `NoiseConfig::generate`.
//!
//! Alongside the timings, one measured run prints the cohort-level
//! quality numbers as `{"bench": "cohort/<metric>", "value": ...}`
//! JSON lines so CI captures them into `BENCH_cohort.json`: detection
//! rate and latency, false alerts per patient-day, mean/p95 PRD, link
//! loss/recovery totals, and modeled battery-days. These are the
//! population-level face of the paper's detection-vs-power trade — a
//! regression here means the *system* got worse for the cohort, not
//! just slower.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wbsn::cohort::{CohortReport, CohortRunConfig, CohortRunner, SessionPlan};
use wbsn::ecg_synth::noise::{NoiseConfig, NoiseKind};

fn run_smoke(workers: usize) -> CohortReport {
    let cfg = CohortRunConfig {
        workers,
        ..CohortRunConfig::smoke()
    };
    CohortRunner::new(cfg).run().expect("smoke cohort run")
}

/// Renders every script of `plans`; returns the samples rendered over
/// all leads.
fn synthesize(plans: &[SessionPlan]) -> usize {
    plans
        .iter()
        .flat_map(|p| &p.scripts)
        .map(|s| {
            let rec = s.record();
            rec.n_leads() * rec.n_samples()
        })
        .sum()
}

fn quality_lines(r: &CohortReport) {
    let detected_pct = if r.detection.episodes > 0 {
        100.0 * r.detection.detected as f64 / r.detection.episodes as f64
    } else {
        0.0
    };
    println!("{{\"bench\": \"cohort/detected_pct\", \"value\": {detected_pct:.1}}}");
    println!(
        "{{\"bench\": \"cohort/latency_mean_s\", \"value\": {:.2}}}",
        r.detection.latency_mean_s
    );
    println!(
        "{{\"bench\": \"cohort/false_alerts_per_day\", \"value\": {:.3}}}",
        r.detection.false_alerts_per_day
    );
    println!(
        "{{\"bench\": \"cohort/prd_mean_pct\", \"value\": {:.2}}}",
        r.prd.mean_percent
    );
    println!(
        "{{\"bench\": \"cohort/prd_p95_pct\", \"value\": {:.2}}}",
        r.prd.p95_percent
    );
    println!(
        "{{\"bench\": \"cohort/link_lost\", \"value\": {}}}",
        r.link.lost
    );
    println!(
        "{{\"bench\": \"cohort/link_recovered\", \"value\": {}}}",
        r.link.recovered
    );
    println!(
        "{{\"bench\": \"cohort/battery_days_mean\", \"value\": {:.2}}}",
        r.battery_days_mean
    );
}

fn bench_cohort(c: &mut Criterion) {
    let mut g = c.benchmark_group("cohort");
    g.sample_size(10);
    // One measured run for the quality lines CI captures alongside
    // the timing medians.
    quality_lines(&run_smoke(2));
    g.bench_function("smoke", |b| b.iter(|| run_smoke(black_box(2))));
    let plans = CohortRunner::new(CohortRunConfig::smoke()).plans();
    g.bench_function("synth_smoke", |b| b.iter(|| synthesize(black_box(&plans))));
    let emg = NoiseConfig {
        sources: vec![(NoiseKind::Emg, 1.0)],
        snr_db: Some(18.0),
    };
    let mut rng = StdRng::seed_from_u64(7);
    g.bench_function("noise_emg_7500", |b| {
        b.iter(|| emg.generate(black_box(7_500), 250.0, 0.04, &mut rng))
    });
    for workers in [1usize, 4] {
        g.bench_function(format!("smoke_w{workers}"), |b| {
            b.iter(|| run_smoke(black_box(workers)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cohort);
criterion_main!(benches);
