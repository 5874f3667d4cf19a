//! Cross-crate integration: the energy story of the paper, end to end.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_platform::battery::Battery;
use wbsn_platform::node::{NodeModel, WorkloadProfile};

fn report_for(level: ProcessingLevel, cr: f64) -> wbsn_core::EnergyReport {
    let rec = RecordBuilder::new(55)
        .duration_s(30.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    let mut builder = MonitorBuilder::new().level(level);
    if cr > 0.0 {
        builder = builder.cs_compression_ratio(cr);
    }
    let mut node = builder.build().unwrap();
    let _ = node.process_record(rec.leads()).unwrap();
    node.energy_report()
}

#[test]
fn figure6_shape_holds() {
    // Raw streaming is radio-dominated; CS cuts total power by tens of
    // percent; multi-lead CS (higher CR) saves more than single-lead.
    let raw = report_for(ProcessingLevel::RawStreaming, 0.0);
    let sl = report_for(ProcessingLevel::CompressedSingleLead, 54.8);
    let ml = report_for(ProcessingLevel::CompressedMultiLead, 66.5);
    let (radio_share, ..) = raw.breakdown.shares();
    assert!(radio_share > 0.6, "radio share {radio_share}");
    let saving_sl = 1.0 - sl.breakdown.total_j() / raw.breakdown.total_j();
    let saving_ml = 1.0 - ml.breakdown.total_j() / raw.breakdown.total_j();
    assert!(
        (0.25..0.65).contains(&saving_sl),
        "SL saving {saving_sl} (paper 0.447)"
    );
    assert!(
        (0.35..0.75).contains(&saving_ml),
        "ML saving {saving_ml} (paper 0.561)"
    );
    assert!(saving_ml > saving_sl, "ML must beat SL");
}

#[test]
fn figure1_ladder_is_monotone_in_power_and_bytes() {
    let mut last_power = f64::INFINITY;
    let mut last_bytes = f64::INFINITY;
    for level in [
        ProcessingLevel::RawStreaming,
        ProcessingLevel::CompressedSingleLead,
        ProcessingLevel::Delineated,
        ProcessingLevel::Classified,
    ] {
        let r = report_for(level, 0.0);
        assert!(
            r.breakdown.total_j() < last_power,
            "{level}: power did not fall"
        );
        assert!(
            r.workload.radio_payload_bytes_per_s < last_bytes,
            "{level}: bytes did not fall"
        );
        last_power = r.breakdown.total_j();
        last_bytes = r.workload.radio_payload_bytes_per_s;
    }
}

#[test]
fn week_scale_lifetime_at_high_abstraction() {
    let r = report_for(ProcessingLevel::Classified, 0.0);
    assert!(
        r.lifetime_days >= 7.0,
        "classified-level lifetime {} days",
        r.lifetime_days
    );
    let raw = report_for(ProcessingLevel::RawStreaming, 0.0);
    assert!(raw.lifetime_days < 7.0, "raw streaming cannot last a week");
}

#[test]
fn node_model_is_monotone_in_each_resource() {
    let node = NodeModel::default();
    let base = WorkloadProfile {
        n_leads: 3,
        fs_hz: 250.0,
        app_cycles_per_s: 200_000.0,
        radio_payload_bytes_per_s: 300.0,
        radio_wakeups_per_s: 1.0,
    };
    let p0 = node.breakdown(&base).total_j();
    for (name, w) in [
        (
            "more bytes",
            WorkloadProfile {
                radio_payload_bytes_per_s: 600.0,
                ..base
            },
        ),
        (
            "more cycles",
            WorkloadProfile {
                app_cycles_per_s: 400_000.0,
                ..base
            },
        ),
        ("more leads", WorkloadProfile { n_leads: 6, ..base }),
    ] {
        assert!(
            node.breakdown(&w).total_j() > p0,
            "{name} must cost more energy"
        );
    }
}

#[test]
fn battery_sizing_matches_week_claim() {
    // The paper's "one week between charges": at the classified level
    // our node draws < 0.5 mW, well inside the 1.8 mW week budget.
    let b = Battery::default();
    let week_budget_w = b.energy_j() / (7.0 * 86400.0);
    assert!(
        week_budget_w > 1.2e-3,
        "100 mAh week budget {week_budget_w} W"
    );
    let r = report_for(ProcessingLevel::Classified, 0.0);
    assert!(r.breakdown.total_j() < week_budget_w);
}
