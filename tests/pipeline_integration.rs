//! Cross-crate integration: the full node pipeline at every
//! abstraction level, with on-air payload decode at the receiver.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::payload::Payload;
use wbsn_core::WbsnError;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

fn record(seed: u64) -> wbsn_ecg_synth::Record {
    RecordBuilder::new(seed)
        .duration_s(30.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build()
}

#[test]
fn every_level_produces_decodable_payloads() {
    let rec = record(1);
    for level in ProcessingLevel::ALL {
        let mut node = MonitorBuilder::new().level(level).build().unwrap();
        let payloads = node.process_record(rec.leads()).unwrap();
        assert!(!payloads.is_empty(), "{level}: no payloads");
        for p in &payloads {
            let bytes = p.encode();
            let back =
                Payload::decode(&bytes).unwrap_or_else(|e| panic!("{level}: decode failed: {e}"));
            // Size is self-consistent.
            assert_eq!(back.encode().len(), bytes.len(), "{level}");
        }
    }
}

#[test]
fn delineated_beats_match_ground_truth_rate() {
    let rec = record(2);
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::Delineated)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    let beats: usize = payloads
        .iter()
        .map(|p| match p {
            Payload::Beats { beats } => beats.len(),
            _ => 0,
        })
        .sum();
    let truth = rec.beats().len();
    // Allow warm-up/latency losses at the record edges.
    assert!(
        beats + 6 >= truth && beats <= truth + 2,
        "beats {beats} vs truth {truth}"
    );
}

#[test]
fn transmitted_r_peaks_are_accurate() {
    let rec = record(3);
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::Delineated)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    let truth: Vec<usize> = rec.beats().iter().map(|b| b.r_sample).collect();
    let mut matched = 0usize;
    let mut total = 0usize;
    for p in &payloads {
        // Round-trip through the on-air encoding, as the server sees it.
        let Ok(Payload::Beats { beats }) = Payload::decode(&p.encode()) else {
            continue;
        };
        for b in beats {
            total += 1;
            if truth.iter().any(|&t| t.abs_diff(b.r_peak) <= 10) {
                matched += 1;
            }
        }
    }
    assert!(total > 20, "beats {total}");
    assert!(
        matched as f64 / total as f64 > 0.97,
        "{matched}/{total} R peaks within 40 ms of truth"
    );
}

#[test]
fn monitor_is_deterministic() {
    let rec = record(4);
    let run = || {
        let mut node = MonitorBuilder::new().build().unwrap();
        node.process_record(rec.leads())
            .unwrap()
            .iter()
            .flat_map(|p| p.encode())
            .collect::<Vec<u8>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn single_lead_monitor_works_with_single_lead_records() {
    let rec = RecordBuilder::new(5).duration_s(15.0).n_leads(1).build();
    let mut node = MonitorBuilder::new()
        .n_leads(1)
        .level(ProcessingLevel::Delineated)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    assert!(!payloads.is_empty());
}

#[test]
fn monitor_rejects_records_with_too_few_leads() {
    // Earlier releases silently duplicated the last lead here.
    let rec = RecordBuilder::new(6).duration_s(5.0).n_leads(1).build();
    let mut node = MonitorBuilder::new().n_leads(3).build().unwrap();
    assert_eq!(
        node.process_record(rec.leads()).unwrap_err(),
        WbsnError::LeadMismatch {
            expected: 3,
            got: 1
        }
    );
}

#[test]
fn wider_records_use_the_first_configured_leads() {
    // A 3-lead session over a 3-lead record and the same session over
    // the record's leads pushed manually agree byte for byte.
    let rec = record(7);
    let mut via_record = MonitorBuilder::new().build().unwrap();
    let a: Vec<u8> = via_record
        .process_record(rec.leads())
        .unwrap()
        .iter()
        .flat_map(|p| p.encode())
        .collect();
    let mut manual = MonitorBuilder::new().build().unwrap();
    let mut out = Vec::new();
    for i in 0..rec.n_samples() {
        let frame = [rec.lead(0)[i], rec.lead(1)[i], rec.lead(2)[i]];
        out.extend(manual.try_push(&frame).unwrap());
    }
    out.extend(manual.flush().unwrap());
    let b: Vec<u8> = out.iter().flat_map(|p| p.encode()).collect();
    assert_eq!(a, b);
}
