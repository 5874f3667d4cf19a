//! Cross-crate integration: delineation quality as wired through the
//! monitor (RMS combination + streaming engine), scored against the
//! generator's exact annotations.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::payload::Payload;
use wbsn_delineation::eval::{evaluate, truth_from_triples, Tolerances};
use wbsn_delineation::{BeatFiducials, FiducialKind};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::{FiducialKind as TruthKind, RecordBuilder};

fn map_kind(k: TruthKind) -> FiducialKind {
    match k {
        TruthKind::POn => FiducialKind::POn,
        TruthKind::PPeak => FiducialKind::PPeak,
        TruthKind::POff => FiducialKind::POff,
        TruthKind::QrsOn => FiducialKind::QrsOn,
        TruthKind::RPeak => FiducialKind::RPeak,
        TruthKind::QrsOff => FiducialKind::QrsOff,
        TruthKind::TOn => FiducialKind::TOn,
        TruthKind::TPeak => FiducialKind::TPeak,
        TruthKind::TOff => FiducialKind::TOff,
    }
}

#[test]
fn monitor_level_delineation_meets_quality_floor() {
    let rec = RecordBuilder::new(77)
        .duration_s(60.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::Delineated)
        .beats_per_payload(1)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    let detected: Vec<BeatFiducials> = payloads
        .iter()
        .filter_map(|p| match p {
            Payload::Beats { beats } => Some(beats.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    let triples: Vec<(FiducialKind, usize, usize)> = rec
        .annotations()
        .iter()
        .map(|a| (map_kind(a.kind), a.sample, a.beat_index))
        .collect();
    let truth = truth_from_triples(&triples);
    let rep = evaluate(
        &detected,
        &truth,
        rec.fs(),
        rec.n_samples(),
        &Tolerances::default(),
        3.0,
    );
    // The monitor path (RMS-combined signal, streaming segmentation)
    // must keep R and T above 90%; P through the combined lead is
    // harder (lead-2 inverts some waves) so gets a lower floor.
    let r = rep.score(FiducialKind::RPeak);
    assert!(r.sensitivity() > 0.90, "R Se {:.3}", r.sensitivity());
    assert!(r.precision() > 0.90, "R P+ {:.3}", r.precision());
    let t = rep.score(FiducialKind::TPeak);
    assert!(t.sensitivity() > 0.85, "T Se {:.3}", t.sensitivity());
}

#[test]
fn single_lead_batch_delineation_beats_90_percent_everywhere() {
    // The configuration behind the paper's >90% claim: wavelet
    // delineator on one lead.
    use wbsn_delineation::qrs::QrsConfig;
    use wbsn_delineation::wavelet::WaveletConfig;
    use wbsn_delineation::{QrsDetector, WaveletDelineator};
    let rec = RecordBuilder::new(78)
        .duration_s(60.0)
        .noise(NoiseConfig::ambulatory(20.0))
        .build();
    let lead = rec.lead(0);
    let rs = QrsDetector::detect(lead, QrsConfig::default()).unwrap();
    let det = WaveletDelineator::new(WaveletConfig::default())
        .unwrap()
        .delineate(lead, &rs);
    let triples: Vec<(FiducialKind, usize, usize)> = rec
        .annotations()
        .iter()
        .map(|a| (map_kind(a.kind), a.sample, a.beat_index))
        .collect();
    let rep = evaluate(
        &det,
        &truth_from_triples(&triples),
        rec.fs(),
        rec.n_samples(),
        &Tolerances::default(),
        3.0,
    );
    assert!(
        rep.min_sensitivity() > 0.90,
        "worst Se {:.3}",
        rep.min_sensitivity()
    );
    assert!(
        rep.min_precision() > 0.90,
        "worst P+ {:.3}",
        rep.min_precision()
    );
}
