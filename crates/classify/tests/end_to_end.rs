//! End-to-end classification accuracy on synthetic records: the
//! development-time guardrail for the paper's classification claims
//! (full experiments live in the bench crate).

use wbsn_classify::af::{AfBeat, AfConfig, AfDetector};
use wbsn_classify::eval::ConfusionMatrix;
use wbsn_classify::features::{BeatFeatureExtractor, FeatureConfig};
use wbsn_classify::fuzzy::{FuzzyClassifier, MembershipMode};
use wbsn_classify::knn::KnnClassifier;
use wbsn_delineation::qrs::QrsConfig;
use wbsn_delineation::wavelet::WaveletConfig;
use wbsn_delineation::{QrsDetector, WaveletDelineator};
use wbsn_ecg_synth::suite::{af_mixed_suite, ectopy_suite};
use wbsn_ecg_synth::{BeatType, Record};

/// Class indices used in these tests.
const NORMAL: usize = 0;
const PVC: usize = 1;
const APC: usize = 2;

fn label_of(t: BeatType) -> usize {
    match t {
        BeatType::Normal | BeatType::AfConducted => NORMAL,
        BeatType::Pvc => PVC,
        BeatType::Apc => APC,
    }
}

/// Extracts (features, labels) from a record using ground-truth beat
/// locations (isolating classifier quality from detector quality).
fn dataset(rec: &Record, fe: &mut BeatFeatureExtractor) -> (Vec<Vec<f64>>, Vec<usize>) {
    let lead = rec.lead(0);
    let beats = rec.beats();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 1..beats.len().saturating_sub(1) {
        let r = beats[i].r_sample;
        let rr_prev = r - beats[i - 1].r_sample;
        let rr_next = beats[i + 1].r_sample - r;
        if let Some(f) = fe.extract(lead, r, rr_prev, rr_next) {
            xs.push(f);
            ys.push(label_of(beats[i].beat_type));
        }
    }
    (xs, ys)
}

#[test]
fn fuzzy_classifier_beats_90_percent_on_held_out_records() {
    let mut fe = BeatFeatureExtractor::new(FeatureConfig::default()).unwrap();
    let train_recs = ectopy_suite(3, 1000);
    let test_recs = ectopy_suite(2, 2000);
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    for r in &train_recs {
        let (xs, ys) = dataset(r, &mut fe);
        train_x.extend(xs);
        train_y.extend(ys);
    }
    let clf = FuzzyClassifier::train(&train_x, &train_y, MembershipMode::PiecewiseLinear).unwrap();
    let mut cm = ConfusionMatrix::new(3);
    for r in &test_recs {
        let (xs, ys) = dataset(r, &mut fe);
        for (x, y) in xs.iter().zip(&ys) {
            cm.record(*y, clf.predict(x));
        }
    }
    assert!(cm.total() > 100, "beats {}", cm.total());
    assert!(cm.accuracy() > 0.90, "accuracy {:.3}\n{cm}", cm.accuracy());
    // PVC detection is the clinically critical class.
    assert!(
        cm.sensitivity(PVC) > 0.85,
        "PVC Se {:.3}\n{cm}",
        cm.sensitivity(PVC)
    );
}

#[test]
fn pwl_mode_tracks_exact_mode() {
    let mut fe = BeatFeatureExtractor::new(FeatureConfig::default()).unwrap();
    let recs = ectopy_suite(2, 3000);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in &recs {
        let (x, y) = dataset(r, &mut fe);
        xs.extend(x);
        ys.extend(y);
    }
    let exact = FuzzyClassifier::train(&xs, &ys, MembershipMode::ExactGaussian).unwrap();
    let pwl = exact.with_mode(MembershipMode::PiecewiseLinear);
    let agree = xs
        .iter()
        .filter(|x| exact.predict(x) == pwl.predict(x))
        .count();
    assert!(
        agree as f64 / xs.len() as f64 > 0.95,
        "agreement {}/{}",
        agree,
        xs.len()
    );
}

/// Runs the full on-node AF pipeline (QRS → delineation → AF windows)
/// and returns the AF burden of a record.
fn af_burden_of(rec: &Record) -> f64 {
    let lead = rec.lead(0);
    let rs = QrsDetector::detect(lead, QrsConfig::default()).unwrap();
    let delineated = WaveletDelineator::new(WaveletConfig::default())
        .unwrap()
        .delineate(lead, &rs);
    let beats: Vec<AfBeat> = delineated
        .iter()
        .map(|b| AfBeat {
            r_sample: b.r_peak,
            has_p: b.has_p(),
        })
        .collect();
    let det = AfDetector::new(AfConfig::default()).unwrap();
    let windows = det.analyze(&beats);
    AfDetector::af_burden(&windows)
}

#[test]
fn af_records_separate_from_sinus_records() {
    // Small suite for CI speed; the full 200-record experiment runs in
    // the bench harness.
    let recs = af_mixed_suite(4, 4, 500);
    let mut correct = 0usize;
    for (i, rec) in recs.iter().enumerate() {
        let truth_af = rec.af_fraction() > 0.5;
        let burden = af_burden_of(rec);
        let detected_af = burden > 0.5;
        if truth_af == detected_af {
            correct += 1;
        } else {
            eprintln!("record {i}: truth_af={truth_af} burden={burden:.2} (misclassified)");
        }
    }
    assert!(correct >= 7, "correct {correct}/8");
}

#[test]
fn nan_features_get_a_deterministic_label() {
    let xs = vec![
        vec![0.0, 0.0],
        vec![0.1, -0.1],
        vec![-0.1, 0.1],
        vec![2.0, 2.0],
        vec![2.1, 1.9],
        vec![1.9, 2.1],
    ];
    let ys = vec![0, 0, 0, 1, 1, 1];
    let knn = KnnClassifier::train(&xs, &ys, 3).unwrap();
    let fuzzy = |mode| FuzzyClassifier::train(&xs, &ys, mode).unwrap();
    let exact = fuzzy(MembershipMode::ExactGaussian);
    let pwl = fuzzy(MembershipMode::PiecewiseLinear);
    for x in [[f64::NAN, f64::NAN], [f64::NAN, 2.0], [2.0, f64::NAN]] {
        // Every distance and score is NaN, so all candidates tie: kNN
        // votes over the first k training beats and the fuzzy
        // classifier keeps the first class. Same answer every call.
        for _ in 0..2 {
            assert_eq!(knn.predict(&x), 0, "{x:?}");
            assert_eq!(exact.predict(&x), 0, "{x:?}");
            assert_eq!(pwl.predict(&x), 0, "{x:?}");
        }
    }
}
