//! Record generation: rhythm → waves → leads → noise → ADC.

use crate::model::{
    AdcModel, BeatMorphology, BeatType, LeadProjection, Wave, WaveKind, ONSET_SIGMAS,
};
use crate::noise::{fibrillatory_wave, flutter_wave, NoiseConfig};
use crate::record::{Annotation, Beat, FiducialKind, Record, RhythmSpan};
use crate::rhythm::{Rhythm, RhythmLabel, ScheduledBeat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference RR (seconds) at which nominal QT holds; Bazett stretch is
/// `sqrt(RR / RR_REF)`.
const RR_REF_S: f64 = 0.8;

/// Builder for annotated synthetic records.
///
/// # Example
///
/// ```
/// use wbsn_ecg_synth::{RecordBuilder, Rhythm};
/// use wbsn_ecg_synth::noise::NoiseConfig;
///
/// let rec = RecordBuilder::new(7)
///     .duration_s(20.0)
///     .n_leads(3)
///     .rhythm(Rhythm::SinusWithEctopy { mean_hr_bpm: 75.0, pvc_rate: 0.08, apc_rate: 0.04 })
///     .noise(NoiseConfig::ambulatory(18.0))
///     .build();
/// assert_eq!(rec.n_leads(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RecordBuilder {
    seed: u64,
    fs: u32,
    duration_s: f64,
    rhythm: Rhythm,
    noise: NoiseConfig,
    leads: Vec<LeadProjection>,
    adc: AdcModel,
    morph_variability: f64,
    fwave_amplitude_mv: f64,
}

impl RecordBuilder {
    /// New builder with sensible defaults: 250 Hz, 30 s, single lead,
    /// clean normal sinus rhythm at 70 bpm.
    pub fn new(seed: u64) -> Self {
        RecordBuilder {
            seed,
            fs: 250,
            duration_s: 30.0,
            rhythm: Rhythm::NormalSinus { mean_hr_bpm: 70.0 },
            noise: NoiseConfig::clean(),
            leads: vec![LeadProjection::identity()],
            adc: AdcModel::default(),
            morph_variability: 0.1,
            fwave_amplitude_mv: 0.06,
        }
    }

    /// Sampling rate in Hz (default 250).
    pub fn fs(mut self, fs: u32) -> Self {
        self.fs = fs.max(50);
        self
    }

    /// Record length in seconds (default 30).
    pub fn duration_s(mut self, d: f64) -> Self {
        self.duration_s = d.max(1.0);
        self
    }

    /// Rhythm process (default normal sinus at 70 bpm).
    pub fn rhythm(mut self, r: Rhythm) -> Self {
        self.rhythm = r;
        self
    }

    /// Noise recipe (default clean).
    pub fn noise(mut self, n: NoiseConfig) -> Self {
        self.noise = n;
        self
    }

    /// Use the standard 3-lead projection set (or 1 lead for `n <= 1`).
    pub fn n_leads(mut self, n: usize) -> Self {
        self.leads = if n <= 1 {
            vec![LeadProjection::identity()]
        } else {
            let mut set = LeadProjection::standard_3lead();
            set.truncate(n.min(3));
            set
        };
        self
    }

    /// ADC model (default 200 counts/mV, 12 bit).
    pub fn adc(mut self, adc: AdcModel) -> Self {
        self.adc = adc;
        self
    }

    /// Relative per-record morphology perturbation (default 0.1;
    /// 0 disables).
    pub fn morph_variability(mut self, v: f64) -> Self {
        self.morph_variability = v.clamp(0.0, 0.5);
        self
    }

    /// Fibrillatory-wave amplitude during AF spans in mV (default 0.06).
    pub fn fwave_amplitude_mv(mut self, a: f64) -> Self {
        self.fwave_amplitude_mv = a.max(0.0);
        self
    }

    /// Generates the record.
    pub fn build(self) -> Record {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = (self.duration_s * self.fs as f64).round() as usize;
        let schedule = self.rhythm.schedule(self.duration_s, &mut rng);

        // Per-record morphology instances, perturbed once per record.
        // Indexed by `BeatType::index`, which enumerates `ALL` in order.
        let mut morphs: [BeatMorphology; BeatType::ALL.len()] =
            BeatType::ALL.map(BeatMorphology::for_type);
        if self.morph_variability > 0.0 {
            let amp_gain = 1.0 + self.morph_variability * symmetric(&mut rng);
            let width_gain = 1.0 + 0.5 * self.morph_variability * symmetric(&mut rng);
            for m in &mut morphs {
                m.scale_amplitudes(amp_gain);
                m.scale_widths(width_gain);
            }
        }

        // Render clean leads and collect annotations.
        let mut clean_mv: Vec<Vec<f64>> = vec![vec![0.0; n]; self.leads.len()];
        let mut annotations: Vec<Annotation> = Vec::new();
        let mut beats: Vec<Beat> = Vec::new();
        let mut profile: Vec<f64> = Vec::new();
        for sb in schedule.iter() {
            let morph = &morphs[sb.beat_type.index()];
            let qt_stretch = (sb.rr_prev_s / RR_REF_S).max(0.25).sqrt();
            // Render each wave once, then add it to every lead that
            // sees it, scaled by that lead's gain.
            for (kind, wave) in morph.iter() {
                let mut w = *wave;
                if kind == WaveKind::T {
                    w.offset_s *= qt_stretch;
                }
                let lo = wave_profile(&mut profile, n, self.fs, sb.r_time_s, &w);
                for (li, proj) in self.leads.iter().enumerate() {
                    let gain = proj.gain(kind);
                    if gain == 0.0 {
                        continue;
                    }
                    let scale = gain * w.amplitude_mv;
                    for (b, &e) in clean_mv[li].iter_mut().skip(lo).zip(&profile) {
                        *b += scale * e;
                    }
                }
            }
            // Ground-truth annotations (lead-independent timing).
            let r_sample = (sb.r_time_s * self.fs as f64).round() as usize;
            if r_sample >= n {
                continue;
            }
            beats.push(Beat {
                r_sample,
                beat_type: sb.beat_type,
                rr_prev_s: sb.rr_prev_s,
                label: sb.label,
            });
            let beat_index = beats.len() - 1;
            annotations.extend(beat_annotations(
                morph, sb, qt_stretch, self.fs, n, beat_index,
            ));
        }

        // Fibrillatory waves during AF spans (atrial activity projects
        // on each lead like the P wave would).
        let rhythm_spans = spans_from_beats(&beats, &schedule, self.fs, n);
        let has_af = rhythm_spans.iter().any(|s| s.label == RhythmLabel::Af);
        if has_af && self.fwave_amplitude_mv > 0.0 {
            let fw = fibrillatory_wave(n, self.fs as f64, self.fwave_amplitude_mv, &mut rng);
            for (li, proj) in self.leads.iter().enumerate() {
                let gain = proj.gain(WaveKind::P).abs().max(0.3);
                for span in rhythm_spans.iter().filter(|s| s.label == RhythmLabel::Af) {
                    for i in span.start_sample..span.end_sample.min(n) {
                        clean_mv[li][i] += gain * fw[i];
                    }
                }
            }
        }

        // Flutter (sawtooth F) waves during flutter spans. The wave is
        // deterministic — no RNG draw — so records without flutter
        // spans are bit-identical to records built before this branch
        // existed.
        let has_flutter = rhythm_spans.iter().any(|s| s.label == RhythmLabel::Flutter);
        if has_flutter && self.fwave_amplitude_mv > 0.0 {
            let fl = flutter_wave(n, self.fs as f64, 1.4 * self.fwave_amplitude_mv, 5.0);
            for (li, proj) in self.leads.iter().enumerate() {
                let gain = proj.gain(WaveKind::P).abs().max(0.3);
                for span in rhythm_spans
                    .iter()
                    .filter(|s| s.label == RhythmLabel::Flutter)
                {
                    for i in span.start_sample..span.end_sample.min(n) {
                        clean_mv[li][i] += gain * fl[i];
                    }
                }
            }
        }

        // Noise + digitization (independent noise per lead).
        let mut leads_counts: Vec<Vec<i32>> = Vec::with_capacity(self.leads.len());
        for clean in &clean_mv {
            let p_sig = clean.iter().map(|&v| v * v).sum::<f64>() / n.max(1) as f64;
            let noise = self.noise.generate(n, self.fs as f64, p_sig, &mut rng);
            leads_counts.push(
                clean
                    .iter()
                    .zip(&noise)
                    .map(|(&s, &e)| self.adc.quantize(s + e))
                    .collect(),
            );
        }

        annotations.sort_by_key(|a| a.sample);
        Record {
            fs: self.fs,
            adc: self.adc,
            leads: leads_counts,
            clean_mv,
            annotations,
            beats,
            rhythm_spans,
            seed: self.seed,
        }
    }
}

/// Fills `profile` with the unit Gaussian `exp(−½d²)` of one wave over
/// its ±4σ support, clipped to `len` samples, and returns the index of
/// the support's first sample. A lead adds the wave as
/// `gain · amplitude · profile[i]`.
fn wave_profile(profile: &mut Vec<f64>, len: usize, fs: u32, r_time_s: f64, wave: &Wave) -> usize {
    let fs_f = fs as f64;
    let center_s = r_time_s + wave.offset_s;
    let lo = (((center_s - 4.0 * wave.sigma_s) * fs_f).floor()).max(0.0) as usize;
    let hi = ((((center_s + 4.0 * wave.sigma_s) * fs_f).ceil()) as usize).min(len);
    profile.clear();
    profile.extend((lo..hi).map(|i| {
        let t = i as f64 / fs_f;
        let d = (t - center_s) / wave.sigma_s;
        (-0.5 * d * d).exp()
    }));
    lo
}

/// Exact fiducial annotations for one scheduled beat.
fn beat_annotations(
    morph: &BeatMorphology,
    sb: &ScheduledBeat,
    qt_stretch: f64,
    fs: u32,
    n_samples: usize,
    beat_index: usize,
) -> Vec<Annotation> {
    let fs_f = fs as f64;
    let mut anns = Vec::new();
    let mut push = |time_s: f64, kind: FiducialKind| {
        let s = (time_s * fs_f).round();
        if s >= 0.0 && (s as usize) < n_samples {
            anns.push(Annotation {
                sample: s as usize,
                kind,
                beat_index,
            });
        }
    };
    // P wave.
    if let Some(p) = morph.wave(WaveKind::P) {
        let c = sb.r_time_s + p.offset_s;
        push(c - ONSET_SIGMAS * p.sigma_s, FiducialKind::POn);
        push(c, FiducialKind::PPeak);
        push(c + ONSET_SIGMAS * p.sigma_s, FiducialKind::POff);
    }
    // QRS: onset = earliest wave start among Q,R,S; offset = latest end.
    let qrs: Vec<&Wave> = [WaveKind::Q, WaveKind::R, WaveKind::S]
        .iter()
        .filter_map(|&k| morph.wave(k))
        .collect();
    let qrs_on = qrs
        .iter()
        .map(|w| sb.r_time_s + w.offset_s - ONSET_SIGMAS * w.sigma_s)
        .fold(f64::INFINITY, f64::min);
    let qrs_off = qrs
        .iter()
        .map(|w| sb.r_time_s + w.offset_s + ONSET_SIGMAS * w.sigma_s)
        .fold(f64::NEG_INFINITY, f64::max);
    push(qrs_on, FiducialKind::QrsOn);
    push(sb.r_time_s, FiducialKind::RPeak);
    push(qrs_off, FiducialKind::QrsOff);
    // T wave (QT-stretched).
    if let Some(t) = morph.wave(WaveKind::T) {
        let c = sb.r_time_s + t.offset_s * qt_stretch;
        push(c - ONSET_SIGMAS * t.sigma_s, FiducialKind::TOn);
        push(c, FiducialKind::TPeak);
        push(c + ONSET_SIGMAS * t.sigma_s, FiducialKind::TOff);
    }
    anns
}

/// Builds rhythm spans from the beat sequence: boundaries halfway
/// between beats with differing labels.
fn spans_from_beats(
    beats: &[Beat],
    schedule: &[ScheduledBeat],
    fs: u32,
    n_samples: usize,
) -> Vec<RhythmSpan> {
    let _ = schedule;
    if beats.is_empty() {
        return vec![RhythmSpan {
            start_sample: 0,
            end_sample: n_samples,
            label: RhythmLabel::Sinus,
        }];
    }
    let _ = fs;
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut label = beats[0].label;
    for w in beats.windows(2) {
        if w[1].label != label {
            let boundary = (w[0].r_sample + w[1].r_sample) / 2;
            spans.push(RhythmSpan {
                start_sample: start,
                end_sample: boundary,
                label,
            });
            start = boundary;
            label = w[1].label;
        }
    }
    spans.push(RhythmSpan {
        start_sample: start,
        end_sample: n_samples,
        label,
    });
    spans
}

fn symmetric(rng: &mut StdRng) -> f64 {
    2.0 * rng.gen::<f64>() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_peak_annotations_sit_on_local_maxima() {
        let rec = RecordBuilder::new(11).duration_s(20.0).build();
        let lead = rec.lead(0);
        for beat in rec.beats() {
            let r = beat.r_sample;
            if r < 3 || r + 3 >= lead.len() {
                continue;
            }
            let local_max = (r.saturating_sub(3)..=r + 3)
                .map(|i| lead[i])
                .max()
                .unwrap();
            assert!(
                lead[r] >= local_max - 2,
                "R at {r}: {} vs neighborhood max {local_max}",
                lead[r]
            );
        }
    }

    #[test]
    fn annotations_are_sorted_and_in_range() {
        let rec = RecordBuilder::new(12)
            .duration_s(15.0)
            .rhythm(Rhythm::SinusWithEctopy {
                mean_hr_bpm: 80.0,
                pvc_rate: 0.1,
                apc_rate: 0.05,
            })
            .build();
        let anns = rec.annotations();
        assert!(!anns.is_empty());
        assert!(anns.windows(2).all(|w| w[0].sample <= w[1].sample));
        assert!(anns.iter().all(|a| a.sample < rec.n_samples()));
    }

    #[test]
    fn fiducials_are_ordered_within_a_beat() {
        let rec = RecordBuilder::new(13).duration_s(20.0).build();
        for (bi, _) in rec.beats().iter().enumerate() {
            let beat_anns: Vec<_> = rec
                .annotations()
                .iter()
                .filter(|a| a.beat_index == bi)
                .collect();
            if beat_anns.len() < 9 {
                continue; // clipped at record edges
            }
            for pair in beat_anns.windows(2) {
                assert!(
                    pair[0].sample <= pair[1].sample,
                    "beat {bi}: {:?} after {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn pvc_beats_lack_p_annotations() {
        let rec = RecordBuilder::new(14)
            .duration_s(60.0)
            .rhythm(Rhythm::SinusWithEctopy {
                mean_hr_bpm: 75.0,
                pvc_rate: 0.15,
                apc_rate: 0.0,
            })
            .build();
        let mut saw_pvc = false;
        for (bi, beat) in rec.beats().iter().enumerate() {
            if beat.beat_type == BeatType::Pvc {
                saw_pvc = true;
                let has_p = rec
                    .annotations()
                    .iter()
                    .any(|a| a.beat_index == bi && a.kind == FiducialKind::PPeak);
                assert!(!has_p, "PVC beat {bi} has a P annotation");
            }
        }
        assert!(saw_pvc, "expected at least one PVC");
    }

    #[test]
    fn three_leads_share_timing_but_differ_in_shape() {
        let rec = RecordBuilder::new(15).duration_s(10.0).n_leads(3).build();
        assert_eq!(rec.n_leads(), 3);
        // Lead 3 R waves are inverted: at R samples, lead0 positive,
        // lead2 negative.
        for beat in rec.beats() {
            let r = beat.r_sample;
            assert!(rec.lead(0)[r] > 0);
            assert!(rec.lead(2)[r] < 0, "lead 3 should invert R at {r}");
        }
    }

    #[test]
    fn noise_raises_residual_vs_clean() {
        let clean = RecordBuilder::new(16).duration_s(10.0).build();
        let noisy = RecordBuilder::new(16)
            .duration_s(10.0)
            .noise(NoiseConfig::ambulatory(5.0))
            .build();
        // Same seed => same underlying clean signal.
        let diff: i64 = clean
            .lead(0)
            .iter()
            .zip(noisy.lead(0))
            .map(|(&a, &b)| ((a - b) as i64).abs())
            .sum();
        assert!(diff > 1000, "noise should perturb the digitized signal");
        // Clean mV traces must be identical.
        for (a, b) in clean.clean_lead_mv(0).iter().zip(noisy.clean_lead_mv(0)) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn af_record_has_af_spans_and_no_p() {
        let rec = RecordBuilder::new(17)
            .duration_s(30.0)
            .rhythm(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 })
            .build();
        assert!(rec.af_fraction() > 0.9, "af fraction {}", rec.af_fraction());
        assert!(rec
            .annotations()
            .iter()
            .all(|a| a.kind != FiducialKind::PPeak));
    }

    #[test]
    fn determinism_same_seed_same_record() {
        let a = RecordBuilder::new(99).duration_s(10.0).n_leads(3).build();
        let b = RecordBuilder::new(99).duration_s(10.0).n_leads(3).build();
        assert_eq!(a.lead(0), b.lead(0));
        assert_eq!(a.lead(2), b.lead(2));
        assert_eq!(a.annotations().len(), b.annotations().len());
    }

    #[test]
    fn episodic_af_has_both_span_kinds() {
        let rec = RecordBuilder::new(20)
            .duration_s(120.0)
            .rhythm(Rhythm::EpisodicAf {
                sinus_hr_bpm: 70.0,
                af_hr_bpm: 95.0,
                episode_len_s: 20.0,
                gap_len_s: 20.0,
            })
            .build();
        let f = rec.af_fraction();
        assert!(f > 0.15 && f < 0.85, "af fraction {f}");
    }

    #[test]
    fn rhythm_lookup_matches_spans() {
        let rec = RecordBuilder::new(21)
            .duration_s(60.0)
            .rhythm(Rhythm::EpisodicAf {
                sinus_hr_bpm: 70.0,
                af_hr_bpm: 100.0,
                episode_len_s: 15.0,
                gap_len_s: 15.0,
            })
            .build();
        for span in rec.rhythm_spans() {
            let mid = (span.start_sample + span.end_sample) / 2;
            if mid < rec.n_samples() {
                assert_eq!(rec.rhythm_at(mid), span.label);
            }
        }
    }

    /// FNV-1a over the bits of every clean and digitized sample.
    fn record_hash(rec: &Record) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |word: u64| {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for l in 0..rec.n_leads() {
            rec.clean_lead_mv(l).iter().for_each(|v| fold(v.to_bits()));
            rec.lead(l).iter().for_each(|&v| fold(v as u64));
        }
        h
    }

    #[test]
    fn three_lead_ambulatory_records_are_bit_pinned() {
        // Pinned on a renderer that evaluated every Gaussian once per
        // lead: sharing one profile across leads must not move a single
        // bit of any lead, clean or digitized.
        let ectopic = RecordBuilder::new(0x5EED)
            .duration_s(20.0)
            .n_leads(3)
            .rhythm(Rhythm::SinusWithEctopy {
                mean_hr_bpm: 78.0,
                pvc_rate: 0.1,
                apc_rate: 0.05,
            })
            .noise(NoiseConfig::ambulatory(18.0))
            .build();
        let af = RecordBuilder::new(0xAF)
            .duration_s(20.0)
            .n_leads(3)
            .rhythm(Rhythm::EpisodicAf {
                sinus_hr_bpm: 70.0,
                af_hr_bpm: 100.0,
                episode_len_s: 6.0,
                gap_len_s: 6.0,
            })
            .noise(NoiseConfig::ambulatory(24.0))
            .build();
        let got = [record_hash(&ectopic), record_hash(&af)];
        assert_eq!(
            got,
            [0x4e31_b954_1853_4b08, 0x385a_8d7d_81fa_ec7c],
            "{got:#018x?}"
        );
    }
}
