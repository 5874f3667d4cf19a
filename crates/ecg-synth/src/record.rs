//! Annotated multi-lead records — the unit of evaluation.

use crate::model::{AdcModel, BeatType};
use crate::rhythm::RhythmLabel;

/// The nine fiducial points a delineator must locate (Figure 2 of the
/// paper shows them on a normal sinus beat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FiducialKind {
    /// P-wave onset.
    POn,
    /// P-wave peak.
    PPeak,
    /// P-wave offset.
    POff,
    /// QRS complex onset.
    QrsOn,
    /// R peak.
    RPeak,
    /// QRS complex offset.
    QrsOff,
    /// T-wave onset.
    TOn,
    /// T-wave peak.
    TPeak,
    /// T-wave offset.
    TOff,
}

impl FiducialKind {
    /// All fiducial kinds in temporal order within a beat.
    pub const ALL: [FiducialKind; 9] = [
        FiducialKind::POn,
        FiducialKind::PPeak,
        FiducialKind::POff,
        FiducialKind::QrsOn,
        FiducialKind::RPeak,
        FiducialKind::QrsOff,
        FiducialKind::TOn,
        FiducialKind::TPeak,
        FiducialKind::TOff,
    ];
}

/// A ground-truth (or detected) fiducial point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    /// Sample index in the record.
    pub sample: usize,
    /// Which fiducial point this is.
    pub kind: FiducialKind,
    /// Index of the beat this annotation belongs to.
    pub beat_index: usize,
}

/// Ground-truth description of one beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beat {
    /// R-peak sample index.
    pub r_sample: usize,
    /// Clinical class.
    pub beat_type: BeatType,
    /// RR interval preceding this beat, seconds.
    pub rr_prev_s: f64,
    /// Rhythm regime at this beat.
    pub label: RhythmLabel,
}

/// A contiguous span of samples sharing a rhythm label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RhythmSpan {
    /// First sample of the span (inclusive).
    pub start_sample: usize,
    /// Last sample of the span (exclusive).
    pub end_sample: usize,
    /// Rhythm regime.
    pub label: RhythmLabel,
}

/// A generated multi-lead record with exact ground truth.
#[derive(Debug, Clone)]
pub struct Record {
    pub(crate) fs: u32,
    pub(crate) adc: AdcModel,
    /// Digitized (noisy) lead signals in ADC counts.
    pub(crate) leads: Vec<Vec<i32>>,
    /// Clean (noise-free) lead signals in millivolts.
    pub(crate) clean_mv: Vec<Vec<f64>>,
    pub(crate) annotations: Vec<Annotation>,
    pub(crate) beats: Vec<Beat>,
    pub(crate) rhythm_spans: Vec<RhythmSpan>,
    pub(crate) seed: u64,
}

impl Record {
    /// Sampling rate in Hz.
    pub fn fs(&self) -> u32 {
        self.fs
    }

    /// ADC model used for digitization.
    pub fn adc(&self) -> &AdcModel {
        &self.adc
    }

    /// Seed this record was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of leads.
    pub fn n_leads(&self) -> usize {
        self.leads.len()
    }

    /// Number of samples per lead.
    pub fn n_samples(&self) -> usize {
        self.leads.first().map_or(0, Vec::len)
    }

    /// Record duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.n_samples() as f64 / self.fs as f64
    }

    /// Digitized samples of lead `l` (ADC counts, noise included).
    ///
    /// # Panics
    ///
    /// Panics when `l` is out of range.
    pub fn lead(&self, l: usize) -> &[i32] {
        &self.leads[l]
    }

    /// All digitized leads.
    pub fn leads(&self) -> &[Vec<i32>] {
        &self.leads
    }

    /// The record as interleaved frames — `out[i * n_leads + l]` is
    /// lead `l` of sample instant `i` — the exact layout the
    /// `wbsn-core` monitor/fleet block-ingestion paths consume.
    pub fn interleaved_frames(&self) -> Vec<i32> {
        let n = self.n_samples();
        let n_leads = self.leads.len();
        let mut out = vec![0i32; n * n_leads];
        for (l, lead) in self.leads.iter().enumerate() {
            for (i, &s) in lead.iter().enumerate() {
                out[i * n_leads + l] = s;
            }
        }
        out
    }

    /// Clean (noise-free) millivolt trace of lead `l`.
    ///
    /// # Panics
    ///
    /// Panics when `l` is out of range.
    pub fn clean_lead_mv(&self, l: usize) -> &[f64] {
        &self.clean_mv[l]
    }

    /// Ground-truth fiducial annotations, sorted by sample.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Ground-truth beats, in temporal order.
    pub fn beats(&self) -> &[Beat] {
        &self.beats
    }

    /// Rhythm spans covering the record.
    pub fn rhythm_spans(&self) -> &[RhythmSpan] {
        &self.rhythm_spans
    }

    /// Rhythm label at a sample (Sinus outside all spans).
    pub fn rhythm_at(&self, sample: usize) -> RhythmLabel {
        for s in &self.rhythm_spans {
            if sample >= s.start_sample && sample < s.end_sample {
                return s.label;
            }
        }
        RhythmLabel::Sinus
    }

    /// Fraction of samples labelled AF.
    pub fn af_fraction(&self) -> f64 {
        let n = self.n_samples();
        if n == 0 {
            return 0.0;
        }
        let af: usize = self
            .rhythm_spans
            .iter()
            .filter(|s| s.label == RhythmLabel::Af)
            .map(|s| s.end_sample.min(n) - s.start_sample.min(n))
            .sum();
        af as f64 / n as f64
    }
}
