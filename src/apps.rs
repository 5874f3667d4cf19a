//! Application layer: monitoring scenarios the paper motivates, run
//! on the stream a node delivers.
//!
//! Section II: "applications that extract behavioural information
//! typically only require processing of beat-to-beat intervals, while
//! the diagnosis of heart problems requires … detailed morphological
//! information". Two representative applications are provided:
//!
//! * [`HrvAnalyzer`] — beat-to-beat interval analytics (SDNN, RMSSD,
//!   pNN50) plus a simple autonomic-balance score, the substrate of
//!   the sleep-monitoring scenario (airline pilots in the paper's
//!   abstract).
//! * [`AfMonitorApp`] — rhythm-level arrhythmia reporting on top of the
//!   classified pipeline.
//!
//! PAT-based blood-pressure trending (Section IV-C) needs no wrapper:
//! [`multimodal::pat::PatDetector`](crate::multimodal::pat::PatDetector)
//! measures the arrival times and
//! [`multimodal::pat::BpEstimator`](crate::multimodal::pat::BpEstimator)
//! calibrates and estimates.
//!
//! Applications consume the payload stream of a session at whatever
//! fidelity the node currently transmits. Under the
//! [power governor](crate::core::governor) that fidelity moves at
//! runtime: an [`AfMonitorApp`] sees per-beat fiducials while an
//! episode keeps the session escalated, and sparse event summaries
//! once the governor steps the node back down — the application-level
//! view of the energy/diagnostic-detail trade the governor arbitrates.

use wbsn_classify::af::{AfBeat, AfConfig, AfDetector};
use wbsn_classify::Result;
use wbsn_sigproc::stats;

/// Classic time-domain heart-rate-variability metrics over a window of
/// RR intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrvMetrics {
    /// Mean heart rate, bpm.
    pub mean_hr_bpm: f64,
    /// Standard deviation of NN intervals, ms.
    pub sdnn_ms: f64,
    /// Root-mean-square of successive differences, ms.
    pub rmssd_ms: f64,
    /// Percentage of successive differences above 50 ms.
    pub pnn50_pct: f64,
}

/// Sliding HRV analyzer.
#[derive(Debug, Clone)]
pub struct HrvAnalyzer {
    fs_hz: f64,
    window_s: f64,
    r_times_s: Vec<f64>,
}

impl HrvAnalyzer {
    /// Analyzer over windows of `window_s` seconds (e.g. 300 s for
    /// sleep staging).
    pub fn new(fs_hz: f64, window_s: f64) -> Self {
        HrvAnalyzer {
            fs_hz,
            window_s: window_s.max(10.0),
            r_times_s: Vec::new(),
        }
    }

    /// Adds a detected R peak (sample index).
    pub fn add_beat(&mut self, r_sample: usize) {
        let t = r_sample as f64 / self.fs_hz;
        self.r_times_s.push(t);
        let horizon = t - self.window_s;
        self.r_times_s.retain(|&x| x >= horizon);
    }

    /// Metrics over the current window; `None` with fewer than 4 beats.
    pub fn metrics(&self) -> Option<HrvMetrics> {
        if self.r_times_s.len() < 4 {
            return None;
        }
        let rr_ms: Vec<f64> = self
            .r_times_s
            .windows(2)
            .map(|w| (w[1] - w[0]) * 1000.0)
            .collect();
        let mean_rr = stats::mean(&rr_ms);
        let sdnn = stats::std_dev(&rr_ms);
        let diffs: Vec<f64> = rr_ms.windows(2).map(|w| w[1] - w[0]).collect();
        let rmssd = stats::rms(&diffs);
        let pnn50 = 100.0 * diffs.iter().filter(|d| d.abs() > 50.0).count() as f64
            / diffs.len().max(1) as f64;
        Some(HrvMetrics {
            mean_hr_bpm: 60_000.0 / mean_rr,
            sdnn_ms: sdnn,
            rmssd_ms: rmssd,
            pnn50_pct: pnn50,
        })
    }

    /// A crude sleep-depth proxy in `[0, 1]`: deeper sleep shows lower
    /// heart rate and higher vagal (RMSSD) tone. Used by the sleep
    /// example, not a clinical score.
    pub fn sleep_score(&self) -> Option<f64> {
        let m = self.metrics()?;
        let hr_term = ((75.0 - m.mean_hr_bpm) / 25.0).clamp(0.0, 1.0);
        let hrv_term = (m.rmssd_ms / 60.0).clamp(0.0, 1.0);
        Some(0.6 * hr_term + 0.4 * hrv_term)
    }
}

/// Rhythm-level AF monitoring over a beat stream (wraps the detector
/// with episode extraction).
#[derive(Debug, Clone)]
pub struct AfMonitorApp {
    detector: AfDetector,
    beats: Vec<AfBeat>,
    fs_hz: f64,
}

/// One detected AF episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfEpisode {
    /// Episode start, seconds.
    pub start_s: f64,
    /// Episode end, seconds.
    pub end_s: f64,
}

impl AfMonitorApp {
    /// New monitor at the given sampling rate.
    ///
    /// # Errors
    ///
    /// Propagates [`AfDetector::new`]'s configuration check.
    pub fn new(fs_hz: u32) -> Result<Self> {
        Ok(AfMonitorApp {
            detector: AfDetector::new(AfConfig {
                fs_hz,
                ..AfConfig::default()
            })?,
            beats: Vec::new(),
            fs_hz: fs_hz as f64,
        })
    }

    /// Adds a delineated beat.
    pub fn add_beat(&mut self, r_sample: usize, has_p: bool) {
        self.beats.push(AfBeat { r_sample, has_p });
    }

    /// Extracts AF episodes from everything seen so far.
    pub fn episodes(&self) -> Vec<AfEpisode> {
        let windows = self.detector.analyze(&self.beats);
        let mut episodes = Vec::new();
        let mut current: Option<AfEpisode> = None;
        for w in &windows {
            if w.is_af {
                let start = w.start_sample as f64 / self.fs_hz;
                let end = w.end_sample as f64 / self.fs_hz;
                match &mut current {
                    Some(e) => e.end_s = end,
                    None => {
                        current = Some(AfEpisode {
                            start_s: start,
                            end_s: end,
                        })
                    }
                }
            } else if let Some(e) = current.take() {
                episodes.push(e);
            }
        }
        if let Some(e) = current {
            episodes.push(e);
        }
        episodes
    }

    /// AF burden (fraction of windows flagged).
    pub fn burden(&self) -> f64 {
        AfDetector::af_burden(&self.detector.analyze(&self.beats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrv_metrics_on_regular_rhythm() {
        let mut h = HrvAnalyzer::new(250.0, 60.0);
        for k in 0..60 {
            h.add_beat(k * 200); // RR = 0.8 s exactly
        }
        let m = h.metrics().unwrap();
        assert!((m.mean_hr_bpm - 75.0).abs() < 0.5);
        assert!(m.sdnn_ms < 1.0);
        assert!(m.rmssd_ms < 1.0);
        assert_eq!(m.pnn50_pct, 0.0);
    }

    #[test]
    fn hrv_detects_variability() {
        let mut h = HrvAnalyzer::new(250.0, 120.0);
        let mut t = 0usize;
        for k in 0..100 {
            t += if k % 2 == 0 { 180 } else { 230 }; // alternating RR
            h.add_beat(t);
        }
        let m = h.metrics().unwrap();
        assert!(m.sdnn_ms > 50.0, "sdnn {}", m.sdnn_ms);
        assert!(m.pnn50_pct > 90.0, "pnn50 {}", m.pnn50_pct);
    }

    #[test]
    fn sleep_score_orders_rest_vs_stress() {
        // Resting: HR 55, high variability.
        let mut rest = HrvAnalyzer::new(250.0, 120.0);
        let mut t = 0usize;
        for k in 0..80 {
            t += 273 + (k % 3) * 12;
            rest.add_beat(t);
        }
        // Stressed: HR 95, metronomic.
        let mut stress = HrvAnalyzer::new(250.0, 120.0);
        let mut t2 = 0usize;
        for _ in 0..80 {
            t2 += 158;
            stress.add_beat(t2);
        }
        assert!(rest.sleep_score().unwrap() > stress.sleep_score().unwrap());
    }

    #[test]
    fn window_slides() {
        let mut h = HrvAnalyzer::new(250.0, 20.0);
        for k in 0..200 {
            h.add_beat(k * 250);
        }
        // Only ~20 s of beats retained.
        assert!(h.r_times_s.len() <= 22);
    }

    #[test]
    fn af_monitor_extracts_episode() {
        let mut app = AfMonitorApp::new(250).unwrap();
        let mut t = 0usize;
        // 60 regular sinus beats with P.
        for _ in 0..60 {
            t += 200;
            app.add_beat(t, true);
        }
        // 60 chaotic beats without P.
        let mut state = 5u64;
        for _ in 0..60 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            t += 120 + (state % 160) as usize;
            app.add_beat(t, false);
        }
        // Back to sinus.
        for _ in 0..60 {
            t += 200;
            app.add_beat(t, true);
        }
        let eps = app.episodes();
        assert_eq!(eps.len(), 1, "episodes {eps:?}");
        assert!(app.burden() > 0.1 && app.burden() < 0.7);
    }
}
