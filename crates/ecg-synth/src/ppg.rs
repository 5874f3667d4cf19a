//! Synthetic photoplethysmogram (PPG) time-locked to the ECG.
//!
//! Section IV-C of the paper estimates blood pressure from the pulse
//! arrival time (PAT) between the ECG R peak and the arrival of the
//! pressure pulse at a PPG finger probe. The generator places one pulse
//! per beat at `t_R + PTT(t)`, where the pulse-transit time profile is
//! programmable — constant for denoising experiments, ramping for BP
//! tracking experiments — and exposes the exact per-beat PTT as ground
//! truth.

use crate::noise::gauss;
use crate::record::Record;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pulse-transit time profile over the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PttProfile {
    /// Fixed transit time (seconds).
    Constant(f64),
    /// Linear ramp from `start_s` to `end_s` across the record —
    /// models a blood-pressure trend (higher BP → stiffer artery →
    /// shorter PTT).
    Ramp {
        /// PTT at record start, seconds.
        start_s: f64,
        /// PTT at record end, seconds.
        end_s: f64,
    },
}

impl PttProfile {
    /// PTT at normalized record position `frac ∈ [0,1]`.
    pub fn at(&self, frac: f64) -> f64 {
        match *self {
            PttProfile::Constant(v) => v,
            PttProfile::Ramp { start_s, end_s } => {
                start_s + (end_s - start_s) * frac.clamp(0.0, 1.0)
            }
        }
    }
}

/// PPG generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpgConfig {
    /// Transit-time profile.
    pub ptt: PttProfile,
    /// Systolic peak amplitude (arbitrary units).
    pub amplitude: f64,
    /// Relative dicrotic (reflected) wave amplitude.
    pub dicrotic_ratio: f64,
    /// Additive white noise SNR in dB (None = clean).
    pub noise_snr_db: Option<f64>,
}

impl Default for PpgConfig {
    fn default() -> Self {
        PpgConfig {
            ptt: PttProfile::Constant(0.22),
            amplitude: 1.0,
            dicrotic_ratio: 0.35,
            noise_snr_db: None,
        }
    }
}

/// A generated PPG channel with ground truth.
#[derive(Debug, Clone)]
pub struct PpgSignal {
    /// Samples (arbitrary units), same rate as the source record.
    pub samples: Vec<f64>,
    /// Sampling rate (Hz).
    pub fs: u32,
    /// Ground-truth pulse-foot times (seconds), one per beat that fits.
    pub foot_times_s: Vec<f64>,
    /// Ground-truth PTT used for each pulse (seconds).
    pub ptt_s: Vec<f64>,
}

impl PpgSignal {
    /// Generates a PPG aligned to `record`'s beats.
    pub fn generate(record: &Record, cfg: &PpgConfig, seed: u64) -> PpgSignal {
        let fs = record.fs();
        let fs_f = fs as f64;
        let n = record.n_samples();
        let duration = record.duration_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = vec![0.0f64; n];
        let mut foot_times = Vec::new();
        let mut ptts = Vec::new();
        for beat in record.beats() {
            let t_r = beat.r_sample as f64 / fs_f;
            let ptt = cfg.ptt.at(t_r / duration);
            let foot = t_r + ptt;
            if foot + 0.6 >= duration {
                continue;
            }
            foot_times.push(foot);
            ptts.push(ptt);
            // Systolic upstroke: half-Gaussian rising from the foot,
            // peak at foot + rise time.
            let rise = 0.12;
            let sys_sigma = 0.055;
            let dic_delay = 0.38;
            let dic_sigma = 0.09;
            let lo = (foot * fs_f) as usize;
            let hi = ((foot + 0.8) * fs_f).min(n as f64 - 1.0) as usize;
            for (i, s) in samples.iter_mut().enumerate().take(hi + 1).skip(lo) {
                let t = i as f64 / fs_f - foot;
                let d1 = (t - rise) / sys_sigma;
                let d2 = (t - dic_delay) / dic_sigma;
                *s += cfg.amplitude
                    * ((-0.5 * d1 * d1).exp() + cfg.dicrotic_ratio * (-0.5 * d2 * d2).exp());
            }
        }
        if let Some(snr) = cfg.noise_snr_db {
            let p_sig = samples.iter().map(|&v| v * v).sum::<f64>() / n.max(1) as f64;
            let p_noise = p_sig / 10f64.powf(snr / 10.0);
            let g = p_noise.sqrt();
            for s in &mut samples {
                *s += g * gauss(&mut rng);
            }
        }
        PpgSignal {
            samples,
            fs,
            foot_times_s: foot_times,
            ptt_s: ptts,
        }
    }

    /// Number of pulses with ground truth.
    pub fn n_pulses(&self) -> usize {
        self.foot_times_s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RecordBuilder;

    fn record() -> Record {
        RecordBuilder::new(30).duration_s(30.0).build()
    }

    #[test]
    fn one_pulse_per_interior_beat() {
        let rec = record();
        let ppg = PpgSignal::generate(&rec, &PpgConfig::default(), 1);
        // All beats except possibly the last few near the record end.
        assert!(ppg.n_pulses() >= rec.beats().len() - 2);
        assert_eq!(ppg.foot_times_s.len(), ppg.ptt_s.len());
    }

    #[test]
    fn pulse_rises_after_foot() {
        let rec = record();
        let ppg = PpgSignal::generate(&rec, &PpgConfig::default(), 1);
        let fs = ppg.fs as f64;
        for &foot in ppg.foot_times_s.iter().take(5) {
            let i_foot = (foot * fs) as usize;
            let i_peak = ((foot + 0.12) * fs) as usize;
            assert!(
                ppg.samples[i_peak] > ppg.samples[i_foot] + 0.3,
                "pulse should rise sharply after the foot"
            );
        }
    }

    #[test]
    fn ramp_profile_tracks_position() {
        let p = PttProfile::Ramp {
            start_s: 0.25,
            end_s: 0.15,
        };
        assert_eq!(p.at(0.0), 0.25);
        assert_eq!(p.at(1.0), 0.15);
        assert!((p.at(0.5) - 0.20).abs() < 1e-12);
        let rec = record();
        let ppg = PpgSignal::generate(
            &rec,
            &PpgConfig {
                ptt: p,
                ..PpgConfig::default()
            },
            2,
        );
        // PTT ground truth must decrease over the record.
        let first = ppg.ptt_s.first().copied().unwrap();
        let last = ppg.ptt_s.last().copied().unwrap();
        assert!(first > last, "{first} -> {last}");
    }

    #[test]
    fn noise_flag_adds_noise() {
        let rec = record();
        let clean = PpgSignal::generate(&rec, &PpgConfig::default(), 3);
        let noisy = PpgSignal::generate(
            &rec,
            &PpgConfig {
                noise_snr_db: Some(5.0),
                ..PpgConfig::default()
            },
            3,
        );
        let diff: f64 = clean
            .samples
            .iter()
            .zip(&noisy.samples)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1.0);
    }

    #[test]
    fn dicrotic_notch_present() {
        let rec = record();
        let ppg = PpgSignal::generate(&rec, &PpgConfig::default(), 4);
        let fs = ppg.fs as f64;
        // Between systolic peak and dicrotic peak there is a local dip.
        let foot = ppg.foot_times_s[0];
        let sys = ((foot + 0.12) * fs) as usize;
        let dic = ((foot + 0.38) * fs) as usize;
        let min_between = (sys..dic)
            .map(|i| ppg.samples[i])
            .fold(f64::INFINITY, f64::min);
        assert!(min_between < ppg.samples[sys]);
        assert!(min_between < ppg.samples[dic] + 0.2);
    }
}
