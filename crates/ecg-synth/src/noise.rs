//! ECG noise sources and SNR-controlled mixing.
//!
//! The paper stresses that "the noise level of the signal and the
//! required filtering algorithms vary based on the application"
//! (Section II): common-mode mains pickup for non-contact automotive
//! sensors, muscular and motion artifacts for ambulatory stroke
//! patients. Each source here mirrors the standard PhysioNet noise
//! stressors (baseline wander, muscle artifact, electrode motion) plus
//! powerline interference, and is mixed at a caller-chosen SNR so
//! experiments can sweep noise severity.

use rand::rngs::StdRng;
use rand::Rng;

/// Kinds of additive noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Slow baseline wander (respiration/electrode drift, < 0.5 Hz).
    BaselineWander,
    /// Powerline interference (50 Hz + third harmonic).
    Powerline,
    /// Broadband muscle (EMG) noise.
    Emg,
    /// Sparse electrode-motion transients.
    ElectrodeMotion,
}

/// A noise recipe: which sources are active and the overall target SNR.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Active sources with relative power weights (need not sum to 1).
    pub sources: Vec<(NoiseKind, f64)>,
    /// Target SNR in dB of clean signal vs total added noise; `None`
    /// disables noise entirely.
    pub snr_db: Option<f64>,
}

impl NoiseConfig {
    /// No noise at all.
    pub fn clean() -> Self {
        NoiseConfig {
            sources: Vec::new(),
            snr_db: None,
        }
    }

    /// The default ambulatory mix: wander + EMG + mains + motion.
    pub fn ambulatory(snr_db: f64) -> Self {
        NoiseConfig {
            sources: vec![
                (NoiseKind::BaselineWander, 1.0),
                (NoiseKind::Emg, 0.6),
                (NoiseKind::Powerline, 0.3),
                (NoiseKind::ElectrodeMotion, 0.5),
            ],
            snr_db: Some(snr_db),
        }
    }

    /// Mains-dominated mix (vehicle/non-contact scenario).
    pub fn mains_dominated(snr_db: f64) -> Self {
        NoiseConfig {
            sources: vec![
                (NoiseKind::Powerline, 1.0),
                (NoiseKind::BaselineWander, 0.2),
            ],
            snr_db: Some(snr_db),
        }
    }

    /// Generates the mixed noise trace (mV) for `n` samples at `fs_hz`,
    /// scaled so that `10·log10(P_signal/P_noise) == snr_db` relative
    /// to `signal_power_mv2`.
    pub fn generate(
        &self,
        n: usize,
        fs_hz: f64,
        signal_power_mv2: f64,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let Some(snr) = self.snr_db else {
            return vec![0.0; n];
        };
        if self.sources.is_empty() || n == 0 {
            return vec![0.0; n];
        }
        let mut mixed = vec![0.0; n];
        for &(kind, weight) in &self.sources {
            let trace = match kind {
                NoiseKind::BaselineWander => baseline_wander(n, fs_hz, rng),
                NoiseKind::Powerline => powerline(n, fs_hz, rng),
                NoiseKind::Emg => emg(n, fs_hz, rng),
                NoiseKind::ElectrodeMotion => electrode_motion(n, fs_hz, rng),
            };
            let p = power(&trace);
            if p <= 0.0 {
                continue;
            }
            // Normalize each source to unit power, then weight.
            let g = (weight / p).sqrt();
            for (m, t) in mixed.iter_mut().zip(&trace) {
                *m += g * t;
            }
        }
        let p_mixed = power(&mixed);
        if p_mixed <= 0.0 {
            return mixed;
        }
        let target_power = signal_power_mv2 / 10f64.powf(snr / 10.0);
        let g = (target_power / p_mixed).sqrt();
        for m in &mut mixed {
            *m *= g;
        }
        mixed
    }
}

fn power(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64
    }
}

/// Sum of three slow sinusoids with random frequencies/phases.
fn baseline_wander(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
    let comps: Vec<(f64, f64, f64)> = (0..3)
        .map(|_| {
            (
                0.05 + rng.gen::<f64>() * 0.35,            // freq
                rng.gen::<f64>() * core::f64::consts::TAU, // phase
                0.5 + rng.gen::<f64>(),                    // rel amp
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            let t = i as f64 / fs_hz;
            comps
                .iter()
                .map(|&(f, p, a)| a * (core::f64::consts::TAU * f * t + p).sin())
                .sum()
        })
        .collect()
}

/// 50 Hz mains with a weak third harmonic and slow amplitude drift.
fn powerline(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
    let phase: f64 = rng.gen::<f64>() * core::f64::consts::TAU;
    let drift_f = 0.1 + rng.gen::<f64>() * 0.2;
    (0..n)
        .map(|i| {
            let t = i as f64 / fs_hz;
            let env = 1.0 + 0.3 * (core::f64::consts::TAU * drift_f * t).sin();
            env * ((core::f64::consts::TAU * 50.0 * t + phase).sin()
                + 0.2 * (core::f64::consts::TAU * 150.0 * t + 3.0 * phase).sin())
        })
        .collect()
}

/// Broadband EMG: white Gaussian noise high-passed by first difference
/// then lightly smoothed (concentrates energy in the 20–100 Hz band).
/// The `n + 2` white samples are drawn in order through a rolling
/// three-value window, so no white-noise buffer is kept.
fn emg(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
    let _ = fs_hz;
    let mut w0 = gauss(rng);
    let mut w1 = gauss(rng);
    (0..n)
        .map(|_| {
            let w2 = gauss(rng);
            let d1 = w1 - w0;
            let d2 = w2 - w1;
            (w0, w1) = (w1, w2);
            0.5 * (d1 + d2)
        })
        .collect()
}

/// Sparse smooth transients at Poisson times (electrode motion).
fn electrode_motion(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut out = vec![0.0; n];
    let rate_hz = 0.15; // about one artifact every 7 s
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate_hz;
        let center = (t * fs_hz) as usize;
        if center >= n {
            break;
        }
        let width = fs_hz * (0.2 + rng.gen::<f64>() * 0.6);
        let amp = (rng.gen::<f64>() - 0.3) * 4.0;
        let lo = center.saturating_sub(3 * width as usize);
        let hi = (center + 3 * width as usize).min(n - 1);
        for (i, o) in out.iter_mut().enumerate().take(hi + 1).skip(lo) {
            let d = (i as f64 - center as f64) / width;
            *o += amp * (-0.5 * d * d).exp();
        }
    }
    out
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Continuous fibrillatory wave (f-wave) replacing the P wave during
/// AF: a 4–9 Hz oscillation with wandering frequency and amplitude.
pub fn fibrillatory_wave(n: usize, fs_hz: f64, amplitude_mv: f64, rng: &mut StdRng) -> Vec<f64> {
    let f0 = 5.0 + rng.gen::<f64>() * 3.0;
    let fm = 0.1 + rng.gen::<f64>() * 0.2;
    let mut phase: f64 = rng.gen::<f64>() * core::f64::consts::TAU;
    let dt = 1.0 / fs_hz;
    (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            // Instantaneous frequency wanders ±15% around f0; the phase
            // is accumulated so the signal stays inside the f-wave band.
            let f = f0 * (1.0 + 0.15 * (core::f64::consts::TAU * fm * t).sin());
            let env = 1.0 + 0.25 * (core::f64::consts::TAU * fm * 1.7 * t + 1.0).sin();
            let v = amplitude_mv * env * phase.sin();
            phase += core::f64::consts::TAU * f * dt;
            v
        })
        .collect()
}

/// Deterministic flutter ("sawtooth") wave at `rate_hz` — typically
/// ~5 Hz, i.e. a 300/min atrial circuit. The first three harmonics of
/// a sawtooth give the classic F-wave shape: periodic and phase-locked,
/// unlike the frequency-wandering fibrillatory wave of AF. No RNG is
/// consumed, so rendering it for flutter spans cannot perturb the
/// random stream of records that contain none.
pub fn flutter_wave(n: usize, fs_hz: f64, amplitude_mv: f64, rate_hz: f64) -> Vec<f64> {
    let dt = 1.0 / fs_hz;
    (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            let mut v = 0.0;
            for k in 1..=3u32 {
                let kf = k as f64;
                v += (core::f64::consts::TAU * kf * rate_hz * t).sin() / kf;
            }
            amplitude_mv * core::f64::consts::FRAC_2_PI * v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn snr_target_is_hit() {
        let cfg = NoiseConfig::ambulatory(10.0);
        let sig_power = 0.04; // mV²
        let noise = cfg.generate(5000, 250.0, sig_power, &mut rng(1));
        let p = power(&noise);
        let snr = 10.0 * (sig_power / p).log10();
        assert!((snr - 10.0).abs() < 0.2, "snr {snr}");
    }

    #[test]
    fn clean_config_is_zero() {
        let noise = NoiseConfig::clean().generate(100, 250.0, 1.0, &mut rng(2));
        assert!(noise.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn baseline_wander_is_slow() {
        // Mean absolute first difference must be far smaller than for EMG.
        let bw = baseline_wander(5000, 250.0, &mut rng(3));
        let em = emg(5000, 250.0, &mut rng(4));
        let diff = |x: &[f64]| {
            x.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>()
                / ((x.len() - 1) as f64 * power(x).sqrt())
        };
        assert!(
            diff(&bw) < 0.1 * diff(&em),
            "bw {} emg {}",
            diff(&bw),
            diff(&em)
        );
    }

    #[test]
    fn streamed_emg_matches_the_buffered_form_bit_for_bit() {
        // The buffered form `emg` replaced, kept as the oracle.
        fn emg_buffered(n: usize, rng: &mut StdRng) -> Vec<f64> {
            let white: Vec<f64> = (0..n + 2).map(|_| gauss(rng)).collect();
            (0..n)
                .map(|i| {
                    let d1 = white[i + 1] - white[i];
                    let d2 = white[i + 2] - white[i + 1];
                    0.5 * (d1 + d2)
                })
                .collect()
        }
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            for n in [0usize, 1, 2, 3, 7, 250, 7500] {
                let (mut a, mut b) = (rng(seed), rng(seed));
                let streamed: Vec<u64> =
                    emg(n, 250.0, &mut a).iter().map(|v| v.to_bits()).collect();
                let buffered: Vec<u64> = emg_buffered(n, &mut b)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(streamed, buffered, "seed {seed} n {n}");
                // Both drew exactly n + 2 Gaussians.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "seed {seed} n {n}");
            }
        }
    }

    #[test]
    fn powerline_concentrates_at_50hz() {
        let fs = 250.0;
        let x = powerline(2500, fs, &mut rng(5));
        // Goertzel-style single-bin power at 50 Hz vs 20 Hz.
        let bin_power = |f: f64| {
            let (mut re, mut im) = (0.0, 0.0);
            for (i, &v) in x.iter().enumerate() {
                let w = core::f64::consts::TAU * f * i as f64 / fs;
                re += v * w.cos();
                im += v * w.sin();
            }
            re * re + im * im
        };
        assert!(bin_power(50.0) > 100.0 * bin_power(20.0));
    }

    #[test]
    fn electrode_motion_is_sparse() {
        let x = electrode_motion(250 * 60, 250.0, &mut rng(6));
        // Most samples are near zero; a minority carries the bumps.
        let p95 = {
            let mut v: Vec<f64> = x.iter().map(|&a| a.abs()).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[(v.len() as f64 * 0.5) as usize]
        };
        let max = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max > 5.0 * (p95 + 1e-9), "max {max} p50 {p95}");
    }

    #[test]
    fn fwave_band_is_4_to_9_hz() {
        let fs = 250.0;
        let x = fibrillatory_wave(5000, fs, 0.05, &mut rng(7));
        let n = x.len();
        let bin_power = |f: f64| {
            let (mut re, mut im) = (0.0, 0.0);
            for (i, &v) in x.iter().enumerate() {
                // Hann window suppresses leakage into far bins.
                let win = 0.5 - 0.5 * (core::f64::consts::TAU * i as f64 / (n - 1) as f64).cos();
                let w = core::f64::consts::TAU * f * i as f64 / fs;
                re += win * v * w.cos();
                im += win * v * w.sin();
            }
            re * re + im * im
        };
        // Integrate densely: frequency modulation spreads power between
        // integer bins.
        let in_band: f64 = (14..=40).map(|k| bin_power(k as f64 * 0.25)).sum();
        let out_band: f64 = (56..=82).map(|k| bin_power(k as f64 * 0.25)).sum();
        assert!(
            in_band > 10.0 * out_band,
            "in {in_band:.1} out {out_band:.1}"
        );
    }

    #[test]
    fn weighted_sources_change_mix() {
        // Mains-dominated config should carry much more 50 Hz power than
        // the ambulatory mix at the same SNR.
        let fs = 250.0;
        let a = NoiseConfig::mains_dominated(5.0).generate(5000, fs, 1.0, &mut rng(8));
        let b = NoiseConfig::ambulatory(5.0).generate(5000, fs, 1.0, &mut rng(8));
        let bin_power = |x: &[f64], f: f64| {
            let (mut re, mut im) = (0.0, 0.0);
            for (i, &v) in x.iter().enumerate() {
                let w = core::f64::consts::TAU * f * i as f64 / fs;
                re += v * w.cos();
                im += v * w.sin();
            }
            re * re + im * im
        };
        assert!(bin_power(&a, 50.0) > 2.0 * bin_power(&b, 50.0));
    }
}
