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
//!
//! # What is bit-pinned
//!
//! A record's clean traces and digitized counts are pinned bit for bit
//! (`three_lead_ambulatory_records_are_bit_pinned` in `generator.rs`,
//! `crates/ecg-synth/tests/cohort_script_pin.rs`). The f64 noise trace
//! is not: baseline wander and powerline render their sinusoids by
//! rotation from an exactly evaluated anchor every `SINE_BLOCK` (64)
//! samples (`render_sine`), which the tests hold within
//! `8·ε·(ω·i + |φ| + 1)` of the per-sample `sin` at sample `i`, with
//! `ω = τ·f/fs`: ≈1.3e-10 for a unit 150 Hz sinusoid 75 s in, where the
//! largest gap measured is 2.2e-11. That is far below half an ADC
//! count, so no digitized sample moves. The per-sample forms are kept
//! as test oracles; the fibrillatory and flutter waves add to the
//! clean trace and are rendered per sample.
//!
//! # Which Gaussian draw feeds what
//!
//! Both draws are Box–Muller on the same `(u1, u2)` pairs in the same
//! order, so they consume the generator alike. EMG noise, which only
//! reaches a record through the ADC, draws through `gauss_fill`: a
//! block of pairs at a time, through branch-free `ln` and `cos` kernels
//! after fdlibm, within `4·ε·(|g| + 1)` of the libm draw `g` and
//! independent of the platform's libm. The scalar `gauss` keeps libm
//! for the RR jitter of `rhythm.rs` and the PPG noise of `ppg.rs`:
//! jitter sets beat times and so the pinned clean trace, where an ulp
//! could move a sample.

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
                NoiseKind::Emg => emg(n, rng),
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

/// Samples per block of [`render_sine`]: the first sample of each block
/// is evaluated exactly, the rest by rotation from it.
const SINE_BLOCK: usize = 64;

/// Feeds `apply(&mut out[i], sin(τ·f·(i/fs) + phase))` for every sample
/// of `out`, in order. Every [`SINE_BLOCK`]-th sample (the anchor) is
/// that expression evaluated as written; the samples after it come by
/// angle addition, `sin(x + kω) = sin x·cos kω + cos x·sin kω`, from a
/// table of `(sin kω, cos kω)` with `ω = τ·f/fs`. An anchor starts from
/// the exact argument, so no error carries from one block to the next,
/// and a sample differs from the direct evaluation only by the rounding
/// already in its argument (a few ulps of `τ·f·t + phase`).
fn render_sine(
    out: &mut [f64],
    fs_hz: f64,
    f_hz: f64,
    phase: f64,
    mut apply: impl FnMut(&mut f64, f64),
) {
    let tau_f = core::f64::consts::TAU * f_hz;
    let omega = tau_f / fs_hz;
    let table: [(f64, f64); SINE_BLOCK] = core::array::from_fn(|k| (omega * k as f64).sin_cos());
    for (b, block) in out.chunks_mut(SINE_BLOCK).enumerate() {
        let t = (b * SINE_BLOCK) as f64 / fs_hz;
        let (sin_a, cos_a) = (tau_f * t + phase).sin_cos();
        if let Some((anchor, rest)) = block.split_first_mut() {
            apply(anchor, sin_a);
            for (o, &(sin_k, cos_k)) in rest.iter_mut().zip(&table[1..]) {
                apply(o, sin_a * cos_k + cos_a * sin_k);
            }
        }
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
    let mut out = vec![0.0; n];
    for (f, p, a) in comps {
        render_sine(&mut out, fs_hz, f, p, |o, s| *o += a * s);
    }
    out
}

/// 50 Hz mains with a weak third harmonic and slow amplitude drift:
/// `(1 + 0.3·sin(drift)) · (sin(50 Hz) + 0.2·sin(150 Hz))`, built up in
/// the one output vector.
fn powerline(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
    let phase: f64 = rng.gen::<f64>() * core::f64::consts::TAU;
    let drift_f = 0.1 + rng.gen::<f64>() * 0.2;
    let mut out = vec![0.0; n];
    render_sine(&mut out, fs_hz, 50.0, phase, |o, s| *o = s);
    render_sine(&mut out, fs_hz, 150.0, 3.0 * phase, |o, s| *o += 0.2 * s);
    render_sine(&mut out, fs_hz, drift_f, 0.0, |o, s| *o *= 1.0 + 0.3 * s);
    out
}

/// Broadband EMG: white Gaussian noise high-passed by first difference
/// then lightly smoothed (concentrates energy in the 20–100 Hz band).
/// The `n + 2` white samples are drawn in order by [`gauss_fill`], at
/// most [`GAUSS_BLOCK`] at a time into a stack block, and pass through
/// a rolling three-value window, so no white-noise buffer is kept.
fn emg(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut white = [0.0; GAUSS_BLOCK];
    gauss_fill(rng, &mut white[..2]);
    let [mut w0, mut w1] = [white[0], white[1]];
    for start in (0..n).step_by(GAUSS_BLOCK) {
        let block = &mut white[..(n - start).min(GAUSS_BLOCK)];
        gauss_fill(rng, block);
        for &w2 in &*block {
            let d1 = w1 - w0;
            let d2 = w2 - w1;
            (w0, w1) = (w1, w2);
            out.push(0.5 * (d1 + d2));
        }
    }
    out
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

/// Standard normal via Box–Muller: draws `u1` then `u2`, uses only the
/// cosine branch, through libm `ln` and `cos`. The RR jitter of
/// `rhythm.rs` and the PPG noise of `ppg.rs` draw here; EMG noise draws
/// the same pairs through [`gauss_fill`] (the module docs say why).
pub(crate) fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Gaussians per block of [`gauss_fill`]: one block's uniforms sit on
/// the stack between the draw and the transform.
const GAUSS_BLOCK: usize = 64;

/// Fills `out` with standard normals, [`GAUSS_BLOCK`] at a time: each
/// block first draws its `(u1, u2)` pairs in [`gauss`]'s order, then
/// maps them all through `sqrt(−2·ln u1)·cos(τ·u2)` with the
/// branch-free [`ln_unit`] and [`cos_reduced`] in place of libm. So it
/// consumes the generator exactly as `out.len()` calls of [`gauss`]
/// would, and each value lies within `4·ε·(|g| + 1)` of that call's
/// `g` (the tests hold it there). It feeds the EMG source, whose
/// noise only ever reaches a record through the ADC.
fn gauss_fill(rng: &mut StdRng, out: &mut [f64]) {
    let mut u2 = [0.0; GAUSS_BLOCK];
    for block in out.chunks_mut(GAUSS_BLOCK) {
        for (u1, u2) in block.iter_mut().zip(&mut u2) {
            *u1 = rng.gen::<f64>().max(1e-12);
            *u2 = rng.gen();
        }
        for (g, &u2) in block.iter_mut().zip(&u2) {
            *g = (-2.0 * ln_unit(*g)).sqrt() * cos_reduced(core::f64::consts::TAU * u2);
        }
    }
}

/// `ln 2` split as in fdlibm: `LN2_HI` has its low 32 bits zero, so
/// `k·LN2_HI` is exact for any exponent `k`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// fdlibm's minimax coefficients of `(ln(1+f) − f + f²/2)/s` in
/// `z = s²`, `s = f/(2+f)`.
const LG: [f64; 7] = [
    f64::from_bits(0x3FE5_5555_5555_5593),
    f64::from_bits(0x3FD9_9999_9997_FA04),
    f64::from_bits(0x3FD2_4924_9422_9359),
    f64::from_bits(0x3FCC_71C5_1D8E_78AF),
    f64::from_bits(0x3FC7_4664_96CB_03DE),
    f64::from_bits(0x3FC3_9A09_D078_C69F),
    f64::from_bits(0x3FC2_F112_DF3E_5244),
];

/// Natural log of a positive normal `x`, after fdlibm's `log` as musl
/// writes it: `x = 2^k·(1 + f)` with `1 + f` in `[√2/2, √2)`, found by
/// integer arithmetic on the high word, then
/// `ln x = k·ln 2 + f − f²/2 + s·(f²/2 + R(s²))`. Error under one ulp.
/// No branch: zero, negatives, subnormals, ∞ and NaN are not handled,
/// and [`gauss_fill`] passes only `u1` in `[1e-12, 1)`.
fn ln_unit(x: f64) -> f64 {
    let bits = x.to_bits();
    // The offset carries into the exponent exactly when the significand
    // is at least √2, which halves it into [√2/2, 1) and bumps `k`.
    let hx = ((bits >> 32) as u32).wrapping_add(0x3FF0_0000 - 0x3FE6_A09E);
    let k = f64::from((hx >> 20) as i32 - 0x3FF);
    let hx = (hx & 0x000F_FFFF) + 0x3FE6_A09E;
    let f = f64::from_bits(u64::from(hx) << 32 | (bits & 0xFFFF_FFFF)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `2/π`, and `π/2` split for Cody–Waite reduction: `PIO2_1` is its
/// first 33 bits, so `n·PIO2_1` is exact for small `n`, and
/// `PIO2_1T = π/2 − PIO2_1` to double precision.
const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
/// fdlibm's `__cos` and `__sin` kernel coefficients, valid on
/// `|r| ≤ π/4`.
const COS_C: [f64; 6] = [
    f64::from_bits(0x3FA5_5555_5555_554C),
    f64::from_bits(0xBF56_C16C_16C1_5177),
    f64::from_bits(0x3EFA_01A0_19CB_1590),
    f64::from_bits(0xBE92_7E4F_809C_52AD),
    f64::from_bits(0x3E21_EE9E_BDB4_B1C4),
    f64::from_bits(0xBDA8_FAE9_BE88_38D4),
];
const SIN_S: [f64; 6] = [
    f64::from_bits(0xBFC5_5555_5555_5549),
    f64::from_bits(0x3F81_1111_1110_F8A6),
    f64::from_bits(0xBF2A_01A0_19C1_61D5),
    f64::from_bits(0x3EC7_1DE3_57B1_FE7D),
    f64::from_bits(0xBE5A_E5E6_8A2B_9CEB),
    f64::from_bits(0x3DE5_D93A_5ACF_D57C),
];

/// `cos x` for `0 ≤ x ≤ τ`, after fdlibm/musl: the one-round Cody–Waite
/// reduction `x = n·π/2 + (y0 + y1)` (musl's `__rem_pio2` medium case,
/// good to ≈85 bits here), then both the `__cos` and `__sin` kernels on
/// `y0 + y1`. The quadrant `n mod 4` picks the kernel (`sin` when `n`
/// is odd) and the sign (negative for `n mod 4` in {1, 2}) by bit
/// masks, so no branch depends on `x`. Error about one ulp of the
/// result.
fn cos_reduced(x: f64) -> f64 {
    // Adding 1.5·2^52 rounds `x·2/π` to an integer held in the low
    // mantissa bits: `n mod 4` is their last two bits.
    const TOINT: f64 = 1.5 / f64::EPSILON;
    let t = x * INV_PIO2 + TOINT;
    let n = t.to_bits();
    let fnum = t - TOINT;
    let r = x - fnum * PIO2_1;
    let w = fnum * PIO2_1T;
    let y0 = r - w;
    let y1 = (r - y0) - w;
    let z = y0 * y0;
    let zz = z * z;
    // __cos(y0, y1)
    let rc = z * (COS_C[0] + z * (COS_C[1] + z * COS_C[2]))
        + zz * zz * (COS_C[3] + z * (COS_C[4] + z * COS_C[5]));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let c = one_hz + (((1.0 - one_hz) - hz) + (z * rc - y0 * y1));
    // __sin(y0, y1, 1)
    let rs = SIN_S[1] + z * (SIN_S[2] + z * SIN_S[3]) + z * zz * (SIN_S[4] + z * SIN_S[5]);
    let v = z * y0;
    let s = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * SIN_S[0]);
    let odd = 0u64.wrapping_sub(n & 1);
    let negate = (n.wrapping_add(1) & 2) << 62;
    f64::from_bits(((c.to_bits() & !odd) | (s.to_bits() & odd)) ^ negate)
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

    /// `baseline_wander` as it was before [`render_sine`]: one libm
    /// `sin` per component per sample. The oracle of the rotation.
    fn baseline_wander_oracle(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
        let comps: Vec<(f64, f64, f64)> = (0..3)
            .map(|_| {
                (
                    0.05 + rng.gen::<f64>() * 0.35,
                    rng.gen::<f64>() * core::f64::consts::TAU,
                    0.5 + rng.gen::<f64>(),
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

    /// `powerline` as it was before [`render_sine`].
    fn powerline_oracle(n: usize, fs_hz: f64, rng: &mut StdRng) -> Vec<f64> {
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

    /// How far the rotation may sit from the direct evaluation of a unit
    /// sinusoid of `f_hz` and `phase` at sample `i`: `8·ε·(ω·i + |φ| + 1)`
    /// with `ω = τ·f/fs`, a few ulps of the argument both forms round.
    fn sine_bound(f_hz: f64, fs_hz: f64, phase: f64, i: usize) -> f64 {
        let omega = core::f64::consts::TAU * f_hz / fs_hz;
        8.0 * f64::EPSILON * (omega * i as f64 + phase.abs() + 1.0)
    }

    const LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 7_500, 18_750];
    const RATES: [f64; 3] = [250.0, 360.0, 500.0];

    /// Asserts `got` equals `want` bit for bit at every anchor sample and
    /// lies within `bound(i)` of it elsewhere.
    fn assert_anchored(got: &[f64], want: &[f64], bound: impl Fn(usize) -> f64, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            if i % SINE_BLOCK == 0 {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: anchor {i}: {g} vs {w}");
            } else {
                let d = (g - w).abs();
                assert!(d <= bound(i), "{what}: sample {i}: |{g} − {w}| = {d:e}");
            }
        }
    }

    #[test]
    fn render_sine_matches_the_direct_sine() {
        let tau = core::f64::consts::TAU;
        // Wander's frequency range and phases, the drift (no phase), and
        // both mains components with the largest phases they are given.
        let sines = [
            (0.05, 0.0),
            (0.05, 6.2),
            (0.2317, 3.1),
            (0.4, tau),
            (0.1, 0.0),
            (0.3, 0.0),
            (50.0, 1.3),
            (50.0, tau),
            (150.0, 3.9),
            (150.0, 3.0 * tau),
        ];
        for fs in RATES {
            for n in LENGTHS {
                for (f, phase) in sines {
                    let mut got = vec![0.0; n];
                    render_sine(&mut got, fs, f, phase, |o, s| *o = s);
                    let want: Vec<f64> = (0..n)
                        .map(|i| (tau * f * (i as f64 / fs) + phase).sin())
                        .collect();
                    let what = format!("{f} Hz phase {phase} at {fs} Hz, n {n}");
                    assert_anchored(&got, &want, |i| sine_bound(f, fs, phase, i), &what);
                }
            }
        }
    }

    #[test]
    fn wander_and_powerline_match_their_per_sample_oracles() {
        let tau = core::f64::consts::TAU;
        // Bounds summed over the components with their largest amplitude,
        // frequency and phase: three wander terms of amplitude ≤ 1.5;
        // mains `env·(s50 + 0.2·s150)` with |env| ≤ 1.3 and
        // |s50 + 0.2·s150| ≤ 1.2 against the drift's 0.3.
        let wander_bound = |fs: f64| move |i| 4.5 * sine_bound(0.4, fs, tau, i);
        let mains_bound = |fs: f64| {
            move |i| {
                1.3 * (sine_bound(50.0, fs, tau, i) + 0.2 * sine_bound(150.0, fs, 3.0 * tau, i))
                    + 0.36 * sine_bound(0.3, fs, 0.0, i)
            }
        };
        for seed in [0u64, 7, 0xC0FFEE] {
            for fs in RATES {
                for n in LENGTHS {
                    let what = format!("seed {seed} at {fs} Hz, n {n}");
                    let (mut a, mut b) = (rng(seed), rng(seed));
                    let got = baseline_wander(n, fs, &mut a);
                    let want = baseline_wander_oracle(n, fs, &mut b);
                    assert_anchored(&got, &want, wander_bound(fs), &format!("wander {what}"));
                    let got = powerline(n, fs, &mut a);
                    let want = powerline_oracle(n, fs, &mut b);
                    assert_anchored(&got, &want, mains_bound(fs), &format!("mains {what}"));
                    // Both forms drew the same numbers.
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{what}");
                }
            }
        }
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
        let em = emg(5000, &mut rng(4));
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
        // The buffered form `emg` replaced, kept as the oracle: all
        // `n + 2` white values drawn by one `gauss_fill` call.
        fn emg_buffered(n: usize, rng: &mut StdRng) -> Vec<f64> {
            let mut white = vec![0.0; n + 2];
            gauss_fill(rng, &mut white);
            (0..n)
                .map(|i| {
                    let d1 = white[i + 1] - white[i];
                    let d2 = white[i + 2] - white[i + 1];
                    0.5 * (d1 + d2)
                })
                .collect()
        }
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            for n in [0usize, 1, 2, 3, 7, 62, 63, 64, 65, 250, 7500] {
                let (mut a, mut b) = (rng(seed), rng(seed));
                let streamed: Vec<u64> = emg(n, &mut a).iter().map(|v| v.to_bits()).collect();
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
    fn block_gaussians_stay_within_bound_of_the_libm_draw() {
        // Each value within 4·ε·(|g| + 1) of the scalar libm draw `g`,
        // and both forms consume the generator alike.
        let mut worst = 0.0f64;
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, 0xC0FFEE] {
            for n in [0usize, 1, 63, 64, 65, 7_500] {
                let (mut a, mut b) = (rng(seed), rng(seed));
                let mut got = vec![0.0; n + 2];
                gauss_fill(&mut a, &mut got);
                for (i, &v) in got.iter().enumerate() {
                    let g = gauss(&mut b);
                    let bound = 4.0 * f64::EPSILON * (g.abs() + 1.0);
                    let d = (v - g).abs();
                    worst = worst.max(d / bound);
                    assert!(
                        d <= bound,
                        "seed {seed} n {n} draw {i}: |{v} − {g}| = {d:e}"
                    );
                }
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "seed {seed} n {n}");
            }
        }
        // The kernels are not the libm calls: some draw must differ,
        // or this test compares libm with itself.
        assert!(worst > 0.0);
    }

    #[test]
    fn ln_and_cos_kernels_track_libm() {
        // Over the arguments `gauss_fill` passes: `u1` on the generator's
        // 2^-53 grid in [1e-12, 1), and τ·u2 over [0, τ), plus the ends
        // and the quadrant boundaries. `ln` within an ulp; `cos` within
        // an ulp plus 2^-80, the one-round reduction's absolute error,
        // which shows where the result cancels near a multiple of π/2.
        let tau = core::f64::consts::TAU;
        let cos_ok = |x: f64| {
            let (got, want) = (cos_reduced(x), x.cos());
            let d = (got - want).abs();
            assert!(
                d <= f64::EPSILON * want.abs() + 2f64.powi(-80),
                "cos({x:e}) = {got:e}, libm {want:e}"
            );
        };
        let mut r = rng(9);
        let mut us: Vec<f64> = (0..200_000).map(|_| r.gen::<f64>()).collect();
        us.extend([0.0, 1e-12, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0]);
        for &u in &us {
            let u1 = u.max(1e-12);
            let (got, want) = (ln_unit(u1), u1.ln());
            assert!(
                (got - want).abs() <= f64::EPSILON * want.abs(),
                "ln({u1:e}) = {got:e}, libm {want:e}"
            );
            cos_ok(tau * u);
        }
        for q in 0..=4 {
            let x = f64::from(q) * core::f64::consts::FRAC_PI_2;
            for x in [x.next_down(), x, x.next_up()] {
                if (0.0..=tau).contains(&x) {
                    cos_ok(x);
                }
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
