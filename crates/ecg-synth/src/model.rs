//! Beat morphologies: Gaussian wave events and lead projections.
//!
//! A heartbeat is modelled as five Gaussian events in time — P, Q, R,
//! S, T — each with a center offset relative to the R peak, an
//! amplitude in millivolts and a width. This is the time-domain
//! specialization of the ECGSYN phase model, chosen because it makes
//! ground-truth fiducial points *exact*: a wave with center `c` and
//! width `σ` has its peak at `c` and its clinically meaningful
//! onset/offset at `c ∓ ONSET_SIGMAS·σ`.

/// The five characteristic waves of a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaveKind {
    /// Atrial depolarization.
    P,
    /// First negative deflection of the ventricular complex.
    Q,
    /// Main ventricular depolarization peak.
    R,
    /// Negative deflection after R.
    S,
    /// Ventricular repolarization.
    T,
}

impl WaveKind {
    /// All five waves in temporal order.
    pub const ALL: [WaveKind; 5] = [
        WaveKind::P,
        WaveKind::Q,
        WaveKind::R,
        WaveKind::S,
        WaveKind::T,
    ];
}

/// Number of Gaussian σ on each side of a wave center considered part
/// of the wave for onset/offset ground truth (≈99% of the wave area).
pub const ONSET_SIGMAS: f64 = 2.5;

/// One Gaussian wave event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    /// Center offset from the R peak in seconds (negative = before R).
    pub offset_s: f64,
    /// Peak amplitude in millivolts (sign gives polarity).
    pub amplitude_mv: f64,
    /// Gaussian width σ in seconds.
    pub sigma_s: f64,
}

impl Wave {
    /// Value of this wave `dt` seconds from the R peak.
    pub fn eval(&self, dt: f64) -> f64 {
        let d = (dt - self.offset_s) / self.sigma_s;
        self.amplitude_mv * (-0.5 * d * d).exp()
    }
}

/// Clinical class of a beat, following the classes the paper's
/// embedded classifier distinguishes (DATE'13 methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeatType {
    /// Normal sinus beat.
    Normal,
    /// Premature ventricular contraction: early, wide QRS, no P wave,
    /// discordant T.
    Pvc,
    /// Atrial premature contraction: early, abnormal P, narrow QRS.
    Apc,
    /// Beat conducted during atrial fibrillation: no P wave, otherwise
    /// narrow QRS.
    AfConducted,
}

impl BeatType {
    /// All supported classes.
    pub const ALL: [BeatType; 4] = [
        BeatType::Normal,
        BeatType::Pvc,
        BeatType::Apc,
        BeatType::AfConducted,
    ];

    /// Stable small integer id (for confusion matrices).
    pub fn index(self) -> usize {
        match self {
            BeatType::Normal => 0,
            BeatType::Pvc => 1,
            BeatType::Apc => 2,
            BeatType::AfConducted => 3,
        }
    }
}

/// Complete morphology of one beat: the five waves (any of which may
/// be absent).
#[derive(Debug, Clone, PartialEq)]
pub struct BeatMorphology {
    /// Present waves with their parameters, ordered as [`WaveKind::ALL`].
    waves: [Option<Wave>; 5],
}

impl BeatMorphology {
    /// Textbook normal sinus beat (amplitudes/widths per common
    /// simulator defaults; lead-II-like).
    pub fn normal() -> Self {
        BeatMorphology {
            waves: [
                Some(Wave {
                    offset_s: -0.180,
                    amplitude_mv: 0.15,
                    sigma_s: 0.022,
                }),
                Some(Wave {
                    offset_s: -0.032,
                    amplitude_mv: -0.12,
                    sigma_s: 0.009,
                }),
                Some(Wave {
                    offset_s: 0.0,
                    amplitude_mv: 1.10,
                    sigma_s: 0.011,
                }),
                Some(Wave {
                    offset_s: 0.030,
                    amplitude_mv: -0.28,
                    sigma_s: 0.009,
                }),
                Some(Wave {
                    offset_s: 0.300,
                    amplitude_mv: 0.32,
                    sigma_s: 0.045,
                }),
            ],
        }
    }

    /// Premature ventricular contraction: absent P, widened and
    /// inverted-ish QRS, discordant T.
    pub fn pvc() -> Self {
        BeatMorphology {
            waves: [
                None,
                Some(Wave {
                    offset_s: -0.055,
                    amplitude_mv: -0.35,
                    sigma_s: 0.022,
                }),
                Some(Wave {
                    offset_s: 0.0,
                    amplitude_mv: 1.45,
                    sigma_s: 0.030,
                }),
                Some(Wave {
                    offset_s: 0.060,
                    amplitude_mv: -0.55,
                    sigma_s: 0.026,
                }),
                Some(Wave {
                    offset_s: 0.330,
                    amplitude_mv: -0.40,
                    sigma_s: 0.055,
                }),
            ],
        }
    }

    /// Atrial premature contraction: early beat with an abnormal
    /// (smaller, earlier) P wave and normal ventricular complex.
    pub fn apc() -> Self {
        let mut m = Self::normal();
        m.waves[0] = Some(Wave {
            offset_s: -0.150,
            amplitude_mv: 0.08,
            sigma_s: 0.015,
        });
        m
    }

    /// Beat conducted during AF: normal QRS-T but no P wave.
    pub fn af_conducted() -> Self {
        let mut m = Self::normal();
        m.waves[0] = None;
        m
    }

    /// The canonical morphology for a [`BeatType`].
    pub fn for_type(t: BeatType) -> Self {
        match t {
            BeatType::Normal => Self::normal(),
            BeatType::Pvc => Self::pvc(),
            BeatType::Apc => Self::apc(),
            BeatType::AfConducted => Self::af_conducted(),
        }
    }

    /// Returns the wave parameters for `kind`, if the wave is present.
    pub fn wave(&self, kind: WaveKind) -> Option<&Wave> {
        self.waves[wave_index(kind)].as_ref()
    }

    /// Iterates over present waves as `(kind, wave)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (WaveKind, &Wave)> {
        WaveKind::ALL
            .iter()
            .zip(&self.waves)
            .filter_map(|(&k, w)| w.as_ref().map(|w| (k, w)))
    }

    /// Scales every wave amplitude by `gain` (per-record variability).
    pub fn scale_amplitudes(&mut self, gain: f64) {
        for w in self.waves.iter_mut().flatten() {
            w.amplitude_mv *= gain;
        }
    }

    /// Scales every wave width by `gain`.
    pub fn scale_widths(&mut self, gain: f64) {
        for w in self.waves.iter_mut().flatten() {
            w.sigma_s *= gain;
        }
    }

    /// Millivolt value of the beat `dt` seconds from its R-peak time,
    /// with the T-wave offset stretched by `qt_stretch` (QT adaptation
    /// to rate, Bazett-style).
    pub fn eval(&self, dt: f64, qt_stretch: f64) -> f64 {
        let mut v = 0.0;
        for (kind, w) in self.iter() {
            let mut w = *w;
            if kind == WaveKind::T {
                w.offset_s *= qt_stretch;
            }
            v += w.eval(dt);
        }
        v
    }
}

/// Per-lead projection: multi-lead records are generated by scaling
/// each wave with a lead-specific gain, mimicking how the cardiac
/// dipole projects differently on each electrode axis. Shared wave
/// timing (and thus shared wavelet support) across leads is exactly
/// the structure joint multi-lead CS exploits (reference \[6\]).
#[derive(Debug, Clone, PartialEq)]
pub struct LeadProjection {
    /// Gain per wave kind, ordered as [`WaveKind::ALL`].
    pub wave_gains: [f64; 5],
}

impl LeadProjection {
    /// Identity projection (lead II reference).
    pub fn identity() -> Self {
        LeadProjection {
            wave_gains: [1.0; 5],
        }
    }

    /// Standard 3-lead set used throughout the experiments: a strong
    /// lead, an attenuated lead with small P, and a lead with partially
    /// inverted ventricular complex.
    pub fn standard_3lead() -> Vec<LeadProjection> {
        vec![
            LeadProjection {
                wave_gains: [1.0, 1.0, 1.0, 1.0, 1.0],
            },
            LeadProjection {
                wave_gains: [0.55, 0.8, 0.65, 0.7, 0.75],
            },
            LeadProjection {
                wave_gains: [0.8, -0.6, -0.9, -0.7, 0.9],
            },
        ]
    }

    /// Gain for `kind`.
    pub fn gain(&self, kind: WaveKind) -> f64 {
        self.wave_gains[wave_index(kind)]
    }
}

fn wave_index(kind: WaveKind) -> usize {
    match kind {
        WaveKind::P => 0,
        WaveKind::Q => 1,
        WaveKind::R => 2,
        WaveKind::S => 3,
        WaveKind::T => 4,
    }
}

/// Analog front-end + ADC model converting millivolts to integer
/// counts, mirroring MIT-BIH-style digitization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcModel {
    /// Counts per millivolt.
    pub gain: f64,
    /// ADC resolution in bits (signed full scale `±2^(bits-1)-1`).
    pub bits: u32,
}

impl Default for AdcModel {
    fn default() -> Self {
        // 200 counts/mV over 12 bits: ±10.2 mV range, MIT-BIH-like.
        AdcModel {
            gain: 200.0,
            bits: 12,
        }
    }
}

impl AdcModel {
    /// Quantizes a millivolt value: `mv·gain` rounded half away from
    /// zero, saturating at full scale (NaN reads 0).
    ///
    /// The rounding is done without libm's `round`, which the baseline
    /// x86-64 target reaches only through a call: the value is clamped
    /// to `±(full + 1)`, truncated, and moved one count away from zero
    /// when the fraction cut off (exact, `x − trunc x`) is at least a
    /// half. That is `round` for every input, NaN and ±∞ included.
    #[inline]
    pub fn quantize(&self, mv: f64) -> i32 {
        let full = (1i32 << (self.bits - 1)) - 1;
        let limit = f64::from(full) + 1.0;
        let x = mv * self.gain;
        // NaN fails both tests and stays NaN; `as` then reads it as 0.
        let x = if x > limit {
            limit
        } else if x < -limit {
            -limit
        } else {
            x
        };
        let t = x as i64;
        let frac = x - t as f64;
        let v = t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5);
        v.clamp(-i64::from(full), i64::from(full)) as i32
    }

    /// Converts counts back to millivolts.
    pub fn to_mv(&self, counts: i32) -> f64 {
        counts as f64 / self.gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_type_index_enumerates_all_in_order() {
        // The generator's per-record morphology table relies on this.
        for (i, t) in BeatType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i, "{t:?}");
        }
    }

    #[test]
    fn normal_beat_has_all_five_waves() {
        let m = BeatMorphology::normal();
        assert_eq!(m.iter().count(), 5);
        for kind in WaveKind::ALL {
            assert!(m.wave(kind).is_some(), "{kind:?}");
        }
    }

    #[test]
    fn pvc_has_no_p_and_wider_qrs() {
        let pvc = BeatMorphology::pvc();
        let normal = BeatMorphology::normal();
        assert!(pvc.wave(WaveKind::P).is_none());
        assert!(
            pvc.wave(WaveKind::R).unwrap().sigma_s
                > 2.0 * normal.wave(WaveKind::R).unwrap().sigma_s
        );
        // Discordant T: opposite polarity from normal.
        assert!(pvc.wave(WaveKind::T).unwrap().amplitude_mv < 0.0);
    }

    #[test]
    fn beat_eval_peaks_at_r() {
        let m = BeatMorphology::normal();
        let at_r = m.eval(0.0, 1.0);
        for dt in [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2, 0.3] {
            assert!(m.eval(dt, 1.0) < at_r, "dt={dt}");
        }
        assert!(at_r > 1.0, "R peak ≈ 1.1 mV, got {at_r}");
    }

    #[test]
    fn qt_stretch_moves_t_wave() {
        let m = BeatMorphology::normal();
        let t_nom = m.wave(WaveKind::T).unwrap().offset_s;
        // With stretch 1.2, the T peak sits near 1.2*offset.
        let mut best = (0.0, f64::MIN);
        let mut dt = 0.1;
        while dt < 0.6 {
            let v = m.eval(dt, 1.2);
            if v > best.1 {
                best = (dt, v);
            }
            dt += 0.001;
        }
        assert!((best.0 - t_nom * 1.2).abs() < 0.01, "T peak at {}", best.0);
    }

    #[test]
    fn scaling_morphology() {
        let mut m = BeatMorphology::normal();
        let r0 = m.wave(WaveKind::R).unwrap().amplitude_mv;
        m.scale_amplitudes(0.5);
        assert!((m.wave(WaveKind::R).unwrap().amplitude_mv - 0.5 * r0).abs() < 1e-12);
        let s0 = m.wave(WaveKind::T).unwrap().sigma_s;
        m.scale_widths(2.0);
        assert!((m.wave(WaveKind::T).unwrap().sigma_s - 2.0 * s0).abs() < 1e-12);
    }

    #[test]
    fn lead_projections_shape() {
        let leads = LeadProjection::standard_3lead();
        assert_eq!(leads.len(), 3);
        // Third lead inverts the R wave.
        assert!(leads[2].gain(WaveKind::R) < 0.0);
        assert_eq!(LeadProjection::identity().gain(WaveKind::P), 1.0);
    }

    #[test]
    fn adc_quantizes_and_saturates() {
        let adc = AdcModel::default();
        assert_eq!(adc.quantize(1.0), 200);
        assert_eq!(adc.quantize(-1.0), -200);
        assert_eq!(adc.quantize(100.0), 2047);
        assert_eq!(adc.quantize(-100.0), -2047);
        assert!((adc.to_mv(200) - 1.0).abs() < 1e-12);
    }

    /// `quantize` as it was, through libm's `round`: the oracle.
    fn quantize_round(adc: &AdcModel, mv: f64) -> i32 {
        let full = (1i32 << (adc.bits - 1)) - 1;
        let v = (mv * adc.gain).round();
        if v > full as f64 {
            full
        } else if v < -(full as f64) {
            -full
        } else {
            v as i32
        }
    }

    /// ADC widths checked: the default 12 bits used by every record,
    /// and every width the shift admits.
    const WIDTHS: core::ops::Range<u32> = 1..32;

    #[test]
    fn quantize_matches_libm_round_on_the_edges() {
        for bits in WIDTHS {
            // Gain 1 puts the edges at the given count values exactly.
            let adc = AdcModel { gain: 1.0, bits };
            let full = f64::from((1i32 << (bits - 1)) - 1);
            let mut xs = vec![
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::MAX,
                f64::MIN,
                1e300,
                -1e300,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
                0.49999999999999994,
                -0.49999999999999994,
            ];
            let halves = (0..40).map(f64::from).chain([
                full - 1.0,
                full,
                full + 1.0,
                2f64.powi(52) - 1.0,
                2f64.powi(52),
                2f64.powi(53),
            ]);
            for k in halves {
                for x in [k + 0.5, k, full + 0.5, full - 0.5, full + 1.0] {
                    for x in [x, -x] {
                        xs.extend([x.next_down(), x, x.next_up()]);
                    }
                }
            }
            for x in xs {
                assert_eq!(
                    adc.quantize(x),
                    quantize_round(&adc, x),
                    "{bits} bits, x = {x:e}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn quantize_matches_libm_round(mv in -30.0f64..30.0, bits in WIDTHS) {
            let adc = AdcModel { bits, ..AdcModel::default() };
            proptest::prop_assert_eq!(adc.quantize(mv), quantize_round(&adc, mv));
            // The same value nudged onto a half-count boundary.
            let on_half = ((mv * adc.gain).trunc() + 0.5) / adc.gain;
            proptest::prop_assert_eq!(adc.quantize(on_half), quantize_round(&adc, on_half));
        }
    }

    #[test]
    fn af_conducted_is_normal_without_p() {
        let af = BeatMorphology::af_conducted();
        assert!(af.wave(WaveKind::P).is_none());
        assert_eq!(
            af.wave(WaveKind::R),
            BeatMorphology::normal().wave(WaveKind::R)
        );
    }
}
