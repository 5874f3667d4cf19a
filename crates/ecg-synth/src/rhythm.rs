//! Beat-to-beat rhythm processes.
//!
//! The rhythm layer decides *when* beats occur (the RR-interval
//! process) and *what type* each beat is. Normal sinus rhythm carries
//! physiological heart-rate variability (LF Mayer waves + HF
//! respiratory sinus arrhythmia, as in ECGSYN); atrial fibrillation is
//! modelled as an uncorrelated, heavy-jitter RR process with conducted
//! (P-less) beats — the two irregularities the AF detector of the paper
//! (reference \[25\]) keys on.

use crate::model::BeatType;
use crate::noise::gauss;
use rand::rngs::StdRng;
use rand::Rng;

/// Rhythm configuration for a generated record.
#[derive(Debug, Clone, PartialEq)]
pub enum Rhythm {
    /// Normal sinus rhythm with physiological HRV.
    NormalSinus {
        /// Mean heart rate in beats per minute.
        mean_hr_bpm: f64,
    },
    /// Sinus rhythm with randomly interspersed ectopic beats.
    SinusWithEctopy {
        /// Mean heart rate in beats per minute.
        mean_hr_bpm: f64,
        /// Probability that any given beat is a PVC.
        pvc_rate: f64,
        /// Probability that any given beat is an APC.
        apc_rate: f64,
    },
    /// Sustained atrial fibrillation.
    AtrialFibrillation {
        /// Mean ventricular rate in beats per minute.
        mean_hr_bpm: f64,
    },
    /// Sinus rhythm with embedded AF episodes (for detector scoring).
    EpisodicAf {
        /// Sinus heart rate between episodes.
        sinus_hr_bpm: f64,
        /// Ventricular rate during AF episodes.
        af_hr_bpm: f64,
        /// Mean episode length in seconds.
        episode_len_s: f64,
        /// Mean sinus stretch between episodes in seconds.
        gap_len_s: f64,
    },
    /// Ventricular bigeminy: alternating normal / PVC.
    Bigeminy {
        /// Mean heart rate in beats per minute.
        mean_hr_bpm: f64,
    },
    /// Atrial flutter with fixed AV conduction: the atria re-enter at
    /// ~300/min and every `conduction_block`-th impulse conducts, so
    /// the ventricular response is fast but *regular* — the classic
    /// blind spot of RR-irregularity AF detectors, which is why flutter
    /// spans are labelled [`RhythmLabel::Flutter`], not `Af`.
    AtrialFlutter {
        /// Atrial (flutter-wave) rate in beats per minute, typically
        /// 240–340. Clamped to `[200, 400]`.
        atrial_rate_bpm: f64,
        /// AV conduction ratio: 2 ⇒ 2:1 block (ventricular rate =
        /// atrial / 2), 4 ⇒ 4:1. Clamped to at least 1.
        conduction_block: u32,
    },
    /// Brady–tachy (sick-sinus) syndrome: sinus bradycardia alternating
    /// with bursts of sinus tachycardia, with a conversion pause at each
    /// tachy→brady transition. Both phases stay labelled
    /// [`RhythmLabel::Sinus`] — the syndrome stresses rate-adaptive
    /// processing without being an AF ground-truth episode.
    BradyTachy {
        /// Heart rate during bradycardic stretches (bpm).
        brady_hr_bpm: f64,
        /// Heart rate during tachycardic bursts (bpm).
        tachy_hr_bpm: f64,
        /// Mean length of each stretch in seconds (jittered ±30%).
        alternation_s: f64,
    },
    /// A scripted sequence of rhythm phases with exact boundaries —
    /// the controlled counterpart of [`Rhythm::EpisodicAf`] for
    /// closed-loop scenarios (e.g. the power governor's quiet night →
    /// AF episode → recovery trace), where the experiment needs to
    /// know *when* each regime starts and ends.
    Phased(Vec<RhythmPhase>),
}

/// One phase of a [`Rhythm::Phased`] script.
#[derive(Debug, Clone, PartialEq)]
pub struct RhythmPhase {
    /// The rhythm running during this phase. Nested `Phased` scripts
    /// are allowed and flatten naturally.
    pub rhythm: Rhythm,
    /// Phase length in seconds.
    pub duration_s: f64,
}

impl RhythmPhase {
    /// A phase of `rhythm` lasting `duration_s` seconds.
    pub fn new(rhythm: Rhythm, duration_s: f64) -> Self {
        RhythmPhase { rhythm, duration_s }
    }
}

/// Per-span rhythm label for ground truth (AF detection scoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RhythmLabel {
    /// Sinus rhythm (possibly with isolated ectopy).
    Sinus,
    /// Atrial fibrillation.
    Af,
    /// Atrial flutter (regular ventricular response; *not* counted as
    /// AF ground truth so RR-irregularity detectors are scored
    /// honestly against it).
    Flutter,
}

/// One scheduled beat produced by the rhythm process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledBeat {
    /// R-peak time in seconds from record start.
    pub r_time_s: f64,
    /// RR interval *preceding* this beat in seconds.
    pub rr_prev_s: f64,
    /// Beat class.
    pub beat_type: BeatType,
    /// Rhythm regime this beat belongs to.
    pub label: RhythmLabel,
}

impl Rhythm {
    /// Generates the beat schedule covering `duration_s` seconds.
    pub fn schedule(&self, duration_s: f64, rng: &mut StdRng) -> Vec<ScheduledBeat> {
        match *self {
            Rhythm::NormalSinus { mean_hr_bpm } => {
                sinus_schedule(duration_s, mean_hr_bpm, 0.0, 0.0, rng)
            }
            Rhythm::SinusWithEctopy {
                mean_hr_bpm,
                pvc_rate,
                apc_rate,
            } => sinus_schedule(duration_s, mean_hr_bpm, pvc_rate, apc_rate, rng),
            Rhythm::AtrialFibrillation { mean_hr_bpm } => {
                af_schedule(0.0, duration_s, mean_hr_bpm, rng)
            }
            Rhythm::EpisodicAf {
                sinus_hr_bpm,
                af_hr_bpm,
                episode_len_s,
                gap_len_s,
            } => {
                let mut beats = Vec::new();
                let mut t = 0.0;
                let mut in_af = false;
                while t < duration_s {
                    let span = if in_af {
                        (episode_len_s * (0.5 + rng.gen::<f64>())).max(5.0)
                    } else {
                        (gap_len_s * (0.5 + rng.gen::<f64>())).max(5.0)
                    };
                    let end = (t + span).min(duration_s);
                    let mut chunk = if in_af {
                        af_schedule(t, end - t, af_hr_bpm, rng)
                    } else {
                        let mut s = sinus_schedule(end - t, sinus_hr_bpm, 0.0, 0.0, rng);
                        for b in &mut s {
                            b.r_time_s += t;
                        }
                        s
                    };
                    beats.append(&mut chunk);
                    t = end;
                    in_af = !in_af;
                }
                beats.sort_by(|a, b| a.r_time_s.total_cmp(&b.r_time_s));
                fix_rr(&mut beats);
                beats
            }
            Rhythm::Phased(ref phases) => {
                let mut beats = Vec::new();
                let mut t = 0.0;
                for phase in phases {
                    if t >= duration_s {
                        break;
                    }
                    let span = phase.duration_s.min(duration_s - t);
                    let mut chunk = phase.rhythm.schedule(span, rng);
                    for b in &mut chunk {
                        b.r_time_s += t;
                    }
                    beats.extend(chunk);
                    t += span;
                }
                beats.sort_by(|a, b| a.r_time_s.total_cmp(&b.r_time_s));
                fix_rr(&mut beats);
                beats
            }
            Rhythm::Bigeminy { mean_hr_bpm } => {
                let mut beats = sinus_schedule(duration_s, mean_hr_bpm, 0.0, 0.0, rng);
                for (i, b) in beats.iter_mut().enumerate() {
                    if i % 2 == 1 {
                        b.beat_type = BeatType::Pvc;
                        // PVCs come early.
                        b.r_time_s -= 0.15;
                    }
                }
                beats.sort_by(|a, b| a.r_time_s.total_cmp(&b.r_time_s));
                fix_rr(&mut beats);
                beats
            }
            Rhythm::AtrialFlutter {
                atrial_rate_bpm,
                conduction_block,
            } => flutter_schedule(duration_s, atrial_rate_bpm, conduction_block, rng),
            Rhythm::BradyTachy {
                brady_hr_bpm,
                tachy_hr_bpm,
                alternation_s,
            } => brady_tachy_schedule(duration_s, brady_hr_bpm, tachy_hr_bpm, alternation_s, rng),
        }
    }
}

/// Sinus RR process: mean RR modulated by LF (Mayer, ~0.1 Hz) and HF
/// (respiratory, ~0.25 Hz) oscillations plus white jitter; ectopic
/// beats arrive early and are followed by a compensatory pause.
fn sinus_schedule(
    duration_s: f64,
    mean_hr_bpm: f64,
    pvc_rate: f64,
    apc_rate: f64,
    rng: &mut StdRng,
) -> Vec<ScheduledBeat> {
    let rr_mean = 60.0 / mean_hr_bpm.clamp(20.0, 240.0);
    let phase_lf = rng.gen::<f64>() * core::f64::consts::TAU;
    let phase_hf = rng.gen::<f64>() * core::f64::consts::TAU;
    let mut beats = Vec::new();
    let mut t = 0.3 + rng.gen::<f64>() * rr_mean;
    let mut rr_prev = rr_mean;
    let mut pending_pause = false;
    while t < duration_s {
        let lf = 0.03 * (core::f64::consts::TAU * 0.095 * t + phase_lf).sin();
        let hf = 0.025 * (core::f64::consts::TAU * 0.25 * t + phase_hf).sin();
        let jitter = 0.01 * gauss(rng);
        let mut rr = rr_mean * (1.0 + lf + hf + jitter);
        let u = rng.gen::<f64>();
        let beat_type = if pending_pause {
            pending_pause = false;
            rr *= 1.35; // compensatory pause after an ectopic
            BeatType::Normal
        } else if u < pvc_rate {
            pending_pause = true;
            rr *= 0.65; // premature
            BeatType::Pvc
        } else if u < pvc_rate + apc_rate {
            pending_pause = true;
            rr *= 0.75;
            BeatType::Apc
        } else {
            BeatType::Normal
        };
        beats.push(ScheduledBeat {
            r_time_s: t,
            rr_prev_s: rr_prev,
            beat_type,
            label: RhythmLabel::Sinus,
        });
        rr_prev = rr;
        t += rr;
    }
    fix_rr(&mut beats);
    beats
}

/// AF RR process: independent draws from a wide distribution (the
/// hallmark RR irregularity), all beats conducted without P waves.
fn af_schedule(
    start_s: f64,
    duration_s: f64,
    mean_hr_bpm: f64,
    rng: &mut StdRng,
) -> Vec<ScheduledBeat> {
    let rr_mean = 60.0 / mean_hr_bpm.clamp(40.0, 220.0);
    let mut beats = Vec::new();
    let mut t = start_s + 0.2 + rng.gen::<f64>() * rr_mean;
    let mut rr_prev = rr_mean;
    while t < start_s + duration_s {
        // Coefficient of variation ≈ 0.24, uncorrelated: classic AF.
        let rr = (rr_mean * (1.0 + 0.24 * gauss(rng))).max(0.28);
        beats.push(ScheduledBeat {
            r_time_s: t,
            rr_prev_s: rr_prev,
            beat_type: BeatType::AfConducted,
            label: RhythmLabel::Af,
        });
        rr_prev = rr;
        t += rr;
    }
    fix_rr(&mut beats);
    beats
}

/// Flutter RR process: near-metronomic ventricular response locked to
/// the atrial rate divided by the conduction block. Conducted beats are
/// P-less (`AfConducted` morphology) but the RR series is *regular* —
/// CV ≈ 0.02 versus ≈ 0.24 for AF.
fn flutter_schedule(
    duration_s: f64,
    atrial_rate_bpm: f64,
    conduction_block: u32,
    rng: &mut StdRng,
) -> Vec<ScheduledBeat> {
    let atrial = atrial_rate_bpm.clamp(200.0, 400.0);
    let block = conduction_block.max(1) as f64;
    let rr_mean = 60.0 * block / atrial;
    let mut beats = Vec::new();
    let mut t = 0.25 + rng.gen::<f64>() * rr_mean;
    let mut rr_prev = rr_mean;
    while t < duration_s {
        // Conduction is locked to the flutter circuit: tiny jitter only.
        let rr = (rr_mean * (1.0 + 0.02 * gauss(rng))).max(0.22);
        beats.push(ScheduledBeat {
            r_time_s: t,
            rr_prev_s: rr_prev,
            beat_type: BeatType::AfConducted,
            label: RhythmLabel::Flutter,
        });
        rr_prev = rr;
        t += rr;
    }
    fix_rr(&mut beats);
    beats
}

/// Brady–tachy RR process: alternating sinus stretches at the brady and
/// tachy rates (stretch lengths jittered ±30% around `alternation_s`),
/// with the natural offset at each stretch start acting as the
/// conversion pause after a tachycardic burst.
fn brady_tachy_schedule(
    duration_s: f64,
    brady_hr_bpm: f64,
    tachy_hr_bpm: f64,
    alternation_s: f64,
    rng: &mut StdRng,
) -> Vec<ScheduledBeat> {
    let alternation = alternation_s.max(5.0);
    let mut beats = Vec::new();
    let mut t = 0.0;
    let mut tachy = false;
    while t < duration_s {
        let span = (alternation * (0.7 + 0.6 * rng.gen::<f64>())).min(duration_s - t);
        let hr = if tachy { tachy_hr_bpm } else { brady_hr_bpm };
        let mut chunk = sinus_schedule(span, hr, 0.0, 0.0, rng);
        for b in &mut chunk {
            b.r_time_s += t;
        }
        beats.extend(chunk);
        t += span;
        tachy = !tachy;
    }
    beats.sort_by(|a, b| a.r_time_s.total_cmp(&b.r_time_s));
    fix_rr(&mut beats);
    beats
}

/// Recomputes `rr_prev_s` from actual beat times (first beat keeps its
/// provisional value).
fn fix_rr(beats: &mut [ScheduledBeat]) {
    for i in 1..beats.len() {
        beats[i].rr_prev_s = beats[i].r_time_s - beats[i - 1].r_time_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn rr_stats(beats: &[ScheduledBeat]) -> (f64, f64) {
        let rrs: Vec<f64> = beats
            .windows(2)
            .map(|w| w[1].r_time_s - w[0].r_time_s)
            .collect();
        let mean = rrs.iter().sum::<f64>() / rrs.len() as f64;
        let var = rrs.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rrs.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn sinus_rate_matches_request() {
        let beats = Rhythm::NormalSinus { mean_hr_bpm: 72.0 }.schedule(120.0, &mut rng(1));
        let (mean_rr, sd) = rr_stats(&beats);
        let hr = 60.0 / mean_rr;
        assert!((hr - 72.0).abs() < 4.0, "hr {hr}");
        // HRV present but mild.
        assert!(sd / mean_rr < 0.08, "cv {}", sd / mean_rr);
        assert!(sd > 0.0);
    }

    #[test]
    fn af_is_much_more_irregular_than_sinus() {
        let sinus = Rhythm::NormalSinus { mean_hr_bpm: 80.0 }.schedule(120.0, &mut rng(2));
        let af = Rhythm::AtrialFibrillation { mean_hr_bpm: 80.0 }.schedule(120.0, &mut rng(3));
        let (m_s, sd_s) = rr_stats(&sinus);
        let (m_a, sd_a) = rr_stats(&af);
        assert!(
            sd_a / m_a > 3.0 * (sd_s / m_s),
            "AF cv {} vs sinus cv {}",
            sd_a / m_a,
            sd_s / m_s
        );
    }

    #[test]
    fn af_beats_are_labelled_af() {
        let beats = Rhythm::AtrialFibrillation { mean_hr_bpm: 90.0 }.schedule(30.0, &mut rng(4));
        assert!(!beats.is_empty());
        assert!(beats
            .iter()
            .all(|b| b.label == RhythmLabel::Af && b.beat_type == BeatType::AfConducted));
    }

    #[test]
    fn ectopy_rates_are_respected() {
        let beats = Rhythm::SinusWithEctopy {
            mean_hr_bpm: 75.0,
            pvc_rate: 0.10,
            apc_rate: 0.05,
        }
        .schedule(600.0, &mut rng(5));
        let n = beats.len() as f64;
        let pvc = beats
            .iter()
            .filter(|b| b.beat_type == BeatType::Pvc)
            .count() as f64;
        let apc = beats
            .iter()
            .filter(|b| b.beat_type == BeatType::Apc)
            .count() as f64;
        assert!((pvc / n - 0.10).abs() < 0.03, "pvc frac {}", pvc / n);
        assert!((apc / n - 0.05).abs() < 0.03, "apc frac {}", apc / n);
    }

    #[test]
    fn episodic_af_alternates_labels() {
        let beats = Rhythm::EpisodicAf {
            sinus_hr_bpm: 70.0,
            af_hr_bpm: 95.0,
            episode_len_s: 30.0,
            gap_len_s: 30.0,
        }
        .schedule(300.0, &mut rng(6));
        let af_count = beats.iter().filter(|b| b.label == RhythmLabel::Af).count();
        let sinus_count = beats.len() - af_count;
        assert!(af_count > 20, "af beats {af_count}");
        assert!(sinus_count > 20, "sinus beats {sinus_count}");
        // Times strictly increasing.
        assert!(beats.windows(2).all(|w| w[1].r_time_s > w[0].r_time_s));
    }

    #[test]
    fn bigeminy_alternates_types() {
        let beats = Rhythm::Bigeminy { mean_hr_bpm: 70.0 }.schedule(60.0, &mut rng(7));
        let pvc = beats
            .iter()
            .filter(|b| b.beat_type == BeatType::Pvc)
            .count();
        assert!(
            (pvc as f64 / beats.len() as f64 - 0.5).abs() < 0.1,
            "pvc frac {}",
            pvc as f64 / beats.len() as f64
        );
    }

    #[test]
    fn phased_script_places_regimes_at_exact_boundaries() {
        let beats = Rhythm::Phased(vec![
            RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 55.0 }, 60.0),
            RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 110.0 }, 30.0),
            RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 70.0 }, 60.0),
        ])
        .schedule(150.0, &mut rng(11));
        assert!(beats
            .iter()
            .all(|b| (b.label == RhythmLabel::Af) == (60.0..90.0).contains(&b.r_time_s)));
        // Each regime is populated and times strictly increase.
        let af = beats.iter().filter(|b| b.label == RhythmLabel::Af).count();
        assert!(af > 30, "af beats {af}");
        assert!(af < beats.len() - 60);
        assert!(beats.windows(2).all(|w| w[1].r_time_s > w[0].r_time_s));
        // The record duration truncates an over-long script.
        let truncated = Rhythm::Phased(vec![RhythmPhase::new(
            Rhythm::NormalSinus { mean_hr_bpm: 60.0 },
            1000.0,
        )])
        .schedule(30.0, &mut rng(12));
        assert!(truncated.last().unwrap().r_time_s < 30.0);
    }

    #[test]
    fn flutter_is_fast_and_regular() {
        let beats = Rhythm::AtrialFlutter {
            atrial_rate_bpm: 300.0,
            conduction_block: 2,
        }
        .schedule(120.0, &mut rng(20));
        let (mean_rr, sd) = rr_stats(&beats);
        let hr = 60.0 / mean_rr;
        // 2:1 conduction of a 300/min circuit → ~150 bpm ventricular.
        assert!((hr - 150.0).abs() < 8.0, "hr {hr}");
        // Near-metronomic: far below the AF CV of ~0.24.
        assert!(sd / mean_rr < 0.05, "cv {}", sd / mean_rr);
        assert!(beats
            .iter()
            .all(|b| b.label == RhythmLabel::Flutter && b.beat_type == BeatType::AfConducted));
    }

    #[test]
    fn flutter_conduction_block_scales_rate() {
        let two = Rhythm::AtrialFlutter {
            atrial_rate_bpm: 300.0,
            conduction_block: 2,
        }
        .schedule(120.0, &mut rng(21));
        let four = Rhythm::AtrialFlutter {
            atrial_rate_bpm: 300.0,
            conduction_block: 4,
        }
        .schedule(120.0, &mut rng(21));
        let (rr2, _) = rr_stats(&two);
        let (rr4, _) = rr_stats(&four);
        assert!((rr4 / rr2 - 2.0).abs() < 0.15, "ratio {}", rr4 / rr2);
        // Degenerate block of 0 clamps to 1:1 and stays finite.
        let one = Rhythm::AtrialFlutter {
            atrial_rate_bpm: 300.0,
            conduction_block: 0,
        }
        .schedule(10.0, &mut rng(22));
        assert!(!one.is_empty());
        assert!(one.windows(2).all(|w| w[1].r_time_s > w[0].r_time_s));
    }

    #[test]
    fn flutter_is_not_labelled_af() {
        let beats = Rhythm::AtrialFlutter {
            atrial_rate_bpm: 280.0,
            conduction_block: 2,
        }
        .schedule(60.0, &mut rng(23));
        assert!(beats.iter().all(|b| b.label != RhythmLabel::Af));
    }

    #[test]
    fn brady_tachy_alternates_rates() {
        let beats = Rhythm::BradyTachy {
            brady_hr_bpm: 40.0,
            tachy_hr_bpm: 130.0,
            alternation_s: 30.0,
        }
        .schedule(300.0, &mut rng(24));
        assert!(beats.iter().all(|b| b.label == RhythmLabel::Sinus));
        assert!(beats.windows(2).all(|w| w[1].r_time_s > w[0].r_time_s));
        // Both regimes present: count RRs near each target.
        let rrs: Vec<f64> = beats
            .windows(2)
            .map(|w| w[1].r_time_s - w[0].r_time_s)
            .collect();
        let brady = rrs.iter().filter(|&&r| r > 60.0 / 55.0).count();
        let tachy = rrs.iter().filter(|&&r| r < 60.0 / 100.0).count();
        assert!(brady > 20, "brady RRs {brady}");
        assert!(tachy > 20, "tachy RRs {tachy}");
    }

    #[test]
    fn phased_zero_length_phases_are_skipped() {
        // A zero-length middle phase contributes no beats and does not
        // shift the boundaries of its neighbours.
        let beats = Rhythm::Phased(vec![
            RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 60.0 }, 30.0),
            RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 110.0 }, 0.0),
            RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 60.0 }, 30.0),
        ])
        .schedule(60.0, &mut rng(25));
        assert!(beats.iter().all(|b| b.label == RhythmLabel::Sinus));
        assert!(beats.iter().all(|b| b.r_time_s < 60.0));
        assert!(beats.windows(2).all(|w| w[1].r_time_s > w[0].r_time_s));
        // An all-zero script yields an empty (but valid) schedule.
        let empty = Rhythm::Phased(vec![RhythmPhase::new(
            Rhythm::NormalSinus { mean_hr_bpm: 60.0 },
            0.0,
        )])
        .schedule(0.0, &mut rng(26));
        assert!(empty.is_empty());
    }

    #[test]
    fn phased_back_to_back_regime_boundaries() {
        // Three regime changes with no sinus padding between them: every
        // beat still lands inside its own phase and times are strictly
        // increasing across all boundaries.
        let beats = Rhythm::Phased(vec![
            RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 120.0 }, 20.0),
            RhythmPhase::new(
                Rhythm::AtrialFlutter {
                    atrial_rate_bpm: 300.0,
                    conduction_block: 2,
                },
                20.0,
            ),
            RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 }, 20.0),
        ])
        .schedule(60.0, &mut rng(27));
        for b in &beats {
            let expect = if (20.0..40.0).contains(&b.r_time_s) {
                RhythmLabel::Flutter
            } else {
                RhythmLabel::Af
            };
            assert_eq!(b.label, expect, "beat at {}", b.r_time_s);
        }
        assert!(beats.windows(2).all(|w| w[1].r_time_s > w[0].r_time_s));
    }

    #[test]
    fn phased_boundary_on_cs_window_boundary() {
        // 20.48 s at 250 Hz is exactly ten 512-sample CS windows; a
        // regime boundary landing exactly there must split cleanly with
        // no beat assigned to the wrong side.
        let boundary_s = 512.0 * 10.0 / 250.0;
        let beats = Rhythm::Phased(vec![
            RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 70.0 }, boundary_s),
            RhythmPhase::new(
                Rhythm::AtrialFibrillation { mean_hr_bpm: 110.0 },
                boundary_s,
            ),
        ])
        .schedule(2.0 * boundary_s, &mut rng(28));
        assert!(beats
            .iter()
            .all(|b| (b.label == RhythmLabel::Af) == (b.r_time_s >= boundary_s)));
        assert!(beats.iter().any(|b| b.label == RhythmLabel::Af));
        assert!(beats.iter().any(|b| b.label == RhythmLabel::Sinus));
    }

    #[test]
    fn schedules_are_deterministic_in_seed() {
        let a = Rhythm::NormalSinus { mean_hr_bpm: 60.0 }.schedule(30.0, &mut rng(9));
        let b = Rhythm::NormalSinus { mean_hr_bpm: 60.0 }.schedule(30.0, &mut rng(9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.r_time_s, y.r_time_s);
        }
    }

    #[test]
    fn rr_prev_matches_time_deltas() {
        let beats = Rhythm::NormalSinus { mean_hr_bpm: 65.0 }.schedule(60.0, &mut rng(10));
        for w in beats.windows(2) {
            assert!((w[1].rr_prev_s - (w[1].r_time_s - w[0].r_time_s)).abs() < 1e-12);
        }
    }
}
