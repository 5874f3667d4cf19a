//! Scenario DSL: scripted patient sessions with timed adversities.
//!
//! A [`Script`] is a declarative description of one monitoring session:
//! a sequence of rhythm phases (compiled to [`Rhythm::Phased`]) plus a
//! list of [`TimedAdversity`] items layered on top. Adversities come in
//! two kinds:
//!
//! - **Signal adversities** mutate the rendered record itself —
//!   [`Adversity::MotionBurst`] injects a timed high-power artifact
//!   burst, [`Adversity::ElectrodeDropout`] flatlines one lead for an
//!   interval (electrode off / reconnect).
//! - **Runtime adversities** do not touch the waveform; they are
//!   consumed by the session runner — [`Adversity::NodeReboot`] asks the
//!   harness to power-cycle the node, [`Adversity::ChannelRegime`] asks
//!   it to degrade the duplex radio channel for an interval.
//!
//! # Grammar
//!
//! ```text
//! script     := Script::new(name, seed)
//!               [.fs(hz)] [.leads(n)] [.noise(cfg)]
//!               phase+ adversity*
//! phase      := .phase(rhythm, duration_s)          // appended in order
//! adversity  := .adversity(start_s, duration_s, a)  // timed interval
//!             | .at(start_s, a)                     // instantaneous
//! ```
//!
//! Phases are laid end to end; the script duration is the sum of phase
//! durations. Adversity times are absolute seconds from script start
//! and may overlap phases and each other freely.
//!
//! A script with no signal adversities compiles to *exactly* the record
//! the equivalent [`RecordBuilder`] chain produces — bit-identical —
//! which is how legacy single-trace acceptance tests (the power
//! governor's three-act scenario) migrate into the DSL without any
//! pinned number changing.
//!
//! # Example
//!
//! ```
//! use wbsn_ecg_synth::scenario::{Adversity, Script};
//! use wbsn_ecg_synth::Rhythm;
//!
//! let script = Script::new("paroxysmal-af-with-motion", 42)
//!     .leads(3)
//!     .phase(Rhythm::NormalSinus { mean_hr_bpm: 62.0 }, 120.0)
//!     .phase(Rhythm::AtrialFibrillation { mean_hr_bpm: 110.0 }, 90.0)
//!     .phase(Rhythm::NormalSinus { mean_hr_bpm: 70.0 }, 90.0)
//!     .adversity(60.0, 15.0, Adversity::MotionBurst { snr_db: 2.0 })
//!     .adversity(150.0, 10.0, Adversity::ElectrodeDropout { lead: 1 })
//!     .at(200.0, Adversity::NodeReboot);
//! let record = script.record();
//! assert_eq!(record.duration_s(), 300.0);
//! assert_eq!(script.runtime_adversities().count(), 1);
//! ```

use crate::generator::RecordBuilder;
use crate::noise::{NoiseConfig, NoiseKind};
use crate::record::Record;
use crate::rhythm::{Rhythm, RhythmPhase};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One adversity kind that can be layered onto a session.
#[derive(Debug, Clone, PartialEq)]
pub enum Adversity {
    /// A motion-artifact burst: electrode-motion + EMG + wander noise
    /// mixed into every lead at the given (low) SNR for the interval.
    MotionBurst {
        /// SNR of clean signal vs burst noise over the interval, in dB.
        /// Typical ambulatory bursts are 0–6 dB.
        snr_db: f64,
    },
    /// One electrode detaches: the lead reads a flat baseline for the
    /// interval, then reconnects (signal resumes at interval end).
    ElectrodeDropout {
        /// Zero-based lead index. Out-of-range indices are ignored.
        lead: usize,
    },
    /// The node power-cycles at `start_s`: the runner rebuilds the
    /// monitor, reopens the uplink session, and re-registers with the
    /// gateway. Runtime-only; the waveform is unaffected.
    NodeReboot,
    /// The radio channel degrades for the interval: the runner applies
    /// these rates to the duplex channel, restoring the previous regime
    /// at interval end. Runtime-only.
    ChannelRegime {
        /// Packet-drop probability in each direction, `[0, 1]`.
        drop_rate: f64,
        /// Per-packet corruption probability, `[0, 1]`.
        corrupt_rate: f64,
    },
}

impl Adversity {
    /// True for adversities that mutate the rendered waveform; false
    /// for runtime adversities consumed by the session runner.
    pub fn is_signal(&self) -> bool {
        matches!(
            self,
            Adversity::MotionBurst { .. } | Adversity::ElectrodeDropout { .. }
        )
    }
}

/// An [`Adversity`] pinned to an absolute time interval of the script.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedAdversity {
    /// Start, seconds from script start.
    pub start_s: f64,
    /// Interval length in seconds (0 for instantaneous events such as
    /// [`Adversity::NodeReboot`]).
    pub duration_s: f64,
    /// What happens.
    pub adversity: Adversity,
}

/// A named, seeded session script: rhythm phases plus timed
/// adversities. See the [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    name: String,
    seed: u64,
    fs: u32,
    n_leads: usize,
    noise: NoiseConfig,
    phases: Vec<RhythmPhase>,
    adversities: Vec<TimedAdversity>,
}

impl Script {
    /// New script with defaults matching [`RecordBuilder`]: 250 Hz,
    /// 1 lead, clean noise, no phases, no adversities.
    pub fn new(name: &str, seed: u64) -> Self {
        Script {
            name: name.to_string(),
            seed,
            fs: 250,
            n_leads: 1,
            noise: NoiseConfig::clean(),
            phases: Vec::new(),
            adversities: Vec::new(),
        }
    }

    /// Sampling rate in Hz (default 250).
    pub fn fs(mut self, fs: u32) -> Self {
        self.fs = fs.max(50);
        self
    }

    /// Lead count (default 1; capped at 3 by the standard projections).
    pub fn leads(mut self, n: usize) -> Self {
        self.n_leads = n.max(1);
        self
    }

    /// Background noise recipe for the whole session (default clean).
    pub fn noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// Appends a rhythm phase of `duration_s` seconds.
    pub fn phase(mut self, rhythm: Rhythm, duration_s: f64) -> Self {
        self.phases
            .push(RhythmPhase::new(rhythm, duration_s.max(0.0)));
        self
    }

    /// Adds an adversity over `[start_s, start_s + duration_s)`.
    pub fn adversity(mut self, start_s: f64, duration_s: f64, adversity: Adversity) -> Self {
        self.adversities.push(TimedAdversity {
            start_s: start_s.max(0.0),
            duration_s: duration_s.max(0.0),
            adversity,
        });
        self
    }

    /// Adds an instantaneous adversity at `start_s` (duration 0) —
    /// the natural form for [`Adversity::NodeReboot`].
    pub fn at(self, start_s: f64, adversity: Adversity) -> Self {
        self.adversity(start_s, 0.0, adversity)
    }

    /// The script name (for reports and logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The record seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Lead count the record will carry.
    pub fn n_leads(&self) -> usize {
        self.n_leads
    }

    /// Sampling rate in Hz.
    pub fn fs_hz(&self) -> u32 {
        self.fs
    }

    /// Total scripted duration: the sum of phase lengths (the record
    /// clamps to at least 1 s, as [`RecordBuilder`] does).
    pub fn duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// The rhythm phases, in order.
    pub fn phases(&self) -> &[RhythmPhase] {
        &self.phases
    }

    /// All timed adversities, in insertion order.
    pub fn adversities(&self) -> &[TimedAdversity] {
        &self.adversities
    }

    /// Runtime adversities (reboots, channel regimes) sorted by start
    /// time — the session runner's event feed.
    pub fn runtime_adversities(&self) -> impl Iterator<Item = &TimedAdversity> {
        let mut rt: Vec<&TimedAdversity> = self
            .adversities
            .iter()
            .filter(|ta| !ta.adversity.is_signal())
            .collect();
        rt.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        rt.into_iter()
    }

    /// Compiles the script to an annotated [`Record`], applying every
    /// signal adversity. With no signal adversities the result is
    /// bit-identical to the equivalent [`RecordBuilder`] chain.
    pub fn record(&self) -> Record {
        let mut rec = RecordBuilder::new(self.seed)
            .fs(self.fs)
            .duration_s(self.duration_s())
            .n_leads(self.n_leads)
            .rhythm(Rhythm::Phased(self.phases.clone()))
            .noise(self.noise.clone())
            .build();
        for (idx, ta) in self
            .adversities
            .iter()
            .enumerate()
            .filter(|(_, ta)| ta.adversity.is_signal())
        {
            // Each adversity draws from its own stream, keyed on the
            // script seed and its position, so reordering unrelated
            // adversities never changes another one's noise.
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ 0xAD5E_0000_0000_0000u64.wrapping_add(idx as u64),
            );
            apply_signal_adversity(&mut rec, ta, &mut rng);
        }
        rec
    }
}

/// Mutates the digitized leads for one signal adversity. Clean mV
/// traces and annotations stay untouched: ground truth is what the
/// heart did, adversities are what the sensor saw.
fn apply_signal_adversity(rec: &mut Record, ta: &TimedAdversity, rng: &mut StdRng) {
    let fs = rec.fs as f64;
    let n = rec.leads.first().map_or(0, Vec::len);
    let lo = ((ta.start_s * fs).round().max(0.0) as usize).min(n);
    let hi = (((ta.start_s + ta.duration_s) * fs).round().max(0.0) as usize).min(n);
    if lo >= hi {
        return;
    }
    match ta.adversity {
        Adversity::MotionBurst { snr_db } => {
            let recipe = NoiseConfig {
                sources: vec![
                    (NoiseKind::ElectrodeMotion, 1.0),
                    (NoiseKind::Emg, 0.8),
                    (NoiseKind::BaselineWander, 0.4),
                ],
                snr_db: Some(snr_db),
            };
            for li in 0..rec.leads.len() {
                let seg = &rec.clean_mv[li][lo..hi];
                let p_sig = (seg.iter().map(|&v| v * v).sum::<f64>() / seg.len() as f64).max(1e-9);
                let burst = recipe.generate(hi - lo, fs, p_sig, rng);
                let adc = rec.adc;
                for (i, &e) in burst.iter().enumerate() {
                    let prior_mv = adc.to_mv(rec.leads[li][lo + i]);
                    rec.leads[li][lo + i] = adc.quantize(prior_mv + e);
                }
            }
        }
        Adversity::ElectrodeDropout { lead } => {
            if let Some(samples) = rec.leads.get_mut(lead) {
                let flat = rec.adc.quantize(0.0);
                for s in &mut samples[lo..hi] {
                    *s = flat;
                }
            }
        }
        // Runtime adversities never reach this function.
        Adversity::NodeReboot | Adversity::ChannelRegime { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhythm::RhythmLabel;

    fn base_script() -> Script {
        Script::new("base", 77)
            .leads(3)
            .noise(NoiseConfig::ambulatory(20.0))
            .phase(Rhythm::NormalSinus { mean_hr_bpm: 60.0 }, 20.0)
            .phase(Rhythm::AtrialFibrillation { mean_hr_bpm: 110.0 }, 20.0)
    }

    #[test]
    fn clean_script_matches_record_builder_bit_for_bit() {
        let rec = base_script().record();
        let direct = RecordBuilder::new(77)
            .duration_s(40.0)
            .n_leads(3)
            .rhythm(Rhythm::Phased(vec![
                RhythmPhase::new(Rhythm::NormalSinus { mean_hr_bpm: 60.0 }, 20.0),
                RhythmPhase::new(Rhythm::AtrialFibrillation { mean_hr_bpm: 110.0 }, 20.0),
            ]))
            .noise(NoiseConfig::ambulatory(20.0))
            .build();
        for l in 0..3 {
            assert_eq!(rec.lead(l), direct.lead(l), "lead {l}");
        }
        assert_eq!(rec.beats(), direct.beats());
    }

    #[test]
    fn motion_burst_perturbs_only_its_interval() {
        let clean = base_script().record();
        let bursty = base_script()
            .adversity(5.0, 5.0, Adversity::MotionBurst { snr_db: 0.0 })
            .record();
        let fs = clean.fs() as usize;
        let (lo, hi) = (5 * fs, 10 * fs);
        let diff_in: i64 = clean.lead(0)[lo..hi]
            .iter()
            .zip(&bursty.lead(0)[lo..hi])
            .map(|(&a, &b)| ((a - b) as i64).abs())
            .sum();
        assert!(diff_in > 1000, "burst should perturb its interval");
        assert_eq!(clean.lead(0)[..lo], bursty.lead(0)[..lo]);
        assert_eq!(clean.lead(0)[hi..], bursty.lead(0)[hi..]);
        // Ground truth is untouched.
        assert_eq!(clean.clean_lead_mv(0), bursty.clean_lead_mv(0));
        assert_eq!(clean.beats(), bursty.beats());
    }

    #[test]
    fn electrode_dropout_flatlines_one_lead_then_reconnects() {
        let script = base_script().adversity(8.0, 4.0, Adversity::ElectrodeDropout { lead: 1 });
        let rec = script.record();
        let clean = base_script().record();
        let fs = rec.fs() as usize;
        let (lo, hi) = (8 * fs, 12 * fs);
        let flat = rec.adc().quantize(0.0);
        assert!(rec.lead(1)[lo..hi].iter().all(|&s| s == flat));
        // Other leads and the reconnected tail are untouched.
        assert_eq!(rec.lead(0), clean.lead(0));
        assert_eq!(rec.lead(1)[hi..], clean.lead(1)[hi..]);
        // Out-of-range lead index is a no-op, not a panic.
        let noop = base_script()
            .adversity(8.0, 4.0, Adversity::ElectrodeDropout { lead: 9 })
            .record();
        assert_eq!(noop.lead(0), clean.lead(0));
    }

    #[test]
    fn runtime_adversities_do_not_touch_the_waveform() {
        let clean = base_script().record();
        let scripted = base_script()
            .at(10.0, Adversity::NodeReboot)
            .adversity(
                12.0,
                20.0,
                Adversity::ChannelRegime {
                    drop_rate: 0.2,
                    corrupt_rate: 0.01,
                },
            )
            .record();
        for l in 0..3 {
            assert_eq!(clean.lead(l), scripted.lead(l));
        }
    }

    #[test]
    fn runtime_feed_is_sorted_and_filtered() {
        let script = base_script()
            .adversity(30.0, 5.0, Adversity::MotionBurst { snr_db: 3.0 })
            .at(25.0, Adversity::NodeReboot)
            .adversity(
                5.0,
                10.0,
                Adversity::ChannelRegime {
                    drop_rate: 0.1,
                    corrupt_rate: 0.0,
                },
            );
        let rt: Vec<_> = script.runtime_adversities().collect();
        assert_eq!(rt.len(), 2);
        assert_eq!(rt[0].start_s, 5.0);
        assert_eq!(rt[1].start_s, 25.0);
        assert!(rt.iter().all(|ta| !ta.adversity.is_signal()));
    }

    #[test]
    fn scripts_are_deterministic_and_seed_sensitive() {
        let mk = |seed| {
            Script::new("d", seed)
                .leads(2)
                .phase(Rhythm::NormalSinus { mean_hr_bpm: 65.0 }, 15.0)
                .adversity(3.0, 4.0, Adversity::MotionBurst { snr_db: 2.0 })
                .record()
        };
        assert_eq!(mk(5).lead(0), mk(5).lead(0));
        assert_ne!(mk(5).lead(0), mk(6).lead(0));
    }

    #[test]
    fn adversity_intervals_clamp_to_record_bounds() {
        // Starts before 0 and ends past the record: clamped, no panic.
        let rec = base_script()
            .adversity(-5.0, 100.0, Adversity::ElectrodeDropout { lead: 0 })
            .record();
        let flat = rec.adc().quantize(0.0);
        assert!(rec.lead(0).iter().all(|&s| s == flat));
        // Zero-length interval is a no-op.
        let z = base_script()
            .adversity(5.0, 0.0, Adversity::MotionBurst { snr_db: 0.0 })
            .record();
        assert_eq!(z.lead(0), base_script().record().lead(0));
    }

    #[test]
    fn flutter_phase_in_script_is_not_af_ground_truth() {
        let rec = Script::new("flutter", 9)
            .phase(
                Rhythm::AtrialFlutter {
                    atrial_rate_bpm: 300.0,
                    conduction_block: 2,
                },
                30.0,
            )
            .record();
        assert_eq!(rec.af_fraction(), 0.0);
        assert!(rec
            .rhythm_spans()
            .iter()
            .any(|s| s.label == RhythmLabel::Flutter));
    }
}
