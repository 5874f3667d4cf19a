//! Per-stage cycle accounting and node energy reports.
//!
//! Converts the monitor's [`ActivityCounters`] into a
//! [`WorkloadProfile`] for the `wbsn-platform` node model. Cycle costs
//! per operation follow the MSP430-class instruction timing the paper's
//! platforms use (1–5 cycles per integer op; memory-bound DSP loops
//! average ≈4 cycles per elementary operation).

use crate::level::{OperatingMode, ProcessingLevel};
use crate::monitor::{ActivityCounters, MonitorConfig};
use wbsn_platform::node::{EnergyBreakdown, NodeModel, WorkloadProfile};

/// Cycle-cost constants for the processing stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleCosts {
    /// Cycles per acquired sample for buffering/packing.
    pub pack_per_sample: f64,
    /// Cycles per sample for the morphological conditioning filter
    /// (12 sliding-window passes ≈ 52 ops).
    pub filter_per_sample: f64,
    /// Cycles per combined sample for RMS lead combination
    /// (squares + integer sqrt amortized).
    pub rms_per_sample: f64,
    /// Cycles per sample for QRS detection + à-trous transform.
    pub delineation_per_sample: f64,
    /// Cycles per delineated beat for the fiducial searches.
    pub delineation_per_beat: f64,
    /// Cycles per signed addition in the CS encoder.
    pub cs_per_add: f64,
    /// Cycles per classified beat (projection + PWL memberships).
    pub classify_per_beat: f64,
    /// Cycles per AF window (RR metrics + fuzzy rules).
    pub af_per_window: f64,
}

impl Default for CycleCosts {
    fn default() -> Self {
        CycleCosts {
            pack_per_sample: 12.0,
            filter_per_sample: 210.0,
            rms_per_sample: 60.0,
            delineation_per_sample: 180.0,
            delineation_per_beat: 2600.0,
            cs_per_add: 4.0,
            classify_per_beat: 9000.0,
            af_per_window: 1200.0,
        }
    }
}

/// A complete node energy report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Level the report was computed for.
    pub level: ProcessingLevel,
    /// Derived workload profile (per second).
    pub workload: WorkloadProfile,
    /// Component breakdown (J/s == W).
    pub breakdown: EnergyBreakdown,
    /// MCU duty cycle at the energy-optimal operating point.
    pub duty_cycle: f64,
    /// MCU duty cycle at the 8 MHz reference clock (the paper's "7%
    /// of the duty cycle" is quoted at this class of clock).
    pub duty_cycle_8mhz: f64,
    /// Battery lifetime in days.
    pub lifetime_days: f64,
}

/// Derives the per-second workload from accumulated counters.
pub fn workload_from_counters(
    level: ProcessingLevel,
    c: &ActivityCounters,
    n_leads: usize,
    fs_hz: f64,
    costs: &CycleCosts,
) -> WorkloadProfile {
    let secs = c.seconds.max(1e-9);
    let samples_per_s = c.samples_in as f64 / secs; // all leads
    let mut cycles = costs.pack_per_sample * samples_per_s;
    if level.compresses() {
        cycles += costs.cs_per_add * c.cs_adds as f64 / secs;
    }
    if level.delineates() {
        // Filtering + combination + transform run on every sample.
        cycles += costs.filter_per_sample * samples_per_s;
        cycles += costs.rms_per_sample * (samples_per_s / n_leads as f64);
        cycles += costs.delineation_per_sample * (samples_per_s / n_leads as f64);
        cycles += costs.delineation_per_beat * c.beats as f64 / secs;
    }
    if level == ProcessingLevel::Classified {
        cycles += costs.classify_per_beat * c.classified_beats.max(c.beats) as f64 / secs;
        cycles += costs.af_per_window * c.af_windows as f64 / secs;
    }
    WorkloadProfile {
        n_leads,
        fs_hz,
        app_cycles_per_s: cycles,
        radio_payload_bytes_per_s: c.payload_bytes as f64 / secs,
        radio_wakeups_per_s: (c.payloads as f64 / secs).clamp(0.05, 4.0),
    }
}

/// Prices a workload on a node model.
pub fn report(
    level: ProcessingLevel,
    counters: &ActivityCounters,
    n_leads: usize,
    fs_hz: f64,
    node: &NodeModel,
    costs: &CycleCosts,
) -> EnergyReport {
    let workload = workload_from_counters(level, counters, n_leads, fs_hz, costs);
    let breakdown = node.breakdown(&workload);
    let total_cycles = workload.app_cycles_per_s + node.rtos.cycles_per_s();
    EnergyReport {
        level,
        workload,
        breakdown,
        duty_cycle: node.duty_cycle(&workload),
        duty_cycle_8mhz: (total_cycles / 8e6).min(1.0),
        lifetime_days: node.lifetime_days(&workload),
    }
}

impl crate::monitor::CardiacMonitor {
    /// Energy report for the activity observed so far, on the default
    /// SmartCardia-class node model, priced at the *current* operating
    /// mode (level + powered leads). For a session whose mode changed
    /// mid-stream this is an approximation over mixed history; the
    /// [governor](crate::governor) prices each constant-mode epoch
    /// exactly instead.
    pub fn energy_report(&self) -> EnergyReport {
        report(
            self.config().level,
            &self.counters(),
            self.active_leads(),
            self.config().fs_hz as f64,
            &NodeModel::default(),
            &CycleCosts::default(),
        )
    }
}

/// Predicts the steady-state per-second workload of running one
/// candidate operating mode, **before** switching to it — the pricing
/// input of the [governor](crate::governor): for each candidate
/// [`OperatingMode`] it derives the expected MCU cycles, radio bytes
/// and radio wake-ups from the session configuration and the observed
/// beat rate, so candidates can be compared on projected battery
/// lifetime and radio budget without running them.
///
/// The derivation mirrors [`workload_from_counters`] with expected
/// activity substituted for measured counters:
///
/// * raw streaming emits one chunk per powered lead per second,
/// * CS emits `fs / window` windows of `m(CR)` 16-bit measurements
///   per powered lead and spends `d_per_col` additions per sample,
/// * delineation emits one `Beats` payload per `beats_per_payload`
///   beats at the observed beat rate,
/// * classification emits one `Events` payload per `event_interval_s`.
pub fn predicted_workload(
    mode: OperatingMode,
    cfg: &MonitorConfig,
    beats_per_s: f64,
    costs: &CycleCosts,
) -> WorkloadProfile {
    let level = mode.level;
    let n_leads = mode.active_leads;
    let fs_hz = cfg.fs_hz as f64;
    let samples_per_s = fs_hz * n_leads as f64;
    let beats_per_s = beats_per_s.max(0.0);
    let mut cycles = costs.pack_per_sample * samples_per_s;
    let (payload_len, payloads_per_s) = predicted_emission(mode, cfg, beats_per_s);
    let bytes_per_s = payload_len as f64 * payloads_per_s;
    if level.compresses() {
        cycles += costs.cs_per_add * cfg.cs_d_per_col as f64 * samples_per_s;
    }
    if level.delineates() {
        cycles += costs.filter_per_sample * samples_per_s;
        cycles += (costs.rms_per_sample + costs.delineation_per_sample) * fs_hz;
        cycles += costs.delineation_per_beat * beats_per_s;
    }
    if level == ProcessingLevel::Classified {
        cycles += costs.classify_per_beat * beats_per_s;
        cycles += costs.af_per_window * beats_per_s;
    }
    WorkloadProfile {
        n_leads,
        fs_hz,
        app_cycles_per_s: cycles,
        radio_payload_bytes_per_s: bytes_per_s,
        radio_wakeups_per_s: payloads_per_s.clamp(0.05, 4.0),
    }
}

/// Predicted steady-state payload emission of one candidate mode:
/// `(bytes per payload, payloads per second)`. Every level emits
/// fixed-size payloads at a predictable rate, so the pair is enough to
/// derive both the application byte rate
/// (`len × rate`, what [`predicted_workload`] reports) and the on-wire
/// byte rate after per-payload link framing
/// (`link::wire_bytes_for(len, mtu) × rate`, what the
/// [governor](crate::governor)'s radio budget prices).
pub fn predicted_emission(
    mode: OperatingMode,
    cfg: &MonitorConfig,
    beats_per_s: f64,
) -> (usize, f64) {
    let n_leads = mode.active_leads;
    let fs_hz = cfg.fs_hz as f64;
    match mode.level {
        ProcessingLevel::RawStreaming => {
            // One 1 s chunk per lead: 4-byte header + 12-bit packing.
            let chunk = 4 + 3 * (cfg.fs_hz as usize).div_ceil(2);
            (chunk, n_leads as f64)
        }
        ProcessingLevel::CompressedSingleLead | ProcessingLevel::CompressedMultiLead => {
            let m = wbsn_cs::measurements_for_cr(cfg.cs_window, cfg.cs_cr_percent);
            let windows_per_s = fs_hz / cfg.cs_window as f64 * n_leads as f64;
            (8 + 2 * m, windows_per_s)
        }
        ProcessingLevel::Delineated => {
            let payloads = beats_per_s.max(0.0) / cfg.beats_per_payload as f64;
            (3 + 12 * cfg.beats_per_payload, payloads)
        }
        ProcessingLevel::Classified => (25, 1.0 / cfg.event_interval_s.max(1e-9)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::CardiacMonitor;
    use wbsn_ecg_synth::noise::NoiseConfig;
    use wbsn_ecg_synth::RecordBuilder;

    fn report_for(level: ProcessingLevel) -> EnergyReport {
        let rec = RecordBuilder::new(5)
            .duration_s(30.0)
            .n_leads(3)
            .noise(NoiseConfig::ambulatory(22.0))
            .build();
        let mut m = CardiacMonitor::builder().level(level).build().unwrap();
        let _ = m.process_record(rec.leads()).unwrap();
        m.energy_report()
    }

    #[test]
    fn raw_streaming_power_is_radio_dominated_milliwatts() {
        let r = report_for(ProcessingLevel::RawStreaming);
        let (radio, ..) = r.breakdown.shares();
        assert!(radio > 0.5, "radio share {radio}");
        assert!(r.breakdown.avg_power_mw() > 1.0);
    }

    #[test]
    fn every_abstraction_step_cuts_total_power() {
        let mut last = f64::INFINITY;
        for level in [
            ProcessingLevel::RawStreaming,
            ProcessingLevel::CompressedSingleLead,
            ProcessingLevel::Delineated,
            ProcessingLevel::Classified,
        ] {
            let r = report_for(level);
            let p = r.breakdown.total_j();
            assert!(p < last, "{level}: {p} not below {last}");
            last = p;
        }
    }

    #[test]
    fn classified_level_reaches_week_scale_lifetime() {
        let r = report_for(ProcessingLevel::Classified);
        assert!(
            r.lifetime_days > 5.0,
            "lifetime {} days at {} mW",
            r.lifetime_days,
            r.breakdown.avg_power_mw()
        );
    }

    #[test]
    fn delineation_duty_cycle_is_single_digit_percent_at_8mhz() {
        let r = report_for(ProcessingLevel::Delineated);
        // The paper quotes ≈7% at this clock class.
        assert!(
            r.duty_cycle_8mhz > 0.01 && r.duty_cycle_8mhz < 0.12,
            "duty@8MHz {}",
            r.duty_cycle_8mhz
        );
        // At the energy-optimal (slower) point the duty is naturally higher.
        assert!(r.duty_cycle < 0.6, "duty {}", r.duty_cycle);
    }

    #[test]
    fn compression_reduces_radio_but_adds_cycles() {
        let raw = report_for(ProcessingLevel::RawStreaming);
        let cs = report_for(ProcessingLevel::CompressedSingleLead);
        assert!(cs.breakdown.radio_j < raw.breakdown.radio_j);
        assert!(cs.workload.app_cycles_per_s > raw.workload.app_cycles_per_s);
    }
}
