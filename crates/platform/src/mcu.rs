//! MSP430-class microcontroller power model with DVFS points.
//!
//! The paper's platforms "operate at a clock frequency of few MHz and
//! only support integer arithmetic operations" (Section IV-A). The
//! model charges energy per cycle at the active operating point and a
//! deep-sleep floor between processing bursts; the Figure 7 experiment
//! additionally exercises the voltage/frequency scaling relation
//! `E_cycle ∝ V²`.

use crate::{PlatformError, Result};

/// A DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock in Hz.
    pub f_hz: f64,
    /// Supply voltage in volts.
    pub vdd_v: f64,
}

/// MCU energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct McuModel {
    /// Available operating points, sorted by ascending frequency.
    points: Vec<OperatingPoint>,
    /// Effective switched capacitance per cycle (farads): dynamic
    /// energy per cycle = `c_eff · Vdd²`.
    pub c_eff_f: f64,
    /// Leakage (sleep) power at nominal voltage, watts.
    pub sleep_power_w: f64,
}

impl Default for McuModel {
    fn default() -> Self {
        // MSP430-class: ~220 µA/MHz at 2.2 V -> E/cycle ≈ 484 pJ
        // = c_eff · 2.2² -> c_eff = 100 pF.
        McuModel {
            points: vec![
                OperatingPoint {
                    f_hz: 1e6,
                    vdd_v: 1.8,
                },
                OperatingPoint {
                    f_hz: 4e6,
                    vdd_v: 2.0,
                },
                OperatingPoint {
                    f_hz: 8e6,
                    vdd_v: 2.2,
                },
                OperatingPoint {
                    f_hz: 16e6,
                    vdd_v: 2.8,
                },
                OperatingPoint {
                    f_hz: 25e6,
                    vdd_v: 3.3,
                },
            ],
            c_eff_f: 100e-12,
            sleep_power_w: 3.3e-6, // LPM3-class
        }
    }
}

impl McuModel {
    /// Builds a model with custom operating points.
    ///
    /// # Errors
    ///
    /// Fails when no points are given or any point is non-finite or
    /// non-positive.
    pub fn new(points: Vec<OperatingPoint>, c_eff_f: f64, sleep_power_w: f64) -> Result<Self> {
        if points.is_empty() {
            return Err(PlatformError::InvalidParameter {
                what: "points",
                detail: "need at least one operating point".into(),
            });
        }
        let valid = |v: f64| v.is_finite() && v > 0.0;
        if !points.iter().all(|p| valid(p.f_hz) && valid(p.vdd_v)) {
            return Err(PlatformError::InvalidParameter {
                what: "operating point",
                detail: "frequency and voltage must be finite and positive".into(),
            });
        }
        let mut points = points;
        points.sort_by(|a, b| a.f_hz.total_cmp(&b.f_hz));
        Ok(McuModel {
            points,
            c_eff_f,
            sleep_power_w,
        })
    }

    /// Available operating points (ascending frequency).
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Dynamic energy of one cycle at `op`.
    pub fn energy_per_cycle_j(&self, op: OperatingPoint) -> f64 {
        self.c_eff_f * op.vdd_v * op.vdd_v
    }

    /// The slowest operating point meeting a cycles-per-second demand,
    /// or the fastest point if the demand exceeds all (reported as
    /// saturated).
    pub fn point_for_load(&self, cycles_per_s: f64) -> OperatingPoint {
        match self.points.iter().find(|p| p.f_hz >= cycles_per_s) {
            Some(&p) => p,
            // `new` and `Default` keep at least one point.
            None => self.points[self.points.len() - 1],
        }
    }

    /// Average power for a periodic workload of `cycles_per_s` at the
    /// chosen `op`: active energy + sleep power in the idle fraction.
    pub fn average_power_w(&self, cycles_per_s: f64, op: OperatingPoint) -> f64 {
        let duty = (cycles_per_s / op.f_hz).min(1.0);
        cycles_per_s * self.energy_per_cycle_j(op) + (1.0 - duty) * self.sleep_power_w
    }

    /// Duty cycle (active fraction) for a workload at `op`.
    pub fn duty_cycle(&self, cycles_per_s: f64, op: OperatingPoint) -> f64 {
        (cycles_per_s / op.f_hz).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_energy_per_cycle_matches_msp430_class() {
        let m = McuModel::default();
        let op = OperatingPoint {
            f_hz: 8e6,
            vdd_v: 2.2,
        };
        let e = m.energy_per_cycle_j(op);
        assert!((e - 484e-12).abs() < 1e-12, "{e}");
    }

    #[test]
    fn lower_voltage_lowers_cycle_energy_quadratically() {
        let m = McuModel::default();
        let hi = m.energy_per_cycle_j(OperatingPoint {
            f_hz: 8e6,
            vdd_v: 2.2,
        });
        let lo = m.energy_per_cycle_j(OperatingPoint {
            f_hz: 8e6,
            vdd_v: 1.1,
        });
        assert!((hi / lo - 4.0).abs() < 1e-9);
    }

    #[test]
    fn point_selection_is_minimal_sufficient() {
        let m = McuModel::default();
        assert_eq!(m.point_for_load(0.5e6).f_hz, 1e6);
        assert_eq!(m.point_for_load(3e6).f_hz, 4e6);
        assert_eq!(m.point_for_load(9e6).f_hz, 16e6);
        // Saturation.
        assert_eq!(m.point_for_load(100e6).f_hz, 25e6);
    }

    #[test]
    fn duty_cycle_and_power_track_load() {
        let m = McuModel::default();
        let op = m.point_for_load(0.56e6); // 7% of 8 MHz
        let duty = m.duty_cycle(0.56e6, op);
        // The paper quotes ~7% duty for delineation at the 8 MHz class.
        if (op.f_hz - 8e6).abs() < 1.0 {
            assert!((duty - 0.07).abs() < 0.01, "duty {duty}");
        }
        let p_light = m.average_power_w(0.1e6, op);
        let p_heavy = m.average_power_w(2e6, op);
        assert!(p_heavy > p_light);
    }

    #[test]
    fn sleep_floor_dominates_idle() {
        let m = McuModel::default();
        let op = m.points()[0];
        let p_idle = m.average_power_w(0.0, op);
        assert!((p_idle - m.sleep_power_w).abs() < 1e-12);
    }

    #[test]
    fn constructor_validates() {
        assert!(McuModel::new(vec![], 1e-12, 1e-6).is_err());
        assert!(McuModel::new(
            vec![OperatingPoint {
                f_hz: 0.0,
                vdd_v: 1.0
            }],
            1e-12,
            1e-6
        )
        .is_err());
        // Non-finite points are typed errors, also when a sort would
        // have to order them against a valid point.
        let good = OperatingPoint {
            f_hz: 1e6,
            vdd_v: 1.8,
        };
        for bad in [f64::NAN, f64::INFINITY] {
            for point in [
                OperatingPoint { f_hz: bad, ..good },
                OperatingPoint { vdd_v: bad, ..good },
            ] {
                assert!(McuModel::new(vec![point], 1e-12, 1e-6).is_err());
                assert!(McuModel::new(vec![good, point], 1e-12, 1e-6).is_err());
            }
        }
    }
}
