//! Analog front-end + ADC acquisition energy.
//!
//! The "Sampling" slice of the paper's Figure 6: a continuous
//! instrumentation-amplifier bias per active lead plus a per-sample
//! SAR-ADC conversion energy. Constants follow the ultra-low-power
//! biopotential AFE class (ADS129x/AD8232 family, scaled to the
//! 3-lead SmartCardia configuration).

/// Acquisition energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndModel {
    /// Continuous analog bias power per lead, watts.
    pub afe_power_per_lead_w: f64,
    /// Energy of one 12-bit SAR conversion, joules.
    pub adc_energy_per_sample_j: f64,
}

impl Default for FrontEndModel {
    fn default() -> Self {
        FrontEndModel {
            afe_power_per_lead_w: 55e-6,
            adc_energy_per_sample_j: 2.5e-9,
        }
    }
}

impl FrontEndModel {
    /// Average acquisition power for `n_leads` sampled at `fs_hz` each.
    pub fn power_w(&self, n_leads: usize, fs_hz: f64) -> f64 {
        self.afe_power_per_lead_w * n_leads as f64
            + self.adc_energy_per_sample_j * fs_hz * n_leads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_lead_acquisition_is_sub_milliwatt() {
        let f = FrontEndModel::default();
        let p = f.power_w(3, 250.0);
        assert!(p > 50e-6 && p < 1e-3, "{p} W");
    }

    #[test]
    fn power_scales_with_leads_and_rate() {
        let f = FrontEndModel::default();
        assert!(f.power_w(3, 250.0) > 2.9 * f.power_w(1, 250.0));
        assert!(f.power_w(1, 500.0) > f.power_w(1, 250.0));
    }

    #[test]
    fn afe_bias_dominates_at_low_rates() {
        let f = FrontEndModel::default();
        let p = f.power_w(1, 250.0);
        let bias_share = f.afe_power_per_lead_w / p;
        assert!(bias_share > 0.9, "bias share {bias_share}");
    }
}
