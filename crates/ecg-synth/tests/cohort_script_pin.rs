//! Bit pin on the records a small cohort's scripts render.
//!
//! Every script of every session is rendered with `Script::record`,
//! and the bits of each lead's clean trace and digitized counts are
//! folded into one FNV-1a hash. The cohort is drawn so that it covers
//! every `NoiseProfile`, one- and three-lead sessions, motion bursts
//! and electrode dropout; the coverage is asserted, so a change to the
//! draw cannot quietly shrink what the pin guards. A change to any
//! noise source, wave renderer or the ADC that moves a single sample
//! moves the pin.

use wbsn_ecg_synth::{Adversity, CohortConfig, CohortGenerator, NoiseProfile, Record, Script};

fn cohort() -> CohortGenerator {
    CohortGenerator::new(CohortConfig {
        cohort_seed: 0x5C_41_97,
        sessions: 12,
        modeled_hours: 2,
        segment_s: 30.0,
        noise_weights: [1.0; 4],
        three_lead_fraction: 0.5,
        cs_fraction: 0.0,
        dropout_rate: 0.5,
        ..CohortConfig::smoke()
    })
}

fn fold(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_record(h: &mut u64, rec: &Record) {
    for l in 0..rec.n_leads() {
        rec.clean_lead_mv(l)
            .iter()
            .for_each(|v| fold(h, v.to_bits()));
        rec.lead(l).iter().for_each(|&v| fold(h, v as u64));
    }
}

fn has(script: &Script, pred: fn(&Adversity) -> bool) -> bool {
    script.adversities().iter().any(|ta| pred(&ta.adversity))
}

#[test]
fn cohort_script_records_are_bit_pinned() {
    let g = cohort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let (mut profiles, mut leads) = (Vec::new(), Vec::new());
    let (mut bursts, mut dropouts, mut samples) = (0usize, 0usize, 0usize);
    for i in 0..g.config().sessions {
        let p = g.profile(i);
        profiles.push(p.noise);
        leads.push(p.n_leads);
        for script in g.session_scripts(&p) {
            bursts += usize::from(has(&script, |a| matches!(a, Adversity::MotionBurst { .. })));
            dropouts += usize::from(has(&script, |a| {
                matches!(a, Adversity::ElectrodeDropout { .. })
            }));
            let rec = script.record();
            samples += rec.n_leads() * rec.n_samples();
            fold_record(&mut h, &rec);
        }
    }
    for noise in NoiseProfile::ALL {
        assert!(profiles.contains(&noise), "no {} session", noise.label());
    }
    assert!(leads.contains(&1) && leads.contains(&3), "leads {leads:?}");
    assert!(bursts > 0, "no motion burst");
    assert!(dropouts > 0, "no electrode dropout");
    assert_eq!(
        (samples, h),
        (390_000, 0x33c7_1e62_8a6c_ae90),
        "{samples} samples, hash {h:#018x}"
    );
}
