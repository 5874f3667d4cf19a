//! The seed-derivation contract between node and gateway.
//!
//! Lead `l` of a CS session senses with the matrix seeded
//! `base_seed + l` (wrapping) — [`CsEncoder::for_lead`] is the one
//! constructor both ends build Φ through: the node's `CsStage` when
//! encoding, the gateway's [`MatrixCache`] when regenerating Φ from
//! the session handshake. This suite pins the identity at both
//! granularities:
//!
//! * constructor level: cache lookups, `for_lead`, and a manual
//!   `wrapping_add` construction produce bit-identical matrices;
//! * system level: measurements framed by a real multi-lead node are
//!   exactly what the gateway-side cached Φ produces on the original
//!   samples, window by window, lead by lead.

use wbsn_core::level::ProcessingLevel;
use wbsn_core::link::SessionHandshake;
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::Payload;
use wbsn_cs::encoder::CsEncoder;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_gateway::{MatrixCache, MatrixKey};

#[test]
fn cache_for_lead_and_manual_derivation_are_bit_identical() {
    let cache = MatrixCache::new();
    for base_seed in [0u64, 42, u64::MAX - 1] {
        for lead in [0u8, 1, 2, 7] {
            let cached = cache
                .get_or_build(MatrixKey {
                    window: 256,
                    measurements: 128,
                    d_per_col: 4,
                    seed: base_seed,
                    lead,
                })
                .unwrap();
            let derived = CsEncoder::for_lead(256, 128, 4, base_seed, lead).unwrap();
            let manual =
                CsEncoder::new(256, 128, 4, base_seed.wrapping_add(u64::from(lead))).unwrap();
            assert_eq!(cached.sensing_matrix(), derived.sensing_matrix());
            assert_eq!(derived.sensing_matrix(), manual.sensing_matrix());
            assert_eq!(cached.seed(), base_seed.wrapping_add(u64::from(lead)));
        }
    }
}

#[test]
fn gateway_cached_phi_reproduces_the_nodes_measurements_exactly() {
    let n_leads = 3usize;
    let rec = RecordBuilder::new(17)
        .duration_s(6.0)
        .n_leads(n_leads)
        .noise(NoiseConfig::ambulatory(24.0))
        .build();
    let mut node = MonitorBuilder::new()
        .level(ProcessingLevel::CompressedMultiLead)
        .n_leads(n_leads)
        .cs_window(256)
        .cs_compression_ratio(50.0)
        .build()
        .unwrap();
    let payloads = node.process_record(rec.leads()).unwrap();
    let hs = SessionHandshake::for_config(1, node.config());
    let cache = MatrixCache::new();
    let n = hs.cs_window as usize;
    let mut checked = 0usize;
    for p in &payloads {
        let Payload::CsWindow {
            lead,
            window_seq,
            measurements,
        } = p
        else {
            continue;
        };
        // The gateway's side of the contract: Φ purely from the
        // handshake tuple plus the lead index.
        let enc = cache
            .get_or_build(MatrixKey {
                window: hs.cs_window,
                measurements: hs.cs_measurements,
                d_per_col: hs.cs_d_per_col,
                seed: hs.seed,
                lead: *lead,
            })
            .unwrap();
        let start = *window_seq as usize * n;
        let window = &rec.lead(*lead as usize)[start..start + n];
        let expected: Vec<i16> = enc
            .encode(window)
            .unwrap()
            .iter()
            .map(|&v| v.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
            .collect();
        assert_eq!(
            &expected, measurements,
            "lead {lead} window {window_seq}: gateway-side Φ disagrees with the node"
        );
        checked += 1;
    }
    assert!(checked >= 3 * n_leads, "only {checked} windows checked");
    // One construction per lead, every further window a hit.
    let stats = cache.stats();
    assert_eq!(stats.misses, n_leads as u64);
    assert_eq!(stats.hits, (checked - n_leads) as u64);
}
