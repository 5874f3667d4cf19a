//! A fleet of closed-loop [`Node`]s is N independent wearables:
//! interleaving their send turns changes nothing. Each node pinned to
//! one processing level (its governor never switches) puts on the wire
//! exactly its bare `CardiacMonitor`'s payloads framed behind the
//! session handshake, with the same activity counters, and whole fleet
//! runs are reproducible byte for byte.

use wbsn_core::governor::GovernorConfig;
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::link::{DownlinkFrame, SessionHandshake, Uplink};
use wbsn_core::monitor::MonitorBuilder;
use wbsn_core::Node;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

const N_SESSIONS: usize = 8;
/// Frames per send turn — deliberately not a divisor of the input.
const CHUNK_FRAMES: usize = 97;

/// Per-session synthetic input: each session gets its own record, as
/// distinct patients would.
fn session_input(session: usize) -> (Vec<i32>, usize) {
    let rec = RecordBuilder::new(1000 + session as u64)
        .duration_s(12.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    (rec.interleaved_frames(), rec.n_samples())
}

/// Mix levels across the fleet so the test covers every stage.
fn mode_for(session: usize) -> OperatingMode {
    OperatingMode::new(
        ProcessingLevel::ALL[session % ProcessingLevel::ALL.len()],
        3,
    )
}

/// Runs `n` pinned nodes in round-robin send turns of
/// [`CHUNK_FRAMES`] behind an ideal link whose gateway acknowledges
/// every turn; returns each node's wire bytes and the nodes.
fn run_fleet(n: usize) -> (Vec<Vec<Vec<u8>>>, Vec<Node>) {
    let inputs: Vec<_> = (0..n).map(session_input).collect();
    let mut nodes: Vec<Node> = (0..n)
        .map(|s| {
            Node::new(
                s as u64,
                MonitorBuilder::new().n_leads(3),
                GovernorConfig::pinned(mode_for(s)),
            )
            .unwrap()
        })
        .collect();
    let mut wire = vec![Vec::new(); n];
    let mut offset = 0;
    while inputs.iter().any(|&(_, len)| offset < len) {
        for (s, ((buf, len), node)) in inputs.iter().zip(&mut nodes).enumerate() {
            if offset >= *len {
                continue;
            }
            let take = CHUNK_FRAMES.min(len - offset);
            wire[s].extend(
                node.push_block(&buf[offset * 3..(offset + take) * 3], take)
                    .unwrap(),
            );
            let cum_ack = node.retransmit_stats().recorded as u32;
            let ack = DownlinkFrame::Ack { cum_ack }.to_wire(s as u64, 0);
            node.take_downlink(&ack).unwrap();
        }
        offset += CHUNK_FRAMES;
    }
    for (s, node) in nodes.iter_mut().enumerate() {
        wire[s].extend(node.drain().unwrap());
    }
    (wire, nodes)
}

#[test]
fn fleet_matches_sequential_monitors_byte_for_byte() {
    let (wire, nodes) = run_fleet(N_SESSIONS);
    for (s, node) in nodes.iter().enumerate() {
        // Sequential reference: one bare monitor, run to completion and
        // framed on its own uplink.
        let (buf, n) = session_input(s);
        let mut m = MonitorBuilder::new()
            .level(mode_for(s).level)
            .n_leads(3)
            .build()
            .unwrap();
        let mut payloads = m.push_block(&buf, n).unwrap();
        payloads.extend(m.flush().unwrap());
        let mut uplink = Uplink::new();
        let mut expected = Vec::new();
        let hs = SessionHandshake::for_config(s as u64, m.config());
        uplink.open_session(&hs, &mut expected).unwrap();
        uplink.frame(s as u64, &payloads, &mut expected).unwrap();

        assert_eq!(
            wire[s], expected,
            "session {s} diverged from its sequential reference"
        );
        assert_eq!(
            node.monitor().monitor().counters(),
            m.counters(),
            "session {s} counters diverged"
        );
        assert_eq!(node.retransmit_stats().resent_packets, 0);
    }
}

#[test]
fn fleet_runs_are_reproducible() {
    assert_eq!(run_fleet(4).0, run_fleet(4).0);
}
