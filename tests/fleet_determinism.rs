//! The fleet layer's core guarantee: N sessions multiplexed through
//! one `NodeFleet` produce byte-identical payload streams to N
//! `CardiacMonitor`s run sequentially, and aggregated counters are the
//! exact element-wise sums — also while sessions are added and removed
//! mid-stream and switched between operating modes live.

use wbsn_core::fleet::{NodeFleet, SessionId};
use wbsn_core::level::{OperatingMode, ProcessingLevel};
use wbsn_core::monitor::{ActivityCounters, CardiacMonitor, MonitorBuilder};
use wbsn_core::payload::Payload;
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;

const N_SESSIONS: usize = 8;

/// Per-session synthetic input: each session gets its own record, as
/// distinct patients would.
fn session_input(session: usize) -> (Vec<i32>, usize) {
    let rec = RecordBuilder::new(1000 + session as u64)
        .duration_s(12.0)
        .n_leads(3)
        .noise(NoiseConfig::ambulatory(22.0))
        .build();
    let n = rec.n_samples();
    let mut buf = Vec::with_capacity(n * 3);
    for i in 0..n {
        for l in 0..3 {
            buf.push(rec.lead(l)[i]);
        }
    }
    (buf, n)
}

fn builder_for(session: usize) -> MonitorBuilder {
    // Mix levels across the fleet so the test covers every stage.
    let level = ProcessingLevel::ALL[session % ProcessingLevel::ALL.len()];
    MonitorBuilder::new().level(level).n_leads(3)
}

fn payload_bytes(payloads: &[Payload]) -> Vec<u8> {
    payloads.iter().flat_map(Payload::encode).collect()
}

#[test]
fn fleet_matches_sequential_monitors_byte_for_byte() {
    // Sequential reference: one monitor per session, run to completion.
    let mut reference = Vec::new();
    for s in 0..N_SESSIONS {
        let (buf, n) = session_input(s);
        let mut m = builder_for(s).build().unwrap();
        let mut payloads = m.push_block(&buf, n).unwrap();
        payloads.extend(m.flush().unwrap());
        reference.push((payload_bytes(&payloads), m.counters()));
    }

    // Fleet run: interleave ingestion across sessions in round-robin
    // chunks to prove isolation under multiplexing.
    let mut fleet = NodeFleet::with_capacity(N_SESSIONS);
    let ids: Vec<_> = (0..N_SESSIONS)
        .map(|s| fleet.add_session(builder_for(s)).unwrap())
        .collect();
    let inputs: Vec<_> = (0..N_SESSIONS).map(session_input).collect();
    let mut outputs = vec![Vec::new(); N_SESSIONS];
    let chunk_frames = 97; // deliberately not a divisor of the input
    let mut offset = 0;
    loop {
        let mut any = false;
        for (s, (buf, n)) in inputs.iter().enumerate() {
            if offset >= *n {
                continue;
            }
            any = true;
            let take = chunk_frames.min(n - offset);
            let slice = &buf[offset * 3..(offset + take) * 3];
            outputs[s].extend(fleet.push_block(ids[s], slice, take).unwrap());
        }
        if !any {
            break;
        }
        offset += chunk_frames;
    }
    for (s, tail) in fleet.flush_all().unwrap() {
        let idx = ids.iter().position(|&id| id == s).unwrap();
        outputs[idx].extend(tail);
    }

    for (s, id) in ids.iter().enumerate() {
        let (ref_bytes, ref_counters) = &reference[s];
        assert_eq!(
            &payload_bytes(&outputs[s]),
            ref_bytes,
            "session {s} diverged from its sequential reference"
        );
        assert_eq!(
            &fleet.session(*id).unwrap().counters(),
            ref_counters,
            "session {s} counters diverged"
        );
    }

    // Aggregate counters are the exact sums of the references.
    let agg = fleet.aggregate_counters();
    assert_eq!(
        agg.payload_bytes,
        reference.iter().map(|(_, c)| c.payload_bytes).sum::<u64>()
    );
    assert_eq!(
        agg.beats,
        reference.iter().map(|(_, c)| c.beats).sum::<u64>()
    );
    assert_eq!(
        agg.samples_in,
        reference.iter().map(|(_, c)| c.samples_in).sum::<u64>()
    );
}

#[test]
fn fleet_runs_are_reproducible() {
    let run = || {
        let mut fleet = NodeFleet::new();
        let ids: Vec<_> = (0..4)
            .map(|s| fleet.add_session(builder_for(s)).unwrap())
            .collect();
        let mut all = Vec::new();
        for (s, &id) in ids.iter().enumerate() {
            let (buf, n) = session_input(s);
            all.extend(fleet.push_block(id, &buf, n).unwrap());
        }
        for (_, tail) in fleet.flush_all().unwrap() {
            all.extend(tail);
        }
        payload_bytes(&all)
    };
    assert_eq!(run(), run());
}

/// One round of the churn script: who joins, who leaves, who is fed.
struct Round {
    enroll: Option<usize>,
    retire: Option<usize>,
    feed: Vec<usize>,
}

/// Sessions can be enrolled and retired between batches without
/// disturbing anyone else: the fleet matches bare monitors run on the
/// same churn script.
#[test]
fn add_remove_while_ingesting_matches_sequential() {
    const ROUNDS: usize = 6;
    let inputs: Vec<_> = (0..N_SESSIONS).map(session_input).collect();
    let chunk = 250; // one second per round

    // Scripted churn: sessions 0..4 live from the start; 4.. are
    // enrolled mid-stream; session 1 is retired halfway through.
    let mut live: Vec<bool> = (0..N_SESSIONS).map(|s| s < 4).collect();
    let script: Vec<Round> = (0..ROUNDS)
        .map(|round| {
            let newcomer = 4 + round;
            let enroll = (newcomer < N_SESSIONS && round < 3).then_some(newcomer);
            let retire = (round == 3).then_some(1);
            if let Some(s) = enroll {
                live[s] = true;
            }
            if let Some(s) = retire {
                live[s] = false;
            }
            let feed = (0..N_SESSIONS)
                .filter(|&s| live[s] && round * chunk < inputs[s].1)
                .collect();
            Round {
                enroll,
                retire,
                feed,
            }
        })
        .collect();
    // Session `s`'s frames for `round`, and their frame count.
    let frames = |s: usize, round: usize| -> (&[i32], usize) {
        let (buf, n) = &inputs[s];
        let offset = round * chunk;
        let take = chunk.min(n - offset);
        (&buf[offset * 3..(offset + take) * 3], take)
    };

    // Bare-monitor reference.
    let mut monitors: Vec<Option<CardiacMonitor>> = (0..N_SESSIONS)
        .map(|s| (s < 4).then(|| builder_for(s).build().unwrap()))
        .collect();
    let mut reference = vec![Vec::new(); N_SESSIONS];
    let mut ref_removed = Vec::new();
    for (round, step) in script.iter().enumerate() {
        if let Some(s) = step.enroll {
            monitors[s] = Some(builder_for(s).build().unwrap());
        }
        if let Some(s) = step.retire {
            ref_removed.push(monitors[s].take().unwrap().counters());
        }
        for &s in &step.feed {
            let (block, take) = frames(s, round);
            let m = monitors[s].as_mut().unwrap();
            reference[s].extend(m.push_block(block, take).unwrap());
        }
    }
    let mut ref_counters = ActivityCounters::default();
    for (s, m) in monitors.iter_mut().enumerate() {
        if let Some(m) = m {
            reference[s].extend(m.flush().unwrap());
            ref_counters = ref_counters.merged(&m.counters());
        }
    }

    // The fleet on the same script, one ingest batch per round.
    let mut fleet = NodeFleet::new();
    let mut ids: Vec<Option<SessionId>> = (0..N_SESSIONS)
        .map(|s| (s < 4).then(|| fleet.add_session(builder_for(s)).unwrap()))
        .collect();
    let mut outputs = vec![Vec::new(); N_SESSIONS];
    let mut removed = Vec::new();
    for (round, step) in script.iter().enumerate() {
        if let Some(s) = step.enroll {
            ids[s] = Some(fleet.add_session(builder_for(s)).unwrap());
        }
        if let Some(s) = step.retire {
            let gone = fleet.remove_session(ids[s].take().unwrap()).unwrap();
            removed.push(gone.counters());
        }
        let batch: Vec<(SessionId, &[i32])> = step
            .feed
            .iter()
            .map(|&s| (ids[s].unwrap(), frames(s, round).0))
            .collect();
        for ((_, payloads), &s) in fleet
            .ingest_batch(&batch)
            .unwrap()
            .into_iter()
            .zip(&step.feed)
        {
            outputs[s].extend(payloads);
        }
    }
    for (id, tail) in fleet.flush_all().unwrap() {
        let idx = ids.iter().position(|&i| i == Some(id)).unwrap();
        outputs[idx].extend(tail);
    }

    for s in 0..N_SESSIONS {
        assert_eq!(
            payload_bytes(&outputs[s]),
            payload_bytes(&reference[s]),
            "session {s} diverged from its bare monitor"
        );
    }
    assert_eq!(fleet.aggregate_counters(), ref_counters);
    assert_eq!(removed, ref_removed, "removed-session counters diverged");
}

/// Live mode switches (the power governor's reconfigure command)
/// preserve the whole determinism story: a scripted schedule of
/// switches interleaved with chunked ingestion produces byte-identical
/// payloads, bit-identical counters and bit-identical energy reports
/// on the fleet and on bare `CardiacMonitor`s switched at the same
/// frame boundaries.
#[test]
fn mode_switching_churn_matches_sequential_and_bare_monitors() {
    const ROUNDS: usize = 10;
    let chunk = 300; // 1.2 s per round
    let inputs: Vec<_> = (0..N_SESSIONS).map(session_input).collect();
    // Scripted switch plan: (round, session, mode) — covers level
    // changes, lead shedding and re-powering, and a no-op switch.
    let plan: &[(usize, usize, OperatingMode)] = &[
        (2, 0, OperatingMode::new(ProcessingLevel::Delineated, 3)),
        (2, 3, OperatingMode::new(ProcessingLevel::Classified, 1)),
        (
            4,
            1,
            OperatingMode::new(ProcessingLevel::CompressedSingleLead, 2),
        ),
        (5, 3, OperatingMode::new(ProcessingLevel::Delineated, 3)),
        (6, 0, OperatingMode::new(ProcessingLevel::Delineated, 3)), // no-op
        (7, 2, OperatingMode::new(ProcessingLevel::RawStreaming, 1)),
        (8, 1, OperatingMode::new(ProcessingLevel::Classified, 3)),
    ];

    // Bare-monitor reference: the same frames and the same switch
    // boundaries, no fleet involved.
    let mut reference = Vec::new();
    for (s, (buf, n)) in inputs.iter().enumerate() {
        let mut m = builder_for(s).build().unwrap();
        let mut payloads = Vec::new();
        for round in 0..ROUNDS {
            for &(r, sess, mode) in plan {
                if r == round && sess == s {
                    payloads.extend(m.switch_mode(mode).unwrap());
                }
            }
            let offset = round * chunk;
            if offset >= *n {
                continue;
            }
            let take = chunk.min(n - offset);
            payloads.extend(
                m.push_block(&buf[offset * 3..(offset + take) * 3], take)
                    .unwrap(),
            );
        }
        payloads.extend(m.flush().unwrap());
        reference.push((payload_bytes(&payloads), m.counters(), m.energy_report()));
    }

    let mut fleet = NodeFleet::new();
    let ids: Vec<_> = (0..N_SESSIONS)
        .map(|s| fleet.add_session(builder_for(s)).unwrap())
        .collect();
    let mut outputs = vec![Vec::new(); N_SESSIONS];
    for round in 0..ROUNDS {
        for &(r, sess, mode) in plan {
            if r == round {
                outputs[sess].extend(fleet.switch_mode(ids[sess], mode).unwrap());
            }
        }
        let mut batch: Vec<(SessionId, &[i32])> = Vec::new();
        let mut batch_sessions = Vec::new();
        let offset = round * chunk;
        for (s, (buf, n)) in inputs.iter().enumerate() {
            if offset >= *n {
                continue;
            }
            let take = chunk.min(n - offset);
            batch.push((ids[s], &buf[offset * 3..(offset + take) * 3]));
            batch_sessions.push(s);
        }
        for (entry, s) in fleet
            .ingest_batch(&batch)
            .unwrap()
            .into_iter()
            .zip(batch_sessions)
        {
            outputs[s].extend(entry.1);
        }
    }
    for (id, tail) in fleet.flush_all().unwrap() {
        let idx = ids.iter().position(|&i| i == id).unwrap();
        outputs[idx].extend(tail);
    }

    let energy = fleet.session_energy_reports();
    for (s, (ref_bytes, _, ref_energy)) in reference.iter().enumerate() {
        assert_eq!(
            &payload_bytes(&outputs[s]),
            ref_bytes,
            "session {s} diverged from its switched bare-monitor reference"
        );
        assert_eq!(&energy[s].1, ref_energy, "session {s} energy diverged");
    }
    let ref_counter_sum = reference
        .iter()
        .fold(ActivityCounters::default(), |acc, (_, c, _)| acc.merged(c));
    assert_eq!(fleet.aggregate_counters(), ref_counter_sum);
}

#[test]
fn removed_sessions_do_not_disturb_the_rest() {
    let mut fleet = NodeFleet::new();
    let ids: Vec<_> = (0..3)
        .map(|_| fleet.add_session(MonitorBuilder::new()).unwrap())
        .collect();
    let (buf, n) = session_input(0);
    fleet.push_block(ids[1], &buf, n).unwrap();
    // Remove a neighbour mid-stream.
    assert!(fleet.remove_session(ids[0]).is_some());
    let survivor = fleet.session(ids[1]).unwrap().counters();
    let mut reference = MonitorBuilder::new().build().unwrap();
    reference.push_block(&buf, n).unwrap();
    assert_eq!(survivor, reference.counters());
}
