//! In-memory span recorder for the traced run.
//!
//! Every span wraps exactly one call from the benchmark into one layer
//! of the program, so spans never nest and a span's self time is its
//! whole duration. Spans are kept in memory while the pass runs and
//! are only folded into per-layer figures once it is over.

use std::time::Instant;

/// The layers the traced run attributes time to, named after the
/// modules whose public functions each span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Script::record` and `Record::interleaved_frames`.
    EcgSynth,
    /// `GovernedMonitor::{push_block, apply_directive, finish}`.
    CoreMonitor,
    /// `Uplink::{open_session, frame_one, announce_handshake}` and
    /// `DownlinkFrame::from_wire`.
    CoreLink,
    /// `RetransmitBuffer::{record, tick, on_frame}` and
    /// `DirectiveHandler::accept`.
    CoreRetransmit,
    /// `LossyChannel::{send, send_all}` on both link directions.
    GatewayChannel,
    /// `ShardedGateway::ingest_batch`.
    GatewayIngest,
    /// `ShardedGateway::pump_downlink`.
    GatewayDownlink,
    /// The remaining `ShardedGateway` calls of the control thread.
    GatewayControl,
    /// `ArchiveWriter` calls.
    ArchiveWrite,
    /// `CohortReplayer::from_bytes`.
    ArchiveRead,
    /// `CohortReplayer::report`.
    ReplayReport,
    /// `CohortReplayer::solver_replay_archived`.
    ReplaySolver,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::EcgSynth,
        Layer::CoreMonitor,
        Layer::CoreLink,
        Layer::CoreRetransmit,
        Layer::GatewayChannel,
        Layer::GatewayIngest,
        Layer::GatewayDownlink,
        Layer::GatewayControl,
        Layer::ArchiveWrite,
        Layer::ArchiveRead,
        Layer::ReplayReport,
        Layer::ReplaySolver,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::EcgSynth => "ecg_synth",
            Layer::CoreMonitor => "core.monitor",
            Layer::CoreLink => "core.link",
            Layer::CoreRetransmit => "core.retransmit",
            Layer::GatewayChannel => "gateway.channel",
            Layer::GatewayIngest => "gateway.ingest",
            Layer::GatewayDownlink => "gateway.downlink",
            Layer::GatewayControl => "gateway.control",
            Layer::ArchiveWrite => "archive.write",
            Layer::ArchiveRead => "archive.read",
            Layer::ReplayReport => "replay.report",
            Layer::ReplaySolver => "replay.solver",
        }
    }

    /// Whether the cohort runner executes the layer on its control
    /// thread, serially across all nodes (the gateway layers fan out
    /// to the decode workers instead).
    pub fn serial(self) -> bool {
        matches!(
            self,
            Layer::EcgSynth
                | Layer::CoreMonitor
                | Layer::CoreLink
                | Layer::CoreRetransmit
                | Layer::GatewayChannel
        )
    }
}

/// Layers with fewer calls than this report no percentiles: the 99th
/// percentile needs at least one sample beyond it.
pub const MIN_CALLS_FOR_PERCENTILES: u64 = 100;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Records one span per traced call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-layer figures folded from the recorded spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSummary {
    /// The layer.
    pub layer: Layer,
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Median span, microseconds (`None` below
    /// [`MIN_CALLS_FOR_PERCENTILES`] calls).
    pub p50_us: Option<f64>,
    /// 99th-percentile span, microseconds (same condition).
    pub p99_us: Option<f64>,
}

impl Tracer {
    /// An empty recorder; span times are relative to now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span attributed to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    /// Folds the spans into one summary per layer, in
    /// [`Layer::ALL`] order.
    pub fn summary(&self) -> Vec<LayerSummary> {
        Layer::ALL
            .iter()
            .map(|&layer| {
                let mut durations: Vec<u64> = self
                    .spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .map(|s| s.end_ns - s.start_ns)
                    .collect();
                durations.sort_unstable();
                let calls = durations.len() as u64;
                let pct = |q: f64| {
                    (calls >= MIN_CALLS_FOR_PERCENTILES)
                        .then(|| nearest_rank(&durations, q) as f64 / 1e3)
                };
                LayerSummary {
                    layer,
                    calls,
                    self_s: durations.iter().sum::<u64>() as f64 / 1e9,
                    p50_us: pct(0.50),
                    p99_us: pct(0.99),
                }
            })
            .collect()
    }
}

/// Nearest-rank quantile of an ascending, non-empty slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
