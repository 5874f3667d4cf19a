//! The composable pipeline-stage API.
//!
//! The paper's abstraction ladder (raw → CS → delineated → classified)
//! is modelled as pluggable processing blocks behind one streaming
//! interface, mirroring how related silicon (ECG-on-chip compressors,
//! ferroelectric-MCU chestbelts) exposes its pipeline as hardware
//! blocks on a bus. Each block implements [`PipelineStage`]:
//!
//! * [`RawForwarder`] — pack every sample and forward it.
//! * [`CsStage`] — window each lead and run the integer CS encoder.
//! * [`DelineationStage`] — RMS-combine the leads, run the streaming
//!   QRS + wavelet delineator, emit fiducial batches.
//! * [`ClassifyStage`] — delineate, classify each beat by random
//!   projection + fuzzy rules, slide the AF detector, emit periodic
//!   event summaries (plus an immediate payload when an AF episode
//!   starts).
//!
//! Stages emit into a [`PayloadSink`], which tracks exact on-air byte
//! counts as payloads are produced, and report their work through
//! [`ActivityCounters`] so the energy model can price them afterwards.
//! The engine ([`crate::CardiacMonitor`]) only orchestrates: new
//! workloads (PPG fusion, new codecs) plug in by implementing this
//! trait, without touching the engine.

use crate::payload::Payload;
use crate::{Result, WbsnError};
use wbsn_classify::af::{AfBeat, AfConfig, AfDetector};
use wbsn_classify::features::{BeatFeatureExtractor, FeatureConfig};
use wbsn_classify::fuzzy::FuzzyClassifier;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::measurements_for_cr;
use wbsn_delineation::realtime::{StreamingConfig, StreamingDelineator};
use wbsn_delineation::BeatFiducials;
use wbsn_sigproc::combine::RmsCombiner;

/// Per-stage activity counters accumulated while processing; the raw
/// material of the energy report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActivityCounters {
    /// Samples acquired (per-lead samples summed).
    pub samples_in: u64,
    /// Seconds of signal processed.
    pub seconds: f64,
    /// Payload bytes produced.
    pub payload_bytes: u64,
    /// Payloads produced (radio bursts).
    pub payloads: u64,
    /// CS windows encoded.
    pub cs_windows: u64,
    /// Integer additions spent in CS encoding.
    pub cs_adds: u64,
    /// Beats delineated.
    pub beats: u64,
    /// Beats classified.
    pub classified_beats: u64,
    /// AF windows evaluated.
    pub af_windows: u64,
}

impl ActivityCounters {
    /// Element-wise difference `self − earlier` (saturating), the
    /// activity of the interval between two snapshots of one session —
    /// the per-epoch accounting input of the
    /// [governor](crate::governor).
    ///
    /// `af_windows` is special: the classify stage reports it as a
    /// *gauge* (windows currently under sliding analysis, which drops
    /// when the beat buffer drains), not a monotone counter, so the
    /// delta carries the later snapshot instead of a subtraction —
    /// subtracting two gauge readings would report zero AF work for
    /// every epoch after the first buffer drain.
    #[must_use]
    pub fn delta(&self, earlier: &ActivityCounters) -> ActivityCounters {
        ActivityCounters {
            samples_in: self.samples_in.saturating_sub(earlier.samples_in),
            seconds: (self.seconds - earlier.seconds).max(0.0),
            payload_bytes: self.payload_bytes.saturating_sub(earlier.payload_bytes),
            payloads: self.payloads.saturating_sub(earlier.payloads),
            cs_windows: self.cs_windows.saturating_sub(earlier.cs_windows),
            cs_adds: self.cs_adds.saturating_sub(earlier.cs_adds),
            beats: self.beats.saturating_sub(earlier.beats),
            classified_beats: self
                .classified_beats
                .saturating_sub(earlier.classified_beats),
            af_windows: self.af_windows,
        }
    }

    /// Element-wise sum (a monitor folds its retired stages' counters
    /// in with it; `seconds` adds too).
    #[must_use]
    pub fn merged(&self, other: &ActivityCounters) -> ActivityCounters {
        ActivityCounters {
            samples_in: self.samples_in + other.samples_in,
            seconds: self.seconds + other.seconds,
            payload_bytes: self.payload_bytes + other.payload_bytes,
            payloads: self.payloads + other.payloads,
            cs_windows: self.cs_windows + other.cs_windows,
            cs_adds: self.cs_adds + other.cs_adds,
            beats: self.beats + other.beats,
            classified_beats: self.classified_beats + other.classified_beats,
            af_windows: self.af_windows + other.af_windows,
        }
    }
}

/// Collects the payloads a stage emits and accounts their exact on-air
/// size as they are produced.
///
/// The sink is owned by the engine and reused across pushes, so the
/// batched ingestion path allocates nothing per frame in the steady
/// state.
#[derive(Debug, Default)]
pub struct PayloadSink {
    ready: Vec<Payload>,
    total_bytes: u64,
    total_payloads: u64,
}

impl PayloadSink {
    /// New empty sink.
    pub fn new() -> Self {
        PayloadSink::default()
    }

    /// Hands one payload to the radio queue.
    pub fn emit(&mut self, payload: Payload) {
        self.total_bytes += payload.byte_len() as u64;
        self.total_payloads += 1;
        self.ready.push(payload);
    }

    /// Payloads emitted but not yet drained.
    pub fn pending(&self) -> &[Payload] {
        &self.ready
    }

    /// Moves the pending payloads out; cumulative byte/payload counts
    /// are unaffected.
    pub fn drain(&mut self) -> Vec<Payload> {
        core::mem::take(&mut self.ready)
    }

    /// Total bytes emitted over the sink's lifetime.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total payloads emitted over the sink's lifetime.
    pub fn total_payloads(&self) -> u64 {
        self.total_payloads
    }
}

/// One block of the on-node processing pipeline.
///
/// A stage consumes one multi-lead frame at a time (one simultaneous
/// sample per lead) and emits whatever payloads become ready into the
/// sink. Implementations must be deterministic: the same frame
/// sequence must produce the same payload bytes.
pub trait PipelineStage: core::fmt::Debug + Send {
    /// Stage name for diagnostics and reports.
    fn name(&self) -> &'static str;

    /// Consumes one frame (`frame.len()` == configured lead count; the
    /// engine validates before dispatch).
    ///
    /// # Errors
    ///
    /// Stage-specific processing failures.
    fn push_frame(&mut self, frame: &[i32], sink: &mut PayloadSink) -> Result<()>;

    /// Consumes a block of interleaved frames
    /// (`frames[i * n_leads + l]` is lead `l` of frame `i`;
    /// `frames.len()` is an exact multiple of `n_leads` — the engine
    /// validates before dispatch) in one call.
    ///
    /// Must emit byte-identical payloads and identical counters to
    /// pushing the frames one at a time — the monitor equivalence
    /// tests pin this for every stage. The default implementation is
    /// the per-frame loop; stages override it with block kernels so
    /// steady-state ingestion performs no per-frame trait dispatch and
    /// no per-frame heap allocation.
    ///
    /// # Errors
    ///
    /// Stage-specific processing failures.
    fn process_block(
        &mut self,
        frames: &[i32],
        n_leads: usize,
        sink: &mut PayloadSink,
    ) -> Result<()> {
        for frame in frames.chunks_exact(n_leads) {
            self.push_frame(frame, sink)?;
        }
        Ok(())
    }

    /// Emits any buffered partial state (end of session).
    ///
    /// # Errors
    ///
    /// Stage-specific processing failures.
    fn flush(&mut self, sink: &mut PayloadSink) -> Result<()>;

    /// Stage-specific work performed so far (the engine fills in the
    /// frame/byte totals it tracks itself).
    fn activity(&self) -> ActivityCounters;

    /// Renegotiates the stage's CS compression ratio **in place**,
    /// preserving buffered samples and the window sequence counter —
    /// the [`crate::link::DirectiveAction::SetCr`] application path.
    /// Returns `Ok(true)` when the stage compresses and applied the
    /// change, `Ok(false)` when the ratio does not apply to this
    /// stage (nothing happens). The default is the latter.
    ///
    /// # Errors
    ///
    /// Stage-specific validation/construction failures; the stage
    /// must be unchanged on error.
    fn renegotiate_cs_cr(&mut self, _cr_percent: f64) -> Result<bool> {
        Ok(false)
    }
}

fn check_leads(n_leads: usize) -> Result<()> {
    if n_leads == 0 {
        return Err(WbsnError::InvalidParameter {
            what: "n_leads",
            detail: "must be at least 1".into(),
        });
    }
    if n_leads > 255 {
        return Err(WbsnError::InvalidParameter {
            what: "n_leads",
            detail: format!("{n_leads} exceeds the payload lead-index range (255)"),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Raw forwarding
// ---------------------------------------------------------------------------

/// Packs every sample and forwards it — the unsustainable baseline the
/// paper's Figure 1 starts from.
#[derive(Debug)]
pub struct RawForwarder {
    chunk_len: usize,
    buffers: Vec<Vec<i16>>,
}

impl RawForwarder {
    /// Forwards `n_leads` leads in chunks of `chunk_len` samples
    /// (typically one second worth).
    ///
    /// # Errors
    ///
    /// Rejects zero leads or a zero chunk length.
    pub fn new(n_leads: usize, chunk_len: usize) -> Result<Self> {
        check_leads(n_leads)?;
        if chunk_len == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "chunk_len",
                detail: "must be at least 1".into(),
            });
        }
        Ok(RawForwarder {
            chunk_len,
            buffers: vec![Vec::with_capacity(chunk_len); n_leads],
        })
    }
}

impl PipelineStage for RawForwarder {
    fn name(&self) -> &'static str {
        "raw-forwarder"
    }

    fn push_frame(&mut self, frame: &[i32], sink: &mut PayloadSink) -> Result<()> {
        for (lead, &s) in frame.iter().enumerate() {
            self.buffers[lead].push(s.clamp(-2048, 2047) as i16);
            if self.buffers[lead].len() >= self.chunk_len {
                sink.emit(Payload::RawChunk {
                    lead: lead as u8,
                    samples: core::mem::take(&mut self.buffers[lead]),
                });
            }
        }
        Ok(())
    }

    fn process_block(
        &mut self,
        frames: &[i32],
        n_leads: usize,
        sink: &mut PayloadSink,
    ) -> Result<()> {
        // All per-lead buffers fill in lockstep (one sample per lead
        // per frame), so sub-blocks can run to each chunk boundary and
        // emit lead-by-lead exactly as the per-frame path does.
        let mut rest = frames;
        while !rest.is_empty() {
            let take = (self.chunk_len - self.buffers[0].len()).min(rest.len() / n_leads);
            let (sub, tail) = rest.split_at(take * n_leads);
            rest = tail;
            for (lead, buf) in self.buffers.iter_mut().enumerate() {
                buf.extend(
                    sub[lead..]
                        .iter()
                        .step_by(n_leads)
                        .map(|&s| s.clamp(-2048, 2047) as i16),
                );
            }
            if self.buffers[0].len() >= self.chunk_len {
                for (lead, buf) in self.buffers.iter_mut().enumerate() {
                    sink.emit(Payload::RawChunk {
                        lead: lead as u8,
                        samples: core::mem::take(buf),
                    });
                }
            }
        }
        Ok(())
    }

    fn flush(&mut self, sink: &mut PayloadSink) -> Result<()> {
        for (lead, buf) in self.buffers.iter_mut().enumerate() {
            if !buf.is_empty() {
                sink.emit(Payload::RawChunk {
                    lead: lead as u8,
                    samples: core::mem::take(buf),
                });
            }
        }
        Ok(())
    }

    fn activity(&self) -> ActivityCounters {
        ActivityCounters::default()
    }
}

// ---------------------------------------------------------------------------
// Compressed sensing
// ---------------------------------------------------------------------------

/// Windows each lead and runs the integer CS encoder (`y = Φx`, Φ
/// ternary and column-sparse, additions only).
#[derive(Debug)]
pub struct CsStage {
    window: usize,
    // Kept so a mid-stream CR renegotiation can rebuild the encoders
    // with the same geometry and seed derivation.
    d_per_col: usize,
    seed: u64,
    encoders: Vec<CsEncoder>,
    buffers: Vec<Vec<i32>>,
    // Reused measurement buffer shared by every lead's encode, so the
    // steady-state path performs no per-window allocation beyond the
    // emitted payload itself.
    y_scratch: Vec<i64>,
    window_seq: u32,
    cs_windows: u64,
    cs_adds: u64,
}

impl CsStage {
    /// Per-lead encoders over `window`-sample windows at the given
    /// compression ratio (percent), sensing density and matrix seed.
    ///
    /// # Errors
    ///
    /// Propagates encoder construction failures (non-dyadic window,
    /// invalid density, …).
    pub fn new(
        n_leads: usize,
        window: usize,
        cr_percent: f64,
        d_per_col: usize,
        seed: u64,
    ) -> Result<Self> {
        check_leads(n_leads)?;
        if !window.is_power_of_two() {
            return Err(WbsnError::InvalidParameter {
                what: "cs_window",
                detail: format!("{window} is not a power of two"),
            });
        }
        if !(0.0..100.0).contains(&cr_percent) {
            return Err(WbsnError::InvalidParameter {
                what: "cs_cr_percent",
                detail: format!("{cr_percent} outside [0, 100)"),
            });
        }
        let m = measurements_for_cr(window, cr_percent);
        // Lead l senses with the matrix seeded by the shared
        // derivation rule (`CsEncoder::for_lead`), so the gateway can
        // regenerate the exact same Φ from the session handshake.
        let encoders = (0..n_leads)
            .map(|l| CsEncoder::for_lead(window, m, d_per_col, seed, l as u8))
            .collect::<core::result::Result<Vec<_>, _>>()?;
        Ok(CsStage {
            window,
            d_per_col,
            seed,
            encoders,
            buffers: vec![Vec::with_capacity(window); n_leads],
            y_scratch: Vec::with_capacity(m),
            window_seq: 0,
            cs_windows: 0,
            cs_adds: 0,
        })
    }

    /// Encodes and emits one full window per lead (the buffers fill in
    /// lockstep), clearing the buffers for the next window. Shared by
    /// the per-frame and block paths so their payloads are identical.
    /// Construction keeps the buffers at the encoders' window length,
    /// so the encoder's shape error cannot arise.
    fn emit_full_windows(&mut self, sink: &mut PayloadSink) -> Result<()> {
        for (lead, (buf, enc)) in self.buffers.iter_mut().zip(&self.encoders).enumerate() {
            enc.encode_into(buf, &mut self.y_scratch)?;
            buf.clear();
            self.cs_windows += 1;
            self.cs_adds += enc.adds_per_window() as u64;
            sink.emit(Payload::CsWindow {
                lead: lead as u8,
                window_seq: self.window_seq,
                measurements: self
                    .y_scratch
                    .iter()
                    .map(|&v| v.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
                    .collect(),
            });
        }
        self.window_seq += 1;
        Ok(())
    }
}

impl PipelineStage for CsStage {
    fn name(&self) -> &'static str {
        "cs-encoder"
    }

    fn renegotiate_cs_cr(&mut self, cr_percent: f64) -> Result<bool> {
        if !(0.0..100.0).contains(&cr_percent) {
            return Err(WbsnError::InvalidParameter {
                what: "cs_cr_percent",
                detail: format!("{cr_percent} outside [0, 100)"),
            });
        }
        let m = measurements_for_cr(self.window, cr_percent);
        // Build every new encoder before touching the stage, so a
        // failing construction leaves the old ratio running. The
        // window length is unchanged, so partially filled buffers stay
        // valid — Φ is only applied at emission — and `window_seq`
        // continues uninterrupted: the switch is invisible except for
        // the measurement count of subsequent windows.
        let encoders = (0..self.encoders.len())
            .map(|l| CsEncoder::for_lead(self.window, m, self.d_per_col, self.seed, l as u8))
            .collect::<core::result::Result<Vec<_>, _>>()?;
        self.encoders = encoders;
        if self.y_scratch.capacity() < m {
            self.y_scratch.reserve(m - self.y_scratch.capacity());
        }
        Ok(true)
    }

    fn push_frame(&mut self, frame: &[i32], sink: &mut PayloadSink) -> Result<()> {
        for (lead, &s) in frame.iter().enumerate() {
            self.buffers[lead].push(s);
        }
        if self.buffers[0].len() >= self.window {
            self.emit_full_windows(sink)?;
        }
        Ok(())
    }

    fn process_block(
        &mut self,
        frames: &[i32],
        n_leads: usize,
        sink: &mut PayloadSink,
    ) -> Result<()> {
        // Deinterleave straight into the per-lead window buffers in
        // window-sized gulps; the buffers fill in lockstep, so each
        // gulp either tops up a partial window or completes one.
        let mut rest = frames;
        while !rest.is_empty() {
            let take = (self.window - self.buffers[0].len()).min(rest.len() / n_leads);
            let (sub, tail) = rest.split_at(take * n_leads);
            rest = tail;
            for (lead, buf) in self.buffers.iter_mut().enumerate() {
                buf.extend(sub[lead..].iter().step_by(n_leads));
            }
            if self.buffers[0].len() >= self.window {
                self.emit_full_windows(sink)?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, _sink: &mut PayloadSink) -> Result<()> {
        // A partial window cannot be reconstructed; it is dropped, as
        // node firmware would drop a torn window on shutdown.
        Ok(())
    }

    fn activity(&self) -> ActivityCounters {
        ActivityCounters {
            cs_windows: self.cs_windows,
            cs_adds: self.cs_adds,
            ..ActivityCounters::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Delineation
// ---------------------------------------------------------------------------

/// RMS-combines the leads, runs the streaming QRS + wavelet
/// delineator, and batches fiducials into `Beats` payloads.
#[derive(Debug)]
pub struct DelineationStage {
    combiner: RmsCombiner,
    delineator: StreamingDelineator,
    queue: Vec<BeatFiducials>,
    // Reused block buffers (RMS-combined samples, beats emitted by the
    // delineator per block), so the block path allocates nothing per
    // frame.
    combined_scratch: Vec<i32>,
    beat_scratch: Vec<BeatFiducials>,
    beats_per_payload: usize,
    beats: u64,
}

impl DelineationStage {
    /// Streaming delineator over `n_leads` leads at `fs_hz`, emitting
    /// one payload per `beats_per_payload` beats.
    ///
    /// # Errors
    ///
    /// Propagates combiner/delineator construction failures.
    pub fn new(n_leads: usize, fs_hz: u32, beats_per_payload: usize) -> Result<Self> {
        check_leads(n_leads)?;
        if beats_per_payload == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "beats_per_payload",
                detail: "must be at least 1".into(),
            });
        }
        Ok(DelineationStage {
            combiner: RmsCombiner::new(n_leads)?,
            delineator: StreamingDelineator::new(StreamingConfig {
                fs_hz,
                ..StreamingConfig::default()
            })?,
            queue: Vec::new(),
            combined_scratch: Vec::new(),
            beat_scratch: Vec::new(),
            beats_per_payload,
            beats: 0,
        })
    }

    /// Queues one delineated beat and emits a `Beats` payload when the
    /// batch is full. Shared by the per-frame and block paths.
    #[inline]
    fn enqueue_beat(&mut self, beat: BeatFiducials, sink: &mut PayloadSink) {
        self.beats += 1;
        self.queue.push(beat);
        if self.queue.len() >= self.beats_per_payload {
            sink.emit(Payload::Beats {
                beats: core::mem::take(&mut self.queue),
            });
        }
    }
}

impl PipelineStage for DelineationStage {
    fn name(&self) -> &'static str {
        "delineation"
    }

    fn push_frame(&mut self, frame: &[i32], sink: &mut PayloadSink) -> Result<()> {
        let combined = self.combiner.push(frame);
        if let Some(beat) = self.delineator.push(combined) {
            self.enqueue_beat(beat, sink);
        }
        Ok(())
    }

    fn process_block(
        &mut self,
        frames: &[i32],
        _n_leads: usize,
        sink: &mut PayloadSink,
    ) -> Result<()> {
        // RMS-combine the whole block in one sweep (one shape check,
        // vectorizable squares), then run the delineator's block form
        // over the combined buffer and queue whatever beats came out.
        let mut combined = core::mem::take(&mut self.combined_scratch);
        let mut beats = core::mem::take(&mut self.beat_scratch);
        self.combiner.combine_block_into(frames, &mut combined);
        beats.clear();
        self.delineator.push_block(&combined, &mut beats);
        for beat in beats.drain(..) {
            self.enqueue_beat(beat, sink);
        }
        self.combined_scratch = combined;
        self.beat_scratch = beats;
        Ok(())
    }

    fn flush(&mut self, sink: &mut PayloadSink) -> Result<()> {
        let tail = self.delineator.flush();
        self.beats += tail.len() as u64;
        self.queue.extend(tail);
        if !self.queue.is_empty() {
            sink.emit(Payload::Beats {
                beats: core::mem::take(&mut self.queue),
            });
        }
        Ok(())
    }

    fn activity(&self) -> ActivityCounters {
        ActivityCounters {
            beats: self.beats,
            ..ActivityCounters::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// Delineates, classifies each beat (random projection + PWL fuzzy
/// memberships), tracks AF episodes, and transmits periodic event
/// summaries — the top of the abstraction ladder.
#[derive(Debug)]
pub struct ClassifyStage {
    fs_hz: u32,
    event_interval_s: f64,
    classifier: Option<FuzzyClassifier>,
    combiner: RmsCombiner,
    delineator: StreamingDelineator,
    features: BeatFeatureExtractor,
    af: AfDetector,
    af_beats: Vec<AfBeat>,
    ring: Vec<i32>,
    // Write cursor into `ring` (== n_pushed % ring.len(), maintained
    // incrementally so the per-sample path never takes a modulo).
    ring_pos: usize,
    // Scratch for materializing one beat window out of the ring;
    // reused across beats so the steady-state path never allocates.
    beat_scratch: Vec<i32>,
    // Reused block buffer for the RMS-combined samples.
    combined_scratch: Vec<i32>,
    n_pushed: usize,
    last_beat_r: Option<usize>,
    af_active: bool,
    event_class_counts: [u32; 4],
    event_beats: u32,
    event_rr_sum_s: f64,
    last_event_at: f64,
    beats: u64,
    classified_beats: u64,
    af_windows: u64,
}

impl ClassifyStage {
    /// Classified-level pipeline over `n_leads` leads at `fs_hz`,
    /// summarizing every `event_interval_s` seconds. Without a trained
    /// classifier, beats are counted as class 0.
    ///
    /// # Errors
    ///
    /// Propagates construction failures of the underlying components.
    pub fn new(
        n_leads: usize,
        fs_hz: u32,
        event_interval_s: f64,
        classifier: Option<FuzzyClassifier>,
    ) -> Result<Self> {
        check_leads(n_leads)?;
        if !event_interval_s.is_finite() || event_interval_s <= 0.0 {
            return Err(WbsnError::InvalidParameter {
                what: "event_interval_s",
                detail: format!("{event_interval_s} must be positive"),
            });
        }
        Ok(ClassifyStage {
            fs_hz,
            event_interval_s,
            classifier,
            combiner: RmsCombiner::new(n_leads)?,
            delineator: StreamingDelineator::new(StreamingConfig {
                fs_hz,
                ..StreamingConfig::default()
            })?,
            features: BeatFeatureExtractor::new(FeatureConfig {
                fs_hz,
                ..FeatureConfig::default()
            })?,
            af: AfDetector::new(AfConfig {
                fs_hz,
                ..AfConfig::default()
            })?,
            af_beats: Vec::new(),
            ring: vec![0; fs_hz as usize * 3],
            ring_pos: 0,
            beat_scratch: Vec::new(),
            combined_scratch: Vec::new(),
            n_pushed: 0,
            last_beat_r: None,
            af_active: false,
            event_class_counts: [0; 4],
            event_beats: 0,
            event_rr_sum_s: 0.0,
            last_event_at: 0.0,
            beats: 0,
            classified_beats: 0,
            af_windows: 0,
        })
    }

    /// Classifies one beat and updates AF tracking; returns true when
    /// an AF episode just started (alert condition).
    fn handle_beat(&mut self, beat: BeatFiducials) -> bool {
        let ring_len = self.ring.len();
        let r = beat.r_peak;
        let class = if let Some(clf) = &self.classifier {
            let fc = self.features.config();
            let oldest = self.n_pushed.saturating_sub(ring_len);
            if r >= fc.pre_samples + oldest && r + fc.post_samples <= self.n_pushed {
                // Materialize the beat window from the ring into the
                // reusable scratch buffer.
                let lo = r - fc.pre_samples;
                let hi = r + fc.post_samples;
                self.beat_scratch.clear();
                self.beat_scratch
                    .extend((lo..hi).map(|i| self.ring[i % ring_len]));
                let rr_prev = self
                    .last_beat_r
                    .map(|p| r.saturating_sub(p))
                    .unwrap_or((0.8 * self.fs_hz as f64) as usize);
                // Streaming node has no rr_next yet; reuse rr_prev.
                self.classified_beats += 1;
                self.features
                    .extract(&self.beat_scratch, fc.pre_samples, rr_prev, rr_prev)
                    .map(|f| clf.predict(&f))
                    .unwrap_or(0)
            } else {
                0
            }
        } else {
            0
        };
        self.event_class_counts[class.min(3)] += 1;
        self.event_beats += 1;
        if let Some(prev) = self.last_beat_r {
            if r > prev {
                self.event_rr_sum_s += (r - prev) as f64 / self.fs_hz as f64;
            }
        }
        self.last_beat_r = Some(r);
        // AF tracking.
        self.af_beats.push(AfBeat {
            r_sample: r,
            has_p: beat.has_p(),
        });
        if self.af_beats.len() > 512 {
            self.af_beats.drain(..256);
        }
        let windows = self.af.analyze(&self.af_beats);
        self.af_windows = windows.len() as u64;
        let now_active = windows.last().map(|w| w.is_af).unwrap_or(false);
        let started = now_active && !self.af_active;
        self.af_active = now_active;
        started
    }

    fn emit_events(&mut self) -> Payload {
        let n = self.event_beats.max(1);
        let mean_rr = self.event_rr_sum_s / n as f64;
        let mean_hr_x10 = if mean_rr > 0.0 {
            (600.0 / mean_rr) as u16
        } else {
            0
        };
        let windows = self.af.analyze(&self.af_beats);
        let burden = AfDetector::af_burden(&windows);
        let p = Payload::Events {
            n_beats: self.event_beats,
            class_counts: self.event_class_counts,
            mean_hr_x10,
            af_burden_pct: (burden * 100.0) as u8,
            af_active: self.af_active,
        };
        self.event_class_counts = [0; 4];
        self.event_beats = 0;
        self.event_rr_sum_s = 0.0;
        self.last_event_at = self.n_pushed as f64 / self.fs_hz as f64;
        p
    }

    /// Advances the pipeline by one combined sample: ring bookkeeping,
    /// delineation, beat handling, periodic event emission. Shared by
    /// the per-frame and block paths.
    #[inline]
    fn step(&mut self, combined: i32, sink: &mut PayloadSink) {
        self.ring[self.ring_pos] = combined;
        self.ring_pos += 1;
        if self.ring_pos == self.ring.len() {
            self.ring_pos = 0;
        }
        if let Some(beat) = self.delineator.push(combined) {
            self.beats += 1;
            if self.handle_beat(beat) {
                let events = self.emit_events();
                sink.emit(events);
            }
        }
        let t = self.n_pushed as f64 / self.fs_hz as f64;
        if t - self.last_event_at >= self.event_interval_s && self.event_beats > 0 {
            let events = self.emit_events();
            sink.emit(events);
        }
        self.n_pushed += 1;
    }
}

impl PipelineStage for ClassifyStage {
    fn name(&self) -> &'static str {
        "classify"
    }

    fn push_frame(&mut self, frame: &[i32], sink: &mut PayloadSink) -> Result<()> {
        let combined = self.combiner.push(frame);
        self.step(combined, sink);
        Ok(())
    }

    fn process_block(
        &mut self,
        frames: &[i32],
        _n_leads: usize,
        sink: &mut PayloadSink,
    ) -> Result<()> {
        let mut combined = core::mem::take(&mut self.combined_scratch);
        self.combiner.combine_block_into(frames, &mut combined);
        for &c in &combined {
            self.step(c, sink);
        }
        self.combined_scratch = combined;
        Ok(())
    }

    fn flush(&mut self, sink: &mut PayloadSink) -> Result<()> {
        for beat in self.delineator.flush() {
            self.beats += 1;
            self.handle_beat(beat);
        }
        let events = self.emit_events();
        sink.emit(events);
        Ok(())
    }

    fn activity(&self) -> ActivityCounters {
        ActivityCounters {
            beats: self.beats,
            classified_beats: self.classified_beats,
            af_windows: self.af_windows,
            ..ActivityCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_tracks_cumulative_bytes_across_drains() {
        let mut sink = PayloadSink::new();
        let p = Payload::Events {
            n_beats: 1,
            class_counts: [1, 0, 0, 0],
            mean_hr_x10: 700,
            af_burden_pct: 0,
            af_active: false,
        };
        let each = p.byte_len() as u64;
        sink.emit(p.clone());
        let first = sink.drain();
        assert_eq!(first.len(), 1);
        assert!(sink.pending().is_empty());
        sink.emit(p);
        assert_eq!(sink.total_payloads(), 2);
        assert_eq!(sink.total_bytes(), 2 * each);
    }

    #[test]
    fn raw_forwarder_chunks_and_flushes() {
        let mut stage = RawForwarder::new(2, 4).unwrap();
        let mut sink = PayloadSink::new();
        for i in 0..6 {
            stage.push_frame(&[i, -i], &mut sink).unwrap();
        }
        // 4 full frames -> one chunk per lead; 2 leftover frames flush.
        assert_eq!(sink.drain().len(), 2);
        stage.flush(&mut sink).unwrap();
        let tail = sink.drain();
        assert_eq!(tail.len(), 2);
        let Payload::RawChunk { samples, .. } = &tail[0] else {
            panic!("wrong payload");
        };
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn cs_stage_emits_one_window_per_lead() {
        let mut stage = CsStage::new(3, 64, 50.0, 4, 1).unwrap();
        let mut sink = PayloadSink::new();
        for i in 0..64 {
            stage.push_frame(&[i, i + 1, i + 2], &mut sink).unwrap();
        }
        let out = sink.drain();
        assert_eq!(out.len(), 3);
        let a = stage.activity();
        assert_eq!(a.cs_windows, 3);
        assert!(a.cs_adds > 0);
    }

    #[test]
    fn constructors_validate() {
        assert!(RawForwarder::new(0, 10).is_err());
        assert!(RawForwarder::new(1, 0).is_err());
        assert!(DelineationStage::new(3, 250, 0).is_err());
        assert!(ClassifyStage::new(3, 250, 0.0, None).is_err());
        assert!(CsStage::new(300, 512, 50.0, 4, 0).is_err()); // > 255 leads
                                                              // Direct stage construction enforces the CS invariants too —
                                                              // plugging stages in without the builder must stay safe.
        assert!(CsStage::new(3, 500, 50.0, 4, 0).is_err()); // non-dyadic
        assert!(CsStage::new(3, 512, 150.0, 4, 0).is_err()); // CR out of range
        assert!(CsStage::new(3, 512, -50.0, 4, 0).is_err());
    }
}
