//! The session engine: one monitored subject, one pipeline.
//!
//! [`CardiacMonitor`] owns a single [`PipelineStage`] chosen from the
//! configured [`ProcessingLevel`] and orchestrates it: it validates
//! frames, feeds the stage, drains the [`PayloadSink`], and keeps the
//! session-wide [`ActivityCounters`] the energy model prices
//! afterwards. All processing logic lives in the stages
//! ([`crate::stage`]); the engine never matches on the level after
//! construction.
//!
//! Sessions are built with the validating [`MonitorBuilder`]:
//!
//! ```
//! use wbsn_core::monitor::MonitorBuilder;
//! use wbsn_core::level::ProcessingLevel;
//!
//! let mut node = MonitorBuilder::new()
//!     .level(ProcessingLevel::Classified)
//!     .n_leads(3)
//!     .fs_hz(250)
//!     .event_interval_s(10.0)
//!     .build()
//!     .unwrap();
//! assert!(node.try_push(&[0, 0, 0]).is_ok());
//! assert!(node.try_push(&[0, 0]).is_err()); // lead mismatch, no panic
//! ```

use crate::level::{OperatingMode, ProcessingLevel};
use crate::payload::Payload;
pub use crate::stage::ActivityCounters;
use crate::stage::{
    ClassifyStage, CsStage, DelineationStage, PayloadSink, PipelineStage, RawForwarder,
};
use crate::{Result, WbsnError};
use wbsn_classify::fuzzy::FuzzyClassifier;

/// Node configuration.
///
/// Prefer [`MonitorBuilder`] over struct literals: the builder
/// validates upfront and keeps call sites stable when fields grow.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sampling rate per lead, Hz.
    pub fs_hz: u32,
    /// Number of ECG leads.
    pub n_leads: usize,
    /// Processing level.
    pub level: ProcessingLevel,
    /// Acquisition leads initially powered (`None` = all `n_leads`).
    /// Frames always carry `n_leads` samples; gated leads are ignored
    /// by the pipeline and priced as unpowered by the energy model.
    /// The [power governor](crate::governor) adjusts this at runtime
    /// through [`CardiacMonitor::switch_mode`].
    pub active_leads: Option<usize>,
    /// CS window length (samples).
    pub cs_window: usize,
    /// CS compression ratio in percent.
    pub cs_cr_percent: f64,
    /// CS sensing-matrix column density.
    pub cs_d_per_col: usize,
    /// Shared matrix seed.
    pub seed: u64,
    /// Beats per transmitted `Beats` payload.
    pub beats_per_payload: usize,
    /// Seconds between `Events` payloads at the classified level.
    pub event_interval_s: f64,
    /// Optional trained beat classifier (classified level). When
    /// absent, beats are counted as class 0.
    pub classifier: Option<FuzzyClassifier>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            fs_hz: 250,
            n_leads: 3,
            level: ProcessingLevel::Delineated,
            active_leads: None,
            cs_window: 512,
            cs_cr_percent: 65.9,
            cs_d_per_col: 4,
            seed: 0xCAFE,
            beats_per_payload: 8,
            event_interval_s: 10.0,
            classifier: None,
        }
    }
}

/// Fluent, validating builder for [`CardiacMonitor`] sessions.
///
/// Invalid combinations are rejected at [`MonitorBuilder::build`]
/// time, never at ingest time:
///
/// ```
/// use wbsn_core::monitor::MonitorBuilder;
/// use wbsn_core::level::ProcessingLevel;
///
/// let monitor = MonitorBuilder::new()
///     .level(ProcessingLevel::CompressedSingleLead)
///     .n_leads(2)
///     .cs_window(256)
///     .cs_compression_ratio(60.0)
///     .build()
///     .unwrap();
/// assert_eq!(monitor.stage_name(), "cs-encoder");
///
/// // A non-dyadic CS window cannot produce a session at all.
/// assert!(MonitorBuilder::new()
///     .level(ProcessingLevel::CompressedSingleLead)
///     .cs_window(300)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonitorBuilder {
    cfg: MonitorConfig,
}

impl MonitorBuilder {
    /// Builder seeded with the paper's default operating point
    /// (3 leads at 250 Hz, delineated level).
    pub fn new() -> Self {
        MonitorBuilder::default()
    }

    /// Builder starting from an existing configuration.
    pub fn from_config(cfg: MonitorConfig) -> Self {
        MonitorBuilder { cfg }
    }

    /// Sampling rate per lead, Hz.
    #[must_use]
    pub fn fs_hz(mut self, fs_hz: u32) -> Self {
        self.cfg.fs_hz = fs_hz;
        self
    }

    /// Number of ECG leads.
    #[must_use]
    pub fn n_leads(mut self, n_leads: usize) -> Self {
        self.cfg.n_leads = n_leads;
        self
    }

    /// Processing level on the abstraction ladder.
    #[must_use]
    pub fn level(mut self, level: ProcessingLevel) -> Self {
        self.cfg.level = level;
        self
    }

    /// Acquisition leads initially powered (1 ..= `n_leads`).
    #[must_use]
    pub fn active_leads(mut self, active: usize) -> Self {
        self.cfg.active_leads = Some(active);
        self
    }

    /// CS window length in samples (dyadic).
    #[must_use]
    pub fn cs_window(mut self, samples: usize) -> Self {
        self.cfg.cs_window = samples;
        self
    }

    /// CS compression ratio in percent (0 < CR < 100).
    #[must_use]
    pub fn cs_compression_ratio(mut self, percent: f64) -> Self {
        self.cfg.cs_cr_percent = percent;
        self
    }

    /// Shared sensing-matrix seed (the decoder regenerates Φ from it).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Beats batched into each `Beats` payload.
    #[must_use]
    pub fn beats_per_payload(mut self, n: usize) -> Self {
        self.cfg.beats_per_payload = n;
        self
    }

    /// Seconds between `Events` payloads at the classified level.
    #[must_use]
    pub fn event_interval_s(mut self, seconds: f64) -> Self {
        self.cfg.event_interval_s = seconds;
        self
    }

    /// Trained beat classifier for the classified level.
    #[must_use]
    pub fn classifier(mut self, clf: FuzzyClassifier) -> Self {
        self.cfg.classifier = Some(clf);
        self
    }

    /// The configuration accumulated so far.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Validates the configuration and constructs the session.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for inconsistent configuration
    /// (zero leads, non-dyadic CS window, out-of-range CR, …), plus
    /// whatever the selected stage's components reject.
    pub fn build(self) -> Result<CardiacMonitor> {
        let cfg = self.cfg;
        if cfg.n_leads == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "n_leads",
                detail: "must be at least 1".into(),
            });
        }
        if cfg.n_leads > 255 {
            return Err(WbsnError::InvalidParameter {
                what: "n_leads",
                detail: format!("{} exceeds the payload lead-index range (255)", cfg.n_leads),
            });
        }
        if cfg.fs_hz == 0 {
            return Err(WbsnError::InvalidParameter {
                what: "fs_hz",
                detail: "must be positive".into(),
            });
        }
        let active = cfg.active_leads.unwrap_or(cfg.n_leads);
        check_active_leads(active, cfg.n_leads)?;
        let stage = build_stage(&cfg, active)?;
        Ok(CardiacMonitor {
            cfg,
            stage,
            active_leads: active,
            sink: PayloadSink::new(),
            n_frames: 0,
            samples_acquired: 0,
            retired: ActivityCounters::default(),
            interleave_scratch: Vec::new(),
            gate_scratch: Vec::new(),
        })
    }
}

fn check_active_leads(active: usize, n_leads: usize) -> Result<()> {
    if active == 0 || active > n_leads {
        return Err(WbsnError::InvalidParameter {
            what: "active_leads",
            detail: format!("{active} outside 1..={n_leads}"),
        });
    }
    Ok(())
}

/// Validates that `mode` could be constructed under `cfg` by building
/// (and discarding) its stage. The governor pre-flights every tier's
/// mode with this at session creation, so a later live switch cannot
/// fail for configuration reasons mid-stream.
pub(crate) fn validate_mode(cfg: &MonitorConfig, mode: OperatingMode) -> Result<()> {
    check_active_leads(mode.active_leads, cfg.n_leads)?;
    let mut cfg = cfg.clone();
    cfg.level = mode.level;
    build_stage(&cfg, mode.active_leads).map(|_| ())
}

/// Constructs the pipeline stage for one operating point: `level`
/// processing over the first `active` leads of every frame. Shared by
/// [`MonitorBuilder::build`] and [`CardiacMonitor::switch_mode`], so a
/// live switch installs exactly the stage a fresh session at the new
/// mode would start with.
fn build_stage(cfg: &MonitorConfig, active: usize) -> Result<Box<dyn PipelineStage>> {
    Ok(match cfg.level {
        ProcessingLevel::RawStreaming => {
            // 1 s chunks.
            Box::new(RawForwarder::new(active, cfg.fs_hz as usize)?)
        }
        ProcessingLevel::CompressedSingleLead | ProcessingLevel::CompressedMultiLead => {
            Box::new(CsStage::new(
                active,
                cfg.cs_window,
                cfg.cs_cr_percent,
                cfg.cs_d_per_col,
                cfg.seed,
            )?)
        }
        ProcessingLevel::Delineated => Box::new(DelineationStage::new(
            active,
            cfg.fs_hz,
            cfg.beats_per_payload,
        )?),
        ProcessingLevel::Classified => Box::new(ClassifyStage::new(
            active,
            cfg.fs_hz,
            cfg.event_interval_s,
            cfg.classifier.clone(),
        )?),
    })
}

/// One monitoring session: the streaming engine orchestrating a
/// [`PipelineStage`].
#[derive(Debug)]
pub struct CardiacMonitor {
    cfg: MonitorConfig,
    stage: Box<dyn PipelineStage>,
    // Leads currently powered; the stage is built over exactly this
    // many leads and every frame is gated down to them.
    active_leads: usize,
    sink: PayloadSink,
    n_frames: u64,
    // Per-lead samples actually acquired (gated leads draw no AFE/ADC
    // energy and are not counted).
    samples_acquired: u64,
    // Stage-specific activity accumulated by stages retired through
    // `switch_mode`, so session counters survive live reconfiguration.
    retired: ActivityCounters,
    // Reusable interleave buffer for `process_record`, so repeated
    // recording replays allocate nothing in the steady state.
    interleave_scratch: Vec<i32>,
    // Reusable lead-gating buffer for `push_block` when fewer leads
    // are active than the frame width carries.
    gate_scratch: Vec<i32>,
}

impl CardiacMonitor {
    /// Builds the node from a full configuration (equivalent to
    /// `MonitorBuilder::from_config(cfg).build()`).
    ///
    /// # Errors
    ///
    /// Fails when the configuration is inconsistent (zero leads,
    /// non-dyadic CS window, …).
    pub fn new(cfg: MonitorConfig) -> Result<Self> {
        MonitorBuilder::from_config(cfg).build()
    }

    /// Fluent entry point: `CardiacMonitor::builder().level(..).build()`.
    pub fn builder() -> MonitorBuilder {
        MonitorBuilder::new()
    }

    /// Configuration in use.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// The stage running in this session (diagnostics).
    pub fn stage_name(&self) -> &'static str {
        self.stage.name()
    }

    /// The operating point currently in effect (level + powered leads).
    pub fn mode(&self) -> OperatingMode {
        OperatingMode {
            level: self.cfg.level,
            active_leads: self.active_leads,
        }
    }

    /// Leads currently powered (≤ the configured frame width).
    pub fn active_leads(&self) -> usize {
        self.active_leads
    }

    /// Activity accumulated so far: engine-level frame/byte totals
    /// merged with the stage's own counters, including the activity of
    /// stages retired by [`Self::switch_mode`]. `samples_in` counts
    /// only samples from powered leads (gated leads acquire nothing).
    pub fn counters(&self) -> ActivityCounters {
        let mut c = self.stage.activity().merged(&self.retired);
        c.samples_in = self.samples_acquired;
        c.seconds = self.n_frames as f64 / self.cfg.fs_hz as f64;
        c.payload_bytes = self.sink.total_bytes();
        c.payloads = self.sink.total_payloads();
        c
    }

    /// Switches the session to a new operating mode **live**, at the
    /// boundary between the frames already pushed and the frames still
    /// to come.
    ///
    /// Boundary semantics (the determinism contract pinned by
    /// `tests/governor_properties.rs`):
    ///
    /// * Buffered partial state of the outgoing stage is **flushed,
    ///   not dropped** — queued beats, partial raw chunks and the
    ///   final event summary are emitted as payloads and returned
    ///   (torn CS windows are dropped, as on every shutdown path).
    /// * The outgoing stage's activity counters are retired into the
    ///   session totals, so [`Self::counters`] keeps accumulating
    ///   across switches.
    /// * The incoming stage starts from a clean history boundary and
    ///   is **bit-identical to a fresh monitor built at the new mode**
    ///   and fed the same post-boundary frames: every payload byte and
    ///   stage counter matches. The short delineator warm-up after a
    ///   switch is the price of that reproducibility; the governor's
    ///   dwell hysteresis amortizes it.
    ///
    /// Switching to the current mode is a no-op returning no payloads.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] when `mode.active_leads` is not
    /// in `1..=n_leads`, plus stage construction failures (in which
    /// case the session keeps its previous stage untouched).
    pub fn switch_mode(&mut self, mode: OperatingMode) -> Result<Vec<Payload>> {
        check_active_leads(mode.active_leads, self.cfg.n_leads)?;
        if mode == self.mode() {
            return Ok(Vec::new());
        }
        let mut cfg = self.cfg.clone();
        cfg.level = mode.level;
        cfg.active_leads = Some(mode.active_leads);
        // Build first: a failing construction must leave the session
        // running at its previous mode.
        let fresh = build_stage(&cfg, mode.active_leads)?;
        self.stage.flush(&mut self.sink)?;
        let retiring = core::mem::replace(&mut self.stage, fresh);
        self.retired = self.retired.merged(&retiring.activity());
        self.cfg = cfg;
        self.active_leads = mode.active_leads;
        Ok(self.sink.drain())
    }

    /// Renegotiates the CS compression ratio live — the application
    /// path of a gateway
    /// [`DirectiveAction::SetCr`](crate::link::DirectiveAction::SetCr).
    /// Unlike [`Self::switch_mode`] this does **not** rebuild the
    /// stage: the window length is unchanged, so the current stage
    /// swaps its per-lead sensing matrices in place, keeps any
    /// partially buffered window, and continues the `window_seq`
    /// numbering — the gateway's reference alignment survives the
    /// switch, it just needs the re-announced handshake
    /// ([`Uplink::announce_handshake`](crate::link::Uplink::announce_handshake))
    /// to regenerate Φ at the new measurement count.
    ///
    /// Returns `true` when the running stage compresses and applied
    /// the ratio now; `false` when it does not (the ratio still lands
    /// in the configuration, so a later switch to a CS level uses
    /// it).
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] for a ratio outside `[0, 100)`
    /// (the session is untouched on error).
    pub fn switch_cs_cr(&mut self, cr_percent: f64) -> Result<bool> {
        if !(0.0..100.0).contains(&cr_percent) {
            return Err(WbsnError::InvalidParameter {
                what: "cs_cr_percent",
                detail: format!("{cr_percent} outside [0, 100)"),
            });
        }
        let applied = self.stage.renegotiate_cs_cr(cr_percent)?;
        self.cfg.cs_cr_percent = cr_percent;
        Ok(applied)
    }

    /// Pushes one simultaneous sample per lead; returns any payloads
    /// that became ready.
    ///
    /// # Errors
    ///
    /// [`WbsnError::LeadMismatch`] when `frame.len()` differs from the
    /// configured lead count.
    pub fn try_push(&mut self, frame: &[i32]) -> Result<Vec<Payload>> {
        if frame.len() != self.cfg.n_leads {
            return Err(WbsnError::LeadMismatch {
                expected: self.cfg.n_leads,
                got: frame.len(),
            });
        }
        self.stage
            .push_frame(&frame[..self.active_leads], &mut self.sink)?;
        self.n_frames += 1;
        self.samples_acquired += self.active_leads as u64;
        Ok(self.sink.drain())
    }

    /// Infallible convenience wrapper over [`Self::try_push`].
    ///
    /// # Panics
    ///
    /// Panics when `frame.len()` differs from the configured lead
    /// count; streaming callers that cannot guarantee framing should
    /// use [`Self::try_push`].
    #[expect(
        clippy::expect_used,
        reason = "documented infallible wrapper: the lead-count panic is this API's contract; wire-facing callers use try_push"
    )]
    pub fn push(&mut self, frame: &[i32]) -> Vec<Payload> {
        self.try_push(frame).expect("lead count")
    }

    /// Batched ingestion hot path for server-side replay: consumes
    /// `n_frames` interleaved frames (`frames[i * n_leads + l]` is
    /// lead `l` of frame `i`) with one validation, one block dispatch
    /// into the stage's [`PipelineStage::process_block`] kernel, and
    /// one payload drain. In the steady state (reused session, no
    /// payload due) this path performs zero heap allocations — pinned
    /// by the counting-allocator test `tests/alloc_steady_state.rs`.
    ///
    /// # Errors
    ///
    /// [`WbsnError::InvalidParameter`] when `frames.len()` is not
    /// exactly `n_frames * n_leads`.
    pub fn push_block(&mut self, frames: &[i32], n_frames: usize) -> Result<Vec<Payload>> {
        let n_leads = self.cfg.n_leads;
        let expected = n_frames.checked_mul(n_leads);
        if expected != Some(frames.len()) {
            return Err(WbsnError::InvalidParameter {
                what: "frames",
                detail: format!(
                    "block of {n_frames} frames × {n_leads} leads needs {} samples, got {}",
                    expected.map_or_else(|| "an overflowing number of".into(), |e| e.to_string()),
                    frames.len()
                ),
            });
        }
        let active = self.active_leads;
        if active == n_leads {
            self.stage.process_block(frames, n_leads, &mut self.sink)?;
        } else {
            // Gate the frames down to the powered leads; the scratch
            // buffer is reused, so the steady state allocates nothing.
            let mut gated = core::mem::take(&mut self.gate_scratch);
            gated.clear();
            gated.reserve(n_frames * active);
            for frame in frames.chunks_exact(n_leads) {
                gated.extend_from_slice(&frame[..active]);
            }
            let result = self.stage.process_block(&gated, active, &mut self.sink);
            self.gate_scratch = gated;
            result?;
        }
        self.n_frames += n_frames as u64;
        self.samples_acquired += (n_frames * active) as u64;
        Ok(self.sink.drain())
    }

    /// Convenience: processes a whole recording, one `Vec` per lead
    /// (batched ingestion plus a final flush). Leads past the
    /// session's `n_leads` are ignored.
    ///
    /// # Errors
    ///
    /// [`WbsnError::LeadMismatch`] when fewer leads are given than the
    /// session is configured for, and [`WbsnError::InvalidParameter`]
    /// when the used leads differ in length.
    pub fn process_record(&mut self, leads: &[Vec<i32>]) -> Result<Vec<Payload>> {
        let n_leads = self.cfg.n_leads;
        let Some(used) = leads.get(..n_leads) else {
            return Err(WbsnError::LeadMismatch {
                expected: n_leads,
                got: leads.len(),
            });
        };
        let mut interleaved = core::mem::take(&mut self.interleave_scratch);
        let result =
            interleave(used, &mut interleaved).and_then(|n| self.push_block(&interleaved, n));
        self.interleave_scratch = interleaved;
        let mut payloads = result?;
        payloads.extend(self.flush()?);
        Ok(payloads)
    }

    /// Flushes any buffered partial state (end of session).
    ///
    /// # Errors
    ///
    /// Stage-specific processing failures.
    pub fn flush(&mut self) -> Result<Vec<Payload>> {
        self.stage.flush(&mut self.sink)?;
        Ok(self.sink.drain())
    }
}

/// Writes `leads` into `out` as interleaved frames, the layout
/// [`CardiacMonitor::push_block`] takes (`out[i * leads.len() + l]` is
/// lead `l` at instant `i`), and returns the frame count.
///
/// # Errors
///
/// [`WbsnError::InvalidParameter`] when the leads differ in length.
pub(crate) fn interleave(leads: &[Vec<i32>], out: &mut Vec<i32>) -> Result<usize> {
    let n = leads.first().map_or(0, Vec::len);
    if let Some(l) = leads.iter().position(|lead| lead.len() != n) {
        return Err(WbsnError::InvalidParameter {
            what: "leads",
            detail: format!("lead {l} differs in length from lead 0"),
        });
    }
    out.clear();
    out.resize(n * leads.len(), 0);
    for (l, lead) in leads.iter().enumerate() {
        for (frame, &s) in out.chunks_exact_mut(leads.len()).zip(lead) {
            frame[l] = s;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_ecg_synth::noise::NoiseConfig;
    use wbsn_ecg_synth::{Record, RecordBuilder, Rhythm};

    fn record(seed: u64, secs: f64) -> Record {
        RecordBuilder::new(seed)
            .duration_s(secs)
            .n_leads(3)
            .noise(NoiseConfig::ambulatory(22.0))
            .build()
    }

    fn run_level(level: ProcessingLevel, secs: f64) -> (Vec<Payload>, ActivityCounters) {
        let rec = record(42, secs);
        let mut m = MonitorBuilder::new().level(level).build().unwrap();
        let p = m.process_record(rec.leads()).unwrap();
        (p, m.counters())
    }

    #[test]
    fn switch_cs_cr_preserves_window_seq_and_partial_buffers() {
        let mut m = MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .n_leads(1)
            .cs_window(256)
            .cs_compression_ratio(50.0)
            .build()
            .unwrap();
        // One full window at CR 50, then half a window, then the
        // switch, then the other half: the straddling window must
        // still come out — numbered 1 — at the new measurement count.
        let mut out = m.push_block(&vec![7i32; 256], 256).unwrap();
        out.extend(m.push_block(&vec![7i32; 128], 128).unwrap());
        assert!(m.switch_cs_cr(65.9).unwrap());
        assert!((m.config().cs_cr_percent - 65.9).abs() < 1e-12);
        out.extend(m.push_block(&vec![7i32; 128], 128).unwrap());
        let meta: Vec<(u32, usize)> = out
            .iter()
            .map(|p| match p {
                Payload::CsWindow {
                    window_seq,
                    measurements,
                    ..
                } => (*window_seq, measurements.len()),
                other => panic!("unexpected payload {other:?}"),
            })
            .collect();
        let m50 = wbsn_cs::measurements_for_cr(256, 50.0);
        let m659 = wbsn_cs::measurements_for_cr(256, 65.9);
        assert_eq!(meta, vec![(0, m50), (1, m659)]);
        // Out-of-range ratios leave the session untouched.
        assert!(m.switch_cs_cr(100.0).is_err());
        assert!((m.config().cs_cr_percent - 65.9).abs() < 1e-12);
    }

    #[test]
    fn switch_cs_cr_on_a_non_cs_stage_only_updates_config() {
        let mut m = MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .build()
            .unwrap();
        assert!(!m.switch_cs_cr(50.0).unwrap());
        assert!((m.config().cs_cr_percent - 50.0).abs() < 1e-12);
        // A later switch down to a CS level builds at the new ratio.
        let leads = m.mode().active_leads;
        m.switch_mode(OperatingMode::new(
            ProcessingLevel::CompressedSingleLead,
            leads,
        ))
        .unwrap();
        let hs = crate::link::SessionHandshake::for_config(1, m.config());
        assert_eq!(
            hs.cs_measurements as usize,
            wbsn_cs::measurements_for_cr(m.config().cs_window, 50.0)
        );
    }

    #[test]
    fn raw_streaming_emits_all_samples() {
        let (payloads, c) = run_level(ProcessingLevel::RawStreaming, 5.0);
        let total: usize = payloads
            .iter()
            .map(|p| match p {
                Payload::RawChunk { samples, .. } => samples.len(),
                _ => panic!("unexpected payload"),
            })
            .sum();
        assert_eq!(total, 3 * 1250);
        assert!(c.payload_bytes > 5000);
    }

    #[test]
    fn compressed_emits_windows_with_fewer_bytes_than_raw() {
        let (raw, _) = run_level(ProcessingLevel::RawStreaming, 10.0);
        let (cs, c) = run_level(ProcessingLevel::CompressedSingleLead, 10.0);
        let raw_bytes: usize = raw.iter().map(Payload::byte_len).sum();
        let cs_bytes: usize = cs.iter().map(Payload::byte_len).sum();
        assert!(
            (cs_bytes as f64) < 0.55 * raw_bytes as f64,
            "cs {cs_bytes} raw {raw_bytes}"
        );
        assert!(c.cs_windows >= 12, "windows {}", c.cs_windows);
        assert!(c.cs_adds > 0);
    }

    #[test]
    fn delineated_emits_beats() {
        let (payloads, c) = run_level(ProcessingLevel::Delineated, 20.0);
        let beats: usize = payloads
            .iter()
            .map(|p| match p {
                Payload::Beats { beats } => beats.len(),
                _ => 0,
            })
            .sum();
        // ~23 beats at 70 bpm in 20 s minus warm-up.
        assert!(beats >= 15, "beats {beats}");
        assert_eq!(c.beats as usize, beats);
        // Far fewer bytes than compressed.
        assert!(c.payload_bytes < 1000, "bytes {}", c.payload_bytes);
    }

    #[test]
    fn classified_emits_event_summaries() {
        let (payloads, c) = run_level(ProcessingLevel::Classified, 30.0);
        let events: Vec<_> = payloads
            .iter()
            .filter_map(|p| match p {
                Payload::Events { n_beats, .. } => Some(*n_beats),
                _ => None,
            })
            .collect();
        assert!(!events.is_empty());
        let total_beats: u32 = events.iter().sum();
        assert!(total_beats >= 20, "beats {total_beats}");
        assert!(c.payload_bytes < 200, "bytes {}", c.payload_bytes);
    }

    #[test]
    fn bytes_decrease_with_abstraction_level() {
        let mut last = u64::MAX;
        for level in [
            ProcessingLevel::RawStreaming,
            ProcessingLevel::CompressedSingleLead,
            ProcessingLevel::Delineated,
            ProcessingLevel::Classified,
        ] {
            let (_, c) = run_level(level, 20.0);
            assert!(
                c.payload_bytes < last,
                "{level}: {} not below {last}",
                c.payload_bytes
            );
            last = c.payload_bytes;
        }
    }

    #[test]
    fn af_alert_fires_on_af_record() {
        let rec = RecordBuilder::new(7)
            .duration_s(60.0)
            .n_leads(3)
            .rhythm(Rhythm::AtrialFibrillation { mean_hr_bpm: 95.0 })
            .noise(NoiseConfig::ambulatory(20.0))
            .build();
        let mut m = MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .build()
            .unwrap();
        let payloads = m.process_record(rec.leads()).unwrap();
        let af_seen = payloads.iter().any(|p| match p {
            Payload::Events {
                af_active,
                af_burden_pct,
                ..
            } => *af_active || *af_burden_pct > 50,
            _ => false,
        });
        assert!(af_seen, "AF should be reported");
    }

    #[test]
    fn classifier_is_used_when_provided() {
        use wbsn_classify::features::{BeatFeatureExtractor, FeatureConfig};
        use wbsn_classify::fuzzy::{FuzzyClassifier, MembershipMode};
        // Trivial 2-class classifier (features all near zero -> class 0).
        let dims = BeatFeatureExtractor::new(FeatureConfig::default())
            .unwrap()
            .dims();
        let xs: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![if i < 4 { 0.0 } else { 5.0 }; dims])
            .collect();
        let ys = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let clf = FuzzyClassifier::train(&xs, &ys, MembershipMode::PiecewiseLinear).unwrap();
        let rec = record(9, 20.0);
        let mut m = MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .classifier(clf)
            .build()
            .unwrap();
        let _ = m.process_record(rec.leads()).unwrap();
        assert!(m.counters().classified_beats > 10);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert!(MonitorBuilder::new().n_leads(0).build().is_err());
        assert!(MonitorBuilder::new().n_leads(300).build().is_err());
        assert!(MonitorBuilder::new().fs_hz(0).build().is_err());
        assert!(MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .cs_window(500)
            .build()
            .is_err());
        assert!(MonitorBuilder::new()
            .level(ProcessingLevel::CompressedSingleLead)
            .cs_compression_ratio(120.0)
            .build()
            .is_err());
        assert!(MonitorBuilder::new()
            .level(ProcessingLevel::Delineated)
            .beats_per_payload(0)
            .build()
            .is_err());
        assert!(MonitorBuilder::new()
            .level(ProcessingLevel::Classified)
            .event_interval_s(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn try_push_reports_lead_mismatch_without_panicking() {
        let mut m = MonitorBuilder::new().n_leads(3).build().unwrap();
        let err = m.try_push(&[1, 2]).unwrap_err();
        assert_eq!(
            err,
            WbsnError::LeadMismatch {
                expected: 3,
                got: 2
            }
        );
        // The session stays usable.
        assert!(m.try_push(&[1, 2, 3]).is_ok());
        assert_eq!(m.counters().samples_in, 3);
    }

    #[test]
    fn push_block_matches_per_frame_pushes_exactly() {
        let rec = record(11, 12.0);
        for level in ProcessingLevel::ALL {
            let mut per_frame = MonitorBuilder::new().level(level).build().unwrap();
            let mut batched = MonitorBuilder::new().level(level).build().unwrap();
            let n = rec.n_samples();
            let mut interleaved = Vec::with_capacity(n * 3);
            for i in 0..n {
                for l in 0..3 {
                    interleaved.push(rec.lead(l)[i]);
                }
            }
            let mut a = Vec::new();
            for frame in interleaved.chunks_exact(3) {
                a.extend(per_frame.try_push(frame).unwrap());
            }
            a.extend(per_frame.flush().unwrap());
            let mut b = batched.push_block(&interleaved, n).unwrap();
            b.extend(batched.flush().unwrap());
            let bytes_a: Vec<u8> = a.iter().flat_map(Payload::encode).collect();
            let bytes_b: Vec<u8> = b.iter().flat_map(Payload::encode).collect();
            assert_eq!(bytes_a, bytes_b, "{level}");
            assert_eq!(per_frame.counters(), batched.counters(), "{level}");
        }
    }

    #[test]
    fn push_block_validates_shape() {
        let mut m = MonitorBuilder::new().n_leads(3).build().unwrap();
        assert!(m.push_block(&[0; 10], 3).is_err()); // 10 != 3 * 3
                                                     // Overflowing frame counts must error, not wrap past validation.
        assert!(m.push_block(&[0; 9], usize::MAX / 3 + 2).is_err());
        assert!(m.push_block(&[0; 9], 3).is_ok());
    }

    #[test]
    fn process_record_rejects_narrow_records() {
        let rec = RecordBuilder::new(5).duration_s(5.0).n_leads(1).build();
        let mut m = MonitorBuilder::new().n_leads(3).build().unwrap();
        let err = m.process_record(rec.leads()).unwrap_err();
        assert_eq!(
            err,
            WbsnError::LeadMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn process_record_rejects_ragged_leads() {
        let mut m = MonitorBuilder::new().n_leads(2).build().unwrap();
        let err = m.process_record(&[vec![0; 10], vec![0; 9]]).unwrap_err();
        assert!(
            matches!(err, WbsnError::InvalidParameter { what: "leads", .. }),
            "{err}"
        );
        // Leads past the session's are ignored, whatever their length.
        assert!(m
            .process_record(&[vec![0; 10], vec![0; 10], vec![0; 3]])
            .is_ok());
    }

    #[test]
    fn counters_track_seconds() {
        let (_, c) = run_level(ProcessingLevel::Delineated, 10.0);
        assert!((c.seconds - 10.0).abs() < 0.1, "seconds {}", c.seconds);
        assert_eq!(c.samples_in, 3 * 2500);
    }

    #[test]
    fn stage_names_follow_level() {
        for (level, name) in [
            (ProcessingLevel::RawStreaming, "raw-forwarder"),
            (ProcessingLevel::CompressedSingleLead, "cs-encoder"),
            (ProcessingLevel::Delineated, "delineation"),
            (ProcessingLevel::Classified, "classify"),
        ] {
            let m = MonitorBuilder::new().level(level).build().unwrap();
            assert_eq!(m.stage_name(), name);
        }
    }
}
