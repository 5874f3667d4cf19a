//! The on-node processing abstraction ladder (Figure 1 of the paper).

/// How much intelligence the node applies before transmitting.
///
/// Higher levels transmit less data at the cost of more on-node
/// computation — the central energy trade-off of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessingLevel {
    /// Stream every sample (the unsustainable baseline).
    RawStreaming,
    /// Compressively sense each lead independently ("Single-Lead CS").
    CompressedSingleLead,
    /// Compressively sense with joint multi-lead reconstruction in
    /// mind ("Multi-Lead CS": per-lead matrices, joint decoder).
    CompressedMultiLead,
    /// Filter + delineate on-node; transmit fiducial points per beat.
    Delineated,
    /// Delineate + classify on-node; transmit beat classes and
    /// rhythm events (AF episodes) only.
    Classified,
}

impl ProcessingLevel {
    /// All levels, in ascending abstraction order.
    pub const ALL: [ProcessingLevel; 5] = [
        ProcessingLevel::RawStreaming,
        ProcessingLevel::CompressedSingleLead,
        ProcessingLevel::CompressedMultiLead,
        ProcessingLevel::Delineated,
        ProcessingLevel::Classified,
    ];

    /// Human-readable label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            ProcessingLevel::RawStreaming => "raw streaming",
            ProcessingLevel::CompressedSingleLead => "single-lead CS",
            ProcessingLevel::CompressedMultiLead => "multi-lead CS",
            ProcessingLevel::Delineated => "delineated",
            ProcessingLevel::Classified => "classified",
        }
    }

    /// True when the level runs the delineation pipeline.
    pub fn delineates(self) -> bool {
        matches!(
            self,
            ProcessingLevel::Delineated | ProcessingLevel::Classified
        )
    }

    /// True when the level runs the CS encoder.
    pub fn compresses(self) -> bool {
        matches!(
            self,
            ProcessingLevel::CompressedSingleLead | ProcessingLevel::CompressedMultiLead
        )
    }
}

impl core::fmt::Display for ProcessingLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A runtime operating point of a monitoring session: the processing
/// level *and* the number of acquisition leads powered.
///
/// The [power governor](crate::governor) re-selects the operating mode
/// while a session is live: it escalates fidelity (down the abstraction
/// ladder, more leads) when the rhythm turns interesting, and sheds
/// radio bytes, MCU cycles and analog front-end bias (each unused lead
/// saves its AFE+ADC power) when the signal is quiet or the battery is
/// low. [`CardiacMonitor::switch_mode`](crate::CardiacMonitor::switch_mode)
/// applies a mode change at a deterministic stream boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatingMode {
    /// Processing level on the abstraction ladder.
    pub level: ProcessingLevel,
    /// Acquisition leads powered (1 ..= the session's configured lead
    /// count). Frames keep their configured width; gated leads are
    /// acquired as unpowered and ignored by the pipeline.
    pub active_leads: usize,
}

impl OperatingMode {
    /// Mode at `level` with `active_leads` powered leads.
    pub fn new(level: ProcessingLevel, active_leads: usize) -> Self {
        OperatingMode {
            level,
            active_leads,
        }
    }
}

impl core::fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} @ {} lead(s)", self.level, self.active_leads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_properties() {
        assert_eq!(ProcessingLevel::ALL.len(), 5);
        assert!(ProcessingLevel::Delineated.delineates());
        assert!(ProcessingLevel::Classified.delineates());
        assert!(!ProcessingLevel::RawStreaming.delineates());
        assert!(ProcessingLevel::CompressedSingleLead.compresses());
        assert!(!ProcessingLevel::Classified.compresses());
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for l in ProcessingLevel::ALL {
            assert!(seen.insert(l.label()), "{l}");
        }
    }
}
