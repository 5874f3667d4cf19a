//! Fiducial-point types shared by all delineators.

/// The nine fiducial points of a delineated heartbeat (cf. Figure 2 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FiducialKind {
    /// P-wave onset.
    POn,
    /// P-wave peak.
    PPeak,
    /// P-wave offset.
    POff,
    /// QRS onset.
    QrsOn,
    /// R peak.
    RPeak,
    /// QRS offset.
    QrsOff,
    /// T-wave onset.
    TOn,
    /// T-wave peak.
    TPeak,
    /// T-wave offset.
    TOff,
}

impl FiducialKind {
    /// All kinds in temporal order.
    pub const ALL: [FiducialKind; 9] = [
        FiducialKind::POn,
        FiducialKind::PPeak,
        FiducialKind::POff,
        FiducialKind::QrsOn,
        FiducialKind::RPeak,
        FiducialKind::QrsOff,
        FiducialKind::TOn,
        FiducialKind::TPeak,
        FiducialKind::TOff,
    ];

    /// Short display label ("Pon", "R", "Toff", …).
    pub fn label(self) -> &'static str {
        match self {
            FiducialKind::POn => "Pon",
            FiducialKind::PPeak => "P",
            FiducialKind::POff => "Poff",
            FiducialKind::QrsOn => "QRSon",
            FiducialKind::RPeak => "R",
            FiducialKind::QrsOff => "QRSoff",
            FiducialKind::TOn => "Ton",
            FiducialKind::TPeak => "T",
            FiducialKind::TOff => "Toff",
        }
    }
}

impl core::fmt::Display for FiducialKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully (or partially) delineated beat. The R peak is mandatory;
/// every other fiducial is optional because waves can be genuinely
/// absent (no P during AF, PVCs) or unresolvable under noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BeatFiducials {
    /// R-peak sample index (required; `Default` leaves it 0).
    pub r_peak: usize,
    /// QRS onset sample.
    pub qrs_on: Option<usize>,
    /// QRS offset sample.
    pub qrs_off: Option<usize>,
    /// P-wave onset sample.
    pub p_on: Option<usize>,
    /// P-wave peak sample.
    pub p_peak: Option<usize>,
    /// P-wave offset sample.
    pub p_off: Option<usize>,
    /// T-wave onset sample.
    pub t_on: Option<usize>,
    /// T-wave peak sample.
    pub t_peak: Option<usize>,
    /// T-wave offset sample.
    pub t_off: Option<usize>,
}

impl BeatFiducials {
    /// A beat with only the R peak located.
    pub fn new(r_peak: usize) -> Self {
        BeatFiducials {
            r_peak,
            ..Default::default()
        }
    }

    /// Sample index of `kind`, if located.
    pub fn get(&self, kind: FiducialKind) -> Option<usize> {
        match kind {
            FiducialKind::POn => self.p_on,
            FiducialKind::PPeak => self.p_peak,
            FiducialKind::POff => self.p_off,
            FiducialKind::QrsOn => self.qrs_on,
            FiducialKind::RPeak => Some(self.r_peak),
            FiducialKind::QrsOff => self.qrs_off,
            FiducialKind::TOn => self.t_on,
            FiducialKind::TPeak => self.t_peak,
            FiducialKind::TOff => self.t_off,
        }
    }

    /// Sets the sample index of `kind`.
    pub fn set(&mut self, kind: FiducialKind, sample: usize) {
        match kind {
            FiducialKind::POn => self.p_on = Some(sample),
            FiducialKind::PPeak => self.p_peak = Some(sample),
            FiducialKind::POff => self.p_off = Some(sample),
            FiducialKind::QrsOn => self.qrs_on = Some(sample),
            FiducialKind::RPeak => self.r_peak = sample,
            FiducialKind::QrsOff => self.qrs_off = Some(sample),
            FiducialKind::TOn => self.t_on = Some(sample),
            FiducialKind::TPeak => self.t_peak = Some(sample),
            FiducialKind::TOff => self.t_off = Some(sample),
        }
    }

    /// True when a P wave was located (peak present).
    pub fn has_p(&self) -> bool {
        self.p_peak.is_some()
    }

    /// True when a T wave was located.
    pub fn has_t(&self) -> bool {
        self.t_peak.is_some()
    }

    /// Count of located fiducials (R always counts).
    pub fn located_count(&self) -> usize {
        FiducialKind::ALL
            .iter()
            .filter(|&&k| self.get(k).is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut b = BeatFiducials::new(100);
        assert_eq!(b.get(FiducialKind::RPeak), Some(100));
        assert_eq!(b.get(FiducialKind::PPeak), None);
        for (i, kind) in FiducialKind::ALL.iter().enumerate() {
            b.set(*kind, 10 * i);
        }
        for (i, kind) in FiducialKind::ALL.iter().enumerate() {
            assert_eq!(b.get(*kind), Some(10 * i), "{kind}");
        }
        assert_eq!(b.located_count(), 9);
    }

    #[test]
    fn absent_waves_reported() {
        let mut b = BeatFiducials::new(50);
        assert!(!b.has_p());
        assert!(!b.has_t());
        b.set(FiducialKind::PPeak, 30);
        b.set(FiducialKind::TPeak, 120);
        assert!(b.has_p());
        assert!(b.has_t());
        assert_eq!(b.located_count(), 3);
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in FiducialKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {k}");
        }
    }
}
