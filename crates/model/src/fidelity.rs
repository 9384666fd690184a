//! The `--fidelity` harness flag: which tier answers a sweep's cells.

/// Which tier answers a simulation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// The cycle-accurate discrete-event engine (the default; the only
    /// fidelity that can bless or check golden numbers).
    #[default]
    Cycle,
    /// The analytic queueing/throughput model: microseconds instead of
    /// seconds, valid only where calibration says so.
    Analytic,
}

impl Fidelity {
    /// Stable lowercase name (CLI values, wire forms, digests).
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Cycle => "cycle",
            Fidelity::Analytic => "analytic",
        }
    }

    /// Parse a CLI/wire name. The empty string means [`Fidelity::Cycle`]
    /// so job specs written before the field existed keep their
    /// meaning.
    pub fn parse(s: &str) -> Result<Fidelity, String> {
        Ok(match s {
            "" | "cycle" => Fidelity::Cycle,
            "analytic" => Fidelity::Analytic,
            other => return Err(format!("unknown fidelity {other:?} (cycle|analytic)")),
        })
    }

    /// Whether this is the cycle-accurate engine (the only fidelity
    /// whose numbers may touch committed goldens).
    pub fn is_cycle(self) -> bool {
        matches!(self, Fidelity::Cycle)
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in [Fidelity::Cycle, Fidelity::Analytic] {
            assert_eq!(Fidelity::parse(f.as_str()), Ok(f));
            assert_eq!(format!("{f}"), f.as_str());
        }
        assert!(Fidelity::parse("quantum").is_err());
        let err = Fidelity::parse("auto").unwrap_err();
        assert!(err.contains("cycle|analytic"), "{err}");
    }

    #[test]
    fn empty_string_is_legacy_cycle() {
        assert_eq!(Fidelity::parse(""), Ok(Fidelity::Cycle));
        assert_eq!(Fidelity::default(), Fidelity::Cycle);
        assert!(Fidelity::Cycle.is_cycle());
        assert!(!Fidelity::Analytic.is_cycle());
    }
}
