//! Algorithm registry: identifiers, construction, and the operating-system
//! inventory behind Table I of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::transport::CongestionControl;

/// All congestion avoidance algorithms this crate implements.
///
/// The first fourteen variants are the algorithms CAAI identifies (§III-A);
/// [`Hybla`](AlgorithmId::Hybla) and [`Lp`](AlgorithmId::Lp) are implemented
/// for completeness but excluded from identification, exactly as the paper
/// excludes them (HYBLA targets satellite links, LP background transfers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AlgorithmId {
    Reno,
    Bic,
    CtcpV1,
    CtcpV2,
    CubicV1,
    CubicV2,
    Hstcp,
    Htcp,
    Illinois,
    Scalable,
    Vegas,
    Veno,
    WestwoodPlus,
    Yeah,
    Hybla,
    Lp,
}

/// The 14 algorithms CAAI identifies, in the order the paper lists them.
pub const ALL_IDENTIFIED: [AlgorithmId; 14] = [
    AlgorithmId::Reno,
    AlgorithmId::Bic,
    AlgorithmId::CtcpV1,
    AlgorithmId::CtcpV2,
    AlgorithmId::CubicV1,
    AlgorithmId::CubicV2,
    AlgorithmId::Hstcp,
    AlgorithmId::Htcp,
    AlgorithmId::Illinois,
    AlgorithmId::Scalable,
    AlgorithmId::Vegas,
    AlgorithmId::Veno,
    AlgorithmId::WestwoodPlus,
    AlgorithmId::Yeah,
];

/// All implemented algorithms including the two non-identified extensions.
pub const ALL_WITH_EXTENSIONS: [AlgorithmId; 16] = [
    AlgorithmId::Reno,
    AlgorithmId::Bic,
    AlgorithmId::CtcpV1,
    AlgorithmId::CtcpV2,
    AlgorithmId::CubicV1,
    AlgorithmId::CubicV2,
    AlgorithmId::Hstcp,
    AlgorithmId::Htcp,
    AlgorithmId::Illinois,
    AlgorithmId::Scalable,
    AlgorithmId::Vegas,
    AlgorithmId::Veno,
    AlgorithmId::WestwoodPlus,
    AlgorithmId::Yeah,
    AlgorithmId::Hybla,
    AlgorithmId::Lp,
];

impl AlgorithmId {
    /// Constructs a fresh congestion controller for this algorithm.
    pub fn build(self) -> Box<dyn CongestionControl> {
        match self {
            AlgorithmId::Reno => Box::new(crate::reno::Reno::new()),
            AlgorithmId::Bic => Box::new(crate::bic::Bic::new()),
            AlgorithmId::CtcpV1 => Box::new(crate::ctcp::Ctcp::v1()),
            AlgorithmId::CtcpV2 => Box::new(crate::ctcp::Ctcp::v2()),
            AlgorithmId::CubicV1 => Box::new(crate::cubic::Cubic::v1()),
            AlgorithmId::CubicV2 => Box::new(crate::cubic::Cubic::v2()),
            AlgorithmId::Hstcp => Box::new(crate::hstcp::Hstcp::new()),
            AlgorithmId::Htcp => Box::new(crate::htcp::Htcp::new()),
            AlgorithmId::Illinois => Box::new(crate::illinois::Illinois::new()),
            AlgorithmId::Scalable => Box::new(crate::scalable::Scalable::new()),
            AlgorithmId::Vegas => Box::new(crate::vegas::Vegas::new()),
            AlgorithmId::Veno => Box::new(crate::veno::Veno::new()),
            AlgorithmId::WestwoodPlus => Box::new(crate::westwood::WestwoodPlus::new()),
            AlgorithmId::Yeah => Box::new(crate::yeah::Yeah::new()),
            AlgorithmId::Hybla => Box::new(crate::hybla::Hybla::new()),
            AlgorithmId::Lp => Box::new(crate::lp::Lp::new()),
        }
    }

    /// Short stable display name matching the paper's notation
    /// (`CTCP_v1`/`CTCP_v2` stand for the paper's CTCP' and CTCP'').
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmId::Reno => "RENO",
            AlgorithmId::Bic => "BIC",
            AlgorithmId::CtcpV1 => "CTCP_v1",
            AlgorithmId::CtcpV2 => "CTCP_v2",
            AlgorithmId::CubicV1 => "CUBIC_v1",
            AlgorithmId::CubicV2 => "CUBIC_v2",
            AlgorithmId::Hstcp => "HSTCP",
            AlgorithmId::Htcp => "HTCP",
            AlgorithmId::Illinois => "ILLINOIS",
            AlgorithmId::Scalable => "STCP",
            AlgorithmId::Vegas => "VEGAS",
            AlgorithmId::Veno => "VENO",
            AlgorithmId::WestwoodPlus => "WESTWOOD+",
            AlgorithmId::Yeah => "YEAH",
            AlgorithmId::Hybla => "HYBLA",
            AlgorithmId::Lp => "LP",
        }
    }

    /// Whether CAAI's classifier includes this algorithm (§III-A excludes
    /// HYBLA and LP).
    pub fn is_identified(self) -> bool {
        !matches!(self, AlgorithmId::Hybla | AlgorithmId::Lp)
    }

    /// Operating-system families shipping this algorithm (Table I).
    pub fn os_families(self) -> &'static [OsFamily] {
        match self {
            AlgorithmId::Reno => &[OsFamily::Windows, OsFamily::Linux],
            AlgorithmId::CtcpV1 | AlgorithmId::CtcpV2 => &[OsFamily::Windows],
            _ => &[OsFamily::Linux],
        }
    }

    /// Coarse algorithm family, merging versioned variants: used when
    /// reporting census results ("BIC or CUBIC", "CTCP").
    pub fn family_name(self) -> &'static str {
        match self {
            AlgorithmId::CtcpV1 | AlgorithmId::CtcpV2 => "CTCP",
            AlgorithmId::CubicV1 | AlgorithmId::CubicV2 => "CUBIC",
            other => other.name(),
        }
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError(String);

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown TCP algorithm name `{}`", self.0)
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for AlgorithmId {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canon = s.trim().to_ascii_uppercase().replace('-', "_");
        Ok(match canon.as_str() {
            "RENO" | "NEWRENO" => AlgorithmId::Reno,
            "BIC" => AlgorithmId::Bic,
            "CTCP_V1" | "CTCP1" => AlgorithmId::CtcpV1,
            "CTCP_V2" | "CTCP2" | "CTCP" => AlgorithmId::CtcpV2,
            "CUBIC_V1" | "CUBIC1" => AlgorithmId::CubicV1,
            "CUBIC_V2" | "CUBIC2" | "CUBIC" => AlgorithmId::CubicV2,
            "HSTCP" | "HIGHSPEED" => AlgorithmId::Hstcp,
            "HTCP" | "H_TCP" => AlgorithmId::Htcp,
            "ILLINOIS" => AlgorithmId::Illinois,
            "STCP" | "SCALABLE" => AlgorithmId::Scalable,
            "VEGAS" => AlgorithmId::Vegas,
            "VENO" => AlgorithmId::Veno,
            "WESTWOOD+" | "WESTWOOD" | "WESTWOODPLUS" => AlgorithmId::WestwoodPlus,
            "YEAH" | "YEAH_TCP" => AlgorithmId::Yeah,
            "HYBLA" => AlgorithmId::Hybla,
            "LP" | "TCP_LP" => AlgorithmId::Lp,
            _ => return Err(ParseAlgorithmError(s.to_owned())),
        })
    }
}

/// Major operating system family (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsFamily {
    /// Windows XP / Vista / 7 / Server 2003 / Server 2008.
    Windows,
    /// RedHat, Fedora, Debian, Ubuntu, SuSE, ... (kernel 2.6.x era).
    Linux,
}

impl fmt::Display for OsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OsFamily::Windows => "Windows",
            OsFamily::Linux => "Linux",
        })
    }
}

/// One row of the Table I inventory: which algorithms a family ships and
/// which one is the default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsInventoryRow {
    /// The operating system family.
    pub family: OsFamily,
    /// Default algorithm(s) across releases of the family.
    pub defaults: Vec<AlgorithmId>,
    /// All algorithms available in the family.
    pub available: Vec<AlgorithmId>,
}

/// Reconstructs Table I: TCP algorithms available in major OS families.
pub fn os_inventory() -> Vec<OsInventoryRow> {
    let windows = OsInventoryRow {
        family: OsFamily::Windows,
        defaults: vec![AlgorithmId::Reno, AlgorithmId::CtcpV1, AlgorithmId::CtcpV2],
        available: vec![AlgorithmId::Reno, AlgorithmId::CtcpV1, AlgorithmId::CtcpV2],
    };
    let linux = OsInventoryRow {
        family: OsFamily::Linux,
        defaults: vec![
            AlgorithmId::Reno,
            AlgorithmId::Bic,
            AlgorithmId::CubicV1,
            AlgorithmId::CubicV2,
        ],
        available: ALL_WITH_EXTENSIONS
            .iter()
            .copied()
            .filter(|a| a.os_families().contains(&OsFamily::Linux))
            .collect(),
    };
    vec![windows, linux]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_identified_algorithms() {
        assert_eq!(ALL_IDENTIFIED.len(), 14);
        assert!(ALL_IDENTIFIED.iter().all(|a| a.is_identified()));
    }

    #[test]
    fn extensions_are_not_identified() {
        assert!(!AlgorithmId::Hybla.is_identified());
        assert!(!AlgorithmId::Lp.is_identified());
    }

    #[test]
    fn build_constructs_every_algorithm() {
        for id in ALL_WITH_EXTENSIONS {
            let cc = id.build();
            assert!(!cc.name().is_empty(), "{id:?} must have a name");
        }
    }

    #[test]
    fn names_round_trip_through_parsing() {
        for id in ALL_WITH_EXTENSIONS {
            let parsed: AlgorithmId = id.name().parse().expect("parse own name");
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!("FAST".parse::<AlgorithmId>().is_err());
        assert!("".parse::<AlgorithmId>().is_err());
    }

    #[test]
    fn ctcp_belongs_to_windows_only() {
        assert_eq!(AlgorithmId::CtcpV1.os_families(), &[OsFamily::Windows]);
        assert_eq!(AlgorithmId::CubicV2.os_families(), &[OsFamily::Linux]);
        assert!(AlgorithmId::Reno.os_families().len() == 2);
    }

    #[test]
    fn os_inventory_matches_table_one_shape() {
        let rows = os_inventory();
        assert_eq!(rows.len(), 2);
        let linux = rows.iter().find(|r| r.family == OsFamily::Linux).unwrap();
        // Linux family ships everything but CTCP.
        assert!(linux.available.contains(&AlgorithmId::Hybla));
        assert!(!linux.available.contains(&AlgorithmId::CtcpV1));
        let win = rows.iter().find(|r| r.family == OsFamily::Windows).unwrap();
        assert!(win.available.contains(&AlgorithmId::CtcpV2));
    }

    #[test]
    fn family_names_merge_versions() {
        assert_eq!(AlgorithmId::CtcpV1.family_name(), "CTCP");
        assert_eq!(AlgorithmId::CtcpV2.family_name(), "CTCP");
        assert_eq!(AlgorithmId::CubicV1.family_name(), "CUBIC");
        assert_eq!(AlgorithmId::Reno.family_name(), "RENO");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(AlgorithmId::WestwoodPlus.to_string(), "WESTWOOD+");
        assert_eq!(format!("{}", AlgorithmId::CtcpV1), "CTCP_v1");
    }
}
