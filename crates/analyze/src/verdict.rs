//! The trackability verdict lattice and its machine-readable reason codes.

/// Granularity of dependency tracking: the one enum the analyzer judges
/// by and the proxy configures (`resildb_proxy` re-exports it as
/// `TrackingGranularity`).
///
/// The paper tracks at **row** granularity and notes (§6) that an
/// attribute-level `tr_id` "is required to minimize false sharing and to
/// support suppression of false dependency", leaving the efficient
/// implementation open. [`Granularity::Column`] is this implementation's
/// answer: every user column gets a companion `trid__<column>` stamp,
/// reads harvest exactly the stamps of the columns they touch, and
/// update/delete dependencies are reconstructed from the per-column stamps
/// in the pre-update images. The cost is wider rows and log records —
/// measurable with the `granularity` benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One `trid` per row (the paper's design).
    #[default]
    Row,
    /// `trid` per row plus `trid__<col>` per column (§6 extension).
    Column,
}

/// Why a statement is not (fully) soundly tracked.
///
/// Every variant carries a stable machine-readable code (`U-*` for
/// untracked, `D-*` for degraded) so lint baselines, JSON reports and
/// proxy statistics survive renames of the Rust identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reason {
    // ---- Untracked: dependencies vanish entirely -----------------------
    /// Aggregate or `GROUP BY` SELECT: the rewriter cannot append per-row
    /// trid harvest columns, so every read dependency of the statement is
    /// lost (paper Table 1, documented limitation).
    AggregateRead,
    /// `SELECT DISTINCT`: appending trid columns would change which rows
    /// are duplicates, so the statement is not rewritten and its reads go
    /// untracked.
    DistinctRead,
    /// An INSERT or UPDATE that assigns a tracking column itself
    /// (`trid`, `trid__<col>`, `rid`): the client-supplied value would
    /// forge the last-writer stamp. The proxy refuses it.
    WritesTrackingColumn,
    /// `CREATE TABLE` declaring a column that collides with a tracking
    /// name: user data and last-writer stamps would share a column. The
    /// proxy refuses it.
    ShadowsTrackingColumn,
    /// An INSERT, UPDATE, DELETE, CREATE TABLE or DROP TABLE whose target
    /// is one of the tracking tables: the client would forge or erase the
    /// dependency record repair reads. The proxy refuses it.
    WritesTrackingTable,
    /// The statement does not parse in the proxy's dialect, so the proxy
    /// rejects it before it ever reaches the DBMS. (Subqueries, derived
    /// tables and multi-table writes fall in this class: the dialect —
    /// and hence the rewriter — has no representation for them.)
    ParseError,

    // ---- Degraded: tracked, but coarser or semantically polluted -------
    /// The SELECT references a tracking column explicitly. The proxy
    /// strips those columns from every result, so the client receives a
    /// different shape than it asked for, and the read itself is of
    /// bookkeeping state rather than user data.
    ReadsTrackingColumn,
    /// Wildcard projection (`*` / `t.*`): dependencies are harvested, but
    /// the recorded read-column provenance is empty, so false-dependency
    /// filtering must keep every edge conservatively.
    WildcardProvenance,
    /// Column-granularity deployment, but the INSERT has no column list:
    /// the schema-less rewriter can only stamp the row `trid`, not the
    /// per-column stamps.
    PositionalColumnStamps,
    /// Column-granularity deployment, but the SELECT resolves no concrete
    /// columns (wildcard-style read): harvest falls back to the row stamp,
    /// re-introducing the false sharing column tracking exists to remove.
    ColumnFallback,
    /// `DROP TABLE` destroys the per-row stamps with the table; prior
    /// transactions on it can no longer be repaired through the log's
    /// tracking columns.
    DropsTrackedHistory,
}

impl Reason {
    /// Stable machine-readable code for reports and baselines.
    pub fn code(self) -> &'static str {
        match self {
            Reason::AggregateRead => "U-AGG",
            Reason::DistinctRead => "U-DISTINCT",
            Reason::WritesTrackingColumn => "U-TRID-WRITE",
            Reason::ShadowsTrackingColumn => "U-TRID-SHADOW",
            Reason::WritesTrackingTable => "U-TRACKING-WRITE",
            Reason::ParseError => "U-PARSE",
            Reason::ReadsTrackingColumn => "D-TRID-READ",
            Reason::WildcardProvenance => "D-WILDCARD",
            Reason::PositionalColumnStamps => "D-POSITIONAL-INSERT",
            Reason::ColumnFallback => "D-COL-FALLBACK",
            Reason::DropsTrackedHistory => "D-DROP",
        }
    }

    /// Whether the reason makes the statement untracked (dependencies
    /// lost) rather than merely degraded (tracked coarsely).
    pub fn is_untracked(self) -> bool {
        matches!(
            self,
            Reason::AggregateRead
                | Reason::DistinctRead
                | Reason::WritesTrackingColumn
                | Reason::ShadowsTrackingColumn
                | Reason::WritesTrackingTable
                | Reason::ParseError
        )
    }

    /// One-line human explanation.
    pub fn message(self) -> &'static str {
        match self {
            Reason::AggregateRead => {
                "aggregate/GROUP BY select is not rewritten; its read dependencies are lost"
            }
            Reason::DistinctRead => {
                "DISTINCT select is not rewritten; its read dependencies are lost"
            }
            Reason::WritesTrackingColumn => {
                "statement assigns a tracking column, forging the last-writer stamp"
            }
            Reason::ShadowsTrackingColumn => {
                "table declares a column shadowing a tracking column name"
            }
            Reason::WritesTrackingTable => {
                "statement writes a tracking table, forging or erasing dependency records"
            }
            Reason::ParseError => "statement does not parse in the proxy's dialect",
            Reason::ReadsTrackingColumn => {
                "select references a tracking column; the proxy strips it from results"
            }
            Reason::WildcardProvenance => {
                "wildcard projection leaves read-column provenance empty; \
                 false-dependency filtering is disabled for these edges"
            }
            Reason::PositionalColumnStamps => {
                "positional insert cannot receive per-column stamps; row stamp only"
            }
            Reason::ColumnFallback => {
                "column-level read resolves no columns; harvest falls back to the row stamp"
            }
            Reason::DropsTrackedHistory => {
                "DROP TABLE destroys the table's tracking stamps and repair history"
            }
        }
    }
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code(), self.message())
    }
}

/// The analyzer's three-point verdict lattice, ordered
/// `Sound < Degraded < Untracked` by severity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every dependency the statement induces is captured by the dynamic
    /// tracker (online harvest or log reconstruction).
    Sound,
    /// Dependencies are captured, but coarser than the statement's real
    /// footprint, or the statement touches tracking bookkeeping.
    Degraded(Vec<Reason>),
    /// At least one dependency class of the statement is invisible to the
    /// tracker: repair closures computed over it are unsound.
    Untracked(Vec<Reason>),
}

impl Verdict {
    /// Builds the verdict from a (possibly empty) reason list: the worst
    /// reason decides the lattice point.
    pub fn from_reasons(mut reasons: Vec<Reason>) -> Verdict {
        if reasons.is_empty() {
            return Verdict::Sound;
        }
        reasons.sort_unstable();
        reasons.dedup();
        if reasons.iter().any(|r| r.is_untracked()) {
            Verdict::Untracked(reasons)
        } else {
            Verdict::Degraded(reasons)
        }
    }

    /// Whether the statement writes the tracking layer's own state — a
    /// tracking column or a tracking table — which only the proxy may
    /// write: the proxy refuses it under every enforcement policy.
    pub fn tampers(&self) -> bool {
        self.reasons().iter().any(|r| {
            matches!(
                r,
                Reason::WritesTrackingColumn
                    | Reason::ShadowsTrackingColumn
                    | Reason::WritesTrackingTable
            )
        })
    }

    /// Whether the statement is fully soundly tracked.
    pub fn is_sound(&self) -> bool {
        matches!(self, Verdict::Sound)
    }

    /// Whether the statement's dependencies are (partially) lost.
    pub fn is_untracked(&self) -> bool {
        matches!(self, Verdict::Untracked(_))
    }

    /// The reasons behind a non-sound verdict (empty for [`Verdict::Sound`]).
    pub fn reasons(&self) -> &[Reason] {
        match self {
            Verdict::Sound => &[],
            Verdict::Degraded(r) | Verdict::Untracked(r) => r,
        }
    }

    /// Short label for display and stats: `sound`, `degraded`, `untracked`.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Sound => "sound",
            Verdict::Degraded(_) => "degraded",
            Verdict::Untracked(_) => "untracked",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())?;
        let codes: Vec<&str> = self.reasons().iter().map(|r| r.code()).collect();
        if !codes.is_empty() {
            write!(f, " [{}]", codes.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_reason_decides_lattice_point() {
        assert_eq!(Verdict::from_reasons(vec![]), Verdict::Sound);
        assert!(matches!(
            Verdict::from_reasons(vec![Reason::WildcardProvenance]),
            Verdict::Degraded(_)
        ));
        let v = Verdict::from_reasons(vec![Reason::WildcardProvenance, Reason::AggregateRead]);
        assert!(v.is_untracked());
        assert_eq!(v.reasons().len(), 2);
    }

    #[test]
    fn reasons_deduplicate() {
        let v = Verdict::from_reasons(vec![Reason::DistinctRead, Reason::DistinctRead]);
        assert_eq!(v.reasons(), &[Reason::DistinctRead]);
    }

    #[test]
    fn codes_partition_by_severity() {
        for r in [
            Reason::AggregateRead,
            Reason::DistinctRead,
            Reason::WritesTrackingColumn,
            Reason::ShadowsTrackingColumn,
            Reason::WritesTrackingTable,
            Reason::ParseError,
        ] {
            assert!(r.is_untracked(), "{r:?}");
            assert!(r.code().starts_with("U-"), "{r:?}");
        }
        for r in [
            Reason::ReadsTrackingColumn,
            Reason::WildcardProvenance,
            Reason::PositionalColumnStamps,
            Reason::ColumnFallback,
            Reason::DropsTrackedHistory,
        ] {
            assert!(!r.is_untracked(), "{r:?}");
            assert!(r.code().starts_with("D-"), "{r:?}");
        }
    }

    #[test]
    fn only_writes_to_tracking_state_tamper() {
        for r in [
            Reason::WritesTrackingColumn,
            Reason::ShadowsTrackingColumn,
            Reason::WritesTrackingTable,
        ] {
            assert!(Verdict::from_reasons(vec![Reason::WildcardProvenance, r]).tampers());
        }
        assert!(!Verdict::Sound.tampers());
        assert!(!Verdict::from_reasons(vec![Reason::AggregateRead, Reason::ParseError]).tampers());
        assert!(!Verdict::from_reasons(vec![Reason::ReadsTrackingColumn]).tampers());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Verdict::Sound.to_string(), "sound");
        let v = Verdict::from_reasons(vec![Reason::AggregateRead]);
        assert_eq!(v.to_string(), "untracked [U-AGG]");
    }
}
