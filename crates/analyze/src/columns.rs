//! The tracking layer's column vocabulary.
//!
//! These names are the contract between the rewriting proxy (which injects
//! and stamps the columns and writes the tracking tables), the repair tool
//! (which reads both from the log) and the static analyzer (which must know
//! which identifiers a client statement may not write). They live here, in
//! the lowest layer that all three share, and are re-exported by
//! `resildb-proxy`.

/// Name of the injected last-writer column.
pub const TRID_COLUMN: &str = "trid";

/// Prefix of the per-column last-writer stamps used by column-level
/// tracking: column `c` gets a companion `trid__c INTEGER`.
pub const COLUMN_TRID_PREFIX: &str = "trid__";

/// Name of the identity column injected on flavors without a row-id
/// pseudo-column (Sybase, paper §4.3).
pub const IDENTITY_COLUMN: &str = "rid";

/// Whether `name` is one of the columns the tracking layer injects
/// (`trid`, `trid__<col>`, or the Sybase identity `rid`).
pub fn is_tracking_column(name: &str) -> bool {
    // `get` rather than direct slicing: the prefix length may fall inside a
    // multi-byte character of a non-ASCII column name.
    name.eq_ignore_ascii_case(TRID_COLUMN)
        || name.eq_ignore_ascii_case(IDENTITY_COLUMN)
        || name
            .get(..COLUMN_TRID_PREFIX.len())
            .is_some_and(|p| p.eq_ignore_ascii_case(COLUMN_TRID_PREFIX))
}

/// Table recording, per committed transaction, the set of transactions it
/// depends on (`tr_id INTEGER, dep_tr_ids VARCHAR` — the paper's exact
/// schema; IDs are space-separated, long sets spill onto multiple rows).
pub const TRANS_DEP_TABLE: &str = "trans_dep";

/// Table giving each transaction a symbolic name for graph visualisation.
pub const ANNOT_TABLE: &str = "annot";

/// Companion provenance table: one row per dependency edge with the table
/// that mediated it and the columns the reader touched — machine-checkable
/// input for the false-dependency filtering of paper §5.3.
pub const PROV_TABLE: &str = "trans_dep_prov";

/// All tracking tables, in creation order.
pub const TRACKING_TABLES: [&str; 3] = [TRANS_DEP_TABLE, ANNOT_TABLE, PROV_TABLE];

/// Whether `name` is one of the [`TRACKING_TABLES`] (case-insensitively):
/// the proxy's own bookkeeping, not user data. Only the proxy writes them,
/// and repair never treats their rows as damage.
pub fn is_tracking_table(name: &str) -> bool {
    TRACKING_TABLES.iter().any(|t| t.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_column_predicate() {
        assert!(is_tracking_column("trid"));
        assert!(is_tracking_column("TRID"));
        assert!(is_tracking_column("TRID__w_ytd"));
        assert!(is_tracking_column("rid"));
        assert!(!is_tracking_column("w_ytd"));
        assert!(!is_tracking_column("trident"));
        assert!(!is_tracking_column("tri"));
        assert!(!is_tracking_column("ütrid"));
    }

    #[test]
    fn tracking_table_predicate() {
        for t in TRACKING_TABLES {
            assert!(is_tracking_table(t));
            assert!(is_tracking_table(&t.to_ascii_uppercase()));
        }
        assert!(!is_tracking_table("trans_dep_x"));
        assert!(!is_tracking_table("account"));
    }
}
