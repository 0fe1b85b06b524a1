//! DBMS flavors: where the paper's three systems genuinely differ.
//!
//! The engine's relational semantics are shared; a [`Flavor`] captures the
//! per-DBMS traits the paper had to work around when porting its framework
//! (§4): the shape of logged update records, whether SQL can address a row
//! by a built-in row id, and which log-introspection interface exists.

use std::fmt;

/// Which DBMS personality a [`crate::Database`] emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// PostgreSQL-like: full before/after row images in the WAL, a `ctid`
    /// row-address pseudo-column, raw WAL readable only by reverse
    /// engineering (the paper wrote a reader plugin; here: `waldump`).
    Postgres,
    /// Oracle-like: full images, a `rowid` pseudo-column, and a
    /// LogMiner-style SQL view (`v$logmnr_contents`) exposing per-record
    /// redo/undo SQL.
    Oracle,
    /// Sybase ASE-like: UPDATE (`MODIFY`) records carry only the modified
    /// attributes, *no* row-id attribute exists (the proxy must inject an
    /// `IDENTITY` column), and the log is read via `dbcc log` with page
    /// contents via `dbcc page`.
    Sybase,
}

impl Flavor {
    /// All flavors, for portability tests and benchmark sweeps.
    pub const ALL: [Flavor; 3] = [Flavor::Postgres, Flavor::Oracle, Flavor::Sybase];

    /// Human-readable name (as used in the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Postgres => "PostgreSQL",
            Flavor::Oracle => "Oracle",
            Flavor::Sybase => "Sybase",
        }
    }

    /// The SQL pseudo-column addressing a physical row, if this flavor has
    /// one (`None` forces the identity-column workaround of paper §4.3).
    pub fn rowid_pseudocolumn(self) -> Option<&'static str> {
        match self {
            Flavor::Postgres => Some("ctid"),
            Flavor::Oracle => Some("rowid"),
            Flavor::Sybase => None,
        }
    }

    /// Whether UPDATE log records carry only the changed attributes
    /// (Sybase `MODIFY`) instead of full before/after images.
    pub fn logs_update_deltas(self) -> bool {
        matches!(self, Flavor::Sybase)
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capabilities_match_the_paper() {
        assert_eq!(Flavor::Postgres.rowid_pseudocolumn(), Some("ctid"));
        assert_eq!(Flavor::Oracle.rowid_pseudocolumn(), Some("rowid"));
        assert_eq!(Flavor::Sybase.rowid_pseudocolumn(), None);
        assert!(Flavor::Sybase.logs_update_deltas());
        assert!(!Flavor::Oracle.logs_update_deltas());
    }

    #[test]
    fn all_lists_each_flavor_once() {
        assert_eq!(Flavor::ALL.len(), 3);
        assert!(Flavor::ALL.contains(&Flavor::Postgres));
        assert!(Flavor::ALL.contains(&Flavor::Oracle));
        assert!(Flavor::ALL.contains(&Flavor::Sybase));
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Flavor::Postgres.to_string(), "PostgreSQL");
    }
}
