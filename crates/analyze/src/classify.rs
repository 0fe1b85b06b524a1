//! The visitor-based trackability classifier.
//!
//! [`Analyzer::classify`] answers, for one statement, the question the
//! paper leaves implicit: *will the rewriting proxy capture every
//! dependency this statement induces?* What a SELECT harvests is decided
//! once, by [`select_harvest`], which the proxy's rewriter carries out and
//! this classifier judges: the decision is shared, not mirrored. Every
//! other loss of precision, and every write to tracking state (which the
//! proxy refuses), is one [`Reason`] here.

use std::collections::BTreeMap;

use resildb_sql::{Expr, Select, SelectItem, Statement};

use crate::columns::{is_tracking_column, is_tracking_table, TRID_COLUMN};
use crate::harvest::{select_harvest, Harvest};
use crate::verdict::{Granularity, Reason, Verdict};

/// A point-in-time snapshot of table schemas (lower-cased names), used to
/// expand wildcards and resolve unqualified column references during
/// derivability inference. The analyzer works without one, at the price of
/// conservative attribution.
#[derive(Debug, Clone, Default)]
pub struct SchemaSnapshot {
    tables: BTreeMap<String, Vec<String>>,
}

impl SchemaSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table and its columns.
    pub fn add_table<N, C, I>(&mut self, name: N, columns: I)
    where
        N: AsRef<str>,
        C: AsRef<str>,
        I: IntoIterator<Item = C>,
    {
        self.tables.insert(
            name.as_ref().to_ascii_lowercase(),
            columns
                .into_iter()
                .map(|c| c.as_ref().to_ascii_lowercase())
                .collect(),
        );
    }

    /// Builds a snapshot from the `CREATE TABLE` statements in `stmts`
    /// (other statements are ignored).
    pub fn from_statements<'a>(stmts: impl IntoIterator<Item = &'a Statement>) -> Self {
        let mut snap = Self::new();
        for stmt in stmts {
            if let Statement::CreateTable(ct) = stmt {
                snap.add_table(&ct.name, ct.columns.iter().map(|c| c.name.as_str()));
            }
        }
        snap
    }

    /// The columns of `table`, if known.
    pub fn columns(&self, table: &str) -> Option<&[String]> {
        self.tables
            .get(&table.to_ascii_lowercase())
            .map(Vec::as_slice)
    }

    /// Whether `table.column` exists in the snapshot.
    pub fn has_column(&self, table: &str, column: &str) -> bool {
        self.columns(table)
            .is_some_and(|cols| cols.iter().any(|c| c.eq_ignore_ascii_case(column)))
    }

    /// Number of known tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// The static trackability analyzer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    granularity: Granularity,
}

impl Analyzer {
    /// An analyzer for a deployment tracking at `granularity`.
    pub fn new(granularity: Granularity) -> Self {
        Self { granularity }
    }

    /// The deployment granularity this analyzer assumes.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Classifies one parsed statement.
    pub fn classify(&self, stmt: &Statement) -> Verdict {
        classify_statement(stmt, self.granularity)
    }

    /// Classifies one SQL string. Unparsable statements are
    /// [`Verdict::Untracked`] with [`Reason::ParseError`]; the proxy's
    /// `ANNOTATE` pseudo-command is accepted as sound.
    pub fn classify_sql(&self, sql: &str) -> Verdict {
        let trimmed = sql.trim();
        if trimmed
            .get(..9)
            .is_some_and(|p| p.eq_ignore_ascii_case("ANNOTATE "))
        {
            return Verdict::Sound;
        }
        match resildb_sql::parse_statement(sql) {
            Ok(stmt) => self.classify(&stmt),
            Err(_) => Verdict::Untracked(vec![Reason::ParseError]),
        }
    }
}

fn expr_reads_tracking_column(e: &Expr) -> bool {
    e.referenced_columns()
        .iter()
        .any(|c| is_tracking_column(&c.column))
}

fn classify_select(sel: &Select, granularity: Granularity) -> Vec<Reason> {
    let mut reasons = match select_harvest(sel, granularity) {
        // `SELECT 1`: reads no table, induces no dependency.
        Harvest::NoFrom => return Vec::new(),
        Harvest::Lost(lost) => lost,
        // At column granularity a row-stamp harvest is the fallback.
        Harvest::Sources(sources)
            if granularity == Granularity::Column
                && sources.iter().any(|s| s.stamp == TRID_COLUMN) =>
        {
            vec![Reason::ColumnFallback]
        }
        Harvest::TrackingTablesOnly | Harvest::Sources(_) => Vec::new(),
    };
    let mut has_wildcard = false;
    let mut reads_tracking = false;
    for item in &sel.items {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => has_wildcard = true,
            SelectItem::Expr { expr, .. } => {
                reads_tracking |= expr_reads_tracking_column(expr);
            }
        }
    }
    if let Some(w) = &sel.where_clause {
        reads_tracking |= expr_reads_tracking_column(w);
    }
    for e in sel
        .group_by
        .iter()
        .chain(sel.order_by.iter().map(|o| &o.expr))
    {
        reads_tracking |= expr_reads_tracking_column(e);
    }
    if reads_tracking {
        reasons.push(Reason::ReadsTrackingColumn);
    }
    if has_wildcard {
        reasons.push(Reason::WildcardProvenance);
    }
    reasons
}

/// Classifies one parsed statement for a deployment tracking at
/// `granularity`. The proxy consults it once per statement shape, when it
/// plans the shape.
pub fn classify_statement(stmt: &Statement, granularity: Granularity) -> Verdict {
    let mut reasons = match stmt {
        Statement::Select(sel) => classify_select(sel, granularity),
        Statement::Insert(ins) => {
            let mut reasons = Vec::new();
            if ins.columns.iter().any(|c| is_tracking_column(c)) {
                reasons.push(Reason::WritesTrackingColumn);
            }
            if ins.columns.is_empty() && granularity == Granularity::Column {
                reasons.push(Reason::PositionalColumnStamps);
            }
            if ins.rows.iter().flatten().any(expr_reads_tracking_column) {
                reasons.push(Reason::ReadsTrackingColumn);
            }
            reasons
        }
        Statement::Update(upd) => {
            let mut reasons = Vec::new();
            if upd
                .assignments
                .iter()
                .any(|a| is_tracking_column(&a.column))
            {
                reasons.push(Reason::WritesTrackingColumn);
            }
            let reads_tracking = upd
                .assignments
                .iter()
                .map(|a| &a.value)
                .chain(upd.where_clause.iter())
                .any(expr_reads_tracking_column);
            if reads_tracking {
                reasons.push(Reason::ReadsTrackingColumn);
            }
            reasons
        }
        Statement::Delete(del) => {
            if del.where_clause.iter().any(expr_reads_tracking_column) {
                vec![Reason::ReadsTrackingColumn]
            } else {
                Vec::new()
            }
        }
        Statement::CreateTable(ct) => {
            if ct.columns.iter().any(|c| is_tracking_column(&c.name)) {
                vec![Reason::ShadowsTrackingColumn]
            } else {
                Vec::new()
            }
        }
        Statement::DropTable(_) => vec![Reason::DropsTrackedHistory],
        Statement::Begin | Statement::Commit | Statement::Rollback => Vec::new(),
    };
    // Only the proxy writes the tracking tables.
    if !matches!(stmt, Statement::Select(_))
        && stmt.referenced_tables().into_iter().any(is_tracking_table)
    {
        reasons.push(Reason::WritesTrackingTable);
    }
    Verdict::from_reasons(reasons)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(sql: &str) -> Verdict {
        Analyzer::new(Granularity::Row).classify_sql(sql)
    }

    fn classify_col(sql: &str) -> Verdict {
        Analyzer::new(Granularity::Column).classify_sql(sql)
    }

    #[test]
    fn plain_dml_is_sound() {
        for sql in [
            "SELECT w_tax FROM warehouse WHERE w_id = 3",
            "SELECT c.c_balance, o.o_id FROM customer c, orders o WHERE c.c_id = o.o_c_id",
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "UPDATE t SET a = a + 1 WHERE b = 2",
            "DELETE FROM t WHERE a = 1",
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b FLOAT)",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
            "SELECT 1",
        ] {
            assert_eq!(classify(sql), Verdict::Sound, "{sql}");
        }
    }

    #[test]
    fn aggregate_and_distinct_are_untracked() {
        let v = classify("SELECT SUM(a) FROM t");
        assert_eq!(v.reasons(), &[Reason::AggregateRead]);
        assert!(v.is_untracked());
        let v = classify("SELECT a FROM t GROUP BY a");
        assert_eq!(v.reasons(), &[Reason::AggregateRead]);
        let v = classify("SELECT DISTINCT a FROM t");
        assert_eq!(v.reasons(), &[Reason::DistinctRead]);
        // Both at once: both reasons reported.
        let v = classify("SELECT DISTINCT COUNT(*) FROM t");
        assert_eq!(v.reasons(), &[Reason::AggregateRead, Reason::DistinctRead]);
    }

    #[test]
    fn tracking_column_writes_are_untracked() {
        assert!(classify("UPDATE t SET trid = 7").is_untracked());
        assert!(classify("INSERT INTO t (a, trid) VALUES (1, 7)").is_untracked());
        assert!(classify("CREATE TABLE t (a INTEGER, trid INTEGER)").is_untracked());
        assert!(classify_col("UPDATE t SET trid__a = 7").is_untracked());
        assert!(classify("INSERT INTO t (a, rid) VALUES (1, 7)").is_untracked());
    }

    #[test]
    fn writes_to_tracking_tables_are_untracked() {
        for table in crate::TRACKING_TABLES {
            for sql in [
                format!("INSERT INTO {table} (tr_id) VALUES (9)"),
                format!("UPDATE {table} SET tr_id = 9 WHERE tr_id = 3"),
                format!("DELETE FROM {table} WHERE tr_id = 3"),
                format!("CREATE TABLE {table} (tr_id INTEGER)"),
                format!("DROP TABLE {} ", table.to_ascii_uppercase()),
            ] {
                let v = classify(&sql);
                assert!(v.is_untracked() && v.tampers(), "{sql}: {v}");
                assert!(
                    v.reasons().contains(&Reason::WritesTrackingTable),
                    "{sql}: {v}"
                );
            }
            // Reads stay allowed: a SELECT is never a tracking write.
            let v = classify(&format!("SELECT tr_id FROM {table} WHERE tr_id = 3"));
            assert_eq!(v, Verdict::Sound);
        }
        // The three statements `resildb-lint` used to call sound or merely
        // degraded.
        for (sql, shown) in [
            (
                "DELETE FROM trans_dep WHERE tr_id = 3",
                "untracked [U-TRACKING-WRITE]",
            ),
            (
                "INSERT INTO annot (tr_id, descr) VALUES (9, 'x')",
                "untracked [U-TRACKING-WRITE]",
            ),
            (
                "DROP TABLE trans_dep",
                "untracked [U-TRACKING-WRITE, D-DROP]",
            ),
        ] {
            assert_eq!(classify(sql).to_string(), shown, "{sql}");
        }
    }

    #[test]
    fn tracking_column_reads_are_degraded() {
        for sql in [
            "SELECT trid FROM t",
            "SELECT a FROM t WHERE trid = 5",
            "SELECT a FROM t ORDER BY trid",
            "UPDATE t SET a = trid",
            "UPDATE t SET a = 1 WHERE trid = 5",
            "DELETE FROM t WHERE trid = 5",
            "INSERT INTO t (a) VALUES (trid)",
        ] {
            let v = classify(sql);
            assert!(
                v.reasons().contains(&Reason::ReadsTrackingColumn) && !v.is_untracked(),
                "{sql}: {v}"
            );
        }
    }

    #[test]
    fn wildcards_degrade_provenance() {
        let v = classify("SELECT * FROM t WHERE a = 1");
        assert_eq!(v.reasons(), &[Reason::WildcardProvenance]);
        let v = classify("SELECT t.* FROM t");
        assert_eq!(v.reasons(), &[Reason::WildcardProvenance]);
    }

    #[test]
    fn column_granularity_fallback_detected() {
        // `SELECT * FROM t` reads no resolvable columns: row-stamp fallback.
        let v = classify_col("SELECT * FROM t");
        assert!(v.reasons().contains(&Reason::ColumnFallback), "{v}");
        // A select with explicit columns does not fall back.
        assert_eq!(classify_col("SELECT a FROM t WHERE b = 1"), Verdict::Sound);
    }

    #[test]
    fn positional_insert_degrades_only_at_column_granularity() {
        assert_eq!(classify("INSERT INTO t VALUES (1, 2)"), Verdict::Sound);
        let v = classify_col("INSERT INTO t VALUES (1, 2)");
        assert_eq!(v.reasons(), &[Reason::PositionalColumnStamps]);
    }

    #[test]
    fn drop_table_and_parse_errors() {
        let v = classify("DROP TABLE t");
        assert_eq!(v.reasons(), &[Reason::DropsTrackedHistory]);
        assert!(!v.is_untracked());
        let v = classify("SELECT a FROM (SELECT b FROM t)");
        assert_eq!(v.reasons(), &[Reason::ParseError]);
        assert!(v.is_untracked());
    }

    #[test]
    fn annotate_pseudo_command_is_sound() {
        assert_eq!(classify("ANNOTATE Payment_1_2_3_4"), Verdict::Sound);
    }

    #[test]
    fn schema_snapshot_from_statements() {
        let stmts = [
            resildb_sql::parse_statement("CREATE TABLE t (A INTEGER, b FLOAT)").unwrap(),
            resildb_sql::parse_statement("SELECT 1").unwrap(),
        ];
        let snap = SchemaSnapshot::from_statements(&stmts);
        assert_eq!(snap.len(), 1);
        assert!(snap.has_column("T", "a"));
        assert!(snap.has_column("t", "B"));
        assert!(!snap.has_column("t", "c"));
        assert!(snap.columns("missing").is_none());
    }
}
