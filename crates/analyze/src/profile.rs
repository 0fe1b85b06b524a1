//! Transaction profiles: whole-transaction read/write footprints.
//!
//! PR 3's analyzer classifies *statements*; this module lifts the
//! analysis to *transaction shapes*. A [`TxnProfile`] is the abstract
//! footprint of one transaction class — every table it reads via
//! `SELECT` and every table it mutates, each at column granularity —
//! computed by abstract interpretation of the class's recorded SQL: each
//! statement contributes its [`resildb_sql::statement_access`] footprint
//! and the profile is the union. Imprecision is one-directional by
//! construction: anything the extractor cannot resolve widens to "all
//! columns", so a profile over-approximates every concrete transaction
//! of its class. That is the property the VOPR soundness oracle
//! machine-checks (dynamic damage closure ⊆ static bound).

use std::collections::BTreeMap;

use resildb_sql::{parse_statement, statement_access, ColumnSet, Statement, WriteKind};

/// The write footprint of one profile in one table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteFootprint {
    /// Union of `UPDATE` assignment targets (`None` = the profile never
    /// updates this table; `Some(All)` = an update with unresolvable
    /// targets, treated as touching every column).
    pub updated: Option<ColumnSet>,
    /// The profile inserts rows into the table.
    pub inserts: bool,
    /// The profile deletes rows from the table.
    pub deletes: bool,
}

impl WriteFootprint {
    fn note_update(&mut self, columns: &ColumnSet) {
        match &mut self.updated {
            Some(existing) => existing.union(columns),
            None => self.updated = Some(columns.clone()),
        }
    }

    fn merge(&mut self, other: &WriteFootprint) {
        if let Some(cols) = &other.updated {
            self.note_update(cols);
        }
        self.inserts |= other.inserts;
        self.deletes |= other.deletes;
    }

    /// The columns this footprint can damage, for blast-surface reports:
    /// `None` means every column (inserts, deletes, or unresolvable
    /// updates touch whole rows).
    pub fn damaged_columns(&self) -> Option<&std::collections::BTreeSet<String>> {
        if self.inserts || self.deletes {
            return None;
        }
        self.updated.as_ref().and_then(ColumnSet::columns)
    }
}

/// The static footprint of one transaction class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnProfile {
    /// Profile name (transaction-class label).
    pub name: String,
    /// Statements interpreted (transaction control excluded).
    pub statements: usize,
    /// Statements that did not parse in the proxy dialect. Their
    /// footprint is unknowable, but also unreachable: the proxy rejects
    /// what it cannot parse, so they widen nothing.
    pub parse_failures: usize,
    /// table → columns read via `SELECT`.
    pub reads: BTreeMap<String, ColumnSet>,
    /// table → write footprint.
    pub writes: BTreeMap<String, WriteFootprint>,
}

impl TxnProfile {
    /// Builds the profile of `name` by interpreting `statements`.
    pub fn from_sql<S: AsRef<str>>(name: impl Into<String>, statements: &[S]) -> TxnProfile {
        let mut profile = TxnProfile {
            name: name.into(),
            statements: 0,
            parse_failures: 0,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        };
        for sql in statements {
            let stmt = match parse_statement(sql.as_ref()) {
                Ok(s) => s,
                Err(_) => {
                    profile.parse_failures += 1;
                    continue;
                }
            };
            if matches!(
                stmt,
                Statement::Begin | Statement::Commit | Statement::Rollback
            ) {
                continue;
            }
            profile.statements += 1;
            let access = statement_access(&stmt);
            for read in access.reads {
                profile
                    .reads
                    .entry(read.table)
                    .and_modify(|c| c.union(&read.columns))
                    .or_insert(read.columns);
            }
            for write in access.writes {
                let fp = profile.writes.entry(write.table).or_default();
                match write.kind {
                    WriteKind::Insert => fp.inserts = true,
                    WriteKind::Delete => fp.deletes = true,
                    WriteKind::Update => fp.note_update(&write.columns),
                }
            }
        }
        profile
    }

    /// Unions `other` into `self` (profiles of the same class recorded
    /// from different runs).
    pub fn merge(&mut self, other: &TxnProfile) {
        self.statements += other.statements;
        self.parse_failures += other.parse_failures;
        for (table, cols) in &other.reads {
            self.reads
                .entry(table.clone())
                .and_modify(|c| c.union(cols))
                .or_insert_with(|| cols.clone());
        }
        for (table, fp) in &other.writes {
            self.writes.entry(table.clone()).or_default().merge(fp);
        }
    }
}

/// Builds one profile per distinct group name, merging groups that share
/// a name, sorted by name.
pub fn profiles_from_groups<S: AsRef<str>>(groups: &[(String, Vec<S>)]) -> Vec<TxnProfile> {
    let mut by_name: BTreeMap<String, TxnProfile> = BTreeMap::new();
    for (name, statements) in groups {
        let profile = TxnProfile::from_sql(name.clone(), statements);
        match by_name.get_mut(name) {
            Some(existing) => existing.merge(&profile),
            None => {
                by_name.insert(name.clone(), profile);
            }
        }
    }
    by_name.into_values().collect()
}

/// Splits a flat statement corpus into `BEGIN`…`COMMIT` transaction
/// groups named `txn_<k>`, returning `(groups, ambient)` where `ambient`
/// collects the statements outside any transaction block (DDL,
/// autocommitted statements). A `ROLLBACK` discards its group — a rolled
/// back transaction has no footprint the tracker would record.
pub fn group_transactions(corpus: &[String]) -> (Vec<(String, Vec<String>)>, Vec<String>) {
    let mut groups: Vec<(String, Vec<String>)> = Vec::new();
    let mut ambient: Vec<String> = Vec::new();
    let mut open: Option<Vec<String>> = None;
    for sql in corpus {
        match parse_statement(sql) {
            Ok(Statement::Begin) => open = Some(Vec::new()),
            Ok(Statement::Commit) => {
                if let Some(stmts) = open.take() {
                    groups.push((format!("txn_{}", groups.len()), stmts));
                }
            }
            Ok(Statement::Rollback) => {
                open = None;
            }
            _ => match &mut open {
                Some(stmts) => stmts.push(sql.clone()),
                None => ambient.push(sql.clone()),
            },
        }
    }
    if let Some(stmts) = open {
        // Unterminated trailing block: keep it — a conservative report
        // should not silently drop statements.
        groups.push((format!("txn_{}", groups.len()), stmts));
    }
    (groups, ambient)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payment_profile() -> TxnProfile {
        TxnProfile::from_sql(
            "Payment",
            &[
                "SELECT w_name FROM warehouse WHERE w_id = 1",
                "UPDATE warehouse SET w_ytd = w_ytd + 10 WHERE w_id = 1",
                "UPDATE customer SET c_balance = c_balance - 10, c_payment_cnt = c_payment_cnt + 1 \
                 WHERE c_id = 3",
                "INSERT INTO history (h_w_id, h_amount) VALUES (1, 10)",
            ],
        )
    }

    #[test]
    fn profile_unions_statement_footprints() {
        let p = payment_profile();
        assert_eq!(p.statements, 4);
        assert_eq!(p.parse_failures, 0);
        assert!(p.reads["warehouse"].contains("w_name"));
        assert!(!p.reads["warehouse"].contains("w_ytd"));
        let w = &p.writes["warehouse"];
        assert_eq!(
            w.updated.as_ref().and_then(ColumnSet::columns).unwrap(),
            &["w_ytd".to_string()].into_iter().collect()
        );
        assert!(!w.inserts && !w.deletes);
        assert!(p.writes["history"].inserts);
        assert!(p.writes["customer"]
            .damaged_columns()
            .unwrap()
            .contains("c_payment_cnt"));
        assert!(p.writes["history"].damaged_columns().is_none());
    }

    #[test]
    fn control_statements_are_skipped_and_parse_errors_counted() {
        let p = TxnProfile::from_sql("X", &["BEGIN", "SELECT a FROM t", "NOT EVEN SQL", "COMMIT"]);
        assert_eq!(p.statements, 1);
        assert_eq!(p.parse_failures, 1);
    }

    #[test]
    fn merge_widens_to_union() {
        let mut a = TxnProfile::from_sql("P", &["UPDATE t SET x = 1"]);
        let b = TxnProfile::from_sql("P", &["UPDATE t SET y = 2", "DELETE FROM u"]);
        a.merge(&b);
        let cols = a.writes["t"]
            .updated
            .as_ref()
            .and_then(ColumnSet::columns)
            .unwrap();
        assert_eq!(cols.len(), 2);
        assert!(a.writes["u"].deletes);
        assert_eq!(a.statements, 3);
    }

    #[test]
    fn groups_merge_by_name() {
        let groups = vec![
            ("P".to_string(), vec!["UPDATE t SET a = 1".to_string()]),
            ("Q".to_string(), vec!["SELECT b FROM t".to_string()]),
            ("P".to_string(), vec!["UPDATE t SET c = 2".to_string()]),
        ];
        let profiles = profiles_from_groups(&groups);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].name, "P");
        assert_eq!(
            profiles[0].writes["t"]
                .updated
                .as_ref()
                .and_then(ColumnSet::columns)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn group_transactions_splits_on_txn_boundaries() {
        let corpus: Vec<String> = [
            "CREATE TABLE t (a INT)",
            "BEGIN",
            "UPDATE t SET a = 1",
            "COMMIT",
            "BEGIN",
            "UPDATE t SET a = 2",
            "ROLLBACK",
            "BEGIN",
            "SELECT a FROM t",
            "COMMIT",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let (groups, ambient) = group_transactions(&corpus);
        assert_eq!(ambient.len(), 1);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "txn_0");
        assert_eq!(groups[0].1, vec!["UPDATE t SET a = 1"]);
        assert_eq!(groups[1].1, vec!["SELECT a FROM t"]);
    }
}
