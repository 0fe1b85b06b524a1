//! Rule-based intrusion detection over the analyzed transaction history
//! (paper §6: "the current prototype does not support intrusion detection;
//! we plan to develop a DBMS-specific intrusion detection tool and
//! integrate it with the proposed intrusion resilience mechanism").
//!
//! Detection here is deliberately simple and DBA-configurable: rules run
//! over the *normalized log records* the repair analysis already produces,
//! so anything a rule flags can be handed straight to
//! [`crate::RepairController::repair`] as the initial attack set.

use resildb_engine::{Lsn, Value};

use crate::controller::Analysis;
use crate::record::{RepairOp, RepairRecord};

/// A DBA-supplied anomaly rule.
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyRule {
    /// Flags updates that change a numeric column by more than `factor`
    /// in absolute terms (e.g. a balance jumping from 50 to 1 000 000).
    ValueSpike {
        /// Monitored table.
        table: String,
        /// Monitored column.
        column: String,
        /// Maximum tolerated absolute change.
        max_delta: f64,
    },
    /// Flags transactions whose write set exceeds `max_rows` rows —
    /// blanket updates are a classic attack/error signature.
    LargeWriteSet {
        /// Maximum tolerated rows written by one transaction.
        max_rows: usize,
    },
    /// Flags any write to a table that should never be written by
    /// applications (e.g. the tracking tables themselves, or a sealed
    /// audit table).
    ForbiddenTableWrite {
        /// The protected table.
        table: String,
    },
}

/// One detection hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The offending proxy transaction (ready for the repair initial set).
    pub proxy_txn: i64,
    /// Log position of the triggering record (first hit for the txn).
    pub lsn: Lsn,
    /// Human-readable description of what fired.
    pub reason: String,
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn check_value_spike(
    rec: &RepairRecord,
    table: &str,
    column: &str,
    max_delta: f64,
) -> Option<String> {
    if !rec.table.eq_ignore_ascii_case(table) {
        return None;
    }
    let RepairOp::Update { before, after, .. } = &rec.op else {
        return None;
    };
    let (b, a) = (before.get(column)?, after.get(column)?);
    let (b, a) = (numeric(b)?, numeric(a)?);
    let delta = (a - b).abs();
    if delta > max_delta {
        Some(format!(
            "{table}.{column} changed by {delta:.2} (limit {max_delta:.2})"
        ))
    } else {
        None
    }
}

/// Runs `rules` over an analysis, returning at most one detection per
/// transaction (the earliest triggering record), ordered by LSN.
///
/// Only committed, tracked transactions are reported — untracked writes
/// cannot be selectively undone anyway (see the proxy-bypass discussion),
/// and uncommitted ones were already rolled back.
pub fn detect(analysis: &Analysis, rules: &[AnomalyRule]) -> Vec<Detection> {
    let mut detections: Vec<Detection> = Vec::new();
    let mut write_counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();

    let flag = |detections: &mut Vec<Detection>, proxy: i64, lsn: Lsn, reason: String| {
        if !detections.iter().any(|d| d.proxy_txn == proxy) {
            detections.push(Detection {
                proxy_txn: proxy,
                lsn,
                reason,
            });
        }
    };

    for rec in &analysis.records {
        let Some(proxy) = analysis.correlation.proxy_id(rec.internal_txn) else {
            continue;
        };
        if resildb_proxy::is_tracking_table(&rec.table) {
            continue;
        }
        let is_write = matches!(
            rec.op,
            RepairOp::Insert { .. } | RepairOp::Delete { .. } | RepairOp::Update { .. }
        );
        if is_write {
            *write_counts.entry(proxy).or_default() += 1;
        }
        for rule in rules {
            match rule {
                AnomalyRule::ValueSpike {
                    table,
                    column,
                    max_delta,
                } => {
                    if let Some(reason) = check_value_spike(rec, table, column, *max_delta) {
                        flag(&mut detections, proxy, rec.lsn, reason);
                    }
                }
                AnomalyRule::LargeWriteSet { max_rows } => {
                    if is_write && write_counts[&proxy] == max_rows + 1 {
                        flag(
                            &mut detections,
                            proxy,
                            rec.lsn,
                            format!("write set exceeds {max_rows} rows"),
                        );
                    }
                }
                AnomalyRule::ForbiddenTableWrite { table } => {
                    if is_write && rec.table.eq_ignore_ascii_case(table) {
                        flag(
                            &mut detections,
                            proxy,
                            rec.lsn,
                            format!("write to forbidden table {table}"),
                        );
                    }
                }
            }
        }
    }
    detections.sort_by_key(|d| d.lsn);
    detections
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_engine::{Database, Flavor};
    use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
    use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};

    fn setup() -> (Database, Box<dyn Connection>) {
        let db = Database::in_memory(Flavor::Postgres);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let driver = TrackingProxy::single_proxy(
            db.clone(),
            LinkProfile::local(),
            ProxyConfig::new(Flavor::Postgres),
        );
        let conn = driver.connect().unwrap();
        (db, conn)
    }

    #[test]
    fn value_spike_flags_the_forged_update_only() {
        let (db, mut conn) = setup();
        conn.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO acct (id, bal) VALUES (1, 100.0)")
            .unwrap();
        conn.execute("UPDATE acct SET bal = bal + 10.0 WHERE id = 1")
            .unwrap();
        conn.execute("ANNOTATE attack").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("UPDATE acct SET bal = 1000000.0 WHERE id = 1")
            .unwrap();
        conn.execute("COMMIT").unwrap();

        let analysis = crate::RepairController::new(db.clone()).analyze().unwrap();
        let hits = detect(
            &analysis,
            &[AnomalyRule::ValueSpike {
                table: "acct".into(),
                column: "bal".into(),
                max_delta: 10_000.0,
            }],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].reason.contains("acct.bal"));
        // And the hit feeds straight into repair.
        let report = crate::RepairController::new(db.clone())
            .repair(&[hits[0].proxy_txn])
            .unwrap();
        assert!(report.undo_set.contains(&hits[0].proxy_txn));
    }

    #[test]
    fn large_write_set_flags_blanket_updates() {
        let (db, mut conn) = setup();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        for i in 0..10 {
            conn.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, 0)"))
                .unwrap();
        }
        // The blanket update touches every row in one transaction.
        conn.execute("UPDATE t SET v = 1").unwrap();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let hits = detect(&analysis, &[AnomalyRule::LargeWriteSet { max_rows: 5 }]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].reason.contains("exceeds 5"));
    }

    #[test]
    fn forbidden_table_write_fires_and_dedupes_per_txn() {
        let (db, mut conn) = setup();
        conn.execute("CREATE TABLE audit (id INTEGER)").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO audit (id) VALUES (1)").unwrap();
        conn.execute("INSERT INTO audit (id) VALUES (2)").unwrap();
        conn.execute("COMMIT").unwrap();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let hits = detect(
            &analysis,
            &[AnomalyRule::ForbiddenTableWrite {
                table: "audit".into(),
            }],
        );
        assert_eq!(hits.len(), 1, "one detection per transaction");
    }

    #[test]
    fn clean_history_produces_no_detections() {
        let (db, mut conn) = setup();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (1, 1.0)")
            .unwrap();
        conn.execute("UPDATE t SET v = 2.0 WHERE id = 1").unwrap();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let rules = vec![
            AnomalyRule::ValueSpike {
                table: "t".into(),
                column: "v".into(),
                max_delta: 100.0,
            },
            AnomalyRule::LargeWriteSet { max_rows: 50 },
            AnomalyRule::ForbiddenTableWrite {
                table: "secrets".into(),
            },
        ];
        assert!(detect(&analysis, &rules).is_empty());
    }
}
