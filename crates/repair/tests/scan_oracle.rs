//! An independent oracle for the PostgreSQL log scan: over generated
//! tracked histories, `PostgresAdapter::scan` must equal a projection
//! computed here straight from the raw WAL and the `CreateTable` schemas
//! logged in it — sharing no code with the adapter — and the correlation
//! built from the scan must map every committed tracked transaction.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use resildb_engine::{Database, Flavor, LogOp, LogRecord, Row, Value};
use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
use resildb_repair::adapters::{adapter_for, LogAdapter, PostgresAdapter};
use resildb_repair::{NamedRow, RepairOp, RepairRecord, RowAddress, TxnCorrelation};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver, Response};

/// xorshift64*: one `u64` from proptest expands into a whole history, so a
/// failure is reproduced by its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// The same three columns in two declaration orders: a drop and re-create
/// moves every column, so an image named with the wrong incarnation's
/// schema cannot pass.
const LAYOUTS: [&str; 2] = [
    "(k INTEGER PRIMARY KEY, v INTEGER, w VARCHAR(8))",
    "(w VARCHAR(8), v INTEGER, k INTEGER PRIMARY KEY)",
];

/// Enough readers' dependencies to overflow one 200-character
/// `dep_tr_ids` value, so the reader's `trans_dep` row spills.
const SPILL_WRITERS: i64 = 80;

/// A tracked history over table `t`: inserts, real and no-op updates and
/// deletes in committed and rolled-back transactions, drops and
/// re-creates of `t`, and (at a random point) one reader depending on
/// [`SPILL_WRITERS`] writers of table `s`. Returns the number of
/// committed tracked transactions.
fn run_history(conn: &mut dyn Connection, seed: u64) -> usize {
    let mut rng = Rng(seed | 1);
    let mut exec = |sql: &str| {
        conn.execute(sql)
            .unwrap_or_else(|e| panic!("seed {seed}: {sql}: {e}"));
    };
    exec(&format!("CREATE TABLE t {}", LAYOUTS[0]));
    exec("CREATE TABLE s (k INTEGER PRIMARY KEY)");
    let (mut layout, mut next_key, mut committed) = (0, 0i64, 0);
    let spill_at = rng.below(12);
    for step in 0..12 {
        if step == spill_at {
            for k in 0..SPILL_WRITERS {
                exec("BEGIN");
                exec(&format!("INSERT INTO s (k) VALUES ({k})"));
                exec("COMMIT");
            }
            exec("BEGIN");
            exec("SELECT k FROM s");
            exec("COMMIT");
            committed += SPILL_WRITERS as usize + 1;
        }
        if rng.below(6) == 0 {
            layout = 1 - layout;
            exec("DROP TABLE t");
            exec(&format!("CREATE TABLE t {}", LAYOUTS[layout]));
            continue;
        }
        exec("BEGIN");
        for _ in 0..1 + rng.below(4) {
            let key = rng.below(next_key.max(1) as u64);
            match rng.below(5) {
                0 | 1 => {
                    next_key += 1;
                    let w = ["'x'", "'y'", "NULL"][rng.below(3) as usize];
                    exec(&format!(
                        "INSERT INTO t (k, v, w) VALUES ({next_key}, {}, {w})",
                        rng.below(4)
                    ));
                }
                2 => exec(&format!(
                    "UPDATE t SET v = v + {} WHERE k = {key}",
                    rng.below(2)
                )),
                3 => exec(&format!("UPDATE t SET w = 'z' WHERE k <= {key}")),
                _ => exec(&format!("DELETE FROM t WHERE k = {key}")),
            }
        }
        if rng.below(4) == 0 {
            exec("ROLLBACK");
        } else {
            exec("COMMIT");
            committed += 1;
        }
    }
    committed
}

fn named(columns: &[String], row: &Row) -> NamedRow {
    columns.iter().cloned().zip(row.0.iter().cloned()).collect()
}

/// What the scan must return, from the raw log alone: images named with
/// the columns the log's own DDL declared for their table at their LSN,
/// updates cut to the columns the engine logged as changed.
fn projection(wal: &[LogRecord]) -> Vec<RepairRecord> {
    let mut columns: HashMap<String, Vec<String>> = HashMap::new();
    let mut out = Vec::new();
    for rec in wal {
        let (table, op) = match &rec.op {
            LogOp::CreateTable { schema } => {
                let names = schema.columns.iter().map(|c| c.name.clone()).collect();
                columns.insert(schema.name.clone(), names);
                continue;
            }
            LogOp::DropTable { name } => {
                columns.remove(name);
                continue;
            }
            LogOp::Insert {
                table, rowid, row, ..
            } => (
                table.clone(),
                RepairOp::Insert {
                    address: RowAddress::Pseudo(*rowid),
                    row: named(&columns[table], row),
                },
            ),
            LogOp::Delete {
                table, rowid, row, ..
            } => (
                table.clone(),
                RepairOp::Delete {
                    address: RowAddress::Pseudo(*rowid),
                    row: named(&columns[table], row),
                },
            ),
            LogOp::Update {
                table,
                rowid,
                before,
                after,
                changed,
                ..
            } => {
                let names = &columns[table];
                let cut = |image: &Row| {
                    changed
                        .iter()
                        .map(|&i| (names[i].clone(), image.0[i].clone()))
                        .collect()
                };
                (
                    table.clone(),
                    RepairOp::Update {
                        address: RowAddress::Pseudo(*rowid),
                        before: cut(before),
                        after: cut(after),
                    },
                )
            }
            LogOp::Commit => (String::new(), RepairOp::Commit),
            LogOp::Abort => (String::new(), RepairOp::Abort),
        };
        out.push(RepairRecord {
            lsn: rec.lsn,
            internal_txn: rec.txn,
            table: table.into(),
            op,
        });
    }
    out
}

/// `tr_id` of every `trans_dep` row, one entry per row.
fn trans_dep_rows(db: &Database) -> Vec<i64> {
    let mut raw = NativeDriver::new(db.clone(), LinkProfile::local())
        .connect()
        .unwrap();
    match raw.execute("SELECT tr_id FROM trans_dep").unwrap() {
        Response::Rows(r) => r
            .rows
            .iter()
            .map(|row| match row[0] {
                Value::Int(tr) => tr,
                ref other => panic!("tr_id {other:?}"),
            })
            .collect(),
        other => panic!("expected rows, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn postgres_scan_equals_the_raw_log_projection(seed in any::<u64>()) {
        let db = Database::in_memory(Flavor::Postgres);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let config = ProxyConfig::builder(Flavor::Postgres)
            .record_read_only_deps(true)
            .build();
        let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
        let committed = run_history(&mut *driver.connect().unwrap(), seed);

        let scan = PostgresAdapter.scan(&db).unwrap();
        prop_assert_eq!(&scan, &projection(&db.wal_records()));

        let rows = trans_dep_rows(&db);
        let tracked: BTreeSet<i64> = rows.iter().copied().collect();
        prop_assert!(rows.len() > tracked.len(), "no trans_dep row spilled");
        prop_assert_eq!(tracked.len(), committed);
        let correlation = TxnCorrelation::from_records(&scan).unwrap();
        let mapped: BTreeSet<i64> = correlation.internal_of.keys().copied().collect();
        prop_assert_eq!(mapped, tracked);
    }
}

/// A table dropped mid-history and re-created with its columns reordered:
/// on every flavor, each image is named with the schema in effect at its
/// LSN, every image of one schema version shares that version's column
/// list, and the re-create installs a new list instead of editing the old
/// one, so images scanned before it keep their names.
#[test]
fn a_recreated_table_gets_a_new_shared_column_list() {
    for flavor in [Flavor::Postgres, Flavor::Oracle, Flavor::Sybase] {
        let db = Database::in_memory(flavor);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let config = ProxyConfig::new(flavor);
        let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
        let mut conn = driver.connect().unwrap();
        for sql in [
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)",
            "INSERT INTO t (a, b) VALUES (1, 10), (2, 20)",
            "UPDATE t SET b = 11 WHERE a = 1",
            // Sybase recovers a MODIFY's row only from a later DELETE once
            // its table is dropped.
            "DELETE FROM t WHERE a = 1",
            "DROP TABLE t",
            "CREATE TABLE t (b INTEGER, c INTEGER, a INTEGER PRIMARY KEY)",
            "INSERT INTO t (a, b, c) VALUES (3, 30, 300)",
            "UPDATE t SET a = 4 WHERE a = 3",
        ] {
            conn.execute(sql).unwrap();
        }
        let records = adapter_for(flavor).scan(&db).unwrap();
        let images: Vec<(&NamedRow, &Arc<[String]>)> = (records.iter())
            .filter(|r| &*r.table == "t")
            .flat_map(|r| match &r.op {
                RepairOp::Insert { row, .. } | RepairOp::Delete { row, .. } => vec![row],
                RepairOp::Update { before, after, .. } => vec![before, after],
                other => panic!("{flavor}: unexpected {other:?}"),
            })
            .map(|image| (image, image.schema_columns()))
            .collect();
        // Two inserts, an update (before and after) and a delete, then
        // an insert and an update.
        assert_eq!(images.len(), 8, "{flavor}");
        let (first, second) = images.split_at(5);
        for (incarnation, columns) in [(first, ["a", "b"]), (second, ["b", "c"])] {
            let list = incarnation[0].1;
            assert_eq!(list[..2], columns, "{flavor}");
            for (_, other) in incarnation {
                assert!(
                    Arc::ptr_eq(list, other),
                    "{flavor}: one list per schema version"
                );
            }
        }
        assert!(!Arc::ptr_eq(first[0].1, second[0].1), "{flavor}");
        assert_eq!(
            first[0].1[..2],
            ["a", "b"],
            "{flavor}: the old list is unchanged"
        );
        // The updates name their changed columns (the value and the
        // proxy's `trid` stamp) through their version's list.
        assert_eq!(first[2].0.columns()[0], "b", "{flavor}");
        assert_eq!(first[3].0.get("b"), Some(&Value::Int(11)), "{flavor}");
        assert_eq!(second[1].0.columns()[0], "a", "{flavor}");
        assert_eq!(second[2].0.get("a"), Some(&Value::Int(4)), "{flavor}");
        assert_eq!(second[0].0.get("c"), Some(&Value::Int(300)), "{flavor}");
    }
}
