//! The log fold against the SQL join it replaced. Over generated tracked
//! histories on all three flavors and both tracking granularities —
//! reads with provenance, annotated and rolled-back transactions,
//! tracking rows written, edited and deleted outside the proxy (among
//! them `trans_dep` rows naming one `(tr_id, dep)` pair twice), and a
//! quiesced repair whose compensation deletes the undone transactions'
//! tracking rows — the graph `analyze()` folds from the log alone must
//! equal the graph the SQL view of the tracking tables gives, after every
//! step of the history.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod sql_oracle;

use proptest::prelude::*;
use resildb_engine::{Database, Flavor};
use resildb_proxy::{prepare_database, ProxyConfig, TrackingGranularity, TrackingProxy};
use resildb_repair::RepairController;
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};

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

fn exec(conn: &mut dyn Connection, sql: &str) {
    conn.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// What a history exercised, so the generator can be held to covering
/// the cases the oracle exists for.
#[derive(Default)]
struct Coverage {
    repeated_pairs: bool,
    repaired: bool,
    edited_outside: bool,
}

/// Folded graph == SQL-join graph, at the log's current end. Returns the
/// tracked transactions.
fn fold_equals_join(db: &Database, step: usize) -> Result<Vec<i64>, TestCaseError> {
    let analysis = RepairController::new(db.clone()).analyze().unwrap();
    let oracle = sql_oracle::sql_graph_of(db, &analysis);
    prop_assert!(
        analysis.graph == oracle,
        "step {}: fold {:#?}\njoin {:#?}",
        step,
        analysis.graph,
        oracle
    );
    Ok(analysis.tracked_transactions().into_iter().collect())
}

fn history(seed: u64, coverage: &mut Coverage) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed | 1);
    let flavor = [Flavor::Postgres, Flavor::Oracle, Flavor::Sybase][rng.below(3) as usize];
    let granularity =
        [TrackingGranularity::Row, TrackingGranularity::Column][rng.below(2) as usize];
    let db = Database::in_memory(flavor);
    let mut raw = NativeDriver::new(db.clone(), LinkProfile::local())
        .connect()
        .unwrap();
    prepare_database(&mut *raw).unwrap();
    let config = ProxyConfig::builder(flavor)
        .record_read_only_deps(true)
        .granularity(granularity)
        .build();
    let proxy = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
    let mut conn = proxy.connect().unwrap();
    exec(
        &mut *conn,
        "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, w INTEGER)",
    );
    exec(
        &mut *conn,
        "CREATE TABLE u (k INTEGER PRIMARY KEY, v INTEGER)",
    );
    exec(&mut *conn, "INSERT INTO u (k, v) VALUES (1, 1)");
    // Ids written outside the proxy start far above the proxy's own.
    let (mut next_key, mut forged) = (0u64, 900_000i64);
    let mut committed = fold_equals_join(&db, 0)?;
    // A repair undoes tracking rows an outside edit may already have
    // deleted, so it runs only before any.
    let (mut repaired, mut edited) = (false, false);
    for step in 0..24 {
        let key = rng.below(next_key.max(1)) + 1;
        match rng.below(10) {
            0..=5 => {
                if rng.below(2) == 0 {
                    exec(&mut *conn, &format!("ANNOTATE step_{step}"));
                }
                exec(&mut *conn, "BEGIN");
                for _ in 0..1 + rng.below(3) {
                    let sql = match rng.below(7) {
                        0 | 1 => {
                            next_key += 1;
                            format!("INSERT INTO t (k, v, w) VALUES ({next_key}, 0, 0)")
                        }
                        2 => format!("UPDATE t SET v = v + 1 WHERE k = {key}"),
                        3 => format!("UPDATE t SET w = {step} WHERE k <= {key}"),
                        4 => format!("SELECT v FROM t WHERE k = {key}"),
                        5 => "SELECT * FROM u".into(),
                        _ => format!("SELECT v, w FROM t WHERE k <= {key}"),
                    };
                    exec(&mut *conn, &sql);
                }
                if rng.below(5) == 0 {
                    exec(&mut *conn, "ROLLBACK");
                } else {
                    exec(&mut *conn, "COMMIT");
                }
            }
            6 => {
                // Tracking rows written outside the proxy: one pair named
                // twice in trans_dep, with two provenance rows.
                let dep = committed[rng.below(committed.len() as u64) as usize];
                let other = committed[rng.below(committed.len() as u64) as usize];
                exec(&mut *raw, "BEGIN");
                exec(
                    &mut *raw,
                    &format!(
                        "INSERT INTO trans_dep_prov (tr_id, dep_tr_id, via_table, read_cols) \
                         VALUES ({forged}, {dep}, 't', 'v'), ({forged}, {dep}, 'u', '')"
                    ),
                );
                exec(
                    &mut *raw,
                    &format!("INSERT INTO annot (tr_id, descr) VALUES ({forged}, 'forged')"),
                );
                exec(
                    &mut *raw,
                    &format!(
                        "INSERT INTO trans_dep (tr_id, dep_tr_ids) VALUES ({forged}, '{dep} {other} {dep}')"
                    ),
                );
                exec(
                    &mut *raw,
                    if rng.below(4) == 0 {
                        "ROLLBACK"
                    } else {
                        "COMMIT"
                    },
                );
                forged += 1;
                coverage.repeated_pairs = true;
            }
            7 => {
                // Tracking rows edited and deleted outside the proxy.
                let tr = committed[rng.below(committed.len() as u64) as usize];
                exec(&mut *raw, "BEGIN");
                let sql = match rng.below(3) {
                    0 => format!("UPDATE annot SET descr = 'renamed_{step}' WHERE tr_id = {tr}"),
                    1 => format!("DELETE FROM trans_dep_prov WHERE tr_id = {tr}"),
                    _ => format!("DELETE FROM annot WHERE tr_id = {tr}"),
                };
                exec(&mut *raw, &sql);
                exec(
                    &mut *raw,
                    if rng.below(4) == 0 {
                        "ROLLBACK"
                    } else {
                        "COMMIT"
                    },
                );
                edited = true;
                coverage.edited_outside = true;
            }
            _ if !repaired && !edited && committed.len() > 2 => {
                // A quiesced repair: its compensation deletes the undone
                // transactions' tracking rows, which the fold must retract.
                let attack = committed[rng.below(committed.len() as u64) as usize];
                RepairController::new(db.clone()).repair(&[attack]).unwrap();
                repaired = true;
                coverage.repaired = true;
            }
            _ => {}
        }
        committed = fold_equals_join(&db, step)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_log_fold_equals_the_sql_join_after_every_step(seed in any::<u64>()) {
        history(seed, &mut Coverage::default())?;
    }
}

/// The generator reaches every case the oracle exists for.
#[test]
fn generated_histories_cover_repairs_and_rows_written_outside_the_proxy() {
    let mut coverage = Coverage::default();
    for seed in 0..12 {
        history(seed, &mut coverage).unwrap();
    }
    assert!(coverage.repeated_pairs && coverage.repaired && coverage.edited_outside);
}
