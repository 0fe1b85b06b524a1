//! Executor edge cases: resolution errors, three-way joins, prefix-index
//! access paths, NULL handling in sorts, and concurrent sessions.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_engine::{Database, EngineError, Flavor, Value};

fn db() -> Database {
    Database::in_memory(Flavor::Postgres)
}

#[test]
fn three_way_join_with_cross_predicates() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)")
        .unwrap();
    s.execute_sql("CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER)")
        .unwrap();
    s.execute_sql("CREATE TABLE c (id INTEGER PRIMARY KEY, b_id INTEGER, v VARCHAR(4))")
        .unwrap();
    s.execute_sql("INSERT INTO a (id, x) VALUES (1, 10), (2, 20)")
        .unwrap();
    s.execute_sql("INSERT INTO b (id, a_id) VALUES (1, 1), (2, 2), (3, 1)")
        .unwrap();
    s.execute_sql("INSERT INTO c (id, b_id, v) VALUES (1, 1, 'p'), (2, 3, 'q'), (3, 2, 'r')")
        .unwrap();
    let r = s
        .query(
            "SELECT a.x, c.v FROM a, b, c \
             WHERE b.a_id = a.id AND c.b_id = b.id AND a.id = 1 ORDER BY c.v",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(10), Value::from("p")],
            vec![Value::Int(10), Value::from("q")],
        ]
    );
}

#[test]
fn ambiguous_unqualified_column_is_an_error() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t1 (id INTEGER, v INTEGER)")
        .unwrap();
    s.execute_sql("CREATE TABLE t2 (id INTEGER, w INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t1 (id, v) VALUES (1, 1)")
        .unwrap();
    s.execute_sql("INSERT INTO t2 (id, w) VALUES (1, 1)")
        .unwrap();
    let err = s.query("SELECT id FROM t1, t2").unwrap_err();
    assert!(matches!(err, EngineError::AmbiguousColumn(_)), "{err}");
    // Qualified access works.
    assert_eq!(s.query("SELECT t1.id FROM t1, t2").unwrap().rows.len(), 1);
}

#[test]
fn unknown_table_alias_in_projection_is_an_error() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER)").unwrap();
    assert!(matches!(
        s.query("SELECT zz.id FROM t"),
        Err(EngineError::UnknownTable(_))
    ));
    assert!(matches!(
        s.query("SELECT zz.* FROM t"),
        Err(EngineError::UnknownTable(_))
    ));
}

#[test]
fn nulls_sort_stably_and_compare_unknown() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t (id, v) VALUES (1, 3), (2, NULL), (3, 1)")
        .unwrap();
    // NULL never matches an equality or range predicate.
    assert!(s
        .query("SELECT id FROM t WHERE v = 1 AND id = 2")
        .unwrap()
        .rows
        .is_empty());
    let r = s.query("SELECT id FROM t WHERE v > 0 ORDER BY v").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(3)], vec![Value::Int(1)]]);
    // IS NULL finds it.
    let r = s.query("SELECT id FROM t WHERE v IS NULL").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn prefix_index_and_full_scan_agree() {
    let db = db();
    let mut s = db.session();
    s.execute_sql(
        "CREATE TABLE ol (w INTEGER, d INTEGER, o INTEGER, n INTEGER, amt FLOAT, \
         PRIMARY KEY (w, d, o, n))",
    )
    .unwrap();
    for w in 1..=2 {
        for d in 1..=2 {
            for o in 1..=5 {
                for n in 1..=2 {
                    s.execute_sql(&format!(
                        "INSERT INTO ol (w, d, o, n, amt) VALUES ({w}, {d}, {o}, {n}, {o}.5)"
                    ))
                    .unwrap();
                }
            }
        }
    }
    // Prefix-index path (equality on w, d) with a range on o.
    let indexed = s
        .query("SELECT o, n FROM ol WHERE w = 2 AND d = 1 AND o BETWEEN 2 AND 4 ORDER BY o, n")
        .unwrap();
    // Same predicate phrased so no index prefix applies (range on w).
    let scanned = s
        .query("SELECT o, n FROM ol WHERE w > 1 AND d = 1 AND o BETWEEN 2 AND 4 ORDER BY o, n")
        .unwrap();
    assert_eq!(indexed.rows.len(), 6);
    assert_eq!(indexed.rows, scanned.rows);
}

#[test]
fn update_changing_pk_reindexes() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t (id, v) VALUES (1, 10)")
        .unwrap();
    s.execute_sql("UPDATE t SET id = 2 WHERE id = 1").unwrap();
    assert!(s
        .query("SELECT v FROM t WHERE id = 1")
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(
        s.query("SELECT v FROM t WHERE id = 2").unwrap().rows[0][0],
        Value::Int(10)
    );
}

#[test]
fn update_to_conflicting_pk_is_rejected() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
        .unwrap();
    let err = s
        .execute_sql("UPDATE t SET id = 2 WHERE id = 1")
        .unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey(_)));
    // Auto-commit statement rolled back: both rows intact.
    assert_eq!(db.row_count("t").unwrap(), 2);
    assert_eq!(
        s.query("SELECT v FROM t WHERE id = 1").unwrap().rows[0][0],
        Value::Int(10)
    );
}

#[test]
fn division_by_zero_surfaces_and_aborts_statement() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t (id, v) VALUES (1, 0), (2, 5)")
        .unwrap();
    let err = s.query("SELECT 10 / v FROM t").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)));
}

#[test]
fn order_by_expression_and_multiple_keys() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (a INTEGER, b INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t (a, b) VALUES (1, 3), (2, 1), (1, 1), (2, 2)")
        .unwrap();
    let r = s
        .query("SELECT a, b FROM t ORDER BY a DESC, a * 10 + b")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(3)],
        ]
    );
}

#[test]
fn group_by_composite_key_and_having_free_filtering() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (r VARCHAR(2), q INTEGER, amt INTEGER)")
        .unwrap();
    s.execute_sql(
        "INSERT INTO t (r, q, amt) VALUES ('e', 1, 5), ('e', 1, 7), ('e', 2, 1), ('w', 1, 9)",
    )
    .unwrap();
    let r = s
        .query("SELECT r, q, SUM(amt), AVG(amt) FROM t GROUP BY r, q ORDER BY r, q")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][2], Value::Int(12));
    assert_eq!(r.rows[0][3], Value::Float(6.0));
}

#[test]
fn concurrent_tpcc_style_counter_updates_are_serializable() {
    // 4 threads × 25 increments on one row must produce exactly 100.
    let db = db();
    {
        let mut s = db.session();
        s.execute_sql("CREATE TABLE counter (id INTEGER PRIMARY KEY, n INTEGER)")
            .unwrap();
        s.execute_sql("INSERT INTO counter (id, n) VALUES (1, 0)")
            .unwrap();
    }
    let mut handles = Vec::new();
    for _ in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            for _ in 0..25 {
                loop {
                    match s.execute_sql("UPDATE counter SET n = n + 1 WHERE id = 1") {
                        Ok(_) => break,
                        Err(EngineError::Deadlock) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut s = db.session();
    assert_eq!(
        s.query("SELECT n FROM counter WHERE id = 1").unwrap().rows[0][0],
        Value::Int(100)
    );
}

#[test]
fn concurrent_transfers_preserve_total_balance() {
    let db = db();
    {
        let mut s = db.session();
        s.execute_sql("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
            .unwrap();
        s.execute_sql("INSERT INTO acct (id, bal) VALUES (1, 500), (2, 500), (3, 500)")
            .unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..3i64 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            let from = t + 1;
            let to = (t + 1) % 3 + 1;
            for _ in 0..20 {
                loop {
                    let attempt = (|| -> Result<(), EngineError> {
                        s.execute_sql("BEGIN")?;
                        s.execute_sql(&format!("UPDATE acct SET bal = bal - 5 WHERE id = {from}"))?;
                        s.execute_sql(&format!("UPDATE acct SET bal = bal + 5 WHERE id = {to}"))?;
                        s.execute_sql("COMMIT")?;
                        Ok(())
                    })();
                    match attempt {
                        Ok(()) => break,
                        Err(EngineError::Deadlock) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut s = db.session();
    let r = s.query("SELECT SUM(bal) FROM acct").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1500), "money is conserved");
}

/// A predicate literal is compared, never stored: one that has no exact
/// value of a key column's type falls through to the row filter, so a keyed
/// table answers exactly as an unkeyed one does.
#[test]
fn key_literals_that_do_not_coerce_fall_through_to_the_filter() {
    for ddl in [
        "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))",
        "CREATE TABLE t (a INTEGER, b INTEGER)",
    ] {
        let db = db();
        let mut s = db.session();
        s.execute_sql(ddl).unwrap();
        s.execute_sql("INSERT INTO t (a, b) VALUES (1, 1), (2, 2)")
            .unwrap();
        assert!(
            s.query("SELECT b FROM t WHERE a = 1.5")
                .unwrap()
                .rows
                .is_empty(),
            "{ddl}"
        );
        assert_eq!(
            s.execute_sql("UPDATE t SET b = 9 WHERE a = 1.5")
                .unwrap()
                .affected(),
            Some(0),
            "{ddl}"
        );
        // `b = 'q'` is the comparison's own type error on the row that
        // passes `a = 1`; it is not a store error.
        let err = s
            .execute_sql("DELETE FROM t WHERE a = 1 AND b = 'q'")
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Type(m) if m.contains("cannot compare")),
            "{ddl}: {err}"
        );
        // ... and where no row passes `a = 3` there is nothing to compare.
        assert_eq!(
            s.execute_sql("DELETE FROM t WHERE a = 3 AND b = 'q'")
                .unwrap()
                .affected(),
            Some(0),
            "{ddl}"
        );
        assert_eq!(db.row_count("t").unwrap(), 2, "{ddl}");
        // An integral float names an integer key exactly.
        assert_eq!(
            s.query("SELECT b FROM t WHERE a = 2.0 AND b = 2")
                .unwrap()
                .rows,
            vec![vec![Value::Int(2)]],
            "{ddl}"
        );
    }
}

/// `ORDER BY b DESC LIMIT n` on key (a, b, c) does not complete the key:
/// rows that tie on `b` must come out in the order sort-then-truncate gives
/// them (stable, so ascending `c`), which a backwards index walk would not.
#[test]
fn desc_limit_with_ties_on_a_non_completing_key_matches_sort_then_truncate() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, PRIMARY KEY (a, b, c))")
        .unwrap();
    s.execute_sql(
        "INSERT INTO t (a, b, c) VALUES (1, 2, 3), (1, 2, 1), (1, 1, 5), (1, 2, 2), (2, 9, 9)",
    )
    .unwrap();
    let mut rows = |sql: &str| s.query(sql).unwrap().rows;
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    assert_eq!(
        rows("SELECT b, c FROM t WHERE a = 1 ORDER BY b DESC LIMIT 2"),
        vec![ints(&[2, 1]), ints(&[2, 2])]
    );
    // Completing the key: a true backwards walk, no ties to misorder.
    assert_eq!(
        rows("SELECT b, c FROM t WHERE a = 1 ORDER BY b DESC, c DESC LIMIT 2"),
        vec![ints(&[2, 3]), ints(&[2, 2])]
    );
    // Ascending stops early on any prefix of the remaining key columns.
    assert_eq!(
        rows("SELECT b, c FROM t WHERE a = 1 ORDER BY b LIMIT 2"),
        vec![ints(&[1, 5]), ints(&[2, 1])]
    );
    assert_eq!(
        rows("SELECT c FROM t WHERE a = 1 AND b IN (2, 1, 2) ORDER BY b DESC, c DESC LIMIT 3"),
        vec![ints(&[3]), ints(&[2]), ints(&[1])]
    );
}

#[test]
fn contradictory_key_equalities_match_nothing() {
    let db = db();
    let mut s = db.session();
    s.execute_sql("CREATE TABLE t (a INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t (a, v) VALUES (1, 10), (2, 20)")
        .unwrap();
    assert!(s
        .query("SELECT v FROM t WHERE a = 1 AND a = 2")
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(
        s.execute_sql("UPDATE t SET v = 0 WHERE a = 2 AND a = 1")
            .unwrap()
            .affected(),
        Some(0)
    );
    // Ranges that exclude everything, either way round.
    assert!(s
        .query("SELECT v FROM t WHERE a = 1 AND v BETWEEN 30 AND 5")
        .unwrap()
        .rows
        .is_empty());
}

/// Compensating statements address rows by the flavor's row-id
/// pseudo-column; that lookup ignores the key and still applies the rest of
/// the predicate.
#[test]
fn rowid_pseudo_column_lookups_are_unchanged() {
    for (flavor, pseudo) in [(Flavor::Postgres, "ctid"), (Flavor::Oracle, "rowid")] {
        let db = Database::in_memory(flavor);
        let mut s = db.session();
        s.execute_sql("CREATE TABLE t (a INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        s.execute_sql("INSERT INTO t (a, v) VALUES (7, 70), (8, 80)")
            .unwrap();
        let rid = match s
            .query(&format!("SELECT {pseudo} FROM t WHERE a = 8"))
            .unwrap()
            .rows[0][0]
        {
            Value::Int(rid) => rid,
            ref other => panic!("{other:?}"),
        };
        assert_eq!(
            s.query(&format!("SELECT a, v FROM t WHERE {pseudo} = {rid}"))
                .unwrap()
                .rows,
            vec![vec![Value::Int(8), Value::Int(80)]]
        );
        assert!(s
            .query(&format!("SELECT a FROM t WHERE {pseudo} = {rid} AND a = 7"))
            .unwrap()
            .rows
            .is_empty());
        assert_eq!(
            s.execute_sql(&format!("UPDATE t SET v = 81 WHERE {pseudo} = {rid}"))
                .unwrap()
                .affected(),
            Some(1)
        );
        assert_eq!(
            s.execute_sql(&format!("DELETE FROM t WHERE t.{pseudo} = {rid}"))
                .unwrap()
                .affected(),
            Some(1)
        );
        assert!(s
            .query(&format!("SELECT a FROM t WHERE {pseudo} = {rid}"))
            .unwrap()
            .rows
            .is_empty());
        // A table that declares a column of that name reads the column.
        s.execute_sql(&format!(
            "CREATE TABLE u (a INTEGER PRIMARY KEY, {pseudo} INTEGER)"
        ))
        .unwrap();
        s.execute_sql(&format!("INSERT INTO u (a, {pseudo}) VALUES (1, 42)"))
            .unwrap();
        assert_eq!(
            s.query(&format!("SELECT a FROM u WHERE {pseudo} = 42"))
                .unwrap()
                .rows,
            vec![vec![Value::Int(1)]]
        );
    }
}
