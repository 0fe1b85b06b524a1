//! Model-based property tests: the engine must agree with a trivial
//! in-memory model under arbitrary sequences of inserts, updates (of the
//! value and of the primary key), deletes and transactional rollbacks — on
//! every flavor, live, after in-place crash recovery and after a reopen
//! from the saved log.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeMap;

use proptest::prelude::*;
use resildb_engine::{Database, Flavor, Value};
use resildb_sim::SimContext;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: i64,
        v: i64,
    },
    UpdateSet {
        id: i64,
        v: i64,
    },
    UpdateAdd {
        id: i64,
        delta: i64,
    },
    /// Moves a row to another primary key.
    UpdateKey {
        id: i64,
        new_id: i64,
    },
    Delete {
        id: i64,
    },
    /// BEGIN, apply the inner ops, ROLLBACK — must leave no trace.
    RolledBack(Vec<Op>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let leaf = prop_oneof![
        (0i64..20, 0i64..100).prop_map(|(id, v)| Op::Insert { id, v }),
        (0i64..20, 0i64..100).prop_map(|(id, v)| Op::UpdateSet { id, v }),
        (0i64..20, -5i64..5).prop_map(|(id, delta)| Op::UpdateAdd { id, delta }),
        (0i64..20, 0i64..20).prop_map(|(id, new_id)| Op::UpdateKey { id, new_id }),
        (0i64..20).prop_map(|id| Op::Delete { id }),
    ];
    leaf.clone().prop_recursive(1, 8, 4, move |_| {
        proptest::collection::vec(leaf.clone(), 1..4).prop_map(Op::RolledBack)
    })
}

/// Applies one op to the engine; duplicate-key inserts are allowed to fail
/// (the model skips them identically).
fn apply_engine(session: &mut resildb_engine::Session, op: &Op, model: &mut BTreeMap<i64, i64>) {
    match op {
        Op::Insert { id, v } => {
            let r = session.execute_sql(&format!("INSERT INTO t (id, v) VALUES ({id}, {v})"));
            match r {
                Ok(_) => {
                    let prev = model.insert(*id, *v);
                    assert!(prev.is_none(), "engine accepted duplicate key {id}");
                }
                Err(resildb_engine::EngineError::DuplicateKey(_)) => {
                    assert!(model.contains_key(id), "engine rejected fresh key {id}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        Op::UpdateSet { id, v } => {
            session
                .execute_sql(&format!("UPDATE t SET v = {v} WHERE id = {id}"))
                .unwrap();
            if let Some(slot) = model.get_mut(id) {
                *slot = *v;
            }
        }
        Op::UpdateAdd { id, delta } => {
            session
                .execute_sql(&format!("UPDATE t SET v = v + {delta} WHERE id = {id}"))
                .unwrap();
            if let Some(slot) = model.get_mut(id) {
                *slot += *delta;
            }
        }
        Op::UpdateKey { id, new_id } => {
            let r = session.execute_sql(&format!("UPDATE t SET id = {new_id} WHERE id = {id}"));
            let collides = id != new_id && model.contains_key(id) && model.contains_key(new_id);
            match r {
                Ok(_) => {
                    assert!(!collides, "engine moved {id} onto live key {new_id}");
                    if let Some(v) = model.remove(id) {
                        model.insert(*new_id, v);
                    }
                }
                Err(resildb_engine::EngineError::DuplicateKey(_)) => {
                    assert!(collides, "engine refused to move {id} to free key {new_id}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        Op::Delete { id } => {
            session
                .execute_sql(&format!("DELETE FROM t WHERE id = {id}"))
                .unwrap();
            model.remove(id);
        }
        Op::RolledBack(ops) => {
            session.execute_sql("BEGIN").unwrap();
            // Apply against a throwaway model copy: effects must vanish at
            // ROLLBACK (the copy persists across the inner ops so duplicate
            // detection inside the transaction stays consistent).
            let mut scratch = model.clone();
            for op in ops {
                apply_engine(session, op, &mut scratch);
            }
            session.execute_sql("ROLLBACK").unwrap();
        }
    }
}

fn engine_state(db: &Database) -> BTreeMap<i64, i64> {
    let mut s = db.session();
    s.query("SELECT id, v FROM t ORDER BY id")
        .unwrap()
        .rows
        .into_iter()
        .map(|row| match (&row[0], &row[1]) {
            (Value::Int(a), Value::Int(b)) => (*a, *b),
            other => panic!("{other:?}"),
        })
        .collect()
}

fn check(flavor: Flavor, ops: &[Op]) {
    let db = Database::in_memory(flavor);
    let mut session = db.session();
    session
        .execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    let mut model = BTreeMap::new();
    for op in ops {
        apply_engine(&mut session, op, &mut model);
    }
    assert_matches(&db, &model);
    // The WAL must replay to the same state.
    db.simulate_crash_and_recover().unwrap();
    assert_matches(&db, &model);
    // And so must its durable form, reopened.
    let mut log = Vec::new();
    db.save_wal(&mut log).unwrap();
    let reopened =
        Database::open_from_wal("reopened", flavor, SimContext::free(), &log[..]).unwrap();
    assert_matches(&reopened, &model);
}

/// The full scan and a point lookup of every key of the id domain (which
/// goes through the primary-key index) both agree with `model`: a stale or
/// missing index entry shows even where the scan agrees.
fn assert_matches(db: &Database, model: &BTreeMap<i64, i64>) {
    prop_assert_eq_like(&engine_state(db), model);
    let mut s = db.session();
    for id in 0..20 {
        let rows = s
            .query(&format!("SELECT v FROM t WHERE id = {id}"))
            .unwrap()
            .rows;
        let got: Vec<i64> = rows
            .iter()
            .map(|row| match row[0] {
                Value::Int(v) => v,
                ref other => panic!("{other:?}"),
            })
            .collect();
        let want: Vec<i64> = model.get(&id).copied().into_iter().collect();
        assert_eq!(got, want, "point lookup of id {id}");
    }
}

fn prop_assert_eq_like(a: &BTreeMap<i64, i64>, b: &BTreeMap<i64, i64>) {
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_model_postgres(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        check(Flavor::Postgres, &ops);
    }

    #[test]
    fn engine_matches_model_sybase(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        check(Flavor::Sybase, &ops);
    }

    #[test]
    fn engine_matches_model_oracle(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        check(Flavor::Oracle, &ops);
    }
}
