//! Differential test of the access-path planner: random single-table
//! statements must give identical answers — rows, their order, errors, the
//! logged row changes — whether a keyed table is reached through the
//! planned path or by walking its whole index with no early stop
//! ([`WHOLE_INDEX_WALKS`], the test-only reference).
//!
//! It lives inside the crate, not in `tests/`, because that hook is
//! `#[cfg(test)]` and so invisible to an integration test.

use proptest::prelude::*;

use crate::exec::WHOLE_INDEX_WALKS;
use crate::{Database, EngineError, ExecOutcome, Flavor, InternalTxnId, LogOp, Session};

/// xorshift64*: one `u64` from proptest expands into a whole scenario, so a
/// failure is reproduced by its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

#[derive(Clone, Copy)]
enum Ty {
    Int,
    Str,
    Float,
}

/// Stored values come from the first four of each list (small domains, so
/// equality prefixes select several rows); predicates also use the rest.
const INTS: [&str; 8] = ["0", "1", "2", "3", "-1", "4", "-2", "5"];
const STRS: [&str; 6] = ["'a'", "'a b'", "'ab'", "'b'", "''", "'zz'"];
const FLOATS: [&str; 6] = ["0.0", "1.0", "2.0", "2.5", "-1.5", "3.0"];

impl Ty {
    fn ddl(self) -> &'static str {
        match self {
            Ty::Int => "INTEGER",
            Ty::Str => "VARCHAR(4)",
            Ty::Float => "FLOAT",
        }
    }

    fn literals(self) -> &'static [&'static str] {
        match self {
            Ty::Int => &INTS,
            Ty::Str => &STRS,
            Ty::Float => &FLOATS,
        }
    }

    /// A value to store in a column of this type.
    fn value(self, rng: &mut Rng) -> &'static str {
        rng.pick(&self.literals()[..4])
    }

    /// A predicate literal: usually of this type, otherwise NULL, a number
    /// of the other kind (`2.5` against an INTEGER), or the wrong kind
    /// altogether (a string against a number).
    fn literal(self, rng: &mut Rng) -> &'static str {
        match (rng.below(20), self) {
            (0, _) => "NULL",
            (1, _) => rng.pick(&INTS),
            (2, _) => rng.pick(&STRS),
            (3..=6, Ty::Int | Ty::Float) => rng.pick(&FLOATS),
            _ => rng.pick(self.literals()),
        }
    }
}

/// Columns `k0..k3` (the first `key_cols` form the primary key, in that
/// order) plus two payload columns.
struct Shape {
    key_types: [Ty; 4],
    key_cols: usize,
}

impl Shape {
    fn columns(&self) -> Vec<(String, Ty)> {
        let mut cols: Vec<(String, Ty)> = self
            .key_types
            .iter()
            .enumerate()
            .map(|(i, ty)| (format!("k{i}"), *ty))
            .collect();
        cols.push(("v".into(), Ty::Int));
        cols.push(("w".into(), Ty::Str));
        cols
    }

    fn ddl(&self) -> String {
        let cols: Vec<String> = self
            .columns()
            .iter()
            .map(|(name, ty)| format!("{name} {}", ty.ddl()))
            .collect();
        let mut ddl = format!("CREATE TABLE t ({}", cols.join(", "));
        if self.key_cols > 0 {
            let key: Vec<String> = (0..self.key_cols).map(|i| format!("k{i}")).collect();
            ddl.push_str(&format!(", PRIMARY KEY ({})", key.join(", ")));
        }
        ddl.push(')');
        ddl
    }

    /// One predicate on `column`: the shapes the planner reads (`IN`,
    /// `BETWEEN`, comparisons either way round), their negations, and a
    /// few it must leave alone.
    fn conjunct(&self, rng: &mut Rng, column: &str, ty: Ty) -> String {
        let not = if rng.chance(15) { "NOT " } else { "" };
        match rng.below(12) {
            0 => format!("{column} = {}", ty.literal(rng)),
            1..=3 => {
                let members: Vec<&str> = (0..1 + rng.below(5)).map(|_| ty.literal(rng)).collect();
                format!("{column} {not}IN ({})", members.join(", "))
            }
            4 | 5 => format!(
                "{column} {not}BETWEEN {} AND {}",
                ty.literal(rng),
                ty.literal(rng)
            ),
            6..=8 => {
                let op = rng.pick(&["<", "<=", ">", ">="]);
                if rng.chance(25) {
                    format!("{} {op} {column}", ty.literal(rng))
                } else {
                    format!("{column} {op} {}", ty.literal(rng))
                }
            }
            9 => format!("{column} <> {}", ty.literal(rng)),
            10 => format!("{column} IS {not}NULL"),
            _ => format!("({column} = {} OR v = 1)", ty.literal(rng)),
        }
    }

    /// Equality on the first `prefix` key columns, usually something on
    /// the next one, and a little noise anywhere — in random order.
    fn where_clause(&self, rng: &mut Rng, prefix: usize) -> String {
        let cols = self.columns();
        let mut conjuncts = Vec::new();
        for (name, ty) in &cols[..prefix] {
            conjuncts.push(format!("{name} = {}", ty.literal(rng)));
        }
        if rng.chance(80) {
            let (name, ty) = &cols[prefix];
            conjuncts.push(self.conjunct(rng, name, *ty));
            if rng.chance(30) {
                conjuncts.push(self.conjunct(rng, name, *ty));
            }
        }
        if rng.chance(40) {
            let (name, ty) = &cols[rng.below(cols.len())];
            conjuncts.push(self.conjunct(rng, name, *ty));
        }
        for i in (1..conjuncts.len()).rev() {
            conjuncts.swap(i, rng.below(i + 1));
        }
        if conjuncts.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conjuncts.join(" AND "))
        }
    }

    fn statement(&self, rng: &mut Rng) -> String {
        let cols = self.columns();
        // Mostly a proper, non-empty prefix: the paths under test.
        let prefix = if self.key_cols > 1 && rng.chance(70) {
            1 + rng.below(self.key_cols - 1)
        } else {
            rng.below(self.key_cols + 1)
        };
        let filter = self.where_clause(rng, prefix);
        match rng.below(10) {
            0 => format!("DELETE FROM t{filter}"),
            1 | 2 => {
                let set = match rng.below(4) {
                    0 => "w = 'x'".to_string(),
                    // Moves rows inside the index the statement walks.
                    1 if self.key_cols > 0 => {
                        let i = rng.below(self.key_cols);
                        format!("k{i} = {}", self.key_types[i].value(rng))
                    }
                    _ => "v = v + 1".to_string(),
                };
                format!("UPDATE t SET {set}{filter}")
            }
            _ => {
                let projection = rng.pick(&["*", "k0, v", "v", "k1, k2, k3, w"]);
                let distinct = if rng.chance(5) { "DISTINCT " } else { "" };
                let mut sql = format!("SELECT {distinct}{projection} FROM t{filter}");
                if rng.chance(70) {
                    // Mostly the key columns right after the equality
                    // prefix, all one way, as an ordered walk needs them;
                    // sometimes shifted, mixed or with a non-key column.
                    let from = if rng.chance(80) {
                        prefix
                    } else {
                        rng.below(cols.len())
                    };
                    let desc = rng.chance(50);
                    let mut items = Vec::new();
                    let rest = self.key_cols.saturating_sub(from);
                    let count = if rest > 0 && rng.chance(60) {
                        rest // completes the key
                    } else {
                        1 + rng.below(4)
                    };
                    for (name, _) in cols.iter().skip(from).take(count) {
                        let desc = if rng.chance(15) { !desc } else { desc };
                        items.push(format!("{name}{}", if desc { " DESC" } else { "" }));
                    }
                    sql.push_str(&format!(" ORDER BY {}", items.join(", ")));
                }
                if rng.chance(70) {
                    sql.push_str(&format!(" LIMIT {}", rng.below(6)));
                }
                if rng.chance(5) {
                    sql.push_str(" FOR UPDATE");
                }
                sql
            }
        }
    }
}

/// Resets the hook even when an assertion unwinds.
struct WholeIndexWalks;

impl WholeIndexWalks {
    fn on() -> Self {
        WHOLE_INDEX_WALKS.set(true);
        WholeIndexWalks
    }
}

impl Drop for WholeIndexWalks {
    fn drop(&mut self) {
        WHOLE_INDEX_WALKS.set(false);
    }
}

fn reference(session: &mut Session, sql: &str) -> Result<ExecOutcome, EngineError> {
    let _walks = WholeIndexWalks::on();
    session.execute_sql(sql)
}

/// The logged row changes, in order. Abort records are left out: a
/// statement may fail in the reference only (below), and whether the
/// rollback that follows logs an abort depends on how far it got.
fn logged(db: &Database) -> Vec<(InternalTxnId, LogOp)> {
    db.wal_records()
        .into_iter()
        .filter(|r| r.op != LogOp::Abort)
        .map(|r| (r.txn, r.op))
        .collect()
}

fn run(seed: u64) {
    let mut rng = Rng(seed | 1);
    let types = [
        Ty::Int,
        Ty::Int,
        Ty::Int,
        Ty::Int,
        Ty::Str,
        Ty::Str,
        Ty::Float,
    ];
    let shape = Shape {
        key_types: [
            rng.pick(&types),
            rng.pick(&types),
            rng.pick(&types),
            rng.pick(&types),
        ],
        key_cols: rng.pick(&[0, 1, 2, 2, 3, 3, 4, 4]),
    };
    let flavor = rng.pick(&Flavor::ALL);
    let planned = Database::in_memory(flavor);
    let whole = Database::in_memory(flavor);
    let (mut p, mut w) = (planned.session(), whole.session());
    let mut log = vec![shape.ddl()];
    p.execute_sql(&log[0]).unwrap();
    w.execute_sql(&log[0]).unwrap();
    for _ in 0..rng.below(60) {
        let values: Vec<&str> = shape
            .columns()
            .iter()
            .map(|(_, ty)| ty.value(&mut rng))
            .collect();
        let sql = format!("INSERT INTO t VALUES ({})", values.join(", "));
        // A duplicate key is refused by both.
        assert_eq!(p.execute_sql(&sql), w.execute_sql(&sql), "{sql}");
        log.push(sql);
    }
    for _ in 0..1 + rng.below(16) {
        let sql = shape.statement(&mut rng);
        log.push(sql.clone());
        let context = || format!("seed {seed}:\n{}", log.join(";\n"));
        p.execute_sql("BEGIN").unwrap();
        w.execute_sql("BEGIN").unwrap();
        let got = p.execute_sql(&sql);
        let expected = reference(&mut w, &sql);
        let agreed = match (&got, &expected) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{}", context());
                true
            }
            // The reference evaluates the predicate on rows the planned
            // path never reaches, so only it may meet a row on which a
            // comparison is a type error (as at any index-using DBMS).
            (_, Err(EngineError::Type(_))) => matches!(got, Ok(_) | Err(EngineError::Type(_))),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        assert!(agreed, "{got:?} vs {expected:?}\n{}", context());
        let end = if got.is_ok() && expected.is_ok() {
            "COMMIT"
        } else {
            "ROLLBACK"
        };
        p.execute_sql(end).unwrap();
        w.execute_sql(end).unwrap();
    }
    let context = || format!("seed {seed}:\n{}", log.join(";\n"));
    assert_eq!(logged(&planned), logged(&whole), "{}", context());
    assert_eq!(
        planned.snapshot_rows("t").unwrap(),
        whole.snapshot_rows("t").unwrap(),
        "{}",
        context()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn planned_paths_agree_with_whole_index_walks(seed in any::<u64>()) {
        run(seed);
    }
}
