//! Transparency property: the tracking proxy must be invisible to clients.
//! For randomly generated queries over identical data, a tracked database
//! (trid columns injected, queries rewritten, results stripped) must return
//! exactly what an untracked database returns.
//!
//! This is the paper's central usability claim — "without requiring any
//! modifications" extends to application-visible semantics — turned into
//! an executable property.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resildb_core::{
    failpoints, prepare_database, Connection, Database, Driver, FaultAction, FaultTrigger, Flavor,
    LinkProfile, NativeDriver, ProxyConfig, ResilientDb, Response, TrackingGranularity,
    TrackingProxy, Value, WireError,
};
use resildb_wire::single_proxy;

const COLUMNS: [&str; 4] = ["id", "grp", "amt", "name"];

/// Builds a deterministic random query over the fixed test schema.
fn generate_query(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sql = String::from("SELECT ");
    if rng.gen_bool(0.15) {
        sql.push_str("DISTINCT ");
    }
    // Projection: 1-4 items mixing columns, arithmetic, wildcard.
    if rng.gen_bool(0.15) {
        sql.push('*');
    } else {
        let n = rng.gen_range(1..=3);
        let items: Vec<String> = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
                1 => format!("amt + {}", rng.gen_range(0..10)),
                2 => "grp * 10 + id".to_string(),
                _ => format!(
                    "{} AS x{}",
                    COLUMNS[rng.gen_range(0..3)],
                    rng.gen_range(0..9)
                ),
            })
            .collect();
        sql.push_str(&items.join(", "));
    }
    sql.push_str(" FROM t");
    if rng.gen_bool(0.8) {
        let conds: Vec<String> = (0..rng.gen_range(1..=3))
            .map(|_| match rng.gen_range(0..5) {
                0 => format!(
                    "id {} {}",
                    ["=", "<", ">", "<=", ">="][rng.gen_range(0..5)],
                    rng.gen_range(0..30)
                ),
                1 => format!("grp = {}", rng.gen_range(0..4)),
                2 => format!(
                    "amt BETWEEN {} AND {}",
                    rng.gen_range(0..50),
                    rng.gen_range(50..120)
                ),
                3 => format!("name LIKE 'n%{}'", rng.gen_range(0..10)),
                _ => format!(
                    "id IN ({}, {}, {})",
                    rng.gen_range(0..30),
                    rng.gen_range(0..30),
                    rng.gen_range(0..30)
                ),
            })
            .collect();
        sql.push_str(" WHERE ");
        sql.push_str(&conds.join([" AND ", " OR "][rng.gen_range(0..2)]));
    }
    if rng.gen_bool(0.5) {
        sql.push_str(&format!(" ORDER BY {}", COLUMNS[rng.gen_range(0..3)]));
        if rng.gen_bool(0.3) {
            sql.push_str(" DESC");
        }
        sql.push_str(", id");
    }
    if rng.gen_bool(0.3) {
        sql.push_str(&format!(" LIMIT {}", rng.gen_range(0..15)));
    }
    sql
}

/// Aggregate variants, exercised separately (they pass through unrewritten).
fn generate_aggregate_query(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let agg = ["COUNT(*)", "SUM(amt)", "MIN(amt)", "MAX(id)", "AVG(amt)"][rng.gen_range(0..5)];
    let mut sql = format!("SELECT grp, {agg} FROM t");
    if rng.gen_bool(0.6) {
        sql.push_str(&format!(" WHERE id < {}", rng.gen_range(5..30)));
    }
    sql.push_str(" GROUP BY grp ORDER BY grp");
    sql
}

fn load(conn: &mut dyn Connection) {
    conn.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, amt INTEGER, name VARCHAR(8))",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(424242);
    for id in 0..30 {
        let grp = rng.gen_range(0..4);
        let amt = rng.gen_range(0..120);
        conn.execute(&format!(
            "INSERT INTO t (id, grp, amt, name) VALUES ({id}, {grp}, {amt}, 'n{}')",
            id % 10
        ))
        .unwrap();
    }
}

fn rows_of(resp: Response) -> (Vec<String>, Vec<Vec<Value>>) {
    match resp {
        Response::Rows(r) => (r.columns, r.rows),
        other => panic!("expected rows, got {other:?}"),
    }
}

fn check_transparency(seed: u64, granularity: TrackingGranularity, aggregate: bool) {
    let sql = if aggregate {
        generate_aggregate_query(seed)
    } else {
        generate_query(seed)
    };

    // Untracked reference database.
    let raw_db = Database::in_memory(Flavor::Postgres);
    let mut raw = NativeDriver::new(raw_db, LinkProfile::local())
        .connect()
        .unwrap();
    load(&mut *raw);

    // Tracked database with identical data.
    let rdb = ResilientDb::builder(Flavor::Postgres)
        .granularity(granularity)
        .build()
        .unwrap();
    let mut tracked = rdb.connect().unwrap();
    load(&mut *tracked);

    let expected = rows_of(raw.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}")));
    let got = rows_of(
        tracked
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}")),
    );
    assert_eq!(expected, got, "proxy changed the result of {sql:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tracked_results_equal_untracked_row_level(seed in any::<u64>()) {
        check_transparency(seed, TrackingGranularity::Row, false);
    }

    #[test]
    fn tracked_results_equal_untracked_column_level(seed in any::<u64>()) {
        check_transparency(seed, TrackingGranularity::Column, false);
    }

    #[test]
    fn tracked_aggregates_equal_untracked(seed in any::<u64>()) {
        check_transparency(seed, TrackingGranularity::Row, true);
    }
}

// --- Rewrite-cache transparency -----------------------------------------
//
// The statement-template rewrite cache must be invisible twice over: a
// warm replay through one proxy must return byte-identical results to the
// cold first pass, and an entire workload run with the cache must leave
// client responses AND the recorded dependency rows identical to a run
// without it.

/// A deterministic mixed workload: schema + bulk load, then transactions
/// combining generated reads with writes. Statement shapes repeat with
/// varying literals — the cache's intended steady state.
fn generate_workload(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stmts = vec![
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, amt INTEGER, name VARCHAR(8))"
            .to_string(),
    ];
    for id in 0..20 {
        stmts.push(format!(
            "INSERT INTO t (id, grp, amt, name) VALUES ({id}, {}, {}, 'n{}')",
            rng.gen_range(0..4),
            rng.gen_range(0..120),
            id % 10
        ));
    }
    for i in 0..8 {
        stmts.push("BEGIN".to_string());
        stmts.push(generate_query(rng.gen_range(0..u64::MAX)));
        match rng.gen_range(0..3) {
            0 => stmts.push(format!(
                "UPDATE t SET amt = amt + {} WHERE grp = {}",
                rng.gen_range(1..9),
                rng.gen_range(0..4)
            )),
            1 => stmts.push(format!(
                "INSERT INTO t (id, grp, amt, name) VALUES ({}, {}, {}, 'w{}')",
                100 + i,
                rng.gen_range(0..4),
                rng.gen_range(0..120),
                i
            )),
            _ => stmts.push(format!("DELETE FROM t WHERE id = {}", rng.gen_range(0..20))),
        }
        stmts.push("COMMIT".to_string());
    }
    stmts
}

/// Runs `stmts` through a fresh tracked database, returning the printed
/// client-visible response of every statement, the final contents of the
/// three tracking tables, and the rewrite-cache hit count.
fn run_workload(stmts: &[String], cache: bool) -> (Vec<String>, Vec<String>, u64) {
    let db = Database::in_memory(Flavor::Postgres);
    prepare_database(
        &mut *NativeDriver::new(db.clone(), LinkProfile::local())
            .connect()
            .unwrap(),
    )
    .unwrap();
    let builder = ProxyConfig::builder(Flavor::Postgres);
    let config = if cache {
        builder
    } else {
        builder.rewrite_cache_capacity(0)
    }
    .build();
    let (factory, runtime) = TrackingProxy::new(config, db.sim().clone());
    let driver = single_proxy(db.clone(), LinkProfile::local(), factory);
    let mut conn = driver.connect().unwrap();
    let responses: Vec<String> = stmts
        .iter()
        .map(|s| {
            format!(
                "{:?}",
                conn.execute(s).unwrap_or_else(|e| panic!("{s}: {e}"))
            )
        })
        .collect();
    let tracking: Vec<String> = ["trans_dep", "trans_dep_prov", "annot"]
        .iter()
        .map(|t| format!("{:?}", db.snapshot_rows(t).unwrap()))
        .collect();
    (responses, tracking, runtime.rewrite_cache_stats().hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache on vs cache off over the same workload: every client-visible
    /// response and every recorded dependency/provenance/annotation row
    /// must be byte-identical — the cache may only change the CPU cost.
    #[test]
    fn cached_workload_is_byte_identical_to_uncached(seed in any::<u64>()) {
        let stmts = generate_workload(seed);
        let (warm_resp, warm_deps, hits) = run_workload(&stmts, true);
        let (cold_resp, cold_deps, cold_hits) = run_workload(&stmts, false);
        prop_assert_eq!(cold_hits, 0, "disabled cache must never hit");
        prop_assert!(hits > 0, "repeated statement shapes must hit the cache");
        prop_assert_eq!(&warm_resp, &cold_resp, "client-visible results diverged");
        prop_assert_eq!(&warm_deps, &cold_deps, "dependency rows diverged");
    }

    /// Replaying a read-only query set twice through ONE proxy: the second
    /// (warm) pass is served from the cache and must return byte-identical
    /// results to the cold first pass.
    #[test]
    fn warm_replay_matches_cold_through_one_proxy(seed in any::<u64>()) {
        let queries: Vec<String> = (0..6).map(|i| generate_query(seed.wrapping_add(i))).collect();
        let db = Database::in_memory(Flavor::Postgres);
        prepare_database(
            &mut *NativeDriver::new(db.clone(), LinkProfile::local()).connect().unwrap(),
        )
        .unwrap();
        let (factory, runtime) =
            TrackingProxy::new(ProxyConfig::new(Flavor::Postgres), db.sim().clone());
        let driver = single_proxy(db, LinkProfile::local(), factory);
        let mut conn = driver.connect().unwrap();
        load(&mut *conn);
        let cold: Vec<String> = queries
            .iter()
            .map(|q| format!("{:?}", conn.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"))))
            .collect();
        let hits_after_cold = runtime.rewrite_cache_stats().hits;
        let warm: Vec<String> = queries
            .iter()
            .map(|q| format!("{:?}", conn.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"))))
            .collect();
        prop_assert_eq!(&warm, &cold, "warm replay diverged from cold pass");
        prop_assert!(
            runtime.rewrite_cache_stats().hits >= hits_after_cold + queries.len() as u64,
            "every replayed query must hit the cache"
        );
    }
}

// --- Non-ASCII identifier transparency ----------------------------------
//
// Harvest and strip work on raw identifier strings; multi-byte characters
// must never panic the proxy (the hidden-column and ANNOTATE checks used
// to slice at fixed byte offsets) and must survive the rewrite → print →
// re-parse round trip intact.

const IDENT_CHARS: [char; 10] = ['a', 'b', 'é', 'ß', 'λ', 'ж', '日', 'ü', 'ñ', 'φ'];

fn gen_ident(rng: &mut StdRng, prefix: &str) -> String {
    let mut s = String::from(prefix);
    for _ in 0..rng.gen_range(1..=5) {
        s.push(IDENT_CHARS[rng.gen_range(0..IDENT_CHARS.len())]);
    }
    s
}

/// Same statements against an untracked database and a tracked one: every
/// client-visible response must match, identifiers and all.
fn check_non_ascii_transparency(seed: u64, granularity: TrackingGranularity) {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = gen_ident(&mut rng, "t_");
    let c1 = gen_ident(&mut rng, "c1_");
    let c2 = gen_ident(&mut rng, "c2_");

    let mut stmts = vec![format!(
        "CREATE TABLE \"{table}\" (id INTEGER PRIMARY KEY, \"{c1}\" INTEGER, \"{c2}\" VARCHAR(16))"
    )];
    for id in 0..8 {
        stmts.push(format!(
            "INSERT INTO \"{table}\" (id, \"{c1}\", \"{c2}\") VALUES ({id}, {}, 'vé{id}')",
            rng.gen_range(0..50)
        ));
    }
    let pivot = rng.gen_range(0..50);
    stmts.push(format!("SELECT * FROM \"{table}\" ORDER BY id"));
    stmts.push(format!(
        "SELECT \"{c1}\", \"{c2}\" FROM \"{table}\" WHERE \"{c1}\" >= {pivot} ORDER BY id"
    ));
    stmts.push(format!(
        "UPDATE \"{table}\" SET \"{c1}\" = \"{c1}\" + 1 WHERE id < {}",
        rng.gen_range(0..8)
    ));
    stmts.push(format!(
        "DELETE FROM \"{table}\" WHERE id = {}",
        rng.gen_range(0..8)
    ));
    stmts.push(format!("SELECT * FROM \"{table}\" ORDER BY id"));

    let raw_db = Database::in_memory(Flavor::Postgres);
    let mut raw = NativeDriver::new(raw_db, LinkProfile::local())
        .connect()
        .unwrap();
    let rdb = ResilientDb::builder(Flavor::Postgres)
        .granularity(granularity)
        .build()
        .unwrap();
    let mut tracked = rdb.connect().unwrap();

    for s in &stmts {
        let expected = format!(
            "{:?}",
            raw.execute(s).unwrap_or_else(|e| panic!("{s}: {e}"))
        );
        let got = format!(
            "{:?}",
            tracked.execute(s).unwrap_or_else(|e| panic!("{s}: {e}"))
        );
        assert_eq!(expected, got, "proxy changed the result of {s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn non_ascii_identifiers_are_transparent_row_level(seed in any::<u64>()) {
        check_non_ascii_transparency(seed, TrackingGranularity::Row);
    }

    #[test]
    fn non_ascii_identifiers_are_transparent_column_level(seed in any::<u64>()) {
        check_non_ascii_transparency(seed, TrackingGranularity::Column);
    }
}

// --- COMMIT-failure transparency ------------------------------------------
//
// An explicit-transaction COMMIT that fails inside the proxy must behave
// identically with and without the rewrite cache: same client-visible
// error, same surviving data, same recorded dependency rows.

/// Runs `stmts` through a tracked database; once `arm_at` statements have
/// executed, arms `proxy.before_commit` to fail on its `fail_hit`-th hit
/// from that point. Errors are captured as part of the response stream.
fn run_commit_failure_workload(
    stmts: &[String],
    cache: bool,
    arm_at: usize,
    fail_hit: u64,
) -> (Vec<String>, Vec<String>) {
    let db = Database::in_memory(Flavor::Postgres);
    prepare_database(
        &mut *NativeDriver::new(db.clone(), LinkProfile::local())
            .connect()
            .unwrap(),
    )
    .unwrap();
    let builder = ProxyConfig::builder(Flavor::Postgres);
    let config = if cache {
        builder
    } else {
        builder.rewrite_cache_capacity(0)
    }
    .build();
    let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
    let mut conn = driver.connect().unwrap();
    let mut responses = Vec::with_capacity(stmts.len());
    for (i, s) in stmts.iter().enumerate() {
        if i == arm_at {
            db.sim().faults().arm(
                failpoints::PROXY_BEFORE_COMMIT,
                FaultAction::Error,
                FaultTrigger::OnHit(fail_hit),
            );
        }
        responses.push(match conn.execute(s) {
            Ok(r) => format!("{r:?}"),
            Err(e) => format!("error: {e}"),
        });
    }
    assert_eq!(
        db.sim().faults().fired(failpoints::PROXY_BEFORE_COMMIT),
        1,
        "exactly one commit must have been failed"
    );
    let tracking: Vec<String> = ["trans_dep", "trans_dep_prov", "annot"]
        .iter()
        .map(|t| format!("{:?}", db.snapshot_rows(t).unwrap()))
        .collect();
    (responses, tracking)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One explicit-transaction COMMIT fails mid-workload. With the cache
    /// and without it, the client sees the same error in the same place,
    /// the aborted transaction leaks nothing, and the surviving workload
    /// records identical dependency rows.
    #[test]
    fn commit_failure_is_identical_with_and_without_rewrite_cache(seed in any::<u64>()) {
        let stmts = generate_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        // Statements 0..=20 are schema + load; the 8 explicit transaction
        // blocks follow. Fail one of their COMMITs.
        let arm_at = 21;
        let fail_hit = rng.gen_range(1..=8);
        let (warm_resp, warm_deps) =
            run_commit_failure_workload(&stmts, true, arm_at, fail_hit);
        let (cold_resp, cold_deps) =
            run_commit_failure_workload(&stmts, false, arm_at, fail_hit);
        prop_assert!(
            warm_resp.iter().any(|r| r.starts_with("error: ")),
            "the injected commit failure must surface to the client"
        );
        prop_assert_eq!(&warm_resp, &cold_resp, "client-visible results diverged");
        prop_assert_eq!(&warm_deps, &cold_deps, "dependency rows diverged");
    }
}

/// Client-side prepared statements would bypass the proxy's rewriting (no
/// trid stamping, no harvested reads), so the tracking connections must
/// refuse them rather than silently punching a hole in the audit trail.
#[test]
fn tracking_proxy_refuses_client_prepared_statements() {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(matches!(
        conn.prepare("INSERT INTO t (a) VALUES (?)"),
        Err(WireError::Protocol(_))
    ));
}
