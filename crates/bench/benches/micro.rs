//! Criterion micro-benchmarks for the framework's hot paths: SQL parsing
//! and printing, Table-1 query rewriting, engine point operations, the
//! tracked statement path, repair analysis and saving and reopening the
//! durable log. These measure *real* CPU
//! time (unlike the fig4/fig5 harnesses, which measure virtual time).

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use resildb_core::{Flavor, ResilientDb};
use resildb_proxy::{prepare_database, ProxyConfig, ProxyConfigBuilder, TrackingProxy};
use resildb_sql::{parse_statement, Statement};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};

const SELECT_SQL: &str = "SELECT c.c_balance, c.c_first, o.o_id FROM customer c, orders o \
     WHERE c.c_w_id = 1 AND c.c_d_id = 2 AND c.c_id = 17 AND o.o_w_id = 1 \
     AND o.o_d_id = 2 AND o.o_c_id = 17 ORDER BY o.o_id DESC LIMIT 1";

fn bench_sql(c: &mut Criterion) {
    c.bench_function("sql_parse_select", |b| {
        b.iter(|| parse_statement(std::hint::black_box(SELECT_SQL)).unwrap())
    });
    let ast = parse_statement(SELECT_SQL).unwrap();
    c.bench_function("sql_print_select", |b| b.iter(|| ast.to_string()));
}

fn bench_rewrite(c: &mut Criterion) {
    let Statement::Select(sel) = parse_statement(SELECT_SQL).unwrap() else {
        unreachable!()
    };
    c.bench_function("proxy_rewrite_select", |b| {
        b.iter(|| {
            resildb_proxy::rewrite_select(
                std::hint::black_box(&sel),
                resildb_proxy::TrackingGranularity::Row,
            )
            .rewritten()
            .unwrap()
        })
    });
}

fn bench_rewrite_cache(c: &mut Criterion) {
    use resildb_sql::{parse_template, scan_statement, SqlTemplate};

    // Cold: what every occurrence of the statement pays without the cache —
    // lex + parse, clone-rewrite, print.
    c.bench_function("rewrite_cold", |b| {
        b.iter(|| {
            let Statement::Select(sel) = parse_statement(std::hint::black_box(SELECT_SQL)).unwrap()
            else {
                unreachable!()
            };
            let (rewritten, _plan) =
                resildb_proxy::rewrite_select(&sel, resildb_proxy::TrackingGranularity::Row)
                    .rewritten()
                    .unwrap();
            rewritten.to_string()
        })
    });

    // Cached: what a rewrite-cache hit pays — fingerprint-scan the incoming
    // text, then splice its literals into the pre-rewritten template.
    let scan = scan_statement(SELECT_SQL).unwrap();
    let Statement::Select(sel) = parse_template(SELECT_SQL, &scan).unwrap() else {
        unreachable!()
    };
    let (rewritten, _plan) =
        resildb_proxy::rewrite_select(&sel, resildb_proxy::TrackingGranularity::Row)
            .rewritten()
            .unwrap();
    let tmpl = SqlTemplate::of(Statement::Select(rewritten), scan.spans.len()).unwrap();
    c.bench_function("rewrite_cached", |b| {
        b.iter(|| {
            let scan = scan_statement(std::hint::black_box(SELECT_SQL)).unwrap();
            tmpl.splice(SELECT_SQL, &scan.spans, 0)
        })
    });
}

/// A small populated database behind the tracking proxy.
fn tracked_db() -> (ResilientDb, Box<dyn resildb_core::Connection>) {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR(64))")
        .unwrap();
    for chunk in 0..10 {
        let rows: Vec<String> = (0..50)
            .map(|i| format!("({}, {}, 'padding-data')", chunk * 50 + i, i))
            .collect();
        conn.execute(&format!(
            "INSERT INTO t (id, v, pad) VALUES {}",
            rows.join(", ")
        ))
        .unwrap();
    }
    (rdb, conn)
}

/// A tracking connection configured by `config` over a fresh database
/// holding one row of `t`, its statement shape already seen once.
fn proxied(config: ProxyConfigBuilder) -> Box<dyn Connection> {
    let db = resildb_engine::Database::in_memory(Flavor::Postgres);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let driver = TrackingProxy::single_proxy(db, LinkProfile::local(), config.build());
    let mut conn = driver.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (250, 1)")
        .unwrap();
    conn.execute("SELECT v FROM t WHERE id = 250").unwrap(); // warm cache
    conn
}

fn bench_engine(c: &mut Criterion) {
    let (rdb, _conn) = tracked_db();
    let mut session = rdb.database().session();
    c.bench_function("engine_point_select_by_pk", |b| {
        b.iter(|| session.query("SELECT v FROM t WHERE id = 250").unwrap())
    });
    c.bench_function("engine_point_update_by_pk", |b| {
        b.iter(|| {
            session
                .execute_sql("UPDATE t SET v = v + 1 WHERE id = 250")
                .unwrap()
        })
    });
}

fn bench_tracked_path(c: &mut Criterion) {
    let (_rdb, mut conn) = tracked_db();
    c.bench_function("tracked_select_with_harvest", |b| {
        b.iter(|| conn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
    c.bench_function("tracked_autocommit_update", |b| {
        b.iter(|| {
            conn.execute("UPDATE t SET v = v + 1 WHERE id = 250")
                .unwrap()
        })
    });
    // The same SELECT with the rewrite cache off: every execution is a
    // miss that parses, plans (rewrite, print, template) and then runs the
    // plan — the planner and executor beside the warm path above.
    let mut cold = proxied(ProxyConfig::builder(Flavor::Postgres).rewrite_cache_capacity(0));
    c.bench_function("tracked_select_cache_miss", |b| {
        b.iter(|| cold.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
    // TPC-C Payment's customer UPDATE, a fresh amount every time (as in
    // the benchmark's stream), autocommitted through the warm proxy and
    // engine caches.
    let mut pay = proxied(ProxyConfig::builder(Flavor::Postgres));
    pay.execute(
        "CREATE TABLE customer (c_id INTEGER, c_d_id INTEGER, c_w_id INTEGER, \
         c_balance NUMERIC(12,2), c_ytd_payment NUMERIC(12,2), c_payment_cnt INTEGER, \
         PRIMARY KEY (c_w_id, c_d_id, c_id))",
    )
    .unwrap();
    pay.execute("INSERT INTO customer VALUES (3, 2, 1, -10.0, 10.0, 1)")
        .unwrap();
    let mut cents = 100_000u64;
    c.bench_function("tracked_payment_update", |b| {
        b.iter(|| {
            cents = cents * 7 % 500_000 + 100;
            let amount = cents as f64 / 100.0;
            pay.execute(&format!(
                "UPDATE customer SET c_balance = c_balance - {amount:.2}, \
                 c_ytd_payment = c_ytd_payment + {amount:.2}, c_payment_cnt = c_payment_cnt + 1 \
                 WHERE c_w_id = 1 AND c_d_id = 2 AND c_id = 3"
            ))
            .unwrap()
        })
    });
}

/// A fixed tracked TPC-C history (two warehouses, 1 000 standard-mix
/// transactions — half the `repair` workload's), built once outside the
/// timed loops of `repair_scan`, `repair_analyze`, `repair_closure`,
/// `wal_save` and `wal_open`.
fn tpcc_history() -> ResilientDb {
    use resildb_tpcc::{Loader, Mix, TpccConfig, TpccRunner};
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    rdb.telemetry().set_enabled(false);
    rdb.flight_recorder().set_enabled(false);
    let mut conn = rdb.connect().unwrap();
    let config = TpccConfig::scaled(2);
    Loader::new(config.clone(), 1).load(&mut *conn).unwrap();
    let mut runner = TpccRunner::new(config, 2);
    Mix::standard(1_000, 3)
        .run(&mut runner, &mut *conn)
        .unwrap();
    rdb
}

fn bench_history(c: &mut Criterion) {
    use resildb_core::adapter_for;
    let rdb = tpcc_history();
    // Crash recovery's two halves: encode and checksum the whole log, then
    // verify, decode and replay it into a fresh database.
    let mut log = Vec::new();
    rdb.save_wal(&mut log).unwrap();
    c.bench_function("wal_save", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(log.len());
            rdb.save_wal(&mut out).unwrap();
            out.len()
        })
    });
    c.bench_function("wal_open", |b| {
        b.iter(|| {
            resildb_engine::Database::open_from_wal(
                "reopened",
                Flavor::Postgres,
                resildb_sim::SimContext::free(),
                log.as_slice(),
            )
            .unwrap()
        })
    });
    let adapter = adapter_for(Flavor::Postgres);
    c.bench_function("repair_scan", |b| {
        b.iter(|| adapter.scan(rdb.database()).unwrap())
    });
    let tool = rdb.repair_controller();
    c.bench_function("repair_analyze", |b| b.iter(|| tool.analyze().unwrap()));
    let analysis = tool.analyze().unwrap();
    let first = *analysis.tracked_transactions().iter().next().unwrap();
    c.bench_function("repair_closure", |b| {
        b.iter(|| analysis.undo_set(&[first], &[]))
    });
}

fn bench_failpoints(c: &mut Criterion) {
    use resildb_core::failpoints;

    // The disarmed fast path every WAL append / proxy statement pays: one
    // relaxed atomic load. Guards the "zero-cost when disarmed" claim next
    // to rewrite_cached, which must not regress from failpoint plumbing.
    let (rdb, mut conn) = tracked_db();
    let sim = rdb.database().sim().clone();
    assert!(!sim.faults().active());
    c.bench_function("failpoint_check_disarmed", |b| {
        b.iter(|| sim.fault_check(std::hint::black_box(failpoints::ENGINE_WAL_APPEND)))
    });
    c.bench_function("tracked_select_failpoints_disarmed", |b| {
        b.iter(|| conn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
}

fn bench_enforcement(c: &mut Criterion) {
    use resildb_analyze::{classify_statement, Granularity};
    use resildb_proxy::EnforcementPolicy;

    // The raw classifier cost a cold statement pays once per shape.
    let stmt = parse_statement(SELECT_SQL).unwrap();
    c.bench_function("analyzer_classify_select", |b| {
        b.iter(|| classify_statement(std::hint::black_box(&stmt), Granularity::Row))
    });

    // Steady-state tracked selects with the rewrite cache warm: the only
    // difference between the two is the memoised-verdict inspection, which
    // must stay invisible next to parse/splice/execute. This guards the
    // claim that enforcement costs nothing on the hot path.
    let enforcing = |policy| proxied(ProxyConfig::builder(Flavor::Postgres).enforcement(policy));
    let mut off = enforcing(EnforcementPolicy::Allow);
    c.bench_function("tracked_select_enforcement_off", |b| {
        b.iter(|| off.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
    let mut warn = enforcing(EnforcementPolicy::Warn);
    c.bench_function("tracked_select_enforcement_warn", |b| {
        b.iter(|| warn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
}

fn bench_telemetry(c: &mut Criterion) {
    use resildb_core::Telemetry;

    // The disabled-telemetry fast path every instrumented site pays when
    // no recorder is attached: one relaxed atomic load, no clock read.
    // Guards the "near-zero cost when disabled" claim, mirroring
    // failpoint_check_disarmed.
    let disabled = Telemetry::disabled();
    c.bench_function("telemetry_span_disabled", |b| {
        b.iter(|| disabled.owned_span(std::hint::black_box("engine.execute")))
    });
    let recording = Telemetry::recording();
    c.bench_function("telemetry_span_recording", |b| {
        b.iter(|| recording.owned_span(std::hint::black_box("engine.execute")))
    });

    // The flight recorder's disabled path must match the span guard's:
    // one relaxed atomic load, no tick allocation, no lock. Within noise
    // of telemetry_span_disabled.
    use resildb_core::EventKind;
    let flight_off = Telemetry::disabled();
    c.bench_function("flight_recorder_disabled", |b| {
        b.iter(|| {
            flight_off
                .flight()
                .emit(std::hint::black_box(7), 1, EventKind::TxnBegin)
        })
    });
    let flight_on = Telemetry::disabled();
    flight_on.flight().set_enabled(true);
    c.bench_function("flight_recorder_recording", |b| {
        b.iter(|| {
            flight_on
                .flight()
                .emit(std::hint::black_box(7), 1, EventKind::TxnBegin)
        })
    });

    // The cached-rewrite hot path with telemetry disabled must look
    // exactly like it did before the instrumentation landed — compare
    // against tracked_select_with_harvest across PRs. ResilientDb enables
    // recording by default, so flip it off first (the builder also turns
    // the flight recorder on; disable that too).
    let (rdb, mut conn) = tracked_db();
    rdb.telemetry().set_enabled(false);
    rdb.flight_recorder().set_enabled(false);
    conn.execute("SELECT v FROM t WHERE id = 250").unwrap(); // warm cache
    c.bench_function("tracked_select_telemetry_disabled", |b| {
        b.iter(|| conn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
}

fn bench_page_compaction(c: &mut Criterion) {
    use resildb_engine::{Page, RowId};
    c.bench_function("page_delete_with_migration", |b| {
        b.iter_batched(
            || {
                let mut p = Page::new();
                for i in 0..60 {
                    p.insert(RowId(i), &[0u8; 100]);
                }
                p
            },
            |mut p| {
                for i in 0..30 {
                    p.delete(RowId(i * 2));
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sql, bench_rewrite, bench_rewrite_cache, bench_engine, bench_tracked_path, bench_history, bench_failpoints, bench_enforcement, bench_telemetry, bench_page_compaction
);
criterion_main!(benches);
