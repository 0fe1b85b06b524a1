//! Wall-clock thread-scaling benchmark (`fig4 --threads N`).
//!
//! The figure-4 cells measure overhead in *virtual* time on one
//! connection. This runner answers the orthogonal question the paper's
//! production setting poses: does the stack actually scale when N clients
//! hit it from N OS threads at once? It drives real threads through real
//! connections against one shared database in the simulator's wall-clock
//! mode ([`resildb_core::SimContext::set_realtime`]): every virtual-time
//! charge is also slept off at the wire layer, outside the engine's
//! latches, so the measured wall-clock throughput scales exactly insofar
//! as the locking design lets concurrent sessions overlap their I/O and
//! network waits.
//!
//! Each worker is pinned to its own TPC-C home warehouse (disjoint row
//! footprints — contention exercises the lock manager's striping and the
//! WAL group commit, not artificial row conflicts) and runs the paper's
//! read/write mix. Per-worker counters are collected in per-thread
//! snapshots and merged with [`MetricsSnapshot::merge`]; the shared
//! database's metrics are folded exactly once.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use resildb_core::telemetry::json::JsonWriter;
use resildb_core::{
    prepare_database, CostModel, Database, Driver, Flavor, LinkProfile, MetricsSnapshot, Micros,
    NativeDriver, Telemetry, TrackingProxy,
};
use resildb_tpcc::{Mix, TpccConfig, TpccRunner};

use crate::fig4::Scale;
use crate::json::Probe;
use crate::{costs, Setup};

/// Warehouses in the threaded database: one home warehouse per worker at
/// the largest supported thread count, and the large-footprint `W = 10`
/// sizing of Figure 4.
const WAREHOUSES: u32 = 10;

/// Buffer pool for the threaded cells: large enough that the database is
/// cache-resident. The wall-clock sleeps then come from the network round
/// trips and log forces — costs that are *per statement* and therefore
/// identical at every thread count — instead of buffer-pool misses, whose
/// rate shifts with concurrency and would confound the scaling curve.
const POOL_PAGES: usize = 8_192;

/// Cost model of the threaded cells: the networked Figure-4 model with a
/// heavier synchronous log force — precisely the cost the WAL group
/// commit amortizes across concurrently committing workers.
fn wall_clock_costs() -> CostModel {
    CostModel {
        log_force: Micros::new(2_000),
        ..costs::networked()
    }
}

/// Client link of the threaded cells: a WAN-ish 1 ms round trip rather
/// than the LAN's 200 µs. On a container with a single CPU, wall-clock
/// scaling can only come from overlapped waiting, so per-statement waits
/// must dominate per-statement CPU by a wide margin — and the link round
/// trip is the per-statement cost, charged at the wire layer where the
/// accrued wait is slept off outside every engine latch.
fn wall_clock_link() -> LinkProfile {
    LinkProfile {
        rtt: Micros::new(1_000),
        per_byte_ns: 80,
    }
}

/// One point of the scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCell {
    /// Worker threads driving the database concurrently.
    pub threads: usize,
    /// Baseline wall-clock throughput (committed txns per second).
    pub base_tps: f64,
    /// Wall-clock throughput through the tracking proxy.
    pub proxy_tps: f64,
}

impl ThreadCell {
    /// Tracking overhead in percent at this thread count.
    pub fn overhead_pct(&self) -> f64 {
        crate::pct(self.base_tps, self.proxy_tps)
    }
}

/// The thread counts measured for `--threads n`: powers of two up to and
/// including `n` (so `--threads 8` yields the 1→8 scaling curve, and the
/// CI smoke's `--threads 4` still measures the 1-thread anchor).
pub fn thread_counts(n: usize) -> Vec<usize> {
    let n = n.max(1);
    let mut counts = vec![];
    let mut c = 1;
    while c < n {
        counts.push(c);
        c *= 2;
    }
    counts.push(n);
    counts
}

/// Read/write mix units each worker runs (one unit is 2 New-Order +
/// 2 Payment + 1 Delivery). The total is held constant across thread
/// counts — workers split it — so every point of the curve measures the
/// same transaction volume and the single-thread anchor gets the same
/// (long) measurement window as the crowded cells.
fn mix_units(scale: Scale, threads: usize) -> usize {
    let total = match scale {
        Scale::Quick => 4,
        Scale::Full => 64,
    };
    (total / threads).max(1)
}

/// Builds and loads the shared database plus the connection factory for
/// `setup`. Loading runs in pure virtual time; the caller flips the
/// simulation into wall-clock mode afterwards.
fn build(setup: Setup, config: &TpccConfig, probe: Option<&Probe>) -> (Database, Arc<dyn Driver>) {
    let sim = crate::sim_context(wall_clock_costs(), POOL_PAGES, probe.map(Probe::telemetry));
    let flavor = Flavor::Postgres;
    let link = wall_clock_link();
    let db = Database::new("bench", flavor, sim);
    let driver: Arc<dyn Driver> = match setup {
        Setup::Baseline => Arc::new(NativeDriver::new(db.clone(), link)),
        Setup::Tracked => {
            let native = NativeDriver::new(db.clone(), LinkProfile::local());
            prepare_database(&mut *native.connect().expect("native connect"))
                .expect("prepare tracking tables");
            // Same paper-literal tracking set as the figure-4 cells.
            let builder = resildb_core::ProxyConfig::builder(flavor)
                .record_provenance(false)
                .record_read_only_deps(true);
            let pc = Probe::proxy_config(probe, builder);
            Arc::new(TrackingProxy::single_proxy(db.clone(), link, pc))
        }
    };
    resildb_tpcc::Loader::new(config.clone(), 42)
        .load(&mut *driver.connect().expect("load connect"))
        .expect("load");
    (db, driver)
}

/// Runs `threads` workers through `setup`, returning wall-clock TPS and
/// the merged per-worker + database metrics fold.
fn wall_clock_tps(
    setup: Setup,
    threads: usize,
    scale: Scale,
    probe: Option<&Probe>,
) -> (f64, MetricsSnapshot) {
    let config = TpccConfig::scaled(WAREHOUSES);
    let (db, driver) = build(setup, &config, probe);
    db.sim().set_realtime(true);
    let mix = Mix::read_write(mix_units(scale, threads));
    // Workers connect before the barrier so measured time is pure mix.
    let barrier = Arc::new(Barrier::new(threads + 1));
    let (snapshots, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let driver = Arc::clone(&driver);
                let barrier = Arc::clone(&barrier);
                let config = config.clone();
                let mix = &mix;
                scope.spawn(move || {
                    let mut conn = driver.connect().expect("worker connect");
                    let mut runner = TpccRunner::new(config, 100 + t as u64)
                        .without_annotations()
                        .with_home_warehouse(t as u32 % WAREHOUSES + 1);
                    barrier.wait();
                    let start = Instant::now();
                    let committed = mix.run(&mut runner, &mut *conn).expect("worker mix");
                    // Per-worker probe: its own recording domain, folded
                    // into a snapshot the main thread merges.
                    let tel = Telemetry::recording();
                    tel.count("bench.worker.committed", committed);
                    tel.count(
                        "bench.worker.deadlock_retries",
                        runner.stats.deadlock_retries,
                    );
                    tel.record_span_ns("bench.worker.wall", {
                        let nanos = start.elapsed().as_nanos();
                        u64::try_from(nanos).unwrap_or(u64::MAX)
                    });
                    tel.snapshot()
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let snapshots: Vec<MetricsSnapshot> = handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect();
        (snapshots, t0.elapsed().as_secs_f64())
    });
    db.sim().set_realtime(false);
    // Merge the per-worker snapshots (counters add), then fold the shared
    // database's metrics exactly once.
    let mut merged = MetricsSnapshot::default();
    for snap in &snapshots {
        merged.merge(snap);
    }
    merged.merge(&db.metrics());
    let committed = merged.counter("bench.worker.committed");
    let tps = committed as f64 / elapsed.max(f64::EPSILON);
    (tps, merged)
}

/// Runs the wall-clock scaling curve for every count in `counts`. The
/// baseline for each thread count is measured once and reused in the
/// cell, and the last tracked run's merged metrics land in `probe`.
pub fn run(counts: &[usize], scale: Scale, probe: Option<&Probe>) -> Vec<ThreadCell> {
    counts
        .iter()
        .map(|&threads| {
            let (base_tps, _) = wall_clock_tps(Setup::Baseline, threads, scale, probe);
            let (proxy_tps, merged) = wall_clock_tps(Setup::Tracked, threads, scale, probe);
            if let Some(probe) = probe {
                probe.capture(merged);
            }
            ThreadCell {
                threads,
                base_tps,
                proxy_tps,
            }
        })
        .collect()
}

/// Writes the scaling curve as the `results` object of the `--json-out`
/// report.
pub fn write_json(w: &mut JsonWriter, cells: &[ThreadCell]) {
    let anchor = cells.first().map_or(0.0, |c| c.base_tps);
    w.object(|w| {
        w.key("scaling").array(|w| {
            for c in cells {
                let scaling = if anchor > 0.0 {
                    c.base_tps / anchor
                } else {
                    0.0
                };
                w.object(|w| {
                    w.field("threads", c.threads)
                        .field("base_tps", c.base_tps)
                        .field("proxy_tps", c.proxy_tps)
                        .field("overhead_pct", c.overhead_pct())
                        .field("base_scaling", scaling);
                });
            }
        });
    });
}

/// Renders the scaling curve as a report table.
pub fn render(cells: &[ThreadCell]) -> String {
    let mut out = String::from(
        "\n=== Wall-clock thread scaling (read/write mix, W=10, one home warehouse per worker) ===\n",
    );
    out.push_str(&format!(
        "{:<8} {:>14} {:>14} {:>10} {:>14}\n",
        "threads", "base tps", "tracked tps", "overhead", "base scaling"
    ));
    let anchor = cells.first().map_or(0.0, |c| c.base_tps);
    for c in cells {
        let scaling = if anchor > 0.0 {
            c.base_tps / anchor
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<8} {:>14.2} {:>14.2} {:>9.1}% {:>13.2}x\n",
            c.threads,
            c.base_tps,
            c.proxy_tps,
            c.overhead_pct(),
            scaling,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_double_up_to_n() {
        assert_eq!(thread_counts(1), vec![1]);
        assert_eq!(thread_counts(4), vec![1, 2, 4]);
        assert_eq!(thread_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_counts(0), vec![1]);
    }

    #[test]
    fn two_threads_beat_one_wall_clock() {
        let cells = run(&[1, 2], Scale::Quick, None);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.base_tps > 0.0 && c.proxy_tps > 0.0, "cell {c:?}");
        }
        assert!(
            cells[1].base_tps > cells[0].base_tps,
            "2 threads ({:.1} tps) must out-run 1 thread ({:.1} tps): \
             overlapped waits are the whole point",
            cells[1].base_tps,
            cells[0].base_tps
        );
    }

    #[test]
    fn render_reports_scaling_column() {
        let cells = vec![
            ThreadCell {
                threads: 1,
                base_tps: 100.0,
                proxy_tps: 80.0,
            },
            ThreadCell {
                threads: 4,
                base_tps: 350.0,
                proxy_tps: 280.0,
            },
        ];
        let text = render(&cells);
        assert!(text.contains("3.50x"));
        assert!(text.contains("20.0%"));
    }
}
