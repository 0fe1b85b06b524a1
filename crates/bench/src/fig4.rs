//! Figure 4: run-time overhead of inter-transaction dependency tracking.
//!
//! Four panels — {read-intensive, read/write} × {large footprint `W=10`,
//! small footprint `W=1`} — each comparing baseline vs. tracking-proxy
//! throughput for the three flavors in the local and networked
//! configurations.

use std::collections::HashMap;

use resildb_core::telemetry::export::{format_f64, json_string};
use resildb_core::{Flavor, LinkProfile};
use resildb_tpcc::{Mix, TpccConfig, TpccRunner};

use crate::json::Probe;
use crate::{costs, prepare, Setup};

/// Memo of baseline measurements keyed by everything that affects them:
/// flavor, link configuration, workload mix and footprint. The proxy-side
/// knobs (rewrite cache on/off) do not reach the baseline, so an ablation
/// pair shares one baseline measurement instead of paying for two
/// identical runs.
#[derive(Debug, Default)]
pub struct BaseMemo(HashMap<(Flavor, bool, bool, bool), (f64, f64)>);

impl BaseMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Baseline measurements performed so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing has been measured yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One bar pair of one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// DBMS flavor.
    pub flavor: Flavor,
    /// Networked (true) or local configuration.
    pub networked: bool,
    /// Read-intensive (true) or read/write mix.
    pub read_intensive: bool,
    /// Large footprint `W=10` (true) or small `W=1`.
    pub large_footprint: bool,
    /// Baseline throughput (transactions per virtual second).
    pub base_tps: f64,
    /// Throughput with the tracking proxy.
    pub proxy_tps: f64,
    /// Baseline buffer-pool hit ratio (diagnostic for the footprint axis).
    pub base_hit_ratio: f64,
}

impl Cell {
    /// The tracking overhead in percent (the paper's y-axis).
    pub fn overhead_pct(&self) -> f64 {
        crate::pct(self.base_tps, self.proxy_tps)
    }

    /// Whether this is the paper's headline cell (networked,
    /// read-intensive, large footprint — "a typical OLTP environment").
    pub fn is_headline(&self) -> bool {
        self.networked && self.read_intensive && self.large_footprint
    }
}

/// Scale of the benchmark: `quick` shrinks the mixes for CI/test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small mixes (fast; used by tests).
    Quick,
    /// The paper's mix sizes (100 Stock-Level; 200/200/100 r/w).
    Full,
}

#[allow(clippy::too_many_arguments)]
fn throughput(
    flavor: Flavor,
    setup: Setup,
    networked: bool,
    read_intensive: bool,
    large_footprint: bool,
    scale: Scale,
    rewrite_cache: bool,
    probe: Option<&Probe>,
) -> (f64, f64) {
    let cost = if networked {
        costs::networked()
    } else {
        costs::local()
    };
    let link = if networked {
        LinkProfile::lan()
    } else {
        LinkProfile::local()
    };
    let w = if large_footprint { 10 } else { 1 };
    let config = TpccConfig::scaled(w);
    let sim = crate::sim_context(cost, costs::POOL_PAGES, probe.map(Probe::telemetry));
    // Paper-literal tracking set: trans_dep + annot only (column-level
    // provenance is this implementation's extension and would overstate
    // the paper's overhead), and a dependency record for *every* commit,
    // read-only transactions included (paper §3.2's unconditional
    // commit-time insert).
    let mut builder = resildb_core::ProxyConfig::builder(flavor)
        .record_provenance(false)
        .record_read_only_deps(true);
    if !rewrite_cache {
        builder = builder.rewrite_cache_capacity(0);
    }
    let pc = Probe::proxy_config(probe, builder);
    let mut bench = prepare(flavor, setup, &config, sim, link, Some(pc), 42).expect("prepare");

    let mix = match (read_intensive, scale) {
        (true, Scale::Full) => Mix::read_intensive(100),
        (true, Scale::Quick) => Mix::read_intensive(10),
        (false, Scale::Full) => Mix::read_write(100),
        (false, Scale::Quick) => Mix::read_write(4),
    };
    // No annotations in either setup: Figure 4 measures the tracking
    // mechanism itself, not the optional client-side transaction naming.
    let mut runner = TpccRunner::new(config, 7).without_annotations();
    let _ = bench.annotated;
    // Measure cache behaviour over the mix only (loading is append-heavy
    // and would dilute the footprint signal).
    let stats = bench.db.sim().stats();
    let (h0, m0) = (stats.page_hits.get(), stats.page_misses.get());
    let t0 = bench.db.sim().clock().now();
    let committed = mix.run(&mut runner, &mut *bench.conn).expect("mix run");
    let elapsed = (bench.db.sim().clock().now() - t0).as_secs_f64();
    let tps = committed as f64 / elapsed;
    let stats = bench.db.sim().stats();
    let hits = (stats.page_hits.get() - h0) as f64;
    let misses = (stats.page_misses.get() - m0) as f64;
    let ratio = if hits + misses == 0.0 {
        1.0
    } else {
        hits / (hits + misses)
    };
    // The tracked connection's metrics fold carries the proxy counters the
    // registry alone cannot see (rewrite cache, enforcement).
    if let (Some(probe), Setup::Tracked) = (probe, setup) {
        probe.capture(bench.conn.metrics());
    }
    (tps, ratio)
}

/// Runs one cell (baseline + proxy). `rewrite_cache` off is the
/// `fig4 --no-rewrite-cache` ablation; `probe` attaches telemetry to the
/// simulation contexts and the proxy (`--json-out`). The baseline is
/// measured at most once per configuration: the memo keys on (flavor,
/// link, mix, footprint), so repeat runs of the same configuration — the
/// rewrite-cache ablation pair in particular — reuse the earlier baseline
/// instead of re-measuring an identical run.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    flavor: Flavor,
    networked: bool,
    read_intensive: bool,
    large_footprint: bool,
    scale: Scale,
    rewrite_cache: bool,
    probe: Option<&Probe>,
    memo: &mut BaseMemo,
) -> Cell {
    let key = (flavor, networked, read_intensive, large_footprint);
    let (base_tps, base_hit_ratio) = *memo.0.entry(key).or_insert_with(|| {
        throughput(
            flavor,
            Setup::Baseline,
            networked,
            read_intensive,
            large_footprint,
            scale,
            true, // proxy-only knob: the baseline never sees the cache
            probe,
        )
    });
    let (proxy_tps, _) = throughput(
        flavor,
        Setup::Tracked,
        networked,
        read_intensive,
        large_footprint,
        scale,
        rewrite_cache,
        probe,
    );
    Cell {
        flavor,
        networked,
        read_intensive,
        large_footprint,
        base_tps,
        proxy_tps,
        base_hit_ratio,
    }
}

/// Runs all 24 cells of Figure 4 (4 panels × 3 flavors × 2 links),
/// optionally with the rewrite cache disabled and a telemetry probe
/// shared across them. One [`BaseMemo`] spans the run, so each
/// configuration's baseline is measured exactly once even if cells repeat.
pub fn run(scale: Scale, rewrite_cache: bool, probe: Option<&Probe>) -> Vec<Cell> {
    let mut out = Vec::with_capacity(24);
    let mut memo = BaseMemo::new();
    for read_intensive in [true, false] {
        for large_footprint in [true, false] {
            for flavor in Flavor::ALL {
                for networked in [false, true] {
                    out.push(run_cell(
                        flavor,
                        networked,
                        read_intensive,
                        large_footprint,
                        scale,
                        rewrite_cache,
                        probe,
                        &mut memo,
                    ));
                }
            }
        }
    }
    out
}

/// The cells as the `results` array of the `--json-out` report.
pub fn cells_json(cells: &[Cell]) -> String {
    let items: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"flavor\":{},\"networked\":{},\"read_intensive\":{},\
                 \"large_footprint\":{},\"base_tps\":{},\"proxy_tps\":{},\
                 \"overhead_pct\":{}}}",
                json_string(c.flavor.name()),
                c.networked,
                c.read_intensive,
                c.large_footprint,
                format_f64(c.base_tps),
                format_f64(c.proxy_tps),
                format_f64(c.overhead_pct()),
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the four panels the way the paper lays them out.
pub fn render(cells: &[Cell]) -> String {
    let mut out = String::new();
    for (ri, footprint_large, title) in [
        (
            true,
            true,
            "Read intensive transactions, W=10 (large footprint)",
        ),
        (
            false,
            true,
            "Read/write intensive transactions, W=10 (large footprint)",
        ),
        (
            true,
            false,
            "Read intensive transactions, W=1 (small footprint)",
        ),
        (
            false,
            false,
            "Read/write intensive transactions, W=1 (small footprint)",
        ),
    ] {
        out.push_str(&format!("\n=== {title} ===\n"));
        out.push_str(&format!(
            "{:<12} {:>10} {:>14} {:>14} {:>10}\n",
            "DBMS", "config", "base tps", "tracked tps", "overhead"
        ));
        for c in cells
            .iter()
            .filter(|c| c.read_intensive == ri && c.large_footprint == footprint_large)
        {
            let marker = if c.is_headline() {
                "  <- headline (paper: 6-13%)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<12} {:>10} {:>14.2} {:>14.2} {:>9.1}%{}\n",
                c.flavor.name(),
                if c.networked { "network" } else { "local" },
                c.base_tps,
                c.proxy_tps,
                c.overhead_pct(),
                marker,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick cell with the rewrite cache on, no probe, fresh memo.
    fn quick_cell(
        flavor: Flavor,
        networked: bool,
        read_intensive: bool,
        large_footprint: bool,
    ) -> Cell {
        run_cell(
            flavor,
            networked,
            read_intensive,
            large_footprint,
            Scale::Quick,
            true,
            None,
            &mut BaseMemo::new(),
        )
    }

    #[test]
    fn quick_cell_shows_positive_overhead() {
        let cell = quick_cell(Flavor::Postgres, true, true, true);
        assert!(cell.base_tps > 0.0);
        assert!(cell.proxy_tps > 0.0);
        assert!(
            cell.proxy_tps < cell.base_tps,
            "tracking must cost something: base {} vs proxy {}",
            cell.base_tps,
            cell.proxy_tps
        );
        assert!(cell.is_headline());
    }

    #[test]
    fn footprint_axis_drives_hit_ratio() {
        let small = quick_cell(Flavor::Oracle, true, true, false);
        let large = quick_cell(Flavor::Oracle, true, true, true);
        assert!(
            small.base_hit_ratio > large.base_hit_ratio,
            "W=1 ({:.2}) must cache better than W=10 ({:.2})",
            small.base_hit_ratio,
            large.base_hit_ratio
        );
    }

    #[test]
    fn rewrite_cache_reduces_tracking_overhead() {
        let mut memo = BaseMemo::new();
        let on = run_cell(
            Flavor::Postgres,
            false,
            true,
            false,
            Scale::Quick,
            true,
            None,
            &mut memo,
        );
        let off = run_cell(
            Flavor::Postgres,
            false,
            true,
            false,
            Scale::Quick,
            false,
            None,
            &mut memo,
        );
        assert_eq!(
            memo.len(),
            1,
            "one configuration means exactly one baseline measurement"
        );
        assert_eq!(
            on.base_tps, off.base_tps,
            "the baseline has no proxy and must not see the cache knob"
        );
        assert!(
            on.proxy_tps > off.proxy_tps,
            "cached rewrites must beat cold rewrites: {} vs {}",
            on.proxy_tps,
            off.proxy_tps
        );
    }

    #[test]
    fn render_contains_all_panels() {
        let cells = vec![quick_cell(Flavor::Sybase, false, true, true)];
        let text = render(&cells);
        assert!(text.contains("Read intensive transactions, W=10"));
        assert!(text.contains("Sybase"));
    }
}
