//! Ablation of the tracking overhead (paper §6's optimisation
//! discussion): how much of the penalty comes from read-set harvesting vs.
//! the commit-time `trans_dep` insert vs. trid stamping alone.

use resildb_core::{Flavor, LinkProfile, ProxyConfig, SimContext};
use resildb_tpcc::{Mix, TpccConfig, TpccRunner};

use crate::{costs, prepare, Setup};

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Human-readable configuration name.
    pub name: &'static str,
    /// Throughput in transactions per virtual second.
    pub tps: f64,
    /// Overhead vs. the baseline, percent.
    pub overhead_pct: f64,
}

fn run_config(name: &'static str, setup: Setup, pc: Option<ProxyConfig>, quick: bool) -> f64 {
    let config = TpccConfig::scaled(10);
    let sim = SimContext::new(costs::networked(), costs::POOL_PAGES);
    let mut bench = prepare(
        Flavor::Postgres,
        setup,
        &config,
        sim,
        LinkProfile::lan(),
        pc,
        42,
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mix = if quick {
        Mix::read_write(4)
    } else {
        Mix::read_write(40)
    };
    let mut runner = TpccRunner::new(config, 7);
    if !bench.annotated {
        runner = runner.without_annotations();
    }
    let t0 = bench.db.sim().clock().now();
    let committed = mix.run(&mut runner, &mut *bench.conn).expect("mix");
    let elapsed = (bench.db.sim().clock().now() - t0).as_secs_f64();
    committed as f64 / elapsed
}

/// Runs the ablation on the read/write mix (where every mechanism is
/// exercised) and returns rows ordered from no tracking to full tracking.
pub fn run(quick: bool) -> Vec<AblationRow> {
    let base = run_config("baseline", Setup::Baseline, None, quick);
    let mut rows = vec![AblationRow {
        name: "baseline (no tracking)",
        tps: base,
        overhead_pct: 0.0,
    }];
    let full = ProxyConfig::builder(Flavor::Postgres);
    let paper_faithful = full.clone().record_provenance(false);
    let no_reads = paper_faithful.clone().track_reads(false);
    let no_commit = paper_faithful.clone().record_deps_at_commit(false);
    let stamp_only = no_reads.clone().record_deps_at_commit(false);
    for (name, pc) in [
        ("trid stamping only", stamp_only),
        ("+ read-set harvesting", no_commit),
        ("+ commit-time trans_dep insert", no_reads),
        ("paper-faithful tracking", paper_faithful),
        ("full tracking (with provenance)", full),
    ] {
        let tps = run_config(name, Setup::Tracked, Some(pc.build()), quick);
        rows.push(AblationRow {
            name,
            tps,
            overhead_pct: crate::pct(base, tps),
        });
    }
    rows
}

/// Renders the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::from(
        "Ablation: tracking-overhead decomposition (read/write mix, W=10, networked)\n\n",
    );
    out.push_str(&format!(
        "{:<34} {:>12} {:>10}\n",
        "configuration", "tps", "overhead"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>12.2} {:>9.1}%\n",
            r.name, r.tps, r.overhead_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_tracking_costs_at_least_as_much_as_stamping_only() {
        let rows = run(true);
        assert_eq!(rows.len(), 6);
        let stamp = rows.iter().find(|r| r.name.contains("stamping")).unwrap();
        let full = rows
            .iter()
            .find(|r| r.name.starts_with("full tracking"))
            .unwrap();
        assert!(
            full.tps <= stamp.tps,
            "full {:.2} vs stamp {:.2}",
            full.tps,
            stamp.tps
        );
    }
}
