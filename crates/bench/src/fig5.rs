//! Figure 5: repair accuracy — number of rolled-back transactions and
//! percentage of saved transactions versus the detection latency
//! `T_detect` (expressed, as in the paper, in transactions committed since
//! the intrusion), with and without false-dependency discarding.

use resildb_core::{CostModel, FalseDepRule, Flavor, LinkProfile, ProxyConfig};
use resildb_tpcc::{Attack, AttackKind, Mix, TpccConfig, TpccRunner, ATTACK_LABEL};

use crate::json::Probe;
use crate::{prepare, Setup};

/// One point of the Figure 5 curves (both variants).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Warehouse factor.
    pub w: u32,
    /// Transactions committed between intrusion and detection.
    pub t_detect: usize,
    /// Undo-set size when tracking all dependencies.
    pub rolled_back_all: usize,
    /// Percentage of post-intrusion transactions saved (all deps).
    pub saved_pct_all: f64,
    /// Undo-set size after discarding false (ytd-mediated) dependencies.
    pub rolled_back_filtered: usize,
    /// Percentage saved after discarding false dependencies.
    pub saved_pct_filtered: f64,
}

/// The DBA rule of the paper's §5.3 example: `warehouse.w_ytd` is a
/// running total recomputable from the orders table, so dependencies that
/// exist only through it are discarded. (The analogous `district.d_ytd`
/// rule would prune further — the paper's example stops at the warehouse
/// table, which leaves the district-row chains in place and is what keeps
/// the filtered curve growing with `T_detect`.)
pub fn ytd_rules() -> Vec<FalseDepRule> {
    vec![FalseDepRule::IgnoreDerivedColumns {
        table: "warehouse".into(),
        columns: vec!["w_ytd".into()],
    }]
}

/// The TPC-C sizing used for the accuracy experiments: more districts and
/// items than the throughput preset, diluting per-row collision rates the
/// way the paper's full-size database does (its 30 districts × 100 000
/// items make accidental row sharing rare outside the warehouse row).
pub fn fig5_config(w: u32) -> TpccConfig {
    let mut config = TpccConfig::scaled(w);
    config.districts_per_warehouse = 6;
    config.items = 8_000;
    config
}

/// Runs one (W, T_detect) experiment and measures both variants, with
/// an optional telemetry probe attached.
pub fn run_point(w: u32, t_detect: usize, seed: u64, probe: Option<&Probe>) -> Point {
    let config = fig5_config(w);
    // Costs are irrelevant here; track read-only transactions too so the
    // saved-percentage accounts for every transaction, as in the paper.
    let builder = ProxyConfig::builder(Flavor::Postgres).record_read_only_deps(true);
    let pc = Probe::proxy_config(probe, builder);
    let mut bench = prepare(
        Flavor::Postgres,
        Setup::Tracked,
        &config,
        crate::sim_context(CostModel::free(), usize::MAX, probe.map(Probe::telemetry)),
        LinkProfile::local(),
        Some(pc),
        seed,
    )
    .expect("prepare");

    let mut runner = TpccRunner::new(config, seed.wrapping_mul(31).wrapping_add(7));
    // Pre-intrusion activity.
    Mix::standard(25, seed)
        .run(&mut runner, &mut *bench.conn)
        .expect("warmup");

    Attack {
        kind: AttackKind::ForgedPayment,
        w_id: 1,
        d_id: 1,
        target_id: 1,
    }
    .execute(&mut *bench.conn)
    .expect("attack");

    // T_detect further transactions before detection.
    Mix::standard(t_detect, seed.wrapping_add(1))
        .run(&mut runner, &mut *bench.conn)
        .expect("post-attack load");

    let tool = resildb_core::RepairController::new(bench.db.clone());
    let analysis = tool.analyze().expect("analyze");
    let attack_id = {
        let mut s = bench.db.session();
        let r = s
            .query(&format!(
                "SELECT tr_id FROM annot WHERE descr = '{ATTACK_LABEL}'"
            ))
            .expect("annot query");
        match r.rows.first().map(|row| row[0].clone()) {
            Some(resildb_core::Value::Int(v)) => v,
            other => panic!("attack not tracked: {other:?}"),
        }
    };

    let after_attack: std::collections::BTreeSet<i64> = analysis
        .tracked_transactions()
        .into_iter()
        .filter(|&t| t > attack_id)
        .collect();

    let measure = |rules: &[FalseDepRule]| {
        let undo = analysis.undo_set(&[attack_id], rules);
        let rolled_back = undo.len();
        let polluted_after = after_attack.intersection(&undo).count();
        let saved = if after_attack.is_empty() {
            100.0
        } else {
            100.0 * (after_attack.len() - polluted_after) as f64 / after_attack.len() as f64
        };
        (rolled_back, saved)
    };

    let (rolled_back_all, saved_pct_all) = measure(&[]);
    let (rolled_back_filtered, saved_pct_filtered) = measure(&ytd_rules());
    if let Some(probe) = probe {
        probe.capture(bench.conn.metrics());
    }

    Point {
        w,
        t_detect,
        rolled_back_all,
        saved_pct_all,
        rolled_back_filtered,
        saved_pct_filtered,
    }
}

/// Runs the full grid with an optional telemetry probe shared across it.
pub fn run(ws: &[u32], t_detects: &[usize], probe: Option<&Probe>) -> Vec<Point> {
    let mut out = Vec::new();
    for &w in ws {
        for &t in t_detects {
            out.push(run_point(w, t, 1000 + u64::from(w), probe));
        }
    }
    out
}

/// Renders the two columns of Figure 5 per warehouse factor.
pub fn render(points: &[Point]) -> String {
    let mut out = String::new();
    let mut ws: Vec<u32> = points.iter().map(|p| p.w).collect();
    ws.sort_unstable();
    ws.dedup();
    for w in ws {
        out.push_str(&format!("\n=== W = {w} ===\n"));
        out.push_str(&format!(
            "{:>9} {:>18} {:>20} {:>16} {:>18}\n",
            "T_detect",
            "rolled back (all)",
            "rolled back (no-false)",
            "saved % (all)",
            "saved % (no-false)"
        ));
        for p in points.iter().filter(|p| p.w == w) {
            out.push_str(&format!(
                "{:>9} {:>18} {:>20} {:>15.1}% {:>17.1}%\n",
                p.t_detect,
                p.rolled_back_all,
                p.rolled_back_filtered,
                p.saved_pct_all,
                p.saved_pct_filtered,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_never_increases_rollbacks() {
        let p = run_point(2, 30, 5, None);
        assert!(p.rolled_back_filtered <= p.rolled_back_all, "{p:?}");
        assert!(p.saved_pct_filtered >= p.saved_pct_all, "{p:?}");
        assert!(p.rolled_back_all >= 1, "attack itself is rolled back");
    }

    #[test]
    fn rollbacks_grow_with_t_detect() {
        let short = run_point(2, 10, 5, None);
        let long = run_point(2, 60, 5, None);
        assert!(
            long.rolled_back_all >= short.rolled_back_all,
            "short {short:?} vs long {long:?}"
        );
    }
}
