//! Figure 3: GraphViz visualisation of a sample inter-transaction
//! dependency graph from a small TPC-C run, with paper-style node labels
//! (`Order_w_d_c_seq`, `Payment_...`, `Deliv_...`).

use resildb_core::{CostModel, Flavor, LinkProfile, ProxyConfig};
use resildb_tpcc::{Mix, TpccConfig, TpccRunner};

use crate::json::Probe;
use crate::{prepare, Setup};

/// Runs a small annotated TPC-C mix and renders the dependency graph as
/// DOT, highlighting the damage closure of the earliest New-Order
/// transaction. An attached telemetry probe gets the `repair.*` phase
/// histograms the analysis pass populates.
pub fn render(probe: Option<&Probe>) -> String {
    let config = TpccConfig::tiny();
    let builder = ProxyConfig::builder(Flavor::Postgres).record_read_only_deps(true);
    let pc = Probe::proxy_config(probe, builder);
    let mut bench = prepare(
        Flavor::Postgres,
        Setup::Tracked,
        &config,
        crate::sim_context(CostModel::free(), usize::MAX, probe.map(Probe::telemetry)),
        LinkProfile::local(),
        Some(pc),
        3,
    )
    .expect("prepare");
    let mut runner = TpccRunner::new(config, 12);
    Mix::standard(14, 4)
        .run(&mut runner, &mut *bench.conn)
        .expect("mix");

    let analysis = resildb_core::RepairController::new(bench.db.clone())
        .analyze()
        .expect("analyze");
    // Highlight the closure of the first Order transaction, as a stand-in
    // for the paper's example graph.
    let mut s = bench.db.session();
    let first_order = s
        .query("SELECT tr_id FROM annot WHERE descr LIKE 'Order_%' ORDER BY tr_id LIMIT 1")
        .expect("annot")
        .rows
        .first()
        .and_then(|row| match row[0] {
            resildb_core::Value::Int(v) => Some(v),
            _ => None,
        });
    let highlight = match first_order {
        Some(id) => analysis.undo_set(&[id], &[]),
        None => Default::default(),
    };
    if let Some(probe) = probe {
        probe.capture(bench.conn.metrics());
    }
    analysis.to_dot(&highlight)
}

#[cfg(test)]
mod tests {
    #[test]
    fn dot_has_paper_style_labels_and_edges() {
        let dot = super::render(None);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("Order_") || dot.contains("Payment_"), "{dot}");
        assert!(dot.contains("->"), "graph should have edges:\n{dot}");
    }
}
