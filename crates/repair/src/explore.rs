//! Offline exploration of flight-recorder captures: per-transaction
//! timelines, causal ("who tainted whom") chains reconstructed from
//! harvested-dependency events, and forensic DOT rendering.
//!
//! This is the engine behind the `resildb-trace` binary, kept as a
//! library module so the timeline/chain logic is unit-testable without
//! spawning a process.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use resildb_sim::telemetry::timeline::replay;
use resildb_sim::{EventKind, TraceSnapshot};

use crate::graph::{DepGraph, EdgeKind, EdgeProvenance, FalseDepRule};

/// The causal neighbourhood of one transaction in a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalChain {
    /// The transaction under scrutiny.
    pub txn: i64,
    /// Transactions it transitively read from — who tainted it.
    pub tainted_by: BTreeSet<i64>,
    /// Transactions that transitively read from it — whom it taints
    /// (its damage closure, excluding itself).
    pub taints: BTreeSet<i64>,
}

/// An offline view over a [`TraceSnapshot`], with the dependency graph
/// rebuilt from its `dep_harvested` events.
#[derive(Debug)]
pub struct TraceExplorer {
    snapshot: TraceSnapshot,
    graph: DepGraph,
}

impl TraceExplorer {
    /// Builds an explorer from a parsed capture. Every `dep_harvested`
    /// event becomes one dependency edge (the harvesting transaction
    /// depends on the stamped writer, mediated by the recorded table).
    pub fn from_snapshot(snapshot: TraceSnapshot) -> Self {
        let mut graph = DepGraph::new();
        for ev in &snapshot.events {
            if let EventKind::DepHarvested { dep, table } = &ev.kind {
                graph.add_edge(
                    ev.txn,
                    *dep,
                    EdgeProvenance {
                        table: table.clone(),
                        kind: EdgeKind::Read {
                            read_columns: Vec::new(),
                        },
                    },
                );
            }
        }
        Self { snapshot, graph }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &TraceSnapshot {
        &self.snapshot
    }

    /// The dependency graph reconstructed from harvested-dependency
    /// events.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Every proxy transaction id appearing in the capture (event owners
    /// and harvested writers; the out-of-transaction id `0` is excluded).
    pub fn transactions(&self) -> BTreeSet<i64> {
        let mut all: BTreeSet<i64> = self
            .snapshot
            .events
            .iter()
            .map(|e| e.txn)
            .filter(|&t| t != 0)
            .collect();
        all.extend(self.graph.transactions().into_iter().filter(|&t| t != 0));
        all
    }

    /// The causal neighbourhood of `txn`: everything it transitively
    /// depends on (`tainted_by`) and everything transitively depending on
    /// it (`taints`).
    pub fn causal_chain(&self, txn: i64) -> CausalChain {
        let mut tainted_by = BTreeSet::new();
        let mut frontier = vec![txn];
        while let Some(t) = frontier.pop() {
            for dep in self.graph.dependencies_of(t) {
                if tainted_by.insert(dep) {
                    frontier.push(dep);
                }
            }
        }
        tainted_by.remove(&txn);
        let mut taints = self.graph.closure(&[txn], &[]);
        taints.remove(&txn);
        CausalChain {
            txn,
            tainted_by,
            taints,
        }
    }

    /// The event timeline of `txn`, one line per event in tick order.
    pub fn timeline(&self, txn: i64) -> String {
        let mut out = String::new();
        for ev in &self.snapshot.events {
            if ev.txn == txn {
                let _ = writeln!(out, "#{:<8} s{:<4} {}", ev.seq, ev.session, ev.kind);
            }
        }
        out
    }

    /// Renders the causal chain of `txn` as text: its timeline, its
    /// direct and transitive taint sources, and its damage closure.
    pub fn render_chain(&self, txn: i64) -> String {
        let chain = self.causal_chain(txn);
        let mut out = String::new();
        let _ = writeln!(out, "txn {txn} timeline:");
        let timeline = self.timeline(txn);
        if timeline.is_empty() {
            out.push_str("  (no events in capture window)\n");
        } else {
            for line in timeline.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        let direct = self.graph.dependencies_of(txn);
        let _ = writeln!(out, "reads from (direct): {}", fmt_set(&direct));
        let _ = writeln!(
            out,
            "tainted by (transitive): {}",
            fmt_set(&chain.tainted_by)
        );
        for dep in &direct {
            let tables: BTreeSet<&str> = self
                .graph
                .edge(txn, *dep)
                .iter()
                .map(|p| p.table.as_str())
                .collect();
            let _ = writeln!(
                out,
                "  txn {dep} -> txn {txn} via {}",
                tables.into_iter().collect::<Vec<_>>().join(", ")
            );
        }
        let _ = writeln!(out, "taints (damage closure): {}", fmt_set(&chain.taints));
        out
    }

    /// A whole-capture summary: window size, drop count, per-kind event
    /// histogram and transaction count.
    pub fn summary(&self) -> String {
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for ev in &self.snapshot.events {
            *counts.entry(ev.kind.name()).or_insert(0) += 1;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: {} (capacity {}, dropped {})",
            self.snapshot.events.len(),
            self.snapshot.capacity,
            self.snapshot.dropped
        );
        let _ = writeln!(out, "transactions: {}", self.transactions().len());
        for (name, n) in counts {
            let _ = writeln!(out, "  {name:<18} {n}");
        }
        out
    }

    /// The repair timeline: the capture replayed through the incident
    /// fold (`resildb_sim::telemetry::timeline::replay`) — every repair
    /// and containment event it consumed, one line each in tick order,
    /// then one line per incident with the phases and progress numbers
    /// they add up to. This is the offline twin of `/incidents` and the
    /// `repair.progress.*` gauges.
    pub fn repair_timeline(&self) -> String {
        let (events, incidents) = replay(&self.snapshot.events);
        let mut out = String::new();
        for ev in events {
            let _ = writeln!(out, "#{:<8} {}", ev.seq, ev.kind);
        }
        for incident in &incidents {
            let phases: Vec<&str> = incident.marks.iter().map(|m| m.phase.name()).collect();
            let p = incident.progress;
            let _ = writeln!(
                out,
                "incident #{} ({}): {} | compensated {}/{} closure {} \
                 fence {} tables/{} rows extension rounds {}",
                incident.id,
                if incident.open { "open" } else { "closed" },
                phases.join(" > "),
                p.compensated,
                p.total,
                p.closure,
                p.fence_tables,
                p.fence_rows,
                p.extension_rounds,
            );
        }
        if out.is_empty() {
            out.push_str("(no repair events in capture window)\n");
        }
        out
    }

    /// Renders the reconstructed graph as forensic DOT. With a focus
    /// transaction, that transaction is filled red and its damage closure
    /// under `rules` orange; edges dismissed by `rules` are dashed gray.
    pub fn to_dot(&self, focus: Option<i64>, rules: &[FalseDepRule]) -> String {
        let pruned = self.graph.pruned_edges(rules);
        match focus {
            Some(txn) => {
                let attack: BTreeSet<i64> = [txn].into_iter().collect();
                let closure = self.graph.closure(&[txn], rules);
                self.graph
                    .to_dot_styled(&attack, Some(&closure), Some(&pruned))
            }
            None => self
                .graph
                .to_dot_styled(&BTreeSet::new(), None, Some(&pruned)),
        }
    }
}

fn fmt_set(s: &BTreeSet<i64>) -> String {
    if s.is_empty() {
        "(none)".to_string()
    } else {
        s.iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_sim::{FlightRecorder, TraceVerdict};

    /// 1 -> 2 -> 3 chain plus an unrelated txn 9, recorded as a real
    /// capture through a FlightRecorder.
    fn capture() -> TraceSnapshot {
        let rec = FlightRecorder::with_capacity(128);
        rec.set_enabled(true);
        rec.emit(1, 1, EventKind::TxnBegin);
        rec.emit(
            1,
            1,
            EventKind::StmtRewrite {
                cache_hit: false,
                verdict: TraceVerdict::Sound,
            },
        );
        rec.emit(1, 1, EventKind::Commit);
        rec.emit(2, 1, EventKind::TxnBegin);
        rec.emit(
            2,
            1,
            EventKind::DepHarvested {
                dep: 1,
                table: "accounts".into(),
            },
        );
        rec.emit(2, 1, EventKind::TransDepInsert { deps: 1 });
        rec.emit(2, 1, EventKind::Commit);
        rec.emit(3, 2, EventKind::TxnBegin);
        rec.emit(
            3,
            2,
            EventKind::DepHarvested {
                dep: 2,
                table: "orders".into(),
            },
        );
        rec.emit(3, 2, EventKind::Commit);
        rec.emit(9, 3, EventKind::TxnBegin);
        rec.emit(9, 3, EventKind::Abort);
        rec.snapshot()
    }

    #[test]
    fn chain_reports_taint_in_both_directions() {
        let ex = TraceExplorer::from_snapshot(capture());
        let chain = ex.causal_chain(2);
        assert_eq!(chain.tainted_by, [1].into_iter().collect());
        assert_eq!(chain.taints, [3].into_iter().collect());
        let chain = ex.causal_chain(1);
        assert!(chain.tainted_by.is_empty());
        assert_eq!(chain.taints, [2, 3].into_iter().collect());
        let chain = ex.causal_chain(9);
        assert!(chain.tainted_by.is_empty());
        assert!(chain.taints.is_empty());
    }

    #[test]
    fn timeline_lists_only_the_requested_txn() {
        let ex = TraceExplorer::from_snapshot(capture());
        let tl = ex.timeline(1);
        assert_eq!(tl.lines().count(), 3);
        assert!(tl.contains("txn_begin"));
        assert!(tl.contains("stmt_rewrite cache_hit=false verdict=sound"));
        assert!(tl.contains("commit"));
        assert!(!tl.contains("dep_harvested"));
    }

    #[test]
    fn render_chain_names_the_mediating_table() {
        let ex = TraceExplorer::from_snapshot(capture());
        let text = ex.render_chain(2);
        assert!(text.contains("tainted by (transitive): 1"));
        assert!(text.contains("txn 1 -> txn 2 via accounts"));
        assert!(text.contains("taints (damage closure): 3"));
    }

    #[test]
    fn transactions_include_event_owners_and_writers() {
        let ex = TraceExplorer::from_snapshot(capture());
        assert_eq!(ex.transactions(), [1, 2, 3, 9].into_iter().collect());
    }

    #[test]
    fn dot_focus_styles_closure_and_pruned_edges() {
        let ex = TraceExplorer::from_snapshot(capture());
        let rules = vec![FalseDepRule::IgnoreTable("orders".into())];
        let dot = ex.to_dot(Some(1), &rules);
        assert!(dot.contains("t1 [label=\"txn_1\", style=filled, fillcolor=indianred1]"));
        assert!(dot.contains("t2 [label=\"txn_2\", style=filled, fillcolor=orange]"));
        // txn 3's only edge is pruned, so it stays out of the closure.
        assert!(dot.contains("t3 [label=\"txn_3\"]"));
        assert!(dot.contains("t2 -> t3 [style=dashed, color=gray, label=\"pruned\"];"));
    }

    #[test]
    fn summary_counts_kinds() {
        let ex = TraceExplorer::from_snapshot(capture());
        let s = ex.summary();
        assert!(s.contains("events: 12"));
        assert!(s.contains("transactions: 4"));
        let count_of = |name: &str| {
            s.lines()
                .find_map(|l| {
                    let mut it = l.split_whitespace();
                    (it.next() == Some(name)).then(|| it.next().map(str::to_string))
                })
                .flatten()
        };
        assert_eq!(count_of("txn_begin").as_deref(), Some("4"));
        assert_eq!(count_of("commit").as_deref(), Some("3"));
        assert_eq!(count_of("abort").as_deref(), Some("1"));
    }
}
