//! Offline exploration of flight-recorder captures: per-transaction
//! timelines, a whole-capture summary and the incident fold.
//!
//! A capture is the source of truth for what happened and when, not for
//! what is damaged: its `dep_harvested` events carry only the read
//! dependencies the proxy harvests online, while update and delete
//! dependencies live in the log. Damage closures come from
//! [`Analysis`](crate::Analysis) alone — through
//! [`WhatIfSession`](crate::WhatIfSession) or `repair_console`.
//!
//! This is the engine behind the `resildb-trace` binary, kept as a
//! library module so the timeline logic is unit-testable without
//! spawning a process.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use resildb_sim::telemetry::timeline::replay;
use resildb_sim::{EventKind, TraceSnapshot};

/// What `--txn` prints in place of a damage closure.
const NO_CLOSURE: &str = "damage closure: not available from a capture, which holds only \
online read harvests; use ResilientDb::analyze with WhatIfSession, or repair_console";

/// An offline view over a [`TraceSnapshot`].
#[derive(Debug)]
pub struct TraceExplorer {
    snapshot: TraceSnapshot,
}

impl TraceExplorer {
    /// Builds an explorer from a parsed capture.
    pub fn from_snapshot(snapshot: TraceSnapshot) -> Self {
        Self { snapshot }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &TraceSnapshot {
        &self.snapshot
    }

    /// Every proxy transaction id appearing in the capture (event owners
    /// and harvested writers; the out-of-transaction id `0` is excluded).
    pub fn transactions(&self) -> BTreeSet<i64> {
        let mut all = BTreeSet::new();
        for ev in &self.snapshot.events {
            all.insert(ev.txn);
            if let EventKind::DepHarvested { dep, .. } = ev.kind {
                all.insert(dep);
            }
        }
        all.remove(&0);
        all
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

    /// What `--txn` prints: the timeline of `txn`, whose `dep_harvested`
    /// lines are its direct harvested reads, then one line saying that a
    /// capture cannot give a damage closure and which tools can.
    pub fn render_txn(&self, txn: i64) -> String {
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
        let _ = writeln!(out, "{NO_CLOSURE}");
        out
    }

    /// A whole-capture summary: window size, how many earlier events the
    /// window lacks, per-kind event histogram and transaction count.
    pub fn summary(&self) -> String {
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for ev in &self.snapshot.events {
            *counts.entry(ev.kind.name()).or_insert(0) += 1;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: {} (capacity {}, {} earlier events not in capture)",
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
    fn render_txn_prints_the_timeline_and_no_closure() {
        let ex = TraceExplorer::from_snapshot(capture());
        let text = ex.render_txn(2);
        assert!(text.starts_with("txn 2 timeline:\n"));
        // The direct harvested read names its writer and table.
        assert!(text.contains("dep_harvested dep=1 table=accounts"));
        assert!(text.ends_with(&format!("{NO_CLOSURE}\n")));
        assert!(!text.contains("taints"));
        assert!(!text.contains("tainted by"));
    }

    #[test]
    fn transactions_include_event_owners_and_writers() {
        let ex = TraceExplorer::from_snapshot(capture());
        assert_eq!(ex.transactions(), [1, 2, 3, 9].into_iter().collect());
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
        assert!(s.contains("(capacity 128, 0 earlier events not in capture)"));

        // An overflowed ring, round-tripped as `--trace-out` writes it,
        // still reports the events it lost.
        let rec = FlightRecorder::with_capacity(2);
        rec.set_enabled(true);
        for txn in 1..=5 {
            rec.emit(txn, 1, EventKind::TxnBegin);
        }
        let live = rec.snapshot();
        assert_eq!(live.dropped, 3);
        let events =
            crate::trace::parse_capture(&resildb_sim::telemetry::trace::to_jsonl(&live)).unwrap();
        let ex = TraceExplorer::from_snapshot(TraceSnapshot::from_events(events));
        assert_eq!(ex.snapshot().dropped, 3);
        assert!(ex
            .summary()
            .contains("events: 2 (capacity 2, 3 earlier events not in capture)"));
    }
}
