//! Flight-recorder event tracing: a bounded ring buffer of typed
//! lifecycle events forming per-transaction causal timelines.
//!
//! Metrics ([`crate::MetricsRegistry`]) answer *how fast* each layer is;
//! the flight recorder answers *what happened, in what order, caused by
//! whom* — the forensic record an operator replays after an intrusion.
//! Every event is stamped with the proxy transaction id, the proxy
//! session (connection) id and a monotonic tick, so a capture can be
//! joined against the `trans_dep` graph to reconstruct which transaction
//! tainted which.
//!
//! The recorder follows the same disabled-path discipline as
//! [`crate::Telemetry::span`] and the disarmed failpoint check: when
//! disabled (the default), [`FlightRecorder::emit`] returns after one
//! relaxed atomic load — no clock read, no lock, no allocation.
//!
//! Two exporters ship with the recorder: [`to_jsonl`] (one JSON object
//! per line, grep-friendly) and [`to_chrome_trace`] (Chrome Trace Event
//! Format, loadable in Perfetto with transactions as tracks). The
//! recorder only writes; captures are read back by `resildb_repair::trace`,
//! beside the `resildb-trace` explorer that consumes them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::{JsonWriter, Scalar};

/// Default ring capacity (events) of a [`FlightRecorder`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Enforcement verdict attached to a [`EventKind::StmtRewrite`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVerdict {
    /// No verdict kept: enforcement `Allow` (the paper's behaviour) and
    /// the statement does not write tracking state.
    Unchecked,
    /// Classified fully soundly tracked.
    Sound,
    /// Classified degraded (tracked, but coarser).
    Degraded,
    /// Classified untracked (dependencies invisible), but forwarded.
    Untracked,
    /// Classified untracked and refused: by the `Reject` policy, or under
    /// every policy for a write to tracking state.
    Rejected,
}

impl TraceVerdict {
    /// Stable wire name of the verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceVerdict::Unchecked => "unchecked",
            TraceVerdict::Sound => "sound",
            TraceVerdict::Degraded => "degraded",
            TraceVerdict::Untracked => "untracked",
            TraceVerdict::Rejected => "rejected",
        }
    }
}

/// What happened. Statement-lifecycle events are emitted by the tracking
/// proxy (stamped with the proxy transaction id), WAL events by the
/// engine (stamped with the DBMS-internal id — the repair tool's
/// correlation step joins the two), fault events by the simulation
/// substrate, and repair/containment events by the repair pipeline
/// through [`crate::Telemetry::repair_event`], which also folds them into
/// the incident timeline (see [`crate::timeline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The proxy allocated a transaction id (explicit `BEGIN` or the
    /// implicit transaction wrapping a bare write).
    TxnBegin,
    /// The proxy intercepted a statement: rewrite-cache outcome and
    /// enforcement verdict.
    StmtRewrite {
        /// Whether the statement shape was served from the rewrite cache.
        cache_hit: bool,
        /// The enforcement verdict applied to the statement.
        verdict: TraceVerdict,
    },
    /// A SELECT result row carried another transaction's trid stamp: a
    /// new read dependency was folded into the current transaction.
    DepHarvested {
        /// The depended-on proxy transaction id.
        dep: i64,
        /// The mediating table (empty when unknown).
        table: String,
    },
    /// The commit-time `trans_dep` record was written.
    TransDepInsert {
        /// Number of distinct dependencies recorded.
        deps: u32,
    },
    /// The proxy transaction committed (tracking rows durable).
    Commit,
    /// The proxy transaction aborted or was rolled back.
    Abort,
    /// The engine forced a commit record to the WAL.
    WalCommit {
        /// DBMS-internal transaction id.
        internal: u64,
    },
    /// The engine rolled a transaction back (abort record appended).
    WalAbort {
        /// DBMS-internal transaction id.
        internal: u64,
    },
    /// An armed failpoint fired.
    FaultHit {
        /// Failpoint name (see `resildb_sim::failpoints`).
        failpoint: String,
    },
    /// Repair phase: the transaction log was scanned.
    LogScan {
        /// Normalized log records recovered.
        records: u64,
    },
    /// Repair phase: proxy ↔ internal transaction ids were correlated.
    Correlate {
        /// Correlated id pairs.
        pairs: u64,
    },
    /// Repair phase: the damage closure was computed — by `plan()`, by
    /// `execute()` adopting a (possibly hand-edited) plan, and by every
    /// live re-analysis behind the fence.
    ClosureComputed {
        /// Size of the initial attack set.
        initial: u32,
        /// Size of the resulting undo set (for a live re-analysis,
        /// including what earlier sweep rounds already compensated).
        nodes: u32,
    },
    /// Repair phase: one undone transaction's compensation is durable
    /// (emitted after the sweep's COMMIT, tracing on or off).
    Compensated {
        /// Compensating statements executed for this transaction.
        statements: u32,
    },
    /// Repair phase: `execute()` opened an incident — the detection
    /// mark on the incident timeline.
    IncidentDetected {
        /// Incident-clock stamp ([`crate::Telemetry::incident_stamp`])
        /// taken when the analysis being executed began.
        at_ns: u64,
    },
    /// Repair phase: `execute()` returned (success, error or unwind) and
    /// the incident closed.
    IncidentClosed,
    /// Repair phase: the compensation sweep converged (no fresh closure
    /// members left) — the sweep-complete mark on the incident timeline.
    SweepComplete {
        /// Sweep rounds executed: 1 plus one per fence extension.
        rounds: u32,
    },
    /// Live repair: the containment fence was raised over the static
    /// blast-radius surface (whole-table quarantine).
    FenceRaised {
        /// Number of wholly-fenced tables.
        tables: u32,
    },
    /// Live repair: correlation caught up and the fence shrank from the
    /// static table surface to the dynamic row-level closure.
    FenceShrunk {
        /// Tables still wholly fenced (no usable primary key).
        tables: u32,
        /// Individually fenced rows.
        rows: u32,
    },
    /// Live repair: re-analysis found new closure members and the fence
    /// grew to cover their rows mid-sweep.
    FenceExtended {
        /// Rows added to the fence.
        rows: u32,
    },
    /// Live repair: the sweep finished and the fence was lifted.
    FenceLifted,
}

impl EventKind {
    /// Stable wire name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxnBegin => "txn_begin",
            EventKind::StmtRewrite { .. } => "stmt_rewrite",
            EventKind::DepHarvested { .. } => "dep_harvested",
            EventKind::TransDepInsert { .. } => "trans_dep_insert",
            EventKind::Commit => "commit",
            EventKind::Abort => "abort",
            EventKind::WalCommit { .. } => "wal_commit",
            EventKind::WalAbort { .. } => "wal_abort",
            EventKind::FaultHit { .. } => "fault_hit",
            EventKind::LogScan { .. } => "log_scan",
            EventKind::Correlate { .. } => "correlate",
            EventKind::ClosureComputed { .. } => "closure_computed",
            EventKind::Compensated { .. } => "compensated",
            EventKind::IncidentDetected { .. } => "incident_detected",
            EventKind::IncidentClosed => "incident_closed",
            EventKind::SweepComplete { .. } => "sweep_complete",
            EventKind::FenceRaised { .. } => "fence_raised",
            EventKind::FenceShrunk { .. } => "fence_shrunk",
            EventKind::FenceExtended { .. } => "fence_extended",
            EventKind::FenceLifted => "fence_lifted",
        }
    }

    /// The detail fields this kind carries, in wire order, as typed
    /// values. The JSON exporters and `Display` both print from this list.
    fn fields(&self) -> Vec<(&'static str, Scalar<'_>)> {
        match self {
            EventKind::TxnBegin
            | EventKind::Commit
            | EventKind::Abort
            | EventKind::IncidentClosed
            | EventKind::FenceLifted => Vec::new(),
            EventKind::StmtRewrite { cache_hit, verdict } => vec![
                ("cache_hit", (*cache_hit).into()),
                ("verdict", verdict.as_str().into()),
            ],
            EventKind::DepHarvested { dep, table } => {
                vec![("dep", (*dep).into()), ("table", table.as_str().into())]
            }
            EventKind::TransDepInsert { deps } => vec![("deps", (*deps).into())],
            EventKind::WalCommit { internal } | EventKind::WalAbort { internal } => {
                vec![("internal", (*internal).into())]
            }
            EventKind::FaultHit { failpoint } => vec![("failpoint", failpoint.as_str().into())],
            EventKind::LogScan { records } => vec![("records", (*records).into())],
            EventKind::Correlate { pairs } => vec![("pairs", (*pairs).into())],
            EventKind::ClosureComputed { initial, nodes } => {
                vec![("initial", (*initial).into()), ("nodes", (*nodes).into())]
            }
            EventKind::Compensated { statements } => vec![("statements", (*statements).into())],
            EventKind::IncidentDetected { at_ns } => vec![("at_ns", (*at_ns).into())],
            EventKind::SweepComplete { rounds } => vec![("rounds", (*rounds).into())],
            EventKind::FenceRaised { tables } => vec![("tables", (*tables).into())],
            EventKind::FenceShrunk { tables, rows } => {
                vec![("tables", (*tables).into()), ("rows", (*rows).into())]
            }
            EventKind::FenceExtended { rows } => vec![("rows", (*rows).into())],
        }
    }

    /// Writes the `"event"` name and the detail fields as object members.
    fn write_members(&self, w: &mut JsonWriter) {
        w.field("event", self.name());
        for (key, value) in self.fields() {
            w.field(key, value);
        }
    }
}

impl std::fmt::Display for EventKind {
    /// Human-readable one-line rendering: the wire name followed by
    /// `key=value` detail fields (for timeline listings).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())?;
        self.fields()
            .iter()
            .try_for_each(|(key, value)| write!(f, " {key}={value}"))
    }
}

/// One recorded event: a monotonic tick, the transaction and session it
/// belongs to, and [what happened](EventKind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic tick: allocation order across all threads. Gap-free
    /// while the recorder is enabled (wraparound drops old events from
    /// the ring, never ticks).
    pub seq: u64,
    /// Proxy transaction id (`0` when no transaction is in scope — e.g.
    /// engine WAL events, fault hits, repair-phase events).
    pub txn: i64,
    /// Proxy session (connection) id (`0` outside the proxy).
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Point-in-time copy of the recorder's window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The retained events, oldest first (ascending `seq`).
    pub events: Vec<TraceEvent>,
    /// Recorded events that precede the window and are not in it: those
    /// evicted by wraparound for a live snapshot; for a parsed capture,
    /// every tick before its first event (evicted or cleared).
    pub dropped: u64,
    /// Ring capacity in events.
    pub capacity: usize,
}

impl TraceSnapshot {
    /// Wraps parsed capture events (e.g. from `resildb_repair::trace`) as a
    /// snapshot: the window is exactly the events given and capacity
    /// equals the window size. Ticks are gap-free from 0, so a window
    /// whose first event has `seq = k` is missing the `k` events recorded
    /// before it, whether wraparound evicted them or `clear()` discarded
    /// them; that is its `dropped`.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let capacity = events.len();
        let dropped = events.first().map_or(0, |e| e.seq);
        Self {
            events,
            dropped,
            capacity,
        }
    }

    /// The events stamped with proxy transaction `txn`, oldest first.
    pub fn events_for(&self, txn: i64) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.txn == txn).collect()
    }

    /// Occurrences of `kind` name (e.g. `"commit"`) for `txn`.
    pub fn count_for(&self, txn: i64, kind_name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.txn == txn && e.kind.name() == kind_name)
            .count()
    }
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    /// Next tick to allocate. Lives under the ring mutex so that tick
    /// allocation and append are one atomic step: the buffer is always
    /// seq-sorted and wraparound always evicts the oldest event.
    seq: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lock-light bounded ring buffer of [`TraceEvent`]s.
///
/// Disabled (the default), [`emit`](Self::emit) costs one relaxed atomic
/// load. Enabled, it allocates a tick and appends under one short mutex
/// hold, so ticks and buffer order always agree; when the ring is full
/// the oldest event is dropped and the `dropped` counter advances —
/// recent history always wins, like an aircraft flight recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A disabled recorder retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                capacity,
                seq: 0,
            }),
        }
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start or stop recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Records one event. No-op (one relaxed load) when disabled.
    pub fn emit(&self, txn: i64, session: u64, kind: EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = lock(&self.ring);
        let seq = ring.seq;
        ring.seq += 1;
        let event = TraceEvent {
            seq,
            txn,
            session,
            kind,
        };
        if ring.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(event);
    }

    /// Total events evicted by wraparound since creation (monotonic).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Current ring capacity in events.
    pub fn capacity(&self) -> usize {
        lock(&self.ring).capacity
    }

    /// Fold the recorder's health into a metrics snapshot: the
    /// `telemetry.trace.dropped` eviction counter plus
    /// `telemetry.trace.occupancy`/`telemetry.trace.capacity` gauges —
    /// so silent trace data loss is visible on the metrics plane.
    pub fn fold_metrics(&self, snap: &mut crate::MetricsSnapshot) {
        snap.set_counter("telemetry.trace.dropped", self.dropped());
        let ring = lock(&self.ring);
        snap.set_gauge("telemetry.trace.occupancy", ring.buf.len() as f64);
        snap.set_gauge("telemetry.trace.capacity", ring.capacity as f64);
    }

    /// Copies the current window out.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = lock(&self.ring);
        TraceSnapshot {
            events: ring.buf.iter().cloned().collect(),
            dropped: self.dropped.load(Ordering::Relaxed),
            capacity: ring.capacity,
        }
    }

    /// Discards every retained event (counters keep advancing).
    pub fn clear(&self) {
        lock(&self.ring).buf.clear();
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Exports a snapshot as JSONL: one event object per line, ascending
/// `seq`. Grep-friendly and concatenation-safe across captures.
pub fn to_jsonl(snap: &TraceSnapshot) -> String {
    let line = |e: &TraceEvent| {
        JsonWriter::render(|w| {
            w.object(|w| {
                w.field("seq", e.seq)
                    .field("txn", e.txn)
                    .field("session", e.session);
                e.kind.write_members(w);
            });
        }) + "\n"
    };
    snap.events.iter().map(line).collect()
}

/// Exports a snapshot in Chrome Trace Event Format (a `traceEvents`
/// array), loadable in Perfetto / `chrome://tracing`. Transactions map to
/// tracks (`pid` = proxy txn id, `tid` = session id); [`EventKind::TxnBegin`]
/// opens a duration span that [`EventKind::Commit`]/[`EventKind::Abort`]
/// closes, and every other kind renders as an instant event. The
/// monotonic tick doubles as the timestamp, so causality — not
/// wall-clock — orders the view.
pub fn to_chrome_trace(snap: &TraceSnapshot) -> String {
    let doc = JsonWriter::render(|w| {
        w.object(|w| {
            w.field("displayTimeUnit", "ms");
            w.key("traceEvents").array(|w| {
                for e in &snap.events {
                    let (name, ph) = match &e.kind {
                        EventKind::TxnBegin => ("txn", "B"),
                        EventKind::Commit | EventKind::Abort => ("txn", "E"),
                        other => (other.name(), "i"),
                    };
                    w.object(|w| {
                        w.field("name", name)
                            .field("cat", "resildb")
                            .field("ph", ph);
                        if ph == "i" {
                            w.field("s", "g");
                        }
                        w.field("ts", e.seq)
                            .field("pid", e.txn)
                            .field("tid", e.session);
                        w.key("args").object(|w| e.kind.write_members(w));
                    });
                }
            });
        });
    });
    doc + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::default();
        r.emit(1, 1, EventKind::TxnBegin);
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        let r = FlightRecorder::with_capacity(4);
        r.set_enabled(true);
        for i in 0..10 {
            r.emit(i, 0, EventKind::TxnBegin);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.capacity, 4);
        // The window holds the newest events, in seq order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // The dropped counter is monotonic: more wraparound, higher count.
        r.emit(10, 0, EventKind::TxnBegin);
        assert_eq!(r.snapshot().dropped, 7);
    }

    #[test]
    fn concurrent_writers_lose_no_in_window_events() {
        use std::sync::Arc;
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 250;
        let r = Arc::new(FlightRecorder::with_capacity(
            (THREADS * PER_THREAD) as usize,
        ));
        r.set_enabled(true);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        r.emit(t as i64, t, EventKind::TransDepInsert { deps: i as u32 });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), (THREADS * PER_THREAD) as usize);
        assert_eq!(snap.dropped, 0);
        // Ticks are unique and the window is seq-sorted.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seqs.len());
        assert_eq!(seqs, sorted, "ring must preserve tick order");
        // Every thread's full event sequence is present.
        for t in 0..THREADS {
            assert_eq!(
                snap.events_for(t as i64).len() as u64,
                PER_THREAD,
                "thread {t} lost events"
            );
        }
    }

    #[test]
    fn fold_metrics_exposes_ring_health() {
        let r = FlightRecorder::with_capacity(2);
        r.set_enabled(true);
        for i in 0..5 {
            r.emit(i, 0, EventKind::TxnBegin);
        }
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.capacity(), 2);
        let mut snap = crate::MetricsSnapshot::default();
        r.fold_metrics(&mut snap);
        assert_eq!(snap.counter("telemetry.trace.dropped"), 3);
        assert_eq!(snap.gauge("telemetry.trace.occupancy"), Some(2.0));
        assert_eq!(snap.gauge("telemetry.trace.capacity"), Some(2.0));
    }

    #[test]
    fn snapshot_filters_by_txn() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.emit(1, 0, EventKind::TxnBegin);
        r.emit(2, 0, EventKind::TxnBegin);
        r.emit(1, 0, EventKind::Commit);
        let snap = r.snapshot();
        assert_eq!(snap.events_for(1).len(), 2);
        assert_eq!(snap.count_for(1, "commit"), 1);
        assert_eq!(snap.count_for(2, "commit"), 0);
    }
}
