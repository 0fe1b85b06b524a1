//! # resildb-telemetry — dependency-free metrics & tracing
//!
//! One small layer shared by every resildb crate:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log-scale latency [`Histogram`]s (p50/p95/p99/max
//!   snapshots);
//! * [`Telemetry`] + [`Span`] — RAII span guards recording into the
//!   registry; when disabled, starting a span costs one relaxed atomic
//!   load (mirroring the disarmed-failpoint fast path in
//!   `crates/sim/src/fault.rs`);
//! * [`export::to_text`] / [`export::to_json`] — stable exporters that
//!   serialize a [`MetricsSnapshot`] identically;
//! * [`FlightRecorder`] — a bounded ring buffer of typed lifecycle
//!   [`TraceEvent`]s (see [`trace`]) forming per-transaction causal
//!   timelines, exportable as JSONL or Chrome Trace Event Format;
//! * the live observability plane: [`Telemetry::repair_event`] folds the
//!   repair pipeline's events into the [`IncidentTimeline`] (phase marks
//!   with an MTTD/MTTC/MTTR decomposition, repair progress), the
//!   [`prometheus`] text-format exporter, and the dependency-free
//!   [`http`] pull endpoint serving `/metrics`, `/health`, `/ready` and
//!   `/incidents`.
//!
//! The span taxonomy threaded through the statement and repair
//! pipelines lives in [`names`]; see DESIGN.md §12 for the full metric
//! naming scheme.
//!
//! ```
//! use resildb_telemetry::{names, Telemetry};
//!
//! let tel = Telemetry::recording();
//! {
//!     let _span = tel.span(names::ENGINE_EXECUTE);
//!     // ... timed work ...
//! }
//! tel.count(names::ENGINE_COMMIT_COUNT, 1);
//! let snap = tel.snapshot();
//! assert_eq!(snap.histogram(names::ENGINE_EXECUTE).unwrap().count, 1);
//! assert_eq!(snap.counter(names::ENGINE_COMMIT_COUNT), 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod export;
pub mod http;
mod metrics;
pub mod prometheus;
mod span;
pub mod timeline;
pub mod trace;

pub use http::{MetricsServer, ServerRoutes};
pub use metrics::{
    bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use prometheus::to_prometheus;
pub use span::{OwnedSpan, Span, Telemetry};
pub use timeline::{
    IncidentDecomposition, IncidentMark, IncidentPhase, IncidentProgress, IncidentRecord,
    IncidentTimeline,
};
pub use trace::{
    EventKind, FlightRecorder, TraceEvent, TraceSnapshot, TraceVerdict, DEFAULT_TRACE_CAPACITY,
};

/// The span and counter taxonomy used across the resildb layers.
///
/// Statement lifecycle (per-statement hot path):
/// proxy rewrite → cache lookup → engine execute → WAL append →
/// commit / trans_dep insert. Repair pipeline (per-phase MTTR
/// decomposition): log scan → correlate → graph build → closure →
/// compensate.
pub mod names {
    /// Cold-path SQL rewrite in the tracking proxy (parse + classify +
    /// shape construction).
    pub const PROXY_REWRITE: &str = "proxy.rewrite";
    /// Rewrite-cache lookup in the tracking proxy.
    pub const PROXY_CACHE_LOOKUP: &str = "proxy.cache_lookup";
    /// Read-set harvest (hidden tracking column strip) in the proxy.
    pub const PROXY_HARVEST: &str = "proxy.harvest";
    /// Dependency-row (`trans_dep`/provenance/annotation) inserts.
    pub const PROXY_TRANS_DEP_INSERT: &str = "proxy.trans_dep_insert";
    /// Engine statement execution (both ad-hoc and prepared).
    pub const ENGINE_EXECUTE: &str = "engine.execute";
    /// WAL record append.
    pub const ENGINE_WAL_APPEND: &str = "engine.wal_append";
    /// Transaction commit (WAL force + lock release).
    pub const ENGINE_COMMIT: &str = "engine.commit";
    /// Count of successful engine commits.
    pub const ENGINE_COMMIT_COUNT: &str = "engine.commit.count";
    /// Repair phase: scanning the transaction log.
    pub const REPAIR_LOG_SCAN: &str = "repair.log_scan";
    /// Repair phase: correlating proxy and engine transaction ids.
    pub const REPAIR_CORRELATE: &str = "repair.correlate";
    /// Repair phase: building the dependency graph.
    pub const REPAIR_GRAPH_BUILD: &str = "repair.graph_build";
    /// Repair phase: computing the damage closure (undo set).
    pub const REPAIR_CLOSURE: &str = "repair.closure";
    /// Repair phase: executing the compensation sweep.
    pub const REPAIR_COMPENSATE: &str = "repair.compensate";
    /// Lock-contention histogram: time a committing transaction waits for
    /// the WAL group-commit ticket (the WAL mutex at publication).
    pub const ENGINE_GROUP_COMMIT_WAIT: &str = "engine.wal.group_commit_wait";
    /// Lock-contention histogram: time a committing transaction waits as a
    /// group-commit follower for the leader's log force to cover its LSN.
    pub const ENGINE_GROUP_FORCE_WAIT: &str = "engine.wal.group_force_wait";
    /// Lock-contention histogram: time spent waiting for a `trans_dep`
    /// dependency-store shard lock in the tracking proxy.
    pub const PROXY_TRANS_DEP_SHARD_WAIT: &str = "proxy.trans_dep.shard_wait";
}
