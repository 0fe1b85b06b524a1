//! Live progress observation for a running repair.
//!
//! [`RepairProgress`] is a cheap cloneable handle onto a
//! [`RepairController`](crate::RepairController)'s current state:
//! which phase it is in, how many transactions of the undo set have
//! been compensated, the closure and fence sizes, and how many
//! fence-extension rounds the sweep has needed. The controller updates
//! it with relaxed atomic stores as it moves through
//! `analyze → plan → execute`, so an observer thread (the metrics
//! endpoint, `resildb-top`, a test) can poll mid-flight without
//! touching any controller lock.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use resildb_sim::MetricsSnapshot;

/// Where a repair currently is in its lifecycle.
///
/// Quiesced repairs move `Idle → Analyze → Plan → Sweep → Done`; live
/// repairs insert `Drain` after the fence raise and may loop
/// `Sweep → Extend → Sweep` while the closure converges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum RepairPhase {
    /// No repair is executing.
    #[default]
    Idle = 0,
    /// Reading the log and building the dependency graph.
    Analyze = 1,
    /// Computing the damage closure.
    Plan = 2,
    /// Live only: waiting for pre-fence in-flight transactions.
    Drain = 3,
    /// Running the compensation sweep.
    Sweep = 4,
    /// Live only: extending the fence over a grown closure.
    Extend = 5,
    /// The last execution finished (successfully or not).
    Done = 6,
}

impl RepairPhase {
    /// Stable lower-case name (used in JSON and terminal output).
    pub fn name(self) -> &'static str {
        match self {
            RepairPhase::Idle => "idle",
            RepairPhase::Analyze => "analyze",
            RepairPhase::Plan => "plan",
            RepairPhase::Drain => "drain",
            RepairPhase::Sweep => "sweep",
            RepairPhase::Extend => "extend",
            RepairPhase::Done => "done",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => RepairPhase::Analyze,
            2 => RepairPhase::Plan,
            3 => RepairPhase::Drain,
            4 => RepairPhase::Sweep,
            5 => RepairPhase::Extend,
            6 => RepairPhase::Done,
            _ => RepairPhase::Idle,
        }
    }
}

impl std::fmt::Display for RepairPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Default)]
struct ProgressInner {
    phase: AtomicU8,
    compensated: AtomicU64,
    total: AtomicU64,
    closure: AtomicU64,
    fence_tables: AtomicU64,
    fence_rows: AtomicU64,
    extension_rounds: AtomicU64,
}

/// Shared, cloneable progress handle; see module docs. Clones observe
/// the same repair (`Arc` inside).
#[derive(Debug, Clone, Default)]
pub struct RepairProgress {
    inner: Arc<ProgressInner>,
}

impl RepairProgress {
    /// A fresh idle handle (also what `Default` gives).
    pub fn new() -> Self {
        Self::default()
    }

    /// The phase the repair is currently in.
    pub fn phase(&self) -> RepairPhase {
        RepairPhase::from_u8(self.inner.phase.load(Ordering::Relaxed))
    }

    /// Whether an execution is in flight (between `execute` entry and
    /// its exit) — the repair half of the endpoint's `/ready` predicate.
    pub fn is_executing(&self) -> bool {
        !matches!(self.phase(), RepairPhase::Idle | RepairPhase::Done)
    }

    /// Transactions compensated so far by the current (or last) sweep.
    pub fn compensated(&self) -> u64 {
        self.inner.compensated.load(Ordering::Relaxed)
    }

    /// Size of the undo set the sweep is working through.
    pub fn total(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// Size of the most recently computed damage closure.
    pub fn closure(&self) -> u64 {
        self.inner.closure.load(Ordering::Relaxed)
    }

    /// Tables fenced by a live repair's static raise.
    pub(crate) fn fence_tables(&self) -> u64 {
        self.inner.fence_tables.load(Ordering::Relaxed)
    }

    /// Rows individually fenced after the dynamic shrink.
    pub fn fence_rows(&self) -> u64 {
        self.inner.fence_rows.load(Ordering::Relaxed)
    }

    /// Fence-extension rounds the sweep has needed so far.
    pub fn extension_rounds(&self) -> u64 {
        self.inner.extension_rounds.load(Ordering::Relaxed)
    }

    /// Sweep completion as a fraction in `[0, 1]`; `None` before the
    /// undo set is known.
    pub fn fraction(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        Some((self.compensated() as f64 / total as f64).min(1.0))
    }

    /// Fold the current state into a metrics snapshot as
    /// `repair.progress.*` gauges (scraped via `/metrics`).
    pub fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.set_gauge("repair.progress.phase", f64::from(self.phase() as u8));
        snap.set_gauge("repair.progress.compensated", self.compensated() as f64);
        snap.set_gauge("repair.progress.total", self.total() as f64);
        snap.set_gauge("repair.progress.closure", self.closure() as f64);
        snap.set_gauge("repair.progress.fence_tables", self.fence_tables() as f64);
        snap.set_gauge("repair.progress.fence_rows", self.fence_rows() as f64);
        snap.set_gauge(
            "repair.progress.extension_rounds",
            self.extension_rounds() as f64,
        );
    }

    // ---- controller-side mutators (crate-private) -------------------

    pub(crate) fn set_phase(&self, phase: RepairPhase) {
        self.inner.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// Reset the per-execution counters at `execute` entry.
    pub(crate) fn begin(&self, total: u64) {
        self.inner.compensated.store(0, Ordering::Relaxed);
        self.inner.total.store(total, Ordering::Relaxed);
        self.inner.extension_rounds.store(0, Ordering::Relaxed);
        self.inner.fence_tables.store(0, Ordering::Relaxed);
        self.inner.fence_rows.store(0, Ordering::Relaxed);
    }

    pub(crate) fn add_compensated(&self, n: u64) {
        self.inner.compensated.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn set_total(&self, total: u64) {
        self.inner.total.store(total, Ordering::Relaxed);
    }

    pub(crate) fn set_closure(&self, n: u64) {
        self.inner.closure.store(n, Ordering::Relaxed);
    }

    pub(crate) fn set_fence_tables(&self, n: u64) {
        self.inner.fence_tables.store(n, Ordering::Relaxed);
    }

    pub(crate) fn set_fence_rows(&self, n: u64) {
        self.inner.fence_rows.store(n, Ordering::Relaxed);
    }

    pub(crate) fn set_extension_rounds(&self, n: u64) {
        self.inner.extension_rounds.store(n, Ordering::Relaxed);
    }
}

/// Sets the phase to [`RepairPhase::Done`] when dropped, so `execute`
/// lands on `Done` on every exit path (success, error, or unwind).
pub(crate) struct PhaseDone {
    pub(crate) progress: RepairProgress,
}

impl Drop for PhaseDone {
    fn drop(&mut self) {
        self.progress.set_phase(RepairPhase::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_round_trip_and_report_executing() {
        let p = RepairProgress::new();
        assert_eq!(p.phase(), RepairPhase::Idle);
        assert!(!p.is_executing());
        for phase in [
            RepairPhase::Analyze,
            RepairPhase::Plan,
            RepairPhase::Drain,
            RepairPhase::Sweep,
            RepairPhase::Extend,
        ] {
            p.set_phase(phase);
            assert_eq!(p.phase(), phase);
            assert!(p.is_executing(), "{phase} should count as executing");
        }
        p.set_phase(RepairPhase::Done);
        assert!(!p.is_executing());
    }

    #[test]
    fn clones_observe_the_same_repair() {
        let p = RepairProgress::new();
        let observer = p.clone();
        p.begin(10);
        p.add_compensated(4);
        p.set_closure(10);
        assert_eq!(observer.compensated(), 4);
        assert_eq!(observer.total(), 10);
        assert_eq!(observer.fraction(), Some(0.4));
    }

    #[test]
    fn begin_resets_per_execution_counters() {
        let p = RepairProgress::new();
        p.begin(5);
        p.add_compensated(5);
        p.set_extension_rounds(2);
        p.set_fence_tables(9);
        p.set_fence_rows(40);
        p.begin(3);
        assert_eq!(p.compensated(), 0);
        assert_eq!(p.total(), 3);
        assert_eq!(p.extension_rounds(), 0);
        assert_eq!(p.fence_tables(), 0);
        assert_eq!(p.fence_rows(), 0);
    }

    #[test]
    fn done_guard_fires_on_drop() {
        let p = RepairProgress::new();
        p.set_phase(RepairPhase::Sweep);
        {
            let _guard = PhaseDone {
                progress: p.clone(),
            };
            assert!(p.is_executing());
        }
        assert_eq!(p.phase(), RepairPhase::Done);
    }

    #[test]
    fn fold_metrics_exports_progress_gauges() {
        let p = RepairProgress::new();
        p.set_phase(RepairPhase::Sweep);
        p.begin(8);
        p.add_compensated(3);
        p.set_fence_rows(17);
        let mut snap = MetricsSnapshot::default();
        p.fold_metrics(&mut snap);
        assert_eq!(snap.gauge("repair.progress.phase"), Some(4.0));
        assert_eq!(snap.gauge("repair.progress.compensated"), Some(3.0));
        assert_eq!(snap.gauge("repair.progress.total"), Some(8.0));
        assert_eq!(snap.gauge("repair.progress.fence_rows"), Some(17.0));
    }
}
