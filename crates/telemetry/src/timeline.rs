//! Incident timelines: the one fold of the repair/containment event
//! stream into per-incident phase marks, repair progress numbers and the
//! MTTD/MTTC/MTTR decomposition derived from the marks.
//!
//! An *incident* is one detect→contain→repair episode. The repair
//! pipeline reports each milestone once, as a typed [`EventKind`] through
//! [`crate::Telemetry::repair_event`]; the fold in this module turns that
//! stream into [`IncidentRecord`]s, and everything an operator reads
//! about the episode — `/incidents`, `/ready`, the `repair.progress.*`
//! gauges, `resildb-trace --repair` — is a view of those records.
//! `incident_detected` opens an incident (absorbing a ground-truth
//! `attack_committed` stamp when the driver noted one), the `fence_*`
//! events and `sweep_complete` stamp phase marks, `closure_computed` and
//! `compensated` move the progress numbers, `incident_closed` closes it.
//!
//! Stamps are strictly monotonic nanoseconds since the timeline's first
//! use, so a mark sequence is totally ordered even when two marks land
//! in the same clock tick. [`IncidentRecord::decomposition`] splits the
//! episode wall time into detection (MTTD), containment (MTTC) and
//! repair (MTTR) phases that sum to it exactly — the decomposition the
//! VOPR timeline oracle checks and `mttr --live` reports.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::export::json_string;
use crate::metrics::MetricsSnapshot;
use crate::trace::{EventKind, TraceEvent};

/// Incidents retained per timeline; beyond it the oldest closed incident
/// is evicted first, so the always-on timeline stays bounded.
const MAX_INCIDENTS: usize = 256;

/// One phase mark on an incident timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentPhase {
    /// Ground-truth attack commit time (known to VOPR and the benches).
    AttackCommitted = 1,
    /// Analysis of the incident began (detection time).
    Detected = 2,
    /// The containment fence went up over the static surface.
    FenceRaised = 3,
    /// The fence shrank to the row-level quarantine.
    QuarantineShrunk = 4,
    /// The compensation sweep finished (last round compensated).
    SweepComplete = 5,
    /// The fence grew to cover closure rows discovered mid-sweep.
    FenceExtended = 6,
    /// The fence came down (success, error or panic teardown).
    FenceLifted = 7,
}

impl IncidentPhase {
    /// Stable wire name, as served on `/incidents`.
    pub fn name(&self) -> &'static str {
        match self {
            IncidentPhase::AttackCommitted => "attack_committed",
            IncidentPhase::Detected => "detected",
            IncidentPhase::FenceRaised => "fence_raised",
            IncidentPhase::QuarantineShrunk => "quarantine_shrunk",
            IncidentPhase::SweepComplete => "sweep_complete",
            IncidentPhase::FenceExtended => "fence_extended",
            IncidentPhase::FenceLifted => "fence_lifted",
        }
    }
}

/// A phase mark stamped onto an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentMark {
    /// Which phase boundary this mark records.
    pub phase: IncidentPhase,
    /// Strictly monotonic nanoseconds since the timeline's first use.
    pub at_ns: u64,
}

/// The detect→contain→repair wall-time decomposition of one incident.
///
/// The three phases partition the incident's wall time:
/// `mttd_ns + mttc_ns + mttr_ns == wall_ns` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncidentDecomposition {
    /// Attack commit → detection (0 without a ground-truth attack mark).
    pub mttd_ns: u64,
    /// Detection → containment established (fence shrunk to quarantine,
    /// or raised when it never shrinks; 0 for quiesced repairs).
    pub mttc_ns: u64,
    /// Containment → last mark (sweep + fence lift).
    pub mttr_ns: u64,
    /// First mark → last mark.
    pub wall_ns: u64,
}

/// How far an incident's repair has got, folded from the same events as
/// the marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncidentProgress {
    /// Size of the most recently computed damage closure.
    pub closure: u64,
    /// Size of the undo set the sweep is working through.
    pub total: u64,
    /// Transactions whose compensation is durable so far.
    pub compensated: u64,
    /// Tables fenced by a live repair's static raise.
    pub fence_tables: u64,
    /// Rows individually fenced (after the shrink, plus extensions).
    pub fence_rows: u64,
    /// Fence-extension rounds the sweep has needed so far.
    pub extension_rounds: u64,
}

impl IncidentProgress {
    /// The progress half of the fold: what each event says about how far
    /// the repair has got.
    fn apply(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::ClosureComputed { nodes, .. } => {
                self.closure = u64::from(nodes);
                self.total = u64::from(nodes);
            }
            EventKind::Compensated { .. } => self.compensated += 1,
            EventKind::FenceRaised { tables } => self.fence_tables = u64::from(tables),
            EventKind::FenceShrunk { rows, .. } => self.fence_rows = u64::from(rows),
            EventKind::FenceExtended { rows } => {
                self.fence_rows += u64::from(rows);
                self.extension_rounds += 1;
            }
            _ => {}
        }
    }
}

/// One incident: an id, whether it is still open, its marks in stamp
/// order and its repair progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRecord {
    /// 1-based incident id, in open order.
    pub id: u64,
    /// True while the repair episode is still in flight.
    pub open: bool,
    /// Phase marks in strictly increasing stamp order.
    pub marks: Vec<IncidentMark>,
    /// Repair progress numbers (they stay at their final values once the
    /// incident closes).
    pub progress: IncidentProgress,
}

impl IncidentRecord {
    /// Stamp of the first mark of `phase`, if present.
    pub(crate) fn mark_ns(&self, phase: IncidentPhase) -> Option<u64> {
        self.marks
            .iter()
            .find(|m| m.phase == phase)
            .map(|m| m.at_ns)
    }

    /// Number of marks of `phase`.
    pub fn count(&self, phase: IncidentPhase) -> usize {
        self.marks.iter().filter(|m| m.phase == phase).count()
    }

    /// Derive the MTTD/MTTC/MTTR decomposition from the marks.
    pub fn decomposition(&self) -> IncidentDecomposition {
        let (Some(first), Some(last)) = (self.marks.first(), self.marks.last()) else {
            return IncidentDecomposition::default();
        };
        let detected = self.mark_ns(IncidentPhase::Detected).unwrap_or(first.at_ns);
        let contained = self
            .mark_ns(IncidentPhase::QuarantineShrunk)
            .or_else(|| self.mark_ns(IncidentPhase::FenceRaised))
            .unwrap_or(detected);
        IncidentDecomposition {
            mttd_ns: detected.saturating_sub(first.at_ns),
            mttc_ns: contained.saturating_sub(detected),
            mttr_ns: last.at_ns.saturating_sub(contained),
            wall_ns: last.at_ns.saturating_sub(first.at_ns),
        }
    }
}

#[derive(Debug, Default)]
struct TimelineState {
    epoch: Option<Instant>,
    last_ns: u64,
    pending_attack: Option<u64>,
    next_id: u64,
    incidents: VecDeque<IncidentRecord>,
}

impl TimelineState {
    fn stamp(&mut self) -> u64 {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        let now = epoch.elapsed().as_nanos() as u64;
        // Strictly monotonic: two marks in the same clock tick still get
        // distinct, ordered stamps.
        self.last_ns = now.max(self.last_ns + 1);
        self.last_ns
    }

    fn latest_open(&mut self) -> Option<&mut IncidentRecord> {
        self.incidents.iter_mut().rev().find(|i| i.open)
    }

    /// Open a new incident detected at `detected_ns`, absorbing a pending
    /// attack stamp that precedes it.
    fn open_incident(&mut self, detected_ns: u64) {
        // Later marks must stamp after `detected` even when the stamp
        // comes from a capture replayed onto a younger clock.
        self.last_ns = self.last_ns.max(detected_ns);
        let mut marks = Vec::new();
        if let Some(at_ns) = self.pending_attack.take_if(|at| *at < detected_ns) {
            marks.push(IncidentMark {
                phase: IncidentPhase::AttackCommitted,
                at_ns,
            });
        }
        marks.push(IncidentMark {
            phase: IncidentPhase::Detected,
            at_ns: detected_ns,
        });
        if self.incidents.len() == MAX_INCIDENTS {
            let oldest_closed = self.incidents.iter().position(|i| !i.open);
            self.incidents.remove(oldest_closed.unwrap_or(0));
        }
        self.next_id += 1;
        self.incidents.push_back(IncidentRecord {
            id: self.next_id,
            open: true,
            marks,
            progress: IncidentProgress::default(),
        });
    }

    /// The fold: apply one event to the incident state. The match below
    /// is the only `EventKind → IncidentPhase` mapping. Returns whether
    /// `kind` is a repair or containment event at all (statement
    /// lifecycle, WAL and fault events are not). Outside an open incident
    /// only `incident_detected` has an effect: marks and progress are
    /// dropped.
    fn apply(&mut self, kind: &EventKind) -> bool {
        let phase = match *kind {
            EventKind::IncidentDetected { at_ns } => {
                self.open_incident(at_ns);
                return true;
            }
            EventKind::IncidentClosed => {
                if let Some(incident) = self.latest_open() {
                    incident.open = false;
                }
                return true;
            }
            EventKind::LogScan { .. }
            | EventKind::Correlate { .. }
            | EventKind::ClosureComputed { .. }
            | EventKind::Compensated { .. } => None,
            EventKind::FenceRaised { .. } => Some(IncidentPhase::FenceRaised),
            EventKind::FenceShrunk { .. } => Some(IncidentPhase::QuarantineShrunk),
            EventKind::FenceExtended { .. } => Some(IncidentPhase::FenceExtended),
            EventKind::SweepComplete { .. } => Some(IncidentPhase::SweepComplete),
            EventKind::FenceLifted => Some(IncidentPhase::FenceLifted),
            _ => return false,
        };
        let mark = phase.map(|phase| IncidentMark {
            phase,
            at_ns: self.stamp(),
        });
        if let Some(incident) = self.latest_open() {
            incident.marks.extend(mark);
            incident.progress.apply(kind);
        }
        true
    }
}

/// Thread-safe registry of incidents, embedded in `Telemetry` next to
/// the flight recorder and fed only by
/// [`Telemetry::repair_event`](crate::Telemetry::repair_event). Events
/// arrive off the statement hot path — a handful of marks plus one
/// `compensated` per undone transaction per repair episode — so one
/// mutex suffices.
#[derive(Debug, Default)]
pub struct IncidentTimeline {
    inner: Mutex<TimelineState>,
}

impl IncidentTimeline {
    /// Record the ground-truth attack commit time. The next incident
    /// detected after it absorbs it as its `attack_committed` mark; the
    /// earliest pending attack wins when several are noted before
    /// detection.
    pub fn note_attack(&self) {
        let mut state = self.lock();
        let at = state.stamp();
        state.pending_attack.get_or_insert(at);
    }

    /// A fresh stamp on the incident clock.
    pub(crate) fn stamp(&self) -> u64 {
        self.lock().stamp()
    }

    /// Fold one live event into the timeline.
    pub(crate) fn apply(&self, kind: &EventKind) {
        self.lock().apply(kind);
    }

    /// Id of the latest still-open incident, if any.
    pub fn current(&self) -> Option<u64> {
        self.lock().latest_open().map(|i| i.id)
    }

    /// Clone out every retained incident, oldest first.
    pub fn snapshot(&self) -> Vec<IncidentRecord> {
        self.lock().incidents.iter().cloned().collect()
    }

    /// Render every incident as the `/incidents` JSON document:
    /// `{"incidents":[{"id":..,"open":..,"marks":[{"phase":..,"at_ns":..}],
    /// "decomposition":{"mttd_ns":..,"mttc_ns":..,"mttr_ns":..,"wall_ns":..}}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"incidents\":[");
        for (i, incident) in self.lock().incidents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let d = incident.decomposition();
            out.push_str(&format!(
                "{{\"id\":{},\"open\":{},\"marks\":[",
                incident.id, incident.open
            ));
            for (j, mark) in incident.marks.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"phase\":{},\"at_ns\":{}}}",
                    json_string(mark.phase.name()),
                    mark.at_ns
                ));
            }
            out.push_str(&format!(
                "],\"decomposition\":{{\"mttd_ns\":{},\"mttc_ns\":{},\"mttr_ns\":{},\"wall_ns\":{}}}}}",
                d.mttd_ns, d.mttc_ns, d.mttr_ns, d.wall_ns
            ));
        }
        out.push_str("]}");
        out
    }

    /// Fold the latest incident into a metrics snapshot as the
    /// `repair.progress.*` gauges. `phase` is the [`IncidentPhase`]
    /// ordinal of the open incident's last mark and `0` when no incident
    /// is open; the numbers keep the latest incident's final values (all
    /// zero before the first).
    pub(crate) fn fold_metrics(&self, snap: &mut MetricsSnapshot) {
        let state = self.lock();
        let latest = state.incidents.back();
        let phase = latest
            .filter(|i| i.open)
            .and_then(|i| i.marks.last())
            .map_or(0, |m| m.phase as u8);
        let p = latest.map(|i| i.progress).unwrap_or_default();
        snap.set_gauge("repair.progress.phase", f64::from(phase));
        snap.set_gauge("repair.progress.compensated", p.compensated as f64);
        snap.set_gauge("repair.progress.total", p.total as f64);
        snap.set_gauge("repair.progress.closure", p.closure as f64);
        snap.set_gauge("repair.progress.fence_tables", p.fence_tables as f64);
        snap.set_gauge("repair.progress.fence_rows", p.fence_rows as f64);
        snap.set_gauge(
            "repair.progress.extension_rounds",
            p.extension_rounds as f64,
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TimelineState> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Replay a flight capture through the same fold a live timeline runs,
/// on a fresh state: returns the repair/containment events the fold
/// consumed, in capture order, and the incidents they add up to (marks
/// other than `detected` are stamped at replay time; captures carry no
/// `attack_committed`). This is the offline view `resildb-trace
/// --repair` prints.
pub fn replay(events: &[TraceEvent]) -> (Vec<&TraceEvent>, Vec<IncidentRecord>) {
    let mut state = TimelineState::default();
    let consumed = events.iter().filter(|e| state.apply(&e.kind)).collect();
    (consumed, state.incidents.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Detect an incident now; returns its id.
    fn open(tl: &IncidentTimeline) -> u64 {
        let at_ns = tl.stamp();
        tl.apply(&EventKind::IncidentDetected { at_ns });
        tl.current().unwrap()
    }

    fn close(tl: &IncidentTimeline) {
        tl.apply(&EventKind::IncidentClosed);
    }

    #[test]
    fn marks_are_strictly_monotonic() {
        let tl = IncidentTimeline::default();
        open(&tl);
        for _ in 0..100 {
            tl.apply(&EventKind::FenceExtended { rows: 1 });
        }
        let snap = tl.snapshot();
        let marks = &snap[0].marks;
        assert_eq!(marks.len(), 101);
        for pair in marks.windows(2) {
            assert!(pair[0].at_ns < pair[1].at_ns, "{pair:?} not strict");
        }
    }

    #[test]
    fn decomposition_sums_to_wall_time() {
        let tl = IncidentTimeline::default();
        tl.note_attack();
        open(&tl);
        tl.apply(&EventKind::FenceRaised { tables: 2 });
        tl.apply(&EventKind::FenceShrunk { tables: 0, rows: 3 });
        tl.apply(&EventKind::SweepComplete { rounds: 1 });
        tl.apply(&EventKind::FenceLifted);
        close(&tl);
        let incident = &tl.snapshot()[0];
        let phases: Vec<_> = incident.marks.iter().map(|m| m.phase.name()).collect();
        assert_eq!(
            phases.join(" "),
            "attack_committed detected fence_raised quarantine_shrunk sweep_complete fence_lifted"
        );
        let d = incident.decomposition();
        assert!(d.mttd_ns > 0, "attack→detect must take time: {d:?}");
        assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);
    }

    #[test]
    fn quiesced_incident_has_zero_containment() {
        let tl = IncidentTimeline::default();
        open(&tl);
        tl.apply(&EventKind::SweepComplete { rounds: 1 });
        close(&tl);
        let d = tl.snapshot()[0].decomposition();
        assert_eq!(d.mttc_ns, 0);
        assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);
    }

    #[test]
    fn pending_attack_feeds_only_next_incident() {
        let tl = IncidentTimeline::default();
        tl.note_attack();
        tl.note_attack(); // earliest wins, later notes ignored
        let a = open(&tl);
        close(&tl);
        // An attack noted after an analysis began is not the one that
        // analysis detected: it waits for the next incident.
        let stale_analysis = tl.stamp();
        tl.note_attack();
        tl.apply(&EventKind::IncidentDetected {
            at_ns: stale_analysis,
        });
        close(&tl);
        let c = open(&tl);
        assert_eq!((a, c), (1, 3));
        let attacks = |i: usize| tl.snapshot()[i].count(IncidentPhase::AttackCommitted);
        assert_eq!((attacks(0), attacks(1), attacks(2)), (1, 0, 1));
    }

    #[test]
    fn marks_without_open_incident_are_dropped() {
        let tl = IncidentTimeline::default();
        tl.apply(&EventKind::FenceRaised { tables: 1 });
        assert!(tl.snapshot().is_empty());
        open(&tl);
        close(&tl);
        tl.apply(&EventKind::FenceRaised { tables: 1 });
        tl.apply(&EventKind::Compensated { statements: 1 });
        let incident = &tl.snapshot()[0];
        assert_eq!(incident.marks.len(), 1, "only `detected`");
        assert_eq!(incident.progress, IncidentProgress::default());
    }

    #[test]
    fn reopened_incidents_get_fresh_ids_and_current_tracks_open() {
        let tl = IncidentTimeline::default();
        assert_eq!(tl.current(), None);
        let a = open(&tl);
        assert_eq!(tl.current(), Some(a));
        close(&tl);
        assert_eq!(tl.current(), None);
        let b = open(&tl);
        assert_eq!(tl.current(), Some(b));
        assert_ne!(a, b);
    }

    #[test]
    fn progress_and_gauges_fold_from_the_events() {
        let tl = IncidentTimeline::default();
        let gauge = |name: &str| {
            let mut snap = MetricsSnapshot::default();
            tl.fold_metrics(&mut snap);
            snap.gauge(&format!("repair.progress.{name}"))
        };
        assert_eq!(gauge("phase"), Some(0.0), "idle before any incident");
        open(&tl);
        for kind in [
            EventKind::ClosureComputed {
                initial: 1,
                nodes: 8,
            },
            EventKind::FenceRaised { tables: 9 },
            EventKind::FenceShrunk {
                tables: 0,
                rows: 17,
            },
            EventKind::Compensated { statements: 2 },
            EventKind::Compensated { statements: 0 },
            EventKind::ClosureComputed {
                initial: 1,
                nodes: 10,
            },
            EventKind::FenceExtended { rows: 4 },
        ] {
            tl.apply(&kind);
        }
        let expected = IncidentProgress {
            closure: 10,
            total: 10,
            compensated: 2,
            fence_tables: 9,
            fence_rows: 21,
            extension_rounds: 1,
        };
        assert_eq!(tl.snapshot()[0].progress, expected);
        let extended = f64::from(IncidentPhase::FenceExtended as u8);
        assert_eq!(gauge("phase"), Some(extended));
        assert_eq!(gauge("compensated"), Some(2.0));
        assert_eq!(gauge("total"), Some(10.0));
        assert_eq!(gauge("fence_rows"), Some(21.0));
        // Closed: phase reads idle, the numbers keep their final values.
        close(&tl);
        assert_eq!(gauge("phase"), Some(0.0));
        assert_eq!(gauge("compensated"), Some(2.0));
        assert_eq!(gauge("extension_rounds"), Some(1.0));
    }

    #[test]
    fn timeline_keeps_the_last_256_incidents_evicting_closed_first() {
        let tl = IncidentTimeline::default();
        let kept_open = open(&tl); // never closed: must survive eviction
        for _ in 0..300 {
            open(&tl);
            close(&tl);
        }
        let ids: Vec<u64> = tl.snapshot().iter().map(|i| i.id).collect();
        assert_eq!(ids.len(), MAX_INCIDENTS);
        assert_eq!((ids[0], ids[1], ids[255]), (kept_open, 47, 301));
        assert!(tl.snapshot()[0].open);
    }

    #[test]
    fn json_shape_is_stable() {
        let tl = IncidentTimeline::default();
        open(&tl);
        close(&tl);
        let json = tl.to_json();
        assert!(json.starts_with("{\"incidents\":[{\"id\":1,\"open\":false,"));
        assert!(json.contains("\"phase\":\"detected\""));
        assert!(json.contains("\"decomposition\":{\"mttd_ns\":0,"));
        assert_eq!(tl.to_json(), json, "double export must be identical");
    }
}
