//! Incident timelines: phase-stamped marks per intrusion incident and
//! the MTTD/MTTC/MTTR decomposition derived from them.
//!
//! An *incident* is one detect→contain→repair episode. The repair
//! controller (and, for ground truth, the workload driver) push
//! [`IncidentMark`]s as the episode progresses:
//!
//! * `attack_committed` — ground truth, when the driver knows the attack
//!   commit time (VOPR scenarios, the MTTR bench); absent otherwise;
//! * `detected` — when analysis of the incident began;
//! * `fence_raised` / `quarantine_shrunk` / `fence_extended` /
//!   `fence_lifted` — the live-repair containment lifecycle;
//! * `sweep_complete` — the compensation sweep finished.
//!
//! Stamps are strictly monotonic nanoseconds since the timeline's first
//! use, so a mark sequence is totally ordered even when two marks land
//! in the same clock tick. [`IncidentRecord::decomposition`] splits the
//! episode wall time into detection (MTTD), containment (MTTC) and
//! repair (MTTR) phases that sum to it exactly — the decomposition the
//! VOPR timeline oracle checks and `mttr --live` reports.

use std::sync::Mutex;
use std::time::Instant;

use crate::export::json_string;

/// One phase mark on an incident timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentPhase {
    /// Ground-truth attack commit time (known to VOPR and the benches).
    AttackCommitted,
    /// Analysis of the incident began (detection time).
    Detected,
    /// The containment fence went up over the static surface.
    FenceRaised,
    /// The fence shrank to the row-level quarantine.
    QuarantineShrunk,
    /// The compensation sweep finished (last round compensated).
    SweepComplete,
    /// The fence grew to cover closure rows discovered mid-sweep.
    FenceExtended,
    /// The fence came down (success, error or panic teardown).
    FenceLifted,
}

impl IncidentPhase {
    /// Stable wire name, matching the flight-recorder event names.
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

/// One incident: an id, whether it is still open, and its marks in
/// stamp order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRecord {
    /// 1-based incident id, in open order.
    pub id: u64,
    /// True while the repair episode is still in flight.
    pub open: bool,
    /// Phase marks in strictly increasing stamp order.
    pub marks: Vec<IncidentMark>,
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
    incidents: Vec<IncidentRecord>,
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
}

/// Thread-safe registry of incidents, embedded in `Telemetry` next to
/// the flight recorder. Recording is off the statement hot path —
/// marks arrive only a handful of times per repair episode — so one
/// mutex suffices.
#[derive(Debug, Default)]
pub struct IncidentTimeline {
    inner: Mutex<TimelineState>,
}

impl IncidentTimeline {
    /// Create an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the ground-truth attack commit time. The next incident to
    /// open absorbs it as its `attack_committed` mark; the earliest
    /// pending attack wins when several are noted before detection.
    pub fn note_attack(&self) {
        let mut state = self.lock();
        let at = state.stamp();
        state.pending_attack.get_or_insert(at);
    }

    /// Open a new incident, absorbing any pending attack mark. Returns
    /// the 1-based incident id.
    pub fn open_incident(&self) -> u64 {
        let mut state = self.lock();
        let id = state.incidents.len() as u64 + 1;
        let marks = match state.pending_attack.take() {
            Some(at_ns) => vec![IncidentMark {
                phase: IncidentPhase::AttackCommitted,
                at_ns,
            }],
            None => Vec::new(),
        };
        state.incidents.push(IncidentRecord {
            id,
            open: true,
            marks,
        });
        id
    }

    /// Id of the latest still-open incident, if any.
    pub fn current(&self) -> Option<u64> {
        self.lock().latest_open().map(|i| i.id)
    }

    /// Stamp `phase` onto the latest open incident. Returns the stamp,
    /// or `None` when no incident is open (the mark is dropped).
    pub fn mark(&self, phase: IncidentPhase) -> Option<u64> {
        let mut state = self.lock();
        let at_ns = state.stamp();
        let incident = state.latest_open()?;
        incident.marks.push(IncidentMark { phase, at_ns });
        Some(at_ns)
    }

    /// Close the latest open incident (idempotent when none is open).
    pub fn close_incident(&self) {
        if let Some(incident) = self.lock().latest_open() {
            incident.open = false;
        }
    }

    /// Clone out every incident recorded so far.
    pub fn snapshot(&self) -> Vec<IncidentRecord> {
        self.lock().incidents.clone()
    }

    /// Number of incidents recorded so far.
    pub fn len(&self) -> usize {
        self.lock().incidents.len()
    }

    /// True when no incident has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all incidents and any pending attack mark (stamps stay
    /// monotonic across the clear).
    pub fn clear(&self) {
        let mut state = self.lock();
        state.incidents.clear();
        state.pending_attack = None;
    }

    /// Render every incident as the `/incidents` JSON document.
    pub fn to_json(&self) -> String {
        to_json(&self.snapshot())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TimelineState> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Render incidents as a stable JSON document:
/// `{"incidents":[{"id":..,"open":..,"marks":[{"phase":..,"at_ns":..}],
/// "decomposition":{"mttd_ns":..,"mttc_ns":..,"mttr_ns":..,"wall_ns":..}}]}`.
pub fn to_json(incidents: &[IncidentRecord]) -> String {
    let mut out = String::from("{\"incidents\":[");
    for (i, incident) in incidents.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_strictly_monotonic() {
        let tl = IncidentTimeline::new();
        tl.open_incident();
        for _ in 0..100 {
            tl.mark(IncidentPhase::FenceExtended);
        }
        let snap = tl.snapshot();
        let marks = &snap[0].marks;
        assert_eq!(marks.len(), 100);
        for pair in marks.windows(2) {
            assert!(pair[0].at_ns < pair[1].at_ns, "{pair:?} not strict");
        }
    }

    #[test]
    fn decomposition_sums_to_wall_time() {
        let tl = IncidentTimeline::new();
        tl.note_attack();
        tl.open_incident();
        tl.mark(IncidentPhase::Detected);
        tl.mark(IncidentPhase::FenceRaised);
        tl.mark(IncidentPhase::QuarantineShrunk);
        tl.mark(IncidentPhase::SweepComplete);
        tl.mark(IncidentPhase::FenceLifted);
        tl.close_incident();
        let incident = &tl.snapshot()[0];
        assert_eq!(incident.marks[0].phase, IncidentPhase::AttackCommitted);
        let d = incident.decomposition();
        assert!(d.mttd_ns > 0, "attack→detect must take time: {d:?}");
        assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);
    }

    #[test]
    fn quiesced_incident_has_zero_containment() {
        let tl = IncidentTimeline::new();
        tl.open_incident();
        tl.mark(IncidentPhase::Detected);
        tl.mark(IncidentPhase::SweepComplete);
        tl.close_incident();
        let d = tl.snapshot()[0].decomposition();
        assert_eq!(d.mttc_ns, 0);
        assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);
    }

    #[test]
    fn pending_attack_feeds_only_next_incident() {
        let tl = IncidentTimeline::new();
        tl.note_attack();
        tl.note_attack(); // earliest wins, later notes ignored
        let a = tl.open_incident();
        tl.close_incident();
        let b = tl.open_incident();
        assert_eq!((a, b), (1, 2));
        let snap = tl.snapshot();
        assert_eq!(snap[0].count(IncidentPhase::AttackCommitted), 1);
        assert_eq!(snap[1].count(IncidentPhase::AttackCommitted), 0);
    }

    #[test]
    fn marks_without_open_incident_are_dropped() {
        let tl = IncidentTimeline::new();
        assert_eq!(tl.mark(IncidentPhase::Detected), None);
        tl.open_incident();
        tl.close_incident();
        assert_eq!(tl.mark(IncidentPhase::Detected), None);
        assert!(tl.snapshot()[0].marks.is_empty());
    }

    #[test]
    fn reopened_incidents_get_fresh_ids_and_current_tracks_open() {
        let tl = IncidentTimeline::new();
        assert_eq!(tl.current(), None);
        let a = tl.open_incident();
        assert_eq!(tl.current(), Some(a));
        tl.close_incident();
        assert_eq!(tl.current(), None);
        let b = tl.open_incident();
        assert_eq!(tl.current(), Some(b));
        assert_ne!(a, b);
    }

    #[test]
    fn json_shape_is_stable() {
        let tl = IncidentTimeline::new();
        tl.open_incident();
        tl.mark(IncidentPhase::Detected);
        tl.close_incident();
        let json = tl.to_json();
        assert!(json.starts_with("{\"incidents\":[{\"id\":1,\"open\":false,"));
        assert!(json.contains("\"phase\":\"detected\""));
        assert!(json.contains("\"decomposition\":{\"mttd_ns\":0,"));
        assert_eq!(tl.to_json(), json, "double export must be identical");
    }
}
