//! Lightweight span guards and the [`Telemetry`] handle.
//!
//! [`Telemetry::span`] is the single instrumentation primitive threaded
//! through the statement and repair pipelines. When telemetry is
//! disabled (the default for bare [`crate::MetricsRegistry`]-less
//! simulation contexts) the guard is a no-op constructed after one
//! relaxed atomic load — the same fast-path shape as the disarmed
//! failpoint check in `crates/sim/src/fault.rs`, so the hot statement
//! path pays effectively nothing.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::timeline::IncidentTimeline;
use crate::trace::{EventKind, FlightRecorder};

#[derive(Debug, Default)]
struct TelemetryInner {
    enabled: AtomicBool,
    registry: MetricsRegistry,
    flight: FlightRecorder,
    timeline: IncidentTimeline,
}

/// Shared, cloneable handle to one telemetry domain: an enabled flag, a
/// [`MetricsRegistry`], a flight recorder and an incident timeline.
///
/// Clones share state (`Arc` inside); equality is identity so that
/// config structs carrying a `Telemetry` can stay `PartialEq`/`Eq`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for Telemetry {}

impl Telemetry {
    /// A disabled telemetry domain: spans and counters are no-ops until
    /// [`set_enabled`](Telemetry::set_enabled) flips it on.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled telemetry domain recording into its own registry.
    pub fn recording() -> Self {
        let t = Self::default();
        t.set_enabled(true);
        t
    }

    /// Whether spans/counters are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The built-in registry backing this domain.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// The flight recorder riding on this domain. Event recording is
    /// toggled independently of metrics ([`FlightRecorder::set_enabled`]);
    /// it starts disabled even on a [`Telemetry::recording`] domain, so
    /// span-only users never pay for event capture.
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// The incident timeline riding on this domain: read-only here (plus
    /// [`IncidentTimeline::note_attack`] for drivers that know the ground
    /// truth); [`Self::repair_event`] is its one feeder. Events arrive off
    /// the statement hot path, so recording is always on.
    pub fn timeline(&self) -> &IncidentTimeline {
        &self.inner.timeline
    }

    /// A fresh stamp on the incident clock — what analysis records as its
    /// start so a later [`EventKind::IncidentDetected`] can carry it.
    pub fn incident_stamp(&self) -> u64 {
        self.inner.timeline.stamp()
    }

    /// Report one repair/containment milestone: `kind` is folded into the
    /// incident timeline (phase marks and progress numbers) and forwarded
    /// to the flight ring when tracing is on, so every view of the
    /// incident derives from this one stream. `txn` is the proxy
    /// transaction the event concerns (`0` for none).
    pub fn repair_event(&self, txn: i64, kind: EventKind) {
        self.inner.timeline.apply(&kind);
        self.inner.flight.emit(txn, 0, kind);
    }

    /// Snapshot the built-in registry, plus two folds so every exported
    /// snapshot carries them: the flight recorder's ring health
    /// (`telemetry.trace.{dropped,occupancy,capacity}`) and the latest
    /// incident's repair progress (`repair.progress.*`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.registry.snapshot();
        self.inner.flight.fold_metrics(&mut snap);
        self.inner.timeline.fold_metrics(&mut snap);
        snap
    }

    /// Start a span named `name`. The returned guard records its
    /// wall-clock duration when dropped. Disabled telemetry returns an
    /// inert guard after a single relaxed atomic load — no clock read.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let active = self
            .is_enabled()
            .then(|| (Cow::Borrowed(self), name, Instant::now()));
        Span { active }
    }

    /// Like [`Self::span`], but the guard owns a clone of the telemetry
    /// handle instead of borrowing it — for instrumenting methods that
    /// need `&mut self` while the span is live. Disabled telemetry still
    /// pays only the one relaxed load (no clone, no clock read).
    pub fn owned_span(&self, name: &'static str) -> OwnedSpan {
        let active = self
            .is_enabled()
            .then(|| (Cow::Owned(self.clone()), name, Instant::now()));
        Span { active }
    }

    /// Add `delta` to counter `name` (no-op when disabled).
    pub fn count(&self, name: &str, delta: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.inner.registry.counter(name).add(delta);
    }

    /// Record a span duration directly (for pre-measured intervals).
    pub fn record_span_ns(&self, name: &str, nanos: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.inner.registry.histogram(name).record(nanos);
    }
}

/// RAII guard measuring one timed region; see [`Telemetry::span`]. It
/// borrows the telemetry handle, or owns a clone of it ([`OwnedSpan`]).
pub struct Span<'a> {
    active: Option<(Cow<'a, Telemetry>, &'static str, Instant)>,
}

/// Owning variant of [`Span`]; see [`Telemetry::owned_span`].
pub type OwnedSpan = Span<'static>;

impl Span<'_> {
    /// Whether this span is live (telemetry was enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((telemetry, name, started)) = self.active.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            telemetry.inner.registry.histogram(name).record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_span_records_and_disabled_is_inert() {
        let t = Telemetry::recording();
        drop(t.owned_span("o"));
        assert_eq!(t.snapshot().histogram("o").map(|h| h.count), Some(1));
        let off = Telemetry::disabled();
        assert!(!off.owned_span("o").is_recording());
    }

    #[test]
    fn disabled_span_records_nothing() {
        let t = Telemetry::disabled();
        {
            let s = t.span("x");
            assert!(!s.is_recording());
        }
        t.count("c", 5);
        // Only the flight recorder's ring-health fold appears: no span
        // histograms and no counted counters.
        let snap = t.snapshot();
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.counter("c"), 0);
    }

    #[test]
    fn enabled_span_records_into_registry() {
        let t = Telemetry::recording();
        {
            let s = t.span("stage");
            assert!(s.is_recording());
        }
        t.count("hits", 2);
        let snap = t.snapshot();
        assert_eq!(snap.histogram("stage").map(|h| h.count), Some(1));
        assert_eq!(snap.counter("hits"), 2);
    }

    #[test]
    fn toggling_enabled_flag_is_shared_across_clones() {
        let t = Telemetry::disabled();
        let t2 = t.clone();
        t.set_enabled(true);
        assert!(t2.is_enabled());
        drop(t2.span("s"));
        assert_eq!(t.snapshot().histogram("s").map(|h| h.count), Some(1));
    }

    #[test]
    fn equality_is_identity() {
        let a = Telemetry::recording();
        let b = a.clone();
        let c = Telemetry::recording();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
