//! Reading flight-recorder captures back.
//!
//! `resildb_telemetry` writes captures ([`to_jsonl`], [`to_chrome_trace`])
//! and a running system needs nothing more; reading them is forensic
//! work, so it lives here beside [`crate::TraceExplorer`] and the
//! `resildb-trace` binary, on the workspace's one JSON parser.
//!
//! [`to_jsonl`]: resildb_sim::telemetry::trace::to_jsonl
//! [`to_chrome_trace`]: resildb_sim::telemetry::trace::to_chrome_trace

use resildb_analyze::{parse_json, JsonValue};
use resildb_sim::{EventKind, TraceEvent, TraceVerdict};

/// Integer field `key` of `obj`. Absent, non-integral and out-of-range
/// values are errors: a capture is evidence, and `1.5` must not read as
/// transaction 1.
fn int_field<T: TryFrom<i64>>(obj: &JsonValue, key: &str) -> Result<T, String> {
    obj.get(key)
        .and_then(JsonValue::as_i64)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("field {key:?} missing or not an integer in range"))
}

fn str_field<'a>(obj: &'a JsonValue, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(JsonValue::as_str)
}

fn verdict_from_str(s: &str) -> Option<TraceVerdict> {
    [
        TraceVerdict::Sound,
        TraceVerdict::Degraded,
        TraceVerdict::Untracked,
        TraceVerdict::Rejected,
    ]
    .into_iter()
    .find(|v| v.as_str() == s)
}

fn kind_from_fields(event: &str, detail: &JsonValue) -> Result<EventKind, String> {
    Ok(match event {
        "txn_begin" => EventKind::TxnBegin,
        "commit" => EventKind::Commit,
        "abort" => EventKind::Abort,
        "stmt_rewrite" => EventKind::StmtRewrite {
            cache_hit: detail
                .get("cache_hit")
                .and_then(JsonValue::as_bool)
                .ok_or("stmt_rewrite missing cache_hit")?,
            verdict: str_field(detail, "verdict")
                .and_then(verdict_from_str)
                .ok_or("stmt_rewrite missing verdict")?,
        },
        "dep_harvested" => EventKind::DepHarvested {
            dep: int_field(detail, "dep")?,
            table: str_field(detail, "table").unwrap_or_default().to_string(),
        },
        "trans_dep_insert" => EventKind::TransDepInsert {
            deps: int_field(detail, "deps")?,
        },
        "wal_commit" => EventKind::WalCommit {
            internal: int_field(detail, "internal")?,
        },
        "wal_abort" => EventKind::WalAbort {
            internal: int_field(detail, "internal")?,
        },
        "fault_hit" => EventKind::FaultHit {
            failpoint: str_field(detail, "failpoint")
                .unwrap_or_default()
                .to_string(),
        },
        "log_scan" => EventKind::LogScan {
            records: int_field(detail, "records")?,
        },
        "correlate" => EventKind::Correlate {
            pairs: int_field(detail, "pairs")?,
        },
        "closure_computed" => EventKind::ClosureComputed {
            initial: int_field(detail, "initial")?,
            nodes: int_field(detail, "nodes")?,
        },
        "compensated" => EventKind::Compensated {
            statements: int_field(detail, "statements")?,
        },
        "incident_detected" => EventKind::IncidentDetected {
            at_ns: int_field(detail, "at_ns")?,
        },
        "incident_closed" => EventKind::IncidentClosed,
        "sweep_complete" => EventKind::SweepComplete {
            rounds: int_field(detail, "rounds")?,
        },
        "fence_raised" => EventKind::FenceRaised {
            tables: int_field(detail, "tables")?,
        },
        "fence_shrunk" => EventKind::FenceShrunk {
            tables: int_field(detail, "tables")?,
            rows: int_field(detail, "rows")?,
        },
        "fence_extended" => EventKind::FenceExtended {
            rows: int_field(detail, "rows")?,
        },
        "fence_lifted" => EventKind::FenceLifted,
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

fn jsonl_event(line: &str) -> Result<TraceEvent, String> {
    let obj = parse_json(line)?;
    let event = str_field(&obj, "event").ok_or("missing event field")?;
    Ok(TraceEvent {
        seq: int_field(&obj, "seq")?,
        txn: int_field(&obj, "txn")?,
        session: int_field(&obj, "session")?,
        kind: kind_from_fields(event, &obj)?,
    })
}

/// Parses a JSONL capture (the `to_jsonl` format) back into events.
fn jsonl_events(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| !line.is_empty())
        .map(|(i, line)| jsonl_event(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

fn chrome_event(item: &JsonValue) -> Result<TraceEvent, String> {
    let args = item.get("args").unwrap_or(&JsonValue::Null);
    let event = str_field(args, "event")
        .or_else(|| str_field(item, "name"))
        .ok_or("missing event name")?;
    Ok(TraceEvent {
        seq: int_field(item, "ts")?,
        txn: int_field(item, "pid")?,
        session: int_field(item, "tid")?,
        kind: kind_from_fields(event, args)?,
    })
}

/// Parses a Chrome Trace Event Format capture (the `to_chrome_trace`
/// format) back into events. Both the wrapped object form and a bare
/// `traceEvents` array are accepted.
fn chrome_events(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = parse_json(text)?;
    let items = match &doc {
        JsonValue::Array(items) => items.as_slice(),
        JsonValue::Object(_) => doc
            .get("traceEvents")
            .ok_or("missing traceEvents array")?
            .as_array()
            .ok_or("traceEvents is not an array")?,
        _ => return Err("expected object or array".into()),
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| chrome_event(item).map_err(|e| format!("traceEvents[{i}]: {e}")))
        .collect()
}

/// Parses a capture in either supported format, sniffing the container
/// structurally: the first non-empty line is parsed as standalone JSON.
/// An array, or an object whose *top-level* keys include `traceEvents`,
/// means Chrome trace; any other object means JSONL (so event payloads
/// that merely contain the string `"traceEvents"` are not misrouted);
/// a line that is not standalone JSON means the document spans multiple
/// lines — a pretty-printed Chrome trace.
///
/// # Errors
///
/// Malformed JSON, unknown event kinds, ids that are not integers.
pub fn parse_capture(text: &str) -> Result<Vec<TraceEvent>, String> {
    let Some(first_line) = text.lines().map(str::trim).find(|l| !l.is_empty()) else {
        return Ok(Vec::new());
    };
    match parse_json(first_line) {
        Ok(JsonValue::Array(_)) | Err(_) => chrome_events(text),
        Ok(doc) if doc.get("traceEvents").is_some() => chrome_events(text),
        Ok(_) => jsonl_events(text),
    }
}

#[cfg(test)]
mod tests {
    use resildb_sim::telemetry::trace::{to_chrome_trace, to_jsonl};
    use resildb_sim::FlightRecorder;

    use super::*;

    fn sample_events() -> Vec<EventKind> {
        vec![
            EventKind::TxnBegin,
            EventKind::StmtRewrite {
                cache_hit: true,
                verdict: TraceVerdict::Sound,
            },
            EventKind::DepHarvested {
                dep: 3,
                table: "account".into(),
            },
            EventKind::TransDepInsert { deps: 1 },
            EventKind::Commit,
            EventKind::Abort,
            EventKind::WalCommit { internal: 9 },
            EventKind::WalAbort { internal: 10 },
            EventKind::FaultHit {
                failpoint: "proxy.before_commit".into(),
            },
            EventKind::LogScan { records: 31 },
            EventKind::Correlate { pairs: 7 },
            EventKind::ClosureComputed {
                initial: 1,
                nodes: 4,
            },
            EventKind::Compensated { statements: 3 },
            EventKind::IncidentDetected { at_ns: 1_500 },
            EventKind::IncidentClosed,
            EventKind::SweepComplete { rounds: 2 },
            EventKind::FenceRaised { tables: 6 },
            EventKind::FenceShrunk {
                tables: 1,
                rows: 12,
            },
            EventKind::FenceExtended { rows: 2 },
            EventKind::FenceLifted,
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        for (i, kind) in sample_events().into_iter().enumerate() {
            r.emit(i as i64, 42, kind);
        }
        let snap = r.snapshot();
        let jsonl = to_jsonl(&snap);
        let parsed = jsonl_events(&jsonl).unwrap();
        assert_eq!(parsed, snap.events);
    }

    #[test]
    fn chrome_trace_round_trips_and_has_spans() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        for kind in sample_events() {
            r.emit(7, 1, kind);
        }
        let snap = r.snapshot();
        let chrome = to_chrome_trace(&snap);
        assert!(chrome.contains("\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        let parsed = chrome_events(&chrome).unwrap();
        assert_eq!(parsed, snap.events);
        // parse_capture sniffs the container correctly for both formats.
        assert_eq!(parse_capture(&chrome).unwrap(), snap.events);
        assert_eq!(parse_capture(&to_jsonl(&snap)).unwrap(), snap.events);
    }

    #[test]
    fn capture_sniff_is_structural() {
        // A JSONL payload containing the literal "traceEvents" must not
        // be misrouted to the Chrome-trace parser.
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.emit(
            1,
            0,
            EventKind::DepHarvested {
                dep: 2,
                table: "audit_\"traceEvents\"_log".into(),
            },
        );
        r.emit(
            1,
            0,
            EventKind::FaultHit {
                failpoint: "traceEvents".into(),
            },
        );
        let snap = r.snapshot();
        assert_eq!(parse_capture(&to_jsonl(&snap)).unwrap(), snap.events);
        // A pretty-printed Chrome trace (document spans multiple lines,
        // first line is not standalone JSON) still sniffs as Chrome.
        let pretty = "{\n  \"traceEvents\": [\n    {\"name\":\"txn\",\"ph\":\"B\",\"ts\":0,\
                      \"pid\":1,\"tid\":0,\"args\":{\"event\":\"txn_begin\"}}\n  ]\n}\n";
        let parsed = parse_capture(pretty).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, EventKind::TxnBegin);
        // A bare traceEvents array (no wrapper object) sniffs as Chrome.
        let bare = "[{\"name\":\"txn\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0,\
                     \"args\":{\"event\":\"txn_begin\"}}]";
        assert_eq!(parse_capture(bare).unwrap(), parsed);
        // An empty capture parses to no events.
        assert_eq!(parse_capture("").unwrap(), Vec::new());
    }

    #[test]
    fn string_fields_escape_and_round_trip() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.emit(
            1,
            0,
            EventKind::DepHarvested {
                dep: 2,
                table: "we\"ird\\táble\n".into(),
            },
        );
        let snap = r.snapshot();
        assert_eq!(jsonl_events(&to_jsonl(&snap)).unwrap(), snap.events);
        assert_eq!(chrome_events(&to_chrome_trace(&snap)).unwrap(), snap.events);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(jsonl_events("{\"event\":\"nonsense\"}").is_err());
        assert!(jsonl_events("not json").is_err());
        assert!(chrome_events("{\"traceEvents\":42}").is_err());
    }

    #[test]
    fn non_integral_ids_are_errors() {
        let line =
            |txn: &str| format!("{{\"seq\":0,\"txn\":{txn},\"session\":0,\"event\":\"commit\"}}");
        assert_eq!(jsonl_events(&line("1")).unwrap()[0].txn, 1);
        for bad in ["1.5", "1e300", "9007199254740993", "\"1\"", "null"] {
            let err = jsonl_events(&line(bad)).unwrap_err();
            assert!(err.starts_with("line 1: field \"txn\""), "{bad}: {err}");
        }
        // Unsigned fields refuse negatives; a missing id is not id 0.
        assert!(jsonl_events("{\"seq\":-1,\"txn\":1,\"session\":0,\"event\":\"commit\"}").is_err());
        assert!(jsonl_events("{\"seq\":0,\"session\":0,\"event\":\"commit\"}").is_err());
        // Payload counters must fit their type instead of wrapping.
        let wide = "{\"seq\":0,\"txn\":1,\"session\":0,\"event\":\"trans_dep_insert\",\"deps\":4294967296}";
        assert!(jsonl_events(wide).is_err());
        let chrome =
            "[{\"name\":\"txn\",\"ts\":0,\"pid\":1.5,\"tid\":0,\"args\":{\"event\":\"commit\"}}]";
        let err = chrome_events(chrome).unwrap_err();
        assert!(err.starts_with("traceEvents[0]: field \"pid\""), "{err}");
    }
}
