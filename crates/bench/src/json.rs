//! Machine-readable benchmark output (`--json-out`).
//!
//! Every figure binary can emit one JSON document combining its figure
//! results with a telemetry snapshot of an instrumented run — per-stage
//! latency histograms (p50/p95/p99) for the proxy rewrite, engine
//! execute/WAL/commit and repair phases, plus the layer counters.
//! `tests/reports.rs` asserts the documents' keys and required metrics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

use resildb_core::telemetry::export;
use resildb_core::telemetry::json::JsonWriter;
use resildb_core::{telemetry::trace, MetricsSnapshot, ProxyConfig, ProxyConfigBuilder, Telemetry};

/// A bench binary's parsed command line: each flag given, with its value
/// if it takes one; see [`parse_flags`].
#[derive(Debug)]
pub struct Flags(BTreeMap<String, Option<String>>);

impl Flags {
    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.0.contains_key(switch)
    }

    /// The value of valued flag `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.get(flag)?.as_deref()
    }

    /// The value of `flag` as a positive integer (`--threads 4`), if it
    /// was given.
    ///
    /// # Errors
    ///
    /// A usage error when the value is not an integer or is zero.
    pub fn positive(&self, flag: &str) -> Result<Option<u64>, String> {
        match self.value(flag).map(str::parse::<u64>) {
            None => Ok(None),
            Some(Ok(n)) if n > 0 => Ok(Some(n)),
            Some(_) => Err(format!("{flag} requires a positive integer")),
        }
    }
}

/// The one strict flag parser of the bench binaries. `args` (without the
/// program name) may hold each of `switches` bare and each of `valued`
/// followed by its value, at most once and in any order.
///
/// # Errors
///
/// A usage error naming the offence and the accepted flags: an argument
/// in neither list (a typo must not silently run the default grid), a
/// repeated flag, or a valued flag that is last or followed by another
/// flag — an output path the operator did not name is never invented.
pub fn parse_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Flags, String> {
    let accepted = switches
        .iter()
        .map(|s| format!("[{s}]"))
        .chain(valued.iter().map(|v| format!("[{v} VALUE]")));
    let usage = format!("accepted flags: {}", accepted.collect::<Vec<_>>().join(" "));
    let mut given = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = if valued.contains(&arg.as_str()) {
            match it.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(format!("{arg} requires a value\n{usage}")),
            }
        } else if switches.contains(&arg.as_str()) {
            None
        } else {
            return Err(format!("unknown flag `{arg}`\n{usage}"));
        };
        if given.insert(arg.clone(), value).is_some() {
            return Err(format!("{arg} given more than once\n{usage}"));
        }
    }
    Ok(Flags(given))
}

/// Unwraps a command-line result in a binary's `main`: a usage error is
/// printed and the process exits with status 2.
pub fn or_usage_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("usage error: {e}");
        std::process::exit(2)
    })
}

/// [`parse_flags`] over the process arguments, for a binary's `main`.
pub fn flags_or_exit(switches: &[&str], valued: &[&str]) -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage_exit(parse_flags(&args, switches, valued))
}

/// Provenance stamped into every `--json-out` report: which commit and
/// proxy configuration produced the numbers, and when.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// UTC wall-clock time of the run, ISO-8601 (`YYYY-MM-DDThh:mm:ssZ`).
    pub timestamp_utc: String,
    /// Active proxy configuration summary (from `ProxyConfig::summary`),
    /// when the benchmark ran through the proxy.
    pub proxy_config: Option<String>,
}

impl RunMeta {
    /// Collects the current provenance. `proxy_config` is the active
    /// configuration summary, if the bench exercised the proxy.
    pub fn collect(proxy_config: Option<String>) -> Self {
        Self {
            git_sha: git_head_sha(),
            timestamp_utc: utc_timestamp(),
            proxy_config,
        }
    }

    /// Writes the meta block as a JSON object (`proxy_config` is `null`
    /// when the bench did not run through the proxy).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("git_sha", self.git_sha.as_str())
                .field("timestamp_utc", self.timestamp_utc.as_str())
                .field("proxy_config", self.proxy_config.as_deref());
        });
    }
}

fn git_head_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats the current time as ISO-8601 UTC without any date/time crate,
/// using the standard days-from-civil inversion.
fn utc_timestamp() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the Unix era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// A telemetry probe shared by the instrumented cells of one figure run:
/// one recording domain threaded through every simulation context and
/// proxy configuration, plus the last captured per-connection metrics
/// fold (which adds the proxy rewrite-cache/enforcement counters and the
/// simulation substrate counters to the registry's spans).
#[derive(Debug)]
pub struct Probe {
    telemetry: Telemetry,
    captured: RefCell<Option<MetricsSnapshot>>,
    proxy_config: RefCell<Option<String>>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with a fresh recording telemetry domain.
    pub fn new() -> Self {
        Self {
            telemetry: Telemetry::recording(),
            captured: RefCell::new(None),
            proxy_config: RefCell::new(None),
        }
    }

    /// Turns on the telemetry domain's flight recorder, so the run also
    /// captures a trace-event window (for `--trace-out`).
    pub fn enable_tracing(&self) {
        self.telemetry.flight().set_enabled(true);
    }

    /// Finishes `builder` for a run `probe` (if any) observes: the proxy
    /// records into the probe's telemetry domain, and the configuration
    /// summary is noted for the report's meta block (later calls win;
    /// figures run one configuration).
    pub fn proxy_config(probe: Option<&Probe>, builder: ProxyConfigBuilder) -> ProxyConfig {
        let Some(probe) = probe else {
            return builder.build();
        };
        let config = builder.telemetry(probe.telemetry.clone()).build();
        *probe.proxy_config.borrow_mut() = Some(config.summary());
        config
    }

    /// Provenance for [`write_report`], including any noted proxy config.
    pub fn run_meta(&self) -> RunMeta {
        RunMeta::collect(self.proxy_config.borrow().clone())
    }

    /// The shared telemetry domain, for `SimContext::with_telemetry` and
    /// `ProxyConfigBuilder::telemetry`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Captures a metrics fold, replacing any earlier capture: a tracked
    /// connection's `metrics()` at the end of a measured cell (registry
    /// spans + the connection's layer counters; the span histograms are
    /// cumulative across cells because the domain is shared), or the
    /// threaded runner's merge of its per-worker snapshots.
    pub fn capture(&self, snapshot: MetricsSnapshot) {
        *self.captured.borrow_mut() = Some(snapshot);
    }

    /// The final snapshot: the last capture if any, else the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.captured
            .borrow()
            .clone()
            .unwrap_or_else(|| self.telemetry.snapshot())
    }
}

/// Writes the combined document `{"bench":..,"meta":..,"results":..,
/// "metrics":..}`; `results` writes the figure's one results value.
///
/// # Errors
///
/// File I/O failures.
pub fn write_report(
    path: &str,
    bench: &str,
    results: impl FnOnce(&mut JsonWriter),
    snapshot: &MetricsSnapshot,
    meta: &RunMeta,
) -> std::io::Result<()> {
    let doc = JsonWriter::render(|w| {
        w.object(|w| {
            w.field("bench", bench);
            meta.write_json(w.key("meta"));
            results(w.key("results"));
            export::write_json(w.key("metrics"), snapshot);
        });
    });
    write_creating_dir(path, doc + "\n")
}

/// Writes a flight-recorder capture: JSONL when `path` ends in `.jsonl`,
/// Chrome Trace Event Format (Perfetto-loadable) otherwise.
///
/// # Errors
///
/// File I/O failures.
pub fn write_trace(path: &str, snapshot: &trace::TraceSnapshot) -> std::io::Result<()> {
    let doc = if path.ends_with(".jsonl") {
        trace::to_jsonl(snapshot)
    } else {
        trace::to_chrome_trace(snapshot)
    };
    write_creating_dir(path, doc)
}

/// Writes `doc` to `path`, creating the directory it names first (CI
/// writes under `target/bench/`, which no build step creates).
fn write_creating_dir(path: &str, doc: String) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const FIG4_SWITCHES: [&str; 2] = ["--quick", "--no-rewrite-cache"];
    const FIG4_VALUED: [&str; 3] = ["--threads", "--json-out", "--trace-out"];

    fn fig4(list: &[&str]) -> Result<Flags, String> {
        parse_flags(&args(list), &FIG4_SWITCHES, &FIG4_VALUED)
    }

    #[test]
    fn threads_arg_parsing() {
        let threads = |list: &[&str]| fig4(list).unwrap().positive("--threads");
        assert_eq!(threads(&[]), Ok(None));
        assert_eq!(threads(&["--threads", "4"]), Ok(Some(4)));
        assert_eq!(threads(&["--threads", "8", "--quick"]), Ok(Some(8)));
        for bad in ["0", "-1", "four"] {
            let err = threads(&["--threads", bad]).unwrap_err();
            assert!(err.starts_with("--threads requires a positive integer"));
        }
    }

    #[test]
    fn json_out_parsing() {
        let flags = fig4(&["--json-out", "out.json", "--quick"]).unwrap();
        assert_eq!(flags.value("--json-out"), Some("out.json"));
        assert!(flags.has("--quick") && !flags.has("--no-rewrite-cache"));
        assert_eq!(fig4(&[]).unwrap().value("--json-out"), None);
        // No silent default: a missing path is a usage error.
        assert!(fig4(&["--json-out"]).is_err());
        assert!(fig4(&["--json-out", "--quick"]).is_err());
    }

    #[test]
    fn unknown_and_repeated_flags_are_usage_errors() {
        // The typo that used to run the full grid with exit 0.
        let err = fig4(&["--quik", "--json-out", "x"]).unwrap_err();
        assert!(err.starts_with("unknown flag `--quik`"), "{err}");
        assert!(err.contains("[--quick]") && err.contains("[--json-out VALUE]"));
        assert!(fig4(&["stray"]).is_err());
        let err = fig4(&["--quick", "--quick"]).unwrap_err();
        assert!(err.starts_with("--quick given more than once"), "{err}");
        assert!(fig4(&["--threads", "2", "--threads", "4"]).is_err());
    }

    #[test]
    fn probe_falls_back_to_registry_snapshot() {
        let probe = Probe::new();
        probe.telemetry().count("x", 3);
        assert_eq!(probe.snapshot().counter("x"), 3);
    }

    #[test]
    fn trace_out_parsing() {
        let flags = fig4(&["--trace-out", "t.jsonl", "--quick"]).unwrap();
        assert_eq!(flags.value("--trace-out"), Some("t.jsonl"));
        let err = fig4(&["--trace-out"]).unwrap_err();
        assert!(err.starts_with("--trace-out requires a value"), "{err}");
    }

    #[test]
    fn run_meta_renders_valid_fields() {
        let meta = RunMeta::collect(Some("flavor=postgres".into()));
        let json = JsonWriter::render(|w| meta.write_json(w));
        assert!(json.contains("\"git_sha\":\""));
        assert!(json.contains("\"proxy_config\":\"flavor=postgres\""));
        // ISO-8601: YYYY-MM-DDThh:mm:ssZ.
        let ts = &meta.timestamp_utc;
        assert_eq!(ts.len(), 20, "timestamp {ts}");
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        assert!(ts.ends_with('Z'));
        assert!(ts.starts_with("20"), "unix-era year: {ts}");
        let no_proxy = JsonWriter::render(|w| RunMeta::collect(None).write_json(w));
        assert!(no_proxy.contains("\"proxy_config\":null"));
    }

    #[test]
    fn probe_notes_proxy_config_into_meta() {
        let probe = Probe::new();
        assert_eq!(probe.run_meta().proxy_config, None);
        let builder = ProxyConfig::builder(resildb_core::Flavor::Postgres);
        let config = Probe::proxy_config(Some(&probe), builder);
        assert_eq!(config.telemetry.as_ref(), Some(probe.telemetry()));
        assert_eq!(probe.run_meta().proxy_config, Some(config.summary()));
    }

    #[test]
    fn probe_tracing_starts_disabled_until_enabled() {
        let probe = Probe::new();
        assert!(!probe.telemetry().flight().is_enabled());
        probe.enable_tracing();
        assert!(probe.telemetry().flight().is_enabled());
    }
}
