//! Workload coverage reports for `resildb-lint`.
//!
//! A [`CoverageReport`] runs the classifier over every statement of a
//! workload, runs derivability inference over the parseable subset, and
//! renders the result as human-readable text or machine-readable JSON
//! (hand-rolled: the build is offline and carries no serde).

use std::collections::BTreeMap;

use resildb_sql::Statement;

use crate::classify::{Analyzer, SchemaSnapshot};
use crate::derive::{infer_derivable_columns, DerivableColumn};
use crate::verdict::Verdict;

/// One analyzed workload statement.
#[derive(Debug, Clone)]
pub struct StatementReport {
    /// Zero-based position in the workload.
    pub index: usize,
    /// The statement text as submitted.
    pub sql: String,
    /// The analyzer's verdict.
    pub verdict: Verdict,
}

/// The result of linting one workload corpus.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Per-statement verdicts, in workload order.
    pub statements: Vec<StatementReport>,
    /// Columns inferred derivable (false-dependency candidates).
    pub derivable: Vec<DerivableColumn>,
}

impl CoverageReport {
    /// Classifies every statement in `corpus` and runs derivability
    /// inference over the parseable subset. When the analyzer carries no
    /// schema snapshot, one is reconstructed from the corpus's own
    /// `CREATE TABLE` statements so wildcards expand precisely.
    pub fn analyze<S: AsRef<str>>(analyzer: &Analyzer, corpus: &[S]) -> Self {
        let mut statements = Vec::with_capacity(corpus.len());
        let mut parsed: Vec<Statement> = Vec::new();
        for (index, sql) in corpus.iter().enumerate() {
            let sql = sql.as_ref();
            statements.push(StatementReport {
                index,
                sql: sql.to_string(),
                verdict: analyzer.classify_sql(sql),
            });
            if let Ok(stmt) = resildb_sql::parse_statement(sql) {
                parsed.push(stmt);
            }
        }
        let schema = SchemaSnapshot::from_statements(&parsed);
        let derivable = infer_derivable_columns(&parsed, (!schema.is_empty()).then_some(&schema));
        CoverageReport {
            statements,
            derivable,
        }
    }

    /// Total statement count.
    pub fn total(&self) -> usize {
        self.statements.len()
    }

    /// Count of sound statements.
    pub(crate) fn sound_count(&self) -> usize {
        self.statements
            .iter()
            .filter(|s| s.verdict.is_sound())
            .count()
    }

    /// Count of degraded (tracked, imprecise) statements.
    pub(crate) fn degraded_count(&self) -> usize {
        self.statements
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Degraded(_)))
            .count()
    }

    /// Count of untracked statements.
    pub(crate) fn untracked_count(&self) -> usize {
        self.statements
            .iter()
            .filter(|s| s.verdict.is_untracked())
            .count()
    }

    /// Fraction of the workload that is soundly tracked, in `[0, 1]`.
    /// An empty workload counts as fully covered.
    pub fn sound_coverage(&self) -> f64 {
        if self.statements.is_empty() {
            return 1.0;
        }
        self.sound_count() as f64 / self.statements.len() as f64
    }

    /// Reason-code histogram over all non-sound statements.
    pub(crate) fn reason_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut hist = BTreeMap::new();
        for s in &self.statements {
            for r in s.verdict.reasons() {
                *hist.entry(r.code()).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Renders the human-readable report. With `verbose`, every non-sound
    /// statement is listed with its reasons; otherwise only the summary,
    /// histogram and derivable columns appear.
    pub fn render_text(&self, verbose: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "statements: {} total, {} sound, {} degraded, {} untracked",
            self.total(),
            self.sound_count(),
            self.degraded_count(),
            self.untracked_count()
        );
        let _ = writeln!(out, "sound coverage: {:.1}%", self.sound_coverage() * 100.0);
        let hist = self.reason_histogram();
        if !hist.is_empty() {
            let _ = writeln!(out, "reasons:");
            for (code, n) in &hist {
                let _ = writeln!(out, "  {code:<20} {n}");
            }
        }
        if verbose {
            for s in &self.statements {
                if !s.verdict.is_sound() {
                    let _ = writeln!(out, "[{}] {}", s.index, s.verdict);
                    for r in s.verdict.reasons() {
                        let _ = writeln!(out, "      {}: {}", r.code(), r.message());
                    }
                    let _ = writeln!(out, "      {}", truncate(&s.sql, 120));
                }
            }
        }
        if self.derivable.is_empty() {
            let _ = writeln!(out, "derivable columns: none inferred");
        } else {
            let _ = writeln!(out, "derivable columns (false-dependency candidates):");
            for d in &self.derivable {
                let _ = writeln!(out, "  {d}");
            }
        }
        out
    }

    /// Renders the report as a JSON object with `summary`, `statements`
    /// and `derivable_columns` keys.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"summary\": {");
        out.push_str(&format!(
            "\"total\": {}, \"sound\": {}, \"degraded\": {}, \"untracked\": {}, \
             \"sound_coverage\": {:.4}}},\n",
            self.total(),
            self.sound_count(),
            self.degraded_count(),
            self.untracked_count(),
            self.sound_coverage()
        ));
        out.push_str("  \"statements\": [\n");
        for (i, s) in self.statements.iter().enumerate() {
            let codes: Vec<String> = s
                .verdict
                .reasons()
                .iter()
                .map(|r| format!("\"{}\"", r.code()))
                .collect();
            out.push_str(&format!(
                "    {{\"index\": {}, \"verdict\": \"{}\", \"reasons\": [{}], \"sql\": \"{}\"}}{}\n",
                s.index,
                s.verdict.label(),
                codes.join(", "),
                escape_json(&s.sql),
                if i + 1 < self.statements.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"derivable_columns\": [");
        let derivable: Vec<String> = self
            .derivable
            .iter()
            .map(|d| {
                format!(
                    "{{\"table\": \"{}\", \"column\": \"{}\"}}",
                    escape_json(&d.table),
                    escape_json(&d.column)
                )
            })
            .collect();
        out.push_str(&derivable.join(", "));
        out.push_str("]\n}\n");
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
// A copy of `resildb_telemetry::json::JsonWriter`'s escaping: this crate
// cannot depend on telemetry until `benchmark/Cargo.lock` is refreshed.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::Granularity;

    fn report(corpus: &[&str]) -> CoverageReport {
        CoverageReport::analyze(&Analyzer::new(Granularity::Row), corpus)
    }

    #[test]
    fn counts_and_coverage() {
        let r = report(&[
            "SELECT a FROM t WHERE b = 1",
            "SELECT SUM(a) FROM t",
            "SELECT * FROM t",
            "UPDATE t SET a = 1",
        ]);
        assert_eq!(r.total(), 4);
        assert_eq!(r.sound_count(), 2);
        assert_eq!(r.degraded_count(), 1);
        assert_eq!(r.untracked_count(), 1);
        assert!((r.sound_coverage() - 0.5).abs() < 1e-9);
        let hist = r.reason_histogram();
        assert_eq!(hist.get("U-AGG"), Some(&1));
        assert_eq!(hist.get("D-WILDCARD"), Some(&1));
    }

    #[test]
    fn empty_workload_is_fully_covered() {
        let r = report(&[]);
        assert!((r.sound_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn corpus_schema_enables_wildcard_expansion() {
        // Without the CREATE TABLE, `SELECT * FROM t` would mark t fully
        // read and kill the candidate; with it, the wildcard expands to
        // {b} and t.a stays derivable.
        let r = report(&[
            "CREATE TABLE t (b INTEGER)",
            "UPDATE t SET a = a + 1",
            "SELECT * FROM t",
        ]);
        assert_eq!(r.derivable.len(), 1);
        assert_eq!(r.derivable[0].to_string(), "t.a");
    }

    #[test]
    fn text_render_mentions_the_essentials() {
        let r = report(&["SELECT SUM(a) FROM t", "UPDATE t SET b = b + 1"]);
        let text = r.render_text(true);
        assert!(text.contains("sound coverage: 50.0%"), "{text}");
        assert!(text.contains("U-AGG"), "{text}");
        assert!(text.contains("t.b"), "{text}");
    }

    #[test]
    fn json_render_is_well_formed_enough() {
        let r = report(&["SELECT \"x\" FROM t", "SELECT SUM(a) FROM t"]);
        let json = r.render_json();
        assert!(json.contains("\"sound_coverage\": 0.5000"), "{json}");
        assert!(json.contains("\\\"x\\\""), "{json}");
        assert!(json.contains("\"reasons\": [\"U-AGG\"]"), "{json}");
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
