//! The machine-readable replay benchmark report (`BENCH_replay.json`)
//! and the CI regression gate that consumes it.
//!
//! The workspace deliberately carries no serde dependency, so this module
//! hand-rolls the minimal JSON subset the report needs: objects, arrays,
//! strings (no escapes beyond `\"`, `\\`, `\n`, `\t`), numbers, booleans
//! and null. [`ReplayReport`] is the typed view; [`compare_reports`] is
//! the ±tolerance events/sec gate CI runs against the committed baseline.

use std::fmt::Write as _;

/// A parsed JSON value (minimal subset, numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out.push('\n');
        out
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                entries.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'/') => s.push('/'),
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) => {
                        // Multi-byte UTF-8 passes through unchanged.
                        let start = *pos;
                        let mut end = *pos + 1;
                        while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        if b < 0x80 {
                            end = *pos + 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&bytes[start..end])
                                .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
                        );
                        *pos = end;
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number run");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
        }
    }
}

fn write_value(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) => {
            // Integers serialize without a fractional part.
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                let _ = write!(out, "{pad}  ");
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}]");
        }
        Json::Obj(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                let _ = write!(out, "{pad}  \"{k}\": ");
                write_value(v, indent + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}}}");
        }
    }
}

/// One timed replay configuration inside a [`ReplayReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// `"sharded"`; reports written before the replay engine was one
    /// engine also carry a `"sequential"` run.
    pub mode: String,
    /// Replay workers used.
    pub threads: usize,
    /// Wall-clock seconds for the full replay.
    pub wall_secs: f64,
    /// Block accesses replayed per second (the gated figure).
    pub events_per_sec: f64,
    /// Busiest shard's block share over the mean share (1.0 = balanced).
    pub imbalance: f64,
}

/// The full `BENCH_replay.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Trace scale denominator the benchmark ran at.
    pub scale: u32,
    /// Trace seed.
    pub seed: u64,
    /// Total block accesses replayed per configuration.
    pub events: u64,
    /// One entry per timed configuration.
    pub runs: Vec<RunReport>,
    /// Day-boundary snapshot export (`sievestore-day-snapshot/v1` JSON
    /// Lines, embedded verbatim). Deterministic for the benchmark's
    /// discrete policy: byte-identical at any shard count. Absent in
    /// pre-observability reports.
    pub day_snapshots_jsonl: Option<String>,
    /// Observability-registry totals (one
    /// `sievestore_types::obs::MetricsSnapshot` JSON line) when the
    /// benchmark ran with runtime metrics enabled. Wall-clock figures in
    /// here are diagnostics, never gated and never deterministic.
    pub obs_metrics: Option<String>,
    /// Peak resident set size of the benchmark process in bytes (Linux
    /// `VmHWM`; 0 where unavailable). Informational for the throughput
    /// gate; the full-scale CI job enforces a hard ceiling on it via
    /// `--max-rss-mb`. Absent in pre-streaming reports.
    pub peak_rss_bytes: Option<u64>,
}

/// Schema tag written into every report.
pub const REPLAY_SCHEMA: &str = "sievestore-replay-bench/v1";

impl ReplayReport {
    /// Serializes to the committed JSON format.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            ("schema".into(), Json::Str(REPLAY_SCHEMA.into())),
            ("scale".into(), Json::Num(self.scale as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("events".into(), Json::Num(self.events as f64)),
            (
                "runs".into(),
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("mode".into(), Json::Str(r.mode.clone())),
                                ("threads".into(), Json::Num(r.threads as f64)),
                                ("wall_secs".into(), Json::Num(r.wall_secs)),
                                ("events_per_sec".into(), Json::Num(r.events_per_sec)),
                                ("imbalance".into(), Json::Num(r.imbalance)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(jsonl) = &self.day_snapshots_jsonl {
            entries.push(("day_snapshots_jsonl".into(), Json::Str(jsonl.clone())));
        }
        if let Some(metrics) = &self.obs_metrics {
            entries.push(("obs_metrics".into(), Json::Str(metrics.clone())));
        }
        if let Some(rss) = self.peak_rss_bytes {
            entries.push(("peak_rss_bytes".into(), Json::Num(rss as f64)));
        }
        Json::Obj(entries).to_pretty()
    }

    /// Parses a report document.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong schema tag, or
    /// missing fields.
    pub fn from_json(text: &str) -> Result<ReplayReport, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != REPLAY_SCHEMA {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let runs = doc
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("missing runs array")?
            .iter()
            .map(|r| {
                let f = |key: &str| {
                    r.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("run missing numeric field '{key}'"))
                };
                Ok(RunReport {
                    mode: r
                        .get("mode")
                        .and_then(Json::as_str)
                        .ok_or("run missing mode")?
                        .to_string(),
                    threads: f("threads")? as usize,
                    wall_secs: f("wall_secs")?,
                    events_per_sec: f("events_per_sec")?,
                    imbalance: f("imbalance")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ReplayReport {
            scale: num("scale")? as u32,
            seed: num("seed")? as u64,
            events: num("events")? as u64,
            runs,
            // Both observability sections are optional so pre-obs
            // baselines (and obs-less runs) still parse.
            day_snapshots_jsonl: doc
                .get("day_snapshots_jsonl")
                .and_then(Json::as_str)
                .map(str::to_string),
            obs_metrics: doc
                .get("obs_metrics")
                .and_then(Json::as_str)
                .map(str::to_string),
            peak_rss_bytes: doc
                .get("peak_rss_bytes")
                .and_then(Json::as_f64)
                .map(|n| n as u64),
        })
    }

    /// The run entry for a thread count, if present.
    pub fn run_with_threads(&self, threads: usize) -> Option<&RunReport> {
        self.runs.iter().find(|r| r.threads == threads)
    }

    /// The run entry for a `(mode, threads)` configuration, if present.
    ///
    /// The pair is the configuration key: a streaming benchmark can time
    /// both a sequential and a sharded run at the same thread count, so
    /// matching on threads alone would compare across modes.
    pub fn run_with(&self, mode: &str, threads: usize) -> Option<&RunReport> {
        self.runs
            .iter()
            .find(|r| r.mode == mode && r.threads == threads)
    }
}

/// Gates `current` against `baseline`: every baseline run configuration
/// must be present and its events/sec must not regress by more than
/// `tolerance` (e.g. `0.2` = −20 %). On the baseline's workload (same
/// scale and seed) the simulated figures must also be the baseline's
/// exactly: the same `events` count and, when the baseline carries one,
/// the same day-snapshot bytes. Returns the per-run comparison lines on
/// success and the failures on error. Faster-than-baseline runs pass (the
/// fresh artifact is there to re-baseline from).
///
/// # Errors
///
/// One message per regressed or missing configuration.
pub fn compare_reports(
    current: &ReplayReport,
    baseline: &ReplayReport,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    if current.scale != baseline.scale || current.seed != baseline.seed {
        failures.push(format!(
            "workload mismatch: current scale/seed {}/{:#x} vs baseline {}/{:#x}",
            current.scale, current.seed, baseline.scale, baseline.seed
        ));
    } else {
        failures.extend(figure_changes(current, baseline));
    }
    for base in &baseline.runs {
        let Some(run) = current.run_with(&base.mode, base.threads) else {
            failures.push(format!(
                "missing run for {} ({} threads)",
                base.mode, base.threads
            ));
            continue;
        };
        let floor = base.events_per_sec * (1.0 - tolerance);
        let ratio = run.events_per_sec / base.events_per_sec;
        let line = format!(
            "{} ({} threads): {:.0} events/s vs baseline {:.0} ({:+.1} %)",
            run.mode,
            run.threads,
            run.events_per_sec,
            base.events_per_sec,
            (ratio - 1.0) * 100.0
        );
        if run.events_per_sec < floor {
            failures.push(format!("REGRESSION {line} — floor {floor:.0}"));
        } else {
            lines.push(line);
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures)
    }
}

/// How `current`'s simulated figures differ from `baseline`'s on the
/// same workload: a different event count, or day-snapshot bytes that
/// differ from the baseline's (named by their first differing line).
fn figure_changes(current: &ReplayReport, baseline: &ReplayReport) -> Vec<String> {
    let mut changes = Vec::new();
    if current.events != baseline.events {
        changes.push(format!(
            "FIGURES changed: {} events vs baseline {}",
            current.events, baseline.events
        ));
    }
    let Some(want) = &baseline.day_snapshots_jsonl else {
        return changes;
    };
    let got = current.day_snapshots_jsonl.as_deref().unwrap_or("");
    if got != want {
        let (got_lines, want_lines) = (got.lines().count(), want.lines().count());
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got_lines.min(want_lines));
        changes.push(format!(
            "FIGURES changed: day snapshots differ from the baseline's at line {} \
             ({got_lines} lines vs {want_lines})",
            line + 1
        ));
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ReplayReport {
        ReplayReport {
            scale: 8192,
            seed: 0x51EE_5704,
            events: 1_000_000,
            runs: vec![
                RunReport {
                    mode: "sequential".into(),
                    threads: 1,
                    wall_secs: 2.0,
                    events_per_sec: 500_000.0,
                    imbalance: 1.0,
                },
                RunReport {
                    mode: "sharded".into(),
                    threads: 4,
                    wall_secs: 0.8,
                    events_per_sec: 1_250_000.0,
                    imbalance: 1.07,
                },
            ],
            day_snapshots_jsonl: Some(
                "{\"schema\":\"sievestore-day-snapshot/v1\",\"policy\":\"sievestore-d\",\"capacity_blocks\":64,\"days\":1}\n{\"day\":0,\"read_hits\":3,\"write_hits\":1,\"read_misses\":2,\"write_misses\":0,\"allocation_writes\":1,\"batch_allocations\":1,\"cum_read_hits\":3,\"cum_write_hits\":1,\"cum_read_misses\":2,\"cum_write_misses\":0,\"cum_allocation_writes\":1,\"cum_batch_allocations\":1}\n"
                    .into(),
            ),
            obs_metrics: Some("{\"counters\":{\"replay_batches_sent\":6}}".into()),
            peak_rss_bytes: Some(384 << 20),
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report();
        let text = r.to_json();
        assert!(text.contains(REPLAY_SCHEMA));
        let back = ReplayReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let doc =
            Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"s": "x\n\"y\""}, "c": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("s").unwrap().as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"k": tru}"#).is_err());
    }

    #[test]
    fn parser_accepts_own_pretty_output_and_unicode() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("café ✓".into())),
            ("ok".into(), Json::Bool(true)),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let back = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn baselines_with_a_micro_array_still_parse() {
        // Reports written while the bench also timed single structures
        // carry a "micro" array of {name, ns_per_op}; the parser ignores
        // it, so a refreshed binary can gate against such a baseline.
        let mut doc = Json::parse(&report().to_json()).unwrap();
        if let Json::Obj(entries) = &mut doc {
            entries.insert(
                5,
                (
                    "micro".into(),
                    Json::Arr(vec![Json::Obj(vec![
                        ("name".into(), Json::Str("lru_touch".into())),
                        ("ns_per_op".into(), Json::Num(14.2)),
                    ])]),
                ),
            );
        }
        let text = doc.to_pretty();
        assert!(text.contains("\"micro\""));
        let back = ReplayReport::from_json(&text).unwrap();
        assert_eq!(back, report());
        assert!(compare_reports(&report(), &back, 0.2).is_ok());
    }

    #[test]
    fn pre_obs_baselines_still_parse() {
        // Reports written before the observability sections existed have
        // neither "day_snapshots_jsonl" nor "obs_metrics"; they must keep
        // parsing (as None) and gating just like before.
        let mut doc = Json::parse(&report().to_json()).unwrap();
        if let Json::Obj(entries) = &mut doc {
            entries.retain(|(k, _)| k != "day_snapshots_jsonl" && k != "obs_metrics");
        }
        let back = ReplayReport::from_json(&doc.to_pretty()).unwrap();
        assert!(back.day_snapshots_jsonl.is_none());
        assert!(back.obs_metrics.is_none());
        assert_eq!(back.runs, report().runs);
        // Such a baseline gates events/s and the event count, as before.
        assert!(compare_reports(&report(), &back, 0.2).is_ok());
    }

    #[test]
    fn pre_streaming_baselines_still_parse() {
        // Reports written before the streaming pipeline have no
        // "peak_rss_bytes"; they must keep parsing (as None) and the RSS
        // figure must never gate the throughput comparison.
        let mut doc = Json::parse(&report().to_json()).unwrap();
        if let Json::Obj(entries) = &mut doc {
            entries.retain(|(k, _)| k != "peak_rss_bytes");
        }
        let back = ReplayReport::from_json(&doc.to_pretty()).unwrap();
        assert!(back.peak_rss_bytes.is_none());
        assert_eq!(back.runs, report().runs);
        assert!(compare_reports(&back, &report(), 0.2).is_ok());
    }

    #[test]
    fn runs_are_matched_by_mode_and_threads() {
        // A streaming report can carry a sequential run and a sharded run
        // at the same thread count; the baseline lookup must key on both.
        let mut base = report();
        base.runs.push(RunReport {
            mode: "sharded".into(),
            threads: 1,
            wall_secs: 2.2,
            events_per_sec: 450_000.0,
            imbalance: 1.0,
        });
        assert_eq!(
            base.run_with("sharded", 1).unwrap().events_per_sec,
            450_000.0
        );
        assert_eq!(
            base.run_with("sequential", 1).unwrap().events_per_sec,
            500_000.0
        );
        // A current report missing the same-thread-count sharded run must
        // fail the gate even though a 1-thread run exists.
        let current = report();
        let failures = compare_reports(&current, &base, 0.2).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("sharded (1 threads)"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = report().to_json().replace(REPLAY_SCHEMA, "other/v9");
        assert!(ReplayReport::from_json(&text).is_err());
    }

    #[test]
    fn comparison_passes_within_tolerance_and_on_speedups() {
        let base = report();
        let mut current = report();
        current.runs[0].events_per_sec = 450_000.0; // −10 %
        current.runs[1].events_per_sec = 2_000_000.0; // +60 %
        let lines = compare_reports(&current, &base, 0.2).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("-10.0 %"));
    }

    #[test]
    fn comparison_fails_on_regression_and_missing_runs() {
        let base = report();
        let mut slow = report();
        slow.runs[1].events_per_sec = 900_000.0; // −28 %
        let failures = compare_reports(&slow, &base, 0.2).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("REGRESSION"));

        let mut missing = report();
        missing.runs.pop();
        assert!(compare_reports(&missing, &base, 0.2).is_err());

        let mut mismatched = report();
        mismatched.scale = 4096;
        assert!(compare_reports(&mismatched, &base, 0.2).is_err());
    }

    #[test]
    fn comparison_fails_when_the_figures_change() {
        let base = report();
        // One byte of one day's snapshot: day 0's read hits 3 -> 4.
        let mut moved = report();
        let snapshots = moved.day_snapshots_jsonl.take().unwrap();
        moved.day_snapshots_jsonl =
            Some(snapshots.replacen("\"read_hits\":3", "\"read_hits\":4", 1));
        assert_ne!(moved.day_snapshots_jsonl, base.day_snapshots_jsonl);
        let failures = compare_reports(&moved, &base, 0.2).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("day snapshots differ"), "{failures:?}");
        assert!(failures[0].contains("line 2"), "{failures:?}");

        let mut recounted = report();
        recounted.events += 1;
        let failures = compare_reports(&recounted, &base, 0.2).unwrap_err();
        assert!(failures[0].contains("events"), "{failures:?}");

        let mut dropped = report();
        dropped.day_snapshots_jsonl = None;
        assert!(compare_reports(&dropped, &base, 0.2).is_err());

        // A baseline without snapshots gates the event count only.
        let mut old_base = report();
        old_base.day_snapshots_jsonl = None;
        assert!(compare_reports(&report(), &old_base, 0.2).is_ok());
    }
}
