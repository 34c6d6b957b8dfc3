//! The three trace exporters: human-readable span tree, JSONL, and
//! Chrome trace-event format.
//!
//! Exporters are pure record-to-string transducers so golden tests can
//! drive them with a fixed record sequence and diff the output
//! byte-for-byte. The [`WriterSubscriber`](crate::WriterSubscriber)
//! couples one to an output stream.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::record::{Record, RecordKind};
use crate::value::{
    fields_json, fields_json_into, fields_text, json_string, json_string_into, Field, Value,
};

/// Which exporter the environment selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Indented, human-readable span tree.
    Text,
    /// One JSON object per line.
    Jsonl,
    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    Chrome,
}

impl Format {
    /// Parses an environment-variable value; `1`/`on` mean [`Format::Text`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Format> {
        match s.trim().to_ascii_lowercase().as_str() {
            "text" | "tree" | "1" | "on" | "true" => Some(Format::Text),
            "jsonl" | "json" | "ndjson" => Some(Format::Jsonl),
            "chrome" | "trace-event" | "chrometrace" => Some(Format::Chrome),
            _ => None,
        }
    }

    /// Builds the exporter for this format.
    #[must_use]
    pub fn exporter(self) -> Box<dyn Exporter + Send> {
        match self {
            Format::Text => Box::new(TextTreeExporter::new()),
            Format::Jsonl => Box::new(JsonlExporter::new()),
            Format::Chrome => Box::new(ChromeExporter::new()),
        }
    }
}

/// A record-to-text transducer. Rendering appends: an exporter writes
/// its text for a record to the end of the caller's buffer and never
/// touches what the buffer already holds, so a caller can render a
/// whole record stream into one `String`.
pub trait Exporter {
    /// Emitted once before the first record.
    fn begin(&mut self) -> String {
        String::new()
    }

    /// Appends one record's rendering to `out` (nothing for records the
    /// format skips).
    fn render_into(&mut self, rec: &Record, out: &mut String);

    /// Renders one record into a fresh `String`.
    fn render(&mut self, rec: &Record) -> String {
        let mut out = String::new();
        self.render_into(rec, &mut out);
        out
    }

    /// Emitted once after the last record.
    fn finish(&mut self) -> String {
        String::new()
    }
}

// Writing into a `String` cannot fail, so the exporters below discard
// the `fmt::Result` of each `write!`.

// ---------------------------------------------------------------------
// Text tree
// ---------------------------------------------------------------------

/// Indented span tree for terminals: `>` opens a span, `<` closes it,
/// `.` is an event, `=` a provenance record, `#` a metric snapshot,
/// `~` a timeline sample, `@` a profiler stack sample.
#[derive(Debug, Default)]
pub struct TextTreeExporter {
    depth: HashMap<u64, usize>,
}

impl TextTreeExporter {
    /// A fresh exporter.
    #[must_use]
    pub fn new() -> Self {
        TextTreeExporter::default()
    }

    /// Two spaces per open span on `thread`.
    fn indent(&self, thread: u64) -> usize {
        2 * self.depth.get(&thread).copied().unwrap_or(0)
    }
}

impl Exporter for TextTreeExporter {
    fn render_into(&mut self, rec: &Record, out: &mut String) {
        let t = rec.thread;
        let _ = write!(out, "[t{t} {:>8}us] ", rec.ts_micros);
        let _ = match &rec.kind {
            RecordKind::SpanEnter { name, fields, .. } => {
                let w = self.indent(t);
                *self.depth.entry(t).or_insert(0) += 1;
                writeln!(out, "{:w$}> {name}{}", "", fields_text(fields))
            }
            RecordKind::SpanExit { name, elapsed_nanos, .. } => {
                let d = self.depth.entry(t).or_insert(0);
                *d = d.saturating_sub(1);
                let w = self.indent(t);
                writeln!(out, "{:w$}< {name} ({})", "", fmt_nanos(*elapsed_nanos))
            }
            RecordKind::Event { name, fields, .. } => {
                writeln!(out, "{:w$}. {name}{}", "", fields_text(fields), w = self.indent(t))
            }
            RecordKind::Provenance { equation, function, inputs, outputs, .. } => writeln!(
                out,
                "{:w$}= {equation} {function}({}) -> ({})",
                "",
                fields_text(inputs).trim_start(),
                fields_text(outputs).trim_start(),
                w = self.indent(t)
            ),
            RecordKind::Metric { name, metric_kind, fields } => {
                writeln!(out, "# {metric_kind} {name}{}", fields_text(fields))
            }
            RecordKind::Sample { name, metric_kind, t_ns, value } => {
                writeln!(out, "~ {metric_kind} {name}={} @{t_ns}ns", Value::F64(*value))
            }
            // Stack samples render flat (semicolon-folded, as a
            // flamegraph line would), not at the thread's span indent:
            // they come from the sampler thread, whose view of the
            // sampled thread's depth is the frame list itself.
            RecordKind::StackSample { frames, depth, t_ns } => {
                writeln!(out, "@ {} (depth {depth}) @{t_ns}ns", frames.join(";"))
            }
        };
    }
}

/// Renders nanoseconds with an SI prefix suited to the magnitude.
fn fmt_nanos(nanos: u64) -> String {
    let secs = nanos as f64 / 1.0e9;
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1.0e-3 {
        format!("{:.3} ms", secs * 1.0e3)
    } else if secs >= 1.0e-6 {
        format!("{:.3} us", secs * 1.0e6)
    } else {
        format!("{nanos} ns")
    }
}

// ---------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------

/// One JSON object per record, one record per line. The stable schema
/// (`type` tag plus per-kind keys) is the machine-readable trail the CI
/// smoke gate and the provenance replay read.
#[derive(Debug, Default)]
pub struct JsonlExporter;

impl JsonlExporter {
    /// A fresh exporter.
    #[must_use]
    pub fn new() -> Self {
        JsonlExporter
    }
}

/// Appends `,"name":`.
fn key(out: &mut String, name: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
}

/// Appends `,"name":` followed by `s` as a JSON string.
fn key_str(out: &mut String, name: &str, s: &str) {
    key(out, name);
    json_string_into(s, out);
}

/// Appends `,"name":` followed by `v` or `null`.
fn key_opt_u64(out: &mut String, name: &str, v: Option<u64>) {
    key(out, name);
    match v {
        Some(x) => {
            let _ = write!(out, "{x}");
        }
        None => out.push_str("null"),
    }
}

/// Appends `,"name":` followed by the fields as a JSON object.
fn key_fields(out: &mut String, name: &str, fields: &[Field]) {
    key(out, name);
    fields_json_into(fields, out);
}

/// Appends a JSON array of strings.
fn json_strings_into(items: &[&str], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string_into(item, out);
    }
    out.push(']');
}

impl Exporter for JsonlExporter {
    fn render_into(&mut self, rec: &Record, out: &mut String) {
        // Schema 2: records emitted under a request scope carry a
        // `req_id` key in the envelope, and records from a labeled
        // fleet replica carry a `replica` key; both are omitted when
        // absent, so pre-existing captures remain valid under the same
        // checker.
        let _ = write!(out, "{{\"ts_us\":{},\"thread\":{}", rec.ts_micros, rec.thread);
        if let Some(id) = rec.req_id.as_deref() {
            key_str(out, "req_id", id);
        }
        if let Some(label) = rec.replica.as_deref() {
            key_str(out, "replica", label);
        }
        key_str(out, "type", rec.kind.tag());
        match &rec.kind {
            RecordKind::SpanEnter { span, parent, name, fields } => {
                let _ = write!(out, ",\"span\":{span}");
                key_opt_u64(out, "parent", *parent);
                key_str(out, "name", name);
                key_fields(out, "fields", fields);
            }
            RecordKind::SpanExit { span, name, elapsed_nanos } => {
                let _ = write!(out, ",\"span\":{span}");
                key_str(out, "name", name);
                let _ = write!(out, ",\"elapsed_ns\":{elapsed_nanos}");
            }
            RecordKind::Event { span, name, fields } => {
                key_opt_u64(out, "span", *span);
                key_str(out, "name", name);
                key_fields(out, "fields", fields);
            }
            RecordKind::Provenance { span, equation, function, inputs, outputs } => {
                key_opt_u64(out, "span", *span);
                key_str(out, "equation", equation.id());
                key_str(out, "function", function);
                key_fields(out, "inputs", inputs);
                key_fields(out, "outputs", outputs);
            }
            RecordKind::Metric { name, metric_kind, fields } => {
                key_str(out, "name", name);
                key_str(out, "metric_kind", metric_kind);
                key_fields(out, "fields", fields);
            }
            RecordKind::Sample { name, metric_kind, t_ns, value } => {
                key_str(out, "name", name);
                key_str(out, "metric_kind", metric_kind);
                let _ = write!(out, ",\"t_ns\":{t_ns},\"value\":");
                Value::F64(*value).render_json_into(out);
            }
            RecordKind::StackSample { frames, depth, t_ns } => {
                let _ = write!(out, ",\"depth\":{depth},\"t_ns\":{t_ns},\"frames\":");
                json_strings_into(frames, out);
            }
        }
        out.push_str("}\n");
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event
// ---------------------------------------------------------------------

/// Chrome trace-event JSON: a single array of event objects. Spans map
/// to `B`/`E` duration events, events and provenance to `i` instants,
/// metrics to `C` counter events. Load the file in `chrome://tracing`
/// or <https://ui.perfetto.dev>.
#[derive(Debug, Default)]
pub struct ChromeExporter {
    any: bool,
}

impl ChromeExporter {
    /// A fresh exporter.
    #[must_use]
    pub fn new() -> Self {
        ChromeExporter::default()
    }

    fn sep(&mut self) -> &'static str {
        if self.any {
            ",\n"
        } else {
            self.any = true;
            "\n"
        }
    }
}

/// Appends one chrome event object.
fn chrome_event(
    out: &mut String,
    ph: &str,
    name: &str,
    ts: u64,
    tid: u64,
    extra: &str,
    args: &str,
) {
    let _ = write!(
        out,
        "{{\"name\":{},\"ph\":{},\"ts\":{ts},\"pid\":1,\"tid\":{tid}{extra},\"args\":{args}}}",
        json_string(name),
        json_string(ph)
    );
}

impl Exporter for ChromeExporter {
    fn begin(&mut self) -> String {
        "[".to_string()
    }

    fn render_into(&mut self, rec: &Record, out: &mut String) {
        out.push_str(self.sep());
        let t = rec.thread;
        let ts = rec.ts_micros;
        match &rec.kind {
            RecordKind::SpanEnter { name, fields, .. } => {
                chrome_event(out, "B", name, ts, t, "", &fields_json(fields));
            }
            RecordKind::SpanExit { name, .. } => chrome_event(out, "E", name, ts, t, "", "{}"),
            RecordKind::Event { name, fields, .. } => {
                chrome_event(out, "i", name, ts, t, ",\"s\":\"t\"", &fields_json(fields));
            }
            RecordKind::Provenance { equation, function, inputs, outputs, .. } => {
                let args = format!(
                    "{{\"equation\":{},\"inputs\":{},\"outputs\":{}}}",
                    json_string(equation.id()),
                    fields_json(inputs),
                    fields_json(outputs)
                );
                chrome_event(out, "i", function, ts, t, ",\"s\":\"t\"", &args);
            }
            // Counter events plot numeric args as stacked series.
            RecordKind::Metric { name, fields, .. } => {
                chrome_event(out, "C", name, ts, t, "", &fields_json(fields));
            }
            // Timeline points become a counter track per metric, one
            // `C` event per sample, plotted at the sample's own
            // capture time (ns floored to the format's us resolution).
            RecordKind::Sample { name, t_ns, value, .. } => {
                let args = format!("{{\"value\":{}}}", Value::F64(*value).render_json());
                chrome_event(out, "C", name, t_ns / 1_000, t, "", &args);
            }
            // Stack samples become instants named after the leaf frame,
            // plotted on the sampled thread's own track at sample time,
            // with the full stack in args for inspection.
            RecordKind::StackSample { frames, depth, t_ns } => {
                let mut arr = String::new();
                json_strings_into(frames, &mut arr);
                let leaf = frames.last().copied().unwrap_or("(idle)");
                let args = format!("{{\"depth\":{depth},\"frames\":{arr}}}");
                chrome_event(out, "i", leaf, t_ns / 1_000, t, ",\"s\":\"t\"", &args);
            }
        }
    }

    fn finish(&mut self) -> String {
        "\n]\n".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Equation;
    use crate::value::{Field, Value};

    fn records() -> Vec<Record> {
        vec![
            Record::unscoped(
                10,
                1,
                RecordKind::SpanEnter {
                    span: 1,
                    parent: None,
                    name: "outer",
                    fields: vec![Field::new("volume", Value::U64(5_000))],
                },
            ),
            Record::unscoped(
                12,
                1,
                RecordKind::Provenance {
                    span: Some(1),
                    equation: Equation::Eq4,
                    function: "core::transistor_cost",
                    inputs: vec![Field::new("sd", Value::F64(300.0))],
                    outputs: vec![Field::new("c_tr", Value::F64(1.5e-6))],
                },
            ),
            Record::unscoped(
                15,
                1,
                RecordKind::SpanExit { span: 1, name: "outer", elapsed_nanos: 5_000 },
            ),
        ]
    }

    fn run(mut e: Box<dyn Exporter + Send>) -> String {
        let mut out = e.begin();
        for r in records() {
            out.push_str(&e.render(&r));
        }
        out.push_str(&e.finish());
        out
    }

    #[test]
    fn text_tree_indents_and_dedents() {
        let out = run(Box::new(TextTreeExporter::new()));
        assert!(out.contains("> outer volume=5000"));
        assert!(out.contains("  = Eq.4 core::transistor_cost(sd=300) -> (c_tr=0.0000015)"));
        assert!(out.contains("< outer (5.000 us)"));
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let out = run(Box::new(JsonlExporter::new()));
        assert_eq!(out.lines().count(), 3);
        for line in out.lines() {
            crate::json::validate(line).expect("line parses as JSON");
        }
        assert!(out.contains("\"equation\":\"Eq.4\""));
        assert!(!out.contains("req_id"), "unscoped records omit req_id");
    }

    #[test]
    fn jsonl_envelope_carries_req_id_when_scoped() {
        let mut rec = records().remove(0);
        rec.req_id = Some(std::sync::Arc::from("r17"));
        let mut e = JsonlExporter::new();
        let line = e.render(&rec);
        crate::json::validate(line.trim_end()).expect("line parses as JSON");
        assert!(line.starts_with("{\"ts_us\":10,\"thread\":1,\"req_id\":\"r17\",\"type\":\"span_enter\""));
    }

    #[test]
    fn jsonl_envelope_carries_replica_after_req_id_when_labeled() {
        let mut rec = records().remove(0);
        rec.req_id = Some(std::sync::Arc::from("r17"));
        rec.replica = Some(std::sync::Arc::from("a"));
        let mut e = JsonlExporter::new();
        let line = e.render(&rec);
        crate::json::validate(line.trim_end()).expect("line parses as JSON");
        assert!(
            line.starts_with(
                "{\"ts_us\":10,\"thread\":1,\"req_id\":\"r17\",\"replica\":\"a\",\"type\":\"span_enter\""
            ),
            "{line}"
        );
        // Replica labeling is process-wide, not per-request: an
        // unscoped record from a labeled replica still carries it.
        rec.req_id = None;
        let line = e.render(&rec);
        assert!(
            line.starts_with("{\"ts_us\":10,\"thread\":1,\"replica\":\"a\",\"type\":"),
            "{line}"
        );
    }

    #[test]
    fn chrome_output_is_one_valid_json_array() {
        let out = run(Box::new(ChromeExporter::new()));
        crate::json::validate(&out).expect("whole document parses");
        assert!(out.starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\""));
    }

    /// One record of every kind, scoped and labeled so the JSONL
    /// envelope renders its optional keys too.
    fn one_of_each_kind() -> Vec<Record> {
        let mut recs = records();
        recs.extend([
            Record::unscoped(
                16,
                2,
                RecordKind::Event {
                    span: None,
                    name: "evt",
                    fields: vec![Field::new("s", Value::Str("a\"b\n".into()))],
                },
            ),
            Record::unscoped(
                17,
                1,
                RecordKind::Metric {
                    name: "m",
                    metric_kind: "counter",
                    fields: vec![Field::new("value", Value::U64(3))],
                },
            ),
            Record::unscoped(
                18,
                1,
                RecordKind::Sample {
                    name: "m",
                    metric_kind: "gauge",
                    t_ns: 18_000,
                    value: f64::NAN,
                },
            ),
            Record::unscoped(
                19,
                3,
                RecordKind::StackSample { frames: vec!["outer", "inner"], depth: 2, t_ns: 19_000 },
            ),
        ]);
        for rec in &mut recs {
            rec.req_id = Some(std::sync::Arc::from("r1"));
            rec.replica = Some(std::sync::Arc::from("a"));
        }
        recs
    }

    #[test]
    fn render_into_appends_exactly_render_and_keeps_the_prefix() {
        let mut seen = [false; 7];
        for rec in one_of_each_kind() {
            // Adding a record kind fails to compile here until the
            // fixture above covers it.
            seen[match rec.kind {
                RecordKind::SpanEnter { .. } => 0,
                RecordKind::SpanExit { .. } => 1,
                RecordKind::Event { .. } => 2,
                RecordKind::Provenance { .. } => 3,
                RecordKind::Metric { .. } => 4,
                RecordKind::Sample { .. } => 5,
                RecordKind::StackSample { .. } => 6,
            }] = true;
        }
        assert!(seen.iter().all(|&s| s), "fixture covers every record kind");

        for format in [Format::Text, Format::Jsonl, Format::Chrome] {
            // Two exporters fed the same stream stay in the same state
            // (text indentation, chrome separators).
            let (mut fresh, mut appending) = (format.exporter(), format.exporter());
            let mut buf = String::from("prefix \u{e9}\n");
            for rec in one_of_each_kind() {
                let expected = fresh.render(&rec);
                let before = buf.clone();
                appending.render_into(&rec, &mut buf);
                assert!(!expected.is_empty(), "{format:?} renders {:?}", rec.kind.tag());
                assert_eq!(&buf[..before.len()], before, "{format:?} kept the prefix");
                assert_eq!(&buf[before.len()..], expected, "{format:?} appended render()");
            }
        }
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("jsonl"), Some(Format::Jsonl));
        assert_eq!(Format::parse("CHROME"), Some(Format::Chrome));
        assert_eq!(Format::parse("1"), Some(Format::Text));
        assert_eq!(Format::parse("bogus"), None);
    }
}
