//! Typed key-value fields carried by spans, events, and provenance
//! records.

use std::fmt::{self, Write as _};

/// A field value. The closed set keeps exporters total: every variant
/// has a defined text and JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

impl Value {
    /// JSON rendering. Non-finite floats become `null` so every exporter
    /// line stays parseable JSON.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.render_json_into(&mut out);
        out
    }

    /// Appends the [`Value::render_json`] rendering to `out`.
    pub fn render_json_into(&self, out: &mut String) {
        match self {
            Value::F64(v) if !v.is_finite() => out.push_str("null"),
            Value::Str(s) => json_string_into(s, out),
            // The remaining `Display` renderings are JSON already:
            // `f64`'s never emits exponent syntax and round-trips the
            // value exactly, which keeps JSON valid and diffs stable.
            // Writing into a `String` cannot fail.
            scalar => {
                let _ = write!(out, "{scalar}");
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One named field on a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (macro-side identifier).
    pub name: &'static str,
    /// Field value.
    pub value: Value,
}

impl Field {
    /// Builds a field.
    #[must_use]
    pub fn new(name: &'static str, value: Value) -> Self {
        Field { name, value }
    }
}

/// Renders a field list as a JSON object (`{"a":1,"b":"x"}`).
#[must_use]
pub fn fields_json(fields: &[Field]) -> String {
    let mut out = String::new();
    fields_json_into(fields, &mut out);
    out
}

/// Appends the [`fields_json`] rendering to `out`.
pub fn fields_json_into(fields: &[Field], out: &mut String) {
    out.push('{');
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string_into(f.name, out);
        out.push(':');
        f.value.render_json_into(out);
    }
    out.push('}');
}

/// Renders a field list as ` k=v k=v` (leading space when non-empty).
#[must_use]
pub fn fields_text(fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        out.push(' ');
        out.push_str(f.name);
        out.push('=');
        out.push_str(&f.value.to_string());
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    json_string_into(s, &mut out);
    out
}

/// Appends the [`json_string`] rendering to `out`. Runs of characters
/// that need no escaping are copied as one slice.
pub fn json_string_into(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    // Every byte that needs escaping is ASCII, so each split point is a
    // char boundary.
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_cover_the_common_scalars() {
        assert_eq!(Value::from(3i64), Value::I64(3));
        assert_eq!(Value::from(3u64), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn json_rendering_is_valid_json_fragments() {
        assert_eq!(Value::F64(0.25).render_json(), "0.25");
        assert_eq!(Value::F64(f64::NAN).render_json(), "null");
        assert_eq!(Value::Str("a\"b".into()).render_json(), "\"a\\\"b\"");
    }

    #[test]
    fn fields_render_as_object_and_text() {
        let fs = vec![
            Field::new("sd", Value::F64(300.0)),
            Field::new("node", Value::Str("0.18um".into())),
        ];
        assert_eq!(fields_json(&fs), "{\"sd\":300,\"node\":\"0.18um\"}");
        assert_eq!(fields_text(&fs), " sd=300 node=0.18um");
        assert_eq!(fields_json(&[]), "{}");
    }
}
