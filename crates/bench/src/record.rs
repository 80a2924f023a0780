//! One record for every experiment arm that writes one, and one gate
//! shape for every arm that checks one.
//!
//! A record is one JSON object, `BENCH_<name>.json` in the working
//! directory:
//!
//! ```text
//! {"arm":"<subcommand>", <field>..., "rows":[{<field>...}, ...]}
//! ```
//!
//! The top-level fields are the arm's summary: the numbers its gate
//! prints and its ratchet compares with the committed record. Each row
//! is one app, app × variant, or run. A field is a count, a ratio, a
//! flag, a name, or a nested object in its own `to_json` form
//! (`BuildStats`, `ServerStats`).
//!
//! A gate is a list of `(passed, failure)` checks; [`gate`] keeps the
//! failures. A ratchet is the one timed check: the fresh number, padded
//! by [`NOISE`], against the committed record's ([`ratchet`]).

use std::fmt;
use std::time::Duration;

use calibro::BuildStats;
use calibro_server::ServerStats;

/// One field's value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A count, a size, or a wall in µs.
    Int(u64),
    /// A ratio, written with six decimals (`null` when not finite).
    Float(f64),
    /// A flag.
    Bool(bool),
    /// A name: an app, a variant, an arm.
    Str(String),
    /// A nested object, already JSON.
    Json(String),
}

macro_rules! value_from {
    ($($ty:ty => |$v:ident| $value:expr;)*) => {
        $(impl From<$ty> for Value {
            fn from($v: $ty) -> Value {
                $value
            }
        })*
    };
}

value_from! {
    u64 => |v| Value::Int(v);
    usize => |v| Value::Int(v as u64);
    f64 => |v| Value::Float(v);
    bool => |v| Value::Bool(v);
    &str => |v| Value::Str(v.to_owned());
    String => |v| Value::Str(v);
    ServerStats => |v| Value::Json(v.to_json());
    BuildStats => |v| Value::Json(v.to_json());
}

/// The value as it reads in a record, a name unquoted.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) if v.is_finite() => write!(f, "{v:.6}"),
            Value::Float(_) => f.write_str("null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) | Value::Json(v) => f.write_str(v),
        }
    }
}

/// `d` in whole µs, saturating.
#[must_use]
pub fn micros(d: Duration) -> u64 {
    d.as_micros().try_into().unwrap_or(u64::MAX)
}

/// Declares an arm's report: the struct, each field documented, and
/// `fields()`, every field under its own name in declaration order — a
/// field added to the report is in its record.
macro_rules! report {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)* }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default)]
        pub struct $name { $($(#[$doc])* pub $field: $ty,)* }

        impl $name {
            /// Every field under its own name, in declaration order.
            #[must_use]
            pub fn fields(&self) -> $crate::record::Fields {
                vec![$((stringify!($field), self.$field.clone().into()),)*]
            }
        }
    };
}
pub(crate) use report;

/// Named values, in the order they are written.
pub type Fields = Vec<(&'static str, Value)>;

/// One experiment arm's record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The subcommand that wrote it.
    pub arm: &'static str,
    /// The summary: what the gate prints and the ratchet reads.
    pub fields: Fields,
    /// One entry per app, app × variant, or run, each with the same
    /// fields.
    pub rows: Vec<Fields>,
}

impl Record {
    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let object = |fields: &Fields| -> Vec<String> {
            let json = |value: &Value| match value {
                Value::Str(v) => format!(r#""{}""#, v.replace('\\', r"\\").replace('"', r#"\""#)),
                other => other.to_string(),
            };
            fields.iter().map(|(name, value)| format!(r#""{name}":{}"#, json(value))).collect()
        };
        let rows: Vec<String> =
            self.rows.iter().map(|row| format!("{{{}}}", object(row).join(","))).collect();
        let mut fields = vec![format!(r#""arm":"{}""#, self.arm)];
        fields.extend(object(&self.fields));
        fields.push(format!(r#""rows":[{}]"#, rows.join(",")));
        format!("{{{}}}", fields.join(","))
    }

    /// The record as text: the summary one `name value` line each, then
    /// the rows as a table under their field names, nested objects left
    /// out.
    #[must_use]
    pub fn table(&self) -> String {
        let mut text: String =
            self.fields.iter().map(|(name, value)| format!("{name} {value}\n")).collect();
        let flat = |row: &Fields| -> Vec<(&'static str, String)> {
            let row = row.iter().filter(|(_, value)| !matches!(value, Value::Json(_)));
            row.map(|(name, value)| (*name, value.to_string())).collect()
        };
        let Some(first) = self.rows.first() else { return text };
        let mut lines = vec![flat(first).into_iter().map(|(name, _)| name.to_owned()).collect()];
        lines.extend(self.rows.iter().map(|row| flat(row).into_iter().map(|(_, v)| v).collect()));
        let width = |c| lines.iter().map(|l: &Vec<String>| l.get(c).map_or(0, String::len)).max();
        let widths: Vec<usize> = (0..lines[0].len()).map(|c| width(c).unwrap_or(0)).collect();
        for line in &lines {
            let cells: Vec<String> =
                line.iter().zip(&widths).map(|(cell, &w)| format!("{cell:>w$}")).collect();
            text.push_str(&cells.join("  "));
            text.push('\n');
        }
        text
    }
}

/// The number a record holds at `key` in its top-level object, or
/// `None` when it has none there. Nested objects and arrays are
/// skipped, so a key inside a row or a stats object never matches.
#[must_use]
pub fn top_level_number(json: &str, key: &str) -> Option<f64> {
    let bytes = json.as_bytes();
    let (mut depth, mut i) = (0usize, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while bytes.get(i)? != &b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                let rest = json[i + 1..].trim_start();
                if depth == 1 && &json[start..i] == key && rest.starts_with(':') {
                    let value = rest[1..].trim_start();
                    let end = value
                        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                        .unwrap_or(value.len());
                    return value[..end].parse().ok();
                }
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            _ => {}
        }
        i += 1;
    }
    None
}

/// The factor a ratchet pads the fresh number by. Shared runners move
/// a few-millisecond wall by more than a quarter between runs; a real
/// regression (a warm phase back on the critical path) moves it more.
pub const NOISE: f64 = 0.75;

/// The timed check: `fresh` µs × [`NOISE`] may not exceed the
/// committed number. `None`, and so no check, without a committed one.
#[must_use]
pub fn ratchet(what: &str, fresh: u64, committed: Option<f64>) -> Option<(bool, String)> {
    #[allow(clippy::cast_precision_loss)]
    committed.map(|committed| {
        (
            fresh as f64 * NOISE <= committed,
            format!("{what}: {fresh}us, over the committed {committed}us / {NOISE}"),
        )
    })
}

/// Keeps the failure of every check that did not pass.
///
/// # Errors
///
/// One line per failed check, in check order.
pub fn gate(checks: impl IntoIterator<Item = (bool, String)>) -> Result<(), Vec<String>> {
    let failures: Vec<String> =
        checks.into_iter().filter(|(passed, _)| !passed).map(|(_, failure)| failure).collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// The nearest-rank `p`-quantile of `samples` (the median at `0.5`:
/// the middle sample of an odd count), or the default when empty.
#[must_use]
pub fn quantile<T: Copy + Default + PartialOrd>(samples: &[T], p: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((sorted.len() as f64) * p).ceil().max(1.0) as usize;
    sorted.get(rank.min(sorted.len()).wrapping_sub(1)).copied().unwrap_or_default()
}

/// One way to break a passing report, and the text its single failure
/// line must carry.
#[cfg(test)]
pub(crate) type Break<R> = (fn(&mut R), &'static str);

/// Asserts that `passing` passes `gate` and that each break alone fails
/// it with exactly one line naming the broken check.
#[cfg(test)]
pub(crate) fn assert_each_break_fails_alone<R: Clone>(
    passing: &R,
    gate: impl Fn(&R) -> Result<(), Vec<String>>,
    breaks: &[Break<R>],
) {
    assert_eq!(gate(passing), Ok(()));
    for (break_one, names) in breaks {
        let mut broken = passing.clone();
        break_one(&mut broken);
        let failures = gate(&broken).expect_err(names);
        assert!(failures.len() == 1 && failures[0].contains(names), "{names}: {failures:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            arm: "sample",
            fields: vec![("warm_us", 13_478u64.into()), ("ratio", 0.5.into())],
            rows: vec![
                vec![("app", "a\"b".into()), ("warm_us", 7u64.into())],
                vec![("stats", Value::Json(r#"{"warm_us":9,"list":[1,2]}"#.to_owned()))],
            ],
        }
    }

    #[test]
    fn the_writer_writes_one_shape_and_the_reader_reads_its_summary_back() {
        let json = sample().to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"arm":"sample","warm_us":13478,"ratio":0.500000,"rows":["#,
                r#"{"app":"a\"b","warm_us":7},{"stats":{"warm_us":9,"list":[1,2]}}]}"#
            )
        );
        assert_eq!(top_level_number(&json, "warm_us"), Some(13_478.0));
        assert_eq!(top_level_number(&json, "ratio"), Some(0.5));
        assert_eq!(top_level_number(&json, "list"), None, "nested keys are not the summary");
        assert_eq!(top_level_number(&json, "arm"), None, "a name is not a number");
        assert_eq!(top_level_number("{\"warm_us\":", "warm_us"), None);
        assert_eq!(top_level_number("{\"unterminated", "warm_us"), None);
        let empty = Record { arm: "empty", fields: Vec::new(), rows: Vec::new() };
        assert_eq!(empty.to_json(), r#"{"arm":"empty","rows":[]}"#);
    }

    #[test]
    fn a_ratchet_is_skipped_without_a_baseline_and_pads_the_fresh_number() {
        assert_eq!(ratchet("warm", u64::MAX, None), None);
        assert_eq!(ratchet("warm", 100, Some(75.0)).map(|(passed, _)| passed), Some(true));
        let (passed, failure) = ratchet("warm", 101, Some(75.0)).expect("a baseline is checked");
        assert!(!passed);
        assert_eq!(failure, "warm: 101us, over the committed 75us / 0.75");
    }

    #[test]
    fn the_gate_keeps_the_failures_in_order_and_the_quantile_is_nearest_rank() {
        assert_eq!(gate([(true, "a".to_owned())]), Ok(()));
        assert_eq!(
            gate([(false, "a".to_owned()), (true, "b".to_owned()), (false, "c".to_owned())]),
            Err(vec!["a".to_owned(), "c".to_owned()])
        );
        assert_eq!(quantile(&[5u64, 1, 3], 0.5), 3);
        assert_eq!(quantile(&[4u64, 1, 3, 2], 0.5), 2);
        assert_eq!(quantile(&[4u64, 1, 3, 2], 0.99), 4);
        assert_eq!(quantile::<u64>(&[], 0.5), 0);
        assert!((quantile(&[2.5f64, 0.5, 1.5], 0.5) - 1.5).abs() < f64::EPSILON);
    }
}
