//! JSON serialization (compact and pretty writers).

use crate::value::{Number, Value};

const INDENT: &str = "  ";

/// Writes `v` in compact form (no whitespace) into `out`.
pub(crate) fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Writes `v` with two-space indentation at nesting `level` into `out`.
pub(crate) fn write_pretty(v: &Value, level: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(level + 1, out);
                write_pretty(item, level + 1, out);
            }
            out.push('\n');
            push_indent(level, out);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(level + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(item, level + 1, out);
            }
            out.push('\n');
            push_indent(level, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn push_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str(INDENT);
    }
}

/// Appends the decimal digits of `v`.
fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &digit in &buf[start..] {
        out.push(digit as char);
    }
}

fn write_number(n: Number, out: &mut String) {
    use std::fmt::Write;
    match n {
        Number::Int(v) => {
            if v < 0 {
                out.push('-');
            }
            write_u64(v.unsigned_abs(), out);
        }
        Number::UInt(v) => write_u64(v, out),
        Number::Float(v) => {
            if v.is_finite() {
                // `{}` on f64 prints the shortest representation that
                // roundtrips, which is exactly what we want for metrics.
                if v == v.trunc() && v.abs() < 1e15 {
                    // A whole number below 2^53 converts exactly. Keep a
                    // trailing `.0` so floats stay floats on re-parse, and
                    // the sign of -0.0.
                    if v.is_sign_negative() {
                        out.push('-');
                    }
                    write_u64(v.abs() as u64, out);
                    out.push_str(".0");
                } else {
                    let _ = write!(out, "{v}");
                }
            } else {
                // JSON cannot represent NaN/Inf.
                out.push_str("null");
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so it never sits inside a
    // multi-byte character and the runs between escapes copy whole.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            use std::fmt::Write;
            let _ = write!(out, "\\u{:04x}", byte);
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
    use crate::{json, Value};

    #[test]
    fn compact_matches_expected() {
        let v = json!({"a": 1, "b": [true, null], "c": "x\"y"});
        assert_eq!(
            v.to_compact_string(),
            r#"{"a":1,"b":[true,null],"c":"x\"y"}"#
        );
    }

    #[test]
    fn pretty_has_indentation() {
        let v = json!({"a": {"b": 1}});
        let text = v.to_pretty_string();
        assert_eq!(text, "{\n  \"a\": {\n    \"b\": 1\n  }\n}");
    }

    #[test]
    fn empty_containers_are_compact() {
        let v = json!({"obj": {}, "arr": []});
        assert_eq!(v.to_pretty_string(), "{\n  \"obj\": {},\n  \"arr\": []\n}");
    }

    #[test]
    fn floats_keep_roundtrip_precision() {
        let v = Value::from(3.312043080187229_f64);
        let text = v.to_compact_string();
        let back: Value = text.parse().unwrap();
        assert_eq!(back.as_f64(), Some(3.312043080187229));
    }

    #[test]
    fn whole_floats_keep_decimal_point() {
        assert_eq!(Value::from(2.0).to_compact_string(), "2.0");
        let back: Value = "2.0".parse::<Value>().unwrap();
        assert!(matches!(back, Value::Number(crate::Number::Float(_))));
    }

    #[test]
    fn whole_floats_match_one_decimal_formatting() {
        for v in [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            42.0,
            1e14,
            -999_999_999_999_999.0,
            1e15,
            2.5e20,
        ] {
            let expected = if v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                v.to_string()
            };
            assert_eq!(Value::from(v).to_compact_string(), expected, "{v}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Value::from(f64::NAN).to_compact_string(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn integers_print_every_digit() {
        for v in [0, 7, -7, 10, -10, 1_000_000, i64::MAX, i64::MIN] {
            assert_eq!(Value::from(v).to_compact_string(), v.to_string());
        }
        assert_eq!(
            Value::from(u64::MAX).to_compact_string(),
            u64::MAX.to_string()
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let v = Value::from("a\u{01}b");
        assert_eq!(v.to_compact_string(), "\"a\\u0001b\"");
    }
}
