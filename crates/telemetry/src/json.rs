//! Minimal JSON value rendering shared across the workspace.
//!
//! The offline build has no `serde`; the trace sinks, the metric expositions
//! and `ckpt_bench`'s `--json` experiment summaries all emit flat JSON through
//! these two helpers so that escaping and number formatting stay identical
//! everywhere (a trace line and a summary line for the same value must be
//! byte-identical — the golden-snapshot CI tests compare them as bytes).

use std::fmt::{self, Write};

/// Serialises a finite number in Rust `Display` form (valid JSON for every
/// finite `f64`); non-finite values become `null`.
///
/// `Display` omits a trailing `.0` for integral values, which JSON accepts as
/// an integer — fine for metric consumers, and crucially *deterministic*: the
/// same `f64` bit pattern always renders to the same bytes.
pub fn json_number(value: f64) -> String {
    let mut out = String::new();
    let _ = write_json_number(&mut out, value);
    out
}

/// Streams [`json_number`]'s byte-identical output into `out` without
/// allocating — the hot-path form used by the trace sinks.
pub fn write_json_number<W: Write>(out: &mut W, value: f64) -> fmt::Result {
    if value.is_finite() {
        write!(out, "{value}")
    } else {
        out.write_str("null")
    }
}

/// Serialises a string with the JSON escapes our keys and values can need
/// (`"`, `\`, newline, carriage return, tab, and any other control character
/// as `\uXXXX`).
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    let _ = write_json_string(&mut out, value);
    out
}

/// Streams [`json_string`]'s byte-identical output into `out` without
/// allocating — the hot-path form used by the trace sinks.
pub fn write_json_string<W: Write>(out: &mut W, value: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every escaped character is ASCII, so scanning bytes finds them, and
    // the runs between them (multi-byte UTF-8 included) are written whole.
    let mut run = 0;
    for (at, byte) in value.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&value[run..at])?;
        match escape {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{byte:04x}")?,
        }
        run = at + 1;
    }
    out.write_str(&value[run..])?;
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip_display() {
        assert_eq!(json_number(0.000015), "0.000015");
        assert_eq!(json_number(-3.0), "-3");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn strings_escape_controls() {
        assert_eq!(
            json_string("line\nbreak\\slash\"q\"\u{1}"),
            "\"line\\nbreak\\\\slash\\\"q\\\"\\u0001\""
        );
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("λ→\u{1f}\u{7f}é\"ü"), "\"λ→\\u001f\u{7f}é\\\"ü\"");
    }
}
