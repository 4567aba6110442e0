//! The writers every [`Serialize`] impl shares. [`write_seq`] is public
//! for hand-written impls over iterators; scalars elsewhere go through
//! their own `write_json`.
//!
//! The format is fixed (checkpoints and model files persist it):
//!
//! * integers in plain decimal;
//! * finite floats in Rust's shortest round-trip form, except that an
//!   integral value below 1e15 in magnitude keeps a `.0` marker (so
//!   `-0.0` stays `-0.0`); non-finite floats as `null`;
//! * strings with `"`, `\`, `\n`, `\r`, `\t` escaped by name, other
//!   control characters as `\u00XX`, everything else (DEL and non-ASCII
//!   included) verbatim.

use crate::Serialize;

/// Append `v` through its `Display` impl (plain decimal for integers).
pub(crate) fn write_display(v: impl std::fmt::Display, out: &mut String) {
    use std::fmt::Write;
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Append a float (see the module docs for the exact form).
pub(crate) fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        write_display(format_args!("{f:.1}"), out);
    } else {
        write_display(f, out);
    }
}

/// Append `s` as a quoted JSON string. Runs of bytes that need no escape
/// are copied in one step; every byte that needs one is ASCII, so the run
/// boundaries always fall on char boundaries.
pub(crate) fn write_str(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `items` as a JSON array.
pub fn write_seq<I>(items: I, out: &mut String)
where
    I: IntoIterator,
    I::Item: Serialize,
{
    out.push('[');
    let mut first = true;
    for item in items {
        if !first {
            out.push(',');
        }
        first = false;
        item.write_json(out);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(f: impl Fn(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn strings_escape_only_what_json_requires() {
        assert_eq!(text(|o| write_str("", o)), "\"\"");
        assert_eq!(text(|o| write_str("plain", o)), "\"plain\"");
        assert_eq!(
            text(|o| write_str("a\"b\\c\nd\re\tf", o)),
            "\"a\\\"b\\\\c\\nd\\re\\tf\""
        );
        assert_eq!(
            text(|o| write_str("\u{0}\u{7}\u{1f}\u{7f}", o)),
            "\"\\u0000\\u0007\\u001f\u{7f}\""
        );
        assert_eq!(text(|o| write_str("é日本🎉\"", o)), "\"é日本🎉\\\"\"");
    }
}
