//! The encoder's output buffer [`Out`] and the writers every
//! [`Serialize`] impl shares. [`write_seq`] is public for hand-written
//! impls over iterators; scalars elsewhere go through their own
//! `write_json`.
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
use std::io;

/// Bytes an [`Out`] with a sink buffers before it hands them on. The
/// handoff happens at the next sequence element boundary, so a chunk
/// overshoots this by at most one element.
pub const CHUNK: usize = 1 << 20;

/// Where encoded JSON text goes: a growing `String`
/// ([`Out::new`]), or a bounded buffer drained into an [`io::Write`]
/// sink in chunks of about [`CHUNK`] bytes ([`Out::with_sink`]). A
/// streamed encoding holds at most one chunk, whatever the value's size.
///
/// The first sink error stops all further writes. Encoding still runs
/// to the end (a `write_json` cannot fail), and [`Out::finish`] reports
/// that error.
pub struct Out<'w> {
    buf: String,
    sink: Option<&'w mut dyn io::Write>,
    /// Buffer length that triggers a handoff: [`CHUNK`] with a sink,
    /// never without one.
    limit: usize,
    err: Option<io::Error>,
}

impl Out<'static> {
    /// Encode into a `String`; take it with [`Out::into_string`].
    pub fn new() -> Out<'static> {
        Out {
            buf: String::new(),
            sink: None,
            limit: usize::MAX,
            err: None,
        }
    }
}

impl Default for Out<'static> {
    fn default() -> Out<'static> {
        Out::new()
    }
}

impl<'w> Out<'w> {
    /// Encode into `sink`, a chunk at a time. Call [`Out::finish`] to
    /// write the last chunk.
    pub fn with_sink(sink: &'w mut dyn io::Write) -> Out<'w> {
        Out {
            buf: String::with_capacity(CHUNK),
            sink: Some(sink),
            limit: CHUNK,
            err: None,
        }
    }

    /// Append raw JSON text.
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Append one raw JSON character.
    #[inline]
    pub fn push(&mut self, c: char) {
        self.buf.push(c);
    }

    /// A point where the text may be split: hand a full chunk to the
    /// sink. [`write_seq`] calls this after every element.
    #[inline]
    fn boundary(&mut self) {
        if self.buf.len() >= self.limit {
            self.drain();
        }
    }

    /// Write the buffer to the sink (unless an earlier write failed) and
    /// empty it.
    fn drain(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = sink.write_all(self.buf.as_bytes()) {
                self.err = Some(e);
                self.sink = None;
            }
        }
        self.buf.clear();
    }

    /// Write what is left to the sink, and report the first sink error.
    pub fn finish(mut self) -> io::Result<()> {
        self.drain();
        match self.err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The encoded text (everything, for an [`Out::new`] buffer).
    pub fn into_string(self) -> String {
        self.buf
    }
}

/// Append `v` through its `Display` impl (plain decimal for integers).
pub(crate) fn write_display(v: impl std::fmt::Display, out: &mut Out) {
    use std::fmt::Write;
    write!(out.buf, "{v}").expect("writing to a String cannot fail");
}

/// Append a float (see the module docs for the exact form).
pub(crate) fn write_f64(f: f64, out: &mut Out) {
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
pub(crate) fn write_str(s: &str, out: &mut Out) {
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

/// Append `items` as a JSON array, offering a chunk boundary after each
/// element.
pub fn write_seq<I>(items: I, out: &mut Out)
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
        out.boundary();
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(f: impl Fn(&mut Out)) -> String {
        let mut out = Out::new();
        f(&mut out);
        out.into_string()
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

    /// Records the size of every write it receives.
    #[derive(Default)]
    struct Chunks {
        bytes: Vec<u8>,
        sizes: Vec<usize>,
    }

    impl io::Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.sizes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_text_equals_buffered_text_in_bounded_chunks() {
        let items: Vec<(u64, String)> = (0..200_000).map(|i| (i, format!("item {i}"))).collect();
        let mut buffered = Out::new();
        items.write_json(&mut buffered);
        let want = buffered.into_string();
        assert!(want.len() > 3 * CHUNK, "spans several chunks");

        let mut sink = Chunks::default();
        let mut out = Out::with_sink(&mut sink);
        items.write_json(&mut out);
        out.finish().unwrap();
        assert_eq!(sink.bytes, want.as_bytes());
        assert!(sink.sizes.len() > 3);
        let element = 32;
        assert!(
            sink.sizes.iter().all(|&n| n < CHUNK + element),
            "every chunk is at most one element past the limit: {:?}",
            sink.sizes
        );
    }

    #[test]
    fn first_sink_error_stops_writes_and_is_reported() {
        struct Fails(usize);
        impl io::Write for Fails {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Fails(0);
        let mut out = Out::with_sink(&mut sink);
        vec![u64::MAX; 1 << 18].write_json(&mut out);
        let err = out.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(sink.0, 1, "no write after the first failure");
    }
}
