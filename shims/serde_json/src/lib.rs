//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_writer`], [`from_str`] and [`Error`]. Encoding is
//! the serde shim's direct [`Serialize::write_json`]; decoding parses into
//! the shim's
//! [`serde::value::Value`] tree and rebuilds the target from it.
//!
//! Numbers print with Rust's shortest-round-trip float formatting, so every
//! `f32`/`f64` survives a save/load cycle bit-exactly (non-finite floats
//! become `null`, as in the real crate).

use serde::de::DeserializeOwned;
use serde::ser::Out;
use serde::value::{Number, Value};
use serde::Serialize;

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Out::new();
    value.write_json(&mut out);
    Ok(out.into_string())
}

/// Serialize as compact JSON into `writer`, the same text [`to_string`]
/// returns. It goes out in chunks of about [`serde::ser::CHUNK`] bytes,
/// so memory stays bounded however large `value` encodes. Fails with the
/// writer's first error.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let mut out = Out::with_sink(&mut writer);
    value.write_json(&mut out);
    out.finish().map_err(|e| Error(e.to_string()))
}

/// Deserialize from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    let value = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    }
    .parse_document()?;
    Ok(T::from_value(&value)?)
}

// ---- parser -------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    fields.push((key, self.parse_value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash in one
                    // step. Both are ASCII, so the run ends on a char
                    // boundary and is valid UTF-8 whenever the input is.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Num(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Number::F(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn scalar_round_trips() {
        assert_eq!(from_str::<u64>(&to_string(&123u64).unwrap()).unwrap(), 123);
        assert_eq!(from_str::<i32>(&to_string(&-5i32).unwrap()).unwrap(), -5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn float_round_trips_exactly() {
        for &x in &[0.1f32, 1.0, -2.5e-8, std::f32::consts::PI, f32::MAX] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&s).unwrap(), x, "through {s}");
        }
        for &x in &[0.1f64, 1e300, -7.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "through {s}");
        }
    }

    #[test]
    fn nested_containers_round_trip() {
        let v: Vec<Vec<f32>> = vec![vec![1.0, 2.5], vec![], vec![-3.25]];
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<f32>>>(&s).unwrap(), v);
        let m: std::collections::HashMap<String, u32> =
            [("a".to_string(), 1u32), ("b".to_string(), 2)]
                .into_iter()
                .collect();
        assert_eq!(
            from_str::<std::collections::HashMap<String, u32>>(&to_string(&m).unwrap()).unwrap(),
            m
        );
    }

    #[test]
    fn unicode_strings_round_trip() {
        for s in [
            "héllo wörld",
            "日本語",
            "emoji 🎉 done",
            "quote \" slash \\ tab \t",
        ] {
            let json = to_string(&s.to_string()).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s);
        }
        // Escaped input forms parse too.
        assert_eq!(from_str::<String>("\"\\u00e9\"").unwrap(), "é");
        assert_eq!(from_str::<String>("\"\\ud83c\\udf89\"").unwrap(), "🎉");
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone, Copy)]
    enum Mode {
        Fast,
        Slow,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
    struct Inner {
        id: u64,
        weight: f32,
        tag: Option<String>,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
    struct Outer<T> {
        name: String,
        mode: Mode,
        inner: Inner,
        items: Vec<Inner>,
        pair: (i32, Mode),
        triple: (u8, String, Option<f64>),
        table: BTreeMap<String, Vec<u32>>,
        maybe: Option<Box<Inner>>,
        generic: T,
        #[serde(skip)]
        scratch: usize,
        fixed: [i16; 3],
        set: BTreeSet<u32>,
        letter: char,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct AllSkipped {
        #[serde(skip)]
        cache: Vec<u8>,
    }

    fn outer() -> Outer<(i64, Vec<Option<f64>>)> {
        Outer {
            name: "quote \" backslash \\ slash / nl \n cr \r tab \t bell \u{7} nul \u{0} \
                   us \u{1f} del \u{7f} é 日本 🎉"
                .to_string(),
            mode: Mode::Slow,
            inner: Inner {
                id: 7,
                weight: 0.1,
                tag: None,
            },
            items: vec![
                Inner {
                    id: 0,
                    weight: -0.0,
                    tag: Some(String::new()),
                },
                Inner {
                    id: u64::MAX,
                    weight: f32::MIN_POSITIVE,
                    tag: Some("x".into()),
                },
            ],
            pair: (-3, Mode::Fast),
            triple: (255, "t".into(), Some(1e15)),
            table: [("b".to_string(), vec![3, 1]), ("a".to_string(), vec![])].into(),
            maybe: Some(Box::new(Inner {
                id: 1,
                weight: 2.0,
                tag: None,
            })),
            generic: (i64::MIN, vec![Some(-0.0), None, Some(1.5)]),
            scratch: 99,
            fixed: [i16::MIN, 0, i16::MAX],
            set: [5, 1, 3].into(),
            letter: 'é',
        }
    }

    /// What the format wrote for `outer()` when it was frozen (checkpoint
    /// format v3); any change here breaks every persisted file.
    const OUTER_JSON: &str = concat!(
        r#"{"name":"quote \" backslash \\ slash / nl \n cr \r tab \t bell \u0007 nul \u0000 "#,
        r#"us \u001f del "#,
        "\u{7f}",
        r#" é 日本 🎉","mode":"Slow","inner":{"id":7,"weight":0.10000000149011612,"tag":null},"#,
        r#""items":[{"id":0,"weight":-0.0,"tag":""},{"id":18446744073709551615,"#,
        r#""weight":0.000000000000000000000000000000000000011754943508222875,"tag":"x"}],"#,
        r#""pair":[-3,"Fast"],"triple":[255,"t",1000000000000000],"#,
        r#""table":[["a",[]],["b",[3,1]]],"maybe":{"id":1,"weight":2.0,"tag":null},"#,
        r#""generic":[-9223372036854775808,[-0.0,null,1.5]],"fixed":[-32768,0,32767],"#,
        r#""set":[1,3,5],"letter":"é"}"#,
    );

    #[test]
    fn derived_encoding_matches_the_frozen_format() {
        assert_eq!(to_string(&outer()).unwrap(), OUTER_JSON);
        assert_eq!(to_string(&Mode::Fast).unwrap(), r#""Fast""#);
        assert_eq!(to_string(&AllSkipped { cache: vec![1] }).unwrap(), "{}");
    }

    #[test]
    fn derived_values_round_trip() {
        let x = outer();
        let back: Outer<(i64, Vec<Option<f64>>)> = from_str(&to_string(&x).unwrap()).unwrap();
        // Skipped fields come back as their default.
        assert_eq!(back, Outer { scratch: 0, ..x });
        assert!(back.items[0].weight.is_sign_negative());
        assert!(back.generic.1[0].unwrap().is_sign_negative());
        let empty: AllSkipped = from_str("{}").unwrap();
        assert!(empty.cache.is_empty());
    }

    #[test]
    fn edge_numbers_match_the_frozen_format_and_round_trip() {
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
        assert_eq!(to_string(&(1e15f64 - 1.0)).unwrap(), "999999999999999.0");
        assert_eq!(to_string(&1e-7f64).unwrap(), "0.0000001");
        assert_eq!(
            to_string(&f32::MIN_POSITIVE).unwrap(),
            "0.000000000000000000000000000000000000011754943508222875"
        );
        assert_eq!(to_string(&0.1f32).unwrap(), "0.10000000149011612");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::NEG_INFINITY).unwrap(), "null");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");

        let back: f64 = from_str(&to_string(&-0.0f64).unwrap()).unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            from_str::<f64>(&to_string(&1e15f64).unwrap()).unwrap(),
            1e15
        );
        let min = f32::MIN_POSITIVE;
        assert_eq!(from_str::<f32>(&to_string(&min).unwrap()).unwrap(), min);
        assert!(from_str::<f64>(&to_string(&f64::NAN).unwrap())
            .unwrap()
            .is_nan());
        assert_eq!(
            from_str::<i64>(&to_string(&i64::MIN).unwrap()).unwrap(),
            i64::MIN
        );
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn long_strings_with_interleaved_escapes_round_trip() {
        let piece = "run of plain text é日本🎉 \"q\" \\b\\ \n\t\u{1}\u{7f}";
        let s: String = (0..2000).map(|i| format!("{piece}{i}")).collect();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        let strings = vec![s.clone(), String::new(), "\"".to_string(), s];
        let json = to_string(&strings).unwrap();
        assert_eq!(from_str::<Vec<String>>(&json).unwrap(), strings);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f32::NAN).unwrap(), "null");
        assert!(from_str::<f32>("null").unwrap().is_nan());
    }

    #[test]
    fn to_writer_writes_exactly_the_to_string_text() {
        let v: Vec<(String, Vec<f32>)> = (0..50_000)
            .map(|i| (format!("row \"{i}\""), vec![i as f32 * 0.5, -1.25]))
            .collect();
        let mut bytes = Vec::new();
        to_writer(&mut bytes, &v).unwrap();
        let text = to_string(&v).unwrap();
        assert!(text.len() > serde::ser::CHUNK, "spans several chunks");
        assert_eq!(bytes, text.as_bytes());
        assert_eq!(from_str::<Vec<(String, Vec<f32>)>>(&text).unwrap(), v);
    }
}
