//! Offline stand-in for the subset of `serde` this workspace uses:
//! `#[derive(Serialize, Deserialize)]` with `#[serde(skip)]`, plus the
//! `de::DeserializeOwned` bound.
//!
//! Instead of the real serde data model, the shim is JSON-only and
//! asymmetric. Encoding is direct: [`Serialize::write_json`] appends
//! compact JSON text to a [`ser::Out`], which either grows one `String`
//! or streams the text to an `io::Write` in bounded chunks (the [`ser`]
//! helpers hold the scalar writers every impl shares). Decoding goes
//! through a small JSON-shaped [`value::Value`] tree that `serde_json`
//! (also shimmed) parses. Maps serialize as arrays of `[key, value]`
//! pairs so non-string keys round-trip without a key-stringification
//! protocol.

pub use serde_derive::{Deserialize, Serialize};

pub mod ser;
pub mod value;

use value::Value;

/// Deserialization error (the only failure mode the shim distinguishes).
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error from a message.
    pub fn msg(m: impl Into<String>) -> DeError {
        DeError(m.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Encoding straight to compact JSON text.
pub trait Serialize {
    /// Append `self`'s compact JSON encoding to `out`. Impls that write
    /// a sequence go through [`ser::write_seq`], whose element boundaries
    /// are where a streamed `out` hands chunks to its sink.
    fn write_json(&self, out: &mut ser::Out<'_>);
}

/// Conversion out of the shim's JSON-shaped value tree.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

pub mod de {
    //! Deserialization-side re-exports mirroring the real crate's layout.
    pub use super::DeError;

    /// Owned deserialization — in the shim every [`super::Deserialize`]
    /// already is owned, so this is a blanket alias.
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}
}

fn type_err<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError::msg(format!(
        "expected {expected}, got {}",
        got.kind()
    )))
}

// ---- primitive impls ----------------------------------------------------

impl Serialize for bool {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => type_err("bool", other),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut ser::Out<'_>) {
                ser::write_display(self, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                let n = match v {
                    Value::Num(n) => n.as_u64(),
                    _ => None,
                };
                let n = n.ok_or_else(|| DeError::msg(format!(
                    "expected unsigned integer, got {}", v.kind())))?;
                <$t>::try_from(n).map_err(|_| DeError::msg(format!(
                    "integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut ser::Out<'_>) {
                ser::write_display(self, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                let n = match v {
                    Value::Num(n) => n.as_i64(),
                    _ => None,
                };
                let n = n.ok_or_else(|| DeError::msg(format!(
                    "expected integer, got {}", v.kind())))?;
                <$t>::try_from(n).map_err(|_| DeError::msg(format!(
                    "integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut ser::Out<'_>) {
                // Widened to f64 first: an f32 prints as its exact f64
                // value's shortest form, as the format always has.
                ser::write_f64(*self as f64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                match v {
                    Value::Num(n) => Ok(n.as_f64() as $t),
                    // serde_json writes non-finite floats as null.
                    Value::Null => Ok(<$t>::NAN),
                    other => type_err("number", other),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for char {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_str(self.encode_utf8(&mut [0; 4]), out);
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<char, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => type_err("single-char string", other),
        }
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_str(self, out);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_str(self, out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        (**self).write_json(out);
    }
}

// ---- containers ---------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<[T; N], DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| DeError::msg(format!("expected array of length {N}, got {n}")))
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Box<T>, DeError> {
        Ok(Box::new(T::from_value(v)?))
    }
}

// Shared pointers encode as their pointee, exactly like `Box`: a value
// behind an `Arc` writes the same bytes as the value itself.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<std::sync::Arc<T>, DeError> {
        Ok(std::sync::Arc::new(T::from_value(v)?))
    }
}

// A shared string decodes straight into its block, with no intermediate
// `String`.
impl Deserialize for std::sync::Arc<str> {
    fn from_value(v: &Value) -> Result<std::sync::Arc<str>, DeError> {
        match v {
            Value::Str(s) => Ok(std::sync::Arc::from(s.as_str())),
            other => type_err("string", other),
        }
    }
}

macro_rules! impl_tuple {
    ($n:expr; $a:ident . $aidx:tt $(, $t:ident . $idx:tt)*) => {
        impl<$a: Serialize $(, $t: Serialize)*> Serialize for ($a, $($t,)*) {
            fn write_json(&self, out: &mut ser::Out<'_>) {
                out.push('[');
                self.$aidx.write_json(out);
                $(
                    out.push(',');
                    self.$idx.write_json(out);
                )*
                out.push(']');
            }
        }
        impl<$a: Deserialize $(, $t: Deserialize)*> Deserialize for ($a, $($t,)*) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Arr(items) if items.len() == $n => Ok((
                        $a::from_value(&items[$aidx])?,
                        $($t::from_value(&items[$idx])?,)*
                    )),
                    other => type_err(concat!("array of length ", $n), other),
                }
            }
        }
    };
}

impl_tuple!(1; A.0);
impl_tuple!(2; A.0, B.1);
impl_tuple!(3; A.0, B.1, C.2);
impl_tuple!(4; A.0, B.1, C.2, D.3);

// Maps and sets serialize as arrays (of pairs, for maps) so that
// non-string keys — `HashMap<(String, String), u32>` exists in this
// workspace — round-trip without a key-encoding protocol. A map's
// iterator yields `(&K, &V)`, which the tuple impl writes as `[k,v]`.

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs: Vec<(K, V)> = Vec::from_value(v)?;
        Ok(pairs.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs: Vec<(K, V)> = Vec::from_value(v)?;
        Ok(pairs.into_iter().collect())
    }
}

impl<T: Serialize, S> Serialize for std::collections::HashSet<T, S> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<T, S> Deserialize for std::collections::HashSet<T, S>
where
    T: Deserialize + std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        Ok(items.into_iter().collect())
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self, out);
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        Ok(items.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use value::Number;

    fn json<T: Serialize + ?Sized>(x: &T) -> String {
        let mut out = ser::Out::new();
        x.write_json(&mut out);
        out.into_string()
    }

    #[test]
    fn primitives_encode() {
        assert_eq!(json(&42u64), "42");
        assert_eq!(json(&-7i32), "-7");
        assert_eq!(json(&1.5f32), "1.5");
        assert_eq!(json(&2.0f64), "2.0");
        assert_eq!(json("hi"), "\"hi\"");
        assert_eq!(json(&'é'), "\"é\"");
        assert_eq!(json(&true), "true");
        assert_eq!(json(&None::<u8>), "null");
    }

    #[test]
    fn containers_encode() {
        assert_eq!(json(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(json(&Vec::<u32>::new()), "[]");
        assert_eq!(json(&[9u8, 8, 7]), "[9,8,7]");
        let mut q: std::collections::VecDeque<u8> = [1, 2, 3].into();
        q.pop_front();
        q.push_back(4);
        assert_eq!(json(&q), "[2,3,4]");
        assert_eq!(json(&(1u8, "a", Some(false))), "[1,\"a\",false]");
        let mut m: HashMap<(String, String), u32> = HashMap::new();
        m.insert(("a".into(), "b".into()), 7);
        assert_eq!(json(&m), "[[[\"a\",\"b\"],7]]");
        let b: std::collections::BTreeMap<u8, Vec<u8>> = [(2, vec![]), (1, vec![5])].into();
        assert_eq!(json(&b), "[[1,[5]],[2,[]]]");
    }

    #[test]
    fn shared_pointers_encode_as_their_pointee() {
        use std::sync::Arc;
        assert_eq!(json(&Arc::new(vec![1u8, 2])), json(&vec![1u8, 2]));
        assert_eq!(json(&Box::new(Some(3u8))), "3");
        let s: Arc<str> = Arc::from("hi");
        assert_eq!(json(&vec![s.clone(), s]), "[\"hi\",\"hi\"]");
        let back = Arc::<Vec<u8>>::from_value(&Value::Arr(vec![Value::Num(Number::U(7))]));
        assert_eq!(*back.unwrap(), vec![7]);
        let back = Arc::<str>::from_value(&Value::Str("hi".into())).unwrap();
        assert_eq!(&*back, "hi");
        assert!(Arc::<str>::from_value(&Value::Null).is_err());
    }

    #[test]
    fn decode_from_value_tree() {
        assert_eq!(u64::from_value(&Value::Num(Number::U(42))).unwrap(), 42);
        assert_eq!(i32::from_value(&Value::Num(Number::I(-7))).unwrap(), -7);
        assert_eq!(f32::from_value(&Value::Num(Number::F(1.5))).unwrap(), 1.5);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        assert_eq!(String::from_value(&Value::Str("hi".into())).unwrap(), "hi");
        let pair = Value::Arr(vec![Value::Str("k".into()), Value::Num(Number::U(3))]);
        let m: HashMap<String, u8> = HashMap::from_value(&Value::Arr(vec![pair])).unwrap();
        assert_eq!(m["k"], 3);
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        let arr = Value::Arr(vec![Value::Num(Number::U(9)); 3]);
        assert_eq!(<[u8; 3]>::from_value(&arr).unwrap(), [9, 9, 9]);
    }

    #[test]
    fn wrong_shape_errors() {
        assert!(u8::from_value(&Value::Str("x".into())).is_err());
        assert!(u8::from_value(&Value::Num(Number::U(300))).is_err());
        assert!(Vec::<u8>::from_value(&Value::Bool(true)).is_err());
        assert!(<[u8; 2]>::from_value(&Value::Arr(vec![])).is_err());
    }
}
