//! Token interning for the occurrence-scan hot path.
//!
//! The scan/pool/classify loop used to key posting lists and CTrie edges
//! by `String` and call `str::to_lowercase()` on every token of every
//! scanned sentence — one short-lived heap allocation per token per scan.
//! [`Interner`] replaces those keys with dense `u32` [`Sym`]s: a token is
//! folded and interned **once at ingest**, and every later lookup — the
//! trie walk, the posting-list probe, the dirty-set fanout — is an integer
//! compare against symbols that already exist.
//!
//! Folding semantics are pinned to `str::to_lowercase()` (the key scheme
//! the whole pipeline has used since PR 1): ASCII-only strings take an
//! allocation-free fast path, and anything else falls back to the real
//! Unicode lowering so "STRASSE" and "straße" keep their historical
//! (distinct) identities.
//!
//! Symbols are stable for the life of the interner and never garbage
//! collected: a window eviction can drop the *posting list* for a symbol,
//! but the symbol itself stays valid so checkpoint replay and late
//! re-registration of a candidate never re-number anything. The
//! uncollected tail is not small: for a non-deep pipeline it is 23% of
//! resident bytes at the end of the bounded-memory soak, and it grows
//! from 1.0 to 5.7 MB over a 163,840-sentence churn stream at a fixed
//! 20k window. Collecting dead symbols is ROADMAP item 1.
//!
//! Each string is stored once, as an `Arc<str>` shared by the symbol
//! table and the lookup map, so cloning an interner (the supervisor
//! snapshots the pipeline state before every batch) copies pointers and
//! bumps reference counts instead of duplicating every token.

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A dense interned-token handle. `u32` keeps posting lists and trie edge
/// maps at half the width of a pointer and a twelfth of an inline
/// `String`.
pub type Sym = u32;

/// An append-only string interner with `to_lowercase`-folding lookups.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Arc<str>>,
    map: HashMap<Arc<str>, Sym>,
}

/// Is `s` already in folded form, byte-for-byte? (ASCII with no uppercase
/// letters — the overwhelmingly common case for microblog tokens.)
#[inline]
fn is_folded_ascii(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase())
}

/// `s` lowercased into `buf`, when `s` is ASCII and fits; `None` sends the
/// caller to the allocating `to_lowercase`.
#[inline]
fn fold_ascii_in<'b>(s: &str, buf: &'b mut [u8; 64]) -> Option<&'b str> {
    let bytes = s.as_bytes();
    if !s.is_ascii() || bytes.len() > buf.len() {
        return None;
    }
    for (dst, &b) in buf.iter_mut().zip(bytes) {
        *dst = b.to_ascii_lowercase();
    }
    Some(std::str::from_utf8(&buf[..bytes.len()]).expect("ascii"))
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s` exactly as given, returning its symbol. Idempotent:
    /// interning the same string twice returns the same symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = self.strings.len() as Sym;
        let s: Arc<str> = Arc::from(s);
        self.strings.push(s.clone());
        self.map.insert(s, sym);
        sym
    }

    /// Intern the case-folded form of `s` (exactly `s.to_lowercase()`).
    /// Folds `s` once; allocation-free when the folded form is known and
    /// `s` is ASCII of at most 64 bytes.
    pub fn intern_folded(&mut self, s: &str) -> Sym {
        if is_folded_ascii(s) {
            return self.intern(s);
        }
        let mut buf = [0u8; 64];
        match fold_ascii_in(s, &mut buf) {
            Some(folded) => self.intern(folded),
            None => self.intern(&s.to_lowercase()),
        }
    }

    /// Look up the symbol of the case-folded form of `s`, without
    /// interning. Allocation-free for ASCII input of at most 64 bytes.
    pub fn lookup_folded(&self, s: &str) -> Option<Sym> {
        if is_folded_ascii(s) {
            return self.map.get(s).copied();
        }
        let mut buf = [0u8; 64];
        match fold_ascii_in(s, &mut buf) {
            Some(folded) => self.map.get(folded).copied(),
            None => self.map.get(s.to_lowercase().as_str()).copied(),
        }
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym as usize]
    }

    /// The strings `syms` stand for, space-joined.
    pub fn join(&self, syms: &[Sym]) -> String {
        let words: Vec<&str> = syms.iter().map(|&s| self.resolve(s)).collect();
        words.join(" ")
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Approximate resident heap size, for memory accounting: one
    /// shared string block per symbol (bytes plus the two reference
    /// counts), the symbol table's pointers, and the map's entries.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.strings
            .iter()
            .map(|s| s.len() + 2 * size_of::<usize>())
            .sum::<usize>()
            + self.strings.capacity() * size_of::<Arc<str>>()
            + self.map.len() * size_of::<(Arc<str>, Sym)>()
    }
}

// The map is derivable from the string table, so checkpoints carry only
// the table (in symbol order) and rebuild the map on load. Symbol values
// therefore survive save/restore bit-for-bit.
impl Serialize for Interner {
    fn write_json(&self, out: &mut serde::ser::Out<'_>) {
        self.strings.write_json(out);
    }
}

impl Deserialize for Interner {
    fn from_value(v: &Value) -> Result<Interner, DeError> {
        let strings = Vec::<Arc<str>>::from_value(v)?;
        let mut map = HashMap::with_capacity(strings.len());
        for (i, s) in strings.iter().enumerate() {
            if map.insert(s.clone(), i as Sym).is_some() {
                return Err(DeError::msg(format!("duplicate interned string {s:?}")));
            }
        }
        Ok(Interner { strings, map })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = Interner::new();
        let a = it.intern("apple");
        let b = it.intern("banana");
        assert_eq!(it.intern("apple"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(it.resolve(a), "apple");
        assert_eq!(it.join(&[b, a]), "banana apple");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn folded_matches_to_lowercase_semantics() {
        let mut it = Interner::new();
        let a = it.intern_folded("Italy");
        assert_eq!(it.resolve(a), "italy");
        assert_eq!(it.intern_folded("ITALY"), a);
        assert_eq!(it.intern_folded("italy"), a);
        // Unicode folding goes through the real to_lowercase: "STRASSE"
        // folds to "strasse", which is NOT "straße".
        let sharp = it.intern_folded("straße");
        let ss = it.intern_folded("STRASSE");
        assert_ne!(sharp, ss);
        assert_eq!(it.resolve(ss), "strasse");
    }

    #[test]
    fn lookup_folded_never_interns() {
        let mut it = Interner::new();
        let a = it.intern_folded("rome");
        assert_eq!(it.lookup_folded("Rome"), Some(a));
        assert_eq!(it.lookup_folded("ROME"), Some(a));
        assert_eq!(it.lookup_folded("paris"), None);
        assert_eq!(it.len(), 1);
        // Long ASCII tokens overflow the stack buffer but still fold.
        let long = "A".repeat(100);
        let l = it.intern_folded(&long);
        assert_eq!(it.lookup_folded(&long), Some(l));
    }

    proptest::proptest! {
        /// Intern → resolve is lossless for arbitrary printable strings
        /// (exact interning returns the bytes verbatim; folded interning
        /// returns exactly `str::to_lowercase()`), and re-interning either
        /// form maps back to the same symbol.
        #[test]
        fn round_trips_are_lossless(tokens in proptest::collection::vec("\\PC{0,12}", 1..16)) {
            let mut it = Interner::new();
            for t in &tokens {
                let exact = it.intern(t);
                proptest::prop_assert_eq!(it.resolve(exact), t.as_str());
                proptest::prop_assert_eq!(it.intern(t), exact);

                let folded = it.intern_folded(t);
                let want = t.to_lowercase();
                proptest::prop_assert_eq!(it.resolve(folded), want.as_str());
                proptest::prop_assert_eq!(it.lookup_folded(t), Some(folded));
                proptest::prop_assert_eq!(it.intern_folded(&want), folded);
            }
        }
    }

    #[test]
    fn table_and_map_share_one_string_per_symbol() {
        let mut it = Interner::new();
        let a = it.intern_folded("Shared");
        let (key, &sym) = it.map.get_key_value("shared").unwrap();
        assert_eq!(sym, a);
        assert!(Arc::ptr_eq(key, &it.strings[a as usize]));
        // A clone shares the strings too.
        let copy = it.clone();
        assert!(Arc::ptr_eq(
            &copy.strings[a as usize],
            &it.strings[a as usize]
        ));
    }

    #[test]
    fn serde_round_trip_preserves_symbols() {
        let mut it = Interner::new();
        let a = it.intern("Alpha");
        let b = it.intern_folded("Beta");
        let json = serde_json::to_string(&it).unwrap();
        assert_eq!(json, r#"["Alpha","beta"]"#);
        let back: Interner = serde_json::from_str(&json).unwrap();
        assert_eq!(back.resolve(a), "Alpha");
        assert_eq!(back.resolve(b), "beta");
        assert_eq!(back.lookup_folded("BETA"), Some(b));
        assert_eq!(back.len(), it.len());
    }
}
