//! Interning vocabulary with frequency counts.
//!
//! Neural local EMD systems look tokens up by dense id; the CTrie keys its
//! nodes by lower-cased ids. A [`Vocab`] provides both: stable `u32` ids,
//! frequency-based truncation, and reserved special ids (`PAD`, `UNK`).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// Reserved id for padding.
pub const PAD: u32 = 0;
/// Reserved id for out-of-vocabulary tokens.
pub const UNK: u32 = 1;
/// Number of reserved ids.
pub const N_RESERVED: u32 = 2;

/// A frequency-aware interning vocabulary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocab {
    map: HashMap<String, u32>,
    items: Vec<String>,
    freqs: Vec<u64>,
    /// When true, all lookups and insertions lowercase the key first.
    lowercase: bool,
}

impl Vocab {
    /// New empty vocabulary. `lowercase` folds case on insert/lookup.
    pub fn new(lowercase: bool) -> Self {
        let mut v = Vocab {
            map: HashMap::new(),
            items: Vec::new(),
            freqs: Vec::new(),
            lowercase,
        };
        v.items.push("<pad>".to_string());
        v.items.push("<unk>".to_string());
        v.freqs.push(0);
        v.freqs.push(0);
        v.map.insert("<pad>".to_string(), PAD);
        v.map.insert("<unk>".to_string(), UNK);
        v
    }

    /// The stored form of `s`: borrowed as is unless the vocabulary folds
    /// case, so lookups in a case-sensitive vocabulary never allocate.
    fn key<'a>(&self, s: &'a str) -> Cow<'a, str> {
        if self.lowercase {
            Cow::Owned(s.to_lowercase())
        } else {
            Cow::Borrowed(s)
        }
    }

    /// Intern `s`, bumping its frequency, returning its id.
    pub fn add(&mut self, s: &str) -> u32 {
        let k = self.key(s);
        if let Some(&id) = self.map.get(k.as_ref()) {
            self.freqs[id as usize] += 1;
            return id;
        }
        let k = k.into_owned();
        let id = self.items.len() as u32;
        self.map.insert(k.clone(), id);
        self.items.push(k);
        self.freqs.push(1);
        id
    }

    /// Look up without inserting; `UNK` if absent.
    pub fn get(&self, s: &str) -> u32 {
        self.map.get(self.key(s).as_ref()).copied().unwrap_or(UNK)
    }

    /// Look up without inserting; `None` if absent.
    pub fn try_get(&self, s: &str) -> Option<u32> {
        self.map.get(self.key(s).as_ref()).copied()
    }

    /// The string for an id (panics on out-of-range).
    pub fn text(&self, id: u32) -> &str {
        &self.items[id as usize]
    }

    /// Observed frequency of an id.
    pub fn freq(&self, id: u32) -> u64 {
        self.freqs[id as usize]
    }

    /// Total number of entries, including reserved ids.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when only the reserved ids are present.
    pub fn is_empty(&self) -> bool {
        self.items.len() as u32 == N_RESERVED
    }

    /// Build a pruned copy keeping only entries with `freq >= min_freq`
    /// (reserved ids always kept). Ids are reassigned densely.
    pub fn pruned(&self, min_freq: u64) -> Vocab {
        let mut v = Vocab::new(self.lowercase);
        for id in N_RESERVED..self.items.len() as u32 {
            if self.freqs[id as usize] >= min_freq {
                let nid = v.items.len() as u32;
                v.map.insert(self.items[id as usize].clone(), nid);
                v.items.push(self.items[id as usize].clone());
                v.freqs.push(self.freqs[id as usize]);
            }
        }
        v
    }

    /// Encode a sequence of token texts into ids (UNK for unknown).
    pub fn encode<'a, I: IntoIterator<Item = &'a str>>(&self, toks: I) -> Vec<u32> {
        toks.into_iter().map(|t| self.get(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ids() {
        let v = Vocab::new(false);
        assert_eq!(v.get("<pad>"), PAD);
        assert_eq!(v.get("<unk>"), UNK);
        assert_eq!(v.len(), 2);
        assert!(v.is_empty());
    }

    #[test]
    fn add_and_get() {
        let mut v = Vocab::new(false);
        let a = v.add("covid");
        let b = v.add("italy");
        assert_ne!(a, b);
        assert_eq!(v.get("covid"), a);
        assert_eq!(v.get("missing"), UNK);
        assert_eq!(v.text(a), "covid");
    }

    #[test]
    fn frequency_counting() {
        let mut v = Vocab::new(false);
        let a = v.add("x");
        v.add("x");
        v.add("x");
        assert_eq!(v.freq(a), 3);
    }

    #[test]
    fn lowercase_folding() {
        let mut v = Vocab::new(true);
        let a = v.add("Italy");
        assert_eq!(v.get("ITALY"), a);
        assert_eq!(v.get("italy"), a);
        assert_eq!(v.text(a), "italy");
    }

    #[test]
    fn case_sensitive_when_disabled() {
        let mut v = Vocab::new(false);
        let a = v.add("Italy");
        assert_eq!(v.get("italy"), UNK);
        assert_eq!(v.get("Italy"), a);
    }

    #[test]
    fn pruning() {
        let mut v = Vocab::new(false);
        v.add("rare");
        for _ in 0..5 {
            v.add("common");
        }
        let p = v.pruned(2);
        assert_eq!(p.get("rare"), UNK);
        assert_ne!(p.get("common"), UNK);
        assert_eq!(p.len(), 3); // pad, unk, common
    }

    #[test]
    fn encode_sequence() {
        let mut v = Vocab::new(true);
        v.add("covid");
        v.add("hits");
        let ids = v.encode(["Covid", "hits", "mars"]);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[2], UNK);
        assert_ne!(ids[0], UNK);
    }
}
