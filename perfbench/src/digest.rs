//! Fingerprint of a pipeline output: the emitted spans, in stream order.

use emd_text::token::{SentenceId, Span};

/// 64-bit FNV-1a over a sequence of words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over every emitted sentence id and its spans. Each sentence
/// contributes its span count, so moving a span between sentences, or
/// dropping an empty sentence, changes the digest.
pub fn spans_digest(per_sentence: &[(SentenceId, Vec<Span>)]) -> u64 {
    let mut h = Fnv::new();
    h.word(per_sentence.len() as u64);
    for (sid, spans) in per_sentence {
        h.word(sid.tweet_id);
        h.word(sid.sent_id as u64);
        h.word(spans.len() as u64);
        for s in spans {
            h.word(s.start as u64);
            h.word(s.end as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(rows: &[(u64, &[(usize, usize)])]) -> Vec<(SentenceId, Vec<Span>)> {
        rows.iter()
            .map(|(t, spans)| {
                let spans = spans.iter().map(|&(a, b)| Span::new(a, b)).collect();
                (SentenceId::new(*t, 0), spans)
            })
            .collect()
    }

    #[test]
    fn equal_outputs_equal_digests() {
        let a = out(&[(1, &[(0, 2)]), (2, &[])]);
        assert_eq!(spans_digest(&a), spans_digest(&a.clone()));
    }

    #[test]
    fn any_change_moves_the_digest() {
        let base = spans_digest(&out(&[(1, &[(0, 2)]), (2, &[(3, 4)])]));
        let variants = [
            // A span boundary.
            out(&[(1, &[(0, 1)]), (2, &[(3, 4)])]),
            // A sentence id.
            out(&[(1, &[(0, 2)]), (3, &[(3, 4)])]),
            // Stream order.
            out(&[(2, &[(3, 4)]), (1, &[(0, 2)])]),
            // A span moved to the other sentence.
            out(&[(1, &[(0, 2), (3, 4)]), (2, &[])]),
            // An extra empty sentence.
            out(&[(1, &[(0, 2)]), (2, &[(3, 4)]), (5, &[])]),
        ];
        for v in &variants {
            assert_ne!(spans_digest(v), base, "{v:?}");
        }
    }

    #[test]
    fn sentence_part_counts() {
        let a = vec![(SentenceId::new(1, 0), vec![Span::new(0, 1)])];
        let b = vec![(SentenceId::new(1, 1), vec![Span::new(0, 1)])];
        assert_ne!(spans_digest(&a), spans_digest(&b));
    }
}
