//! Shared corpus-preparation helpers for training Local EMD systems.

use emd_text::normalize;
use emd_text::token::{Bio, Dataset};
use emd_text::vocab::Vocab;

/// Build a lower-cased, normalized word vocabulary from a dataset, pruned
/// to `min_freq`.
pub fn build_word_vocab(dataset: &Dataset, min_freq: u64) -> Vocab {
    let mut v = Vocab::new(true);
    for s in &dataset.sentences {
        for t in s.sentence.texts() {
            v.add(&normalize::normalize_token(t));
        }
    }
    v.pruned(min_freq)
}

/// Build a character vocabulary (single-char strings) from a dataset.
pub fn build_char_vocab(dataset: &Dataset) -> Vocab {
    let mut v = Vocab::new(false);
    for s in &dataset.sentences {
        for t in s.sentence.texts() {
            for c in t.chars() {
                v.add(c.encode_utf8(&mut [0; 4]));
            }
        }
    }
    v
}

/// Append the ids of a word's characters in a char vocabulary to `out`.
/// The vocabulary from [`build_char_vocab`] does not fold case, so the
/// lookups do not allocate.
pub fn encode_chars(vocab: &Vocab, word: &str, out: &mut Vec<u32>) {
    out.extend(word.chars().map(|c| vocab.get(c.encode_utf8(&mut [0; 4]))));
}

/// Per-sentence gold BIO label indices for the whole dataset.
pub fn gold_labels(dataset: &Dataset) -> Vec<Vec<usize>> {
    dataset
        .sentences
        .iter()
        .map(|s| s.gold_bio().iter().map(|b| b.index()).collect())
        .collect()
}

/// Sanity helper: label count matches [`Bio::COUNT`].
pub const N_LABELS: usize = Bio::COUNT;

#[cfg(test)]
mod tests {
    use super::*;
    use emd_text::token::{AnnotatedSentence, DatasetKind, Sentence, SentenceId, Span};

    fn toy() -> Dataset {
        let s = AnnotatedSentence {
            sentence: Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "Italy", "x"]),
            gold: vec![Span::new(0, 1), Span::new(1, 2)],
        };
        Dataset {
            name: "t".into(),
            kind: DatasetKind::Streaming,
            n_topics: 1,
            sentences: vec![s],
        }
    }

    #[test]
    fn word_vocab_normalizes_and_prunes() {
        let v = build_word_vocab(&toy(), 2);
        assert_ne!(v.get("italy"), emd_text::vocab::UNK);
        assert_eq!(v.get("x"), emd_text::vocab::UNK, "freq-1 token pruned");
    }

    #[test]
    fn char_vocab_and_encoding() {
        let v = build_char_vocab(&toy());
        let mut ids = Vec::new();
        encode_chars(&v, "Ix", &mut ids);
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&i| i != emd_text::vocab::UNK));
        encode_chars(&v, "Z", &mut ids);
        assert_eq!(ids[2], emd_text::vocab::UNK);
    }

    #[test]
    fn gold_labels_shape() {
        let g = gold_labels(&toy());
        assert_eq!(g, vec![vec![0, 0, 2]]); // B B O
    }
}
