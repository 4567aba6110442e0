//! Error taxonomy of §VI-C.
//!
//! The paper decomposes the framework's misses into:
//!
//! 1. **Unrecoverable**: the Local EMD system missed *every* mention of an
//!    entity, so the entity never became a candidate — all its mentions are
//!    lost (the paper: 3008 of 11412 mentions, 26.35%, for BERTweet).
//! 2. **Classifier false negatives**: the entity became a candidate, but
//!    the Entity Classifier rejected it — losing even the mentions Local
//!    EMD had found (469 mentions, 4.1%).

use emd_core::classifier::CandidateLabel;
use emd_core::globalizer::GlobalizerState;
use emd_text::token::Dataset;
use std::collections::HashMap;

/// §VI-C error decomposition.
#[derive(Debug, Clone, Default)]
pub struct ErrorBreakdown {
    /// Total gold mentions.
    pub total_mentions: usize,
    /// Total unique gold entities.
    pub total_entities: usize,
    /// Entities with no candidate in the CandidateBase (local EMD missed
    /// every mention).
    pub entities_never_candidate: usize,
    /// Gold mentions belonging to those entities (unrecoverable).
    pub mentions_unrecoverable: usize,
    /// Gold entities that became candidates but were rejected by the
    /// classifier.
    pub entities_classifier_fn: usize,
    /// Gold mentions lost to classifier false negatives.
    pub mentions_classifier_fn: usize,
}

impl ErrorBreakdown {
    /// Fraction of mentions unrecoverable because local EMD missed the
    /// entity entirely.
    pub fn unrecoverable_rate(&self) -> f64 {
        if self.total_mentions == 0 {
            0.0
        } else {
            self.mentions_unrecoverable as f64 / self.total_mentions as f64
        }
    }

    /// Fraction of mentions lost to classifier false negatives.
    pub fn classifier_fn_rate(&self) -> f64 {
        if self.total_mentions == 0 {
            0.0
        } else {
            self.mentions_classifier_fn as f64 / self.total_mentions as f64
        }
    }
}

/// Decompose the framework's errors on a dataset given the closing
/// pipeline state.
pub fn analyze(dataset: &Dataset, state: &GlobalizerState) -> ErrorBreakdown {
    let mut gold_freq: HashMap<String, usize> = HashMap::new();
    for ann in &dataset.sentences {
        for sp in &ann.gold {
            *gold_freq
                .entry(sp.surface_lower(&ann.sentence))
                .or_insert(0) += 1;
        }
    }
    let mut out = ErrorBreakdown {
        total_mentions: gold_freq.values().sum(),
        total_entities: gold_freq.len(),
        ..Default::default()
    };
    for (key, freq) in &gold_freq {
        match state
            .candidate_id(key)
            .and_then(|id| state.candidates.get(id))
        {
            None => {
                out.entities_never_candidate += 1;
                out.mentions_unrecoverable += freq;
            }
            Some(rec) if rec.label == CandidateLabel::NonEntity => {
                out.entities_classifier_fn += 1;
                out.mentions_classifier_fn += freq;
            }
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::globalizer::index_stream;
    use emd_core::local::LexiconEmd;
    use emd_core::GlobalizerConfig;
    use emd_text::token::{AnnotatedSentence, DatasetKind, Sentence, SentenceId, Span};

    /// The pipeline state over `d` with `alpha` and `beta` as candidates.
    fn state(d: &Dataset) -> GlobalizerState {
        let sentences: Vec<Sentence> = d.sentences.iter().map(|a| a.sentence.clone()).collect();
        let local = LexiconEmd::new(["alpha", "beta"]);
        index_stream(&local, None, &GlobalizerConfig::default(), &sentences)
    }

    fn ds() -> Dataset {
        let mk = |id: u64, w: &str| AnnotatedSentence {
            sentence: Sentence::from_tokens(SentenceId::new(id, 0), [w, "x"]),
            gold: vec![Span::new(0, 1)],
        };
        Dataset {
            name: "t".into(),
            kind: DatasetKind::Streaming,
            n_topics: 1,
            sentences: vec![
                mk(0, "alpha"),
                mk(1, "alpha"),
                mk(2, "beta"),
                mk(3, "gamma"),
            ],
        }
    }

    #[test]
    fn decomposition() {
        let d = ds();
        let mut st = state(&d);
        // alpha: accepted entity; beta: classifier FN; gamma: never a candidate.
        for (key, label) in [
            ("alpha", CandidateLabel::Entity),
            ("beta", CandidateLabel::NonEntity),
        ] {
            let id = st.candidate_id(key).unwrap();
            st.candidates.get_mut(id).label = label;
        }
        let e = analyze(&d, &st);
        assert_eq!(e.total_mentions, 4);
        assert_eq!(e.total_entities, 3);
        assert_eq!(e.entities_never_candidate, 1);
        assert_eq!(e.mentions_unrecoverable, 1);
        assert_eq!(e.entities_classifier_fn, 1);
        assert_eq!(e.mentions_classifier_fn, 1);
        assert!((e.unrecoverable_rate() - 0.25).abs() < 1e-9);
        assert!((e.classifier_fn_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_everything() {
        let d = Dataset {
            name: "e".into(),
            kind: DatasetKind::Streaming,
            n_topics: 0,
            sentences: vec![],
        };
        let e = analyze(&d, &state(&d));
        assert_eq!(e.unrecoverable_rate(), 0.0);
    }
}
