//! Classifier training-data harvesting (§VI, "Training Entity Classifier").
//!
//! The Entity Classifier is supervised with labelled global-embedding
//! records of candidates extracted from the D5 training stream: run the
//! Local EMD system plus the global indexing stages over D5, then label
//! each discovered candidate *entity* iff its (case-insensitive) surface
//! matches a gold mention surface in the stream.

use crate::classifier::EntityClassifier;
use crate::config::GlobalizerConfig;
use crate::globalizer::index_stream;
use crate::local::LocalEmd;
use crate::phrase_embedder::PhraseEmbedder;
use emd_text::token::Dataset;
use std::collections::HashSet;

/// Harvest `(features, is_entity)` records for classifier training from an
/// annotated stream.
pub fn harvest_training_data(
    local: &dyn LocalEmd,
    phrase: Option<&PhraseEmbedder>,
    config: &GlobalizerConfig,
    dataset: &Dataset,
) -> Vec<(Vec<f32>, bool)> {
    let sentences: Vec<_> = dataset
        .sentences
        .iter()
        .map(|a| a.sentence.clone())
        .collect();
    let state = index_stream(local, phrase, config, &sentences);

    // Gold surface keys (case-insensitive).
    let gold: HashSet<String> = dataset
        .sentences
        .iter()
        .flat_map(|a| a.gold.iter().map(|sp| sp.surface_lower(&a.sentence)))
        .collect();

    let interner = state.tweetbase.interner();
    let mut out: Vec<(Vec<f32>, bool)> = Vec::new();
    for rec in state.candidates.iter() {
        let label = gold.contains(&interner.join(&rec.syms));
        out.push((
            EntityClassifier::features(&rec.pooled_embedding(config.pooling), rec.token_len()),
            label,
        ));
        // Evaluation streams contain many single-mention candidates whose
        // "global" embedding is one local sample; expose the classifier to
        // that regime by also training on up to 3 singleton embeddings.
        for emb in rec.local_rows().take(3) {
            out.push((EntityClassifier::features(emb, rec.token_len()), label));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LexiconEmd;
    use emd_text::token::{AnnotatedSentence, DatasetKind, Sentence, SentenceId, Span};

    fn dataset() -> Dataset {
        let s1 = AnnotatedSentence {
            sentence: Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "reports", "cases"]),
            gold: vec![Span::new(0, 1)],
        };
        let s2 = AnnotatedSentence {
            sentence: Sentence::from_tokens(
                SentenceId::new(1, 0),
                ["the", "report", "from", "italy"],
            ),
            gold: vec![Span::new(3, 4)],
        };
        Dataset {
            name: "toy".into(),
            kind: DatasetKind::Streaming,
            n_topics: 1,
            sentences: vec![s1, s2],
        }
    }

    #[test]
    fn harvested_labels_follow_gold() {
        // The lexicon proposes both a true entity ("italy") and a false
        // positive ("the").
        let local = LexiconEmd::new(["italy", "the"]);
        let data = harvest_training_data(&local, None, &GlobalizerConfig::default(), &dataset());
        // 2 candidates, each with a pooled row plus singleton-mention rows.
        assert!(data.len() >= 2);
        // Features = 6-dim syntactic + length.
        assert!(data.iter().all(|(f, _)| f.len() == 7));
        let n_pos = data.iter().filter(|(_, y)| *y).count();
        assert!(n_pos >= 1, "italy rows are positive");
        assert!(
            n_pos < data.len(),
            "the false candidate contributes negatives"
        );
    }

    #[test]
    fn empty_local_emd_harvests_nothing() {
        let local = LexiconEmd::new(Vec::<String>::new());
        let data = harvest_training_data(&local, None, &GlobalizerConfig::default(), &dataset());
        assert!(data.is_empty());
    }
}
