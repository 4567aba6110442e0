//! The Local EMD plug-in interface.
//!
//! Any EMD system that processes sentences individually can be inserted into
//! the framework by implementing [`LocalEmd`] — without algorithmic
//! modification, exactly as the paper requires ("inserted as blackbox within
//! the framework without any technical alteration").

use emd_nn::matrix::Matrix;
use emd_text::token::{Sentence, Span};

/// The result of running a Local EMD system on one sentence.
#[derive(Debug, Clone)]
pub struct LocalEmdOutput {
    /// Predicted entity-mention spans.
    pub spans: Vec<Span>,
    /// For deep systems: the `[T, d]` entity-aware token embeddings from the
    /// final pre-classification layer (§IV). `None` for non-deep systems.
    pub token_embeddings: Option<Matrix>,
}

/// A pluggable Local EMD system.
///
/// `Send + Sync` is required because the framework fans sentence
/// processing out across threads: [`crate::globalizer::Globalizer::process_batch`]
/// calls [`LocalEmd::process`] concurrently from the caller thread and
/// its scoped workers, in no fixed order across shards. Inference is
/// `&self` and every provided implementation is plain data; an
/// implementation with interior state must not make its output depend
/// on call order.
///
/// ## Boundary contract
///
/// The framework treats implementations as **untrusted black boxes** and
/// hardens the boundary once, at ingestion:
///
/// * **Spans** may be empty, out of bounds, overlapping, or unsorted —
///   ingestion sorts them and drops invalid or overlapping entries. They
///   never reach `LocalOnly` outputs, candidate registration, or
///   `locally_detected` evidence.
/// * **Token embeddings**, when present, must have one row per token and
///   finite values; otherwise the whole sentence is rejected (a truncated
///   or NaN-poisoned matrix cannot be partially trusted) and diverted to
///   the quarantine buffer on
///   [`crate::globalizer::GlobalizerOutput::quarantined`].
/// * **Panics** in [`LocalEmd::process`] are caught per sentence, retried
///   within [`crate::config::GlobalizerConfig::poison_retries`], and
///   quarantine the sentence when the budget is exhausted — one poisoned
///   input never aborts a batch or leaks worker threads.
///
/// Implementations therefore need no defensive validation of their own
/// output; conversely they must not rely on invalid spans being emitted.
pub trait LocalEmd: Send + Sync {
    /// Human-readable system name. Used in reports, and stamped into
    /// `LocalDetect` / local-phase `PhaseSpan` trace events
    /// (`emd_trace`) as the `system` causal field, so a provenance chain
    /// shows *which* local system proposed each span.
    fn name(&self) -> &str;

    /// Dimensionality of the entity-aware token embeddings, or `None` for
    /// non-deep systems (which fall back to syntactic embeddings in the
    /// global phase).
    fn embedding_dim(&self) -> Option<usize>;

    /// Run EMD on a single sentence in isolation.
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput;

    /// Convenience: is this a deep system?
    fn is_deep(&self) -> bool {
        self.embedding_dim().is_some()
    }
}

/// A trivial Local EMD used in tests and docs: tags tokens that appear in a
/// fixed lexicon (case-insensitively), no embeddings.
#[derive(Debug, Clone, Default)]
pub struct LexiconEmd {
    /// Lower-cased single-token entries.
    pub lexicon: std::collections::HashSet<String>,
}

impl LexiconEmd {
    /// Build from an iterator of entries.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(entries: I) -> Self {
        LexiconEmd {
            lexicon: entries
                .into_iter()
                .map(|s| s.into().to_lowercase())
                .collect(),
        }
    }
}

impl LocalEmd for LexiconEmd {
    fn name(&self) -> &str {
        "LexiconEmd"
    }

    fn embedding_dim(&self) -> Option<usize> {
        None
    }

    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let spans = sentence
            .texts()
            .enumerate()
            .filter(|(_, t)| self.lexicon.contains(&t.to_lowercase()))
            .map(|(i, _)| Span::new(i, i + 1))
            .collect();
        LocalEmdOutput {
            spans,
            token_embeddings: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_text::token::SentenceId;

    #[test]
    fn lexicon_emd_tags_case_insensitively() {
        let emd = LexiconEmd::new(["Italy", "covid"]);
        let s = Sentence::from_tokens(SentenceId::new(0, 0), ["COVID", "hits", "italy"]);
        let out = emd.process(&s);
        assert_eq!(out.spans, vec![Span::new(0, 1), Span::new(2, 3)]);
        assert!(out.token_embeddings.is_none());
        assert!(!emd.is_deep());
    }
}
