//! Semantic contracts of the framework, tested against adversarial toy
//! local systems (distinct from the unit tests inside the modules).

use emd_core::classifier::CandidateLabel;
use emd_core::config::{Ablation, Pooling};
use emd_core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_nn::param::Net;
use emd_text::token::{Sentence, SentenceId, Span};

fn sents(msgs: &[&[&str]]) -> Vec<Sentence> {
    msgs.iter()
        .enumerate()
        .map(|(i, w)| Sentence::from_tokens(SentenceId::new(i as u64, 0), w.iter().copied()))
        .collect()
}

fn biased_classifier(dim: usize, bias: f32) -> EntityClassifier {
    let mut c = EntityClassifier::new(dim, 0);
    c.params_mut().into_iter().last().unwrap().value.data[0] = bias;
    c
}

/// A local system that emits spans past the sentence end — the framework
/// must not panic and must not leak invalid spans into the CTrie.
#[derive(Debug)]
struct OutOfRangeEmd;
impl LocalEmd for OutOfRangeEmd {
    fn name(&self) -> &str {
        "out-of-range"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        LocalEmdOutput {
            spans: vec![Span::new(0, s.len() + 3)],
            token_embeddings: None,
        }
    }
}

#[test]
fn invalid_local_spans_are_ignored() {
    let local = OutOfRangeEmd;
    let clf = biased_classifier(7, 10.0);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let (out, state) = g.run(&sents(&[&["a", "b"], &["c"]]), 8);
    assert_eq!(
        state.ctrie.len(),
        0,
        "oversized spans must not register candidates"
    );
    let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, 0);
}

/// A local system emitting spans longer than `max_candidate_len` — they
/// must be excluded from the trie.
#[derive(Debug)]
struct LongSpanEmd;
impl LocalEmd for LongSpanEmd {
    fn name(&self) -> &str {
        "long-span"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        let spans = if s.len() >= 5 {
            vec![Span::new(0, 5)]
        } else {
            vec![]
        };
        LocalEmdOutput {
            spans,
            token_embeddings: None,
        }
    }
}

#[test]
fn max_candidate_len_enforced() {
    let local = LongSpanEmd;
    let clf = biased_classifier(7, 10.0);
    let cfg = GlobalizerConfig {
        max_candidate_len: 3,
        ..Default::default()
    };
    let g = Globalizer::new(&local, None, &clf, cfg);
    let (_, state) = g.run(&sents(&[&["a", "b", "c", "d", "e"]]), 8);
    assert!(state.ctrie.is_empty());
}

#[test]
fn empty_stream_is_fine() {
    let local = LexiconEmd::new(["x"]);
    let clf = biased_classifier(7, 10.0);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let (out, state) = g.run(&[], 8);
    assert!(out.per_sentence.is_empty());
    assert_eq!(out.n_candidates, 0);
    assert!(state.tweetbase.is_empty());
}

#[test]
fn finalize_is_idempotent() {
    let local = LexiconEmd::new(["italy"]);
    let clf = biased_classifier(7, 10.0);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = sents(&[&["Italy", "x"], &["italy", "y"]]);
    let mut state = g.new_state();
    g.process_batch(&mut state, &stream);
    let a = g.finalize(&mut state);
    let b = g.finalize(&mut state);
    assert_eq!(a.per_sentence, b.per_sentence);
    assert_eq!(a.n_entities, b.n_entities);
}

#[test]
fn candidate_scores_exposed_after_full_run() {
    let local = LexiconEmd::new(["italy", "the"]);
    let clf = biased_classifier(7, -10.0); // reject everything
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let (_, state) = g.run(&sents(&[&["the", "Italy", "story"]]), 8);
    for c in state.candidates.iter() {
        let p = c.score.expect("scored at finalize");
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(c.label, CandidateLabel::NonEntity);
    }
}

#[test]
fn trust_local_fallback_changes_gamma_band_only() {
    // A classifier pinned into the γ band: sigmoid(logit)=0.5 everywhere
    // (zero weights). With fallback, locally-detected candidates are
    // accepted; without, final_threshold=0.5 accepts them as well
    // (p==0.5); raise the threshold to separate the two behaviours.
    let local = LexiconEmd::new(["italy"]);
    let clf = EntityClassifier::new(7, 1); // near-zero logits ≈ 0.5
    let stream = sents(&[&["Italy", "x"]]);
    let run = |trust: bool| {
        let cfg = GlobalizerConfig {
            final_threshold: 0.9,
            trust_local_fallback: trust,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let (out, _) = g.run(&stream, 8);
        out.per_sentence[0].1.len()
    };
    assert_eq!(
        run(true),
        1,
        "fallback accepts the locally-detected candidate"
    );
    assert_eq!(
        run(false),
        0,
        "without fallback the high threshold rejects it"
    );
}

#[test]
fn pooling_modes_agree_for_single_mention() {
    use emd_core::candidatebase::CandidateBase;
    let mut cb = CandidateBase::new(3);
    let id = cb.discover(&[0]);
    let r = cb.get_mut(id);
    r.add_mention(&[0.3, -0.2, 0.9], true);
    assert_eq!(
        r.pooled_embedding(Pooling::Mean),
        r.pooled_embedding(Pooling::Max)
    );
}

#[test]
fn mention_counts_distinguish_local_vs_recovered() {
    // Case-sensitive local system: only "Italy" detected locally; the
    // lowercase mention is recovered, flagged locally_detected=false.
    #[derive(Debug)]
    struct CaseSensitive;
    impl LocalEmd for CaseSensitive {
        fn name(&self) -> &str {
            "cs"
        }
        fn embedding_dim(&self) -> Option<usize> {
            None
        }
        fn process(&self, s: &Sentence) -> LocalEmdOutput {
            let spans = s
                .texts()
                .enumerate()
                .filter(|(_, t)| *t == "Italy")
                .map(|(i, _)| Span::new(i, i + 1))
                .collect();
            LocalEmdOutput {
                spans,
                token_embeddings: None,
            }
        }
    }
    let local = CaseSensitive;
    let clf = biased_classifier(7, 10.0);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let (_, state) = g.run(&sents(&[&["Italy", "x"], &["italy", "y"]]), 8);
    let rec = state
        .candidates
        .get(state.candidate_id("italy").unwrap())
        .unwrap();
    assert_eq!(rec.locally_detected_frequency(), 1);
    assert_eq!(rec.frequency(), 2);
}

#[test]
fn local_only_never_builds_global_state() {
    let local = LexiconEmd::new(["italy"]);
    let clf = biased_classifier(7, 10.0);
    let cfg = GlobalizerConfig {
        ablation: Ablation::LocalOnly,
        ..Default::default()
    };
    let g = Globalizer::new(&local, None, &clf, cfg);
    let (_, state) = g.run(&sents(&[&["Italy", "italy"]]), 8);
    assert!(state.candidates.is_empty());
}
