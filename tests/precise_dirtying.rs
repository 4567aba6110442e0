//! Precise dirtying: a newly registered candidate marks for rescan only
//! the stored sentences that contain its whole token sequence,
//! contiguously — the only sentences whose greedy longest-match
//! extraction it can change.
//!
//! * **Precision** — a late multi-token candidate rescans the one early
//!   sentence holding it, not every sentence holding its first token; a
//!   repeated-token candidate and a promoted candidate behave the same.
//! * **The dirty-set contract** — after every batch, every live,
//!   non-quarantined record outside the dirty set holds exactly the
//!   mentions a fresh extraction against the current CTrie finds.
//! * **Coverage** — `emd_finalize_rescan_coverage` reports distinct
//!   records rescanned over live records, never above 1.
//! * **At scale** (`#[ignore]`, run by `ci.sh` with `--ignored`) — the
//!   churn-window shape: incremental finalize equals the full rescan and
//!   only a small share of the window is dirty at close.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::mention::extract_mentions_into;
use emd_globalizer::core::{Ablation, EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::core::{GlobalizerOutput, PipelineMetrics};
use emd_globalizer::local::np_chunker::NpChunker;
use emd_globalizer::nn::param::Net;
use emd_globalizer::obs::Registry;
use emd_globalizer::synth::{gen_churn_stream, NoiseConfig, World, WorldConfig};
use emd_globalizer::text::casing::SyntacticClass;
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use proptest::prelude::*;
use std::collections::HashSet;

fn sents(msgs: &[&[&str]]) -> Vec<Sentence> {
    msgs.iter()
        .enumerate()
        .map(|(i, words)| {
            Sentence::from_tokens(SentenceId::new(i as u64, 0), words.iter().copied())
        })
        .collect()
}

/// A classifier biased hard enough to accept everything.
fn accept_all(in_dim: usize) -> EntityClassifier {
    let mut clf = EntityClassifier::new(in_dim, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

/// Proposes one fixed span in the last sentence of the stream and nothing
/// anywhere else, so its candidate is registered after every earlier
/// sentence has been scanned.
#[derive(Debug)]
struct LastOnly {
    tweet: u64,
    span: Span,
}

impl LocalEmd for LastOnly {
    fn name(&self) -> &str {
        "last-only"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        let spans = if s.id.tweet_id == self.tweet {
            vec![self.span]
        } else {
            vec![]
        };
        LocalEmdOutput {
            spans,
            token_embeddings: None,
        }
    }
}

/// Feed `stream` one sentence per batch; return the state before close.
fn one_by_one(g: &Globalizer, stream: &[Sentence]) -> GlobalizerState {
    let mut state = g.new_state();
    for s in stream {
        g.process_batch(&mut state, std::slice::from_ref(s));
    }
    state
}

/// Close `state` incrementally and by full rescan; the two must agree.
fn close_both(g: &Globalizer, mut state: GlobalizerState) -> GlobalizerOutput {
    let mut full_state = state.clone();
    let inc = g.finalize_with_threads(&mut state, 1);
    let full = g.finalize_full_rescan(&mut full_state);
    assert_eq!(inc.per_sentence, full.per_sentence);
    assert_eq!(inc.n_candidates, full.n_candidates);
    assert_eq!(inc.n_entities, full.n_entities);
    assert_eq!(inc.n_promoted, full.n_promoted);
    inc
}

#[test]
fn late_candidate_rescans_only_sentences_with_its_whole_sequence() {
    let local = LastOnly {
        tweet: 3,
        span: Span::new(0, 2),
    };
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = sents(&[
        &["andy", "smith", "spoke"],
        // Both tokens, but not adjacent: cannot match "andy beshear".
        &["beshear", "andy", "met"],
        &["gov", "andy", "beshear", "said"],
        &["Andy", "Beshear", "again"],
    ]);
    let state = one_by_one(&g, &stream);
    assert_eq!(state.n_dirty(), 1, "only the sentence holding the pair");
    assert!(state.is_dirty(2));
    let out = close_both(&g, state);
    assert_eq!(out.n_rescanned, 1);
    assert_eq!(
        out.per_sentence[2].1,
        vec![Span::new(1, 3)],
        "early mention recovered"
    );
    assert_eq!(out.per_sentence[3].1, vec![Span::new(0, 2)]);
    assert!(out.per_sentence[0].1.is_empty());
    assert!(out.per_sentence[1].1.is_empty());
}

#[test]
fn repeated_token_candidate_needs_the_repeat() {
    let local = LastOnly {
        tweet: 3,
        span: Span::new(0, 2),
    };
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = sents(&[
        // "new" twice, never adjacent.
        &["new", "york", "is", "new"],
        &["brand", "new", "new", "car"],
        &["new", "car"],
        &["New", "New", "again"],
    ]);
    let state = one_by_one(&g, &stream);
    assert_eq!(state.n_dirty(), 1);
    assert!(state.is_dirty(1));
    let out = close_both(&g, state);
    assert_eq!(out.n_rescanned, 1);
    assert_eq!(out.per_sentence[1].1, vec![Span::new(1, 3)]);
    assert!(out.per_sentence[0].1.is_empty());
    assert!(out.per_sentence[2].1.is_empty());
}

#[test]
fn promotion_dirties_exactly_the_sentences_holding_the_pair() {
    // The fragments are registered in the first batch, so every sentence
    // is scanned in its own batch and nothing is dirty at close. The
    // promoted "moross lumsa" then rescans the three sentences holding
    // the adjacent pair: not the reversed pair, not "moross" alone.
    let local = LexiconEmd::new(["moross", "lumsa"]);
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = sents(&[
        &["Moross", "Lumsa", "quarantined"],
        &["Lumsa", "Moross", "reversed"],
        &["cases", "at", "Moross", "Lumsa", "rise"],
        &["Moross", "alone"],
        &["Moross", "Lumsa", "closed"],
    ]);
    let state = one_by_one(&g, &stream);
    assert_eq!(state.n_dirty(), 0);
    let out = close_both(&g, state);
    assert_eq!(out.n_promoted, 1);
    assert_eq!(out.n_rescanned, 3);
    assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 2)]);
    assert_eq!(
        out.per_sentence[1].1,
        vec![Span::new(0, 1), Span::new(1, 2)]
    );
    assert_eq!(out.per_sentence[2].1, vec![Span::new(2, 4)]);
    assert_eq!(out.per_sentence[3].1, vec![Span::new(0, 1)]);
    assert_eq!(out.per_sentence[4].1, vec![Span::new(0, 2)]);
}

#[test]
fn rescan_coverage_counts_distinct_records() {
    // The fragments are detected only in the last sentence, so the three
    // earlier ones are dirty at close and rescanned in the first round;
    // the promotion then rescans all four again. Seven scans of four
    // records: the scan count exceeds the window, the coverage does not.
    #[derive(Debug)]
    struct LastFragments;
    impl LocalEmd for LastFragments {
        fn name(&self) -> &str {
            "last-fragments"
        }
        fn embedding_dim(&self) -> Option<usize> {
            None
        }
        fn process(&self, s: &Sentence) -> LocalEmdOutput {
            let spans = if s.id.tweet_id == 3 {
                vec![Span::new(0, 1), Span::new(1, 2)]
            } else {
                vec![]
            };
            LocalEmdOutput {
                spans,
                token_embeddings: None,
            }
        }
    }
    emd_globalizer::obs::set_enabled(true);
    let local = LastFragments;
    let clf = accept_all(7);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let reg = Registry::new();
    g.set_metrics(PipelineMetrics::from_registry(&reg));
    let stream = sents(&[
        &["Moross", "Lumsa", "quarantined"],
        &["cases", "at", "Moross", "Lumsa", "rise"],
        &["Moross", "Lumsa", "closed"],
        &["Moross", "Lumsa", "again"],
    ]);
    let mut state = one_by_one(&g, &stream);
    assert_eq!(state.n_dirty(), 3);
    let out = g.finalize_with_threads(&mut state, 1);
    assert_eq!(out.n_promoted, 1);
    assert_eq!(out.n_rescanned, 7, "a scan count: one per record per round");
    let snap = g.metrics().snapshot();
    assert_eq!(snap.counter("emd_finalize_rescan_sentences_total"), Some(7));
    let coverage = snap.gauge("emd_finalize_rescan_coverage").unwrap();
    assert_eq!(coverage, 1.0, "4 distinct records of 4 live, not 7 / 4");
}

// ---------------------------------------------------------------------
// The dirty-set contract.

const WORDS: [&str; 8] = [
    "andy", "beshear", "new", "york", "covid", "cases", "the", "again",
];

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Proposes non-overlapping spans of one to three tokens at positions a
/// hash of (sentence, position) picks: multi-token candidates registered
/// at arbitrary points of the stream, over a vocabulary small enough that
/// their tokens recur elsewhere, adjacent or not.
#[derive(Debug)]
struct HashSpans;

impl LocalEmd for HashSpans {
    fn name(&self) -> &str {
        "hash-spans"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        let n = s.tokens.len();
        let mut spans = Vec::new();
        let mut j = 0;
        while j < n {
            let h = mix(s.id.tweet_id.wrapping_mul(64).wrapping_add(j as u64));
            if h.is_multiple_of(4) {
                let len = (1 + (h >> 8) as usize % 3).min(n - j);
                spans.push(Span::new(j, j + len));
                j += len;
            } else {
                j += 1;
            }
        }
        LocalEmdOutput {
            spans,
            token_embeddings: None,
        }
    }
}

/// Every live, non-quarantined record outside the dirty set holds exactly
/// what a fresh extraction against the current CTrie finds.
fn assert_clean_records_current(state: &GlobalizerState, max_len: usize, when: &str) {
    let quarantined: HashSet<usize> = state
        .quarantined
        .iter()
        .filter_map(|q| state.tweetbase.index_of(q.sid))
        .collect();
    let mut fresh = Vec::new();
    for (idx, rec) in state.tweetbase.iter_indexed() {
        if state.is_dirty(idx) || quarantined.contains(&idx) {
            continue;
        }
        extract_mentions_into(&state.ctrie, &rec.tok_syms, max_len, &mut fresh);
        assert_eq!(
            rec.global_mentions, fresh,
            "{when}: clean record {idx} ({:?}) is stale",
            rec.sentence.id
        );
    }
}

proptest! {
    /// The contract precise dirtying relies on, checked after every
    /// batch and after the close, for any stream, batch schedule, window
    /// (or none) and either global ablation.
    #[test]
    fn clean_records_match_a_fresh_extraction(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..9), 1..30),
        batch in 1usize..6,
        window in 0usize..10,
        full in 0usize..2,
    ) {
        let stream: Vec<Sentence> = msgs
            .iter()
            .enumerate()
            .map(|(i, ws)| {
                Sentence::from_tokens(SentenceId::new(i as u64, 0), ws.iter().map(|&w| WORDS[w]))
            })
            .collect();
        let cfg = GlobalizerConfig {
            ablation: if full == 1 { Ablation::Full } else { Ablation::MentionExtraction },
            window: WindowConfig::sliding(window),
            ..Default::default()
        };
        let max_len = cfg.max_candidate_len;
        let local = HashSpans;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, cfg);
        let mut state = g.new_state();
        for (b, chunk) in stream.chunks(batch).enumerate() {
            g.process_batch(&mut state, chunk);
            assert_clean_records_current(&state, max_len, &format!("after batch {b}"));
        }
        g.finalize_with_threads(&mut state, 1);
        prop_assert_eq!(state.n_dirty(), 0);
        assert_clean_records_current(&state, max_len, "after finalize");
    }
}

// ---------------------------------------------------------------------
// At scale.

/// The churn-window shape: world seed 99, churn stream, NP chunker with
/// an accept-all classifier, a 20k sliding window and batches of 512 over
/// 20k + 16,384 sentences. Incremental finalize must equal the full
/// rescan, and precise dirtying must leave at most 15% of the window
/// dirty at close (dirtying by first token alone leaves ~97%).
#[test]
#[ignore = "production scale: run with --release -- --ignored"]
fn churn_window_scale_finalize_matches_full_rescan() {
    const WINDOW: usize = 20_000;
    let world = World::generate(&WorldConfig {
        seed: 99,
        ..Default::default()
    });
    let stream: Vec<Sentence> = gen_churn_stream(
        &world,
        WINDOW + 16_384,
        5_000,
        "churn",
        &NoiseConfig::default(),
        3,
    )
    .sentences
    .into_iter()
    .map(|a| a.sentence)
    .collect();
    let chunker = NpChunker::new();
    let mut clf = EntityClassifier::new(SyntacticClass::COUNT + 1, 99);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 10.0;
    let g = Globalizer::new(
        &chunker,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(WINDOW),
            ..Default::default()
        },
    );
    let mut state = g.new_state();
    for chunk in stream.chunks(512) {
        g.process_batch(&mut state, chunk);
    }
    assert_eq!(state.tweetbase.len(), WINDOW);
    let dirty = state.n_dirty();
    assert!(
        dirty * 100 <= WINDOW * 15,
        "{dirty} of {WINDOW} records dirty at close"
    );
    let mut full_state = state.clone();
    let inc = g.finalize_with_threads(&mut state, 1);
    let full = g.finalize_full_rescan(&mut full_state);
    assert_eq!(inc.per_sentence, full.per_sentence);
    assert_eq!(inc.n_candidates, full.n_candidates);
    assert_eq!(inc.n_entities, full.n_entities);
    assert!(inc.n_rescanned < full.n_rescanned);
}
