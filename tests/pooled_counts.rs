//! One fact in one place: a candidate keeps counts, the sentence records
//! keep the mentions.
//!
//! * **A span that leaves and comes back** — greedy longest-match can drop
//!   a pooled span from a sentence's extraction and later bring it back;
//!   the record's `retired` list keeps it from being pooled twice.
//! * **A re-delivered sentence** replaces its record, which inherits the
//!   pooled spans, so its mentions are not counted twice.
//! * **Counters agree with records** — after every batch (and after every
//!   interim or final close), each candidate's frequency is the number of distinct
//!   `(sentence, span)` pairs with its surface across the live records'
//!   `global_mentions` and `retired`, and its locally detected frequency
//!   counts the ones among them the local system proposed. With a window,
//!   evicted sentences keep counting, so the counters are at least that.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{Ablation, EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::nn::param::Net;
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use proptest::prelude::*;
use std::collections::HashMap;

/// A classifier biased hard enough to accept everything.
fn accept_all() -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

/// Proposes a fixed list of spans per tweet id.
#[derive(Debug)]
struct Scripted(HashMap<u64, Vec<Span>>);

impl LocalEmd for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        LocalEmdOutput {
            spans: self.0.get(&s.id.tweet_id).cloned().unwrap_or_default(),
            token_embeddings: None,
        }
    }
}

/// The CTrie {a, b c, c d, d e} extracts `a b c d e` as [a][b c][d e].
/// Adding `a b` turns it into [a b][c d]; adding `a b c` into
/// [a b c][d e], so `d e` comes back. It was pooled once, on the first
/// scan, and must not be pooled again.
#[test]
fn span_that_leaves_and_comes_back_is_pooled_once() {
    let target = 3u64;
    let whole = |n: usize| vec![Span::new(0, n)];
    let local = Scripted(HashMap::from([
        (0, whole(1)),                   // "a"
        (1, whole(2)),                   // "b c"
        (2, whole(2)),                   // "c d"
        (target, vec![Span::new(3, 5)]), // "d e", only ever seen here
        (4, whole(2)),                   // "a b"
        (5, whole(3)),                   // "a b c"
    ]));
    let text: [&[&str]; 6] = [
        &["a"],
        &["b", "c"],
        &["c", "d"],
        &["a", "b", "c", "d", "e"],
        &["a", "b"],
        &["a", "b", "c"],
    ];
    let stream: Vec<Sentence> = text
        .iter()
        .enumerate()
        .map(|(i, w)| Sentence::from_tokens(SentenceId::new(i as u64, 0), w.iter().copied()))
        .collect();
    let clf = accept_all();
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let sid = SentenceId::new(target, 0);
    let spans = |s: &GlobalizerState| {
        let rec = s.tweetbase.get(sid).unwrap();
        (rec.global_mentions.clone(), rec.retired.clone())
    };

    let mut state = g.new_state();
    g.process_batch(&mut state, &stream[..4]);
    let order: Vec<String> = state
        .candidates
        .entries()
        .map(|(id, _)| state.candidate_key(id))
        .collect();
    assert_eq!(order, ["a", "b c", "c d", "d e"], "registration order");
    assert_eq!(
        spans(&state),
        (
            vec![Span::new(0, 1), Span::new(1, 3), Span::new(3, 5)],
            vec![]
        )
    );

    // `a b` dirties the target; an interim close rescans it.
    g.process_batch(&mut state, &stream[4..5]);
    g.finalize_with_threads(&mut state, 1);
    assert_eq!(
        spans(&state),
        (
            vec![Span::new(0, 2), Span::new(2, 4)],
            vec![Span::new(0, 1), Span::new(1, 3), Span::new(3, 5)]
        )
    );

    // `a b c` brings `d e` back.
    g.process_batch(&mut state, &stream[5..]);
    let mut full = state.clone();
    let inc = g.finalize_with_threads(&mut state, 1);
    let brute = g.finalize_full_rescan(&mut full);
    assert_eq!(inc.per_sentence, brute.per_sentence);
    assert_eq!(inc.n_candidates, brute.n_candidates);
    for s in [&state, &full] {
        assert_eq!(
            spans(s),
            (
                vec![Span::new(0, 3), Span::new(3, 5)],
                vec![
                    Span::new(0, 1),
                    Span::new(1, 3),
                    Span::new(0, 2),
                    Span::new(2, 4)
                ]
            )
        );
        let de = s.candidates.get(s.candidate_id("d e").unwrap()).unwrap();
        assert_eq!(de.frequency(), 1, "`d e` was pooled again");
        assert_eq!(de.n_pooled(), 1);
        assert_eq!(de.locally_detected_frequency(), 1);
    }
    for ((ia, a), (ib, b)) in state.candidates.entries().zip(full.candidates.entries()) {
        assert_eq!(state.candidate_key(ia), full.candidate_key(ib));
        assert_eq!(a.frequency(), b.frequency());
        assert_eq!(a.global_embedding(), b.global_embedding());
    }
}

/// A sentence delivered twice replaces its record; the replacement
/// inherits what the first copy pooled, so nothing is counted twice.
#[test]
fn redelivered_sentence_is_not_pooled_twice() {
    let local = Scripted(HashMap::from([(0, vec![Span::new(0, 1)])]));
    let clf = accept_all();
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let s = Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "news", "italy"]);
    let mut state = g.new_state();
    g.process_batch(&mut state, std::slice::from_ref(&s));
    g.process_batch(&mut state, std::slice::from_ref(&s));
    let italy = state
        .candidates
        .get(state.candidate_id("italy").unwrap())
        .unwrap();
    assert_eq!(
        (italy.frequency(), italy.locally_detected_frequency()),
        (2, 1)
    );
    assert_eq!(state.tweetbase.len(), 1);
}

const WORDS: [&str; 4] = ["a", "b", "c", "d"];

/// Proposes non-overlapping spans whose lengths depend on the word and
/// the tweet id, so multi-token candidates of every length get registered
/// in a stream-dependent order and later ones reshape earlier extractions.
#[derive(Debug)]
struct Chunky;

impl LocalEmd for Chunky {
    fn name(&self) -> &str {
        "chunky"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        let mut spans = Vec::new();
        let mut i = 0;
        while i < s.len() {
            let w = WORDS
                .iter()
                .position(|&w| w == s.tokens[i].text)
                .unwrap_or(0);
            if w % 2 == 1 {
                i += 1;
                continue;
            }
            let end = (i + 1 + (w + s.id.tweet_id as usize) % 3).min(s.len());
            spans.push(Span::new(i, end));
            i = end;
        }
        LocalEmdOutput {
            spans,
            token_embeddings: None,
        }
    }
}

/// `(mentions, locally detected)` per surface over the live records'
/// pooled spans (`global_mentions` ∪ `retired`).
fn live_counts(state: &GlobalizerState) -> HashMap<String, (usize, usize)> {
    let mut counts: HashMap<String, (usize, usize)> = HashMap::new();
    for rec in state.tweetbase.iter() {
        let mut pooled: Vec<Span> = rec
            .global_mentions
            .iter()
            .chain(&rec.retired)
            .copied()
            .collect();
        pooled.sort_unstable();
        pooled.dedup();
        for sp in pooled {
            let surface = state.tweetbase.interner().join(rec.syms_of(&sp));
            let c = counts.entry(surface).or_default();
            c.0 += 1;
            c.1 += usize::from(rec.local_spans.contains(&sp));
        }
    }
    counts
}

fn check_counts(state: &GlobalizerState, windowed: bool) -> Result<(), TestCaseError> {
    let counts = live_counts(state);
    for (id, c) in state.candidates.entries() {
        let key = state.candidate_key(id);
        let (n, local) = counts.get(&key).copied().unwrap_or_default();
        let got = (c.frequency(), c.locally_detected_frequency());
        if windowed {
            prop_assert!(
                got.0 >= n && got.1 >= local,
                "{}: counters {:?} below the live records' ({}, {})",
                key,
                got,
                n,
                local
            );
        } else {
            prop_assert_eq!(got, (n, local), "counters of {}", key);
        }
        prop_assert_eq!(c.n_pooled(), c.frequency());
    }
    if !windowed {
        for key in counts.keys() {
            prop_assert!(state.candidate_id(key).is_some(), "no candidate {}", key);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn counters_agree_with_sentence_records(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..4, 1..10), 1..24),
        batch in 1usize..6,
        window in 0usize..4,
        close_every in 0usize..3,
    ) {
        let stream: Vec<Sentence> = msgs
            .iter()
            .enumerate()
            .map(|(i, words)| {
                Sentence::from_tokens(SentenceId::new(i as u64, 0), words.iter().map(|&w| WORDS[w]))
            })
            .collect();
        // Window 0 is unbounded; otherwise 3, 5 or 7 sentences.
        let max_sentences = if window == 0 { 0 } else { 2 * window + 1 };
        let windowed = max_sentences > 0;
        let clf = accept_all();
        for ablation in [Ablation::MentionExtraction, Ablation::Full] {
            let g = Globalizer::new(&Chunky, None, &clf, GlobalizerConfig {
                ablation,
                window: WindowConfig { max_sentences, ..Default::default() },
                ..Default::default()
            });
            let mut state = g.new_state();
            for (b, chunk) in stream.chunks(batch).enumerate() {
                g.process_batch(&mut state, chunk);
                check_counts(&state, windowed)?;
                // Interim closes rescan dirty records mid-stream, so a
                // record's extraction can change more than once.
                if close_every > 0 && b % close_every == 0 {
                    g.finalize_with_threads(&mut state, 1);
                    check_counts(&state, windowed)?;
                }
            }
            let mut full = state.clone();
            g.finalize_with_threads(&mut state, 1);
            check_counts(&state, windowed)?;
            g.finalize_full_rescan(&mut full);
            check_counts(&full, windowed)?;
        }
    }
}
