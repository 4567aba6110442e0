//! Property-based tests (proptest) over the core data structures and
//! invariants of the framework.

use emd_globalizer::core::config::Ablation;
use emd_globalizer::core::ctrie::CTrie;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::mention::extract_mentions;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::nn::matrix::{cosine, log_sum_exp, Matrix};
use emd_globalizer::text::bpe::Bpe;
use emd_globalizer::text::intern::Interner;
use emd_globalizer::text::token::{bio_to_spans, spans_to_bio, Bio, Sentence, SentenceId, Span};
use emd_globalizer::text::tokenizer::{tokenize, tokenize_message};
use emd_globalizer::text::vocab::Vocab;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialises access to the process-wide metrics flag across the tests
/// that toggle it (cargo's harness runs tests in this binary on multiple
/// threads), and restores the default noop mode on drop.
static OBS_FLAG: Mutex<()> = Mutex::new(());

struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ObsGuard {
    fn drop(&mut self) {
        emd_globalizer::obs::set_enabled(false);
    }
}

fn obs_flag(on: bool) -> ObsGuard {
    let guard = OBS_FLAG.lock().unwrap_or_else(|p| p.into_inner());
    emd_globalizer::obs::set_enabled(on);
    ObsGuard(guard)
}

/// Strategy: a lowercase token of 1..8 chars.
/// Is the token sequence (any casing) a registered candidate?
fn registered<S: AsRef<str>>(trie: &CTrie, interner: &Interner, tokens: &[S]) -> bool {
    let syms: Option<Vec<_>> = tokens
        .iter()
        .map(|t| interner.lookup_folded(t.as_ref()))
        .collect();
    syms.and_then(|s| trie.find(&s))
        .is_some_and(|n| trie.is_terminal(n))
}

fn token_strat() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

/// Strategy: a sentence of 0..15 tokens.
fn sentence_strat() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(token_strat(), 0..15)
}

proptest! {
    /// Tokenizer: token byte offsets always index the original text and
    /// reproduce the token exactly.
    #[test]
    fn tokenizer_offsets_valid(text in "\\PC{0,80}") {
        let s = tokenize(SentenceId::new(0, 0), &text);
        for t in &s.tokens {
            prop_assert!(t.end <= text.len());
            prop_assert_eq!(&text[t.start..t.end], t.text.as_str());
        }
    }

    /// Tokenizer: never panics and never emits empty tokens, on any input.
    #[test]
    fn tokenizer_total(text in "\\PC{0,120}") {
        for s in tokenize_message(0, &text) {
            for t in &s.tokens {
                prop_assert!(!t.text.is_empty());
            }
        }
    }

    /// BIO round-trip: spans → tags → spans is the identity for sorted,
    /// non-overlapping spans.
    #[test]
    fn bio_round_trip(raw in proptest::collection::vec((0usize..20, 1usize..4), 0..5)) {
        // Build sorted non-overlapping spans from (start, len) pairs.
        let mut spans = Vec::new();
        let mut cursor = 0usize;
        for (gap, len) in raw {
            let start = cursor + gap;
            let end = start + len;
            if end > 40 { break; }
            spans.push(Span::new(start, end));
            cursor = end + 1; // ensure a gap so adjacency isn't merged
        }
        let tags = spans_to_bio(&spans, 50);
        prop_assert_eq!(bio_to_spans(&tags), spans);
    }

    /// BIO decoding: output spans never overlap, regardless of tag soup.
    #[test]
    fn bio_decode_no_overlap(tags in proptest::collection::vec(0usize..3, 0..30)) {
        let tags: Vec<Bio> = tags.into_iter().map(Bio::from_index).collect();
        let spans = bio_to_spans(&tags);
        for w in spans.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
        for sp in &spans {
            prop_assert!(sp.start < sp.end && sp.end <= tags.len());
        }
    }

    /// CTrie: everything inserted is found (case-insensitively), and the
    /// candidate count equals the number of distinct lowercased sequences.
    #[test]
    fn ctrie_insert_contains(cands in proptest::collection::vec(
        proptest::collection::vec(token_strat(), 1..4), 1..12)) {
        let mut interner = emd_text::intern::Interner::new();
        let mut trie = CTrie::new();
        let mut set = std::collections::HashSet::new();
        for c in &cands {
            trie.insert(&mut interner, c);
            set.insert(c.join(" "));
        }
        prop_assert_eq!(trie.len(), set.len());
        for c in &cands {
            prop_assert!(registered(&trie, &interner, c));
            let upper: Vec<String> = c.iter().map(|t| t.to_uppercase()).collect();
            prop_assert!(registered(&trie, &interner, &upper));
        }
    }

    /// Mention extraction: returned spans are in-range, non-overlapping,
    /// and each one's surface is a registered candidate.
    #[test]
    fn mention_extraction_invariants(
        cands in proptest::collection::vec(proptest::collection::vec(token_strat(), 1..3), 1..8),
        words in sentence_strat(),
    ) {
        let mut interner = emd_text::intern::Interner::new();
        let mut trie = CTrie::new();
        for c in &cands {
            trie.insert(&mut interner, c);
        }
        let sentence = Sentence::from_tokens(SentenceId::new(0, 0), words);
        let mentions = extract_mentions(&trie, &mut interner, &sentence, 6);
        for w in mentions.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "overlap");
        }
        for sp in &mentions {
            prop_assert!(sp.end <= sentence.len());
            let toks: Vec<&str> = (sp.start..sp.end)
                .map(|i| sentence.tokens[i].text.as_str())
                .collect();
            prop_assert!(registered(&trie, &interner, &toks), "non-candidate surface emitted");
        }
    }

    /// Matrix multiplication is associative (within f32 tolerance).
    #[test]
    fn matmul_associative(
        a in proptest::collection::vec(-2.0f32..2.0, 6),
        b in proptest::collection::vec(-2.0f32..2.0, 6),
        c in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let mc = Matrix::from_vec(2, 3, c);
        let left = ma.matmul(&mb).matmul(&mc);
        let right = ma.matmul(&mb.matmul(&mc));
        for (x, y) in left.data.iter().zip(right.data.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(data in proptest::collection::vec(-10.0f32..10.0, 12)) {
        let m = Matrix::from_vec(3, 4, data);
        prop_assert_eq!(m.transposed().transposed().data, m.data);
    }

    /// log-sum-exp dominates the max and is translation-equivariant.
    #[test]
    fn log_sum_exp_properties(xs in proptest::collection::vec(-20.0f32..20.0, 1..8), shift in -5.0f32..5.0) {
        let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = log_sum_exp(&xs);
        prop_assert!(lse >= m - 1e-4);
        let shifted: Vec<f32> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((log_sum_exp(&shifted) - (lse + shift)).abs() < 1e-3);
    }

    /// Cosine similarity is bounded and symmetric.
    #[test]
    fn cosine_bounded_symmetric(
        a in proptest::collection::vec(-5.0f32..5.0, 4),
        b in proptest::collection::vec(-5.0f32..5.0, 4),
    ) {
        let c1 = cosine(&a, &b);
        let c2 = cosine(&b, &a);
        prop_assert!((-1.001..=1.001).contains(&c1));
        prop_assert!((c1 - c2).abs() < 1e-6);
    }

    /// BPE segmentation always reconstructs the input word.
    #[test]
    fn bpe_reconstructs(words in proptest::collection::vec(token_strat(), 2..10), probe in token_strat()) {
        let bpe = Bpe::learn(words.iter().map(|w| (w.as_str(), 3u64)), 30);
        let joined: String = bpe.segment(&probe).join("").replace("</w>", "");
        prop_assert_eq!(joined, probe);
    }

    /// Vocab: add-then-get is the identity; unseen maps to UNK.
    #[test]
    fn vocab_roundtrip(words in proptest::collection::vec(token_strat(), 1..20)) {
        let mut v = Vocab::new(true);
        let ids: Vec<u32> = words.iter().map(|w| v.add(w)).collect();
        for (w, id) in words.iter().zip(ids.iter()) {
            prop_assert_eq!(v.get(w), *id);
            prop_assert_eq!(v.get(&w.to_uppercase()), *id);
        }
    }

    /// The incremental dirty-set finalize is bit-identical to the
    /// brute-force full rescan — same per-sentence outputs, candidate
    /// discovery order, pooled embeddings, and verdicts — for any stream,
    /// batch size, and worker-thread count, in both global ablations.
    #[test]
    fn incremental_finalize_matches_brute_force(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..20),
        batch in 1usize..8,
        threads in 1usize..5,
        seed in 0u64..4,
    ) {
        const WORDS: [&str; 12] = [
            "italy", "covid", "beshear", "moross", "lumsa", "zutav",
            "report", "cases", "the", "news", "visit", "again",
        ];
        let lexicon = LexiconEmd::new(["italy", "covid", "beshear", "moross", "lumsa", "zutav"]);
        // A freshly initialised classifier scores in and around the γ band,
        // exercising interim freezing and the end-of-stream resolution.
        let clf = EntityClassifier::new(7, seed);
        let stream: Vec<Sentence> = msgs
            .iter()
            .enumerate()
            .map(|(i, words)| {
                let toks = words.iter().enumerate().map(|(j, &w)| {
                    let mut t = WORDS[w].to_string();
                    if (i + j) % 3 == 0 {
                        t[..1].make_ascii_uppercase();
                    }
                    t
                });
                Sentence::from_tokens(SentenceId::new(i as u64, 0), toks)
            })
            .collect();
        // Metric recording must not perturb any of the equalities below:
        // run half the cases with the instrumentation enabled.
        let _obs = obs_flag(seed % 2 == 1);
        for ablation in [Ablation::MentionExtraction, Ablation::Full] {
            let g = Globalizer::new(&lexicon, None, &clf, GlobalizerConfig {
                ablation,
                ..Default::default()
            });
            let mut s_inc = g.new_state();
            for chunk in stream.chunks(batch) {
                g.process_batch(&mut s_inc, chunk);
            }
            let mut s_full = s_inc.clone();
            let inc = g.finalize_with_threads(&mut s_inc, threads);
            let full = g.finalize_full_rescan(&mut s_full);
            prop_assert_eq!(&inc.per_sentence, &full.per_sentence);
            prop_assert_eq!(inc.n_candidates, full.n_candidates);
            prop_assert_eq!(inc.n_entities, full.n_entities);
            prop_assert_eq!(inc.n_promoted, full.n_promoted);
            for ((ia, a), (ib, b)) in s_inc.candidates.entries().zip(s_full.candidates.entries()) {
                let key = s_inc.candidate_key(ia);
                prop_assert_eq!(&key, &s_full.candidate_key(ib), "discovery order diverged");
                prop_assert_eq!(a.global_embedding(), b.global_embedding());
                prop_assert_eq!(a.frequency(), b.frequency());
                prop_assert_eq!(a.locally_detected_frequency(), b.locally_detected_frequency());
                prop_assert_eq!(a.n_pooled(), b.n_pooled());
                prop_assert!(a.label == b.label, "label diverged for {}", key);
            }
            prop_assert_eq!(s_inc.tweetbase.len(), s_full.tweetbase.len());
            for (a, b) in s_inc.tweetbase.iter().zip(s_full.tweetbase.iter()) {
                prop_assert_eq!(&a.global_mentions, &b.global_mentions);
                prop_assert_eq!(&a.retired, &b.retired);
            }
        }
    }

    /// Noop transparency: the metrics layer is observation only. Running
    /// the identical pipeline with recording enabled and disabled yields
    /// bit-identical outputs — per-sentence spans, candidate discovery
    /// order, pooled embeddings, verdicts, and all summary counts. Only
    /// `phase_timings` (wall-clock) may differ, so it is excluded.
    #[test]
    fn instrumentation_is_output_transparent(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..15),
        batch in 1usize..6,
        threads in 1usize..4,
        seed in 0u64..4,
    ) {
        const WORDS: [&str; 12] = [
            "italy", "covid", "beshear", "moross", "lumsa", "zutav",
            "report", "cases", "the", "news", "visit", "again",
        ];
        let lexicon = LexiconEmd::new(["italy", "covid", "beshear", "moross", "lumsa", "zutav"]);
        let clf = EntityClassifier::new(7, seed);
        let stream: Vec<Sentence> = msgs
            .iter()
            .enumerate()
            .map(|(i, words)| {
                let toks = words.iter().enumerate().map(|(j, &w)| {
                    let mut t = WORDS[w].to_string();
                    if (i + j) % 3 == 0 {
                        t[..1].make_ascii_uppercase();
                    }
                    t
                });
                Sentence::from_tokens(SentenceId::new(i as u64, 0), toks)
            })
            .collect();
        let g = Globalizer::new(&lexicon, None, &clf, GlobalizerConfig::default());
        let mut runs = Vec::new();
        for on in [true, false] {
            let _obs = obs_flag(on);
            let mut s = g.new_state();
            for chunk in stream.chunks(batch) {
                g.process_batch(&mut s, chunk);
            }
            let out = g.finalize_with_threads(&mut s, threads);
            runs.push((out, s));
        }
        let (out_on, s_on) = &runs[0];
        let (out_off, s_off) = &runs[1];
        prop_assert_eq!(&out_on.per_sentence, &out_off.per_sentence);
        prop_assert_eq!(out_on.n_candidates, out_off.n_candidates);
        prop_assert_eq!(out_on.n_entities, out_off.n_entities);
        prop_assert_eq!(out_on.n_promoted, out_off.n_promoted);
        prop_assert_eq!(out_on.n_rescanned, out_off.n_rescanned);
        prop_assert_eq!(s_on.candidates.len(), s_off.candidates.len());
        for ((ia, a), (ib, b)) in s_on.candidates.entries().zip(s_off.candidates.entries()) {
            let key = s_on.candidate_key(ia);
            prop_assert_eq!(&key, &s_off.candidate_key(ib), "discovery order diverged");
            prop_assert_eq!(a.global_embedding(), b.global_embedding());
            prop_assert_eq!(a.frequency(), b.frequency());
            prop_assert_eq!(a.locally_detected_frequency(), b.locally_detected_frequency());
            prop_assert_eq!(a.n_pooled(), b.n_pooled());
            prop_assert!(a.label == b.label, "label diverged for {}", key);
        }
        prop_assert_eq!(s_on.tweetbase.len(), s_off.tweetbase.len());
        for (a, b) in s_on.tweetbase.iter().zip(s_off.tweetbase.iter()) {
            prop_assert_eq!(&a.global_mentions, &b.global_mentions);
            prop_assert_eq!(&a.retired, &b.retired);
        }
    }

    /// spans_to_bio never produces dangling I-after-O sequences for valid
    /// span sets (every I is preceded by B or I).
    #[test]
    fn spans_to_bio_well_formed(raw in proptest::collection::vec((0usize..10, 1usize..4), 0..6)) {
        let mut spans = Vec::new();
        let mut cursor = 0usize;
        for (gap, len) in raw {
            let start = cursor + gap;
            spans.push(Span::new(start, start + len));
            cursor = start + len;
        }
        let tags = spans_to_bio(&spans, 60);
        for i in 0..tags.len() {
            if tags[i] == Bio::I {
                prop_assert!(i > 0 && tags[i - 1] != Bio::O, "dangling I at {i}");
            }
        }
    }
}
