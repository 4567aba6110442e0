//! Candidate Mention Extraction (§V-A).
//!
//! With the seed candidates registered in the CTrie, segmenting a sentence
//! into candidate mention boundaries reduces to a greedy longest-match
//! lookup: a window scans the token sequence; at each anchor position the
//! scan follows the trie as far as tokens match (case-insensitively),
//! remembering the last position where the path ended on a terminal node.
//!
//! * On a match, the longest matching subsequence is emitted and the next
//!   window starts right after it (matched tokens are consumed).
//! * On no match, the window advances by a single token.
//!
//! This verifies — and sometimes *corrects* — the Local EMD extractions:
//! a partial extraction like `Andy` is replaced by the full registered
//! candidate `Andy Beshear` when the full string is present.
//!
//! The hot-path entry point is [`walk_mentions`]: it walks a sentence's
//! pre-interned folded symbols (built once at ingest) against the trie's
//! symbol-labelled edges and hands each mention, with the terminal node
//! that names its candidate, to a callback, so a steady-state scan
//! performs **zero heap allocations** — no `to_lowercase()`, no per-call
//! `Vec`. [`extract_mentions_into`] collects the spans alone into a
//! caller-owned scratch vector, and [`extract_mentions`] is the
//! convenience form for tests and callers holding a raw [`Sentence`].

use crate::ctrie::{CTrie, NodeId};
use emd_text::intern::{Interner, Sym};
use emd_text::token::{Sentence, Span};

/// Find all (non-overlapping, greedy-longest) candidate mentions in the
/// pre-folded symbol sequence `syms`, bounded by `max_len` tokens per
/// mention, calling `each(span, terminal)` for them in order, where
/// `terminal` is the CTrie node the match ended on. Performs no heap
/// allocation.
pub fn walk_mentions(
    trie: &CTrie,
    syms: &[Sym],
    max_len: usize,
    mut each: impl FnMut(Span, NodeId),
) {
    let n = syms.len();
    let mut i = 0usize;
    while i < n {
        let mut node = CTrie::ROOT;
        let mut last_terminal: Option<(usize, NodeId)> = None; // exclusive end
        let mut j = i;
        while j < n && j - i < max_len {
            match trie.child_sym(node, syms[j]) {
                Some(next) => {
                    node = next;
                    j += 1;
                    if trie.is_terminal(node) {
                        last_terminal = Some((j, node));
                    }
                }
                None => break,
            }
        }
        match last_terminal {
            Some((end, terminal)) => {
                each(Span::new(i, end), terminal);
                i = end; // consume the matched subsequence
            }
            None => {
                i += 1; // restart one token to the right
            }
        }
    }
}

/// The spans [`walk_mentions`] finds, appended to `out` (which is cleared
/// first). Performs no heap allocation beyond `out`'s amortized growth.
pub fn extract_mentions_into(trie: &CTrie, syms: &[Sym], max_len: usize, out: &mut Vec<Span>) {
    out.clear();
    walk_mentions(trie, syms, max_len, |span, _| out.push(span));
}

/// [`extract_mentions_into`] over a raw sentence: folds and interns the
/// tokens first (the convenience path — ingest-side callers already hold
/// the interned symbols and use the scratch-buffer form directly).
pub fn extract_mentions(
    trie: &CTrie,
    interner: &mut Interner,
    sentence: &Sentence,
    max_len: usize,
) -> Vec<Span> {
    let syms: Vec<Sym> = sentence
        .tokens
        .iter()
        .map(|t| interner.intern_folded(&t.text))
        .collect();
    let mut out = Vec::new();
    extract_mentions_into(trie, &syms, max_len, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_text::token::SentenceId;

    fn sent(words: &[&str]) -> Sentence {
        Sentence::from_tokens(SentenceId::new(0, 0), words.iter().copied())
    }

    fn trie(interner: &mut Interner, cands: &[&[&str]]) -> CTrie {
        let mut t = CTrie::new();
        for c in cands {
            t.insert(interner, c);
        }
        t
    }

    fn extract(t: &CTrie, interner: &mut Interner, s: &Sentence, max_len: usize) -> Vec<Span> {
        extract_mentions(t, interner, s, max_len)
    }

    #[test]
    fn finds_case_variants() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["coronavirus"]]);
        let s = sent(&["CORONAVIRUS", "and", "Coronavirus", "and", "coronavirus"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(0, 1), Span::new(2, 3), Span::new(4, 5)]);
    }

    #[test]
    fn longest_match_wins() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["andy"], &["andy", "beshear"]]);
        let s = sent(&["Andy", "Beshear", "speaks"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(0, 2)], "prefer the longer candidate");
    }

    #[test]
    fn partial_extraction_corrected() {
        // Local EMD only found "Andy" somewhere; the full candidate was
        // registered from another tweet. The scan recovers the full form.
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["andy", "beshear"]]);
        let s = sent(&["gov", "andy", "beshear", "said"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(1, 3)]);
    }

    #[test]
    fn failed_long_path_backtracks_to_shorter_terminal() {
        // "new york" is a candidate; "new york giants" is not. Scanning
        // "new york giants" must emit "new york".
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["new", "york"]]);
        let s = sent(&["new", "york", "giants", "win"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(0, 2)]);
    }

    #[test]
    fn mid_path_failure_restarts_inside_prefix() {
        // Candidate "york city" exists; sentence "new york city": anchor at
        // "new" fails (no terminal), anchor advances to "york" and matches.
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["new", "york", "island"], &["york", "city"]]);
        let s = sent(&["new", "york", "city"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(1, 3)]);
    }

    #[test]
    fn adjacent_mentions() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["italy"], &["canada"]]);
        let s = sent(&["Italy", "Canada", "rise"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(0, 1), Span::new(1, 2)]);
    }

    #[test]
    fn max_len_bounds_window() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["a", "b", "c", "d"]]);
        let s = sent(&["a", "b", "c", "d"]);
        assert_eq!(extract(&t, &mut it, &s, 3), vec![]);
        assert_eq!(extract(&t, &mut it, &s, 4), vec![Span::new(0, 4)]);
    }

    #[test]
    fn empty_inputs() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["x"]]);
        assert!(extract(&t, &mut it, &sent(&[]), 6).is_empty());
        let empty = CTrie::new();
        assert!(extract(&empty, &mut it, &sent(&["a", "b"]), 6).is_empty());
    }

    #[test]
    fn consumed_tokens_not_reused() {
        // After matching "world health", the next window starts at
        // "organization"; "health organization" must not also fire.
        let mut it = Interner::new();
        let t = trie(
            &mut it,
            &[&["world", "health"], &["health", "organization"]],
        );
        let s = sent(&["world", "health", "organization"]);
        let m = extract(&t, &mut it, &s, 6);
        assert_eq!(m, vec![Span::new(0, 2)]);
    }

    #[test]
    fn no_overlaps_ever() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["a", "b"], &["b", "c"], &["c"], &["a"]]);
        let s = sent(&["a", "b", "c", "a", "b", "c"]);
        let m = extract(&t, &mut it, &s, 6);
        for w in m.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {:?}", m);
        }
    }

    #[test]
    fn scratch_buffer_form_matches_and_clears() {
        let mut it = Interner::new();
        let t = trie(&mut it, &[&["italy"]]);
        let s = sent(&["Italy", "rises"]);
        let syms: Vec<Sym> = s.tokens.iter().map(|w| it.intern_folded(&w.text)).collect();
        let mut out = vec![Span::new(5, 9)]; // stale contents must be cleared
        extract_mentions_into(&t, &syms, 6, &mut out);
        assert_eq!(out, vec![Span::new(0, 1)]);
        // The walker ends each mention on its terminal.
        let mut pairs: Vec<(Span, NodeId)> = Vec::new();
        walk_mentions(&t, &syms, 6, |sp, node| pairs.push((sp, node)));
        assert_eq!(pairs, vec![(Span::new(0, 1), t.find(&syms[..1]).unwrap())]);
    }
}
