//! Checkpoint format compatibility. Every fixture is the supervisor's
//! ladder after the first 24 sentences of a windowed lexicon stream
//! below (window 6, batch 4, a checkpoint every 2 batches): the lexicon
//! stream, with no adjacent mentions, or the adjacent stream, whose
//! `Moross Lumsa` and `Straße Italy` fragments fill the adjacency ledger.
//!
//! * `tests/fixtures/windowed_adjacent_v8.ckpt` is in the current format,
//!   v8, whose sentence store holds its live records but neither of its
//!   indexes, and whose records hold their tokens' symbols and casing
//!   shapes but not their text. The build must restore it, rebuilding
//!   both indexes, re-encode the restored state to the same bytes, and
//!   continue the run from it with output bit-identical to an
//!   uninterrupted run.
//! * `tests/fixtures/windowed_adjacent_v7.ckpt` was written in format v7,
//!   whose records also stored their sentence's text. The build must
//!   derive from it the casing profiles a fresh ingest gives, and
//!   continue from it bit-identically.
//! * `tests/fixtures/windowed_adjacent_v6.ckpt` was written in format
//!   v6, which also stored the sentence-id index and the posting lists.
//!   The build must restore it without reading them, and continue from it
//!   bit-identically.
//! * `tests/fixtures/windowed_late_v6.ckpt` is not a supervisor's file:
//!   a v6 build saved it with `checkpoint::save` (seq 3) straight after
//!   the first 3 batches of the late-candidate stream below, uncompacted,
//!   so its sentence store starts with 6 `null` slots and 2 records are
//!   dirty. The build must restore the same slot indices and dirty set,
//!   and continue from it bit-identically.
//! * `tests/fixtures/windowed_lexicon_v5.ckpt` and
//!   `tests/fixtures/windowed_adjacent_v5.ckpt` were written in format
//!   v5, which named candidates by their text. The build must convert
//!   the names to the ids an uninterrupted run holds, the non-empty
//!   ledger included, and continue from them bit-identically.
//! * `tests/fixtures/windowed_lexicon_v4.ckpt` was written in format v4,
//!   whose `frozen_adjacency` counted only evicted records' pairs. The
//!   build must migrate it to the adjacency ledger, and continue from it
//!   bit-identically.
//! * `tests/fixtures/windowed_lexicon_v3.ckpt` was written by an earlier
//!   build's encoder in format v3, whose candidates listed their
//!   mentions. The build must migrate it to counters equal to the
//!   uninterrupted run's, and continue from it bit-identically too.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{
    EntityClassifier, Globalizer, GlobalizerConfig, StreamSupervisor, SupervisorConfig,
};
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::checkpoint::{self, FORMAT_VERSION, MAGIC};
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use std::path::Path;

const FIXTURE_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v3.ckpt"
);
const FIXTURE_V4: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v4.ckpt"
);
const FIXTURE_V5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v5.ckpt"
);
const ADJACENT_V5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_adjacent_v5.ckpt"
);
const ADJACENT_V6: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_adjacent_v6.ckpt"
);
const ADJACENT_V7: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_adjacent_v7.ckpt"
);
const ADJACENT_V8: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_adjacent_v8.ckpt"
);
const LATE_V6: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_late_v6.ckpt"
);

fn stream(n: u64) -> Vec<Sentence> {
    (0..n)
        .map(|i| {
            let words: &[&str] = if i % 3 == 0 {
                &["Italy", "reports", "cases"]
            } else if i % 3 == 1 {
                &["covid", "in", "italy"]
            } else {
                &["nothing", "here"]
            };
            Sentence::from_tokens(SentenceId::new(i, 0), words.iter().copied())
        })
        .collect()
}

/// Adjacent fragments the local system finds only apart.
fn adjacent_stream(n: u64) -> Vec<Sentence> {
    (0..n)
        .map(|i| {
            let words: &[&str] = match i % 3 {
                0 => &["Moross", "Lumsa", "quarantined"],
                1 => &["cases", "at", "Moross", "Lumsa"],
                _ => &["Straße", "Italy", "reports"],
            };
            Sentence::from_tokens(SentenceId::new(i, 0), words.iter().copied())
        })
        .collect()
}

/// `lumsa` in lower case from the start; its first capitalised mention,
/// which registers it as a [`CapsEmd`] candidate, arrives in the third
/// batch and dirties the earlier live records that hold it.
fn late_stream(n: u64) -> Vec<Sentence> {
    (0..n)
        .map(|i| {
            let words: &[&str] = match (i < 10, i % 2) {
                (true, 0) => &["Moross", "visits", "lumsa"],
                (true, _) => &["lumsa", "cases", "in", "Italy"],
                (false, 0) => &["Lumsa", "and", "Moross"],
                (false, _) => &["cases", "in", "lumsa", "Italy"],
            };
            Sentence::from_tokens(SentenceId::new(i, 0), words.iter().copied())
        })
        .collect()
}

/// Tags every capitalised token.
struct CapsEmd;

impl LocalEmd for CapsEmd {
    fn name(&self) -> &str {
        "CapsEmd"
    }

    fn embedding_dim(&self) -> Option<usize> {
        None
    }

    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        LocalEmdOutput {
            spans: sentence
                .texts()
                .enumerate()
                .filter(|(_, t)| t.starts_with(char::is_uppercase))
                .map(|(i, _)| Span::new(i, i + 1))
                .collect(),
            token_embeddings: None,
        }
    }
}

fn lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "covid"])
}

fn adjacent_lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "moross", "lumsa", "straße"])
}

fn accept_all() -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

fn globalizer<'a>(local: &'a dyn LocalEmd, clf: &'a EntityClassifier) -> Globalizer<'a> {
    Globalizer::new(
        local,
        None,
        clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(6),
            ..Default::default()
        },
    )
}

/// A scratch directory for one test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("emd_golden_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every counter and pooled embedding of every candidate, and the pooled
/// spans of every live record, agree.
fn assert_same_pools(a: &GlobalizerState, b: &GlobalizerState) {
    assert_eq!(a.candidates.len(), b.candidates.len());
    for ((ix, x), (iy, y)) in a.candidates.entries().zip(b.candidates.entries()) {
        let key = a.candidate_key(ix);
        assert_eq!(key, b.candidate_key(iy), "discovery order");
        assert_eq!(x.frequency(), y.frequency(), "frequency of {}", key);
        assert_eq!(
            x.locally_detected_frequency(),
            y.locally_detected_frequency(),
            "local frequency of {}",
            key
        );
        assert_eq!(x.n_pooled(), y.n_pooled(), "pooled count of {}", key);
        assert_eq!(x.global_embedding(), y.global_embedding());
        assert_eq!(x.label, y.label);
    }
    assert_eq!(a.tweetbase.len(), b.tweetbase.len());
    for (x, y) in a.tweetbase.iter().zip(b.tweetbase.iter()) {
        assert_eq!(x.sentence.id, y.sentence.id);
        assert_eq!(x.global_mentions, y.global_mentions);
        assert_eq!(x.retired, y.retired);
    }
    assert_eq!(a.adjacency(), b.adjacency());
}

/// Every live record holds the same symbols and the same casing profile
/// (the shape of every token and the casing bit).
fn assert_same_profiles(a: &GlobalizerState, b: &GlobalizerState) {
    assert_eq!(a.tweetbase.len(), b.tweetbase.len());
    for (x, y) in a.tweetbase.iter().zip(b.tweetbase.iter()) {
        assert_eq!(x.sentence, y.sentence);
        assert_eq!(x.tok_syms, y.tok_syms);
    }
}

/// Both rebuilt indexes hold: the posting lists pass
/// `check_postings`, and every live record's id maps to its slot.
fn assert_indexes_rebuilt(state: &GlobalizerState) {
    let tb = &state.tweetbase;
    if let Err(e) = tb.check_postings() {
        panic!("rebuilt posting index: {e}");
    }
    for (i, rec) in tb.iter_indexed() {
        assert_eq!(tb.index_of(rec.sentence.id), Some(i));
    }
}

/// Save `state` under `dir` and return the header line and payload.
fn resave(dir: &Path, seq: u64, state: &GlobalizerState) -> (String, String) {
    let path = dir.join("state.ckpt");
    checkpoint::save(&path, seq, state).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, payload) = text.split_once('\n').unwrap();
    (header.to_string(), payload.to_string())
}

/// Re-encode a migrated `state`: the file is current-format and
/// restores to the same state.
fn assert_resaves_current(dir: &Path, seq: u64, state: &GlobalizerState) {
    let (header, _) = resave(dir, seq, state);
    assert!(
        header.starts_with(&format!("{MAGIC} v{FORMAT_VERSION} seq={seq} ")),
        "{header}"
    );
    let (_, back): (u64, GlobalizerState) = checkpoint::load(&dir.join("state.ckpt")).unwrap();
    assert_same_pools(&back, state);
}

/// The uninterrupted run's state after the first `n` sentences.
fn uninterrupted_to(
    local: &dyn LocalEmd,
    stream: fn(u64) -> Vec<Sentence>,
    n: u64,
) -> GlobalizerState {
    let clf = accept_all();
    let g = globalizer(local, &clf);
    let mut state = g.new_state();
    for chunk in stream(n).chunks(4) {
        g.process_batch(&mut state, chunk);
    }
    state
}

/// The uninterrupted run's state after the 6 batches a supervisor's
/// fixture covers.
fn uninterrupted(local: &dyn LocalEmd, stream: fn(u64) -> Vec<Sentence>) -> GlobalizerState {
    uninterrupted_to(local, stream, 24)
}

/// The adjacency ledger's pairs, by candidate text.
fn pairs(state: &GlobalizerState) -> Vec<(String, String, u64)> {
    let key = |id| state.candidate_key(id);
    let ledger = state.adjacency().at_least(1);
    ledger
        .into_iter()
        .map(|(a, b, n)| (key(a), key(b), n))
        .collect()
}

/// Resume the 40-sentence run from a copy of `fixture`: the supervisor
/// skips the 6 covered batches and must match the uninterrupted run.
fn continue_from(
    fixture: &str,
    dir: &Path,
    local: &dyn LocalEmd,
    stream: fn(u64) -> Vec<Sentence>,
) {
    continue_after(fixture, dir, local, stream, 6);
}

/// [`continue_from`] a fixture that covers `covered` batches.
fn continue_after(
    fixture: &str,
    dir: &Path,
    local: &dyn LocalEmd,
    stream: fn(u64) -> Vec<Sentence>,
    covered: usize,
) {
    let clf = accept_all();
    let g = globalizer(local, &clf);
    let path = dir.join("resume.ckpt");
    std::fs::copy(fixture, &path).unwrap();
    let s = stream(40);
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path),
            checkpoint_every: 2,
            batch_size: 4,
            ..Default::default()
        },
    );
    let report = sup.run(&s);
    assert!(report.resumed_from_checkpoint);
    assert_eq!(report.batches_skipped, covered);
    assert_eq!(report.batches_processed, 10 - covered);
    let (plain, _) = g.run(&s, 4);
    assert_eq!(report.output.per_sentence, plain.per_sentence);
    assert_eq!(report.output.n_candidates, plain.n_candidates);
    assert_eq!(report.output.n_entities, plain.n_entities);
}

#[test]
fn golden_v3_checkpoint_restores_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE_V3).unwrap();
    let (header, _) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v3 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V3)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());

    // The migrated counters (mention lists plus evicted counts) equal the
    // ones the uninterrupted run holds after the same 6 batches, and so
    // do the casing profiles derived from the stored text.
    let fresh = uninterrupted(&lexicon(), stream);
    assert_same_pools(&state, &fresh);
    assert_same_profiles(&state, &fresh);
    assert!(
        state
            .candidates
            .get(state.candidate_id("italy").unwrap())
            .unwrap()
            .frequency()
            > state.tweetbase.len()
    );

    let dir = scratch("v3");
    continue_from(FIXTURE_V3, &dir, &lexicon(), stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v4_checkpoint_restores_resaves_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE_V4).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v4 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V4)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());
    let (_, v3): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V3)).unwrap();
    assert_same_pools(&state, &v3);

    // Migration turns the (empty) frozen ledger into the (empty) ledger;
    // the re-encoded state is current-format and restores unchanged.
    assert!(payload.contains(r#""frozen_adjacency":[]"#));
    assert!(state.adjacency().at_least(1).is_empty());
    let dir = scratch("v4");
    assert_resaves_current(&dir, seq, &state);

    continue_from(FIXTURE_V4, &dir, &lexicon(), stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v5_checkpoint_restores_resaves_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE_V5).unwrap();
    let (header, _) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v5 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V5)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());
    let (_, v4): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V4)).unwrap();
    assert_same_pools(&state, &v4);
    assert_same_pools(&state, &uninterrupted(&lexicon(), stream));

    let dir = scratch("v5");
    assert_resaves_current(&dir, seq, &state);
    continue_from(FIXTURE_V5, &dir, &lexicon(), stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v5_ledger_converts_to_the_ids_an_uninterrupted_run_holds() {
    let bytes = std::fs::read_to_string(ADJACENT_V5).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v5 seq=6 ")),
        "{header}"
    );
    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V5)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    let want = vec![
        ("moross".to_string(), "lumsa".to_string(), 16),
        ("straße".to_string(), "italy".to_string(), 8),
    ];
    assert_eq!(pairs(&state), want);
    assert_same_pools(&state, &uninterrupted(&adjacent_lexicon(), adjacent_stream));

    // A v4 tree froze only the evicted records' pairs: the six live
    // records hold 4 `moross lumsa` and 2 `straße italy` of them.
    let v4 = payload.replace(
        r#""adjacency":[["moross","lumsa",16],["straße","italy",8]]"#,
        r#""frozen_adjacency":[{"first":"moross","second":"lumsa","count":12},{"first":"straße","second":"italy","count":6}]"#,
    );
    assert_ne!(v4, payload);
    let from_v4: GlobalizerState = serde_json::from_str(&v4).unwrap();
    assert_same_pools(&from_v4, &state);

    let dir = scratch("adjacent_v5");
    assert_resaves_current(&dir, seq, &state);
    continue_from(ADJACENT_V5, &dir, &adjacent_lexicon(), adjacent_stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v6_checkpoint_restores_resaves_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(ADJACENT_V6).unwrap();
    let (header, _) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v6 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V6)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    let (_, v5): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V5)).unwrap();
    assert_same_pools(&state, &v5);
    assert_indexes_rebuilt(&state);

    let dir = scratch("v6");
    assert_resaves_current(&dir, seq, &state);
    continue_from(ADJACENT_V6, &dir, &adjacent_lexicon(), adjacent_stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v7_checkpoint_restores_resaves_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(ADJACENT_V7).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v7 seq=6 ")),
        "{header}"
    );
    assert!(payload.contains(r#""tokens":[{"text":"Moross","#));

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V7)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    let (_, v6): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V6)).unwrap();
    assert_same_pools(&state, &v6);
    let fresh = uninterrupted(&adjacent_lexicon(), adjacent_stream);
    assert_same_pools(&state, &fresh);
    // The shapes and casing bits derived from the stored text are the
    // ones ingest computes.
    assert_same_profiles(&state, &fresh);
    assert_indexes_rebuilt(&state);

    let dir = scratch("v7");
    assert_resaves_current(&dir, seq, &state);
    continue_from(ADJACENT_V7, &dir, &adjacent_lexicon(), adjacent_stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v8_checkpoint_restores_resaves_and_continues_bit_identically() {
    assert_eq!(FORMAT_VERSION, 8);
    let bytes = std::fs::read_to_string(ADJACENT_V8).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v8 seq=6 ")),
        "{header}"
    );
    for gone in [
        "\"postings\"",
        "\"index\"",
        "\"live\"",
        "\"evict_cursor\"",
        "\"token_embeddings\"",
        "\"tokens\"",
        "\"text\"",
    ] {
        assert!(!payload.contains(gone), "{gone} in the v8 fixture");
    }
    assert!(
        payload.contains(r#""shapes":"IIL""#),
        "one letter per token"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V8)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    let (_, v7): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V7)).unwrap();
    assert_same_pools(&state, &v7);
    assert_same_profiles(&state, &v7);
    let fresh = uninterrupted(&adjacent_lexicon(), adjacent_stream);
    assert_same_pools(&state, &fresh);
    assert_same_profiles(&state, &fresh);
    assert_indexes_rebuilt(&state);

    // Saving the restored state writes the same bytes: no field of a v8
    // payload depends on hash order while nothing is quarantined.
    let dir = scratch("v8");
    let (header2, payload2) = resave(&dir, seq, &state);
    assert_eq!((header2.as_str(), payload2.as_str()), (header, payload));

    continue_from(ADJACENT_V8, &dir, &adjacent_lexicon(), adjacent_stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uncompacted_v6_checkpoint_keeps_its_slots_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(LATE_V6).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v6 seq=3 ")),
        "{header}"
    );
    assert!(payload.starts_with(r#"{"tweetbase":{"slots":[null,null,null,null,null,null,{"#));

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(LATE_V6)).unwrap();
    assert_eq!(seq, 3);
    let want = uninterrupted_to(&CapsEmd, late_stream, 12);
    let tb = &state.tweetbase;
    assert_eq!((tb.first_slot(), tb.n_slots(), tb.len()), (6, 12, 6));
    assert_eq!(tb.n_slots(), want.tweetbase.n_slots());
    let dirty = |s: &GlobalizerState| -> Vec<usize> {
        (0..s.tweetbase.n_slots())
            .filter(|&i| s.is_dirty(i))
            .collect()
    };
    assert_eq!(dirty(&state), vec![6, 7]);
    assert_eq!(dirty(&state), dirty(&want));
    assert_same_pools(&state, &want);
    assert_indexes_rebuilt(&state);
    for (i, rec) in want.tweetbase.iter_indexed() {
        assert_eq!(tb.index_of(rec.sentence.id), Some(i));
    }

    let dir = scratch("late_v6");
    assert_resaves_current(&dir, seq, &state);
    continue_after(LATE_V6, &dir, &CapsEmd, late_stream, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `text` with its one `from` replaced by `to`.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "{from}");
    text.replacen(from, to, 1)
}

#[test]
fn a_null_after_a_record_or_a_repeated_sentence_id_is_rejected() {
    let bytes = std::fs::read_to_string(LATE_V6).unwrap();
    let (_, payload) = bytes.split_once('\n').unwrap();
    let decode = |text: &str| serde_json::from_str::<GlobalizerState>(text);
    assert!(decode(payload).is_ok());

    let late_null = edit(payload, r#"}],"index":"#, r#"},null],"index":"#);
    let err = decode(&late_null).expect_err("a null after a record");
    assert!(err.to_string().contains("evicted slot after"), "{err}");

    let repeated = edit(payload, r#""id":{"tweet_id":7,"#, r#""id":{"tweet_id":6,"#);
    let err = decode(&repeated).expect_err("a repeated sentence id");
    assert!(err.to_string().contains("stored twice"), "{err}");
}

#[test]
fn a_v6_trees_stored_indexes_are_not_read() {
    let bytes = std::fs::read_to_string(LATE_V6).unwrap();
    let (_, payload) = bytes.split_once('\n').unwrap();
    let field = |name: &str, next: &str| {
        let from = payload.find(&format!(r#""{name}":"#)).unwrap();
        let to = from + payload[from..].find(&format!(r#","{next}":"#)).unwrap();
        payload[from..to].to_string()
    };
    let (index, postings) = (field("index", "interner"), field("postings", "emb_arena"));
    let corrupt = edit(
        &edit(
            payload,
            &index,
            r#""index":[[{"tweet_id":99,"sent_id":0},0]]"#,
        ),
        &postings,
        r#""postings":[[11,3,3],[],"no list"]"#,
    );
    // A quarantined slot the window has since evicted, as a v6 state
    // kept it until compaction.
    let corrupt = edit(
        &corrupt,
        r#""quarantined_idx":[]"#,
        r#""quarantined_idx":[2]"#,
    );
    let mut state: GlobalizerState = serde_json::from_str(&corrupt).unwrap();
    let (_, clean): (u64, GlobalizerState) = checkpoint::load(Path::new(LATE_V6)).unwrap();
    assert_indexes_rebuilt(&state);
    assert_same_pools(&state, &clean);
    assert_eq!(state.tweetbase.index_of(SentenceId::new(99, 0)), None);
    let text = serde_json::to_string(&state).unwrap();
    assert!(
        text.contains(r#""quarantined_idx":[]"#),
        "the evicted slot is dropped"
    );
    assert_eq!(state.compact(), 6);
    assert_indexes_rebuilt(&state);
}
