//! Checkpoint format compatibility. `tests/fixtures/windowed_lexicon_v3.ckpt`
//! is a format-v3 checkpoint written by an earlier build's encoder: the
//! supervisor's ladder after the first 24 sentences of the windowed
//! lexicon stream below (window 6, batch 4, a checkpoint every 2
//! batches). The current build must restore it, continue the run from
//! it with output bit-identical to an uninterrupted run, and re-encode
//! the restored state to the same bytes.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::{
    EntityClassifier, Globalizer, GlobalizerConfig, StreamSupervisor, SupervisorConfig,
};
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::checkpoint::{self, FORMAT_VERSION, MAGIC};
use emd_globalizer::text::token::{Sentence, SentenceId};
use std::path::Path;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v3.ckpt"
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

fn accept_all() -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

#[test]
fn golden_v3_checkpoint_restores_and_continues_bit_identically() {
    assert_eq!(FORMAT_VERSION, 3);
    let bytes = std::fs::read_to_string(FIXTURE).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v3 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());

    let dir = std::env::temp_dir().join(format!("emd_golden_v3_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.ckpt");

    // Saving the restored state writes the same bytes. HashMap-backed
    // fields iterate in a per-process order, so the payloads are compared
    // as byte multisets: any change to a number, escape, key or bracket
    // shows.
    checkpoint::save(&path, seq, &state).unwrap();
    let resaved = std::fs::read_to_string(&path).unwrap();
    let (header2, payload2) = resaved.split_once('\n').unwrap();
    let sorted = |s: &str| {
        let mut b = s.as_bytes().to_vec();
        b.sort_unstable();
        b
    };
    assert_eq!(payload2.len(), payload.len());
    assert_eq!(sorted(payload2), sorted(payload));
    assert!(
        header2.starts_with(&format!("{MAGIC} v3 seq=6 ")),
        "{header2}"
    );

    // Continue the run from the fixture: the supervisor resumes after
    // the 6 covered batches and matches the uninterrupted run.
    let local = LexiconEmd::new(["italy", "covid"]);
    let clf = accept_all();
    let g = Globalizer::new(
        &local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(6),
            ..Default::default()
        },
    );
    std::fs::copy(FIXTURE, &path).unwrap();
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
    assert_eq!(report.batches_skipped, 6);
    assert_eq!(report.batches_processed, 4);
    let (plain, _) = g.run(&s, 4);
    assert_eq!(report.output.per_sentence, plain.per_sentence);
    assert_eq!(report.output.n_candidates, plain.n_candidates);
    assert_eq!(report.output.n_entities, plain.n_entities);
    std::fs::remove_dir_all(&dir).unwrap();
}
