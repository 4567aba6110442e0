//! Integration tests for bounded-memory (windowed) streaming:
//!
//! * **In-window bit-identity** — a windowed run emits exactly the
//!   unbounded run's output restricted to the sentences still inside the
//!   window, for arbitrary streams, batch schedules, window sizes, and
//!   thread counts (the acceptance bar for "eviction never changes what
//!   the pipeline says about live data").
//! * **Traced eviction replay** — a traced windowed run records
//!   `SentenceEvicted` events and the trace-replay auditor reconstructs
//!   the emitted mention set exactly from the event log alone.
//! * **Quarantine permanence** — evicting a quarantined sentence's era
//!   never re-admits it: a re-sent sentence id is re-quarantined even
//!   after every trace of the original has been evicted.
//! * **Crash-restart at production shape** — a supervised churn stream
//!   thousands of sentences long, through a window of thousands, restarts
//!   from its checkpoint ladder and finishes bit-identical to an
//!   uninterrupted run. The ladder the supervisor's writer thread leaves
//!   equals, but for wall-clock timings, the one a synchronous save loop
//!   writes.
//! * **Snapshot isolation** — processing a batch on a clone of the state
//!   never changes the original (records are shared copy-on-write), and a
//!   supervised batch whose fully processed trial is discarded at commit
//!   retries from an intact pre-batch state.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{
    EntityClassifier, Globalizer, GlobalizerConfig, GlobalizerOutput, StreamSupervisor,
    SupervisorConfig,
};
use emd_globalizer::local::np_chunker::NpChunker;
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::{checkpoint, failpoint};
use emd_globalizer::synth::{gen_churn_stream, NoiseConfig, World, WorldConfig};
use emd_globalizer::text::token::{Sentence, SentenceId};
use emd_globalizer::trace::audit::{replay, ReplayedOutput};
use emd_globalizer::trace::{TraceEventKind, TraceSink};
use proptest::prelude::*;
use serde::value::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The tracing switch and panic hook are process-global; serialise the
/// tests that touch them and restore tracing-off on drop.
static GLOBAL_FLAG: Mutex<()> = Mutex::new(());

struct FlagGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FlagGuard {
    fn drop(&mut self) {
        emd_globalizer::trace::set_enabled(false);
        failpoint::disarm_all();
    }
}

fn global_flag(trace_on: bool) -> FlagGuard {
    let guard = GLOBAL_FLAG.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::disarm_all();
    emd_globalizer::trace::set_enabled(trace_on);
    FlagGuard(guard)
}

const WORDS: [&str; 12] = [
    "italy", "covid", "beshear", "moross", "lumsa", "zutav", "report", "cases", "the", "news",
    "visit", "again",
];

fn stream_from(msgs: &[Vec<usize>]) -> Vec<Sentence> {
    msgs.iter()
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
        .collect()
}

fn lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "covid", "beshear", "moross", "lumsa", "zutav"])
}

/// A classifier biased hard enough to accept everything.
fn accept_all() -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

/// Flatten a pipeline output into the trace-replay shape.
fn flatten(out: &GlobalizerOutput) -> ReplayedOutput {
    ReplayedOutput {
        per_sentence: out
            .per_sentence
            .iter()
            .map(|(sid, spans)| {
                (
                    (sid.tweet_id, sid.sent_id),
                    spans
                        .iter()
                        .map(|sp| (sp.start as u32, sp.end as u32))
                        .collect(),
                )
            })
            .collect(),
        n_candidates: out.n_candidates,
        n_entities: out.n_entities,
        n_promoted: out.n_promoted,
        n_rescanned: out.n_rescanned,
        n_degraded: out.n_degraded,
    }
}

/// The sentence store's indexes, which its checkpoint text leaves out,
/// hold: the posting lists pass `check_postings`, and every live
/// record's id maps to its slot.
fn assert_indexes_hold(state: &GlobalizerState, when: &str) {
    let tb = &state.tweetbase;
    if let Err(e) = tb.check_postings() {
        panic!("{when}: posting index: {e}");
    }
    for (i, rec) in tb.iter_indexed() {
        assert_eq!(tb.index_of(rec.sentence.id), Some(i), "{when}: id index");
    }
}

proptest! {
    /// The windowed run's emitted output is the exact tail of the
    /// unbounded run's output: the last `min(n, window)` sentences, with
    /// bit-identical spans — for any stream, batch schedule, window size,
    /// and finalize thread count. Promotion is disabled so the property
    /// quantifies over *all* local systems' behaviour, not just streams
    /// whose adjacency evidence happens to stay in-window.
    #[test]
    fn windowed_matches_unbounded_restricted_to_window(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..25),
        batch in 1usize..6,
        window in 1usize..8,
        threads in 1usize..4,
    ) {
        let local = lexicon();
        let clf = accept_all();
        let stream = stream_from(&msgs);
        // Every batch runs on a clone, as the supervisor's trials do: the
        // clone shares its records with the original until written, and
        // the original must come out of it unchanged to the byte.
        let run = |cfg: GlobalizerConfig| {
            let g = Globalizer::new(&local, None, &clf, cfg);
            let mut s = g.new_state();
            for chunk in stream.chunks(batch) {
                let before = serde_json::to_string(&s).unwrap();
                let mut trial = s.clone();
                g.process_batch(&mut trial, chunk);
                assert_eq!(
                    serde_json::to_string(&s).unwrap(),
                    before,
                    "processing a clone must leave the original untouched"
                );
                assert_indexes_hold(&s, "the original after its clone's batch");
                s = trial;
            }
            let out = g.finalize_with_threads(&mut s, threads);
            (out, s)
        };
        let (unbounded, _) = run(GlobalizerConfig {
            promotion_support: 0,
            ..Default::default()
        });
        let (windowed, s_win) = run(GlobalizerConfig {
            promotion_support: 0,
            window: WindowConfig::sliding(window),
            ..Default::default()
        });
        prop_assert!(windowed.quarantined.is_empty());
        let n_live = windowed.per_sentence.len();
        prop_assert_eq!(n_live, stream.len().min(window));
        prop_assert_eq!(
            &windowed.per_sentence[..],
            &unbounded.per_sentence[unbounded.per_sentence.len() - n_live..],
            "in-window mentions must be bit-identical to the unbounded run"
        );
        prop_assert_eq!(
            s_win.n_evicted() as usize,
            stream.len().saturating_sub(window)
        );
    }
}

/// A traced windowed run records `SentenceEvicted` events and the replay
/// auditor reconstructs the emitted mention set from the log alone — the
/// event vocabulary stays complete under eviction, pruning, and
/// compaction.
#[test]
fn traced_windowed_run_replays_with_eviction_events() {
    let _g = global_flag(true);
    let local = lexicon();
    let clf = accept_all();
    let g = Globalizer::new(
        &local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(3),
            ..Default::default()
        },
    );
    let mut g = g;
    let sink = TraceSink::with_capacity(1 << 16);
    g.set_trace(sink.clone());
    let msgs: Vec<Vec<usize>> = (0..12).map(|i| vec![i % 6, 6 + i % 6]).collect();
    let stream = stream_from(&msgs);
    let mut s = g.new_state();
    for chunk in stream.chunks(2) {
        g.process_batch(&mut s, chunk);
    }
    let out = g.finalize_with_threads(&mut s, 1);
    assert_eq!(sink.dropped_total(), 0, "ring sized for the whole run");
    let events = sink.drain();
    let n_evict = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::SentenceEvicted)
        .count();
    assert_eq!(n_evict, 9, "12 sentences through a window of 3 evict 9");
    assert_eq!(
        replay(&events),
        flatten(&out),
        "replay must reconstruct the windowed run exactly"
    );
}

/// Local system that panics for its first `panics` calls on one tweet,
/// then behaves: the first delivery exhausts the retry budget and lands
/// in quarantine, while a later re-delivery of the same id succeeds at
/// the local phase (so only the permanence guard can reject it).
struct PoisonOnceEmd {
    inner: LexiconEmd,
    poisoned_tweet: u64,
    panics_left: AtomicUsize,
}

impl LocalEmd for PoisonOnceEmd {
    fn name(&self) -> &str {
        "PoisonOnceEmd"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        if sentence.id.tweet_id == self.poisoned_tweet {
            let left = self.panics_left.load(Ordering::SeqCst);
            if left > 0 {
                self.panics_left.store(left - 1, Ordering::SeqCst);
                failpoint::panic_injected("poisoned tweet");
            }
        }
        self.inner.process(sentence)
    }
}

/// Quarantine survives eviction: once a sentence id is quarantined, a
/// re-delivery is re-quarantined even after the window has rolled far
/// past the original incident — eviction never resurrects dead letters.
#[test]
fn eviction_never_resurrects_a_quarantined_sentence() {
    let _g = global_flag(false);
    failpoint::install_quiet_hook();
    let local = PoisonOnceEmd {
        inner: lexicon(),
        poisoned_tweet: 1,
        // Default poison_retries = 1 → two attempts on first delivery.
        panics_left: AtomicUsize::new(2),
    };
    let clf = accept_all();
    let g = Globalizer::new(
        &local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(2),
            ..Default::default()
        },
    );
    let mut s = g.new_state();
    let msgs: Vec<Vec<usize>> = (0..8).map(|i| vec![i % 6, 8]).collect();
    let mut stream = stream_from(&msgs);
    // Re-deliver sentence id 1 at the very end, long after the window has
    // evicted everything from the original batch.
    stream.push(Sentence::from_tokens(
        SentenceId::new(1, 0),
        ["Italy", "news"],
    ));
    for chunk in stream.chunks(3) {
        g.process_batch(&mut s, chunk);
    }
    let out = g.finalize_with_threads(&mut s, 1);
    assert!(s.n_evicted() > 0, "the window must have rolled");
    assert_eq!(out.quarantined.len(), 2, "{:?}", out.quarantined);
    assert!(out
        .quarantined
        .iter()
        .all(|q| q.sid == SentenceId::new(1, 0)));
    assert!(
        out.quarantined[1].reason.contains("previously quarantined"),
        "re-delivery must be rejected by the permanence guard: {:?}",
        out.quarantined[1].reason
    );
    assert!(
        out.per_sentence.iter().all(|(sid, _)| sid.tweet_id != 1),
        "a quarantined sentence must never be emitted"
    );
}

/// Crash-restart at production shape: a 6k-sentence churn stream through
/// a 2k sliding window, supervised with a checkpoint every 4 batches on a
/// 2-generation ladder. A run over a 4k prefix "crashes"; the restart
/// over the whole stream resumes from the ladder — a compacted,
/// window-sized checkpoint — and its output equals the uninterrupted
/// run's.
#[test]
fn supervised_churn_restart_at_window_scale_is_bit_identical() {
    let _g = global_flag(false);
    const BATCH: usize = 256;
    let world = World::generate(&WorldConfig {
        seed: 99,
        ..Default::default()
    });
    let stream: Vec<Sentence> =
        gen_churn_stream(&world, 6_000, 1_000, "churn", &NoiseConfig::default(), 7)
            .sentences
            .into_iter()
            .map(|a| a.sentence)
            .collect();
    let chunker = NpChunker::new();
    let clf = accept_all();
    let g = Globalizer::new(
        &chunker,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(2_000),
            ..Default::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("emd_churn_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.ckpt");
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 4,
            checkpoint_generations: 2,
            batch_size: BATCH,
            ..Default::default()
        },
    );

    // Interrupted run: 4096 sentences = 16 batches, checkpoints at 4, 8,
    // 12 and 16 — the ladder holds 16 and 12.
    let first = sup.run(&stream[..4_096]);
    assert_eq!(first.checkpoints_written, 4);
    let (seq, ckpt): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
    assert_eq!(seq, 16);
    assert_eq!(ckpt.tweetbase.len(), 2_000, "the window is full");
    assert!(ckpt.n_evicted() > 0, "the window evicted before the crash");
    assert_eq!(
        ckpt.tweetbase.n_slots(),
        ckpt.tweetbase.len(),
        "checkpoints are compacted: no tombstone slots persisted"
    );
    let (older, _): (u64, GlobalizerState) =
        checkpoint::load(&checkpoint::generation_path(&path, 1)).unwrap();
    assert_eq!(older, 12, "the second generation is one interval older");

    // Restart over the full stream: resumed from the newest generation,
    // bit-identical to the uninterrupted run.
    let report = sup.run(&stream);
    assert!(report.resumed_from_checkpoint);
    assert_eq!(report.checkpoint_generation, 0);
    assert_eq!(report.batches_skipped, 16);
    assert_eq!(report.batches_total, stream.len().div_ceil(BATCH));
    let (plain, _) = g.run(&stream, BATCH);
    assert_eq!(report.output.per_sentence.len(), 2_000);
    assert_eq!(report.output.per_sentence, plain.per_sentence);
    assert_eq!(report.output.n_candidates, plain.n_candidates);
    assert_eq!(report.output.n_entities, plain.n_entities);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint payload as a JSON tree.
struct Json(Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

/// Fields that encode a hash map or set: their entry order is the
/// map's iteration order, which differs between two equal maps.
const HASHED_FIELDS: [&str; 2] = ["children", "quarantined_ids"];

/// `v` with hashed containers' entries sorted and the wall-clock
/// `timings` dropped: two states that are equal but for timings
/// canonicalize to the same tree.
fn canonical(v: Value) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.into_iter().map(canonical).collect()),
        Value::Obj(fields) => Value::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "timings")
                .map(|(k, v)| {
                    let mut v = canonical(v);
                    if let (true, Value::Arr(items)) = (HASHED_FIELDS.contains(&k.as_str()), &mut v)
                    {
                        items.sort_by_cached_key(|item| format!("{item:?}"));
                    }
                    (k, v)
                })
                .collect(),
        ),
        scalar => scalar,
    }
}

/// A checkpoint file's `seq` and its payload, canonicalized.
fn checkpoint_tree(path: &std::path::Path) -> (u64, Value) {
    let text = std::fs::read_to_string(path).unwrap();
    let (header, payload) = text.split_once('\n').unwrap();
    let seq = header
        .split(' ')
        .find_map(|f| f.strip_prefix("seq="))
        .and_then(|n| n.parse().ok())
        .expect("seq field");
    let Json(tree) = serde_json::from_str(payload).unwrap();
    (seq, canonical(tree))
}

/// Pipelined checkpoints write what the synchronous loop would. At the
/// windowed churn shape above, every ladder file `run` leaves decodes to
/// the state a decomposed single-threaded loop reaches after the same
/// batches — clone, `process_batch`, `compact` on the checkpoint
/// schedule, `save_generations` — in every field but the wall-clock
/// `timings`, and the newest one continues to the uninterrupted output.
#[test]
fn pipelined_checkpoints_equal_a_synchronous_save_loop_at_window_scale() {
    let _g = global_flag(false);
    const BATCH: usize = 256;
    const EVERY: usize = 4;
    const PREFIX: usize = 4_096 + 3 * BATCH;
    let world = World::generate(&WorldConfig {
        seed: 99,
        ..Default::default()
    });
    let stream: Vec<Sentence> =
        gen_churn_stream(&world, 6_000, 1_000, "churn", &NoiseConfig::default(), 7)
            .sentences
            .into_iter()
            .map(|a| a.sentence)
            .collect();
    let chunker = NpChunker::new();
    let clf = accept_all();
    let g = Globalizer::new(
        &chunker,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(2_000),
            ..Default::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("emd_pipelined_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.ckpt");
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: EVERY,
            checkpoint_generations: 2,
            batch_size: BATCH,
            ..Default::default()
        },
    );
    // 19 batches: checkpoints at 4, 8, 12, 16 and the last; the ladder
    // holds 19 and 16.
    let report = sup.run(&stream[..PREFIX]);
    assert_eq!(report.checkpoints_written, 5);

    let sync_path = dir.join("sync.ckpt");
    let batches: Vec<&[Sentence]> = stream[..PREFIX].chunks(BATCH).collect();
    let mut state = g.new_state();
    for (i, batch) in batches.iter().enumerate() {
        let mut trial = state.clone();
        g.process_batch(&mut trial, batch);
        state = trial;
        let serviced = i + 1;
        if serviced % EVERY == 0 || serviced == batches.len() {
            state.compact();
            checkpoint::save_generations(&sync_path, serviced as u64, &state, 2).unwrap();
        }
    }
    for k in 0..2 {
        let pipelined = checkpoint_tree(&checkpoint::generation_path(&path, k));
        let sync = checkpoint_tree(&checkpoint::generation_path(&sync_path, k));
        assert_eq!(pipelined.0, sync.0, "generation {k} seq");
        assert!(pipelined.1 == sync.1, "generation {k} state differs");
    }
    let (seq, mut restored): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
    assert_eq!(seq as usize, batches.len());
    for batch in stream[PREFIX..].chunks(BATCH) {
        g.process_batch(&mut restored, batch);
    }
    let out = g.finalize(&mut restored);
    let (plain, _) = g.run(&stream, BATCH);
    assert_eq!(out.per_sentence, plain.per_sentence);
    assert_eq!(out.n_candidates, plain.n_candidates);
    assert_eq!(out.n_entities, plain.n_entities);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A supervised batch whose trial is discarded *after* processing rolls
/// back cleanly. The fault fires at `supervisor_commit`, past the window
/// fill, so the discarded trial has already evicted, settled, pooled into
/// and pruned records it shares with the pre-batch snapshot. The retry
/// starts from that snapshot, and the output equals an uninterrupted run.
#[test]
fn supervised_trial_discarded_after_processing_rolls_back() {
    let _g = global_flag(false);
    failpoint::install_quiet_hook();
    const BATCH: usize = 250;
    const WINDOW: usize = 1_000;
    const FAULT_BATCH: usize = 7;
    let world = World::generate(&WorldConfig {
        seed: 99,
        ..Default::default()
    });
    let stream: Vec<Sentence> =
        gen_churn_stream(&world, 3_000, 500, "churn", &NoiseConfig::default(), 11)
            .sentences
            .into_iter()
            .map(|a| a.sentence)
            .collect();
    let chunker = NpChunker::new();
    // Untrained, so candidates stay short of an Entity verdict and cold
    // ones are prunable (accept-all would pin every candidate).
    let clf = EntityClassifier::new(7, 0);
    let g = Globalizer::new(
        &chunker,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(WINDOW),
            ..Default::default()
        },
    );

    // The faulted batch does window work on state it shares with its
    // snapshot: it evicts, and it prunes candidates the snapshot holds.
    let mut pre = g.new_state();
    for chunk in stream.chunks(BATCH).take(FAULT_BATCH - 1) {
        g.process_batch(&mut pre, chunk);
    }
    assert_eq!(pre.tweetbase.len(), WINDOW, "the window is full");
    let snapshot = serde_json::to_string(&pre).unwrap();
    let mut trial = pre.clone();
    g.process_batch(
        &mut trial,
        stream.chunks(BATCH).nth(FAULT_BATCH - 1).unwrap(),
    );
    assert!(trial.n_evicted() > pre.n_evicted(), "the trial evicts");
    assert!(
        pre.candidates
            .entries()
            .any(|(id, _)| trial.candidate_id(&pre.candidate_key(id)).is_none()),
        "the trial prunes"
    );
    // Replaying a batch is largely idempotent (known mentions are not
    // pooled twice), so equal output alone would not catch a trial that
    // wrote through to the snapshot; compare the snapshot itself.
    assert!(
        serde_json::to_string(&pre).unwrap() == snapshot,
        "the trial must not write through to the pre-batch state"
    );
    assert_indexes_hold(&pre, "the pre-batch state after the trial");

    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            batch_size: BATCH,
            ..Default::default()
        },
    );
    let report = {
        let _fp = failpoint::arm(
            "supervisor_commit",
            failpoint::Schedule::AfterN(FAULT_BATCH as u64 - 1),
        );
        sup.run(&stream)
    };
    assert_eq!(
        report.batches_retried, 1,
        "exactly the faulted batch retried"
    );
    assert_eq!(report.batches_dead_lettered, 0);
    assert!(report.output.quarantined.is_empty());
    let (plain, _) = g.run(&stream, BATCH);
    assert_eq!(report.output.per_sentence.len(), WINDOW);
    assert_eq!(report.output.per_sentence, plain.per_sentence);
    assert_eq!(report.output.n_candidates, plain.n_candidates);
    assert_eq!(report.output.n_entities, plain.n_entities);
    assert_eq!(report.output.n_promoted, plain.n_promoted);
}
