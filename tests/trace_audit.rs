//! Integration tests for the `emd-trace` layer against the real pipeline:
//!
//! * **Noop transparency** — running the identical pipeline with tracing
//!   enabled and disabled yields bit-identical `GlobalizerOutput`s (the
//!   acceptance bar for "tracing is observation only").
//! * **Replay audit** — `emd_trace::audit::replay` over the drained event
//!   log reconstructs the pipeline's final mention set and summary counts
//!   exactly, across streams exercising incremental rescan, adjacent-pair
//!   promotion, degraded fallback, and quarantine.
//! * **Phase views** — one reading per phase call: the phase histograms,
//!   `PhaseTimings` and the `PhaseSpan` events agree exactly, and settle
//!   rescans nest under `evict`.
//! * **Adjacency ledger** — the promotion evidence the pipeline keeps
//!   incrementally equals its definition, recounted from the trace.

use emd_globalizer::core::config::{Ablation, WindowConfig};
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::obs::PipelineMetrics;
use emd_globalizer::core::supervisor::{StreamSupervisor, SupervisorConfig};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig, GlobalizerOutput};
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::failpoint::{self, Schedule};
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use emd_globalizer::trace::audit::{replay, ReplayedOutput};
use emd_globalizer::trace::{flame, TraceEvent, TraceEventKind, TracePhase, TraceSink};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard};

/// The tracing and metrics switches and the fail-point registry are
/// process-global, and cargo's harness runs the tests in this binary on
/// multiple threads: serialise every test here and restore the default
/// (tracing and metrics off, all fail points disarmed) on drop.
static TRACE_FLAG: Mutex<()> = Mutex::new(());

struct TraceGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for TraceGuard {
    fn drop(&mut self) {
        emd_globalizer::trace::set_enabled(false);
        emd_globalizer::obs::set_enabled(false);
        failpoint::disarm_all();
    }
}

fn trace_flag(on: bool) -> TraceGuard {
    let guard = TRACE_FLAG.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::disarm_all();
    emd_globalizer::trace::set_enabled(on);
    TraceGuard(guard)
}

/// A classifier biased hard enough to accept (or reject) everything.
fn biased_classifier(bias: f32) -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = bias;
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

/// Run a traced pipeline over `stream` with a private sink; return the
/// output and the drained, seq-ordered event log.
fn run_traced(
    g: &mut Globalizer,
    stream: &[Sentence],
    batch: usize,
    threads: usize,
) -> (GlobalizerOutput, Vec<emd_globalizer::trace::TraceEvent>) {
    let sink = TraceSink::with_capacity(1 << 16);
    g.set_trace(sink.clone());
    let mut s = g.new_state();
    for chunk in stream.chunks(batch.max(1)) {
        g.process_batch(&mut s, chunk);
    }
    let out = g.finalize_with_threads(&mut s, threads.max(1));
    assert_eq!(sink.dropped_total(), 0, "ring sized for the whole run");
    (out, sink.drain())
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

proptest! {
    /// Tracing is observation only: with the event log enabled the
    /// pipeline produces a bit-identical `GlobalizerOutput` (spans,
    /// discovery order, pooled embeddings, verdicts, quarantine log, all
    /// counts) to the untraced run. Only `phase_timings` may differ.
    #[test]
    fn tracing_is_output_transparent(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..12),
        batch in 1usize..6,
        threads in 1usize..4,
        seed in 0u64..4,
    ) {
        let _t = trace_flag(false);
        let local = lexicon();
        let clf = EntityClassifier::new(7, seed);
        let stream = stream_from(&msgs);
        let mut runs = Vec::new();
        for on in [true, false] {
            emd_globalizer::trace::set_enabled(on);
            let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
            if on {
                g.set_trace(TraceSink::with_capacity(1 << 16));
            }
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
        prop_assert_eq!(out_on.n_degraded, out_off.n_degraded);
        // QuarantineEntry equality deliberately ignores the trace link.
        prop_assert_eq!(&out_on.quarantined, &out_off.quarantined);
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

    /// Replay audit: the drained event log alone reconstructs the final
    /// mention set and every summary count, for all three ablations,
    /// under arbitrary batch schedules (which exercise the incremental
    /// rescan) and thread counts.
    #[test]
    fn replay_reconstructs_pipeline_output(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..12),
        batch in 1usize..6,
        threads in 1usize..4,
        seed in 0u64..4,
    ) {
        let _t = trace_flag(true);
        let local = lexicon();
        let clf = EntityClassifier::new(7, seed);
        let stream = stream_from(&msgs);
        for ablation in [Ablation::LocalOnly, Ablation::MentionExtraction, Ablation::Full] {
            let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig {
                ablation,
                ..Default::default()
            });
            let (out, events) = run_traced(&mut g, &stream, batch, threads);
            prop_assert_eq!(replay(&events), flatten(&out), "ablation {:?}", ablation);
        }
    }
}

/// Local system that panics persistently for one poisoned tweet, so that
/// sentence exhausts its retry budget and lands in quarantine at the
/// local-inference phase (the other sentences flow normally).
struct PoisonOneEmd {
    inner: LexiconEmd,
    poisoned_tweet: u64,
}

impl LocalEmd for PoisonOneEmd {
    fn name(&self) -> &str {
        "PoisonOneEmd"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        if sentence.id.tweet_id == self.poisoned_tweet {
            emd_globalizer::resilience::failpoint::panic_injected("poisoned tweet");
        }
        self.inner.process(sentence)
    }
}

fn finalize(g: &Globalizer, s: &mut GlobalizerState) -> GlobalizerOutput {
    g.finalize_with_threads(s, 1)
}

/// Promotion coverage: an entity fragmented into two adjacent candidates
/// is promoted at stream close; the replay reproduces the promoted
/// candidate's merged mentions and the promotion/rescan counts.
#[test]
fn replay_covers_adjacent_pair_promotion() {
    let _t = trace_flag(true);
    let local = lexicon();
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    // "Moross Lumsa" adjacent in four sentences clears the default
    // promotion support of 3 and dominates both fragments' frequencies.
    let stream: Vec<Sentence> = (0..4)
        .map(|i| {
            Sentence::from_tokens(
                SentenceId::new(i, 0),
                ["Moross", "Lumsa", "visits", "Italy"],
            )
        })
        .collect();
    let (out, events) = run_traced(&mut g, &stream, 2, 1);
    assert!(out.n_promoted >= 1, "promotion must trigger: {out:?}");
    assert!(out.n_rescanned >= 4, "promotion forces a rescan");
    assert_eq!(replay(&events), flatten(&out));
}

/// The trace names a candidate by the folded surface of its mentions
/// (`Span::surface_lower`), also where folding is not ASCII: `ß` stays,
/// a word-final `Σ` folds to `ς`, and `İ` to two chars. A rejecting
/// classifier pins nothing, so the cold `Straße` is pruned once its one
/// sentence leaves the window, while `ΟΔΟΣ İstanbul` is promoted.
#[test]
fn trace_names_candidates_by_their_folded_surface() {
    let _t = trace_flag(true);
    let local = LexiconEmd::new(["Straße", "ΟΔΟΣ", "İstanbul"]);
    let clf = biased_classifier(-100.0);
    let mut g = Globalizer::new(
        &local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(3),
            ..Default::default()
        },
    );
    let mut stream = vec![Sentence::from_tokens(
        SentenceId::new(0, 0),
        ["Straße", "opens"],
    )];
    for i in 1..5 {
        stream.push(Sentence::from_tokens(
            SentenceId::new(i, 0),
            ["ΟΔΟΣ", "İstanbul", "news"],
        ));
    }
    let (out, events) = run_traced(&mut g, &stream, 1, 1);
    assert_eq!(out.n_promoted, 1);
    let surface =
        |i: usize, start: usize, end: usize| Span::new(start, end).surface_lower(&stream[i]);
    for e in events
        .iter()
        .filter(|e| e.kind == TraceEventKind::ScanMention)
    {
        let ((tweet, _), (start, end)) = (e.sid.unwrap(), e.span.unwrap());
        let want = surface(tweet as usize, start as usize, end as usize);
        assert_eq!(e.candidate.as_deref(), Some(want.as_str()));
    }
    let named = |kind: TraceEventKind| -> BTreeSet<String> {
        let of_kind = events.iter().filter(|e| e.kind == kind);
        of_kind.map(|e| e.candidate.clone().unwrap()).collect()
    };
    let (street, road, city, pair) = (
        surface(0, 0, 1),
        surface(1, 0, 1),
        surface(1, 1, 2),
        surface(1, 0, 2),
    );
    assert_eq!((road.as_str(), city.as_str()), ("οδος", "i\u{307}stanbul"));
    assert_eq!(
        named(TraceEventKind::CandidatePruned),
        BTreeSet::from([street.clone()])
    );
    assert_eq!(
        named(TraceEventKind::Promotion),
        BTreeSet::from([pair.clone()])
    );
    assert_eq!(
        named(TraceEventKind::Verdict),
        BTreeSet::from([street, road, city, pair])
    );
}

/// Quarantine coverage (local phase): a persistently panicking local
/// system diverts one sentence to the dead-letter log; the replay never
/// surfaces the quarantined sentence and still matches exactly.
#[test]
fn replay_covers_local_quarantine() {
    let _t = trace_flag(true);
    failpoint::install_quiet_hook();
    let local = PoisonOneEmd {
        inner: lexicon(),
        poisoned_tweet: 1,
    };
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = vec![
        Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "reports", "cases"]),
        Sentence::from_tokens(SentenceId::new(1, 0), ["Covid", "news"]),
        Sentence::from_tokens(SentenceId::new(2, 0), ["italy", "again"]),
    ];
    let (out, events) = run_traced(&mut g, &stream, 2, 1);
    assert_eq!(out.quarantined.len(), 1, "{:?}", out.quarantined);
    assert_eq!(out.quarantined[0].sid, SentenceId::new(1, 0));
    assert!(
        out.per_sentence.iter().all(|(sid, _)| sid.tweet_id != 1),
        "quarantined sentence must not be emitted"
    );
    assert_eq!(replay(&events), flatten(&out));
}

/// Quarantine coverage (scan phase): a persistent scan fault quarantines
/// every record staged in that batch; replay excludes them and matches.
#[test]
fn replay_covers_scan_quarantine() {
    let _t = trace_flag(true);
    let local = lexicon();
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let sink = TraceSink::with_capacity(1 << 16);
    g.set_trace(sink.clone());
    let poisoned = vec![
        Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "reports"]),
        Sentence::from_tokens(SentenceId::new(1, 0), ["Covid", "cases"]),
    ];
    let clean = vec![Sentence::from_tokens(
        SentenceId::new(2, 0),
        ["Italy", "news"],
    )];
    let mut s = g.new_state();
    {
        let _fp = failpoint::arm("scan", Schedule::EveryK(1));
        g.process_batch(&mut s, &poisoned);
    }
    g.process_batch(&mut s, &clean);
    let out = finalize(&g, &mut s);
    assert_eq!(out.quarantined.len(), 2, "{:?}", out.quarantined);
    assert_eq!(
        out.per_sentence
            .iter()
            .map(|(sid, _)| sid.tweet_id)
            .collect::<Vec<_>>(),
        vec![2],
        "only the clean sentence survives"
    );
    let events = sink.drain();
    assert_eq!(replay(&events), flatten(&out));
}

/// Degraded-fallback coverage: every phrase-embedding call fails, so all
/// candidates degrade to the local system's own detections; replay applies
/// the same per-candidate fallback rule and matches.
#[test]
fn replay_covers_degraded_fallback() {
    let _t = trace_flag(true);
    let local = lexicon();
    // A reject-all classifier: only the degraded fallback can emit spans,
    // so any emitted mention proves the fallback path (not the verdict).
    let clf = biased_classifier(-100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let sink = TraceSink::with_capacity(1 << 16);
    g.set_trace(sink.clone());
    let stream = [
        Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "reports", "cases"]),
        Sentence::from_tokens(SentenceId::new(1, 0), ["the", "Covid", "news"]),
        Sentence::from_tokens(SentenceId::new(2, 0), ["ITALY", "again"]),
    ];
    let mut s = g.new_state();
    let _fp = failpoint::arm("phrase_embed", Schedule::EveryK(1));
    for chunk in stream.chunks(2) {
        g.process_batch(&mut s, chunk);
    }
    let out = finalize(&g, &mut s);
    assert!(out.n_degraded >= 2, "all candidates degrade: {out:?}");
    let emitted: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
    assert!(
        emitted >= 3,
        "degraded fallback re-emits the local detections: {out:?}"
    );
    let events = sink.drain();
    assert_eq!(replay(&events), flatten(&out));
}

/// The event log round-trips through the JSONL codec without loss, so an
/// exported trace replays to the same reconstruction as the live one.
#[test]
fn exported_trace_replays_identically() {
    let _t = trace_flag(true);
    let local = lexicon();
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = vec![
        Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "reports", "Covid"]),
        Sentence::from_tokens(SentenceId::new(1, 0), ["covid", "cases", "rise"]),
    ];
    let (out, events) = run_traced(&mut g, &stream, 8, 1);
    let jsonl = emd_globalizer::trace::jsonl::to_jsonl(&events);
    let back = emd_globalizer::trace::jsonl::from_jsonl(&jsonl).unwrap();
    assert_eq!(back, events);
    assert_eq!(replay(&back), flatten(&out));
}

/// A traced supervised run. The checkpoint writer finishes while later
/// batches run, so each `CheckpointSaved` is emitted at the join that
/// follows its write; it still carries the batch of the snapshot it
/// wrote, never the batch current at the join. The replay of the
/// supervised log still reconstructs the output.
#[test]
fn supervised_checkpoint_events_carry_their_snapshot_batch() {
    let _t = trace_flag(true);
    let local = lexicon();
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let sink = TraceSink::with_capacity(1 << 16);
    g.set_trace(sink.clone());
    let msgs: Vec<Vec<usize>> = (0..40).map(|i| vec![i % 12, (i + 5) % 12, 8]).collect();
    let stream = stream_from(&msgs);
    let path = std::env::temp_dir().join(format!(
        "emd_trace_audit_supervised_{}.ckpt",
        std::process::id()
    ));
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 3,
            checkpoint_generations: 2,
            batch_size: 4,
            dead_letter_file: false,
            ..Default::default()
        },
    );
    let report = sup.run(&stream);
    assert_eq!(sink.dropped_total(), 0, "ring sized for the whole run");
    let events = &report.trace_events;
    let saved: Vec<(Option<u64>, Option<u64>)> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::CheckpointSaved)
        .map(|e| (e.batch, e.count))
        .collect();
    // 10 batches, checkpoints after 3, 6, 9 and the last.
    let want: Vec<(Option<u64>, Option<u64>)> =
        [3, 6, 9, 10].iter().map(|&b| (Some(b), Some(b))).collect();
    assert_eq!(saved, want);
    // Every event lands after its snapshot's batch began.
    for e in events
        .iter()
        .filter(|e| e.kind == TraceEventKind::CheckpointSaved)
    {
        let started = events
            .iter()
            .find(|s| s.kind == TraceEventKind::BatchStart && s.batch == e.batch)
            .expect("the snapshot's batch started");
        assert!(started.seq < e.seq);
    }
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "the supervised log is in sequence order"
    );
    assert_eq!(replay(events), flatten(&report.output));
    for k in 0..2 {
        let _ = std::fs::remove_file(emd_globalizer::resilience::checkpoint::generation_path(
            &path, k,
        ));
    }
}

/// Local system that tags lexicon words only when capitalised, so a
/// lower-case mention stays unseen until a later sentence registers the
/// candidate and dirties it.
struct CapitalisedLexiconEmd(LexiconEmd);

impl LocalEmd for CapitalisedLexiconEmd {
    fn name(&self) -> &str {
        "CapitalisedLexiconEmd"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let mut out = self.0.process(sentence);
        out.spans.retain(|sp| {
            sentence.tokens[sp.start]
                .text
                .starts_with(char::is_uppercase)
        });
        out
    }
}

/// A traced run over a 4-sentence window in batches of 2 that evicts,
/// settles and promotes: "zutav" is first seen lower-case in sentence 0
/// and registered by sentence 4, which dirties sentence 0 in the batch
/// that evicts it; "Moross Lumsa" is adjacent in four sentences.
fn windowed_run(g: &mut Globalizer) -> (GlobalizerOutput, Vec<TraceEvent>) {
    let msgs: [&[&str]; 10] = [
        &["zutav", "report", "news"],
        &["Moross", "Lumsa", "visits", "Italy"],
        &["the", "news", "again"],
        &["Moross", "Lumsa", "cases"],
        &["Zutav", "visit", "Italy"],
        &["Moross", "Lumsa", "report"],
        &["Covid", "cases", "again"],
        &["Moross", "Lumsa", "news"],
        &["zutav", "Covid", "the"],
        &["Italy", "report", "Zutav"],
    ];
    let stream: Vec<Sentence> = msgs
        .iter()
        .enumerate()
        .map(|(i, toks)| Sentence::from_tokens(SentenceId::new(i as u64, 0), toks.iter().copied()))
        .collect();
    g.config.window = WindowConfig::sliding(4);
    let (out, events) = run_traced(g, &stream, 2, 1);
    assert!(
        events
            .iter()
            .any(|e| e.kind == TraceEventKind::SentenceEvicted),
        "the run must evict"
    );
    assert!(out.n_promoted >= 1, "the run must promote: {out:?}");
    (out, events)
}

/// Settle rescans run inside window enforcement, so their scan and pool
/// spans nest under `evict`: inside a batch they are the scan/pool
/// spans between the batch-time classification span and the evict span. The flame view then
/// counts their time once, inside `emd;evict`.
#[test]
fn settle_rescan_spans_nest_under_evict() {
    let _t = trace_flag(true);
    let local = CapitalisedLexiconEmd(lexicon());
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let (_, events) = windowed_run(&mut g);
    let spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::PhaseSpan || e.kind == TraceEventKind::BatchStart)
        .collect();
    let mut settle = Vec::new();
    let mut classified = false;
    for e in &spans {
        match (e.kind, e.phase) {
            (TraceEventKind::BatchStart, _) | (_, Some(TracePhase::Evict)) => classified = false,
            (_, Some(TracePhase::Classify)) => classified = true,
            (_, Some(TracePhase::Scan | TracePhase::Pool)) if classified => settle.push(*e),
            _ => {}
        }
    }
    assert!(settle.len() >= 2, "the run must settle a record");
    for e in &settle {
        assert_eq!(e.parent, Some(TracePhase::Evict), "settle span {e:?}");
    }
    let stacks = flame::to_collapsed_stacks(&events);
    assert!(stacks.contains("emd;evict;scan "), "{stacks}");
}

/// One reading per phase call: for every phase with a histogram, the
/// histogram's sum, the `PhaseTimings` field and the summed `PhaseSpan`
/// durations are the same number, the histogram holds one sample per
/// span, and a sample's exemplar resolves to an event of the trace. The
/// closing rescan accrues into the scan views.
#[test]
fn phase_histograms_timings_and_spans_agree() {
    let _t = trace_flag(true);
    emd_globalizer::obs::set_enabled(true);
    let local = CapitalisedLexiconEmd(lexicon());
    let clf = biased_classifier(100.0);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let reg = emd_globalizer::obs::Registry::new();
    g.set_metrics(PipelineMetrics::from_registry(&reg));
    let (out, events) = windowed_run(&mut g);
    assert!(
        events
            .iter()
            .any(|e| e.phase == Some(TracePhase::Scan) && e.parent == Some(TracePhase::Evict)),
        "the run must settle a record"
    );
    let snap = g.metrics().snapshot();
    let t = &out.phase_timings;
    use TracePhase as P;
    let views: [(&str, u64, &[TracePhase]); 7] = [
        (
            "emd_pipeline_local_infer_ns",
            t.local_infer_ns,
            &[P::LocalInfer],
        ),
        ("emd_pipeline_ingest_ns", t.ingest_ns, &[P::Ingest]),
        (
            "emd_pipeline_scan_ns",
            t.scan_ns,
            &[P::Scan, P::FinalizeRescan],
        ),
        ("emd_pipeline_pool_ns", t.pool_ns, &[P::Pool]),
        ("emd_pipeline_classify_ns", t.classify_ns, &[P::Classify]),
        ("emd_pipeline_evict_ns", t.evict_ns, &[P::Evict]),
        ("emd_pipeline_finalize_ns", t.finalize_ns, &[P::Finalize]),
    ];
    for (name, field, phases) in views {
        let hist = snap.histogram(name).expect("pipeline histogram");
        let durs: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::PhaseSpan)
            .filter(|e| e.phase.is_some_and(|p| phases.contains(&p)))
            .map(|e| e.dur_ns.expect("span duration"))
            .collect();
        assert!(field > 0, "{name}: the phase ran");
        assert_eq!(hist.sum, field, "{name}: histogram sum vs PhaseTimings");
        assert_eq!(
            durs.iter().sum::<u64>(),
            field,
            "{name}: spans vs PhaseTimings"
        );
        assert_eq!(hist.count, durs.len() as u64, "{name}: samples vs spans");
        assert!(
            hist.exemplars
                .iter()
                .any(|x| events.iter().any(|e| e.seq == x.trace_seq)),
            "{name}: no exemplar resolves into the trace"
        );
    }
}

type Mention = ((u32, u32), String);

/// The adjacency ledger's definition, recounted from the trace: each
/// record's mentions as its last scan left them, and the pairs every
/// evicted record held when it left the window, less the pairs of every
/// candidate pruned since.
#[derive(Default)]
struct PairRecount {
    /// Per sentence: `(span, candidate)` for each mention, in span order.
    held: HashMap<(u64, u32), Vec<Mention>>,
    evicted: BTreeMap<(String, String), u64>,
}

impl PairRecount {
    fn fold(&mut self, events: &[TraceEvent]) {
        for e in events {
            // No live record holds a pruned candidate, so only evicted
            // pairs can name it.
            if e.kind == TraceEventKind::CandidatePruned {
                let c = e.candidate.as_ref().unwrap();
                self.evicted.retain(|(a, b), _| a != c && b != c);
            }
            let Some(sid) = e.sid else { continue };
            match e.kind {
                // A scan restates the record's mentions; a (re-)admitted
                // record has none yet; a quarantined one retires them.
                TraceEventKind::ScanRecord
                | TraceEventKind::SentenceAdmitted
                | TraceEventKind::SentenceQuarantined => {
                    self.held.insert(sid, Vec::new());
                }
                TraceEventKind::ScanMention => self
                    .held
                    .entry(sid)
                    .or_default()
                    .push((e.span.unwrap(), e.candidate.clone().unwrap())),
                TraceEventKind::SentenceEvicted => {
                    let held = self.held.remove(&sid).unwrap_or_default();
                    for w in held.windows(2) {
                        if w[0].0 .1 == w[1].0 .0 {
                            *self
                                .evicted
                                .entry((w[0].1.clone(), w[1].1.clone()))
                                .or_default() += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The evicted pairs plus the adjacent pairs of every live record's
    /// stored mentions.
    fn expected(&self, state: &GlobalizerState) -> BTreeMap<(String, String), u64> {
        let mut pairs = self.evicted.clone();
        for rec in state.tweetbase.iter() {
            for w in rec.global_mentions.windows(2) {
                if w[0].end == w[1].start {
                    let key = |i: usize| state.tweetbase.interner().join(rec.syms_of(&w[i]));
                    *pairs.entry((key(0), key(1))).or_default() += 1;
                }
            }
        }
        pairs
    }
}

proptest! {
    /// The adjacency ledger equals its definition after every batch and
    /// every close: the adjacent pairs of the live records' stored
    /// mentions, plus (windowed) those of every evicted record as it
    /// stood at eviction, less those of pruned candidates; empty while
    /// promotion is disabled. Streams re-deliver ids, close in between,
    /// and quarantine a batch's scans or a close's rescans; a rejecting
    /// classifier lets cold candidates be pruned.
    #[test]
    fn adjacency_ledger_matches_its_definition(
        msgs in proptest::collection::vec(
            (0u64..20, proptest::collection::vec(0usize..12, 1..8)),
            1..16,
        ),
        batch in 1usize..5,
        window in 0usize..6,
        support in 0usize..4,
        plan in (0usize..6, 0usize..3, 0usize..6, 1usize..3, 0u8..2),
    ) {
        let (close_every, fault, fault_at, threads, reject) = plan;
        let _t = trace_flag(true);
        let local = lexicon();
        let clf = biased_classifier(if reject == 1 { -100.0 } else { 100.0 });
        let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig {
            promotion_support: support,
            window: WindowConfig::sliding(window),
            ..Default::default()
        });
        let sink = TraceSink::with_capacity(1 << 16);
        g.set_trace(sink.clone());
        let words: Vec<Vec<usize>> = msgs.iter().map(|(_, w)| w.clone()).collect();
        let mut stream = stream_from(&words);
        for (s, (id, _)) in stream.iter_mut().zip(&msgs) {
            s.id = SentenceId::new(*id, 0);
        }
        let mut state = g.new_state();
        let mut recount = PairRecount::default();
        let mut check = |state: &GlobalizerState, step: &str| -> Result<(), TestCaseError> {
            recount.fold(&sink.drain());
            let ledger: BTreeMap<(String, String), u64> = state
                .adjacency()
                .at_least(1)
                .into_iter()
                .map(|(a, b, n)| ((state.candidate_key(a), state.candidate_key(b)), n))
                .collect();
            let want = if support == 0 { BTreeMap::new() } else { recount.expected(state) };
            prop_assert_eq!(ledger, want, "after {}", step);
            Ok(())
        };
        let chunks: Vec<&[Sentence]> = stream.chunks(batch).collect();
        for (b, chunk) in chunks.iter().enumerate() {
            {
                let _fp = (fault == 1 && fault_at == b)
                    .then(|| failpoint::arm("scan", Schedule::EveryK(1)));
                g.process_batch(&mut state, chunk);
            }
            check(&state, &format!("batch {b}"))?;
            let last = b + 1 == chunks.len();
            if last || (close_every > 0 && (b + 1) % close_every == 0) {
                let _fp = (fault == 2 && (fault_at == b || last))
                    .then(|| failpoint::arm("finalize_rescan", Schedule::EveryK(1)));
                g.finalize_with_threads(&mut state, threads);
                drop(_fp);
                check(&state, &format!("the close after batch {b}"))?;
            }
        }
        prop_assert_eq!(sink.dropped_total(), 0);
    }
}
