//! Overload-runtime chaos suite: admission control, circuit breakers,
//! backoff/deadline retry, checkpoint fallback, and dead-letter replay —
//! the self-healing loop end to end.
//!
//! Built with `emd-resilience/failpoints` active (root dev-dependency),
//! so deterministic faults can be injected at every guarded boundary.
//! The fail-point registry, metrics flag, and trace flag are
//! process-global, so every test serialises on [`GUARD_LOCK`].
//!
//! What is verified:
//!
//! * **Transparency** — attaching the guard (breakers on classify /
//!   pooling / rescan) to a fault-free run changes nothing: outputs are
//!   bit-identical to the unguarded run and no breaker ever leaves
//!   Closed (proptest).
//! * **Fault storm** — under simultaneous admission pressure and
//!   batch-level faults, every batch is accounted for exactly once
//!   (admitted + shed + dead-lettered = total), shed and dead-lettered
//!   sentences land in quarantine under the right phase, the dead-letter
//!   JSONL carries one replayable record per lost batch, and the output
//!   for admitted batches is bit-identical to a clean run over that
//!   substream (proptest).
//! * **Breakers** — persistent classify faults trip the breaker after
//!   `failure_threshold` consecutive failing batches; while Open the
//!   classifier is not invoked at all (candidates degrade with zero
//!   retry burn even with no fault armed); after the cooldown the
//!   breaker probes HalfOpen and re-closes on success.
//! * **Sentinel coupling** — a Critical health transition force-opens
//!   every breaker, even with spotless breaker-local failure counts.
//! * **Checkpoint fallback** — a mid-run crash between the checkpoint
//!   tmp-write and its atomic rename (the torn-write window) loses only
//!   the newest generation; restart falls back down the retained ladder
//!   and finishes bit-identical to an uninterrupted run. Truncated and
//!   checksum-corrupt generations are stepped over with their reasons
//!   surfaced.
//! * **Checkpoint writer** — the supervisor writes checkpoints on a
//!   writer thread. A fault there unwinds out of `run` by the next join,
//!   and the restart is bit-identical; unwritable checkpoints are counted
//!   as failures while the stream finishes; the wait histogram takes one
//!   sample per join.
//! * **Deadlines** — a batch whose charged backoff delays exceed the
//!   per-batch deadline budget is dead-lettered with a "deadline
//!   exceeded" reason instead of burning the remaining attempts.

use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::supervisor::{StreamSupervisor, SupervisorConfig};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig, GlobalizerOutput};
use emd_globalizer::guard::{AdmissionConfig, BreakerConfig, BreakerState, OverloadPolicy};
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::checkpoint;
use emd_globalizer::resilience::deadletter;
use emd_globalizer::resilience::failpoint::{self, Schedule};
use emd_globalizer::resilience::quarantine::PipelinePhase;
use emd_globalizer::sentinel::{HealthPolicy, Rule, Sentinel, SentinelConfig, SeriesId, Severity};
use emd_globalizer::text::token::{Sentence, SentenceId};
use emd_globalizer::trace::{TraceEventKind, TracePhase, TraceSink};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Serialises every test in this binary: fail points, the metrics flag,
/// and the trace flag are process-global. Resets all three on entry and
/// on drop.
static GUARD_LOCK: Mutex<()> = Mutex::new(());

struct LockGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for LockGuard {
    fn drop(&mut self) {
        failpoint::disarm_all();
        emd_globalizer::obs::set_enabled(false);
        emd_globalizer::trace::set_enabled(false);
    }
}

fn guard_lock() -> LockGuard {
    let g = GUARD_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::disarm_all();
    emd_globalizer::obs::set_enabled(false);
    emd_globalizer::trace::set_enabled(false);
    LockGuard(g)
}

fn accept_all(dim: usize) -> EntityClassifier {
    let mut c = EntityClassifier::new(dim, 0);
    let params = c.params_mut();
    let last = params.into_iter().last().unwrap();
    last.value.data[0] = 100.0;
    c
}

const WORDS: [&str; 12] = [
    "italy", "covid", "beshear", "moross", "lumsa", "zutav", "report", "cases", "the", "news",
    "visit", "again",
];

fn lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "covid", "beshear", "moross", "lumsa", "zutav"])
}

/// Deterministic synthetic stream from word-index messages.
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

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "emd_guard_rt_{}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
        tag
    ))
}

fn cleanup_ladder(path: &Path, keep: usize) {
    for k in 0..keep {
        let _ = std::fs::remove_file(checkpoint::generation_path(path, k));
    }
    let _ = std::fs::remove_file(deadletter::deadletter_path(path));
}

fn run_batches(g: &Globalizer<'_>, stream: &[Sentence], batch: usize) -> GlobalizerOutput {
    let mut state = g.new_state();
    for chunk in stream.chunks(batch.max(1)) {
        g.process_batch(&mut state, chunk);
    }
    g.finalize(&mut state)
}

proptest! {
    /// Transparency: a guarded, fault-free run is bit-identical to the
    /// unguarded run — breakers observe, they never interfere, and none
    /// of them ever leaves Closed without a fault to justify it.
    #[test]
    fn guarded_no_fault_run_is_bit_identical(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..24),
        batch in 1usize..6,
    ) {
        let _l = guard_lock();
        let local = lexicon();
        let clf = accept_all(7);
        let stream = stream_from(&msgs);
        let plain_g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let plain = run_batches(&plain_g, &stream, batch);
        let mut guarded_g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        guarded_g.set_guard(BreakerConfig::default());
        let guarded = run_batches(&guarded_g, &stream, batch);
        prop_assert_eq!(&guarded.per_sentence, &plain.per_sentence);
        prop_assert_eq!(guarded.n_candidates, plain.n_candidates);
        prop_assert_eq!(guarded.n_entities, plain.n_entities);
        prop_assert_eq!(guarded.n_degraded, plain.n_degraded);
        prop_assert_eq!(&guarded.quarantined, &plain.quarantined);
        prop_assert!(
            guarded_g.guard_transitions().is_empty(),
            "no fault, no transition"
        );
        for (_, s) in guarded_g.breaker_states().unwrap() {
            prop_assert_eq!(s, BreakerState::Closed);
        }
    }

    /// Fault storm: admission pressure plus batch-level faults. Every
    /// batch ends in exactly one bucket — serviced, shed, or
    /// dead-lettered — the quarantine and the dead-letter JSONL account
    /// for the lost ones, and the surviving output is bit-identical to a
    /// clean run over the admitted substream.
    #[test]
    fn fault_storm_accounts_for_every_batch_and_stays_deterministic(
        n_msgs in 4usize..12,
        cap_batches in 1usize..4,
        arrivals in 2usize..5,
        every_k in 1u64..4,
        retries in 0usize..2,
        drop_oldest in 0usize..2,
    ) {
        let _l = guard_lock();
        let msgs: Vec<Vec<usize>> = (0..n_msgs * 2)
            .map(|i| vec![i % 12, (i + 5) % 12])
            .collect();
        let stream = stream_from(&msgs);
        let batch_size = 2;
        let n_batches = stream.len() / batch_size;
        let local = lexicon();
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let path = temp("storm");
        cleanup_ladder(&path, 1);
        let sup = StreamSupervisor::new(&g, SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 64, // only the final checkpoint: no resume interplay
            batch_size,
            batch_retries: retries,
            admission: AdmissionConfig {
                capacity: (cap_batches * batch_size) as u64,
                policy: if drop_oldest == 1 { OverloadPolicy::DropOldest } else { OverloadPolicy::RejectNew },
                ..Default::default()
            },
            ..Default::default()
        });
        let report = {
            let _fp = failpoint::arm("supervisor_batch", Schedule::EveryK(every_k));
            sup.run_queued(&stream, arrivals)
        };
        // Bucket accounting: quarantine phases partition the lost batches.
        let shed_sents = report.output.quarantined.iter()
            .filter(|q| q.phase == PipelinePhase::Admission).count();
        let dead_sents = report.output.quarantined.iter()
            .filter(|q| q.phase == PipelinePhase::Supervisor).count();
        prop_assert_eq!(shed_sents, report.batches_shed * batch_size);
        prop_assert_eq!(dead_sents, report.batches_dead_lettered * batch_size);
        prop_assert_eq!(
            report.output.per_sentence.len() + shed_sents + dead_sents,
            stream.len(),
            "admitted + shed + dead-lettered = total"
        );
        // One replayable JSONL record per lost batch, none for survivors.
        let records = deadletter::read_all(&deadletter::deadletter_path(&path)).unwrap();
        prop_assert_eq!(records.len(), report.batches_shed + report.batches_dead_lettered);
        prop_assert_eq!(records.len(), report.dead_letter_records);
        let recorded_sents: usize = records.iter().map(|r| r.sentences.len()).sum();
        prop_assert_eq!(recorded_sents, shed_sents + dead_sents);
        // Bit-identity: a clean run over exactly the admitted batches.
        let lost: std::collections::HashSet<SentenceId> = report.output.quarantined.iter()
            .map(|q| q.sid).collect();
        let mut state = g.new_state();
        for chunk in stream.chunks(batch_size) {
            if chunk.iter().any(|s| lost.contains(&s.id)) {
                prop_assert!(
                    chunk.iter().all(|s| lost.contains(&s.id)),
                    "batches are lost atomically, never in part"
                );
                continue;
            }
            g.process_batch(&mut state, chunk);
        }
        let clean = g.finalize(&mut state);
        prop_assert_eq!(&report.output.per_sentence, &clean.per_sentence);
        prop_assert_eq!(report.output.n_candidates, clean.n_candidates);
        prop_assert_eq!(report.output.n_entities, clean.n_entities);
        prop_assert_eq!(report.batches_total, n_batches);
        cleanup_ladder(&path, 1);
    }
}

#[test]
fn breaker_trips_skips_work_while_open_and_recloses() {
    let _l = guard_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    g.set_guard(BreakerConfig {
        failure_threshold: 2,
        open_ticks: 2,
        half_open_probes: 1,
    });
    // One fresh lexicon candidate per batch, so the classify pass always
    // has work (and an outcome) every batch.
    let msgs = vec![vec![0, 6], vec![1, 7], vec![2, 8], vec![3, 9], vec![4, 10]];
    let stream = stream_from(&msgs);
    let mut state = g.new_state();
    // Batches 1-2 under a persistent classify fault: two consecutive
    // failing passes trip the breaker.
    {
        let _fp = failpoint::arm("classify", Schedule::EveryK(1));
        g.process_batch(&mut state, &stream[0..1]);
        g.process_batch(&mut state, &stream[1..2]);
    }
    let states: std::collections::HashMap<_, _> = g.breaker_states().unwrap().into_iter().collect();
    assert_eq!(states[&TracePhase::Classify], BreakerState::Open);
    // Batch 3 with NO fault armed: the breaker is still cooling down, so
    // the classifier is skipped outright — its fresh candidate degrades
    // with zero scoring attempts (zero retry burn).
    let before = state.candidates.iter().filter(|c| c.degraded).count();
    g.process_batch(&mut state, &stream[2..3]);
    let after = state.candidates.iter().filter(|c| c.degraded).count();
    assert!(
        after > before,
        "open breaker degrades new candidates without scoring them"
    );
    // Batch 4: cooldown (2 ticks) served → HalfOpen; the healthy pass
    // closes it again.
    g.process_batch(&mut state, &stream[3..4]);
    let states: std::collections::HashMap<_, _> = g.breaker_states().unwrap().into_iter().collect();
    assert_eq!(states[&TracePhase::Classify], BreakerState::Closed);
    let transitions: Vec<(TracePhase, BreakerState, BreakerState)> = g
        .guard_transitions()
        .into_iter()
        .filter(|(p, _)| *p == TracePhase::Classify)
        .map(|(p, t)| (p, t.from, t.to))
        .collect();
    assert_eq!(
        transitions,
        vec![
            (
                TracePhase::Classify,
                BreakerState::Closed,
                BreakerState::Open
            ),
            (
                TracePhase::Classify,
                BreakerState::Open,
                BreakerState::HalfOpen
            ),
            (
                TracePhase::Classify,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ),
        ],
        "full Closed → Open → HalfOpen → Closed cycle"
    );
    let _ = g.finalize(&mut state);
}

#[test]
fn sentinel_critical_force_opens_every_breaker() {
    let _l = guard_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    // Breakers that would never trip on their own failure counts...
    g.set_guard(BreakerConfig {
        failure_threshold: 1000,
        open_ticks: 100,
        half_open_probes: 1,
    });
    // ...and a sentinel that goes Critical on a quarantine storm.
    g.set_sentinel(Sentinel::new(SentinelConfig {
        window: 4,
        policy: HealthPolicy {
            rules: vec![Rule::above(
                SeriesId::QuarantineRate,
                0.4,
                Severity::Critical,
            )],
            trip_after: 1,
            clear_after: 2,
            min_dwell: 0,
        },
        ..SentinelConfig::default()
    }));
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![2, 8]]);
    let mut state = g.new_state();
    {
        // Persistent local-inference fault: every sentence quarantines,
        // the quarantine-rate rule fires, health goes Critical.
        let _fp = failpoint::arm("local_inference", Schedule::EveryK(1));
        for chunk in stream.chunks(1) {
            g.process_batch(&mut state, chunk);
        }
    }
    let states = g.breaker_states().unwrap();
    assert_eq!(states.len(), 3);
    for (phase, s) in &states {
        assert_eq!(
            *s,
            BreakerState::Open,
            "{phase:?} breaker must be force-opened"
        );
    }
    let force_opens: Vec<_> = g
        .guard_transitions()
        .into_iter()
        .filter(|(_, t)| t.to == BreakerState::Open)
        .collect();
    assert_eq!(force_opens.len(), 3, "one force-open per guarded phase");
    for (_, t) in &force_opens {
        assert!(
            t.reason.contains("sentinel critical"),
            "the transition names its trigger: {}",
            t.reason
        );
    }
    let _ = g.finalize(&mut state);
}

#[test]
fn deadline_budget_dead_letters_instead_of_burning_attempts() {
    let _l = guard_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![2, 8], vec![3, 9]]);
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            batch_size: 2,
            batch_retries: 8,
            // Default backoff charges ~1 ms for the first retry; a 1 ns
            // budget denies it immediately.
            batch_deadline_ns: Some(1),
            ..Default::default()
        },
    );
    let report = {
        let _fp = failpoint::arm("supervisor_batch", Schedule::EveryK(1));
        sup.run(&stream)
    };
    assert_eq!(report.batches_dead_lettered, 2);
    assert_eq!(report.batches_deadline_exceeded, 2);
    assert_eq!(report.batches_retried, 0, "no retry fit inside the budget");
    for q in &report.output.quarantined {
        assert_eq!(q.phase, PipelinePhase::Supervisor);
        assert!(
            q.reason.contains("deadline exceeded"),
            "reason: {}",
            q.reason
        );
    }
}

#[test]
fn backoff_retry_within_deadline_recovers_transparently() {
    let _l = guard_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![2, 8], vec![3, 9]]);
    let clean = g.run(&stream, 2).0;
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            batch_size: 2,
            batch_retries: 2,
            batch_deadline_ns: Some(1_000_000_000), // plenty for one backoff
            ..Default::default()
        },
    );
    let report = {
        let _fp = failpoint::arm("supervisor_batch", Schedule::Once);
        sup.run(&stream)
    };
    assert_eq!(report.batches_retried, 1);
    assert_eq!(report.batches_dead_lettered, 0);
    assert_eq!(report.batches_deadline_exceeded, 0);
    assert_eq!(report.output.per_sentence, clean.per_sentence);
}

#[test]
fn torn_write_loses_only_the_newest_generation() {
    let _l = guard_lock();
    let path = temp("torn");
    cleanup_ladder(&path, 3);
    checkpoint::save_generations(&path, 1, &vec![1u64], 3).unwrap();
    checkpoint::save_generations(&path, 2, &vec![1u64, 2], 3).unwrap();
    // Crash in the torn-write window: the rotation has happened and the
    // tmp file is on disk, but the atomic rename never runs.
    let crashed = emd_globalizer::resilience::isolate::catch(|| {
        let _fp = failpoint::arm("checkpoint_rename", Schedule::Once);
        checkpoint::save_generations(&path, 3, &vec![1u64, 2, 3], 3).unwrap();
    });
    assert!(crashed.is_err(), "the injected crash fired");
    let (restored, discards) = checkpoint::load_chain::<Vec<u64>>(&path, 3);
    let (seq, payload, generation) = restored.expect("previous generation survives");
    assert_eq!(seq, 2, "the last completed checkpoint is recovered");
    assert_eq!(payload, vec![1, 2]);
    assert_eq!(generation, 1, "recovered one step down the ladder");
    assert!(
        discards.is_empty(),
        "a missing newest generation is a skip, not corruption"
    );
    cleanup_ladder(&path, 3);
}

#[test]
fn truncated_and_corrupt_generations_fall_back_with_reasons() {
    let _l = guard_lock();
    let path = temp("trunc");
    cleanup_ladder(&path, 3);
    checkpoint::save_generations(&path, 1, &vec![10u64], 3).unwrap();
    checkpoint::save_generations(&path, 2, &vec![10u64, 20], 3).unwrap();
    checkpoint::save_generations(&path, 3, &vec![10u64, 20, 30], 3).unwrap();
    // Generation 0: truncate mid-payload (simulated partial flush).
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 4]).unwrap();
    // Generation 1: flip the checksum.
    let g1 = checkpoint::generation_path(&path, 1);
    let body = std::fs::read_to_string(&g1).unwrap();
    std::fs::write(&g1, body.replacen("crc=", "crc=f", 1)).unwrap();
    let (restored, discards) = checkpoint::load_chain::<Vec<u64>>(&path, 3);
    let (seq, payload, generation) = restored.expect("generation 2 is intact");
    assert_eq!((seq, generation), (1, 2));
    assert_eq!(payload, vec![10]);
    assert_eq!(discards.len(), 2, "both damaged generations reported");
    assert_eq!(discards[0].generation, 0);
    assert_eq!(discards[1].generation, 1);
    for d in &discards {
        assert!(!d.reason.is_empty(), "every discard carries its reason");
    }
    cleanup_ladder(&path, 3);
}

#[test]
fn crash_during_checkpoint_recovers_and_finishes_bit_identical() {
    let _l = guard_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let msgs: Vec<Vec<usize>> = (0..16).map(|i| vec![i % 12, (i + 5) % 12]).collect();
    let stream = stream_from(&msgs);
    let path = temp("crash");
    cleanup_ladder(&path, 3);
    let cfg = SupervisorConfig {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 1,
        checkpoint_generations: 3,
        batch_size: 4,
        dead_letter_file: false,
        ..Default::default()
    };
    let sup = StreamSupervisor::new(&g, cfg.clone());
    // Uninterrupted reference (separate checkpoint universe).
    let ref_path = temp("crash_ref");
    cleanup_ladder(&ref_path, 3);
    let ref_sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(ref_path.clone()),
            ..cfg.clone()
        },
    );
    let clean = ref_sup.run_queued(&stream, 2);
    cleanup_ladder(&ref_path, 3);
    // Crash the real run inside the third checkpoint's torn-write window
    // (after the ladder rotation, before the atomic rename). The panic
    // unwinds out of run_queued — process-death semantics: in-memory
    // state is gone, only the ladder survives.
    let crashed = emd_globalizer::resilience::isolate::catch(|| {
        let _fp = failpoint::arm("checkpoint_rename", Schedule::AfterN(2));
        let _ = sup.run_queued(&stream, 2);
    });
    assert!(crashed.is_err(), "the injected crash fired mid-run");
    failpoint::disarm_all();
    // Restart: generation 0 is missing (its rename never ran), so the
    // restore falls back to generation 1 — the second checkpoint — and
    // replays the suffix.
    let report = sup.run_queued(&stream, 2);
    assert!(report.resumed_from_checkpoint);
    assert_eq!(report.checkpoint_generation, 1);
    assert_eq!(report.batches_skipped, 2, "resumed from the 2nd checkpoint");
    assert_eq!(report.output.per_sentence, clean.output.per_sentence);
    assert_eq!(report.output.n_candidates, clean.output.n_candidates);
    assert_eq!(report.output.n_entities, clean.output.n_entities);
    cleanup_ladder(&path, 3);
}

#[test]
fn shed_batches_emit_trace_events_the_auditor_folds() {
    let _l = guard_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let sink = TraceSink::with_capacity(1 << 14);
    g.set_trace(sink.clone());
    emd_globalizer::trace::set_enabled(true);
    let msgs: Vec<Vec<usize>> = (0..24).map(|i| vec![i % 12, (i + 5) % 12]).collect();
    let stream = stream_from(&msgs);
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            batch_size: 2,
            admission: AdmissionConfig {
                capacity: 4,
                policy: OverloadPolicy::ShedToLocalOnly,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let report = sup.run_queued(&stream, 4);
    emd_globalizer::trace::set_enabled(false);
    assert!(report.batches_shed > 0, "pressure must shed");
    assert_eq!(
        report.local_only_output.len(),
        report.batches_shed * 2,
        "every shed sentence got a local-only answer"
    );
    let shed_events: Vec<_> = report
        .trace_events
        .iter()
        .filter(|e| e.kind == TraceEventKind::BatchShed)
        .collect();
    assert_eq!(shed_events.len(), report.batches_shed);
    for e in &shed_events {
        assert_eq!(e.count, Some(2), "each shed batch held 2 sentences");
        assert_eq!(e.reason.as_deref(), Some("shed-to-local-only"));
    }
    // The replay auditor folds the same story from the event log alone.
    let folded = emd_globalizer::trace::audit::replay_guard(&report.trace_events);
    assert_eq!(folded.sheds.len(), report.batches_shed);
    let shed_total: u64 = folded.sheds.iter().map(|(_, n, _)| n).sum();
    assert_eq!(shed_total as usize, report.batches_shed * 2);
}

/// A local system that counts the sentences it is handed.
struct Counting {
    inner: LexiconEmd,
    seen: AtomicUsize,
}

impl LocalEmd for Counting {
    fn name(&self) -> &str {
        "Counting"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        self.seen.fetch_add(1, Ordering::Relaxed);
        self.inner.process(sentence)
    }
}

/// A fault on the checkpoint writer (its rename fail point, on the
/// second write) surfaces on the batch thread at the next join — before
/// the next write starts — and unwinds out of `run`. The restart finds
/// the ladder the crash left: generation 0 never landed, generation 1
/// holds the first checkpoint.
#[test]
fn writer_fault_escapes_run_at_the_next_join_and_restart_is_bit_identical() {
    let _l = guard_lock();
    const BATCH: usize = 4;
    let local = Counting {
        inner: lexicon(),
        seen: AtomicUsize::new(0),
    };
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let msgs: Vec<Vec<usize>> = (0..48).map(|i| vec![i % 12, (i + 7) % 12]).collect();
    let stream = stream_from(&msgs);
    let clean = run_batches(&g, &stream, BATCH);
    let path = temp("writer_fault");
    cleanup_ladder(&path, 2);
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 3,
            checkpoint_generations: 2,
            batch_size: BATCH,
            dead_letter_file: false,
            ..Default::default()
        },
    );
    local.seen.store(0, Ordering::Relaxed);
    let crashed = emd_globalizer::resilience::isolate::catch(|| {
        let _fp = failpoint::arm("checkpoint_rename", Schedule::AfterN(1));
        let _ = sup.run(&stream);
    });
    assert!(crashed.is_err(), "the writer's fault unwound out of run");
    failpoint::disarm_all();
    // Batches 7–9 may run while the second write is in flight; the join
    // before the third write re-raises the fault.
    let seen = local.seen.load(Ordering::Relaxed);
    assert!(
        (6 * BATCH..=9 * BATCH).contains(&seen),
        "{seen} sentences processed before the fault escaped"
    );
    let report = sup.run(&stream);
    assert!(report.resumed_from_checkpoint);
    assert_eq!(report.checkpoint_generation, 1);
    assert_eq!(
        report.batches_skipped, 3,
        "resumed from the first checkpoint"
    );
    assert_eq!(report.checkpoint_fallbacks, 0, "a missing file is a skip");
    assert_eq!(report.output.per_sentence, clean.per_sentence);
    assert_eq!(report.output.n_candidates, clean.n_candidates);
    assert_eq!(report.output.n_entities, clean.n_entities);
    cleanup_ladder(&path, 2);
}

/// Writes that fail (their directory does not exist) are counted, one
/// per scheduled checkpoint, and the stream runs on to the same output
/// as an unsupervised run.
#[test]
fn unwritable_checkpoint_path_counts_every_failure_and_finishes() {
    let _l = guard_lock();
    const BATCH: usize = 4;
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let msgs: Vec<Vec<usize>> = (0..40).map(|i| vec![i % 12, (i + 3) % 12]).collect();
    let stream = stream_from(&msgs);
    let path = temp("missing_dir").join("no").join("state.ckpt");
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 3,
            checkpoint_generations: 2,
            batch_size: BATCH,
            ..Default::default()
        },
    );
    let report = sup.run(&stream);
    // 10 batches: checkpoints after 3, 6, 9 and the last.
    assert_eq!(report.checkpoints_written, 0);
    assert_eq!(report.checkpoint_write_failures, 4);
    assert!(!path.exists());
    let (plain, _) = g.run(&stream, BATCH);
    assert_eq!(report.output.per_sentence, plain.per_sentence);
    assert_eq!(report.output.n_candidates, plain.n_candidates);
    assert_eq!(report.output.n_entities, plain.n_entities);
}

/// `emd_resilience_checkpoint_wait_ns` records one sample per join —
/// one per write, landed or failed — and so does the writer's own
/// `emd_resilience_checkpoint_write_ns`.
#[test]
fn checkpoint_wait_histogram_records_one_sample_per_join() {
    let _l = guard_lock();
    emd_globalizer::obs::set_enabled(true);
    let local = lexicon();
    let clf = accept_all(7);
    let msgs: Vec<Vec<usize>> = (0..36).map(|i| vec![i % 12, (i + 5) % 12]).collect();
    let stream = stream_from(&msgs);
    let good = temp("wait_hist");
    cleanup_ladder(&good, 2);
    let bad = temp("wait_hist_missing").join("no").join("state.ckpt");
    // 9 batches every 2: writes after 2, 4, 6, 8 and the last.
    for (path, queued) in [(&good, false), (&good, true), (&bad, false)] {
        cleanup_ladder(&good, 2);
        let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        g.set_scope(&emd_globalizer::obs::Scope::detached(&[("test", "wait")]));
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 2,
                checkpoint_generations: 2,
                batch_size: 4,
                dead_letter_file: false,
                ..Default::default()
            },
        );
        let report = if queued {
            sup.run_queued(&stream, 1)
        } else {
            sup.run(&stream)
        };
        let joins = report.checkpoints_written + report.checkpoint_write_failures;
        assert_eq!(joins, 5, "{path:?}");
        let snap = g.metrics().snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count).unwrap_or(0);
        assert_eq!(count("emd_resilience_checkpoint_wait_ns"), joins as u64);
        assert_eq!(count("emd_resilience_checkpoint_write_ns"), joins as u64);
    }
    cleanup_ladder(&good, 2);
}
