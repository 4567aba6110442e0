//! StreamSupervisor: a crash-recoverable, overload-aware batch driver
//! for unattended streaming runs.
//!
//! The supervisor wraps [`Globalizer`] batch processing with four
//! guarantees:
//!
//! 1. **Transactional batches** — each batch runs against a clone of the
//!    pipeline state inside a panic-isolation boundary; a batch-level
//!    fault (beyond what the per-item isolation inside the pipeline
//!    already absorbs) discards the partial clone and retries from the
//!    pre-batch state. The clone is cheap: sentence records, candidate
//!    records and interned token strings are shared with the pre-batch
//!    state (`Arc`, copied on write), so it copies one pointer per record
//!    plus the index structures (posting lists, CTrie, candidate key
//!    index, and the adjacency ledger's table, whose key strings are
//!    shared too) — a few milliseconds at a 20k window — and the batch
//!    deep-copies only the records it writes.
//!    Retries back off exponentially with deterministic
//!    seeded jitter ([`BackoffPolicy`]), and every delay is *charged*
//!    against the optional per-batch deadline budget whether or not the
//!    process actually sleeps — an exhausted budget stops retrying even
//!    when attempts remain. A batch that exhausts either budget is
//!    diverted whole into the dead-letter buffer (and, when
//!    checkpointing, appended to the `.deadletter.jsonl` sibling for
//!    operator replay) instead of killing the stream.
//! 2. **Admission control** ([`StreamSupervisor::run_queued`]) — arriving
//!    batches pass a bounded [`AdmissionQueue`] with an overload policy
//!    (reject-new, drop-oldest, shed-to-local-only) before any pipeline
//!    work is spent on them. Shed batches are fully accounted: quarantine
//!    entries, `BatchShed` trace events, dead-letter records, and — for
//!    `ShedToLocalOnly` — the cheap local-only answer on
//!    [`RunReport::local_only_output`].
//! 3. **Checkpointing** — every `checkpoint_every` serviced batches (and
//!    after the final one) the full [`GlobalizerState`] is snapshotted to
//!    a versioned, checksummed file ([`emd_resilience::checkpoint`]) with
//!    an atomic rename. With `checkpoint_generations > 1` the previous
//!    snapshots rotate into a retained ladder (`<path>.1`, `<path>.2`,
//!    ...), so *several* independent torn writes must land before the
//!    stream loses its recovery point. Writes are pipelined: the batch
//!    thread compacts the state and hands a clone (sharing every record)
//!    to a writer thread, which streams it to disk while the next batches
//!    run. At most one write is in flight; the next checkpoint joins it
//!    first, and the last one is joined after `finalize`. The join counts
//!    the write, emits its `CheckpointSaved` event (stamped with the
//!    snapshot's batch, so only for a write that landed) and re-raises a
//!    writer panic. Durability contract: every checkpoint is renamed into
//!    place before [`StreamSupervisor::run`] or
//!    [`StreamSupervisor::run_queued`] returns or unwinds; a crash loses
//!    at most the one write in flight, and restore falls back one
//!    generation, as for a torn write.
//! 4. **Recovery** — on startup the restore walks the generation ladder
//!    newest-first ([`checkpoint::load_chain`]): corrupt generations are
//!    discarded *with their reasons kept* and the newest intact one
//!    restores (a `CheckpointFallback` trace event records the fall).
//!    Only the stream suffix after the restored sequence number replays.
//!    Because batch processing is deterministic, a recovered run's final
//!    output is bit-identical to an uninterrupted one.

use crate::globalizer::{Globalizer, GlobalizerOutput, GlobalizerState};
use emd_guard::{
    AdmissionConfig, AdmissionQueue, BackoffPolicy, BreakerTransition, OverloadPolicy,
};
use emd_obs::Timer;
use emd_resilience::checkpoint::{self, CheckpointError};
use emd_resilience::deadletter::{self, DeadLetterRecord};
use emd_resilience::quarantine::{PipelinePhase, QuarantineEntry};
use emd_resilience::{failpoint, isolate};
use emd_text::token::{Sentence, SentenceId, Span};
use emd_trace::{TraceEvent, TraceEventKind, TracePhase, TraceSink};
use std::path::PathBuf;
use std::thread::{Scope, ScopedJoinHandle};

/// Hard ceiling on `batch_retries`: a budget past this is a typo, not a
/// policy (2^64 backoff delays overflow any deadline long before).
pub const MAX_BATCH_RETRIES: usize = 64;

/// Supervisor policy knobs. Validate with
/// [`SupervisorConfig::validate`]; [`StreamSupervisor::try_new`] rejects
/// invalid configs with a typed [`SupervisorConfigError`] instead of
/// silently clamping at run time.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Where to persist checkpoints. `None` disables checkpointing (the
    /// supervisor still gives transactional batches and retry).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many serviced batches (the final
    /// batch always checkpoints). Must be ≥ 1.
    pub checkpoint_every: usize,
    /// Checkpoint generations retained on disk (≥ 1). `1` keeps only the
    /// live file (the pre-ladder behaviour); `k > 1` rotates previous
    /// snapshots to `<path>.1` … `<path>.k-1`, and restore falls back
    /// down the ladder past corrupt generations.
    pub checkpoint_generations: usize,
    /// Sentences per batch. Must be ≥ 1.
    pub batch_size: usize,
    /// How many times a batch whose processing panicked at the batch
    /// level is retried before the whole batch is dead-lettered. At most
    /// [`MAX_BATCH_RETRIES`].
    pub batch_retries: usize,
    /// Backoff schedule between batch retry attempts. Delays are always
    /// charged against `batch_deadline_ns`; they are slept only when
    /// `sleep_backoff` is set. [`BackoffPolicy::none`] restores immediate
    /// retry.
    pub backoff: BackoffPolicy,
    /// Optional per-batch retry deadline: once the charged backoff
    /// delays exceed this budget, the batch is dead-lettered with a
    /// "deadline exceeded" reason even if attempts remain. Must be
    /// nonzero when set.
    pub batch_deadline_ns: Option<u64>,
    /// Actually sleep the backoff delays (live deployments). Off by
    /// default so tests and replays stay fast and deterministic — the
    /// *accounting* is identical either way.
    pub sleep_backoff: bool,
    /// Admission-gate configuration for [`StreamSupervisor::run_queued`].
    /// Ignored by [`StreamSupervisor::run`].
    pub admission: AdmissionConfig,
    /// Persist dead-lettered and shed batches as JSONL next to the
    /// checkpoint (`<path>.deadletter.jsonl`) for operator replay.
    /// No-op when `checkpoint_path` is `None`.
    pub dead_letter_file: bool,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            checkpoint_path: None,
            checkpoint_every: 4,
            checkpoint_generations: 1,
            batch_size: 512,
            batch_retries: 1,
            backoff: BackoffPolicy::default(),
            batch_deadline_ns: None,
            sleep_backoff: false,
            admission: AdmissionConfig::default(),
            dead_letter_file: true,
        }
    }
}

/// Why a [`SupervisorConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorConfigError {
    /// `checkpoint_every` was 0 (a cadence of "never" is spelled
    /// `checkpoint_path: None`, not 0).
    ZeroCheckpointEvery,
    /// `checkpoint_generations` was 0 (the live file is generation 0 and
    /// always exists; "no ladder" is 1).
    ZeroCheckpointGenerations,
    /// `batch_size` was 0.
    ZeroBatchSize,
    /// `batch_retries` exceeded [`MAX_BATCH_RETRIES`].
    ExcessiveBatchRetries(usize),
    /// `batch_deadline_ns` was `Some(0)` — a zero budget dead-letters
    /// every retried batch; spell "no retries" as `batch_retries: 0`.
    ZeroBatchDeadline,
    /// The backoff policy failed its own validation.
    Backoff(String),
    /// The admission config failed its own validation.
    Admission(String),
}

impl std::fmt::Display for SupervisorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorConfigError::ZeroCheckpointEvery => {
                write!(
                    f,
                    "checkpoint_every must be >= 1 (disable with checkpoint_path: None)"
                )
            }
            SupervisorConfigError::ZeroCheckpointGenerations => {
                write!(f, "checkpoint_generations must be >= 1")
            }
            SupervisorConfigError::ZeroBatchSize => write!(f, "batch_size must be >= 1"),
            SupervisorConfigError::ExcessiveBatchRetries(n) => {
                write!(
                    f,
                    "batch_retries {n} exceeds the {MAX_BATCH_RETRIES} ceiling"
                )
            }
            SupervisorConfigError::ZeroBatchDeadline => {
                write!(f, "batch_deadline_ns must be nonzero when set")
            }
            SupervisorConfigError::Backoff(e) => write!(f, "invalid backoff policy: {e}"),
            SupervisorConfigError::Admission(e) => write!(f, "invalid admission config: {e}"),
        }
    }
}

impl std::error::Error for SupervisorConfigError {}

impl SupervisorConfig {
    /// Reject nonsensical parameter combinations with a typed error —
    /// construction-time validation replaces the old silent `.max(1)`
    /// clamping inside `run`.
    pub fn validate(&self) -> Result<(), SupervisorConfigError> {
        if self.checkpoint_every == 0 {
            return Err(SupervisorConfigError::ZeroCheckpointEvery);
        }
        if self.checkpoint_generations == 0 {
            return Err(SupervisorConfigError::ZeroCheckpointGenerations);
        }
        if self.batch_size == 0 {
            return Err(SupervisorConfigError::ZeroBatchSize);
        }
        if self.batch_retries > MAX_BATCH_RETRIES {
            return Err(SupervisorConfigError::ExcessiveBatchRetries(
                self.batch_retries,
            ));
        }
        if self.batch_deadline_ns == Some(0) {
            return Err(SupervisorConfigError::ZeroBatchDeadline);
        }
        self.backoff
            .validate()
            .map_err(SupervisorConfigError::Backoff)?;
        self.admission
            .validate()
            .map_err(SupervisorConfigError::Admission)?;
        Ok(())
    }
}

/// What a supervised run did, alongside the pipeline output.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The final pipeline output (bit-identical to an unsupervised,
    /// uninterrupted run over the same stream, modulo dead-lettered and
    /// shed batches).
    pub output: GlobalizerOutput,
    /// Total batches in the stream.
    pub batches_total: usize,
    /// Batches processed in this run (the replayed suffix).
    pub batches_processed: usize,
    /// Batches skipped because a checkpoint already covered them.
    pub batches_skipped: usize,
    /// Batch-level retry attempts performed.
    pub batches_retried: usize,
    /// Batches that exhausted the retry budget and were dead-lettered.
    pub batches_dead_lettered: usize,
    /// Batches dead-lettered because their charged backoff delays
    /// exceeded `batch_deadline_ns` (a subset of
    /// `batches_dead_lettered`).
    pub batches_deadline_exceeded: usize,
    /// Batches shed by the admission gate ([`StreamSupervisor::run_queued`]
    /// only; always 0 under [`StreamSupervisor::run`]).
    pub batches_shed: usize,
    /// Records appended to the dead-letter JSONL file this run.
    pub dead_letter_records: usize,
    /// Checkpoints successfully written.
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (the run continues; the previous
    /// checkpoint stays valid thanks to the atomic rename).
    pub checkpoint_write_failures: usize,
    /// True when the run resumed from a valid checkpoint (any
    /// generation).
    pub resumed_from_checkpoint: bool,
    /// Generation the run restored from: 0 = the live file, `k` = the
    /// k-th fallback down the retained ladder. 0 when not resumed.
    pub checkpoint_generation: usize,
    /// Corrupt checkpoint generations discarded during restore.
    pub checkpoint_fallbacks: usize,
    /// True when at least one checkpoint generation was corrupt (bad
    /// magic, bad version, checksum mismatch, undecodable payload) and
    /// was discarded during restore.
    pub discarded_corrupt_checkpoint: bool,
    /// Why the newest discarded generation was discarded, when any was —
    /// the restore path must never silently swallow the error an
    /// operator needs to distinguish "disk corruption" from
    /// "incompatible build".
    pub checkpoint_discard_reason: Option<String>,
    /// The degraded local-only answers produced for batches shed under
    /// [`OverloadPolicy::ShedToLocalOnly`], in shed order.
    pub local_only_output: Vec<(SentenceId, Vec<Span>)>,
    /// Every circuit-breaker transition the globalizer's attached guard
    /// took during the run, in order (empty when unguarded). Mirrors
    /// `emd_trace::audit::replay_guard` over the trace.
    pub breaker_transitions: Vec<(TracePhase, BreakerTransition)>,
    /// Trace events flushed from the globalizer's sink, in sequence
    /// order, when `emd_trace::enabled()` during the run (empty
    /// otherwise). The sink is drained at every batch boundary —
    /// committed batches only: a retried attempt's partial events are
    /// discarded and their sequence numbers re-issued to the retry, and a
    /// run restored from a checkpoint continues the interrupted run's
    /// numbering (`GlobalizerState` carries the committed high-water
    /// mark). Point the globalizer at a private sink
    /// ([`Globalizer::set_trace`]) to keep unrelated events out.
    pub trace_events: Vec<TraceEvent>,
    /// End-of-run health summary from the globalizer's attached quality
    /// sentinel ([`Globalizer::set_sentinel`]); `None` when the run was
    /// unmonitored. Transitions here are reproducible from the trace log
    /// alone via `emd_trace::audit::replay_health`.
    pub health: Option<emd_sentinel::HealthReport>,
}

/// Mutable bookkeeping threaded through one run's service loop.
#[derive(Default)]
struct ServiceCtx {
    batches_retried: usize,
    batches_dead_lettered: usize,
    batches_deadline_exceeded: usize,
    batches_shed: usize,
    dead_letter_records: usize,
    checkpoints_written: usize,
    checkpoint_write_failures: usize,
    local_only_output: Vec<(SentenceId, Vec<Span>)>,
    trace_events: Vec<TraceEvent>,
}

/// The checkpoint writer: a scoped thread per snapshot, at most one in
/// flight. The scope outlives the service loop, so every write is joined
/// (renamed into place, or failed) before `run` returns or unwinds.
struct CheckpointWriter<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    in_flight: Option<InFlight<'scope>>,
}

/// One snapshot write on the writer thread.
struct InFlight<'scope> {
    handle: ScopedJoinHandle<'scope, Result<(), CheckpointError>>,
    /// The snapshot's `batch_seq`, stamped into `CheckpointSaved`.
    batch_seq: u64,
    /// Serviced batches the snapshot covers (the checkpoint's `seq`).
    serviced: usize,
}

// Snapshots move to the writer thread. A field that is not thread-safe
// (`Rc`, `RefCell`, ...) fails this line, naming the field's type.
const _: () = {
    const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
    assert_send_sync_static::<GlobalizerState>();
};

/// Crash-recoverable batch driver over a [`Globalizer`].
pub struct StreamSupervisor<'g, 'a> {
    globalizer: &'g Globalizer<'a>,
    /// Supervisor policy.
    pub config: SupervisorConfig,
}

impl<'g, 'a> StreamSupervisor<'g, 'a> {
    /// Wrap a globalizer with supervision policy. Panics on an invalid
    /// config; use [`StreamSupervisor::try_new`] for the fallible form.
    pub fn new(
        globalizer: &'g Globalizer<'a>,
        config: SupervisorConfig,
    ) -> StreamSupervisor<'g, 'a> {
        match Self::try_new(globalizer, config) {
            Ok(s) => s,
            Err(e) => panic!("invalid supervisor config: {e}"),
        }
    }

    /// Fallible constructor: rejects an invalid config with the typed
    /// reason instead of clamping it.
    pub fn try_new(
        globalizer: &'g Globalizer<'a>,
        config: SupervisorConfig,
    ) -> Result<StreamSupervisor<'g, 'a>, SupervisorConfigError> {
        config.validate()?;
        Ok(StreamSupervisor { globalizer, config })
    }

    /// Restore state from the configured checkpoint ladder, or start
    /// fresh. Returns `(state, batches_already_completed, resumed,
    /// generation restored from, discards)` — corrupt generations are
    /// walked past with their reasons kept, and a fully corrupt ladder
    /// falls back to a fresh start rather than trusting damaged state.
    fn restore_or_fresh(
        &self,
    ) -> (
        GlobalizerState,
        usize,
        bool,
        usize,
        Vec<checkpoint::GenerationDiscard>,
    ) {
        let Some(path) = &self.config.checkpoint_path else {
            return (self.globalizer.new_state(), 0, false, 0, Vec::new());
        };
        let m = self.globalizer.metrics();
        let (restored, discards) = {
            let _t = Timer::start(&m.checkpoint_restore_ns);
            checkpoint::load_chain::<GlobalizerState>(path, self.config.checkpoint_generations)
        };
        m.checkpoint_fallbacks_total.add(discards.len() as u64);
        match restored {
            Some((seq, state, generation)) => (state, seq as usize, true, generation, discards),
            None => (self.globalizer.new_state(), 0, false, 0, discards),
        }
    }

    /// Push one supervisor-level trace event, keeping the meta-counters
    /// in step with [`Globalizer`]'s own emission.
    fn temit(&self, ev: impl FnOnce() -> TraceEvent) -> Option<u64> {
        let g = self.globalizer;
        g.metrics().push_trace(g.trace(), ev)
    }

    /// Append one record to the dead-letter JSONL sibling of the
    /// checkpoint, when configured. Best-effort: an append failure is
    /// not a reason to kill a stream that just survived a fault.
    fn dead_letter_persist(
        &self,
        ctx: &mut ServiceCtx,
        batch_seq: u64,
        reason: &str,
        sentences: &[Sentence],
    ) {
        if !self.config.dead_letter_file {
            return;
        }
        let Some(ckpt) = &self.config.checkpoint_path else {
            return;
        };
        let rec = DeadLetterRecord {
            batch_seq,
            reason: reason.to_string(),
            sentences: sentences.to_vec(),
        };
        if deadletter::append(&deadletter::deadletter_path(ckpt), &rec).is_ok() {
            ctx.dead_letter_records += 1;
            self.globalizer.metrics().deadletter_records_total.inc();
        }
    }

    /// Divert every sentence of a failed or shed batch into the
    /// quarantine buffer (and the trace).
    fn quarantine_batch(
        &self,
        state: &mut GlobalizerState,
        batch: &[Sentence],
        phase: PipelinePhase,
        reason: &str,
    ) {
        let m = self.globalizer.metrics();
        for s in batch.iter() {
            m.quarantined_total.inc();
            let trace_event = self.temit(|| TraceEvent {
                sid: Some((s.id.tweet_id, s.id.sent_id)),
                phase: Some(TracePhase::Supervisor),
                reason: Some(reason.to_string()),
                ..TraceEvent::of(TraceEventKind::SentenceQuarantined)
            });
            state.quarantined.push(QuarantineEntry {
                sid: s.id,
                phase,
                reason: reason.to_string(),
                trace_event,
            });
        }
    }

    /// Service one batch transactionally: clone-isolated attempts with
    /// backoff between them, deadline-budgeted, dead-lettering the whole
    /// batch when either budget runs dry. `batch_index` salts the
    /// backoff jitter so concurrent streams don't retry in lockstep.
    fn service_batch(
        &self,
        state: &mut GlobalizerState,
        batch: &[Sentence],
        batch_index: usize,
        sink: &TraceSink,
        tracing: bool,
        ctx: &mut ServiceCtx,
    ) {
        let m = self.globalizer.metrics();
        // Everything the sink accumulates during an attempt belongs to
        // that attempt; a failed attempt's events are discarded and their
        // sequence numbers re-issued, so the committed trace is identical
        // whether or not retries happened.
        let seq0 = sink.next_seq();
        let mut spent_ns: u64 = 0;
        let mut deadline_hit = false;
        let mut granted = 0usize;
        let r = isolate::retry_catch_with(
            self.config.batch_retries + 1,
            || {
                // Each attempt starts from a clean trace frame (no-op on
                // the first — nothing is buffered past seq0 yet) and a
                // clone of the pre-batch state, so a batch-level panic
                // discards the partial work entirely.
                if tracing {
                    let _ = sink.drain();
                    sink.set_next_seq(seq0);
                }
                failpoint::fire("supervisor_batch");
                let mut trial = state.clone();
                self.globalizer.process_batch(&mut trial, batch);
                // A fault here discards a trial that has already written
                // (and so unshared) records; the snapshot must not see it.
                failpoint::fire("supervisor_commit");
                trial
            },
            |failed| {
                let delay = self
                    .config
                    .backoff
                    .delay_ns(failed as u32, batch_index as u64);
                let within = match self.config.batch_deadline_ns {
                    Some(budget) => spent_ns.saturating_add(delay) <= budget,
                    None => true,
                };
                if !within {
                    deadline_hit = true;
                    m.guard_deadline_exceeded_total.inc();
                    return false;
                }
                spent_ns += delay;
                granted += 1;
                m.guard_backoff_retries_total.inc();
                if self.config.sleep_backoff && delay > 0 {
                    std::thread::sleep(std::time::Duration::from_nanos(delay));
                }
                true
            },
        );
        ctx.batches_retried += granted;
        match r.result {
            Ok(next) => {
                *state = next;
                if tracing {
                    ctx.trace_events.extend(sink.drain());
                    state.trace_seq = sink.next_seq();
                }
            }
            Err(last_err) => {
                if tracing {
                    let _ = sink.drain();
                    sink.set_next_seq(seq0);
                }
                // Budget exhausted: divert the whole batch to the
                // dead-letter buffer and move on. The pre-batch state is
                // untouched, so the stream survives.
                ctx.batches_dead_lettered += 1;
                let reason = if deadline_hit {
                    ctx.batches_deadline_exceeded += 1;
                    format!(
                        "deadline exceeded after {} attempts: {last_err}",
                        granted + 1
                    )
                } else {
                    last_err
                };
                self.quarantine_batch(state, batch, PipelinePhase::Supervisor, &reason);
                self.dead_letter_persist(ctx, batch_index as u64, &reason, batch);
                if tracing {
                    ctx.trace_events.extend(sink.drain());
                    state.trace_seq = sink.next_seq();
                }
            }
        }
    }

    /// Start a checkpoint write when the cadence (or the end of the
    /// stream) says so. `serviced` is the 1-based count of serviced
    /// batches. Compaction runs here, on the batch thread; the snapshot
    /// then goes to the writer, after the previous write is joined.
    fn maybe_checkpoint(
        &self,
        state: &mut GlobalizerState,
        serviced: usize,
        is_last: bool,
        writer: &mut CheckpointWriter,
        tracing: bool,
        ctx: &mut ServiceCtx,
    ) {
        let Some(path) = &self.config.checkpoint_path else {
            return;
        };
        if !serviced.is_multiple_of(self.config.checkpoint_every) && !is_last {
            return;
        }
        let m = self.globalizer.metrics();
        // Checkpoint compaction: shift slot indices past the evicted
        // records and reclaim their dead embedding rows first, so the file
        // holds live rows only and slot indices restart from 0. A no-op
        // for unbounded runs.
        let dropped = state.compact();
        if dropped > 0 {
            m.compactions_total.inc();
            self.temit(|| TraceEvent {
                count: Some(dropped as u64),
                phase: Some(TracePhase::Supervisor),
                ..TraceEvent::of(TraceEventKind::StateCompacted)
            });
        }
        self.join_write(writer, ctx);
        let snapshot = state.clone();
        let batch_seq = snapshot.batch_seq;
        let path = path.clone();
        let keep = self.config.checkpoint_generations;
        let write_ns = m.checkpoint_write_ns.clone();
        let handle = writer.scope.spawn(move || {
            let _t = Timer::start(&write_ns);
            checkpoint::save_generations(&path, serviced as u64, &snapshot, keep)
        });
        writer.in_flight = Some(InFlight {
            handle,
            batch_seq,
            serviced,
        });
        if tracing {
            ctx.trace_events.extend(self.globalizer.trace().drain());
        }
    }

    /// Wait for the write in flight, if any, and account for it:
    /// `CheckpointSaved` (stamped with the snapshot's batch) only for a
    /// write that landed. A panic on the writer re-raises here.
    fn join_write(&self, writer: &mut CheckpointWriter, ctx: &mut ServiceCtx) {
        let Some(w) = writer.in_flight.take() else {
            return;
        };
        let joined = {
            let _t = Timer::start(&self.globalizer.metrics().checkpoint_wait_ns);
            w.handle.join()
        };
        match joined {
            Ok(Ok(())) => {
                ctx.checkpoints_written += 1;
                self.temit(|| TraceEvent {
                    batch: Some(w.batch_seq),
                    count: Some(w.serviced as u64),
                    phase: Some(TracePhase::Supervisor),
                    ..TraceEvent::of(TraceEventKind::CheckpointSaved)
                });
            }
            Ok(Err(_)) => ctx.checkpoint_write_failures += 1,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Shared prologue of [`run`](StreamSupervisor::run) and
    /// [`run_queued`](StreamSupervisor::run_queued): restore, resume the
    /// trace numbering, emit restore/fallback events.
    #[allow(clippy::type_complexity)]
    fn begin(
        &self,
        ctx: &mut ServiceCtx,
        sink: &TraceSink,
        tracing: bool,
    ) -> (GlobalizerState, usize, bool, usize, usize, Option<String>) {
        let (mut state, completed, resumed, generation, discards) = self.restore_or_fresh();
        let discard_reason = discards.first().map(|d| d.reason.clone());
        if tracing && resumed {
            // Continue the interrupted run's numbering: the checkpoint
            // carries the sequence high-water mark of its last committed
            // batch, so replayed-suffix events slot in right after the
            // events the interrupted run had already flushed.
            sink.set_next_seq(state.trace_seq);
            self.temit(|| TraceEvent {
                count: Some(completed as u64),
                phase: Some(TracePhase::Supervisor),
                ..TraceEvent::of(TraceEventKind::CheckpointRestored)
            });
            if generation > 0 {
                self.temit(|| TraceEvent {
                    count: Some(generation as u64),
                    reason: discard_reason.clone(),
                    phase: Some(TracePhase::Supervisor),
                    ..TraceEvent::of(TraceEventKind::CheckpointFallback)
                });
            }
            ctx.trace_events.extend(sink.drain());
            state.trace_seq = sink.next_seq();
        }
        (
            state,
            completed,
            resumed,
            generation,
            discards.len(),
            discard_reason,
        )
    }

    /// Assemble the report from the finished state and bookkeeping.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        output: GlobalizerOutput,
        batches_total: usize,
        start: usize,
        resumed: bool,
        generation: usize,
        fallbacks: usize,
        discard_reason: Option<String>,
        ctx: ServiceCtx,
    ) -> RunReport {
        RunReport {
            output,
            batches_total,
            batches_processed: batches_total - start,
            batches_skipped: start,
            batches_retried: ctx.batches_retried,
            batches_dead_lettered: ctx.batches_dead_lettered,
            batches_deadline_exceeded: ctx.batches_deadline_exceeded,
            batches_shed: ctx.batches_shed,
            dead_letter_records: ctx.dead_letter_records,
            checkpoints_written: ctx.checkpoints_written,
            checkpoint_write_failures: ctx.checkpoint_write_failures,
            resumed_from_checkpoint: resumed,
            checkpoint_generation: generation,
            checkpoint_fallbacks: fallbacks,
            discarded_corrupt_checkpoint: discard_reason.is_some(),
            checkpoint_discard_reason: discard_reason,
            local_only_output: ctx.local_only_output,
            breaker_transitions: self.globalizer.guard_transitions(),
            trace_events: ctx.trace_events,
            health: self.globalizer.sentinel_report(),
        }
    }

    /// Drive the whole stream: restore (or start fresh), replay the
    /// remaining batches with transactional backoff-and-deadline retry
    /// and periodic checkpoints, finalize, and report.
    pub fn run(&self, stream: &[Sentence]) -> RunReport {
        std::thread::scope(|scope| {
            let tracing = emd_trace::enabled();
            let sink = self.globalizer.trace().clone();
            let mut ctx = ServiceCtx::default();
            let mut writer = CheckpointWriter {
                scope,
                in_flight: None,
            };
            let (mut state, completed, resumed, generation, fallbacks, discard_reason) =
                self.begin(&mut ctx, &sink, tracing);
            let batches: Vec<&[Sentence]> = stream.chunks(self.config.batch_size).collect();
            let start = completed.min(batches.len());
            for (i, batch) in batches.iter().enumerate().skip(start) {
                self.service_batch(&mut state, batch, i, &sink, tracing, &mut ctx);
                self.maybe_checkpoint(
                    &mut state,
                    i + 1,
                    i + 1 == batches.len(),
                    &mut writer,
                    tracing,
                    &mut ctx,
                );
            }
            let output = self.globalizer.finalize(&mut state);
            // The last write overlaps the closing pass.
            self.join_write(&mut writer, &mut ctx);
            if tracing {
                ctx.trace_events.extend(sink.drain());
            }
            self.report(
                output,
                batches.len(),
                start,
                resumed,
                generation,
                fallbacks,
                discard_reason,
                ctx,
            )
        })
    }

    /// Record one shed batch: accounting, quarantine, trace, sentinel
    /// feed, dead-letter record, and — for `ShedToLocalOnly` — the cheap
    /// local-only answer.
    #[allow(clippy::too_many_arguments)]
    fn record_shed(
        &self,
        state: &mut GlobalizerState,
        batch_index: usize,
        batch: &[Sentence],
        policy: OverloadPolicy,
        serviced: usize,
        tracing: bool,
        ctx: &mut ServiceCtx,
    ) {
        let m = self.globalizer.metrics();
        ctx.batches_shed += 1;
        m.guard_shed_total.inc();
        self.globalizer.note_shed(batch.len() as u64);
        let reason = policy.name();
        self.temit(|| TraceEvent {
            batch: Some(serviced as u64),
            count: Some(batch.len() as u64),
            reason: Some(reason.to_string()),
            phase: Some(TracePhase::Supervisor),
            ..TraceEvent::of(TraceEventKind::BatchShed)
        });
        self.quarantine_batch(state, batch, PipelinePhase::Admission, reason);
        self.dead_letter_persist(ctx, batch_index as u64, reason, batch);
        if policy == OverloadPolicy::ShedToLocalOnly {
            ctx.local_only_output
                .extend(self.globalizer.local_only_spans(batch));
        }
        // Flush the shed events now: the next serviced batch resets the
        // sink to its own frame start, which would discard them.
        if tracing {
            ctx.trace_events.extend(self.globalizer.trace().drain());
        }
    }

    /// Drive the stream through the admission gate: `arrivals_per_tick`
    /// batches are *offered* to the bounded queue per tick and one queued
    /// batch is *serviced* per tick, so offering faster than one batch
    /// per tick builds queue pressure and eventually sheds under the
    /// configured [`OverloadPolicy`]. After the last arrival the queue
    /// drains (one batch per tick, no new pressure). With
    /// `arrivals_per_tick <= 1` no queue ever builds and the run is
    /// equivalent to [`StreamSupervisor::run`].
    ///
    /// Shedding is deterministic (it depends only on the stream shape and
    /// the config), so a restart re-simulates the same admission
    /// decisions and suppresses re-recording for the already-checkpointed
    /// prefix — a recovered queued run is bit-identical to an
    /// uninterrupted one.
    pub fn run_queued(&self, stream: &[Sentence], arrivals_per_tick: usize) -> RunReport {
        std::thread::scope(|scope| {
            let tracing = emd_trace::enabled();
            let sink = self.globalizer.trace().clone();
            let m = self.globalizer.metrics();
            let mut ctx = ServiceCtx::default();
            let mut writer = CheckpointWriter {
                scope,
                in_flight: None,
            };
            let (mut state, completed, resumed, generation, fallbacks, discard_reason) =
                self.begin(&mut ctx, &sink, tracing);
            let batches: Vec<&[Sentence]> = stream.chunks(self.config.batch_size).collect();
            let start = completed.min(batches.len());
            let arrivals = arrivals_per_tick.max(1);
            let mut queue: AdmissionQueue<usize> =
                AdmissionQueue::new(self.config.admission.clone());
            let mut next_arrival = 0usize;
            let mut serviced = 0usize;
            // `serviced` counts every serviced batch including the replayed
            // prefix; recording (sheds, quarantines, dead letters) is
            // suppressed until the prefix is consumed — those effects are
            // already inside the restored state.
            while next_arrival < batches.len() || !queue.is_empty() {
                for _ in 0..arrivals {
                    if next_arrival >= batches.len() {
                        break;
                    }
                    let idx = next_arrival;
                    next_arrival += 1;
                    let sheds = queue.offer(idx, batches[idx].len() as u64);
                    for shed in sheds {
                        if serviced >= start {
                            self.record_shed(
                                &mut state,
                                shed.item,
                                batches[shed.item],
                                shed.policy,
                                serviced,
                                tracing,
                                &mut ctx,
                            );
                        }
                    }
                }
                m.guard_queue_depth.set(queue.len() as f64);
                m.guard_backpressure
                    .set(if queue.backpressure() { 1.0 } else { 0.0 });
                let Some((idx, _cost)) = queue.pop() else {
                    continue;
                };
                serviced += 1;
                if serviced <= start {
                    continue; // the restored checkpoint already covers it
                }
                m.guard_admitted_total.inc();
                self.service_batch(&mut state, batches[idx], idx, &sink, tracing, &mut ctx);
                let is_last = next_arrival >= batches.len() && queue.is_empty();
                self.maybe_checkpoint(
                    &mut state,
                    serviced,
                    is_last,
                    &mut writer,
                    tracing,
                    &mut ctx,
                );
            }
            m.guard_queue_depth.set(0.0);
            let output = self.globalizer.finalize(&mut state);
            self.join_write(&mut writer, &mut ctx);
            if tracing {
                ctx.trace_events.extend(sink.drain());
            }
            self.report(
                output,
                batches.len(),
                start.min(serviced),
                resumed,
                generation,
                fallbacks,
                discard_reason,
                ctx,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::EntityClassifier;
    use crate::config::GlobalizerConfig;
    use crate::local::LexiconEmd;
    use emd_text::token::SentenceId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn accept_all(dim: usize) -> EntityClassifier {
        let mut c = EntityClassifier::new(dim, 0);
        use emd_nn::param::Net;
        let params = c.params_mut();
        let last = params.into_iter().last().unwrap();
        last.value.data[0] = 100.0;
        c
    }

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

    fn temp(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "emd_supervisor_test_{}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
            tag
        ))
    }

    #[test]
    fn supervised_run_matches_unsupervised() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let s = stream(20);
        let (plain, _) = g.run(&s, 4);
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                checkpoint_path: None,
                batch_size: 4,
                ..Default::default()
            },
        );
        let report = sup.run(&s);
        assert_eq!(report.output.per_sentence, plain.per_sentence);
        assert_eq!(report.batches_total, 5);
        assert_eq!(report.batches_processed, 5);
        assert!(!report.resumed_from_checkpoint);
        assert_eq!(report.checkpoints_written, 0, "checkpointing disabled");
        assert_eq!(report.batches_shed, 0);
        assert_eq!(report.batches_deadline_exceeded, 0);
    }

    #[test]
    fn restart_resumes_from_checkpoint_and_replays_suffix() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let s = stream(20);
        let path = temp("resume");
        let cfg = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 2,
            batch_size: 4,
            ..Default::default()
        };
        // "Crash" after a prefix: run only the first 12 sentences (3
        // batches; checkpoint lands at batch 2).
        let sup = StreamSupervisor::new(&g, cfg.clone());
        let _ = sup.run(&s[..12]);
        // Restart over the full stream: the checkpoint covers a prefix,
        // only the suffix is replayed, and the output is bit-identical to
        // an uninterrupted run.
        let report = sup.run(&s);
        assert!(report.resumed_from_checkpoint);
        assert_eq!(report.batches_total, 5);
        assert_eq!(report.batches_skipped, 3, "prefix came from the checkpoint");
        assert_eq!(report.batches_processed, 2);
        let (plain, _) = g.run(&s, 4);
        assert_eq!(report.output.per_sentence, plain.per_sentence);
        assert_eq!(report.output.n_candidates, plain.n_candidates);
        assert_eq!(report.output.n_entities, plain.n_entities);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_discarded_fresh_start() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let path = temp("corrupt");
        std::fs::write(&path, "EMDCKPT v1 seq=2 crc=0000000000000000\n{garbage\n").unwrap();
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                batch_size: 2,
                ..Default::default()
            },
        );
        let s = stream(4);
        let report = sup.run(&s);
        assert!(report.discarded_corrupt_checkpoint);
        assert!(
            report.checkpoint_discard_reason.is_some(),
            "the discard reason is surfaced, not swallowed"
        );
        assert!(!report.resumed_from_checkpoint);
        assert_eq!(
            report.batches_processed, 2,
            "fresh start replays everything"
        );
        let (plain, _) = g.run(&s, 2);
        assert_eq!(report.output.per_sentence, plain.per_sentence);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn windowed_restart_is_bit_identical_and_checkpoints_compact() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(
            &local,
            None,
            &clf,
            GlobalizerConfig {
                window: crate::config::WindowConfig::sliding(6),
                ..Default::default()
            },
        );
        let s = stream(40);
        let path = temp("windowed");
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 2,
                batch_size: 4,
                ..Default::default()
            },
        );
        // Interrupted run over a prefix long enough to evict plenty.
        let _ = sup.run(&s[..24]);
        let (_seq, ckpt): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
        assert!(ckpt.n_evicted() > 0, "the window evicted before the crash");
        assert_eq!(
            ckpt.tweetbase.n_slots(),
            ckpt.tweetbase.len(),
            "checkpoints are compacted: no evicted slots persisted"
        );
        // Restart over the full stream: bit-identical to uninterrupted.
        let report = sup.run(&s);
        assert!(report.resumed_from_checkpoint);
        let (plain, _) = g.run(&s, 4);
        assert_eq!(report.output.per_sentence, plain.per_sentence);
        assert_eq!(report.output.n_candidates, plain.n_candidates);
        assert_eq!(report.output.n_entities, plain.n_entities);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_written_every_n_and_at_end() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let path = temp("cadence");
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 2,
                batch_size: 2,
                ..Default::default()
            },
        );
        // 5 batches → checkpoints after batches 2, 4, and 5 (final).
        let report = sup.run(&stream(10));
        assert_eq!(report.checkpoints_written, 3);
        let (seq, _state): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
        assert_eq!(seq, 5, "final checkpoint covers the whole stream");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_configs_rejected_with_typed_errors() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let cases: Vec<(SupervisorConfig, SupervisorConfigError)> = vec![
            (
                SupervisorConfig {
                    checkpoint_every: 0,
                    ..Default::default()
                },
                SupervisorConfigError::ZeroCheckpointEvery,
            ),
            (
                SupervisorConfig {
                    checkpoint_generations: 0,
                    ..Default::default()
                },
                SupervisorConfigError::ZeroCheckpointGenerations,
            ),
            (
                SupervisorConfig {
                    batch_size: 0,
                    ..Default::default()
                },
                SupervisorConfigError::ZeroBatchSize,
            ),
            (
                SupervisorConfig {
                    batch_retries: MAX_BATCH_RETRIES + 1,
                    ..Default::default()
                },
                SupervisorConfigError::ExcessiveBatchRetries(MAX_BATCH_RETRIES + 1),
            ),
            (
                SupervisorConfig {
                    batch_deadline_ns: Some(0),
                    ..Default::default()
                },
                SupervisorConfigError::ZeroBatchDeadline,
            ),
        ];
        for (cfg, want) in cases {
            match StreamSupervisor::try_new(&g, cfg) {
                Err(e) => assert_eq!(e, want),
                Ok(_) => panic!("expected {want:?}"),
            }
        }
        assert!(StreamSupervisor::try_new(&g, SupervisorConfig::default()).is_ok());
    }

    #[test]
    fn new_panics_on_invalid_config() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            StreamSupervisor::new(
                &g,
                SupervisorConfig {
                    batch_size: 0,
                    ..Default::default()
                },
            )
        }));
        assert!(r.is_err(), "new must reject what try_new rejects");
    }

    #[test]
    fn invalid_backoff_and_admission_are_rejected() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let bad_backoff = SupervisorConfig {
            backoff: BackoffPolicy {
                factor: 0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            StreamSupervisor::try_new(&g, bad_backoff),
            Err(SupervisorConfigError::Backoff(_))
        ));
        let bad_admission = SupervisorConfig {
            admission: AdmissionConfig {
                capacity: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            StreamSupervisor::try_new(&g, bad_admission),
            Err(SupervisorConfigError::Admission(_))
        ));
    }

    #[test]
    fn run_queued_without_pressure_matches_run() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let s = stream(20);
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                batch_size: 4,
                ..Default::default()
            },
        );
        let plain = sup.run(&s);
        let queued = sup.run_queued(&s, 1);
        assert_eq!(queued.output.per_sentence, plain.output.per_sentence);
        assert_eq!(queued.batches_shed, 0, "one arrival per tick never sheds");
        assert!(queued.local_only_output.is_empty());
    }

    #[test]
    fn run_queued_sheds_under_pressure_and_accounts_for_it() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let s = stream(60); // 15 batches of 4
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                batch_size: 4,
                admission: AdmissionConfig {
                    capacity: 8, // two queued batches
                    policy: OverloadPolicy::RejectNew,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // Offer 4 batches per tick, service 1: pressure guaranteed.
        let report = sup.run_queued(&s, 4);
        assert!(report.batches_shed > 0, "overload must shed");
        let shed_sentences: usize = report
            .output
            .quarantined
            .iter()
            .filter(|q| q.phase == PipelinePhase::Admission)
            .count();
        assert_eq!(
            shed_sentences,
            report.batches_shed * 4,
            "every shed sentence is quarantined under the admission phase"
        );
        // Serviced + shed covers the whole stream.
        assert_eq!(
            report.batches_shed + report.output.per_sentence.len().div_ceil(4),
            15,
            "admitted + shed = total batches"
        );
    }

    #[test]
    fn shed_to_local_only_produces_degraded_answers() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let s = stream(60);
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                batch_size: 4,
                admission: AdmissionConfig {
                    capacity: 8,
                    policy: OverloadPolicy::ShedToLocalOnly,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let report = sup.run_queued(&s, 4);
        assert!(report.batches_shed > 0);
        assert_eq!(
            report.local_only_output.len(),
            report.batches_shed * 4,
            "every shed sentence gets a local-only answer"
        );
        // Local answers carry the lexicon hits where present.
        assert!(report
            .local_only_output
            .iter()
            .any(|(_, spans)| !spans.is_empty()));
    }

    #[test]
    fn generation_ladder_rotates_during_run() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let path = temp("ladder");
        let sup = StreamSupervisor::new(
            &g,
            SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 1,
                checkpoint_generations: 3,
                batch_size: 2,
                ..Default::default()
            },
        );
        let report = sup.run(&stream(10));
        assert_eq!(report.checkpoints_written, 5);
        // Live file covers batch 5; .1 covers 4; .2 covers 3.
        let (seq0, _): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
        let (seq1, _): (u64, GlobalizerState) =
            checkpoint::load(&checkpoint::generation_path(&path, 1)).unwrap();
        let (seq2, _): (u64, GlobalizerState) =
            checkpoint::load(&checkpoint::generation_path(&path, 2)).unwrap();
        assert_eq!((seq0, seq1, seq2), (5, 4, 3));
        for k in 0..3 {
            let _ = std::fs::remove_file(checkpoint::generation_path(&path, k));
        }
    }

    #[test]
    fn restore_falls_back_past_corrupt_generations() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let s = stream(20);
        let path = temp("fallback");
        let cfg = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 1,
            checkpoint_generations: 3,
            batch_size: 4,
            ..Default::default()
        };
        let sup = StreamSupervisor::new(&g, cfg);
        let _ = sup.run(&s[..16]); // 4 batches; ladder = seq 4, 3, 2
                                   // Corrupt the newest generation (torn-write aftermath).
        std::fs::write(&path, "EMDCKPT v3 seq=4 crc=0000000000000000\n{}\n").unwrap();
        let report = sup.run(&s);
        assert!(report.resumed_from_checkpoint, "generation 1 restores");
        assert_eq!(report.checkpoint_generation, 1);
        assert_eq!(report.checkpoint_fallbacks, 1);
        assert!(report.discarded_corrupt_checkpoint);
        assert!(report
            .checkpoint_discard_reason
            .as_deref()
            .unwrap()
            .contains("checksum"));
        assert_eq!(report.batches_skipped, 3, "resumed from seq 3");
        let (plain, _) = g.run(&s, 4);
        assert_eq!(
            report.output.per_sentence, plain.per_sentence,
            "fallback restart stays bit-identical"
        );
        for k in 0..3 {
            let _ = std::fs::remove_file(checkpoint::generation_path(&path, k));
        }
        let _ = std::fs::remove_file(deadletter::deadletter_path(&path));
    }
}
