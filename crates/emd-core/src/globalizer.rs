//! The EMD Globalizer pipeline: Local EMD → Global EMD orchestration.
//!
//! Execution follows Figure 2/3 of the paper. The pipeline is incremental:
//! a stream is consumed in batches via [`Globalizer::process_batch`]; seed
//! candidates accumulate in the CTrie, candidate pools grow as mentions
//! arrive, and [`Globalizer::finalize`] performs the closing rescan (old
//! sentences may contain mentions of candidates discovered later), resolves
//! the ambiguous γ band, and emits the final mention outputs.
//!
//! The closing rescan is *incremental*: the state tracks which stored
//! sentences could possibly be affected by candidates registered after
//! their last scan (via the [`TweetBase`] token inverted index — a new
//! candidate can only change sentences containing its whole token
//! sequence, contiguously, because a match must end on a terminal CTrie
//! node), and [`Globalizer::finalize`] rescans only those. The brute-force
//! [`Globalizer::finalize_full_rescan`] rescans everything and exists as
//! the reference the incremental path is tested bit-identical against.
//!
//! ## Bounded memory
//!
//! With a sliding window ([`crate::config::WindowConfig`]), every batch
//! ends by evicting the oldest records beyond the window, after one last
//! rescan of those still dirty. The sentence store is a FIFO of live
//! records, so the victims are always the slot range starting at
//! [`TweetBase::first_slot`]; the dirty set and the post-ingest
//! quarantine set drop them as they go, and every slot-keyed structure
//! shifts down by the evicted count at [`GlobalizerState::compact`].
//!
//! ## Failure model
//!
//! Every per-item unit of work (one sentence's local inference or ingest
//! staging, one record's rescan, one candidate's classification) is pure
//! with respect to pipeline state and runs inside a panic-isolation
//! boundary with a bounded retry budget
//! ([`GlobalizerConfig::poison_retries`]). State mutation happens only in
//! the sequential *apply* steps, which are infallible, so a caught panic
//! never leaves partial state behind. Items that exhaust their budget are
//! **quarantined** (sentences — diverted to the dead-letter buffer on
//! [`GlobalizerOutput::quarantined`]) or marked **degraded** (candidates —
//! emission falls back to the local system's own detections). Worker
//! shards are joined *unconditionally*; a panicked shard's work is re-run
//! on the caller thread, so one poisoned shard never aborts the batch or
//! leaks live threads. Fail points ([`emd_resilience::failpoint`]) at each
//! phase boundary drive the chaos test suite; they compile to nothing
//! without the `failpoints` feature.

use crate::adjacency::AdjacencyLedger;
use crate::candidatebase::{CandId, CandidateBase, CandidateRecord};
use crate::classifier::{CandidateLabel, EntityClassifier};
use crate::config::{Ablation, GlobalizerConfig, Pooling};
use crate::ctrie::{CTrie, NodeId};
use crate::dirtyset::DirtySet;
use crate::local::LocalEmd;
use crate::mention::walk_mentions;
use crate::obs::{PhaseProbe, PhaseTimings, PipelineMetrics};
use crate::phrase_embedder::PhraseEmbedder;
use crate::tweetbase::{TweetBase, TweetRecord};
use emd_guard::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
use emd_obs::Timer;
use emd_resilience::quarantine::{PipelinePhase, QuarantineEntry};
use emd_resilience::{failpoint, isolate, validate};
use emd_sentinel::{AlertKind, BatchObservation, HealthReport, HealthState, Sentinel};
use emd_text::casing::{syntactic_class, SyntacticClass};
use emd_text::intern::Sym;
use emd_text::token::{Sentence, SentenceId, Span};
use emd_trace::{
    TraceAblation, TraceBreaker, TraceEvent, TraceEventKind, TraceHealth, TraceLabel, TracePhase,
    TraceSink,
};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Position of the first entry `>= target` in the ascending `list`,
/// found by doubling out from the front and then bisecting: O(log d) for
/// an answer `d` entries in. Walking one ascending list while galloping
/// through another costs far less than a binary search over the whole
/// remainder per step when the hits are dense.
fn gallop(list: &[u32], target: u32) -> usize {
    let mut hi = 1;
    while hi < list.len() && list[hi - 1] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + list[lo..hi.min(list.len())].partition_point(|&x| x < target)
}

/// Map a resilience phase onto the trace vocabulary (the trace crate is
/// dependency-free, so it cannot name `PipelinePhase` itself).
fn trace_phase(phase: PipelinePhase) -> TracePhase {
    match phase {
        PipelinePhase::LocalInference => TracePhase::LocalInfer,
        PipelinePhase::Ingest => TracePhase::Ingest,
        PipelinePhase::Scan => TracePhase::Scan,
        PipelinePhase::Classify => TracePhase::Classify,
        PipelinePhase::FinalizeRescan => TracePhase::FinalizeRescan,
        PipelinePhase::Supervisor => TracePhase::Supervisor,
        // Admission sheds happen before any pipeline phase runs; they are
        // attributed to the supervisor frame in the trace.
        PipelinePhase::Admission => TracePhase::Supervisor,
    }
}

/// Map a breaker state onto the trace vocabulary (the trace crate is
/// dependency-free, so it cannot name `BreakerState` itself).
fn trace_breaker(b: BreakerState) -> TraceBreaker {
    match b {
        BreakerState::Closed => TraceBreaker::Closed,
        BreakerState::Open => TraceBreaker::Open,
        BreakerState::HalfOpen => TraceBreaker::HalfOpen,
    }
}

fn trace_label(label: CandidateLabel) -> TraceLabel {
    match label {
        CandidateLabel::Pending => TraceLabel::Pending,
        CandidateLabel::Entity => TraceLabel::Entity,
        CandidateLabel::NonEntity => TraceLabel::NonEntity,
        CandidateLabel::Ambiguous => TraceLabel::Ambiguous,
    }
}

/// Map a sentinel health state onto the trace vocabulary (the trace
/// crate is dependency-free, so it cannot name `HealthState` itself).
fn trace_health(h: HealthState) -> TraceHealth {
    match h {
        HealthState::Healthy => TraceHealth::Healthy,
        HealthState::Degraded => TraceHealth::Degraded,
        HealthState::Critical => TraceHealth::Critical,
    }
}

fn trace_ablation(a: Ablation) -> TraceAblation {
    match a {
        Ablation::LocalOnly => TraceAblation::LocalOnly,
        Ablation::MentionExtraction => TraceAblation::MentionExtraction,
        Ablation::Full => TraceAblation::Full,
    }
}

/// `(tweet id, sentence index)` causal ID of a sentence.
fn tsid(sid: SentenceId) -> (u64, u32) {
    (sid.tweet_id, sid.sent_id)
}

/// `[start, end)` causal ID of a span.
fn tspan(sp: &Span) -> (u32, u32) {
    (sp.start as u32, sp.end as u32)
}

/// Accumulated pipeline state across batches. Serializable: the
/// `StreamSupervisor` checkpoints it between batches so an interrupted
/// run can resume from the last completed batch. Decoding also reads the
/// v6 schema, whose sentence store kept evicted slots and both of its
/// indexes (see [`TweetBase`]), and the v3 to v5 schemas, which named
/// candidates by their text (see `crate::migrate`).
#[derive(Debug, Clone, Serialize)]
pub struct GlobalizerState {
    /// Per-sentence records.
    pub tweetbase: TweetBase,
    /// Seed candidate index.
    pub ctrie: CTrie,
    /// Per-candidate records with pooled global embeddings, indexed by
    /// the ids the CTrie terminals hold.
    pub candidates: CandidateBase,
    /// Stream-order indices of records whose stored `global_mentions` may
    /// be stale: never scanned yet, or a candidate whose whole token
    /// sequence they contain was registered after their last scan. Every
    /// other live, non-quarantined record holds exactly what a fresh
    /// extraction would find. Iterated in ascending (stream) order so
    /// rescans replay in stream order, keeping outputs bit-identical to a
    /// full sequential rescan. A bitset: O(1) insert and membership, and
    /// it checkpoints to the same sorted list an ordered set would.
    dirty: DirtySet,
    /// Cumulative per-phase wall-clock spent on this state, accumulated
    /// unconditionally (one clock read per phase call) and surfaced via
    /// [`GlobalizerOutput::phase_timings`].
    timings: PhaseTimings,
    /// Dead-letter log: sentences the pipeline gave up on, in
    /// deterministic stream/discovery order.
    pub quarantined: Vec<QuarantineEntry>,
    /// Stream-order indices of records quarantined *after* ingestion (a
    /// persistently failing rescan). They stay in the TweetBase until
    /// evicted, but are excluded from dirtying, scans, promotion
    /// evidence, and emission.
    quarantined_idx: BTreeSet<usize>,
    /// Every sentence ID ever quarantined. Eviction frees a quarantined
    /// record's slot, but its ID stays here so a replayed copy of the
    /// sentence is never silently re-admitted — quarantine decisions are
    /// permanent for the lifetime of the state.
    quarantined_ids: HashSet<SentenceId>,
    /// Adjacent-pair promotion evidence: the pairs of every live
    /// record's stored mentions plus those of every evicted record as it
    /// stood at eviction (see [`AdjacencyLedger`]). Empty while
    /// promotion is disabled.
    pub(crate) adjacency: AdjacencyLedger,
    /// 1-based batch counter, advanced on every `process_batch` call
    /// (unconditionally, so traced and untraced runs stay aligned) and
    /// stamped into `BatchStart` trace events.
    pub(crate) batch_seq: u64,
    /// Trace sequence number at the last committed batch boundary. The
    /// supervisor checkpoints it so a restored run continues the
    /// interrupted run's event numbering instead of reusing it.
    pub(crate) trace_seq: u64,
}

impl Deserialize for GlobalizerState {
    fn from_value(v: &Value) -> Result<GlobalizerState, DeError> {
        if crate::migrate::is_pre_v6(v) {
            return crate::migrate::to_v6(v);
        }
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
            match v.get_field(name) {
                Some(fv) => T::from_value(fv),
                None => Err(DeError::msg(format!(
                    "missing field `{name}` in `GlobalizerState`"
                ))),
            }
        }
        if v.as_obj().is_none() {
            return Err(DeError::msg("expected object for `GlobalizerState`"));
        }
        let tweetbase: TweetBase = field(v, "tweetbase")?;
        // A v6 state kept an evicted record's quarantined slot until
        // compaction; eviction now drops it.
        let quarantined_idx =
            field::<BTreeSet<usize>>(v, "quarantined_idx")?.split_off(&tweetbase.first_slot());
        Ok(GlobalizerState {
            tweetbase,
            ctrie: field(v, "ctrie")?,
            candidates: field(v, "candidates")?,
            dirty: field(v, "dirty")?,
            timings: field(v, "timings")?,
            quarantined: field(v, "quarantined")?,
            quarantined_idx,
            quarantined_ids: field(v, "quarantined_ids")?,
            adjacency: field(v, "adjacency")?,
            batch_seq: field(v, "batch_seq")?,
            trace_seq: field(v, "trace_seq")?,
        })
    }
}

impl GlobalizerState {
    /// The adjacent-pair promotion evidence.
    pub fn adjacency(&self) -> &AdjacencyLedger {
        &self.adjacency
    }

    /// The id of the live candidate spelled by `text` (tokens in any
    /// casing, space-separated).
    pub fn candidate_id(&self, text: &str) -> Option<CandId> {
        let interner = self.tweetbase.interner();
        let syms: Option<Vec<Sym>> = text.split(' ').map(|t| interner.lookup_folded(t)).collect();
        self.ctrie.cand_of(&syms?)
    }

    /// The text of live candidate `id`: its folded tokens, space-joined.
    pub fn candidate_key(&self, id: CandId) -> String {
        let rec = self.candidates.get(id).expect("live candidate id");
        self.tweetbase.interner().join(&rec.syms)
    }

    /// Number of records currently awaiting a rescan (the dirty-set
    /// depth). Observable live, e.g. between batches.
    pub fn n_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Is the record in slot `idx` awaiting a rescan? A live,
    /// non-quarantined record that is not dirty holds exactly the
    /// mentions a fresh extraction against the current CTrie would find.
    pub fn is_dirty(&self, idx: usize) -> bool {
        self.dirty.contains(idx)
    }

    /// Number of sentences quarantined so far.
    pub fn n_quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// Cumulative per-phase wall-clock timings accumulated on this state
    /// so far.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// Records evicted from the sentence store so far (0 unless windowing
    /// is enabled).
    pub fn n_evicted(&self) -> u64 {
        self.tweetbase.evicted_total()
    }

    /// Estimated resident bytes of the state's stores and indexes: the
    /// sentence store (records, embedding arena, posting arena, interner),
    /// the candidate store, the CTrie and the adjacency ledger. The trie,
    /// the ledger and the posting arena are counted from capacities in
    /// O(1); the two stores still walk their records. The quantity the
    /// `emd_window_resident_bytes` gauge reports.
    pub fn resident_bytes(&self) -> usize {
        self.tweetbase.resident_bytes()
            + self.candidates.resident_bytes()
            + self.ctrie.resident_bytes()
            + self.adjacency.resident_bytes()
    }

    /// Compact the sentence store (see [`TweetBase::compact`]): its slot
    /// indices shift down by the number of records evicted since the last
    /// compaction, and so do the other slot-keyed sets, the dirty set and
    /// the post-ingest quarantine set (eviction already took its victims
    /// out of both). Returns the number of slots reclaimed.
    ///
    /// Called automatically by window enforcement once evicted slots
    /// outnumber live records, and by the `StreamSupervisor` before
    /// checkpoint writes so slot indices stay O(window).
    pub fn compact(&mut self) -> usize {
        let shift = self.tweetbase.compact();
        if shift > 0 {
            self.dirty = self.dirty.iter().map(|i| i - shift).collect();
            self.quarantined_idx = self.quarantined_idx.iter().map(|&i| i - shift).collect();
        }
        shift
    }
}

/// Final (or interim) outputs of the framework. Serializable (the
/// experiment binaries persist it, timings included, to `results/` JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalizerOutput {
    /// Predicted mentions per sentence, in stream order.
    pub per_sentence: Vec<(SentenceId, Vec<Span>)>,
    /// Number of seed candidates discovered.
    pub n_candidates: usize,
    /// Number of candidates accepted as entities.
    pub n_entities: usize,
    /// Candidates created by adjacent-pair promotion at stream close.
    pub n_promoted: usize,
    /// Sentence scans performed by the closing rescan: a scan count, so a
    /// record rescanned in several promotion rounds counts once per round
    /// (as does `emd_finalize_rescan_sentences_total`). For the
    /// incremental path this is usually far below the stream length. The
    /// `emd_finalize_rescan_coverage` gauge reports distinct records
    /// rescanned over live records instead.
    pub n_rescanned: usize,
    /// Cumulative per-phase wall-clock breakdown for the run that produced
    /// this output. Wall-clock only — never part of output equality
    /// comparisons (instrumented and uninstrumented runs are bit-identical
    /// in every other field).
    pub phase_timings: PhaseTimings,
    /// Dead-letter buffer: sentences the pipeline gave up on (poison
    /// input or persistent per-item faults). These sentences do not
    /// appear in `per_sentence`; operators drain this buffer for
    /// inspection or replay.
    pub quarantined: Vec<QuarantineEntry>,
    /// Candidates whose phrase embedding or classification failed
    /// persistently; their emission fell back to the local system's own
    /// detections (degraded LocalOnly behaviour).
    pub n_degraded: usize,
}

impl GlobalizerOutput {
    /// Flatten to a map for evaluation.
    pub fn as_map(&self) -> std::collections::HashMap<SentenceId, Vec<Span>> {
        self.per_sentence.iter().cloned().collect()
    }

    /// Provenance for one candidate key (lower-cased, space-joined): the
    /// full decision chain assembled from `events` — detection, pooling,
    /// verdicts, degradation, promotion — with the `emitted` flag taken
    /// from this output's ground truth (a traced mention of the candidate
    /// appears among the final spans) rather than inferred from the trace.
    /// The chain is empty when the candidate never appears in the trace
    /// (unknown key, or tracing was disabled during the run).
    pub fn explain(&self, candidate: &str, events: &[TraceEvent]) -> emd_trace::Explanation {
        let mut ex = emd_trace::explain::explain_from_trace(events, candidate);
        let map = self.as_map();
        ex.emitted = ex.chain.iter().any(|e| {
            e.kind == TraceEventKind::ScanMention
                && match (e.sid, e.span) {
                    (Some((tweet_id, sent_id)), Some(span)) => map
                        .get(&SentenceId::new(tweet_id, sent_id))
                        .is_some_and(|spans| spans.iter().any(|sp| tspan(sp) == span)),
                    _ => false,
                }
        });
        ex
    }
}

/// One mention a rescan found, with the embedding to pool if the record
/// has not pooled it yet.
struct StagedMention {
    /// The CTrie terminal the match ended on, which names its candidate.
    terminal: NodeId,
    /// Token span inside the record's sentence.
    span: Span,
    /// Whether the Local EMD system proposed this span itself.
    locally_detected: bool,
    /// Local candidate embedding.
    emb: Vec<f32>,
    /// The embedding computation panicked or produced non-finite values
    /// (or the pool breaker is open): `emb` is a zero vector, and the
    /// apply step marks the candidate degraded.
    degraded: bool,
}

/// One staged rescan result, computed read-only (a rescan worker runs the
/// staging off-thread; the sequential apply step replays it).
struct StagedScan {
    /// Re-extracted mentions for the record.
    mentions: Vec<Span>,
    /// One entry per re-extracted mention, in span order.
    staged: Vec<StagedMention>,
}

/// Live monitoring attachment: the quality sentinel plus the raw counts
/// the current batch has accumulated so far. Behind a `Mutex` because
/// the count hooks fire from `&self` phase methods; every hook runs in a
/// sequential apply section, so the lock is uncontended in practice. A
/// lock poisoned by a panicked batch attempt is recovered (the counts
/// are reset at the next `start_batch` anyway, so a supervisor retry
/// discards the failed attempt's partial counts).
struct MonitorCell {
    sentinel: Sentinel,
    counts: BatchObservation,
    /// Sentences shed by the admission gate since the last batch started;
    /// folded into the next batch's observation (shed batches never run
    /// `start_batch` themselves).
    pending_shed: u64,
}

/// Overload-guard attachment: one circuit breaker per guarded phase, on
/// the batch-tick clock. Behind a `Mutex` for the same reason as
/// [`MonitorCell`] — breaker reads/records fire from `&self` phase
/// methods, each in a sequential section, so the lock is uncontended.
/// A breaker that is **Open** makes its phase take the degraded path
/// immediately: exactly the end state a persistent failure would have
/// produced, with zero retry burn (see DESIGN.md § "Degradation ladder").
struct GuardCell {
    /// Guards candidate classification; Open degrades unfrozen candidates
    /// to the LocalOnly emission fallback.
    classify: CircuitBreaker,
    /// Guards phrase embedding inside the scan; Open pools zero vectors
    /// and marks candidates degraded.
    pool: CircuitBreaker,
    /// Guards the closing rescan; Open quarantines the records instead of
    /// rescanning them.
    rescan: CircuitBreaker,
    /// Every transition taken, in order, for `RunReport` surfacing.
    transitions: Vec<(TracePhase, BreakerTransition)>,
}

impl GuardCell {
    fn breaker_mut(&mut self, phase: TracePhase) -> &mut CircuitBreaker {
        match phase {
            TracePhase::Classify => &mut self.classify,
            TracePhase::Pool => &mut self.pool,
            TracePhase::FinalizeRescan => &mut self.rescan,
            _ => unreachable!("no breaker guards {}", phase.name()),
        }
    }

    fn open_count(&self) -> u64 {
        [&self.classify, &self.pool, &self.rescan]
            .iter()
            .filter(|b| b.state() == BreakerState::Open)
            .count() as u64
    }
}

/// The three guarded phases, in reporting order.
const GUARDED_PHASES: [TracePhase; 3] = [
    TracePhase::Classify,
    TracePhase::Pool,
    TracePhase::FinalizeRescan,
];

/// The framework: a Local EMD plug-in, the Global EMD components, and the
/// configuration.
pub struct Globalizer<'a> {
    local: &'a dyn LocalEmd,
    /// Required iff the local system is deep.
    phrase: Option<&'a PhraseEmbedder>,
    classifier: &'a EntityClassifier,
    /// Pipeline configuration.
    pub config: GlobalizerConfig,
    /// Metric handles every phase records into. Defaults to the
    /// process-wide registry; see [`Globalizer::set_metrics`].
    metrics: PipelineMetrics,
    /// Trace sink decision events are pushed into when
    /// `emd_trace::enabled()`. Defaults to the process-wide ring; see
    /// [`Globalizer::set_trace`].
    trace: TraceSink,
    /// Attached quality sentinel, if any ([`Globalizer::set_sentinel`]).
    /// `None` (the default) means no per-batch counting and no clock
    /// reads on the sentinel's behalf.
    monitor: Option<Mutex<MonitorCell>>,
    /// The current batch's top-level phase readings, summed for the
    /// attached sentinel (see [`Globalizer::finish`]); stays zero when
    /// unmonitored.
    batch_latency_ns: AtomicU64,
    /// Attached overload guard, if any ([`Globalizer::set_guard`]).
    /// `None` (the default) means every phase always runs — unguarded
    /// and guarded no-fault runs are bit-identical.
    guard: Option<Mutex<GuardCell>>,
}

impl<'a> Globalizer<'a> {
    /// Assemble a framework instance. Panics if a deep local system is given
    /// without a phrase embedder, or a non-deep one with an embedder of the
    /// wrong input dimension.
    pub fn new(
        local: &'a dyn LocalEmd,
        phrase: Option<&'a PhraseEmbedder>,
        classifier: &'a EntityClassifier,
        config: GlobalizerConfig,
    ) -> Globalizer<'a> {
        if let Some(d) = local.embedding_dim() {
            let pe = phrase.expect("deep Local EMD requires a PhraseEmbedder");
            assert_eq!(
                pe.in_dim(),
                d,
                "PhraseEmbedder input dim must match the local system"
            );
        }
        Globalizer {
            local,
            phrase,
            classifier,
            config,
            metrics: PipelineMetrics::global(),
            trace: emd_trace::global().clone(),
            monitor: None,
            batch_latency_ns: AtomicU64::new(0),
            guard: None,
        }
    }

    /// The metric handles this instance records into.
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Point the instrumentation at a private registry's handles instead
    /// of the process-wide default (isolated tests, side-by-side runs).
    pub fn set_metrics(&mut self, metrics: PipelineMetrics) {
        self.metrics = metrics;
    }

    /// Point the instrumentation at a per-stream [`emd_obs::Scope`]: every
    /// pipeline, guard, and sentinel metric this instance records lands in
    /// the scope's registry, so an [`emd_obs::ScopeSet`] roll-up renders
    /// this stream as its own labeled series next to the process
    /// aggregate. Purely an observability rebinding — pipeline behavior
    /// and outputs are unchanged.
    pub fn set_scope(&mut self, scope: &emd_obs::Scope) {
        self.metrics = PipelineMetrics::from_scope(scope);
    }

    /// The trace sink this instance pushes decision events into.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Point trace emission at a private sink instead of the process-wide
    /// ring (isolated tests, per-run trace capture).
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Attach a quality sentinel: every processed batch (and the closing
    /// finalize pass) folds one [`BatchObservation`] into it, drift
    /// detections become `DriftDetected` trace events, health changes
    /// become `HealthTransition` events, and the `emd_sentinel_*`
    /// metrics mirror the verdict. Monitoring is strictly passive — the
    /// sentinel never touches pipeline state, so monitored and
    /// unmonitored runs produce bit-identical outputs (proptest-enforced
    /// in `tests/sentinel_monitoring.rs`).
    pub fn set_sentinel(&mut self, sentinel: Sentinel) {
        self.monitor = Some(Mutex::new(MonitorCell {
            sentinel,
            counts: BatchObservation::default(),
            pending_shed: 0,
        }));
    }

    /// Attach the overload guard: one circuit breaker per guarded phase
    /// (classification, embedding pooling, finalize rescan), all under
    /// the same config, ticking on the batch clock. An Open breaker makes
    /// its phase take the degraded path immediately — the end state a
    /// persistent failure would have produced, without burning retry
    /// budgets — and an attached sentinel going Critical force-opens all
    /// three. In a fault-free run no breaker ever trips, so guarded and
    /// unguarded outputs are bit-identical (proptest-enforced in
    /// `tests/guard_runtime.rs`). Panics on an invalid config; use
    /// [`BreakerConfig::validate`] to pre-check.
    pub fn set_guard(&mut self, cfg: BreakerConfig) {
        if let Err(e) = cfg.validate() {
            panic!("invalid breaker config: {e}");
        }
        self.guard = Some(Mutex::new(GuardCell {
            classify: CircuitBreaker::new(cfg.clone()),
            pool: CircuitBreaker::new(cfg.clone()),
            rescan: CircuitBreaker::new(cfg),
            transitions: Vec::new(),
        }));
    }

    /// Whether an overload guard is attached.
    pub fn guarded(&self) -> bool {
        self.guard.is_some()
    }

    /// Lock the guard cell, recovering from poisoning (breaker state is
    /// always internally consistent — transitions are atomic under the
    /// lock).
    fn guard_lock(g: &Mutex<GuardCell>) -> std::sync::MutexGuard<'_, GuardCell> {
        g.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// True when the given guarded phase should run its real work; false
    /// (breaker Open) routes it down the degraded path. Unguarded
    /// instances always run everything.
    fn guard_allows(&self, phase: TracePhase) -> bool {
        match &self.guard {
            Some(g) => Self::guard_lock(g).breaker_mut(phase).allows(),
            None => true,
        }
    }

    /// Record one guarded pass's outcome against its breaker. `ok` is
    /// false when the pass saw at least one persistent failure. Emits any
    /// resulting transition.
    fn guard_record(&self, phase: TracePhase, ok: bool, reason: &str) {
        self.guard_step(&[phase], |b| {
            if ok {
                b.record_success()
            } else {
                b.record_failure(reason)
            }
        });
    }

    /// Advance every breaker's batch clock by one tick, emitting
    /// Open → HalfOpen transitions whose cooldowns are served.
    fn guard_tick(&self) {
        self.guard_step(&GUARDED_PHASES, CircuitBreaker::tick);
    }

    /// Trip every breaker Open regardless of failure counts — the
    /// sentinel-Critical escalation hook.
    fn guard_force_open_all(&self, reason: &str) {
        self.guard_step(&GUARDED_PHASES, |b| b.force_open(reason));
    }

    /// Apply `step` to the breakers of `phases` in order, then record and
    /// emit the transitions it fired.
    fn guard_step(
        &self,
        phases: &[TracePhase],
        step: impl Fn(&mut CircuitBreaker) -> Option<BreakerTransition>,
    ) {
        let Some(g) = &self.guard else { return };
        let fired: Vec<(TracePhase, BreakerTransition)> = {
            let mut cell = Self::guard_lock(g);
            let fired: Vec<_> = phases
                .iter()
                .filter_map(|&p| step(cell.breaker_mut(p)).map(|t| (p, t)))
                .collect();
            if !fired.is_empty() {
                cell.transitions.extend(fired.iter().cloned());
                self.metrics
                    .guard_breaker_open
                    .set(cell.open_count() as f64);
            }
            fired
        };
        for (p, t) in &fired {
            self.note_breaker_transition(*p, t);
        }
    }

    /// Count (and trace) one breaker state change.
    fn note_breaker_transition(&self, phase: TracePhase, t: &BreakerTransition) {
        self.metrics.guard_breaker_transitions_total.inc();
        self.temit(|| TraceEvent {
            batch: Some(t.tick),
            phase: Some(phase),
            breaker: Some(trace_breaker(t.to)),
            reason: Some(t.reason.clone()),
            ..TraceEvent::of(TraceEventKind::BreakerTransition)
        });
    }

    /// Every breaker transition taken so far, in order, as
    /// `(guarded phase, transition)` pairs. Empty when unguarded.
    pub fn guard_transitions(&self) -> Vec<(TracePhase, BreakerTransition)> {
        self.guard
            .as_ref()
            .map(|g| Self::guard_lock(g).transitions.clone())
            .unwrap_or_default()
    }

    /// Current breaker state per guarded phase, or `None` when unguarded.
    pub fn breaker_states(&self) -> Option<Vec<(TracePhase, BreakerState)>> {
        self.guard.as_ref().map(|g| {
            let mut cell = Self::guard_lock(g);
            GUARDED_PHASES
                .iter()
                .map(|&p| (p, cell.breaker_mut(p).state()))
                .collect()
        })
    }

    /// Record `sentences` shed by the admission gate; folded into the
    /// next batch's sentinel observation (the ShedRate series). No-op
    /// without a sentinel.
    pub fn note_shed(&self, sentences: u64) {
        if let Some(m) = &self.monitor {
            Self::mon_lock(m).pending_shed += sentences;
        }
    }

    /// The degraded LocalOnly answer for a batch that will never enter
    /// the pipeline (the `ShedToLocalOnly` admission policy): per-sentence
    /// local spans, panic-isolated exactly like the real local phase, with
    /// persistent failures yielding empty span lists. Touches no pipeline
    /// state.
    pub fn local_only_spans(&self, sentences: &[Sentence]) -> Vec<(SentenceId, Vec<Span>)> {
        sentences
            .iter()
            .map(|s| {
                let spans = match self.local_attempt(s) {
                    Ok(out) => out.spans,
                    Err(_) => Vec::new(),
                };
                (s.id, spans)
            })
            .collect()
    }

    /// Whether a sentinel is attached.
    pub fn monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// Current health state from the attached sentinel, if any.
    pub fn sentinel_health(&self) -> Option<HealthState> {
        self.monitor
            .as_ref()
            .map(|m| Self::mon_lock(m).sentinel.health())
    }

    /// End-of-run health summary from the attached sentinel, if any.
    pub fn sentinel_report(&self) -> Option<HealthReport> {
        self.monitor
            .as_ref()
            .map(|m| Self::mon_lock(m).sentinel.report())
    }

    /// Windowed-series export from the attached sentinel, if any, as an
    /// `emd-obs` snapshot riding the existing Prometheus/JSON exporters.
    pub fn sentinel_snapshot(&self) -> Option<emd_obs::Snapshot> {
        self.monitor
            .as_ref()
            .map(|m| Self::mon_lock(m).sentinel.snapshot())
    }

    /// Lock the monitor cell, recovering from poisoning (a panicked
    /// batch attempt leaves partial counts; `start_batch` resets them).
    fn mon_lock(m: &Mutex<MonitorCell>) -> std::sync::MutexGuard<'_, MonitorCell> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Count one slice of the batch's facts into their `emd_*` counters
    /// and, when a sentinel is attached, its running observation. Count
    /// sites live only in sequential apply sections.
    fn count(&self, d: BatchObservation) {
        let mut cell = self.monitor.as_ref().map(Self::mon_lock);
        self.metrics.count(d, cell.as_mut().map(|c| &mut c.counts));
    }

    /// Fold the batch's accumulated counts into the sentinel, mirror the
    /// verdict into the `emd_sentinel_*` metrics, and emit
    /// `DriftDetected` / `HealthTransition` trace events. `closing`
    /// marks the finalize-time observation, which is normalized by the
    /// resident window size rather than a batch size. The latency is the
    /// sum [`Globalizer::finish`] kept of the batch's top-level readings.
    /// Reads pipeline state but never writes it — monitoring stays
    /// passive.
    fn observe_batch(&self, state: &GlobalizerState, closing: bool) {
        let Some(m) = &self.monitor else { return };
        let observed = {
            let mut cell = Self::mon_lock(m);
            let mut counts = std::mem::take(&mut cell.counts);
            counts.batch = state.batch_seq;
            counts.latency_ns = self.batch_latency_ns.swap(0, Ordering::Relaxed);
            if closing {
                counts.sentences = state.tweetbase.len().max(1) as u64;
            }
            let observed = cell.sentinel.observe(&counts);
            self.metrics
                .sentinel_health
                .set(cell.sentinel.health().level() as f64);
            observed
        };
        self.metrics
            .sentinel_alerts_total
            .add(observed.alerts.len() as u64);
        for a in &observed.alerts {
            if a.kind != AlertKind::Drift {
                continue;
            }
            self.metrics.sentinel_drift_total.inc();
            self.temit(|| TraceEvent {
                batch: Some(a.batch),
                series: Some(a.series.name().to_string()),
                score: Some(a.value as f32),
                reason: Some(a.detail.clone()),
                ..TraceEvent::of(TraceEventKind::DriftDetected)
            });
        }
        // One SloBurn event per firing (slo, batch) pair — the trace
        // carries the whole burn interval, so `replay_slo` reconstructs
        // exactly when each objective was on fire and how hard.
        self.metrics
            .sentinel_slo_burn_total
            .add(observed.slo_burns.len() as u64);
        for b in &observed.slo_burns {
            self.temit(|| TraceEvent {
                batch: Some(b.batch),
                series: Some(b.name.clone()),
                score: Some(b.burn_fast as f32),
                reason: Some(format!(
                    "burn_slow={:.2} threshold={}",
                    b.burn_slow, b.threshold
                )),
                ..TraceEvent::of(TraceEventKind::SloBurn)
            });
        }
        if let Some(t) = &observed.transition {
            self.metrics.sentinel_transitions_total.inc();
            self.temit(|| TraceEvent {
                batch: Some(t.batch),
                health: Some(trace_health(t.to)),
                reason: Some(t.reason.clone()),
                ..TraceEvent::of(TraceEventKind::HealthTransition)
            });
            // Sense → act: a Critical stream force-opens every breaker,
            // so the next batches take the cheap degraded paths while the
            // storm passes (cooldown + probes decide when to re-engage).
            if t.to == HealthState::Critical {
                self.guard_force_open_all(&format!("sentinel critical: {}", t.reason));
            }
        }
    }

    /// Push one trace event into this instance's sink when tracing is on
    /// (see [`PipelineMetrics::push_trace`]).
    fn temit(&self, ev: impl FnOnce() -> TraceEvent) -> Option<u64> {
        self.metrics.push_trace(&self.trace, ev)
    }

    /// Start observing one call of `phase`, nested under `parent`.
    fn probe(&self, phase: TracePhase, parent: Option<TracePhase>) -> PhaseProbe<'_> {
        let system = (phase == TracePhase::LocalInfer).then(|| self.local.name());
        PhaseProbe::start(&self.metrics, &self.trace, phase, parent, system)
    }

    /// Finish a phase probe into `timings`. A top-level reading also adds
    /// to the attached sentinel's latency, so a batch's latency is the
    /// sum of its top-level phases and the closing observation's is
    /// finalize's own reading.
    fn finish(&self, probe: PhaseProbe<'_>, timings: &mut PhaseTimings) {
        let top = probe.parent().is_none();
        let ns = probe.finish(timings);
        if top && self.monitor.is_some() {
            self.batch_latency_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Count (and trace) one panicked worker shard whose work was re-run
    /// on the caller thread.
    fn note_shard_retry(&self, phase: TracePhase) {
        self.metrics.shard_retries_total.inc();
        self.temit(|| TraceEvent {
            phase: Some(phase),
            ..TraceEvent::of(TraceEventKind::ShardRetry)
        });
    }

    /// The phrase embedder that makes local candidate embeddings: `Some`
    /// for deep systems only. Non-deep ones use the syntactic one-hot.
    fn deep_phrase(&self) -> Option<&'a PhraseEmbedder> {
        self.phrase.filter(|_| self.local.is_deep())
    }

    /// Dimensionality of candidate embeddings: the phrase-embedder output
    /// for deep systems, the 6-dim syntactic space otherwise.
    pub fn candidate_dim(&self) -> usize {
        self.deep_phrase()
            .map_or(SyntacticClass::COUNT, PhraseEmbedder::out_dim)
    }

    /// Fresh pipeline state.
    pub fn new_state(&self) -> GlobalizerState {
        let mut candidates = CandidateBase::new(self.candidate_dim());
        // Mean pooling reads only the running sum, so the per-mention
        // embedding rows — the one candidate-side structure that grows
        // with stream length instead of window size — are stored for max
        // pooling alone (and for the training harvest, see
        // `index_stream`).
        candidates.set_store_local(self.config.pooling == Pooling::Max);
        GlobalizerState {
            tweetbase: TweetBase::new(),
            ctrie: CTrie::new(),
            candidates,
            dirty: DirtySet::new(),
            timings: PhaseTimings::default(),
            quarantined: Vec::new(),
            quarantined_idx: BTreeSet::new(),
            quarantined_ids: HashSet::new(),
            adjacency: AdjacencyLedger::default(),
            batch_seq: 0,
            trace_seq: 0,
        }
    }

    /// Total attempts per isolated unit of work.
    fn attempts(&self) -> usize {
        self.config.poison_retries + 1
    }

    /// Record `failed` panicking attempts against the retry counter.
    fn note_retries(&self, failed: usize) {
        if failed > 0 {
            self.metrics.item_retries_total.add(failed as u64);
            self.temit(|| TraceEvent {
                count: Some(failed as u64),
                ..TraceEvent::of(TraceEventKind::ItemRetry)
            });
        }
    }

    /// Divert a sentence to the dead-letter log. When tracing is on, the
    /// `SentenceQuarantined` event's sequence number is linked back into
    /// the dead-letter entry, so an operator holding the entry can pull
    /// the sentence's full event history out of the trace.
    fn quarantine_sentence(
        &self,
        state: &mut GlobalizerState,
        sid: SentenceId,
        phase: PipelinePhase,
        reason: String,
    ) {
        self.count(BatchObservation {
            quarantined: 1,
            ..BatchObservation::default()
        });
        let trace_event = self.temit(|| TraceEvent {
            sid: Some(tsid(sid)),
            phase: Some(trace_phase(phase)),
            reason: Some(reason.clone()),
            ..TraceEvent::of(TraceEventKind::SentenceQuarantined)
        });
        state.quarantined_ids.insert(sid);
        state.quarantined.push(QuarantineEntry {
            sid,
            phase,
            reason,
            trace_event,
        });
    }

    /// Quarantine the stored record in slot `idx` after a failed (or
    /// refused) rescan. It keeps its slot, so indices stay stable, but
    /// leaves the dirty set, and its stale mentions are retired (their
    /// pairs uncounted): it must no longer feed promotions or emission.
    fn quarantine_record(
        &self,
        state: &mut GlobalizerState,
        idx: usize,
        phase: PipelinePhase,
        reason: String,
    ) {
        let sid = state.tweetbase.get_by_index(idx).sentence.id;
        self.quarantine_sentence(state, sid, phase, reason);
        state.quarantined_idx.insert(idx);
        state.dirty.remove(idx);
        self.uncount_pairs(state, idx);
        state.tweetbase.get_mut_by_index(idx).retire_mentions();
    }

    /// Uncount the adjacent pairs of the record in slot `idx` before its
    /// mentions go. The ledger is left empty while promotion is disabled.
    fn uncount_pairs(&self, state: &mut GlobalizerState, idx: usize) {
        if self.config.promotion_support > 0 {
            state
                .adjacency
                .remove_record(state.tweetbase.get_by_index(idx), &state.ctrie);
        }
    }

    /// Compute the local candidate embedding for the mention at `span` of
    /// the record in slot `idx`, in the space [`Globalizer::candidate_dim`]
    /// names — phrase-embedding the token rows straight out of the store's
    /// flat arena for deep systems, the 6-dim syntactic one-hot of the
    /// record's stored token shapes otherwise. `None` for a deep record
    /// without rows, which ingest never admits.
    fn local_embedding(&self, tweetbase: &TweetBase, idx: usize, span: &Span) -> Option<Vec<f32>> {
        match self.deep_phrase() {
            Some(pe) => Some(pe.embed_span_view(tweetbase.embedding_view(idx)?, span)),
            None => {
                let record = tweetbase.get_by_index(idx);
                Some(syntactic_class(&record.sentence, span).one_hot().to_vec())
            }
        }
    }

    /// One sentence's local inference, panic-isolated with the retry
    /// budget. Pure (no pipeline state touched), so a caught panic leaves
    /// nothing behind; used identically by the sequential and parallel
    /// local phases, keeping their failure behaviour bit-identical.
    fn local_attempt(&self, sentence: &Sentence) -> Result<crate::local::LocalEmdOutput, String> {
        let r = isolate::retry_catch(self.attempts(), || {
            failpoint::fire("local_inference");
            self.local.process(sentence)
        });
        self.note_retries(r.failed_attempts);
        r.result
    }

    /// **Local EMD phase** for one batch: run the plug-in per sentence
    /// (sharded across `n_threads`, see [`Globalizer::sharded`]), then
    /// ingest the outputs in stream order, so results are bit-identical
    /// at every thread count.
    fn infer_local(&self, state: &mut GlobalizerState, batch: &[Sentence], n_threads: usize) {
        let probe = self.probe(TracePhase::LocalInfer, None);
        let outputs = self.sharded(
            batch,
            n_threads,
            "local_shard",
            TracePhase::LocalInfer,
            |part| part.iter().map(|s| self.local_attempt(s)).collect(),
        );
        self.finish(probe, &mut state.timings);
        self.ingest_local_outputs(state, batch, outputs);
    }

    /// Map `f` over `items` in up to `n_threads` contiguous shards,
    /// concatenating the shard outputs in order; inline at one thread (no
    /// spawn and no `shard_fp` fail point). The first shard runs on the
    /// caller thread, the rest on scoped workers, so `n` threads means
    /// `n − 1` spawns and no idle waiter. `f` is pure, so the result
    /// equals the inline run's. Every shard, the caller's included, runs
    /// under a panic catch; all workers are joined before any failure is
    /// acted on — a panicked shard must not leak the surviving worker
    /// threads — and a panicked shard's items are re-run on the caller
    /// thread, so one poisoned shard degrades to sequential work instead
    /// of aborting the batch.
    fn sharded<T: Sync, R: Send>(
        &self,
        items: &[T],
        n_threads: usize,
        shard_fp: &str,
        phase: TracePhase,
        f: impl Fn(&[T]) -> Vec<R> + Sync,
    ) -> Vec<R> {
        let n_threads = n_threads.max(1).min(items.len().max(1));
        if n_threads == 1 {
            return f(items);
        }
        let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(n_threads)).collect();
        let f = &f;
        let shard = move |part: &[T]| {
            failpoint::fire(shard_fp);
            f(part)
        };
        let shard_results: Vec<Option<Vec<R>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks[1..]
                .iter()
                .map(|&part| scope.spawn(move || shard(part)))
                .collect();
            let first = isolate::catch(|| shard(chunks[0])).ok();
            std::iter::once(first)
                .chain(handles.into_iter().map(|h| h.join().ok()))
                .collect()
        });
        let mut out = Vec::with_capacity(items.len());
        for (part, slot) in chunks.iter().zip(shard_results) {
            match slot {
                Some(v) => out.extend(v),
                None => {
                    self.note_shard_retry(phase);
                    out.extend(f(part));
                }
            }
        }
        out
    }

    /// Validation + span sanitation for one sentence's local output,
    /// panic-isolated with the retry budget. Pure: the TweetBase / CTrie
    /// are untouched, so failures here quarantine cleanly.
    fn stage_ingest(
        &self,
        sentence: &Sentence,
        out: crate::local::LocalEmdOutput,
    ) -> Result<crate::local::LocalEmdOutput, String> {
        // The fallible, retried closure only *borrows* the output; the
        // output itself is moved exactly once, after validation succeeds.
        // (The previous shape parked it in an `Option` the closure took
        // out of, with `expect`s guarding the impossible half-consumed
        // states — a panic there would have defeated the isolation
        // machinery this path exists to provide.)
        let r = isolate::retry_catch(self.attempts(), || {
            failpoint::fire("ingest");
            validate::validate_sentence(sentence)?;
            // A deep system's mentions are phrase-embedded from its rows,
            // so it must hand over rows of its declared width.
            if let Some(dim) = self.local.embedding_dim() {
                match &out.token_embeddings {
                    None => return Err("deep local output without token embeddings".to_string()),
                    Some(te) if te.cols != dim => {
                        return Err(format!(
                            "token embeddings are {} wide, not the declared {dim}",
                            te.cols
                        ))
                    }
                    Some(_) => {}
                }
            }
            if let Some(te) = &out.token_embeddings {
                if te.rows != sentence.len() {
                    return Err(format!(
                        "token embeddings have {} rows for {} tokens",
                        te.rows,
                        sentence.len()
                    ));
                }
                if !validate::all_finite(&te.data) {
                    return Err("non-finite token embedding values".to_string());
                }
            }
            Ok(validate::sanitize_spans(out.spans.clone(), sentence.len()))
        });
        self.note_retries(r.failed_attempts);
        let spans = r.result.and_then(|inner| inner)?;
        let mut out = out;
        out.spans = spans;
        Ok(out)
    }

    /// Register local outputs: store TweetBase records, seed the CTrie,
    /// mark possibly-affected sentences dirty.
    ///
    /// Local outputs are validated once here — a misbehaving local system
    /// can emit empty, overlapping, or out-of-bounds spans, oversized
    /// tokens, or non-finite embeddings, and letting them in would leak
    /// into `LocalOnly` outputs, inflate `locally_detected` counts, or
    /// poison candidate pools. Sentences whose local inference failed (or
    /// whose output fails validation) are quarantined and never enter the
    /// TweetBase. Records are stored for the *whole batch* before any
    /// candidate registration, so a candidate discovered at sentence `i`
    /// correctly dirties a later sentence of the same batch.
    fn ingest_local_outputs(
        &self,
        state: &mut GlobalizerState,
        batch: &[Sentence],
        outputs: Vec<Result<crate::local::LocalEmdOutput, String>>,
    ) {
        let probe = self.probe(TracePhase::Ingest, None);
        // Stage (fallible, isolated, read-only) per sentence.
        let staged: Vec<Result<crate::local::LocalEmdOutput, (PipelinePhase, String)>> = batch
            .iter()
            .zip(outputs)
            .map(|(sentence, out)| match out {
                Err(reason) => Err((PipelinePhase::LocalInference, reason)),
                Ok(out) => self
                    .stage_ingest(sentence, out)
                    .map_err(|reason| (PipelinePhase::Ingest, reason)),
            })
            .collect();
        // Apply (infallible): store records, register candidates, dirty.
        let tracing = emd_trace::enabled();
        let mut n_local_spans = 0u64;
        // The record each admitted sentence stored: a later duplicate id
        // in the batch replaces it in the store, not here.
        let mut kept: Vec<Arc<TweetRecord>> = Vec::with_capacity(batch.len());
        for (sentence, st) in batch.iter().zip(staged) {
            match st {
                Err((phase, reason)) => {
                    self.quarantine_sentence(state, sentence.id, phase, reason);
                }
                Ok(out) => {
                    // Quarantine is permanent at the ID level: a replayed
                    // copy of a quarantined sentence must not re-enter the
                    // pipeline — not even after eviction freed the
                    // original record's slot.
                    if state.quarantined_ids.contains(&sentence.id) {
                        self.quarantine_sentence(
                            state,
                            sentence.id,
                            PipelinePhase::Ingest,
                            "sentence id was previously quarantined".to_string(),
                        );
                        continue;
                    }
                    n_local_spans += out.spans.len() as u64;
                    // A re-delivered id replaces its live record, whose
                    // adjacent pairs leave the ledger with it.
                    if let Some(old) = state.tweetbase.index_of(sentence.id) {
                        self.uncount_pairs(state, old);
                    }
                    let idx =
                        state
                            .tweetbase
                            .insert(sentence, out.spans, out.token_embeddings.as_ref());
                    state.dirty.insert(idx);
                    let record = state.tweetbase.shared_by_index(idx);
                    if tracing {
                        self.temit(|| TraceEvent {
                            sid: Some(tsid(sentence.id)),
                            count: Some(record.local_spans.len() as u64),
                            ..TraceEvent::of(TraceEventKind::SentenceAdmitted)
                        });
                        for sp in &record.local_spans {
                            self.temit(|| TraceEvent {
                                sid: Some(tsid(sentence.id)),
                                span: Some(tspan(sp)),
                                system: Some(self.local.name().to_string()),
                                ..TraceEvent::of(TraceEventKind::LocalDetect)
                            });
                        }
                    }
                    kept.push(record);
                }
            }
        }
        // Register each kept span's candidate from the symbols its record
        // interned at insert.
        let trie_span = Timer::start(&self.metrics.trie_register_ns);
        let mut n_inserted = 0u64;
        for record in &kept {
            for sp in &record.local_spans {
                if sp.len() <= self.config.max_candidate_len {
                    let syms = record.syms_of(sp);
                    if state.ctrie.insert_syms(syms) {
                        n_inserted += 1;
                        self.temit(|| TraceEvent {
                            sid: Some(tsid(record.sentence.id)),
                            span: Some(tspan(sp)),
                            candidate: Some(state.tweetbase.interner().join(syms)),
                            phase: Some(TracePhase::TrieRegister),
                            ..TraceEvent::of(TraceEventKind::TrieInsert)
                        });
                        Self::mark_dirty(state, syms);
                    }
                }
            }
        }
        // Unshare the batch's records before the scan writes them.
        drop(kept);
        drop(trie_span);
        self.count(BatchObservation {
            sentences: batch.len() as u64,
            local_spans: n_local_spans,
            trie_inserts: n_inserted,
            ..BatchObservation::default()
        });
        self.finish(probe, &mut state.timings);
    }

    /// Mark every stored sentence containing the newly registered
    /// candidate's whole token sequence, contiguously, as needing a
    /// rescan. Extraction is greedy longest-match ending on a terminal
    /// CTrie node, and the node that ends the candidate's sequence is the
    /// only new terminal, so no other sentence's extraction can change.
    /// Quarantined records are permanently excluded.
    ///
    /// The walk follows the rarest symbol's posting list. A multi-token
    /// candidate's hits must also appear in every other symbol's list,
    /// rarest first, before the contiguous match is confirmed on the
    /// record's symbols: the rarest symbol of a noun phrase is often a
    /// common word, and the list probes are far cheaper than
    /// dereferencing a record only to fail the match.
    fn mark_dirty(state: &mut GlobalizerState, syms: &[Sym]) {
        let tweetbase = &state.tweetbase;
        let mut distinct = syms.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut lists: Vec<&[u32]> = distinct
            .iter()
            .map(|&s| tweetbase.indices_with_sym(s))
            .collect();
        lists.sort_unstable_by_key(|l| l.len());
        let Some((rarest, others)) = lists.split_first_mut() else {
            return;
        };
        for &slot in *rarest {
            let i = slot as usize;
            if state.dirty.contains(i) || state.quarantined_idx.contains(&i) {
                continue;
            }
            if syms.len() > 1 {
                // Every list ascends, so each search window only shrinks.
                let in_all = others.iter_mut().all(|l| {
                    *l = &l[gallop(l, slot)..];
                    l.first() == Some(&slot)
                });
                if !in_all {
                    continue;
                }
                let rec = tweetbase.get_by_index(i);
                if !rec.tok_syms.windows(syms.len()).any(|w| w == syms) {
                    continue;
                }
            }
            state.dirty.insert(i);
        }
    }

    /// Mention extraction + embedding staging for one record (read-only; a
    /// rescan worker runs this off-thread). `phase_fp` is the fail-point
    /// name for the calling phase (batch scan vs finalize rescan).
    ///
    /// The phrase-embedder call is individually isolated: if it panics or
    /// produces non-finite values for a mention, a zero vector is pooled
    /// in its place and the candidate is flagged degraded instead of the
    /// whole record being quarantined.
    fn stage_scan(
        &self,
        tweetbase: &TweetBase,
        ctrie: &CTrie,
        idx: usize,
        phase_fp: &str,
        embed_allowed: bool,
    ) -> StagedScan {
        failpoint::fire(phase_fp);
        let record = tweetbase.get_by_index(idx);
        // Symbol-level trie walk over the record's pre-interned folded
        // tokens: no case folding, no string hashing, no per-token
        // allocation. Each match ends on the terminal that names its
        // candidate; `mentions` becomes the record's stored mention list.
        let mut mentions = Vec::new();
        let mut staged = Vec::new();
        walk_mentions(
            ctrie,
            &record.tok_syms,
            self.config.max_candidate_len,
            |span, terminal| {
                // Pool breaker Open: skip the embedder outright; zero
                // vector + degraded is exactly the persistent-failure end
                // state, minus the retry burn.
                let emb = embed_allowed
                    .then(|| {
                        isolate::catch(|| {
                            failpoint::fire("phrase_embed");
                            self.local_embedding(tweetbase, idx, &span)
                        })
                        .ok()
                        .flatten()
                        .filter(|emb| validate::all_finite(emb))
                    })
                    .flatten();
                mentions.push(span);
                staged.push(StagedMention {
                    terminal,
                    span,
                    locally_detected: record.local_spans.contains(&span),
                    degraded: emb.is_none(),
                    emb: emb.unwrap_or_else(|| vec![0.0; self.candidate_dim()]),
                });
            },
        );
        StagedScan { mentions, staged }
    }

    /// One record's staging, panic-isolated with the retry budget.
    fn scan_attempt(
        &self,
        tweetbase: &TweetBase,
        ctrie: &CTrie,
        idx: usize,
        phase_fp: &str,
        embed_allowed: bool,
    ) -> Result<StagedScan, String> {
        let r = isolate::retry_catch(self.attempts(), || {
            self.stage_scan(tweetbase, ctrie, idx, phase_fp, embed_allowed)
        });
        self.note_retries(r.failed_attempts);
        r.result
    }

    /// **Mention extraction + embedding pooling** over the given record
    /// indices. New mentions (not yet in the CandidateBase) contribute
    /// their local embeddings to the candidate pool; scanned records are
    /// cleared from the dirty set. The scan and pool probes nest under
    /// `parent`: `None` for the batch scan, `Evict` for a settle rescan,
    /// `Finalize` for the closing rescan.
    ///
    /// Extraction and embedding are read-only, so with `n_threads > 1` the
    /// indices are sharded across scoped threads; the *apply* step replays
    /// the staged results sequentially in the order given (callers pass
    /// ascending stream order), which keeps pool-append order — and with it
    /// every f32 sum and the candidate discovery order — bit-identical to
    /// the sequential path.
    ///
    /// Failure handling: shards are joined unconditionally (no leaked
    /// threads); a panicked shard's records are re-staged on the caller
    /// thread; a record whose staging exhausts the retry budget is
    /// quarantined — its stale `global_mentions` are dropped so it can no
    /// longer feed promotions or emission.
    fn scan_records(
        &self,
        state: &mut GlobalizerState,
        indices: &[usize],
        n_threads: usize,
        phase: PipelinePhase,
        parent: Option<TracePhase>,
    ) {
        if indices.is_empty() {
            return;
        }
        // Rescan breaker Open: the records take the persistent-failure
        // path — quarantined with their stale mentions dropped — without
        // staging anything.
        if phase == PipelinePhase::FinalizeRescan && !self.guard_allows(TracePhase::FinalizeRescan)
        {
            for &idx in indices {
                self.quarantine_record(state, idx, phase, "rescan breaker open".to_string());
            }
            return;
        }
        let embed_allowed = self.guard_allows(TracePhase::Pool);
        let phase_fp = match phase {
            PipelinePhase::FinalizeRescan => "finalize_rescan",
            _ => "scan",
        };
        let tphase = trace_phase(phase);
        self.metrics.scan_records_total.add(indices.len() as u64);
        let scan_probe = self.probe(tphase, parent);
        let (tweetbase, ctrie) = (&state.tweetbase, &state.ctrie);
        let results: Vec<(usize, Result<StagedScan, String>)> =
            self.sharded(indices, n_threads, "scan_shard", tphase, |part| {
                let _shard = Timer::start(&self.metrics.scan_shard_ns);
                part.iter()
                    .map(|&i| {
                        let staged =
                            self.scan_attempt(tweetbase, ctrie, i, phase_fp, embed_allowed);
                        (i, staged)
                    })
                    .collect()
            });
        self.finish(scan_probe, &mut state.timings);
        let pool_probe = self.probe(TracePhase::Pool, parent);
        let mut n_mentions = 0u64;
        let mut n_pooled = 0u64;
        let mut n_scan_degraded = 0u64;
        let mut n_scan_quarantined = 0u64;
        for (idx, outcome) in results {
            match outcome {
                Ok(st) => {
                    n_mentions += st.mentions.len() as u64;
                    self.temit(|| TraceEvent {
                        sid: Some(tsid(state.tweetbase.get_by_index(idx).sentence.id)),
                        count: Some(st.mentions.len() as u64),
                        phase: Some(tphase),
                        ..TraceEvent::of(TraceEventKind::ScanRecord)
                    });
                    // Dedup against what the record pooled before this
                    // scan. A rescan that finds what the record already
                    // holds pools nothing and leaves the record untouched
                    // (and shared with any snapshot).
                    let rec = state.tweetbase.get_by_index(idx);
                    let changed = rec.global_mentions != st.mentions;
                    let mut degraded = Vec::new();
                    for m in &st.staged {
                        let pooled = changed && !rec.has_pooled(&m.span);
                        // The first extraction discovers the candidate: a
                        // record for it, and its id on the terminal. A
                        // deduplicated mention discovers it too (without
                        // pooling), which keeps discovery order independent
                        // of the dedup.
                        let id = state.ctrie.cand(m.terminal).unwrap_or_else(|| {
                            let id = state.candidates.discover(rec.syms_of(&m.span));
                            state.ctrie.set_cand(m.terminal, id);
                            id
                        });
                        if pooled {
                            state
                                .candidates
                                .get_mut(id)
                                .add_mention(&m.emb, m.locally_detected);
                            n_pooled += 1;
                        }
                        if m.degraded {
                            degraded.push(id);
                        }
                        self.temit(|| TraceEvent {
                            sid: Some(tsid(rec.sentence.id)),
                            span: Some(tspan(&m.span)),
                            candidate: Some(state.candidate_key(id)),
                            pooled: Some(pooled),
                            local_hit: Some(m.locally_detected),
                            phase: Some(tphase),
                            ..TraceEvent::of(TraceEventKind::ScanMention)
                        });
                    }
                    // The new extraction's pairs replace the old ones in
                    // the ledger (counted first, so a pair both hold is
                    // never dropped and re-inserted).
                    if changed && self.config.promotion_support > 0 {
                        let ctrie = &state.ctrie;
                        state
                            .adjacency
                            .add(&st.mentions, |i| ctrie.cand(st.staged[i].terminal));
                        state.adjacency.remove_record(rec, ctrie);
                    }
                    if changed {
                        state
                            .tweetbase
                            .get_mut_by_index(idx)
                            .set_global_mentions(st.mentions);
                    }
                    state.dirty.remove(idx);
                    n_scan_degraded += degraded.len() as u64;
                    for id in degraded {
                        state.candidates.mark_degraded(id);
                        self.temit(|| TraceEvent {
                            candidate: Some(state.candidate_key(id)),
                            phase: Some(tphase),
                            reason: Some("phrase embedding failed; zero vector pooled".to_string()),
                            ..TraceEvent::of(TraceEventKind::CandidateDegraded)
                        });
                    }
                }
                Err(reason) => {
                    self.quarantine_record(state, idx, phase, reason);
                    n_scan_quarantined += 1;
                }
            }
        }
        self.count(BatchObservation {
            scan_mentions: n_mentions,
            pooled: n_pooled,
            degraded: n_scan_degraded,
            ..BatchObservation::default()
        });
        self.guard_record(
            TracePhase::Pool,
            n_scan_degraded == 0,
            "phrase embedding failed persistently",
        );
        if phase == PipelinePhase::FinalizeRescan {
            self.guard_record(
                TracePhase::FinalizeRescan,
                n_scan_quarantined == 0,
                "record rescan failed persistently",
            );
        }
        self.finish(pool_probe, &mut state.timings);
    }

    /// Score candidates. Confident verdicts (α/β) freeze; ambiguous ones
    /// are re-scored on later calls with their (sharper) updated pools.
    ///
    /// At end of stream (`resolve_ambiguous`), candidates still in the γ
    /// band get their final verdict: accept when the score clears
    /// `final_threshold`, otherwise fall back to the Local EMD system's own
    /// judgment — if the local system itself detected at least half of the
    /// candidate's mentions, the global evidence is too weak to overrule it
    /// (the paper: "it is rare that an entity found by Local EMD is missed
    /// at the global step").
    /// Scoring is per-candidate and read-only, so with `n_threads > 1` the
    /// unfrozen candidates are sharded across scoped threads; labels and
    /// scores are then applied sequentially in discovery order (label
    /// decisions never depend on other candidates, but the sequential apply
    /// keeps the state evolution identical to the single-threaded path).
    fn classify_candidates(
        &self,
        state: &mut GlobalizerState,
        resolve_ambiguous: bool,
        n_threads: usize,
    ) {
        let probe = self.probe(
            TracePhase::Classify,
            resolve_ambiguous.then_some(TracePhase::Finalize),
        );
        // Breaker Open: skip scoring outright and give every unfrozen
        // candidate the end state a persistent classifier failure would
        // have produced — degraded, emission falling back to the local
        // system's detections — with zero retry burn.
        let frozen = |rec: &CandidateRecord| {
            matches!(
                rec.label,
                CandidateLabel::Entity | CandidateLabel::NonEntity
            )
        };
        if !self.guard_allows(TracePhase::Classify) {
            let unfrozen: Vec<CandId> = state
                .candidates
                .entries()
                .filter(|(_, rec)| !frozen(rec))
                .map(|(id, _)| id)
                .collect();
            let n_skipped = unfrozen.len() as u64;
            for id in unfrozen {
                state.candidates.mark_degraded(id);
                self.temit(|| TraceEvent {
                    candidate: Some(state.candidate_key(id)),
                    phase: Some(TracePhase::Classify),
                    reason: Some("classify breaker open".to_string()),
                    ..TraceEvent::of(TraceEventKind::CandidateDegraded)
                });
            }
            self.count(BatchObservation {
                degraded: n_skipped,
                ..BatchObservation::default()
            });
            self.finish(probe, &mut state.timings);
            return;
        }
        // Scoring is pure, so it runs panic-isolated with the retry
        // budget; a candidate whose scoring fails persistently keeps its
        // previous label and is marked degraded (emission then falls back
        // to the local system's own detections for it).
        let score_one = |rec: &CandidateRecord| -> Result<f32, String> {
            let r = isolate::retry_catch(self.attempts(), || {
                failpoint::fire("classify");
                let feats = EntityClassifier::features(
                    &rec.pooled_embedding(self.config.pooling),
                    rec.token_len(),
                );
                self.classifier.predict(&feats)
            });
            self.note_retries(r.failed_attempts);
            r.result
        };
        // Phase 1 (parallelizable): score every unfrozen candidate. One
        // entry per slot, so a position is an id: a list of `(id, record)`
        // pairs for the live records made this phase ~50% slower on the
        // churn stream.
        let scores: Vec<Option<Result<f32, String>>> = {
            let pending: Vec<Option<&CandidateRecord>> = state
                .candidates
                .slots()
                .map(|rec| rec.filter(|rec| !frozen(rec)))
                .collect();
            self.sharded(
                &pending,
                n_threads,
                "classify_shard",
                TracePhase::Classify,
                |part| part.iter().map(|o| o.map(&score_one)).collect(),
            )
        };
        // Phase 2 (sequential): apply labels in discovery order.
        let mut n_scored = 0u64;
        let mut n_accepted = 0u64;
        let mut n_rejected = 0u64;
        let mut n_ambiguous = 0u64;
        let mut n_cls_degraded = 0u64;
        let mut score_sum = 0.0f64;
        // Records are indexed, not iterated mutably: only the ones whose
        // verdict changes are written, so a snapshot keeps sharing the
        // rest.
        for (id, p) in scores.into_iter().enumerate() {
            let id = id as CandId;
            let Some(p) = p else { continue };
            let p = match p {
                Ok(p) => p,
                Err(reason) => {
                    state.candidates.mark_degraded(id);
                    n_cls_degraded += 1;
                    self.temit(|| TraceEvent {
                        candidate: Some(state.candidate_key(id)),
                        phase: Some(TracePhase::Classify),
                        reason: Some(reason),
                        ..TraceEvent::of(TraceEventKind::CandidateDegraded)
                    });
                    continue;
                }
            };
            n_scored += 1;
            let rec = state
                .candidates
                .get(id)
                .expect("scored candidates stay live");
            let mut label = EntityClassifier::classify(p, &self.config);
            if resolve_ambiguous && label == CandidateLabel::Ambiguous {
                // Cumulative ratios (evicted mentions included), so the
                // verdict matches the unbounded run's.
                let locally = rec.locally_detected_frequency();
                let trust_local =
                    self.config.trust_local_fallback && 2 * locally >= rec.frequency().max(1);
                label = if p >= self.config.final_threshold || trust_local {
                    CandidateLabel::Entity
                } else {
                    CandidateLabel::NonEntity
                };
            }
            if rec.score.map(f32::to_bits) != Some(p.to_bits()) || rec.label != label {
                let rec = state.candidates.get_mut(id);
                rec.score = Some(p);
                rec.label = label;
            }
            score_sum += p as f64;
            match label {
                CandidateLabel::Entity => n_accepted += 1,
                CandidateLabel::NonEntity => n_rejected += 1,
                _ => n_ambiguous += 1,
            }
            self.temit(|| TraceEvent {
                candidate: Some(state.candidate_key(id)),
                score: Some(p),
                label: Some(trace_label(label)),
                final_verdict: Some(resolve_ambiguous),
                phase: Some(TracePhase::Classify),
                ..TraceEvent::of(TraceEventKind::Verdict)
            });
        }
        self.count(BatchObservation {
            scored: n_scored,
            accepted: n_accepted,
            rejected: n_rejected,
            ambiguous: n_ambiguous,
            score_sum,
            degraded: n_cls_degraded,
            ..BatchObservation::default()
        });
        self.guard_record(
            TracePhase::Classify,
            n_cls_degraded == 0,
            "candidate scoring failed persistently",
        );
        self.finish(probe, &mut state.timings);
    }

    /// Consume one batch of the stream: Local EMD, candidate registration,
    /// mention extraction over the batch, pooling, and an interim
    /// classification pass (γ candidates stay pending).
    ///
    /// Local EMD shards across all available cores (the caller thread
    /// runs the first shard); everything after it runs on the caller in
    /// stream order, so outputs are bit-identical to
    /// [`Globalizer::process_batch_parallel`] at one thread.
    pub fn process_batch(&self, state: &mut GlobalizerState, batch: &[Sentence]) {
        self.process_batch_parallel(state, batch, machine_threads());
    }

    /// Advance the batch counter (always — traced and untraced runs must
    /// agree on batch IDs) and delimit the batch in the trace.
    fn start_batch(&self, state: &mut GlobalizerState, batch: &[Sentence]) {
        state.batch_seq += 1;
        // A fresh count frame per batch; this also discards partial
        // counts left behind by a panicked (supervisor-retried) attempt.
        // Sheds recorded since the last batch ride along (shed batches
        // never start a frame of their own).
        if let Some(m) = &self.monitor {
            self.batch_latency_ns.store(0, Ordering::Relaxed);
            let mut cell = Self::mon_lock(m);
            let shed = std::mem::take(&mut cell.pending_shed);
            cell.counts = BatchObservation {
                batch: state.batch_seq,
                shed,
                ..BatchObservation::default()
            };
        }
        self.guard_tick();
        self.temit(|| TraceEvent {
            batch: Some(state.batch_seq),
            count: Some(batch.len() as u64),
            ..TraceEvent::of(TraceEventKind::BatchStart)
        });
    }

    /// [`Globalizer::process_batch`] with an explicit thread count for
    /// Local EMD inference (inline at one). Outputs are identical at
    /// every count (ingestion stays in stream order).
    pub fn process_batch_parallel(
        &self,
        state: &mut GlobalizerState,
        batch: &[Sentence],
        n_threads: usize,
    ) {
        self.start_batch(state, batch);
        self.infer_local(state, batch, n_threads);
        self.global_stage(state, batch);
        self.enforce_window(state);
        self.observe_batch(state, false);
    }

    fn global_stage(&self, state: &mut GlobalizerState, batch: &[Sentence]) {
        if self.config.ablation == Ablation::LocalOnly {
            return;
        }
        // Sentences quarantined at local/ingest never entered the
        // TweetBase, so `index_of` filters them out here; records
        // quarantined by an earlier scan are excluded explicitly.
        let indices: Vec<usize> = batch
            .iter()
            .filter_map(|s| state.tweetbase.index_of(s.id))
            .filter(|i| !state.quarantined_idx.contains(i))
            .collect();
        self.scan_records(state, &indices, 1, PipelinePhase::Scan, None);
        if self.config.ablation == Ablation::Full {
            self.classify_candidates(state, false, 1);
        }
    }

    /// **Window enforcement** (end of every batch, no-op unless
    /// [`crate::config::WindowConfig::enabled`]): evict the oldest live
    /// records beyond the window — settling still-dirty ones with one last
    /// rescan first; their adjacent pairs stay counted for the promotion
    /// search — then prune cold candidates whose every mention
    /// has been evicted (removing their CTrie paths), and compact the slot
    /// indices once evicted slots outnumber live records. Candidate pools are
    /// never rolled back: an evicted mention's contribution to pooled
    /// global embeddings, frequencies, and frozen verdicts is exactly the
    /// "global context" the paper accumulates — only the *text* is freed.
    fn enforce_window(&self, state: &mut GlobalizerState) {
        let w = self.config.window;
        if !w.enabled() {
            return;
        }
        let probe = self.probe(TracePhase::Evict, None);
        if state.tweetbase.len() > w.max_sentences {
            let excess = state.tweetbase.len() - w.max_sentences;
            // Victims: the oldest live slots, ascending (= stream order).
            let first = state.tweetbase.first_slot();
            let victims = first..first + excess;
            // Settle: a victim still in the dirty set may be missing
            // mentions of candidates registered after its last scan; give
            // it the rescan finalize would have, while its text is still
            // here. (Pointless for LocalOnly — no global structures.)
            if self.config.ablation != Ablation::LocalOnly {
                let settle: Vec<usize> = victims
                    .clone()
                    .filter(|&i| state.dirty.contains(i))
                    .collect();
                self.scan_records(
                    state,
                    &settle,
                    1,
                    PipelinePhase::Scan,
                    Some(TracePhase::Evict),
                );
            }
            for i in victims {
                state.dirty.remove(i);
                state.quarantined_idx.remove(&i);
                // The record's adjacent pairs stay in the ledger.
                let rec = state.tweetbase.evict_oldest().expect("victims are live");
                self.temit(|| TraceEvent {
                    sid: Some(tsid(rec.sentence.id)),
                    count: Some(rec.global_mentions.len() as u64),
                    phase: Some(TracePhase::Evict),
                    ..TraceEvent::of(TraceEventKind::SentenceEvicted)
                });
            }
            self.count(BatchObservation {
                evicted: excess as u64,
                ..BatchObservation::default()
            });
            self.prune_candidates(state);
            // Amortized O(1): compacting costs O(live) and only runs once
            // evicted slots outnumber live records.
            if state.tweetbase.first_slot() > state.tweetbase.len() {
                let dropped = state.compact();
                if dropped > 0 {
                    self.metrics.compactions_total.inc();
                    self.temit(|| TraceEvent {
                        count: Some(dropped as u64),
                        phase: Some(TracePhase::Evict),
                        ..TraceEvent::of(TraceEventKind::StateCompacted)
                    });
                }
            }
        }
        self.metrics.window_depth.set(state.tweetbase.len() as f64);
        if emd_obs::enabled() {
            // The byte estimate walks both stores; skip it entirely for
            // uninstrumented runs.
            self.metrics
                .resident_bytes
                .set(state.resident_bytes() as f64);
        }
        self.finish(probe, &mut state.timings);
    }

    /// Highest mention frequency at which a cold candidate is pruned.
    /// Below the default `promotion_support` of 3, so a fragment with
    /// enough adjacency evidence to promote is never pruned.
    const PRUNE_MAX_FREQUENCY: usize = 2;

    /// Frequency-decay candidate pruning: drop candidates — and their
    /// CTrie paths — that can no longer matter. A candidate is prunable
    /// only when no live record contains its first token (so neither a
    /// pending rescan nor emission can involve it), it holds no Entity
    /// verdict, and its mention frequency is at most
    /// [`Self::PRUNE_MAX_FREQUENCY`]. A pruned candidate's id is freed and
    /// its adjacent pairs leave the ledger.
    fn prune_candidates(&self, state: &mut GlobalizerState) {
        let tweetbase = &state.tweetbase;
        let pruned = state.candidates.prune_retain(|rec| {
            rec.label == CandidateLabel::Entity
                || rec.frequency() > Self::PRUNE_MAX_FREQUENCY
                || rec
                    .syms
                    .first()
                    .is_some_and(|&t| !tweetbase.indices_with_sym(t).is_empty())
        });
        if pruned.is_empty() {
            return;
        }
        self.count(BatchObservation {
            pruned: pruned.len() as u64,
            ..BatchObservation::default()
        });
        let ids: Vec<CandId> = pruned.iter().map(|&(id, _)| id).collect();
        state.adjacency.forget(&ids);
        for (_, rec) in &pruned {
            state.ctrie.remove_syms(&rec.syms);
            self.temit(|| TraceEvent {
                candidate: Some(state.tweetbase.interner().join(&rec.syms)),
                count: Some(rec.frequency() as u64),
                phase: Some(TracePhase::Evict),
                ..TraceEvent::of(TraceEventKind::CandidatePruned)
            });
        }
    }

    /// Adjacent-pair candidate promotion (stream close): two candidates
    /// extracted adjacent to each other often enough are evidence of one
    /// fragmented multi-token entity the local system never detects in
    /// full, so their concatenation becomes a candidate of its own.
    ///
    /// Reads only the adjacency ledger, which the closing rescan has
    /// brought up to date, so the promotion set is independent of batch
    /// schedule and rescan strategy. Returns the concatenations' symbols
    /// in ledger id order, registered ones included (their insert is a
    /// no-op); every filter reads the state from before the round, so the
    /// order cannot change which candidates are promoted (DESIGN.md
    /// "Adjacency ledger").
    fn find_promotions(&self, state: &GlobalizerState) -> Vec<Vec<Sym>> {
        let support = self.config.promotion_support as u64;
        if support == 0 {
            return Vec::new();
        }
        let mut promotions = Vec::new();
        for (first, second, adj) in state.adjacency.at_least(support) {
            let (Some(a), Some(b)) = (state.candidates.get(first), state.candidates.get(second))
            else {
                continue;
            };
            // The adjacency must dominate the rarer fragment: incidental
            // co-occurrence of two frequent independent entities stays out.
            if 2 * adj < a.frequency().min(b.frequency()) as u64
                || a.token_len() + b.token_len() > self.config.max_candidate_len
            {
                continue;
            }
            promotions.push([&a.syms[..], &b.syms[..]].concat());
        }
        promotions
    }

    /// One promotion round of the closing fixpoint: register every
    /// promotion in the CTrie, tracing it and dirtying the stored
    /// sentences it can change. Returns how many were new; zero ends the
    /// fixpoint.
    fn promotion_round(&self, state: &mut GlobalizerState) -> usize {
        let probe = self.probe(TracePhase::Promotion, Some(TracePhase::Finalize));
        let promotions = self.find_promotions(state);
        self.finish(probe, &mut state.timings);
        let mut n_new = 0;
        for syms in promotions {
            // A concatenation registered earlier, or spelled by two pairs,
            // finds its terminal in place and the insert is a no-op.
            if state.ctrie.insert_syms(&syms) {
                n_new += 1;
                self.temit(|| TraceEvent {
                    candidate: Some(state.tweetbase.interner().join(&syms)),
                    phase: Some(TracePhase::Promotion),
                    ..TraceEvent::of(TraceEventKind::Promotion)
                });
                Self::mark_dirty(state, &syms);
            }
        }
        n_new
    }

    /// Closing rescan + promotion fixpoint. Returns `(n_rescanned,
    /// n_promoted)`.
    fn close_stream(&self, state: &mut GlobalizerState, n_threads: usize) -> (usize, usize) {
        if self.config.ablation == Ablation::LocalOnly {
            return (0, 0);
        }
        let mut n_rescanned = 0;
        let mut n_promoted = 0;
        // Distinct records rescanned across all rounds (a promotion round
        // may rescan a record again), for the coverage gauge.
        let mut covered = DirtySet::new();
        self.metrics.dirty_depth.set(state.dirty.len() as f64);
        loop {
            self.metrics.finalize_promotion_rounds_total.inc();
            let dirty: Vec<usize> = state.dirty.take_sorted();
            n_rescanned += dirty.len();
            for &i in &dirty {
                covered.insert(i);
            }
            self.scan_records(
                state,
                &dirty,
                n_threads,
                PipelinePhase::FinalizeRescan,
                Some(TracePhase::Finalize),
            );
            match self.promotion_round(state) {
                0 => break,
                n => n_promoted += n,
            }
        }
        self.metrics
            .rescan_coverage
            .set(covered.len() as f64 / state.tweetbase.len().max(1) as f64);
        (n_rescanned, n_promoted)
    }

    fn emit(
        &self,
        state: &GlobalizerState,
        n_rescanned: usize,
        n_promoted: usize,
    ) -> GlobalizerOutput {
        self.temit(|| TraceEvent {
            ablation: Some(trace_ablation(self.config.ablation)),
            count: Some(state.tweetbase.len() as u64),
            ..TraceEvent::of(TraceEventKind::EmitStart)
        });
        let mut per_sentence = Vec::with_capacity(state.tweetbase.len());
        for (idx, rec) in state.tweetbase.iter_indexed() {
            if state.quarantined_idx.contains(&idx) {
                continue;
            }
            let spans = match self.config.ablation {
                Ablation::LocalOnly => rec.local_spans.clone(),
                Ablation::MentionExtraction => rec.global_mentions.clone(),
                Ablation::Full => rec
                    .global_mentions
                    .iter()
                    .filter(|sp| {
                        state
                            .ctrie
                            .cand_of(rec.syms_of(sp))
                            .and_then(|id| state.candidates.get(id))
                            .map(|c| {
                                if c.degraded {
                                    // Degraded fallback: the classifier
                                    // verdict is unreliable, so only spans
                                    // the local system itself proposed
                                    // survive (LocalOnly behaviour for
                                    // this candidate).
                                    rec.local_spans.contains(*sp)
                                } else {
                                    c.label == CandidateLabel::Entity
                                }
                            })
                            .unwrap_or(false)
                    })
                    .copied()
                    .collect(),
            };
            per_sentence.push((rec.sentence.id, spans));
        }
        let n_entities = state
            .candidates
            .iter()
            .filter(|c| c.label == CandidateLabel::Entity)
            .count();
        let n_degraded = state.candidates.iter().filter(|c| c.degraded).count();
        self.metrics.degraded_candidates.set(n_degraded as f64);
        GlobalizerOutput {
            per_sentence,
            n_candidates: state.candidates.len(),
            n_entities,
            n_promoted,
            n_rescanned,
            phase_timings: state.timings.clone(),
            quarantined: state.quarantined.clone(),
            n_degraded,
        }
    }

    /// Close the stream: rescan the stored sentences whose extraction could
    /// have changed since their last scan (recovering mentions of
    /// late-discovered candidates in early sentences), run adjacent-pair
    /// promotion to a fixpoint, resolve the γ band, and emit final outputs.
    ///
    /// Rescan and classification shard across all available cores; outputs
    /// are bit-identical to [`Globalizer::finalize_full_rescan`] regardless
    /// of thread count or batch schedule.
    pub fn finalize(&self, state: &mut GlobalizerState) -> GlobalizerOutput {
        self.finalize_with_threads(state, machine_threads())
    }

    /// [`Globalizer::finalize`] with an explicit worker-thread count.
    pub fn finalize_with_threads(
        &self,
        state: &mut GlobalizerState,
        n_threads: usize,
    ) -> GlobalizerOutput {
        let probe = self.probe(TracePhase::Finalize, None);
        // The closing pass counts as one breaker tick: a served cooldown
        // lets finalize probe a phase that was Open at the last batch.
        self.guard_tick();
        let (n_rescanned, n_promoted) = self.close_stream(state, n_threads);
        self.close_epilogue(state, probe, n_threads, n_rescanned, n_promoted)
    }

    /// Brute-force reference for [`Globalizer::finalize`]: rescans *every*
    /// stored sentence (once per promotion round) instead of only the
    /// possibly-affected ones. Kept as the oracle the incremental path is
    /// tested bit-identical against, and as the baseline for the `rescan`
    /// benchmark.
    pub fn finalize_full_rescan(&self, state: &mut GlobalizerState) -> GlobalizerOutput {
        if self.config.ablation == Ablation::LocalOnly {
            return self.emit(state, 0, 0);
        }
        let probe = self.probe(TracePhase::Finalize, None);
        self.guard_tick();
        let mut n_rescanned = 0;
        let mut n_promoted = 0;
        loop {
            self.metrics.finalize_promotion_rounds_total.inc();
            state.dirty.clear();
            let all: Vec<usize> = state
                .tweetbase
                .iter_indexed()
                .map(|(i, _)| i)
                .filter(|i| !state.quarantined_idx.contains(i))
                .collect();
            n_rescanned += all.len();
            self.scan_records(
                state,
                &all,
                1,
                PipelinePhase::FinalizeRescan,
                Some(TracePhase::Finalize),
            );
            // The round's dirtying is moot here: the next round clears
            // the dirty set and rescans everything.
            match self.promotion_round(state) {
                0 => break,
                n => n_promoted += n,
            }
        }
        self.metrics.rescan_coverage.set(1.0);
        self.close_epilogue(state, probe, 1, n_rescanned, n_promoted)
    }

    /// The close both finalize paths share: counting the closing pass,
    /// γ resolution, emission, the finalize probe's reading, and the
    /// closing sentinel observation.
    fn close_epilogue(
        &self,
        state: &mut GlobalizerState,
        probe: PhaseProbe<'_>,
        n_threads: usize,
        n_rescanned: usize,
        n_promoted: usize,
    ) -> GlobalizerOutput {
        self.metrics
            .finalize_rescan_sentences_total
            .add(n_rescanned as u64);
        self.count(BatchObservation {
            promoted: n_promoted as u64,
            ..BatchObservation::default()
        });
        if self.config.ablation == Ablation::Full {
            self.classify_candidates(state, true, n_threads);
        }
        let emit = self.probe(TracePhase::Emit, Some(TracePhase::Finalize));
        let mut out = self.emit(state, n_rescanned, n_promoted);
        self.finish(emit, &mut state.timings);
        self.finish(probe, &mut state.timings);
        out.phase_timings = state.timings.clone();
        self.observe_batch(state, true);
        out
    }

    /// Convenience: run the whole pipeline over a fixed set of sentences in
    /// `batch_size`-message batches and return the final outputs along with
    /// the closing state (for error analysis).
    pub fn run(
        &self,
        sentences: &[Sentence],
        batch_size: usize,
    ) -> (GlobalizerOutput, GlobalizerState) {
        let mut state = self.new_state();
        for chunk in sentences.chunks(batch_size.max(1)) {
            self.process_batch(&mut state, chunk);
        }
        let out = self.finalize(&mut state);
        (out, state)
    }
}

/// Worker-thread count of the default entry points: the machine's
/// available parallelism, or one when it cannot be read.
fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build pipeline state *without* classification — used to harvest
/// classifier training data (the classifier does not exist yet at that
/// point). Runs the local phase and the global rescan/pooling only.
pub fn index_stream(
    local: &dyn LocalEmd,
    phrase: Option<&PhraseEmbedder>,
    config: &GlobalizerConfig,
    sentences: &[Sentence],
) -> GlobalizerState {
    // A throwaway classifier satisfies the constructor; it is never called
    // because we stop before the classification stage.
    let dim = match phrase {
        Some(pe) if local.is_deep() => pe.out_dim(),
        _ => SyntacticClass::COUNT,
    };
    let dummy = EntityClassifier::new(dim + 1, 0);
    let g = Globalizer::new(
        local,
        phrase,
        &dummy,
        GlobalizerConfig {
            ablation: Ablation::MentionExtraction,
            ..config.clone()
        },
    );
    let mut state = g.new_state();
    // The harvest trains on up to three singleton rows per candidate.
    state.candidates.set_store_local(true);
    let threads = machine_threads();
    g.process_batch_parallel(&mut state, sentences, threads);
    // Closing rescan (candidates discovered late may have mentions in
    // earlier sentences) + promotion, shared with `finalize`, minus the
    // classification stage.
    g.close_stream(&mut state, threads);
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LexiconEmd;
    use emd_nn::matrix::Matrix;
    use emd_text::token::SentenceId;

    fn sents(msgs: &[&[&str]]) -> Vec<Sentence> {
        msgs.iter()
            .enumerate()
            .map(|(i, words)| {
                Sentence::from_tokens(SentenceId::new(i as u64, 0), words.iter().copied())
            })
            .collect()
    }

    /// The record of the live candidate spelled by `text`.
    fn cand<'a>(state: &'a GlobalizerState, text: &str) -> Option<&'a CandidateRecord> {
        state.candidates.get(state.candidate_id(text)?)
    }

    /// Does the CTrie register the candidate spelled by `text`?
    fn registered(state: &GlobalizerState, text: &str) -> bool {
        let interner = state.tweetbase.interner();
        let syms: Option<Vec<Sym>> = text.split(' ').map(|t| interner.lookup_folded(t)).collect();
        syms.and_then(|s| state.ctrie.find(&s))
            .is_some_and(|n| state.ctrie.is_terminal(n))
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

    /// A classifier trained to accept everything (bias trick), so tests can
    /// isolate the mention-extraction behaviour.
    fn accept_all(dim: usize) -> EntityClassifier {
        let mut c = EntityClassifier::new(dim, 0);
        use emd_nn::param::Net;
        let params = c.params_mut();
        let last = params.into_iter().last().unwrap();
        last.value.data[0] = 100.0;
        c
    }

    #[test]
    fn gallop_agrees_with_partition_point() {
        let list: Vec<u32> = (0..300).map(|i| 3 * i + 1).collect();
        for len in [0, 1, 2, 3, 7, 64, 300] {
            let l = &list[..len];
            for target in 0..=3 * len as u32 + 2 {
                assert_eq!(
                    gallop(l, target),
                    l.partition_point(|&x| x < target),
                    "len {len}, target {target}"
                );
            }
        }
    }

    fn reject_all(dim: usize) -> EntityClassifier {
        let mut c = EntityClassifier::new(dim, 0);
        use emd_nn::param::Net;
        let params = c.params_mut();
        let last = params.into_iter().last().unwrap();
        last.value.data[0] = -100.0;
        c
    }

    #[test]
    fn recovers_missed_case_variants() {
        // Local EMD knows "Coronavirus" only in proper case... simulate by a
        // lexicon that misses nothing, but the point is the rescan: use a
        // lexicon EMD that only fires on exact "Coronavirus" casing.
        #[derive(Debug)]
        struct CaseSensitiveEmd;
        impl LocalEmd for CaseSensitiveEmd {
            fn name(&self) -> &str {
                "case-sensitive"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = s
                    .texts()
                    .enumerate()
                    .filter(|(_, t)| *t == "Coronavirus")
                    .map(|(i, _)| Span::new(i, i + 1))
                    .collect();
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = CaseSensitiveEmd;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Coronavirus", "spreads", "fast"],
            &["CORONAVIRUS", "cases", "rise"],
            &["the", "coronavirus", "is", "here"],
        ]);
        let (out, _) = g.run(&stream, 10);
        // Local found only tweet 0's mention; global recovers all three.
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(out.n_candidates, 1);
        assert_eq!(out.n_entities, 1);
    }

    #[test]
    fn classifier_filters_false_positives() {
        let local = LexiconEmd::new(["italy", "the"]); // "the" = false positive
        let clf = reject_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[&["the", "Italy", "report"]]);
        let (out, state) = g.run(&stream, 10);
        assert_eq!(out.n_candidates, 2);
        assert_eq!(
            out.n_entities, 0,
            "reject-all classifier must drop every candidate"
        );
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 0);
        // Candidates carry scores after finalize.
        for c in state.candidates.iter() {
            assert!(c.score.is_some());
            assert_eq!(c.label, CandidateLabel::NonEntity);
        }
    }

    #[test]
    fn ablation_local_only_passes_through() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            ablation: Ablation::LocalOnly,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[&["Italy", "and", "ITALY"], &["nothing", "here"]]);
        let (out, _) = g.run(&stream, 10);
        // Lexicon matches case-insensitively, so 2 mentions from sentence 0.
        assert_eq!(out.per_sentence[0].1.len(), 2);
        assert_eq!(
            out.n_candidates, 0,
            "no global structures in LocalOnly mode"
        );
    }

    #[test]
    fn ablation_mention_extraction_skips_classifier() {
        #[derive(Debug)]
        struct FirstOnlyEmd;
        impl LocalEmd for FirstOnlyEmd {
            fn name(&self) -> &str {
                "first-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                // Detects "Italy" only in the first sentence it appears in
                // proper case.
                let spans = s
                    .texts()
                    .enumerate()
                    .filter(|(_, t)| *t == "Italy")
                    .map(|(i, _)| Span::new(i, i + 1))
                    .collect();
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = FirstOnlyEmd;
        let clf = reject_all(7); // would reject if consulted
        let cfg = GlobalizerConfig {
            ablation: Ablation::MentionExtraction,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[&["Italy", "rises"], &["italy", "again"]]);
        let (out, _) = g.run(&stream, 10);
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(
            total, 2,
            "mention extraction emits all candidate mentions unfiltered"
        );
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream: Vec<Sentence> = (0..40)
            .map(|i| {
                Sentence::from_tokens(SentenceId::new(i, 0), ["Italy", "fights", "covid", "again"])
            })
            .collect();
        let mut s1 = g.new_state();
        g.process_batch_parallel(&mut s1, &stream, 1);
        let out1 = g.finalize(&mut s1);
        let mut s2 = g.new_state();
        g.process_batch_parallel(&mut s2, &stream, 4);
        let out2 = g.finalize(&mut s2);
        assert_eq!(out1.per_sentence, out2.per_sentence);
    }

    #[test]
    fn incremental_batches_match_single_batch() {
        let local = LexiconEmd::new(["italy", "beshear", "covid"]);
        let clf = accept_all(7);
        let stream = sents(&[
            &["Italy", "reports", "cases"],
            &["covid", "in", "italy"],
            &["Beshear", "on", "Covid"],
            &["beshear", "speaks"],
        ]);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let (out_single, _) = g.run(&stream, 100);
        let (out_batched, _) = g.run(&stream, 1);
        let a: Vec<_> = out_single
            .per_sentence
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        let b: Vec<_> = out_batched
            .per_sentence
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(a, b, "batching must not change final outputs");
    }

    #[test]
    fn late_candidate_found_in_early_sentence() {
        // "Beshear" is only detected locally in the LAST sentence; the
        // finalize rescan must recover its mention in the first sentence.
        #[derive(Debug)]
        struct LastOnly;
        impl LocalEmd for LastOnly {
            fn name(&self) -> &str {
                "last-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 2 {
                    s.texts()
                        .enumerate()
                        .filter(|(_, t)| t.eq_ignore_ascii_case("beshear"))
                        .map(|(i, _)| Span::new(i, i + 1))
                        .collect()
                } else {
                    vec![]
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = LastOnly;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["beshear", "speaks", "today"],
            &["no", "entities", "here"],
            &["Beshear", "again"],
        ]);
        let mut state = g.new_state();
        // One batch per sentence: candidate appears only at batch 3.
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let out = g.finalize(&mut state);
        assert_eq!(
            out.per_sentence[0].1.len(),
            1,
            "early mention recovered at finalize"
        );
        assert_eq!(out.per_sentence[2].1.len(), 1);
    }

    #[test]
    fn index_stream_builds_candidates_without_classification() {
        let local = LexiconEmd::new(["italy"]);
        let stream = sents(&[&["Italy", "x"], &["italy", "y"]]);
        let state = index_stream(&local, None, &GlobalizerConfig::default(), &stream);
        assert_eq!(state.candidates.len(), 1);
        let rec = cand(&state, "italy").unwrap();
        assert_eq!(rec.frequency(), 2);
        assert_eq!(rec.label, CandidateLabel::Pending);
        assert_eq!(rec.n_pooled(), 2);
    }

    #[test]
    fn deep_output_without_rows_of_its_width_is_quarantined_at_ingest() {
        // A 4-dim deep double that hands over no token rows for tweet 1
        // and 3-wide rows for tweet 2. Admitted, either record's mentions
        // fell back to the 6-dim syntactic one-hot, and pooling it into a
        // 4-dim candidate panicked on the caller thread.
        struct GappyDeepEmd;
        impl LocalEmd for GappyDeepEmd {
            fn name(&self) -> &str {
                "gappy-deep"
            }
            fn embedding_dim(&self) -> Option<usize> {
                Some(4)
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let width = match s.id.tweet_id {
                    1 => None,
                    2 => Some(3),
                    _ => Some(4),
                };
                crate::local::LocalEmdOutput {
                    spans: vec![Span::new(0, 1)],
                    token_embeddings: width.map(|w| Matrix::zeros(s.len(), w)),
                }
            }
        }
        let pe = PhraseEmbedder::new(4, 4, 7);
        let clf = accept_all(5);
        let g = Globalizer::new(&GappyDeepEmd, Some(&pe), &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "reports"],
            &["Italy", "again"],
            &["Italy", "cases"],
            &["Italy", "today"],
        ]);
        let (out, state) = g.run(&stream, 4);
        let quarantined: Vec<(u64, PipelinePhase)> = out
            .quarantined
            .iter()
            .map(|q| (q.sid.tweet_id, q.phase))
            .collect();
        assert_eq!(
            quarantined,
            vec![(1, PipelinePhase::Ingest), (2, PipelinePhase::Ingest)]
        );
        assert!(out.quarantined[0]
            .reason
            .contains("without token embeddings"));
        assert!(out.quarantined[1].reason.contains("3 wide"));
        assert_eq!(state.tweetbase.len(), 2);
        let italy = cand(&state, "italy").unwrap();
        assert_eq!((italy.frequency(), italy.global_embedding().len()), (2, 4));
    }

    #[test]
    fn partial_extraction_corrected_end_to_end() {
        // Local EMD finds the full "Andy Beshear" in tweet 0 but only
        // "Andy" in tweet 1; global output must have the full span in both.
        #[derive(Debug)]
        struct PartialEmd;
        impl LocalEmd for PartialEmd {
            fn name(&self) -> &str {
                "partial"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 0 {
                    vec![Span::new(0, 2)]
                } else {
                    vec![Span::new(1, 2)] // just "Andy"
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = PartialEmd;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Andy", "Beshear", "talks"],
            &["gov", "Andy", "Beshear", "walks"],
        ]);
        let (out, _) = g.run(&stream, 10);
        assert!(
            out.per_sentence[1].1.contains(&Span::new(1, 3)),
            "full mention recovered"
        );
    }

    #[test]
    fn incremental_finalize_matches_full_rescan() {
        // Same ingested state, closed two ways: the incremental dirty-set
        // rescan (parallel) and the brute-force everything rescan must be
        // bit-identical — outputs, candidate set, and entity verdicts.
        let local = LexiconEmd::new(["italy", "beshear", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "reports", "covid", "cases"],
            &["nothing", "to", "see"],
            &["Beshear", "on", "Covid", "in", "italy"],
            &["beshear", "speaks", "again"],
        ]);
        let mut s1 = g.new_state();
        for s in &stream {
            g.process_batch(&mut s1, std::slice::from_ref(s));
        }
        let mut s2 = s1.clone();
        let inc = g.finalize_with_threads(&mut s1, 4);
        let full = g.finalize_full_rescan(&mut s2);
        assert_eq!(inc.per_sentence, full.per_sentence);
        assert_eq!(inc.n_candidates, full.n_candidates);
        assert_eq!(inc.n_entities, full.n_entities);
        assert_eq!(inc.n_promoted, full.n_promoted);
        let keys = |s: &GlobalizerState| -> Vec<String> {
            let ids: Vec<CandId> = s.candidates.entries().map(|(id, _)| id).collect();
            ids.into_iter().map(|id| s.candidate_key(id)).collect()
        };
        let (keys1, keys2) = (keys(&s1), keys(&s2));
        assert_eq!(keys1, keys2, "candidate discovery order must match");
        for (a, b) in s1.candidates.iter().zip(s2.candidates.iter()) {
            assert_eq!(
                a.global_embedding(),
                b.global_embedding(),
                "pooled sums must match"
            );
            assert_eq!(a.frequency(), b.frequency());
            assert_eq!(
                a.locally_detected_frequency(),
                b.locally_detected_frequency()
            );
            assert_eq!(a.n_pooled(), b.n_pooled());
        }
        assert_eq!(s1.tweetbase.len(), s2.tweetbase.len());
        for (a, b) in s1.tweetbase.iter().zip(s2.tweetbase.iter()) {
            assert_eq!(a.global_mentions, b.global_mentions);
            assert_eq!(a.retired, b.retired);
        }
    }

    #[test]
    fn finalize_rescans_only_affected_sentences() {
        // The local system detects "beshear" in the first sentence, so the
        // candidate is in the CTrie before any later sentence is scanned
        // and nothing is left to rescan at close.
        let local = LexiconEmd::new(["beshear"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["beshear", "speaks", "today"],
            &["no", "entities", "here"],
            &["still", "nothing"],
            &["Beshear", "again"],
        ]);
        let mut state = g.new_state();
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let out = g.finalize(&mut state);
        // Every sentence is scanned within its own batch against a CTrie
        // that already holds "beshear", and no candidate registered later
        // occurs in an earlier sentence, so nothing is dirty at close.
        assert_eq!(
            out.n_rescanned, 0,
            "no sentence can be affected by later candidates"
        );
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn finalize_rescan_count_is_incremental() {
        // "beshear" only becomes a candidate at the last batch; of the three
        // earlier sentences exactly one contains the token and only that one
        // is rescanned at close.
        #[derive(Debug)]
        struct LastOnly;
        impl LocalEmd for LastOnly {
            fn name(&self) -> &str {
                "last-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 3 {
                    vec![Span::new(0, 1)]
                } else {
                    vec![]
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = LastOnly;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["beshear", "speaks", "today"],
            &["no", "entities", "here"],
            &["still", "nothing"],
            &["Beshear", "again"],
        ]);
        let mut state = g.new_state();
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let out = g.finalize(&mut state);
        assert_eq!(
            out.n_rescanned, 1,
            "only the one affected early sentence is rescanned"
        );
        assert_eq!(out.per_sentence[0].1.len(), 1, "early mention recovered");
        assert_eq!(out.per_sentence[3].1.len(), 1);
    }

    #[test]
    fn adjacent_fragments_promoted_to_full_candidate() {
        // The local system only ever detects the fragments "moross" and
        // "lumsa", never the bigram. With enough adjacency support the
        // promotion pass must recover the full two-token mention.
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Moross", "Lumsa", "quarantined"],
            &["cases", "at", "Moross", "Lumsa", "rise"],
            &["Moross", "Lumsa", "closed"],
        ]);
        let (out, state) = g.run(&stream, 10);
        assert_eq!(out.n_promoted, 1);
        assert!(registered(&state, "moross lumsa"));
        assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 2)]);
        assert_eq!(out.per_sentence[1].1, vec![Span::new(2, 4)]);
        assert_eq!(out.per_sentence[2].1, vec![Span::new(0, 2)]);
        // The promoted candidate pooled one embedding per recovered mention.
        let promoted = cand(&state, "moross lumsa").unwrap();
        assert_eq!(promoted.frequency(), 3);
        assert_eq!(promoted.n_pooled(), 3);
    }

    #[test]
    fn rare_adjacency_not_promoted() {
        // One incidental adjacency is far below the default support of 3:
        // the fragments stay separate candidates.
        let local = LexiconEmd::new(["italy", "canada"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "Canada", "trade"],
            &["Italy", "alone"],
            &["Canada", "alone"],
        ]);
        let (out, state) = g.run(&stream, 10);
        assert_eq!(out.n_promoted, 0);
        assert!(!registered(&state, "italy canada"));
        assert_eq!(
            out.per_sentence[0].1,
            vec![Span::new(0, 1), Span::new(1, 2)]
        );
    }

    #[test]
    fn promotion_disabled_by_zero_support() {
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            promotion_support: 0,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[
            &["Moross", "Lumsa", "quarantined"],
            &["Moross", "Lumsa", "rises"],
            &["Moross", "Lumsa", "closed"],
        ]);
        let (out, _) = g.run(&stream, 10);
        assert_eq!(out.n_promoted, 0);
        assert_eq!(
            out.per_sentence[0].1,
            vec![Span::new(0, 1), Span::new(1, 2)]
        );
    }

    #[test]
    fn out_of_bounds_local_spans_dropped_at_ingestion() {
        // A misbehaving local system emits spans past the end of the
        // sentence and empty spans. They must be dropped once at ingestion:
        // not panic the rescan, not appear in LocalOnly outputs, not count
        // as locally-detected evidence.
        #[derive(Debug)]
        struct Misbehaving;
        impl LocalEmd for Misbehaving {
            fn name(&self) -> &str {
                "misbehaving"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                // Struct literals: `Span::new` debug-asserts non-emptiness,
                // and the point here is smuggling invalid spans past the
                // local system boundary.
                crate::local::LocalEmdOutput {
                    spans: vec![
                        Span { start: 0, end: 1 }, // valid
                        Span {
                            start: 1,
                            end: s.len() + 3,
                        }, // out of bounds
                        Span { start: 2, end: 2 }, // empty
                        Span {
                            start: s.len(),
                            end: s.len() + 1,
                        }, // fully past the end
                    ],
                    token_embeddings: None,
                }
            }
        }
        let local = Misbehaving;
        let clf = accept_all(7);
        for ablation in [
            Ablation::LocalOnly,
            Ablation::MentionExtraction,
            Ablation::Full,
        ] {
            let cfg = GlobalizerConfig {
                ablation,
                ..Default::default()
            };
            let g = Globalizer::new(&local, None, &clf, cfg);
            let stream = sents(&[&["Italy", "reports", "cases"]]);
            let (out, state) = g.run(&stream, 10);
            assert_eq!(
                out.per_sentence[0].1,
                vec![Span::new(0, 1)],
                "only the valid span survives under {ablation:?}"
            );
            if ablation != Ablation::LocalOnly {
                let rec = cand(&state, "italy").unwrap();
                assert_eq!(rec.locally_detected_frequency(), rec.frequency());
            }
        }
    }

    /// A local system that panics (injected-fault payload, so the quiet
    /// hook suppresses the backtrace) on selected tweet ids, from the
    /// `fail_on_attempt`-th attempt per sentence onward (1-based; 1 =
    /// always fails).
    #[derive(Debug)]
    struct PanickyEmd {
        fail_tweet: u64,
        fail_until_attempt: usize,
        calls: std::sync::Mutex<std::collections::HashMap<u64, usize>>,
    }

    impl PanickyEmd {
        fn new(fail_tweet: u64, fail_until_attempt: usize) -> PanickyEmd {
            emd_resilience::failpoint::install_quiet_hook();
            PanickyEmd {
                fail_tweet,
                fail_until_attempt,
                calls: std::sync::Mutex::new(std::collections::HashMap::new()),
            }
        }
    }

    impl LocalEmd for PanickyEmd {
        fn name(&self) -> &str {
            "panicky"
        }
        fn embedding_dim(&self) -> Option<usize> {
            None
        }
        fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
            if s.id.tweet_id == self.fail_tweet {
                let should_fail = {
                    // Recover the lock if a previous attempt's panic
                    // poisoned it — the counter itself is never torn.
                    let mut calls = self
                        .calls
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    let n = calls.entry(s.id.tweet_id).or_insert(0);
                    *n += 1;
                    *n <= self.fail_until_attempt
                };
                if should_fail {
                    emd_resilience::failpoint::panic_injected("test_local");
                }
            }
            let spans = s
                .texts()
                .enumerate()
                .filter(|(_, t)| t.eq_ignore_ascii_case("italy"))
                .map(|(i, _)| Span::new(i, i + 1))
                .collect();
            crate::local::LocalEmdOutput {
                spans,
                token_embeddings: None,
            }
        }
    }

    #[test]
    fn persistently_panicking_sentence_is_quarantined() {
        // Tweet 1's local inference panics on every attempt: the sentence
        // must land in the dead-letter buffer, the rest of the stream must
        // come through untouched.
        let local = PanickyEmd::new(1, usize::MAX);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "reports", "cases"],
            &["italy", "poisoned", "message"],
            &["ITALY", "again"],
        ]);
        let (out, state) = g.run(&stream, 10);
        let sids: Vec<u64> = out.per_sentence.iter().map(|(s, _)| s.tweet_id).collect();
        assert_eq!(sids, vec![0, 2], "quarantined sentence not emitted");
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].sid, SentenceId::new(1, 0));
        assert_eq!(
            out.quarantined[0].phase,
            emd_resilience::PipelinePhase::LocalInference
        );
        assert_eq!(state.n_quarantined(), 1);
        // The surviving sentences still go through the full pipeline.
        assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 1)]);
        assert_eq!(out.per_sentence[1].1, vec![Span::new(0, 1)]);
    }

    #[test]
    fn transient_panic_is_retried_not_quarantined() {
        // Tweet 1 fails exactly once; the default budget of one retry
        // recovers it, so the output is identical to a fault-free run.
        let local = PanickyEmd::new(1, 1);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[&["Italy", "one"], &["italy", "two"], &["ITALY", "three"]]);
        let (out, _) = g.run(&stream, 10);
        assert!(out.quarantined.is_empty());
        assert_eq!(out.per_sentence.len(), 3);
        for (_, spans) in &out.per_sentence {
            assert_eq!(spans, &vec![Span::new(0, 1)]);
        }
    }

    #[test]
    fn zero_retry_budget_quarantines_on_first_panic() {
        let local = PanickyEmd::new(1, 1);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            poison_retries: 0,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[&["Italy", "one"], &["italy", "two"]]);
        let (out, _) = g.run(&stream, 10);
        assert_eq!(out.quarantined.len(), 1, "no retry with a zero budget");
    }

    #[test]
    fn parallel_local_phase_quarantines_identically() {
        // The same poison sentence, processed on the sequential and the
        // sharded local phase: outputs, quarantine logs and retry counts
        // must match. Tweet 0 lies in the first shard, which the caller
        // thread runs, tweet 2 in a later one. A panic inside
        // `LocalEmd::process` is caught per sentence, so it never reaches
        // the shard boundary: a transient one is retried and a persistent
        // one quarantines the sentence.
        let _obs = crate::obs::tests::obs_switch(true);
        let clf = accept_all(7);
        let stream = sents(&[
            &["Italy", "a"],
            &["italy", "b"],
            &["ITALY", "c"],
            &["italy", "d"],
        ]);
        let run = |fail_tweet: u64, fail_until_attempt: usize, threads: usize| {
            let local = PanickyEmd::new(fail_tweet, fail_until_attempt);
            let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
            let reg = emd_obs::Registry::new();
            g.set_metrics(PipelineMetrics::from_registry(&reg));
            let mut state = g.new_state();
            g.process_batch_parallel(&mut state, &stream, threads);
            let out = g.finalize(&mut state);
            let snap = g.metrics().snapshot();
            let retries = (
                snap.counter("emd_resilience_item_retries_total"),
                snap.counter("emd_resilience_shard_retries_total"),
            );
            (out, retries)
        };
        for fail_tweet in [0, 2] {
            for (fail_until_attempt, n_quarantined, item_retries) in [(1, 0, 1), (usize::MAX, 1, 2)]
            {
                let (seq, seq_retries) = run(fail_tweet, fail_until_attempt, 1);
                assert_eq!(seq.quarantined.len(), n_quarantined);
                assert_eq!(seq_retries, (Some(item_retries), Some(0)));
                for threads in [2, 3] {
                    let (par, par_retries) = run(fail_tweet, fail_until_attempt, threads);
                    let at = format!("tweet {fail_tweet}, threads {threads}");
                    assert_eq!(seq.per_sentence, par.per_sentence, "{at}");
                    assert_eq!(seq.quarantined, par.quarantined, "{at}");
                    assert_eq!(seq_retries, par_retries, "{at}");
                }
            }
        }
    }

    #[test]
    fn panic_in_the_callers_own_shard_reruns_there() {
        // The caller thread runs the first shard itself. A panic there is
        // caught like a worker's, counted once, and the shard re-run on
        // the caller, so the result equals the inline run's.
        let _obs = crate::obs::tests::obs_switch(true);
        let clf = accept_all(7);
        let stream: Vec<Sentence> = (0..7)
            .map(|i| Sentence::from_tokens(SentenceId::new(i, 0), ["Italy", "again"]))
            .collect();
        let healthy = PanickyEmd::new(0, 0);
        let inline: Vec<Vec<Span>> = stream.iter().map(|s| healthy.process(s).spans).collect();
        for threads in [2, 3] {
            let local = PanickyEmd::new(0, 1);
            let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
            let reg = emd_obs::Registry::new();
            g.set_metrics(PipelineMetrics::from_registry(&reg));
            let first_shard_runs = Mutex::new(Vec::new());
            let out = g.sharded(
                &stream,
                threads,
                "test_shard",
                TracePhase::LocalInfer,
                |part| {
                    if part[0].id.tweet_id == 0 {
                        first_shard_runs
                            .lock()
                            .unwrap()
                            .push(std::thread::current().id());
                    }
                    part.iter().map(|s| local.process(s).spans).collect()
                },
            );
            assert_eq!(out, inline, "threads={threads}");
            let caller = std::thread::current().id();
            assert_eq!(
                first_shard_runs.into_inner().unwrap(),
                vec![caller, caller],
                "the first shard panics and re-runs on the caller"
            );
            let snap = g.metrics().snapshot();
            assert_eq!(snap.counter("emd_resilience_shard_retries_total"), Some(1));
        }
    }

    #[test]
    fn oversized_token_quarantined_at_ingest() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let big = "x".repeat(emd_resilience::validate::MAX_TOKEN_BYTES + 1);
        let stream = vec![
            Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "fine"]),
            Sentence::from_tokens(SentenceId::new(1, 0), ["Italy", big.as_str()]),
        ];
        let (out, _) = g.run(&stream, 10);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].sid, SentenceId::new(1, 0));
        assert_eq!(
            out.quarantined[0].phase,
            emd_resilience::PipelinePhase::Ingest
        );
        assert_eq!(out.per_sentence.len(), 1);
    }

    #[test]
    fn degraded_candidate_falls_back_to_local_detections() {
        // "Coronavirus" is detected locally only in proper case; the
        // global rescan recovers the ALL-CAPS mention. When the candidate
        // is degraded (its classifier verdict unreliable), emission must
        // fall back to the locally detected span only.
        #[derive(Debug)]
        struct CaseSensitiveEmd;
        impl LocalEmd for CaseSensitiveEmd {
            fn name(&self) -> &str {
                "case-sensitive"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = s
                    .texts()
                    .enumerate()
                    .filter(|(_, t)| *t == "Coronavirus")
                    .map(|(i, _)| Span::new(i, i + 1))
                    .collect();
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = CaseSensitiveEmd;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[&["Coronavirus", "spreads"], &["CORONAVIRUS", "rises"]]);
        let (mut state, out) = {
            let mut state = g.new_state();
            g.process_batch(&mut state, &stream);
            let out = g.finalize(&mut state);
            (state, out)
        };
        // Healthy run: both mentions emitted.
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(out.n_degraded, 0);
        // Degrade the candidate and re-emit: only the local detection
        // survives.
        let id = state.candidate_id("coronavirus").unwrap();
        state.candidates.get_mut(id).degraded = true;
        let out = g.emit(&state, 0, 0);
        assert_eq!(out.n_degraded, 1);
        assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 1)]);
        assert_eq!(out.per_sentence[1].1, Vec::<Span>::new());
    }

    #[test]
    fn windowed_run_evicts_and_stays_bounded() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(4),
            ..Default::default()
        };
        let mut g = Globalizer::new(&local, None, &clf, cfg);
        // Recording is process-global and off by default; hold it on for
        // this test so the private registry actually sees the window
        // counters.
        let _obs = crate::obs::tests::obs_switch(true);
        let reg = emd_obs::Registry::new();
        g.set_metrics(PipelineMetrics::from_registry(&reg));
        let msgs: Vec<Vec<&str>> = (0..12).map(|_| vec!["Italy", "reports"]).collect();
        let msgs: Vec<&[&str]> = msgs.iter().map(|v| v.as_slice()).collect();
        let stream = sents(&msgs);
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
            assert!(
                state.tweetbase.len() <= 4,
                "window ceiling must hold after every batch"
            );
        }
        assert_eq!(state.n_evicted(), 8);
        let out = g.finalize(&mut state);
        // The final output covers the live window; evicted sentences were
        // already fully scanned (their pool contributions persist).
        assert_eq!(out.per_sentence.len(), 4);
        let sids: Vec<u64> = out.per_sentence.iter().map(|(s, _)| s.tweet_id).collect();
        assert_eq!(sids, vec![8, 9, 10, 11]);
        for (_, spans) in &out.per_sentence {
            assert_eq!(spans, &vec![Span::new(0, 1)]);
        }
        // Pooled evidence from evicted mentions is retained.
        assert_eq!(cand(&state, "italy").unwrap().frequency(), 12);
        let snap = g.metrics().snapshot();
        assert_eq!(snap.counter("emd_window_evicted_records_total"), Some(8));
        assert_eq!(snap.gauge("emd_window_depth"), Some(4.0));
    }

    #[test]
    fn oversized_window_matches_unbounded_run() {
        let local = LexiconEmd::new(["italy", "virus"]);
        let clf = accept_all(7);
        let stream = sents(&[
            &["Italy", "reports", "virus"],
            &["the", "virus", "spreads"],
            &["ITALY", "closes"],
        ]);
        let unbounded = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let windowed = Globalizer::new(
            &local,
            None,
            &clf,
            GlobalizerConfig {
                window: crate::config::WindowConfig::sliding(1000),
                ..Default::default()
            },
        );
        let (a, _) = unbounded.run(&stream, 1);
        let (b, _) = windowed.run(&stream, 1);
        assert_eq!(a.per_sentence, b.per_sentence);
        assert_eq!(a.n_candidates, b.n_candidates);
        assert_eq!(a.n_entities, b.n_entities);
    }

    #[test]
    fn frozen_adjacency_preserves_promotion_across_eviction() {
        // "Moross Lumsa" is only ever detected in fragments. Most of the
        // supporting sentences are evicted before finalize; the adjacency
        // ledger must keep their evidence alive so the promotion still
        // fires.
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let msgs: Vec<Vec<&str>> = (0..6).map(|_| vec!["Moross", "Lumsa", "speaks"]).collect();
        let msgs: Vec<&[&str]> = msgs.iter().map(|v| v.as_slice()).collect();
        let stream = sents(&msgs);
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
        }
        assert_eq!(state.n_evicted(), 4);
        assert!(
            !state.adjacency().at_least(1).is_empty(),
            "evicted adjacency evidence must stay counted"
        );
        // Four evicted sentences and two live ones hold the pair.
        assert_eq!(pairs(&state), vec![("moross".into(), "lumsa".into(), 6)]);
        let out = g.finalize(&mut state);
        assert_eq!(out.n_promoted, 1, "promotion survives eviction");
        // Live sentences re-emit the merged mention.
        for (_, spans) in &out.per_sentence {
            assert_eq!(spans, &vec![Span::new(0, 2)]);
        }
    }

    #[test]
    fn pruned_fragment_is_rediscovered_with_no_evidence() {
        // "Moross Lumsa" is seen once, then evicted: both cold fragments
        // are pruned, and their pair leaves the ledger with them. Seen
        // again, they start over like their pools do.
        let local = LexiconEmd::new(["moross", "lumsa", "italy"]);
        let clf = reject_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let mut msgs: Vec<&[&str]> = vec![&["Moross", "Lumsa", "here"]];
        msgs.extend([&["Italy", "reports"][..]; 4]);
        msgs.push(&["Moross", "Lumsa", "again"]);
        let stream = sents(&msgs);
        let mut state = g.new_state();
        for s in &stream[..5] {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        assert!(cand(&state, "moross").is_none(), "cold fragment pruned");
        assert!(!registered(&state, "lumsa"), "CTrie path removed");
        assert!(state.adjacency().at_least(1).is_empty(), "its pair dropped");
        g.process_batch(&mut state, &stream[5..]);
        assert_eq!(cand(&state, "moross").unwrap().frequency(), 1);
        assert_eq!(pairs(&state), vec![("moross".into(), "lumsa".into(), 1)]);
    }

    #[test]
    fn eviction_never_resurrects_a_quarantined_sentence() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let big = "x".repeat(emd_resilience::validate::MAX_TOKEN_BYTES + 1);
        let poison = Sentence::from_tokens(SentenceId::new(1, 0), ["Italy", big.as_str()]);
        let mut stream = vec![
            Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "fine"]),
            poison,
        ];
        for i in 2..6u64 {
            stream.push(Sentence::from_tokens(
                SentenceId::new(i, 0),
                ["Italy", "again"],
            ));
        }
        // A clean-looking replay of the quarantined id, long after every
        // record from its era has been evicted.
        stream.push(Sentence::from_tokens(
            SentenceId::new(1, 0),
            ["Italy", "replayed"],
        ));
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
        }
        let out = g.finalize(&mut state);
        assert!(
            out.per_sentence.iter().all(|(s, _)| s.tweet_id != 1),
            "a quarantined sentence id must never re-enter the output"
        );
        assert_eq!(out.quarantined.len(), 2);
        assert!(out.quarantined[1].reason.contains("previously quarantined"));
    }

    #[test]
    fn long_windowed_run_compacts_and_prunes() {
        let local = LexiconEmd::new(["italy", "oddity"]);
        // Reject-all: an Entity verdict pins a candidate forever, so use
        // the classifier that leaves everything non-entity to expose the
        // frequency-decay pruning path.
        let clf = reject_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let mut g = Globalizer::new(&local, None, &clf, cfg);
        let _obs = crate::obs::tests::obs_switch(true);
        let reg = emd_obs::Registry::new();
        g.set_metrics(PipelineMetrics::from_registry(&reg));
        // "Oddity" appears once at the very start (frequency 1); every
        // later sentence mentions only "Italy". Once the oddity sentence
        // is evicted the candidate is cold and must be pruned, CTrie path
        // included.
        let mut stream = vec![Sentence::from_tokens(
            SentenceId::new(0, 0),
            ["Oddity", "here"],
        )];
        for i in 1..20u64 {
            stream.push(Sentence::from_tokens(
                SentenceId::new(i, 0),
                ["Italy", "reports"],
            ));
        }
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
        }
        assert!(cand(&state, "oddity").is_none(), "cold candidate pruned");
        assert!(cand(&state, "italy").is_some(), "hot candidate kept");
        assert!(!registered(&state, "oddity"), "CTrie path removed");
        assert!(registered(&state, "italy"));
        // Evicted slots never exceed the live count by more than one batch.
        assert!(
            state.tweetbase.n_slots() <= 2 * state.tweetbase.len() + 2,
            "compaction keeps the slot vector dense (slots={}, live={})",
            state.tweetbase.n_slots(),
            state.tweetbase.len()
        );
        let snap = g.metrics().snapshot();
        assert!(snap.counter("emd_window_compactions_total").unwrap() > 0);
        assert!(snap.counter("emd_window_pruned_candidates_total").unwrap() > 0);
        let out = g.finalize(&mut state);
        assert_eq!(out.per_sentence.len(), 2);
    }
}
