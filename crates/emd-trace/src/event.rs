//! The trace event vocabulary.
//!
//! One flat record type, [`TraceEvent`], carries every decision the
//! pipeline takes. The serde derive shim supports only named-field
//! structs and unit-variant enums, so instead of an enum with payload
//! variants the event is a [`TraceEventKind`] discriminant plus a set of
//! optional causal fields — each kind populates the subset that applies
//! (documented per variant). Unused fields stay `None` and cost nothing.
//!
//! Causal-ID scheme:
//!
//! * `seq` — process-monotone sequence number assigned by the ring at
//!   push time; total order over all events of a run.
//! * `batch` — 1-based batch counter ([`TraceEventKind::BatchStart`]
//!   events delimit batches; events between two starts belong to the
//!   earlier one).
//! * `sid` — `(tweet id, sentence index)` of the sentence acted on.
//! * `span` — `[start, end)` token range inside that sentence.
//! * `candidate` — lower-cased space-joined candidate key.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of decision an event records, and which causal fields it
/// populates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A batch entered the pipeline. Fields: `batch`, `count` (sentences).
    BatchStart,
    /// A sentence passed local inference + validation and entered the
    /// TweetBase. Fields: `sid`, `count` (local spans).
    SentenceAdmitted,
    /// The local system proposed a span. Fields: `sid`, `span`, `system`.
    LocalDetect,
    /// A seed candidate was registered in the CTrie. Fields: `sid`,
    /// `span`, `candidate`, `phase` (trie-register).
    TrieInsert,
    /// A stored record was (re)scanned; its `global_mentions` were
    /// replaced by the `count` mentions that follow as
    /// [`TraceEventKind::ScanMention`] events. Fields: `sid`, `count`,
    /// `phase` (scan vs finalize-rescan).
    ScanRecord,
    /// One extracted mention of a candidate. `pooled` is true when the
    /// mention was new and its local embedding entered the candidate's
    /// global pool; `local_hit` is true when the local system itself
    /// proposed the span. Fields: `sid`, `span`, `candidate`, `pooled`,
    /// `local_hit`, `phase`.
    ScanMention,
    /// A candidate entered degraded LocalOnly fallback (its embedding or
    /// classification failed persistently). Fields: `candidate`, `phase`,
    /// `reason`.
    CandidateDegraded,
    /// A classifier verdict was applied. `final_verdict` is true for the
    /// γ-resolving pass at stream close. Fields: `candidate`, `score`,
    /// `label`, `final_verdict`, `phase`.
    Verdict,
    /// An adjacent-pair promotion created a new candidate. Fields:
    /// `candidate`, `phase`.
    Promotion,
    /// A sentence was diverted to the dead-letter buffer. Fields: `sid`,
    /// `phase` (where the failure was isolated), `reason`.
    SentenceQuarantined,
    /// Per-item panic-isolation retries were spent. Fields: `count`.
    ItemRetry,
    /// A worker shard panicked and its work was re-run on the caller
    /// thread. Fields: `phase`.
    ShardRetry,
    /// Output assembly began. Fields: `ablation`, `count` (stored
    /// records).
    EmitStart,
    /// A phase completed; `dur_ns` is its wall-clock (reusing the
    /// already-measured `PhaseTimings` value — no extra clock read).
    /// `parent` nests finalize-time sub-phases for the flame view.
    /// Fields: `phase`, `parent`, `dur_ns`, `system` (local phase only).
    PhaseSpan,
    /// Supervisor checkpoint written. Fields: `batch`, `count` (batches
    /// covered).
    CheckpointSaved,
    /// Supervisor restored from a checkpoint. Fields: `count` (batches
    /// covered).
    CheckpointRestored,
    /// A sentence record left the sliding window: its stored sentence,
    /// token embeddings, and posting-list entries were freed. The
    /// sentence's mentions are no longer emitted (they were already
    /// pooled). Fields: `sid`, `phase` (evict), `count` (global mentions
    /// at eviction).
    SentenceEvicted,
    /// A low-frequency cold candidate (every mention evicted, no Entity
    /// verdict) was dropped from the candidate pool together with its
    /// CTrie path. Fields: `candidate`, `phase` (evict), `count`
    /// (mention frequency at pruning).
    CandidatePruned,
    /// Slot indices were shifted down past the evicted records, and their
    /// dead embedding rows reclaimed. Bookkeeping only — indices are
    /// internal, so replay semantics are unchanged. Fields: `count` (slots
    /// reclaimed), `phase` (evict or supervisor).
    StateCompacted,
    /// A sentinel change detector fired on a windowed quality series.
    /// Fields: `batch` (causal batch seq), `series` (offending series
    /// name), `score` (detector statistic), `reason` (window stats:
    /// threshold + before/after means).
    DriftDetected,
    /// The per-stream health state machine transitioned. Fields:
    /// `batch`, `health` (new state), `reason` (tripping rule, or
    /// "cleared").
    HealthTransition,
    /// The admission gate shed a batch instead of servicing it. Fields:
    /// `batch` (supervisor service seq at the shed), `count` (sentences
    /// shed), `reason` (overload policy name), `phase` (supervisor).
    BatchShed,
    /// A circuit breaker changed state. Fields: `batch` (breaker tick),
    /// `phase` (the guarded phase), `breaker` (new state), `reason`
    /// (failure streak, cooldown served, probe outcome, or force-open).
    BreakerTransition,
    /// Restore skipped one or more corrupt checkpoint generations and
    /// fell back down the retained ladder. Fields: `count` (generation
    /// restored from, 0 = newest), `reason` (newest discard reason),
    /// `phase` (supervisor).
    CheckpointFallback,
    /// An SLO's fast *and* slow burn rates both crossed its alert
    /// threshold on this batch — emitted every firing batch so the full
    /// burn interval is replayable (see `replay_slo`). Fields: `batch`
    /// (causal batch seq), `series` (SLO name), `score` (fast-window
    /// burn rate), `reason` (slow burn + threshold detail).
    SloBurn,
}

/// Pipeline phase a trace event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TracePhase {
    /// Local EMD inference.
    LocalInfer,
    /// Validation + TweetBase storage.
    Ingest,
    /// CTrie seed registration.
    TrieRegister,
    /// Batch-time occurrence scan (staging).
    Scan,
    /// Sequential pooling apply.
    Pool,
    /// Candidate classification.
    Classify,
    /// Adjacent-pair promotion.
    Promotion,
    /// Output assembly.
    Emit,
    /// The whole closing call.
    Finalize,
    /// The closing rescan inside finalize.
    FinalizeRescan,
    /// The batch-driving supervisor loop.
    Supervisor,
    /// Window enforcement: eviction, candidate pruning, compaction.
    Evict,
}

impl TracePhase {
    /// Stable lower-snake name (used in collapsed-stack frames).
    pub fn name(&self) -> &'static str {
        match self {
            TracePhase::LocalInfer => "local_infer",
            TracePhase::Ingest => "ingest",
            TracePhase::TrieRegister => "trie_register",
            TracePhase::Scan => "scan",
            TracePhase::Pool => "pool",
            TracePhase::Classify => "classify",
            TracePhase::Promotion => "promotion",
            TracePhase::Emit => "emit",
            TracePhase::Finalize => "finalize",
            TracePhase::FinalizeRescan => "finalize_rescan",
            TracePhase::Supervisor => "supervisor",
            TracePhase::Evict => "evict",
        }
    }
}

/// Classifier label mirrored into the trace (decoupled from `emd-core` so
/// this crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceLabel {
    /// Not yet scored.
    Pending,
    /// Confidently an entity.
    Entity,
    /// Confidently a non-entity.
    NonEntity,
    /// In the γ band.
    Ambiguous,
}

/// Ablation mode mirrored into the trace (drives the replay auditor's
/// emission rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceAblation {
    /// Local spans pass through untouched.
    LocalOnly,
    /// All extracted mentions are emitted unfiltered.
    MentionExtraction,
    /// Classifier-filtered emission (the full framework).
    Full,
}

/// Stream health state mirrored into the trace (decoupled from
/// `emd-sentinel` so this crate stays dependency-free). Replaying
/// [`TraceEventKind::HealthTransition`] events from an initial `Healthy`
/// reconstructs the health timeline — see [`crate::audit::replay_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceHealth {
    /// All monitoring rules quiet.
    Healthy,
    /// A Degraded-severity rule tripped.
    Degraded,
    /// A Critical-severity rule tripped.
    Critical,
}

/// Circuit-breaker state mirrored into the trace (decoupled from
/// `emd-guard` so this crate stays dependency-free). Replaying
/// [`TraceEventKind::BreakerTransition`] events reconstructs each guarded
/// phase's breaker timeline — see [`crate::audit::replay_guard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceBreaker {
    /// Normal operation; failures are counted.
    Closed,
    /// The guarded phase is skipped; cooldown ticking.
    Open,
    /// Cooldown served; probes allowed through.
    HalfOpen,
}

/// One traced pipeline decision. See [`TraceEventKind`] for which fields
/// each kind populates; unpopulated fields are `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Ring-assigned monotone sequence number.
    pub seq: u64,
    /// The decision recorded.
    pub kind: TraceEventKind,
    /// 1-based batch counter (on [`TraceEventKind::BatchStart`]).
    pub batch: Option<u64>,
    /// `(tweet id, sentence index)` of the sentence acted on.
    pub sid: Option<(u64, u32)>,
    /// `[start, end)` token range inside the sentence.
    pub span: Option<(u32, u32)>,
    /// Lower-cased space-joined candidate key.
    pub candidate: Option<String>,
    /// Name of the Local EMD system involved.
    pub system: Option<String>,
    /// Classifier probability.
    pub score: Option<f32>,
    /// Classifier label applied.
    pub label: Option<TraceLabel>,
    /// True on the γ-resolving classification pass at stream close.
    pub final_verdict: Option<bool>,
    /// True when a scanned mention's embedding entered the pool.
    pub pooled: Option<bool>,
    /// True when the local system itself proposed the span.
    pub local_hit: Option<bool>,
    /// Phase the event is attributed to.
    pub phase: Option<TracePhase>,
    /// Enclosing phase (nests finalize-time sub-phases).
    pub parent: Option<TracePhase>,
    /// Wall-clock nanoseconds (on [`TraceEventKind::PhaseSpan`]).
    pub dur_ns: Option<u64>,
    /// Kind-specific count (sentences, spans, retries, ...).
    pub count: Option<u64>,
    /// Ablation mode (on [`TraceEventKind::EmitStart`]).
    pub ablation: Option<TraceAblation>,
    /// Human-readable failure reason.
    pub reason: Option<String>,
    /// Sentinel series name (on [`TraceEventKind::DriftDetected`]).
    pub series: Option<String>,
    /// New health state (on [`TraceEventKind::HealthTransition`]).
    pub health: Option<TraceHealth>,
    /// New breaker state (on [`TraceEventKind::BreakerTransition`]).
    pub breaker: Option<TraceBreaker>,
}

impl TraceEvent {
    /// A bare event of the given kind with every causal field unset.
    /// Emission sites fill in the relevant fields with struct-update
    /// syntax: `TraceEvent { sid: Some(..), ..TraceEvent::of(kind) }`.
    pub fn of(kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            kind,
            batch: None,
            sid: None,
            span: None,
            candidate: None,
            system: None,
            score: None,
            label: None,
            final_verdict: None,
            pooled: None,
            local_hit: None,
            phase: None,
            parent: None,
            dur_ns: None,
            count: None,
            ablation: None,
            reason: None,
            series: None,
            health: None,
            breaker: None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {:?}", self.seq, self.kind)?;
        if let Some(b) = self.batch {
            write!(f, " batch={b}")?;
        }
        if let Some((t, s)) = self.sid {
            write!(f, " sid={t}#{s}")?;
        }
        if let Some((a, b)) = self.span {
            write!(f, " span={a}..{b}")?;
        }
        if let Some(c) = &self.candidate {
            write!(f, " cand=\"{c}\"")?;
        }
        if let Some(s) = &self.system {
            write!(f, " system={s}")?;
        }
        if let Some(p) = self.score {
            write!(f, " score={p:.3}")?;
        }
        if let Some(l) = self.label {
            write!(f, " label={l:?}")?;
        }
        if let Some(v) = self.final_verdict {
            write!(f, " final={v}")?;
        }
        if let Some(p) = self.pooled {
            write!(f, " pooled={p}")?;
        }
        if let Some(h) = self.local_hit {
            write!(f, " local_hit={h}")?;
        }
        if let Some(p) = self.phase {
            write!(f, " phase={}", p.name())?;
        }
        if let Some(p) = self.parent {
            write!(f, " parent={}", p.name())?;
        }
        if let Some(d) = self.dur_ns {
            write!(f, " dur={d}ns")?;
        }
        if let Some(n) = self.count {
            write!(f, " n={n}")?;
        }
        if let Some(a) = self.ablation {
            write!(f, " ablation={a:?}")?;
        }
        if let Some(s) = &self.series {
            write!(f, " series={s}")?;
        }
        if let Some(h) = self.health {
            write!(f, " health={h:?}")?;
        }
        if let Some(b) = self.breaker {
            write!(f, " breaker={b:?}")?;
        }
        if let Some(r) = &self.reason {
            write!(f, " reason=\"{r}\"")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_leaves_fields_unset() {
        let e = TraceEvent::of(TraceEventKind::Verdict);
        assert_eq!(e.kind, TraceEventKind::Verdict);
        assert_eq!(e.seq, 0);
        assert!(e.candidate.is_none());
        assert!(e.score.is_none());
    }

    #[test]
    fn display_is_compact_and_selective() {
        let e = TraceEvent {
            seq: 7,
            sid: Some((3, 0)),
            span: Some((1, 2)),
            candidate: Some("italy".to_string()),
            score: Some(0.9312),
            label: Some(TraceLabel::Entity),
            ..TraceEvent::of(TraceEventKind::Verdict)
        };
        let s = e.to_string();
        assert!(s.starts_with("#7 Verdict"));
        assert!(s.contains("sid=3#0"));
        assert!(s.contains("span=1..2"));
        assert!(s.contains("cand=\"italy\""));
        assert!(s.contains("score=0.931"));
        assert!(s.contains("label=Entity"));
        assert!(!s.contains("dur="), "unset fields stay out: {s}");
    }

    #[test]
    fn serde_round_trip() {
        let e = TraceEvent {
            seq: 42,
            batch: Some(2),
            sid: Some((9, 1)),
            phase: Some(TracePhase::FinalizeRescan),
            reason: Some("boom".to_string()),
            ..TraceEvent::of(TraceEventKind::SentenceQuarantined)
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
