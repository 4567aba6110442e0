//! Pipeline observability: named metric handles for every Globalizer
//! phase, the always-on per-run [`PhaseTimings`] breakdown, and the
//! `PhaseProbe` that feeds both.
//!
//! One probe, three sinks: each phase call starts one `PhaseProbe` and
//! finishes it once, and that single clock reading goes
//!
//! * into the phase's [`PhaseTimings`] field, always (copied into
//!   [`crate::GlobalizerOutput::phase_timings`] at finalize; experiments
//!   persist it and the benchmark's `phase.*` rows read it);
//! * into the phase's `emd_pipeline_*_ns` histogram while emd-obs
//!   recording is on ([`emd_obs::set_enabled`]), tagged with the trace
//!   seq the phase started at when tracing is on too;
//! * into the phase's `PhaseSpan` trace event while tracing is on.
//!
//! A top-level reading is also the attached sentinel's batch latency.
//! Phases are inclusive: a nested probe (a settle rescan inside `evict`,
//! the sub-phases of `finalize`) names its parent. Per-batch facts are
//! counted alike: one `PipelineMetrics::count` call bumps the `emd_*`
//! counters and the sentinel's [`BatchObservation`].
//!
//! Metric names follow `emd_<area>_<metric>_<unit>` (see DESIGN.md
//! § "Observability").

use emd_obs::{Counter, Gauge, Histogram, Registry, Snapshot};
use emd_sentinel::BatchObservation;
use emd_trace::{TraceEvent, TraceEventKind, TracePhase, TraceSink};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cumulative wall-clock nanoseconds spent in each pipeline phase over
/// one run (one `GlobalizerState`'s lifetime). Accumulated at phase-call
/// granularity regardless of the metrics flag; excluded from output
/// equality comparisons, so instrumented and uninstrumented runs stay
/// bit-identical where it matters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Local EMD inference (per-sentence plug-in calls).
    pub local_infer_ns: u64,
    /// TweetBase record storage + CTrie seed registration.
    pub ingest_ns: u64,
    /// Mention extraction / occurrence scan (staging, all shards).
    pub scan_ns: u64,
    /// Sequential apply: candidate pool updates + embedding pooling.
    pub pool_ns: u64,
    /// Candidate classification (scoring + label application).
    pub classify_ns: u64,
    /// Adjacent-pair promotion search at stream close.
    pub promotion_ns: u64,
    /// Output assembly (per-sentence span emission).
    pub emit_ns: u64,
    /// Whole finalize call (closing rescan + γ resolution + emit).
    pub finalize_ns: u64,
    /// Window enforcement: settling rescans, record eviction, candidate
    /// pruning, and state compaction.
    pub evict_ns: u64,
}

impl PhaseTimings {
    /// `(phase name, cumulative ns)` pairs in pipeline order, for tables
    /// and JSON reports.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("local_infer_ns", self.local_infer_ns),
            ("ingest_ns", self.ingest_ns),
            ("scan_ns", self.scan_ns),
            ("pool_ns", self.pool_ns),
            ("classify_ns", self.classify_ns),
            ("promotion_ns", self.promotion_ns),
            ("emit_ns", self.emit_ns),
            ("finalize_ns", self.finalize_ns),
            ("evict_ns", self.evict_ns),
        ]
    }
}

macro_rules! pipeline_metrics {
    (
        counters { $($cfield:ident => $cname:literal),* $(,)? }
        gauges { $($gfield:ident => $gname:literal),* $(,)? }
        histograms { $($hfield:ident => $hname:literal),* $(,)? }
    ) => {
        /// Named handles for every pipeline metric, resolved once against
        /// a registry so hot paths never take the registry lock.
        #[derive(Debug, Clone)]
        pub struct PipelineMetrics {
            $(#[doc = concat!("`", $cname, "`")] pub $cfield: Counter,)*
            $(#[doc = concat!("`", $gname, "`")] pub $gfield: Gauge,)*
            $(#[doc = concat!("`", $hname, "`")] pub $hfield: Histogram,)*
        }

        impl PipelineMetrics {
            /// Resolve (get-or-create) every pipeline metric in `registry`.
            pub fn from_registry(registry: &Registry) -> PipelineMetrics {
                PipelineMetrics {
                    $($cfield: registry.counter($cname),)*
                    $($gfield: registry.gauge($gname),)*
                    $($hfield: registry.histogram($hname),)*
                }
            }

            /// A point-in-time [`Snapshot`] of the pipeline metrics alone
            /// (unlike [`Registry::snapshot`], unrelated metrics sharing
            /// the registry are not included). Sorted by name within each
            /// kind, like a registry snapshot.
            pub fn snapshot(&self) -> Snapshot {
                let mut snap = Snapshot::default();
                $(snap.counters.push(emd_obs::CounterSnapshot {
                    name: $cname.to_string(),
                    value: self.$cfield.get(),
                });)*
                $(snap.gauges.push(emd_obs::GaugeSnapshot {
                    name: $gname.to_string(),
                    value: self.$gfield.get(),
                });)*
                $(snap.histograms.push(self.$hfield.snapshot($hname));)*
                snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
                snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
                snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
                snap
            }
        }
    };
}

pipeline_metrics! {
    counters {
        sentences_total => "emd_pipeline_sentences_total",
        local_spans_total => "emd_pipeline_local_spans_total",
        trie_inserts_total => "emd_trie_inserts_total",
        scan_records_total => "emd_scan_records_total",
        scan_mentions_total => "emd_scan_mentions_total",
        pool_embeddings_total => "emd_pool_embeddings_total",
        classify_candidates_total => "emd_classify_candidates_total",
        finalize_rescan_sentences_total => "emd_finalize_rescan_sentences_total",
        finalize_promotion_rounds_total => "emd_finalize_promotion_rounds_total",
        finalize_promotions_total => "emd_finalize_promotions_total",
        quarantined_total => "emd_resilience_quarantined_total",
        shard_retries_total => "emd_resilience_shard_retries_total",
        item_retries_total => "emd_resilience_item_retries_total",
        trace_events_total => "emd_trace_events_total",
        trace_dropped_events_total => "emd_trace_dropped_events_total",
        evicted_records_total => "emd_window_evicted_records_total",
        pruned_candidates_total => "emd_window_pruned_candidates_total",
        compactions_total => "emd_window_compactions_total",
        sentinel_alerts_total => "emd_sentinel_alerts_total",
        sentinel_drift_total => "emd_sentinel_drift_total",
        sentinel_transitions_total => "emd_sentinel_transitions_total",
        sentinel_slo_burn_total => "emd_sentinel_slo_burn_batches_total",
        guard_admitted_total => "emd_guard_admitted_batches_total",
        guard_shed_total => "emd_guard_shed_batches_total",
        guard_deadline_exceeded_total => "emd_guard_deadline_exceeded_total",
        guard_breaker_transitions_total => "emd_guard_breaker_transitions_total",
        guard_backoff_retries_total => "emd_guard_backoff_retries_total",
        deadletter_records_total => "emd_resilience_deadletter_records_total",
        checkpoint_fallbacks_total => "emd_resilience_checkpoint_fallbacks_total",
    }
    gauges {
        dirty_depth => "emd_finalize_dirty_depth",
        rescan_coverage => "emd_finalize_rescan_coverage",
        degraded_candidates => "emd_resilience_degraded_candidates",
        window_depth => "emd_window_depth",
        resident_bytes => "emd_window_resident_bytes",
        sentinel_health => "emd_sentinel_health",
        guard_queue_depth => "emd_guard_queue_depth",
        guard_breaker_open => "emd_guard_breaker_open",
        guard_backpressure => "emd_guard_backpressure",
    }
    histograms {
        local_infer_ns => "emd_pipeline_local_infer_ns",
        ingest_ns => "emd_pipeline_ingest_ns",
        trie_register_ns => "emd_trie_register_ns",
        scan_ns => "emd_pipeline_scan_ns",
        scan_shard_ns => "emd_pipeline_scan_shard_ns",
        pool_ns => "emd_pipeline_pool_ns",
        classify_ns => "emd_pipeline_classify_ns",
        finalize_ns => "emd_pipeline_finalize_ns",
        evict_ns => "emd_pipeline_evict_ns",
        checkpoint_write_ns => "emd_resilience_checkpoint_write_ns",
        checkpoint_wait_ns => "emd_resilience_checkpoint_wait_ns",
        checkpoint_restore_ns => "emd_resilience_checkpoint_restore_ns",
    }
}

impl PipelineMetrics {
    /// Handles into the process-wide [`emd_obs::global`] registry — the
    /// default every [`crate::Globalizer`] records to.
    pub fn global() -> PipelineMetrics {
        PipelineMetrics::from_registry(emd_obs::global())
    }

    /// Handles into a per-stream [`emd_obs::Scope`]'s registry. Samples
    /// recorded through the returned handles land only in that scope;
    /// an [`emd_obs::ScopeSet`] roll-up renders them as labeled series
    /// next to the process aggregate.
    pub fn from_scope(scope: &emd_obs::Scope) -> PipelineMetrics {
        PipelineMetrics::from_registry(scope.registry())
    }

    /// Push one trace event when tracing is on, keeping the `emd_trace_*`
    /// meta-counters in step. `ev` is built only then, so the disabled
    /// path allocates nothing; returns the event's seq, `None` when off
    /// or dropped.
    pub(crate) fn push_trace(
        &self,
        trace: &TraceSink,
        ev: impl FnOnce() -> TraceEvent,
    ) -> Option<u64> {
        if !emd_trace::enabled() {
            return None;
        }
        let seq = trace.push(ev());
        match seq {
            Some(_) => self.trace_events_total.inc(),
            None => self.trace_dropped_events_total.inc(),
        }
        seq
    }

    /// Count one slice of a batch's facts: each field of `d` adds to its
    /// `emd_*` counter, and the whole of `d` adds into `obs`, the attached
    /// sentinel's running observation, when there is one. The one place
    /// a [`BatchObservation`] field maps to its counter; the verdict
    /// split, score sum, degraded count, sheds and latency have no
    /// counter and reach the sentinel alone.
    pub(crate) fn count(&self, d: BatchObservation, obs: Option<&mut BatchObservation>) {
        for (counter, n) in [
            (&self.sentences_total, d.sentences),
            (&self.local_spans_total, d.local_spans),
            (&self.trie_inserts_total, d.trie_inserts),
            (&self.scan_mentions_total, d.scan_mentions),
            (&self.pool_embeddings_total, d.pooled),
            (&self.classify_candidates_total, d.scored),
            (&self.quarantined_total, d.quarantined),
            (&self.evicted_records_total, d.evicted),
            (&self.pruned_candidates_total, d.pruned),
            (&self.finalize_promotions_total, d.promoted),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
        if let Some(o) = obs {
            o.sentences += d.sentences;
            o.local_spans += d.local_spans;
            o.trie_inserts += d.trie_inserts;
            o.scan_mentions += d.scan_mentions;
            o.pooled += d.pooled;
            o.scored += d.scored;
            o.accepted += d.accepted;
            o.rejected += d.rejected;
            o.ambiguous += d.ambiguous;
            o.score_sum += d.score_sum;
            o.quarantined += d.quarantined;
            o.degraded += d.degraded;
            o.evicted += d.evicted;
            o.pruned += d.pruned;
            o.promoted += d.promoted;
            o.shed += d.shed;
            o.latency_ns += d.latency_ns;
        }
    }
}

/// The views one phase's readings accrue into: its [`PhaseTimings`]
/// field and, for the phases that have one, its `emd_pipeline_*_ns`
/// histogram (promotion and emit have none). The finalize-time rescan
/// accrues into the scan views. The one place a [`TracePhase`] maps
/// onto the phase views.
pub(crate) fn phase_views<'t, 'm>(
    phase: TracePhase,
    timings: &'t mut PhaseTimings,
    metrics: &'m PipelineMetrics,
) -> (&'t mut u64, Option<&'m Histogram>) {
    match phase {
        TracePhase::LocalInfer => (&mut timings.local_infer_ns, Some(&metrics.local_infer_ns)),
        TracePhase::Ingest => (&mut timings.ingest_ns, Some(&metrics.ingest_ns)),
        TracePhase::Scan | TracePhase::FinalizeRescan => {
            (&mut timings.scan_ns, Some(&metrics.scan_ns))
        }
        TracePhase::Pool => (&mut timings.pool_ns, Some(&metrics.pool_ns)),
        TracePhase::Classify => (&mut timings.classify_ns, Some(&metrics.classify_ns)),
        TracePhase::Promotion => (&mut timings.promotion_ns, None),
        TracePhase::Emit => (&mut timings.emit_ns, None),
        TracePhase::Finalize => (&mut timings.finalize_ns, Some(&metrics.finalize_ns)),
        TracePhase::Evict => (&mut timings.evict_ns, Some(&metrics.evict_ns)),
        TracePhase::TrieRegister | TracePhase::Supervisor => {
            unreachable!("{} has no phase views", phase.name())
        }
    }
}

/// One phase call's observation: a single clock reading that
/// [`PhaseProbe::finish`] fans out to the phase's [`PhaseTimings`]
/// field, its histogram and its `PhaseSpan` trace event (see the module
/// doc). A probe dropped unfinished, e.g. by a panic unwinding through
/// the phase, records nothing in any view.
#[must_use = "a probe records only when finished"]
#[derive(Debug)]
pub(crate) struct PhaseProbe<'a> {
    metrics: &'a PipelineMetrics,
    trace: &'a TraceSink,
    phase: TracePhase,
    parent: Option<TracePhase>,
    system: Option<&'a str>,
    /// The trace's next sequence number at start, captured only when
    /// both the metrics and the trace switches are on: the first event
    /// the phase emits gets it, so the histogram bucket links into the
    /// trace.
    exemplar: Option<u64>,
    t0: Instant,
}

impl<'a> PhaseProbe<'a> {
    /// Start observing `phase`, nested under `parent` (`None` for a
    /// top-level phase). `system` names the Local EMD system on the
    /// local-inference span.
    pub(crate) fn start(
        metrics: &'a PipelineMetrics,
        trace: &'a TraceSink,
        phase: TracePhase,
        parent: Option<TracePhase>,
        system: Option<&'a str>,
    ) -> PhaseProbe<'a> {
        let exemplar = (emd_obs::enabled() && emd_trace::enabled()).then(|| trace.next_seq());
        PhaseProbe {
            metrics,
            trace,
            phase,
            parent,
            system,
            exemplar,
            t0: Instant::now(),
        }
    }

    /// The phase this probe nests under, if any.
    pub(crate) fn parent(&self) -> Option<TracePhase> {
        self.parent
    }

    /// Take the one reading and feed it to every view; returns it in
    /// nanoseconds.
    pub(crate) fn finish(self, timings: &mut PhaseTimings) -> u64 {
        let ns = self.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let (field, hist) = phase_views(self.phase, timings, self.metrics);
        *field += ns;
        if let Some(hist) = hist {
            hist.record_with_exemplar(ns, self.exemplar);
        }
        self.metrics.push_trace(self.trace, || TraceEvent {
            phase: Some(self.phase),
            parent: self.parent,
            dur_ns: Some(ns),
            system: self.system.map(str::to_string),
            ..TraceEvent::of(TraceEventKind::PhaseSpan)
        });
        ns
    }
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics::global()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Set the process-wide emd-obs switch for a test. Tests that flip
    /// the switch hold the returned lock, so one that turns recording off
    /// cannot interleave with one that needs it on.
    pub(crate) fn obs_switch(on: bool) -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        emd_obs::set_enabled(on);
        guard
    }

    #[test]
    fn snapshot_contains_every_pipeline_metric() {
        let reg = Registry::new();
        let m = PipelineMetrics::from_registry(&reg);
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 29);
        assert_eq!(snap.gauges.len(), 9);
        assert_eq!(snap.histograms.len(), 12);
        assert!(snap.counter("emd_guard_admitted_batches_total").is_some());
        assert!(snap.counter("emd_guard_shed_batches_total").is_some());
        assert!(snap.counter("emd_guard_deadline_exceeded_total").is_some());
        assert!(snap
            .counter("emd_guard_breaker_transitions_total")
            .is_some());
        assert!(snap.counter("emd_guard_backoff_retries_total").is_some());
        assert!(snap
            .counter("emd_resilience_deadletter_records_total")
            .is_some());
        assert!(snap
            .counter("emd_resilience_checkpoint_fallbacks_total")
            .is_some());
        assert!(snap.gauge("emd_guard_queue_depth").is_some());
        assert!(snap.gauge("emd_guard_breaker_open").is_some());
        assert!(snap.gauge("emd_guard_backpressure").is_some());
        assert!(snap.counter("emd_sentinel_alerts_total").is_some());
        assert!(snap.counter("emd_sentinel_drift_total").is_some());
        assert!(snap.counter("emd_sentinel_transitions_total").is_some());
        assert!(snap
            .counter("emd_sentinel_slo_burn_batches_total")
            .is_some());
        assert!(snap.gauge("emd_sentinel_health").is_some());
        assert!(snap.counter("emd_trie_inserts_total").is_some());
        assert!(snap.counter("emd_window_evicted_records_total").is_some());
        assert!(snap.counter("emd_window_pruned_candidates_total").is_some());
        assert!(snap.counter("emd_window_compactions_total").is_some());
        assert!(snap.gauge("emd_window_depth").is_some());
        assert!(snap.gauge("emd_window_resident_bytes").is_some());
        assert!(snap.histogram("emd_pipeline_evict_ns").is_some());
        assert!(snap.counter("emd_trace_events_total").is_some());
        assert!(snap.counter("emd_trace_dropped_events_total").is_some());
        assert!(snap.counter("emd_resilience_quarantined_total").is_some());
        assert!(snap.gauge("emd_resilience_degraded_candidates").is_some());
        assert!(snap.histogram("emd_pipeline_scan_shard_ns").is_some());
        assert!(snap
            .histogram("emd_resilience_checkpoint_write_ns")
            .is_some());
        assert!(snap
            .histogram("emd_resilience_checkpoint_wait_ns")
            .is_some());
        let sorted: Vec<_> = snap.counters.iter().map(|c| c.name.clone()).collect();
        let mut expect = sorted.clone();
        expect.sort();
        assert_eq!(sorted, expect, "snapshot is name-sorted");
    }

    #[test]
    fn phase_timings_pairs_cover_all_fields() {
        let t = PhaseTimings {
            local_infer_ns: 1,
            ingest_ns: 2,
            scan_ns: 3,
            pool_ns: 4,
            classify_ns: 5,
            promotion_ns: 6,
            emit_ns: 7,
            finalize_ns: 8,
            evict_ns: 9,
        };
        let pairs = t.as_pairs();
        assert_eq!(pairs.len(), 9);
        let sum: u64 = pairs.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, 45);
    }

    #[test]
    fn one_count_call_feeds_counters_and_observation() {
        let _obs = obs_switch(true);
        let m = PipelineMetrics::from_registry(&Registry::new());
        let d = BatchObservation {
            sentences: 3,
            scored: 2,
            accepted: 1,
            score_sum: 1.5,
            promoted: 4,
            latency_ns: 9,
            ..BatchObservation::default()
        };
        let mut obs = BatchObservation::default();
        m.count(d.clone(), Some(&mut obs));
        m.count(d.clone(), None);
        assert_eq!(obs, d);
        assert_eq!(m.sentences_total.get(), 6);
        assert_eq!(m.classify_candidates_total.get(), 4);
        assert_eq!(m.finalize_promotions_total.get(), 8);
    }

    #[test]
    fn one_probe_reading_feeds_timings_and_histogram() {
        let _obs = obs_switch(true);
        let m = PipelineMetrics::from_registry(&Registry::new());
        let sink = TraceSink::with_capacity(16);
        let mut t = PhaseTimings::default();
        let fin = Some(TracePhase::Finalize);
        let scan = PhaseProbe::start(&m, &sink, TracePhase::FinalizeRescan, fin, None);
        let a = scan.finish(&mut t);
        let b = PhaseProbe::start(&m, &sink, TracePhase::Emit, fin, None).finish(&mut t);
        assert_eq!((t.scan_ns, t.emit_ns), (a, b));
        assert_eq!((m.scan_ns.count(), m.scan_ns.sum()), (1, a));
    }

    /// With emd-obs off the probe still times the phase into
    /// `PhaseTimings` and the trace, but reads no exemplar seq at start
    /// and records nothing into the histogram.
    #[test]
    fn noop_probe_reads_no_exemplar_and_records_no_sample() {
        let _obs = obs_switch(false);
        emd_trace::set_enabled(true);
        let m = PipelineMetrics::from_registry(&Registry::new());
        let sink = TraceSink::with_capacity(16);
        let mut t = PhaseTimings::default();
        let probe = PhaseProbe::start(&m, &sink, TracePhase::Classify, None, None);
        let exemplar = probe.exemplar;
        let ns = probe.finish(&mut t);
        emd_trace::set_enabled(false);
        assert_eq!(exemplar, None);
        assert_eq!(t.classify_ns, ns);
        assert_eq!(m.classify_ns.count(), 0);
        let spans = sink.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, Some(ns));
    }

    #[test]
    fn phase_timings_serde_round_trip() {
        let t = PhaseTimings {
            local_infer_ns: 10,
            scan_ns: 30,
            ..Default::default()
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: PhaseTimings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
