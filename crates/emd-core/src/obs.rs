//! Pipeline observability: named metric handles for every Globalizer
//! phase, plus the always-on per-run [`PhaseTimings`] breakdown.
//!
//! Two complementary mechanisms:
//!
//! * [`PipelineMetrics`] — handles into an [`emd_obs::Registry`]
//!   (the process-wide [`emd_obs::global`] one by default). Counters,
//!   gauges, and latency histograms across runs; gated on the global
//!   enabled flag ([`emd_obs::set_enabled`]), so an uninstrumented binary
//!   pays only a relaxed load + branch per phase.
//! * [`PhaseTimings`] — cumulative per-run wall-clock nanoseconds per
//!   phase, accumulated unconditionally (one `Instant` read per phase
//!   *call*, not per record) in the [`crate::GlobalizerState`] and copied
//!   into [`crate::GlobalizerOutput::phase_timings`] at finalize. This is
//!   what experiments persist to `results/` JSON.
//!
//! Metric names follow `emd_<area>_<metric>_<unit>` (see DESIGN.md
//! § "Observability").

use emd_obs::{Counter, Gauge, Histogram, Registry, Snapshot};
use serde::{Deserialize, Serialize};

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
    /// Total nanoseconds across the batch-time phases (finalize already
    /// subsumes its sub-phases, so it is not added again).
    pub fn batch_total_ns(&self) -> u64 {
        self.local_infer_ns + self.ingest_ns + self.scan_ns + self.pool_ns + self.classify_ns
    }

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
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.batch_total_ns(), 15);
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
