//! Framework configuration.

use serde::{Deserialize, Serialize};

/// Which portion of the pipeline to run — the ablation modes of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ablation {
    /// Local EMD only (bottom curve).
    LocalOnly,
    /// Local EMD + candidate mention extraction, no classifier (middle
    /// curve): all mentions of all seed candidates are emitted.
    MentionExtraction,
    /// The full framework (top curve).
    Full,
}

/// How per-mention local embeddings pool into the global candidate
/// embedding. The paper uses the mean ("average pooling"); max pooling is
/// provided for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pooling {
    /// Arithmetic mean over mentions (the paper's choice).
    Mean,
    /// Coordinate-wise maximum over mentions.
    Max,
}

/// Bounded-memory streaming policy: a sliding window over the sentence
/// store plus frequency-decay pruning of the candidate pool. Disabled by
/// default (`max_sentences: 0`), preserving the unbounded semantics every
/// offline experiment uses; 24/7 deployments set a window so resident
/// state tracks the live window instead of the whole stream (the paper's
/// Figure 7 shows old low-frequency candidates stop contributing to
/// global-embedding quality — the license to forget them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Maximum live sentences retained; the oldest records beyond this are
    /// evicted (record, posting-list entries, and token embeddings) after
    /// every batch. `0` disables windowing entirely.
    pub max_sentences: usize,
    /// Frequency-decay candidate pruning: a candidate is dropped — with
    /// its CTrie path — once *all* of its mentions have been evicted, it
    /// holds no Entity verdict, and its mention frequency is at most this
    /// value. `0` disables pruning. Ignored unless `max_sentences > 0`.
    pub prune_max_frequency: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            max_sentences: 0,
            prune_max_frequency: 2,
        }
    }
}

impl WindowConfig {
    /// A sliding window of `max_sentences` with the default pruning knobs.
    pub fn sliding(max_sentences: usize) -> WindowConfig {
        WindowConfig {
            max_sentences,
            ..Default::default()
        }
    }

    /// Is windowed eviction enabled?
    pub fn enabled(&self) -> bool {
        self.max_sentences > 0
    }
}

/// Globalizer hyperparameters (§V-C values as defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalizerConfig {
    /// α: candidates scoring `≥ alpha` are confidently entities.
    pub alpha: f32,
    /// β: candidates scoring `≤ beta` are confidently non-entities.
    pub beta: f32,
    /// End-of-stream resolution threshold for candidates still in the
    /// ambiguous γ band (see DESIGN.md).
    pub final_threshold: f32,
    /// Maximum candidate length in tokens (the `k` of §V-A).
    pub max_candidate_len: usize,
    /// Pipeline ablation mode.
    pub ablation: Ablation,
    /// Global-embedding pooling strategy.
    pub pooling: Pooling,
    /// End-of-stream γ resolution: when true (default), a still-ambiguous
    /// candidate falls back to the local system's judgment (accepted iff
    /// the local system detected at least half of its mentions); when
    /// false, the bare `final_threshold` decides.
    pub trust_local_fallback: bool,
    /// Adjacent-candidate promotion support at stream close: when two
    /// candidates are extracted adjacent to each other at least this many
    /// times — and in at least half the occurrences of the rarer of the
    /// two — the concatenation is promoted to a candidate of its own and
    /// the affected sentences are rescanned. Recovers multi-token entities
    /// the local system only ever detects in fragments. `0` disables.
    pub promotion_support: usize,
    /// Poison-message retry budget: how many times a panicking per-item
    /// unit of work (one sentence's local inference or ingest, one
    /// record's rescan, one candidate's classification) is retried before
    /// the item is quarantined (sentences) or marked degraded
    /// (candidates). Total attempts per item = `poison_retries + 1`.
    pub poison_retries: usize,
    /// Bounded-memory streaming policy (sliding window + candidate
    /// pruning). Default: unbounded.
    pub window: WindowConfig,
}

impl Default for GlobalizerConfig {
    fn default() -> Self {
        GlobalizerConfig {
            alpha: 0.55,
            beta: 0.40,
            final_threshold: 0.5,
            max_candidate_len: 6,
            ablation: Ablation::Full,
            pooling: Pooling::Mean,
            trust_local_fallback: true,
            promotion_support: 3,
            poison_retries: 1,
            window: WindowConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GlobalizerConfig::default();
        assert_eq!(c.alpha, 0.55);
        assert_eq!(c.beta, 0.40);
        assert_eq!(c.ablation, Ablation::Full);
        assert_eq!(c.pooling, Pooling::Mean);
        assert!(c.trust_local_fallback);
        assert!(c.beta < c.final_threshold && c.final_threshold < c.alpha);
        assert!(!c.window.enabled(), "default is the unbounded regime");
    }

    #[test]
    fn window_config_knobs() {
        let w = WindowConfig::sliding(1000);
        assert!(w.enabled());
        assert_eq!(w.max_sentences, 1000);
        assert_eq!(w.prune_max_frequency, 2);
        assert!(!WindowConfig::default().enabled());
    }
}
