//! # emd-core
//!
//! The paper's primary contribution: the **EMD Globalizer** framework
//! (Saha Bhowmick, Dragut & Meng, ICDE 2022) — a stream-aware, two-phase
//! entity-mention-detection pipeline that wraps any existing EMD system:
//!
//! 1. **Local EMD** ([`local::LocalEmd`]): a pluggable black-box tagger runs
//!    over each tweet-sentence in isolation, proposing seed entity
//!    candidates and (for deep systems) per-token *entity-aware embeddings*.
//! 2. **Global EMD**:
//!    * candidates are indexed in a case-insensitive prefix-trie forest, the
//!      [`ctrie::CTrie`];
//!    * a rescan of the stream ([`mention`]) finds *every* mention of every
//!      candidate — recovering mentions the local system missed and
//!      correcting partial extractions;
//!    * each mention yields a *local candidate embedding*: for deep systems
//!      the [`phrase_embedder::PhraseEmbedder`] (an SBERT-style frozen-
//!      encoder siamese head) pools token embeddings into a phrase vector;
//!      for non-deep systems the 6-dimensional syntactic embedding of
//!      §V-B1 ([`emd_text::casing::SyntacticClass`]) is used;
//!    * embeddings pool incrementally per candidate in the
//!      [`candidatebase::CandidateBase`] into a *global candidate embedding*;
//!    * the [`classifier::EntityClassifier`] separates true entities from
//!      false positives using the α/β/γ thresholds of §V-C;
//!    * all mentions of accepted candidates are emitted.
//!
//! The [`globalizer::Globalizer`] orchestrates both phases, supports batch
//! and incremental execution, and exposes the ablation modes of the paper's
//! Figure 6.

pub mod adjacency;
pub mod candidatebase;
pub mod classifier;
pub mod config;
pub mod ctrie;
pub mod dirtyset;
pub mod globalizer;
pub mod local;
pub mod mention;
mod migrate;
pub mod obs;
pub mod phrase_embedder;
pub mod supervisor;
pub mod training;
pub mod tweetbase;

pub use classifier::{CandidateLabel, EntityClassifier};
pub use config::{Ablation, GlobalizerConfig};
pub use ctrie::CTrie;
pub use globalizer::{Globalizer, GlobalizerOutput};
pub use local::{LocalEmd, LocalEmdOutput};
pub use obs::{PhaseTimings, PipelineMetrics};
pub use phrase_embedder::PhraseEmbedder;
pub use supervisor::{RunReport, StreamSupervisor, SupervisorConfig, SupervisorConfigError};
