//! # emd-text
//!
//! Text-processing substrate for the EMD Globalizer reproduction.
//!
//! This crate owns everything the rest of the workspace needs to turn raw
//! microblog messages into model-ready inputs:
//!
//! * a Twitter-aware [`tokenizer`] (hashtags, @-mentions, URLs, emoticons,
//!   elongations, contractions),
//! * the corpus data model ([`token::Sentence`], [`token::Span`],
//!   [`token::Dataset`], BIO conversions),
//! * capitalization-shape analysis ([`casing`]) including the six syntactic
//!   context classes of §V-B1 of the paper,
//! * a frequency-aware interning [`vocab::Vocab`], and a seeded id hasher
//!   ([`idhash`]) for tables keyed by program-assigned integers,
//! * a from-scratch byte-pair-encoding learner/encoder ([`bpe`]) used by the
//!   MiniBERT local EMD system,
//! * a lexicon + rule part-of-speech tagger ([`pos`]) standing in for
//!   TweeboParser / T-POS,
//! * [`gazetteer`] lookups producing Aguilar-style 6-dimensional lexical
//!   vectors,
//! * light text [`normalize`] utilities.
//!
//! Everything here is deterministic and allocation-conscious: hot paths
//! operate on interned `u32` token ids and borrowed `&str` slices.

pub mod bpe;
pub mod casing;
pub mod gazetteer;
pub mod idhash;
pub mod intern;
pub mod normalize;
pub mod pos;
pub mod token;
pub mod tokenizer;
pub mod vocab;

pub use casing::{CapShape, Cased, SyntacticClass};
pub use intern::{Interner, Sym};
pub use token::{AnnotatedSentence, Bio, Dataset, Sentence, SentenceId, Span, Token};
pub use tokenizer::tokenize;
pub use vocab::Vocab;
