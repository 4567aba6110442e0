//! Capitalization analysis.
//!
//! Two levels of analysis live here:
//!
//! * [`CapShape`] — the orthographic shape of a single token, used as a
//!   feature by the CRF tagger and the neural encoders.
//! * [`SyntacticClass`] — the six syntactic context classes of §V-B1 of the
//!   paper, describing *how a candidate mention is capitalized relative to
//!   its sentence*. For non-deep Local EMD systems these six classes are the
//!   entire local candidate embedding (a 6-dimensional one-hot that is then
//!   pooled over all mentions of the candidate).
//!
//! A class depends only on the tokens' shapes and on whether the
//! sentence's casing is informative, so [`syntactic_class`] reads a
//! [`Cased`] profile, which stores both (the sentence store keeps one per
//! record instead of the text; [`Cased::of`] derives one from a
//! [`Sentence`]).

use crate::token::{Sentence, SentenceId, Span};
use serde::value::Value;
use serde::{ser, DeError, Deserialize, Serialize};

/// Orthographic shape of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CapShape {
    /// `Coronavirus` — first char uppercase, rest lowercase.
    Init,
    /// `CORONAVIRUS`, `UK` — every alphabetic char uppercase (≥1 char).
    AllUpper,
    /// `coronavirus` — every alphabetic char lowercase.
    AllLower,
    /// `iPhone`, `McDonald` — mixed case not covered above.
    Mixed,
    /// `#covid`, `123`, `!!!` — no alphabetic characters at all.
    NonAlpha,
}

impl CapShape {
    /// Classify a token's shape.
    pub fn of(token: &str) -> CapShape {
        let mut has_alpha = false;
        let mut all_upper = true;
        let mut all_lower = true;
        let mut first_alpha_upper = false;
        let mut rest_lower = true;
        let mut seen_first = false;
        for c in token.chars() {
            if c.is_alphabetic() {
                has_alpha = true;
                if c.is_uppercase() {
                    all_lower = false;
                    if !seen_first {
                        first_alpha_upper = true;
                    } else {
                        rest_lower = false;
                    }
                } else {
                    all_upper = false;
                }
                seen_first = true;
            }
        }
        if !has_alpha {
            CapShape::NonAlpha
        } else if all_upper {
            CapShape::AllUpper
        } else if all_lower {
            CapShape::AllLower
        } else if first_alpha_upper && rest_lower {
            CapShape::Init
        } else {
            CapShape::Mixed
        }
    }

    /// Dense feature index (stable across the workspace).
    pub fn index(self) -> usize {
        match self {
            CapShape::Init => 0,
            CapShape::AllUpper => 1,
            CapShape::AllLower => 2,
            CapShape::Mixed => 3,
            CapShape::NonAlpha => 4,
        }
    }

    /// Number of shapes.
    pub const COUNT: usize = 5;
}

/// The six syntactic possibilities in which a candidate mention can be
/// presented (§V-B1). The one-hot over these classes is the *local
/// syntactic embedding* used when the Local EMD system is non-deep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntacticClass {
    /// (1) First character of every candidate token capitalized, and the
    /// evidence is discriminative (not start-of-sentence, sentence not
    /// uniformly cased).
    ProperCapitalization,
    /// (2) A unigram candidate capitalized at the start of the sentence —
    /// capitalization could be merely sentence-initial convention.
    StartOfSentenceCap,
    /// (3) Only a proper substring of a multi-gram candidate is capitalized.
    SubstringCapitalization,
    /// (4) Entire string uppercase — abbreviations like `UN`, `UK`.
    FullCapitalization,
    /// (5) Entire string lowercase.
    NoCapitalization,
    /// (6) The enclosing sentence is uniformly upper/lower/title-cased, so
    /// the mention's casing carries no signal.
    NonDiscriminative,
}

impl SyntacticClass {
    /// Dense index, stable ordering (matches the paper's enumeration 1–6).
    pub fn index(self) -> usize {
        match self {
            SyntacticClass::ProperCapitalization => 0,
            SyntacticClass::StartOfSentenceCap => 1,
            SyntacticClass::SubstringCapitalization => 2,
            SyntacticClass::FullCapitalization => 3,
            SyntacticClass::NoCapitalization => 4,
            SyntacticClass::NonDiscriminative => 5,
        }
    }

    /// Number of classes — the dimensionality of the syntactic embedding.
    pub const COUNT: usize = 6;

    /// One-hot vector for this class.
    pub fn one_hot(self) -> [f32; Self::COUNT] {
        let mut v = [0.0; Self::COUNT];
        v[self.index()] = 1.0;
        v
    }
}

/// A sentence's casing without its text: its id, one [`CapShape`] per
/// token, and the casing bit, computed once from the shapes. This is
/// what a stored sentence keeps for [`syntactic_class`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cased {
    /// Stream-level identifier of the sentence.
    pub id: SentenceId,
    shapes: Box<[CapShape]>,
    informative: bool,
}

impl Cased {
    /// Profile built from `shapes`, deriving the casing bit.
    pub fn new(id: SentenceId, shapes: Vec<CapShape>) -> Cased {
        let informative = !shapes_uninformative(shapes.iter().copied());
        Cased {
            id,
            shapes: shapes.into_boxed_slice(),
            informative,
        }
    }

    /// The profile of `sentence`.
    pub fn of(sentence: &Sentence) -> Cased {
        Cased::new(sentence.id, sentence.texts().map(CapShape::of).collect())
    }

    /// Shape of each token, in order.
    pub fn shapes(&self) -> &[CapShape] {
        &self.shapes
    }

    /// False when the sentence is uniformly cased (see
    /// [`sentence_casing_uninformative`]), so no mention's casing carries
    /// a signal.
    pub fn casing_informative(&self) -> bool {
        self.informative
    }
}

/// The letter a checkpoint writes for each shape, in [`CapShape::index`]
/// order: the shape's initial (`U`pper and `L`ower for the `All` ones).
const SHAPE_LETTERS: [(CapShape, char); CapShape::COUNT] = [
    (CapShape::Init, 'I'),
    (CapShape::AllUpper, 'U'),
    (CapShape::AllLower, 'L'),
    (CapShape::Mixed, 'M'),
    (CapShape::NonAlpha, 'N'),
];

/// Encoded as `{"id":..,"shapes":"<one letter per token>"}`; the casing
/// bit is derived from the shapes at decode. A stored sentence from
/// before profiles (`{"id":..,"tokens":[..]}`) decodes to its profile.
impl Serialize for Cased {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        out.push_str("{\"id\":");
        self.id.write_json(out);
        out.push_str(",\"shapes\":\"");
        for s in self.shapes.iter() {
            out.push(SHAPE_LETTERS[s.index()].1);
        }
        out.push_str("\"}");
    }
}

impl Deserialize for Cased {
    fn from_value(v: &Value) -> Result<Cased, DeError> {
        let Some(shapes) = v.get_field("shapes") else {
            return Sentence::from_value(v).map(|s| Cased::of(&s));
        };
        let id = match v.get_field("id") {
            Some(id) => SentenceId::from_value(id)?,
            None => return Err(DeError::msg("missing field `id` in `Cased`")),
        };
        let letters = shapes
            .as_str()
            .ok_or_else(|| DeError::msg("`shapes` is not a string"))?;
        let shapes = letters
            .chars()
            .map(|c| match SHAPE_LETTERS.iter().find(|&&(_, l)| l == c) {
                Some(&(shape, _)) => Ok(shape),
                None => Err(DeError::msg(format!("unknown token shape {c:?}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cased::new(id, shapes))
    }
}

/// Are these shapes (one per token) a uniformly cased sentence? True when
/// there are at least two alphabetic tokens and they are all lowercase,
/// or all title-cased or uppercase (all uppercase included). One pass,
/// no allocation.
fn shapes_uninformative(shapes: impl IntoIterator<Item = CapShape>) -> bool {
    let mut n_alpha = 0usize;
    let mut all_lower = true;
    let mut all_title = true;
    for sh in shapes {
        match sh {
            CapShape::NonAlpha => continue,
            CapShape::AllLower => all_title = false,
            CapShape::Init | CapShape::AllUpper => all_lower = false,
            CapShape::Mixed => {
                all_lower = false;
                all_title = false;
            }
        }
        n_alpha += 1;
    }
    // Single-word (or empty) sentences cannot establish a convention.
    n_alpha >= 2 && (all_lower || all_title)
}

/// Is the sentence's casing uninformative? True when every alphabetic token
/// shares the same shape: all lowercase, all uppercase, or all title-cased
/// (first char capitalized on every word).
pub fn sentence_casing_uninformative(sentence: &Sentence) -> bool {
    shapes_uninformative(sentence.texts().map(CapShape::of))
}

/// Classify the syntactic context of a candidate mention `span` within
/// `sentence` into one of the six classes of §V-B1. One pass over the
/// span's shapes, no allocation.
pub fn syntactic_class(sentence: &Cased, span: &Span) -> SyntacticClass {
    if !sentence.informative {
        return SyntacticClass::NonDiscriminative;
    }
    let mut any_alpha = false;
    let mut all_upper = true;
    let mut all_lower = true;
    let mut all_capitalized = true;
    for &shape in &sentence.shapes[span.start..span.end] {
        match shape {
            CapShape::NonAlpha => continue,
            CapShape::AllUpper => all_lower = false,
            CapShape::AllLower => {
                all_upper = false;
                all_capitalized = false;
            }
            CapShape::Init | CapShape::Mixed => {
                all_upper = false;
                all_lower = false;
            }
        }
        any_alpha = true;
    }
    if !any_alpha {
        return SyntacticClass::NonDiscriminative;
    }
    // Multi-char full caps = abbreviation-style. Single letters like "I"
    // also land here; acceptable.
    if all_upper {
        return SyntacticClass::FullCapitalization;
    }
    if all_lower {
        return SyntacticClass::NoCapitalization;
    }
    if all_capitalized {
        if span.len() == 1 && span.start == 0 {
            return SyntacticClass::StartOfSentenceCap;
        }
        return SyntacticClass::ProperCapitalization;
    }
    // Some tokens capitalized, some not → substring capitalization.
    SyntacticClass::SubstringCapitalization
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(words: &[&str]) -> Sentence {
        Sentence::from_tokens(SentenceId::new(0, 0), words.iter().copied())
    }

    #[test]
    fn cap_shapes() {
        assert_eq!(CapShape::of("Coronavirus"), CapShape::Init);
        assert_eq!(CapShape::of("CORONAVIRUS"), CapShape::AllUpper);
        assert_eq!(CapShape::of("coronavirus"), CapShape::AllLower);
        assert_eq!(CapShape::of("iPhone"), CapShape::Mixed);
        assert_eq!(CapShape::of("McDonald"), CapShape::Mixed);
        assert_eq!(CapShape::of("123"), CapShape::NonAlpha);
        assert_eq!(CapShape::of("UK"), CapShape::AllUpper);
        assert_eq!(CapShape::of("#tag"), CapShape::AllLower); // 'tag' chars decide
    }

    #[test]
    fn proper_capitalization() {
        let s = sent(&["Trump", "to", "rank", "US", "counties"]);
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(0, 1)),
            SyntacticClass::StartOfSentenceCap // unigram at sentence start
        );
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(3, 4)),
            SyntacticClass::FullCapitalization
        );
    }

    #[test]
    fn proper_cap_multi_token() {
        let s = sent(&["Andy", "Beshear", "says", "things"]);
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(0, 2)),
            SyntacticClass::ProperCapitalization
        );
    }

    #[test]
    fn proper_cap_mid_sentence() {
        let s = sent(&["the", "governor", "Beshear", "spoke"]);
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(2, 3)),
            SyntacticClass::ProperCapitalization
        );
    }

    #[test]
    fn substring_capitalization() {
        let s = sent(&["watch", "Andy", "beshear", "tonight"]);
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(1, 3)),
            SyntacticClass::SubstringCapitalization
        );
    }

    #[test]
    fn no_capitalization() {
        let s = sent(&["the", "coronavirus", "Spreads", "fast"]);
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(1, 2)),
            SyntacticClass::NoCapitalization
        );
    }

    #[test]
    fn non_discriminative_all_caps_sentence() {
        let s = sent(&[
            "WE",
            "JUST",
            "BYPASS",
            "ITALY",
            "WITH",
            "CORONAVIRUS",
            "CASES",
        ]);
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(3, 4)),
            SyntacticClass::NonDiscriminative
        );
        assert!(sentence_casing_uninformative(&s));
    }

    #[test]
    fn non_discriminative_all_lower_sentence() {
        let s = sent(&["italy", "is", "rising", "fast"]);
        assert!(sentence_casing_uninformative(&s));
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(0, 1)),
            SyntacticClass::NonDiscriminative
        );
    }

    #[test]
    fn title_case_sentence_uninformative() {
        let s = sent(&["Every", "Word", "Here", "Is", "Capitalized"]);
        assert!(sentence_casing_uninformative(&s));
    }

    #[test]
    fn informative_mixed_sentence() {
        let s = sent(&["Canada", "is", "rising", "at", "a", "rate"]);
        assert!(!sentence_casing_uninformative(&s));
        assert_eq!(
            syntactic_class(&Cased::of(&s), &Span::new(0, 1)),
            SyntacticClass::StartOfSentenceCap
        );
    }

    #[test]
    fn one_hot_shape() {
        let v = SyntacticClass::FullCapitalization.one_hot();
        assert_eq!(v, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }
}
