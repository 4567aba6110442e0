//! `process_batch` shards Local EMD across the machine's threads. With a
//! deep local system (one that returns token embeddings, so every mention
//! pools a phrase embedding), it must stay bit-identical to the explicit
//! `process_batch_parallel` at 1, 2 and 3 threads: the same outputs, the
//! same pooled embedding bits, and the same closing state, checkpoint
//! text included.

use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig, PhraseEmbedder};
use emd_globalizer::nn::Matrix;
use emd_globalizer::text::token::{Sentence, SentenceId};
use serde::value::Value;

const DIM: usize = 8;

/// Lexicon spans plus token embeddings derived from each token's text and
/// position, so equal mentions in different places pool different
/// vectors and any reordering of the pooling shows in the sums' bits.
struct HashedDeep(LexiconEmd);

impl LocalEmd for HashedDeep {
    fn name(&self) -> &str {
        "HashedDeep"
    }
    fn embedding_dim(&self) -> Option<usize> {
        Some(DIM)
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let mut data = Vec::with_capacity(sentence.len() * DIM);
        for (pos, text) in sentence.texts().enumerate() {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ pos as u64;
            for b in text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            for k in 0..DIM {
                let bits = h.rotate_left(7 * k as u32);
                data.push((bits % 20_011) as f32 / 7_919.0 - 1.3);
            }
        }
        LocalEmdOutput {
            spans: self.0.process(sentence).spans,
            token_embeddings: Some(Matrix::from_vec(sentence.len(), DIM, data)),
        }
    }
}

const WORDS: [&str; 10] = [
    "italy", "covid", "beshear", "moross", "report", "cases", "the", "news", "visit", "again",
];

/// 61 sentences of 2–6 words, deterministic, with varied casing.
fn stream() -> Vec<Sentence> {
    (0..61u64)
        .map(|i| {
            let n = 2 + (i as usize * 7) % 5;
            let toks = (0..n).map(|j| {
                let mut t = WORDS[(i as usize * 3 + j * 5 + j * j) % WORDS.len()].to_string();
                if (i as usize + j).is_multiple_of(3) {
                    t[..1].make_ascii_uppercase();
                }
                t
            });
            Sentence::from_tokens(SentenceId::new(i, 0), toks)
        })
        .collect()
}

/// A checkpoint payload as a JSON tree.
struct Json(Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

/// The state's checkpoint text as a tree, with the wall-clock `timings`
/// dropped and the sentence-id index (a hash map, serialized in its
/// iteration order) sorted.
fn canonical(state: &GlobalizerState) -> Value {
    fn walk(v: Value) -> Value {
        match v {
            Value::Arr(items) => Value::Arr(items.into_iter().map(walk).collect()),
            Value::Obj(fields) => Value::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "timings")
                    .map(|(k, v)| {
                        let mut v = walk(v);
                        if let (true, Value::Arr(items)) = (k == "index", &mut v) {
                            items.sort_by_cached_key(|item| format!("{item:?}"));
                        }
                        (k, v)
                    })
                    .collect(),
            ),
            scalar => scalar,
        }
    }
    let Json(tree) = serde_json::from_str(&serde_json::to_string(state).unwrap()).unwrap();
    walk(tree)
}

/// Bit patterns of every candidate's pooled embedding, with its pooled
/// count, in discovery order.
fn pooled_bits(state: &GlobalizerState) -> Vec<(String, usize, Vec<u32>)> {
    state
        .candidates
        .entries()
        .map(|(id, c)| {
            let bits = c.global_embedding().iter().map(|x| x.to_bits()).collect();
            (state.candidate_key(id), c.n_pooled(), bits)
        })
        .collect()
}

#[test]
fn deep_process_batch_matches_explicit_thread_counts() {
    let local = HashedDeep(LexiconEmd::new(["italy", "covid", "beshear", "moross"]));
    let pe = PhraseEmbedder::new(DIM, 12, 5);
    let mut clf = EntityClassifier::new(12 + 1, 3);
    // A mild bias keeps some candidates inside the γ band at batch time,
    // so interim verdicts are part of the compared state.
    emd_globalizer::nn::param::Net::params_mut(&mut clf)
        .into_iter()
        .last()
        .unwrap()
        .value
        .data[0] = 0.4;
    let g = Globalizer::new(&local, Some(&pe), &clf, GlobalizerConfig::default());
    let stream = stream();
    for batch in [5, 7, 13, 61] {
        let run = |threads: Option<usize>| {
            let mut state = g.new_state();
            for chunk in stream.chunks(batch) {
                match threads {
                    None => g.process_batch(&mut state, chunk),
                    Some(t) => g.process_batch_parallel(&mut state, chunk, t),
                }
            }
            let out = g.finalize_with_threads(&mut state, 1);
            (out, state)
        };
        let (out, state) = run(None);
        assert!(
            state.candidates.len() > 2,
            "the stream registers candidates"
        );
        for threads in [1, 2, 3] {
            let (o, s) = run(Some(threads));
            let at = format!("batch={batch} threads={threads}");
            assert_eq!(o.per_sentence, out.per_sentence, "{at}");
            assert_eq!(o.n_candidates, out.n_candidates, "{at}");
            assert_eq!(o.n_entities, out.n_entities, "{at}");
            assert_eq!(o.n_promoted, out.n_promoted, "{at}");
            assert_eq!(pooled_bits(&s), pooled_bits(&state), "{at}");
            assert!(
                canonical(&s) == canonical(&state),
                "{at}: closing states differ"
            );
        }
    }
}
