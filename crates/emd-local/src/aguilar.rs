//! Aguilar et al. (WNUT17 winner): BiLSTM-CNN-CRF multi-feature network
//! (§IV-A.3), scaled to laptop dimensions.
//!
//! Per-token features, mirroring the original's three representation
//! tracks:
//!
//! * **character level**: char embeddings → CNN → max-over-time (24-d),
//! * **token level**: word embedding (32-d) ‖ POS embedding (8-d),
//! * **lexical**: the 6-d gazetteer vector through the shared dense layer.
//!
//! Concatenated features feed a BiLSTM (50 hidden/dir → 100-d), then a
//! common dense layer with ReLU whose outputs are the 100-dimensional
//! **entity-aware token embeddings** the Global EMD phase consumes (the
//! paper: "the output of the last fully connected layer, prior to the CRF
//! layer"). A final linear layer produces emissions for the CRF.

use emd_core::local::{LocalEmd, LocalEmdOutput};
use emd_nn::activations::Relu;
use emd_nn::conv::{CharCnn, CnnCache};
use emd_nn::crf::CrfLayer;
use emd_nn::dense::Dense;
use emd_nn::embedding::Embedding;
use emd_nn::lstm::BiLstm;
use emd_nn::matrix::Matrix;
use emd_nn::optim::Adam;
use emd_nn::param::{Net, Param};
use emd_text::gazetteer::Gazetteer;
use emd_text::normalize;
use emd_text::pos::{tag_sentence, PosTag};
use emd_text::token::{bio_to_spans, Bio, Dataset, Sentence};
use emd_text::vocab::Vocab;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::train_data::{build_char_vocab, build_word_vocab, encode_chars};

const WORD_DIM: usize = 32;
const CHAR_DIM: usize = 16;
const CNN_FILTERS: usize = 24;
const POS_DIM: usize = 8;
const GAZ_DIM: usize = 6;
const FEAT_DIM: usize = WORD_DIM + CNN_FILTERS + POS_DIM + GAZ_DIM;
const HIDDEN: usize = 50;
/// Entity-aware embedding size (matches the paper's 100-dim Aguilar
/// candidate embeddings).
pub const EMB_DIM: usize = 2 * HIDDEN;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct AguilarConfig {
    /// Epochs over the training corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sentences per optimizer step.
    pub batch_size: usize,
    /// Init/shuffle seed.
    pub seed: u64,
    /// Gradient clipping max-norm.
    pub clip: f32,
}

impl Default for AguilarConfig {
    fn default() -> Self {
        AguilarConfig {
            epochs: 3,
            lr: 0.004,
            batch_size: 8,
            seed: 42,
            clip: 5.0,
        }
    }
}

/// The BiLSTM-CNN-CRF Local EMD system.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct Aguilar {
    word_vocab: Vocab,
    char_vocab: Vocab,
    word_emb: Embedding,
    char_emb: Embedding,
    char_cnn: CharCnn,
    pos_emb: Embedding,
    bilstm: BiLstm,
    dense: Dense,
    emit: Dense,
    crf: CrfLayer,
    gazetteer: Gazetteer,
}

/// Per-sentence encoded inputs.
struct Encoded {
    word_ids: Vec<u32>,
    /// Every token's character ids, concatenated; token `t`'s end at
    /// `char_ends[t]`.
    char_ids: Vec<u32>,
    char_ends: Vec<usize>,
    pos_ids: Vec<u32>,
    gaz: Vec<[f32; GAZ_DIM]>,
}

impl Encoded {
    /// Character ids of token `t`.
    fn chars(&self, t: usize) -> &[u32] {
        let start = if t == 0 { 0 } else { self.char_ends[t - 1] };
        &self.char_ids[start..self.char_ends[t]]
    }
}

impl Aguilar {
    /// Initialize an untrained model against a training corpus's
    /// vocabularies and the world gazetteer.
    pub fn init(dataset: &Dataset, gazetteer: Gazetteer, seed: u64) -> Aguilar {
        let mut rng = StdRng::seed_from_u64(seed);
        let word_vocab = build_word_vocab(dataset, 2);
        let char_vocab = build_char_vocab(dataset);
        Aguilar {
            word_emb: Embedding::new(word_vocab.len(), WORD_DIM, &mut rng),
            char_emb: Embedding::new(char_vocab.len(), CHAR_DIM, &mut rng),
            char_cnn: CharCnn::new(CHAR_DIM, 3, CNN_FILTERS, &mut rng),
            pos_emb: Embedding::new(PosTag::COUNT + 1, POS_DIM, &mut rng),
            bilstm: BiLstm::new(FEAT_DIM, HIDDEN, &mut rng),
            dense: Dense::new(EMB_DIM, EMB_DIM, &mut rng),
            emit: Dense::new(EMB_DIM, Bio::COUNT, &mut rng),
            crf: CrfLayer::new(Bio::COUNT),
            word_vocab,
            char_vocab,
            gazetteer,
        }
    }

    /// Train on the corpus; returns per-epoch mean NLL.
    pub fn train(
        dataset: &Dataset,
        gazetteer: Gazetteer,
        cfg: &AguilarConfig,
    ) -> (Aguilar, Vec<f32>) {
        let mut model = Aguilar::init(dataset, gazetteer, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1234);
        let mut opt = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let mut history = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            let mut count = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                model.zero_grads();
                for &i in chunk {
                    let ann = &dataset.sentences[i];
                    if ann.sentence.is_empty() {
                        continue;
                    }
                    let gold: Vec<usize> = ann.gold_bio().iter().map(|b| b.index()).collect();
                    total += model.train_sentence(&ann.sentence, &gold);
                    count += 1;
                }
                model.clip_grad_norm(cfg.clip);
                let mut params = model.params_mut();
                opt.step(&mut params);
            }
            history.push(if count > 0 { total / count as f32 } else { 0.0 });
        }
        (model, history)
    }

    fn encode(&self, sentence: &Sentence) -> Encoded {
        let texts: Vec<&str> = sentence.texts().collect();
        let pos = tag_sentence(&texts);
        // A token has at most as many characters as bytes: one allocation.
        let mut char_ids = Vec::with_capacity(texts.iter().map(|t| t.len()).sum());
        let char_ends = texts
            .iter()
            .map(|t| {
                encode_chars(&self.char_vocab, t, &mut char_ids);
                char_ids.len()
            })
            .collect();
        Encoded {
            word_ids: texts
                .iter()
                .map(|t| self.word_vocab.get(&normalize::normalize_token(t)))
                .collect(),
            char_ids,
            char_ends,
            pos_ids: pos.iter().map(|p| p.index() as u32 + 1).collect(),
            gaz: texts
                .iter()
                .map(|t| self.gazetteer.lexical_vector(t))
                .collect(),
        }
    }

    /// Inference-only feature assembly `[T, FEAT_DIM]`. Embedding rows are
    /// read in place and the char-CNN convolves borrowed rows of the char
    /// table, so the only allocations are the output and one scratch
    /// buffer, whatever the tokens' lengths.
    fn features_infer(&self, enc: &Encoded) -> Matrix {
        let t_len = enc.word_ids.len();
        let mut x = Matrix::zeros(t_len, FEAT_DIM);
        let max_chars = (0..t_len).map(|t| enc.chars(t).len()).max().unwrap_or(0);
        let mut pre = Vec::with_capacity(max_chars * CNN_FILTERS);
        for t in 0..t_len {
            let row = x.row_mut(t);
            row[..WORD_DIM].copy_from_slice(self.word_emb.row(enc.word_ids[t]));
            let chars = enc.chars(t);
            self.char_cnn.infer_rows_into(
                chars.len(),
                |c| self.char_emb.row(chars[c]),
                &mut pre,
                &mut row[WORD_DIM..WORD_DIM + CNN_FILTERS],
            );
            row[WORD_DIM + CNN_FILTERS..WORD_DIM + CNN_FILTERS + POS_DIM]
                .copy_from_slice(self.pos_emb.row(enc.pos_ids[t]));
            row[FEAT_DIM - GAZ_DIM..].copy_from_slice(&enc.gaz[t]);
        }
        x
    }

    /// Replace the gazetteer (external lexical resource) used at inference.
    pub fn set_gazetteer(&mut self, gazetteer: Gazetteer) {
        self.gazetteer = gazetteer;
    }

    /// Inference: (emissions, entity-aware embeddings).
    fn infer_forward(&self, sentence: &Sentence) -> (Matrix, Matrix) {
        let enc = self.encode(sentence);
        let x = self.features_infer(&enc);
        let h = self.bilstm.infer(&x);
        let mut a = self.dense.infer(&h);
        for v in &mut a.data {
            *v = v.max(0.0);
        }
        let e = self.emit.infer(&a);
        (e, a)
    }

    /// One training example: forward, CRF NLL, full backward. Returns loss.
    #[allow(clippy::needless_range_loop)] // indexing three parallel buffers
    fn train_sentence(&mut self, sentence: &Sentence, gold: &[usize]) -> f32 {
        let enc = self.encode(sentence);
        let t_len = enc.word_ids.len();
        // --- forward with caches ---
        let we = self.word_emb.forward(&enc.word_ids);
        let pe = self.pos_emb.forward(&enc.pos_ids);
        let mut cnn_caches: Vec<CnnCache> = Vec::with_capacity(t_len);
        let mut x = Matrix::zeros(t_len, FEAT_DIM);
        for t in 0..t_len {
            let ce = self.char_emb.infer(enc.chars(t));
            let (cv, cache) = self.char_cnn.forward_cached(&ce);
            cnn_caches.push(cache);
            let row = x.row_mut(t);
            row[..WORD_DIM].copy_from_slice(we.row(t));
            row[WORD_DIM..WORD_DIM + CNN_FILTERS].copy_from_slice(cv.row(0));
            row[WORD_DIM + CNN_FILTERS..WORD_DIM + CNN_FILTERS + POS_DIM]
                .copy_from_slice(pe.row(t));
            row[FEAT_DIM - GAZ_DIM..].copy_from_slice(&enc.gaz[t]);
        }
        let h = self.bilstm.forward(&x);
        let a = self.dense.forward(&h);
        let mut relu = Relu::new();
        let r = relu.forward(&a);
        let e = self.emit.forward(&r);
        let (loss, de) = self.crf.nll(&e, gold);
        // --- backward ---
        let gr = self.emit.backward(&de);
        let ga = relu.backward(&gr);
        let gh = self.dense.backward(&ga);
        let gx = self.bilstm.backward(&gh);
        // Split the feature gradient back to the encoders.
        let mut gw = Matrix::zeros(t_len, WORD_DIM);
        let mut gp = Matrix::zeros(t_len, POS_DIM);
        for t in 0..t_len {
            let row = gx.row(t);
            gw.row_mut(t).copy_from_slice(&row[..WORD_DIM]);
            gp.row_mut(t)
                .copy_from_slice(&row[WORD_DIM + CNN_FILTERS..WORD_DIM + CNN_FILTERS + POS_DIM]);
            let gc = Matrix::row_vector(&row[WORD_DIM..WORD_DIM + CNN_FILTERS]);
            let cache = cnn_caches[t].clone();
            let gchar = self.char_cnn.backward_cached(cache, &gc);
            self.char_emb.accumulate_grad(enc.chars(t), &gchar);
        }
        self.word_emb.accumulate_grad(&enc.word_ids, &gw);
        self.pos_emb.accumulate_grad(&enc.pos_ids, &gp);
        loss
    }
}

impl Net for Aguilar {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.word_emb.params_mut();
        ps.extend(self.char_emb.params_mut());
        ps.extend(self.char_cnn.params_mut());
        ps.extend(self.pos_emb.params_mut());
        ps.extend(self.bilstm.params_mut());
        ps.extend(self.dense.params_mut());
        ps.extend(self.emit.params_mut());
        ps.extend(self.crf.params_mut());
        ps
    }
}

impl LocalEmd for Aguilar {
    fn name(&self) -> &str {
        "Aguilar et al."
    }

    fn embedding_dim(&self) -> Option<usize> {
        Some(EMB_DIM)
    }

    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        static PROCESS_NS: crate::obs::ProcessHist =
            crate::obs::ProcessHist::new("emd_local_aguilar_process_ns");
        let _span = PROCESS_NS.span();
        if sentence.is_empty() {
            return LocalEmdOutput {
                spans: vec![],
                token_embeddings: Some(Matrix::zeros(0, EMB_DIM)),
            };
        }
        let (e, emb) = self.infer_forward(sentence);
        let labels = self.crf.decode(&e);
        let bio: Vec<Bio> = labels.into_iter().map(Bio::from_index).collect();
        LocalEmdOutput {
            spans: bio_to_spans(&bio),
            token_embeddings: Some(emb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_synth::datasets::training_stream;

    #[test]
    fn training_reduces_loss_and_tags() {
        let (world, d5) = training_stream(21, 0.005); // ~190 messages
        let (model, history) = Aguilar::train(
            &d5,
            world.gazetteer.clone(),
            &AguilarConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        assert!(
            history.last().unwrap() < &(history[0] * 0.7),
            "loss should drop: {history:?}"
        );
        // Token accuracy on the training data.
        let mut correct = 0usize;
        let mut total = 0usize;
        for s in d5.sentences.iter().take(80) {
            let out = model.process(&s.sentence);
            let pred = emd_text::token::spans_to_bio(&out.spans, s.sentence.len());
            let gold = s.gold_bio();
            correct += pred.iter().zip(gold.iter()).filter(|(a, b)| a == b).count();
            total += gold.len();
        }
        let acc = correct as f32 / total as f32;
        assert!(acc > 0.75, "token accuracy too low: {acc}");
    }

    #[test]
    fn emits_entity_aware_embeddings() {
        let (world, d5) = training_stream(22, 0.002);
        let (model, _) = Aguilar::train(
            &d5,
            world.gazetteer.clone(),
            &AguilarConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let s = &d5.sentences[0].sentence;
        let out = model.process(s);
        let emb = out
            .token_embeddings
            .expect("deep system must emit embeddings");
        assert_eq!(emb.rows, s.len());
        assert_eq!(emb.cols, EMB_DIM);
        assert!(
            emb.data.iter().all(|v| *v >= 0.0),
            "post-ReLU embeddings are non-negative"
        );
        assert!(model.is_deep());
    }

    /// The inference path equals a forward composed from the layers'
    /// training-path `forward`s, bit for bit, on spans and embeddings;
    /// and the allocation-free char encoding equals the per-character
    /// `String` lookup it replaced.
    #[test]
    fn process_matches_training_path_forward() {
        let (world, d5) = training_stream(24, 0.002);
        let (model, _) = Aguilar::train(
            &d5,
            world.gazetteer.clone(),
            &AguilarConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ann in d5.sentences.iter().take(25) {
            let s = &ann.sentence;
            let enc = model.encode(s);
            for (t, text) in s.texts().enumerate() {
                let old: Vec<u32> = text
                    .chars()
                    .map(|c| model.char_vocab.get(&c.to_string()))
                    .collect();
                assert_eq!(enc.chars(t), &old[..]);
            }
            let (mut word_emb, mut pos_emb, mut char_emb) = (
                model.word_emb.clone(),
                model.pos_emb.clone(),
                model.char_emb.clone(),
            );
            let mut cnn = model.char_cnn.clone();
            let we = word_emb.forward(&enc.word_ids);
            let pe = pos_emb.forward(&enc.pos_ids);
            let mut x = Matrix::zeros(s.len(), FEAT_DIM);
            for t in 0..s.len() {
                let cv = cnn.forward(&char_emb.forward(enc.chars(t)));
                let row = x.row_mut(t);
                row[..WORD_DIM].copy_from_slice(we.row(t));
                row[WORD_DIM..WORD_DIM + CNN_FILTERS].copy_from_slice(cv.row(0));
                row[WORD_DIM + CNN_FILTERS..WORD_DIM + CNN_FILTERS + POS_DIM]
                    .copy_from_slice(pe.row(t));
                row[FEAT_DIM - GAZ_DIM..].copy_from_slice(&enc.gaz[t]);
            }
            let h = model.bilstm.clone().forward(&x);
            let a = Relu::new().forward(&model.dense.clone().forward(&h));
            let e = model.emit.clone().forward(&a);
            let bio: Vec<Bio> = model
                .crf
                .decode(&e)
                .into_iter()
                .map(Bio::from_index)
                .collect();

            let out = model.process(s);
            assert_eq!(out.spans, bio_to_spans(&bio));
            assert_eq!(bits(&out.token_embeddings.unwrap()), bits(&a));
        }
    }

    #[test]
    fn empty_sentence_ok() {
        let (world, d5) = training_stream(23, 0.002);
        let model = Aguilar::init(&d5, world.gazetteer.clone(), 0);
        let s = Sentence {
            id: emd_text::token::SentenceId::new(0, 0),
            tokens: vec![],
        };
        let out = model.process(&s);
        assert!(out.spans.is_empty());
        assert_eq!(out.token_embeddings.unwrap().rows, 0);
    }
}
