//! The Entity Classifier (§V-C).
//!
//! A multi-layer feed-forward network with ReLU activations and a sigmoid
//! output, fed the global candidate embedding concatenated with the
//! candidate's token length (the paper's "+1" feature). The sigmoid output
//! — the probability of the candidate being a true entity — is bucketed by
//! the α/β/γ thresholds:
//!
//! * `p ≥ α (0.55)` → confidently an **entity**,
//! * `p ≤ β (0.40)` → confidently a **non-entity**,
//! * otherwise → **ambiguous**: the candidate stays pending and is
//!   re-scored as more mentions (hence a sharper global embedding) arrive.

use crate::config::GlobalizerConfig;
use emd_nn::activations::{sigmoid, Relu};
use emd_nn::dense::Dense;
use emd_nn::loss::bce_with_logits;
use emd_nn::matrix::Matrix;
use emd_nn::optim::Adam;
use emd_nn::param::{Net, Param};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Classifier verdict for a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateLabel {
    /// Not yet scored.
    Pending,
    /// Confidently an entity (`p ≥ α`).
    Entity,
    /// Confidently a non-entity (`p ≤ β`).
    NonEntity,
    /// In the γ band — needs more evidence downstream.
    Ambiguous,
}

/// The feed-forward entity classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntityClassifier {
    l1: Dense,
    l2: Dense,
    l3: Dense,
    #[serde(skip)]
    a1: Relu,
    #[serde(skip)]
    a2: Relu,
}

/// Training hyperparameters (paper: Adam lr 0.0015, batch 128, up to 1000
/// epochs, early stopping after 20 stagnant epochs, 80-20 split).
#[derive(Debug, Clone)]
pub struct ClassifierTrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Shuffle / split seed.
    pub seed: u64,
}

impl Default for ClassifierTrainConfig {
    fn default() -> Self {
        ClassifierTrainConfig {
            epochs: 1000,
            lr: 0.0015,
            batch_size: 128,
            patience: 20,
            seed: 42,
        }
    }
}

/// Training outcome, including the validation F1 of Table II.
#[derive(Debug, Clone)]
pub struct ClassifierTrainReport {
    /// Best validation F1 (threshold 0.5) reached.
    pub best_val_f1: f32,
    /// Epoch of the best checkpoint.
    pub best_epoch: usize,
    /// Epochs actually run.
    pub epochs_run: usize,
}

/// In-place ReLU.
fn relu(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

impl EntityClassifier {
    /// New classifier over `in_dim` features (global embedding + length).
    pub fn new(in_dim: usize, seed: u64) -> EntityClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        EntityClassifier {
            l1: Dense::new(in_dim, 32, &mut rng),
            l2: Dense::new(32, 16, &mut rng),
            l3: Dense::new(16, 1, &mut rng),
            a1: Relu::new(),
            a2: Relu::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.l1.in_dim()
    }

    /// Build the feature vector: global embedding ‖ token length.
    pub fn features(embedding: &[f32], token_len: usize) -> Vec<f32> {
        let mut f = Vec::with_capacity(embedding.len() + 1);
        f.extend_from_slice(embedding);
        f.push(token_len as f32);
        f
    }

    fn logit_infer(&self, x: &[f32]) -> f32 {
        // Hidden widths are fixed by the constructor (in → 32 → 16 → 1),
        // so the whole forward pass fits in stack buffers: no Matrix
        // temporaries, no heap traffic per scored candidate.
        // `Dense::infer_row_into` runs `Dense::infer`'s kernel and bias
        // add, so logits are bit-identical to the Matrix-based path.
        let mut h1 = [0.0f32; 32];
        let mut h2 = [0.0f32; 16];
        let mut out = [0.0f32; 1];
        self.l1.infer_row_into(x, &mut h1);
        relu(&mut h1);
        self.l2.infer_row_into(&h1, &mut h2);
        relu(&mut h2);
        self.l3.infer_row_into(&h2, &mut out);
        out[0]
    }

    /// Probability that the candidate is a true entity.
    pub fn predict(&self, features: &[f32]) -> f32 {
        sigmoid(self.logit_infer(features))
    }

    /// Bucket a probability by the α/β/γ thresholds.
    pub fn classify(p: f32, cfg: &GlobalizerConfig) -> CandidateLabel {
        if p >= cfg.alpha {
            CandidateLabel::Entity
        } else if p <= cfg.beta {
            CandidateLabel::NonEntity
        } else {
            CandidateLabel::Ambiguous
        }
    }

    /// Forward with caches + backward for one example; returns loss.
    /// `weight` scales the example's contribution (class re-weighting).
    fn train_step(&mut self, x: &[f32], target: f32, weight: f32) -> f32 {
        let x = Matrix::row_vector(x);
        let h1 = self.l1.forward(&x);
        let r1 = self.a1.forward(&h1);
        let h2 = self.l2.forward(&r1);
        let r2 = self.a2.forward(&h2);
        let logit = self.l3.forward(&r2).data[0];
        let (loss, g) = bce_with_logits(logit, target);
        let (loss, g) = (loss * weight, g * weight);
        let g3 = self.l3.backward(&Matrix::from_vec(1, 1, vec![g]));
        let g2 = self.l2.backward(&self.a2.backward(&g3));
        let _ = self.l1.backward(&self.a1.backward(&g2));
        loss
    }

    /// F1 at threshold 0.5 on a labelled set.
    pub fn f1(&self, data: &[(Vec<f32>, bool)]) -> f32 {
        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        for (x, y) in data {
            let pred = self.predict(x) >= 0.5;
            match (pred, *y) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
        if tp == 0 {
            return 0.0;
        }
        let p = tp as f32 / (tp + fp) as f32;
        let r = tp as f32 / (tp + fn_) as f32;
        2.0 * p * r / (p + r)
    }

    /// Train on labelled `(features, is_entity)` records with an 80-20
    /// train/validation split; keeps and restores the best-F1 checkpoint.
    pub fn train(
        &mut self,
        data: &[(Vec<f32>, bool)],
        cfg: &ClassifierTrainConfig,
    ) -> ClassifierTrainReport {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(&mut rng);
        let n_val = (data.len() / 5).max(1);
        let (val_idx, train_idx) = order.split_at(n_val.min(order.len()));
        let val: Vec<(Vec<f32>, bool)> = val_idx.iter().map(|&i| data[i].clone()).collect();
        let mut train_order: Vec<usize> = train_idx.to_vec();

        // Candidate sets are imbalanced (weak proposers generate far more
        // false candidates than true entities); weight the positive class
        // so recall is not sacrificed.
        let n_pos = train_idx.iter().filter(|&&i| data[i].1).count().max(1);
        let n_neg = (train_idx.len() - n_pos).max(1);
        let pos_weight = (n_neg as f32 / n_pos as f32).clamp(0.2, 5.0);

        let mut opt = Adam::new(cfg.lr);
        let mut best_f1 = self.f1(&val);
        let mut best_epoch = 0usize;
        let mut best: Vec<Matrix> = self.params_mut().iter().map(|p| p.value.clone()).collect();
        let mut epochs_run = 0usize;
        for epoch in 0..cfg.epochs {
            epochs_run = epoch + 1;
            train_order.shuffle(&mut rng);
            for chunk in train_order.chunks(cfg.batch_size) {
                self.zero_grads();
                for &i in chunk {
                    let (x, y) = &data[i];
                    let w = if *y { pos_weight } else { 1.0 };
                    let _ = self.train_step(x, if *y { 1.0 } else { 0.0 }, w);
                }
                let mut params = self.params_mut();
                opt.step(&mut params);
            }
            let f1 = self.f1(&val);
            if f1 > best_f1 + 1e-6 {
                best_f1 = f1;
                best_epoch = epoch + 1;
                best = self.params_mut().iter().map(|p| p.value.clone()).collect();
            } else if epoch + 1 - best_epoch >= cfg.patience {
                break;
            }
        }
        for (p, b) in self.params_mut().into_iter().zip(best) {
            p.value = b;
        }
        ClassifierTrainReport {
            best_val_f1: best_f1,
            best_epoch,
            epochs_run,
        }
    }
}

impl Net for EntityClassifier {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.l1.params_mut();
        ps.extend(self.l2.params_mut());
        ps.extend(self.l3.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Linearly separable toy data: entities live in the positive
    /// half-space of a latent direction.
    fn toy_data(n: usize, d: usize, seed: u64) -> Vec<(Vec<f32>, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (0..n)
            .map(|_| {
                let x: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                let s: f32 = x.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
                let y = s > 0.0;
                (EntityClassifier::features(&x, 1), y)
            })
            .collect()
    }

    #[test]
    fn features_append_length() {
        let f = EntityClassifier::features(&[0.1, 0.2], 3);
        assert_eq!(f, vec![0.1, 0.2, 3.0]);
    }

    #[test]
    fn thresholds() {
        let cfg = GlobalizerConfig::default();
        assert_eq!(
            EntityClassifier::classify(0.9, &cfg),
            CandidateLabel::Entity
        );
        assert_eq!(
            EntityClassifier::classify(0.55, &cfg),
            CandidateLabel::Entity
        );
        assert_eq!(
            EntityClassifier::classify(0.5, &cfg),
            CandidateLabel::Ambiguous
        );
        assert_eq!(
            EntityClassifier::classify(0.40, &cfg),
            CandidateLabel::NonEntity
        );
        assert_eq!(
            EntityClassifier::classify(0.1, &cfg),
            CandidateLabel::NonEntity
        );
    }

    #[test]
    fn stack_forward_bit_identical_to_matrix_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = EntityClassifier::new(7, 8);
        for _ in 0..32 {
            let x: Vec<f32> = (0..7).map(|_| rng.gen_range(-3.0..3.0f32)).collect();
            // The historical Matrix-based forward pass, verbatim.
            let xm = Matrix::row_vector(&x);
            let mut h = c.l1.infer(&xm);
            for v in &mut h.data {
                *v = v.max(0.0);
            }
            let mut h = c.l2.infer(&h);
            for v in &mut h.data {
                *v = v.max(0.0);
            }
            let want = c.l3.infer(&h).data[0];
            assert_eq!(
                c.logit_infer(&x).to_bits(),
                want.to_bits(),
                "stack-buffer forward must be bit-identical"
            );
        }
    }

    #[test]
    fn predict_in_unit_interval() {
        let c = EntityClassifier::new(4, 0);
        let p = c.predict(&[0.5, -0.5, 1.0, 2.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn learns_separable_data() {
        let data = toy_data(600, 5, 1);
        let mut c = EntityClassifier::new(6, 2);
        let report = c.train(
            &data,
            &ClassifierTrainConfig {
                epochs: 150,
                patience: 30,
                ..Default::default()
            },
        );
        assert!(report.best_val_f1 > 0.85, "val F1 = {}", report.best_val_f1);
    }

    #[test]
    fn early_stopping() {
        let data = toy_data(100, 3, 3);
        let mut c = EntityClassifier::new(4, 4);
        let report = c.train(
            &data,
            &ClassifierTrainConfig {
                epochs: 1000,
                patience: 5,
                ..Default::default()
            },
        );
        assert!(report.epochs_run < 1000);
    }

    #[test]
    fn f1_on_degenerate_predictor() {
        // Untrained network with huge negative bias predicts nothing → F1 0.
        let mut c = EntityClassifier::new(3, 5);
        {
            let params = c.params_mut();
            // last param is l3 bias
            let last = params.into_iter().last().unwrap();
            last.value.data[0] = -100.0;
        }
        let data = toy_data(50, 2, 6);
        assert_eq!(c.f1(&data), 0.0);
    }
}
