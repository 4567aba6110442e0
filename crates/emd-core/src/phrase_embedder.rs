//! The Entity Phrase Embedder (§V-B2).
//!
//! Converts a candidate mention's token-level entity-aware embeddings into
//! a single fixed-size phrase embedding: mean pooling followed by a dense
//! layer, exactly Eq. (1)–(2) of the paper.
//!
//! Training follows SBERT's siamese recipe with one modification the paper
//! makes: the deep encoder is **frozen** — only the pooling head (the dense
//! layer) learns. Two sentences are embedded with *mirrored* (shared)
//! weights, compared by cosine similarity, and regressed against a
//! similarity score with MSE loss. Because the encoder is frozen, training
//! operates on precomputed token-embedding matrices.

use crate::tweetbase::EmbView;
use emd_nn::dense::Dense;
use emd_nn::matrix::{cosine, dot, Matrix};
use emd_nn::optim::Adam;
use emd_nn::param::Net;
use emd_text::token::Span;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Mean-pool + dense phrase embedder with a frozen upstream encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhraseEmbedder {
    /// The trainable pooling head `W_ff`, `b_ff`.
    pub dense: Dense,
}

/// One precomputed training pair: token-embedding matrices of the two
/// sentences and the gold similarity in [0, 1].
pub type StsExample = (Matrix, Matrix, f32);

/// Training hyperparameters (paper: Adam, lr 0.001, batch 32, early
/// stopping after 25 stagnant epochs).
#[derive(Debug, Clone)]
pub struct StsTrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for StsTrainConfig {
    fn default() -> Self {
        StsTrainConfig {
            epochs: 200,
            lr: 0.001,
            batch_size: 32,
            patience: 25,
            seed: 42,
        }
    }
}

/// Outcome of phrase-embedder training.
#[derive(Debug, Clone)]
pub struct StsTrainReport {
    /// Best validation MSE reached.
    pub best_val_mse: f32,
    /// Epoch at which the best model was found.
    pub best_epoch: usize,
    /// Total epochs actually run.
    pub epochs_run: usize,
}

impl PhraseEmbedder {
    /// New embedder projecting `in_dim` token embeddings to `out_dim`
    /// phrase embeddings.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> PhraseEmbedder {
        let mut rng = StdRng::seed_from_u64(seed);
        PhraseEmbedder {
            dense: Dense::new(in_dim, out_dim, &mut rng),
        }
    }

    /// Input (token-embedding) dimensionality.
    pub fn in_dim(&self) -> usize {
        self.dense.in_dim()
    }

    /// Output (phrase-embedding) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.dense.out_dim()
    }

    /// Mean-pool `n_rows` embedding rows (yielded by `rows`) and project
    /// through the dense head, without materializing an intermediate
    /// [`Matrix`]. Bit-identical to the historical
    /// `Matrix::row_mean` + `Dense::infer` path: rows accumulate in yield
    /// order from a zero vector (matching `col_sums`), the mean is a
    /// reciprocal multiply (matching `row_mean`), and the projection uses
    /// the same ikj accumulation order with the bias added last.
    pub fn embed_rows_iter<'r>(
        &self,
        n_rows: usize,
        rows: impl Iterator<Item = &'r [f32]>,
    ) -> Vec<f32> {
        if n_rows == 0 {
            return vec![0.0; self.out_dim()];
        }
        let mut pooled = vec![0.0f32; self.in_dim()];
        for row in rows {
            assert_eq!(row.len(), pooled.len(), "embedding dim mismatch");
            for (p, &v) in pooled.iter_mut().zip(row) {
                *p += v;
            }
        }
        let inv = 1.0 / n_rows as f32;
        for p in &mut pooled {
            *p *= inv;
        }
        let mut out = vec![0.0f32; self.out_dim()];
        self.dense.infer_row_into(&pooled, &mut out);
        out
    }

    /// Embed a set of token-embedding rows: mean-pool then project.
    pub fn embed_rows(&self, rows: &Matrix) -> Vec<f32> {
        self.embed_rows_iter(rows.rows, (0..rows.rows).map(|r| rows.row(r)))
    }

    /// Embed the tokens of `span` within a sentence's `[T, d]` embeddings.
    pub fn embed_span(&self, token_embeddings: &Matrix, span: &Span) -> Vec<f32> {
        let end = span.end.min(token_embeddings.rows);
        if span.start >= end {
            return vec![0.0; self.out_dim()];
        }
        self.embed_rows_iter(
            end - span.start,
            (span.start..end).map(|t| token_embeddings.row(t)),
        )
    }

    /// [`PhraseEmbedder::embed_span`] over an arena-backed embedding view
    /// (the scan hot path — no row copies, no temp matrix).
    pub fn embed_span_view(&self, te: EmbView<'_>, span: &Span) -> Vec<f32> {
        let end = span.end.min(te.rows);
        if span.start >= end {
            return vec![0.0; self.out_dim()];
        }
        self.embed_rows_iter(end - span.start, (span.start..end).map(|t| te.row(t)))
    }

    /// Cosine similarity the siamese network outputs for a pair.
    pub fn pair_similarity(&self, a: &Matrix, b: &Matrix) -> f32 {
        cosine(&self.embed_rows(a), &self.embed_rows(b))
    }

    /// Mean squared error of predicted vs gold similarity over a set.
    pub fn mse(&self, pairs: &[StsExample]) -> f32 {
        if pairs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (a, b, y) in pairs {
            let d = self.pair_similarity(a, b) - y;
            total += d * d;
        }
        total / pairs.len() as f32
    }

    /// Train the pooling head on STS pairs with the siamese objective.
    ///
    /// Keeps the best-validation checkpoint (paper: "save the best model
    /// checkpoint"), restoring it before returning.
    pub fn train_sts(
        &mut self,
        train: &[StsExample],
        val: &[StsExample],
        cfg: &StsTrainConfig,
    ) -> StsTrainReport {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut opt = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut best_val = self.mse(val);
        let mut best_epoch = 0usize;
        let mut best_w = self.dense.w.value.clone();
        let mut best_b = self.dense.b.value.clone();
        let mut epochs_run = 0usize;

        for epoch in 0..cfg.epochs {
            epochs_run = epoch + 1;
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                self.dense.zero_grads();
                for &i in chunk {
                    let (a, b, y) = &train[i];
                    self.accumulate_pair_grad(a, b, *y);
                }
                let mut params = self.dense.params_mut();
                opt.step(&mut params);
            }
            let v = self.mse(val);
            if v < best_val - 1e-6 {
                best_val = v;
                best_epoch = epoch + 1;
                best_w = self.dense.w.value.clone();
                best_b = self.dense.b.value.clone();
            } else if epoch + 1 - best_epoch >= cfg.patience {
                break;
            }
        }
        self.dense.w.value = best_w;
        self.dense.b.value = best_b;
        StsTrainReport {
            best_val_mse: best_val,
            best_epoch,
            epochs_run,
        }
    }

    /// Accumulate the gradient of `(cos(u,v) − y)²` into the dense layer,
    /// where `u`, `v` come from the two mirrored passes.
    fn accumulate_pair_grad(&mut self, a: &Matrix, b: &Matrix, y: f32) {
        if a.rows == 0 || b.rows == 0 {
            return;
        }
        let xa = a.row_mean();
        let xb = b.row_mean();
        let ua = self.dense.infer(&xa);
        let ub = self.dense.infer(&xb);
        let (u, v) = (ua.row(0), ub.row(0));
        let nu = dot(u, u).sqrt();
        let nv = dot(v, v).sqrt();
        if nu < 1e-8 || nv < 1e-8 {
            return;
        }
        let c = dot(u, v) / (nu * nv);
        let dl_dc = 2.0 * (c - y);
        // ∂c/∂u = v/(|u||v|) − c·u/|u|² ; symmetric for v.
        let mut gu = Matrix::zeros(1, u.len());
        let mut gv = Matrix::zeros(1, v.len());
        for i in 0..u.len() {
            gu.data[i] = dl_dc * (v[i] / (nu * nv) - c * u[i] / (nu * nu));
            gv.data[i] = dl_dc * (u[i] / (nu * nv) - c * v[i] / (nv * nv));
        }
        // Mirrored weights: both passes accumulate into the same params.
        self.dense.w.grad.add_assign(&xa.matmul_tn(&gu));
        self.dense.w.grad.add_assign(&xb.matmul_tn(&gv));
        self.dense.b.grad.add_assign(&gu.col_sums());
        self.dense.b.grad.add_assign(&gv.col_sums());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn rand_rows(t: usize, d: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_vec(t, d, (0..t * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// Build a toy STS set where similarity is determined by a shared
    /// latent direction: similar pairs share it, dissimilar ones don't.
    fn toy_sts(n: usize, d: usize, seed: u64) -> Vec<StsExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let latent: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (0..n)
            .map(|i| {
                let similar = i % 2 == 0;
                let mut a = rand_rows(4, d, &mut rng);
                let mut b = rand_rows(4, d, &mut rng);
                if similar {
                    for r in 0..4 {
                        for (c, l) in latent.iter().enumerate() {
                            let v = 3.0 * l;
                            a.data[r * d + c] += v;
                            b.data[r * d + c] += v;
                        }
                    }
                }
                (a, b, if similar { 0.9 } else { 0.1 })
            })
            .collect()
    }

    #[test]
    fn embed_shapes() {
        let pe = PhraseEmbedder::new(8, 4, 0);
        let rows = Matrix::zeros(3, 8);
        assert_eq!(pe.embed_rows(&rows).len(), 4);
        assert_eq!(pe.embed_rows(&Matrix::zeros(0, 8)), vec![0.0; 4]);
    }

    #[test]
    fn embed_span_selects_rows() {
        let pe = PhraseEmbedder::new(2, 2, 1);
        let mut te = Matrix::zeros(4, 2);
        te.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        te.row_mut(2).copy_from_slice(&[3.0, 4.0]);
        let full = pe.embed_span(&te, &Span::new(1, 3));
        // Must equal embedding of the mean row [2,3].
        let mean = Matrix::from_vec(1, 2, vec![2.0, 3.0]);
        let expect = pe.embed_rows(&mean);
        for (a, b) in full.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn iter_path_bit_identical_to_matrix_path() {
        let mut rng = StdRng::seed_from_u64(77);
        let pe = PhraseEmbedder::new(8, 4, 13);
        let te = rand_rows(5, 8, &mut rng);
        let fast = pe.embed_rows(&te);
        let slow = pe.dense.infer(&te.row_mean()).row(0).to_vec();
        assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fused pooling path must be bit-identical to row_mean + infer"
        );
    }

    #[test]
    fn span_view_matches_embed_span() {
        let mut rng = StdRng::seed_from_u64(78);
        let pe = PhraseEmbedder::new(6, 3, 14);
        let te = rand_rows(7, 6, &mut rng);
        let view = EmbView {
            data: &te.data,
            rows: te.rows,
            cols: te.cols,
        };
        for span in [
            Span::new(0, 7),
            Span::new(2, 5),
            Span::new(5, 99),
            Span::new(9, 12),
        ] {
            let a = pe.embed_span(&te, &span);
            let b = pe.embed_span_view(view, &span);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "span {span:?}"
            );
        }
    }

    #[test]
    fn out_of_range_span_is_zeros() {
        let pe = PhraseEmbedder::new(2, 3, 2);
        let te = Matrix::zeros(2, 2);
        assert_eq!(pe.embed_span(&te, &Span::new(5, 7)), vec![0.0; 3]);
    }

    #[test]
    fn training_reduces_validation_mse() {
        let train = toy_sts(120, 6, 3);
        let val = toy_sts(40, 6, 4);
        let mut pe = PhraseEmbedder::new(6, 4, 5);
        let before = pe.mse(&val);
        let report = pe.train_sts(
            &train,
            &val,
            &StsTrainConfig {
                epochs: 60,
                patience: 60,
                ..Default::default()
            },
        );
        let after = pe.mse(&val);
        assert!(
            after < before * 0.8,
            "val MSE should drop: {before} → {after} (report {report:?})"
        );
        assert!(report.best_val_mse <= before);
    }

    #[test]
    fn similar_pairs_score_higher_after_training() {
        let train = toy_sts(150, 6, 6);
        let mut pe = PhraseEmbedder::new(6, 4, 7);
        pe.train_sts(
            &train,
            &train[..30],
            &StsTrainConfig {
                epochs: 60,
                patience: 60,
                ..Default::default()
            },
        );
        let test = toy_sts(40, 6, 8);
        let mut sim_sum = 0.0;
        let mut dis_sum = 0.0;
        let mut n = 0;
        for (i, (a, b, _)) in test.iter().enumerate() {
            let s = pe.pair_similarity(a, b);
            if i % 2 == 0 {
                sim_sum += s;
            } else {
                dis_sum += s;
                n += 1;
            }
        }
        assert!(
            sim_sum / n as f32 > dis_sum / n as f32 + 0.2,
            "similar {} vs dissimilar {}",
            sim_sum / n as f32,
            dis_sum / n as f32
        );
    }

    #[test]
    fn early_stopping_fires() {
        let train = toy_sts(40, 4, 9);
        let val = toy_sts(10, 4, 10);
        let mut pe = PhraseEmbedder::new(4, 3, 11);
        let report = pe.train_sts(
            &train,
            &val,
            &StsTrainConfig {
                epochs: 1000,
                patience: 3,
                ..Default::default()
            },
        );
        assert!(report.epochs_run < 1000, "patience must stop training");
    }
}
