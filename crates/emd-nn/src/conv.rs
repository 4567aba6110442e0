//! Character-level CNN with max-over-time pooling.
//!
//! Aguilar et al. learn character-level word representations by running a
//! convolution over the character embeddings of a word and max-pooling over
//! time. [`CharCnn`] implements exactly that: zero-padded width-`k`
//! convolution, ReLU, global max pooling → a fixed `[1, n_filters]` vector
//! per word.

use crate::matrix::{conv_rows_into, Matrix};
use crate::param::{Net, Param};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Convolution + ReLU + max-over-time pooling over a character sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharCnn {
    /// Filter bank `[k * in_dim, n_filters]`.
    pub w: Param,
    /// Bias `[1, n_filters]`.
    pub b: Param,
    /// Kernel width.
    pub k: usize,
    in_dim: usize,
    #[serde(skip)]
    cache: Option<CnnCache>,
}

/// Opaque forward cache for one [`CharCnn`] invocation. When the same
/// filter bank is applied to many words inside one training step (as in
/// Aguilar et al.'s per-word character encoder), use
/// [`CharCnn::forward_cached`] / [`CharCnn::backward_cached`] to keep one
/// cache per word.
#[derive(Debug, Clone)]
pub struct CnnCache {
    patches: Matrix,
    pre_relu: Matrix,
    argmax: Vec<usize>,
    in_len: usize,
}

impl CharCnn {
    /// New filter bank of `n_filters` filters of width `k` over `in_dim`
    /// channels.
    pub fn new(in_dim: usize, k: usize, n_filters: usize, rng: &mut StdRng) -> CharCnn {
        assert!(k >= 1);
        CharCnn {
            w: Param::xavier(k * in_dim, n_filters, rng),
            b: Param::zeros(1, n_filters),
            k,
            in_dim,
            cache: None,
        }
    }

    /// Number of filters (= output dimensionality).
    pub fn out_dim(&self) -> usize {
        self.w.value.cols
    }

    /// Build the `[L, k*in_dim]` patch matrix with symmetric zero padding.
    fn im2row(&self, x: &Matrix) -> Matrix {
        let l = x.rows;
        let d = self.in_dim;
        let half = (self.k - 1) / 2;
        let mut patches = Matrix::zeros(l, self.k * d);
        for t in 0..l {
            for (kk, off) in (0..self.k).map(|kk| (kk, t as isize + kk as isize - half as isize)) {
                if off >= 0 && (off as usize) < l {
                    let src = x.row(off as usize);
                    patches.row_mut(t)[kk * d..(kk + 1) * d].copy_from_slice(src);
                }
            }
        }
        patches
    }

    /// Forward: `x` is `[L, in_dim]` character embeddings → `[1, n_filters]`.
    ///
    /// Empty inputs yield the bias-free zero vector.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let f = self.out_dim();
        if x.rows == 0 {
            self.cache = Some(CnnCache {
                patches: Matrix::zeros(0, self.k * self.in_dim),
                pre_relu: Matrix::zeros(0, f),
                argmax: vec![usize::MAX; f],
                in_len: 0,
            });
            return Matrix::zeros(1, f);
        }
        let patches = self.im2row(x);
        let mut pre = patches.matmul(&self.w.value);
        pre.add_row_broadcast(&self.b.value);
        let mut out = Matrix::zeros(1, f);
        let mut argmax = vec![0usize; f];
        for j in 0..f {
            let mut best = f32::NEG_INFINITY;
            let mut bi = 0;
            for t in 0..pre.rows {
                let v = pre.get(t, j).max(0.0); // ReLU then max
                if v > best {
                    best = v;
                    bi = t;
                }
            }
            out.set(0, j, best);
            argmax[j] = bi;
        }
        self.cache = Some(CnnCache {
            patches,
            pre_relu: pre,
            argmax,
            in_len: x.rows,
        });
        out
    }

    /// Cache-free forward pass for inference (`&self`).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, self.out_dim());
        self.infer_rows_into(x.rows, |t| x.row(t), &mut Vec::new(), &mut out.data);
        out
    }

    /// [`CharCnn::infer`] over `len` borrowed `[in_dim]` input rows —
    /// e.g. straight out of an embedding table — into `out`
    /// (`[n_filters]`). The convolution reads the rows in place (no patch
    /// matrix; padding rows are skipped, as the kernel's zero skip would
    /// drop them), so the result is bit-identical to [`CharCnn::forward`].
    /// `pre` is caller-owned scratch for the `[len, n_filters]`
    /// pre-activations: reused across calls, it makes this
    /// allocation-free.
    pub fn infer_rows_into<'a>(
        &self,
        len: usize,
        row: impl Fn(usize) -> &'a [f32],
        pre: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let f = self.out_dim();
        assert_eq!(
            out.len(),
            f,
            "CharCnn::infer_rows_into: out is not [n_filters]"
        );
        if len == 0 {
            out.fill(0.0);
            return;
        }
        pre.clear();
        pre.resize(len * f, 0.0);
        conv_rows_into(len, self.k, self.in_dim, row, &self.w.value.data, f, pre);
        // Bias, ReLU, then max over time — the training path's order.
        out.fill(f32::NEG_INFINITY);
        for p in pre.chunks_exact(f) {
            for ((best, &v), &b) in out.iter_mut().zip(p).zip(&self.b.value.data) {
                *best = best.max((v + b).max(0.0));
            }
        }
    }

    /// Like [`CharCnn::forward`] but hands the cache to the caller, so many
    /// invocations can be backpropagated later in any order.
    pub fn forward_cached(&mut self, x: &Matrix) -> (Matrix, CnnCache) {
        let y = self.forward(x);
        let cache = self.cache.take().expect("forward populated the cache");
        (y, cache)
    }

    /// Backward against an explicit cache from [`CharCnn::forward_cached`].
    /// Gradients accumulate across calls.
    pub fn backward_cached(&mut self, cache: CnnCache, gy: &Matrix) -> Matrix {
        self.cache = Some(cache);
        self.backward(gy)
    }

    /// Backward from `gy` `[1, n_filters]` → `dx` `[L, in_dim]`.
    pub fn backward(&mut self, gy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("CharCnn::backward before forward");
        let f = self.out_dim();
        let d = self.in_dim;
        let half = (self.k - 1) / 2;
        let mut dx = Matrix::zeros(cache.in_len, d);
        if cache.in_len == 0 {
            return dx;
        }
        // Gradient wrt pre-activation: flows only to the argmax position and
        // only if the ReLU was active there.
        let mut dpre = Matrix::zeros(cache.pre_relu.rows, f);
        for j in 0..f {
            let t = cache.argmax[j];
            if t == usize::MAX {
                continue;
            }
            if cache.pre_relu.get(t, j) > 0.0 {
                dpre.set(t, j, gy.get(0, j));
            }
        }
        self.w.grad.add_assign(&cache.patches.matmul_tn(&dpre));
        self.b.grad.add_assign(&dpre.col_sums());
        let dpatches = dpre.matmul_nt(&self.w.value);
        // Scatter patch gradients back to input positions.
        for t in 0..cache.in_len {
            for kk in 0..self.k {
                let off = t as isize + kk as isize - half as isize;
                if off >= 0 && (off as usize) < cache.in_len {
                    let src = &dpatches.row(t)[kk * d..(kk + 1) * d];
                    let dst = dx.row_mut(off as usize);
                    for (a, &b) in dst.iter_mut().zip(src.iter()) {
                        *a += b;
                    }
                }
            }
        }
        dx
    }
}

impl Net for CharCnn {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::grad_check;
    use rand::{Rng, SeedableRng};

    fn input(l: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_vec(l, d, (0..l * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cnn = CharCnn::new(4, 3, 8, &mut rng);
        let y = cnn.forward(&input(6, 4, 1));
        assert_eq!((y.rows, y.cols), (1, 8));
    }

    #[test]
    fn output_nonnegative() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cnn = CharCnn::new(3, 3, 5, &mut rng);
        let y = cnn.forward(&input(7, 3, 3));
        assert!(y.data.iter().all(|&v| v >= 0.0), "ReLU+max ≥ 0");
    }

    #[test]
    fn empty_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cnn = CharCnn::new(3, 3, 5, &mut rng);
        let y = cnn.forward(&Matrix::zeros(0, 3));
        assert_eq!(y.data, vec![0.0; 5]);
        let dx = cnn.backward(&Matrix::from_vec(1, 5, vec![1.0; 5]));
        assert_eq!(dx.rows, 0);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(12);
        for (l, d, k, f) in [
            (0, 3, 3, 4),
            (1, 3, 3, 5),
            (2, 4, 5, 9),
            (7, 16, 3, 24),
            (30, 16, 3, 24),
        ] {
            let mut cnn = CharCnn::new(d, k, f, &mut rng);
            let mut x = input(l, d, 13 + l as u64);
            if l > 1 {
                x.row_mut(1).fill(0.0); // an all-zero row, like the padding id's
            }
            let want: Vec<u32> = cnn.forward(&x).data.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = cnn.infer(&x).data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "L={l} d={d} k={k}");
        }
    }

    #[test]
    fn single_char_word() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cnn = CharCnn::new(3, 3, 4, &mut rng);
        let y = cnn.forward(&input(1, 3, 6));
        assert_eq!((y.rows, y.cols), (1, 4));
    }

    #[test]
    fn gradcheck_cnn() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cnn = CharCnn::new(3, 3, 4, &mut rng);
        let x = input(5, 3, 8);
        grad_check(
            &mut cnn,
            |net| {
                let y = net.forward(&x);
                let loss: f32 = y.data.iter().map(|v| v * v).sum();
                let gy = Matrix {
                    rows: 1,
                    cols: y.cols,
                    data: y.data.iter().map(|v| 2.0 * v).collect(),
                };
                net.backward(&gy);
                loss
            },
            30,
            9,
        );
    }

    #[test]
    fn input_grad_matches_fd() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut cnn = CharCnn::new(2, 3, 3, &mut rng);
        let x = input(4, 2, 11);
        let y = cnn.forward(&x);
        let gy = Matrix {
            rows: 1,
            cols: y.cols,
            data: y.data.iter().map(|v| 2.0 * v).collect(),
        };
        let dx = cnn.backward(&gy);
        let eps = 5e-3;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let lp: f32 = cnn.forward(&xp).data.iter().map(|v| v * v).sum();
            let lm: f32 = cnn.forward(&xm).data.iter().map(|v| v * v).sum();
            let fd = (lp - lm) / (2.0 * eps);
            // max-pool argmax can flip under perturbation; allow loose tol
            assert!(
                (dx.data[i] - fd).abs() < 5e-2,
                "i={i}: {} vs {}",
                dx.data[i],
                fd
            );
        }
    }
}
