//! Fully connected layer `y = xW + b`.

use crate::matrix::{matmul_into, Matrix};
use crate::param::{Net, Param};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A dense (fully connected) layer.
///
/// Input `[m, in_dim]`, output `[m, out_dim]`. The forward pass caches the
/// input; `backward` accumulates into the weight/bias gradients and returns
/// the input gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix `[in_dim, out_dim]`.
    pub w: Param,
    /// Bias `[1, out_dim]`.
    pub b: Param,
    #[serde(skip)]
    cache_x: Option<Matrix>,
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Dense {
        Dense {
            w: Param::xavier(in_dim, out_dim, rng),
            b: Param::zeros(1, out_dim),
            cache_x: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols
    }

    /// Forward pass, caching the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(&self.b.value);
        self.cache_x = Some(x.clone());
        y
    }

    /// Forward without caching (inference-only path).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(&self.b.value);
        y
    }

    /// [`Dense::infer`] on one row, into a caller-owned `[out_dim]` buffer
    /// (the kernel, then the bias — the same ops, so the same bits, as
    /// `infer` on a one-row matrix).
    pub fn infer_row_into(&self, x: &[f32], y: &mut [f32]) {
        matmul_into(x, &self.w.value.data, y, x.len(), y.len());
        for (v, &b) in y.iter_mut().zip(&self.b.value.data) {
            *v += b;
        }
    }

    /// Backward pass: accumulates `dW = xᵀ·gy`, `db = colsum(gy)`, returns
    /// `dx = gy·Wᵀ`.
    pub fn backward(&mut self, gy: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            .expect("Dense::backward called before forward");
        self.w.grad.add_assign(&x.matmul_tn(gy));
        self.b.grad.add_assign(&gy.col_sums());
        gy.matmul_nt(&self.w.value)
    }
}

impl Net for Dense {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::grad_check;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 5, &mut rng);
        let x = Matrix::zeros(4, 3);
        let y = d.forward(&x);
        assert_eq!((y.rows, y.cols), (4, 5));
        // zero input → bias only (zeros here)
        assert!(y.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        assert_eq!(d.forward(&x).data, d.infer(&x).data);
    }

    #[test]
    fn infer_row_into_matches_infer() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dense::new(4, 11, &mut rng);
        let x = [0.25, 0.0, -1.5, 3.0];
        let mut y = [f32::NAN; 11];
        d.infer_row_into(&x, &mut y);
        let want = d.infer(&Matrix::row_vector(&x));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&want.data));
    }

    #[test]
    fn gradients_check_numerically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Matrix::from_vec(2, 4, vec![0.5, -0.3, 0.8, 0.1, -0.7, 0.2, 0.4, -0.1]);
        grad_check(
            &mut d,
            |net| {
                let y = net.forward(&x);
                let loss = y.data.iter().map(|v| v * v).sum::<f32>();
                let gy = Matrix {
                    rows: y.rows,
                    cols: y.cols,
                    data: y.data.iter().map(|v| 2.0 * v).collect(),
                };
                net.backward(&gy);
                loss
            },
            30,
            7,
        );
    }

    #[test]
    fn input_gradient_check() {
        // Verify dx numerically by treating one x element as the variable.
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![0.3, -0.4]);
        let y = d.forward(&x);
        let gy = Matrix {
            rows: 1,
            cols: 2,
            data: y.data.iter().map(|v| 2.0 * v).collect(),
        };
        let gx = d.backward(&gy);
        let eps = 1e-2;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let lp: f32 = d.infer(&xp).data.iter().map(|v| v * v).sum();
            let lm: f32 = d.infer(&xm).data.iter().map(|v| v * v).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((gx.data[i] - fd).abs() < 1e-2, "{} vs {}", gx.data[i], fd);
        }
    }
}
