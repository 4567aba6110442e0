//! LSTM and bidirectional LSTM with full backpropagation through time.
//!
//! Sequences are `[T, d]` matrices (one row per step); initial hidden and
//! cell states are zero. The BiLSTM concatenates a forward and a reversed
//! pass — the standard encoder used by Aguilar et al. and HIRE-NER.

use crate::activations::sigmoid;
use crate::matrix::{matmul_into, Matrix};
use crate::param::{Net, Param};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Per-sequence cache for backpropagation through time.
#[derive(Debug, Clone, Default)]
struct Cache {
    x: Matrix,
    /// Gates per step: i, f, g, o each `[T, H]`.
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    /// Cell states `[T, H]` and hidden states `[T, H]` (post-step).
    c: Matrix,
    h: Matrix,
}

/// A unidirectional LSTM layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    /// Input weights `[in, 4H]` (gate order `i,f,g,o`).
    pub w: Param,
    /// Recurrent weights `[H, 4H]`.
    pub u: Param,
    /// Bias `[1, 4H]` — forget-gate slice initialized to 1.0.
    pub b: Param,
    hidden: usize,
    #[serde(skip)]
    cache: Option<Cache>,
}

impl Lstm {
    /// Xavier-initialized LSTM with forget-gate bias 1.0.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Lstm {
        let mut b = Param::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.value.data[j] = 1.0;
        }
        Lstm {
            w: Param::xavier(input, 4 * hidden, rng),
            u: Param::xavier(hidden, 4 * hidden, rng),
            b,
            hidden,
            cache: None,
        }
    }

    /// Hidden dimensionality.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Run the sequence, returning hidden states `[T, H]`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let t_len = x.rows;
        let h = self.hidden;
        let mut cache = Cache {
            x: x.clone(),
            i: Matrix::zeros(t_len, h),
            f: Matrix::zeros(t_len, h),
            g: Matrix::zeros(t_len, h),
            o: Matrix::zeros(t_len, h),
            c: Matrix::zeros(t_len, h),
            h: Matrix::zeros(t_len, h),
        };
        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        for t in 0..t_len {
            // z = x_t W + h_prev U + b
            let xt = Matrix::row_vector(x.row(t));
            let hp = Matrix::row_vector(&h_prev);
            let mut z = xt.matmul(&self.w.value);
            z.add_assign(&hp.matmul(&self.u.value));
            z.add_row_broadcast(&self.b.value);
            let zr = z.row(0);
            for j in 0..h {
                let i = sigmoid(zr[j]);
                let f = sigmoid(zr[h + j]);
                let g = zr[2 * h + j].tanh();
                let o = sigmoid(zr[3 * h + j]);
                let c = f * c_prev[j] + i * g;
                let hv = o * c.tanh();
                cache.i.set(t, j, i);
                cache.f.set(t, j, f);
                cache.g.set(t, j, g);
                cache.o.set(t, j, o);
                cache.c.set(t, j, c);
                cache.h.set(t, j, hv);
            }
            h_prev.copy_from_slice(cache.h.row(t));
            c_prev.copy_from_slice(cache.c.row(t));
        }
        let out = cache.h.clone();
        self.cache = Some(cache);
        out
    }

    /// Cache-free forward pass for inference (`&self`).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows, self.hidden);
        self.infer_into(x, false, &mut out.data, 0);
        out
    }

    /// Inference over the steps of `x` — last to first when `reverse` —
    /// writing step `t`'s hidden state to columns `col..col + H` of row
    /// `t` of the row-major `out` (`T` rows). Bit-identical to
    /// [`Lstm::forward`]: the input projection of every step is one kernel
    /// call (each row's products are the per-step ones), and each step
    /// adds `h U`, then `b`, to its row of it — `z = x_t W + h U + b` in
    /// the training path's order. Allocates three buffers whatever the
    /// length.
    fn infer_into(&self, x: &Matrix, reverse: bool, out: &mut [f32], col: usize) {
        let (t_len, h) = (x.rows, self.hidden);
        if t_len == 0 {
            return;
        }
        let stride = out.len() / t_len;
        let gates = 4 * h;
        let mut xw = vec![0.0f32; t_len * gates];
        matmul_into(&x.data, &self.w.value.data, &mut xw, x.cols, gates);
        // Step scratch: h U (4H) | h_prev (H) | c_prev (H).
        let mut buf = vec![0.0f32; gates + 2 * h];
        let (hu, state) = buf.split_at_mut(gates);
        let (h_prev, c_prev) = state.split_at_mut(h);
        for s in 0..t_len {
            let t = if reverse { t_len - 1 - s } else { s };
            matmul_into(h_prev, &self.u.value.data, hu, h, gates);
            let z = &mut xw[t * gates..(t + 1) * gates];
            for ((zj, &hj), &bj) in z.iter_mut().zip(&*hu).zip(&self.b.value.data) {
                *zj += hj;
                *zj += bj;
            }
            for j in 0..h {
                let i = sigmoid(z[j]);
                let f = sigmoid(z[h + j]);
                let g = z[2 * h + j].tanh();
                let o = sigmoid(z[3 * h + j]);
                let c = f * c_prev[j] + i * g;
                c_prev[j] = c;
                h_prev[j] = o * c.tanh();
            }
            out[t * stride + col..t * stride + col + h].copy_from_slice(h_prev);
        }
    }

    /// BPTT. `gy` is `[T, H]`; returns `dx` `[T, in]` and accumulates
    /// weight gradients.
    pub fn backward(&mut self, gy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("Lstm::backward before forward");
        let t_len = cache.x.rows;
        let h = self.hidden;
        let in_dim = cache.x.cols;
        let mut dx = Matrix::zeros(t_len, in_dim);
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..t_len).rev() {
            let mut dh: Vec<f32> = gy.row(t).to_vec();
            for (a, &b) in dh.iter_mut().zip(dh_next.iter()) {
                *a += b;
            }
            let mut dz = vec![0.0f32; 4 * h];
            let mut dc_prev = vec![0.0f32; h];
            for j in 0..h {
                let i = cache.i.get(t, j);
                let f = cache.f.get(t, j);
                let g = cache.g.get(t, j);
                let o = cache.o.get(t, j);
                let c = cache.c.get(t, j);
                let tc = c.tanh();
                let c_prev = if t > 0 { cache.c.get(t - 1, j) } else { 0.0 };

                let mut dc = dc_next[j];
                dc += dh[j] * o * (1.0 - tc * tc);
                let do_ = dh[j] * tc;
                let di = dc * g;
                let df = dc * c_prev;
                let dg = dc * i;
                dc_prev[j] = dc * f;

                dz[j] = di * i * (1.0 - i);
                dz[h + j] = df * f * (1.0 - f);
                dz[2 * h + j] = dg * (1.0 - g * g);
                dz[3 * h + j] = do_ * o * (1.0 - o);
            }
            let dzm = Matrix::row_vector(&dz);
            let xt = Matrix::row_vector(cache.x.row(t));
            let hp = if t > 0 {
                Matrix::row_vector(cache.h.row(t - 1))
            } else {
                Matrix::zeros(1, h)
            };
            self.w.grad.add_assign(&xt.matmul_tn(&dzm));
            self.u.grad.add_assign(&hp.matmul_tn(&dzm));
            self.b.grad.add_assign(&dzm);
            let dxt = dzm.matmul_nt(&self.w.value);
            dx.row_mut(t).copy_from_slice(dxt.row(0));
            let dhp = dzm.matmul_nt(&self.u.value);
            dh_next.copy_from_slice(dhp.row(0));
            dc_next = dc_prev;
        }
        dx
    }
}

impl Net for Lstm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.u, &mut self.b]
    }
}

/// Reverse the rows of a `[T, d]` matrix.
fn reversed_rows(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows, x.cols);
    for t in 0..x.rows {
        out.row_mut(t).copy_from_slice(x.row(x.rows - 1 - t));
    }
    out
}

/// A bidirectional LSTM: forward and backward passes concatenated, output
/// `[T, 2H]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BiLstm {
    /// Left-to-right LSTM.
    pub fwd: Lstm,
    /// Right-to-left LSTM.
    pub bwd: Lstm,
}

impl BiLstm {
    /// New BiLSTM over `input`-dim rows with `hidden` units per direction.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> BiLstm {
        BiLstm {
            fwd: Lstm::new(input, hidden, rng),
            bwd: Lstm::new(input, hidden, rng),
        }
    }

    /// Output dimensionality (2 × hidden).
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden()
    }

    /// Forward pass → `[T, 2H]`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let hf = self.fwd.forward(x);
        let hb_rev = self.bwd.forward(&reversed_rows(x));
        let hb = reversed_rows(&hb_rev);
        hf.hcat(&hb)
    }

    /// Cache-free forward pass for inference (`&self`): each direction
    /// writes its half of the `[T, 2H]` output in place, the backward one
    /// stepping from the last row to the first.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let h = self.fwd.hidden();
        let mut out = Matrix::zeros(x.rows, 2 * h);
        self.fwd.infer_into(x, false, &mut out.data, 0);
        self.bwd.infer_into(x, true, &mut out.data, h);
        out
    }

    /// Backward pass from `gy` `[T, 2H]` → `dx` `[T, in]`.
    pub fn backward(&mut self, gy: &Matrix) -> Matrix {
        let h = self.fwd.hidden();
        let (gf, gb) = gy.hsplit(h);
        let mut dx = self.fwd.backward(&gf);
        let dxb_rev = self.bwd.backward(&reversed_rows(&gb));
        dx.add_assign(&reversed_rows(&dxb_rev));
        dx
    }
}

impl Net for BiLstm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.fwd.params_mut();
        ps.extend(self.bwd.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::grad_check;
    use rand::SeedableRng;

    fn input(t: usize, d: usize, seed: u64) -> Matrix {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..t * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(t, d, data)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let y = lstm.forward(&input(4, 3, 1));
        assert_eq!((y.rows, y.cols), (4, 5));
    }

    #[test]
    fn hidden_states_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let y = lstm.forward(&input(6, 3, 2));
        assert!(
            y.data.iter().all(|v| v.abs() <= 1.0),
            "h = o·tanh(c) ∈ (-1,1)"
        );
    }

    #[test]
    fn lstm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x = input(4, 2, 4);
        grad_check(
            &mut lstm,
            |net| {
                let y = net.forward(&x);
                let loss: f32 = y.data.iter().map(|v| v * v).sum();
                let gy = Matrix {
                    rows: y.rows,
                    cols: y.cols,
                    data: y.data.iter().map(|v| 2.0 * v).collect(),
                };
                net.backward(&gy);
                loss
            },
            40,
            5,
        );
    }

    #[test]
    fn lstm_input_grad_matches_fd() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x = input(3, 2, 7);
        let y = lstm.forward(&x);
        let gy = Matrix {
            rows: y.rows,
            cols: y.cols,
            data: y.data.iter().map(|v| 2.0 * v).collect(),
        };
        let dx = lstm.backward(&gy);
        let eps = 5e-3;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let lp: f32 = lstm.forward(&xp).data.iter().map(|v| v * v).sum();
            let lm: f32 = lstm.forward(&xm).data.iter().map(|v| v * v).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.data[i] - fd).abs() < 2e-2,
                "i={i}: {} vs {}",
                dx.data[i],
                fd
            );
        }
    }

    #[test]
    fn bilstm_shapes_and_gradcheck() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = BiLstm::new(2, 3, &mut rng);
        let x = input(4, 2, 9);
        let y = net.forward(&x);
        assert_eq!((y.rows, y.cols), (4, 6));
        grad_check(
            &mut net,
            |net| {
                let y = net.forward(&x);
                let loss: f32 = y.data.iter().map(|v| v * v).sum();
                let gy = Matrix {
                    rows: y.rows,
                    cols: y.cols,
                    data: y.data.iter().map(|v| 2.0 * v).collect(),
                };
                net.backward(&gy);
                loss
            },
            40,
            10,
        );
    }

    #[test]
    fn bilstm_backward_direction_sees_future() {
        // The backward LSTM's first output row depends on the *last* input
        // row; verify by perturbing the final input.
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = BiLstm::new(2, 3, &mut rng);
        let x1 = input(4, 2, 12);
        let mut x2 = x1.clone();
        x2.data[7] += 0.5; // last row, last col
        let y1 = net.forward(&x1);
        let y2 = net.forward(&x2);
        let h = 3;
        let first_row_bwd_changed =
            (0..h).any(|j| (y1.get(0, h + j) - y2.get(0, h + j)).abs() > 1e-6);
        assert!(first_row_bwd_changed);
        // Forward half of row 0 must be unchanged.
        let first_row_fwd_changed = (0..h).any(|j| (y1.get(0, j) - y2.get(0, j)).abs() > 1e-9);
        assert!(!first_row_fwd_changed);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lstm_infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(14);
        for (t, d, h) in [(0, 3, 4), (1, 5, 2), (7, 6, 5), (12, 62, 50)] {
            let mut lstm = Lstm::new(d, h, &mut rng);
            let mut x = input(t, d, 15 + t as u64);
            if !x.data.is_empty() {
                x.data[0] = 0.0; // exercise the kernel's zero skip
            }
            assert_eq!(bits(&lstm.infer(&x)), bits(&lstm.forward(&x)), "T={t}");
        }
    }

    #[test]
    fn bilstm_infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(16);
        for (t, d, h) in [(0, 3, 4), (1, 4, 3), (9, 7, 6), (11, 62, 50)] {
            let mut net = BiLstm::new(d, h, &mut rng);
            let x = input(t, d, 17 + t as u64);
            let y = net.infer(&x);
            assert_eq!((y.rows, y.cols), (t, 2 * h));
            assert_eq!(bits(&y), bits(&net.forward(&x)), "T={t}");
        }
    }

    #[test]
    fn empty_sequence() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let y = lstm.forward(&Matrix::zeros(0, 2));
        assert_eq!(y.rows, 0);
    }
}
