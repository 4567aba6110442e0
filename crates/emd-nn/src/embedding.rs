//! Embedding lookup table with sparse gradient accumulation.

use crate::matrix::Matrix;
use crate::param::{Net, Param};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// An embedding table `[vocab, dim]`.
///
/// Id 0 is treated as padding: its vector stays zero and receives no
/// gradient, matching the `PAD` convention of `emd-text`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    /// The table itself.
    pub table: Param,
    #[serde(skip)]
    cache_ids: Vec<u32>,
}

impl Embedding {
    /// Uniformly initialized table in `(-0.1, 0.1)`; row 0 zeroed (padding).
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Embedding {
        let mut table = Param::uniform(vocab, dim, 0.1, rng);
        for x in table.value.row_mut(0) {
            *x = 0.0;
        }
        Embedding {
            table,
            cache_ids: Vec::new(),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.table.value.cols
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.rows
    }

    /// Look up a sequence of ids → `[T, dim]`. Out-of-range ids map to 0.
    pub fn forward(&mut self, ids: &[u32]) -> Matrix {
        self.cache_ids = ids.to_vec();
        self.infer(ids)
    }

    /// Lookup without caching.
    pub fn infer(&self, ids: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.dim());
        for (t, &id) in ids.iter().enumerate() {
            out.row_mut(t).copy_from_slice(self.row(id));
        }
        out
    }

    /// Borrow the vector of one id (out-of-range ids map to 0).
    #[inline]
    pub fn row(&self, id: u32) -> &[f32] {
        let id = if (id as usize) < self.vocab() {
            id as usize
        } else {
            0
        };
        self.table.value.row(id)
    }

    /// Accumulate gradients for the rows used in the last forward.
    pub fn backward(&mut self, gy: &Matrix) {
        assert_eq!(
            gy.rows,
            self.cache_ids.len(),
            "Embedding::backward shape mismatch"
        );
        let ids = std::mem::take(&mut self.cache_ids);
        self.accumulate_grad(&ids, gy);
        self.cache_ids = ids;
    }

    /// Cache-free gradient accumulation for an explicit id sequence — used
    /// when the table is looked up many times per training step (e.g. the
    /// per-word character encoder).
    pub fn accumulate_grad(&mut self, ids: &[u32], gy: &Matrix) {
        assert_eq!(
            gy.rows,
            ids.len(),
            "Embedding::accumulate_grad shape mismatch"
        );
        for (t, &id) in ids.iter().enumerate() {
            if id == 0 || (id as usize) >= self.vocab() {
                continue; // padding / out-of-range: no gradient
            }
            let dim = self.dim();
            let grow = &mut self.table.grad.data[id as usize * dim..(id as usize + 1) * dim];
            for (g, &u) in grow.iter_mut().zip(gy.row(t)) {
                *g += u;
            }
        }
    }
}

impl Net for Embedding {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lookup_shapes_and_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(10, 4, &mut rng);
        let y = e.forward(&[0, 3, 7]);
        assert_eq!((y.rows, y.cols), (3, 4));
        assert!(y.row(0).iter().all(|&v| v == 0.0), "pad row is zero");
        assert!(y.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn out_of_range_maps_to_pad() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(4, 2, &mut rng);
        let y = e.infer(&[99]);
        assert!(y.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_accumulates_per_row() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = Embedding::new(5, 2, &mut rng);
        e.forward(&[2, 2, 0]);
        let gy = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        e.backward(&gy);
        // Row 2 receives both timestep gradients; pad row none.
        assert_eq!(e.table.grad.row(2), &[4.0, 6.0]);
        assert_eq!(e.table.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn gradcheck_embedding() {
        use crate::gradcheck::grad_check;
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = Embedding::new(6, 3, &mut rng);
        let ids = [1u32, 4, 2, 4];
        grad_check(
            &mut e,
            |net| {
                let y = net.forward(&ids);
                let loss: f32 = y.data.iter().map(|v| v * v).sum();
                let gy = Matrix {
                    rows: y.rows,
                    cols: y.cols,
                    data: y.data.iter().map(|v| 2.0 * v).collect(),
                };
                net.backward(&gy);
                loss
            },
            25,
            3,
        );
    }
}
