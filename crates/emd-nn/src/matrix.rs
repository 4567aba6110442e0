//! Row-major `f32` matrix with the small set of kernels the layers need.
//!
//! Shapes follow the `[rows, cols]` convention; sequence inputs are
//! `[T, d]`.
//!
//! ## The dense kernel
//!
//! Every inference-side product — [`Matrix::matmul`], the slice entry
//! `matmul_into` and the convolution entry `conv_rows_into` — runs one
//! column-blocked kernel. For each output row it keeps accumulators for
//! 32 output columns (then 8, then the last `n % 8` as one block of that
//! width) in registers across the whole `k` loop, so `B` streams through
//! once per block and the output is written once. The backward passes'
//! transposed products (`matmul_tn`, `matmul_nt`) keep their plain loops.
//!
//! **Why the bits hold.** Every output element sees exactly the op
//! sequence of the textbook `ikj` loop: it starts from `0.0`, adds
//! `a[p] * b[p][j]` for `p` ascending, skips every `p` with
//! `a[p] == 0.0` (so `-0.0` is skipped too, NaN is not), and never fuses a
//! multiply into an add. Blocking only changes which *independent* output
//! columns share a loop; it never reorders a reduction. IEEE-754
//! arithmetic is deterministic per operation, so the result is bit for bit
//! the naive loop's on every input — ±∞, subnormals and `-0.0` included,
//! and a NaN lands exactly where the naive loop's does (Rust leaves a NaN
//! result's sign and payload unspecified). Proptest-pinned below, on both
//! arms.
//!
//! **The arms.** The kernel body is one `#[inline(always)]` generic
//! function compiled twice: once for the build's baseline target (SSE2 on
//! x86-64) and once inside a `#[target_feature(enable = "avx2")]` wrapper,
//! which widens the same lane-parallel adds and multiplies to 256 bits.
//! `fma` stays disabled, so neither arm can contract `acc + a * b`. The
//! wrapper runs when `is_x86_feature_detected!("avx2")` (cached by `std`
//! after its first probe) says the CPU has it.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a flat row-major vector (length must match).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Single-row matrix from a slice.
    pub fn row_vector(v: &[f32]) -> Matrix {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · b` — `[m,k] x [k,n] -> [m,n]`, on the blocked kernel (see
    /// the module docs).
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch {}x{} · {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let mut out = Matrix::zeros(self.rows, b.cols);
        matmul_into(&self.data, &b.data, &mut out.data, self.cols, b.cols);
        out
    }

    /// `selfᵀ · b` — `[k,m]ᵀ x [k,n] -> [m,n]`.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let arow = self.row(p);
            let brow = b.row(p);
            for (i, &a) in arow.iter().enumerate().take(m) {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * bv;
                }
            }
        }
        out
    }

    /// `self · bᵀ` — `[m,k] x [n,k]ᵀ -> [m,n]`.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = self.row(i);
            for j in 0..n {
                let brow = b.row(j);
                let mut s = 0.0;
                for p in 0..k {
                    s += arow[p] * brow[p];
                }
                out.data[i * n + j] = s;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Add a `[1,n]` bias row to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
    }

    /// Column sums as a `[1,n]` matrix (used for bias gradients).
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Elementwise product (Hadamard), returning a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.data.len(), other.data.len());
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Set all elements to `v`.
    pub fn fill(&mut self, v: f32) {
        for x in &mut self.data {
            *x = v;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Stack a slice of equal-width row vectors into a `[n, d]` matrix.
    pub fn stack_rows(rows: &[Vec<f32>]) -> Matrix {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let d = rows[0].len();
        let mut out = Matrix::zeros(rows.len(), d);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), d, "ragged rows");
            out.row_mut(i).copy_from_slice(r);
        }
        out
    }

    /// Horizontal concatenation `[m, a] ++ [m, b] -> [m, a+b]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Split horizontally at column `c`: `([m, c], [m, cols-c])`.
    pub fn hsplit(&self, c: usize) -> (Matrix, Matrix) {
        assert!(c <= self.cols);
        let mut a = Matrix::zeros(self.rows, c);
        let mut b = Matrix::zeros(self.rows, self.cols - c);
        for r in 0..self.rows {
            a.row_mut(r).copy_from_slice(&self.row(r)[..c]);
            b.row_mut(r).copy_from_slice(&self.row(r)[c..]);
        }
        (a, b)
    }

    /// Mean over rows → `[1, cols]`.
    pub fn row_mean(&self) -> Matrix {
        let mut out = self.col_sums();
        if self.rows > 0 {
            out.scale(1.0 / self.rows as f32);
        }
        out
    }
}

/// `out[i] = a[i] · B` for every row `i`: `a` is row-major `[m, k]`, `b`
/// row-major `[k, n]`, `out` `[m, n]` (overwritten; `m` is
/// `out.len() / n`). Bit-identical to the naive `ikj` loop with the
/// `a == 0.0` skip — see the module docs.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert_eq!(b.len(), k * n, "matmul_into: b is not [k, n]");
    if n == 0 {
        assert!(out.is_empty());
        return;
    }
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "matmul_into: out is not [m, n]");
    assert_eq!(a.len(), m * k, "matmul_into: a is not [m, k]");
    dispatch(
        &Rows {
            m,
            taps: 1,
            d: k,
            n,
            row: |i: usize, _| Some(&a[i * k..(i + 1) * k]),
        },
        b,
        out,
    );
}

/// Zero-padded width-`taps` convolution over `len` borrowed input rows of
/// width `d` (`row(t)`), into `out` `[len, n]`. Output row `t` is the
/// patch of input rows `t - half ..= t - half + taps - 1`, with
/// `half = (taps - 1) / 2` and rows outside `0..len` as zero padding,
/// times `w` `[taps * d, n]`. Equal bit for bit to building that patch
/// matrix and calling [`Matrix::matmul`]: a padding row is all zeros,
/// which the kernel's `a == 0.0` skip would drop element by element, so
/// leaving it out changes no operation.
pub(crate) fn conv_rows_into<'a>(
    len: usize,
    taps: usize,
    d: usize,
    row: impl Fn(usize) -> &'a [f32],
    w: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(
        w.len(),
        taps * d * n,
        "conv_rows_into: w is not [taps*d, n]"
    );
    assert_eq!(out.len(), len * n, "conv_rows_into: out is not [len, n]");
    if n == 0 {
        return;
    }
    let half = (taps.max(1) - 1) / 2;
    dispatch(
        &Rows {
            m: len,
            taps,
            d,
            n,
            row: |t: usize, kk: usize| {
                let src = (t + kk).checked_sub(half).filter(|&s| s < len)?;
                let x = row(src);
                assert_eq!(x.len(), d, "conv_rows_into: input row is not [d]");
                Some(x)
            },
        },
        w,
        out,
    );
}

/// The left operand of one kernel call: `m` output rows, each the
/// concatenation of `taps` segments of width `d` (`None` = all zeros),
/// against `B` `[taps * d, n]`.
struct Rows<R> {
    m: usize,
    taps: usize,
    d: usize,
    n: usize,
    row: R,
}

/// Pick the widest arm this CPU runs.
fn dispatch<'a, R: Fn(usize, usize) -> Option<&'a [f32]>>(
    rows: &Rows<R>,
    b: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `kernel_avx2` only differs from `kernel` in being
        // compiled with AVX2 enabled, and the CPU was just probed to have
        // AVX2.
        unsafe { kernel_avx2(rows, b, out) };
        return;
    }
    kernel(rows, b, out);
}

/// The kernel compiled with AVX2 (and without FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernel_avx2<'a, R: Fn(usize, usize) -> Option<&'a [f32]>>(
    rows: &Rows<R>,
    b: &[f32],
    out: &mut [f32],
) {
    kernel(rows, b, out)
}

/// The kernel body: per output row, blocks of 32, then 8 columns, then
/// one block of the remaining width.
#[inline(always)]
fn kernel<'a, R: Fn(usize, usize) -> Option<&'a [f32]>>(
    rows: &Rows<R>,
    b: &[f32],
    out: &mut [f32],
) {
    let n = rows.n;
    for (i, orow) in out.chunks_exact_mut(n).enumerate().take(rows.m) {
        let mut j = 0;
        while j + 32 <= n {
            block::<32, R>(rows, i, j, b, orow);
            j += 32;
        }
        while j + 8 <= n {
            block::<8, R>(rows, i, j, b, orow);
            j += 8;
        }
        // The tail, as one block of its exact width.
        match n - j {
            0 => {}
            1 => block::<1, R>(rows, i, j, b, orow),
            2 => block::<2, R>(rows, i, j, b, orow),
            3 => block::<3, R>(rows, i, j, b, orow),
            4 => block::<4, R>(rows, i, j, b, orow),
            5 => block::<5, R>(rows, i, j, b, orow),
            6 => block::<6, R>(rows, i, j, b, orow),
            _ => block::<7, R>(rows, i, j, b, orow),
        }
    }
}

/// Output columns `j..j + W` of row `i`, accumulated in registers.
#[inline(always)]
fn block<'a, const W: usize, R: Fn(usize, usize) -> Option<&'a [f32]>>(
    rows: &Rows<R>,
    i: usize,
    j: usize,
    b: &[f32],
    orow: &mut [f32],
) {
    let (d, n) = (rows.d, rows.n);
    let mut acc = [0.0f32; W];
    for kk in 0..rows.taps {
        let Some(a) = (rows.row)(i, kk) else {
            continue;
        };
        let bk = &b[kk * d * n..(kk + 1) * d * n];
        for (&av, brow) in a.iter().zip(bk.chunks_exact(n)) {
            if av == 0.0 {
                continue;
            }
            let bv: &[f32; W] = brow[j..j + W].try_into().expect("a W-wide slice");
            for l in 0..W {
                acc[l] += av * bv[l];
            }
        }
    }
    orow[j..j + W].copy_from_slice(&acc);
}

/// log(sum(exp(xs))) computed stably.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f32>().ln()
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Cosine similarity of two vectors (0.0 when either is all-zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let c1 = a.matmul_tn(&b);
        let c2 = a.transposed().matmul(&b);
        assert_eq!(c1.data, c2.data);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let c1 = a.matmul_nt(&b);
        let c2 = a.matmul(&b.transposed());
        for (x, y) in c1.data.iter().zip(c2.data.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_broadcast_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&Matrix::row_vector(&[1.0, -1.0]));
        assert_eq!(a.data, vec![1., -1., 1., -1., 1., -1.]);
        assert_eq!(a.col_sums().data, vec![3., -3.]);
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 1, vec![5., 6.]);
        let c = a.hcat(&b);
        assert_eq!(c.cols, 3);
        let (x, y) = c.hsplit(2);
        assert_eq!(x.data, a.data);
        assert_eq!(y.data, b.data);
    }

    #[test]
    fn stack_rows_shape() {
        let m = Matrix::stack_rows(&[vec![1., 2.], vec![3., 4.], vec![5., 6.]]);
        assert_eq!((m.rows, m.cols), (3, 2));
        assert_eq!(m.row(1), &[3., 4.]);
    }

    #[test]
    fn log_sum_exp_stable() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f32.ln())).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1., 0.], &[1., 0.]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1., 0.], &[0., 1.]).abs() < 1e-6);
        assert_eq!(cosine(&[0., 0.], &[1., 1.]), 0.0);
    }

    #[test]
    fn row_mean() {
        let m = Matrix::from_vec(2, 2, vec![1., 3., 3., 5.]);
        assert_eq!(m.row_mean().data, vec![2., 4.]);
    }

    /// Operand with a `permille` share of special values (±0, NaN, ±∞,
    /// subnormals, values whose products overflow); the rest uniform.
    fn operand(len: usize, permille: u32, rng: &mut StdRng) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 8.0, // subnormal
            -f32::MIN_POSITIVE / 3.0,
            3.0e38,
        ];
        (0..len)
            .map(|_| {
                if rng.gen_range(0..1000u32) < permille {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                } else if rng.gen_range(0..10u32) == 0 {
                    0.0 // plain zeros are common in real inputs (padding, ReLU)
                } else {
                    rng.gen_range(-4.0..4.0f32)
                }
            })
            .collect()
    }

    /// The textbook `ikj` product the kernel must reproduce bit for bit.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    /// Bit patterns, with every NaN mapped to one canonical NaN: Rust
    /// leaves a NaN result's sign and payload unspecified (LLVM may
    /// commute the operands of `+` and `*`, and x86 propagates the first
    /// operand's payload), so NaN-ness is the contract, not its bits.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    proptest! {
        /// Both arms equal the naive loop bit for bit: `matmul_into` takes
        /// the AVX2 arm on a CPU that has it, `kernel` is the plain arm.
        /// Widths cover full 32- and 8-blocks, their tails, and zero.
        #[test]
        fn kernel_arms_match_naive_bit_for_bit(
            m in 0usize..13,
            k in 0usize..131,
            n in 0usize..411,
            permille in 0u32..80,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = operand(m * k, permille, &mut rng);
            let b = operand(k * n, permille / 4, &mut rng);
            let want = bits(&naive(&a, &b, m, k, n));

            let mut out = vec![f32::NAN; m * n]; // stale contents must not leak
            matmul_into(&a, &b, &mut out, k, n);
            prop_assert_eq!(bits(&out), want.clone());

            let mut plain = vec![f32::NAN; m * n];
            if n > 0 {
                let rows = Rows { m, taps: 1, d: k, n, row: |i: usize, _| Some(&a[i * k..(i + 1) * k]) };
                kernel(&rows, &b, &mut plain);
            }
            prop_assert_eq!(bits(&plain), want);
        }

        /// The convolution entry equals `im2row` + the naive product.
        #[test]
        fn conv_rows_match_patch_matrix(
            len in 0usize..12,
            taps in 1usize..6,
            d in 0usize..20,
            n in 0usize..45,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = operand(len * d, 40, &mut rng);
            let w = operand(taps * d * n, 5, &mut rng);
            let half = (taps - 1) / 2;
            let mut patches = vec![0.0f32; len * taps * d];
            for t in 0..len {
                for kk in 0..taps {
                    let src = t as isize + kk as isize - half as isize;
                    if src >= 0 && (src as usize) < len {
                        let s = src as usize;
                        patches[(t * taps + kk) * d..(t * taps + kk + 1) * d]
                            .copy_from_slice(&x[s * d..(s + 1) * d]);
                    }
                }
            }
            let want = bits(&naive(&patches, &w, len, taps * d, n));
            let mut out = vec![f32::NAN; len * n];
            conv_rows_into(len, taps, d, |t| &x[t * d..(t + 1) * d], &w, n, &mut out);
            prop_assert_eq!(bits(&out), want);
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
