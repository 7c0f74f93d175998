//! Minimal dense `f32` tensor kernels.
//!
//! Row-major matrices and the handful of dense operations GNN models need.
//! These stand in for cuBLAS/cuDNN on the functional side; their simulated
//! GPU cost is modeled separately by [`crate::models::DenseCostModel`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A dense row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use mgg_gnn::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), &[3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Glorot-uniform initialization, seeded.
    pub fn glorot(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data =
            (0..rows * cols).map(|_| rng.random_range(-limit..limit) as f32).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat data, mutable.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r`, mutable.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other`, split by rows across the `mgg-runtime` pool.
    ///
    /// Each output is summed as `((0 + a₀b₀) + a₁b₁) + …` with `k`
    /// ascending, starting from +0.0, so the result is the same bits as the
    /// textbook triple loop at any pool width and on any CPU. Registers hold
    /// a 4 × 16 block of outputs; on x86-64 CPUs with AVX2 the same kernel
    /// runs from a copy compiled for AVX2 (see `DESIGN.md` §9.5).
    ///
    /// Every term is added, zeros included: where `other` holds ±∞ or NaN
    /// in a row whose factor in `self` is zero, the output is NaN, as IEEE
    /// `0 × ∞` gives. On finite inputs skipping zero factors would change
    /// no bit.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_on(other, Body::widest())
    }

    /// [`Matrix::matmul`] on the given compiled copy of the kernel.
    fn matmul_on(&self, other: &Matrix, body: Body) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (k, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if self.rows == 0 || n == 0 || k == 0 {
            return out;
        }
        let chunk_rows =
            mgg_runtime::chunk_len(self.rows, MIN_MATMUL_ROWS_PER_JOB).next_multiple_of(MR);
        let slices: Vec<&mut [f32]> = out.data.chunks_mut(chunk_rows * n).collect();
        let _lbl = mgg_runtime::profile::region_label("gnn.matmul");
        mgg_runtime::par_slices_mut(slices, |ci, out_chunk| {
            let r0 = ci * chunk_rows;
            let a = &self.data[r0 * k..(r0 + out_chunk.len() / n) * k];
            body.run(a, &other.data, out_chunk, k, n);
        });
        out
    }

    /// `self^T @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "outer dimensions must agree");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ other^T`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                *o = a_row.iter().zip(b_row).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// Elementwise ReLU, in place.
    pub fn relu_inplace(&mut self) {
        for x in &mut self.data {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// Elementwise ReLU derivative mask applied to `grad` (in place):
    /// `grad[i] = 0` where `pre[i] <= 0`.
    pub fn relu_backward_inplace(grad: &mut Matrix, pre: &Matrix) {
        assert_eq!(grad.data.len(), pre.data.len(), "shape mismatch");
        for (g, &p) in grad.data.iter_mut().zip(&pre.data) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// Row-wise softmax, in place (numerically stabilized).
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Maximum absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Rows of `out` in one register block of [`Matrix::matmul`].
const MR: usize = 4;

/// Columns of `out` in one register block: two 8-lane AVX2 vectors.
const NR: usize = 16;

/// Fewest rows one pool job of [`Matrix::matmul`] computes. A product with
/// no more rows than this stays on the calling thread.
const MIN_MATMUL_ROWS_PER_JOB: usize = 256;

/// Which compiled copy of the GEMM kernel runs. Both copies come from the
/// one body [`gemm_rows`], so they give the same bits.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// Built for the baseline target (SSE2 on x86-64).
    Portable,
    /// Built with AVX2 enabled. Only [`Body::widest`] makes it, after
    /// checking that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Body {
    /// The widest copy this CPU can run.
    fn widest() -> Body {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Body::Avx2;
        }
        Body::Portable
    }

    /// `out = a @ b` for the rows of one job, as in [`gemm_rows`].
    fn run(self, a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        match self {
            Body::Portable => gemm_rows(a, b, out, k, n),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Body::Avx2` is only made by `Body::widest`, which
            // found AVX2 on this CPU.
            Body::Avx2 => unsafe { gemm_rows_avx2(a, b, out, k, n) },
        }
    }
}

/// [`gemm_rows`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    gemm_rows(a, b, out, k, n)
}

/// `out = a @ b` for `a` of `rows × k`, `b` of `k × n` and `out` of
/// `rows × n`, with `k` and `n` nonzero: [`MR`]-row blocks, then one row
/// at a time for the rest.
#[inline(always)]
fn gemm_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let mut a_blocks = a.chunks_exact(MR * k);
    let mut out_blocks = out.chunks_exact_mut(MR * n);
    for (a_blk, out_blk) in (&mut a_blocks).zip(&mut out_blocks) {
        row_block::<MR>(a_blk, b, out_blk, k, n);
    }
    let rest = a_blocks.remainder().chunks_exact(k);
    for (a_row, out_row) in rest.zip(out_blocks.into_remainder().chunks_exact_mut(n)) {
        row_block::<1>(a_row, b, out_row, k, n);
    }
}

/// `out = a @ b` for one block of `R` rows: [`NR`]-column tiles, then one
/// narrower tile for the columns left over.
#[inline(always)]
fn row_block<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut c0 = 0;
    while c0 < n {
        let w = NR.min(n - c0);
        // A constant width lets the compiler keep a full tile in registers.
        let acc = if w == NR {
            tile(&a_rows, &b[c0..], k, n, NR)
        } else {
            tile(&a_rows, &b[c0..], k, n, w)
        };
        for (out_row, acc_r) in out.chunks_exact_mut(n).zip(&acc) {
            out_row[c0..c0 + w].copy_from_slice(&acc_r[..w]);
        }
        c0 += w;
    }
}

/// The kernel: the `R × w` block of outputs (`w <= NR`) over the first `w`
/// columns of `b`. Every accumulator starts at +0.0 and adds
/// `a[r][p] * b[p][c]` for `p` ascending; there is no fused multiply-add
/// and no zero skip.
#[inline(always)]
fn tile<const R: usize>(
    a_rows: &[&[f32]; R],
    b: &[f32],
    k: usize,
    n: usize,
    w: usize,
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for p in 0..k {
        let b_row = &b[p * n..p * n + w];
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[p];
            for (o, &y) in acc_r[..w].iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
    acc
}

/// Mean cross-entropy of softmax `probs` against integer `labels`,
/// restricted to `mask` rows (all rows when `mask` is `None`).
pub fn cross_entropy(probs: &Matrix, labels: &[u32], mask: Option<&[bool]>) -> f32 {
    assert_eq!(probs.rows(), labels.len(), "one label per row");
    let mut loss = 0.0f64;
    let mut count = 0usize;
    for (r, &y) in labels.iter().enumerate() {
        if let Some(m) = mask {
            if !m[r] {
                continue;
            }
        }
        let p = probs.row(r)[y as usize].max(1e-12);
        loss -= (p as f64).ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (loss / count as f64) as f32
    }
}

/// Fraction of rows whose argmax equals the label, over `mask` rows.
pub fn accuracy(logits: &Matrix, labels: &[u32], mask: Option<&[bool]>) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    let mut correct = 0usize;
    let mut count = 0usize;
    for (r, &y) in labels.iter().enumerate() {
        if let Some(m) = mask {
            if !m[r] {
                continue;
            }
        }
        let row = logits.row(r);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN logits"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == y as usize {
            correct += 1;
        }
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        correct as f64 / count as f64
    }
}

/// Adam optimizer state for one parameter matrix.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
}

impl Adam {
    /// Adam with the usual defaults for a parameter of `len` elements.
    pub fn new(len: usize, lr: f32) -> Self {
        Adam { m: vec![0.0; len], v: vec![0.0; len], t: 0, lr, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// One update step: `param -= lr * m_hat / (sqrt(v_hat) + eps)`.
    pub fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.data().len(), self.m.len(), "parameter shape changed");
        assert_eq!(grad.data().len(), self.m.len(), "gradient shape mismatch");
        self.t += 1;
        let b1c = 1.0 - self.beta1.powi(self.t as i32);
        let b2c = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, &g), (m, v)) in param
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / b1c;
            let v_hat = *v / b2c;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.row(i)[k] * b.row(k)[j];
                }
                out.row_mut(i)[j] = s;
            }
        }
        out
    }

    /// The `matmul` loop before register blocking, kept as an oracle: i-k-j
    /// order, skipping zero factors of `a`.
    fn ikj_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// A seeded matrix whose entries mix ordinary values with +0, −0,
    /// subnormals of either sign and values whose products overflow.
    fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0u32..10) {
                0 => 0.0,
                1 => -0.0,
                2 => {
                    let sub = f32::from_bits(rng.random_range(1u32..0x80_0000));
                    if rng.random_bool(0.5) { -sub } else { sub }
                }
                3 => rng.random_range(-3.0e19f32..3.0e19),
                _ => rng.random_range(-2.0f32..2.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Every row and column remainder of the 4 × 16 block, row counts that
    /// split into several pool jobs, and the GIN widths: both compiled
    /// copies of the kernel give the triple loop's bits at every pool
    /// width, and so does the old zero-skipping loop on these finite inputs.
    #[test]
    fn matmul_matches_naive() {
        let bodies = [Body::Portable, Body::widest()];
        let mut seed = 0;
        for rows in [0, 1, 3, 4, 5, 257, 1031] {
            for cols in [1, 7, 8, 15, 16, 17, 64, 128] {
                for inner in [0, 1, 64, 96] {
                    seed += 2;
                    let a = awkward(rows, inner, seed);
                    let b = awkward(inner, cols, seed + 1);
                    let want = bits(&naive_matmul(&a, &b));
                    assert_eq!(bits(&ikj_matmul(&a, &b)), want, "{rows}x{inner}x{cols} i-k-j");
                    for threads in [1, 2, 4, 7] {
                        for body in bodies {
                            let got =
                                mgg_runtime::with_threads(threads, || a.matmul_on(&b, body));
                            assert_eq!(
                                bits(&got),
                                want,
                                "{rows}x{inner}x{cols}, {body:?} at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The one input where the zero skip mattered: a zero factor against
    /// ∞ or NaN in `other` now adds IEEE `0 × ∞ = NaN`, as the triple loop
    /// does, where the old loop skipped the term.
    #[test]
    fn zero_times_non_finite_is_nan() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let b = Matrix::from_vec(2, 2, vec![bad, 1.0, 2.0, 3.0]);
            let got = a.matmul(&b);
            assert!(got.data()[0].is_nan(), "0 x {bad} must reach the output");
            assert_eq!(got.data()[1], 3.0);
            assert!(naive_matmul(&a, &b).data()[0].is_nan());
            assert_eq!(ikj_matmul(&a, &b).data()[0], 2.0, "the old loop skipped the term");
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::glorot(6, 4, 3);
        let b = Matrix::glorot(6, 2, 4);
        // a^T b via naive on transposed a.
        let mut at = Matrix::zeros(4, 6);
        for i in 0..6 {
            for j in 0..4 {
                at.row_mut(j)[i] = a.row(i)[j];
            }
        }
        assert!(a.t_matmul(&b).max_abs_diff(&naive_matmul(&at, &b)) < 1e-5);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::glorot(3, 4, 5);
        let b = Matrix::glorot(2, 4, 6);
        let mut bt = Matrix::zeros(4, 2);
        for i in 0..2 {
            for j in 0..4 {
                bt.row_mut(j)[i] = b.row(i)[j];
            }
        }
        assert!(a.matmul_t(&b).max_abs_diff(&naive_matmul(&a, &bt)) < 1e-5);
    }

    #[test]
    fn relu_and_backward() {
        let mut x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let pre = x.clone();
        x.relu_inplace();
        assert_eq!(x.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        Matrix::relu_backward_inplace(&mut g, &pre);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        x.softmax_rows_inplace();
        for r in 0..2 {
            let s: f32 = x.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(x.row(r).iter().all(|&p| p >= 0.0));
        }
        // Softmax is monotone in the logits.
        assert!(x.row(0)[2] > x.row(0)[0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        let probs = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let loss = cross_entropy(&probs, &[0, 1], None);
        assert!(loss.abs() < 1e-6);
    }

    #[test]
    fn accuracy_with_mask() {
        let logits = Matrix::from_vec(3, 2, vec![2.0, 1.0, 0.0, 1.0, 3.0, 0.0]);
        // Predictions: 0, 1, 0. Labels: 0, 0, 0.
        let acc_all = accuracy(&logits, &[0, 0, 0], None);
        assert!((acc_all - 2.0 / 3.0).abs() < 1e-9);
        let mask = [true, true, false];
        let acc_masked = accuracy(&logits, &[0, 0, 0], Some(&mask));
        assert!((acc_masked - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adam_reduces_quadratic_loss() {
        // Minimize ||w||^2: gradient is 2w, Adam must shrink w.
        let mut w = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let mut opt = Adam::new(3, 0.1);
        for _ in 0..200 {
            let mut g = w.clone();
            g.scale(2.0);
            opt.step(&mut w, &g);
        }
        assert!(w.data().iter().all(|&x| x.abs() < 0.05), "w={:?}", w.data());
    }

    #[test]
    fn glorot_is_seeded_and_bounded() {
        let a = Matrix::glorot(4, 4, 9);
        let b = Matrix::glorot(4, 4, 9);
        assert_eq!(a, b);
        let limit = (6.0f64 / 8.0).sqrt() as f32;
        assert!(a.data().iter().all(|&x| x.abs() <= limit));
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_addition(
            a in arb_matrix(4, 3),
            b in arb_matrix(4, 3),
            c in arb_matrix(3, 5),
        ) {
            // (A + B) C == A C + B C, up to FP tolerance.
            let mut ab = a.clone();
            ab.axpy(1.0, &b);
            let lhs = ab.matmul(&c);
            let mut rhs = a.matmul(&c);
            rhs.axpy(1.0, &b.matmul(&c));
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
        }

        #[test]
        fn transpose_products_agree(
            a in arb_matrix(5, 4),
            b in arb_matrix(5, 3),
        ) {
            // a.t_matmul(b) == (b.t_matmul(a))^T — verify via matmul_t.
            let atb = a.t_matmul(&b); // 4 x 3
            let bta = b.t_matmul(&a); // 3 x 4
            for i in 0..4 {
                for j in 0..3 {
                    prop_assert!((atb.row(i)[j] - bta.row(j)[i]).abs() < 1e-3);
                }
            }
        }

        #[test]
        fn softmax_is_shift_invariant(
            logits in proptest::collection::vec(-5.0f32..5.0, 6),
            shift in -100.0f32..100.0,
        ) {
            let mut a = Matrix::from_vec(1, 6, logits.clone());
            let mut b = Matrix::from_vec(1, 6, logits.iter().map(|&x| x + shift).collect());
            a.softmax_rows_inplace();
            b.softmax_rows_inplace();
            prop_assert!(a.max_abs_diff(&b) < 1e-4);
        }

        #[test]
        fn accuracy_and_cross_entropy_are_bounded(
            logits in arb_matrix(8, 3),
            labels in proptest::collection::vec(0u32..3, 8),
        ) {
            let mut p = logits.clone();
            p.softmax_rows_inplace();
            let loss = cross_entropy(&p, &labels, None);
            prop_assert!(loss >= 0.0);
            let acc = accuracy(&logits, &labels, None);
            prop_assert!((0.0..=1.0).contains(&acc));
        }
    }
}
