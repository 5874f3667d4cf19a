//! Dense and ternary matrices for sensing and random projection.
//!
//! Two memory-conscious representations from the paper (Section IV-A):
//!
//! * [`PackedTernaryMatrix`] — a dense matrix over `{-1, 0, +1}` stored
//!   at **2 bits per element**, exactly the random-projection storage
//!   optimization the paper describes for embedded classification.
//! * [`SparseTernaryMatrix`] — a column-sparse ternary matrix with `d`
//!   non-zeros per column, the "few non-zero elements in the sensing
//!   matrix" that make compressed sensing affordable on the node
//!   (reference \[16\]).
//!
//! Both are generated from a deterministic seed with an internal
//! xorshift generator, so node and base station can reconstruct the
//! same matrix from a shared seed — no matrix ever travels on air.

use crate::{Result, SigprocError};

/// Minimal xorshift64* PRNG used for reproducible matrix generation
/// without external dependencies (the node would use the same trivial
/// generator).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is mapped to a fixed non-zero one.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Row-major dense `f64` matrix with the handful of operations the
/// solvers need.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    ///
    /// # Errors
    ///
    /// Fails when either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(SigprocError::InvalidLength {
                what: "matrix dimension",
                got: rows.min(cols),
            });
        }
        Ok(DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Builds from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Fails when `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(SigprocError::InvalidLength {
                what: "matrix dimension",
                got: rows.min(cols),
            });
        }
        if data.len() != rows * cols {
            return Err(SigprocError::ShapeMismatch {
                what: "matrix data",
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec shape");
        (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// Transposed product `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics when `y.len() != rows`.
    pub fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "matvec_t shape");
        let mut out = vec![0.0; self.cols];
        for (row, &yr) in self.data.chunks_exact(self.cols).zip(y) {
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * yr;
            }
        }
        out
    }
}

/// Ternary element code: 2 bits per element (`00` = 0, `01` = +1,
/// `10` = −1).
fn code_of(v: i8) -> u8 {
    // Total over i8: `signum` folds every (unreachable) out-of-range
    // magnitude onto its sign's code instead of aborting.
    match v.signum() {
        1 => 0b01,
        -1 => 0b10,
        _ => 0b00,
    }
}

fn value_of(code: u8) -> i8 {
    match code & 0b11 {
        0b00 => 0,
        0b01 => 1,
        0b10 => -1,
        _ => 0, // 0b11 unused
    }
}

/// Dense ternary matrix packed at 2 bits/element — the embedded
/// random-projection storage format (Section IV-A of the paper).
///
/// An `m×n` matrix occupies `⌈m·n/4⌉` bytes; a 16×128 projection fits
/// in 512 bytes of flash.
///
/// # Example
///
/// ```
/// use wbsn_sigproc::matrix::PackedTernaryMatrix;
///
/// let p = PackedTernaryMatrix::random_achlioptas(8, 32, 42).unwrap();
/// assert_eq!(p.memory_bytes(), 8 * 32 / 4);
/// let y = p.apply_i32(&vec![1; 32]);
/// assert_eq!(y.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTernaryMatrix {
    rows: usize,
    cols: usize,
    packed: Vec<u8>,
}

impl PackedTernaryMatrix {
    /// Achlioptas random projection: elements `+1`/`−1` with
    /// probability 1/6 each and `0` with probability 2/3 (scaling by
    /// √3/√m is deferred to the consumer — the classifier never needs
    /// it because downstream training absorbs a global scale).
    ///
    /// # Errors
    ///
    /// Fails when either dimension is zero.
    pub fn random_achlioptas(rows: usize, cols: usize, seed: u64) -> Result<Self> {
        Self::random_with_density(rows, cols, 1.0 / 3.0, seed)
    }

    /// Random ternary matrix with `P(non-zero) = density`, signs
    /// balanced.
    ///
    /// # Errors
    ///
    /// Fails when a dimension is zero or `density ∉ [0, 1]`.
    pub fn random_with_density(rows: usize, cols: usize, density: f64, seed: u64) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(SigprocError::InvalidLength {
                what: "matrix dimension",
                got: rows.min(cols),
            });
        }
        if !(0.0..=1.0).contains(&density) {
            return Err(SigprocError::InvalidParameter {
                what: "density",
                detail: "must be in [0, 1]",
            });
        }
        let mut rng = XorShift64::new(seed);
        let total = rows * cols;
        let mut packed = vec![0u8; total.div_ceil(4)];
        for idx in 0..total {
            let u = rng.next_f64();
            let v: i8 = if u < density / 2.0 {
                1
            } else if u < density {
                -1
            } else {
                0
            };
            let byte = idx / 4;
            let shift = (idx % 4) * 2;
            packed[byte] |= code_of(v) << shift;
        }
        Ok(PackedTernaryMatrix { rows, cols, packed })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)` as `-1`, `0` or `+1`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let idx = r * self.cols + c;
        value_of(self.packed[idx / 4] >> ((idx % 4) * 2))
    }

    /// Bytes of storage used by the packed representation.
    pub fn memory_bytes(&self) -> usize {
        self.packed.len()
    }

    /// Integer projection `y = P x` into a caller-owned buffer
    /// (cleared and resized first) — additions/subtractions only, no
    /// per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply_i32_into(&self, x: &[i32], out: &mut Vec<i64>) {
        assert_eq!(x.len(), self.cols, "apply shape");
        // No clear(): every element is unconditionally overwritten.
        out.resize(self.rows, 0);
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0i64;
            for (c, &xv) in x.iter().enumerate() {
                match self.at(r, c) {
                    1 => acc += xv as i64,
                    -1 => acc -= xv as i64,
                    _ => {}
                }
            }
            *o = acc;
        }
    }

    /// Integer projection `y = P x` — additions/subtractions only, as
    /// on the node.
    ///
    /// Allocates the output; hot paths should prefer
    /// [`PackedTernaryMatrix::apply_i32_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply_i32(&self, x: &[i32]) -> Vec<i64> {
        let mut out = Vec::new();
        self.apply_i32_into(x, &mut out);
        out
    }

    /// Float projection for host-side use.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "apply shape");
        (0..self.rows)
            .map(|r| {
                let mut acc = 0.0;
                for (c, &xv) in x.iter().enumerate() {
                    match self.at(r, c) {
                        1 => acc += xv,
                        -1 => acc -= xv,
                        _ => {}
                    }
                }
                acc
            })
            .collect()
    }

    /// Expands to a dense matrix (for verification).
    #[expect(
        clippy::expect_used,
        reason = "rows/cols are >= 1 by construction (checked in the constructor), and this expand is a verification-only helper"
    )]
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols).expect("non-zero dims");
        for r in 0..self.rows {
            for c in 0..self.cols {
                *m.at_mut(r, c) = self.at(r, c) as f64;
            }
        }
        m
    }

    /// Count of non-zero elements.
    pub fn nnz(&self) -> usize {
        let mut count = 0;
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.at(r, c) != 0 {
                    count += 1;
                }
            }
        }
        count
    }
}

/// Column-sparse ternary sensing matrix: exactly `d` non-zeros (±1) at
/// random rows of each column. Encoding `y = Φx` costs `n·d` signed
/// additions — the ultra-low-power CS encoder of references \[4\]/\[16\].
///
/// Stored in **fixed-stride CSC layout split by sign**: every column
/// has exactly `d` non-zeros, so column `c`'s row indices occupy
/// `row_idx[c·d..c·d + d]`, positives first (`pos_len[c]` of them) then
/// negatives. No sign values are stored, loaded or multiplied. The
/// encode kernels derive each entry's sign from its position in the
/// run and `pos_len[c]` with bit operations, not a branch, so the
/// random sign split of the columns costs no mispredictions.
///
/// The adjoint instead walks the columns **by sign class**: at
/// construction the matrix also stores its column order grouped by
/// `pos_len` (one `u32` per column, ascending within a class) and the
/// `d + 1` class bounds. Within a class the split point of every run
/// is the same, so each column's two sums read only their own entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseTernaryMatrix {
    rows: usize,
    cols: usize,
    /// Count of positive entries at the head of each column's run.
    pos_len: Vec<u32>,
    /// Row indices, `d_per_col` per column: positives first, then
    /// negatives.
    row_idx: Vec<u32>,
    d_per_col: usize,
    /// Column indices sorted stably by `pos_len`.
    class_cols: Vec<u32>,
    /// End of each class in `class_cols`, `d_per_col + 1` entries: the
    /// columns with `P` positives are `class_cols[class_end[P − 1]..
    /// class_end[P]]` (from 0 for `P = 0`).
    class_end: Vec<u32>,
}

/// Bits of `−0.0`: the IEEE sign bit alone.
const NEG_ZERO: u64 = 1 << 63;

/// The column weight the f64 kernels are compiled for as a constant:
/// the paper's `d = 4`, which every gateway handshake uses. With the
/// run length (and, in the adjoint, each class's sign split) known,
/// each column's loops unroll and its slice bounds checks fold away;
/// any other weight runs the same kernel with runtime trip counts.
const UNROLLED_D: usize = 4;

/// Sign mask of entry `k` of a column whose run starts with `pos_len`
/// positives: all zeros for a positive, all ones for a negative.
///
/// It is the sign of `pos_len − 1 − k` spread by an arithmetic shift,
/// not a comparison, so the compiler keeps the selects it feeds in
/// integer registers (`cmov`) instead of lowering them to a branch.
#[inline(always)]
fn neg_mask(pos_len: u32, k: usize) -> u64 {
    (u64::from(pos_len).wrapping_sub(1).wrapping_sub(k as u64) as i64 >> 63) as u64
}

impl SparseTernaryMatrix {
    /// Generates a matrix with `d_per_col` non-zeros per column.
    ///
    /// # Errors
    ///
    /// Fails when a dimension is zero, or `d_per_col` is zero or
    /// exceeds `rows`.
    pub fn random(rows: usize, cols: usize, d_per_col: usize, seed: u64) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(SigprocError::InvalidLength {
                what: "matrix dimension",
                got: rows.min(cols),
            });
        }
        if d_per_col == 0 || d_per_col > rows {
            return Err(SigprocError::InvalidParameter {
                what: "d_per_col",
                detail: "must be in 1..=rows",
            });
        }
        let Ok(cols_u32) = u32::try_from(cols) else {
            return Err(SigprocError::InvalidParameter {
                what: "cols",
                detail: "must fit in u32",
            });
        };
        let mut rng = XorShift64::new(seed);
        let mut pos_len = Vec::with_capacity(cols);
        let mut row_idx = Vec::with_capacity(cols * d_per_col);
        let mut scratch: Vec<u32> = Vec::with_capacity(d_per_col);
        let mut negs: Vec<u32> = Vec::with_capacity(d_per_col);
        for _ in 0..cols {
            scratch.clear();
            // Rejection-sample d distinct rows (RNG consumption is
            // identical to the historical entry-list layout, so seeds
            // keep producing the same matrix).
            while scratch.len() < d_per_col {
                let r = rng.next_below(rows as u64) as u32;
                if !scratch.contains(&r) {
                    scratch.push(r);
                }
            }
            negs.clear();
            for &r in scratch.iter() {
                if rng.next_u64() & 1 == 0 {
                    row_idx.push(r);
                } else {
                    negs.push(r);
                }
            }
            pos_len.push((d_per_col - negs.len()) as u32);
            row_idx.extend_from_slice(&negs);
        }
        let mut class_cols: Vec<u32> = (0..cols_u32).collect();
        class_cols.sort_by_key(|&c| pos_len[c as usize]);
        let class_end = (0..=d_per_col as u32)
            .map(|p| class_cols.partition_point(|&c| pos_len[c as usize] <= p) as u32)
            .collect();
        Ok(SparseTernaryMatrix {
            rows,
            cols,
            pos_len,
            row_idx,
            d_per_col,
            class_cols,
            class_end,
        })
    }

    /// Number of rows (measurements).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (signal length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zeros per column.
    pub fn d_per_col(&self) -> usize {
        self.d_per_col
    }

    /// Column `c`'s row indices as `(positives, negatives)` slices, in
    /// stored order (the order every kernel visits and sums them).
    ///
    /// # Panics
    ///
    /// Panics when `c >= cols`.
    #[inline]
    pub fn column(&self, c: usize) -> (&[u32], &[u32]) {
        let d = self.d_per_col;
        self.row_idx[c * d..c * d + d].split_at(self.pos_len[c] as usize)
    }

    /// Every column's run of `d` row indices paired with its
    /// `pos_len`, in column order; `d` is always `d_per_col`, passed in
    /// so a caller can make it a compile-time constant.
    #[inline(always)]
    fn runs(&self, d: usize) -> impl Iterator<Item = (&[u32], u32)> + '_ {
        debug_assert_eq!(d, self.d_per_col);
        self.row_idx
            .chunks_exact(d)
            .zip(self.pos_len.iter().copied())
    }

    /// Integer encode `y = Φ x` into a caller-owned buffer (cleared and
    /// resized first) — a pure add/sub sweep over the CSC runs, no sign
    /// loads and no per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply_i32_into(&self, x: &[i32], y: &mut Vec<i64>) {
        // No clear(): resize only zero-fills newly grown elements, and
        // apply_i32_to_slice re-zeroes the whole output anyway.
        y.resize(self.rows, 0);
        self.apply_i32_to_slice(x, y);
    }

    /// Slice form of [`SparseTernaryMatrix::apply_i32_into`] for
    /// callers that own a larger measurement buffer (batched encodes
    /// write each window's `m` measurements in place).
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn apply_i32_to_slice(&self, x: &[i32], y: &mut [i64]) {
        assert_eq!(x.len(), self.cols, "apply shape");
        assert_eq!(y.len(), self.rows, "apply output shape");
        y.fill(0);
        for ((run, pos_len), &xv) in self.runs(self.d_per_col).zip(x) {
            let xv = i64::from(xv);
            for (k, &r) in run.iter().enumerate() {
                // Two's complement: `(v ^ −1) − (−1)` is `−v`.
                let neg = neg_mask(pos_len, k) as i64;
                y[r as usize] += (xv ^ neg) - neg;
            }
        }
    }

    /// Integer encode `y = Φ x` with an `i64` accumulator.
    ///
    /// Allocates the output; hot paths should prefer
    /// [`SparseTernaryMatrix::apply_i32_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply_i32(&self, x: &[i32]) -> Vec<i64> {
        let mut y = Vec::new();
        self.apply_i32_into(x, &mut y);
        y
    }

    /// Float encode `y = Φ x`. Allocates; repeated products should
    /// prefer [`SparseTernaryMatrix::apply_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.apply_into(x, &mut y);
        y
    }

    /// [`SparseTernaryMatrix::apply`] into a caller-owned buffer,
    /// resized to `rows` first: a warm caller allocates nothing. This
    /// is [`SparseTernaryMatrix::apply_lanes`] at one lane.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn apply_into(&self, x: &[f64], y: &mut Vec<f64>) {
        y.resize(self.rows, 0.0);
        self.apply_lanes(x.as_chunks::<1>().0, y.as_chunks_mut::<1>().0);
    }

    /// `y = Φ x` on `K` vectors at once, lanes innermost: `x[c][l]` is
    /// entry `c` of lane `l`'s input, and lane `l` of `y` (every entry
    /// overwritten) is bit for bit what [`SparseTernaryMatrix::apply_into`]
    /// gives on that lane alone. Each column's run is read once for
    /// all `K` lanes.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn apply_lanes<const K: usize>(&self, x: &[[f64; K]], y: &mut [[f64; K]]) {
        assert_eq!(x.len(), self.cols, "apply shape");
        assert_eq!(y.len(), self.rows, "apply output shape");
        y.fill([0.0; K]);
        match self.d_per_col {
            UNROLLED_D => self.apply_runs(UNROLLED_D, x, y),
            d => self.apply_runs(d, x, y),
        }
    }

    /// The [`SparseTernaryMatrix::apply_lanes`] sweep over zeroed `y`.
    ///
    /// `y − x` is by IEEE definition `y + (−x)`, and a column's rows
    /// are distinct, so adding `x` with its sign bit flipped by the mask
    /// gives every bit of an add-the-positives, subtract-the-negatives
    /// sweep.
    #[inline(always)]
    fn apply_runs<const K: usize>(&self, d: usize, x: &[[f64; K]], y: &mut [[f64; K]]) {
        for ((run, pos_len), xv) in self.runs(d).zip(x) {
            for (k, &r) in run.iter().enumerate() {
                let flip = neg_mask(pos_len, k) & NEG_ZERO;
                for (yl, xl) in y[r as usize].iter_mut().zip(xv) {
                    *yl += f64::from_bits(xl.to_bits() ^ flip);
                }
            }
        }
    }

    /// Adjoint `Φᵀ y`. Allocates; repeated products should prefer
    /// [`SparseTernaryMatrix::apply_t_into`].
    ///
    /// # Panics
    ///
    /// Panics when `y.len() != rows`.
    pub fn apply_t(&self, y: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.apply_t_into(y, &mut x);
        x
    }

    /// [`SparseTernaryMatrix::apply_t`] into a caller-owned buffer
    /// (resized to `cols`; every entry is overwritten). This is
    /// [`SparseTernaryMatrix::apply_t_lanes`] at one lane.
    ///
    /// # Panics
    ///
    /// Panics when `y.len() != rows`.
    pub fn apply_t_into(&self, y: &[f64], x: &mut Vec<f64>) {
        x.resize(self.cols, 0.0);
        self.apply_t_lanes(y.as_chunks::<1>().0, x.as_chunks_mut::<1>().0);
    }

    /// `x = Φᵀ y` on `K` vectors at once, lanes innermost (see
    /// [`SparseTernaryMatrix::apply_lanes`]): lane `l` of `x` (every
    /// entry overwritten) is bit for bit what
    /// [`SparseTernaryMatrix::apply_t_into`] gives on lane `l` of `y`.
    ///
    /// # Panics
    ///
    /// Panics when `y.len() != rows` or `x.len() != cols`.
    pub fn apply_t_lanes<const K: usize>(&self, y: &[[f64; K]], x: &mut [[f64; K]]) {
        assert_eq!(y.len(), self.rows, "apply_t shape");
        assert_eq!(x.len(), self.cols, "apply_t output shape");
        let mut start = 0;
        for (pos, &end) in self.class_end.iter().enumerate() {
            let cols = &self.class_cols[start as usize..end as usize];
            start = end;
            match (self.d_per_col, pos) {
                (UNROLLED_D, 0) => self.apply_t_class(UNROLLED_D, 0, cols, y, x),
                (UNROLLED_D, 1) => self.apply_t_class(UNROLLED_D, 1, cols, y, x),
                (UNROLLED_D, 2) => self.apply_t_class(UNROLLED_D, 2, cols, y, x),
                (UNROLLED_D, 3) => self.apply_t_class(UNROLLED_D, 3, cols, y, x),
                (UNROLLED_D, 4) => self.apply_t_class(UNROLLED_D, 4, cols, y, x),
                (d, pos) => self.apply_t_class(d, pos, cols, y, x),
            }
        }
    }

    /// The [`SparseTernaryMatrix::apply_t_lanes`] sweep over the columns
    /// `cols` of one sign class, whose runs of `d` start with `pos`
    /// positives; both are passed in so a caller can make them
    /// compile-time constants.
    ///
    /// Two ordered sums per column and lane, one over the positives and
    /// one over the negatives. Both start at −0.0 like `f64`'s `Sum`,
    /// so a column with no negatives still ends `p − (−0.0)`, bit for
    /// bit.
    #[inline(always)]
    fn apply_t_class<const K: usize>(
        &self,
        d: usize,
        pos: usize,
        cols: &[u32],
        y: &[[f64; K]],
        x: &mut [[f64; K]],
    ) {
        for &c in cols {
            let (pos_rows, neg_rows) = self.row_idx[c as usize * d..][..d].split_at(pos);
            let mut p = [-0.0f64; K];
            for &r in pos_rows {
                for (pl, yl) in p.iter_mut().zip(&y[r as usize]) {
                    *pl += yl;
                }
            }
            let mut n = [-0.0f64; K];
            for &r in neg_rows {
                for (nl, yl) in n.iter_mut().zip(&y[r as usize]) {
                    *nl += yl;
                }
            }
            x[c as usize] = core::array::from_fn(|l| p[l] - n[l]);
        }
    }

    /// Expands to dense (verification only).
    #[expect(
        clippy::expect_used,
        reason = "rows/cols are >= 1 by construction (checked in the constructor), and this expand is a verification-only helper"
    )]
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols).expect("non-zero dims");
        for col in 0..self.cols {
            let (pos, neg) = self.column(col);
            for &r in pos {
                *m.at_mut(r as usize, col) += 1.0;
            }
            for &r in neg {
                *m.at_mut(r as usize, col) -= 1.0;
            }
        }
        m
    }

    /// Signed additions required per encoded window (`n·d`).
    pub fn encode_add_count(&self) -> usize {
        self.cols * self.d_per_col
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The masked adjoint the sign-class kernel replaced, kept as its
    /// oracle: every entry of a run feeds both sums, the entry of the
    /// other sign arriving as the −0.0 filler.
    fn masked_apply_t(phi: &SparseTernaryMatrix, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; phi.cols];
        for ((run, pos_len), out) in phi.runs(phi.d_per_col).zip(x.iter_mut()) {
            let mut p = -0.0f64;
            let mut n = -0.0f64;
            for (k, &r) in run.iter().enumerate() {
                let v = y[r as usize].to_bits();
                let neg = neg_mask(pos_len, k);
                p += f64::from_bits((v & !neg) | (NEG_ZERO & neg));
                n += f64::from_bits((v & neg) | (NEG_ZERO & !neg));
            }
            *out = p - n;
        }
        x
    }

    /// `len` values drawn to stress the sign of zero and gradual
    /// underflow: ±0.0, ±subnormals, ±the smallest normal, and ordinary
    /// magnitudes, each about equally often.
    pub(crate) fn awkward_values(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = XorShift64::new(seed);
        (0..len)
            .map(|_| {
                let sign = rng.next_u64() & NEG_ZERO;
                let magnitude = match rng.next_below(5) {
                    0 => 0.0,
                    1 => f64::from_bits(rng.next_below(1 << 52)),
                    2 => f64::MIN_POSITIVE,
                    3 => f64::MIN_POSITIVE * (1.0 + rng.next_f64()),
                    _ => 1e3 * rng.next_f64(),
                };
                f64::from_bits(magnitude.to_bits() | sign)
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Column weights 1..=6 (`d = 4` runs the constant-bound
        // kernel) at random shapes `d ≤ m ≤ n`.
        #[test]
        fn sign_class_adjoint_matches_the_masked_oracle_bitwise(
            d in 1usize..7,
            n_pick in 0usize..96,
            m_pick in 0usize..96,
            seed in 0u64..u64::MAX,
        ) {
            let n = d + n_pick;
            let m = d + m_pick % (n - d + 1);
            let phi = SparseTernaryMatrix::random(m, n, d, seed).unwrap();
            let y = awkward_values(m, seed ^ 0x5EED);
            let mut x = vec![f64::NAN; 3];
            phi.apply_t_into(&y, &mut x);
            prop_assert_eq!(bits(&masked_apply_t(&phi, &y)), bits(&x), "m={} n={} d={}", m, n, d);
        }
    }

    #[test]
    fn dense_matvec_small_example() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn packed_matches_dense_expansion() {
        let p = PackedTernaryMatrix::random_achlioptas(13, 37, 7).unwrap();
        let d = p.to_dense();
        let x: Vec<f64> = (0..37).map(|i| (i as f64) - 18.0).collect();
        let yp = p.apply(&x);
        let yd = d.matvec(&x);
        for (a, b) in yp.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn packed_integer_and_float_agree() {
        let p = PackedTernaryMatrix::random_achlioptas(8, 64, 3).unwrap();
        let xi: Vec<i32> = (0..64).map(|i: i32| i * 13 % 101 - 50).collect();
        let xf: Vec<f64> = xi.iter().map(|&v| v as f64).collect();
        let yi = p.apply_i32(&xi);
        let yf = p.apply(&xf);
        for (a, b) in yi.iter().zip(&yf) {
            assert_eq!(*a as f64, *b);
        }
    }

    #[test]
    fn achlioptas_density_near_third() {
        let p = PackedTernaryMatrix::random_achlioptas(64, 64, 11).unwrap();
        let frac = p.nnz() as f64 / (64.0 * 64.0);
        assert!((frac - 1.0 / 3.0).abs() < 0.05, "density {frac}");
    }

    #[test]
    fn packed_storage_is_two_bits_per_element() {
        let p = PackedTernaryMatrix::random_achlioptas(16, 128, 1).unwrap();
        assert_eq!(p.memory_bytes(), 16 * 128 / 4);
    }

    #[test]
    fn packed_is_deterministic_in_seed() {
        let a = PackedTernaryMatrix::random_achlioptas(8, 8, 5).unwrap();
        let b = PackedTernaryMatrix::random_achlioptas(8, 8, 5).unwrap();
        let c = PackedTernaryMatrix::random_achlioptas(8, 8, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_has_exact_column_density() {
        let s = SparseTernaryMatrix::random(32, 100, 4, 3).unwrap();
        let d = s.to_dense();
        for c in 0..100 {
            let nnz = (0..32).filter(|&r| d.at(r, c) != 0.0).count();
            assert_eq!(nnz, 4, "column {c}");
        }
        assert_eq!(s.encode_add_count(), 400);
    }

    #[test]
    fn sparse_matches_dense_apply() {
        let s = SparseTernaryMatrix::random(24, 96, 3, 17).unwrap();
        let d = s.to_dense();
        let x: Vec<f64> = (0..96).map(|i| ((i * 7) % 19) as f64 - 9.0).collect();
        let ys = s.apply(&x);
        let yd = d.matvec(&x);
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_adjoint_property() {
        let s = SparseTernaryMatrix::random(20, 50, 5, 23).unwrap();
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 1.3).cos()).collect();
        let ax = s.apply(&x);
        let aty = s.apply_t(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn sparse_integer_encode_matches_float() {
        let s = SparseTernaryMatrix::random(16, 64, 2, 31).unwrap();
        let xi: Vec<i32> = (0..64).map(|i: i32| (i - 32) * 11).collect();
        let xf: Vec<f64> = xi.iter().map(|&v| v as f64).collect();
        let yi = s.apply_i32(&xi);
        let yf = s.apply(&xf);
        for (a, b) in yi.iter().zip(&yf) {
            assert_eq!(*a as f64, *b);
        }
    }

    #[test]
    fn single_sign_columns_keep_the_sign_of_a_zero_sum() {
        // Over a zero residual an all-negative column is `−0.0 − (+0.0)`
        // = −0.0 and an all-positive one `+0.0 − (−0.0)` = +0.0; over
        // −0.0 both are +0.0. Seeding either accumulator (or the masked
        // filler) with +0.0 flips one of these signs. `d = 4` runs the
        // unrolled kernel, `d = 1` the runtime-length one.
        for (rows, d) in [(4, 4), (1, 1)] {
            let phi = SparseTernaryMatrix::random(rows, 64, d, 29).unwrap();
            let (mut all_pos, mut all_neg) = (0, 0);
            for (zero, pos_col, neg_col) in [(0.0f64, 0.0f64, -0.0f64), (-0.0, 0.0, 0.0)] {
                let x = phi.apply_t(&vec![zero; rows]);
                for (c, v) in x.iter().enumerate() {
                    let want = match phi.column(c) {
                        (_, []) => pos_col,
                        ([], _) => neg_col,
                        _ => continue,
                    };
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "d={d} column {c} over {zero:?}"
                    );
                    all_pos += usize::from(phi.column(c).1.is_empty());
                    all_neg += usize::from(phi.column(c).0.is_empty());
                }
            }
            assert!(all_pos > 0 && all_neg > 0, "d={d}: {all_pos} / {all_neg}");
        }
    }

    #[test]
    fn constructors_validate() {
        assert!(PackedTernaryMatrix::random_achlioptas(0, 4, 1).is_err());
        assert!(PackedTernaryMatrix::random_with_density(4, 4, 1.5, 1).is_err());
        assert!(SparseTernaryMatrix::random(4, 4, 0, 1).is_err());
        assert!(SparseTernaryMatrix::random(4, 4, 5, 1).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn xorshift_streams_are_reproducible() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(1);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Uniformity smoke test.
        let mut r = XorShift64::new(2);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
