//! Row-major dense matrix with hardware-order kernels.

use core::fmt;
use core::ops::{Index, IndexMut, Range};
use std::error::Error;
use std::sync::{Arc, OnceLock};

use fixar_fixed::Scalar;
use fixar_pool::{split_ranges, KernelScope, Parallelism};

use crate::cert;

/// Error returned when operand shapes do not line up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    what: &'static str,
    expected: (usize, usize),
    got: (usize, usize),
}

impl ShapeError {
    /// Creates a shape error; `expected`/`got` are `(rows, cols)` pairs
    /// (use `1` for the free dimension of a vector).
    pub fn new(what: &'static str, expected: (usize, usize), got: (usize, usize)) -> Self {
        Self {
            what,
            expected,
            got,
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch in {}: expected {}x{}, got {}x{}",
            self.what, self.expected.0, self.expected.1, self.got.0, self.got.1
        )
    }
}

impl Error for ShapeError {}

/// Row-major dense matrix over any FIXAR scalar.
///
/// The weight matrices of the FIXAR actor/critic are stored row by row in
/// the on-chip weight memory (16 weights per 512-bit word); this type is
/// the software image of that storage. See the crate docs for the
/// accumulation-order contract of the multiply kernels.
///
/// # Example
///
/// ```
/// use fixar_tensor::Matrix;
///
/// let w = Matrix::<f32>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let y = w.gemv_alloc(&[1.0, 1.0])?;
/// assert_eq!(y, vec![3.0, 7.0]);
/// # Ok::<(), fixar_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[S]]) -> Result<Self, ShapeError> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(ShapeError::new("from_rows", (i, ncols), (i, row.len())));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for a 0-element matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[S] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Flat mutable row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Matrix-vector product `y = W·x` in hardware column order.
    ///
    /// Column-wise decomposition: for each column `j`, the broadcast input
    /// element `x[j]` multiplies the whole column, and the partial-sum
    /// vector is accumulated into `y` — the order the AAP core produces.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `x.len() == cols && y.len() == rows`.
    pub fn gemv(&self, x: &[S], y: &mut [S]) -> Result<(), ShapeError> {
        if x.len() != self.cols {
            return Err(ShapeError::new("gemv input", (self.cols, 1), (x.len(), 1)));
        }
        if y.len() != self.rows {
            return Err(ShapeError::new("gemv output", (self.rows, 1), (y.len(), 1)));
        }
        for v in y.iter_mut() {
            *v = S::zero();
        }
        for (j, &xj) in x.iter().enumerate() {
            // One broadcast step: x[j] enters every PE row mapped to col j.
            for (i, yi) in y.iter_mut().enumerate() {
                let prod = self.data[i * self.cols + j] * xj;
                *yi += prod;
            }
        }
        Ok(())
    }

    /// Allocating variant of [`Matrix::gemv`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `x.len() == cols`.
    pub fn gemv_alloc(&self, x: &[S]) -> Result<Vec<S>, ShapeError> {
        let mut y = vec![S::zero(); self.rows];
        self.gemv(x, &mut y)?;
        Ok(y)
    }

    /// Transposed matrix-vector product `y = Wᵀ·e` in hardware column
    /// order (used by back-propagation; the accelerator feeds rows of `W`
    /// to PE rows instead of columns, solving the transpose for free).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.len() == rows && y.len() == cols`.
    pub fn gemv_t(&self, e: &[S], y: &mut [S]) -> Result<(), ShapeError> {
        if e.len() != self.rows {
            return Err(ShapeError::new(
                "gemv_t input",
                (self.rows, 1),
                (e.len(), 1),
            ));
        }
        if y.len() != self.cols {
            return Err(ShapeError::new(
                "gemv_t output",
                (self.cols, 1),
                (y.len(), 1),
            ));
        }
        for v in y.iter_mut() {
            *v = S::zero();
        }
        // For Wᵀ the "columns" of the decomposition are the rows of W:
        // broadcast e[i] across row i and accumulate down the outputs.
        for (i, &ei) in e.iter().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &w) in row.iter().enumerate() {
                y[j] += w * ei;
            }
        }
        Ok(())
    }

    /// Allocating variant of [`Matrix::gemv_t`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.len() == rows`.
    pub fn gemv_t_alloc(&self, e: &[S]) -> Result<Vec<S>, ShapeError> {
        let mut y = vec![S::zero(); self.cols];
        self.gemv_t(e, &mut y)?;
        Ok(y)
    }

    /// Rank-1 update `W += e ⊗ a` (gradient accumulation:
    /// `dW[i][j] += e[i]·a[j]`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.len() == rows && a.len() == cols`.
    pub fn add_outer(&mut self, e: &[S], a: &[S]) -> Result<(), ShapeError> {
        if e.len() != self.rows {
            return Err(ShapeError::new(
                "add_outer rows",
                (self.rows, 1),
                (e.len(), 1),
            ));
        }
        if a.len() != self.cols {
            return Err(ShapeError::new(
                "add_outer cols",
                (self.cols, 1),
                (a.len(), 1),
            ));
        }
        for (i, &ei) in e.iter().enumerate() {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &aj) in a.iter().enumerate() {
                row[j] += ei * aj;
            }
        }
        Ok(())
    }

    /// Batched matrix-vector product `Y[b] = W·A[b]` for a minibatch
    /// stored one sample per row: `a` is `(batch, cols)`, `y` is
    /// `(batch, rows)`.
    ///
    /// # Accumulation order
    ///
    /// Bit-exact with calling [`Matrix::gemv`] on every row of `a` in
    /// row order: for each output element `y[b][i]`, partial products are
    /// reduced over the columns `j` in ascending order — the same
    /// per-element reduction sequence as the column-broadcast hardware
    /// dataflow. (Only the *loop nest* differs: the batched kernel walks
    /// a transpose of `W` with unit stride, which is what makes it
    /// faster; saturation and rounding are per-element, so the result is
    /// identical.) When the crate's no-saturation certificate holds —
    /// `maxᵢ Σⱼ|wᵢⱼ|`, computed per call, times `max|A|` — the chain runs
    /// as a wrapping MAC, which cannot change the result. Repeated calls
    /// on the same weights should use [`Matrix::pack`], which caches both
    /// the transpose and the bound.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `a.cols() == cols` and `y` is
    /// `(a.rows(), rows)`.
    pub fn gemv_batch(&self, a: &Matrix<S>, y: &mut Matrix<S>) -> Result<(), ShapeError> {
        self.check_gemv_batch(a, y)?;
        // Column-broadcast form over a materialized transpose: for each
        // input column `j`, the broadcast element `x[j]` multiplies the
        // contiguous row `j` of Wᵀ and accumulates into the whole output
        // row — element-independent within a step, so it vectorizes,
        // while every output element still reduces in ascending `j`,
        // exactly the per-element order of `gemv`'s column broadcast
        // (bit-exact per row). The one-off transpose copy and row-sum
        // scan are amortized over the whole minibatch — this is what a
        // per-sample kernel cannot do.
        let wt = self.transposed();
        gemv_batch_span(&wt, self.max_row_abs_sum(), a, 0..a.rows, &mut y.data);
        Ok(())
    }

    fn check_gemv_batch(&self, a: &Matrix<S>, y: &Matrix<S>) -> Result<(), ShapeError> {
        if a.cols != self.cols {
            return Err(ShapeError::new(
                "gemv_batch input",
                (a.rows, self.cols),
                a.shape(),
            ));
        }
        if y.shape() != (a.rows, self.rows) {
            return Err(ShapeError::new(
                "gemv_batch output",
                (a.rows, self.rows),
                y.shape(),
            ));
        }
        Ok(())
    }

    /// Pool-parallel [`Matrix::gemv_batch`]: batch rows shard
    /// contiguously across the pool of `par`, each worker computing its
    /// disjoint slice of output rows with the *same* per-element
    /// ascending-`j` reduction chain as the sequential kernel. Shard
    /// outputs are disjoint, so the merge is trivial and the result is
    /// **bit-identical** to the sequential kernel for every backend
    /// (including saturating `Fx32`) at every worker count.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (impossible for in-contract
    /// operands; it would be a kernel bug, exactly as in the sequential
    /// form).
    pub fn gemv_batch_par(
        &self,
        a: &Matrix<S>,
        y: &mut Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), ShapeError> {
        let shards = par.shards(a.rows);
        if shards <= 1 {
            return self.gemv_batch(a, y);
        }
        self.check_gemv_batch(a, y)?;
        let out_dim = self.rows;
        let wt = self.transposed();
        let row_abs_sum = self.max_row_abs_sum();
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = y.data.as_mut_slice();
            for range in split_ranges(a.rows, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * out_dim);
                rest = tail;
                let wt = &wt;
                scope.execute(move || gemv_batch_span(wt, row_abs_sum, a, range, chunk));
            }
        })
        .unwrap_or_else(|e| panic!("gemv_batch_par worker panicked: {e}"));
        Ok(())
    }

    /// Allocating variant of [`Matrix::gemv_batch_par`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `a.cols() == cols`.
    pub fn gemv_batch_par_alloc(
        &self,
        a: &Matrix<S>,
        par: &Parallelism,
    ) -> Result<Matrix<S>, ShapeError> {
        let mut y = Matrix::zeros(a.rows(), self.rows);
        self.gemv_batch_par(a, &mut y, par)?;
        Ok(y)
    }

    /// Allocating variant of [`Matrix::gemv_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `a.cols() == cols`.
    pub fn gemv_batch_alloc(&self, a: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        let mut y = Matrix::zeros(a.rows(), self.rows);
        self.gemv_batch(a, &mut y)?;
        Ok(y)
    }

    /// [`Matrix::gemv_batch`] submitted into a **caller-owned fused
    /// scope** instead of opening its own: the shards enqueue through
    /// `ks` and join together with every other kernel fused into the
    /// same [`fixar_pool::Parallelism::fused`] call — one barrier for
    /// the whole phase instead of one per kernel. On the sequential
    /// degradation (no pool, or nested on a pool thread) the shards run
    /// inline, bit-identically.
    ///
    /// The result is only complete once the owning fused scope joins;
    /// `y` must stay borrowed until then (the `'scope` bound enforces
    /// it). Outputs of distinct kernels fused into one scope must be
    /// disjoint — that is the caller's contract, exactly as for shards
    /// of a single kernel.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_batch`], checked on the
    /// calling thread before anything enqueues.
    pub fn gemv_batch_par_in<'scope>(
        &'scope self,
        a: &'scope Matrix<S>,
        y: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_gemv_batch(a, y)?;
        let out_dim = self.rows;
        // The transpose is shared by every shard and must survive until
        // the fused scope joins, which outlives this call — hence Arc.
        let wt = Arc::new(self.transposed());
        let row_abs_sum = self.max_row_abs_sum();
        let shards = ks.shards(a.rows);
        let mut rest = y.data.as_mut_slice();
        for range in split_ranges(a.rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * out_dim);
            rest = tail;
            let wt = Arc::clone(&wt);
            ks.submit(move || gemv_batch_span(&wt, row_abs_sum, a, range, chunk));
        }
        Ok(())
    }

    /// Batched transposed product `Y[b] = Wᵀ·E[b]` (back-propagation of a
    /// whole minibatch of error rows): `e` is `(batch, rows)`, `y` is
    /// `(batch, cols)`.
    ///
    /// # Accumulation order
    ///
    /// Bit-exact with calling [`Matrix::gemv_t`] on every row of `e` in
    /// row order: for each output element `y[b][j]`, contributions are
    /// reduced over `i` (the rows of `W`) in ascending order, exactly as
    /// the row-broadcast transpose dataflow produces them — or, when the
    /// no-saturation certificate holds (`maxⱼ Σᵢ|wᵢⱼ|`, computed per
    /// call, times `max|E|`), through a wrapping MAC with the same
    /// result.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.cols() == rows` and `y` is
    /// `(e.rows(), cols)`.
    pub fn gemv_t_batch(&self, e: &Matrix<S>, y: &mut Matrix<S>) -> Result<(), ShapeError> {
        self.check_gemv_t_batch(e, y)?;
        gemv_t_batch_span(self, self.max_col_abs_sum(), e, 0..e.rows, &mut y.data);
        Ok(())
    }

    fn check_gemv_t_batch(&self, e: &Matrix<S>, y: &Matrix<S>) -> Result<(), ShapeError> {
        if e.cols != self.rows {
            return Err(ShapeError::new(
                "gemv_t_batch input",
                (e.rows, self.rows),
                e.shape(),
            ));
        }
        if y.shape() != (e.rows, self.cols) {
            return Err(ShapeError::new(
                "gemv_t_batch output",
                (e.rows, self.cols),
                y.shape(),
            ));
        }
        Ok(())
    }

    /// Pool-parallel [`Matrix::gemv_t_batch`]: batch rows shard
    /// contiguously across the pool, each worker running the sequential
    /// kernel's loop nest (including its four-sample unroll) over its
    /// disjoint output slice. Per-element chains stay ascending-`i`, so
    /// the result is **bit-identical** to the sequential kernel at
    /// every worker count, in every backend.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_t_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn gemv_t_batch_par(
        &self,
        e: &Matrix<S>,
        y: &mut Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), ShapeError> {
        let shards = par.shards(e.rows);
        if shards <= 1 {
            return self.gemv_t_batch(e, y);
        }
        self.check_gemv_t_batch(e, y)?;
        let cols = self.cols;
        let col_abs_sum = self.max_col_abs_sum();
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = y.data.as_mut_slice();
            for range in split_ranges(e.rows, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * cols);
                rest = tail;
                scope.execute(move || gemv_t_batch_span(self, col_abs_sum, e, range, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("gemv_t_batch_par worker panicked: {err}"));
        Ok(())
    }

    /// Allocating variant of [`Matrix::gemv_t_batch_par`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.cols() == rows`.
    pub fn gemv_t_batch_par_alloc(
        &self,
        e: &Matrix<S>,
        par: &Parallelism,
    ) -> Result<Matrix<S>, ShapeError> {
        let mut y = Matrix::zeros(e.rows(), self.cols);
        self.gemv_t_batch_par(e, &mut y, par)?;
        Ok(y)
    }

    /// Allocating variant of [`Matrix::gemv_t_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.cols() == rows`.
    pub fn gemv_t_batch_alloc(&self, e: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        let mut y = Matrix::zeros(e.rows(), self.cols);
        self.gemv_t_batch(e, &mut y)?;
        Ok(y)
    }

    /// [`Matrix::gemv_t_batch`] submitted into a caller-owned fused
    /// scope (see [`Matrix::gemv_batch_par_in`] for the fused-scope
    /// contract): shards enqueue through `ks`, the join belongs to the
    /// owning [`fixar_pool::Parallelism::fused`] call, and the
    /// sequential degradation runs inline, bit-identically.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_t_batch`], checked
    /// before anything enqueues.
    pub fn gemv_t_batch_par_in<'scope>(
        &'scope self,
        e: &'scope Matrix<S>,
        y: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_gemv_t_batch(e, y)?;
        let cols = self.cols;
        let col_abs_sum = self.max_col_abs_sum();
        let shards = ks.shards(e.rows);
        let mut rest = y.data.as_mut_slice();
        for range in split_ranges(e.rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            ks.submit(move || gemv_t_batch_span(self, col_abs_sum, e, range, chunk));
        }
        Ok(())
    }

    /// Batched rank-1 gradient accumulation
    /// `W += Σ_b E[b] ⊗ A[b]`, bit-exact with calling
    /// [`Matrix::add_outer`] per sample row in order. Each row of `self`
    /// is certified on its own (`max|wᵢ| + Σ_b|E[b][i]|·max|A|`): a
    /// certified row runs the wrapping MAC, a refused one sums **in row
    /// (sample) order** — the documented batch-reduction order of the
    /// gradient memory — through the saturating chain.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e` is `(batch, rows)` and `a` is
    /// `(batch, cols)` with equal batch sizes.
    pub fn add_outer_batch(&mut self, e: &Matrix<S>, a: &Matrix<S>) -> Result<(), ShapeError> {
        self.check_add_outer_batch(e, a)?;
        let (rows, cols) = self.shape();
        add_outer_batch_span(e, a, 0..rows, cols, &mut self.data);
        Ok(())
    }

    fn check_add_outer_batch(&self, e: &Matrix<S>, a: &Matrix<S>) -> Result<(), ShapeError> {
        if e.rows != a.rows {
            return Err(ShapeError::new(
                "add_outer_batch batch",
                e.shape(),
                a.shape(),
            ));
        }
        if e.cols != self.rows {
            return Err(ShapeError::new(
                "add_outer_batch rows",
                (e.rows, self.rows),
                e.shape(),
            ));
        }
        if a.cols != self.cols {
            return Err(ShapeError::new(
                "add_outer_batch cols",
                (a.rows, self.cols),
                a.shape(),
            ));
        }
        Ok(())
    }

    /// Pool-parallel [`Matrix::add_outer_batch`]. Unlike the MVM
    /// kernels, gradient accumulation reduces **across** the batch, so
    /// sharding the batch would change the per-element accumulation
    /// chain under saturation. Instead the *weight rows* shard: each
    /// worker owns a disjoint row range of the gradient matrix and
    /// walks the whole batch in ascending sample order for those rows —
    /// the exact sequential chain per element, hence **bit-identical**
    /// to the sequential kernel at every worker count in every backend.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::add_outer_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn add_outer_batch_par(
        &mut self,
        e: &Matrix<S>,
        a: &Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), ShapeError> {
        let shards = par.shards(self.rows);
        if shards <= 1 {
            return self.add_outer_batch(e, a);
        }
        self.check_add_outer_batch(e, a)?;
        let cols = self.cols;
        let rows = self.rows;
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = self.data.as_mut_slice();
            for range in split_ranges(rows, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * cols);
                rest = tail;
                scope.execute(move || add_outer_batch_span(e, a, range, cols, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("add_outer_batch_par worker panicked: {err}"));
        Ok(())
    }

    /// [`Matrix::add_outer_batch`] submitted into a caller-owned fused
    /// scope (see [`Matrix::gemv_batch_par_in`]): the *weight rows*
    /// shard through `ks` — each shard walking the whole batch in
    /// ascending sample order, the sequential chain — and join with the
    /// owning [`fixar_pool::Parallelism::fused`] call. This is the form
    /// the fused layer backward uses to run gradient accumulation and
    /// error propagation under a single join.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::add_outer_batch`], checked
    /// before anything enqueues.
    pub fn add_outer_batch_par_in<'scope>(
        &'scope mut self,
        e: &'scope Matrix<S>,
        a: &'scope Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_add_outer_batch(e, a)?;
        let cols = self.cols;
        let rows = self.rows;
        let shards = ks.shards(rows);
        let mut rest = self.data.as_mut_slice();
        for range in split_ranges(rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            ks.submit(move || add_outer_batch_span(e, a, range, cols, chunk));
        }
        Ok(())
    }

    /// General matrix-matrix product `C = self · rhs` with the crate's
    /// reduction contract: every output element accumulates its products
    /// over the shared dimension `k` in ascending order, each product
    /// rounded to the scalar format before the saturating add.
    ///
    /// [`Matrix::gemv_batch`] is this kernel specialized to
    /// `A · selfᵀ` layouts; `w.gemv_batch_alloc(&a)` equals
    /// `a.matmul(&w.transposed())` bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `rhs.rows() == cols`.
    pub fn matmul(&self, rhs: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        self.check_matmul(rhs)?;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        matmul_span(self, rhs, 0..self.rows, &mut out.data);
        Ok(out)
    }

    fn check_matmul(&self, rhs: &Matrix<S>) -> Result<(), ShapeError> {
        if rhs.rows != self.cols {
            return Err(ShapeError::new(
                "matmul",
                (self.cols, rhs.cols),
                rhs.shape(),
            ));
        }
        Ok(())
    }

    /// Pool-parallel [`Matrix::matmul`]: output rows shard contiguously
    /// across the pool, every element keeping the ascending-`k`
    /// reduction chain — **bit-identical** to the sequential kernel at
    /// every worker count in every backend.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `rhs.rows() == cols`.
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn matmul_par(&self, rhs: &Matrix<S>, par: &Parallelism) -> Result<Matrix<S>, ShapeError> {
        let shards = par.shards(self.rows);
        if shards <= 1 {
            return self.matmul(rhs);
        }
        self.check_matmul(rhs)?;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let out_cols = rhs.cols;
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = out.data.as_mut_slice();
            for range in split_ranges(self.rows, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * out_cols);
                rest = tail;
                scope.execute(move || matmul_span(self, rhs, range, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("matmul_par worker panicked: {err}"));
        Ok(out)
    }

    /// [`Matrix::matmul`] submitted into a caller-owned fused scope
    /// (see [`Matrix::gemv_batch_par_in`]), writing into a caller-owned
    /// `out` — the output must outlive the scope, so the allocating
    /// form cannot be fused. `out` must be `(rows, rhs.cols)`; its
    /// previous contents are overwritten (each shard zeroes its region
    /// before accumulating).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `rhs.rows() == cols` and `out` is
    /// `(rows, rhs.cols)`.
    pub fn matmul_par_in<'scope>(
        &'scope self,
        rhs: &'scope Matrix<S>,
        out: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_matmul(rhs)?;
        if out.shape() != (self.rows, rhs.cols) {
            return Err(ShapeError::new(
                "matmul_par_in output",
                (self.rows, rhs.cols),
                out.shape(),
            ));
        }
        let out_cols = rhs.cols;
        let shards = ks.shards(self.rows);
        let mut rest = out.data.as_mut_slice();
        for range in split_ranges(self.rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * out_cols);
            rest = tail;
            ks.submit(move || {
                for v in chunk.iter_mut() {
                    *v = S::zero();
                }
                matmul_span(self, rhs, range, chunk);
            });
        }
        Ok(())
    }

    /// Adds `bias` to every row (the batched bias broadcast of the
    /// accumulator stage).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `bias.len() == cols`.
    pub fn add_row_broadcast(&mut self, bias: &[S]) -> Result<(), ShapeError> {
        if bias.len() != self.cols {
            return Err(ShapeError::new(
                "add_row_broadcast",
                (1, self.cols),
                (1, bias.len()),
            ));
        }
        for b in 0..self.rows {
            let row = &mut self.data[b * self.cols..(b + 1) * self.cols];
            for (v, &bi) in row.iter_mut().zip(bias) {
                *v += bi;
            }
        }
        Ok(())
    }

    /// Horizontal concatenation `[self | rhs]` row by row (builds the
    /// critic's `(state ‖ action)` batch input).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless the operands have equal row counts.
    pub fn hcat(&self, rhs: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        if self.rows != rhs.rows {
            return Err(ShapeError::new("hcat", self.shape(), rhs.shape()));
        }
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for b in 0..self.rows {
            data.extend_from_slice(self.row(b));
            data.extend_from_slice(rhs.row(b));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Copies a contiguous column range into a new `(rows, hi - lo)`
    /// matrix (extracts `∂Q/∂a` from the critic's input gradient).
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= cols`.
    pub fn columns(&self, lo: usize, hi: usize) -> Matrix<S> {
        assert!(lo <= hi && hi <= self.cols, "column range out of bounds");
        let mut data = Vec::with_capacity(self.rows * (hi - lo));
        for b in 0..self.rows {
            data.extend_from_slice(&self.row(b)[lo..hi]);
        }
        Matrix {
            rows: self.rows,
            cols: hi - lo,
            data,
        }
    }

    /// Gathers columns of a **column-major panel** into a row-major
    /// batch matrix — the replay buffer's sampling kernel.
    ///
    /// `Matrix` is row-major, so a column-major `(dim, n)` panel is held
    /// as its row-major transpose: `self` is `(n, dim)` and logical
    /// column `j` of the panel (one stored sample) is stored row `j`,
    /// contiguous in memory. `gather_columns(idx)` returns the
    /// `(idx.len(), dim)` batch matrix whose row `k` is logical column
    /// `idx[k]` — one contiguous copy per gathered column, no reduction
    /// and no per-element arithmetic, hence trivially bit-exact in every
    /// backend. Repeated indices are allowed (sampling with
    /// replacement).
    ///
    /// # Example
    ///
    /// ```
    /// use fixar_tensor::Matrix;
    ///
    /// // A 2-wide panel holding 3 samples (stored transpose: 3x2).
    /// let panel = Matrix::<f64>::from_rows(&[&[0.0, 0.5], &[1.0, 1.5], &[2.0, 2.5]])?;
    /// let batch = panel.gather_columns(&[2, 0, 2])?;
    /// assert_eq!(batch.row(0), &[2.0, 2.5]);
    /// assert_eq!(batch.row(1), &[0.0, 0.5]);
    /// assert_eq!(batch.row(2), &[2.0, 2.5]);
    /// # Ok::<(), fixar_tensor::ShapeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any index is `>= rows()` (the panel's
    /// column count).
    pub fn gather_columns(&self, indices: &[usize]) -> Result<Matrix<S>, ShapeError> {
        self.check_gather_columns(indices)?;
        // Append-style copies into reserved (not zero-filled) storage:
        // the hot sampling path never touches an output element twice.
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &j in indices {
            data.extend_from_slice(&self.data[j * self.cols..(j + 1) * self.cols]);
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    fn check_gather_columns(&self, indices: &[usize]) -> Result<(), ShapeError> {
        for (k, &j) in indices.iter().enumerate() {
            if j >= self.rows {
                return Err(ShapeError::new(
                    "gather_columns index",
                    (self.rows, self.cols),
                    (j, k),
                ));
            }
        }
        Ok(())
    }

    /// Pool-parallel [`Matrix::gather_columns`]: the gathered output
    /// columns shard contiguously across the pool (`split_ranges` over
    /// `indices`), each worker copying its disjoint slice of output
    /// rows through the same span as the sequential kernel. Gathers are
    /// pure copies, so the result is **bit-identical** to the
    /// sequential form at every worker count in every backend — the
    /// same contract as the batched MVM kernels.
    ///
    /// # Errors
    ///
    /// Same index condition as [`Matrix::gather_columns`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn gather_columns_par(
        &self,
        indices: &[usize],
        par: &Parallelism,
    ) -> Result<Matrix<S>, ShapeError> {
        let shards = par.shards(indices.len());
        if shards <= 1 {
            return self.gather_columns(indices);
        }
        self.check_gather_columns(indices)?;
        let mut out = Matrix::zeros(indices.len(), self.cols);
        let cols = self.cols;
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = out.data.as_mut_slice();
            for range in split_ranges(indices.len(), shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * cols);
                rest = tail;
                let idx = &indices[range];
                scope.execute(move || gather_columns_span(self, idx, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("gather_columns_par worker panicked: {err}"));
        Ok(out)
    }

    /// [`Matrix::gather_columns`] into a caller-owned output matrix —
    /// the allocation-free sampling path: `out` is reshaped in place to
    /// `(indices.len(), cols)` (reusing its storage once grown, see
    /// [`Matrix::reset_shape`]) and filled by the same gather span as
    /// the allocating form, so the bytes are identical.
    ///
    /// # Errors
    ///
    /// Same index condition as [`Matrix::gather_columns`].
    pub fn gather_columns_into(
        &self,
        indices: &[usize],
        out: &mut Matrix<S>,
    ) -> Result<(), ShapeError> {
        self.check_gather_columns(indices)?;
        out.reset_shape(indices.len(), self.cols);
        gather_columns_span(self, indices, &mut out.data);
        Ok(())
    }

    /// Pool-parallel [`Matrix::gather_columns_into`]: the reshape and
    /// shard layout happen on the calling thread, the disjoint output
    /// shards fill on the pool — bit-identical to the sequential form
    /// at every worker count.
    ///
    /// # Errors
    ///
    /// Same index condition as [`Matrix::gather_columns`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn gather_columns_par_into(
        &self,
        indices: &[usize],
        par: &Parallelism,
        out: &mut Matrix<S>,
    ) -> Result<(), ShapeError> {
        let shards = par.shards(indices.len());
        if shards <= 1 {
            return self.gather_columns_into(indices, out);
        }
        self.check_gather_columns(indices)?;
        out.reset_shape(indices.len(), self.cols);
        let cols = self.cols;
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = out.data.as_mut_slice();
            for range in split_ranges(indices.len(), shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * cols);
                rest = tail;
                let idx = &indices[range];
                scope.execute(move || gather_columns_span(self, idx, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("gather_columns_par_into worker panicked: {err}"));
        Ok(())
    }

    /// [`Matrix::gather_columns`] submitted into a caller-owned fused
    /// scope (see [`Matrix::gemv_batch_par_in`]), writing into a
    /// caller-owned, **pre-shaped** `(indices.len(), cols)` output.
    ///
    /// # Errors
    ///
    /// Same index condition as [`Matrix::gather_columns`], plus a shape
    /// check on `out`.
    pub fn gather_columns_par_in<'scope>(
        &'scope self,
        indices: &'scope [usize],
        out: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_gather_columns(indices)?;
        if out.shape() != (indices.len(), self.cols) {
            return Err(ShapeError::new(
                "gather_columns_par_in output",
                (indices.len(), self.cols),
                out.shape(),
            ));
        }
        let cols = self.cols;
        let shards = ks.shards(indices.len());
        let mut rest = out.data.as_mut_slice();
        for range in split_ranges(indices.len(), shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            let idx = &indices[range];
            ks.submit(move || gather_columns_span(self, idx, chunk));
        }
        Ok(())
    }

    /// Builds a `(rows.len(), cols)` batch matrix from row slices drawn
    /// through `f` (e.g. replay transitions to a state batch).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any produced row has the wrong length.
    pub fn from_row_fn<'a, T: 'a>(
        items: &'a [T],
        cols: usize,
        mut f: impl FnMut(&'a T) -> &'a [S],
    ) -> Result<Matrix<S>, ShapeError> {
        let mut data = Vec::with_capacity(items.len() * cols);
        for (b, item) in items.iter().enumerate() {
            let row = f(item);
            if row.len() != cols {
                return Err(ShapeError::new("from_row_fn", (b, cols), (b, row.len())));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: items.len(),
            cols,
            data,
        })
    }

    /// Elementwise `self += other * scale`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix<S>, scale: S) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("add_scaled", self.shape(), other.shape()));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Reshapes in place to `(rows, cols)`, reusing the existing
    /// allocation whenever its capacity suffices — the scratch-reuse
    /// primitive behind the allocation-free replay sampling path
    /// ([`Matrix::gather_columns_into`]). After the first call at a
    /// given size, subsequent calls never allocate. The retained
    /// elements keep **stale values** (only growth is zero-filled):
    /// this is for callers that overwrite every element, like the
    /// gather scratch path — zeroing first would double the memory
    /// writes of the hot sampling loop for nothing.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, S::zero());
    }

    /// Copies a contiguous row range into a new `(hi - lo, cols)`
    /// matrix — the row twin of [`Matrix::columns`], used to split a
    /// fleet observation batch into double-buffered halves.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= rows`.
    pub fn row_range(&self, lo: usize, hi: usize) -> Matrix<S> {
        assert!(lo <= hi && hi <= self.rows, "row range out of bounds");
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Sets every element to zero (gradient reset between batches).
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = S::zero();
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(S) -> S) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns the transposed matrix (a data copy; the accelerator never
    /// materializes this — it redistributes reads instead).
    ///
    /// The copy walks `TRANSPOSE_BLOCK`-square tiles, so both the
    /// strided reads and the contiguous writes of a tile stay in L1.
    pub fn transposed(&self) -> Matrix<S> {
        const B: usize = TRANSPOSE_BLOCK;
        let (rows, cols) = (self.rows, self.cols);
        let mut data = vec![S::zero(); rows * cols];
        for r0 in (0..rows).step_by(B) {
            let r1 = (r0 + B).min(rows);
            for c0 in (0..cols).step_by(B) {
                for c in c0..(c0 + B).min(cols) {
                    for (r, d) in (r0..r1).zip(&mut data[c * rows + r0..c * rows + r1]) {
                        *d = self.data[r * cols + c];
                    }
                }
            }
        }
        Matrix {
            rows: cols,
            cols: rows,
            data,
        }
    }

    /// Converts every element to another scalar backend through `f64`.
    pub fn cast<T: Scalar>(&self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| T::from_f64(v.to_f64())).collect(),
        }
    }

    /// Largest absolute element, as `f64` (diagnostics).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(0.0, f64::max)
    }

    /// Builds the cache-resident packed layout for this matrix — see
    /// [`WeightPack`]. Only the forward half (the transpose and the row
    /// bound) is built here; the `gemv_t_batch` panels follow on first
    /// use.
    pub fn pack(&self) -> WeightPack<S> {
        WeightPack {
            rows: self.rows,
            cols: self.cols,
            wt: self.transposed(),
            row_abs_sum: self.max_row_abs_sum(),
            backward: OnceLock::new(),
        }
    }

    /// Largest raw row sum `maxᵢ Σⱼ|wᵢⱼ|`: the weight side of the
    /// forward MVM's exact-MAC certificate (0 for formats without one,
    /// whose kernels never certify).
    fn max_row_abs_sum(&self) -> u64 {
        if S::EXACT_MAC_FRAC_BITS.is_none() || self.cols == 0 {
            return 0;
        }
        self.data
            .chunks_exact(self.cols)
            .map(|row| cert::raw_abs_sum(row.iter().copied()))
            .max()
            .unwrap_or(0)
    }

    /// Largest raw column sum `maxⱼ Σᵢ|wᵢⱼ|`: the weight side of the
    /// transposed MVM's certificate (0 for formats without one).
    fn max_col_abs_sum(&self) -> u64 {
        if S::EXACT_MAC_FRAC_BITS.is_none() || self.cols == 0 {
            return 0;
        }
        let mut col_sums = vec![0u64; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (sum, &w) in col_sums.iter_mut().zip(row) {
                *sum += w.raw_magnitude();
            }
        }
        col_sums.into_iter().max().unwrap_or(0)
    }
}

/// Side of the square tiles [`Matrix::transposed`] copies through.
const TRANSPOSE_BLOCK: usize = 16;

/// Width of the register-blocked output panel in the packed
/// `gemv_t_batch` kernel: one panel of accumulators stays resident
/// while a weight panel streams past with unit stride.
const GEMV_T_PANEL: usize = 16;

/// Cache-resident packed image of a weight matrix, in both hot-loop
/// layouts.
///
/// The batched MVM kernels want *two* purpose-built layouts of `W`: the
/// forward kernel streams rows of `Wᵀ` (one per input column), and the
/// backward kernel streams zero-padded width-`GEMV_T_PANEL` column
/// panels of `W` (layout `[panel][row][lane]`) so a register-resident
/// panel of outputs accumulates from unit-stride loads with no
/// per-step output-row traffic. A plain [`Matrix::gemv_batch`]
/// re-materializes the transpose on every call; a `WeightPack` hoists
/// both copies out of the hot loop so a layer that is applied many
/// times between weight updates (training batches, serving) pays for
/// the pack once.
///
/// Each layout is built only if a kernel uses it. [`Matrix::pack`]
/// builds the transpose; the first [`WeightPack::gemv_t_batch`] call
/// (or any of its forms) gathers the column panels from the transpose's
/// unit-stride rows, on the calling thread, before any shard starts. A
/// network that only runs forwards — a DDPG target network, a served
/// policy — never pays for the panels. Equality compares the snapshot
/// (shape, transpose, row bound), never whether the panels exist yet:
/// the panels are a pure function of the transpose.
///
/// The packed kernels are **bit-identical** to their unpacked
/// [`Matrix`] counterparts, so packed ≡ unpacked ≡ per-sample in every
/// backend, including saturating `Fx32`, at every worker count. Each
/// span first checks the crate's no-saturation certificate against the
/// largest raw row sum (forward) or column sum (transposed) of `W`,
/// which the pack caches next to the layouts. A certified span runs the
/// wrapping MAC, whose result every summation order reaches; a refused
/// span (and every float span) runs the per-element chains of the
/// accumulation-order contract — ascending `j` for `gemv_batch`,
/// ascending `i` for `gemv_t_batch`.
///
/// A pack is a snapshot, bound included: it does **not** track later
/// mutations of the source matrix. Callers that mutate weights must
/// rebuild (or, like `fixar-nn`'s `Mlp`, invalidate and lazily rebuild)
/// the pack.
#[derive(Debug, Clone)]
pub struct WeightPack<S> {
    rows: usize,
    cols: usize,
    /// `(cols, rows)` row-major transpose of the source matrix.
    wt: Matrix<S>,
    /// Largest raw row sum `maxᵢ Σⱼ|wᵢⱼ|` of this snapshot — the
    /// `gemv_batch` certificate's weight bound.
    row_abs_sum: u64,
    /// The `gemv_t_batch` layout, gathered from `wt` on first use.
    backward: OnceLock<GemvTPanels<S>>,
}

impl<S: PartialEq> PartialEq for WeightPack<S> {
    fn eq(&self, other: &Self) -> bool {
        // `backward` is derived from `wt`, so it cannot differ when the
        // snapshots agree — whether or not either side has built it.
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_abs_sum == other.row_abs_sum
            && self.wt == other.wt
    }
}

/// The transposed-MVM half of a [`WeightPack`].
#[derive(Debug, Clone)]
struct GemvTPanels<S> {
    /// Zero-padded column panels of the source matrix: element
    /// `(i, p * GEMV_T_PANEL + t)` of the source lives at
    /// `(p * rows + i) * GEMV_T_PANEL + t`.
    w_panels: Vec<S>,
    /// Largest raw column sum `maxⱼ Σᵢ|wᵢⱼ|` — the `gemv_t_batch`
    /// certificate's weight bound.
    col_abs_sum: u64,
}

impl<S: Scalar> GemvTPanels<S> {
    /// Gathers the panels and the column bound from the `(cols, rows)`
    /// transpose `wt`, whose row `j` is column `j` of the source: each
    /// source column is read with unit stride and scattered into its
    /// lane of one panel.
    fn gather(wt: &Matrix<S>) -> Self {
        const PW: usize = GEMV_T_PANEL;
        let (cols, rows) = wt.shape();
        let mut w_panels = vec![S::zero(); cols.div_ceil(PW) * rows * PW];
        let mut col_abs_sum = 0;
        if rows > 0 {
            for (j, col) in wt.data.chunks_exact(rows).enumerate() {
                let panel = &mut w_panels[(j / PW) * rows * PW..(j / PW + 1) * rows * PW];
                for (dst, &w) in panel[j % PW..].iter_mut().step_by(PW).zip(col) {
                    *dst = w;
                }
                col_abs_sum = col_abs_sum.max(cert::raw_abs_sum(col.iter().copied()));
            }
        }
        Self {
            w_panels,
            col_abs_sum,
        }
    }
}

impl<S: Scalar> WeightPack<S> {
    /// Row count of the *source* matrix (the output dimension of
    /// [`WeightPack::gemv_batch`]).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the *source* matrix (the output dimension of
    /// [`WeightPack::gemv_t_batch`]).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the source matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The `gemv_t_batch` layout, gathered on first use.
    fn panels(&self) -> &GemvTPanels<S> {
        self.backward.get_or_init(|| GemvTPanels::gather(&self.wt))
    }

    fn check_gemv_batch(&self, a: &Matrix<S>, y: &Matrix<S>) -> Result<(), ShapeError> {
        if a.cols != self.cols {
            return Err(ShapeError::new(
                "gemv_batch input",
                (a.rows, self.cols),
                a.shape(),
            ));
        }
        if y.shape() != (a.rows, self.rows) {
            return Err(ShapeError::new(
                "gemv_batch output",
                (a.rows, self.rows),
                y.shape(),
            ));
        }
        Ok(())
    }

    fn check_gemv_t_batch(&self, e: &Matrix<S>, y: &Matrix<S>) -> Result<(), ShapeError> {
        if e.cols != self.rows {
            return Err(ShapeError::new(
                "gemv_t_batch input",
                (e.rows, self.rows),
                e.shape(),
            ));
        }
        if y.shape() != (e.rows, self.cols) {
            return Err(ShapeError::new(
                "gemv_t_batch output",
                (e.rows, self.cols),
                y.shape(),
            ));
        }
        Ok(())
    }

    /// Packed [`Matrix::gemv_batch`]: `Y[b] = W·A[b]` over the cached
    /// transpose, two samples per register tile (sharing every streamed
    /// `Wᵀ` row across the pair) — bit-exact with the unpacked kernel.
    /// The wrapping MAC runs when the certificate (cached row sums ×
    /// `max|A|`) holds, the ascending-`j` saturating chain otherwise.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_batch`].
    pub fn gemv_batch(&self, a: &Matrix<S>, y: &mut Matrix<S>) -> Result<(), ShapeError> {
        self.check_gemv_batch(a, y)?;
        gemv_batch_span(&self.wt, self.row_abs_sum, a, 0..a.rows, &mut y.data);
        Ok(())
    }

    /// Pool-parallel [`WeightPack::gemv_batch`] — batch rows shard
    /// contiguously, disjoint output slices, bit-identical to the
    /// sequential packed kernel at every worker count.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn gemv_batch_par(
        &self,
        a: &Matrix<S>,
        y: &mut Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), ShapeError> {
        let shards = par.shards(a.rows);
        if shards <= 1 {
            return self.gemv_batch(a, y);
        }
        self.check_gemv_batch(a, y)?;
        let out_dim = self.rows;
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = y.data.as_mut_slice();
            for range in split_ranges(a.rows, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * out_dim);
                rest = tail;
                scope.execute(move || gemv_batch_span(&self.wt, self.row_abs_sum, a, range, chunk));
            }
        })
        .unwrap_or_else(|e| panic!("gemv_batch_par worker panicked: {e}"));
        Ok(())
    }

    /// [`WeightPack::gemv_batch`] submitted into a caller-owned fused
    /// scope (see [`Matrix::gemv_batch_par_in`] for the fused-scope
    /// contract). Unlike the unpacked form, no transpose is built on
    /// the calling thread — the shards borrow the cached pack for the
    /// scope's lifetime.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_batch`], checked before
    /// anything enqueues.
    pub fn gemv_batch_par_in<'scope>(
        &'scope self,
        a: &'scope Matrix<S>,
        y: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_gemv_batch(a, y)?;
        let out_dim = self.rows;
        let shards = ks.shards(a.rows);
        let mut rest = y.data.as_mut_slice();
        for range in split_ranges(a.rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * out_dim);
            rest = tail;
            ks.submit(move || gemv_batch_span(&self.wt, self.row_abs_sum, a, range, chunk));
        }
        Ok(())
    }

    /// Packed [`Matrix::gemv_t_batch`]: `Y[b] = Wᵀ·E[b]` over the
    /// cached column panels — a register-resident panel of outputs per
    /// sample accumulates from unit-stride weight loads, with no
    /// per-step output-row load/store traffic, four samples per tile.
    /// The result is bit-exact with the unpacked kernel, which streams
    /// `W` row-major and scatter-accumulates through memory instead:
    /// the wrapping MAC runs when the certificate (cached column sums ×
    /// `max|E|`) holds, the ascending-`i` saturating chain otherwise.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_t_batch`].
    pub fn gemv_t_batch(&self, e: &Matrix<S>, y: &mut Matrix<S>) -> Result<(), ShapeError> {
        self.check_gemv_t_batch(e, y)?;
        gemv_t_batch_span_packed(self.panels(), self.shape(), e, 0..e.rows, &mut y.data);
        Ok(())
    }

    /// Pool-parallel [`WeightPack::gemv_t_batch`] — batch rows shard
    /// contiguously, disjoint output slices, bit-identical to the
    /// sequential packed kernel at every worker count.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_t_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn gemv_t_batch_par(
        &self,
        e: &Matrix<S>,
        y: &mut Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), ShapeError> {
        let shards = par.shards(e.rows);
        if shards <= 1 {
            return self.gemv_t_batch(e, y);
        }
        self.check_gemv_t_batch(e, y)?;
        let (shape, cols) = (self.shape(), self.cols);
        let panels = self.panels();
        let pool = par.pool().expect("shards > 1 implies a pool");
        pool.scope(|scope| {
            let mut rest = y.data.as_mut_slice();
            for range in split_ranges(e.rows, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len() * cols);
                rest = tail;
                scope.execute(move || gemv_t_batch_span_packed(panels, shape, e, range, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("gemv_t_batch_par worker panicked: {err}"));
        Ok(())
    }

    /// [`WeightPack::gemv_t_batch`] submitted into a caller-owned fused
    /// scope (see [`Matrix::gemv_batch_par_in`] for the fused-scope
    /// contract).
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`Matrix::gemv_t_batch`], checked
    /// before anything enqueues.
    pub fn gemv_t_batch_par_in<'scope>(
        &'scope self,
        e: &'scope Matrix<S>,
        y: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        self.check_gemv_t_batch(e, y)?;
        let (shape, cols) = (self.shape(), self.cols);
        let panels = self.panels();
        let shards = ks.shards(e.rows);
        let mut rest = y.data.as_mut_slice();
        for range in split_ranges(e.rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            ks.submit(move || gemv_t_batch_span_packed(panels, shape, e, range, chunk));
        }
        Ok(())
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &S {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

// --- shard span kernels ---------------------------------------------------
//
// Each span computes a contiguous output region with exactly the
// per-element reduction chain of its sequential kernel; the sequential
// kernels call their span with the full range, the `_par` kernels call
// one span per pool worker over disjoint ranges. Sharing the loop nests
// is what *guarantees* sequential ≡ parallel bit-for-bit. The MVM and
// gradient spans certify their own rows first and swap the chain for
// the wrapping MAC only where the certificate proves the two equal, so
// the guarantee holds whichever spans certify.

/// The saturating chain step `acc + w * x`: the reference MAC every
/// uncertified span runs.
#[inline]
fn chain_mac<S: Scalar>(acc: S, w: S, x: S) -> S {
    acc + w * x
}

/// Certifies a span of `rows` (the span's input rows, flattened)
/// against the weight bound `abs_sum` over a reduction of length `len`,
/// and counts the decision.
fn certify_span<S: Scalar>(abs_sum: u64, rows: &[S], len: usize) -> bool {
    let certified = cert::no_saturation::<S>(0, abs_sum, cert::max_raw_magnitude(rows), len);
    cert::record::<S>(certified);
    certified
}

/// Forward-MVM span: output rows `batch` of `Y = A·Wᵀ` into `y_chunk`
/// (`batch.len() * wt.cols` elements), reading the pre-transposed
/// weights `wt` (`(in_dim, out_dim)` row-major) whose source rows sum to
/// at most `row_abs_sum`. Runs [`gemv_batch_tiles`] with the wrapping
/// MAC when the span certifies, with the saturating chain otherwise.
/// Both the unpacked and the packed forward kernels run this span.
fn gemv_batch_span<S: Scalar>(
    wt: &Matrix<S>,
    row_abs_sum: u64,
    a: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
) {
    let rows = &a.data[batch.start * a.cols..batch.end * a.cols];
    if certify_span(row_abs_sum, rows, a.cols) {
        gemv_batch_tiles(wt, a, batch, y_chunk, S::wrapping_mac);
    } else {
        gemv_batch_tiles(wt, a, batch, y_chunk, chain_mac);
    }
}

/// Forward-MVM tiles over a transpose: for each input column `j`, the
/// broadcast element multiplies the unit-stride row `j` of `Wᵀ` into the
/// output row, two samples per register tile so every streamed `Wᵀ` row
/// is reused across the pair. Per-element chains ascend `j` (the tile's
/// two chains are independent).
fn gemv_batch_tiles<S: Scalar>(
    wt: &Matrix<S>,
    a: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
    mac: impl Fn(S, S, S) -> S + Copy,
) {
    let cols = a.cols;
    let out_dim = wt.cols;
    let start = batch.start;
    for v in y_chunk.iter_mut() {
        *v = S::zero();
    }
    let mut b = start;
    while b + 2 <= batch.end {
        let base = (b - start) * out_dim;
        let (y0, y1) = y_chunk[base..base + 2 * out_dim].split_at_mut(out_dim);
        let a0 = &a.data[b * cols..(b + 1) * cols];
        let a1 = &a.data[(b + 1) * cols..(b + 2) * cols];
        for j in 0..cols {
            let wt_row = &wt.data[j * out_dim..(j + 1) * out_dim];
            let x0 = a0[j];
            let x1 = a1[j];
            for (i, &w) in wt_row.iter().enumerate() {
                y0[i] = mac(y0[i], w, x0);
                y1[i] = mac(y1[i], w, x1);
            }
        }
        b += 2;
    }
    // Remainder row: the plain single-sample nest, same chain order.
    for b in b..batch.end {
        let a_row = &a.data[b * cols..(b + 1) * cols];
        let y_row = &mut y_chunk[(b - start) * out_dim..(b - start + 1) * out_dim];
        for (j, &xj) in a_row.iter().enumerate() {
            let wt_row = &wt.data[j * out_dim..(j + 1) * out_dim];
            for (yi, &w) in y_row.iter_mut().zip(wt_row) {
                *yi = mac(*yi, w, xj);
            }
        }
    }
}

/// Transposed-MVM span: output rows `batch` of `Y = E·W` into `y_chunk`,
/// where the columns of `w` sum to at most `col_abs_sum`. Runs
/// [`gemv_t_batch_rows`] with the wrapping MAC when the span certifies,
/// the ascending-`i` chain otherwise.
fn gemv_t_batch_span<S: Scalar>(
    w: &Matrix<S>,
    col_abs_sum: u64,
    e: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
) {
    let rows = &e.data[batch.start * e.cols..batch.end * e.cols];
    if certify_span(col_abs_sum, rows, w.rows) {
        gemv_t_batch_rows(w, e, batch, y_chunk, S::wrapping_mac);
    } else {
        gemv_t_batch_rows(w, e, batch, y_chunk, chain_mac);
    }
}

/// Four samples per pass (independent per-element chains, each
/// accumulating in ascending `i`), sharing every streamed weight row
/// across the lanes.
fn gemv_t_batch_rows<S: Scalar>(
    w: &Matrix<S>,
    e: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
    mac: impl Fn(S, S, S) -> S + Copy,
) {
    let cols = w.cols;
    let start = batch.start;
    for v in y_chunk.iter_mut() {
        *v = S::zero();
    }
    let mut b = start;
    while b + 4 <= batch.end {
        let base = (b - start) * cols;
        for i in 0..w.rows {
            let w_row = &w.data[i * cols..(i + 1) * cols];
            let e0 = e.data[b * e.cols + i];
            let e1 = e.data[(b + 1) * e.cols + i];
            let e2 = e.data[(b + 2) * e.cols + i];
            let e3 = e.data[(b + 3) * e.cols + i];
            for (j, &w) in w_row.iter().enumerate() {
                y_chunk[base + j] = mac(y_chunk[base + j], w, e0);
                y_chunk[base + cols + j] = mac(y_chunk[base + cols + j], w, e1);
                y_chunk[base + 2 * cols + j] = mac(y_chunk[base + 2 * cols + j], w, e2);
                y_chunk[base + 3 * cols + j] = mac(y_chunk[base + 3 * cols + j], w, e3);
            }
        }
        b += 4;
    }
    // Remainder rows: plain per-sample loop, same chain order.
    for b in b..batch.end {
        let e_row = &e.data[b * e.cols..(b + 1) * e.cols];
        let y_row = &mut y_chunk[(b - start) * cols..(b - start + 1) * cols];
        for (i, &ei) in e_row.iter().enumerate() {
            let w_row = &w.data[i * cols..(i + 1) * cols];
            for (yj, &w) in y_row.iter_mut().zip(w_row) {
                *yj = mac(*yj, w, ei);
            }
        }
    }
}

/// Transposed-MVM span over a cached pack: certifies the span's error
/// rows against the pack's column-sum bound, then runs
/// [`gemv_t_batch_panels`] with the wrapping MAC or the saturating
/// chain (see [`gemv_batch_span`]).
fn gemv_t_batch_span_packed<S: Scalar>(
    pack: &GemvTPanels<S>,
    (rows, cols): (usize, usize),
    e: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
) {
    let e_rows = &e.data[batch.start * e.cols..batch.end * e.cols];
    let panels = &pack.w_panels[..];
    if certify_span(pack.col_abs_sum, e_rows, rows) {
        gemv_t_batch_panels(panels, rows, cols, e, batch, y_chunk, S::wrapping_mac);
    } else {
        gemv_t_batch_panels(panels, rows, cols, e, batch, y_chunk, chain_mac);
    }
}

/// Transposed-MVM tiles over the pack's zero-padded column panels.
///
/// One width-[`GEMV_T_PANEL`] panel of output accumulators per sample
/// stays register-resident while the matching weight panel streams past
/// with unit stride, so — unlike [`gemv_t_batch_span`], which re-loads
/// and re-stores its output rows on every reduction step — the inner
/// loop touches memory only to read. Four samples per tile share each
/// streamed panel row. The padded lanes compute garbage that is sliced
/// off at store time; the real lanes' chains still sum their products
/// in ascending `i`, the exact chain of [`gemv_t_batch_span`].
fn gemv_t_batch_panels<S: Scalar>(
    w_panels: &[S],
    in_dim: usize, // reduction dim (= source W rows)
    cols: usize,   // output dim per sample (= source W cols)
    e: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
    mac: impl Fn(S, S, S) -> S + Copy,
) {
    const PW: usize = GEMV_T_PANEL;
    let panels = cols.div_ceil(PW);
    let start = batch.start;
    let mut b = start;
    while b + 4 <= batch.end {
        let base = (b - start) * cols;
        let e_rows = [
            &e.data[b * in_dim..(b + 1) * in_dim],
            &e.data[(b + 1) * in_dim..(b + 2) * in_dim],
            &e.data[(b + 2) * in_dim..(b + 3) * in_dim],
            &e.data[(b + 3) * in_dim..(b + 4) * in_dim],
        ];
        for p in 0..panels {
            let panel = &w_panels[p * in_dim * PW..(p + 1) * in_dim * PW];
            let mut acc = [[S::zero(); PW]; 4];
            for i in 0..in_dim {
                let w: &[S; PW] = panel[i * PW..i * PW + PW].try_into().unwrap();
                for (s, e_row) in e_rows.iter().enumerate() {
                    let ei = e_row[i];
                    for (t, &wt) in w.iter().enumerate() {
                        acc[s][t] = mac(acc[s][t], wt, ei);
                    }
                }
            }
            let j0 = p * PW;
            let width = PW.min(cols - j0);
            for (s, row) in acc.iter().enumerate() {
                y_chunk[base + s * cols + j0..base + s * cols + j0 + width]
                    .copy_from_slice(&row[..width]);
            }
        }
        b += 4;
    }
    // Remainder rows: the same panel walk, one sample at a time.
    for b in b..batch.end {
        let base = (b - start) * cols;
        let e_row = &e.data[b * in_dim..(b + 1) * in_dim];
        for p in 0..panels {
            let panel = &w_panels[p * in_dim * PW..(p + 1) * in_dim * PW];
            let mut acc = [S::zero(); PW];
            for (i, &ei) in e_row.iter().enumerate() {
                let w: &[S; PW] = panel[i * PW..i * PW + PW].try_into().unwrap();
                for (t, &wt) in w.iter().enumerate() {
                    acc[t] = mac(acc[t], wt, ei);
                }
            }
            let j0 = p * PW;
            let width = PW.min(cols - j0);
            y_chunk[base + j0..base + j0 + width].copy_from_slice(&acc[..width]);
        }
    }
}

/// Gradient-accumulation span: rows `w_rows` of `W += Σ_b E[b] ⊗ A[b]`
/// into `w_chunk`. Each gradient row is certified on its own — its bound
/// is `max|gᵢ| + Σ_b|e_bi|·max|a|` over a reduction of `batch` products —
/// and runs [`add_outer_row`] with the wrapping MAC or the saturating
/// chain; the span counts as certified when every row was.
fn add_outer_batch_span<S: Scalar>(
    e: &Matrix<S>,
    a: &Matrix<S>,
    w_rows: Range<usize>,
    w_cols: usize,
    w_chunk: &mut [S],
) {
    let batch = e.rows;
    let a_max = cert::max_raw_magnitude(&a.data);
    let mut all_certified = true;
    for (local_i, i) in w_rows.enumerate() {
        let w_row = &mut w_chunk[local_i * w_cols..(local_i + 1) * w_cols];
        let g_max = cert::max_raw_magnitude(w_row);
        let e_sum = cert::raw_abs_sum((0..batch).map(|b| e.data[b * e.cols + i]));
        if cert::no_saturation::<S>(g_max, e_sum, a_max, batch) {
            add_outer_row(e, a, i, w_row, S::wrapping_mac);
        } else {
            all_certified = false;
            add_outer_row(e, a, i, w_row, chain_mac);
        }
    }
    cert::record::<S>(all_certified);
}

/// Row `i` of `W += Σ_b E[b] ⊗ A[b]`. The loop nest keeps the gradient
/// row resident (four samples per tile) instead of re-streaming the
/// whole gradient matrix once per sample, but every element still
/// accumulates its batch contributions **in ascending sample order** —
/// the documented batch-reduction order (the four lanes of a tile apply
/// to each element sequentially, `b`, `b+1`, `b+2`, `b+3`).
fn add_outer_row<S: Scalar>(
    e: &Matrix<S>,
    a: &Matrix<S>,
    i: usize,
    w_row: &mut [S],
    mac: impl Fn(S, S, S) -> S + Copy,
) {
    let batch = e.rows;
    let mut b = 0;
    while b + 4 <= batch {
        let e0 = e.data[b * e.cols + i];
        let e1 = e.data[(b + 1) * e.cols + i];
        let e2 = e.data[(b + 2) * e.cols + i];
        let e3 = e.data[(b + 3) * e.cols + i];
        let a0 = &a.data[b * a.cols..(b + 1) * a.cols];
        let a1 = &a.data[(b + 1) * a.cols..(b + 2) * a.cols];
        let a2 = &a.data[(b + 2) * a.cols..(b + 3) * a.cols];
        let a3 = &a.data[(b + 3) * a.cols..(b + 4) * a.cols];
        for (j, w) in w_row.iter_mut().enumerate() {
            *w = mac(*w, e0, a0[j]);
            *w = mac(*w, e1, a1[j]);
            *w = mac(*w, e2, a2[j]);
            *w = mac(*w, e3, a3[j]);
        }
        b += 4;
    }
    for b in b..batch {
        let eb = e.data[b * e.cols + i];
        let a_row = &a.data[b * a.cols..(b + 1) * a.cols];
        for (w, &aj) in w_row.iter_mut().zip(a_row) {
            *w = mac(*w, eb, aj);
        }
    }
}

/// Gather span: rows `k` of the output batch are stored rows
/// `indices[k]` of the panel's stored transpose `src` — one contiguous
/// `memcpy` per gathered column, no arithmetic at all (which is why the
/// parallel form needs no accumulation-order argument).
fn gather_columns_span<S: Scalar>(src: &Matrix<S>, indices: &[usize], out_chunk: &mut [S]) {
    let dim = src.cols;
    for (k, &j) in indices.iter().enumerate() {
        out_chunk[k * dim..(k + 1) * dim].copy_from_slice(&src.data[j * dim..(j + 1) * dim]);
    }
}

/// Matmul span: output rows `lhs_rows` of `C = lhs · rhs` into
/// `out_chunk` (pre-zeroed), ascending-`k` chains, streaming `rhs`
/// row-major. Two output rows per register tile share every streamed
/// `rhs` row (halving its memory traffic); the two per-element chains
/// are independent, each still ascending `k`.
fn matmul_span<S: Scalar>(
    lhs: &Matrix<S>,
    rhs: &Matrix<S>,
    lhs_rows: Range<usize>,
    out_chunk: &mut [S],
) {
    let n = rhs.cols;
    let start = lhs_rows.start;
    let mut i = start;
    while i + 2 <= lhs_rows.end {
        let base = (i - start) * n;
        let (out0, out1) = out_chunk[base..base + 2 * n].split_at_mut(n);
        let a0 = &lhs.data[i * lhs.cols..(i + 1) * lhs.cols];
        let a1 = &lhs.data[(i + 1) * lhs.cols..(i + 2) * lhs.cols];
        for k in 0..lhs.cols {
            let b_row = &rhs.data[k * n..(k + 1) * n];
            let x0 = a0[k];
            let x1 = a1[k];
            for (j, &bkj) in b_row.iter().enumerate() {
                out0[j] += x0 * bkj;
                out1[j] += x1 * bkj;
            }
        }
        i += 2;
    }
    // Remainder row: the plain single-row nest, same chain order.
    for i in i..lhs_rows.end {
        let a_row = &lhs.data[i * lhs.cols..(i + 1) * lhs.cols];
        let out_row = &mut out_chunk[(i - start) * n..(i - start + 1) * n];
        for (k, &aik) in a_row.iter().enumerate() {
            let b_row = &rhs.data[k * n..(k + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::{Fx32, Q16};

    fn mat2x3() -> Matrix<f64> {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let y = mat2x3().gemv_alloc(&[1.0, 0.5, -1.0]).unwrap();
        assert_eq!(y, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn gemv_t_matches_transposed_gemv() {
        let w = mat2x3();
        let e = [2.0, -1.0];
        let direct = w.gemv_t_alloc(&e).unwrap();
        let via_copy = w.transposed().gemv_alloc(&e).unwrap();
        assert_eq!(direct, via_copy);
    }

    #[test]
    fn gemv_rejects_bad_shapes() {
        let w = mat2x3();
        assert!(w.gemv_alloc(&[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 3];
        assert!(w.gemv(&[1.0, 2.0, 3.0], &mut y).is_err());
        assert!(w.gemv_t_alloc(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn add_outer_accumulates_gradient() {
        let mut g = Matrix::<f64>::zeros(2, 3);
        g.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]).unwrap();
        g.add_outer(&[1.0, 0.0], &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(g.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(g.row(1), &[6.0, 8.0, 10.0]);
    }

    #[test]
    fn add_scaled_and_fill_zero() {
        let mut a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a[(1, 1)], 2.0);
        a.fill_zero();
        assert_eq!(a.max_abs(), 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows: &[&[f64]] = &[&[1.0, 2.0], &[3.0]];
        assert!(Matrix::from_rows(rows).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0f64; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0f64; 4]).is_ok());
    }

    #[test]
    fn fixed_point_gemv_tracks_float_reference() {
        let wf = Matrix::<f64>::from_fn(8, 8, |r, c| ((r * 13 + c * 7) % 11) as f64 * 0.1 - 0.5);
        let xf: Vec<f64> = (0..8).map(|i| i as f64 * 0.25 - 1.0).collect();
        let yf = wf.gemv_alloc(&xf).unwrap();

        let wq: Matrix<Fx32> = wf.cast();
        let xq: Vec<Fx32> = xf.iter().map(|&v| Fx32::from_f64(v)).collect();
        let yq = wq.gemv_alloc(&xq).unwrap();
        for (a, b) in yf.iter().zip(&yq) {
            assert!((a - b.to_f64()).abs() < 1e-4);
        }
    }

    #[test]
    fn saturating_accumulation_clamps_not_wraps() {
        // 8 products of 30*1 in Q6.10 saturate at 32 instead of wrapping.
        type Q = Q16<10>;
        let w = Matrix::<Q>::from_fn(1, 8, |_, _| Q::from_f64(30.0));
        let x = vec![Q::from_f64(1.0); 8];
        let y = w.gemv_alloc(&x).unwrap();
        assert_eq!(y[0], Q::MAX);
    }

    #[test]
    fn index_panics_out_of_bounds() {
        let w = mat2x3();
        let result = std::panic::catch_unwind(|| w[(5, 0)]);
        assert!(result.is_err());
    }

    #[test]
    fn cast_roundtrip_preserves_values_within_resolution() {
        let wf = Matrix::<f64>::from_fn(3, 3, |r, c| (r as f64 - c as f64) * 0.3);
        let back: Matrix<f64> = wf.cast::<Fx32>().cast();
        for (a, b) in wf.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn shape_error_message_is_descriptive() {
        let err = mat2x3().gemv_alloc(&[1.0]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gemv input"));
        assert!(msg.contains("3"));
    }

    /// Pseudo-random Fx32 batch/weight pair for bit-exactness checks.
    fn fx32_case(rows: usize, cols: usize, batch: usize) -> (Matrix<Fx32>, Matrix<Fx32>) {
        let w = Matrix::<f64>::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17) % 23) as f64 - 11.0) * 0.13
        })
        .cast::<Fx32>();
        let a = Matrix::<f64>::from_fn(batch, cols, |b, c| {
            (((b * 7 + c * 13) % 19) as f64 - 9.0) * 0.21
        })
        .cast::<Fx32>();
        (w, a)
    }

    #[test]
    fn gemv_batch_bit_exact_with_per_row_gemv() {
        let (w, a) = fx32_case(5, 7, 6);
        let y = w.gemv_batch_alloc(&a).unwrap();
        for b in 0..a.rows() {
            assert_eq!(y.row(b), w.gemv_alloc(a.row(b)).unwrap().as_slice());
        }
    }

    #[test]
    fn packed_kernels_bit_exact_with_unpacked() {
        // Odd shapes and batches around the tile sizes (2 for forward,
        // 4 for transposed) so every remainder path runs.
        for &(rows, cols, batch) in &[(5, 7, 1), (5, 7, 2), (5, 7, 3), (6, 4, 4), (3, 9, 7)] {
            let (w, a) = fx32_case(rows, cols, batch);
            let pack = w.pack();
            assert_eq!(pack.shape(), w.shape());

            let fwd = w.gemv_batch_alloc(&a).unwrap();
            let mut fwd_p = Matrix::zeros(batch, rows);
            pack.gemv_batch(&a, &mut fwd_p).unwrap();
            assert_eq!(fwd, fwd_p);

            let e = Matrix::<f64>::from_fn(batch, rows, |b, r| {
                (((b * 5 + r * 11) % 17) as f64 - 8.0) * 0.17
            })
            .cast::<Fx32>();
            let bwd = w.gemv_t_batch_alloc(&e).unwrap();
            let mut bwd_p = Matrix::zeros(batch, cols);
            pack.gemv_t_batch(&e, &mut bwd_p).unwrap();
            assert_eq!(bwd, bwd_p);

            for workers in [1usize, 2, 3, 8] {
                let par = Parallelism::with_workers(workers);
                let mut yp = Matrix::zeros(batch, rows);
                pack.gemv_batch_par(&a, &mut yp, &par).unwrap();
                assert_eq!(fwd, yp);
                let mut tp = Matrix::zeros(batch, cols);
                pack.gemv_t_batch_par(&e, &mut tp, &par).unwrap();
                assert_eq!(bwd, tp);
            }
        }
    }

    /// The column panels as the eager pack built them before the lazy
    /// half existed: copied row by row from the source matrix.
    fn eager_panels<S: Scalar>(w: &Matrix<S>) -> Vec<S> {
        const PW: usize = GEMV_T_PANEL;
        let panels = w.cols.div_ceil(PW);
        let mut out = vec![S::zero(); panels * w.rows * PW];
        for p in 0..panels {
            for i in 0..w.rows {
                let j0 = p * PW;
                let width = PW.min(w.cols - j0);
                let dst = (p * w.rows + i) * PW;
                out[dst..dst + width].copy_from_slice(&w.row(i)[j0..j0 + width]);
            }
        }
        out
    }

    #[test]
    fn lazy_panels_equal_the_eager_build_and_leave_equality_alone() {
        for &(rows, cols) in &[(1, 1), (5, 7), (3, 16), (4, 17), (33, 40), (300, 400)] {
            let (w, _) = fx32_case(rows, cols, 1);
            let pack = w.pack();
            let fresh = w.pack();
            assert!(
                pack.backward.get().is_none(),
                "pack() must not build the panels"
            );
            let e = Matrix::<f64>::from_fn(5, rows, |b, r| ((b * 7 + r) % 9) as f64 * 0.2 - 0.8)
                .cast::<Fx32>();
            let mut y = Matrix::zeros(5, cols);
            pack.gemv_t_batch(&e, &mut y).unwrap();
            assert_eq!(y, w.gemv_t_batch_alloc(&e).unwrap());
            let built = pack
                .backward
                .get()
                .expect("first gemv_t_batch builds the panels");
            assert_eq!(built.w_panels, eager_panels(&w));
            assert_eq!(built.col_abs_sum, w.max_col_abs_sum());
            // Built and unbuilt packs of one snapshot compare equal, in
            // both directions, and a clone keeps whichever state it had.
            assert_eq!(pack, fresh);
            assert_eq!(fresh, pack);
            assert_eq!(pack.clone(), fresh.clone());
            assert!(pack.clone().backward.get().is_some());
            assert!(fresh.clone().backward.get().is_none());
        }
        let (w, _) = fx32_case(5, 7, 1);
        let (mut v, _) = fx32_case(5, 7, 1);
        v[(4, 6)] += Fx32::EPSILON;
        assert_ne!(w.pack(), v.pack());
    }

    #[test]
    fn blocked_transpose_matches_the_strided_definition() {
        for &(rows, cols) in &[
            (0, 3),
            (1, 1),
            (1, 40),
            (15, 17),
            (16, 16),
            (33, 31),
            (300, 400),
        ] {
            let w = Matrix::<f64>::from_fn(rows, cols, |r, c| (r * 1000 + c) as f64);
            let t = w.transposed();
            assert_eq!(t.shape(), (cols, rows));
            assert_eq!(t, Matrix::from_fn(cols, rows, |r, c| w[(c, r)]));
        }
    }

    #[test]
    fn packed_kernels_saturate_like_unpacked() {
        // Near-rail Q16 values so the saturating adds actually clamp:
        // the packed tiles must replay the exact per-element chains.
        type Q = Q16<10>;
        let w = Matrix::<f64>::from_fn(6, 5, |r, c| if (r + c) % 2 == 0 { 31.0 } else { -31.0 })
            .cast::<Q>();
        let a = Matrix::<f64>::from_fn(7, 5, |b, c| if (b + c) % 3 == 0 { 31.0 } else { 30.0 })
            .cast::<Q>();
        let e = Matrix::<f64>::from_fn(7, 6, |b, r| if (b * r) % 2 == 0 { -31.0 } else { 31.0 })
            .cast::<Q>();
        let pack = w.pack();
        let fwd = w.gemv_batch_alloc(&a).unwrap();
        let mut fwd_p = Matrix::zeros(7, 6);
        pack.gemv_batch(&a, &mut fwd_p).unwrap();
        assert_eq!(fwd, fwd_p);
        let bwd = w.gemv_t_batch_alloc(&e).unwrap();
        let mut bwd_p = Matrix::zeros(7, 5);
        pack.gemv_t_batch(&e, &mut bwd_p).unwrap();
        assert_eq!(bwd, bwd_p);
    }

    #[test]
    fn packed_kernels_reject_bad_shapes() {
        let (w, a) = fx32_case(5, 7, 4);
        let pack = w.pack();
        let mut bad_out = Matrix::zeros(4, 6);
        assert!(pack.gemv_batch(&a, &mut bad_out).is_err());
        let bad_in = Matrix::<Fx32>::zeros(4, 6);
        let mut y = Matrix::zeros(4, 5);
        assert!(pack.gemv_batch(&bad_in, &mut y).is_err());
        let mut bad_t = Matrix::zeros(4, 6);
        let e = Matrix::<Fx32>::zeros(4, 5);
        assert!(pack.gemv_t_batch(&e, &mut bad_t).is_err());
        let bad_e = Matrix::<Fx32>::zeros(4, 6);
        let mut t = Matrix::zeros(4, 7);
        assert!(pack.gemv_t_batch(&bad_e, &mut t).is_err());
    }

    #[test]
    fn gemv_t_batch_bit_exact_with_per_row_gemv_t() {
        let (w, _) = fx32_case(5, 7, 6);
        let e = Matrix::<f64>::from_fn(6, 5, |b, i| ((b * 5 + i) % 11) as f64 * 0.3 - 1.5)
            .cast::<Fx32>();
        let y = w.gemv_t_batch_alloc(&e).unwrap();
        for b in 0..e.rows() {
            assert_eq!(y.row(b), w.gemv_t_alloc(e.row(b)).unwrap().as_slice());
        }
    }

    #[test]
    fn add_outer_batch_bit_exact_with_sample_order_loop() {
        let (w, a) = fx32_case(5, 7, 6);
        let e = Matrix::<f64>::from_fn(6, 5, |b, i| ((b * 3 + i) % 13) as f64 * 0.17 - 1.0)
            .cast::<Fx32>();
        let mut batched = Matrix::<Fx32>::zeros(w.rows(), w.cols());
        batched.add_outer_batch(&e, &a).unwrap();
        let mut looped = Matrix::<Fx32>::zeros(w.rows(), w.cols());
        for b in 0..e.rows() {
            looped.add_outer(e.row(b), a.row(b)).unwrap();
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn gemv_batch_is_matmul_against_transpose() {
        // The documented identity: W.gemv_batch(A) == A · Wᵀ, bit-exact
        // in fixed point.
        let (w, a) = fx32_case(4, 6, 5);
        let via_batch = w.gemv_batch_alloc(&a).unwrap();
        let via_matmul = a.matmul(&w.transposed()).unwrap();
        assert_eq!(via_batch, via_matmul);
    }

    #[test]
    fn matmul_matches_float_reference() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::<f64>::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert!(a.matmul(&Matrix::<f64>::zeros(3, 2)).is_err());
    }

    #[test]
    fn batched_kernels_saturate_like_per_sample() {
        // Saturating accumulation must clamp identically on both paths.
        type Q = Q16<10>;
        let w = Matrix::<Q>::from_fn(1, 8, |_, _| Q::from_f64(30.0));
        let a = Matrix::<Q>::from_fn(3, 8, |_, _| Q::from_f64(1.0));
        let y = w.gemv_batch_alloc(&a).unwrap();
        for b in 0..3 {
            assert_eq!(y[(b, 0)], Q::MAX);
        }
    }

    #[test]
    fn add_row_broadcast_and_hcat_and_columns() {
        let mut z = Matrix::<f64>::zeros(2, 3);
        z.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(z.row(1), &[1.0, 2.0, 3.0]);
        assert!(z.add_row_broadcast(&[1.0]).is_err());

        let s = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let a = Matrix::<f64>::from_rows(&[&[5.0], &[6.0]]).unwrap();
        let cat = s.hcat(&a).unwrap();
        assert_eq!(cat.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(cat.row(1), &[3.0, 4.0, 6.0]);
        assert!(s.hcat(&Matrix::<f64>::zeros(3, 1)).is_err());

        let right = cat.columns(2, 3);
        assert_eq!(right.shape(), (2, 1));
        assert_eq!(right[(1, 0)], 6.0);
    }

    #[test]
    fn from_row_fn_builds_batches_and_validates() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = Matrix::<f64>::from_row_fn(&rows, 2, |r| r.as_slice()).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(Matrix::<f64>::from_row_fn(&rows, 3, |r| r.as_slice()).is_err());
    }

    #[test]
    fn batched_shape_errors() {
        let (w, a) = fx32_case(4, 6, 5);
        let bad = Matrix::<Fx32>::zeros(5, 4);
        assert!(w.gemv_batch_alloc(&bad).is_err());
        let mut y = Matrix::<Fx32>::zeros(4, 4);
        assert!(w.gemv_batch(&a, &mut y).is_err());
        assert!(w.gemv_t_batch_alloc(&a).is_err());
        let mut g = Matrix::<Fx32>::zeros(4, 6);
        let e = Matrix::<Fx32>::zeros(3, 4);
        assert!(g.add_outer_batch(&e, &a).is_err());
    }

    #[test]
    fn parallel_kernels_bit_exact_with_sequential_across_worker_counts() {
        // The tentpole contract at the kernel level: every pool-parallel
        // kernel equals its sequential form bit-for-bit in saturating
        // Fx32, for worker counts spanning under- and over-subscription
        // of the batch and awkward shard remainders.
        let (w, a) = fx32_case(7, 9, 13);
        let e = Matrix::<f64>::from_fn(13, 7, |b, i| ((b * 5 + i * 3) % 17) as f64 * 0.23 - 1.8)
            .cast::<Fx32>();
        let y_seq = w.gemv_batch_alloc(&a).unwrap();
        let yt_seq = w.gemv_t_batch_alloc(&e).unwrap();
        let mut g_seq = Matrix::<Fx32>::zeros(7, 9);
        g_seq.add_outer_batch(&e, &a).unwrap();
        let m_seq = a.matmul(&w.transposed()).unwrap();

        for workers in [1, 2, 3, 4, 8, 16] {
            let par = Parallelism::with_workers(workers);
            assert_eq!(w.gemv_batch_par_alloc(&a, &par).unwrap(), y_seq);
            assert_eq!(w.gemv_t_batch_par_alloc(&e, &par).unwrap(), yt_seq);
            let mut g = Matrix::<Fx32>::zeros(7, 9);
            g.add_outer_batch_par(&e, &a, &par).unwrap();
            assert_eq!(g, g_seq);
            assert_eq!(a.matmul_par(&w.transposed(), &par).unwrap(), m_seq);
        }
    }

    #[test]
    fn parallel_kernels_saturate_like_sequential() {
        // Saturating accumulation must clamp identically on the sharded
        // path: the per-element chains are shared code, so a mid-chain
        // clamp lands at the same partial sum.
        type Q = Q16<10>;
        let w = Matrix::<Q>::from_fn(3, 8, |_, _| Q::from_f64(30.0));
        let a = Matrix::<Q>::from_fn(9, 8, |_, _| Q::from_f64(1.0));
        let par = Parallelism::with_workers(4);
        let seq = w.gemv_batch_alloc(&a).unwrap();
        let parr = w.gemv_batch_par_alloc(&a, &par).unwrap();
        assert_eq!(seq, parr);
        assert_eq!(parr[(8, 2)], Q::MAX);

        // Gradient saturation, W-row sharded.
        let e = Matrix::<Q>::from_fn(9, 3, |_, _| Q::from_f64(30.0));
        let mut g_seq = Matrix::<Q>::zeros(3, 8);
        g_seq.add_outer_batch(&e, &a).unwrap();
        let mut g_par = Matrix::<Q>::zeros(3, 8);
        g_par.add_outer_batch_par(&e, &a, &par).unwrap();
        assert_eq!(g_seq, g_par);
    }

    #[test]
    fn gather_columns_picks_stored_rows_with_replacement() {
        let panel = Matrix::<f64>::from_fn(5, 3, |r, c| (r * 10 + c) as f64);
        let batch = panel.gather_columns(&[4, 0, 4, 2]).unwrap();
        assert_eq!(batch.shape(), (4, 3));
        assert_eq!(batch.row(0), panel.row(4));
        assert_eq!(batch.row(1), panel.row(0));
        assert_eq!(batch.row(2), panel.row(4));
        assert_eq!(batch.row(3), panel.row(2));
        // Empty gather: a 0-row batch with the panel's width.
        assert_eq!(panel.gather_columns(&[]).unwrap().shape(), (0, 3));
    }

    #[test]
    fn gather_columns_rejects_out_of_range_indices() {
        let panel = Matrix::<Fx32>::zeros(4, 2);
        let err = panel.gather_columns(&[1, 4]).unwrap_err();
        assert!(err.to_string().contains("gather_columns index"));
        let par = Parallelism::with_workers(2);
        assert!(panel.gather_columns_par(&[0, 9], &par).is_err());
    }

    #[test]
    fn gather_columns_par_bit_exact_across_worker_counts() {
        // Same contract as the MVM kernels: disjoint output shards,
        // bit-identical at every worker count (trivially here — gathers
        // are pure copies — but the shard plumbing is what's under
        // test, including remainders and over-subscription).
        let panel =
            Matrix::<f64>::from_fn(17, 5, |r, c| (r as f64 - c as f64) * 0.31).cast::<Fx32>();
        let indices: Vec<usize> = (0..13).map(|k| (k * 7 + 3) % 17).collect();
        let seq = panel.gather_columns(&indices).unwrap();
        for workers in [1, 2, 3, 4, 8, 16] {
            let par = Parallelism::with_workers(workers);
            assert_eq!(
                panel.gather_columns_par(&indices, &par).unwrap(),
                seq,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn fused_scope_kernels_bit_exact_with_sequential_across_worker_counts() {
        // The tentpole contract at the tensor level: all five `_par_in`
        // kernels fused into ONE scope (single join) produce exactly
        // the bytes of their sequential forms, in saturating Fx32, at
        // every worker count including over-subscription.
        let (w, a) = fx32_case(7, 9, 13);
        let e = Matrix::<f64>::from_fn(13, 7, |b, i| ((b * 5 + i * 3) % 17) as f64 * 0.23 - 1.8)
            .cast::<Fx32>();
        let panel =
            Matrix::<f64>::from_fn(17, 5, |r, c| (r as f64 - c as f64) * 0.31).cast::<Fx32>();
        let indices: Vec<usize> = (0..13).map(|k| (k * 7 + 3) % 17).collect();

        let y_seq = w.gemv_batch_alloc(&a).unwrap();
        let yt_seq = w.gemv_t_batch_alloc(&e).unwrap();
        let mut g_seq = Matrix::<Fx32>::zeros(7, 9);
        g_seq.add_outer_batch(&e, &a).unwrap();
        let m_seq = a.matmul(&w.transposed()).unwrap();
        let gather_seq = panel.gather_columns(&indices).unwrap();

        for workers in [1usize, 2, 3, 8] {
            let par = Parallelism::with_workers(workers);
            let mut y = Matrix::<Fx32>::zeros(13, 7);
            let mut yt = Matrix::<Fx32>::zeros(13, 9);
            let mut g = Matrix::<Fx32>::zeros(7, 9);
            let mut m = Matrix::<Fx32>::zeros(13, 7);
            let mut gathered = Matrix::<Fx32>::zeros(13, 5);
            let wt = w.transposed();
            par.fused(|ks| -> Result<(), ShapeError> {
                w.gemv_batch_par_in(&a, &mut y, ks)?;
                w.gemv_t_batch_par_in(&e, &mut yt, ks)?;
                g.add_outer_batch_par_in(&e, &a, ks)?;
                a.matmul_par_in(&wt, &mut m, ks)?;
                panel.gather_columns_par_in(&indices, &mut gathered, ks)?;
                Ok(())
            })
            .unwrap()
            .unwrap();
            assert_eq!(y, y_seq, "workers {workers}: gemv_batch");
            assert_eq!(yt, yt_seq, "workers {workers}: gemv_t_batch");
            assert_eq!(g, g_seq, "workers {workers}: add_outer_batch");
            assert_eq!(m, m_seq, "workers {workers}: matmul");
            assert_eq!(gathered, gather_seq, "workers {workers}: gather");
        }
    }

    #[test]
    fn fused_scope_kernels_degrade_on_pool_threads() {
        // A `_par_in` kernel invoked from inside a pool task must run
        // its sequential form inline instead of deadlocking on a
        // nested scope — the satellite's degradation contract.
        let (w, a) = fx32_case(5, 7, 6);
        let y_seq = w.gemv_batch_alloc(&a).unwrap();
        let par = Parallelism::with_workers(2);
        let mut y = Matrix::<Fx32>::zeros(6, 5);
        par.fused(|outer| {
            let par = &par;
            let w = &w;
            let a = &a;
            let y = &mut y;
            outer.submit(move || {
                // On a pool thread: the nested fused scope is the
                // sequential degradation, submissions run inline.
                par.fused(|ks| {
                    assert!(!ks.is_pooled());
                    w.gemv_batch_par_in(a, y, ks).unwrap();
                })
                .unwrap();
            });
        })
        .unwrap();
        assert_eq!(y, y_seq);
    }

    #[test]
    fn fused_scope_kernels_validate_shapes_before_enqueueing() {
        // Operands live outside the scope (the `'scope` bound requires
        // it); every malformed call errors on the calling thread before
        // anything enqueues.
        let (w, a) = fx32_case(4, 6, 5);
        let par = Parallelism::with_workers(2);
        let bad = Matrix::<Fx32>::zeros(5, 4);
        let mut y1 = Matrix::<Fx32>::zeros(5, 4);
        let mut y2 = Matrix::<Fx32>::zeros(5, 4);
        let mut g = Matrix::<Fx32>::zeros(4, 6);
        let e3 = Matrix::<Fx32>::zeros(3, 4);
        let wt = w.transposed();
        let mut wrong_out = Matrix::<Fx32>::zeros(2, 2);
        let mut small = Matrix::<Fx32>::zeros(1, 6);
        par.fused(|ks| {
            assert!(w.gemv_batch_par_in(&bad, &mut y1, ks).is_err());
            assert!(w.gemv_t_batch_par_in(&a, &mut y2, ks).is_err());
            assert!(g.add_outer_batch_par_in(&e3, &a, ks).is_err());
            // matmul_par_in also validates the out shape.
            assert!(a.matmul_par_in(&wt, &mut wrong_out, ks).is_err());
            assert!(w.gather_columns_par_in(&[0, 1], &mut small, ks).is_err());
        })
        .unwrap();
    }

    #[test]
    fn gather_columns_into_reuses_storage_and_matches_alloc_form() {
        let panel = Matrix::<f64>::from_fn(11, 4, |r, c| (r * 4 + c) as f64).cast::<Fx32>();
        let idx_a: Vec<usize> = (0..9).map(|k| (k * 3 + 1) % 11).collect();
        let idx_b: Vec<usize> = (0..6).map(|k| (k * 5) % 11).collect();
        let mut out = Matrix::<Fx32>::zeros(0, 0);
        panel.gather_columns_into(&idx_a, &mut out).unwrap();
        assert_eq!(out, panel.gather_columns(&idx_a).unwrap());
        let ptr = out.as_slice().as_ptr();
        // Smaller gather into the same scratch: no reallocation.
        panel.gather_columns_into(&idx_b, &mut out).unwrap();
        assert_eq!(out, panel.gather_columns(&idx_b).unwrap());
        assert_eq!(out.as_slice().as_ptr(), ptr, "scratch must be reused");
        // Pool-parallel into-form agrees at every worker count.
        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            panel
                .gather_columns_par_into(&idx_a, &par, &mut out)
                .unwrap();
            assert_eq!(out, panel.gather_columns(&idx_a).unwrap());
        }
        assert!(panel.gather_columns_into(&[99], &mut out).is_err());
    }

    #[test]
    fn reset_shape_and_row_range() {
        let mut m = Matrix::<f64>::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let mid = m.row_range(1, 3);
        assert_eq!(mid.shape(), (2, 4));
        assert_eq!(mid.row(0), m.row(1));
        assert_eq!(mid.row(1), m.row(2));
        assert_eq!(m.row_range(2, 2).shape(), (0, 4));

        m.reset_shape(2, 3);
        assert_eq!(m.shape(), (2, 3));
        let ptr = m.as_slice().as_ptr();
        m.reset_shape(1, 2);
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking reuses storage");
        // Growth past the original capacity zero-fills the new tail.
        let mut fresh = Matrix::<f64>::zeros(0, 0);
        fresh.reset_shape(2, 2);
        assert_eq!(fresh.max_abs(), 0.0);
    }

    #[test]
    fn parallel_kernels_validate_shapes_and_handle_degenerate_batches() {
        let (w, a) = fx32_case(4, 6, 5);
        let par = Parallelism::with_workers(2);
        let bad = Matrix::<Fx32>::zeros(5, 4);
        assert!(w.gemv_batch_par_alloc(&bad, &par).is_err());
        assert!(w.gemv_t_batch_par_alloc(&a, &par).is_err());
        let mut g = Matrix::<Fx32>::zeros(4, 6);
        let e3 = Matrix::<Fx32>::zeros(3, 4);
        assert!(g.add_outer_batch_par(&e3, &a, &par).is_err());
        assert!(w.matmul_par(&Matrix::<Fx32>::zeros(3, 2), &par).is_err());

        // Single-row batch degrades to the sequential kernel.
        let one = Matrix::<Fx32>::zeros(1, 6);
        let y = w.gemv_batch_par_alloc(&one, &par).unwrap();
        assert_eq!(y, w.gemv_batch_alloc(&one).unwrap());

        // Empty batch is a no-op on both paths.
        let empty = Matrix::<Fx32>::zeros(0, 6);
        assert_eq!(
            w.gemv_batch_par_alloc(&empty, &par).unwrap().shape(),
            (0, 4)
        );
    }
}
