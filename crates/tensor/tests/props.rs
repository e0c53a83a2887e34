//! Property-based tests for the tensor kernels.

use fixar_fixed::{Fx32, Scalar, Q32};
use fixar_tensor::{vector, Matrix, Parallelism};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn small_matrix() -> impl Strategy<Value = Matrix<f64>> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

proptest! {
    #[test]
    fn gemv_is_linear_in_x(w in small_matrix(), s in -3.0..3.0f64) {
        let x: Vec<f64> = (0..w.cols()).map(|i| (i as f64 * 0.7).sin()).collect();
        let y1 = w.gemv_alloc(&x).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| v * s).collect();
        let y2 = w.gemv_alloc(&xs).unwrap();
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a * s - b).abs() < 1e-9);
        }
    }

    #[test]
    fn gemv_t_is_adjoint_of_gemv(w in small_matrix()) {
        // <W x, e> == <x, Wᵀ e> for float arithmetic.
        let x: Vec<f64> = (0..w.cols()).map(|i| (i as f64 + 0.5) * 0.3).collect();
        let e: Vec<f64> = (0..w.rows()).map(|i| (i as f64 - 1.0) * 0.4).collect();
        let wx = w.gemv_alloc(&x).unwrap();
        let wte = w.gemv_t_alloc(&e).unwrap();
        let lhs = vector::dot(&wx, &e);
        let rhs = vector::dot(&x, &wte);
        prop_assert!((lhs - rhs).abs() < 1e-9, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn transpose_is_involutive(w in small_matrix()) {
        prop_assert_eq!(w.transposed().transposed(), w);
    }

    #[test]
    fn add_outer_matches_explicit_loop(
        e in prop::collection::vec(-5.0..5.0f64, 1..6),
        a in prop::collection::vec(-5.0..5.0f64, 1..6),
    ) {
        let mut g = Matrix::<f64>::zeros(e.len(), a.len());
        g.add_outer(&e, &a).unwrap();
        for i in 0..e.len() {
            for j in 0..a.len() {
                prop_assert!((g[(i, j)] - e[i] * a[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fixed_gemv_tracks_float_within_error_budget(w in small_matrix()) {
        // Error per output: cols * (operand rounding + product rounding).
        let x: Vec<f64> = (0..w.cols()).map(|i| ((i * 31) % 7) as f64 - 3.0).collect();
        let yf = w.gemv_alloc(&x).unwrap();
        let wq: Matrix<Fx32> = w.cast();
        let xq = vector::from_f64_slice::<Fx32>(&x);
        let yq = wq.gemv_alloc(&xq).unwrap();
        let ulp = 1.0 / (1u64 << 20) as f64;
        let bound = ulp * w.cols() as f64 * 40.0;
        for (a, b) in yf.iter().zip(&yq) {
            prop_assert!((a - b.to_f64()).abs() <= bound);
        }
    }

    #[test]
    fn gemv_batch_rows_equal_per_sample_gemv_fx32(
        w in small_matrix(),
        batch in 1usize..9,
    ) {
        // Bit-exactness of the batched forward kernel, in fixed point.
        let wq: Matrix<Fx32> = w.cast();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b * 13 + c * 7) as f64 * 0.37).sin() * 4.0
        }).cast::<Fx32>();
        let y = wq.gemv_batch_alloc(&a).unwrap();
        for b in 0..batch {
            let reference = wq.gemv_alloc(a.row(b)).unwrap();
            prop_assert_eq!(y.row(b), reference.as_slice());
        }
    }

    #[test]
    fn gemv_t_batch_rows_equal_per_sample_gemv_t_fx32(
        w in small_matrix(),
        batch in 1usize..9,
    ) {
        let wq: Matrix<Fx32> = w.cast();
        let e = Matrix::<f64>::from_fn(batch, w.rows(), |b, r| {
            ((b * 5 + r * 11) as f64 * 0.29).cos() * 3.0
        }).cast::<Fx32>();
        let y = wq.gemv_t_batch_alloc(&e).unwrap();
        for b in 0..batch {
            let reference = wq.gemv_t_alloc(e.row(b)).unwrap();
            prop_assert_eq!(y.row(b), reference.as_slice());
        }
    }

    #[test]
    fn add_outer_batch_equals_sample_order_accumulation_fx32(
        w in small_matrix(),
        batch in 1usize..9,
    ) {
        // The documented batch-reduction order: ascending sample index.
        let e = Matrix::<f64>::from_fn(batch, w.rows(), |b, r| {
            ((b * 3 + r) as f64 * 0.41).sin() * 2.0
        }).cast::<Fx32>();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b * 7 + c) as f64 * 0.53).cos() * 2.0
        }).cast::<Fx32>();
        let mut batched: Matrix<Fx32> = w.cast();
        let mut looped = batched.clone();
        batched.add_outer_batch(&e, &a).unwrap();
        for b in 0..batch {
            looped.add_outer(e.row(b), a.row(b)).unwrap();
        }
        prop_assert_eq!(batched, looped);
    }

    #[test]
    fn gemv_batch_is_matmul_against_transpose(w in small_matrix(), batch in 1usize..7) {
        // W.gemv_batch(A) == A · Wᵀ — the matrix-matrix identity, exact
        // in fixed point because the per-element reduction orders match.
        let wq: Matrix<Fx32> = w.cast();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b + c * 3) as f64 * 0.61).sin()
        }).cast::<Fx32>();
        let lhs = wq.gemv_batch_alloc(&a).unwrap();
        let rhs = a.matmul(&wq.transposed()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn gather_columns_rows_equal_indexed_panel_columns_fx32(
        w in small_matrix(),
        picks in prop::collection::vec(0usize..64, 0..24),
        workers in 1usize..9,
    ) {
        // The replay gather contract: row k of the gathered batch is
        // stored row picks[k] of the panel (logical column picks[k] of
        // the column-major panel), bit-for-bit, and the pool-parallel
        // form is bit-identical to the sequential one at every worker
        // count — including repeated indices (with-replacement draws).
        let panel: Matrix<Fx32> = w.cast();
        let indices: Vec<usize> = picks.into_iter().map(|p| p % panel.rows()).collect();
        let seq = panel.gather_columns(&indices).unwrap();
        prop_assert_eq!(seq.shape(), (indices.len(), panel.cols()));
        for (k, &j) in indices.iter().enumerate() {
            prop_assert_eq!(seq.row(k), panel.row(j));
        }
        let par = fixar_pool::Parallelism::with_workers(workers);
        prop_assert_eq!(panel.gather_columns_par(&indices, &par).unwrap(), seq);
    }

    #[test]
    fn packed_gemv_kernels_equal_unpacked_fx32(
        w in small_matrix(),
        batch in 1usize..9,
        amp in 1.0..2000.0f64,
    ) {
        // Packed ≡ unpacked, bit for bit, sequential and parallel —
        // `amp` near the Fx32 rail makes the saturating adds clamp, so
        // any chain-order deviation in the packed tiles would show.
        let wq: Matrix<Fx32> = w.cast();
        let pack = wq.pack();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b * 13 + c * 7) as f64 * 0.37).sin() * amp
        }).cast::<Fx32>();
        let e = Matrix::<f64>::from_fn(batch, w.rows(), |b, r| {
            ((b * 5 + r * 11) as f64 * 0.29).cos() * amp
        }).cast::<Fx32>();
        let fwd = wq.gemv_batch_alloc(&a).unwrap();
        let bwd = wq.gemv_t_batch_alloc(&e).unwrap();
        let mut fwd_p = Matrix::zeros(batch, w.rows());
        pack.gemv_batch(&a, &mut fwd_p).unwrap();
        prop_assert_eq!(&fwd, &fwd_p);
        let mut bwd_p = Matrix::zeros(batch, w.cols());
        pack.gemv_t_batch(&e, &mut bwd_p).unwrap();
        prop_assert_eq!(&bwd, &bwd_p);
        for workers in [1usize, 2, 8] {
            let par = fixar_pool::Parallelism::with_workers(workers);
            let mut yp = Matrix::zeros(batch, w.rows());
            pack.gemv_batch_par(&a, &mut yp, &par).unwrap();
            prop_assert_eq!(&fwd, &yp);
            let mut tp = Matrix::zeros(batch, w.cols());
            pack.gemv_t_batch_par(&e, &mut tp, &par).unwrap();
            prop_assert_eq!(&bwd, &tp);
        }
    }

    #[test]
    fn retiled_add_outer_batch_equals_sample_order_accumulation_saturating(
        w in small_matrix(),
        batch in 1usize..9,
        amp in 500.0..2000.0f64,
    ) {
        // The gradient span's row-resident four-sample tiles must keep
        // the ascending-sample chain per element even when every add
        // saturates; the per-sample loop is the reference semantics.
        let e = Matrix::<f64>::from_fn(batch, w.rows(), |b, r| {
            ((b * 3 + r) as f64 * 0.41).sin() * amp
        }).cast::<Fx32>();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b * 7 + c) as f64 * 0.53).cos() * amp
        }).cast::<Fx32>();
        let mut looped: Matrix<Fx32> = w.cast();
        let reference = {
            let mut g = looped.clone();
            for b in 0..batch {
                g.add_outer(e.row(b), a.row(b)).unwrap();
            }
            g
        };
        let mut batched = looped.clone();
        batched.add_outer_batch(&e, &a).unwrap();
        prop_assert_eq!(&batched, &reference);
        for workers in [1usize, 2, 8] {
            let par = fixar_pool::Parallelism::with_workers(workers);
            let mut g = looped.clone();
            g.add_outer_batch_par(&e, &a, &par).unwrap();
            prop_assert_eq!(&g, &reference);
        }
        looped.add_outer_batch(&e, &a).unwrap();
        prop_assert_eq!(&looped, &reference);
    }

    #[test]
    fn retiled_matmul_equals_ascending_k_reference_fx32(
        lhs in small_matrix(),
        n in 1usize..8,
        amp in 1.0..2000.0f64,
    ) {
        // The two-row matmul tiles against an explicit per-element
        // ascending-k reduction, at saturating amplitudes.
        let a: Matrix<Fx32> = lhs.cast();
        let b = Matrix::<f64>::from_fn(lhs.cols(), n, |k, j| {
            ((k * 9 + j * 5) as f64 * 0.47).sin() * amp
        }).cast::<Fx32>();
        let mut reference = Matrix::<Fx32>::zeros(a.rows(), n);
        for i in 0..a.rows() {
            for j in 0..n {
                let mut acc = Fx32::zero();
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                reference[(i, j)] = acc;
            }
        }
        let got = a.matmul(&b).unwrap();
        prop_assert_eq!(&got, &reference);
        for workers in [1usize, 2, 8] {
            let par = fixar_pool::Parallelism::with_workers(workers);
            prop_assert_eq!(&a.matmul_par(&b, &par).unwrap(), &reference);
        }
    }

    #[test]
    fn dot_of_cat_is_sum_of_dots(
        a in prop::collection::vec(-5.0..5.0f64, 1..8),
        b in prop::collection::vec(-5.0..5.0f64, 1..8),
    ) {
        let ones_a = vec![1.0; a.len()];
        let ones_b = vec![1.0; b.len()];
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        let ones_cat = vec![1.0; cat.len()];
        let lhs = vector::dot(&cat, &ones_cat);
        let rhs = vector::dot(&a, &ones_a) + vector::dot(&b, &ones_b);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }
}

// --- certified exact-MAC kernels vs the per-sample chain oracles --------
//
// The batched `gemv_batch` / `gemv_t_batch` (packed and unpacked) and
// `Matrix::add_outer_batch` run a wrapping MAC loop whenever their
// no-saturation certificate holds, and the saturating chain otherwise.
// Either way every output must equal the per-sample `gemv` / `gemv_t` /
// `add_outer` chain (which never takes the fast path), bit for bit, at
// every worker count and through the fused-scope forms.

const WORKERS: [usize; 3] = [1, 2, 8];

/// Checks every certified kernel — packed and unpacked, sequential,
/// `_par` and `_par_in` at 1, 2 and 8 workers — against its per-sample
/// chain oracle. Returns the oracle outputs so callers can inspect them.
fn kernels_match_chain_oracles<S: Scalar>(
    w: &Matrix<S>,
    a: &Matrix<S>,
    e: &Matrix<S>,
    g: &Matrix<S>,
) -> Result<[Matrix<S>; 3], TestCaseError> {
    let batch = a.rows();
    let mut fwd = Matrix::zeros(batch, w.rows());
    let mut bwd = Matrix::zeros(batch, w.cols());
    for b in 0..batch {
        w.gemv(a.row(b), fwd.row_mut(b)).unwrap();
        w.gemv_t(e.row(b), bwd.row_mut(b)).unwrap();
    }
    let mut grad = g.clone();
    for b in 0..batch {
        grad.add_outer(e.row(b), a.row(b)).unwrap();
    }

    let pack = w.pack();
    let mut y = Matrix::zeros(batch, w.rows());
    pack.gemv_batch(a, &mut y).unwrap();
    prop_assert_eq!(&y, &fwd);
    let mut yt = Matrix::zeros(batch, w.cols());
    pack.gemv_t_batch(e, &mut yt).unwrap();
    prop_assert_eq!(&yt, &bwd);
    let mut gb = g.clone();
    gb.add_outer_batch(e, a).unwrap();
    prop_assert_eq!(&gb, &grad);
    prop_assert_eq!(&w.gemv_batch_alloc(a).unwrap(), &fwd);
    prop_assert_eq!(&w.gemv_t_batch_alloc(e).unwrap(), &bwd);
    for workers in WORKERS {
        let par = Parallelism::with_workers(workers);
        pack.gemv_batch_par(a, &mut y, &par).unwrap();
        prop_assert_eq!(&y, &fwd);
        pack.gemv_t_batch_par(e, &mut yt, &par).unwrap();
        prop_assert_eq!(&yt, &bwd);
        let mut gp = g.clone();
        gp.add_outer_batch_par(e, a, &par).unwrap();
        prop_assert_eq!(&gp, &grad);
        prop_assert_eq!(&w.gemv_batch_par_alloc(a, &par).unwrap(), &fwd);
        prop_assert_eq!(&w.gemv_t_batch_par_alloc(e, &par).unwrap(), &bwd);
        let (mut yf, mut yu) = (
            Matrix::zeros(batch, w.rows()),
            Matrix::zeros(batch, w.rows()),
        );
        let (mut ytf, mut ytu) = (
            Matrix::zeros(batch, w.cols()),
            Matrix::zeros(batch, w.cols()),
        );
        let mut gf = g.clone();
        par.fused(|ks| -> Result<(), fixar_tensor::ShapeError> {
            pack.gemv_batch_par_in(a, &mut yf, ks)?;
            pack.gemv_t_batch_par_in(e, &mut ytf, ks)?;
            w.gemv_batch_par_in(a, &mut yu, ks)?;
            w.gemv_t_batch_par_in(e, &mut ytu, ks)?;
            gf.add_outer_batch_par_in(e, a, ks)
        })
        .unwrap()
        .unwrap();
        prop_assert_eq!(&yf, &fwd);
        prop_assert_eq!(&ytf, &bwd);
        prop_assert_eq!(&yu, &fwd);
        prop_assert_eq!(&ytu, &bwd);
        prop_assert_eq!(&gf, &grad);
    }
    Ok([fwd, bwd, grad])
}

/// Raw-domain random operands for `Q32<F>`: weights in `±1.0`, inputs
/// and errors scaled so `Σ|w|·max|x|` lands near `2^(31 + scale)` —
/// negative `scale` certifies, positive `scale` is refused and often
/// saturates the chain.
fn random_case<const F: u32>(
    (rows, cols, batch): (usize, usize, usize),
    scale: i32,
    u: &[f64],
) -> [Matrix<Q32<F>>; 4] {
    let mut it = u.iter().cycle();
    let mut raw = |n: usize, mag: f64| -> Vec<Q32<F>> {
        (0..n)
            .map(|_| Q32::from_raw((it.next().unwrap() * mag) as i32))
            .collect()
    };
    let reach = 2f64.powi(31 + scale);
    let w = raw(rows * cols, (1u64 << F) as f64);
    let a = raw(batch * cols, reach / cols as f64);
    let e = raw(batch * rows, reach / rows as f64);
    let g = raw(rows * cols, reach / 4.0);
    [
        Matrix::from_vec(rows, cols, w).unwrap(),
        Matrix::from_vec(batch, cols, a).unwrap(),
        Matrix::from_vec(batch, rows, e).unwrap(),
        Matrix::from_vec(rows, cols, g).unwrap(),
    ]
}

fn exact_mac_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    // Batches 1–23 hit every remainder 1–7 modulo 8, so every leftover
    // past the 2- and 4-sample tiles; output widths 1–39 are mostly not
    // multiples of the 16-lane panel.
    (1usize..40, 1usize..40, 0usize..3, 0usize..8)
        .prop_map(|(r, c, tiles, rem)| (r, c, (tiles * 8 + rem).max(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_mac_kernels_equal_chain_oracles_q32(
        shape in exact_mac_shape(),
        scale in -8i32..4,
        u in prop::collection::vec(-1.0..1.0f64, 97),
    ) {
        let [w, a, e, g] = random_case::<16>(shape, scale, &u);
        kernels_match_chain_oracles(&w, &a, &e, &g)?;
        let [w, a, e, g] = random_case::<20>(shape, scale, &u);
        kernels_match_chain_oracles::<Fx32>(&w, &a, &e, &g)?;
        let [w, a, e, g] = random_case::<28>(shape, scale, &u);
        kernels_match_chain_oracles(&w, &a, &e, &g)?;
    }

    #[test]
    fn exact_mac_boundary_cases_equal_chain_oracles(
        shape in exact_mac_shape(),
        negative in any::<bool>(),
        u in prop::collection::vec(-1.0..1.0f64, 61),
    ) {
        for delta in [Boundary::Admitted, Boundary::Refused, Boundary::Saturating] {
            boundary_case::<16>(shape, delta, negative, &u)?;
            boundary_case::<20>(shape, delta, negative, &u)?;
            boundary_case::<28>(shape, delta, negative, &u)?;
        }
    }
}

/// Where a boundary case's bound sits relative to the certificate.
#[derive(Clone, Copy, PartialEq)]
enum Boundary {
    /// `bound = i32::MAX - 1`: the largest bound the certificate admits.
    Admitted,
    /// One raw unit past it: refused, and the chain does not saturate.
    Refused,
    /// Far past it: refused, and the chain really saturates.
    Saturating,
}

/// Target magnitude `T` of a boundary case's adversarial output, whose
/// certificate bound is `T + len + 2`.
fn boundary_target(delta: Boundary, len: usize) -> i64 {
    let admitted = i32::MAX as i64 - len as i64 - 3;
    match delta {
        Boundary::Admitted => admitted,
        Boundary::Refused => admitted + 1,
        Boundary::Saturating => i32::MAX as i64 + len as i64,
    }
}

/// Splits `total` into `n` raw words of equal sign (each within `i32`).
fn split_raw(total: i64, n: usize) -> Vec<i32> {
    let q = total / n as i64;
    let mut parts = vec![q; n];
    parts[0] += total - q * n as i64;
    parts.into_iter().map(|p| p as i32).collect()
}

/// Builds operands whose certificate bound sits exactly at `delta` for
/// every kernel at once, then checks the kernels against the oracles
/// and that the saturating cases really clamp.
///
/// * forward: row 0 of `W` sums to `±T` over the inputs, every input is
///   `1.0` (so each product is exact and `Σ|w|·max|x| >> F = T`);
/// * transposed: column 0 of `W` sums to `±T`, every error is `1.0`;
/// * gradient: with `e = 1.0` and `a = A` everywhere, row 0 of `G`
///   starts at `±(T − batch·A)`, so it ends at `±T`.
///
/// The rest of `W` is small random weights, which never raise the
/// bound (it is the maximum row / column sum).
fn boundary_case<const F: u32>(
    (rows, cols, batch): (usize, usize, usize),
    delta: Boundary,
    negative: bool,
    u: &[f64],
) -> Result<(), TestCaseError> {
    // A saturating target must split into words that fit in `i32`.
    let (rows, cols, batch) = (rows.max(2), cols.max(2), batch.max(2));
    let one = 1i32 << F;
    let sign = if negative { -1 } else { 1 };
    let mut small = u.iter().cycle().map(|v| (v * 64.0) as i32);
    let mut w_raw: Vec<i32> = (0..rows * cols).map(|_| small.next().unwrap()).collect();
    for (j, p) in split_raw(boundary_target(delta, cols), cols)
        .into_iter()
        .enumerate()
    {
        w_raw[j] = sign * p;
    }
    // Column 0 (rows 1..) carries the transposed target; W[0][0] is
    // shared with row 0, so the column's remaining words make up the rest.
    let col_target = boundary_target(delta, rows) - w_raw[0].unsigned_abs() as i64;
    for (i, p) in split_raw(col_target, rows - 1).into_iter().enumerate() {
        w_raw[(i + 1) * cols] = sign * p;
    }
    // Row 0 must keep the largest row sum and column 0 the largest
    // column sum: the random words are at most 64 in magnitude.
    let a_word = (boundary_target(Boundary::Admitted, batch) / (2 * batch as i64)) as i32;
    let g_start = boundary_target(delta, batch) - batch as i64 * a_word as i64;
    let mut g_raw = vec![0i32; rows * cols];
    for v in &mut g_raw[..cols] {
        *v = sign * g_start as i32;
    }
    let m = |r, c, raw: Vec<i32>| Matrix::from_vec(r, c, Q32::<F>::from_raw_words(&raw)).unwrap();
    let w = m(rows, cols, w_raw);
    let ones_a = m(batch, cols, vec![one; batch * cols]);
    let ones_e = m(batch, rows, vec![one; batch * rows]);
    let [fwd, bwd, _] =
        kernels_match_chain_oracles(&w, &ones_a, &ones_e, &Matrix::zeros(rows, cols))?;
    let a = m(batch, cols, vec![sign * a_word; batch * cols]);
    let g = m(rows, cols, g_raw);
    let [_, _, grad] = kernels_match_chain_oracles(&w, &a, &ones_e, &g)?;

    let rail = if negative {
        Q32::<F>::MIN
    } else {
        Q32::<F>::MAX
    };
    let clamped = delta == Boundary::Saturating;
    prop_assert_eq!(fwd[(0, 0)] == rail, clamped);
    prop_assert_eq!(bwd[(0, 0)] == rail, clamped);
    prop_assert_eq!(grad[(0, 0)] == rail, clamped);
    Ok(())
}
