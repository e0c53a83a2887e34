//! The no-saturation certificate of the exact-integer MAC kernels, and
//! its health counters.
//!
//! A `Q32<F>` product rounds on its own, so
//! `|round(w·x / 2^F)| ≤ |w|·|x| / 2^F + ½`. Over a reduction of length
//! `n` that starts from `acc`, every partial sum — in *any* summation
//! order — is therefore bounded by
//! `|acc| + (Σ|w|·max|x|) >> F + n + 2`. When that is below `i32::MAX`,
//! no product clamps and no saturating add clamps, so the saturating
//! chain equals a wrapping chain bit for bit and the kernel may run the
//! cheaper [`Scalar::wrapping_mac`]. Otherwise it runs the chain.

use core::sync::atomic::{AtomicU64, Ordering};

use fixar_fixed::Scalar;

static CERTIFIED: AtomicU64 = AtomicU64::new(0);
static FALLBACK: AtomicU64 = AtomicU64::new(0);

/// Process-wide counts of certified and fallback kernel spans — the
/// saturation health of the hot path.
///
/// Every span of [`crate::WeightPack::gemv_batch`],
/// [`crate::WeightPack::gemv_t_batch`], [`crate::Matrix::gemv_batch`],
/// [`crate::Matrix::gemv_t_batch`] and [`crate::Matrix::add_outer_batch`]
/// (and of their `_par`/`_par_in` forms) over a scalar with an exact MAC
/// ([`Scalar::EXACT_MAC_FRAC_BITS`] is `Some`) adds one to exactly one
/// counter. A call on one worker is one span; a sharded call counts once
/// per shard. Float kernels are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMacStats {
    /// Spans whose certificate held: they ran the wrapping MAC loop.
    pub certified: u64,
    /// Spans whose certificate failed: they ran the saturating chain.
    pub fallback: u64,
}

/// Reads the process-wide [`ExactMacStats`] counters (relaxed loads; the
/// counters only grow).
pub fn exact_mac_stats() -> ExactMacStats {
    ExactMacStats {
        certified: CERTIFIED.load(Ordering::Relaxed),
        fallback: FALLBACK.load(Ordering::Relaxed),
    }
}

/// Counts one span's decision (nothing for formats without an exact MAC).
pub(crate) fn record<S: Scalar>(certified: bool) {
    if S::EXACT_MAC_FRAC_BITS.is_some() {
        let counter = if certified { &CERTIFIED } else { &FALLBACK };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// `true` when a reduction of `len` rounded products, with
/// `Σ|w| ≤ abs_sum` and `|x| ≤ x_max` (raw units), added onto an
/// accumulator of magnitude at most `acc_max`, provably never leaves the
/// `i32` raw range. Always `false` for formats without an exact MAC.
#[inline]
pub(crate) fn no_saturation<S: Scalar>(acc_max: u64, abs_sum: u64, x_max: u64, len: usize) -> bool {
    let Some(frac) = S::EXACT_MAC_FRAC_BITS else {
        return false;
    };
    let bound = acc_max
        .saturating_add(abs_sum.saturating_mul(x_max) >> frac)
        .saturating_add(len as u64)
        .saturating_add(2);
    bound < i32::MAX as u64
}

/// Largest raw magnitude in `xs` (0 for formats without an exact MAC).
#[inline]
pub(crate) fn max_raw_magnitude<S: Scalar>(xs: &[S]) -> u64 {
    if S::EXACT_MAC_FRAC_BITS.is_none() {
        return 0;
    }
    xs.iter().map(|x| x.raw_magnitude()).max().unwrap_or(0)
}

/// `Σ|x|` over raw magnitudes (0 for formats without an exact MAC).
/// Each term is at most 2^31, so the `u64` sum cannot overflow below
/// 2^32 terms.
#[inline]
pub(crate) fn raw_abs_sum<S: Scalar>(xs: impl Iterator<Item = S>) -> u64 {
    if S::EXACT_MAC_FRAC_BITS.is_none() {
        return 0;
    }
    xs.map(|x| x.raw_magnitude()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;

    #[test]
    fn certificate_admits_up_to_the_rail_and_refuses_past_it() {
        let limit = i32::MAX as u64;
        // (abs_sum · x_max) >> 20 == limit - len - 3: just admitted.
        let len = 400;
        let x_max = 1u64 << 20;
        let admitted = limit - len as u64 - 3;
        assert!(no_saturation::<Fx32>(0, admitted, x_max, len));
        assert!(!no_saturation::<Fx32>(0, admitted + 1, x_max, len));
        assert!(!no_saturation::<Fx32>(1, admitted, x_max, len));
        assert!(!no_saturation::<Fx32>(0, u64::MAX, u64::MAX, len));
        assert!(!no_saturation::<f32>(0, 0, 0, 1));
    }

    #[test]
    fn magnitudes_ignore_floats_and_handle_min() {
        assert_eq!(max_raw_magnitude(&[Fx32::MIN, Fx32::ONE]), 1 << 31);
        assert_eq!(raw_abs_sum([Fx32::MIN, Fx32::MIN].into_iter()), 1 << 32);
        assert_eq!(max_raw_magnitude(&[1.0e9f32]), 0);
    }
}
