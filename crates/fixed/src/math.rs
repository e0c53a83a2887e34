//! Integer-only math kernels shared by the fixed-point scalar types.
//!
//! These mirror how an FPGA activation unit evaluates nonlinear functions:
//! the lookup tables below are the ROM contents (computed offline in full
//! precision, stored here as Q2.30 integer constants) and everything at
//! runtime — indexing, interpolation, shifts — is integer arithmetic.
//!
//! The two exceptions are crate-private and serve only the training-side
//! scalar types: the square root and the division behind `Q32::sqrt` and
//! `Q32::saturating_div`. Up to 2^52 their operands are exact in `f64`,
//! so an `f64` estimate plus one exact integer correction yields the
//! same integer as the integer-only algorithm, faster; above that they
//! run the integer algorithm. Nothing public here touches a float.
//!
//! The module is public so that integer-only consumers (most notably the
//! `fixar-deploy` artifact interpreter, which must evaluate a frozen
//! policy without touching `f32`/`f64`) can call the raw kernels directly
//! on two's-complement words instead of going through a scalar type.

/// `tanh(i * 4/64)` for `i = 0..=64`, in Q2.30.
///
/// 64 piecewise-linear segments over `[0, 4]`; beyond 4 the function is
/// saturated to ±1, where `tanh` is within 7e-4 of its asymptote.
///
/// Public so `fixar-deploy`'s codegen can embed the exact ROM contents
/// in emitted firmware source instead of duplicating the constants.
pub const TANH_Q30: [i64; 65] = [
    0, 67021619, 133523019, 199000008, 262979411, 325032097, 384783327, 441919982, 496194519,
    547425766, 595496917, 640351229, 681985995, 720445410, 755812887, 788203292, 817755498,
    844625518, 868980407, 890993016, 910837623, 928686409, 944706725, 959059047, 971895537,
    983359117, 993582944, 1002690226, 1010794288, 1017998824, 1024398298, 1030078428, 1035116732,
    1039583108, 1043540415, 1047045057, 1050147544, 1052893030, 1055321814, 1057469822, 1059369036,
    1061047900, 1062531689, 1063842843, 1065001270, 1066024621, 1066928539, 1067726879, 1068431906,
    1069054476, 1069604193, 1070089550, 1070518060, 1070896360, 1071230320, 1071525125, 1071785356,
    1072015063, 1072217818, 1072396782, 1072554741, 1072694159, 1072817210, 1072925813, 1073021665,
];

/// `2^(i/32)` for `i = 0..=32`, in Q2.30.
const POW2_Q30: [i64; 33] = [
    1073741824, 1097253708, 1121280436, 1145833280, 1170923762, 1196563654, 1222764986, 1249540052,
    1276901417, 1304861917, 1333434672, 1362633090, 1392470869, 1422962010, 1454120821, 1485961921,
    1518500250, 1551751076, 1585730000, 1620452965, 1655936265, 1692196547, 1729250827, 1767116489,
    1805811301, 1845353420, 1885761398, 1927054196, 1969251188, 2012372174, 2056437387, 2101467502,
    2147483648,
];

/// `log2(e)` in Q2.30.
const LOG2E_Q30: i64 = 1549082005;

const Q30: u32 = 30;

/// Rescale a Q2.30 value to a Q`frac` value with round-to-nearest.
#[inline]
fn q30_to_frac(v: i64, frac: u32) -> i64 {
    debug_assert!(frac <= Q30);
    let shift = Q30 - frac;
    if shift == 0 {
        v
    } else {
        (v + (1i64 << (shift - 1))) >> shift
    }
}

/// Hyperbolic tangent of a fixed-point value with `frac` fractional bits,
/// evaluated over a 64-segment piecewise-linear ROM (integer datapath).
///
/// Input and output are raw fixed-point integers sharing the same format.
/// The result always lies in `[-2^frac, 2^frac]` (i.e. `[-1.0, 1.0]`).
///
/// # Panics
///
/// Debug-asserts `frac` in `4..=30` (the segment width must be a whole
/// number of raw units).
pub fn tanh_raw(raw: i64, frac: u32) -> i64 {
    debug_assert!(
        (4..=Q30).contains(&frac),
        "tanh_raw requires 4..=30 fractional bits"
    );
    let one = 1i64 << frac;
    let xmax = 4 * one;
    let ax = raw.abs();
    let y = if ax >= xmax {
        one
    } else {
        // Segment width is xmax/64 = 2^(frac-4) raw units, so index and
        // remainder extraction are pure shifts/masks, as in hardware.
        let seg_shift = frac - 4;
        let idx = (ax >> seg_shift) as usize;
        let rem = ax & ((1i64 << seg_shift) - 1);
        let y0 = q30_to_frac(TANH_Q30[idx], frac);
        let y1 = q30_to_frac(TANH_Q30[idx + 1], frac);
        y0 + (((y1 - y0) * rem) >> seg_shift)
    };
    if raw < 0 {
        -y
    } else {
        y
    }
}

/// `e^x` for a fixed-point value with `frac` fractional bits.
///
/// Uses the classic range reduction `e^x = 2^(x·log2 e)`, splitting the
/// product into integer and fractional parts; the fractional power of two
/// comes from a 32-segment piecewise-linear ROM. Returns `i64::MAX` on
/// overflow (callers saturate).
pub(crate) fn exp_raw(raw: i64, frac: u32) -> i64 {
    debug_assert!((5..=Q30).contains(&frac));
    // t = x * log2(e), still with `frac` fractional bits.
    let t = (raw.saturating_mul(LOG2E_Q30)) >> Q30;
    let k = t >> frac; // floor of t: integer exponent
    let r = t - (k << frac); // fractional part in [0, 2^frac)
                             // 2^r via the POW2 ROM: 32 segments over [0, 1).
    let seg_shift = frac - 5;
    let idx = (r >> seg_shift) as usize;
    let rem = r & ((1i64 << seg_shift) - 1);
    let y0 = POW2_Q30[idx];
    let y1 = POW2_Q30[idx + 1];
    let frac_pow = y0 + (((y1 - y0) * rem) >> seg_shift); // Q2.30 in [1, 2]
                                                          // result = frac_pow * 2^k, rescaled from Q30 to `frac`.
    let shift = Q30 as i64 - frac as i64 - k;
    if shift <= 0 {
        let up = (-shift) as u32;
        if up >= 33 || frac_pow > (i64::MAX >> up) {
            return i64::MAX;
        }
        frac_pow << up
    } else if shift >= 63 {
        0
    } else {
        (frac_pow + (1i64 << (shift - 1))) >> shift
    }
}

/// Largest magnitude up to which every integer operand of the `f64`
/// paths of [`isqrt_u64`] and [`div_raw`] is exact in `f64` (53-bit
/// mantissa), with a bit to spare for [`round_f64`].
const F64_EXACT: u64 = 1 << 52;

/// Largest shift for which every `i32` raw value shifted left by it stays
/// within [`F64_EXACT`] in magnitude (`2^31 · 2^21 = 2^52`). Formats with
/// at most this many fractional bits take the `f64` paths unconditionally
/// — a check the compiler folds away for a constant `frac`, which leaves
/// the paths branch-free so loops over them (the Adam update) vectorize.
const F64_EXACT_FRAC: u32 = 21;

/// Rounds `x ∈ [0, 2^52]` to the nearest integer: adding 2^52 leaves the
/// sum in `[2^52, 2^53]`, where the `f64` spacing is 1, so the sum is
/// rounded to nearest and its bit pattern minus that of 2^52 is the
/// integer. Unlike an `as` cast this needs no saturation checks.
#[inline]
fn round_f64(x: f64) -> i64 {
    const BIAS: f64 = F64_EXACT as f64;
    (x + BIAS).to_bits().wrapping_sub(BIAS.to_bits()) as i64
}

/// Integer square root `⌊√v⌋` of a `u64`: [`isqrt_f64`] up to 2^52,
/// [`isqrt_newton`] above. Both return the same integer.
#[inline]
pub(crate) fn isqrt_u64(v: u64) -> u64 {
    if v <= F64_EXACT {
        isqrt_f64(v as i64) as u64
    } else {
        isqrt_newton(v)
    }
}

/// `⌊√v⌋` for `0 ≤ v ≤ 2^52`.
///
/// Let `k = ⌊√v⌋`, so `k ≤ √v < k + 1`. `v` is exact in `f64`, and a
/// correctly rounded operation never crosses a representable value, so
/// `k ≤ fl(√v) ≤ k + 1` and, rounding once more, `r ∈ {k, k + 1}`. One
/// exact integer comparison picks between them.
#[inline]
fn isqrt_f64(v: i64) -> i64 {
    let r = round_f64((v as f64).sqrt());
    // r ≤ 2^26, so r² cannot overflow.
    r - (r * r > v) as i64
}

/// Integer square root by Newton's method seeded from the bit length
/// (integer-only; converges in a handful of iterations). Exact over all
/// of `u64`.
pub(crate) fn isqrt_newton(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let bits = 64 - v.leading_zeros();
    let mut x = 1u64 << bits.div_ceil(2);
    loop {
        let next = (x + v / x) >> 1;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// `(raw << frac) / d` truncated toward zero, for `i32` values `raw` and
/// `d != 0` — the same integer as Rust's `i64` division.
///
/// When the numerator is at most 2^52 in magnitude (always, for
/// `frac ≤ 21`) [`div_f64`] computes it; larger numerators run the `i64`
/// divide.
#[inline]
pub(crate) fn div_raw(raw: i64, d: i64, frac: u32) -> i64 {
    let n = raw << frac;
    if frac <= F64_EXACT_FRAC || n.unsigned_abs() <= F64_EXACT {
        div_f64(n, d)
    } else {
        n / d
    }
}

/// `n / d` truncated toward zero, for `|n| ≤ 2^52` and an `i32` `d != 0`.
///
/// Let `k = ⌊|n|/|d|⌋`, so `k ≤ |n|/|d| < k + 1`. Both magnitudes are
/// exact in `f64`, and correctly rounded operations never cross the
/// representable `k` and `k + 1`, so the estimate `q` is `k` or `k + 1`;
/// a negative exact remainder `|n| − q·|d|` marks `k + 1`. The body is
/// branch-free.
#[inline]
fn div_f64(n: i64, d: i64) -> i64 {
    let (nu, du) = (n.abs(), d.abs());
    let q = round_f64(nu as f64 / du as f64);
    // q ≤ k + 1, so q·|d| ≤ |n| + |d| < 2^63.
    let q = q - (nu - q * du < 0) as i64;
    if (n ^ d) < 0 {
        -q
    } else {
        q
    }
}

/// Fixed-point square root: `sqrt(raw / 2^frac) * 2^frac` for an `i32`
/// `raw`; negative inputs give 0.
///
/// `sqrt(v)` in format Qf is `isqrt(raw << frac)` because
/// `sqrt(raw/2^f)·2^f = sqrt(raw·2^f)`.
#[inline]
pub(crate) fn sqrt_raw(raw: i64, frac: u32) -> i64 {
    let v = raw.max(0) << frac;
    if frac <= F64_EXACT_FRAC {
        isqrt_f64(v)
    } else {
        isqrt_u64(v as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_tanh(frac: u32, x: f64) -> f64 {
        let raw = (x * (1i64 << frac) as f64).round() as i64;
        let got = tanh_raw(raw, frac) as f64 / (1i64 << frac) as f64;
        (got - x.tanh()).abs()
    }

    #[test]
    fn tanh_matches_reference_within_pwl_error() {
        for i in -100..=100 {
            let x = i as f64 * 0.06;
            assert!(err_tanh(20, x) < 2e-3, "x={x} err={}", err_tanh(20, x));
        }
    }

    #[test]
    fn tanh_saturates_to_one() {
        assert_eq!(tanh_raw(100 << 20, 20), 1 << 20);
        assert_eq!(tanh_raw(-(100i64 << 20), 20), -(1i64 << 20));
    }

    #[test]
    fn tanh_is_odd() {
        for i in 0..200 {
            let raw = i * 12345;
            assert_eq!(tanh_raw(raw, 20), -tanh_raw(-raw, 20));
        }
    }

    #[test]
    fn exp_matches_reference() {
        for i in -40..=40 {
            let x = i as f64 * 0.25;
            let raw = (x * (1i64 << 20) as f64).round() as i64;
            let got = exp_raw(raw, 20) as f64 / (1i64 << 20) as f64;
            let want = x.exp();
            // PWL interpolation error is relative; output-grid rounding adds
            // up to one ulp of absolute error for tiny results.
            let ulp = 1.0 / (1i64 << 20) as f64;
            let err = (got - want).abs();
            assert!(err < 5e-3 * want + ulp, "x={x} got={got} want={want}");
        }
    }

    #[test]
    fn exp_overflow_saturates() {
        assert_eq!(exp_raw(1000 << 20, 20), i64::MAX);
    }

    /// Today's `i64` division, the oracle of [`div_raw`] and [`div_f64`].
    fn div_oracle(n: i64, d: i64) -> i64 {
        n / d
    }

    #[test]
    fn isqrt_matches_newton_at_the_edges() {
        let mut cases = vec![
            0u64,
            1,
            2,
            3,
            4,
            u64::MAX,
            F64_EXACT - 1,
            F64_EXACT,
            F64_EXACT + 1,
        ];
        // Perfect squares and their neighbours on both sides of 2^52,
        // where the f64 estimate is most likely to round up to k.
        for k in [
            2u64,
            3,
            1 << 13,
            (1 << 26) - 3,
            (1 << 26) - 1,
            1 << 26,
            (1 << 26) + 1,
            1 << 31,
            (1 << 32) - 1,
        ] {
            let sq = k * k;
            cases.extend([sq - 1, sq, sq + 1]);
        }
        for v in cases {
            assert_eq!(isqrt_u64(v), isqrt_newton(v), "v={v}");
        }
    }

    #[test]
    fn isqrt_matches_newton_on_a_dense_sweep() {
        for v in 0u64..200_000 {
            assert_eq!(isqrt_u64(v), isqrt_newton(v), "v={v}");
        }
        // Raw Q12.20 second moments: v = raw << 20 across the i32 range.
        for raw in (0..=i32::MAX as u64).step_by(65_537) {
            let v = raw << 20;
            assert_eq!(isqrt_u64(v), isqrt_newton(v), "raw={raw}");
        }
    }

    #[test]
    fn div_f64_matches_i64_division_at_the_edges() {
        let big = F64_EXACT as i64;
        let nums = [
            0,
            1,
            -1,
            7,
            -7,
            (i32::MAX as i64) << 20,
            (i32::MIN as i64) << 20,
            (i32::MAX as i64) << 21,
            (i32::MIN as i64) << 21,
            big - 1,
            -(big - 1),
            big,
            -big,
        ];
        let dens = [
            1,
            -1,
            2,
            -2,
            3,
            -3,
            7,
            i32::MAX as i64,
            i32::MIN as i64,
            1 << 20,
            -(1 << 20) + 1,
        ];
        for &n in &nums {
            for &d in &dens {
                assert_eq!(div_f64(n, d), div_oracle(n, d), "{n} / {d}");
            }
        }
    }

    #[test]
    fn div_raw_matches_i64_division_on_both_sides_of_2_52() {
        let raws = [
            0,
            1,
            -1,
            i32::MAX,
            i32::MIN,
            i32::MAX - 1,
            i32::MIN + 1,
            1 << 24,
            -(1 << 24) - 1,
        ];
        let dens = [1, -1, 2, -3, i32::MAX, i32::MIN, 105, -(1 << 20)];
        // frac ≤ 21 always takes the f64 path; 28 and 30 put large
        // numerators past 2^52 onto the i64 divide.
        for frac in [0, 16, 20, 21, 22, 28, 30] {
            for &raw in &raws {
                for &d in &dens {
                    let (raw, d) = (raw as i64, d as i64);
                    assert_eq!(
                        div_raw(raw, d, frac),
                        div_oracle(raw << frac, d),
                        "({raw} << {frac}) / {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn div_f64_matches_i64_division_near_integer_quotients() {
        // Numerators one below, at and one above a multiple of the
        // divisor: where a rounded f64 quotient can cross an integer.
        for d in [3i64, 7, 1000, 999_983, (1 << 31) - 1] {
            for q in [1i64, 12_345, (1 << 52) / d - 1] {
                for n in [q * d - 1, q * d, q * d + 1] {
                    assert_eq!(div_f64(n, d), div_oracle(n, d), "{n} / {d}");
                    assert_eq!(div_f64(-n, d), div_oracle(-n, d), "-{n} / {d}");
                    assert_eq!(div_f64(n, -d), div_oracle(n, -d), "{n} / -{d}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn isqrt_matches_newton(v in proptest::prelude::any::<u64>(), shift in 0u32..64) {
            let v = v >> shift;
            proptest::prop_assert_eq!(isqrt_u64(v), isqrt_newton(v));
        }

        #[test]
        fn div_raw_matches_i64_division(
            raw in proptest::prelude::any::<i32>(),
            d in proptest::prelude::any::<i32>(),
            frac in 0u32..31,
        ) {
            let (raw, d) = (raw as i64, if d == 0 { 1 } else { d as i64 });
            proptest::prop_assert_eq!(div_raw(raw, d, frac), div_oracle(raw << frac, d));
        }
    }

    #[test]
    fn isqrt_exact_squares() {
        for v in 0u64..2000 {
            assert_eq!(isqrt_u64(v * v), v);
        }
        assert_eq!(isqrt_u64(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn isqrt_floor_property() {
        for v in [2u64, 3, 5, 8, 15, 24, 99, 10_000_000_019] {
            let r = isqrt_u64(v);
            assert!(r * r <= v);
            assert!((r + 1).checked_mul(r + 1).map(|s| s > v).unwrap_or(true));
        }
    }

    #[test]
    fn sqrt_raw_matches_reference() {
        for i in 0..500 {
            let x = i as f64 * 0.37;
            let raw = (x * (1i64 << 20) as f64).round() as i64;
            let got = sqrt_raw(raw, 20) as f64 / (1i64 << 20) as f64;
            assert!((got - x.sqrt()).abs() < 2e-5, "x={x}");
        }
    }

    #[test]
    fn sqrt_of_negative_clamps_to_zero() {
        assert_eq!(sqrt_raw(-5, 20), 0);
    }
}
