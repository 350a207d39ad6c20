//! Bit-exact ports of the two libm functions the forward kernels evaluate:
//! `tanhf` (GELU) and `expf` (softmax).
//!
//! Each port reproduces one published algorithm operation for operation, so
//! its results do not depend on the host's libm:
//!
//! * [`tanh`] is fdlibm's `tanhf` over fdlibm's `expm1f` ([`expm1`]), the
//!   algorithm glibc ships for binary32 (`s_tanhf.c`, `s_expm1f.c`). Every
//!   step is one binary32 operation with its own rounding: no fused
//!   multiply-add, no wider intermediate.
//! * [`exp`] is glibc's table-driven `expf` (`e_expf.c`, from ARM's optimized
//!   routines): `N = 32` table entries, a binary64 reduction and a cubic
//!   polynomial. glibc's x86-64 build runs it as `__expf_fma`, so the port
//!   evaluates each `a·b + c` of the algorithm as one fused multiply-add, the
//!   two reduction steps `InvLn2N·x + SHIFT` and `InvLn2N·x − kd` included
//!   (unfused, x = 32.564632 and −63.09946 round differently).
//!
//! The AVX2 versions in [`x86`] evaluate the same operations on eight lanes
//! (every branch is computed and the lane's branch selected), so they return
//! the scalar port's bits for every input. The default test suite checks
//! this on a strided sweep plus every branch boundary; `#[ignore]`d sweeps
//! check all 2³² inputs against the scalar ports and the scalar ports
//! against the host libm.

/// Bits of a binary32 constant from the published sources.
#[inline(always)]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

// fdlibm `expm1f` constants (`s_expm1f.c`), as bit patterns.
const LN2_HI: u32 = 0x3f31_7180; // 6.9313812256e-01
const LN2_LO: u32 = 0x3717_f7d1; // 9.0580006145e-06
const INVLN2: u32 = 0x3fb8_aa3b; // 1.4426950216e+00
const O_THRESHOLD: u32 = 0x42b1_7180; // 8.8721679688e+01
const Q1: u32 = 0xbd08_8889; // -3.3333335072e-02
const Q2: u32 = 0x3ad0_0d01; // 1.5873016091e-03
const Q3: u32 = 0xb8a6_70cd; // -7.9365076090e-05
const Q4: u32 = 0x3686_7e54; // 4.0082177293e-06
const Q5: u32 = 0xb457_edbb; // -2.0109921195e-07
/// fdlibm's `huge`.
const HUGE: f32 = 1.0e30;

/// fdlibm `expm1f`: `eˣ − 1`.
pub(crate) fn expm1(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits >> 31 != 0;
    let hx = bits & 0x7fff_ffff;
    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln 2
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > f(O_THRESHOLD) {
                return HUGE * HUGE;
            }
        }
        if neg {
            return 1.0e-30 - 1.0;
        }
    }
    // Argument reduction: x = k·ln 2 + (hi − lo), c the rounding of hi − lo.
    let (k, x, c) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln 2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln 2
            if neg {
                (x + f(LN2_HI), -f(LN2_LO), -1)
            } else {
                (x - f(LN2_HI), f(LN2_LO), 1)
            }
        } else {
            let k = (f(INVLN2) * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * f(LN2_HI), t * f(LN2_LO), k)
        };
        let xr = hi - lo;
        (k, xr, (hi - xr) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: x itself.
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (0, x, 0.0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (f(Q1) + hxs * (f(Q2) + hxs * (f(Q3) + hxs * (f(Q4) + hxs * f(Q5)))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    let add_k = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        let y = 1.0 - (e - x);
        let y = if k == 128 {
            y * 2.0 * f(0x7f00_0000)
        } else {
            add_k(y)
        };
        return y - 1.0;
    }
    if k < 23 {
        // t = 1 − 2⁻ᵏ
        let t = f(0x3f80_0000 - (0x0100_0000 >> k));
        add_k(t - (e - x))
    } else {
        // t = 2⁻ᵏ
        let t = f(((0x7f - k) << 23) as u32);
        add_k(x - (e + t) + 1.0)
    }
}

/// fdlibm `tanhf`.
pub(crate) fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // ±inf → ±1, NaN → NaN.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2⁻⁵⁵
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - 1.0e-30
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

// glibc `expf` data (`e_exp2f_data.c`, `N = 1 << EXP2F_TABLE_BITS = 32`).
const EXP_TABLE_BITS: u32 = 5;
/// `T[i] = bits(2^(i/32)) − (i << 47)`, so `T[k % 32] + (k << 47)` is the
/// bit pattern of `2^(k/32)`.
const EXP_T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `0x1.71547652b82fep0 · N`.
const EXP_INVLN2N: u64 = 0x4047_1547_652b_82fe;
/// `0x1.8p52`: adding it rounds a binary64 to an integer in its low bits.
const EXP_SHIFT: u64 = 0x4338_0000_0000_0000;
/// The polynomial `0x1.c6af84b912394p-5/N³`, `0x1.ebfce50fac4f3p-3/N²`,
/// `0x1.62e42ff0c52d6p-1/N`.
const EXP_C: [u64; 3] = [
    0x3ebc_6af8_4b91_2394,
    0x3f2e_bfce_50fa_c4f3,
    0x3f96_2e42_ff0c_52d6,
];
/// `x > 0x1.62e42ep6` (≈ 88.72) overflows to `+inf`.
const EXP_OFLOW: u32 = 0x42b1_7217;
/// `x < -0x1.9fe368p6` (≈ −103.97) underflows to `+0`.
const EXP_UFLOW: u32 = 0xc2cf_f1b4;
/// `x < -0x1.9d1d9ep6` (≈ −103.28) returns the smallest subnormal (glibc's
/// `__math_may_uflowf`, `0x1.4p-75f²`).
const EXP_MAY_UFLOW: u32 = 0xc2ce_8ecf;

/// glibc `expf`: `eˣ`.
pub(crate) fn exp(x: f32) -> f32 {
    let bits = x.to_bits();
    if (bits >> 20) & 0x7ff >= 0x42b {
        // |x| >= 88 or NaN.
        if bits == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if (bits >> 20) & 0x7ff >= 0x7f8 {
            return x + x;
        }
        if x > f(EXP_OFLOW) {
            return f32::INFINITY;
        }
        if x < f(EXP_UFLOW) {
            return 0.0;
        }
        if x < f(EXP_MAY_UFLOW) {
            return f32::from_bits(1);
        }
    }
    let d = f64::from_bits;
    let xd = x as f64;
    let kd = d(EXP_INVLN2N).mul_add(xd, d(EXP_SHIFT));
    let ki = kd.to_bits();
    let kd = kd - d(EXP_SHIFT);
    let r = d(EXP_INVLN2N).mul_add(xd, -kd);
    let t = EXP_T[(ki % (1 << EXP_TABLE_BITS)) as usize].wrapping_add(ki << (52 - EXP_TABLE_BITS));
    let s = d(t);
    let z = d(EXP_C[0]).mul_add(r, d(EXP_C[1]));
    let r2 = r * r;
    let y = d(EXP_C[2]).mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Eight-lane AVX2 versions of the ports.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Eight lanes of the binary32 with these bits.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn splat(bits: u32) -> __m256 {
        _mm256_castsi256_ps(_mm256_set1_epi32(bits as i32))
    }

    /// Lanes of `a` where `mask` is set, else lanes of `b`.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn pick(mask: __m256i, a: __m256, b: __m256) -> __m256 {
        _mm256_blendv_ps(b, a, _mm256_castsi256_ps(mask))
    }

    /// [`super::expm1`] on eight lanes whose arguments are the ones
    /// [`tanh8`] passes: `−2 < x <= 0` or `2 <= x < 88.72`, where the
    /// reduction's `k` is never `1`. Other lanes return unspecified values.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn expm1_8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let bits = _mm256_castps_si256(x);
        let sign = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MIN));
        let hx = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MAX));
        let hx_gt = |c: u32| _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(c as i32));
        // k: 0 for |x| <= 0.5·ln 2, ±1 below 1.5·ln 2, else the rounded
        // quotient. With k = ±1 (or 0) the general reduction below performs
        // exactly the special-cased operations of the scalar port.
        let half_signed = _mm256_or_ps(half, _mm256_castsi256_ps(sign));
        let k_gen =
            _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(splat(INVLN2), x), half_signed));
        let k_one = _mm256_or_si256(_mm256_srai_epi32(sign, 31), _mm256_set1_epi32(1));
        let k = _mm256_blendv_epi8(
            k_gen,
            k_one,
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f85_1592), hx),
        );
        let k = _mm256_and_si256(k, hx_gt(0x3eb1_7218));
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(x, _mm256_mul_ps(t, splat(LN2_HI)));
        let lo = _mm256_mul_ps(t, splat(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        let hfx = _mm256_mul_ps(half, xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut p = _mm256_mul_ps(hxs, splat(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            p = _mm256_mul_ps(hxs, _mm256_add_ps(splat(q), p));
        }
        let r1 = _mm256_add_ps(one, p);
        let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
        let den = _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(xr, t));
        let e = _mm256_mul_ps(hxs, _mm256_div_ps(_mm256_sub_ps(r1, t), den));
        let r_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));

        let e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
        let e = _mm256_sub_ps(e, hxs);
        let r_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
        let k23 = _mm256_slli_epi32(k, 23);
        let add_k = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k23));
        let r_far = _mm256_sub_ps(add_k(_mm256_sub_ps(one, _mm256_sub_ps(e, xr))), one);
        let t_lt23 = _mm256_castsi256_ps(_mm256_sub_epi32(
            _mm256_set1_epi32(0x3f80_0000),
            _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
        ));
        let r_lt23 = add_k(_mm256_sub_ps(t_lt23, _mm256_sub_ps(e, xr)));
        let t_ge23 = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k),
            23,
        ));
        let r_ge23 = add_k(_mm256_add_ps(
            _mm256_sub_ps(xr, _mm256_add_ps(e, t_ge23)),
            one,
        ));

        let k_eq = |v: i32| _mm256_cmpeq_epi32(k, _mm256_set1_epi32(v));
        let k_gt = |v: i32| _mm256_cmpgt_epi32(k, _mm256_set1_epi32(v));
        let mid = pick(k_gt(22), r_ge23, r_lt23);
        let far = _mm256_or_si256(k_gt(56), _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k));
        let mut r = pick(far, r_far, mid);
        r = pick(k_eq(-1), r_km1, r);
        r = pick(k_eq(0), r_k0, r);
        // |x| < 2⁻²⁵: x itself.
        pick(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x3300_0000), hx), x, r)
    }

    /// [`super::tanh`] on eight lanes (every input, NaN payloads included).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let bits = _mm256_castps_si256(x);
        let sign = _mm256_castsi256_ps(_mm256_and_si256(bits, _mm256_set1_epi32(i32::MIN)));
        let ix = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MAX));
        let ax = _mm256_castsi256_ps(ix);
        // |x| >= 1: t = expm1(2|x|), z = 1 − 2/(t + 2);
        // |x| <  1: t = expm1(−2|x|), z = −(t/(t + 2)).
        let big = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7f_ffff));
        let y = _mm256_mul_ps(
            _mm256_or_ps(
                two,
                _mm256_andnot_ps(_mm256_castsi256_ps(big), splat(0x8000_0000)),
            ),
            ax,
        );
        let t = expm1_8(y);
        let q = _mm256_div_ps(pick(big, two, t), _mm256_add_ps(t, two));
        let z = pick(
            big,
            _mm256_sub_ps(one, q),
            _mm256_xor_ps(q, splat(0x8000_0000)),
        );
        // |x| >= 22 (and ±inf): 1 − 1e-30 rounds to 1.
        let z = pick(
            _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41af_ffff)),
            one,
            z,
        );
        let z = _mm256_xor_ps(z, sign);
        // |x| < 2⁻⁵⁵ (±0 included): x·(1 + x).
        let tiny = _mm256_mul_ps(x, _mm256_add_ps(one, x));
        let z = pick(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x2400_0000), ix),
            tiny,
            z,
        );
        // NaN: the quieted input, as 1/x ± 1 returns it.
        _mm256_blendv_ps(z, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    /// [`super::exp`]'s binary64 core on four lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline(always)]
    unsafe fn exp4(x: __m128) -> __m128 {
        let dsplat = |b: u64| _mm256_castsi256_pd(_mm256_set1_epi64x(b as i64));
        let xd = _mm256_cvtps_pd(x);
        let kd = _mm256_fmadd_pd(dsplat(EXP_INVLN2N), xd, dsplat(EXP_SHIFT));
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, dsplat(EXP_SHIFT));
        let r = _mm256_fmsub_pd(dsplat(EXP_INVLN2N), xd, kd);
        // Masked to 0..32, so the gather stays inside the table for any
        // input, NaN and infinities included.
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x((1 << EXP_TABLE_BITS) - 1));
        let t = _mm256_i64gather_epi64::<8>(EXP_T.as_ptr() as *const i64, idx);
        let t = _mm256_add_epi64(t, _mm256_slli_epi64::<{ 52 - EXP_TABLE_BITS as i32 }>(ki));
        let s = _mm256_castsi256_pd(t);
        let z = _mm256_fmadd_pd(dsplat(EXP_C[0]), r, dsplat(EXP_C[1]));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(dsplat(EXP_C[2]), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// [`super::exp`] on eight lanes (every input, NaN payloads included).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        let r = _mm256_set_m128(hi, lo);
        let lt = |b: u32| _mm256_cmp_ps::<_CMP_LT_OQ>(x, splat(b));
        let r = _mm256_blendv_ps(r, splat(1), lt(EXP_MAY_UFLOW));
        let r = _mm256_blendv_ps(r, _mm256_setzero_ps(), lt(EXP_UFLOW));
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, splat(EXP_OFLOW));
        let r = _mm256_blendv_ps(r, _mm256_set1_ps(f32::INFINITY), over);
        _mm256_blendv_ps(r, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::RotomPool;

    /// Finite and non-finite inputs at every branch boundary of the ports
    /// (each with its neighbours one ulp either side, in both signs).
    fn boundary_inputs() -> Vec<f32> {
        let mut bits: Vec<u32> = vec![
            0x2400_0000, // tanh: |x| < 2⁻⁵⁵ returns x·(1 + x)
            0x3f80_0000, // tanh: |x| >= 1 switches the expm1 argument sign
            0x41b0_0000, // tanh: |x| >= 22 returns ±1
            0x3300_0000, // expm1: |x| < 2⁻²⁵ returns x
            0x3eb1_7218, // expm1: k = 0 below 0.5·ln 2
            0x3f85_1592, // expm1: k = ±1 below 1.5·ln 2
            0x4195_b844, // expm1: 27·ln 2
            0x42b0_0000, // exp: |x| >= 88 takes the special-case checks
            EXP_OFLOW,   // exp: overflow above ≈ 88.72
            0x42b1_7218, // expm1: overflow checks
            EXP_UFLOW & 0x7fff_ffff,
            EXP_MAY_UFLOW & 0x7fff_ffff,
            0x0000_0000, // ±0
            0x0000_0001, // smallest subnormal
            0x7f7f_ffff, // largest finite
            0x7f80_0000, // ±inf
            0x7fc0_0000, // quiet NaN
            0x7f80_0001, // signalling NaN
            0x7fff_ffff, // NaN, full payload
        ];
        // Both reduction ties of expf's table index and a sweep of k for
        // expm1's exponent arithmetic (k = 2..=64).
        bits.extend((2..=64).map(|k| (k as f32 * std::f32::consts::LN_2).to_bits()));
        let mut out = Vec::new();
        for b in bits {
            for d in [-1i64, 0, 1] {
                let b = (b as i64 + d).clamp(0, 0x7fff_ffff) as u32;
                out.push(f32::from_bits(b));
                out.push(f32::from_bits(b | 0x8000_0000));
            }
        }
        out.extend([32.564_632f32, -63.099_46]);
        out
    }

    /// Eight consecutive inputs through a function under test.
    type Batch<'a> = &'a (dyn Fn([f32; 8]) -> [f32; 8] + Sync);
    /// The reference, one input at a time.
    type Reference<'a> = &'a (dyn Fn(f32) -> f32 + Sync);

    /// A scalar function as a [`Batch`].
    fn each(f: fn(f32) -> f32) -> impl Fn([f32; 8]) -> [f32; 8] + Sync {
        move |x| x.map(f)
    }

    /// Compare `got` with `want` bit for bit on the eight patterns starting
    /// at `b`; the mismatches as `(bits, got, want)`.
    fn compare8<'a>(
        b: u64,
        got: Batch,
        want: Reference<'a>,
    ) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
        let x: [f32; 8] = std::array::from_fn(|i| f32::from_bits((b + i as u64) as u32));
        let g = got(x);
        (0..8).filter_map(move |i| {
            let (g, w) = (g[i].to_bits(), want(x[i]).to_bits());
            (g != w).then_some((x[i].to_bits(), g, w))
        })
    }

    /// The first mismatch over `lo..hi` in blocks of eight starting every
    /// `step` patterns.
    fn first_mismatch(
        lo: u64,
        hi: u64,
        step: u64,
        got: Batch,
        want: Reference,
    ) -> Option<(u32, u32, u32)> {
        (lo..hi - 8)
            .step_by(step as usize)
            .find_map(|b| compare8(b, got, want).next())
    }

    /// Every one of the 2³² bit patterns, fanned over the global pool in
    /// 2²⁴-pattern chunks; the number of mismatches and the first one.
    fn exhaustive(got: Batch, want: Reference) -> (u64, Option<(u32, u32, u32)>) {
        const CHUNK: u64 = 1 << 24;
        let per_chunk = RotomPool::global().map(1 << 8, |c| {
            let lo = c as u64 * CHUNK;
            let mut count = 0u64;
            let mut first = None;
            for b in (lo..lo + CHUNK).step_by(8) {
                for m in compare8(b, got, want) {
                    count += 1;
                    first.get_or_insert(m);
                }
            }
            (count, first)
        });
        let count = per_chunk.iter().map(|(c, _)| c).sum();
        (count, per_chunk.iter().find_map(|(_, f)| *f))
    }

    #[cfg(target_arch = "x86_64")]
    fn simd_available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }

    /// Eight inputs through an eight-lane port.
    #[cfg(target_arch = "x86_64")]
    fn simd(
        v8: unsafe fn(core::arch::x86_64::__m256) -> core::arch::x86_64::__m256,
    ) -> impl Fn([f32; 8]) -> [f32; 8] + Sync {
        use core::arch::x86_64::*;
        move |x| {
            let mut out = [0.0f32; 8];
            // SAFETY: callers check `simd_available()` first.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v8(_mm256_loadu_ps(x.as_ptr()))) };
            out
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_matches_scalar_port_on_boundaries_and_a_strided_sweep() {
        if !simd_available() {
            return;
        }
        let (tanh8, exp8) = (simd(x86::tanh8), simd(x86::exp8));
        // Each boundary sits in lane 0 of a vector of its upward neighbours.
        for x in boundary_inputs() {
            let b = x.to_bits() as u64;
            let tanh_miss: Vec<_> = compare8(b, &tanh8, &tanh).collect();
            assert_eq!(tanh_miss, [], "tanh near {x:e}: (bits, simd, scalar)");
            let exp_miss: Vec<_> = compare8(b, &exp8, &exp).collect();
            assert_eq!(exp_miss, [], "exp near {x:e}: (bits, simd, scalar)");
        }
        // A prime stride visits every exponent and a spread of mantissas.
        let hi = 1u64 << 32;
        let tanh_miss = first_mismatch(0, hi, 4099, &tanh8, &tanh);
        assert_eq!(tanh_miss, None, "tanh (bits, simd, scalar)");
        let exp_miss = first_mismatch(0, hi, 4099, &exp8, &exp);
        assert_eq!(exp_miss, None, "exp (bits, simd, scalar)");
    }

    #[test]
    fn ports_hit_the_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(30.0), 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(89.0), f32::INFINITY);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(-103.5).to_bits(), 1);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(expm1(0.0), 0.0);
        assert_eq!(expm1(f32::NEG_INFINITY), -1.0);
        for x in [-20.0f32, -3.0, -0.7, -0.1, 0.1, 0.7, 3.0, 20.0] {
            assert!(
                (tanh(x) as f64 - (x as f64).tanh()).abs() < 1e-6,
                "tanh({x})"
            );
            assert!(
                (expm1(x) as f64 / (x as f64).exp_m1() - 1.0).abs() < 1e-6,
                "expm1({x})"
            );
            assert!(
                (exp(x) as f64 / (x as f64).exp() - 1.0).abs() < 1e-6,
                "exp({x})"
            );
        }
    }

    /// The exhaustive SIMD-vs-scalar sweep over all 2³² inputs (about a
    /// minute per function on two cores in a release build):
    /// `cargo test --release -p rotom-nn vmath -- --ignored`
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run in release"]
    #[cfg(target_arch = "x86_64")]
    fn simd_matches_scalar_port_on_every_input() {
        if !simd_available() {
            return;
        }
        assert_eq!(exhaustive(&simd(x86::tanh8), &tanh), (0, None), "tanh");
        assert_eq!(exhaustive(&simd(x86::exp8), &exp), (0, None), "exp");
    }

    /// The scalar ports against the host's libm on all 2³² inputs. This
    /// holds where libm is glibc's binary32 `tanhf`/`expm1f` and its FMA
    /// `expf` (x86-64 glibc with AVX2/FMA); elsewhere it measures how far the
    /// host libm is from the port.
    #[test]
    #[ignore = "host-specific exhaustive libm comparison; run in release"]
    fn scalar_ports_match_host_libm_on_every_input() {
        let (n, first) = exhaustive(&each(expm1), &f32::exp_m1);
        println!("expm1: {n} mismatches, first {first:x?}");
        let (t, first_t) = exhaustive(&each(tanh), &f32::tanh);
        println!("tanh: {t} mismatches, first {first_t:x?}");
        let (e, first_e) = exhaustive(&each(exp), &f32::exp);
        println!("exp: {e} mismatches, first {first_e:x?}");
        assert_eq!((n, t, e), (0, 0, 0));
    }
}
