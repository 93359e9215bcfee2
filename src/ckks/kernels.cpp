#include "src/ckks/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ORION_SIMD_X86 1
#include <immintrin.h>
#else
#define ORION_SIMD_X86 0
#endif

namespace orion::ckks::kernels {

// =====================================================================
// Scalar reference kernels
//
// These are the PR-2 lazy-reduction loops, moved here verbatim from
// ntt.cpp / poly.cpp / keyswitch.cpp. They are the correctness oracle:
// every vector kernel below must produce bit-identical output
// (tests/test_kernels_simd.cpp enforces it on adversarial inputs).
// =====================================================================

namespace scalar {

void
ntt_forward(const NttView& v, u64* a)
{
    // Cooley-Tukey, decimation in time, with merged psi twiddles. After the
    // pass with span t, block b holds the residues mod (X^t - roots[m+b]).
    //
    // Harvey lazy butterflies: every stage takes inputs in [0, 4q) and
    // produces outputs in [0, 4q) — the top input is pre-reduced to
    // [0, 2q), the Shoup product of the bottom input lands in [0, 2q),
    // and their lazy sum/difference stays below 4q. One vector
    // normalization pass at the end restores canonical [0, q) residues,
    // bit-identical to reducing inside every butterfly.
    const Modulus& q = v.q;
    const u64 two_q = 2 * q.value();
    u64 t = v.n;
    for (u64 m = 1; m < v.n; m <<= 1) {
        t >>= 1;
        for (u64 i = 0; i < m; ++i) {
            const u64 w = v.roots[m + i];
            const u64 ws = v.roots_shoup[m + i];
            u64* x = a + 2 * i * t;
            u64* y = x + t;
            for (u64 j = 0; j < t; ++j) {
                u64 u = x[j];
                if (u >= two_q) u -= two_q;  // [0, 2q)
                const u64 vv = mul_mod_shoup_lazy(y[j], w, ws, q);  // [0, 2q)
                x[j] = u + vv;               // [0, 4q)
                y[j] = u + two_q - vv;       // [0, 4q)
            }
        }
    }
    normalize_lazy(a, v.n, q);
}

void
ntt_inverse(const NttView& v, u64* a)
{
    // Gentleman-Sande, decimation in frequency, inverse twiddles.
    //
    // Lazy variant: stage inputs and outputs stay in [0, 2q) (the sum is
    // conditionally reduced from [0, 4q), the difference goes through a
    // lazy Shoup product). The final stage (m == 1) folds the 1/N scaling
    // into its twiddles — n_inv on the sum side, inv_roots[1] * n_inv on
    // the difference side — replacing the separate scaling pass, and the
    // closing normalization is a single conditional subtraction.
    const Modulus& q = v.q;
    const u64 two_q = 2 * q.value();
    u64 t = 1;
    for (u64 m = v.n >> 1; m > 1; m >>= 1) {
        for (u64 i = 0; i < m; ++i) {
            const u64 w = v.inv_roots[m + i];
            const u64 ws = v.inv_roots_shoup[m + i];
            u64* x = a + 2 * i * t;
            u64* y = x + t;
            for (u64 j = 0; j < t; ++j) {
                const u64 u = x[j];
                const u64 vv = y[j];
                u64 s = u + vv;              // [0, 4q)
                if (s >= two_q) s -= two_q;  // [0, 2q)
                x[j] = s;
                y[j] = mul_mod_shoup_lazy(u + two_q - vv, w, ws, q);
            }
        }
        t <<= 1;
    }
    if (v.n >= 2) {
        // Last stage (m == 1, span t == n/2) with the fused 1/N scaling.
        u64* x = a;
        u64* y = a + t;
        for (u64 j = 0; j < t; ++j) {
            const u64 u = x[j];
            const u64 vv = y[j];
            x[j] = mul_mod_shoup_lazy(u + vv, v.n_inv, v.n_inv_shoup, q);
            y[j] = mul_mod_shoup_lazy(u + two_q - vv, v.inv_root_last_scaled,
                                      v.inv_root_last_scaled_shoup, q);
        }
    }
    for (u64 j = 0; j < v.n; ++j) {
        if (a[j] >= q.value()) a[j] -= q.value();
    }
}

void
add_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    for (u64 j = 0; j < n; ++j) a[j] = add_mod(a[j], b[j], q);
}

void
sub_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    for (u64 j = 0; j < n; ++j) a[j] = sub_mod(a[j], b[j], q);
}

void
mul_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    for (u64 j = 0; j < n; ++j) a[j] = mul_mod(a[j], b[j], q);
}

void
add_product_n(u64* a, const u64* x, const u64* y, u64 n, const Modulus& q)
{
    for (u64 j = 0; j < n; ++j) {
        // Lazy: one Barrett reduction for the whole a + x*y term
        // (x*y < 2^122 and a < 2^61, so the u128 sum cannot overflow);
        // same canonical residue as mul_mod followed by add_mod.
        a[j] = q.reduce_128(u128(a[j]) + u128(x[j]) * y[j]);
    }
}

void
mul_scalar_shoup_n(u64* a, const u64* src, u64 n, u64 w, u64 w_shoup,
                   const Modulus& q)
{
    for (u64 j = 0; j < n; ++j) {
        a[j] = mul_mod_shoup(src[j], w, w_shoup, q);
    }
}

void
normalize_lazy_n(u64* a, u64 n, const Modulus& q)
{
    normalize_lazy(a, n, q);
}

/**
 * ks_inner_product over coefficients [begin, end) — the whole scalar
 * kernel, and the vector kernels' tail (digit reads keep their absolute
 * coefficient index).
 */
void
ks_inner_product_range(u64* o0, u64* o1, const u64* const* xs,
                       const u64* const* bs, const u64* const* as,
                       u64 num_digits, u64 begin, u64 end, const Modulus& q)
{
    // Lazy reduction: the digit sum accumulates per coefficient in a u128
    // and pays ONE Barrett reduce_128 per output instead of a mul_mod +
    // add_mod per term. With q < 2^61 each product is below 2^122, so
    // chunks of up to 16 terms (plus the carried-in partial sum, < q)
    // stay below 2^127 — reduced between chunks to keep deeper digit
    // counts overflow-free.
    constexpr u64 kChunk = 16;
    for (u64 j = begin; j < end; ++j) {
        u128 s0 = o0[j];  // carried-in partial sums (double-hoisting)
        u128 s1 = o1[j];
        u64 d = 0;
        while (d < num_digits) {
            const u64 stop = std::min(d + kChunk, num_digits);
            for (; d < stop; ++d) {
                const u128 x = xs[d][j];
                s0 += x * bs[d][j];
                s1 += x * as[d][j];
            }
            if (d < num_digits) {
                s0 = q.reduce_128(s0);
                s1 = q.reduce_128(s1);
            }
        }
        o0[j] = q.reduce_128(s0);
        o1[j] = q.reduce_128(s1);
    }
}

void
ks_inner_product(u64* o0, u64* o1, const u64* const* xs, const u64* const* bs,
                 const u64* const* as, u64 num_digits, u64 n, const Modulus& q)
{
    ks_inner_product_range(o0, o1, xs, bs, as, num_digits, 0, n, q);
}

/** base_conv_acc over [begin, end); see ks_inner_product_range. */
void
base_conv_acc_range(u64* dst, const u64* const* lams, const u64* hats,
                    int len, u64 begin, u64 end, const Modulus& q)
{
    for (u64 x = begin; x < end; ++x) {
        u128 acc = 0;
        for (int j = 0; j < len; ++j) {
            acc += u128(lams[j][x]) * hats[j];
        }
        dst[x] = q.reduce_128(acc);
    }
}

void
base_conv_acc(u64* dst, const u64* const* lams, const u64* hats, int len,
              u64 n, const Modulus& q, u64 row_bound)
{
    // len is a key-switch digit width (<= alpha) or, in RnsPoly's one-pass
    // division, 2k rows of dropped-limb residues (possibly of larger
    // moduli than q) and 0/1 centering bits (k <= alpha <= 16). Every lam
    // and hat is below 2^61, so 32 products below 2^122 sum to < 2^127:
    // no u128 overflow.
    ORION_ASSERT(len >= 0 && len <= 32);
    ORION_ASSERT(row_bound <= u64(1) << 61);
    base_conv_acc_range(dst, lams, hats, len, 0, n, q);
}

}  // namespace scalar

#if ORION_SIMD_X86

#define ORION_TARGET_AVX2 __attribute__((target("avx2")))
#define ORION_TARGET_AVX512 \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
#define ORION_TARGET_AVX512IFMA \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,avx512ifma")))

// =====================================================================
// AVX2 kernels (4 x u64 lanes)
//
// Per-lane range proofs: identical to the scalar kernels — the vector
// code executes the same mod-2^64 u64 operations per element, so the
// scalar bounds ([0, 2q) Shoup products, [0, 4q) butterfly values, sums
// below 8q < 2^64, 128-bit chunk accumulators below 2^127) carry over
// lane by lane. The only vector-specific construction is the 64x64->128
// multiply, decomposed into 32-bit partial products:
//   mid  = p_lh + (p_ll >> 32)          <= (2^32-1)^2 + (2^32-1) < 2^64
//   mid2 = p_hl + (mid & 0xffffffff)    <= (2^32-1)^2 + (2^32-1) < 2^64
//   hi   = p_hh + (mid >> 32) + (mid2 >> 32)
// — every intermediate fits a u64 lane with no carries lost, so the
// (hi, lo) pair equals the scalar u128 product exactly.
// =====================================================================

namespace avx2 {

ORION_TARGET_AVX2 static inline __m256i
mullo64(__m256i a, __m256i b)
{
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                           _mm256_mul_epu32(a_hi, b));
    return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                            _mm256_slli_epi64(cross, 32));
}

ORION_TARGET_AVX2 static inline __m256i
mulhi64(__m256i a, __m256i b)
{
    const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i p_ll = _mm256_mul_epu32(a, b);
    const __m256i p_lh = _mm256_mul_epu32(a, b_hi);
    const __m256i p_hl = _mm256_mul_epu32(a_hi, b);
    const __m256i p_hh = _mm256_mul_epu32(a_hi, b_hi);
    const __m256i mid = _mm256_add_epi64(p_lh, _mm256_srli_epi64(p_ll, 32));
    const __m256i mid2 =
        _mm256_add_epi64(p_hl, _mm256_and_si256(mid, lo_mask));
    return _mm256_add_epi64(
        p_hh, _mm256_add_epi64(_mm256_srli_epi64(mid, 32),
                               _mm256_srli_epi64(mid2, 32)));
}

/** Unsigned a > b per lane (all-ones where true). AVX2 only has signed
 *  64-bit compares; flipping the sign bit of both operands maps unsigned
 *  order onto signed order. */
ORION_TARGET_AVX2 static inline __m256i
cmpgt64u(__m256i a, __m256i b)
{
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<i64>(0x8000000000000000ULL));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
}

/** a >= bound ? a - bound : a (the conditional subtraction). */
ORION_TARGET_AVX2 static inline __m256i
csub(__m256i a, __m256i bound)
{
    const __m256i keep = cmpgt64u(bound, a);  // bound > a -> keep
    return _mm256_sub_epi64(a, _mm256_andnot_si256(keep, bound));
}

/** Lane-wise mul_mod_shoup_lazy: a * w - ((a * ws) >> 64) * q, in [0, 2q). */
ORION_TARGET_AVX2 static inline __m256i
shoup_lazy(__m256i a, __m256i w, __m256i ws, __m256i qv)
{
    const __m256i hi = mulhi64(a, ws);
    return _mm256_sub_epi64(mullo64(a, w), mullo64(hi, qv));
}

/**
 * Lane-wise Modulus::reduce_128 of the 128-bit lane values (x0, x1):
 * mirrors the scalar word schedule exactly — t = ((x0*r0) >> 64) + x0*r1
 * + x1*r0 tracked as a (lo, hi) pair with explicit carries, q_hat =
 * hi(t) + x1*r1 wrapping, r = x0 - q_hat*q wrapping, one csub.
 */
ORION_TARGET_AVX2 static inline __m256i
reduce128(__m256i x0, __m256i x1, __m256i r0, __m256i r1, __m256i qv)
{
    __m256i lo = mulhi64(x0, r0);
    __m256i hi = _mm256_setzero_si256();
    {
        const __m256i p_lo = mullo64(x0, r1);
        const __m256i p_hi = mulhi64(x0, r1);
        const __m256i sum = _mm256_add_epi64(lo, p_lo);
        const __m256i carry = cmpgt64u(lo, sum);  // sum < lo -> carried
        hi = _mm256_sub_epi64(_mm256_add_epi64(hi, p_hi), carry);
        lo = sum;
    }
    {
        const __m256i p_lo = mullo64(x1, r0);
        const __m256i p_hi = mulhi64(x1, r0);
        const __m256i sum = _mm256_add_epi64(lo, p_lo);
        const __m256i carry = cmpgt64u(lo, sum);
        hi = _mm256_sub_epi64(_mm256_add_epi64(hi, p_hi), carry);
        lo = sum;
    }
    const __m256i q_hat = _mm256_add_epi64(hi, mullo64(x1, r1));
    const __m256i r = _mm256_sub_epi64(x0, mullo64(q_hat, qv));
    return csub(r, qv);
}

ORION_TARGET_AVX2 void
add_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
        const __m256i s = csub(_mm256_add_epi64(av, bv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), s);
    }
    for (; j < n; ++j) a[j] = add_mod(a[j], b[j], q);
}

ORION_TARGET_AVX2 void
sub_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
        // a - b, plus q where b > a (wraps exactly like the scalar branch).
        const __m256i borrow = cmpgt64u(bv, av);
        const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(av, bv),
                                           _mm256_and_si256(borrow, qv));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), d);
    }
    for (; j < n; ++j) a[j] = sub_mod(a[j], b[j], q);
}

ORION_TARGET_AVX2 void
mul_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    const __m256i r0 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_lo()));
    const __m256i r1 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_hi()));
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
        const __m256i res =
            reduce128(mullo64(av, bv), mulhi64(av, bv), r0, r1, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), res);
    }
    for (; j < n; ++j) a[j] = mul_mod(a[j], b[j], q);
}

ORION_TARGET_AVX2 void
add_product_n(u64* a, const u64* x, const u64* y, u64 n, const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    const __m256i r0 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_lo()));
    const __m256i r1 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_hi()));
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
        // 128-bit lane value a + x*y: x*y < 2^122, a < 2^61 — the carry
        // into the high word is the only interaction, tracked exactly.
        const __m256i p_lo = mullo64(xv, yv);
        const __m256i p_hi = mulhi64(xv, yv);
        const __m256i lo = _mm256_add_epi64(p_lo, av);
        const __m256i carry = cmpgt64u(p_lo, lo);
        const __m256i hi = _mm256_sub_epi64(p_hi, carry);
        const __m256i res = reduce128(lo, hi, r0, r1, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), res);
    }
    for (; j < n; ++j) {
        a[j] = q.reduce_128(u128(a[j]) + u128(x[j]) * y[j]);
    }
}

ORION_TARGET_AVX2 void
mul_scalar_shoup_n(u64* a, const u64* src, u64 n, u64 w, u64 w_shoup,
                   const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    const __m256i wv = _mm256_set1_epi64x(static_cast<i64>(w));
    const __m256i wsv = _mm256_set1_epi64x(static_cast<i64>(w_shoup));
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i sv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
        const __m256i res = csub(shoup_lazy(sv, wv, wsv, qv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), res);
    }
    for (; j < n; ++j) a[j] = mul_mod_shoup(src[j], w, w_shoup, q);
}

ORION_TARGET_AVX2 void
normalize_lazy_n(u64* a, u64 n, const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    const __m256i two_qv = _mm256_set1_epi64x(static_cast<i64>(2 * q.value()));
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        av = csub(csub(av, two_qv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), av);
    }
    for (; j < n; ++j) a[j] = normalize_lazy(a[j], q);
}

/**
 * Fused stages (span S in {2, 1}) work on a PAIR of vectors at a time:
 * the 8 elements are deinterleaved into the 4 block-top elements x and
 * the 4 block-bottom elements y, the butterfly runs once per pair on
 * full 4-wide lanes (one Shoup product per butterfly, same as the
 * wide-span stages), and the results are interleaved back. Every
 * per-element u64 operation matches the scalar stage exactly.
 */

/** Twiddles of the 4 butterflies in one pair, one lane per butterfly in
 *  deinterleaved order (butterfly k of the pair gets tab[m + blk + k/S]). */
template <int S>
ORION_TARGET_AVX2 static inline __m256i
load_twiddles(const u64* tab, u64 m, u64 blk)
{
    if constexpr (S == 2) {
        // Two blocks per pair: replicate each twiddle twice (w0 w0 w1 w1).
        const __m128i w2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(tab + m + blk));
        return _mm256_permute4x64_epi64(_mm256_castsi128_si256(w2), 0x50);
    } else {
        // Four blocks per pair: one twiddle per lane, contiguous.
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tab + m + blk));
    }
}

/** Splits the pair (va, vb) into block-top lanes x and block-bottom y. */
template <int S>
ORION_TARGET_AVX2 static inline void
deinterleave(__m256i va, __m256i vb, __m256i* x, __m256i* y)
{
    if constexpr (S == 2) {
        *x = _mm256_permute2x128_si256(va, vb, 0x20);  // e0 e1 | e4 e5
        *y = _mm256_permute2x128_si256(va, vb, 0x31);  // e2 e3 | e6 e7
    } else {
        const __m256i ta = _mm256_permute4x64_epi64(va, 0xD8);  // a0 a2 a1 a3
        const __m256i tb = _mm256_permute4x64_epi64(vb, 0xD8);
        *x = _mm256_permute2x128_si256(ta, tb, 0x20);  // e0 e2 e4 e6
        *y = _mm256_permute2x128_si256(ta, tb, 0x31);  // e1 e3 e5 e7
    }
}

/** Inverse of deinterleave: merges x / y lanes back into (va, vb). */
template <int S>
ORION_TARGET_AVX2 static inline void
interleave(__m256i x, __m256i y, __m256i* va, __m256i* vb)
{
    if constexpr (S == 2) {
        *va = _mm256_permute2x128_si256(x, y, 0x20);  // x0 x1 y0 y1
        *vb = _mm256_permute2x128_si256(x, y, 0x31);  // x2 x3 y2 y3
    } else {
        const __m256i u0 = _mm256_unpacklo_epi64(x, y);  // x0 y0 x2 y2
        const __m256i u1 = _mm256_unpackhi_epi64(x, y);  // x1 y1 x3 y3
        *va = _mm256_permute2x128_si256(u0, u1, 0x20);   // x0 y0 x1 y1
        *vb = _mm256_permute2x128_si256(u0, u1, 0x31);   // x2 y2 x3 y3
    }
}

template <int S>
ORION_TARGET_AVX2 static inline void
fwd_fused(const NttView& v, u64* a, u64 m, __m256i qv, __m256i two_qv)
{
    static_assert(S == 1 || S == 2);
    for (u64 off = 0; off < v.n; off += 8) {
        const u64 blk = off / (2 * S);
        const __m256i wv = load_twiddles<S>(v.roots, m, blk);
        const __m256i wsv = load_twiddles<S>(v.roots_shoup, m, blk);
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + off));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + off + 4));
        __m256i x, y;
        deinterleave<S>(va, vb, &x, &y);
        const __m256i u = csub(x, two_qv);
        const __m256i vv = shoup_lazy(y, wv, wsv, qv);
        const __m256i sum = _mm256_add_epi64(u, vv);
        const __m256i diff =
            _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), vv);
        __m256i ra, rb;
        interleave<S>(sum, diff, &ra, &rb);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + off), ra);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + off + 4), rb);
    }
}

/** Fused inverse stage for span S in {1, 2} (same lane maps as forward). */
template <int S>
ORION_TARGET_AVX2 static inline void
inv_fused(const NttView& v, u64* a, u64 m, __m256i qv, __m256i two_qv)
{
    static_assert(S == 1 || S == 2);
    for (u64 off = 0; off < v.n; off += 8) {
        const u64 blk = off / (2 * S);
        const __m256i wv = load_twiddles<S>(v.inv_roots, m, blk);
        const __m256i wsv = load_twiddles<S>(v.inv_roots_shoup, m, blk);
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + off));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + off + 4));
        __m256i u, vv;
        deinterleave<S>(va, vb, &u, &vv);
        const __m256i sum = csub(_mm256_add_epi64(u, vv), two_qv);
        const __m256i diff = shoup_lazy(
            _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), vv), wv, wsv, qv);
        __m256i ra, rb;
        interleave<S>(sum, diff, &ra, &rb);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + off), ra);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + off + 4), rb);
    }
}

ORION_TARGET_AVX2 void
ntt_forward(const NttView& v, u64* a)
{
    if (v.n < 8) {
        scalar::ntt_forward(v, a);
        return;
    }
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(v.q.value()));
    const __m256i two_qv =
        _mm256_set1_epi64x(static_cast<i64>(2 * v.q.value()));
    const u64 two_q = 2 * v.q.value();
    (void)two_q;
    u64 t = v.n;
    for (u64 m = 1; m < v.n; m <<= 1) {
        t >>= 1;
        if (t >= 4) {
            // Broadcast-twiddle stages: span a multiple of the lane width,
            // one twiddle per block.
            for (u64 i = 0; i < m; ++i) {
                const __m256i wv =
                    _mm256_set1_epi64x(static_cast<i64>(v.roots[m + i]));
                const __m256i wsv = _mm256_set1_epi64x(
                    static_cast<i64>(v.roots_shoup[m + i]));
                u64* x = a + 2 * i * t;
                u64* y = x + t;
                for (u64 j = 0; j < t; j += 4) {
                    const __m256i u = csub(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(x + j)),
                        two_qv);
                    const __m256i vv = shoup_lazy(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(y + j)),
                        wv, wsv, qv);
                    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j),
                                        _mm256_add_epi64(u, vv));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(y + j),
                        _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), vv));
                }
            }
        } else if (t == 2) {
            fwd_fused<2>(v, a, m, qv, two_qv);
        } else {
            fwd_fused<1>(v, a, m, qv, two_qv);
        }
    }
    normalize_lazy_n(a, v.n, v.q);
}

ORION_TARGET_AVX2 void
ntt_inverse(const NttView& v, u64* a)
{
    if (v.n < 8) {
        scalar::ntt_inverse(v, a);
        return;
    }
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(v.q.value()));
    const __m256i two_qv =
        _mm256_set1_epi64x(static_cast<i64>(2 * v.q.value()));
    u64 t = 1;
    for (u64 m = v.n >> 1; m > 1; m >>= 1) {
        if (t == 1) {
            inv_fused<1>(v, a, m, qv, two_qv);
        } else if (t == 2) {
            inv_fused<2>(v, a, m, qv, two_qv);
        } else {
            for (u64 i = 0; i < m; ++i) {
                const __m256i wv =
                    _mm256_set1_epi64x(static_cast<i64>(v.inv_roots[m + i]));
                const __m256i wsv = _mm256_set1_epi64x(
                    static_cast<i64>(v.inv_roots_shoup[m + i]));
                u64* x = a + 2 * i * t;
                u64* y = x + t;
                for (u64 j = 0; j < t; j += 4) {
                    const __m256i u = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(x + j));
                    const __m256i vv = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(y + j));
                    const __m256i s = csub(_mm256_add_epi64(u, vv), two_qv);
                    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j),
                                        s);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(y + j),
                        shoup_lazy(_mm256_sub_epi64(
                                       _mm256_add_epi64(u, two_qv), vv),
                                   wv, wsv, qv));
                }
            }
        }
        t <<= 1;
    }
    {
        // Final stage (m == 1, span t == n/2 >= 4) with fused 1/N scaling.
        const __m256i niv = _mm256_set1_epi64x(static_cast<i64>(v.n_inv));
        const __m256i nisv =
            _mm256_set1_epi64x(static_cast<i64>(v.n_inv_shoup));
        const __m256i lwv =
            _mm256_set1_epi64x(static_cast<i64>(v.inv_root_last_scaled));
        const __m256i lwsv = _mm256_set1_epi64x(
            static_cast<i64>(v.inv_root_last_scaled_shoup));
        u64* x = a;
        u64* y = a + t;
        for (u64 j = 0; j < t; j += 4) {
            const __m256i u =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
            const __m256i vv =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(x + j),
                shoup_lazy(_mm256_add_epi64(u, vv), niv, nisv, qv));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(y + j),
                shoup_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_qv), vv),
                           lwv, lwsv, qv));
        }
    }
    for (u64 j = 0; j < v.n; j += 4) {
        __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        av = csub(av, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), av);
    }
}

ORION_TARGET_AVX2 void
ks_inner_product(u64* o0, u64* o1, const u64* const* xs, const u64* const* bs,
                 const u64* const* as, u64 num_digits, u64 n, const Modulus& q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    const __m256i r0 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_lo()));
    const __m256i r1 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_hi()));
    constexpr u64 kChunk = 16;
    u64 j = 0;
    for (; j + 4 <= n; j += 4) {
        // 128-bit lane accumulators as (lo, hi) pairs with manual carries
        // — the exact decomposition of the scalar u128 sums.
        __m256i s0_lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o0 + j));
        __m256i s0_hi = _mm256_setzero_si256();
        __m256i s1_lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o1 + j));
        __m256i s1_hi = _mm256_setzero_si256();
        u64 d = 0;
        while (d < num_digits) {
            const u64 end = std::min(d + kChunk, num_digits);
            for (; d < end; ++d) {
                const __m256i x = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(xs[d] + j));
                {
                    const __m256i k = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bs[d] + j));
                    const __m256i p_lo = mullo64(x, k);
                    const __m256i p_hi = mulhi64(x, k);
                    const __m256i sum = _mm256_add_epi64(s0_lo, p_lo);
                    const __m256i carry = cmpgt64u(s0_lo, sum);
                    s0_hi = _mm256_sub_epi64(_mm256_add_epi64(s0_hi, p_hi),
                                             carry);
                    s0_lo = sum;
                }
                {
                    const __m256i k = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(as[d] + j));
                    const __m256i p_lo = mullo64(x, k);
                    const __m256i p_hi = mulhi64(x, k);
                    const __m256i sum = _mm256_add_epi64(s1_lo, p_lo);
                    const __m256i carry = cmpgt64u(s1_lo, sum);
                    s1_hi = _mm256_sub_epi64(_mm256_add_epi64(s1_hi, p_hi),
                                             carry);
                    s1_lo = sum;
                }
            }
            if (d < num_digits) {
                s0_lo = reduce128(s0_lo, s0_hi, r0, r1, qv);
                s0_hi = _mm256_setzero_si256();
                s1_lo = reduce128(s1_lo, s1_hi, r0, r1, qv);
                s1_hi = _mm256_setzero_si256();
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(o0 + j),
                            reduce128(s0_lo, s0_hi, r0, r1, qv));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(o1 + j),
                            reduce128(s1_lo, s1_hi, r0, r1, qv));
    }
    scalar::ks_inner_product_range(o0, o1, xs, bs, as, num_digits, j, n, q);
}

ORION_TARGET_AVX2 void
base_conv_acc(u64* dst, const u64* const* lams, const u64* hats, int len,
              u64 n, const Modulus& q, u64 row_bound)
{
    ORION_ASSERT(len >= 0 && len <= 32);
    ORION_ASSERT(row_bound <= u64(1) << 61);
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q.value()));
    const __m256i r0 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_lo()));
    const __m256i r1 = _mm256_set1_epi64x(static_cast<i64>(q.ratio_hi()));
    u64 x = 0;
    for (; x + 4 <= n; x += 4) {
        __m256i lo = _mm256_setzero_si256();
        __m256i hi = _mm256_setzero_si256();
        for (int jj = 0; jj < len; ++jj) {
            const __m256i lam = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(lams[jj] + x));
            const __m256i hat =
                _mm256_set1_epi64x(static_cast<i64>(hats[jj]));
            const __m256i p_lo = mullo64(lam, hat);
            const __m256i p_hi = mulhi64(lam, hat);
            const __m256i sum = _mm256_add_epi64(lo, p_lo);
            const __m256i carry = cmpgt64u(lo, sum);
            hi = _mm256_sub_epi64(_mm256_add_epi64(hi, p_hi), carry);
            lo = sum;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + x),
                            reduce128(lo, hi, r0, r1, qv));
    }
    scalar::base_conv_acc_range(dst, lams, hats, len, x, n, q);
}

}  // namespace avx2

// =====================================================================
// AVX-512 kernels (8 x u64 lanes)
//
// Same word-exact constructions as AVX2 with three upgrades: native
// 64-bit low multiplies (VPMULLQ, AVX-512DQ), mask registers for the
// conditional subtractions and carries (no sign-flip compares), and
// fused in-register stages covering spans 4/2/1 so the entire NTT stays
// vectorized. Range proofs are unchanged — identical per-lane values.
// =====================================================================

namespace avx512 {

ORION_TARGET_AVX512 static inline __m512i
mulhi64(__m512i a, __m512i b)
{
    const __m512i lo_mask = _mm512_set1_epi64(0xffffffffLL);
    const __m512i a_hi = _mm512_srli_epi64(a, 32);
    const __m512i b_hi = _mm512_srli_epi64(b, 32);
    const __m512i p_ll = _mm512_mul_epu32(a, b);
    const __m512i p_lh = _mm512_mul_epu32(a, b_hi);
    const __m512i p_hl = _mm512_mul_epu32(a_hi, b);
    const __m512i p_hh = _mm512_mul_epu32(a_hi, b_hi);
    const __m512i mid = _mm512_add_epi64(p_lh, _mm512_srli_epi64(p_ll, 32));
    const __m512i mid2 =
        _mm512_add_epi64(p_hl, _mm512_and_epi64(mid, lo_mask));
    return _mm512_add_epi64(
        p_hh, _mm512_add_epi64(_mm512_srli_epi64(mid, 32),
                               _mm512_srli_epi64(mid2, 32)));
}

ORION_TARGET_AVX512 static inline __m512i
csub(__m512i a, __m512i bound)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(a, bound);
    return _mm512_mask_sub_epi64(a, ge, a, bound);
}

ORION_TARGET_AVX512 static inline __m512i
shoup_lazy(__m512i a, __m512i w, __m512i ws, __m512i qv)
{
    const __m512i hi = mulhi64(a, ws);
    return _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                            _mm512_mullo_epi64(hi, qv));
}

ORION_TARGET_AVX512 static inline __m512i
reduce128(__m512i x0, __m512i x1, __m512i r0, __m512i r1, __m512i qv)
{
    __m512i lo = mulhi64(x0, r0);
    __m512i hi = _mm512_setzero_si512();
    {
        const __m512i p_lo = _mm512_mullo_epi64(x0, r1);
        const __m512i p_hi = mulhi64(x0, r1);
        const __m512i sum = _mm512_add_epi64(lo, p_lo);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(sum, lo);
        hi = _mm512_sub_epi64(_mm512_add_epi64(hi, p_hi),
                              _mm512_movm_epi64(carry));
        lo = sum;
    }
    {
        const __m512i p_lo = _mm512_mullo_epi64(x1, r0);
        const __m512i p_hi = mulhi64(x1, r0);
        const __m512i sum = _mm512_add_epi64(lo, p_lo);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(sum, lo);
        hi = _mm512_sub_epi64(_mm512_add_epi64(hi, p_hi),
                              _mm512_movm_epi64(carry));
        lo = sum;
    }
    const __m512i q_hat = _mm512_add_epi64(hi, _mm512_mullo_epi64(x1, r1));
    const __m512i r = _mm512_sub_epi64(x0, _mm512_mullo_epi64(q_hat, qv));
    return csub(r, qv);
}

ORION_TARGET_AVX512 void
add_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i av = _mm512_loadu_si512(a + j);
        const __m512i bv = _mm512_loadu_si512(b + j);
        _mm512_storeu_si512(a + j, csub(_mm512_add_epi64(av, bv), qv));
    }
    for (; j < n; ++j) a[j] = add_mod(a[j], b[j], q);
}

ORION_TARGET_AVX512 void
sub_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i av = _mm512_loadu_si512(a + j);
        const __m512i bv = _mm512_loadu_si512(b + j);
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(av, bv);
        const __m512i d = _mm512_sub_epi64(av, bv);
        _mm512_storeu_si512(a + j, _mm512_mask_add_epi64(d, borrow, d, qv));
    }
    for (; j < n; ++j) a[j] = sub_mod(a[j], b[j], q);
}

ORION_TARGET_AVX512 void
mul_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i av = _mm512_loadu_si512(a + j);
        const __m512i bv = _mm512_loadu_si512(b + j);
        _mm512_storeu_si512(
            a + j,
            reduce128(_mm512_mullo_epi64(av, bv), mulhi64(av, bv), r0, r1,
                      qv));
    }
    for (; j < n; ++j) a[j] = mul_mod(a[j], b[j], q);
}

ORION_TARGET_AVX512 void
add_product_n(u64* a, const u64* x, const u64* y, u64 n, const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i av = _mm512_loadu_si512(a + j);
        const __m512i xv = _mm512_loadu_si512(x + j);
        const __m512i yv = _mm512_loadu_si512(y + j);
        const __m512i p_lo = _mm512_mullo_epi64(xv, yv);
        const __m512i p_hi = mulhi64(xv, yv);
        const __m512i lo = _mm512_add_epi64(p_lo, av);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(lo, p_lo);
        const __m512i hi =
            _mm512_sub_epi64(p_hi, _mm512_movm_epi64(carry));
        _mm512_storeu_si512(a + j, reduce128(lo, hi, r0, r1, qv));
    }
    for (; j < n; ++j) {
        a[j] = q.reduce_128(u128(a[j]) + u128(x[j]) * y[j]);
    }
}

ORION_TARGET_AVX512 void
mul_scalar_shoup_n(u64* a, const u64* src, u64 n, u64 w, u64 w_shoup,
                   const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i wv = _mm512_set1_epi64(static_cast<i64>(w));
    const __m512i wsv = _mm512_set1_epi64(static_cast<i64>(w_shoup));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i sv = _mm512_loadu_si512(src + j);
        _mm512_storeu_si512(a + j, csub(shoup_lazy(sv, wv, wsv, qv), qv));
    }
    for (; j < n; ++j) a[j] = mul_mod_shoup(src[j], w, w_shoup, q);
}

ORION_TARGET_AVX512 void
normalize_lazy_n(u64* a, u64 n, const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i two_qv = _mm512_set1_epi64(static_cast<i64>(2 * q.value()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        __m512i av = _mm512_loadu_si512(a + j);
        av = csub(csub(av, two_qv), qv);
        _mm512_storeu_si512(a + j, av);
    }
    for (; j < n; ++j) a[j] = normalize_lazy(a[j], q);
}

#define ORION_KERNEL_TARGET ORION_TARGET_AVX512
#include "src/ckks/kernels_avx512_ntt.inc"
#undef ORION_KERNEL_TARGET

ORION_TARGET_AVX512 void
ks_inner_product(u64* o0, u64* o1, const u64* const* xs, const u64* const* bs,
                 const u64* const* as, u64 num_digits, u64 n, const Modulus& q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    constexpr u64 kChunk = 16;
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        __m512i s0_lo = _mm512_loadu_si512(o0 + j);
        __m512i s0_hi = _mm512_setzero_si512();
        __m512i s1_lo = _mm512_loadu_si512(o1 + j);
        __m512i s1_hi = _mm512_setzero_si512();
        u64 d = 0;
        while (d < num_digits) {
            const u64 end = std::min(d + kChunk, num_digits);
            for (; d < end; ++d) {
                const __m512i x = _mm512_loadu_si512(xs[d] + j);
                {
                    const __m512i k = _mm512_loadu_si512(bs[d] + j);
                    const __m512i p_lo = _mm512_mullo_epi64(x, k);
                    const __m512i p_hi = mulhi64(x, k);
                    const __m512i sum = _mm512_add_epi64(s0_lo, p_lo);
                    const __mmask8 carry =
                        _mm512_cmplt_epu64_mask(sum, s0_lo);
                    s0_hi = _mm512_sub_epi64(_mm512_add_epi64(s0_hi, p_hi),
                                             _mm512_movm_epi64(carry));
                    s0_lo = sum;
                }
                {
                    const __m512i k = _mm512_loadu_si512(as[d] + j);
                    const __m512i p_lo = _mm512_mullo_epi64(x, k);
                    const __m512i p_hi = mulhi64(x, k);
                    const __m512i sum = _mm512_add_epi64(s1_lo, p_lo);
                    const __mmask8 carry =
                        _mm512_cmplt_epu64_mask(sum, s1_lo);
                    s1_hi = _mm512_sub_epi64(_mm512_add_epi64(s1_hi, p_hi),
                                             _mm512_movm_epi64(carry));
                    s1_lo = sum;
                }
            }
            if (d < num_digits) {
                s0_lo = reduce128(s0_lo, s0_hi, r0, r1, qv);
                s0_hi = _mm512_setzero_si512();
                s1_lo = reduce128(s1_lo, s1_hi, r0, r1, qv);
                s1_hi = _mm512_setzero_si512();
            }
        }
        _mm512_storeu_si512(o0 + j, reduce128(s0_lo, s0_hi, r0, r1, qv));
        _mm512_storeu_si512(o1 + j, reduce128(s1_lo, s1_hi, r0, r1, qv));
    }
    scalar::ks_inner_product_range(o0, o1, xs, bs, as, num_digits, j, n, q);
}

ORION_TARGET_AVX512 void
base_conv_acc(u64* dst, const u64* const* lams, const u64* hats, int len,
              u64 n, const Modulus& q, u64 row_bound)
{
    ORION_ASSERT(len >= 0 && len <= 32);
    ORION_ASSERT(row_bound <= u64(1) << 61);
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    u64 x = 0;
    for (; x + 8 <= n; x += 8) {
        __m512i lo = _mm512_setzero_si512();
        __m512i hi = _mm512_setzero_si512();
        for (int jj = 0; jj < len; ++jj) {
            const __m512i lam = _mm512_loadu_si512(lams[jj] + x);
            const __m512i hat =
                _mm512_set1_epi64(static_cast<i64>(hats[jj]));
            const __m512i p_lo = _mm512_mullo_epi64(lam, hat);
            const __m512i p_hi = mulhi64(lam, hat);
            const __m512i sum = _mm512_add_epi64(lo, p_lo);
            const __mmask8 carry = _mm512_cmplt_epu64_mask(sum, lo);
            hi = _mm512_sub_epi64(_mm512_add_epi64(hi, p_hi),
                                  _mm512_movm_epi64(carry));
            lo = sum;
        }
        _mm512_storeu_si512(dst + x, reduce128(lo, hi, r0, r1, qv));
    }
    scalar::base_conv_acc_range(dst, lams, hats, len, x, n, q);
}

}  // namespace avx512

// =====================================================================
// AVX-512 IFMA52 kernels (8 x u64 lanes, moduli below 2^50)
//
// VPMADD52LUQ / VPMADD52HUQ multiply the low 52 bits of two lanes and
// add the low / high 52 bits of the 104-bit product to a 64-bit lane.
// Below 2^50 every operand these kernels multiply fits 52 bits, so one
// instruction replaces the four VPMULUDQ partial products of mulhi64.
// A limb whose modulus is 2^50 or more (or a base conversion whose rows
// are 2^52 or more) runs the whole call on the avx512 body instead.
//
// The outputs are the canonical residues in [0, q), so they equal the
// other tables' bytes although the lazy intermediates may differ by
// multiples of q. The proof obligations, for q < 2^50:
//  - NTT lazy values stay below 4q < 2^52: one IFMA operand each.
//  - The 52-bit Shoup constant floor(w * 2^52 / q) is exactly
//    shoup_precompute(w) >> 12, so the NTT tables serve both products.
//  - a * w - floor(a * w' / 2^52) * q lies in [0, 2q) for a < 2^52, the
//    64-bit Shoup product's lazy range: with w * 2^52 = w' * q + e,
//    0 <= e < q, it equals (a * e + q * (a * w' mod 2^52)) / 2^52.
//  - Inner products accumulate lo += lo52(x * y) and hi += hi52(x * y).
//    Canonical operands (< 2^50) keep lo52 < 2^52 and hi52 < 2^48, so
//    the carried-in value plus 2^11 terms stays below 2^64 in both
//    lanes. lo + hi * 2^52 is then the exact sum, and reduce128 maps it
//    to the same canonical residue as the scalar u128 loop.
// =====================================================================

namespace avx512ifma {

using avx512::csub;
using avx512::normalize_lazy_n;
using avx512::reduce128;

/** True when q admits the 52-bit products (lazy values < 4q < 2^52). */
inline bool
fits52(const Modulus& q)
{
    return q.value() < (u64(1) << 50);
}

/**
 * Lane-wise lazy Shoup product with 52-bit multiplies: a * w - hi * q
 * with hi = floor(a * (ws >> 12) / 2^52), in [0, 2q) for a < 2^52. The
 * difference is taken modulo 2^52 (its true value is below 2^51).
 */
ORION_TARGET_AVX512IFMA static inline __m512i
shoup_lazy(__m512i a, __m512i w, __m512i ws, __m512i qv)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i hi =
        _mm512_madd52hi_epu64(zero, a, _mm512_srli_epi64(ws, 12));
    const __m512i r = _mm512_sub_epi64(_mm512_madd52lo_epu64(zero, a, w),
                                       _mm512_madd52lo_epu64(zero, hi, qv));
    return _mm512_and_epi64(r, _mm512_set1_epi64((i64(1) << 52) - 1));
}

/** reduce128 of the exact lane value lo + hi * 2^52 (lo, hi < 2^64). */
ORION_TARGET_AVX512IFMA static inline __m512i
reduce52(__m512i lo, __m512i hi, __m512i r0, __m512i r1, __m512i qv)
{
    const __m512i x0 = _mm512_add_epi64(lo, _mm512_slli_epi64(hi, 52));
    const __mmask8 carry = _mm512_cmplt_epu64_mask(x0, lo);
    const __m512i top = _mm512_srli_epi64(hi, 12);
    const __m512i x1 =
        _mm512_mask_add_epi64(top, carry, top, _mm512_set1_epi64(1));
    return reduce128(x0, x1, r0, r1, qv);
}

// The AVX-512 NTT body on the 52-bit Shoup product.
namespace narrow {
#define ORION_KERNEL_TARGET ORION_TARGET_AVX512IFMA
#include "src/ckks/kernels_avx512_ntt.inc"
#undef ORION_KERNEL_TARGET
}  // namespace narrow

void
ntt_forward(const NttView& v, u64* a)
{
    if (fits52(v.q)) {
        narrow::ntt_forward(v, a);
    } else {
        avx512::ntt_forward(v, a);
    }
}

void
ntt_inverse(const NttView& v, u64* a)
{
    if (fits52(v.q)) {
        narrow::ntt_inverse(v, a);
    } else {
        avx512::ntt_inverse(v, a);
    }
}

ORION_TARGET_AVX512IFMA void
mul_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    if (!fits52(q)) return avx512::mul_mod_n(a, b, n, q);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i av = _mm512_loadu_si512(a + j);
        const __m512i bv = _mm512_loadu_si512(b + j);
        _mm512_storeu_si512(a + j,
                            reduce52(_mm512_madd52lo_epu64(zero, av, bv),
                                     _mm512_madd52hi_epu64(zero, av, bv), r0,
                                     r1, qv));
    }
    for (; j < n; ++j) a[j] = mul_mod(a[j], b[j], q);
}

ORION_TARGET_AVX512IFMA void
add_product_n(u64* a, const u64* x, const u64* y, u64 n, const Modulus& q)
{
    if (!fits52(q)) return avx512::add_product_n(a, x, y, n, q);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i av = _mm512_loadu_si512(a + j);
        const __m512i xv = _mm512_loadu_si512(x + j);
        const __m512i yv = _mm512_loadu_si512(y + j);
        _mm512_storeu_si512(a + j,
                            reduce52(_mm512_madd52lo_epu64(av, xv, yv),
                                     _mm512_madd52hi_epu64(zero, xv, yv), r0,
                                     r1, qv));
    }
    for (; j < n; ++j) {
        a[j] = q.reduce_128(u128(a[j]) + u128(x[j]) * y[j]);
    }
}

ORION_TARGET_AVX512IFMA void
mul_scalar_shoup_n(u64* a, const u64* src, u64 n, u64 w, u64 w_shoup,
                   const Modulus& q)
{
    if (!fits52(q)) {
        return avx512::mul_scalar_shoup_n(a, src, n, w, w_shoup, q);
    }
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i wv = _mm512_set1_epi64(static_cast<i64>(w));
    const __m512i wsv = _mm512_set1_epi64(static_cast<i64>(w_shoup));
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i sv = _mm512_loadu_si512(src + j);
        _mm512_storeu_si512(a + j, csub(shoup_lazy(sv, wv, wsv, qv), qv));
    }
    for (; j < n; ++j) a[j] = mul_mod_shoup(src[j], w, w_shoup, q);
}

ORION_TARGET_AVX512IFMA void
ks_inner_product(u64* o0, u64* o1, const u64* const* xs, const u64* const* bs,
                 const u64* const* as, u64 num_digits, u64 n, const Modulus& q)
{
    if (!fits52(q)) {
        return avx512::ks_inner_product(o0, o1, xs, bs, as, num_digits, n, q);
    }
    const __m512i zero = _mm512_setzero_si512();
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    constexpr u64 kChunk = u64(1) << 11;
    u64 j = 0;
    for (; j + 8 <= n; j += 8) {
        __m512i s0_lo = _mm512_loadu_si512(o0 + j);
        __m512i s0_hi = zero;
        __m512i s1_lo = _mm512_loadu_si512(o1 + j);
        __m512i s1_hi = zero;
        u64 d = 0;
        while (d < num_digits) {
            const u64 end = std::min(d + kChunk, num_digits);
            for (; d < end; ++d) {
                const __m512i x = _mm512_loadu_si512(xs[d] + j);
                const __m512i kb = _mm512_loadu_si512(bs[d] + j);
                const __m512i ka = _mm512_loadu_si512(as[d] + j);
                s0_lo = _mm512_madd52lo_epu64(s0_lo, x, kb);
                s0_hi = _mm512_madd52hi_epu64(s0_hi, x, kb);
                s1_lo = _mm512_madd52lo_epu64(s1_lo, x, ka);
                s1_hi = _mm512_madd52hi_epu64(s1_hi, x, ka);
            }
            if (d < num_digits) {
                s0_lo = reduce52(s0_lo, s0_hi, r0, r1, qv);
                s0_hi = zero;
                s1_lo = reduce52(s1_lo, s1_hi, r0, r1, qv);
                s1_hi = zero;
            }
        }
        _mm512_storeu_si512(o0 + j, reduce52(s0_lo, s0_hi, r0, r1, qv));
        _mm512_storeu_si512(o1 + j, reduce52(s1_lo, s1_hi, r0, r1, qv));
    }
    scalar::ks_inner_product_range(o0, o1, xs, bs, as, num_digits, j, n, q);
}

ORION_TARGET_AVX512IFMA void
base_conv_acc(u64* dst, const u64* const* lams, const u64* hats, int len,
              u64 n, const Modulus& q, u64 row_bound)
{
    // Rows below 2^52 and hats below q < 2^50: 32 terms keep lo < 2^57
    // and hi < 2^55.
    if (!fits52(q) || row_bound > u64(1) << 52) {
        return avx512::base_conv_acc(dst, lams, hats, len, n, q, row_bound);
    }
    ORION_ASSERT(len >= 0 && len <= 32);
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q.value()));
    const __m512i r0 = _mm512_set1_epi64(static_cast<i64>(q.ratio_lo()));
    const __m512i r1 = _mm512_set1_epi64(static_cast<i64>(q.ratio_hi()));
    u64 x = 0;
    for (; x + 8 <= n; x += 8) {
        __m512i lo = _mm512_setzero_si512();
        __m512i hi = _mm512_setzero_si512();
        for (int jj = 0; jj < len; ++jj) {
            const __m512i lam = _mm512_loadu_si512(lams[jj] + x);
            const __m512i hat =
                _mm512_set1_epi64(static_cast<i64>(hats[jj]));
            lo = _mm512_madd52lo_epu64(lo, lam, hat);
            hi = _mm512_madd52hi_epu64(hi, lam, hat);
        }
        _mm512_storeu_si512(dst + x, reduce52(lo, hi, r0, r1, qv));
    }
    scalar::base_conv_acc_range(dst, lams, hats, len, x, n, q);
}

}  // namespace avx512ifma

#endif  // ORION_SIMD_X86

// =====================================================================
// Dispatch
// =====================================================================

namespace {

constexpr KernelTable kScalarTable = {
    scalar::ntt_forward,    scalar::ntt_inverse,
    scalar::add_mod_n,      scalar::sub_mod_n,
    scalar::mul_mod_n,      scalar::add_product_n,
    scalar::mul_scalar_shoup_n, scalar::normalize_lazy_n,
    scalar::ks_inner_product,   scalar::base_conv_acc,
};

#if ORION_SIMD_X86
constexpr KernelTable kAvx2Table = {
    avx2::ntt_forward,    avx2::ntt_inverse,
    avx2::add_mod_n,      avx2::sub_mod_n,
    avx2::mul_mod_n,      avx2::add_product_n,
    avx2::mul_scalar_shoup_n, avx2::normalize_lazy_n,
    avx2::ks_inner_product,   avx2::base_conv_acc,
};
constexpr KernelTable kAvx512Table = {
    avx512::ntt_forward,    avx512::ntt_inverse,
    avx512::add_mod_n,      avx512::sub_mod_n,
    avx512::mul_mod_n,      avx512::add_product_n,
    avx512::mul_scalar_shoup_n, avx512::normalize_lazy_n,
    avx512::ks_inner_product,   avx512::base_conv_acc,
};
constexpr KernelTable kAvx512IfmaTable = {
    avx512ifma::ntt_forward,    avx512ifma::ntt_inverse,
    avx512::add_mod_n,          avx512::sub_mod_n,
    avx512ifma::mul_mod_n,      avx512ifma::add_product_n,
    avx512ifma::mul_scalar_shoup_n, avx512::normalize_lazy_n,
    avx512ifma::ks_inner_product,   avx512ifma::base_conv_acc,
};
#endif

/** Every table, weakest first. */
constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                            Isa::kAvx512Ifma};

std::atomic<int> g_active_isa{-1};  // -1 = not yet initialized
std::once_flag g_init_flag;

/** The strongest supported ISA no stronger than `want`. */
Isa
clamp_to_supported(Isa want)
{
    for (int i = static_cast<int>(want); i > 0; --i) {
        if (isa_supported(static_cast<Isa>(i))) return static_cast<Isa>(i);
    }
    return Isa::kScalar;
}

void
init_dispatch()
{
    Isa pick = best_supported_isa();
    if (const char* env = std::getenv("ORION_SIMD");
        env != nullptr && *env != '\0') {
        for (Isa isa : kAllIsas) {
            if (std::strcmp(env, isa_name(isa)) == 0) {
                pick = clamp_to_supported(isa);
            }
        }
        // Unknown values keep the CPUID pick (no hard failure: benches
        // and tests set this knob on hosts of unknown capability).
    }
    g_active_isa.store(static_cast<int>(pick), std::memory_order_relaxed);
}

}  // namespace

bool
isa_supported(Isa isa)
{
    if (isa == Isa::kScalar) return true;
#if ORION_SIMD_X86
    __builtin_cpu_init();
    if (isa == Isa::kAvx2) return __builtin_cpu_supports("avx2") != 0;
    const bool avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                        __builtin_cpu_supports("avx512dq") != 0 &&
                        __builtin_cpu_supports("avx512vl") != 0 &&
                        __builtin_cpu_supports("avx512bw") != 0;
    if (isa == Isa::kAvx512) return avx512;
    return avx512 && __builtin_cpu_supports("avx512ifma") != 0;
#else
    return false;
#endif
}

std::vector<Isa>
supported_isas()
{
    std::vector<Isa> out;
    for (Isa isa : kAllIsas) {
        if (isa_supported(isa)) out.push_back(isa);
    }
    return out;
}

Isa
best_supported_isa()
{
    return clamp_to_supported(Isa::kAvx512Ifma);
}

Isa
active_isa()
{
    std::call_once(g_init_flag, init_dispatch);
    return static_cast<Isa>(g_active_isa.load(std::memory_order_relaxed));
}

void
set_isa(Isa isa)
{
    ORION_CHECK(isa_supported(isa),
                "cannot select unsupported ISA " << isa_name(isa));
    std::call_once(g_init_flag, init_dispatch);
    g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

const char*
isa_name(Isa isa)
{
    switch (isa) {
        case Isa::kScalar: return "scalar";
        case Isa::kAvx2: return "avx2";
        case Isa::kAvx512: return "avx512";
        case Isa::kAvx512Ifma: return "avx512ifma";
    }
    return "unknown";
}

const KernelTable&
table(Isa isa)
{
#if ORION_SIMD_X86
    switch (isa) {
        case Isa::kAvx2: return kAvx2Table;
        case Isa::kAvx512: return kAvx512Table;
        case Isa::kAvx512Ifma: return kAvx512IfmaTable;
        default: return kScalarTable;
    }
#else
    (void)isa;
    return kScalarTable;
#endif
}

const KernelTable&
active()
{
    return table(active_isa());
}

}  // namespace orion::ckks::kernels
