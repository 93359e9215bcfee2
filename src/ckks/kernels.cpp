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

// =====================================================================
// Vector kernels
//
// src/ckks/kernels_simd.inc holds every vector kernel once. It is
// included below into one namespace per vector table, and each namespace
// supplies only the lane primitives that file names (struct L) and a
// target attribute:
//   avx2                 4 x u64 lanes
//   avx512               8 x u64 lanes with native 64-bit low multiplies
//                        (VPMULLQ) and mask-register compares
//   avx512ifma::narrow   avx512's lanes with IFMA52 multiplies, for
//                        moduli below 2^50
//
// Per-lane range proofs are the scalar kernels': each lane performs the
// scalar u64 operations word for word ([0, 2q) Shoup products, [0, 4q)
// butterfly values, 128-bit chunk accumulators below 2^127). The only
// vector-specific construction in avx2 and avx512 is the 64x64->128
// multiply, decomposed into 32-bit partial products:
//   mid  = p_lh + (p_ll >> 32)          <= (2^32-1)^2 + (2^32-1) < 2^64
//   mid2 = p_hl + (mid & 0xffffffff)    <= (2^32-1)^2 + (2^32-1) < 2^64
//   hi   = p_hh + (mid >> 32) + (mid2 >> 32)
// — every intermediate fits a u64 lane with no carries lost, so the
// (hi, lo) pair equals the scalar u128 product exactly. The narrow
// lanes' own proofs are stated at their namespace.
// =====================================================================

namespace avx2 {

#define ORION_KERNEL_TARGET __attribute__((target("avx2")))

ORION_KERNEL_TARGET static inline __m256i
mullo64(__m256i a, __m256i b)
{
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                           _mm256_mul_epu32(a_hi, b));
    return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                            _mm256_slli_epi64(cross, 32));
}

ORION_KERNEL_TARGET static inline __m256i
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
ORION_KERNEL_TARGET static inline __m256i
cmpgt64u(__m256i a, __m256i b)
{
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<i64>(0x8000000000000000ULL));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
}

struct L {
    using V = __m256i;
    static constexpr u64 W = 4;
    /** 16 products below 2^122 plus a carried-in residue stay below
     *  2^127. */
    static constexpr u64 kChunk = 16;
    /** The 128-bit lane value lo + hi * 2^64. */
    struct Acc {
        V lo, hi;
    };

    ORION_KERNEL_TARGET static V
    load(const u64* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    ORION_KERNEL_TARGET static void
    store(u64* p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    ORION_KERNEL_TARGET static V
    set1(u64 x)
    {
        return _mm256_set1_epi64x(static_cast<i64>(x));
    }
    ORION_KERNEL_TARGET static V zero() { return _mm256_setzero_si256(); }
    ORION_KERNEL_TARGET static V
    add(V a, V b)
    {
        return _mm256_add_epi64(a, b);
    }
    ORION_KERNEL_TARGET static V
    sub(V a, V b)
    {
        return _mm256_sub_epi64(a, b);
    }

    ORION_KERNEL_TARGET static V
    csub(V a, V bound)
    {
        const V keep = cmpgt64u(bound, a);  // bound > a -> keep
        return _mm256_sub_epi64(a, _mm256_andnot_si256(keep, bound));
    }
    /** a - b, plus q where b > a (wraps exactly like the scalar branch). */
    ORION_KERNEL_TARGET static V
    sub_mod(V a, V b, V qv)
    {
        const V borrow = cmpgt64u(b, a);
        return _mm256_add_epi64(_mm256_sub_epi64(a, b),
                                _mm256_and_si256(borrow, qv));
    }
    /** a * w - ((a * ws) >> 64) * q, in [0, 2q). */
    ORION_KERNEL_TARGET static V
    shoup_lazy(V a, V w, V ws, V qv)
    {
        return _mm256_sub_epi64(mullo64(a, w), mullo64(mulhi64(a, ws), qv));
    }

    ORION_KERNEL_TARGET static Acc acc(V lo) { return {lo, zero()}; }
    ORION_KERNEL_TARGET static Acc
    mul_wide(V x, V y)
    {
        return {mullo64(x, y), mulhi64(x, y)};
    }
    ORION_KERNEL_TARGET static Acc
    mac(Acc s, V x, V y)
    {
        const V p_lo = mullo64(x, y);
        const V p_hi = mulhi64(x, y);
        const V sum = _mm256_add_epi64(s.lo, p_lo);
        const V carry = cmpgt64u(s.lo, sum);  // sum < lo -> carried
        return {sum, _mm256_sub_epi64(_mm256_add_epi64(s.hi, p_hi), carry)};
    }
    /** The Acc holding a + x * y, the carry taken against the product:
     *  mac(acc(a), x, y) compares against a and ran add_product_n up to
     *  1.9x slower. */
    ORION_KERNEL_TARGET static Acc
    mad(V a, V x, V y)
    {
        const V p_lo = mullo64(x, y);
        const V p_hi = mulhi64(x, y);
        const V lo = _mm256_add_epi64(p_lo, a);
        return {lo, _mm256_sub_epi64(p_hi, cmpgt64u(p_lo, lo))};
    }
    /**
     * Modulus::reduce_128 of (x0, x1) = (s.lo, s.hi), the scalar word
     * schedule: t = ((x0*r0) >> 64) + x0*r1 + x1*r0 as an exact pair,
     * q_hat = hi(t) + x1*r1 wrapping, r = x0 - q_hat*q wrapping, one csub.
     */
    ORION_KERNEL_TARGET static V
    reduce(Acc s, V r0, V r1, V qv)
    {
        const Acc t = mac(mac(acc(mulhi64(s.lo, r0)), s.lo, r1), s.hi, r0);
        const V q_hat = _mm256_add_epi64(t.hi, mullo64(s.hi, r1));
        return csub(_mm256_sub_epi64(s.lo, mullo64(q_hat, qv)), qv);
    }

    // Fused NTT stages, S in {2, 1}: a pair holds 8 elements.
    template <int S>
    ORION_KERNEL_TARGET static V
    load_twiddles(const u64* tab, u64 m, u64 blk)
    {
        if constexpr (S == 2) {
            // Two blocks per vector: each twiddle twice (w0 w0 w1 w1).
            const __m128i w2 = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(tab + m + blk));
            return _mm256_permute4x64_epi64(_mm256_castsi128_si256(w2), 0x50);
        } else {
            return load(tab + m + blk);
        }
    }
    template <int S>
    ORION_KERNEL_TARGET static void
    deinterleave(V va, V vb, V* x, V* y)
    {
        if constexpr (S == 2) {
            *x = _mm256_permute2x128_si256(va, vb, 0x20);  // e0 e1 | e4 e5
            *y = _mm256_permute2x128_si256(va, vb, 0x31);  // e2 e3 | e6 e7
        } else {
            const V ta = _mm256_permute4x64_epi64(va, 0xD8);  // a0 a2 a1 a3
            const V tb = _mm256_permute4x64_epi64(vb, 0xD8);
            *x = _mm256_permute2x128_si256(ta, tb, 0x20);  // e0 e2 e4 e6
            *y = _mm256_permute2x128_si256(ta, tb, 0x31);  // e1 e3 e5 e7
        }
    }
    template <int S>
    ORION_KERNEL_TARGET static void
    interleave(V x, V y, V* va, V* vb)
    {
        if constexpr (S == 2) {
            *va = _mm256_permute2x128_si256(x, y, 0x20);  // x0 x1 y0 y1
            *vb = _mm256_permute2x128_si256(x, y, 0x31);  // x2 x3 y2 y3
        } else {
            const V u0 = _mm256_unpacklo_epi64(x, y);     // x0 y0 x2 y2
            const V u1 = _mm256_unpackhi_epi64(x, y);     // x1 y1 x3 y3
            *va = _mm256_permute2x128_si256(u0, u1, 0x20);  // x0 y0 x1 y1
            *vb = _mm256_permute2x128_si256(u0, u1, 0x31);  // x2 y2 x3 y3
        }
    }
};

#include "src/ckks/kernels_simd.inc"
#undef ORION_KERNEL_TARGET

}  // namespace avx2

namespace avx512 {

#define ORION_KERNEL_TARGET \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))

ORION_KERNEL_TARGET static inline __m512i
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

/** Deinterleaved position of butterfly-top k in a 16-element pair. */
template <int S>
constexpr i64
deint_lane(int k)
{
    return 2 * S * (k / S) + k % S;
}

/** Source lane of output element p: x lanes are 0..7, y lanes 8..15. */
template <int S>
constexpr i64
inter_lane(int p)
{
    const int b = p / (2 * S);
    const int r = p % (2 * S);
    return r < S ? b * S + r : 8 + b * S + r - S;
}

template <int S>
ORION_KERNEL_TARGET static inline __m512i
deint_x_idx()
{
    return _mm512_set_epi64(deint_lane<S>(7), deint_lane<S>(6),
                            deint_lane<S>(5), deint_lane<S>(4),
                            deint_lane<S>(3), deint_lane<S>(2),
                            deint_lane<S>(1), deint_lane<S>(0));
}

template <int S, int Base>
ORION_KERNEL_TARGET static inline __m512i
inter_idx()
{
    return _mm512_set_epi64(inter_lane<S>(Base + 7), inter_lane<S>(Base + 6),
                            inter_lane<S>(Base + 5), inter_lane<S>(Base + 4),
                            inter_lane<S>(Base + 3), inter_lane<S>(Base + 2),
                            inter_lane<S>(Base + 1), inter_lane<S>(Base + 0));
}

struct L {
    using V = __m512i;
    static constexpr u64 W = 8;
    /** 16 products below 2^122 plus a carried-in residue stay below
     *  2^127. */
    static constexpr u64 kChunk = 16;
    /** The 128-bit lane value lo + hi * 2^64. */
    struct Acc {
        V lo, hi;
    };

    ORION_KERNEL_TARGET static V
    load(const u64* p)
    {
        return _mm512_loadu_si512(p);
    }
    ORION_KERNEL_TARGET static void
    store(u64* p, V v)
    {
        _mm512_storeu_si512(p, v);
    }
    ORION_KERNEL_TARGET static V
    set1(u64 x)
    {
        return _mm512_set1_epi64(static_cast<i64>(x));
    }
    ORION_KERNEL_TARGET static V zero() { return _mm512_setzero_si512(); }
    ORION_KERNEL_TARGET static V
    add(V a, V b)
    {
        return _mm512_add_epi64(a, b);
    }
    ORION_KERNEL_TARGET static V
    sub(V a, V b)
    {
        return _mm512_sub_epi64(a, b);
    }

    ORION_KERNEL_TARGET static V
    csub(V a, V bound)
    {
        const __mmask8 ge = _mm512_cmpge_epu64_mask(a, bound);
        return _mm512_mask_sub_epi64(a, ge, a, bound);
    }
    ORION_KERNEL_TARGET static V
    sub_mod(V a, V b, V qv)
    {
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(a, b);
        const V d = _mm512_sub_epi64(a, b);
        return _mm512_mask_add_epi64(d, borrow, d, qv);
    }
    ORION_KERNEL_TARGET static V
    shoup_lazy(V a, V w, V ws, V qv)
    {
        return _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                                _mm512_mullo_epi64(mulhi64(a, ws), qv));
    }

    ORION_KERNEL_TARGET static Acc acc(V lo) { return {lo, zero()}; }
    ORION_KERNEL_TARGET static Acc
    mul_wide(V x, V y)
    {
        return {_mm512_mullo_epi64(x, y), mulhi64(x, y)};
    }
    ORION_KERNEL_TARGET static Acc
    mac(Acc s, V x, V y)
    {
        const V p_lo = _mm512_mullo_epi64(x, y);
        const V p_hi = mulhi64(x, y);
        const V sum = _mm512_add_epi64(s.lo, p_lo);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(sum, s.lo);
        return {sum, _mm512_sub_epi64(_mm512_add_epi64(s.hi, p_hi),
                                      _mm512_movm_epi64(carry))};
    }
    /** avx2::L::mad on 8 lanes. */
    ORION_KERNEL_TARGET static Acc
    mad(V a, V x, V y)
    {
        const V p_lo = _mm512_mullo_epi64(x, y);
        const V p_hi = mulhi64(x, y);
        const V lo = _mm512_add_epi64(p_lo, a);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(lo, p_lo);
        return {lo, _mm512_sub_epi64(p_hi, _mm512_movm_epi64(carry))};
    }
    /** avx2::L::reduce's schedule on 8 lanes. */
    ORION_KERNEL_TARGET static V
    reduce(Acc s, V r0, V r1, V qv)
    {
        const Acc t = mac(mac(acc(mulhi64(s.lo, r0)), s.lo, r1), s.hi, r0);
        const V q_hat = _mm512_add_epi64(t.hi, _mm512_mullo_epi64(s.hi, r1));
        return csub(_mm512_sub_epi64(s.lo, _mm512_mullo_epi64(q_hat, qv)),
                    qv);
    }

    // Fused NTT stages, S in {4, 2, 1}: a pair holds 16 elements, split
    // and merged by two-source permutes.
    template <int S>
    ORION_KERNEL_TARGET static V
    load_twiddles(const u64* tab, u64 m, u64 blk)
    {
        // Reads only the blocks' own entries: the table slice [m, 2m) is
        // exactly as long as the stage needs.
        if constexpr (S == 4) {
            const __m128i w2 = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(tab + m + blk));
            const V idx = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
            return _mm512_permutexvar_epi64(idx, _mm512_castsi128_si512(w2));
        } else if constexpr (S == 2) {
            const __m256i w4 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(tab + m + blk));
            const V idx = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);
            return _mm512_permutexvar_epi64(idx, _mm512_castsi256_si512(w4));
        } else {
            return load(tab + m + blk);
        }
    }
    template <int S>
    ORION_KERNEL_TARGET static void
    deinterleave(V va, V vb, V* x, V* y)
    {
        const V xi = deint_x_idx<S>();
        *x = _mm512_permutex2var_epi64(va, xi, vb);
        *y = _mm512_permutex2var_epi64(va, add(xi, set1(S)), vb);
    }
    template <int S>
    ORION_KERNEL_TARGET static void
    interleave(V x, V y, V* va, V* vb)
    {
        *va = _mm512_permutex2var_epi64(x, inter_idx<S, 0>(), y);
        *vb = _mm512_permutex2var_epi64(x, inter_idx<S, 8>(), y);
    }
};

#include "src/ckks/kernels_simd.inc"
#undef ORION_KERNEL_TARGET

}  // namespace avx512

// =====================================================================
// AVX-512 IFMA52 table
//
// VPMADD52LUQ / VPMADD52HUQ multiply the low 52 bits of two lanes and
// add the low / high 52 bits of the 104-bit product to a 64-bit lane.
// Below 2^50 every operand the kernels multiply fits 52 bits, so one
// instruction replaces the four VPMULUDQ partial products of mulhi64.
// The narrow lanes are avx512's with those multiplies; a limb whose
// modulus is 2^50 or more (or a base conversion whose rows are 2^52 or
// more) runs the whole call on the avx512 instantiation instead.
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
//    lanes. lo + hi * 2^52 is then the exact sum, and reduce maps it
//    to the same canonical residue as the scalar u128 loop. Base
//    conversion rows below 2^52 and hats below q: 32 terms keep
//    lo < 2^57 and hi < 2^55.
// =====================================================================

namespace avx512ifma {

/** True when q admits the 52-bit products (lazy values < 4q < 2^52). */
inline bool
fits52(const Modulus& q)
{
    return q.value() < (u64(1) << 50);
}

namespace narrow {

#define ORION_KERNEL_TARGET \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,avx512ifma")))

struct L : avx512::L {
    static constexpr u64 kChunk = u64(1) << 11;

    /**
     * a * w - hi * q with hi = floor(a * (ws >> 12) / 2^52), in [0, 2q)
     * for a < 2^52. The difference is taken modulo 2^52 (its true value
     * is below 2^51).
     */
    ORION_KERNEL_TARGET static V
    shoup_lazy(V a, V w, V ws, V qv)
    {
        const V hi =
            _mm512_madd52hi_epu64(zero(), a, _mm512_srli_epi64(ws, 12));
        const V r = _mm512_sub_epi64(_mm512_madd52lo_epu64(zero(), a, w),
                                     _mm512_madd52lo_epu64(zero(), hi, qv));
        return _mm512_and_epi64(r, _mm512_set1_epi64((i64(1) << 52) - 1));
    }

    // An Acc holds the lane value lo + hi * 2^52.
    ORION_KERNEL_TARGET static Acc
    mul_wide(V x, V y)
    {
        return {_mm512_madd52lo_epu64(zero(), x, y),
                _mm512_madd52hi_epu64(zero(), x, y)};
    }
    ORION_KERNEL_TARGET static Acc
    mac(Acc s, V x, V y)
    {
        return {_mm512_madd52lo_epu64(s.lo, x, y),
                _mm512_madd52hi_epu64(s.hi, x, y)};
    }
    ORION_KERNEL_TARGET static Acc
    mad(V a, V x, V y)
    {
        return mac(acc(a), x, y);
    }
    /** avx512::L::reduce of the exact value lo + hi * 2^52. */
    ORION_KERNEL_TARGET static V
    reduce(Acc s, V r0, V r1, V qv)
    {
        const V x0 = _mm512_add_epi64(s.lo, _mm512_slli_epi64(s.hi, 52));
        const __mmask8 carry = _mm512_cmplt_epu64_mask(x0, s.lo);
        const V top = _mm512_srli_epi64(s.hi, 12);
        const V x1 = _mm512_mask_add_epi64(top, carry, top, set1(1));
        return avx512::L::reduce({x0, x1}, r0, r1, qv);
    }
};

#include "src/ckks/kernels_simd.inc"
#undef ORION_KERNEL_TARGET

}  // namespace narrow

// Routing: the narrow instantiation where fits52 holds, else avx512.

void
ntt_forward(const NttView& v, u64* a)
{
    if (fits52(v.q)) return narrow::ntt_forward(v, a);
    avx512::ntt_forward(v, a);
}

void
ntt_inverse(const NttView& v, u64* a)
{
    if (fits52(v.q)) return narrow::ntt_inverse(v, a);
    avx512::ntt_inverse(v, a);
}

void
mul_mod_n(u64* a, const u64* b, u64 n, const Modulus& q)
{
    if (fits52(q)) return narrow::mul_mod_n(a, b, n, q);
    avx512::mul_mod_n(a, b, n, q);
}

void
add_product_n(u64* a, const u64* x, const u64* y, u64 n, const Modulus& q)
{
    if (fits52(q)) return narrow::add_product_n(a, x, y, n, q);
    avx512::add_product_n(a, x, y, n, q);
}

void
mul_scalar_shoup_n(u64* a, const u64* src, u64 n, u64 w, u64 w_shoup,
                   const Modulus& q)
{
    if (fits52(q)) return narrow::mul_scalar_shoup_n(a, src, n, w, w_shoup, q);
    avx512::mul_scalar_shoup_n(a, src, n, w, w_shoup, q);
}

void
ks_inner_product(u64* o0, u64* o1, const u64* const* xs, const u64* const* bs,
                 const u64* const* as, u64 num_digits, u64 n, const Modulus& q)
{
    if (fits52(q)) {
        return narrow::ks_inner_product(o0, o1, xs, bs, as, num_digits, n, q);
    }
    avx512::ks_inner_product(o0, o1, xs, bs, as, num_digits, n, q);
}

void
base_conv_acc(u64* dst, const u64* const* lams, const u64* hats, int len,
              u64 n, const Modulus& q, u64 row_bound)
{
    if (fits52(q) && row_bound <= u64(1) << 52) {
        return narrow::base_conv_acc(dst, lams, hats, len, n, q, row_bound);
    }
    avx512::base_conv_acc(dst, lams, hats, len, n, q, row_bound);
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
