// The cleartext convolution behind lin::conv2d_reference: range
// estimation, the simulator and every packing test run through it. See
// DESIGN.md "Cleartext convolution kernel".

#include "src/linalg/conv_kernel.h"

#include <algorithm>
#include <cstdint>

#include "src/ckks/kernels.h"
#include "src/core/thread_pool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ORION_CONV_X86 1
#include <immintrin.h>
#else
#define ORION_CONV_X86 0
#endif

namespace orion::lin {

namespace {

using detail::Span;

/** One convolution, as every tile reads it. */
struct ConvProblem {
    const Conv2dSpec* spec;
    const double* weights;  ///< [co][ci/groups][kh][kw]
    const double* input;    ///< [ci][in_h][in_w]
    double* out;            ///< [co][oh][ow]
    int in_h, in_w, oh, ow;
    int cpg, opg;           ///< input / output channels per group
    const Span* ys;         ///< per ky: output rows that tap reads validly
    const Span* xs;         ///< per kx: output columns likewise
};

/** Output channels per pixel tile (the last block of a group may be short). */
constexpr int kPixelChannels = 8;
/** Output rows per pixel tile. */
constexpr int kBandRows = 8;

/**
 * The address of element `offset` of `row`, for the first lane of an
 * input vector. When that lane is masked off it may lie outside the
 * input; it is formed as an integer, never as out-of-bounds pointer
 * arithmetic, and masked lanes are never read.
 */
const double*
lane_address(const double* row, i64 offset)
{
    return reinterpret_cast<const double*>(
        reinterpret_cast<std::uintptr_t>(row) +
        static_cast<std::uintptr_t>(offset) * sizeof(double));
}

/**
 * Lane primitives, the contract every ISA's L meets. Lanes at positions
 * lo..hi of mask(lo, hi) (clipped to the vector) are active; load and
 * gather return 0.0 in inactive lanes and never read their addresses;
 * madd returns acc + w * x in active lanes, as a rounded multiply
 * followed by a rounded add, and acc elsewhere; store writes active
 * lanes only.
 */
namespace scalar {

#define ORION_CONV_TARGET

struct L {
    static constexpr int kWidth = 1;
    using Reg = double;
    using Mask = bool;
    using Index = i64;

    static Mask mask(int lo, int hi) { return lo <= 0 && hi >= 0; }
    static Reg zero() { return 0.0; }
    static Reg broadcast(const double* p) { return *p; }
    static Reg load(Mask m, const double* p) { return m ? *p : 0.0; }
    static Index index(const i64* v) { return v[0]; }
    static Reg
    gather(Mask m, const double* base, Index idx)
    {
        return m ? base[idx] : 0.0;
    }
    // The build passes -ffp-contract=off, so this stays a multiply and
    // an add on FMA hosts too.
    static Reg
    madd(Reg acc, Mask m, Reg w, Reg x)
    {
        return m ? acc + w * x : acc;
    }
    static void
    store(Mask m, double* p, Reg v)
    {
        if (m) *p = v;
    }
};

#include "src/linalg/conv_kernel.inc"
#undef ORION_CONV_TARGET

}  // namespace scalar

#if ORION_CONV_X86

namespace avx2 {

#define ORION_CONV_TARGET __attribute__((target("avx2")))

struct L {
    static constexpr int kWidth = 4;
    using Reg = __m256d;
    using Mask = __m256i;  ///< all-ones lanes are active
    using Index = __m256i;

    ORION_CONV_TARGET static Mask
    mask(int lo, int hi)
    {
        const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
        return _mm256_and_si256(
            _mm256_cmpgt_epi64(iota, _mm256_set1_epi64x(lo - 1)),
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(hi + 1), iota));
    }
    ORION_CONV_TARGET static Reg zero() { return _mm256_setzero_pd(); }
    ORION_CONV_TARGET static Reg
    broadcast(const double* p)
    {
        return _mm256_broadcast_sd(p);
    }
    ORION_CONV_TARGET static Reg
    load(Mask m, const double* p)
    {
        return _mm256_maskload_pd(p, m);
    }
    ORION_CONV_TARGET static Index
    index(const i64* v)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    }
    ORION_CONV_TARGET static Reg
    gather(Mask m, const double* base, Index idx)
    {
        return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), base, idx,
                                        _mm256_castsi256_pd(m), 8);
    }
    // Inactive lanes add +0.0, which leaves acc unchanged: an accumulator
    // that starts at +0.0 is never -0.0, since a round-to-nearest sum is
    // -0.0 only when both addends are. The AND between the multiply and
    // the add also keeps the pair from contracting into an FMA.
    ORION_CONV_TARGET static Reg
    madd(Reg acc, Mask m, Reg w, Reg x)
    {
        return _mm256_add_pd(
            acc, _mm256_and_pd(_mm256_mul_pd(w, x), _mm256_castsi256_pd(m)));
    }
    ORION_CONV_TARGET static void
    store(Mask m, double* p, Reg v)
    {
        _mm256_maskstore_pd(p, m, v);
    }
};

#include "src/linalg/conv_kernel.inc"
#undef ORION_CONV_TARGET

}  // namespace avx2

namespace avx512 {

#define ORION_CONV_TARGET \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))

struct L {
    static constexpr int kWidth = 8;
    using Reg = __m512d;
    using Mask = __mmask8;
    using Index = __m512i;

    ORION_CONV_TARGET static Mask
    mask(int lo, int hi)
    {
        lo = std::max(lo, 0);
        hi = std::min(hi, kWidth - 1);
        if (lo > hi) return 0;
        return static_cast<Mask>(((2u << hi) - 1u) & ~((1u << lo) - 1u));
    }
    ORION_CONV_TARGET static Reg zero() { return _mm512_setzero_pd(); }
    ORION_CONV_TARGET static Reg
    broadcast(const double* p)
    {
        return _mm512_set1_pd(*p);
    }
    ORION_CONV_TARGET static Reg
    load(Mask m, const double* p)
    {
        return _mm512_maskz_loadu_pd(m, p);
    }
    ORION_CONV_TARGET static Index
    index(const i64* v)
    {
        return _mm512_loadu_si512(v);
    }
    ORION_CONV_TARGET static Reg
    gather(Mask m, const double* base, Index idx)
    {
        return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), m, idx, base, 8);
    }
    // The masked add is a builtin, not a plain vector sum, so the
    // compiler cannot contract it with the multiply.
    ORION_CONV_TARGET static Reg
    madd(Reg acc, Mask m, Reg w, Reg x)
    {
        return _mm512_mask_add_pd(acc, m, acc, _mm512_mul_pd(w, x));
    }
    ORION_CONV_TARGET static void
    store(Mask m, double* p, Reg v)
    {
        _mm512_mask_storeu_pd(p, m, v);
    }
};

#include "src/linalg/conv_kernel.inc"
#undef ORION_CONV_TARGET

}  // namespace avx512

#endif  // ORION_CONV_X86

/** One ISA's tile entry point: pixel_block. */
using PixelBlock = void (*)(const ConvProblem&, int o0, int n, int y0, int y1);

PixelBlock
kernel_for(ckks::kernels::Isa isa)
{
#if ORION_CONV_X86
    switch (isa) {
    case ckks::kernels::Isa::kAvx2: return avx2::pixel_block;
    case ckks::kernels::Isa::kAvx512:
    case ckks::kernels::Isa::kAvx512Ifma: return avx512::pixel_block;
    default: break;
    }
#else
    (void)isa;
#endif
    return scalar::pixel_block;
}

}  // namespace

std::vector<double>
conv2d_reference(const Conv2dSpec& spec, const std::vector<double>& weights,
                 const std::vector<double>& input, int in_h, int in_w)
{
    spec.validate();
    ORION_CHECK(input.size() == static_cast<std::size_t>(spec.in_channels) *
                                    in_h * in_w,
                "input size mismatch");
    ORION_CHECK(weights.size() == spec.weight_count(),
                "weight count mismatch");
    const int oh = spec.out_h(in_h);
    const int ow = spec.out_w(in_w);
    std::vector<double> out(
        static_cast<std::size_t>(spec.out_channels) * oh * ow, 0.0);
    const std::vector<Span> ys =
        detail::tap_spans(spec, spec.kernel_h, oh, in_h);
    const std::vector<Span> xs =
        detail::tap_spans(spec, spec.kernel_w, ow, in_w);
    const ConvProblem p = {&spec,
                           weights.data(),
                           input.data(),
                           out.data(),
                           in_h,
                           in_w,
                           oh,
                           ow,
                           spec.in_channels / spec.groups,
                           spec.out_channels / spec.groups,
                           ys.data(),
                           xs.data()};
    const PixelBlock pixel = kernel_for(ckks::kernels::active_isa());

    // The tiles depend on the shape and the ISA, never on the thread
    // count, and each output element is written by one tile.
    const int blocks = (p.opg + kPixelChannels - 1) / kPixelChannels;
    const int bands = (oh + kBandRows - 1) / kBandRows;
    core::parallel_for(
        0, static_cast<i64>(spec.groups) * blocks * bands, [&](i64 t) {
            const int band = static_cast<int>(t % bands);
            const int block = static_cast<int>(t / bands % blocks);
            const int group = static_cast<int>(t / bands / blocks);
            const int first = block * kPixelChannels;
            pixel(p, group * p.opg + first,
                  std::min(kPixelChannels, p.opg - first), band * kBandRows,
                  std::min(oh, (band + 1) * kBandRows));
        });
    return out;
}

}  // namespace orion::lin
