#include "src/ckks/encoder.h"

#include <algorithm>
#include <cmath>

#include "src/core/arena.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

namespace {

/** Elementwise fan-out; see SpecialFft for the bit-identity contract. */
template <typename F>
void
parallel_elementwise(u64 count, F&& fn)
{
    core::parallel_for_chunked(static_cast<i64>(count),
                               [&](i64 k) { fn(static_cast<u64>(k)); });
}

/**
 * Rounds value * scale to an i128. llroundl alone overflows past 2^63,
 * which deep-circuit scales reach (the bootstrap's EvalMod works at
 * Delta^2 before its rescale); beyond that range the long double mantissa
 * already quantizes the product, so floor(x + 0.5) loses nothing more.
 */
i128
round_scaled(long double value, double scale)
{
    const long double x = value * static_cast<long double>(scale);
    if (x >= -9.0e18L && x <= 9.0e18L) {
        return static_cast<i128>(std::llroundl(x));
    }
    return static_cast<i128>(std::floor(x + 0.5L));
}

}  // namespace

Encoder::Encoder(const Context& ctx)
    : ctx_(&ctx), slots_(ctx.degree() / 2), fft_(ctx.degree())
{
}

Plaintext
Encoder::from_slots(std::vector<std::complex<double>> slots, int level,
                    double scale) const
{
    ORION_CHECK(scale > 0, "scale must be positive");
    fft_.inverse(slots.data());

    const u64 n = ctx_->degree();
    const u64 nh = slots_;
    Plaintext pt;
    pt.scale = scale;
    pt.poly = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/false);
    // Coefficient j holds the real part, coefficient j + N/2 the imaginary
    // part of embedding slot j; round to integers at the target scale.
    core::ScratchVec<i128> coeffs(n);
    for (u64 j = 0; j < nh; ++j) {
        coeffs[j] = round_scaled(
            static_cast<long double>(slots[j].real()), scale);
        coeffs[j + nh] = round_scaled(
            static_cast<long double>(slots[j].imag()), scale);
    }
    // Independent per limb: fan the signed reductions out across the pool.
    core::parallel_for(0, pt.poly.num_limbs(), [&](i64 i) {
        const int limb_idx = static_cast<int>(i);
        const Modulus& q = pt.poly.limb_modulus(limb_idx);
        u64* limb = pt.poly.limb(limb_idx);
        for (u64 j = 0; j < n; ++j) {
            limb[j] = reduce_signed_128(coeffs[j], q);
        }
    });
    pt.poly.to_ntt();
    return pt;
}

Plaintext
Encoder::encode_complex(std::span<const std::complex<double>> values,
                        int level, double scale) const
{
    ORION_CHECK(values.size() <= slots_,
                "too many values: " << values.size() << " > " << slots_);
    std::vector<std::complex<double>> slots(slots_, {0.0, 0.0});
    std::copy(values.begin(), values.end(), slots.begin());
    return from_slots(std::move(slots), level, scale);
}

Plaintext
Encoder::encode(std::span<const double> values, int level, double scale) const
{
    ORION_CHECK(values.size() <= slots_,
                "too many values: " << values.size() << " > " << slots_);
    std::vector<std::complex<double>> slots(slots_, {0.0, 0.0});
    for (std::size_t i = 0; i < values.size(); ++i) {
        slots[i] = {values[i], 0.0};
    }
    return from_slots(std::move(slots), level, scale);
}

Plaintext
Encoder::encode_constant(double value, int level, double scale) const
{
    // A constant across all slots embeds to the constant polynomial c, so
    // the special FFT can be skipped entirely; and the NTT of a constant
    // polynomial is c at every evaluation point, so the NTT can be too.
    Plaintext pt;
    pt.scale = scale;
    pt.poly = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/true);
    const i128 c = round_scaled(static_cast<long double>(value), scale);
    const u64 n = ctx_->degree();
    for (int i = 0; i < pt.poly.num_limbs(); ++i) {
        const u64 r = reduce_signed_128(c, pt.poly.limb_modulus(i));
        std::fill(pt.poly.limb(i), pt.poly.limb(i) + n, r);
    }
    return pt;
}

std::vector<double>
Encoder::to_coefficients(const Plaintext& pt) const
{
    // CRT-compose the centered coefficient value from at most two limbs:
    // one limb covers |c| < q_0/2, two limbs cover |c| < q_0*q_1/2, enough
    // for any sensibly-scaled message in this library.
    RnsPoly poly = pt.poly;
    if (poly.is_ntt()) poly.to_coeff();
    const u64 n = ctx_->degree();
    std::vector<double> out(n);
    if (poly.level() == 0) {
        const Modulus& q0 = poly.limb_modulus(0);
        const u64* a = poly.limb(0);
        for (u64 j = 0; j < n; ++j) {
            out[j] = static_cast<double>(to_centered(a[j], q0));
        }
        return out;
    }
    const Modulus& q0 = poly.limb_modulus(0);
    const Modulus& q1 = poly.limb_modulus(1);
    const u128 q01 = u128(q0.value()) * q1.value();
    // Garner: x = x0 + q0 * ((x1 - x0) * q0^{-1} mod q1), centered mod q0*q1.
    const u64 q0_inv_q1 = ctx_->q_inv_mod(0, 1);
    const u64* a0 = poly.limb(0);
    const u64* a1 = poly.limb(1);
    parallel_elementwise(n, [&](u64 j) {
        const u64 diff = sub_mod(a1[j], q1.reduce(a0[j]), q1);
        const u64 t = mul_mod(diff, q0_inv_q1, q1);
        u128 x = u128(a0[j]) + u128(q0.value()) * t;
        // Center modulo q0*q1.
        long double v;
        if (x > q01 / 2) {
            v = -static_cast<long double>(q01 - x);
        } else {
            v = static_cast<long double>(x);
        }
        out[j] = static_cast<double>(v);
    });
    return out;
}

std::vector<std::complex<double>>
Encoder::decode_complex(const Plaintext& pt) const
{
    ORION_CHECK(pt.scale > 0, "plaintext has no scale");
    const std::vector<double> coeffs = to_coefficients(pt);
    const u64 nh = slots_;
    std::vector<std::complex<double>> slots(nh);
    const double inv_scale = 1.0 / pt.scale;
    for (u64 j = 0; j < nh; ++j) {
        slots[j] = {coeffs[j] * inv_scale, coeffs[j + nh] * inv_scale};
    }
    fft_.forward(slots.data());
    return slots;
}

std::vector<double>
Encoder::decode(const Plaintext& pt) const
{
    const std::vector<std::complex<double>> slots = decode_complex(pt);
    std::vector<double> out(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) out[i] = slots[i].real();
    return out;
}

}  // namespace orion::ckks
