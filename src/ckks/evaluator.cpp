#include "src/ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "src/ckks/kernels.h"
#include "src/core/arena.h"
#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

void
Evaluator::check_additive_compat(const Ciphertext& a,
                                 const Ciphertext& b) const
{
    ORION_CHECK(a.level() == b.level(),
                "level mismatch: " << a.level() << " vs " << b.level());
    ORION_CHECK(scales_match(a.scale, b.scale),
                "scale mismatch: " << a.scale << " vs " << b.scale);
}

Ciphertext
Evaluator::add(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = a;
    add_inplace(out, b);
    return out;
}

void
Evaluator::add_inplace(Ciphertext& a, const Ciphertext& b) const
{
    check_additive_compat(a, b);
    a.c0.add_inplace(b.c0);
    a.c1.add_inplace(b.c1);
    ctx_->counters().hadd += 1;
}

void
Evaluator::sub_inplace(Ciphertext& a, const Ciphertext& b) const
{
    check_additive_compat(a, b);
    a.c0.sub_inplace(b.c0);
    a.c1.sub_inplace(b.c1);
    ctx_->counters().hadd += 1;
}

void
Evaluator::add_plain_inplace(Ciphertext& a, const Plaintext& p) const
{
    ORION_CHECK(a.level() == p.level(), "level mismatch in add_plain");
    ORION_CHECK(scales_match(a.scale, p.scale),
                "scale mismatch in add_plain: " << a.scale << " vs "
                                                << p.scale);
    a.c0.add_inplace(p.poly);
    ctx_->counters().hadd += 1;
}

void
Evaluator::sub_plain_inplace(Ciphertext& a, const Plaintext& p) const
{
    ORION_CHECK(a.level() == p.level(), "level mismatch in sub_plain");
    ORION_CHECK(scales_match(a.scale, p.scale), "scale mismatch in sub_plain");
    a.c0.sub_inplace(p.poly);
    ctx_->counters().hadd += 1;
}

void
Evaluator::negate_inplace(Ciphertext& a) const
{
    a.c0.negate_inplace();
    a.c1.negate_inplace();
}

void
Evaluator::add_constant_inplace(Ciphertext& a, double v) const
{
    const Plaintext p = encoder_->encode_constant(v, a.level(), a.scale);
    add_plain_inplace(a, p);
}

Ciphertext
Evaluator::mul_plain(const Ciphertext& a, const Plaintext& p) const
{
    Ciphertext out = a;
    mul_plain_inplace(out, p);
    return out;
}

void
Evaluator::mul_plain_inplace(Ciphertext& a, const Plaintext& p) const
{
    ORION_CHECK(a.level() == p.level(), "level mismatch in mul_plain");
    a.c0.mul_pointwise_inplace(p.poly);
    a.c1.mul_pointwise_inplace(p.poly);
    a.scale *= p.scale;
    ctx_->counters().pmult += 1;
}

Ciphertext
Evaluator::mul_plain_sum(std::span<const Ciphertext* const> cts,
                         std::span<const Plaintext* const> pts) const
{
    ORION_CHECK(!cts.empty(), "mul_plain_sum needs at least one term");
    ORION_CHECK(cts.size() == pts.size(),
                "mul_plain_sum: " << cts.size() << " ciphertexts vs "
                                  << pts.size() << " plaintexts");
    const int level = cts[0]->level();
    const double scale = cts[0]->scale * pts[0]->scale;
    for (std::size_t t = 0; t < cts.size(); ++t) {
        ORION_CHECK(cts[t]->level() == level && pts[t]->level() == level,
                    "level mismatch in mul_plain_sum term "
                        << t << ": ciphertext " << cts[t]->level()
                        << ", plaintext " << pts[t]->level() << ", term 0 "
                        << level);
        ORION_CHECK(scales_match(cts[t]->scale * pts[t]->scale, scale),
                    "scale mismatch in mul_plain_sum term "
                        << t << ": " << cts[t]->scale * pts[t]->scale
                        << " vs term 0 " << scale);
        ORION_ASSERT(cts[t]->c0.is_ntt() && cts[t]->c1.is_ntt() &&
                     pts[t]->poly.is_ntt());
    }

    // The key-switch inner-product kernel computes exactly this sum: xs =
    // plaintext limbs, bs = c0 limbs, as = c1 limbs, accumulated in u128
    // with one Barrett reduction per output. Canonical [0, q) inputs make
    // the residues those of the eager mul_mod + add_mod loop. Slices of at
    // most kSlice terms keep the kernel at 3 * 16 input streams; wider
    // calls thrash the caches, and the partial sums carry in o0/o1.
    constexpr std::size_t kSlice = 16;
    const std::size_t terms = cts.size();
    const u64 n = ctx_->degree();
    Ciphertext out;
    out.scale = scale;
    out.c0 = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/true);
    out.c1 = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/true);
    core::parallel_for(0, out.c0.num_limbs(), [&](i64 li) {
        const int i = static_cast<int>(li);
        core::ScratchVec<const u64*> xs(terms), bs(terms), as(terms);
        for (std::size_t t = 0; t < terms; ++t) {
            xs[t] = pts[t]->poly.limb(i);
            bs[t] = cts[t]->c0.limb(i);
            as[t] = cts[t]->c1.limb(i);
        }
        const Modulus& q = out.c0.limb_modulus(i);
        for (std::size_t b = 0; b < terms; b += kSlice) {
            kernels::active().ks_inner_product(
                out.c0.limb(i), out.c1.limb(i), xs.data() + b, bs.data() + b,
                as.data() + b, std::min(kSlice, terms - b), n, q);
        }
    });
    ctx_->counters().pmult += terms;
    ctx_->counters().hadd += terms - 1;
    return out;
}

Ciphertext
Evaluator::mul(const Ciphertext& a, const Ciphertext& b) const
{
    TELEM_SPAN("eval.mul");
    ORION_CHECK(relin_ != nullptr, "relinearization key not set");
    ORION_CHECK(a.level() == b.level(), "level mismatch in mul");

    // Tensor product: (c0, c1) x (c0', c1') = (d0, d1, d2).
    RnsPoly d0 = a.c0;
    d0.mul_pointwise_inplace(b.c0);
    RnsPoly d1 = a.c0;
    d1.mul_pointwise_inplace(b.c1);
    d1.add_product_inplace(a.c1, b.c0);
    RnsPoly d2 = a.c1;
    d2.mul_pointwise_inplace(b.c1);

    // Relinearize d2 (the s^2 component) back to (r0, r1).
    RnsPoly r0, r1;
    switcher_.apply(d2, *relin_, &r0, &r1);

    Ciphertext out;
    out.scale = a.scale * b.scale;
    out.c0 = std::move(d0);
    out.c0.add_inplace(r0);
    out.c1 = std::move(d1);
    out.c1.add_inplace(r1);
    ctx_->counters().hmult += 1;
    return out;
}

Ciphertext
Evaluator::square(const Ciphertext& a) const
{
    return mul(a, a);
}

void
Evaluator::mul_constant_inplace(Ciphertext& a, double v, double scale) const
{
    const Plaintext p = encoder_->encode_constant(v, a.level(), scale);
    mul_plain_inplace(a, p);
}

void
Evaluator::rescale_inplace(Ciphertext& a) const
{
    TELEM_SPAN("eval.rescale");
    const double q_last =
        static_cast<double>(ctx_->q(a.level()).value());
    a.c0.rescale_drop_last();
    a.c1.rescale_drop_last();
    a.scale /= q_last;
    ctx_->counters().rescale += 1;
}

void
Evaluator::drop_to_level_inplace(Ciphertext& a, int level) const
{
    a.c0.drop_to_level(level);
    a.c1.drop_to_level(level);
}

const KswitchKey&
Evaluator::galois_key_for_step(int step) const
{
    ORION_CHECK(galois_ != nullptr, "Galois keys not set");
    return galois_->at(ctx_->galois_elt(step));
}

Ciphertext
Evaluator::rotate_internal(const Ciphertext& a, u64 elt) const
{
    TELEM_SPAN("eval.rotate");
    ORION_CHECK(galois_ != nullptr, "Galois keys not set");
    const KswitchKey& key = galois_->at(elt);
    const std::vector<u32>& perm = ctx_->galois_permutation(elt);

    RnsPoly c1r = a.c1.galois_with_permutation(perm);
    RnsPoly ks0, ks1;
    switcher_.apply(c1r, key, &ks0, &ks1);

    Ciphertext out;
    out.scale = a.scale;
    out.c0 = a.c0.galois_with_permutation(perm);
    out.c0.add_inplace(ks0);
    out.c1 = std::move(ks1);
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext& a, int step) const
{
    const u64 slots = ctx_->slot_count();
    if (static_cast<u64>(((step % static_cast<i64>(slots)) + slots)) % slots ==
        0) {
        return a;
    }
    ctx_->counters().hrot += 1;
    return rotate_internal(a, ctx_->galois_elt(step));
}

Ciphertext
Evaluator::conjugate(const Ciphertext& a) const
{
    ctx_->counters().hrot += 1;
    return rotate_internal(a, ctx_->galois_elt_conj());
}

void
Evaluator::mul_by_i_inplace(Ciphertext& a, bool negative) const
{
    // X^{N/2} evaluates to i in every slot of the rot-group ordering
    // (5^j = 1 mod 4); -X^{N/2} = X^{3N/2} evaluates to -i. A monomial
    // with a +-1 coefficient is a unit of the ring, so this is an exact
    // integer operation: no noise growth, no scale change, no level cost.
    ORION_CHECK(a.c0.is_ntt() && a.c1.is_ntt(),
                "mul_by_i expects NTT-form ciphertexts");
    const u64 n = ctx_->degree();
    RnsPoly monomial(*ctx_, a.level(), /*extended=*/false,
                     /*ntt_form=*/false);
    for (int i = 0; i < monomial.num_limbs(); ++i) {
        const Modulus& q = monomial.limb_modulus(i);
        monomial.limb(i)[n / 2] = negative ? q.value() - 1 : 1;
    }
    monomial.to_ntt();
    a.c0.mul_pointwise_inplace(monomial);
    a.c1.mul_pointwise_inplace(monomial);
}

Evaluator::Hoisted
Evaluator::hoist(const Ciphertext& a) const
{
    TELEM_SPAN("eval.hoist");
    Hoisted h;
    h.ct = a;
    h.digits = switcher_.decompose(a.c1);
    return h;
}

Ciphertext
Evaluator::rotate_hoisted(const Hoisted& h, int step) const
{
    const u64 slots = ctx_->slot_count();
    if (static_cast<u64>(((step % static_cast<i64>(slots)) + slots)) % slots ==
        0) {
        return h.ct;
    }
    TELEM_SPAN("eval.rotate_hoisted");
    ORION_CHECK(galois_ != nullptr, "Galois keys not set");
    const u64 elt = ctx_->galois_elt(step);
    const KswitchKey& key = galois_->at(elt);
    const std::vector<u32>& perm = ctx_->galois_permutation(elt);

    // Permute the precomputed digits (decomposition commutes with the
    // automorphism coefficient-wise), then inner-product and mod-down.
    std::vector<RnsPoly> rotated(h.digits.size());
    core::parallel_for(0, static_cast<i64>(h.digits.size()), [&](i64 i) {
        rotated[static_cast<std::size_t>(i)] =
            h.digits[static_cast<std::size_t>(i)].galois_with_permutation(
                perm);
    });
    const int level = h.ct.level();
    RnsPoly acc0(*ctx_, level, /*extended=*/true, /*ntt_form=*/true);
    RnsPoly acc1(*ctx_, level, /*extended=*/true, /*ntt_form=*/true);
    switcher_.inner_product(rotated, key, &acc0, &acc1);
    acc0.mod_down_special();
    acc1.mod_down_special();

    Ciphertext out;
    out.scale = h.ct.scale;
    out.c0 = h.ct.c0.galois_with_permutation(perm);
    out.c0.add_inplace(acc0);
    out.c1 = std::move(acc1);
    ctx_->counters().hrot_hoisted += 1;
    return out;
}

Evaluator::RotationAccumulator
Evaluator::make_accumulator(int level, double scale) const
{
    RotationAccumulator acc;
    acc.level_ = level;
    acc.scale_ = scale;
    acc.base0_ = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/true);
    acc.base1_ = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/true);
    acc.ext0_ = RnsPoly(*ctx_, level, /*extended=*/true, /*ntt_form=*/true);
    acc.ext1_ = RnsPoly(*ctx_, level, /*extended=*/true, /*ntt_form=*/true);
    return acc;
}

void
Evaluator::accumulate_rotation(RotationAccumulator& acc, const Ciphertext& ct,
                               int step) const
{
    ORION_CHECK(ct.level() == acc.level_,
                "accumulator level mismatch: " << ct.level() << " vs "
                                               << acc.level_);
    ORION_CHECK(scales_match(ct.scale, acc.scale_),
                "accumulator scale mismatch");
    const u64 slots = ctx_->slot_count();
    const bool trivial =
        static_cast<u64>(((step % static_cast<i64>(slots)) + slots)) % slots ==
        0;
    if (trivial) {
        acc.base0_.add_inplace(ct.c0);
        acc.base1_.add_inplace(ct.c1);
        ctx_->counters().hadd += 1;
        return;
    }
    ORION_CHECK(galois_ != nullptr, "Galois keys not set");
    const u64 elt = ctx_->galois_elt(step);
    const KswitchKey& key = galois_->at(elt);
    const std::vector<u32>& perm = ctx_->galois_permutation(elt);

    std::vector<RnsPoly> digits = switcher_.decompose(ct.c1);
    core::parallel_for(0, static_cast<i64>(digits.size()), [&](i64 i) {
        RnsPoly& d = digits[static_cast<std::size_t>(i)];
        d = d.galois_with_permutation(perm);
    });
    switcher_.inner_product(digits, key, &acc.ext0_, &acc.ext1_);
    acc.base0_.add_inplace(ct.c0.galois_with_permutation(perm));
    acc.any_ext_ = true;
    ctx_->counters().hrot_hoisted += 1;
}

void
Evaluator::merge_accumulator(RotationAccumulator& into,
                             const RotationAccumulator& from) const
{
    ORION_CHECK(into.level_ == from.level_,
                "accumulator merge level mismatch: " << into.level_ << " vs "
                                                     << from.level_);
    ORION_CHECK(scales_match(into.scale_, from.scale_),
                "accumulator merge scale mismatch");
    into.base0_.add_inplace(from.base0_);
    into.base1_.add_inplace(from.base1_);
    into.ext0_.add_inplace(from.ext0_);
    into.ext1_.add_inplace(from.ext1_);
    into.any_ext_ = into.any_ext_ || from.any_ext_;
}

Ciphertext
Evaluator::finalize_accumulator(RotationAccumulator& acc) const
{
    TELEM_SPAN("eval.finalize_accumulator");
    Ciphertext out;
    out.scale = acc.scale_;
    out.c0 = std::move(acc.base0_);
    out.c1 = std::move(acc.base1_);
    if (acc.any_ext_) {
        acc.ext0_.mod_down_special();
        acc.ext1_.mod_down_special();
        out.c0.add_inplace(acc.ext0_);
        out.c1.add_inplace(acc.ext1_);
    }
    return out;
}

}  // namespace orion::ckks
