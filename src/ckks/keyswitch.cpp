#include "src/ckks/keyswitch.h"

#include <algorithm>

#include "src/ckks/kernels.h"
#include "src/core/arena.h"
#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

std::vector<RnsPoly>
KeySwitcher::decompose(const RnsPoly& c) const
{
    TELEM_SPAN("keyswitch.decompose");
    ORION_CHECK(!c.extended(), "decompose expects coefficient limbs only");
    const Context& ctx = *ctx_;
    const int level = c.level();
    const int alpha = ctx.digit_size();
    const int digits = ctx.num_digits(level);
    const u64 n = ctx.degree();

    // Work from the coefficient representation of c.
    RnsPoly c_coeff = c;
    if (c_coeff.is_ntt()) c_coeff.to_coeff();
    ctx.counters().decompose += 1;

    std::vector<RnsPoly> out;
    out.reserve(static_cast<std::size_t>(digits));
    for (int d = 0; d < digits; ++d) {
        const int lo = d * alpha;
        const int hi = std::min((d + 1) * alpha - 1, level);
        const int digit_len = hi - lo + 1;

        RnsPoly ext(ctx, level, /*extended=*/true, /*ntt_form=*/true);

        // lambda_j = c_j * (D/q_j)^{-1} mod q_j for each digit limb j,
        // where D is the product of the digit's primes. The (D/q_j)^{-1}
        // and (D/q_j mod m_t) constants live in precomputed Context tables
        // (digit_consts), so this stage is pure Shoup multiplications.
        const Context::DigitConsts& dc = ctx.digit_consts(d, digit_len);
        // One contiguous arena block for all digit_len lambda rows (row j
        // at lambda_block[j * n]) instead of digit_len vector allocations.
        core::ScratchVec<u64> lambda_block(static_cast<std::size_t>(digit_len) *
                                           n);
        core::ScratchVec<const u64*> lam_ptrs(
            static_cast<std::size_t>(digit_len));
        for (int j = 0; j < digit_len; ++j) {
            lam_ptrs[static_cast<std::size_t>(j)] =
                lambda_block.data() + static_cast<std::size_t>(j) * n;
        }
        core::parallel_for(0, digit_len, [&](i64 ji) {
            const int j = lo + static_cast<int>(ji);
            const Modulus& qj = ctx.q(j);
            const u64 hat_inv = dc.hat_inv[static_cast<std::size_t>(ji)];
            const u64 hat_inv_shoup =
                dc.hat_inv_shoup[static_cast<std::size_t>(ji)];
            kernels::active().mul_scalar_shoup_n(
                lambda_block.data() + static_cast<std::size_t>(ji) * n,
                c_coeff.limb(j), n, hat_inv, hat_inv_shoup, qj);
        });

        // Fill every target limb in NTT form: digit limbs copy c (already
        // in NTT form when the input is, so they need no transform); other
        // limbs get the fast base conversion sum_j lambda_j * (D/q_j mod
        // m_t), then their forward NTT. Target limbs are independent, so
        // this hoistable decomposition parallelizes cleanly across the RNS
        // base. Lambda row j is a residue mod q_j, below the largest digit
        // prime.
        u64 row_bound = 0;
        for (int j = lo; j <= hi; ++j) {
            row_bound = std::max(row_bound, ctx.q(j).value());
        }
        core::parallel_for(0, ext.num_limbs(), [&](i64 ti) {
            const int t = static_cast<int>(ti);
            const int tg = ext.limb_global_index(t);
            u64* dst = ext.limb(t);
            if (tg >= lo && tg <= hi) {
                if (c.is_ntt()) {
                    std::copy(c.limb(tg), c.limb(tg) + n, dst);
                    return;
                }
                std::copy(c_coeff.limb(tg), c_coeff.limb(tg) + n, dst);
            } else {
                const Modulus& mt = ext.limb_modulus(t);
                const std::vector<u64>& hat_mod_t =
                    dc.hat_mod[static_cast<std::size_t>(tg)];
                kernels::active().base_conv_acc(dst, lam_ptrs.data(),
                                                hat_mod_t.data(), digit_len, n,
                                                mt, row_bound);
            }
            ext.limb_tables(t).forward(dst);
        });
        const int transformed =
            c.is_ntt() ? ext.num_limbs() - digit_len : ext.num_limbs();
        ctx.counters().ntt += static_cast<u64>(transformed);
        out.push_back(std::move(ext));
    }
    return out;
}

void
KeySwitcher::inner_product(const std::vector<RnsPoly>& digits,
                           const KswitchKey& ksk, RnsPoly* acc0,
                           RnsPoly* acc1) const
{
    TELEM_SPAN("keyswitch.inner_product");
    const Context& ctx = *ctx_;
    const u64 n = ctx.degree();
    ORION_ASSERT(acc0->extended() && acc1->extended());
    // Keys may be level-pruned: they must cover at least the operand's
    // coefficient limbs (plus the specials, which every key carries).
    const int key_level = ksk.level();
    const int acc_level = acc0->level();
    ORION_CHECK(key_level >= acc_level,
                "key-switching key pruned to level "
                    << key_level << " cannot switch at level " << acc_level
                    << " (regenerate the key with a higher level)");
    ORION_CHECK(static_cast<int>(digits.size()) <= ksk.num_digits(),
                "key-switching key has too few digits");

    for (std::size_t d = 0; d < digits.size(); ++d) {
        ORION_ASSERT(digits[d].is_ntt() && ksk.b[d].is_ntt() &&
                     ksk.a[d].is_ntt());
    }
    // Limb-major loop order so every (t, j) lane is owned by one task:
    // the digit sum runs serially per limb, keeping results independent of
    // the thread count. The key lives at max level; pick only the limbs
    // present in the accumulator (coefficient limbs 0..level plus the
    // special limbs).
    //
    // Lazy reduction: the digit sum sum_d x_d * k_d accumulates per
    // coefficient in a u128 and pays ONE Barrett reduce_128 per output
    // instead of a mul_mod + add_mod per term. With q < 2^61 each product
    // is below 2^122, so chunks of up to 16 terms (plus the carried-in
    // partial sum, < q) stay below 2^127 — reduced between chunks to keep
    // deeper digit counts overflow-free. The result is the same residue
    // the eager loop produces, bit for bit.
    const std::size_t num_digits = digits.size();
    core::parallel_for(0, acc0->num_limbs(), [&](i64 ti) {
        const int t = static_cast<int>(ti);
        // Limb index within the (possibly level-pruned) key polynomial:
        // coefficient limbs match 1:1, special limbs sit right after the
        // key's own coefficient limbs q_0..q_key_level.
        const int key_t =
            t <= acc_level ? t : key_level + 1 + (t - acc_level - 1);
        const Modulus& q = acc0->limb_modulus(t);
        // Gather the per-digit limb pointers once.
        core::ScratchVec<const u64*> xs(num_digits), bs(num_digits),
            as(num_digits);
        for (std::size_t d = 0; d < num_digits; ++d) {
            xs[d] = digits[d].limb(t);
            bs[d] = ksk.b[d].limb(key_t);
            as[d] = ksk.a[d].limb(key_t);
        }
        kernels::active().ks_inner_product(acc0->limb(t), acc1->limb(t),
                                           xs.data(), bs.data(), as.data(),
                                           num_digits, n, q);
    });
    ctx.counters().keyswitch += 1;
}

void
KeySwitcher::apply(const RnsPoly& c, const KswitchKey& ksk, RnsPoly* out0,
                   RnsPoly* out1) const
{
    TELEM_SPAN("ckks.keyswitch");
    const std::vector<RnsPoly> digits = decompose(c);
    RnsPoly acc0(*ctx_, c.level(), /*extended=*/true, /*ntt_form=*/true);
    RnsPoly acc1(*ctx_, c.level(), /*extended=*/true, /*ntt_form=*/true);
    inner_product(digits, ksk, &acc0, &acc1);
    acc0.mod_down_special();
    acc1.mod_down_special();
    *out0 = std::move(acc0);
    *out1 = std::move(acc1);
}

}  // namespace orion::ckks
