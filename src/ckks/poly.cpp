#include "src/ckks/poly.h"

#include <algorithm>
#include <array>

#include "src/ckks/kernels.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

void
RnsPoly::count_acquire(core::ArenaAcquire how) const
{
    // Capacity reuse touches no allocator at all, so it counts as neither
    // an allocation nor a pool hit.
    if (how == core::ArenaAcquire::kReused) return;
    ctx_->counters().poly_alloc += 1;
    if (how == core::ArenaAcquire::kPool) {
        ctx_->counters().poly_arena_hit += 1;
    }
}

RnsPoly::RnsPoly(const Context& ctx, int level, bool extended, bool ntt_form)
    : ctx_(&ctx), level_(level), ntt_(ntt_form),
      special_limbs_(extended ? ctx.special_count() : 0)
{
    ORION_CHECK(level >= 0 && level <= ctx.max_level(),
                "level out of range: " << level);
    count_acquire(data_.acquire_zero(
        static_cast<std::size_t>(num_limbs()) * ctx.degree()));
}

RnsPoly::RnsPoly(const RnsPoly& o)
    : ctx_(o.ctx_), level_(o.level_), ntt_(o.ntt_),
      special_limbs_(o.special_limbs_)
{
    if (o.data_.empty()) return;  // invalid/default polys own no storage
    count_acquire(data_.copy_from(o.data_));
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& o)
{
    if (this == &o) return *this;
    ctx_ = o.ctx_;
    level_ = o.level_;
    ntt_ = o.ntt_;
    special_limbs_ = o.special_limbs_;
    if (o.data_.empty()) {
        data_.release();
    } else {
        count_acquire(data_.copy_from(o.data_));
    }
    return *this;
}

void
RnsPoly::add_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_ &&
                 ntt_ == other.ntt_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.add_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::sub_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_ &&
                 ntt_ == other.ntt_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.sub_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::negate_inplace()
{
    const u64 n = degree();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        u64* a = limb(i);
        for (u64 j = 0; j < n; ++j) a[j] = neg_mod(a[j], q);
    }
}

void
RnsPoly::mul_pointwise_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ntt_ && other.ntt_);
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.mul_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::add_product_inplace(const RnsPoly& b, const RnsPoly& c)
{
    ORION_ASSERT(ntt_ && b.ntt_ && c.ntt_);
    ORION_ASSERT(level_ == b.level_ && level_ == c.level_ &&
                 special_limbs_ == b.special_limbs_ &&
                 special_limbs_ == c.special_limbs_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.add_product_n(limb(i), b.limb(i), c.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::mul_scalar_inplace(const std::vector<u64>& scalar_per_limb)
{
    ORION_ASSERT(scalar_per_limb.size() >=
                 static_cast<std::size_t>(num_limbs()));
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64 s = scalar_per_limb[static_cast<std::size_t>(i)];
        k.mul_scalar_shoup_n(limb(i), limb(i), n, s, shoup_precompute(s, q),
                             q);
    }
}

void
RnsPoly::mul_small_scalar_inplace(u64 scalar)
{
    std::vector<u64> per_limb(static_cast<std::size_t>(num_limbs()));
    for (int i = 0; i < num_limbs(); ++i) {
        per_limb[static_cast<std::size_t>(i)] =
            limb_modulus(i).reduce(scalar);
    }
    mul_scalar_inplace(per_limb);
}

void
RnsPoly::to_ntt()
{
    ORION_ASSERT(!ntt_);
    core::parallel_for(0, num_limbs(), [this](i64 i) {
        const int limb_idx = static_cast<int>(i);
        limb_tables(limb_idx).forward(limb(limb_idx));
    });
    ctx_->counters().ntt += static_cast<u64>(num_limbs());
    ntt_ = true;
}

void
RnsPoly::to_coeff()
{
    ORION_ASSERT(ntt_);
    core::parallel_for(0, num_limbs(), [this](i64 i) {
        const int limb_idx = static_cast<int>(i);
        limb_tables(limb_idx).inverse(limb(limb_idx));
    });
    ctx_->counters().ntt += static_cast<u64>(num_limbs());
    ntt_ = false;
}

std::vector<u32>
make_galois_ntt_permutation(const Context& ctx, u64 elt)
{
    // In NTT form, slot i stores the evaluation at psi^{2*rev(i)+1}. The
    // automorphism X -> X^elt maps the evaluation at root r to the
    // evaluation at r^elt, which is a pure permutation of the N points.
    const u64 n = ctx.degree();
    const int log_n = ctx.log_degree();
    const u64 m_mask = 2 * n - 1;
    std::vector<u32> perm(n);
    for (u64 i = 0; i < n; ++i) {
        const u64 rev = reverse_bits(static_cast<u32>(i), log_n);
        const u64 index_raw = (elt * (2 * rev + 1)) & m_mask;
        const u64 index =
            reverse_bits(static_cast<u32>((index_raw - 1) >> 1), log_n);
        perm[i] = static_cast<u32>(index);
    }
    return perm;
}

RnsPoly
RnsPoly::galois_with_permutation(const std::vector<u32>& perm) const
{
    ORION_ASSERT(ntt_);
    const u64 n = degree();
    RnsPoly out(*ctx_, level_, extended(), /*ntt_form=*/true);
    core::parallel_for(0, num_limbs(), [&](i64 i) {
        const u64* src = limb(static_cast<int>(i));
        u64* dst = out.limb(static_cast<int>(i));
        for (u64 j = 0; j < n; ++j) dst[j] = src[perm[j]];
    });
    return out;
}

RnsPoly
RnsPoly::galois(u64 elt) const
{
    const u64 n = degree();
    if (ntt_) {
        return galois_with_permutation(ctx_->galois_permutation(elt));
    }
    RnsPoly out(*ctx_, level_, extended(), /*ntt_form=*/false);
    const u64 m_mask = 2 * n - 1;
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64* src = limb(i);
        u64* dst = out.limb(i);
        for (u64 j = 0; j < n; ++j) {
            // X^j -> X^{j*elt} = (+/-) X^{j*elt mod N}.
            const u64 raw = (j * elt) & m_mask;
            if (raw < n) {
                dst[raw] = src[j];
            } else {
                dst[raw - n] = neg_mod(src[j], q);
            }
        }
    }
    return out;
}

void
RnsPoly::divide_and_drop(int k)
{
    // 2k rows of base_conv_acc: Context caps alpha at 16.
    ORION_ASSERT(k >= 1 && k < num_limbs() && 2 * k <= 32);
    const u64 n = degree();
    const int kept = num_limbs() - k;
    const kernels::KernelTable& kt = kernels::active();
    // Drop step s removes limb kept + k - 1 - s (the last limb first) with
    // modulus p_s, and x <- (x - r_s) * p_s^{-1} on the limbs left, where
    // r_s is the centered residue of x mod p_s at that step. Every step is
    // exact modular arithmetic and the NTT is linear, so a surviving limb
    // ends as x_j * D^{-1} - NTT_j(sum_s r_s * c_sj), D the product of the
    // dropped moduli and c_sj = prod_{m >= s} p_m^{-1} mod q_j: one forward
    // NTT per survivor instead of one per step (DESIGN.md "One-pass RNS
    // division").
    auto dropped = [&](int s) { return kept + k - 1 - s; };
    if (ntt_) {
        core::parallel_for(0, k, [&](i64 s) {
            const int i = dropped(static_cast<int>(s));
            limb_tables(i).inverse(limb(i));
        });
    }

    // Weights of -sum_{t<steps} r_t * c_t into limb `target`'s modulus q,
    // with c_t = prod_{t <= m < steps} p_m^{-1}: w[2t] = -c_t for the row
    // u_t and w[2t + 1] = p_t * c_t for the row b_t (r_t = u_t - b_t * p_t).
    // Returns c_0, the weight of the undivided value.
    auto weights = [&](int target, int steps, u64* w) {
        const Modulus& q = limb_modulus(target);
        const int g = limb_global_index(target);
        u64 c = 1;
        for (int t = steps - 1; t >= 0; --t) {
            const int i = dropped(t);
            c = mul_mod(c, ctx_->inv_mod_global(limb_global_index(i), g), q);
            w[2 * t] = neg_mod(c, q);
            w[2 * t + 1] = mul_mod(q.reduce(limb_modulus(i).value()), c, q);
        }
        return c;
    };

    // rows[2s] = u_s, the canonical residue of x mod p_s after the s
    // earlier steps (computed in place over the dropped limb, so before
    // step s it is x itself), and rows[2s + 1] = b_s = [u_s > p_s / 2].
    // Every row is below the largest dropped modulus.
    u64 row_bound = 0;
    for (int s = 0; s < k; ++s) {
        row_bound = std::max(row_bound, limb_modulus(dropped(s)).value());
    }
    core::ScratchVec<u64> b_block(static_cast<std::size_t>(k) * n);
    std::array<const u64*, 32> rows{};
    for (int s = 0; s < k; ++s) {
        const int i = dropped(s);
        u64* u = limb(i);
        u64* b = b_block.data() + static_cast<std::size_t>(s) * n;
        rows[static_cast<std::size_t>(2 * s)] = u;
        rows[static_cast<std::size_t>(2 * s + 1)] = b;
        const Modulus& p = limb_modulus(i);
        if (s > 0) {
            // dst aliases row 2s (base_conv_acc reads an element's rows
            // before writing it).
            std::array<u64, 32> w{};
            w[static_cast<std::size_t>(2 * s)] = weights(i, s, w.data());
            kt.base_conv_acc(u, rows.data(), w.data(), 2 * s + 1, n, p,
                             row_bound);
        }
        const u64 half = p.value() / 2;
        for (u64 x = 0; x < n; ++x) b[x] = u[x] > half ? 1 : 0;
    }

    core::parallel_for(0, kept, [&](i64 li) {
        const int j = static_cast<int>(li);
        const Modulus& q = limb_modulus(j);
        std::array<u64, 32> w{};
        const u64 d_inv = weights(j, k, w.data());
        core::ScratchVec<u64> tmp(n);
        kt.base_conv_acc(tmp.data(), rows.data(), w.data(), 2 * k, n, q,
                         row_bound);
        if (ntt_) limb_tables(j).forward(tmp.data());
        u64* a = limb(j);
        kt.mul_scalar_shoup_n(a, a, n, d_inv, shoup_precompute(d_inv, q), q);
        kt.add_mod_n(a, tmp.data(), n, q);
    });
    if (ntt_) ctx_->counters().ntt += static_cast<u64>(k + kept);

    data_.resize_down(static_cast<std::size_t>(kept) * n);
    const int from_special = std::min(k, special_limbs_);
    special_limbs_ -= from_special;
    level_ -= k - from_special;
}

void
RnsPoly::rescale_drop_last()
{
    ORION_CHECK(!extended(), "cannot rescale an extended polynomial");
    ORION_CHECK(level_ >= 1, "cannot rescale at level 0");
    divide_and_drop(1);
}

void
RnsPoly::mod_down_special()
{
    ORION_CHECK(extended(), "mod_down_special requires special limbs");
    divide_and_drop(special_limbs_);
}

void
RnsPoly::drop_to_level(int new_level)
{
    ORION_CHECK(!extended(), "cannot drop levels on an extended polynomial");
    ORION_CHECK(new_level >= 0 && new_level <= level_,
                "invalid target level " << new_level << " from " << level_);
    data_.resize_down(static_cast<std::size_t>(new_level + 1) * degree());
    level_ = new_level;
}

RnsPoly
RnsPoly::mod_raise(int new_level) const
{
    ORION_CHECK(!extended(), "cannot mod-raise an extended polynomial");
    ORION_CHECK(level_ == 0,
                "mod_raise expects a level-0 polynomial (drop first), got "
                    << level_);
    ORION_CHECK(new_level >= 1 && new_level <= ctx_->max_level(),
                "invalid mod-raise target level " << new_level);
    const u64 n = degree();

    RnsPoly base = *this;
    if (base.is_ntt()) base.to_coeff();
    const Modulus& q0 = ctx_->q(0);
    core::ScratchVec<i64> centered(n);
    const u64* src = base.limb(0);
    for (u64 j = 0; j < n; ++j) centered[j] = to_centered(src[j], q0);

    RnsPoly out(*ctx_, new_level, /*extended=*/false, /*ntt_form=*/false);
    // Each target limb is an independent signed reduction of the centered
    // coefficients; fan them out across the pool (bit-identical at any
    // thread count: no cross-limb reads).
    core::parallel_for(0, out.num_limbs(), [&](i64 li) {
        const int i = static_cast<int>(li);
        const Modulus& q = out.limb_modulus(i);
        u64* dst = out.limb(i);
        for (u64 j = 0; j < n; ++j) dst[j] = reduce_signed(centered[j], q);
    });
    if (is_ntt()) out.to_ntt();
    return out;
}

bool
RnsPoly::is_zero() const
{
    const u64* p = data_.data();
    return std::all_of(p, p + data_.size(), [](u64 v) { return v == 0; });
}

}  // namespace orion::ckks
