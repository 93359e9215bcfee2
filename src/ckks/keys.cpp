#include "src/ckks/keys.h"

#include <algorithm>

namespace orion::ckks {

RnsPoly
SecretKey::at_level(int level) const
{
    const Context& ctx = s.context();
    RnsPoly out(ctx, level, /*extended=*/false, /*ntt_form=*/true);
    const u64 n = ctx.degree();
    for (int i = 0; i <= level; ++i) {
        std::copy(s.limb(i), s.limb(i) + n, out.limb(i));
    }
    return out;
}

std::size_t
KswitchKey::byte_size() const
{
    std::size_t total = 0;
    for (const RnsPoly& p : b) {
        total += static_cast<std::size_t>(p.num_limbs()) * p.degree() * 8;
    }
    for (const RnsPoly& p : a) {
        total += static_cast<std::size_t>(p.num_limbs()) * p.degree() * 8;
    }
    return total;
}

std::size_t
GaloisKeys::byte_size() const
{
    std::size_t total = 0;
    for (const auto& [elt, ksk] : keys) {
        (void)elt;
        total += ksk.byte_size();
    }
    return total;
}

std::vector<RnsPoly>
expand_kswitch_a(const Context& ctx, u64 seed, int level)
{
    ORION_CHECK(level >= 0 && level <= ctx.max_level(),
                "key-switch expansion level " << level
                                              << " outside the chain");
    const int digits = ctx.num_digits(level);
    const u64 n = ctx.degree();
    Sampler sampler(seed);
    std::vector<RnsPoly> out;
    out.reserve(static_cast<std::size_t>(digits));
    for (int d = 0; d < digits; ++d) {
        RnsPoly a(ctx, level, /*extended=*/true, /*ntt_form=*/true);
        for (int i = 0; i < a.num_limbs(); ++i) {
            sampler.sample_uniform_into(a.limb(i), n, a.limb_modulus(i));
        }
        out.push_back(std::move(a));
    }
    return out;
}

namespace {

/**
 * Restricts an extended full-chain polynomial (NTT form) to coefficient
 * limbs q_0..q_level plus the special limbs — the basis of a level-pruned
 * key-switching key.
 */
RnsPoly
restrict_extended(const RnsPoly& s, int level)
{
    const Context& ctx = s.context();
    ORION_ASSERT(s.extended() && s.level() == ctx.max_level());
    if (level == ctx.max_level()) return s;
    const u64 n = ctx.degree();
    RnsPoly out(ctx, level, /*extended=*/true, /*ntt_form=*/true);
    for (int i = 0; i <= level; ++i) {
        std::copy(s.limb(i), s.limb(i) + n, out.limb(i));
    }
    for (int j = 0; j < ctx.special_count(); ++j) {
        const u64* src = s.limb(ctx.max_level() + 1 + j);
        std::copy(src, src + n, out.limb(level + 1 + j));
    }
    return out;
}

}  // namespace

namespace {

/** Domain separator for the published-a_seed chain ("orion.ks"). */
constexpr u64 kKswitchSeedDomain = 0x6f72696f6e2e6b73ULL;

}  // namespace

KeyGenerator::KeyGenerator(const Context& ctx, u64 seed)
    : ctx_(&ctx),
      sampler_(seed),
      kswitch_seed_state_(splitmix64(seed ^ kKswitchSeedDomain))
{
    // Ternary secret (dense, or sparse with the configured Hamming
    // weight), expressed over the full extended basis.
    const u64 n = ctx.degree();
    const int weight = ctx.params().secret_weight;
    const std::vector<i64> coeffs =
        weight > 0 ? sampler_.sample_ternary_sparse(n, weight)
                   : sampler_.sample_ternary(n);
    sk_.s = RnsPoly(ctx, ctx.max_level(), /*extended=*/true,
                    /*ntt_form=*/false);
    for (int i = 0; i < sk_.s.num_limbs(); ++i) {
        const Modulus& q = sk_.s.limb_modulus(i);
        u64* limb = sk_.s.limb(i);
        for (u64 j = 0; j < n; ++j) limb[j] = reduce_signed(coeffs[j], q);
    }
    sk_.s.to_ntt();
}

RnsPoly
KeyGenerator::sample_error_extended(int level)
{
    const u64 n = ctx_->degree();
    const std::vector<i64> coeffs = sampler_.sample_gaussian(n);
    RnsPoly e(*ctx_, level, /*extended=*/true, /*ntt_form=*/false);
    for (int i = 0; i < e.num_limbs(); ++i) {
        const Modulus& q = e.limb_modulus(i);
        u64* limb = e.limb(i);
        for (u64 j = 0; j < n; ++j) limb[j] = reduce_signed(coeffs[j], q);
    }
    e.to_ntt();
    return e;
}

PublicKey
KeyGenerator::make_public_key()
{
    const int level = ctx_->max_level();
    const u64 n = ctx_->degree();
    PublicKey pk;
    pk.a = RnsPoly(*ctx_, level, /*extended=*/false, /*ntt_form=*/true);
    for (int i = 0; i <= level; ++i) {
        const std::vector<u64> vals =
            sampler_.sample_uniform(n, pk.a.limb_modulus(i));
        std::copy(vals.begin(), vals.end(), pk.a.limb(i));
    }
    const std::vector<i64> e_coeffs = sampler_.sample_gaussian(n);
    RnsPoly e(*ctx_, level, /*extended=*/false, /*ntt_form=*/false);
    for (int i = 0; i <= level; ++i) {
        const Modulus& q = e.limb_modulus(i);
        u64* limb = e.limb(i);
        for (u64 j = 0; j < n; ++j) limb[j] = reduce_signed(e_coeffs[j], q);
    }
    e.to_ntt();

    // b = -a*s + e over Q_L.
    pk.b = pk.a;
    pk.b.mul_pointwise_inplace(sk_.at_level(level));
    pk.b.negate_inplace();
    pk.b.add_inplace(e);
    return pk;
}

KswitchKey
KeyGenerator::make_kswitch_key(const RnsPoly& s_old, int level)
{
    ORION_ASSERT(s_old.is_ntt() && s_old.extended());
    if (level < 0) level = ctx_->max_level();
    ORION_CHECK(level <= ctx_->max_level(),
                "key-switch key level " << level << " above the chain");
    const int digits = ctx_->num_digits(level);
    const int alpha = ctx_->digit_size();
    const u64 n = ctx_->degree();
    const RnsPoly s_old_r = restrict_extended(s_old, level);
    const RnsPoly s_new_r = restrict_extended(sk_.s, level);

    KswitchKey ksk;
    // The uniform digits come from a dedicated per-key seed (not the main
    // sampler stream), so the a-component is reproducible from 8 bytes:
    // serial ships {a_seed, b digits} and re-expands on decode. The
    // seed itself is published, so it comes from the domain-separated
    // splitmix64 chain — never a raw output of the generator that samples
    // the secret and errors, whose state those outputs would expose.
    ksk.a_seed = splitmix64(kswitch_seed_state_++);
    ksk.seeded = true;
    ksk.a = expand_kswitch_a(*ctx_, ksk.a_seed, level);
    ksk.b.reserve(static_cast<std::size_t>(digits));
    for (int d = 0; d < digits; ++d) {
        const RnsPoly& a = ksk.a[static_cast<std::size_t>(d)];
        RnsPoly b = sample_error_extended(level);
        // b += W_d * s_old on the digit's own limbs: W_d = P mod q_j there.
        const int lo = d * alpha;
        const int hi = std::min((d + 1) * alpha - 1, level);
        for (int j = lo; j <= hi; ++j) {
            const Modulus& q = ctx_->q(j);
            const u64 w = ctx_->p_prod_mod_q(j);
            const u64 w_shoup = shoup_precompute(w, q);
            const u64* s_limb = s_old_r.limb(j);
            u64* b_limb = b.limb(j);
            for (u64 x = 0; x < n; ++x) {
                b_limb[x] = add_mod(
                    b_limb[x], mul_mod_shoup(s_limb[x], w, w_shoup, q), q);
            }
        }
        // b -= a * s_new.
        RnsPoly as = a;
        as.mul_pointwise_inplace(s_new_r);
        b.sub_inplace(as);
        ksk.b.push_back(std::move(b));
    }
    return ksk;
}

KswitchKey
KeyGenerator::make_relin_key()
{
    RnsPoly s2 = sk_.s;
    s2.mul_pointwise_inplace(sk_.s);
    return make_kswitch_key(s2);
}

KswitchKey
KeyGenerator::make_galois_key(u64 elt, int level)
{
    return make_kswitch_key(sk_.s.galois(elt), level);
}

GaloisKeys
KeyGenerator::make_galois_keys(std::span<const int> steps,
                               bool include_conjugation)
{
    GaloisKeys out;
    for (int step : steps) {
        const u64 elt = ctx_->galois_elt(step);
        if (!out.has(elt)) out.keys.emplace(elt, make_galois_key(elt));
    }
    if (include_conjugation) {
        const u64 elt = ctx_->galois_elt_conj();
        if (!out.has(elt)) out.keys.emplace(elt, make_galois_key(elt));
    }
    return out;
}

GaloisKeys
KeyGenerator::make_galois_keys(std::span<const GaloisKeyRequest> requests,
                               bool include_conjugation,
                               int conjugation_level)
{
    // One key per distinct Galois element, pruned to the highest level
    // any request needs it at (-1 = full chain wins).
    std::map<u64, int> level_of;
    auto raise = [&](u64 elt, int level) {
        auto [it, inserted] = level_of.emplace(elt, level);
        if (!inserted && it->second >= 0 &&
            (level < 0 || level > it->second)) {
            it->second = level;
        }
    };
    for (const GaloisKeyRequest& r : requests) {
        raise(ctx_->galois_elt(r.step), r.level);
    }
    if (include_conjugation) {
        raise(ctx_->galois_elt_conj(), conjugation_level);
    }
    GaloisKeys out;
    for (const auto& [elt, level] : level_of) {
        out.keys.emplace(elt, make_galois_key(elt, level));
    }
    return out;
}

}  // namespace orion::ckks
