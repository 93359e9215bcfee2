#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/ckks/kernels.h"
#include "src/ckks/ntt.h"
#include "src/ckks/poly.h"
#include "src/core/thread_pool.h"
#include "tests/test_util.h"

/**
 * @file
 * RNS division (rescale and key-switch mod-down) against a reference that
 * divides by one dropped modulus at a time: center the last limb, subtract
 * it from every other limb, multiply by the modulus' inverse, repeat.
 * RnsPoly computes the same quotient in one pass; the residues must match
 * byte for byte at every level, in both forms, under every ISA and at 1 and
 * 4 threads.
 */

namespace orion::ckks {
namespace {

namespace k = kernels;

/** Limbs of a polynomial with their global modulus indices. */
struct RefPoly {
    std::vector<std::vector<u64>> limbs;
    std::vector<int> global;
    bool ntt = false;
};

RefPoly
to_ref(const RnsPoly& p)
{
    RefPoly r;
    r.ntt = p.is_ntt();
    for (int i = 0; i < p.num_limbs(); ++i) {
        r.limbs.emplace_back(p.limb(i), p.limb(i) + p.degree());
        r.global.push_back(p.limb_global_index(i));
    }
    return r;
}

/** Divides by the last limb's modulus and drops that limb. */
void
ref_divide_and_drop_one(const Context& ctx, RefPoly& r)
{
    const u64 n = ctx.degree();
    const int last = static_cast<int>(r.limbs.size()) - 1;
    const int last_global = r.global[static_cast<std::size_t>(last)];
    const Modulus& q_last = ctx.modulus_global(last_global);

    std::vector<u64> last_coeffs = r.limbs[static_cast<std::size_t>(last)];
    if (r.ntt) ctx.tables_global(last_global).inverse(last_coeffs.data());
    std::vector<i64> centered(n);
    for (u64 j = 0; j < n; ++j) {
        centered[j] = to_centered(last_coeffs[j], q_last);
    }
    for (int i = 0; i < last; ++i) {
        const int g = r.global[static_cast<std::size_t>(i)];
        const Modulus& q = ctx.modulus_global(g);
        std::vector<u64> tmp(n);
        for (u64 j = 0; j < n; ++j) tmp[j] = reduce_signed(centered[j], q);
        if (r.ntt) ctx.tables_global(g).forward(tmp.data());
        const u64 inv = ctx.inv_mod_global(last_global, g);
        u64* a = r.limbs[static_cast<std::size_t>(i)].data();
        for (u64 j = 0; j < n; ++j) {
            a[j] = mul_mod(sub_mod(a[j], tmp[j], q), inv, q);
        }
    }
    r.limbs.pop_back();
    r.global.pop_back();
}

/**
 * A coefficient-form polynomial whose columns drive the division's
 * centering decisions to their edges. Step s of the division drops the
 * s-th limb from the end with modulus p_s; if the earlier dropped limbs
 * are 0 and limb s holds e * prod_{m<s} p_m, the residue that step centers
 * is exactly e. Columns cycle e over {0, 1, p - 1, (p - 1) / 2,
 * (p + 1) / 2} and s over the k dropped limbs; one column in six, and
 * every third group of six, stays uniformly random.
 */
RnsPoly
adversarial_poly(const Context& ctx, int level, bool extended, int k,
                 u64 seed)
{
    RnsPoly p(ctx, level, extended, /*ntt_form=*/false);
    const u64 n = ctx.degree();
    const int limbs = p.num_limbs();
    std::mt19937_64 rng(seed);
    for (u64 j = 0; j < n; ++j) {
        for (int i = 0; i < limbs; ++i) {
            p.limb(i)[j] = rng() % p.limb_modulus(i).value();
        }
        const u64 mode = j % 6;
        if (mode == 5 || (j / 6) % 3 == 2) continue;
        const int s = static_cast<int>((j / 18) % static_cast<u64>(k));
        for (int t = 0; t < s; ++t) p.limb(limbs - 1 - t)[j] = 0;
        const Modulus& p_s = p.limb_modulus(limbs - 1 - s);
        const u64 pv = p_s.value();
        const u64 edges[5] = {0, 1, pv - 1, (pv - 1) / 2, (pv + 1) / 2};
        u64 v = edges[mode];
        for (int m = 0; m < s; ++m) {
            const u64 p_m = p.limb_modulus(limbs - 1 - m).value();
            v = mul_mod(v, p_s.reduce(p_m), p_s);
        }
        p.limb(limbs - 1 - s)[j] = v;
    }
    return p;
}

/** Runs `divide` on a copy of `in` under every ISA and thread count. */
template <typename Divide>
void
expect_matches_reference(const Context& ctx, const RnsPoly& in, int k,
                         Divide divide, const std::string& what)
{
    RefPoly want = to_ref(in);
    for (int s = 0; s < k; ++s) ref_divide_and_drop_one(ctx, want);

    const test::IsaGuard guard;
    for (k::Isa isa : k::supported_isas()) {
        k::set_isa(isa);
        for (int threads : {1, 4}) {
            core::ScopedPoolOverride pool(threads);
            RnsPoly got = in;
            divide(got);
            const RefPoly have = to_ref(got);
            ASSERT_EQ(have.global, want.global) << what;
            ASSERT_EQ(have.ntt, want.ntt) << what;
            for (std::size_t i = 0; i < want.limbs.size(); ++i) {
                ASSERT_EQ(have.limbs[i], want.limbs[i])
                    << what << " limb " << i << " " << k::isa_name(isa)
                    << " x " << threads << " threads";
            }
        }
    }
}

void
check_params(const CkksParams& params)
{
    const Context ctx(params);
    const int alpha = ctx.special_count();
    for (int level = 0; level <= ctx.max_level(); ++level) {
        for (bool ntt : {false, true}) {
            const std::string tag = "level " + std::to_string(level) +
                                    (ntt ? " ntt" : " coeff");
            RnsPoly ext = adversarial_poly(ctx, level, /*extended=*/true,
                                           alpha, 1000 + level);
            if (ntt) ext.to_ntt();
            expect_matches_reference(
                ctx, ext, alpha, [](RnsPoly& p) { p.mod_down_special(); },
                "mod_down " + tag);
            if (level == 0) continue;
            RnsPoly plain = adversarial_poly(ctx, level, /*extended=*/false,
                                             1, 2000 + level);
            if (ntt) plain.to_ntt();
            expect_matches_reference(
                ctx, plain, 1, [](RnsPoly& p) { p.rescale_drop_last(); },
                "rescale " + tag);
        }
    }
}

TEST(RnsDivision, MatchesPerPrimeReferenceToy)
{
    check_params(CkksParams::toy());  // alpha = 3
}

TEST(RnsDivision, MatchesPerPrimeReferenceNetwork)
{
    check_params(CkksParams::network(u64(1) << 13, 14));  // alpha = 4
}

TEST(RnsDivision, MatchesPerPrimeReferenceBootstrapPrimes)
{
    check_params(CkksParams::bootstrap_toy(2));  // 60-bit special primes
}

TEST(RnsDivision, ContextRejectsDigitsTooWideForOneAccumulator)
{
    CkksParams p = CkksParams::toy();
    p.digit_size = 17;
    EXPECT_THROW(Context{p}, Error);
}

}  // namespace
}  // namespace orion::ckks
