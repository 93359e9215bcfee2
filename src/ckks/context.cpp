#include "src/ckks/context.h"

#include <algorithm>
#include <cmath>

#include "src/ckks/poly.h"
#include "src/ckks/primes.h"
#include "src/core/telemetry.h"

namespace orion::ckks {

Context::Context(const CkksParams& params) : params_(params)
{
    ORION_CHECK(is_power_of_two(params.poly_degree),
                "poly_degree must be a power of two");
    ORION_CHECK(params.poly_degree >= 8, "poly_degree too small");
    ORION_CHECK(params.num_scale_primes >= 1, "need at least one scale prime");
    ORION_CHECK(params.digit_size >= 1, "digit_size must be positive");
    // Mod-down sums 2 * alpha products in one base_conv_acc (<= 32 terms).
    ORION_CHECK(params.digit_size <= 16, "digit_size must be at most 16");
    // Each key-switch digit multiplies up to alpha scale primes; P must
    // dominate the digit product for the key-switch noise P^{-1}*sum(d_i e_i)
    // to stay small, hence alpha special primes of >= scale-prime size.
    ORION_CHECK(params.special_prime_bits >= params.log_scale,
                "special primes must be at least as large as scale primes");
    ORION_CHECK(params.secret_weight >= 0 &&
                    static_cast<u64>(params.secret_weight) <=
                        params.poly_degree,
                "secret_weight must lie in [0, N]");
    n_ = params.poly_degree;
    log_n_ = log2_exact(n_);
    scale_ = std::ldexp(1.0, params.log_scale);
    num_q_ = params.num_scale_primes + 1;
    num_special_ = params.digit_size;

    // Moduli chain: q_0 (first prime), then L scale primes near Delta,
    // then the special primes. All distinct, all = 1 (mod 2N).
    std::vector<u64> taken;
    auto take = [&taken](const std::vector<u64>& v) {
        for (u64 x : v) taken.push_back(x);
    };
    const std::vector<u64> first =
        generate_ntt_primes(params.first_prime_bits, 1, n_, taken);
    take(first);
    const std::vector<u64> scales = generate_ntt_primes(
        params.log_scale, params.num_scale_primes, n_, taken);
    take(scales);
    const std::vector<u64> specials = generate_ntt_primes(
        params.special_prime_bits, num_special_, n_, taken);

    moduli_.emplace_back(first[0]);
    for (u64 v : scales) moduli_.emplace_back(v);
    for (u64 v : specials) moduli_.emplace_back(v);

    tables_.reserve(moduli_.size());
    for (const Modulus& m : moduli_) tables_.emplace_back(n_, m);

    // Cross-modulus inverses used by rescale, mod-down, and base conversion.
    const std::size_t k = moduli_.size();
    inv_table_.assign(k * k, 0);
    for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) {
            if (a == b) continue;
            inv_table_[a * k + b] = inv_mod(moduli_[a].value(), moduli_[b]);
        }
    }
    p_prod_mod_q_.resize(static_cast<std::size_t>(num_q_));
    for (int j = 0; j < num_q_; ++j) {
        u64 prod = 1;
        for (int i = 0; i < num_special_; ++i) {
            prod = mul_mod(prod, special(i).value(), q(j));
        }
        p_prod_mod_q_[static_cast<std::size_t>(j)] = prod;
    }

    // Fast-base-conversion constants for every (digit, length) pair a key
    // switch can encounter: digit d spans limbs lo..lo+len-1; len runs to
    // alpha except when the chain ends first. Tiny tables (O(L * alpha *
    // num_global) words), computed once so decompose never rebuilds them.
    const int alpha = params_.digit_size;
    const int max_digits = num_digits(max_level());
    digit_consts_.resize(static_cast<std::size_t>(max_digits));
    for (int d = 0; d < max_digits; ++d) {
        const int lo = d * alpha;
        const int max_len = std::min(alpha, num_q_ - lo);
        auto& per_len = digit_consts_[static_cast<std::size_t>(d)];
        per_len.resize(static_cast<std::size_t>(max_len));
        for (int len = 1; len <= max_len; ++len) {
            const int hi = lo + len - 1;
            DigitConsts& dc = per_len[static_cast<std::size_t>(len - 1)];
            dc.hat_inv.resize(static_cast<std::size_t>(len));
            dc.hat_inv_shoup.resize(static_cast<std::size_t>(len));
            for (int j = lo; j <= hi; ++j) {
                const Modulus& qj = q(j);
                u64 hat_inv = 1;  // (D/q_j)^{-1} mod q_j
                for (int j2 = lo; j2 <= hi; ++j2) {
                    if (j2 == j) continue;
                    hat_inv = mul_mod(hat_inv, inv_mod_global(j2, j), qj);
                }
                dc.hat_inv[static_cast<std::size_t>(j - lo)] = hat_inv;
                dc.hat_inv_shoup[static_cast<std::size_t>(j - lo)] =
                    shoup_precompute(hat_inv, qj);
            }
            dc.hat_mod.resize(static_cast<std::size_t>(num_global()));
            for (int g = 0; g < num_global(); ++g) {
                if (g >= lo && g <= hi) continue;  // own limbs copy directly
                const Modulus& mt = modulus_global(g);
                std::vector<u64>& row =
                    dc.hat_mod[static_cast<std::size_t>(g)];
                row.resize(static_cast<std::size_t>(len));
                for (int j = lo; j <= hi; ++j) {
                    u64 h = 1;  // (D/q_j) mod m_t
                    for (int j2 = lo; j2 <= hi; ++j2) {
                        if (j2 == j) continue;
                        h = mul_mod(h, mt.reduce(q(j2).value()), mt);
                    }
                    row[static_cast<std::size_t>(j - lo)] = h;
                }
            }
        }
    }

    // Publish this Context's op counters into the process registry. The
    // hot loops keep bumping the per-Context relaxed atomics (snapshot /
    // delta semantics for benches and tests are unchanged); the registry
    // reads them only at scrape time and sums across live Contexts.
    telem_collector_ = telemetry::Registry::global().add_collector(
        [this](std::vector<telemetry::Sample>& out) {
            const OpCounters& c = counters_;
            const auto counter = [&out](const char* name, u64 v) {
                out.push_back({name, static_cast<double>(v),
                               telemetry::Sample::Kind::kCounter});
            };
            counter("ckks.op.pmult", c.pmult);
            counter("ckks.op.hmult", c.hmult);
            counter("ckks.op.hadd", c.hadd);
            counter("ckks.op.hrot", c.hrot);
            counter("ckks.op.hrot_hoisted", c.hrot_hoisted);
            counter("ckks.op.keyswitch", c.keyswitch);
            counter("ckks.op.rescale", c.rescale);
            counter("ckks.op.bootstrap", c.bootstrap);
            counter("ckks.op.ntt", c.ntt);
            counter("ckks.op.decompose", c.decompose);
            counter("ckks.op.poly_alloc", c.poly_alloc);
            counter("ckks.op.poly_arena_hit", c.poly_arena_hit);
        });
}

Context::~Context()
{
    telemetry::Registry::global().remove_collector(telem_collector_);
}

u64
Context::galois_elt(int step) const
{
    const u64 m = 2 * n_;          // order of the cyclotomic group
    const u64 slots = n_ / 2;
    // Rotation by `step` slots toward lower indices corresponds to the
    // automorphism X -> X^{5^step mod 2N} under the rot-group slot
    // ordering used by the encoder (validated by EncoderTest.Rotation).
    i64 s = step % static_cast<i64>(slots);
    if (s < 0) s += static_cast<i64>(slots);
    u64 elt = 1;
    for (i64 i = 0; i < s; ++i) elt = (elt * 5) % m;
    return elt;
}

const std::vector<u32>&
Context::galois_permutation(u64 elt) const
{
    std::lock_guard<std::mutex> lk(galois_perm_mu_);
    auto it = galois_perm_cache_.find(elt);
    if (it == galois_perm_cache_.end()) {
        it = galois_perm_cache_
                 .emplace(elt, make_galois_ntt_permutation(*this, elt))
                 .first;
    }
    return it->second;
}

}  // namespace orion::ckks
