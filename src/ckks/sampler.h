#ifndef ORION_SRC_CKKS_SAMPLER_H_
#define ORION_SRC_CKKS_SAMPLER_H_

/**
 * @file
 * Randomness for key generation and encryption.
 *
 * The sampler is deterministic given its seed, which makes every test and
 * benchmark in the repository reproducible. This is a research artifact;
 * a production deployment would seed from a CSPRNG.
 */

#include <limits>
#include <random>
#include <vector>

#include "src/common.h"
#include "src/ckks/modarith.h"

namespace orion::ckks {

/** Default standard deviation of the RLWE error distribution. */
inline constexpr double kErrorStdDev = 3.2;

/**
 * SplitMix64: a fixed bijective finalizer over u64. Used to derive the
 * *published* per-key seeds (KswitchKey::a_seed) from a private,
 * domain-separated counter chain. Unlike raw mt19937_64 outputs — whose
 * untempered state is recoverable and whose stream also produces the
 * secret and the RLWE errors — these values carry no state of any
 * secret-bearing generator, so shipping them on the wire is safe.
 */
inline u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seeded source of the secret / error / uniform distributions of RLWE. */
class Sampler {
  public:
    explicit Sampler(u64 seed = 0x0123456789abcdefULL) : rng_(seed) {}

    /** Uniform ternary secret in {-1, 0, 1}^n, returned centered. */
    std::vector<i64>
    sample_ternary(std::size_t n)
    {
        std::uniform_int_distribution<int> dist(-1, 1);
        std::vector<i64> out(n);
        for (auto& x : out) x = dist(rng_);
        return out;
    }

    /**
     * Sparse ternary secret: exactly `weight` nonzero (+-1) coefficients
     * at positions drawn without replacement (Fisher-Yates over the index
     * set, so the draw count is deterministic in n and weight).
     */
    std::vector<i64>
    sample_ternary_sparse(std::size_t n, int weight)
    {
        ORION_CHECK(weight >= 1 && static_cast<std::size_t>(weight) <= n,
                    "sparse secret weight out of range: " << weight);
        std::vector<std::size_t> idx(n);
        for (std::size_t i = 0; i < n; ++i) idx[i] = i;
        std::vector<i64> out(n, 0);
        std::uniform_int_distribution<int> sign(0, 1);
        for (int k = 0; k < weight; ++k) {
            std::uniform_int_distribution<std::size_t> pick(
                static_cast<std::size_t>(k), n - 1);
            std::swap(idx[static_cast<std::size_t>(k)], idx[pick(rng_)]);
            out[idx[static_cast<std::size_t>(k)]] = sign(rng_) ? 1 : -1;
        }
        return out;
    }

    /** Rounded Gaussian error with standard deviation sigma. */
    std::vector<i64>
    sample_gaussian(std::size_t n, double sigma = kErrorStdDev)
    {
        std::normal_distribution<double> dist(0.0, sigma);
        std::vector<i64> out(n);
        for (auto& x : out) x = static_cast<i64>(std::llround(dist(rng_)));
        return out;
    }

    /** Uniform residues modulo q. */
    std::vector<u64>
    sample_uniform(std::size_t n, const Modulus& q)
    {
        std::vector<u64> out(n);
        sample_uniform_into(out.data(), n, q);
        return out;
    }

    /**
     * Uniform residues modulo q written straight into `dst` (no
     * allocation). This is the primitive behind seed-expanded
     * key-switching keys (keys.h expand_kswitch_a): the a-component of
     * every key digit is a pure function of (seed, basis), so the wire
     * format ships the seed instead of the residues and both ends expand
     * limb by limb through this call.
     *
     * Because that seed-to-residue mapping is part of the serial wire
     * contract, it must be bit-identical across compilers and standard
     * libraries: mt19937_64 is fully specified by the C++ standard, but
     * std::uniform_int_distribution's algorithm is implementation-defined
     * (libstdc++ and libc++ disagree). So this rejection-samples raw
     * engine output instead — draw a u64, retry on the sliver above the
     * largest multiple of q, reduce — which every conforming stdlib
     * expands identically.
     */
    void
    sample_uniform_into(u64* dst, std::size_t n, const Modulus& q)
    {
        const u64 qv = q.value();
        // 2^64 mod q; accepting r <= 2^64 - rem - 1 leaves an exact
        // multiple of q outcomes, so r % q is unbiased.
        const u64 rem = (std::numeric_limits<u64>::max() % qv + 1) % qv;
        const u64 accept_max = std::numeric_limits<u64>::max() - rem;
        for (std::size_t i = 0; i < n; ++i) {
            u64 r = rng_();
            while (r > accept_max) r = rng_();
            dst[i] = r % qv;
        }
    }

    /** A single double drawn from N(0, sigma^2). */
    double
    sample_normal(double sigma)
    {
        std::normal_distribution<double> dist(0.0, sigma);
        return dist(rng_);
    }

    std::mt19937_64& rng() { return rng_; }

  private:
    std::mt19937_64 rng_;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_SAMPLER_H_
