#ifndef ORION_TESTS_TEST_UTIL_H_
#define ORION_TESTS_TEST_UTIL_H_

/**
 * @file
 * Shared fixtures for the test suite: a lazily-constructed toy CKKS
 * environment (context + keys + evaluator) reused across test files so key
 * generation cost is paid once, plus random-vector helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "src/ckks/ckks.h"

namespace orion::test {

/** Rotation steps for which the shared environment owns Galois keys. */
inline const std::vector<int> kSharedSteps = {1,  2,  3,  4,   5,  7, 8,
                                              16, 31, 64, 100, -1, -3, -8};

/** A complete toy CKKS environment shared by tests (NOT secure params). */
struct CkksEnv {
    ckks::CkksParams params;
    ckks::Context ctx;
    ckks::Encoder encoder;
    ckks::KeyGenerator keygen;
    ckks::PublicKey pk;
    ckks::KswitchKey relin;
    ckks::GaloisKeys galois;
    ckks::Encryptor encryptor;
    ckks::Decryptor decryptor;
    ckks::Evaluator eval;

    CkksEnv()
        : params(ckks::CkksParams::toy()), ctx(params), encoder(ctx),
          keygen(ctx, /*seed=*/7), pk(keygen.make_public_key()),
          relin(keygen.make_relin_key()),
          galois(keygen.make_galois_keys(kSharedSteps,
                                         /*include_conjugation=*/true)),
          encryptor(ctx, pk), decryptor(ctx, keygen.secret_key()),
          eval(ctx, encoder)
    {
        eval.set_relin_key(&relin);
        eval.set_galois_keys(&galois);
    }

    static CkksEnv&
    shared()
    {
        static CkksEnv env;
        return env;
    }
};

/** Asserts fn() throws an E whose message contains `needle`. */
template <typename E, typename Fn>
inline void
expect_throw_contains(Fn&& fn, const std::string& needle)
{
    bool threw = false;
    try {
        fn();
    } catch (const E& e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message: " << e.what() << "\nexpected substring: " << needle;
    }
    EXPECT_TRUE(threw) << "expected an exception containing '" << needle
                       << "'";
}

/** Uniform random doubles in [-range, range]. */
inline std::vector<double>
random_vector(std::size_t n, double range = 1.0, u64 seed = 42)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-range, range);
    std::vector<double> out(n);
    for (double& x : out) x = dist(rng);
    return out;
}

inline double
max_abs_diff(const std::vector<double>& a, const std::vector<double>& b)
{
    double m = 0.0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        m = std::max(m, std::abs(a[i] - b[i]));
    }
    return m;
}

/** Encrypts a real vector at the given level with the canonical scale. */
inline ckks::Ciphertext
encrypt_vector(CkksEnv& env, const std::vector<double>& values, int level)
{
    const ckks::Plaintext pt =
        env.encoder.encode(values, level, env.ctx.scale());
    return env.encryptor.encrypt(pt);
}

/** Decrypts to the real parts of all slots. */
inline std::vector<double>
decrypt_vector(CkksEnv& env, const ckks::Ciphertext& ct)
{
    return env.encoder.decode(env.decryptor.decrypt(ct));
}

}  // namespace orion::test

#endif  // ORION_TESTS_TEST_UTIL_H_
