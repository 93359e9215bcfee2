#ifndef ORION_TESTS_TEST_UTIL_H_
#define ORION_TESTS_TEST_UTIL_H_

/**
 * @file
 * Shared fixtures for the test suite: a lazily-constructed toy CKKS
 * environment (context + keys + evaluator) reused across test files so key
 * generation cost is paid once, a kernel-ISA guard, random-vector helpers,
 * and the small residual conv net plus toy compile options the compiler
 * and golden suites share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "src/ckks/ckks.h"
#include "src/core/compiler.h"
#include "src/core/thread_pool.h"

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

/** Restores the active kernel ISA on scope exit (set_isa is global). */
struct IsaGuard {
    ckks::kernels::Isa saved = ckks::kernels::active_isa();
    ~IsaGuard() { ckks::kernels::set_isa(saved); }
};

/** Restores the global pool's size on scope exit (set_num_threads is
 *  global). */
struct GlobalThreadsGuard {
    int saved = core::ThreadPool::global_threads();
    ~GlobalThreadsGuard() { core::set_num_threads(saved); }
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

/** A small conv net with a residual block (compiler and golden tests). */
inline nn::Network
tiny_resnet(nn::ActivationSpec::Kind act_kind)
{
    using nn::ActivationSpec;
    std::mt19937_64 rng(17);
    std::normal_distribution<double> dist(0.0, 0.3);
    auto weights = [&rng, &dist](u64 n) {
        std::vector<double> w(n);
        for (double& x : w) x = dist(rng);
        return w;
    };
    ActivationSpec act;
    switch (act_kind) {
    case ActivationSpec::Kind::kSquare:
        act = ActivationSpec::square();
        break;
    case ActivationSpec::Kind::kRelu:
        act = ActivationSpec::relu({3, 3});  // small composite for toy levels
        break;
    default:
        act = ActivationSpec::silu(15);
        break;
    }

    nn::Network net("tiny-resnet");
    int id = net.add_input(2, 8, 8);
    lin::Conv2dSpec c1;
    c1.in_channels = 2;
    c1.out_channels = 4;
    c1.kernel_h = c1.kernel_w = 3;
    c1.pad = 1;
    id = net.add_conv2d(id, c1, weights(c1.weight_count()), weights(4));
    id = net.add_activation(id, act);
    const int fork = id;
    lin::Conv2dSpec c2;
    c2.in_channels = 4;
    c2.out_channels = 4;
    c2.kernel_h = c2.kernel_w = 3;
    c2.pad = 1;
    int bb = net.add_conv2d(fork, c2, weights(c2.weight_count()));
    std::vector<double> g(4, 1.1), b(4, 0.02), m(4, 0.01), v(4, 0.9);
    bb = net.add_batchnorm2d(bb, g, b, m, v);
    id = net.add_add(bb, fork);
    id = net.add_activation(id, act);
    id = net.add_avgpool2d(id, 2, 2);
    id = net.add_flatten(id);
    id = net.add_linear(id, 5, weights(5 * 4 * 4 * 4), weights(5));
    net.set_output(id);
    return net;
}

/** Structural-only compile options for toy slot counts and levels. */
inline core::CompileOptions
toy_options(u64 slots, int l_eff)
{
    core::CompileOptions opt;
    opt.slots = slots;
    opt.l_eff = l_eff;
    opt.cost = core::CostModel::for_params(2 * slots * 2, 3, 3, 3);
    opt.calibration_samples = 3;
    opt.structural_only = true;
    return opt;
}

}  // namespace orion::test

#endif  // ORION_TESTS_TEST_UTIL_H_
