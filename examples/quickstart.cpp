/**
 * @file
 * Quickstart: define a small network with the PyTorch-style orion::nn
 * module frontend (the C++ analogue of Listing 1), compile it inside an
 * orion::Session, and run the same program three ways: cleartext,
 * functional simulation, and real RNS-CKKS encryption.
 */

#include <cstdio>
#include <random>

#include "src/core/orion.h"

using namespace orion;

int
main()
{
    // 1. Define the network (Listing 1 style: no layer ids, no flat weight
    //    vectors; unset weights are He-initialized by the session's seed).
    auto net = nn::Sequential({
        nn::Conv2d(1, 4, 3, {.stride = 2, .pad = 1}),  // still one level
        nn::Square(),
        nn::Flatten(),
        nn::Linear(64, 10),
    });

    // 2. A session owns the CKKS context + keys (toy params - NOT secure)
    //    and compiles: range estimation, packing, level + bootstrap
    //    placement (Section 6).
    Session session = Session::toy();
    const core::CompiledNetwork& compiled =
        session.compile(*net, 1, 8, 8, "quickstart");
    std::printf("network: %llu parameters, %llu multiplies\n",
                static_cast<unsigned long long>(
                    session.network().param_count()),
                static_cast<unsigned long long>(
                    session.network().flop_count()));
    std::printf("compiled: %zu instructions, %llu rotations, "
                "%llu bootstraps\n",
                compiled.program.size(),
                static_cast<unsigned long long>(compiled.total_rotations),
                static_cast<unsigned long long>(compiled.num_bootstraps));

    // The level-management policy found by the placement DAG solver
    // (the machinery of Figure 6).
    std::printf("\nlevel policy:\n");
    for (const core::Instruction& d : compiled.placement.decisions) {
        std::printf("  %-12s at level %d (layer %d)\n",
                    core::to_string(d.op), d.level, d.layer_id);
    }

    // 3. Run it three ways.
    std::mt19937_64 rng(2);
    std::uniform_real_distribution<double> in_dist(-1.0, 1.0);
    std::vector<double> image(64);
    for (double& x : image) x = in_dist(rng);

    const std::vector<double> clear = session.network().forward(image);
    const core::ExecutionResult sim_result = session.simulate(image);
    const core::ExecutionResult fhe_result = session.run(image);

    std::printf("\n%-10s %12s %12s %12s\n", "logit", "cleartext",
                "simulated", "encrypted");
    for (std::size_t i = 0; i < clear.size(); ++i) {
        std::printf("%-10zu %12.6f %12.6f %12.6f\n", i, clear[i],
                    sim_result.output[i], fhe_result.output[i]);
    }
    double err = 0;
    for (std::size_t i = 0; i < clear.size(); ++i) {
        err = std::max(err, std::abs(fhe_result.output[i] - clear[i]));
    }
    std::printf("\nencrypted inference: %.2f s wall, max error %.2e, "
                "%llu rotations performed\n",
                fhe_result.wall_seconds, err,
                static_cast<unsigned long long>(fhe_result.rotations));
    return 0;
}
