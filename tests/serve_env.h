#ifndef ORION_TESTS_SERVE_ENV_H_
#define ORION_TESTS_SERVE_ENV_H_

/**
 * @file
 * Shared fixtures for suites that execute under real keys: the micro
 * MLP compiled once for the toy context, and the direct in-process run
 * (a client plus an executor holding only its evaluation keys) that
 * served results are checked against.
 */

#include <memory>

#include "src/core/executor.h"
#include "src/nn/models.h"
#include "src/serve/client.h"
#include "tests/test_util.h"

namespace orion::test {

/** Shared compiled program + prepared payloads (built once; read-only). */
struct ServeEnv {
    nn::Network net;
    core::CompiledNetwork cn;
    std::shared_ptr<const core::PreparedProgram> prepared;

    ServeEnv()
        : net(nn::make_micro_mlp())
    {
        CkksEnv& env = CkksEnv::shared();
        core::CompileOptions opt;
        opt.slots = env.ctx.slot_count();
        opt.l_eff = 4;
        opt.cost = core::CostModel::for_params(env.ctx.degree(), 3, 3, 3);
        opt.calibration_samples = 3;
        opt.structural_only = false;
        cn = core::compile(net, opt);
        prepared =
            std::make_shared<const core::PreparedProgram>(cn, env.ctx);
    }

    static ServeEnv&
    shared()
    {
        static ServeEnv env;
        return env;
    }
};

/**
 * Direct execution with no server or wire in between: the data owner's
 * client encrypts and decrypts, and an executor holding only that
 * client's evaluation keys runs the program.
 */
struct DirectRun {
    serve::ServeClient client;
    core::CkksExecutor exec;

    DirectRun(const core::CompiledNetwork& cn, const ckks::Context& ctx,
              std::shared_ptr<const core::PreparedProgram> prepared,
              u64 seed = 7)
        : client(cn, ctx, seed), exec(cn, ctx, std::move(prepared))
    {
        exec.bind_session_keys(&client.relin_key(), &client.galois_keys());
    }

    std::vector<double>
    run(const std::vector<double>& x)
    {
        return client.decrypt(exec.run_encrypted(client.encrypt({x})).outputs,
                              1)
            .front();
    }
};

}  // namespace orion::test

#endif  // ORION_TESTS_SERVE_ENV_H_
