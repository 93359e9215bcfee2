/**
 * @file
 * orion::Session - the unified pipeline facade. Covers the paper-verb
 * flow (fit / compile / encrypt / run / decrypt), the module-tree
 * compile overload, simulation-only sessions, lifecycle errors, and the
 * serving path hanging off the same object.
 */

#include <gtest/gtest.h>

#include "src/core/orion.h"
#include "src/serve/serve.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

/** The micro-mlp as a module tree (fits toy CKKS parameters). */
nn::ModulePtr
micro_module()
{
    return nn::Sequential(
        {nn::Flatten(), nn::Linear(64, 16), nn::Square(),
         nn::Linear(16, 5)});
}

core::CompileOptions
fast_opts()
{
    core::CompileOptions opt;
    opt.calibration_samples = 3;
    return opt;
}

TEST(Session, ToyPipelineMatchesCleartext)
{
    auto net = micro_module();
    Session session = Session::toy();
    const core::CompiledNetwork& cn =
        session.compile(*net, 1, 8, 8, "micro", fast_opts());
    EXPECT_EQ(cn.name, "micro");
    EXPECT_TRUE(net->initialized());  // module keeps its weights

    const std::vector<double> x = random_vector(64, 1.0, 31);
    const std::vector<double> clear = session.network().forward(x);
    const core::ExecutionResult fhe = session.run(x);
    ASSERT_EQ(fhe.output.size(), clear.size());
    EXPECT_LT(max_abs_diff(fhe.output, clear), 1e-2);

    // Simulation agrees with the same program.
    const core::ExecutionResult sim = session.simulate(x);
    EXPECT_LT(max_abs_diff(sim.output, clear), 1e-2);
    // Both come from one program walk, so they charge the same model.
    EXPECT_EQ(fhe.modeled_latency, sim.modeled_latency);
    EXPECT_GT(fhe.modeled_latency, 0.0);
}

TEST(Session, EncryptRunEncryptedDecryptMatchesRun)
{
    auto net = micro_module();
    Session session = Session::toy();
    session.compile(*net, 1, 8, 8, "micro", fast_opts());

    const std::vector<double> x = random_vector(64, 1.0, 32);
    const std::vector<double> direct = session.run(x).output;

    const std::vector<ckks::Ciphertext> cts = session.encrypt(x);
    const core::EncryptedResult enc = session.run_encrypted(cts);
    const std::vector<double> out = session.decrypt(enc.outputs);
    ASSERT_EQ(out.size(), direct.size());
    // Fresh encryption noise differs per call; both runs decrypt to the
    // same logical outputs.
    EXPECT_LT(max_abs_diff(out, direct), 1e-3);
}

TEST(Session, BatchedRunExecutesOnceAndMatchesCleartext)
{
    auto net = micro_module();
    Session session = Session::toy();
    core::CompileOptions opt = fast_opts();
    opt.batch = 4;
    session.compile(*net, 1, 8, 8, "micro", opt);
    ASSERT_GE(session.compiled().batch, 4);

    std::vector<std::vector<double>> inputs;
    for (int i = 0; i < 4; ++i) {
        inputs.push_back(random_vector(64, 1.0, 40 + static_cast<u64>(i)));
    }
    const std::vector<std::vector<double>> outs = session.run(inputs);
    ASSERT_EQ(outs.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::vector<double> clear =
            session.network().forward(inputs[i]);
        ASSERT_EQ(outs[i].size(), clear.size());
        EXPECT_LT(max_abs_diff(outs[i], clear), 1e-2) << "lane " << i;
    }

    // The explicit encrypt/run/decrypt spelling agrees with run.
    const std::vector<ckks::Ciphertext> cts = session.encrypt(inputs);
    const core::EncryptedResult enc = session.run_encrypted(cts);
    const std::vector<std::vector<double>> outs2 =
        session.decrypt(enc.outputs, static_cast<int>(inputs.size()));
    ASSERT_EQ(outs2.size(), outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_LT(max_abs_diff(outs2[i], outs[i]), 1e-3);
    }
}

TEST(Session, FitCalibrationDataChangesRangeEstimation)
{
    const nn::Network net = nn::make_micro_mlp();

    Session plain = Session::toy();
    const double nu_default =
        plain.compile(net, fast_opts()).input_nu;

    // Calibration data 8x the synthetic range: the estimated input range
    // grows, so the input normalization must shrink.
    std::vector<std::vector<double>> calib;
    for (int i = 0; i < 3; ++i) {
        calib.push_back(random_vector(64, 8.0, 100 + static_cast<u64>(i)));
    }
    Session fitted = Session::toy();
    fitted.fit(calib);
    const double nu_fitted =
        fitted.compile(net, fast_opts()).input_nu;

    EXPECT_LT(nu_fitted, nu_default);
}

TEST(Session, SimulationOnlySessionSimulatesButCannotRun)
{
    const nn::Network net = nn::make_resnet_cifar(8, nn::Act::kRelu);
    Session session = Session::simulation();
    EXPECT_FALSE(session.has_context());

    core::CompileOptions opt = fast_opts();
    opt.structural_only = true;
    const core::CompiledNetwork& cn = session.compile(net, opt);
    EXPECT_EQ(cn.slots, u64(1) << 15);
    EXPECT_EQ(cn.l_eff, 10);

    const std::vector<double> x = random_vector(3 * 32 * 32, 1.0, 33);
    const core::ExecutionResult r = session.simulate(x);
    EXPECT_EQ(r.output.size(), 10u);

    expect_throw_contains<Error>([&] { session.run(x); },
                                 "simulation-only");
    expect_throw_contains<Error>([&] { session.encrypt(x); },
                                 "simulation-only");
    expect_throw_contains<Error>([&] { (void)session.context(); },
                                 "simulation-only");
}

TEST(Session, VerbsBeforeCompileThrow)
{
    Session session = Session::toy();
    const std::vector<double> x(64, 0.0);
    expect_throw_contains<Error>([&] { session.run(x); },
                                 "before compile()");
    expect_throw_contains<Error>([&] { session.simulate(x); },
                                 "before compile()");
    expect_throw_contains<Error>([&] { (void)session.compiled(); },
                                 "before compile()");
    expect_throw_contains<Error>([&] { (void)session.network(); },
                                 "module-tree compile()");
}

TEST(Session, StructuralProgramsRefuseTheCkksBackend)
{
    const nn::Network net = nn::make_micro_mlp();
    Session session = Session::toy();
    core::CompileOptions opt = fast_opts();
    opt.structural_only = true;
    session.compile(net, opt);

    const std::vector<double> x = random_vector(64, 1.0, 34);
    EXPECT_EQ(session.simulate(x).output.size(), 5u);
    expect_throw_contains<Error>([&] { session.run(x); },
                                 "structural_only");
    // The rejection names the offending instruction, not just "the
    // program": kind plus originating layer id.
    expect_throw_contains<Error>([&] { session.run(x); },
                                 "kLinear (layer");
}

TEST(Session, RecompileInvalidatesDerivedState)
{
    Session session = Session::toy();
    auto a = micro_module();
    session.compile(*a, 1, 8, 8, "a", fast_opts());
    const std::vector<double> x = random_vector(64, 1.0, 35);
    EXPECT_EQ(session.run(x).output.size(), 5u);

    // A different head: 3 outputs instead of 5.
    auto b = nn::Sequential(
        {nn::Flatten(), nn::Linear(64, 16), nn::Square(),
         nn::Linear(16, 3)});
    session.compile(*b, 1, 8, 8, "b", fast_opts());
    EXPECT_EQ(session.run(x).output.size(), 3u);
    EXPECT_EQ(session.network().network_name(), "b");

    // Recompiling from a raw Network drops the previously lowered IR.
    session.compile(nn::make_micro_mlp(), fast_opts());
    EXPECT_EQ(session.run(x).output.size(), 5u);
    expect_throw_contains<Error>([&] { (void)session.network(); },
                                 "module-tree compile()");
}

TEST(Session, ServePathSharesTheSessionPipeline)
{
    const nn::Network net = nn::make_micro_mlp();
    Session session = Session::toy();
    session.compile(net, fast_opts());

    serve::ServeOptions sopts;
    sopts.max_inflight = 1;
    sopts.queue_capacity = 4;
    auto server = session.serve(sopts);
    EXPECT_EQ(server->prepared(), session.prepared());

    serve::ServeClient client = session.serve_client(/*seed=*/4242);
    client.set_session_id(server->register_session(client.key_bundle()));

    const std::vector<double> x = random_vector(64, 1.0, 36);
    const std::vector<double> want = session.run(x).output;

    auto fut = server->submit(client.make_request(x));
    const serve::ServeReply reply = fut.get();
    const std::vector<double> got = client.decrypt_response(reply.response);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_LT(max_abs_diff(got, want), 1e-3);
}

TEST(Session, DefaultSeededClientsGetDistinctSecrets)
{
    const nn::Network net = nn::make_micro_mlp();
    Session session = Session::toy();
    session.compile(net, fast_opts());

    // No explicit seed: entropy must be fresh per client, so two bundles
    // never share key material.
    serve::ServeClient a = session.serve_client();
    serve::ServeClient b = session.serve_client();
    EXPECT_NE(a.key_bundle(), b.key_bundle());
}

}  // namespace
}  // namespace orion::test
