#include "src/core/session.h"

#include <chrono>
#include <random>
#include <utility>

namespace orion {

Session::Session(SessionOptions opts) : opts_(std::move(opts))
{
    if (opts_.params.has_value()) {
        ctx_ = std::make_unique<ckks::Context>(*opts_.params);
        ORION_CHECK(opts_.l_eff < ctx_->max_level(),
                    "l_eff " << opts_.l_eff
                             << " must be below the context's max level "
                             << ctx_->max_level());
    }
}

Session
Session::toy()
{
    SessionOptions o;
    o.params = ckks::CkksParams::toy();
    o.l_eff = 4;
    return Session(std::move(o));
}

Session
Session::with_params(const ckks::CkksParams& params, int l_eff)
{
    SessionOptions o;
    o.params = params;
    o.l_eff = l_eff;
    return Session(std::move(o));
}

Session
Session::simulation(u64 slots, int l_eff)
{
    SessionOptions o;
    o.sim_slots = slots;
    o.l_eff = l_eff;
    return Session(std::move(o));
}

void
Session::fit(std::vector<std::vector<double>> calibration_data)
{
    calibration_ = std::move(calibration_data);
}

const core::CompiledNetwork&
Session::compile(const nn::Network& net, core::CompileOptions opt)
{
    opt.l_eff = opts_.l_eff;
    if (ctx_ != nullptr) {
        opt.slots = ctx_->slot_count();
        // The cost model's l_boot is the *measured* depth of the real
        // bootstrap circuit at this parameter point (the plan is a pure
        // function of the parameters), so placement prices bootstraps
        // with the same schedule the executor will actually run.
        // Dense secrets at large rings make the EvalMod fit diverge —
        // such parameter sets cannot run the circuit at all (executors
        // reject bootstrap-bearing programs), so compilation of
        // bootstrap-free programs must not die here: keep the
        // paper-default l_boot for pricing.
        if (!l_boot_.has_value()) {
            try {
                l_boot_ =
                    ckks::BootstrapPlan::cached(ctx_->params())->depth;
            } catch (const Error&) {
                l_boot_ = core::CostModel::paper_scale().l_boot();
            }
        }
        opt.cost = core::CostModel::for_params(ctx_->degree(),
                                               opts_.params->digit_size,
                                               opts_.params->digit_size,
                                               *l_boot_);
    } else {
        opt.slots = opts_.sim_slots;
    }
    if (opt.calibration_inputs.empty() && !calibration_.empty()) {
        opt.calibration_inputs = calibration_;
    }
    // A new program invalidates everything derived from the old one.
    prepared_.reset();
    fhe_.reset();
    client_.reset();
    sim_.reset();
    lowered_.reset();  // the module-compile overload re-stores its IR
    compiled_ = core::compile(net, opt);
    return *compiled_;
}

const core::CompiledNetwork&
Session::compile(nn::Module& module, int c, int h, int w, std::string name,
                 core::CompileOptions opt)
{
    module.infer_shape(nn::Shape{false, c, h, w, 0});
    if (!module.initialized()) module.initialize(opts_.seed);
    nn::Network net =
        nn::lower_to_network(module, c, h, w, std::move(name));
    const core::CompiledNetwork& cn = compile(net, std::move(opt));
    lowered_ = std::move(net);  // after compile(): that overload resets state
    return cn;
}

void
Session::require_compiled(const char* verb) const
{
    ORION_CHECK(compiled_.has_value(),
                "Session::" << verb << " called before compile()");
}

void
Session::require_context(const char* verb) const
{
    ORION_CHECK(ctx_ != nullptr,
                "Session::" << verb
                            << " needs a CKKS context, but this session is "
                               "simulation-only; construct it from "
                               "CkksParams (Session::toy / with_params) or "
                               "use simulate()");
}

void
Session::require_matrices(const char* verb) const
{
    // Name the first offending instruction (kind + layer id), not just
    // "the program": a 100-layer net with one structural-only conv should
    // point the user at that conv.
    for (const core::Instruction& ins : compiled_->program) {
        if (ins.op != core::Instruction::Op::kLinear) continue;
        const core::LinearLayerData& l =
            compiled_->linears[static_cast<std::size_t>(ins.payload)];
        ORION_CHECK(l.matrix != nullptr,
                    "Session::" << verb
                                << " needs materialized matrices, but "
                                << core::describe_instruction(ins)
                                << " was compiled structural_only; "
                                   "re-compile without structural_only");
    }
}

const ckks::Context&
Session::context() const
{
    require_context("context");
    return *ctx_;
}

const core::CompiledNetwork&
Session::compiled() const
{
    require_compiled("compiled");
    return *compiled_;
}

const nn::Network&
Session::network() const
{
    ORION_CHECK(lowered_.has_value(),
                "Session::network is only available after the module-tree "
                "compile() overload");
    return *lowered_;
}

std::shared_ptr<const core::PreparedProgram>
Session::prepared()
{
    require_compiled("prepared");
    require_context("prepared");
    require_matrices("prepared");
    if (prepared_ == nullptr) {
        prepared_ =
            std::make_shared<const core::PreparedProgram>(*compiled_, *ctx_);
    }
    return prepared_;
}

serve::ServeClient&
Session::client(const char* verb)
{
    require_compiled(verb);
    require_context(verb);
    if (client_ == nullptr) {
        client_ = std::make_unique<serve::ServeClient>(*compiled_, *ctx_,
                                                       opts_.seed);
    }
    return *client_;
}

core::CkksExecutor&
Session::executor()
{
    require_compiled("executor");
    require_context("executor");
    require_matrices("executor");
    if (fhe_ == nullptr) {
        // Constructed before any keygen: a program the context cannot
        // execute is rejected without paying for keys.
        auto fhe = std::make_unique<core::CkksExecutor>(
            *compiled_, *ctx_, prepared());
        const serve::ServeClient& keys = client("executor");
        fhe->bind_session_keys(&keys.relin_key(), &keys.galois_keys());
        fhe_ = std::move(fhe);
    }
    return *fhe_;
}

core::ExecutionResult
Session::infer(const std::vector<std::vector<double>>& samples,
               std::vector<std::vector<double>>& outputs)
{
    const auto t0 = std::chrono::steady_clock::now();
    require_compiled("run");
    require_context("run");
    core::CkksExecutor& exec = executor();
    core::EncryptedResult er = exec.run_encrypted(encrypt(samples));
    outputs = decrypt(er.outputs, static_cast<int>(samples.size()));

    core::ExecutionResult result;
    static_cast<core::RunStats&>(result) = std::move(er);
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
}

core::ExecutionResult
Session::run(const std::vector<double>& input)
{
    std::vector<std::vector<double>> outputs;
    core::ExecutionResult result = infer({input}, outputs);
    result.output = std::move(outputs.front());
    return result;
}

std::vector<std::vector<double>>
Session::run(const std::vector<std::vector<double>>& samples)
{
    std::vector<std::vector<double>> outputs;
    (void)infer(samples, outputs);
    return outputs;
}

core::ExecutionResult
Session::simulate(const std::vector<double>& input)
{
    require_compiled("simulate");
    if (sim_ == nullptr) {
        sim_ = std::make_unique<core::SimExecutor>(*compiled_);
    }
    return sim_->run(input);
}

std::vector<ckks::Ciphertext>
Session::encrypt(const std::vector<std::vector<double>>& samples)
{
    return client("encrypt").encrypt(samples);
}

core::EncryptedResult
Session::run_encrypted(const std::vector<ckks::Ciphertext>& input)
{
    require_compiled("run_encrypted");
    require_context("run_encrypted");
    return executor().run_encrypted(input);
}

std::vector<std::vector<double>>
Session::decrypt(const std::vector<ckks::Ciphertext>& outputs,
                 int batch_count)
{
    return client("decrypt").decrypt(outputs, batch_count);
}

std::unique_ptr<serve::InferenceServer>
Session::serve(serve::ServeOptions opts)
{
    require_compiled("serve");
    require_context("serve");
    require_matrices("serve");
    return std::make_unique<serve::InferenceServer>(*compiled_, *ctx_, opts,
                                                    prepared());
}

serve::ServeClient
Session::serve_client(std::optional<u64> seed)
{
    require_compiled("serve_client");
    require_context("serve_client");
    if (!seed.has_value()) {
        // Fresh entropy per client: two default-seeded clients must never
        // share a secret.
        std::random_device rd;
        seed = (static_cast<u64>(rd()) << 32) ^ rd();
    }
    return serve::ServeClient(*compiled_, *ctx_, *seed);
}

}  // namespace orion
