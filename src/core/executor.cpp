#include "src/core/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>

#include "src/approx/polyeval.h"
#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"

namespace orion::core {

namespace {

/** Static span label of one program instruction kind. */
const char*
op_span_name(Instruction::Op op)
{
    switch (op) {
    case Instruction::Op::kInput: return "exec.input";
    case Instruction::Op::kBootstrap: return "exec.bootstrap";
    case Instruction::Op::kLinear: return "exec.linear";
    case Instruction::Op::kActivation: return "exec.activation";
    case Instruction::Op::kMul: return "exec.mul";
    case Instruction::Op::kScale: return "exec.scale";
    case Instruction::Op::kAdd: return "exec.add";
    case Instruction::Op::kOutput: return "exec.output";
    }
    return "exec.unknown";
}

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Merges one instruction's wall time into the per-layer breakdown. */
void
charge_layer(std::vector<LayerTiming>& times, int layer_id, double seconds)
{
    if (!times.empty() && times.back().layer_id == layer_id) {
        times.back().seconds += seconds;
        return;
    }
    times.push_back({layer_id, seconds});
}

/**
 * A linear layer's folded bias broadcast over one sample's logical
 * (c, h, w)-major output: one entry per output feature of a linear layer,
 * each channel's bias repeated over its h * w pixels for conv/pool.
 */
std::vector<double>
bias_tensor(const LinearLayerData& data)
{
    const u64 per_channel =
        data.out_layout.logical_size() / data.folded_bias.size();
    std::vector<double> t;
    t.reserve(data.out_layout.logical_size());
    for (const double b : data.folded_bias) t.insert(t.end(), per_channel, b);
    return t;
}

/**
 * The one program walk both backends run. It owns the value map, exact
 * level tracking with the operand-level check, the bootstrap / rotation /
 * pmult counts and cost-model charge (both from instruction_cost, the
 * function placement and the compile totals use), one exec.* span per
 * instruction and the per-layer wall-time breakdown. The backend only
 * computes values: one method per opcode, given the operands and
 * returning the produced value. Returns the kOutput instruction's operand.
 */
template <typename Backend>
typename Backend::Value
walk(const CompiledNetwork& cn, const Backend& backend, RunStats& stats)
{
    using Op = Instruction::Op;
    using Value = typename Backend::Value;
    struct Slot {
        Value value;
        int level = 0;
    };
    const auto t0 = Clock::now();
    // The instruction that reads each value last, where a backend that
    // asks for it has the value freed.
    std::map<int, std::size_t> last_read;
    if constexpr (Backend::kFreeDeadValues) {
        for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
            for (const int id : {cn.program[idx].a, cn.program[idx].b}) {
                if (id >= 0) last_read[id] = idx;
            }
        }
    }
    std::map<int, Slot> values;
    Value output;
    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        const auto ins_t0 = Clock::now();
        telemetry::SpanGuard ins_span(op_span_name(ins.op), ins.layer_id);
        const InstructionCost price = instruction_cost(cn, ins, ins.level);
        ORION_CHECK(ins.level >= price.depth,
                    describe_instruction(ins) << ": runs at level "
                                              << ins.level);
        // A bootstrap accepts its operand at any level; every other op
        // needs its operands at or above its execution level.
        auto operand = [&](int id) -> const Value& {
            const Slot& s = values.at(id);
            ORION_CHECK(s.level >= (ins.op == Op::kBootstrap ? 0 : ins.level),
                        describe_instruction(ins) << ": operand at level "
                                                  << s.level);
            return s.value;
        };
        Slot& out = values[ins.value];
        out.level = ins.level - price.depth;
        switch (ins.op) {
        case Op::kInput:
            out.value = backend.input(ins);
            break;
        case Op::kBootstrap:
            out.value = backend.bootstrap(idx, operand(ins.a));
            out.level = cn.l_eff;
            break;
        case Op::kLinear: {
            const LinearLayerData& data =
                cn.linears[static_cast<std::size_t>(ins.payload)];
            out.value = backend.linear(idx, ins, data, operand(ins.a));
            break;
        }
        case Op::kActivation: {
            const ActivationData& data =
                cn.activations[static_cast<std::size_t>(ins.payload)];
            out.value = backend.activation(idx, ins, data, operand(ins.a));
            break;
        }
        case Op::kMul:
        case Op::kAdd: {
            const Value& a = operand(ins.a);
            const Value& b = operand(ins.b);
            ORION_CHECK(a.size() == b.size(), describe_instruction(ins)
                                                  << ": operand size mismatch");
            if (ins.op == Op::kMul) {
                out.value = backend.mul(ins, a, b);
            } else {
                out.value = backend.add(ins, a, b);
            }
            break;
        }
        case Op::kScale:
            out.value = backend.scale(idx, ins, operand(ins.a));
            break;
        case Op::kOutput:
            // The value map dies with this call; no need to copy the
            // (possibly megabytes of) output.
            output = std::move(values.at(ins.a).value);
            break;
        }
        if constexpr (Backend::kFreeDeadValues) {
            for (const int id : {ins.a, ins.b}) {
                if (id >= 0 && last_read.at(id) == idx) values.erase(id);
            }
        }
        stats.bootstraps += price.bootstraps;
        stats.rotations += price.rotations;
        stats.pmults += price.pmults;
        stats.modeled_latency += price.seconds;
        charge_layer(stats.layer_times, ins.layer_id, seconds_since(ins_t0));
    }
    stats.wall_seconds = seconds_since(t0);
    return output;
}

/**
 * Cleartext backend: reference matvec / convolution, the activations'
 * cleartext approximations, and injected bootstrap noise.
 */
struct SimBackend {
    using Value = std::vector<double>;

    /**
     * The walk frees each tensor after its last reader, so a run holds
     * its live tensors only and its end does not trim the heap that the
     * next run must fault back in (DESIGN.md "One program walk").
     */
    static constexpr bool kFreeDeadValues = true;

    const std::vector<double>& x;  ///< the normalized input
    double noise_std;
    ckks::Sampler& noise;

    /** f applied to every element of v. */
    template <typename F>
    static Value
    map(Value v, F f)
    {
        for (double& e : v) e = f(e);
        return v;
    }

    /** f applied element-wise to a and b. */
    template <typename F>
    static Value
    zip(const Value& a, const Value& b, F f)
    {
        Value v(a.size());
        std::transform(a.begin(), a.end(), b.begin(), v.begin(), f);
        return v;
    }

    Value input(const Instruction&) const { return x; }

    Value
    bootstrap(std::size_t, const Value& a) const
    {
        // std::normal_distribution requires sigma > 0.
        if (noise_std <= 0.0) return a;
        return map(a, [&](double e) {
            return e + noise.sample_normal(noise_std);
        });
    }

    Value
    linear(std::size_t, const Instruction&, const LinearLayerData& data,
           const Value& a) const
    {
        // A fully connected layer is a 1x1 convolution of a 1x1 image.
        lin::Conv2dSpec spec = data.conv;
        int h = data.in_layout.height, w = data.in_layout.width;
        if (data.kind == nn::LayerKind::kLinear) {
            spec = lin::Conv2dSpec{data.in_features, data.out_features};
            h = w = 1;
        }
        Value y = lin::conv2d_reference(spec, data.folded_weights, a, h, w);
        if (data.folded_bias.empty()) return y;
        return zip(y, bias_tensor(data), std::plus<>());
    }

    Value
    activation(std::size_t, const Instruction&, const ActivationData& data,
               const Value& a) const
    {
        if (data.kind == nn::ActivationSpec::Kind::kSquare) {
            return map(a, [](double e) { return e * e; });
        }
        Value y(a.size());
        data.stages[0].eval(a, y);
        return y;
    }

    Value
    mul(const Instruction&, const Value& a, const Value& b) const
    {
        return zip(a, b, std::multiplies<>());
    }

    Value
    scale(std::size_t, const Instruction& ins, const Value& a) const
    {
        return map(a, [&](double e) { return e * ins.scale_factor; });
    }

    Value
    add(const Instruction&, const Value& a, const Value& b) const
    {
        return zip(a, b, std::plus<>());
    }
};

/**
 * Real-FHE backend: validates the encrypted input, drops operands to the
 * execution level, and runs each op on ciphertexts with the prepared
 * payloads (encoded matrices and biases, exact scales, the bootstrap
 * circuit) under the bound evaluation keys.
 */
struct CkksBackend {
    using Value = std::vector<ckks::Ciphertext>;

    /**
     * Ciphertexts live until the run ends: freeing them mid-run made
     * lola-n13's throughput vary far more from run to run, for no gain
     * in time or peak RSS (DESIGN.md "One program walk").
     */
    static constexpr bool kFreeDeadValues = false;

    const ckks::Context& ctx;
    const ckks::Evaluator& eval;
    const std::vector<PreparedProgram::Step>& steps;
    const Value& in;
    const approx::HePolyEvaluator polyeval{eval};

    /** v's ciphertexts dropped to the op's execution level. */
    Value
    at_level(Value v, const Instruction& ins) const
    {
        for (ckks::Ciphertext& c : v) {
            if (c.level() > ins.level) eval.drop_to_level_inplace(c, ins.level);
        }
        return v;
    }

    Value
    input(const Instruction& ins) const
    {
        ORION_CHECK(in.size() == ins.cts,
                    "encrypted input has " << in.size()
                                           << " ciphertexts, program "
                                           << "expects " << ins.cts);
        for (const ckks::Ciphertext& ct : in) {
            ORION_CHECK(ct.valid() && ct.level() >= ins.level,
                        "encrypted input below the program's input "
                        "level " << ins.level);
            ORION_CHECK(ct.c0.is_ntt() && ct.c1.is_ntt(),
                        "encrypted input must be in NTT form");
            ORION_CHECK(ckks::scales_match(ct.scale, ctx.scale()),
                        "encrypted input scale "
                            << ct.scale
                            << " does not match the context scale "
                            << ctx.scale());
        }
        return at_level(in, ins);
    }

    Value
    bootstrap(std::size_t idx, const Value& a) const
    {
        // The real public-key circuit under the bound session keys.
        Value v;
        for (const ckks::Ciphertext& ct : a) {
            v.push_back(steps[idx].circuit->bootstrap(eval, ct));
        }
        return v;
    }

    Value
    linear(std::size_t idx, const Instruction& ins, const LinearLayerData&,
           const Value& a) const
    {
        const PreparedProgram::Step& step = steps[idx];
        Value v = step.matrix->apply(eval, at_level(a, ins));
        for (std::size_t c = 0; c < step.bias.size(); ++c) {
            eval.add_plain_inplace(v[c], step.bias[c]);
        }
        return v;
    }

    Value
    activation(std::size_t idx, const Instruction& ins,
               const ActivationData& data, const Value& a) const
    {
        Value v = at_level(a, ins);
        for (ckks::Ciphertext& c : v) {
            if (data.kind == nn::ActivationSpec::Kind::kSquare) {
                c = eval.square(c);
                eval.rescale_inplace(c);
            } else {
                c = polyeval.evaluate(data.stages[0], c,
                                      steps[idx].out_scale);
            }
        }
        return v;
    }

    Value
    mul(const Instruction& ins, const Value& a, const Value& b) const
    {
        Value v = at_level(a, ins);
        const Value y = at_level(b, ins);
        for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = eval.mul(v[i], y[i]);
            eval.rescale_inplace(v[i]);
            ORION_ASSERT(ckks::scales_match(v[i].scale, ctx.scale()));
            v[i].scale = ctx.scale();
        }
        return v;
    }

    Value
    scale(std::size_t idx, const Instruction& ins, const Value& a) const
    {
        Value v = at_level(a, ins);
        for (ckks::Ciphertext& c : v) {
            eval.mul_constant_inplace(
                c, ins.scale_factor,
                static_cast<double>(ctx.q(ins.level).value()));
            eval.rescale_inplace(c);
            c.scale = steps[idx].out_scale;  // exact by construction
        }
        return v;
    }

    Value
    add(const Instruction& ins, const Value& a, const Value& b) const
    {
        Value v = at_level(a, ins);
        const Value y = at_level(b, ins);
        for (std::size_t i = 0; i < v.size(); ++i) eval.add_inplace(v[i], y[i]);
        return v;
    }
};

}  // namespace

// ---------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------

SimExecutor::SimExecutor(const CompiledNetwork& cn, double bootstrap_noise_std,
                         u64 seed)
    : cn_(&cn), noise_std_(bootstrap_noise_std), noise_(seed)
{
}

ExecutionResult
SimExecutor::run(const std::vector<double>& input)
{
    ORION_CHECK(input.size() == cn_->input_shape.size(),
                "input size mismatch");
    // Normalize in and de-normalize out, as a client's encrypt / decrypt.
    std::vector<double> x = input;
    for (double& e : x) e *= cn_->input_nu;
    const SimBackend backend{x, noise_std_, noise_};
    ExecutionResult result;
    result.output = walk(*cn_, backend, result);
    for (double& y : result.output) y /= cn_->output_nu;
    return result;
}

// ---------------------------------------------------------------------
// PreparedProgram
// ---------------------------------------------------------------------

PreparedProgram::PreparedProgram(const CompiledNetwork& cn,
                                 const ckks::Context& ctx)
    : cn_(&cn), ctx_(&ctx)
{
    ORION_CHECK(cn.slots == ctx.slot_count(),
                "program compiled for " << cn.slots
                                        << " slots, context has "
                                        << ctx.slot_count());
    ORION_CHECK(cn.l_eff < ctx.max_level(),
                "context needs more levels than l_eff");
    const ckks::Encoder encoder(ctx);

    // Symbolic scale propagation mirrors the CKKS backend; every linear
    // layer encodes its diagonals at the repair scale
    // Delta * q_level / in_scale (Figure 7), so scales between layers are
    // exactly Delta.
    const double delta = ctx.scale();
    steps_.resize(cn.program.size());

    // ---- Phase A: symbolic scale resolution ----
    // Linear layers can repair to any target via their free weight scale
    // (Figure 7); everything else propagates deterministically. A linear
    // output stays "pending" until its consumer is known: an Add binds it
    // to its partner's scale (which may have drifted through a square),
    // any other consumer binds it to Delta.
    std::map<int, double> scale_of;
    std::set<int> pending;  // linear outputs with undecided targets
    auto finalize = [&](int v, double s) {
        scale_of[v] = s;
        pending.erase(v);
    };
    auto consume = [&](int v) -> double {
        if (pending.count(v)) finalize(v, delta);
        return scale_of.at(v);
    };
    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        switch (ins.op) {
        case Instruction::Op::kInput:
            scale_of[ins.value] = delta;
            break;
        case Instruction::Op::kBootstrap:
            // The operand's exact symbolic scale feeds the circuit's
            // CoeffToSlot constant (the circuit re-normalizes to the
            // canonical scale).
            (void)consume(ins.a);
            scale_of[ins.value] = delta;
            break;
        case Instruction::Op::kLinear:
            (void)consume(ins.a);
            scale_of[ins.value] = delta;  // provisional
            pending.insert(ins.value);
            break;
        case Instruction::Op::kActivation: {
            const ActivationData& data =
                cn.activations[static_cast<std::size_t>(ins.payload)];
            const double in_scale = consume(ins.a);
            if (data.kind == nn::ActivationSpec::Kind::kSquare) {
                scale_of[ins.value] =
                    in_scale * in_scale /
                    static_cast<double>(ctx.q(ins.level).value());
            } else {
                scale_of[ins.value] = delta;  // retargeted by kMul below
            }
            break;
        }
        case Instruction::Op::kMul: {
            const double sa = consume(ins.a);
            (void)consume(ins.b);
            // Retarget the producing sign stage so this multiply rescales
            // exactly onto Delta.
            const double target =
                delta * static_cast<double>(ctx.q(ins.level).value()) / sa;
            scale_of[ins.b] = target;
            scale_of[ins.value] = delta;
            break;
        }
        case Instruction::Op::kScale:
            scale_of[ins.value] = consume(ins.a);
            break;
        case Instruction::Op::kAdd: {
            const bool pa = pending.count(ins.a) != 0;
            const bool pb = pending.count(ins.b) != 0;
            if (pa && pb) {
                finalize(ins.a, delta);
                finalize(ins.b, delta);
            } else if (pa) {
                finalize(ins.a, scale_of.at(ins.b));
            } else if (pb) {
                finalize(ins.b, scale_of.at(ins.a));
            }
            const double sa = scale_of.at(ins.a);
            const double sb = scale_of.at(ins.b);
            ORION_CHECK(ckks::scales_match(sa, sb),
                        "Add operands at mismatched scales: "
                            << sa << " vs " << sb);
            scale_of[ins.value] = sa;
            break;
        }
        case Instruction::Op::kOutput:
            (void)consume(ins.a);
            break;
        }
    }
    for (int v : std::set<int>(pending.begin(), pending.end())) {
        finalize(v, delta);
    }

    // ---- Phase B: encode matrices and biases, record exact scales, and
    // build the public-key bootstrap circuit ----
    // One circuit plan (a pure function of the parameters), one encoded
    // circuit per distinct symbolic input scale. A chain too short for
    // the circuit leaves boot_circuits_ empty, and executor construction
    // then rejects the program.
    if (cn.num_bootstraps > 0) {
        boot_plan_ = ckks::BootstrapPlan::cached(ctx.params());
    }
    const bool boot_ok =
        boot_plan_ != nullptr &&
        ckks::BootstrapCircuit::supported(ctx, *boot_plan_, cn.l_eff);
    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        Step& step = steps_[idx];
        if (ins.op == Instruction::Op::kLinear) {
            const LinearLayerData& data =
                cn.linears[static_cast<std::size_t>(ins.payload)];
            ORION_CHECK(data.matrix != nullptr,
                        "structural-only program cannot run on CKKS");
            const double target = scale_of.at(ins.value);
            const double w_scale =
                target * static_cast<double>(ctx.q(ins.level).value()) /
                scale_of.at(ins.a);
            step.matrix.emplace(ctx, encoder, *data.matrix, data.plan,
                                ins.level, w_scale);
            if (!data.folded_bias.empty()) {
                // The bias is replicated into every batch lane; unused
                // lanes of an under-filled request carry bias-propagated
                // values that never leave their lane (the weight matrix
                // is block-diagonal) and are dropped at unpack.
                const u64 padded =
                    std::max<u64>(1, ceil_div(data.rows, cn.slots)) *
                    cn.slots;
                const std::vector<std::vector<double>> lanes(
                    std::max(1, data.out_layout.batch), bias_tensor(data));
                const std::vector<double> slots =
                    data.out_layout.pack_batch(lanes, padded);
                for (u64 c = 0; c * cn.slots < padded; ++c) {
                    const std::span<const double> chunk(
                        slots.data() + c * cn.slots, cn.slots);
                    step.bias.push_back(
                        encoder.encode(chunk, ins.level - 1, target));
                }
            }
        } else if (ins.op == Instruction::Op::kBootstrap && boot_ok) {
            const double s_in = scale_of.at(ins.a);
            auto it = std::find_if(
                boot_circuits_.begin(), boot_circuits_.end(),
                [&](const auto& c) {
                    return ckks::scales_match(c->input_scale(), s_in);
                });
            if (it == boot_circuits_.end()) {
                it = boot_circuits_.insert(
                    it, std::make_unique<const ckks::BootstrapCircuit>(
                            ctx, encoder, boot_plan_, cn.l_eff, s_in));
            }
            step.circuit = it->get();
        } else if (ins.op == Instruction::Op::kActivation ||
                   ins.op == Instruction::Op::kScale) {
            step.out_scale = scale_of.at(ins.value);
        }
    }
}

GaloisRequirements
required_galois(const CompiledNetwork& cn, const ckks::Context& ctx)
{
    GaloisRequirements out;
    for (const CompiledNetwork::RotationUse& use : cn.required_rotations()) {
        out.requests.push_back({use.step, use.level});
    }
    if (cn.num_bootstraps > 0) {
        const std::shared_ptr<const ckks::BootstrapPlan> plan =
            ckks::BootstrapPlan::cached(ctx.params());
        if (ckks::BootstrapCircuit::supported(ctx, *plan, cn.l_eff)) {
            const std::vector<ckks::GaloisKeyRequest> boot =
                plan->galois_requests(cn.l_eff);
            out.requests.insert(out.requests.end(), boot.begin(),
                                boot.end());
            out.conjugation = true;
            out.conjugation_level = plan->conjugation_level(cn.l_eff);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// CkksExecutor
// ---------------------------------------------------------------------

CkksExecutor::CkksExecutor(const CompiledNetwork& cn,
                           const ckks::Context& ctx,
                           std::shared_ptr<const PreparedProgram> prepared)
    : cn_(&cn), ctx_(&ctx), encoder_(ctx),
      prep_(std::move(prepared)), eval_(ctx, encoder_)
{
    ORION_CHECK(prep_ != nullptr, "executor requires a prepared program");
    ORION_CHECK(prep_->cn_ == &cn && prep_->ctx_ == &ctx,
                "prepared program belongs to a different network or context");
    if (cn.num_bootstraps > 0 && !prep_->bootstrap_supported()) {
        const auto boot_ins = std::find_if(
            cn.program.begin(), cn.program.end(), [](const Instruction& i) {
                return i.op == Instruction::Op::kBootstrap;
            });
        ORION_ASSERT(boot_ins != cn.program.end());
        const ckks::BootstrapPlan* plan = prep_->bootstrap_plan();
        ORION_CHECK(false,
                    "cannot execute "
                        << describe_instruction(*boot_ins)
                        << ": the public-key bootstrap circuit needs l_eff "
                        << cn.l_eff << " + l_boot "
                        << (plan ? plan->depth : 0) << " levels, but the "
                        << "context chain tops out at level "
                        << ctx.max_level());
    }
}

void
CkksExecutor::bind_session_keys(const ckks::KswitchKey* relin,
                                const ckks::GaloisKeys* galois)
{
    relin_ = relin;
    galois_ = galois;
    eval_.set_relin_key(relin_);
    eval_.set_galois_keys(galois_);
}

EncryptedResult
CkksExecutor::run_encrypted(const std::vector<ckks::Ciphertext>& input)
{
    ORION_CHECK(relin_ != nullptr || galois_ != nullptr,
                "run_encrypted requires bound evaluation keys "
                "(bind_session_keys)");
    const CkksBackend backend{*ctx_, eval_, prep_->steps_, input};
    EncryptedResult result;
    result.outputs = walk(*cn_, backend, result);
    return result;
}

}  // namespace orion::core
