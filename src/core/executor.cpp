#include "src/core/executor.h"

#include <chrono>
#include <cmath>
#include <set>

#include "src/approx/polyeval.h"
#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"

namespace orion::core {

namespace {

/** Per-value bookkeeping shared by both backends. */
struct ValueMeta {
    int level = 0;
};

/** One tensor value of the CKKS backend: its ciphertexts. */
struct Value {
    std::vector<ckks::Ciphertext> cts;
};

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
    const auto t0 = std::chrono::steady_clock::now();
    ORION_CHECK(input.size() == cn_->input_shape.size(),
                "input size mismatch");
    const CostModel& cost = cn_->cost_model;

    std::map<int, std::vector<double>> values;
    std::map<int, ValueMeta> meta;
    ExecutionResult result;

    for (const Instruction& ins : cn_->program) {
        switch (ins.op) {
        case Instruction::Op::kInput: {
            std::vector<double> v(input.size());
            for (std::size_t i = 0; i < input.size(); ++i) {
                v[i] = cn_->input_nu * input[i];
            }
            values[ins.value] = std::move(v);
            meta[ins.value] = {ins.level};
            break;
        }
        case Instruction::Op::kBootstrap: {
            ORION_CHECK(meta.at(ins.a).level >= 0, "bad bootstrap operand");
            std::vector<double> v = values.at(ins.a);
            for (double& x : v) x += noise_.sample_normal(noise_std_);
            values[ins.value] = std::move(v);
            meta[ins.value] = {cn_->l_eff};
            result.bootstraps += ins.cts;
            result.modeled_latency +=
                static_cast<double>(ins.cts) * cost.bootstrap(cn_->l_eff);
            break;
        }
        case Instruction::Op::kLinear: {
            ORION_CHECK(meta.at(ins.a).level >= ins.level,
                        "operand below linear exec level");
            const LinearLayerData& data =
                cn_->linears[static_cast<std::size_t>(ins.payload)];
            const std::vector<double>& x = values.at(ins.a);
            std::vector<double> y;
            if (data.kind == nn::LayerKind::kLinear) {
                y.assign(static_cast<std::size_t>(data.out_features), 0.0);
                for (int r = 0; r < data.out_features; ++r) {
                    double acc = 0.0;
                    const double* w =
                        data.folded_weights.data() +
                        static_cast<std::size_t>(r) * data.in_features;
                    for (int c = 0; c < data.in_features; ++c) {
                        acc += w[c] * x[static_cast<std::size_t>(c)];
                    }
                    y[static_cast<std::size_t>(r)] = acc;
                }
            } else {
                y = lin::conv2d_reference(data.conv, data.folded_weights, x,
                                          data.in_layout.height,
                                          data.in_layout.width);
            }
            if (!data.folded_bias.empty()) {
                const u64 hw = static_cast<u64>(data.out_layout.height) *
                               data.out_layout.width;
                if (data.kind == nn::LayerKind::kLinear) {
                    for (std::size_t i = 0; i < y.size(); ++i) {
                        y[i] += data.folded_bias[i];
                    }
                } else {
                    for (std::size_t c = 0; c < data.folded_bias.size();
                         ++c) {
                        for (u64 i = 0; i < hw; ++i) {
                            y[c * hw + i] += data.folded_bias[c];
                        }
                    }
                }
            }
            values[ins.value] = std::move(y);
            meta[ins.value] = {ins.level - 1};
            result.rotations += data.stats.total_rotations();
            result.pmults += data.stats.pmults;
            result.modeled_latency += cost.linear_layer(data.stats,
                                                        ins.level);
            break;
        }
        case Instruction::Op::kActivation: {
            const ActivationData& data =
                cn_->activations[static_cast<std::size_t>(ins.payload)];
            ORION_CHECK(meta.at(ins.a).level >= ins.level,
                        "operand below activation exec level");
            ORION_CHECK(ins.level >= data.depth,
                        "not enough levels for activation");
            std::vector<double> v = values.at(ins.a);
            for (double& x : v) x = data.approx_f(x);
            values[ins.value] = std::move(v);
            meta[ins.value] = {ins.level - data.depth};
            result.modeled_latency += cost.activation(
                data.stage_degrees, ins.level, ins.cts, false);
            break;
        }
        case Instruction::Op::kMul: {
            const std::vector<double>& a = values.at(ins.a);
            const std::vector<double>& b = values.at(ins.b);
            ORION_CHECK(a.size() == b.size(), "Mul operand size mismatch");
            ORION_CHECK(meta.at(ins.a).level >= ins.level &&
                            meta.at(ins.b).level >= ins.level,
                        "Mul operands below exec level");
            std::vector<double> v(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] * b[i];
            values[ins.value] = std::move(v);
            meta[ins.value] = {ins.level - 1};
            result.modeled_latency +=
                static_cast<double>(ins.cts) *
                (cost.hmult(ins.level) + cost.rescale(ins.level));
            break;
        }
        case Instruction::Op::kScale: {
            std::vector<double> v = values.at(ins.a);
            for (double& x : v) x *= ins.scale_factor;
            values[ins.value] = std::move(v);
            meta[ins.value] = {ins.level - 1};
            result.pmults += ins.cts;
            result.modeled_latency +=
                static_cast<double>(ins.cts) *
                (cost.pmult(ins.level) + cost.rescale(ins.level));
            break;
        }
        case Instruction::Op::kAdd: {
            const std::vector<double>& a = values.at(ins.a);
            const std::vector<double>& b = values.at(ins.b);
            ORION_CHECK(a.size() == b.size(), "Add operand size mismatch");
            ORION_CHECK(meta.at(ins.a).level >= ins.level &&
                            meta.at(ins.b).level >= ins.level,
                        "Add operands below exec level");
            std::vector<double> v(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] + b[i];
            values[ins.value] = std::move(v);
            meta[ins.value] = {ins.level};
            result.modeled_latency +=
                static_cast<double>(ins.cts) * cost.hadd(ins.level);
            break;
        }
        case Instruction::Op::kOutput: {
            std::vector<double> v = values.at(ins.a);
            for (double& x : v) x /= cn_->output_nu;
            result.output = std::move(v);
            break;
        }
        }
    }
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
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

    // Symbolic scale propagation mirrors run_encrypted(); every linear
    // layer encodes its diagonals at the repair scale
    // Delta * q_level / in_scale (Figure 7), so scales between layers are
    // exactly Delta.
    const double delta = ctx.scale();
    prepared_.resize(cn.program.size());
    bias_.resize(cn.program.size());
    in_scale_.assign(cn.program.size(), 0.0);
    act_target_.assign(cn.program.size(), 0.0);

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

    // ---- Phase B: encode matrices, biases, and activation targets ----
    for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
        const Instruction& ins = cn.program[idx];
        switch (ins.op) {
        case Instruction::Op::kLinear: {
            const LinearLayerData& data =
                cn.linears[static_cast<std::size_t>(ins.payload)];
            ORION_CHECK(data.matrix != nullptr,
                        "structural-only program cannot run on CKKS");
            const double in_scale = scale_of.at(ins.a);
            const double target = scale_of.at(ins.value);
            in_scale_[idx] = in_scale;
            const double w_scale =
                target *
                static_cast<double>(ctx.q(ins.level).value()) / in_scale;
            prepared_[idx] = std::make_shared<lin::HeBlockedMatrix>(
                ctx, encoder, *data.matrix, data.plan, ins.level, w_scale);
            if (!data.folded_bias.empty()) {
                const u64 padded =
                    std::max<u64>(1, ceil_div(data.rows, cn.slots)) *
                    cn.slots;
                std::vector<double> slots(padded, 0.0);
                // The bias is replicated into every batch lane; unused
                // lanes of an under-filled request carry bias-propagated
                // values that never leave their lane (the weight matrix
                // is block-diagonal) and are dropped at unpack.
                const int nb = std::max(1, data.out_layout.batch);
                const u64 lane_stride = data.out_layout.batch_stride;
                if (data.kind == nn::LayerKind::kLinear) {
                    for (int b = 0; b < nb; ++b) {
                        for (std::size_t i = 0; i < data.folded_bias.size();
                             ++i) {
                            slots[static_cast<u64>(b) * lane_stride + i] =
                                data.folded_bias[i];
                        }
                    }
                } else {
                    for (int b = 0; b < nb; ++b) {
                        for (int c = 0;
                             c < static_cast<int>(data.folded_bias.size());
                             ++c) {
                            for (int y = 0; y < data.out_layout.height;
                                 ++y) {
                                for (int x = 0; x < data.out_layout.width;
                                     ++x) {
                                    slots[data.out_layout.slot_of(b, c, y,
                                                                  x)] =
                                        data.folded_bias
                                            [static_cast<std::size_t>(c)];
                                }
                            }
                        }
                    }
                }
                for (u64 c = 0; c * cn.slots < padded; ++c) {
                    const std::span<const double> chunk(
                        slots.data() + c * cn.slots, cn.slots);
                    bias_[idx].push_back(encoder.encode(
                        chunk, ins.level - 1, target));
                }
            }
            break;
        }
        case Instruction::Op::kActivation: {
            in_scale_[idx] = scale_of.at(ins.a);
            act_target_[idx] = scale_of.at(ins.value);
            break;
        }
        case Instruction::Op::kScale:
        case Instruction::Op::kBootstrap:
            in_scale_[idx] = scale_of.at(ins.a);
            break;
        default:
            break;
        }
    }

    // ---- Phase C: the public-key bootstrap circuit ----
    // One plan (a pure function of the parameters), one encoded circuit
    // per distinct symbolic input scale. A chain too short for the
    // circuit leaves boot_circuits_ empty, and executor construction
    // then rejects the program.
    if (cn.num_bootstraps > 0) {
        boot_plan_ = ckks::BootstrapPlan::cached(ctx.params());
        if (ckks::BootstrapCircuit::supported(ctx, *boot_plan_, cn.l_eff)) {
            boot_circuit_of_.assign(cn.program.size(), -1);
            for (std::size_t idx = 0; idx < cn.program.size(); ++idx) {
                if (cn.program[idx].op != Instruction::Op::kBootstrap) {
                    continue;
                }
                const double s_in = in_scale_[idx];
                int found = -1;
                for (std::size_t c = 0; c < boot_circuits_.size(); ++c) {
                    if (ckks::scales_match(boot_circuits_[c]->input_scale(),
                                           s_in)) {
                        found = static_cast<int>(c);
                        break;
                    }
                }
                if (found < 0) {
                    boot_circuits_.push_back(
                        std::make_unique<const ckks::BootstrapCircuit>(
                            ctx, encoder, boot_plan_, cn.l_eff, s_in));
                    found = static_cast<int>(boot_circuits_.size()) - 1;
                }
                boot_circuit_of_[idx] = found;
            }
        }
    }
}

const ckks::BootstrapCircuit*
PreparedProgram::circuit_for(std::size_t idx) const
{
    ORION_ASSERT(idx < boot_circuit_of_.size() &&
                 boot_circuit_of_[idx] >= 0);
    return boot_circuits_[static_cast<std::size_t>(boot_circuit_of_[idx])]
        .get();
}

std::vector<ckks::GaloisKeyRequest>
PreparedProgram::galois_requests() const
{
    // One derivation shared with clients: the server validates bundles
    // against exactly what required_galois() tells a client to generate.
    return required_galois(*cn_, *ctx_).requests;
}

int
PreparedProgram::conjugation_level() const
{
    ORION_CHECK(bootstrap_supported(),
                "conjugation is only needed by the bootstrap circuit");
    return boot_plan_->conjugation_level(cn_->l_eff);
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
                           std::shared_ptr<const PreparedProgram> prepared,
                           std::optional<OrionConfig> cfg)
    : cn_(&cn), ctx_(&ctx), cfg_(std::move(cfg)), encoder_(ctx),
      prep_(std::move(prepared)), eval_(ctx, encoder_)
{
    ORION_CHECK(prep_ != nullptr, "executor requires a prepared program");
    ORION_CHECK(prep_->cn_ == &cn && prep_->ctx_ == &ctx,
                "prepared program belongs to a different network or context");
    if (cn.num_bootstraps > 0 && !prep_->bootstrap_supported()) {
        const Instruction* boot_ins = nullptr;
        for (const Instruction& ins : cn.program) {
            if (ins.op == Instruction::Op::kBootstrap) {
                boot_ins = &ins;
                break;
            }
        }
        ORION_ASSERT(boot_ins != nullptr);
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

std::vector<ckks::Ciphertext>
CkksExecutor::drop_all(const std::vector<ckks::Ciphertext>& in,
                       int level) const
{
    std::vector<ckks::Ciphertext> out;
    out.reserve(in.size());
    for (const ckks::Ciphertext& ct : in) {
        ORION_CHECK(ct.level() >= level, "value below required level");
        ckks::Ciphertext c = ct;
        if (c.level() > level) eval_.drop_to_level_inplace(c, level);
        out.push_back(std::move(c));
    }
    return out;
}

EncryptedResult
CkksExecutor::run_encrypted(const std::vector<ckks::Ciphertext>& input)
{
    ORION_CHECK(relin_ != nullptr || galois_ != nullptr,
                "run_encrypted requires bound evaluation keys "
                "(bind_session_keys)");
    // A pinned config governs every kernel underneath this call via a
    // thread-local override (concurrent executors with different budgets
    // cannot interfere). Without one, kernels follow the ambient setting
    // (global pool or the caller's own override).
    std::optional<ScopedPoolOverride> scoped_threads;
    if (cfg_) scoped_threads.emplace(cfg_->resolved_num_threads());
    const auto t0 = std::chrono::steady_clock::now();
    const approx::HePolyEvaluator polyeval(eval_);
    const double delta = ctx_->scale();

    std::map<int, Value> values;
    EncryptedResult result;

    for (std::size_t idx = 0; idx < cn_->program.size(); ++idx) {
        const Instruction& ins = cn_->program[idx];
        const auto ins_t0 = std::chrono::steady_clock::now();
        telemetry::SpanGuard ins_span(op_span_name(ins.op), ins.layer_id);
        switch (ins.op) {
        case Instruction::Op::kInput: {
            ORION_CHECK(input.size() == ins.cts,
                        "encrypted input has " << input.size()
                                               << " ciphertexts, program "
                                               << "expects " << ins.cts);
            for (const ckks::Ciphertext& ct : input) {
                ORION_CHECK(ct.valid() && ct.level() >= ins.level,
                            "encrypted input below the program's input "
                            "level " << ins.level);
                ORION_CHECK(ct.c0.is_ntt() && ct.c1.is_ntt(),
                            "encrypted input must be in NTT form");
                ORION_CHECK(ckks::scales_match(ct.scale, delta),
                            "encrypted input scale " << ct.scale
                                << " does not match the context scale "
                                << delta);
            }
            Value v;
            v.cts = drop_all(input, ins.level);
            values[ins.value] = std::move(v);
            break;
        }
        case Instruction::Op::kBootstrap: {
            // The real public-key circuit under the bound session keys.
            const ckks::BootstrapCircuit* circuit = prep_->circuit_for(idx);
            Value v;
            for (const ckks::Ciphertext& ct : values.at(ins.a).cts) {
                v.cts.push_back(circuit->bootstrap(eval_, ct));
            }
            values[ins.value] = std::move(v);
            result.bootstraps += ins.cts;
            break;
        }
        case Instruction::Op::kLinear: {
            const LinearLayerData& data =
                cn_->linears[static_cast<std::size_t>(ins.payload)];
            const std::vector<ckks::Ciphertext> in_cts =
                drop_all(values.at(ins.a).cts, ins.level);
            Value v;
            v.cts = prep_->prepared_[idx]->apply(eval_, in_cts);
            if (!prep_->bias_[idx].empty()) {
                for (std::size_t c = 0; c < v.cts.size(); ++c) {
                    eval_.add_plain_inplace(v.cts[c],
                                            prep_->bias_[idx][c]);
                }
            }
            values[ins.value] = std::move(v);
            // Deterministic program counts (equal to the measured kernel
            // counts; race-free when executors share one Context).
            result.rotations += data.stats.total_rotations();
            result.pmults += data.stats.pmults;
            break;
        }
        case Instruction::Op::kActivation: {
            const ActivationData& data =
                cn_->activations[static_cast<std::size_t>(ins.payload)];
            const std::vector<ckks::Ciphertext> in_cts =
                drop_all(values.at(ins.a).cts, ins.level);
            Value v;
            for (const ckks::Ciphertext& ct : in_cts) {
                if (data.kind == nn::ActivationSpec::Kind::kSquare) {
                    ckks::Ciphertext sq = eval_.square(ct);
                    eval_.rescale_inplace(sq);
                    v.cts.push_back(std::move(sq));
                } else {
                    v.cts.push_back(polyeval.evaluate(
                        data.stages[0], ct, prep_->act_target_[idx]));
                }
            }
            values[ins.value] = std::move(v);
            break;
        }
        case Instruction::Op::kMul: {
            const std::vector<ckks::Ciphertext> a =
                drop_all(values.at(ins.a).cts, ins.level);
            const std::vector<ckks::Ciphertext> b =
                drop_all(values.at(ins.b).cts, ins.level);
            ORION_CHECK(a.size() == b.size(), "Mul ct count mismatch");
            Value v;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ckks::Ciphertext prod = eval_.mul(a[i], b[i]);
                eval_.rescale_inplace(prod);
                ORION_ASSERT(ckks::scales_match(prod.scale, delta));
                prod.scale = delta;
                v.cts.push_back(std::move(prod));
            }
            values[ins.value] = std::move(v);
            break;
        }
        case Instruction::Op::kScale: {
            const std::vector<ckks::Ciphertext> in_cts =
                drop_all(values.at(ins.a).cts, ins.level);
            Value v;
            for (const ckks::Ciphertext& ct : in_cts) {
                ckks::Ciphertext c = ct;
                eval_.mul_constant_inplace(
                    c, ins.scale_factor,
                    static_cast<double>(ctx_->q(ins.level).value()));
                eval_.rescale_inplace(c);
                c.scale = prep_->in_scale_[idx];  // exact by construction
                v.cts.push_back(std::move(c));
            }
            values[ins.value] = std::move(v);
            result.pmults += ins.cts;
            break;
        }
        case Instruction::Op::kAdd: {
            const std::vector<ckks::Ciphertext> a =
                drop_all(values.at(ins.a).cts, ins.level);
            const std::vector<ckks::Ciphertext> b =
                drop_all(values.at(ins.b).cts, ins.level);
            ORION_CHECK(a.size() == b.size(), "Add ct count mismatch");
            Value v;
            for (std::size_t i = 0; i < a.size(); ++i) {
                v.cts.push_back(eval_.add(a[i], b[i]));
            }
            values[ins.value] = std::move(v);
            break;
        }
        case Instruction::Op::kOutput: {
            // The values map dies with this call; no need to copy the
            // megabytes of output ciphertexts.
            result.outputs = std::move(values.at(ins.a).cts);
            break;
        }
        }
        charge_layer(result.layer_times, ins.layer_id,
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ins_t0)
                         .count());
    }

    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
}

}  // namespace orion::core
