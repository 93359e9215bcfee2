#include "src/core/compiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <set>

#include "src/approx/polyeval.h"

namespace orion::core {

namespace {

using nn::Layer;
using nn::LayerKind;
using nn::Network;

/** Layers that produce no FHE instruction (value aliases). */
bool
is_passthrough(LayerKind k)
{
    return k == LayerKind::kInput || k == LayerKind::kFlatten;
}

lin::TensorLayout
layout_for(const nn::Shape& s, int gap)
{
    if (s.flat) return lin::TensorLayout(1, 1, s.features, 1);
    return lin::TensorLayout(s.c, s.h, s.w, gap);
}

/** A fully connected layer's matrix shape and plan over one input layout. */
struct LinearForm {
    lin::TensorLayout in;
    u64 rows = 0, cols = 0;
    lin::BlockedPlan plan;
};

/** The whole compile state, threaded through the passes. */
struct CompilerState {
    const Network* net;
    const CompileOptions* opt;
    CompiledNetwork out;

    std::vector<bool> bn_absorbed;       // BN folded into its producer
    std::vector<int> bn_of;              // conv/linear id -> absorbed BN id
    std::vector<double> max_abs;         // per-layer calibration maxima
    double input_max = 1.0;
    std::vector<double> nu;              // per-layer edge normalization
    std::vector<int> gap;                // layout gap of each layer output
    std::vector<u64> period;             // replication period of each
                                         // layer output (0 = one copy)
    std::vector<u64> edge_cts;           // ciphertexts per layer output
    std::vector<int> payload_of;         // layer id -> linears/acts index
    std::map<int, double> scale_insert;  // Add input layer id -> factor
    std::map<int, std::vector<int>> relu_stages_of;  // ReLU id -> payloads
    // Linear layer id -> the structure and plan choose_periods built for
    // the form it chose, reused by a structural compile's payload.
    std::map<int, LinearForm> linear_forms;
    // Value keys of unit records: a layer's output is keyed by its layer
    // id; sign-stage outputs get fresh keys from num_layers() up.
    int next_key = 0;

    int batch = 1;          // effective (capacity-clamped) batch
    u64 batch_stride = 0;   // slot stride between batch lanes

    u64
    cts_of_layout(const lin::TensorLayout& l) const
    {
        return std::max<u64>(1, ceil_div(l.total_slots(), opt->slots));
    }

    /** Stamps the compiled batch tiling onto a per-sample layout. */
    lin::TensorLayout
    batched(const lin::TensorLayout& l) const
    {
        if (batch <= 1) return l;
        return l.with_batch(batch, batch_stride);
    }
};

// ---------------------------------------------------------------------
// Pass 1: BatchNorm folding.
// ---------------------------------------------------------------------

void
fold_batchnorms(CompilerState& st)
{
    const Network& net = *st.net;
    st.bn_absorbed.assign(static_cast<std::size_t>(net.num_layers()), false);
    st.bn_of.assign(static_cast<std::size_t>(net.num_layers()), -1);
    for (int id = 0; id < net.num_layers(); ++id) {
        const Layer& l = net.layer(id);
        if (l.kind != LayerKind::kBatchNorm2d) continue;
        const int p = l.inputs[0];
        const Layer& producer = net.layer(p);
        const bool foldable =
            (producer.kind == LayerKind::kConv2d) &&
            net.consumers(p).size() == 1;
        if (foldable) {
            st.bn_absorbed[static_cast<std::size_t>(id)] = true;
            st.bn_of[static_cast<std::size_t>(p)] = id;
        }
        // Non-foldable BN becomes a standalone 1x1 depthwise conv later.
    }
}

// ---------------------------------------------------------------------
// Pass 2: range estimation (net.fit()).
// ---------------------------------------------------------------------

void
estimate_ranges(CompilerState& st)
{
    const Network& net = *st.net;
    st.max_abs.assign(static_cast<std::size_t>(net.num_layers()), 1e-9);
    std::mt19937_64 rng(st.opt->calibration_seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const u64 in_size = net.shape_of(net.input_id()).size();
    st.input_max = 1e-9;
    const std::vector<std::vector<double>>& user =
        st.opt->calibration_inputs;
    const int samples = user.empty() ? st.opt->calibration_samples
                                     : static_cast<int>(user.size());
    for (int s = 0; s < samples; ++s) {
        std::vector<double> x;
        if (user.empty()) {
            x.resize(in_size);
            for (double& v : x) v = dist(rng);
        } else {
            x = user[static_cast<std::size_t>(s)];
            ORION_CHECK(x.size() == in_size,
                        "calibration input size mismatch");
        }
        for (double v : x) st.input_max = std::max(st.input_max, std::abs(v));
        std::vector<double> maxima;
        net.forward(x, &maxima);
        for (int id = 0; id < net.num_layers(); ++id) {
            st.max_abs[static_cast<std::size_t>(id)] =
                std::max(st.max_abs[static_cast<std::size_t>(id)],
                         maxima[static_cast<std::size_t>(id)]);
        }
    }
}

/**
 * The calibration maximum of a layer's *effective* output (i.e. after any
 * absorbed BatchNorm).
 */
double
eff_max(const CompilerState& st, int id)
{
    const int bn = st.bn_of[static_cast<std::size_t>(id)];
    return st.max_abs[static_cast<std::size_t>(bn >= 0 ? bn : id)];
}

// ---------------------------------------------------------------------
// Pass 3: normalization factor assignment.
// ---------------------------------------------------------------------

/**
 * Extra normalization headroom on edges feeding polynomial activations:
 * fitted polynomials (sign composites, SiLU Chebyshev) are only controlled
 * on their fit domain, so approximation/calibration drift must never push
 * activation inputs outside it.
 */
constexpr double kActInputSlack = 1.5;

/** True when the layer's value feeds a non-square activation (via any
 * flatten views). */
bool
feeds_poly_activation(const Network& net, int id)
{
    for (int consumer : net.consumers(id)) {
        const Layer& c = net.layer(consumer);
        if (c.kind == LayerKind::kFlatten) {
            if (feeds_poly_activation(net, consumer)) return true;
        } else if (c.kind == LayerKind::kActivation &&
                   c.act.kind != nn::ActivationSpec::Kind::kSquare) {
            return true;
        }
    }
    return false;
}

void
assign_normalization(CompilerState& st)
{
    const Network& net = *st.net;
    const double margin = st.opt->margin;
    st.nu.assign(static_cast<std::size_t>(net.num_layers()), 1.0);
    auto nu_of = [&st](int id) -> double& {
        return st.nu[static_cast<std::size_t>(id)];
    };
    auto slack_of = [&net](int id) {
        return feeds_poly_activation(net, id) ? kActInputSlack : 1.0;
    };

    for (int id = 0; id < net.num_layers(); ++id) {
        const Layer& l = net.layer(id);
        switch (l.kind) {
        case LayerKind::kInput:
            nu_of(id) = 1.0 / (margin * slack_of(id) * st.input_max);
            break;
        case LayerKind::kConv2d:
        case LayerKind::kLinear:
        case LayerKind::kAvgPool2d:
        case LayerKind::kBatchNorm2d:
            nu_of(id) = 1.0 / (margin * slack_of(id) * eff_max(st, id));
            break;
        case LayerKind::kActivation:
            switch (l.act.kind) {
            case nn::ActivationSpec::Kind::kSquare: {
                // With a foldable producer, retrofit nu_in = sqrt(nu_out)
                // so the square needs no extra constant. Otherwise the
                // square simply emits nu_in^2 * x^2, which is still in
                // [-1, 1] (|nu_in * x| <= 1), and the next layer folds
                // from nu_in^2.
                const int p = l.inputs[0];
                const LayerKind pk = net.layer(p).kind;
                const bool foldable =
                    (pk == LayerKind::kConv2d || pk == LayerKind::kLinear ||
                     pk == LayerKind::kBatchNorm2d) &&
                    net.consumers(p).size() == 1;
                if (foldable) {
                    const double out =
                        1.0 /
                        (margin * st.max_abs[static_cast<std::size_t>(id)]);
                    nu_of(p) = std::sqrt(out);
                    nu_of(id) = out;
                } else {
                    nu_of(id) = nu_of(p) * nu_of(p);
                }
                break;
            }
            case nn::ActivationSpec::Kind::kRelu:
                nu_of(id) = nu_of(l.inputs[0]);
                break;
            default:
                nu_of(id) =
                    1.0 / (margin * st.max_abs[static_cast<std::size_t>(id)]);
                break;
            }
            break;
        case LayerKind::kAdd: {
            // Both inputs must arrive at a common nu that also bounds the
            // sum (see compiler.h pipeline notes).
            const int a = l.inputs[0];
            const int b = l.inputs[1];
            const double bound = std::max(
                {st.max_abs[static_cast<std::size_t>(id)],
                 st.max_abs[static_cast<std::size_t>(a)],
                 st.max_abs[static_cast<std::size_t>(b)]});
            const double target = 1.0 / (margin * slack_of(id) * bound);
            for (int in : {a, b}) {
                const Layer& p = net.layer(in);
                const bool foldable =
                    (p.kind == LayerKind::kConv2d ||
                     p.kind == LayerKind::kLinear ||
                     p.kind == LayerKind::kAvgPool2d ||
                     p.kind == LayerKind::kBatchNorm2d) &&
                    net.consumers(in).size() == 1;
                if (foldable) {
                    nu_of(in) = target;
                } else if (!ckks::scales_match(nu_of(in), target)) {
                    st.scale_insert[in] = target / nu_of(in);
                }
            }
            nu_of(id) = target;
            break;
        }
        case LayerKind::kFlatten:
            nu_of(id) = nu_of(l.inputs[0]);
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Pass 4: packing (layouts, matrices / structures, BSGS plans).
// ---------------------------------------------------------------------

/** Effective per-output-channel multiplier and bias of a linear layer. */
void
folded_channel_terms(const CompilerState& st, const Layer& l, int channels,
                     std::vector<double>* mult, std::vector<double>* bias)
{
    const double nu_in = st.nu[static_cast<std::size_t>(l.inputs[0])];
    // The authoritative output edge is the absorbed BatchNorm's when one
    // exists: downstream consumers reference that layer's nu.
    const int out_edge = st.bn_of[static_cast<std::size_t>(l.id)] >= 0
                             ? st.bn_of[static_cast<std::size_t>(l.id)]
                             : l.id;
    const double nu_out = st.nu[static_cast<std::size_t>(out_edge)];
    mult->assign(static_cast<std::size_t>(channels), nu_out / nu_in);
    bias->assign(static_cast<std::size_t>(channels), 0.0);
    for (int c = 0; c < channels; ++c) {
        double base_bias =
            l.bias.empty() ? 0.0 : l.bias[static_cast<std::size_t>(c)];
        double g = 1.0;
        double shift = 0.0;
        const int bn_id = st.bn_of[static_cast<std::size_t>(l.id)];
        if (bn_id >= 0) {
            const Layer& bn = st.net->layer(bn_id);
            const double inv_std = 1.0 / std::sqrt(
                bn.bn_var[static_cast<std::size_t>(c)] + bn.bn_eps);
            g = bn.bn_gamma[static_cast<std::size_t>(c)] * inv_std;
            shift = bn.bn_beta[static_cast<std::size_t>(c)] -
                    g * bn.bn_mean[static_cast<std::size_t>(c)];
        }
        (*mult)[static_cast<std::size_t>(c)] *= g;
        (*bias)[static_cast<std::size_t>(c)] =
            nu_out * (g * base_bias + shift);
    }
}

PlanStats
stats_from_plan(const lin::BlockedPlan& plan, u64 in_cts, u64 out_cts)
{
    PlanStats s;
    for (const auto& [bc, babies] : plan.column_babies) {
        (void)bc;
        for (u64 b : babies) {
            if (b != 0) ++s.baby_rotations;
        }
        ++s.hoists;
    }
    for (const auto& [key, bp] : plan.block_plans) {
        (void)key;
        s.giant_rotations += bp.giant_rotation_count();
        s.pmults += bp.pmult_count();
    }
    s.sum_rotations = plan.sum_rotation_count();
    s.input_cts = in_cts;
    s.output_cts = out_cts;
    return s;
}

/**
 * The slot layout actually holding a value: flattens are views, so the
 * layout (possibly multiplexed, Section 4.3) of the nearest non-flatten
 * producer is what a consumer sees.
 */
lin::TensorLayout
value_layout(const CompilerState& st, int id)
{
    const Layer& l = st.net->layer(id);
    if (l.kind == LayerKind::kFlatten) {
        return value_layout(st, l.inputs[0]);
    }
    return layout_for(l.out_shape, st.gap[static_cast<std::size_t>(id)])
        .with_period(st.period[static_cast<std::size_t>(id)]);
}

/**
 * Picks the fully connected layers that take the hybrid form and the
 * replication period of every value (DESIGN.md "Hybrid diagonals and
 * replicated layouts"). A linear layer is hybrid when its input fits one
 * ciphertext, n_o = out_features rounded up to a power of two is at most
 * n_i = the input span rounded up, and the input can be made periodic
 * with period n_i without a mask. That holds when the value's producer -
 * reached through flattens, absorbed BatchNorms and element-wise
 * activations, each with this one consumer - is the network input (the
 * client packs the copies), a conv, pool, BatchNorm or diagonal-form
 * linear layer (it replicates its clean output before any activation
 * sees it), or a hybrid layer (its output already repeats with period
 * n_o, which equals the consumer's n_i), and when the hybrid form plus
 * any replication needs no more rotations than the diagonal form. Runs
 * only at B = 1: a batch lane is not cyclic, so a fold would leave
 * partial sums at the lane edges.
 */
void
choose_periods(CompilerState& st)
{
    const Network& net = *st.net;
    st.period.assign(static_cast<std::size_t>(net.num_layers()), 0);
    if (st.batch > 1) return;
    for (int id = 0; id < net.num_layers(); ++id) {
        const Layer& l = net.layer(id);
        if (l.kind != LayerKind::kLinear) continue;
        const lin::TensorLayout in =
            value_layout(st, l.inputs[0]).with_period(0);
        const u64 span = in.total_slots();
        const u64 n_i = next_power_of_two(span);
        if (span > st.opt->slots ||
            next_power_of_two(static_cast<u64>(l.out_features)) > n_i) {
            continue;
        }
        std::vector<int> path;
        int cur = l.inputs[0];
        bool single = true;
        for (;;) {
            path.push_back(cur);
            single = single && net.consumers(cur).size() == 1;
            const Layer& p = net.layer(cur);
            const bool elementwise =
                p.kind == LayerKind::kFlatten ||
                p.kind == LayerKind::kActivation ||
                (p.kind == LayerKind::kBatchNorm2d &&
                 st.bn_absorbed[static_cast<std::size_t>(cur)]);
            if (!elementwise) break;
            cur = p.inputs[0];
        }
        if (!single || net.layer(cur).kind == LayerKind::kAdd) continue;
        const u64 have = st.period[static_cast<std::size_t>(cur)];
        ORION_ASSERT(have == 0 || have == n_i);
        // The copies are free from the client or a hybrid producer; any
        // other producer pays log2(slots / n_i) rotate-and-adds. Keep the
        // diagonal form where they would cost more rotations than the
        // hybrid form saves (a narrow input in a wide slot vector).
        const u64 replication =
            have != 0 || net.layer(cur).kind == LayerKind::kInput
                ? 0
                : lin::BlockedPlan::replication(n_i, st.opt->slots).size();
        auto form = [&](const lin::TensorLayout& layout) {
            const lin::BlockedStructure s = lin::build_linear_structure(
                l.out_features, layout, st.opt->slots);
            return LinearForm{layout, s.rows, s.cols,
                              lin::BlockedPlan::build(
                                  s, st.opt->use_bsgs ? 0 : 1)};
        };
        LinearForm hybrid = form(in.with_period(n_i));
        LinearForm diagonal = form(in);
        if (hybrid.plan.rotation_count() + replication >
            diagonal.plan.rotation_count()) {
            st.linear_forms.emplace(id, std::move(diagonal));
            continue;
        }
        st.linear_forms.emplace(id, std::move(hybrid));
        for (int v : path) st.period[static_cast<std::size_t>(v)] = n_i;
        st.period[static_cast<std::size_t>(id)] =
            next_power_of_two(static_cast<u64>(l.out_features));
    }
}

/** Builds the LinearLayerData of a conv / pool / linear / standalone BN. */
int
build_linear_payload(CompilerState& st, const Layer& l)
{
    const Network& net = *st.net;
    const CompileOptions& opt = *st.opt;
    LinearLayerData data;
    const int in_id = l.inputs[0];
    const lin::TensorLayout in_layout = st.batched(value_layout(st, in_id));
    data.in_layout = in_layout;

    if (l.kind == LayerKind::kConv2d) {
        data.kind = LayerKind::kConv2d;
        data.conv = l.conv;
        const int out_gap = opt.packing == CompileOptions::Packing::kRaster
                                ? in_layout.gap
                                : in_layout.gap * l.conv.stride;
        data.out_layout = st.batched(lin::TensorLayout(
            l.conv.out_channels, l.out_shape.h, l.out_shape.w, out_gap));
        std::vector<double> mult, bias;
        folded_channel_terms(st, l, l.conv.out_channels, &mult, &bias);
        data.folded_weights = l.weights;
        const u64 per_out = data.folded_weights.size() /
                            static_cast<u64>(l.conv.out_channels);
        for (int c = 0; c < l.conv.out_channels; ++c) {
            for (u64 i = 0; i < per_out; ++i) {
                data.folded_weights[static_cast<std::size_t>(c) * per_out +
                                    i] *= mult[static_cast<std::size_t>(c)];
            }
        }
        data.folded_bias = std::move(bias);
    } else if (l.kind == LayerKind::kAvgPool2d) {
        data.kind = LayerKind::kAvgPool2d;
        const nn::Shape in_shape = net.shape_of(in_id);
        const lin::Conv2dSpec spec = lin::avgpool_spec(
            in_shape.c, l.pool_kernel, l.pool_stride, l.pool_pad);
        data.conv = spec;
        const int out_gap = opt.packing == CompileOptions::Packing::kRaster
                                ? in_layout.gap
                                : in_layout.gap * spec.stride;
        data.out_layout = st.batched(lin::TensorLayout(
            in_shape.c, l.out_shape.h, l.out_shape.w, out_gap));
        const double nu_ratio =
            st.nu[static_cast<std::size_t>(l.id)] /
            st.nu[static_cast<std::size_t>(in_id)];
        data.folded_weights.assign(
            spec.weight_count(),
            nu_ratio / (static_cast<double>(l.pool_kernel) * l.pool_kernel));
    } else if (l.kind == LayerKind::kLinear) {
        data.kind = LayerKind::kLinear;
        data.in_features = l.in_features;
        data.out_features = l.out_features;
        data.out_layout = st.batched(lin::TensorLayout(1, 1, l.out_features, 1));
        std::vector<double> mult, bias;
        folded_channel_terms(st, l, l.out_features, &mult, &bias);
        data.folded_weights = l.weights;
        for (int r = 0; r < l.out_features; ++r) {
            for (int c = 0; c < l.in_features; ++c) {
                data.folded_weights[static_cast<std::size_t>(r) *
                                        l.in_features +
                                    c] *= mult[static_cast<std::size_t>(r)];
            }
        }
        data.folded_bias = std::move(bias);
    } else {
        // Standalone BatchNorm: 1x1 depthwise conv.
        ORION_ASSERT(l.kind == LayerKind::kBatchNorm2d);
        data.kind = LayerKind::kConv2d;
        const nn::Shape in_shape = net.shape_of(in_id);
        lin::Conv2dSpec spec;
        spec.in_channels = spec.out_channels = in_shape.c;
        spec.groups = in_shape.c;
        data.conv = spec;
        data.out_layout = in_layout;
        const double nu_in = st.nu[static_cast<std::size_t>(in_id)];
        const double nu_out = st.nu[static_cast<std::size_t>(l.id)];
        data.folded_weights.resize(static_cast<std::size_t>(in_shape.c));
        data.folded_bias.resize(static_cast<std::size_t>(in_shape.c));
        for (int c = 0; c < in_shape.c; ++c) {
            const double inv_std = 1.0 / std::sqrt(
                l.bn_var[static_cast<std::size_t>(c)] + l.bn_eps);
            const double g = l.bn_gamma[static_cast<std::size_t>(c)] * inv_std;
            data.folded_weights[static_cast<std::size_t>(c)] =
                g * nu_out / nu_in;
            data.folded_bias[static_cast<std::size_t>(c)] =
                nu_out * (l.bn_beta[static_cast<std::size_t>(c)] -
                          g * l.bn_mean[static_cast<std::size_t>(c)]);
        }
    }

    data.out_layout =
        data.out_layout.with_period(st.period[static_cast<std::size_t>(l.id)]);

    // The plan always comes from the matrix that gets encoded, so it covers
    // exactly the diagonals PreparedProgram will hold (zero weights drop
    // out). Structural compiles have no values and plan every diagonal a
    // weight can touch; a fully connected layer reuses the plan
    // choose_periods built for the form it chose.
    const bool linear = data.kind == LayerKind::kLinear;
    const u64 n1 = opt.use_bsgs ? 0 : 1;
    const auto chosen = st.linear_forms.find(l.id);
    if (opt.structural_only && chosen != st.linear_forms.end()) {
        ORION_ASSERT(chosen->second.in == in_layout);
        data.rows = chosen->second.rows;
        data.cols = chosen->second.cols;
        data.plan = std::move(chosen->second.plan);
    } else if (opt.structural_only) {
        const lin::BlockedStructure structure =
            linear ? lin::build_linear_structure(l.out_features, in_layout,
                                                 opt.slots)
                   : lin::build_conv_structure(data.conv, in_layout,
                                               data.out_layout, opt.slots);
        data.rows = structure.rows;
        data.cols = structure.cols;
        data.plan = lin::BlockedPlan::build(structure, n1);
    } else {
        data.matrix = std::make_shared<lin::BlockedMatrix>(
            linear ? lin::build_linear_matrix(l.out_features, l.in_features,
                                              data.folded_weights, in_layout,
                                              opt.slots)
                   : lin::build_conv_matrix(data.conv, data.folded_weights,
                                            in_layout, data.out_layout,
                                            opt.slots));
        data.rows = data.matrix->rows();
        data.cols = data.matrix->cols();
        data.plan = lin::BlockedPlan::build(*data.matrix, n1);
    }
    // A hybrid output already repeats with its period; any other output
    // with a period is clean and gets copied over the slot vector.
    if (!(linear && lin::is_hybrid_linear(l.out_features, in_layout))) {
        data.plan.replicate_steps =
            lin::BlockedPlan::replication(data.out_layout.period, opt.slots);
    }
    data.stats = stats_from_plan(
        data.plan, std::max<u64>(1, ceil_div(data.cols, opt.slots)),
        std::max<u64>(1, ceil_div(data.rows, opt.slots)));

    st.out.linears.push_back(std::move(data));
    return static_cast<int>(st.out.linears.size()) - 1;
}

/**
 * Builds the ActivationData unit(s) of an activation layer. Square and
 * SiLU/custom are one unit; ReLU becomes one unit per sign stage (its
 * x * sign(x) multiply is emitted as a kMul join by the chain builder),
 * so bootstraps can land between the composite's stages (Section 5.2).
 * Returns the payload index for single-unit kinds, -1 for ReLU (the stage
 * payloads are recorded in relu_stages_of).
 */
int
build_activation_payload(CompilerState& st, const Layer& l)
{
    const double nu_in = st.nu[static_cast<std::size_t>(l.inputs[0])];
    const double nu_out = st.nu[static_cast<std::size_t>(l.id)];
    switch (l.act.kind) {
    case nn::ActivationSpec::Kind::kSquare: {
        ActivationData data;
        data.kind = l.act.kind;
        data.nu_in = nu_in;
        data.nu_out = nu_out;
        data.depth = 1;
        data.stage_degrees = {2};
        st.out.activations.push_back(std::move(data));
        return static_cast<int>(st.out.activations.size()) - 1;
    }
    case nn::ActivationSpec::Kind::kRelu: {
        std::vector<approx::ChebyshevPoly> stages =
            approx::make_relu_stages(l.act.relu_degrees);
        // Widen the first stage's effective domain: evaluating p0(x / tau)
        // leaves sign(x) unchanged but keeps the composite stable when
        // approximation noise or calibration drift pushes |x| slightly
        // past 1 (otherwise the sign polynomials amplify the overshoot
        // and deep ResNets blow up).
        constexpr double kSignDomainSlack = 1.5;
        const approx::ChebyshevPoly p0 = stages[0];
        stages[0] = approx::ChebyshevPoly::fit(
            [&p0](double x) { return p0.eval(x / kSignDomainSlack); }, -1.0,
            1.0, p0.degree());
        std::vector<int>& payloads = st.relu_stages_of[l.id];
        for (std::size_t i = 0; i < stages.size(); ++i) {
            ActivationData data;
            data.kind = l.act.kind;
            data.nu_in = nu_in;
            data.nu_out = nu_out;
            data.stages = {stages[i]};
            data.depth = approx::HePolyEvaluator::poly_depth(stages[i]);
            data.stage_degrees = {stages[i].degree()};
            st.out.activations.push_back(std::move(data));
            payloads.push_back(
                static_cast<int>(st.out.activations.size()) - 1);
        }
        return -1;
    }
    default: {
        // SiLU / custom: fit g(u) = nu_out * f(u / nu_in) on [-1, 1].
        ActivationData data;
        data.kind = l.act.kind;
        data.nu_in = nu_in;
        data.nu_out = nu_out;
        const std::function<double(double)> f = l.act.f;
        const approx::ChebyshevPoly g = approx::ChebyshevPoly::fit(
            [&](double u) { return nu_out * f(u / nu_in); }, -1.0, 1.0,
            l.act.degree);
        data.stages = {g};
        data.depth = approx::HePolyEvaluator::poly_depth(g);
        data.stage_degrees = {l.act.degree};
        st.out.activations.push_back(std::move(data));
        return static_cast<int>(st.out.activations.size()) - 1;
    }
    }
}

// ---------------------------------------------------------------------
// Pass 5: chain construction (SESE regions around residual Adds).
// ---------------------------------------------------------------------

/** The placement unit that emits `ins`, priced by instruction_cost. */
ChainItem
unit_item(const CompilerState& st, const Instruction& ins)
{
    ChainItem item;
    PlacementUnit& u = item.unit;
    u.ins = ins;
    u.depth = instruction_cost(st.out, ins, st.opt->l_eff).depth;
    u.latency = [&out = st.out, ins](int level) {
        return instruction_cost(out, ins, level).seconds;
    };
    u.input_cts = ins.cts;
    if (ins.op == Instruction::Op::kLinear) {
        const LinearLayerData& data =
            st.out.linears[static_cast<std::size_t>(ins.payload)];
        u.input_cts = data.stats.input_cts;
    }
    return item;
}

/** The record of a network layer's instruction: operands are layer keys. */
Instruction
layer_record(const CompilerState& st, const Layer& l, Instruction::Op op)
{
    Instruction ins;
    ins.op = op;
    ins.value = ins.layer_id = l.id;
    ins.a = l.inputs[0];
    ins.cts = st.edge_cts[static_cast<std::size_t>(l.id)];
    ins.payload = st.payload_of[static_cast<std::size_t>(l.id)];
    return ins;
}

/** The fork of a residual Add: the nearest common ancestor of its inputs. */
int
fork_of(const Network& net, const Layer& add)
{
    std::set<int> ancestors;
    int cur = add.inputs[0];
    while (true) {
        ancestors.insert(cur);
        const Layer& a = net.layer(cur);
        if (a.inputs.empty()) break;
        cur = a.inputs[0];
    }
    int fork = add.inputs[1];
    while (ancestors.count(fork) == 0) {
        const Layer& b = net.layer(fork);
        ORION_CHECK(!b.inputs.empty(), "no common fork for Add");
        fork = b.inputs[0];
    }
    return fork;
}

Chain build_chain(CompilerState& st, int from_exclusive, int to_inclusive);

/** Appends the chain item(s) of one layer (skipping passthroughs). */
void
append_layer(CompilerState& st, Chain* chain, int id)
{
    using Op = Instruction::Op;
    const Layer& l = st.net->layer(id);
    if (is_passthrough(l.kind)) return;
    if (l.kind == LayerKind::kBatchNorm2d &&
        st.bn_absorbed[static_cast<std::size_t>(id)]) {
        return;
    }
    if (l.kind == LayerKind::kActivation &&
        l.act.kind == nn::ActivationSpec::Kind::kRelu) {
        // ReLU = x * sign(x): a SESE region whose backbone is the sign
        // stages and whose other branch is the identity (x itself).
        Chain backbone;
        int prev_key = l.inputs[0];
        for (int payload : st.relu_stages_of.at(id)) {
            Instruction stage;
            stage.op = Op::kActivation;
            stage.layer_id = -1000 - payload;  // see core::LayerTiming
            stage.a = prev_key;
            stage.value = prev_key = st.next_key++;
            stage.cts = st.edge_cts[static_cast<std::size_t>(l.inputs[0])];
            stage.payload = payload;
            backbone.items.push_back(unit_item(st, stage));
        }
        Instruction join = layer_record(st, l, Op::kMul);
        join.b = prev_key;
        ChainItem region = unit_item(st, join);
        region.kind = ChainItem::Kind::kRegion;
        region.fork = l.inputs[0];
        region.branches.push_back(std::move(backbone));
        region.branches.emplace_back();  // identity branch: x
        chain->items.push_back(std::move(region));
        return;
    }
    if (l.kind == LayerKind::kAdd) {
        const int fork = fork_of(*st.net, l);
        Instruction join = layer_record(st, l, Op::kAdd);
        join.b = l.inputs[1];
        ChainItem region = unit_item(st, join);
        region.kind = ChainItem::Kind::kRegion;
        region.fork = fork;
        for (int in : {l.inputs[0], l.inputs[1]}) {
            Chain branch = build_chain(st, fork, in);
            if (auto it = st.scale_insert.find(in);
                it != st.scale_insert.end()) {
                // The scaled value replaces the branch output's binding.
                Instruction scale;
                scale.op = Op::kScale;
                scale.layer_id = -100 - in;  // see core::LayerTiming
                scale.a = scale.value = in;
                scale.scale_factor = it->second;
                scale.cts = st.edge_cts[static_cast<std::size_t>(in)];
                branch.items.push_back(unit_item(st, scale));
            }
            region.branches.push_back(std::move(branch));
        }
        chain->items.push_back(std::move(region));
        return;
    }
    Op op = Op::kLinear;
    if (l.kind == LayerKind::kActivation) op = Op::kActivation;
    chain->items.push_back(unit_item(st, layer_record(st, l, op)));
}

Chain
build_chain(CompilerState& st, int from_exclusive, int to_inclusive)
{
    Chain chain;
    // Collect the backward path, continuing upward through each Add's fork.
    std::vector<int> path;
    int cur = to_inclusive;
    while (cur != from_exclusive) {
        path.push_back(cur);
        const Layer& l = st.net->layer(cur);
        ORION_CHECK(!l.inputs.empty(), "walked past the chain start");
        cur = l.kind == LayerKind::kAdd ? fork_of(*st.net, l) : l.inputs[0];
    }
    std::reverse(path.begin(), path.end());
    for (int id : path) append_layer(st, &chain, id);
    return chain;
}

// ---------------------------------------------------------------------
// Pass 7: instruction emission.
// ---------------------------------------------------------------------

/**
 * Emits the program: the input, every placement decision's record, the
 * output. Each record is copied as is; its value keys resolve to program
 * value ids (one per instruction, in program order).
 */
void
emit_instructions(CompilerState& st)
{
    const Network& net = *st.net;
    std::vector<Instruction>& program = st.out.program;
    std::map<int, int> value_of;  // value key -> program value id
    auto resolve = [&](int key) -> int {
        // Walk through passthrough layers / absorbed BNs to the value.
        while (value_of.count(key) == 0) {
            const Layer& l = net.layer(key);
            ORION_CHECK(!l.inputs.empty(), "unresolved value for layer "
                                               << key);
            key = l.inputs[0];
        }
        return value_of.at(key);
    };
    auto emit = [&](Instruction ins) {
        if (ins.a >= 0) ins.a = resolve(ins.a);
        if (ins.b >= 0) ins.b = resolve(ins.b);
        if (ins.value >= 0) {
            value_of[ins.value] = static_cast<int>(program.size());
        }
        ins.value = static_cast<int>(program.size());
        program.push_back(ins);
    };

    Instruction in;
    in.op = Instruction::Op::kInput;
    in.value = in.layer_id = net.input_id();
    in.level = st.opt->l_eff;
    in.cts = st.edge_cts[static_cast<std::size_t>(net.input_id())];
    emit(in);
    for (const Instruction& d : st.out.placement.decisions) emit(d);
    Instruction out;
    out.op = Instruction::Op::kOutput;
    out.a = out.layer_id = net.output_id();
    emit(out);
}

/** Fills the program totals: one instruction_cost per instruction. */
void
tally_program(CompiledNetwork& cn)
{
    for (const Instruction& ins : cn.program) {
        const InstructionCost c = instruction_cost(cn, ins, ins.level);
        cn.total_rotations += c.rotations;
        cn.total_pmults += c.pmults;
        cn.num_bootstraps += c.bootstraps;
        cn.modeled_latency += c.seconds;
        // Table 2's depth column counts linear layers and activations
        // together (e.g. MLP = 3 FC + 2 squares = 5).
        cn.total_mult_depth += c.depth;
        if (ins.op == Instruction::Op::kActivation ||
            ins.op == Instruction::Op::kMul) {
            cn.activation_depth += c.depth;
        }
    }
}

}  // namespace

std::vector<CompiledNetwork::RotationUse>
CompiledNetwork::required_rotations() const
{
    // A linear layer's babies and giants rotate at the instruction's
    // execution level (before the rescale), its fold and replication one
    // level lower, so each step's key only has to cover the highest level
    // any layer rotates by it.
    std::map<int, int> level_of;
    auto use = [&](int step, int level) {
        auto [it, inserted] = level_of.emplace(step, level);
        if (!inserted) it->second = std::max(it->second, level);
    };
    for (const Instruction& ins : program) {
        if (ins.op != Instruction::Op::kLinear) continue;
        const lin::BlockedPlan& plan =
            linears[static_cast<std::size_t>(ins.payload)].plan;
        for (const auto& [key, bp] : plan.block_plans) {
            (void)key;
            for (int s : bp.required_steps()) use(s, ins.level);
        }
        for (const std::vector<u64>* sums :
             {&plan.fold_steps, &plan.replicate_steps}) {
            for (u64 s : *sums) use(static_cast<int>(s), ins.level - 1);
        }
    }
    std::vector<RotationUse> out;
    out.reserve(level_of.size());
    for (const auto& [step, level] : level_of) {
        out.push_back({step, level});
    }
    return out;
}

InstructionCost
instruction_cost(const CompiledNetwork& cn, const Instruction& ins, int level)
{
    using Op = Instruction::Op;
    const CostModel& cost = cn.cost_model;
    const double cts = static_cast<double>(ins.cts);
    InstructionCost c;
    switch (ins.op) {
    case Op::kInput:
    case Op::kOutput:
        break;
    case Op::kBootstrap:
        c.seconds = cts * cost.bootstrap(cn.l_eff);
        c.bootstraps = ins.cts;
        break;
    case Op::kLinear: {
        const PlanStats& stats =
            cn.linears[static_cast<std::size_t>(ins.payload)].stats;
        c.seconds = cost.linear_layer(stats, level);
        c.rotations = stats.total_rotations();
        c.pmults = stats.pmults;
        c.depth = 1;
        break;
    }
    case Op::kActivation: {
        const ActivationData& data =
            cn.activations[static_cast<std::size_t>(ins.payload)];
        c.seconds = cost.activation(data.stage_degrees, level, ins.cts, false);
        c.depth = data.depth;
        break;
    }
    case Op::kMul:
        c.seconds = cts * (cost.hmult(level) + cost.rescale(level));
        c.depth = 1;
        break;
    case Op::kScale:
        c.seconds = cts * (cost.pmult(level) + cost.rescale(level));
        c.pmults = ins.cts;
        c.depth = 1;
        break;
    case Op::kAdd:
        c.seconds = cts * cost.hadd(level);
        break;
    }
    return c;
}

const char*
to_string(Instruction::Op op)
{
    switch (op) {
    case Instruction::Op::kInput: return "kInput";
    case Instruction::Op::kBootstrap: return "kBootstrap";
    case Instruction::Op::kLinear: return "kLinear";
    case Instruction::Op::kActivation: return "kActivation";
    case Instruction::Op::kMul: return "kMul";
    case Instruction::Op::kScale: return "kScale";
    case Instruction::Op::kAdd: return "kAdd";
    case Instruction::Op::kOutput: return "kOutput";
    }
    return "k?";
}

std::string
describe_instruction(const Instruction& ins)
{
    std::ostringstream oss;
    oss << to_string(ins.op) << " (layer " << ins.layer_id << ", "
        << ins.cts << " cts)";
    return oss.str();
}

CompiledNetwork
compile(const nn::Network& net, const CompileOptions& options)
{
    const auto t0 = std::chrono::steady_clock::now();
    ORION_CHECK(net.input_id() >= 0 && net.output_id() >= 0,
                "network not finalized");
    CompilerState st;
    st.net = &net;
    st.opt = &options;
    st.out.name = net.network_name();
    st.out.slots = options.slots;
    st.out.cost_model = options.cost;
    st.out.l_eff = options.l_eff;

    fold_batchnorms(st);
    estimate_ranges(st);
    assign_normalization(st);

    // Layout gaps, in topological order (payload construction below needs
    // every gap fixed before the batch capacity is known).
    st.gap.assign(static_cast<std::size_t>(net.num_layers()), 1);
    st.edge_cts.assign(static_cast<std::size_t>(net.num_layers()), 1);
    st.payload_of.assign(static_cast<std::size_t>(net.num_layers()), -1);
    for (int id = 0; id < net.num_layers(); ++id) {
        const Layer& l = net.layer(id);
        const int in_gap =
            l.inputs.empty() ? 1
                             : st.gap[static_cast<std::size_t>(l.inputs[0])];
        int out_gap = in_gap;
        if (options.packing == CompileOptions::Packing::kMultiplexed) {
            if (l.kind == LayerKind::kConv2d) out_gap = in_gap * l.conv.stride;
            if (l.kind == LayerKind::kAvgPool2d) {
                out_gap = in_gap * l.pool_stride;
            }
        }
        if (l.kind == LayerKind::kLinear) out_gap = 1;
        const bool absorbed =
            l.kind == LayerKind::kBatchNorm2d &&
            st.bn_absorbed[static_cast<std::size_t>(id)];
        st.gap[static_cast<std::size_t>(id)] = absorbed ? in_gap : out_gap;
    }

    // Batch capacity: the widest layer's per-sample span, rounded up to a
    // power of two, becomes the lane stride; slots / stride samples fit
    // side by side. Lanes at a uniform power-of-two stride keep every
    // batched weight matrix on the same generalized diagonals as B = 1,
    // so the rotation plans are unchanged. A span wider than the slot
    // count (multi-ciphertext layers) pins capacity at 1: those programs
    // run unbatched.
    ORION_CHECK(options.batch >= 1,
                "batch must be >= 1, got " << options.batch);
    u64 max_span = 0;
    std::string limit_name = "input#0";
    for (int id = 0; id < net.num_layers(); ++id) {
        const Layer& l = net.layer(id);
        if (l.kind == LayerKind::kFlatten) continue;
        const u64 span =
            layout_for(l.out_shape, st.gap[static_cast<std::size_t>(id)])
                .total_slots();
        if (span > max_span) {
            max_span = span;
            limit_name = l.name.empty() ? nn::layer_kind_name(l.kind)
                                        : l.name;
            limit_name += "#" + std::to_string(id);
        }
    }
    const u64 lane_stride = next_power_of_two(max_span);
    const int capacity =
        lane_stride > options.slots
            ? 1
            : static_cast<int>(options.slots / lane_stride);
    st.batch = std::min(options.batch, capacity);
    st.batch_stride = st.batch > 1 ? lane_stride : 0;
    st.out.batch = st.batch;
    st.out.batch_stride = st.batch_stride;
    st.out.batch_capacity = capacity;
    st.out.batch_limit_layer = limit_name;
    choose_periods(st);

    // Payloads, in topological order.
    for (int id = 0; id < net.num_layers(); ++id) {
        const Layer& l = net.layer(id);
        if (l.kind == LayerKind::kFlatten) {
            st.edge_cts[static_cast<std::size_t>(id)] =
                st.edge_cts[static_cast<std::size_t>(l.inputs[0])];
        } else {
            const lin::TensorLayout layout = st.batched(layout_for(
                l.out_shape, st.gap[static_cast<std::size_t>(id)]));
            st.edge_cts[static_cast<std::size_t>(id)] =
                st.cts_of_layout(layout);
        }

        const bool absorbed =
            l.kind == LayerKind::kBatchNorm2d &&
            st.bn_absorbed[static_cast<std::size_t>(id)];
        if (absorbed) continue;
        if (l.kind == LayerKind::kConv2d || l.kind == LayerKind::kLinear ||
            l.kind == LayerKind::kAvgPool2d ||
            l.kind == LayerKind::kBatchNorm2d) {
            st.payload_of[static_cast<std::size_t>(id)] =
                build_linear_payload(st, l);
        } else if (l.kind == LayerKind::kActivation) {
            st.payload_of[static_cast<std::size_t>(id)] =
                build_activation_payload(st, l);
        }
    }

    // Placement over one record per unit, then emission and the totals.
    st.next_key = net.num_layers();
    Chain chain = build_chain(st, net.input_id(), net.output_id());
    PlacementConfig pconfig;
    pconfig.l_eff = options.l_eff;
    Instruction boot;
    boot.op = Instruction::Op::kBootstrap;
    pconfig.bootstrap_latency =
        instruction_cost(st.out, boot, options.l_eff).seconds;
    st.out.placement = options.lazy_placement
                           ? place_bootstraps_lazy(chain, pconfig)
                           : place_bootstraps(chain, pconfig);
    st.out.placement_seconds = st.out.placement.solve_seconds;
    emit_instructions(st);
    tally_program(st.out);
    ORION_CHECK(st.out.num_bootstraps == st.out.placement.num_bootstraps,
                "the program's bootstraps differ from the placement's");

    // Input/output bookkeeping.
    st.out.input_shape = net.shape_of(net.input_id());
    st.out.input_layout = st.batched(value_layout(st, net.input_id()));
    st.out.input_nu = st.nu[static_cast<std::size_t>(net.input_id())];
    st.out.output_nu = st.nu[static_cast<std::size_t>(net.output_id())];
    st.out.output_layout = st.batched(value_layout(st, net.output_id()));
    st.out.output_size = net.shape_of(net.output_id()).size();

    st.out.compile_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return st.out;
}

}  // namespace orion::core
