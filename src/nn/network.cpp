#include "src/nn/network.h"

#include <cmath>

namespace orion::nn {

ActivationSpec
ActivationSpec::square()
{
    ActivationSpec s;
    s.kind = Kind::kSquare;
    s.f = [](double x) { return x * x; };
    return s;
}

ActivationSpec
ActivationSpec::relu(std::vector<int> degrees)
{
    ActivationSpec s;
    s.kind = Kind::kRelu;
    s.relu_degrees = std::move(degrees);
    s.f = [](double x) { return x > 0 ? x : 0.0; };
    return s;
}

ActivationSpec
ActivationSpec::silu(int degree)
{
    ActivationSpec s;
    s.kind = Kind::kSilu;
    s.degree = degree;
    s.f = [](double x) { return x / (1.0 + std::exp(-x)); };
    return s;
}

ActivationSpec
ActivationSpec::custom(std::function<double(double)> f, int degree)
{
    ActivationSpec s;
    s.kind = Kind::kCustom;
    s.degree = degree;
    s.f = std::move(f);
    return s;
}

const char*
layer_kind_name(LayerKind k)
{
    switch (k) {
    case LayerKind::kInput: return "Input";
    case LayerKind::kConv2d: return "Conv2d";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kBatchNorm2d: return "BatchNorm2d";
    case LayerKind::kAvgPool2d: return "AvgPool2d";
    case LayerKind::kActivation: return "Activation";
    case LayerKind::kAdd: return "Add";
    case LayerKind::kFlatten: return "Flatten";
    }
    return "?";
}

std::string
to_string(const Shape& s)
{
    std::ostringstream oss;
    if (s.flat) {
        oss << "flat[" << s.features << "]";
    } else {
        oss << "(" << s.c << ", " << s.h << ", " << s.w << ")";
    }
    return oss.str();
}

const Layer&
Network::layer(int id) const
{
    ORION_CHECK(id >= 0 && id < num_layers(), "bad layer id " << id);
    return layers_[static_cast<std::size_t>(id)];
}

void
Network::check_input_id(int id, const char* who) const
{
    ORION_CHECK(id >= 0 && id < num_layers(),
                who << " input id " << id
                    << " does not name an existing layer (network '" << name_
                    << "' has layer ids 0.." << num_layers() - 1 << ")");
}

int
Network::push(Layer l)
{
    l.id = num_layers();
    for (int in : l.inputs) {
        ORION_CHECK(in >= 0 && in < l.id, "input id out of order: " << in);
    }
    l.out_shape = infer_shape(l);
    layers_.push_back(std::move(l));
    return layers_.back().id;
}

Shape
Network::infer_shape(const Layer& l) const
{
    switch (l.kind) {
    case LayerKind::kInput:
        return l.out_shape;  // set by add_input
    case LayerKind::kConv2d: {
        const Shape& in = shape_of(l.inputs[0]);
        ORION_CHECK(!in.flat, "add_conv2d needs a spatial (c, h, w) input, "
                              "got "
                                  << to_string(in));
        ORION_CHECK(in.c == l.conv.in_channels,
                    "add_conv2d expects " << l.conv.in_channels
                                          << " input channels, got "
                                          << to_string(in));
        const int oh = l.conv.out_h(in.h);
        const int ow = l.conv.out_w(in.w);
        ORION_CHECK(oh >= 1 && ow >= 1,
                    "add_conv2d kernel " << l.conv.kernel_h << "x"
                                         << l.conv.kernel_w
                                         << " (stride " << l.conv.stride
                                         << ", pad " << l.conv.pad
                                         << ") does not fit the input "
                                         << to_string(in));
        return Shape{false, l.conv.out_channels, oh, ow, 0};
    }
    case LayerKind::kLinear: {
        const Shape& in = shape_of(l.inputs[0]);
        ORION_CHECK(static_cast<int>(in.size()) == l.in_features,
                    "linear expects " << l.in_features << " features, got "
                                      << in.size());
        return Shape{true, 0, 0, 0, l.out_features};
    }
    case LayerKind::kBatchNorm2d: {
        const Shape& in = shape_of(l.inputs[0]);
        ORION_CHECK(!in.flat, "batchnorm needs a spatial input");
        ORION_CHECK(static_cast<std::size_t>(in.c) == l.bn_gamma.size(),
                    "batchnorm channel mismatch");
        return in;
    }
    case LayerKind::kAvgPool2d: {
        const Shape& in = shape_of(l.inputs[0]);
        ORION_CHECK(!in.flat, "pool needs a spatial input");
        const int oh =
            (in.h + 2 * l.pool_pad - l.pool_kernel) / l.pool_stride + 1;
        const int ow =
            (in.w + 2 * l.pool_pad - l.pool_kernel) / l.pool_stride + 1;
        return Shape{false, in.c, oh, ow, 0};
    }
    case LayerKind::kActivation:
        return shape_of(l.inputs[0]);
    case LayerKind::kAdd: {
        const Shape& a = shape_of(l.inputs[0]);
        const Shape& b = shape_of(l.inputs[1]);
        ORION_CHECK(a == b, "Add operands must have equal shapes");
        return a;
    }
    case LayerKind::kFlatten: {
        const Shape& in = shape_of(l.inputs[0]);
        return Shape{true, 0, 0, 0, static_cast<int>(in.size())};
    }
    }
    ORION_ASSERT(false);
    return {};
}

int
Network::add_input(int c, int h, int w)
{
    ORION_CHECK(input_ == -1, "network already has an input");
    Layer l;
    l.kind = LayerKind::kInput;
    l.name = "input";
    l.out_shape = Shape{false, c, h, w, 0};
    input_ = push(std::move(l));
    return input_;
}

int
Network::add_conv2d(int input, const lin::Conv2dSpec& spec,
                    std::vector<double> weights, std::vector<double> bias)
{
    check_input_id(input, "add_conv2d");
    spec.validate();
    ORION_CHECK(weights.size() == spec.weight_count(),
                "add_conv2d expects "
                    << spec.weight_count() << " weights (co "
                    << spec.out_channels << " x ci/g "
                    << spec.in_channels / spec.groups << " x "
                    << spec.kernel_h << "x" << spec.kernel_w << "), got "
                    << weights.size());
    ORION_CHECK(bias.empty() ||
                    bias.size() ==
                        static_cast<std::size_t>(spec.out_channels),
                "add_conv2d expects one bias per output channel ("
                    << spec.out_channels << "), got " << bias.size());
    Layer l;
    l.kind = LayerKind::kConv2d;
    l.name = "conv2d";
    l.inputs = {input};
    l.conv = spec;
    l.weights = std::move(weights);
    l.bias = std::move(bias);
    return push(std::move(l));
}

int
Network::add_linear(int input, int out_features, std::vector<double> weights,
                    std::vector<double> bias)
{
    check_input_id(input, "add_linear");
    ORION_CHECK(out_features > 0, "add_linear needs positive out_features, "
                                  "got "
                                      << out_features);
    const Shape& in = shape_of(input);
    const int in_features = static_cast<int>(in.size());
    ORION_CHECK(weights.size() == static_cast<std::size_t>(out_features) *
                                      static_cast<std::size_t>(in_features),
                "add_linear expects " << out_features << " x " << in_features
                                      << " = "
                                      << static_cast<u64>(out_features) *
                                             static_cast<u64>(in_features)
                                      << " weights for input "
                                      << to_string(in) << ", got "
                                      << weights.size());
    ORION_CHECK(bias.empty() ||
                    bias.size() == static_cast<std::size_t>(out_features),
                "add_linear expects one bias per output feature ("
                    << out_features << "), got " << bias.size());
    Layer l;
    l.kind = LayerKind::kLinear;
    l.name = "linear";
    l.inputs = {input};
    l.in_features = in_features;
    l.out_features = out_features;
    l.weights = std::move(weights);
    l.bias = std::move(bias);
    return push(std::move(l));
}

int
Network::add_batchnorm2d(int input, std::vector<double> gamma,
                         std::vector<double> beta, std::vector<double> mean,
                         std::vector<double> var, double eps)
{
    check_input_id(input, "add_batchnorm2d");
    const Shape& in = shape_of(input);
    ORION_CHECK(!in.flat, "add_batchnorm2d needs a spatial (c, h, w) input, "
                          "got "
                              << to_string(in));
    ORION_CHECK(gamma.size() == beta.size() && gamma.size() == mean.size() &&
                    gamma.size() == var.size(),
                "add_batchnorm2d parameter sizes disagree: gamma "
                    << gamma.size() << ", beta " << beta.size() << ", mean "
                    << mean.size() << ", var " << var.size());
    ORION_CHECK(gamma.size() == static_cast<std::size_t>(in.c),
                "add_batchnorm2d expects one parameter per channel of "
                    << to_string(in) << ", got " << gamma.size());
    Layer l;
    l.kind = LayerKind::kBatchNorm2d;
    l.name = "batchnorm2d";
    l.inputs = {input};
    l.bn_gamma = std::move(gamma);
    l.bn_beta = std::move(beta);
    l.bn_mean = std::move(mean);
    l.bn_var = std::move(var);
    l.bn_eps = eps;
    return push(std::move(l));
}

int
Network::add_avgpool2d(int input, int kernel, int stride, int pad)
{
    check_input_id(input, "add_avgpool2d");
    ORION_CHECK(kernel > 0 && stride > 0 && pad >= 0,
                "add_avgpool2d needs positive kernel/stride, got kernel "
                    << kernel << ", stride " << stride << ", pad " << pad);
    const Shape& in = shape_of(input);
    ORION_CHECK(!in.flat, "add_avgpool2d needs a spatial (c, h, w) input, "
                          "got "
                              << to_string(in));
    ORION_CHECK(in.h + 2 * pad >= kernel && in.w + 2 * pad >= kernel,
                "add_avgpool2d kernel " << kernel
                                        << " does not fit the input "
                                        << to_string(in) << " with pad "
                                        << pad);
    Layer l;
    l.kind = LayerKind::kAvgPool2d;
    l.name = "avgpool2d";
    l.inputs = {input};
    l.pool_kernel = kernel;
    l.pool_stride = stride;
    l.pool_pad = pad;
    return push(std::move(l));
}

int
Network::add_global_avgpool(int input)
{
    const Shape& in = shape_of(input);
    ORION_CHECK(!in.flat && in.h == in.w,
                "global pool expects a square spatial input");
    return add_avgpool2d(input, in.h, in.h);
}

int
Network::add_activation(int input, const ActivationSpec& spec)
{
    check_input_id(input, "add_activation");
    ORION_CHECK(static_cast<bool>(spec.f),
                "add_activation: the spec has no cleartext function (use "
                "the ActivationSpec factories)");
    Layer l;
    l.kind = LayerKind::kActivation;
    l.name = "activation";
    l.inputs = {input};
    l.act = spec;
    return push(std::move(l));
}

int
Network::add_add(int a, int b)
{
    check_input_id(a, "add_add");
    check_input_id(b, "add_add");
    ORION_CHECK(shape_of(a) == shape_of(b),
                "add_add operands must have equal shapes: layer "
                    << a << " is " << to_string(shape_of(a)) << ", layer "
                    << b << " is " << to_string(shape_of(b)));
    Layer l;
    l.kind = LayerKind::kAdd;
    l.name = "add";
    l.inputs = {a, b};
    return push(std::move(l));
}

int
Network::add_flatten(int input)
{
    check_input_id(input, "add_flatten");
    Layer l;
    l.kind = LayerKind::kFlatten;
    l.name = "flatten";
    l.inputs = {input};
    return push(std::move(l));
}

void
Network::set_output(int id)
{
    check_input_id(id, "set_output");
    output_ = id;
}

std::vector<int>
Network::consumers(int id) const
{
    std::vector<int> out;
    for (const Layer& l : layers_) {
        for (int in : l.inputs) {
            if (in == id) {
                out.push_back(l.id);
                break;
            }
        }
    }
    return out;
}

u64
Network::param_count() const
{
    u64 count = 0;
    for (const Layer& l : layers_) {
        count += l.weights.size() + l.bias.size();
        count += l.bn_gamma.size() + l.bn_beta.size();
    }
    return count;
}

u64
Network::flop_count() const
{
    u64 count = 0;
    for (const Layer& l : layers_) {
        switch (l.kind) {
        case LayerKind::kConv2d: {
            const Shape& out = l.out_shape;
            count += static_cast<u64>(out.h) * out.w * out.c *
                     (static_cast<u64>(l.conv.in_channels) / l.conv.groups) *
                     l.conv.kernel_h * l.conv.kernel_w;
            break;
        }
        case LayerKind::kLinear:
            count += static_cast<u64>(l.in_features) * l.out_features;
            break;
        case LayerKind::kBatchNorm2d:
        case LayerKind::kActivation:
            count += l.out_shape.size();
            break;
        case LayerKind::kAvgPool2d:
            count += l.out_shape.size() * l.pool_kernel * l.pool_kernel;
            break;
        default:
            break;
        }
    }
    return count;
}

std::vector<double>
Network::forward_one_layer(const Layer& l, const std::vector<double>& a,
                           const std::vector<double>& b) const
{
    switch (l.kind) {
    case LayerKind::kInput:
    case LayerKind::kFlatten:
        return a;
    case LayerKind::kConv2d: {
        const Shape& in = shape_of(l.inputs[0]);
        std::vector<double> y =
            lin::conv2d_reference(l.conv, l.weights, a, in.h, in.w);
        if (!l.bias.empty()) {
            const Shape& out = l.out_shape;
            for (int c = 0; c < out.c; ++c) {
                for (int i = 0; i < out.h * out.w; ++i) {
                    y[static_cast<std::size_t>(c) * out.h * out.w +
                      static_cast<std::size_t>(i)] +=
                        l.bias[static_cast<std::size_t>(c)];
                }
            }
        }
        return y;
    }
    case LayerKind::kLinear: {
        std::vector<double> y(static_cast<std::size_t>(l.out_features), 0.0);
        for (int r = 0; r < l.out_features; ++r) {
            double acc = l.bias.empty()
                             ? 0.0
                             : l.bias[static_cast<std::size_t>(r)];
            const double* w = l.weights.data() +
                              static_cast<std::size_t>(r) * l.in_features;
            for (int c = 0; c < l.in_features; ++c) acc += w[c] * a[static_cast<std::size_t>(c)];
            y[static_cast<std::size_t>(r)] = acc;
        }
        return y;
    }
    case LayerKind::kBatchNorm2d: {
        const Shape& in = shape_of(l.inputs[0]);
        std::vector<double> y(a.size());
        const int hw = in.h * in.w;
        for (int c = 0; c < in.c; ++c) {
            const double inv_std =
                1.0 / std::sqrt(l.bn_var[static_cast<std::size_t>(c)] +
                                l.bn_eps);
            const double g = l.bn_gamma[static_cast<std::size_t>(c)];
            const double m = l.bn_mean[static_cast<std::size_t>(c)];
            const double bt = l.bn_beta[static_cast<std::size_t>(c)];
            for (int i = 0; i < hw; ++i) {
                const std::size_t idx =
                    static_cast<std::size_t>(c) * hw +
                    static_cast<std::size_t>(i);
                y[idx] = g * (a[idx] - m) * inv_std + bt;
            }
        }
        return y;
    }
    case LayerKind::kAvgPool2d: {
        const Shape& in = shape_of(l.inputs[0]);
        lin::Conv2dSpec spec;
        spec.in_channels = spec.out_channels = in.c;
        spec.kernel_h = spec.kernel_w = l.pool_kernel;
        spec.stride = l.pool_stride;
        spec.pad = l.pool_pad;
        spec.groups = in.c;
        const std::vector<double> w(
            spec.weight_count(),
            1.0 / (static_cast<double>(l.pool_kernel) * l.pool_kernel));
        return lin::conv2d_reference(spec, w, a, in.h, in.w);
    }
    case LayerKind::kActivation: {
        std::vector<double> y(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) y[i] = l.act.f(a[i]);
        return y;
    }
    case LayerKind::kAdd: {
        ORION_ASSERT(a.size() == b.size());
        std::vector<double> y(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) y[i] = a[i] + b[i];
        return y;
    }
    }
    ORION_ASSERT(false);
    return {};
}

std::vector<double>
Network::forward(const std::vector<double>& input,
                 std::vector<double>* record_max_abs) const
{
    ORION_CHECK(input_ >= 0 && output_ >= 0, "network not finalized");
    ORION_CHECK(input.size() == shape_of(input_).size(),
                "input size mismatch: " << input.size() << " vs "
                                        << shape_of(input_).size());
    std::vector<std::vector<double>> values(
        static_cast<std::size_t>(num_layers()));
    if (record_max_abs != nullptr) {
        record_max_abs->assign(static_cast<std::size_t>(num_layers()), 0.0);
    }
    // The last layer that reads each output: the loop frees a value there,
    // so a forward holds its live values only, not every layer's output.
    std::vector<int> last_read(static_cast<std::size_t>(num_layers()), -1);
    for (const Layer& l : layers_) {
        for (const int in : l.inputs) {
            last_read[static_cast<std::size_t>(in)] = l.id;
        }
    }
    for (const Layer& l : layers_) {
        const std::vector<double> empty;
        const std::vector<double>& a =
            l.kind == LayerKind::kInput
                ? input
                : values[static_cast<std::size_t>(l.inputs[0])];
        const std::vector<double>& b =
            l.inputs.size() > 1
                ? values[static_cast<std::size_t>(l.inputs[1])]
                : empty;
        values[static_cast<std::size_t>(l.id)] = forward_one_layer(l, a, b);
        if (record_max_abs != nullptr) {
            double m = 0.0;
            for (double v : values[static_cast<std::size_t>(l.id)]) {
                m = std::max(m, std::abs(v));
            }
            (*record_max_abs)[static_cast<std::size_t>(l.id)] = m;
        }
        for (const int in : l.inputs) {
            const auto i = static_cast<std::size_t>(in);
            if (in != output_ && last_read[i] == l.id) {
                std::vector<double>().swap(values[i]);
            }
        }
    }
    return std::move(values[static_cast<std::size_t>(output_)]);
}

}  // namespace orion::nn
