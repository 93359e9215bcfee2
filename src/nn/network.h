#ifndef ORION_SRC_NN_NETWORK_H_
#define ORION_SRC_NN_NETWORK_H_

/**
 * @file
 * The network graph IR: the C++ analogue of the paper's `orion.nn` module
 * API (Listing 1). Networks are DAGs of layers; the same graph is executed
 * in cleartext (the "PyTorch output" every FHE run is validated against,
 * Section 7) and compiled to FHE instructions by src/core/compiler.
 *
 * Supported layer kinds cover the paper's model zoo: Conv2d with arbitrary
 * stride/padding/dilation/groups, Linear, BatchNorm2d, AvgPool2d (max
 * pooling is replaced by average pooling, Section 7), elementwise
 * activations (x^2, composite-minimax ReLU, Chebyshev SiLU or custom),
 * residual Add, and Flatten.
 */

#include <functional>
#include <string>
#include <vector>

#include "src/approx/chebyshev.h"
#include "src/linalg/toeplitz.h"

namespace orion::nn {

/** Elementwise activation specification. */
struct ActivationSpec {
    enum class Kind { kSquare, kRelu, kSilu, kCustom };

    Kind kind = Kind::kRelu;
    /** Composite minimax degrees for ReLU (Listing 1: degrees=[15,15,27]). */
    std::vector<int> relu_degrees = {15, 15, 27};
    /** Chebyshev degree for SiLU / custom activations. */
    int degree = 127;
    /** The cleartext function (set automatically for non-custom kinds). */
    std::function<double(double)> f;

    static ActivationSpec square();
    static ActivationSpec relu(std::vector<int> degrees = {15, 15, 27});
    static ActivationSpec silu(int degree = 127);
    static ActivationSpec custom(std::function<double(double)> f, int degree);
};

/** Layer kinds in the graph IR. */
enum class LayerKind {
    kInput,
    kConv2d,
    kLinear,
    kBatchNorm2d,
    kAvgPool2d,
    kActivation,
    kAdd,
    kFlatten,
};

const char* layer_kind_name(LayerKind k);

/** Tensor shape flowing along a graph edge. */
struct Shape {
    bool flat = false;
    int c = 0, h = 0, w = 0;  ///< when !flat
    int features = 0;         ///< when flat

    u64
    size() const
    {
        return flat ? static_cast<u64>(features)
                    : static_cast<u64>(c) * h * w;
    }
    bool
    operator==(const Shape& o) const
    {
        return flat == o.flat && c == o.c && h == o.h && w == o.w &&
               features == o.features;
    }
};

/** "(c, h, w)" or "flat[features]" - for error messages. */
std::string to_string(const Shape& s);

/** One node of the network graph. */
struct Layer {
    int id = -1;
    LayerKind kind = LayerKind::kInput;
    std::string name;
    std::vector<int> inputs;

    // Conv2d / AvgPool2d geometry.
    lin::Conv2dSpec conv;
    // Conv2d weights [co][ci/g][kh][kw]; Linear weights [out][in].
    std::vector<double> weights;
    std::vector<double> bias;  // per output channel / feature (may be empty)

    // Linear.
    int in_features = 0;
    int out_features = 0;

    // BatchNorm2d: y = gamma * (x - mean) / sqrt(var + eps) + beta.
    std::vector<double> bn_gamma, bn_beta, bn_mean, bn_var;
    double bn_eps = 1e-5;

    // AvgPool2d.
    int pool_kernel = 0;
    int pool_stride = 0;
    int pool_pad = 0;

    ActivationSpec act;

    Shape out_shape;  // filled by Network on construction
};

/** A DAG of layers with cleartext execution. */
class Network {
  public:
    explicit Network(std::string name = "net") : name_(std::move(name)) {}

    const std::string& network_name() const { return name_; }

    // ---- graph construction (returns the new layer id) ----

    int add_input(int c, int h, int w);
    int add_conv2d(int input, const lin::Conv2dSpec& spec,
                   std::vector<double> weights,
                   std::vector<double> bias = {});
    int add_linear(int input, int out_features, std::vector<double> weights,
                   std::vector<double> bias = {});
    int add_batchnorm2d(int input, std::vector<double> gamma,
                        std::vector<double> beta, std::vector<double> mean,
                        std::vector<double> var, double eps = 1e-5);
    int add_avgpool2d(int input, int kernel, int stride, int pad = 0);
    /** Global average pooling: kernel = stride = spatial size. */
    int add_global_avgpool(int input);
    int add_activation(int input, const ActivationSpec& spec);
    int add_add(int a, int b);
    int add_flatten(int input);
    void set_output(int id);

    // ---- inspection ----

    int num_layers() const { return static_cast<int>(layers_.size()); }
    const Layer& layer(int id) const;
    int output_id() const { return output_; }
    int input_id() const { return input_; }
    const Shape& shape_of(int id) const { return layer(id).out_shape; }
    /** Ids of layers consuming the given layer's output. */
    std::vector<int> consumers(int id) const;

    /** Trainable parameter count (Table 2's "Params"). */
    u64 param_count() const;
    /** Multiply count of one inference (Table 2's "FLOPS", mult-only). */
    u64 flop_count() const;

    // ---- cleartext execution ----

    /**
     * Runs the network on a logical (c,h,w)-major input. When
     * `record_max_abs` is given, it receives max |value| per layer output
     * (the basis of range estimation, Section 6).
     */
    std::vector<double> forward(const std::vector<double>& input,
                                std::vector<double>* record_max_abs = nullptr)
        const;

  private:
    /**
     * One layer of forward() on its input values a (and b, the second
     * operand of an add). Activations evaluate the exact function
     * l.act.f, not a polynomial approximation.
     */
    std::vector<double> forward_one_layer(const Layer& l,
                                          const std::vector<double>& a,
                                          const std::vector<double>& b)
        const;
    Shape infer_shape(const Layer& l) const;
    int push(Layer l);
    /** Throws a precise error when `id` does not name an existing layer. */
    void check_input_id(int id, const char* who) const;

    std::string name_;
    std::vector<Layer> layers_;
    int input_ = -1;
    int output_ = -1;
};

}  // namespace orion::nn

#endif  // ORION_SRC_NN_NETWORK_H_
