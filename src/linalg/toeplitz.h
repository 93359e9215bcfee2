#ifndef ORION_SRC_LINALG_TOEPLITZ_H_
#define ORION_SRC_LINALG_TOEPLITZ_H_

/**
 * @file
 * Toeplitz lowering of convolutions (Section 4).
 *
 * Any convolution - arbitrary stride, padding, dilation, and groups - is a
 * linear map from input slots to output slots, so it can be written as a
 * matrix whose rows are one filter placement each (Figure 3a for SISO,
 * Figure 4 for MIMO). Packing the input and output tensors in multiplexed
 * layouts (gap_out = gap_in * stride) permutes the rows/columns of this
 * matrix so that strided convolutions stay densely diagonal (Figure 5b):
 * this is Orion's single-shot multiplexed packing, and it consumes a single
 * multiplicative level because the mask-and-collect step of Lee et al. is
 * fused into the (preprocessed) weight matrix.
 */

#include "src/linalg/blocked.h"
#include "src/linalg/layout.h"

namespace orion::lin {

/** Geometry of a 2-D convolution. */
struct Conv2dSpec {
    int in_channels = 1;
    int out_channels = 1;
    int kernel_h = 1;
    int kernel_w = 1;
    int stride = 1;
    int pad = 0;
    int dilation = 1;
    int groups = 1;

    int
    out_h(int in_h) const
    {
        return (in_h + 2 * pad - dilation * (kernel_h - 1) - 1) / stride + 1;
    }
    int
    out_w(int in_w) const
    {
        return (in_w + 2 * pad - dilation * (kernel_w - 1) - 1) / stride + 1;
    }
    /** Weight tensor element count: co * (ci/groups) * kh * kw. */
    u64
    weight_count() const
    {
        return static_cast<u64>(out_channels) *
               (static_cast<u64>(in_channels) / groups) * kernel_h * kernel_w;
    }
    void
    validate() const
    {
        ORION_CHECK(in_channels > 0 && out_channels > 0, "bad channels");
        ORION_CHECK(kernel_h > 0 && kernel_w > 0, "bad kernel");
        ORION_CHECK(stride > 0 && dilation > 0 && pad >= 0, "bad geometry");
        ORION_CHECK(groups > 0 && in_channels % groups == 0 &&
                        out_channels % groups == 0,
                    "channels must divide groups");
    }
};

/**
 * Output layout of a convolution under single-shot multiplexed packing:
 * same grid family, gap multiplied by the stride.
 */
TensorLayout conv_output_layout(const Conv2dSpec& spec,
                                const TensorLayout& in);

/**
 * Builds the (blocked) Toeplitz matrix of a convolution between the given
 * layouts. Weights are ordered [co][ci/groups][kh][kw] row-major. Optional
 * per-output-channel scale folds batch-norm / scale-down factors into the
 * matrix for free.
 */
BlockedMatrix build_conv_matrix(const Conv2dSpec& spec,
                                const std::vector<double>& weights,
                                const TensorLayout& in,
                                const TensorLayout& out, u64 block_dim,
                                const std::vector<double>& channel_scale = {});

/**
 * True when a fully connected layer over `in` takes the hybrid form of
 * GAZELLE (Juvekar et al., USENIX Security 2018): the input is replicated
 * with period n_i = in.period, and n_o = out_features rounded up to a
 * power of two is at most n_i. The matrix then has the n_o diagonals
 * d_k[i] = W[i mod n_o][(i + k) mod n_i] (W zero-padded to n_o x n_i)
 * over the whole slot block, and its fold_steps n_i/2, ..., n_o sum the
 * n_i / n_o partial products. Every column is hit exactly once per slot,
 * so slot i of the output holds y[i mod n_o]: the output is replicated
 * with period n_o, never a partial sum. Otherwise the layer is one
 * zero-padded diagonal matrix with up to rows + span - 1 diagonals.
 */
bool is_hybrid_linear(int out_features, const TensorLayout& in);

/**
 * Builds the matrix of a fully-connected layer applied to a tensor in the
 * given input layout (the layout permutation is absorbed into the matrix):
 * the hybrid form when is_hybrid_linear, else the diagonal form. Weights
 * are [out_features][in_features] row-major, where in_features enumerates
 * the tensor in logical (c, y, x) order.
 */
BlockedMatrix build_linear_matrix(int out_features, int in_features,
                                  const std::vector<double>& weights,
                                  const TensorLayout& in, u64 block_dim,
                                  const std::vector<double>& out_scale = {});

/**
 * Average pooling as a depthwise convolution: `channels` groups of one
 * channel each, kernel x kernel taps.
 */
Conv2dSpec avgpool_spec(int channels, int kernel, int stride, int pad = 0);

/** Average pooling as a grouped convolution with constant 1/(k*k) taps. */
BlockedMatrix build_avgpool_matrix(int kernel, int stride,
                                   const TensorLayout& in,
                                   const TensorLayout& out, u64 block_dim,
                                   int pad = 0);

/** The layout produced by average pooling (gap multiplied by stride). */
TensorLayout avgpool_output_layout(int kernel, int stride,
                                   const TensorLayout& in, int pad = 0);

/*
 * Structure-only variants: record which generalized diagonals of which
 * blocks a layer's weights can touch, without materializing values. They
 * share the value builders' walk, one (lane, output channel, input
 * channel, tap) at a time over the tap's valid output rectangle, but do
 * not visit its entries one by one. A rectangle whose row and column
 * advance together and that stays in one block pair is one generalized
 * diagonal and is marked once; otherwise each output row is one run
 * (DESIGN.md "Closed-form convolution structure"). A fully connected
 * layer's column is a range of diagonals. Zero weights are skipped only
 * when values exist: a value matrix drops them, a structure keeps every
 * position. So a plan that will be encoded must be built from the value
 * matrix (BlockedPlan::build(matrix)); these serve geometry-only callers
 * (packing figures, baselines, and compiles of networks whose full
 * Toeplitz matrices would not fit in memory, such as ResNet-50 and
 * YOLO-v1).
 */

/** Diagonal structure of a convolution between the given layouts. */
BlockedStructure build_conv_structure(const Conv2dSpec& spec,
                                      const TensorLayout& in,
                                      const TensorLayout& out, u64 block_dim);

/** Diagonal structure (and fold) of a dense fully-connected layer. */
BlockedStructure build_linear_structure(int out_features,
                                        const TensorLayout& in,
                                        u64 block_dim);

/**
 * Reference cleartext convolution on logical (c, y, x)-major tensors, the
 * ground truth for every packing test.
 */
std::vector<double> conv2d_reference(const Conv2dSpec& spec,
                                     const std::vector<double>& weights,
                                     const std::vector<double>& input,
                                     int in_h, int in_w);

}  // namespace orion::lin

#endif  // ORION_SRC_LINALG_TOEPLITZ_H_
