#include "src/linalg/toeplitz.h"

#include <algorithm>

#include "src/core/thread_pool.h"

namespace orion::lin {

bool
is_hybrid_linear(int out_features, const TensorLayout& in)
{
    return in.period != 0 &&
           next_power_of_two(static_cast<u64>(out_features)) <= in.period;
}

TensorLayout
conv_output_layout(const Conv2dSpec& spec, const TensorLayout& in)
{
    spec.validate();
    ORION_CHECK(in.channels == spec.in_channels,
                "layout/spec channel mismatch: " << in.channels << " vs "
                                                 << spec.in_channels);
    const TensorLayout out(spec.out_channels, spec.out_h(in.height),
                           spec.out_w(in.width), in.gap * spec.stride);
    if (in.batch > 1) return out.with_batch(in.batch, in.batch_stride);
    return out;
}

namespace {

/**
 * Walks every filter tap of a convolution between the given layouts and
 * calls emit(row, col, o, widx): one matrix row per output element
 * (Figure 3a), with the tap scattered to its (row, col) position under the
 * multiplexed layouts. widx indexes the weights [co][ci/groups][kh][kw].
 * Batch lanes shift row and column by the same b * batch_stride, so they
 * land on the same generalized diagonals (block-diagonal weights: one BSGS
 * product serves all lanes).
 */
template <class Emit>
void
scatter_conv(const Conv2dSpec& spec, const TensorLayout& in,
             const TensorLayout& out, const Emit& emit)
{
    spec.validate();
    ORION_CHECK(in.batch == out.batch && in.batch_stride == out.batch_stride,
                "conv input/output batch mismatch");
    const int ci_per_group = spec.in_channels / spec.groups;
    const int co_per_group = spec.out_channels / spec.groups;
    const int nb = std::max(1, in.batch);
    for (int b = 0; b < nb; ++b) {
        for (int o = 0; o < spec.out_channels; ++o) {
            const int group = o / co_per_group;
            for (int oy = 0; oy < out.height; ++oy) {
                for (int ox = 0; ox < out.width; ++ox) {
                    const u64 row = out.slot_of(b, o, oy, ox);
                    for (int ci = 0; ci < ci_per_group; ++ci) {
                        const int c = group * ci_per_group + ci;
                        for (int ky = 0; ky < spec.kernel_h; ++ky) {
                            const int iy = oy * spec.stride - spec.pad +
                                           ky * spec.dilation;
                            if (iy < 0 || iy >= in.height) continue;
                            for (int kx = 0; kx < spec.kernel_w; ++kx) {
                                const int ix = ox * spec.stride - spec.pad +
                                               kx * spec.dilation;
                                if (ix < 0 || ix >= in.width) continue;
                                const u64 widx =
                                    ((static_cast<u64>(o) * ci_per_group +
                                      ci) *
                                         spec.kernel_h +
                                     ky) *
                                        spec.kernel_w +
                                    kx;
                                emit(row, in.slot_of(b, c, iy, ix), o, widx);
                            }
                        }
                    }
                }
            }
        }
    }
}

/**
 * Rows of a fully-connected layer's matrix: output lanes reuse the input's
 * batch stride, so lane b's block of rows starts at b * batch_stride. A
 * hybrid matrix spans the whole block.
 */
u64
linear_rows(int out_features, const TensorLayout& in, u64 block_dim)
{
    if (is_hybrid_linear(out_features, in)) return block_dim;
    const int nb = std::max(1, in.batch);
    return nb > 1 ? static_cast<u64>(nb - 1) * in.batch_stride +
                        static_cast<u64>(out_features)
                  : static_cast<u64>(out_features);
}

/** Columns of a fully-connected layer's matrix. */
u64
linear_cols(int out_features, const TensorLayout& in, u64 block_dim)
{
    return is_hybrid_linear(out_features, in) ? block_dim : in.total_slots();
}

/**
 * Walks every weight of a fully-connected layer applied to a tensor in
 * layout `in` and calls emit(row, col, r, widx), where widx indexes the
 * weights [out_features][in_features] and in_features enumerates the
 * tensor in logical (c, y, x) order (the layout permutation is absorbed
 * into the column). Lane b's rows and columns both shift by
 * b * batch_stride.
 *
 * The hybrid form (is_hybrid_linear) instead emits, for every slot
 * i < hybrid_rows and k < n_o, the weight W[i mod n_o][feature at column
 * (i + k) mod n_i] on generalized diagonal k, at column (i + k) mod
 * block_dim: the slot the rotation by k brings to i holds that column of
 * the n_i-periodic input. The entries repeat with period n_i in i, so one
 * period already gives the whole diagonal set.
 */
template <class Emit>
void
scatter_linear(int out_features, const TensorLayout& in, u64 block_dim,
               u64 hybrid_rows, const Emit& emit)
{
    // Column of logical feature f under the input layout.
    std::vector<u64> col_of(in.logical_size());
    u64 f = 0;
    for (int c = 0; c < in.channels; ++c) {
        for (int y = 0; y < in.height; ++y) {
            for (int x = 0; x < in.width; ++x) {
                col_of[f++] = in.slot_of(c, y, x);
            }
        }
    }
    if (is_hybrid_linear(out_features, in)) {
        const u64 n_i = in.period;
        const u64 n_o = next_power_of_two(static_cast<u64>(out_features));
        ORION_CHECK(block_dim % n_i == 0,
                    "replication period " << n_i << " does not divide "
                                          << block_dim << " slots");
        constexpr u64 kNone = ~u64(0);
        std::vector<u64> feature_of(n_i, kNone);
        for (u64 cf = 0; cf < col_of.size(); ++cf) feature_of[col_of[cf]] = cf;
        for (u64 i = 0; i < hybrid_rows; ++i) {
            const u64 r = i % n_o;
            if (r >= static_cast<u64>(out_features)) continue;
            for (u64 k = 0; k < n_o; ++k) {
                const u64 cf = feature_of[(i + k) % n_i];
                if (cf == kNone) continue;
                emit(i, (i + k) % block_dim, static_cast<int>(r),
                     r * col_of.size() + cf);
            }
        }
        return;
    }
    const int nb = std::max(1, in.batch);
    for (int b = 0; b < nb; ++b) {
        const u64 lane = static_cast<u64>(b) * in.batch_stride;
        for (int r = 0; r < out_features; ++r) {
            for (u64 cf = 0; cf < col_of.size(); ++cf) {
                emit(lane + static_cast<u64>(r), lane + col_of[cf], r,
                     static_cast<u64>(r) * col_of.size() + cf);
            }
        }
    }
}

/** The hybrid fold n_i/2, ..., n_o (empty for the diagonal form). */
std::vector<u64>
linear_fold_steps(int out_features, const TensorLayout& in)
{
    std::vector<u64> steps;
    if (!is_hybrid_linear(out_features, in)) return steps;
    const u64 n_o = next_power_of_two(static_cast<u64>(out_features));
    for (u64 s = in.period / 2; s >= n_o; s >>= 1) steps.push_back(s);
    return steps;
}

/** Per-(block pair) bitmask collector of nonzero diagonal indices. */
class StructureSink {
  public:
    StructureSink(u64 rows, u64 cols, u64 block_dim)
    {
        s_.rows = rows;
        s_.cols = cols;
        s_.block_dim = block_dim;
    }

    void
    add(u64 r, u64 c)
    {
        const std::pair<u64, u64> key{r / s_.block_dim, c / s_.block_dim};
        std::vector<bool>& bits = bitsets_[key];
        if (bits.empty()) bits.assign(s_.block_dim, false);
        const u64 rr = r % s_.block_dim;
        const u64 cc = c % s_.block_dim;
        bits[(cc + s_.block_dim - rr) % s_.block_dim] = true;
    }

    BlockedStructure
    finish()
    {
        for (auto& [key, bits] : bitsets_) {
            std::vector<u64>& out = s_.blocks[key];
            for (u64 k = 0; k < s_.block_dim; ++k) {
                if (bits[k]) out.push_back(k);
            }
        }
        return std::move(s_);
    }

  private:
    BlockedStructure s_;
    std::map<std::pair<u64, u64>, std::vector<bool>> bitsets_;
};

}  // namespace

BlockedMatrix
build_conv_matrix(const Conv2dSpec& spec, const std::vector<double>& weights,
                  const TensorLayout& in, const TensorLayout& out,
                  u64 block_dim, const std::vector<double>& channel_scale)
{
    spec.validate();
    ORION_CHECK(weights.size() == spec.weight_count(),
                "weight count mismatch: " << weights.size() << " vs "
                                          << spec.weight_count());
    ORION_CHECK(channel_scale.empty() ||
                    channel_scale.size() ==
                        static_cast<std::size_t>(spec.out_channels),
                "channel_scale must have one entry per output channel");
    BlockedMatrix m(std::max(out.total_slots(), u64(1)),
                    std::max(in.total_slots(), u64(1)), block_dim);
    scatter_conv(spec, in, out, [&](u64 row, u64 col, int o, u64 widx) {
        const double oscale =
            channel_scale.empty()
                ? 1.0
                : channel_scale[static_cast<std::size_t>(o)];
        m.add(row, col, oscale * weights[widx]);
    });
    return m;
}

BlockedStructure
build_conv_structure(const Conv2dSpec& spec, const TensorLayout& in,
                     const TensorLayout& out, u64 block_dim)
{
    StructureSink sink(out.total_slots(), in.total_slots(), block_dim);
    scatter_conv(spec, in, out,
                 [&](u64 row, u64 col, int, u64) { sink.add(row, col); });
    return sink.finish();
}

BlockedMatrix
build_linear_matrix(int out_features, int in_features,
                    const std::vector<double>& weights,
                    const TensorLayout& in, u64 block_dim,
                    const std::vector<double>& out_scale)
{
    ORION_CHECK(weights.size() == static_cast<std::size_t>(out_features) *
                                      static_cast<std::size_t>(in_features),
                "weight count mismatch");
    ORION_CHECK(static_cast<u64>(in_features) == in.logical_size(),
                "in_features must match the layout's logical size: "
                    << in_features << " vs " << in.logical_size());
    ORION_CHECK(out_scale.empty() ||
                    out_scale.size() ==
                        static_cast<std::size_t>(out_features),
                "out_scale must have one entry per output feature");
    BlockedMatrix m(linear_rows(out_features, in, block_dim),
                    linear_cols(out_features, in, block_dim), block_dim);
    scatter_linear(out_features, in, block_dim, block_dim,
                   [&](u64 row, u64 col, int r, u64 widx) {
                       const double s =
                           out_scale.empty()
                               ? 1.0
                               : out_scale[static_cast<std::size_t>(r)];
                       m.add(row, col, s * weights[widx]);
                   });
    m.set_fold_steps(linear_fold_steps(out_features, in));
    return m;
}

BlockedStructure
build_linear_structure(int out_features, const TensorLayout& in,
                       u64 block_dim)
{
    StructureSink sink(linear_rows(out_features, in, block_dim),
                       linear_cols(out_features, in, block_dim), block_dim);
    scatter_linear(out_features, in, block_dim, in.period,
                   [&](u64 row, u64 col, int, u64) { sink.add(row, col); });
    BlockedStructure s = sink.finish();
    s.fold_steps = linear_fold_steps(out_features, in);
    return s;
}

Conv2dSpec
avgpool_spec(int channels, int kernel, int stride, int pad)
{
    Conv2dSpec spec;
    spec.in_channels = spec.out_channels = channels;
    spec.kernel_h = spec.kernel_w = kernel;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = channels;
    return spec;
}

TensorLayout
avgpool_output_layout(int kernel, int stride, const TensorLayout& in, int pad)
{
    return conv_output_layout(avgpool_spec(in.channels, kernel, stride, pad),
                              in);
}

BlockedMatrix
build_avgpool_matrix(int kernel, int stride, const TensorLayout& in,
                     const TensorLayout& out, u64 block_dim, int pad)
{
    const Conv2dSpec spec = avgpool_spec(in.channels, kernel, stride, pad);
    const std::vector<double> weights(
        spec.weight_count(), 1.0 / (static_cast<double>(kernel) * kernel));
    return build_conv_matrix(spec, weights, in, out, block_dim);
}

std::vector<double>
conv2d_reference(const Conv2dSpec& spec, const std::vector<double>& weights,
                 const std::vector<double>& input, int in_h, int in_w)
{
    spec.validate();
    ORION_CHECK(input.size() == static_cast<std::size_t>(spec.in_channels) *
                                    in_h * in_w,
                "input size mismatch");
    const int oh = spec.out_h(in_h);
    const int ow = spec.out_w(in_w);
    const int ci_per_group = spec.in_channels / spec.groups;
    const int co_per_group = spec.out_channels / spec.groups;
    std::vector<double> out(
        static_cast<std::size_t>(spec.out_channels) * oh * ow, 0.0);

    // Blocked + parallel: the output is tiled into (channel, row-band)
    // blocks that fan out across the thread pool — rows of one band reuse
    // the same input rows while they are cache-hot. Each output element's
    // accumulation runs in the original serial tap order, so results are
    // bitwise identical to the untiled single-threaded loop. This is the
    // reference path behind fig8_yolo's full mode (three 448x448x3
    // forwards), which was untenably slow untiled on small hosts.
    const int row_block = 16;
    const int bands = (oh + row_block - 1) / row_block;
    const i64 num_tiles = static_cast<i64>(spec.out_channels) * bands;
    core::parallel_for(0, num_tiles, [&](i64 tile) {
        const int o = static_cast<int>(tile / bands);
        const int band = static_cast<int>(tile % bands);
        const int oy_end = std::min((band + 1) * row_block, oh);
        const int group = o / co_per_group;
        const double* w_base =
            weights.data() +
            static_cast<std::size_t>(o) * ci_per_group * spec.kernel_h *
                spec.kernel_w;
        for (int oy = band * row_block; oy < oy_end; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                double acc = 0.0;
                for (int ci = 0; ci < ci_per_group; ++ci) {
                    const int c = group * ci_per_group + ci;
                    const double* w_ci =
                        w_base + static_cast<std::size_t>(ci) *
                                     spec.kernel_h * spec.kernel_w;
                    const double* in_c =
                        input.data() +
                        static_cast<std::size_t>(c) * in_h * in_w;
                    for (int ky = 0; ky < spec.kernel_h; ++ky) {
                        const int iy =
                            oy * spec.stride - spec.pad + ky * spec.dilation;
                        if (iy < 0 || iy >= in_h) continue;
                        const double* w_ky = w_ci + ky * spec.kernel_w;
                        const double* in_row = in_c + static_cast<std::size_t>(
                                                          iy) * in_w;
                        for (int kx = 0; kx < spec.kernel_w; ++kx) {
                            const int ix = ox * spec.stride - spec.pad +
                                           kx * spec.dilation;
                            if (ix < 0 || ix >= in_w) continue;
                            acc += w_ky[kx] * in_row[ix];
                        }
                    }
                }
                out[(static_cast<std::size_t>(o) * oh + oy) * ow + ox] = acc;
            }
        }
    });
    return out;
}

}  // namespace orion::lin
