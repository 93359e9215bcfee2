#include "src/linalg/toeplitz.h"

#include <algorithm>
#include <bit>

#include "src/linalg/conv_kernel.h"

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

namespace detail {

std::vector<Span>
tap_spans(const Conv2dSpec& spec, int taps, int n_out, int n_in)
{
    std::vector<Span> spans(static_cast<std::size_t>(taps));
    for (int k = 0; k < taps; ++k) {
        const int shift = k * spec.dilation - spec.pad;
        const int top = n_in - 1 - shift;
        if (top < 0) continue;
        spans[static_cast<std::size_t>(k)] = {
            shift >= 0 ? 0 : (-shift + spec.stride - 1) / spec.stride,
            std::min(n_out - 1, top / spec.stride)};
    }
    return spans;
}

}  // namespace detail

namespace {

using detail::Span;
using detail::tap_spans;

/**
 * One (lane, output channel, input channel, tap) of a convolution and
 * its output rectangle, rows y by columns x: the output pixels where that
 * tap reads inside the input. Output pixel (oy, ox) is matrix row
 * row(oy, ox) and reads input pixel (oy * stride + dy, ox * stride + dx)
 * at column col(oy, ox), with weight widx in [co][ci/groups][kh][kw]
 * order.
 */
struct ConvRect {
    const TensorLayout* in;
    const TensorLayout* out;
    int b, o, c, stride, dy, dx;
    u64 widx;
    Span y, x;

    u64 row(int oy, int ox) const { return out->slot_of(b, o, oy, ox); }
    u64
    col(int oy, int ox) const
    {
        return in->slot_of(b, c, oy * stride + dy, ox * stride + dx);
    }
};

/**
 * Walks a convolution between the given layouts one (lane, output
 * channel, input channel, tap) at a time and calls emit(rect) with the
 * tap's valid output rectangle (Figure 3a: one matrix row per output
 * element, the tap scattered to its (row, col) under the multiplexed
 * layouts). Batch lanes shift row and column by the same
 * b * batch_stride, so they land on the same generalized diagonals
 * (block-diagonal weights: one BSGS product serves all lanes).
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
    const std::vector<Span> ys =
        tap_spans(spec, spec.kernel_h, out.height, in.height);
    const std::vector<Span> xs =
        tap_spans(spec, spec.kernel_w, out.width, in.width);
    ConvRect t{&in, &out, 0, 0, 0, spec.stride, 0, 0, 0, {}, {}};
    const int nb = std::max(1, in.batch);
    for (t.b = 0; t.b < nb; ++t.b) {
        for (t.o = 0; t.o < spec.out_channels; ++t.o) {
            const int group = t.o / co_per_group;
            for (int ci = 0; ci < ci_per_group; ++ci) {
                t.c = group * ci_per_group + ci;
                for (int ky = 0; ky < spec.kernel_h; ++ky) {
                    t.y = ys[static_cast<std::size_t>(ky)];
                    if (t.y.lo > t.y.hi) continue;
                    t.dy = ky * spec.dilation - spec.pad;
                    for (int kx = 0; kx < spec.kernel_w; ++kx) {
                        t.x = xs[static_cast<std::size_t>(kx)];
                        if (t.x.lo > t.x.hi) continue;
                        t.dx = kx * spec.dilation - spec.pad;
                        t.widx = ((static_cast<u64>(t.o) * ci_per_group +
                                   ci) *
                                      spec.kernel_h +
                                  ky) *
                                     spec.kernel_w +
                                 kx;
                        emit(t);
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
 * layout `in` and calls emit(row, col, n, r, widx) for a column run: the
 * n entries (row + i, col) hold the weights widx + i * in_features of
 * output features r + i. Weights are [out_features][in_features] and
 * in_features enumerates the tensor in logical (c, y, x) order (the
 * layout permutation is absorbed into the column). The diagonal form
 * emits one run per (lane, input feature) covering every output feature;
 * lane b's rows and columns both shift by b * batch_stride.
 *
 * The hybrid form (is_hybrid_linear) instead emits, for every slot
 * i < hybrid_rows and k < n_o, the weight W[i mod n_o][feature at column
 * (i + k) mod n_i] on generalized diagonal k, at column (i + k) mod
 * block_dim, as a run of one: the slot the rotation by k brings to i
 * holds that column of the n_i-periodic input. The entries repeat with
 * period n_i in i, so one period already gives the whole diagonal set.
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
                emit(i, (i + k) % block_dim, u64(1), static_cast<int>(r),
                     r * col_of.size() + cf);
            }
        }
        return;
    }
    const int nb = std::max(1, in.batch);
    for (int b = 0; b < nb; ++b) {
        const u64 lane = static_cast<u64>(b) * in.batch_stride;
        for (u64 cf = 0; cf < col_of.size(); ++cf) {
            emit(lane, lane + col_of[cf], static_cast<u64>(out_features), 0,
                 cf);
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

/**
 * Collector of the nonzero generalized diagonals of each block pair.
 * Every touched block pair keeps a flat bitset of its block_dim
 * diagonals (one bit each, so multi-block layers stay small), and the
 * sink caches the block pair it wrote last: the marks of one block cost
 * no map lookup.
 */
class StructureSink {
  public:
    StructureSink(u64 rows, u64 cols, u64 block_dim)
    {
        s_.rows = rows;
        s_.cols = cols;
        s_.block_dim = block_dim;
    }

    /** Marks the diagonal holding entry (r, c). */
    void
    add(u64 r, u64 c)
    {
        const u64 d = s_.block_dim;
        const u64 k = (c % d + d - r % d) % d;
        bits(r / d, c / d)[k >> 6] |= u64(1) << (k & 63);
    }

    /**
     * Marks the n entries (r + i * dr, c + i * dc). Equal steps keep a run
     * on one generalized diagonal until it leaves its block pair, so it
     * costs one mark per block pair. A column run (dr = 1, dc = 0) covers
     * a contiguous, possibly wrapping, range of diagonals in each row
     * block. Any other run is marked entry by entry.
     */
    void
    add_run(u64 r, u64 c, u64 dr, u64 dc, u64 n)
    {
        const u64 d = s_.block_dim;
        if (dr == dc && dr > 0) {
            while (n > 0) {
                const u64 left = std::min(d - r % d, d - c % d);
                const u64 take = std::min(n, ceil_div(left, dr));
                add(r, c);
                r += take * dr;
                c += take * dr;
                n -= take;
            }
        } else if (dr == 1 && dc == 0) {
            while (n > 0) {
                // Rows r .. r + take - 1 of one row block put column c on
                // diagonals first, first - 1, ..., first - take + 1.
                const u64 take = std::min(n, d - r % d);
                const u64 first = (c % d + d - r % d) % d;
                const u64 lo = (first + d - (take - 1)) % d;
                u64* w = bits(r / d, c / d);
                mark(w, lo, std::min(lo + take, d));
                if (lo + take > d) mark(w, 0, lo + take - d);
                r += take;
                n -= take;
            }
        } else {
            for (u64 i = 0; i < n; ++i) add(r + i * dr, c + i * dc);
        }
    }

    BlockedStructure
    finish()
    {
        for (const auto& [key, words] : bitsets_) {
            std::vector<u64>& out = s_.blocks[key];
            for (std::size_t i = 0; i < words.size(); ++i) {
                for (u64 w = words[i]; w != 0; w &= w - 1) {
                    out.push_back(64 * i + std::countr_zero(w));
                }
            }
        }
        return std::move(s_);
    }

  private:
    /** The bitset of block pair (br, bc), created zero on first use. */
    u64*
    bits(u64 br, u64 bc)
    {
        if (cur_ == nullptr || br != cur_key_.first ||
            bc != cur_key_.second) {
            cur_key_ = {br, bc};
            std::vector<u64>& words = bitsets_[cur_key_];
            if (words.empty()) words.assign(ceil_div(s_.block_dim, 64), 0);
            cur_ = words.data();
        }
        return cur_;
    }

    /** Sets bits lo .. hi - 1. */
    static void
    mark(u64* words, u64 lo, u64 hi)
    {
        while (lo < hi) {
            const u64 bit = lo & 63;
            const u64 take = std::min<u64>(64 - bit, hi - lo);
            const u64 ones = take == 64 ? ~u64(0) : (u64(1) << take) - 1;
            words[lo >> 6] |= ones << bit;
            lo += take;
        }
    }

    BlockedStructure s_;
    std::map<std::pair<u64, u64>, std::vector<u64>> bitsets_;
    std::pair<u64, u64> cur_key_{0, 0};
    u64* cur_ = nullptr;
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
    scatter_conv(spec, in, out, [&](const ConvRect& t) {
        const double oscale =
            channel_scale.empty()
                ? 1.0
                : channel_scale[static_cast<std::size_t>(t.o)];
        const double v = oscale * weights[t.widx];
        for (int oy = t.y.lo; oy <= t.y.hi; ++oy) {
            for (int ox = t.x.lo; ox <= t.x.hi; ++ox) {
                m.add(t.row(oy, ox), t.col(oy, ox), v);
            }
        }
    });
    return m;
}

BlockedStructure
build_conv_structure(const Conv2dSpec& spec, const TensorLayout& in,
                     const TensorLayout& out, u64 block_dim)
{
    // slot_of is affine in y and in x within a channel. When the row and
    // the column advance by the same step along both axes, col - row is
    // constant over a whole rectangle: one generalized diagonal, as long
    // as its first and last entries share a block pair (rows and columns
    // only grow inside it). Otherwise each output row is one run.
    const u64 row_dx = static_cast<u64>(out.gap);
    const u64 col_dx = static_cast<u64>(in.gap) * spec.stride;
    const bool one_diagonal =
        row_dx == col_dx &&
        row_dx * out.grid_width() == col_dx * in.grid_width();
    StructureSink sink(out.total_slots(), in.total_slots(), block_dim);
    scatter_conv(spec, in, out, [&](const ConvRect& t) {
        const u64 r0 = t.row(t.y.lo, t.x.lo);
        const u64 c0 = t.col(t.y.lo, t.x.lo);
        const bool one_block =
            r0 / block_dim == t.row(t.y.hi, t.x.hi) / block_dim &&
            c0 / block_dim == t.col(t.y.hi, t.x.hi) / block_dim;
        if (one_diagonal && one_block) {
            sink.add(r0, c0);
            return;
        }
        const u64 n = static_cast<u64>(t.x.hi - t.x.lo + 1);
        for (int oy = t.y.lo; oy <= t.y.hi; ++oy) {
            sink.add_run(t.row(oy, t.x.lo), t.col(oy, t.x.lo), row_dx, col_dx,
                         n);
        }
    });
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
    const u64 per_feature = static_cast<u64>(in_features);
    scatter_linear(
        out_features, in, block_dim, block_dim,
        [&](u64 row, u64 col, u64 n, int r, u64 widx) {
            for (u64 i = 0; i < n; ++i) {
                const std::size_t ri = static_cast<std::size_t>(r) + i;
                const double s = out_scale.empty() ? 1.0 : out_scale[ri];
                m.add(row + i, col, s * weights[widx + i * per_feature]);
            }
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
                   [&](u64 row, u64 col, u64 n, int, u64) {
                       sink.add_run(row, col, 1, 0, n);
                   });
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

}  // namespace orion::lin
