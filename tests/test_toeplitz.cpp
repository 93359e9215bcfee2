#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "src/ckks/kernels.h"
#include "src/linalg/linalg.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

using lin::BlockedMatrix;
using lin::Conv2dSpec;
using lin::TensorLayout;

std::vector<double>
random_weights(u64 count, u64 seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> out(count);
    for (double& w : out) w = dist(rng);
    return out;
}

TEST(Layout, RasterSlotOrder)
{
    const TensorLayout l(3, 4, 5, /*gap=*/1);
    EXPECT_EQ(l.total_slots(), 60u);
    EXPECT_EQ(l.slot_of(0, 0, 0), 0u);
    EXPECT_EQ(l.slot_of(0, 0, 1), 1u);
    EXPECT_EQ(l.slot_of(0, 1, 0), 5u);
    EXPECT_EQ(l.slot_of(1, 0, 0), 20u);  // next plane
}

TEST(Layout, MultiplexedInterleavesChannels)
{
    // gap = 2: each 2x2 pixel block holds 4 channels (Figure 5b).
    const TensorLayout l(4, 2, 2, /*gap=*/2);
    EXPECT_EQ(l.planes(), 1);
    EXPECT_EQ(l.total_slots(), 16u);
    EXPECT_EQ(l.slot_of(0, 0, 0), 0u);
    EXPECT_EQ(l.slot_of(1, 0, 0), 1u);   // channel 1 at block offset (0,1)
    EXPECT_EQ(l.slot_of(2, 0, 0), 4u);   // channel 2 at block offset (1,0)
    EXPECT_EQ(l.slot_of(3, 0, 0), 5u);
    EXPECT_EQ(l.slot_of(0, 0, 1), 2u);   // next pixel, channel 0
    EXPECT_EQ(l.slot_of(0, 1, 0), 8u);
}

TEST(Layout, PackUnpackRoundTrip)
{
    for (int gap : {1, 2, 4}) {
        const TensorLayout l(8, 4, 4, gap);
        const std::vector<double> t =
            random_vector(l.logical_size(), 1.0, 13 + gap);
        EXPECT_EQ(l.unpack(l.pack(t)), t) << "gap " << gap;
    }
}

TEST(Layout, ChannelsBeyondGapSquaredUseExtraPlanes)
{
    const TensorLayout l(9, 2, 2, /*gap=*/2);
    EXPECT_EQ(l.planes(), 3);  // ceil(9/4)
    EXPECT_EQ(l.slot_of(4, 0, 0), 16u);
    // Channel 8 = plane 2, block offset (0, 0); pixel (1, 1) -> grid (2, 2).
    EXPECT_EQ(l.slot_of(8, 1, 1), 2u * 16u + 2u * 4u + 2u);
}

// ---- Parameterized sweep: Toeplitz matrix == reference convolution ----
// Covers the paper's claim of arbitrary parameter support: stride, padding,
// dilation, groups, kernel size, asymmetric channels, multiplexed inputs.

struct ConvCase {
    int ci, co, h, w, k, stride, pad, dilation, groups, in_gap;
};

class ToeplitzConvTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ToeplitzConvTest, MatrixMatchesReferenceConv)
{
    const ConvCase& tc = GetParam();
    Conv2dSpec spec;
    spec.in_channels = tc.ci;
    spec.out_channels = tc.co;
    spec.kernel_h = spec.kernel_w = tc.k;
    spec.stride = tc.stride;
    spec.pad = tc.pad;
    spec.dilation = tc.dilation;
    spec.groups = tc.groups;

    const TensorLayout in(tc.ci, tc.h, tc.w, tc.in_gap);
    const TensorLayout out = lin::conv_output_layout(spec, in);
    EXPECT_EQ(out.gap, tc.in_gap * tc.stride);

    const std::vector<double> weights =
        random_weights(spec.weight_count(), 101);
    const std::vector<double> input = random_vector(
        static_cast<u64>(tc.ci) * tc.h * tc.w, 1.0, 102);

    const u64 block_dim = 1u << 14;  // single block; cleartext only
    const BlockedMatrix m = lin::build_conv_matrix(spec, weights, in, out,
                                                   block_dim);
    const std::vector<double> packed_in =
        in.pack(input, m.col_blocks() * block_dim);
    const std::vector<double> y = m.apply(packed_in);

    const std::vector<double> expected =
        lin::conv2d_reference(spec, weights, input, tc.h, tc.w);
    // Compare in the multiplexed output layout.
    for (int c = 0; c < out.channels; ++c) {
        for (int oy = 0; oy < out.height; ++oy) {
            for (int ox = 0; ox < out.width; ++ox) {
                const double got = y[out.slot_of(c, oy, ox)];
                const double want =
                    expected[(static_cast<std::size_t>(c) * out.height + oy) *
                                 out.width +
                             ox];
                ASSERT_NEAR(got, want, 1e-9)
                    << "c=" << c << " y=" << oy << " x=" << ox;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ArbitraryConvolutions, ToeplitzConvTest,
    ::testing::Values(
        // SISO same-style conv (Figure 3).
        ConvCase{1, 1, 3, 3, 3, 1, 1, 1, 1, 1},
        // MIMO conv (Figure 4).
        ConvCase{2, 2, 3, 3, 3, 1, 1, 1, 1, 1},
        // Strided conv, the Figure 5 example: ci=1, co=4, stride 2, pad 0.
        ConvCase{1, 4, 4, 4, 2, 2, 0, 1, 1, 1},
        // Strided with padding (ResNet downsample blocks).
        ConvCase{4, 8, 8, 8, 3, 2, 1, 1, 1, 1},
        // 1x1 pointwise conv (MobileNet).
        ConvCase{8, 4, 6, 6, 1, 1, 0, 1, 1, 1},
        // Depthwise conv: groups == channels (MobileNet).
        ConvCase{6, 6, 8, 8, 3, 1, 1, 1, 6, 1},
        // Grouped conv, groups=2.
        ConvCase{4, 6, 5, 5, 3, 1, 1, 1, 2, 1},
        // Dilated conv.
        ConvCase{2, 3, 9, 9, 3, 1, 2, 2, 1, 1},
        // Strided conv on an already-multiplexed input (gap 2).
        ConvCase{4, 4, 8, 8, 3, 2, 1, 1, 1, 2},
        // Non-strided conv on a multiplexed input keeps the gap.
        ConvCase{4, 4, 8, 8, 3, 1, 1, 1, 1, 2},
        // Large kernel, no padding.
        ConvCase{1, 2, 10, 10, 5, 1, 0, 1, 1, 1},
        // Stride 4 (the stem of AlexNet-style nets).
        ConvCase{3, 4, 12, 12, 4, 4, 0, 1, 1, 1}));

TEST(Toeplitz, StridedConvSparseVsMultiplexedDiagonals)
{
    // The Figure 5 claim: with raster (gap-out = 1 forced) packing a
    // strided conv produces many sparse diagonals; multiplexed packing
    // (gap-out = stride) produces far fewer.
    Conv2dSpec spec;
    spec.in_channels = 1;
    spec.out_channels = 4;
    spec.kernel_h = spec.kernel_w = 2;
    spec.stride = 2;
    const TensorLayout in(1, 8, 8, 1);

    const std::vector<double> weights =
        random_weights(spec.weight_count(), 103);
    const u64 block_dim = 1u << 14;

    // Raster output: gap 1 (the naive Toeplitz of Figure 5a).
    const TensorLayout raster_out(4, 4, 4, 1);
    const BlockedMatrix raster = lin::build_conv_matrix(
        spec, weights, in, raster_out, block_dim);

    // Multiplexed output: gap 2 (Figure 5b).
    const TensorLayout mux_out = lin::conv_output_layout(spec, in);
    const BlockedMatrix mux = lin::build_conv_matrix(spec, weights, in,
                                                     mux_out, block_dim);

    EXPECT_GT(raster.num_diagonals(), 2 * mux.num_diagonals())
        << "multiplexed packing should need far fewer diagonals";
}

TEST(Toeplitz, LinearLayerMatchesDense)
{
    const TensorLayout in(4, 3, 3, 2);  // multiplexed input to FC layer
    const int in_features = static_cast<int>(in.logical_size());
    const int out_features = 7;
    const std::vector<double> w =
        random_weights(static_cast<u64>(out_features) * in_features, 104);
    const std::vector<double> x = random_vector(in_features, 1.0, 105);

    const u64 block_dim = 1u << 12;
    const BlockedMatrix m =
        lin::build_linear_matrix(out_features, in_features, w, in, block_dim);
    const std::vector<double> y = m.apply(in.pack(x, block_dim));
    for (int r = 0; r < out_features; ++r) {
        double expect = 0;
        for (int c = 0; c < in_features; ++c) {
            expect += w[static_cast<std::size_t>(r) * in_features + c] * x[c];
        }
        ASSERT_NEAR(y[r], expect, 1e-9) << r;
    }
}

TEST(Toeplitz, HybridLinearOutputRepeatsEveryRow)
{
    // Hybrid form over an input replicated with period n_i: every slot of
    // the folded product holds y[i mod n_o] - a row's full dot product or
    // the zero of a padding row, never a partial sum.
    struct Case {
        TensorLayout in;
        int out_features;
    };
    const Case cases[] = {
        {TensorLayout(1, 1, 64), 16},   // rows < cols
        {TensorLayout(1, 1, 16), 16},   // rows == cols: no fold
        {TensorLayout(1, 1, 50), 12},   // padded rows and columns
        {TensorLayout(4, 3, 3, 2), 7},  // multiplexed (gapped) input
    };
    const u64 block_dim = 1u << 10;
    for (const Case& c : cases) {
        const u64 n_i = next_power_of_two(c.in.total_slots());
        const u64 n_o = next_power_of_two(static_cast<u64>(c.out_features));
        const TensorLayout in = c.in.with_period(n_i);
        SCOPED_TRACE(testing::Message() << n_i << " -> " << n_o);
        ASSERT_TRUE(lin::is_hybrid_linear(c.out_features, in));
        const int in_features = static_cast<int>(in.logical_size());
        const std::vector<double> w = random_weights(
            static_cast<u64>(c.out_features) * in_features, 107);
        const std::vector<double> x = random_vector(in_features, 1.0, 108);
        const BlockedMatrix m = lin::build_linear_matrix(
            c.out_features, in_features, w, in, block_dim);
        EXPECT_EQ(m.num_diagonals(), n_o);
        std::vector<u64> fold;
        for (u64 s = n_i / 2; s >= n_o; s /= 2) fold.push_back(s);
        EXPECT_EQ(m.fold_steps(), fold);
        const lin::BlockedStructure s =
            lin::build_linear_structure(c.out_features, in, block_dim);
        EXPECT_EQ(s.num_diagonals(), n_o);
        EXPECT_EQ(s.fold_steps, fold);

        const std::vector<double> y = m.apply(in.pack(x, block_dim));
        for (u64 i = 0; i < block_dim; ++i) {
            const u64 r = i % n_o;
            double expect = 0;
            for (int f = 0; r < static_cast<u64>(c.out_features) &&
                            f < in_features;
                 ++f) {
                expect += w[r * in_features + f] * x[f];
            }
            ASSERT_NEAR(y[i], expect, 1e-9) << "slot " << i;
        }
    }
}

TEST(Toeplitz, AvgPoolMatchesReference)
{
    const TensorLayout in(2, 8, 8, 1);
    const TensorLayout out = lin::avgpool_output_layout(2, 2, in);
    EXPECT_EQ(out.gap, 2);
    EXPECT_EQ(out.height, 4);
    const u64 block_dim = 1u << 12;
    const BlockedMatrix m = lin::build_avgpool_matrix(2, 2, in, out,
                                                      block_dim);
    const std::vector<double> x = random_vector(2 * 8 * 8, 1.0, 106);
    const std::vector<double> y = m.apply(in.pack(x, block_dim));
    for (int c = 0; c < 2; ++c) {
        for (int oy = 0; oy < 4; ++oy) {
            for (int ox = 0; ox < 4; ++ox) {
                double expect = 0;
                for (int dy = 0; dy < 2; ++dy) {
                    for (int dx = 0; dx < 2; ++dx) {
                        expect += x[(static_cast<std::size_t>(c) * 8 +
                                     2 * oy + dy) *
                                        8 +
                                    2 * ox + dx];
                    }
                }
                expect /= 4.0;
                ASSERT_NEAR(y[out.slot_of(c, oy, ox)], expect, 1e-9);
            }
        }
    }
}

TEST(Toeplitz, ChannelScaleFoldsIntoMatrix)
{
    Conv2dSpec spec;
    spec.in_channels = 2;
    spec.out_channels = 2;
    spec.kernel_h = spec.kernel_w = 3;
    spec.pad = 1;
    const TensorLayout in(2, 4, 4, 1);
    const TensorLayout out = lin::conv_output_layout(spec, in);
    const std::vector<double> w = random_weights(spec.weight_count(), 107);
    const std::vector<double> scale = {2.0, -0.5};
    const u64 block_dim = 1u << 10;
    const BlockedMatrix scaled =
        lin::build_conv_matrix(spec, w, in, out, block_dim, scale);
    const BlockedMatrix plain =
        lin::build_conv_matrix(spec, w, in, out, block_dim);
    const std::vector<double> x = random_vector(2 * 4 * 4, 1.0, 108);
    const std::vector<double> ys = scaled.apply(in.pack(x, block_dim));
    const std::vector<double> yp = plain.apply(in.pack(x, block_dim));
    for (int c = 0; c < 2; ++c) {
        for (int i = 0; i < 16; ++i) {
            const u64 slot = out.slot_of(c, i / 4, i % 4);
            ASSERT_NEAR(ys[slot], scale[static_cast<std::size_t>(c)] *
                                      yp[slot],
                        1e-9);
        }
    }
}

// ---- Closed-form walks == per-tap / per-weight brute force ----

/** (block row, block col) -> sorted diagonals, as in BlockedStructure. */
using DiagonalSets = std::map<std::pair<u64, u64>, std::vector<u64>>;

/** Collects entry positions into per-block diagonal sets. */
class DiagonalCollector {
  public:
    explicit DiagonalCollector(u64 block_dim) : d_(block_dim) {}
    void
    add(u64 r, u64 c)
    {
        sets_[{r / d_, c / d_}].insert((c % d_ + d_ - r % d_) % d_);
    }
    DiagonalSets
    sets() const
    {
        DiagonalSets out;
        for (const auto& [key, diags] : sets_) {
            out[key] = std::vector<u64>(diags.begin(), diags.end());
        }
        return out;
    }

  private:
    u64 d_;
    std::map<std::pair<u64, u64>, std::set<u64>> sets_;
};

/**
 * The walk the closed-form one replaces: every lane, output channel,
 * output pixel, input channel and tap, each input pixel bounds-checked;
 * f(row, col, o, widx).
 */
template <class F>
void
per_tap_walk(const Conv2dSpec& spec, const TensorLayout& in,
             const TensorLayout& out, const F& f)
{
    const int cpg = spec.in_channels / spec.groups;
    const int opg = spec.out_channels / spec.groups;
    for (int b = 0; b < in.batch; ++b) {
        for (int o = 0; o < spec.out_channels; ++o) {
            for (int oy = 0; oy < out.height; ++oy) {
                for (int ox = 0; ox < out.width; ++ox) {
                    for (int ci = 0; ci < cpg; ++ci) {
                        for (int ky = 0; ky < spec.kernel_h; ++ky) {
                            const int iy = oy * spec.stride - spec.pad +
                                           ky * spec.dilation;
                            if (iy < 0 || iy >= in.height) continue;
                            for (int kx = 0; kx < spec.kernel_w; ++kx) {
                                const int ix = ox * spec.stride - spec.pad +
                                               kx * spec.dilation;
                                if (ix < 0 || ix >= in.width) continue;
                                const u64 widx =
                                    ((static_cast<u64>(o) * cpg + ci) *
                                         spec.kernel_h +
                                     ky) *
                                        spec.kernel_w +
                                    kx;
                                f(out.slot_of(b, o, oy, ox),
                                  in.slot_of(b, (o / opg) * cpg + ci, iy, ix),
                                  o, widx);
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Both matrices hold the same blocks, diagonals and values, bit for bit. */
void
expect_same_matrix(const BlockedMatrix& got, const BlockedMatrix& want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (u64 br = 0; br < want.row_blocks(); ++br) {
        for (u64 bc = 0; bc < want.col_blocks(); ++bc) {
            const lin::DiagonalMatrix* g = got.block(br, bc);
            const lin::DiagonalMatrix* w = want.block(br, bc);
            ASSERT_EQ(g == nullptr, w == nullptr) << br << "," << bc;
            if (w == nullptr) continue;
            ASSERT_EQ(g->diagonal_indices(), w->diagonal_indices());
            for (u64 k : w->diagonal_indices()) {
                ASSERT_EQ(*g->diagonal(k), *w->diagonal(k)) << "diag " << k;
            }
        }
    }
}

TEST(Toeplitz, ConvStructureMatchesPerTapWalk)
{
    // Seeded random geometries: stride 1-3, pad 0-3, dilation 1-2,
    // groups, raster and multiplexed outputs, batch lanes, and block_dim
    // from one block down to far below the span (multi-block). The
    // closed-form structure and value matrix must equal the per-tap walk.
    std::mt19937_64 rng(20231);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int checked = 0, raster_strided = 0, batched = 0, multi_block = 0,
        grouped = 0, dilated = 0;
    while (checked < 1200) {
        Conv2dSpec spec;
        spec.groups = pick(1, 3);
        spec.in_channels = spec.groups * pick(1, 3);
        spec.out_channels = spec.groups * pick(1, 3);
        spec.kernel_h = pick(1, 4);
        spec.kernel_w = pick(1, 4);
        spec.stride = pick(1, 3);
        spec.pad = pick(0, 3);
        spec.dilation = pick(1, 2);
        const int h = pick(1, 9);
        const int w = pick(1, 9);
        if (h + 2 * spec.pad <= spec.dilation * (spec.kernel_h - 1) ||
            w + 2 * spec.pad <= spec.dilation * (spec.kernel_w - 1)) {
            continue;
        }
        TensorLayout in(spec.in_channels, h, w, pick(1, 2));
        const bool raster = pick(0, 1) == 1;
        TensorLayout out =
            raster ? TensorLayout(spec.out_channels, spec.out_h(h),
                                  spec.out_w(w), in.gap)
                   : lin::conv_output_layout(spec, in);
        const int batch = pick(1, 3);
        if (batch > 1) {
            const u64 lane = std::max(in.base_slots(), out.base_slots()) +
                             static_cast<u64>(pick(0, 5));
            in = in.with_batch(batch, lane);
            out = out.with_batch(batch, lane);
        }
        const u64 span = std::max(in.total_slots(), out.total_slots());
        const int mode = pick(0, 2);
        const u64 block_dim =
            mode == 0   ? next_power_of_two(span)
            : mode == 1 ? std::max<u64>(1, next_power_of_two(span) >>
                                               pick(1, 4))
                        : static_cast<u64>(pick(1, static_cast<int>(span)));
        SCOPED_TRACE(testing::Message()
                     << "case " << checked << ": ci " << spec.in_channels
                     << " co " << spec.out_channels << " g " << spec.groups
                     << " k " << spec.kernel_h << "x" << spec.kernel_w
                     << " s " << spec.stride << " p " << spec.pad << " d "
                     << spec.dilation << " in " << h << "x" << w << " gap "
                     << in.gap << " out gap " << out.gap << " batch "
                     << batch << " block " << block_dim);

        DiagonalCollector want(block_dim);
        BlockedMatrix want_m(std::max<u64>(out.total_slots(), 1),
                             std::max<u64>(in.total_slots(), 1), block_dim);
        const std::vector<double> weights = random_weights(
            spec.weight_count(), 500 + static_cast<u64>(checked));
        per_tap_walk(spec, in, out, [&](u64 r, u64 c, int, u64 widx) {
            want.add(r, c);
            want_m.add(r, c, weights[widx]);
        });
        const lin::BlockedStructure s =
            lin::build_conv_structure(spec, in, out, block_dim);
        EXPECT_EQ(s.rows, out.total_slots());
        EXPECT_EQ(s.cols, in.total_slots());
        ASSERT_EQ(s.blocks, want.sets());
        expect_same_matrix(
            lin::build_conv_matrix(spec, weights, in, out, block_dim),
            want_m);
        if (HasFatalFailure()) return;

        ++checked;
        raster_strided += raster && spec.stride > 1;
        batched += batch > 1;
        multi_block += block_dim < span;
        grouped += spec.groups > 1;
        dilated += spec.dilation > 1;
    }
    // Every family the closed form special-cases is well represented.
    EXPECT_GT(raster_strided, 200);
    EXPECT_GT(batched, 200);
    EXPECT_GT(multi_block, 200);
    EXPECT_GT(grouped, 200);
    EXPECT_GT(dilated, 200);
}

TEST(Toeplitz, LinearStructureMatchesPerWeightWalk)
{
    // Diagonal-form fully connected layers are column runs of diagonals;
    // check them, with batch lanes and multi-block, against every weight.
    std::mt19937_64 rng(20232);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    for (int i = 0; i < 300; ++i) {
        TensorLayout in(pick(1, 4), pick(1, 4), pick(1, 4), pick(1, 2));
        const int out_features = pick(1, 40);
        const int batch = pick(1, 3);
        if (batch > 1) {
            in = in.with_batch(batch,
                               std::max<u64>(in.base_slots(),
                                             static_cast<u64>(out_features)) +
                                   static_cast<u64>(pick(0, 5)));
        }
        const u64 block_dim = static_cast<u64>(pick(2, 80));
        SCOPED_TRACE(testing::Message() << "case " << i << " out "
                                        << out_features << " block "
                                        << block_dim << " batch " << batch);
        ASSERT_FALSE(lin::is_hybrid_linear(out_features, in));
        DiagonalCollector want(block_dim);
        for (int b = 0; b < batch; ++b) {
            const u64 lane = static_cast<u64>(b) * in.batch_stride;
            for (int r = 0; r < out_features; ++r) {
                for (int c = 0; c < in.channels; ++c) {
                    for (int y = 0; y < in.height; ++y) {
                        for (int x = 0; x < in.width; ++x) {
                            want.add(lane + static_cast<u64>(r),
                                     lane + in.slot_of(c, y, x));
                        }
                    }
                }
            }
        }
        ASSERT_EQ(lin::build_linear_structure(out_features, in, block_dim)
                      .blocks,
                  want.sets());
    }
}

/** The per-pixel reference loop: each output sums its taps in order. */
std::vector<double>
naive_conv(const Conv2dSpec& spec, const std::vector<double>& weights,
           const std::vector<double>& input, int h, int w)
{
    const int oh = spec.out_h(h);
    const int ow = spec.out_w(w);
    const int cpg = spec.in_channels / spec.groups;
    const int opg = spec.out_channels / spec.groups;
    std::vector<double> out(
        static_cast<std::size_t>(spec.out_channels) * oh * ow);
    for (int o = 0; o < spec.out_channels; ++o) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                double acc = 0.0;
                for (int ci = 0; ci < cpg; ++ci) {
                    const int c = (o / opg) * cpg + ci;
                    for (int ky = 0; ky < spec.kernel_h; ++ky) {
                        const int iy = oy * spec.stride - spec.pad +
                                       ky * spec.dilation;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < spec.kernel_w; ++kx) {
                            const int ix = ox * spec.stride - spec.pad +
                                           kx * spec.dilation;
                            if (ix < 0 || ix >= w) continue;
                            acc += weights[((static_cast<std::size_t>(o) *
                                                 cpg +
                                             ci) *
                                                spec.kernel_h +
                                            ky) *
                                               spec.kernel_w +
                                           kx] *
                                   input[(static_cast<std::size_t>(c) * h +
                                          iy) *
                                             w +
                                         ix];
                        }
                    }
                }
                out[(static_cast<std::size_t>(o) * oh + oy) * ow + ox] = acc;
            }
        }
    }
    return out;
}

/**
 * conv2d_reference at every kernel ISA the CPU supports must reproduce
 * naive_conv byte for byte.
 */
void
expect_conv_bit_identical(const Conv2dSpec& spec,
                          const std::vector<double>& weights,
                          const std::vector<double>& input, int h, int w,
                          const std::string& label)
{
    const std::vector<double> want = naive_conv(spec, weights, input, h, w);
    const IsaGuard guard;
    for (const ckks::kernels::Isa isa : ckks::kernels::supported_isas()) {
        ckks::kernels::set_isa(isa);
        const std::vector<double> got =
            lin::conv2d_reference(spec, weights, input, h, w);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << label << " at " << ckks::kernels::isa_name(isa) << ": k "
            << spec.kernel_h << "x" << spec.kernel_w << " s " << spec.stride
            << " p " << spec.pad << " d " << spec.dilation << " g "
            << spec.groups << " " << spec.in_channels << "->"
            << spec.out_channels << " in " << h << "x" << w;
    }
}

Conv2dSpec
conv_spec(int ci, int co, int k, int stride, int pad, int dilation,
          int groups)
{
    Conv2dSpec spec;
    spec.in_channels = ci;
    spec.out_channels = co;
    spec.kernel_h = spec.kernel_w = k;
    spec.stride = stride;
    spec.pad = pad;
    spec.dilation = dilation;
    spec.groups = groups;
    return spec;
}

/** Random weights and a random (c, h, w) input for `spec`. */
void
expect_random_conv_bit_identical(const Conv2dSpec& spec, int h, int w,
                                 u64 seed, const std::string& label)
{
    expect_conv_bit_identical(
        spec, random_weights(spec.weight_count(), seed),
        random_vector(static_cast<u64>(spec.in_channels) * h * w, 3.0,
                      seed + 1),
        h, w, label);
}

TEST(Toeplitz, ConvReferenceBitIdentical)
{
    // conv2d_reference feeds range estimation (hence nu and the golden
    // fingerprints), so its register-blocked accumulation must reproduce
    // the per-pixel loop exactly, not just to a tolerance, at every ISA.
    std::mt19937_64 rng(20233);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int checked = 0;
    while (checked < 400) {
        Conv2dSpec spec;
        spec.groups = pick(1, 3);
        spec.in_channels = spec.groups * pick(1, 3);
        spec.out_channels = spec.groups * pick(1, 13);
        spec.kernel_h = pick(1, 5);
        spec.kernel_w = pick(1, 5);
        spec.stride = pick(1, 3);
        spec.pad = pick(0, 3);
        spec.dilation = pick(1, 2);
        const int h = pick(1, 40);
        const int w = pick(1, 40);
        if (h + 2 * spec.pad <= spec.dilation * (spec.kernel_h - 1) ||
            w + 2 * spec.pad <= spec.dilation * (spec.kernel_w - 1)) {
            continue;
        }
        expect_random_conv_bit_identical(
            spec, h, w, 900 + 2 * static_cast<u64>(checked),
            "case " + std::to_string(checked));
        if (HasFatalFailure()) return;
        ++checked;
    }
}

TEST(Toeplitz, ConvReferenceBitIdenticalEdgeShapes)
{
    // 11 output channels: a block of 8, then 2, then 1.
    expect_random_conv_bit_identical(conv_spec(3, 11, 3, 1, 1, 1, 1), 9, 13,
                                     31, "channel remainder");
    // Depthwise, as avg-pool lowers: 2x2 windows and a global pool with a
    // 1x1 output.
    for (const auto& [k, stride, hw] : {std::tuple{2, 2, 10},
                                        std::tuple{3, 1, 7},
                                        std::tuple{8, 1, 8}}) {
        const Conv2dSpec spec = conv_spec(12, 12, k, stride, 0, 1, 12);
        expect_conv_bit_identical(
            spec,
            std::vector<double>(spec.weight_count(),
                                1.0 / (static_cast<double>(k) * k)),
            random_vector(12u * hw * hw, 3.0, 32), hw, hw, "depthwise");
    }
    // 1x1 images: a fully connected layer, a padded 3x3 kernel (only its
    // center tap is valid) and a grouped one.
    expect_random_conv_bit_identical(conv_spec(50, 37, 1, 1, 0, 1, 1), 1, 1,
                                     33, "fully connected");
    expect_random_conv_bit_identical(conv_spec(6, 21, 3, 1, 1, 1, 1), 1, 1,
                                     35, "padded 1x1 image");
    expect_random_conv_bit_identical(conv_spec(6, 9, 1, 1, 0, 1, 3), 1, 1,
                                     37, "grouped 1x1 image");
    // Output widths that are not a multiple of 4 or 8 lanes.
    for (const int w : {1, 3, 5, 7, 9, 13, 17, 31}) {
        expect_random_conv_bit_identical(conv_spec(2, 8, 3, 1, 1, 1, 1), 6, w,
                                         40 + static_cast<u64>(w),
                                         "odd width");
    }
    // Stride 3 with dilation 2 (a gathered input, sparse valid taps).
    expect_random_conv_bit_identical(conv_spec(4, 10, 3, 3, 2, 2, 2), 23, 19,
                                     71, "stride 3, dilation 2");
}

TEST(Toeplitz, ConvReferenceKeepsSignedZeros)
{
    // -0.0 inputs against zero weights make -0.0 products, which the
    // +0.0 start absorbs: every output must be +0.0, as in the per-pixel
    // loop, including at masked border lanes.
    const Conv2dSpec spec = conv_spec(3, 9, 3, 1, 1, 1, 1);
    const int h = 7;
    const int w = 11;
    std::vector<double> input(3u * h * w, -0.0);
    std::vector<double> weights(spec.weight_count(), 0.0);
    for (std::size_t i = 0; i < weights.size(); i += 2) weights[i] = -0.0;
    expect_conv_bit_identical(spec, weights, input, h, w, "signed zeros");
    const std::vector<double> zeros =
        lin::conv2d_reference(spec, weights, input, h, w);
    for (const double y : zeros) ASSERT_FALSE(std::signbit(y));

    // Mixed: -0.0 entries among random inputs and zero weights.
    const std::vector<double> r = random_vector(input.size(), 2.0, 77);
    for (std::size_t i = 0; i < input.size(); ++i) {
        input[i] = i % 3 == 0 ? -0.0 : r[i];
    }
    weights = random_weights(spec.weight_count(), 78);
    for (std::size_t i = 0; i < weights.size(); i += 4) weights[i] = 0.0;
    expect_conv_bit_identical(spec, weights, input, h, w, "mixed zeros");
}

TEST(Toeplitz, HomomorphicConvolutionEndToEnd)
{
    // Full pipeline at toy parameters: pack -> encrypt -> BSGS conv ->
    // decrypt -> unpack == reference convolution. Strided, so this also
    // exercises the single-shot multiplexed path (depth 1).
    CkksEnv& env = CkksEnv::shared();
    const u64 slots = env.ctx.slot_count();  // 1024 at toy params

    Conv2dSpec spec;
    spec.in_channels = 2;
    spec.out_channels = 4;
    spec.kernel_h = spec.kernel_w = 3;
    spec.stride = 2;
    spec.pad = 1;
    const TensorLayout in(2, 16, 16, 1);   // 512 logical slots
    const TensorLayout out = lin::conv_output_layout(spec, in);
    ASSERT_LE(out.total_slots(), slots);

    const std::vector<double> weights =
        random_weights(spec.weight_count(), 109);
    const BlockedMatrix m =
        lin::build_conv_matrix(spec, weights, in, out, slots);
    const lin::BlockedPlan plan = lin::BlockedPlan::build(m);

    ckks::GaloisKeys keys =
        env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);

    const int level = 3;
    const lin::HeBlockedMatrix he(
        env.ctx, env.encoder, m, plan, level,
        static_cast<double>(env.ctx.q(level).value()));

    const std::vector<double> input = random_vector(2 * 16 * 16, 1.0, 110);
    const std::vector<ckks::Ciphertext> cts = {
        encrypt_vector(env, in.pack(input, slots), level)};
    const std::vector<ckks::Ciphertext> outs = he.apply(eval, cts);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].level(), level - 1);  // single-shot: depth 1

    const std::vector<double> got_slots = decrypt_vector(env, outs[0]);
    const std::vector<double> got = out.unpack(got_slots);
    const std::vector<double> expected =
        lin::conv2d_reference(spec, weights, input, 16, 16);
    EXPECT_LT(max_abs_diff(got, expected), 1e-2);
}

}  // namespace
}  // namespace orion::test
