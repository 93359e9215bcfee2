#ifndef ORION_SRC_LINALG_LAYOUT_H_
#define ORION_SRC_LINALG_LAYOUT_H_

/**
 * @file
 * Multiplexed tensor layouts (Section 4.3) with an optional batch tile
 * dimension (HeLayers-style tile tensors).
 *
 * A (channels, height, width) activation tensor is packed into ciphertext
 * slots on a (height*gap) x (width*gap) pixel grid: each logical pixel is a
 * gap x gap block holding gap^2 different channels, and channels beyond
 * gap^2 occupy further grid planes. gap = 1 is the plain raster-scan
 * layout of Section 4.1. Strided convolutions multiply the gap by the
 * stride, which is what keeps their Toeplitz matrices densely diagonal
 * (Figure 5b) instead of spatially sparse (Figure 5a).
 *
 * Batching: `batch` samples share one slot vector, sample b starting at
 * slot b * batch_stride. The stride is one power-of-two value for the
 * whole program (the widest layer's span rounded up), so every layer sees
 * its lanes at the same offsets and the batched weight matrices are
 * block-diagonal shifts of the single-sample matrix — the diagonal index
 * sets (and hence the rotation plans) are identical to B = 1. batch = 1
 * with batch_stride = 0 is bit-identical to the historical layout.
 *
 * Replication: a single-sample layout may carry a period P (a power of
 * two dividing the slot count, at least the span). The slot vector then
 * repeats with period P: slot j holds what slot j mod P holds. This is
 * the input a hybrid fully connected layer reads (toeplitz.h).
 */

#include "src/common.h"

namespace orion::lin {

/** Slot layout of a (c, h, w) tensor with a channel-multiplex gap. */
struct TensorLayout {
    int channels = 0;
    int height = 0;
    int width = 0;
    int gap = 1;
    /** Samples packed side by side in the slot vector. */
    int batch = 1;
    /** Slot offset between consecutive samples (0 when batch == 1). */
    u64 batch_stride = 0;
    /** Replication period (0 = one copy, zeros beyond the span). */
    u64 period = 0;

    TensorLayout() = default;
    TensorLayout(int c, int h, int w, int g = 1)
        : channels(c), height(h), width(w), gap(g)
    {
        ORION_CHECK(c > 0 && h > 0 && w > 0 && g > 0, "bad layout");
    }

    /** Channels stored per grid plane. */
    int channels_per_plane() const { return gap * gap; }
    /** Number of gap^2-channel planes. */
    int
    planes() const
    {
        return static_cast<int>(
            ceil_div(static_cast<u64>(channels),
                     static_cast<u64>(channels_per_plane())));
    }
    int grid_height() const { return height * gap; }
    int grid_width() const { return width * gap; }

    /** Slots spanned by one sample (including padding slots). */
    u64
    base_slots() const
    {
        return static_cast<u64>(planes()) * grid_height() * grid_width();
    }

    /** Slots spanned by the layout across all batch lanes. */
    u64
    total_slots() const
    {
        if (batch <= 1) return base_slots();
        return static_cast<u64>(batch - 1) * batch_stride + base_slots();
    }

    /** A copy of this layout carrying b samples at the given lane stride. */
    TensorLayout
    with_batch(int b, u64 stride) const
    {
        ORION_CHECK(b >= 1, "bad batch " << b);
        ORION_CHECK(b == 1 || stride >= base_slots(),
                    "batch stride " << stride << " smaller than sample span "
                                    << base_slots());
        TensorLayout l = *this;
        l.batch = b;
        l.batch_stride = b > 1 ? stride : 0;
        return l;
    }

    /** A copy of this layout replicated with period p (0 = one copy). */
    TensorLayout
    with_period(u64 p) const
    {
        ORION_CHECK(p == 0 || (batch == 1 && p >= base_slots() &&
                               is_power_of_two(p)),
                    "bad replication period " << p << " for a "
                                              << base_slots()
                                              << "-slot layout");
        TensorLayout l = *this;
        l.period = p;
        return l;
    }

    /** Slot index of logical element (c, y, x) of sample 0. */
    u64
    slot_of(int c, int y, int x) const
    {
        ORION_ASSERT(c >= 0 && c < channels && y >= 0 && y < height &&
                     x >= 0 && x < width);
        const int plane = c / channels_per_plane();
        const int k = c % channels_per_plane();
        const int grid_y = y * gap + k / gap;
        const int grid_x = x * gap + k % gap;
        return static_cast<u64>(plane) * grid_height() * grid_width() +
               static_cast<u64>(grid_y) * grid_width() +
               static_cast<u64>(grid_x);
    }

    /** Slot index of logical element (c, y, x) of batch lane b. */
    u64
    slot_of(int b, int c, int y, int x) const
    {
        ORION_ASSERT(b >= 0 && b < batch);
        return static_cast<u64>(b) * batch_stride + slot_of(c, y, x);
    }

    /** Flattened logical size c*h*w of one sample (no multiplex padding). */
    u64
    logical_size() const
    {
        return static_cast<u64>(channels) * height * width;
    }

    /** Packs a logical (c, h, w)-major tensor into lane 0 of layout order. */
    std::vector<double>
    pack(const std::vector<double>& chw, u64 padded_size = 0) const
    {
        ORION_CHECK(chw.size() == logical_size(),
                    "tensor size mismatch: " << chw.size() << " vs "
                                             << logical_size());
        std::vector<double> out(padded_size == 0 ? total_slots()
                                                 : padded_size,
                                0.0);
        u64 idx = 0;
        for (int c = 0; c < channels; ++c) {
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    out[slot_of(c, y, x)] = chw[idx++];
                }
            }
        }
        replicate(out);
        return out;
    }

    /**
     * Packs up to `batch` logical tensors, sample b into lane b. Lanes
     * beyond samples.size() stay zero.
     */
    std::vector<double>
    pack_batch(const std::vector<std::vector<double>>& samples,
               u64 padded_size = 0) const
    {
        ORION_CHECK(!samples.empty() &&
                        samples.size() <= static_cast<std::size_t>(batch),
                    "batch size " << samples.size()
                                  << " exceeds layout batch " << batch);
        std::vector<double> out(padded_size == 0 ? total_slots()
                                                 : padded_size,
                                0.0);
        for (std::size_t b = 0; b < samples.size(); ++b) {
            const std::vector<double>& chw = samples[b];
            ORION_CHECK(chw.size() == logical_size(),
                        "tensor size mismatch: " << chw.size() << " vs "
                                                 << logical_size());
            u64 idx = 0;
            for (int c = 0; c < channels; ++c) {
                for (int y = 0; y < height; ++y) {
                    for (int x = 0; x < width; ++x) {
                        out[slot_of(static_cast<int>(b), c, y, x)] =
                            chw[idx++];
                    }
                }
            }
        }
        replicate(out);
        return out;
    }

    /** Extracts the logical (c, h, w)-major tensor of lane 0. */
    std::vector<double>
    unpack(const std::vector<double>& slots) const
    {
        ORION_CHECK(slots.size() >= total_slots(),
                    "slot vector too short: " << slots.size() << " vs "
                                              << total_slots());
        std::vector<double> out(logical_size());
        u64 idx = 0;
        for (int c = 0; c < channels; ++c) {
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    out[idx++] = slots[slot_of(c, y, x)];
                }
            }
        }
        return out;
    }

    /** Extracts the first `count` batch lanes as logical tensors. */
    std::vector<std::vector<double>>
    unpack_batch(const std::vector<double>& slots, int count) const
    {
        ORION_CHECK(count >= 1 && count <= batch,
                    "batch count " << count << " exceeds layout batch "
                                   << batch);
        ORION_CHECK(slots.size() >= total_slots(),
                    "slot vector too short: " << slots.size() << " vs "
                                              << total_slots());
        std::vector<std::vector<double>> out(
            static_cast<std::size_t>(count));
        for (int b = 0; b < count; ++b) {
            std::vector<double>& chw = out[static_cast<std::size_t>(b)];
            chw.resize(logical_size());
            u64 idx = 0;
            for (int c = 0; c < channels; ++c) {
                for (int y = 0; y < height; ++y) {
                    for (int x = 0; x < width; ++x) {
                        chw[idx++] = slots[slot_of(b, c, y, x)];
                    }
                }
            }
        }
        return out;
    }

    bool
    operator==(const TensorLayout& o) const
    {
        return channels == o.channels && height == o.height &&
               width == o.width && gap == o.gap && batch == o.batch &&
               batch_stride == o.batch_stride && period == o.period;
    }

  private:
    /** Copies slots [0, period) over the rest of a packed vector. */
    void
    replicate(std::vector<double>& slots) const
    {
        if (period == 0) return;
        for (u64 j = period; j < slots.size(); ++j) {
            slots[j] = slots[j - period];
        }
    }
};

}  // namespace orion::lin

#endif  // ORION_SRC_LINALG_LAYOUT_H_
