#ifndef ORION_SRC_LINALG_CONV_KERNEL_H_
#define ORION_SRC_LINALG_CONV_KERNEL_H_

/**
 * @file
 * Internal to src/linalg: the tap geometry shared by the Toeplitz
 * builders (toeplitz.cpp) and the cleartext convolution kernel
 * (conv_kernel.cpp, behind lin::conv2d_reference).
 */

#include <vector>

#include "src/linalg/toeplitz.h"

namespace orion::lin::detail {

/** Output positions lo..hi (inclusive; empty when lo > hi). */
struct Span {
    int lo = 0;
    int hi = -1;
};

/**
 * For each of `taps` kernel offsets k along one axis, the output
 * positions o < n_out whose tap reads inside the input:
 * 0 <= o * stride + k * dilation - pad < n_in. The bounds are
 * closed-form, so no output pixel is tested on its own.
 */
std::vector<Span> tap_spans(const Conv2dSpec& spec, int taps, int n_out,
                            int n_in);

}  // namespace orion::lin::detail

#endif  // ORION_SRC_LINALG_CONV_KERNEL_H_
