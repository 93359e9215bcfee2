#ifndef ORION_SRC_BASELINES_UNHOISTED_H_
#define ORION_SRC_BASELINES_UNHOISTED_H_

/**
 * @file
 * Baseline: matrix-vector products without hoisting and with on-the-fly
 * plaintext encoding - the two execution-strategy differences Table 4
 * attributes Fhelipe's slower convolutions to:
 *   1. every rotation pays the full key-switch (no shared decomposition,
 *      no deferred mod-down), and
 *   2. diagonal plaintexts are encoded during the convolution (iFFT + NTT
 *      on the critical path) instead of at compile time.
 */

#include "src/ckks/encoder.h"
#include "src/ckks/evaluator.h"
#include "src/linalg/bsgs.h"

namespace orion::baselines {

/**
 * Evaluates y = M x with the same BSGS schedule as lin::HeBlockedMatrix but
 * un-hoisted rotations and per-use plaintext encoding. Same result, same
 * level consumption; strictly more work per rotation.
 */
ckks::Ciphertext apply_unhoisted(const ckks::Evaluator& eval,
                                 const ckks::Encoder& encoder,
                                 const lin::DiagonalMatrix& m,
                                 const lin::BsgsPlan& plan, int level,
                                 double scale, const ckks::Ciphertext& ct);

}  // namespace orion::baselines

#endif  // ORION_SRC_BASELINES_UNHOISTED_H_
