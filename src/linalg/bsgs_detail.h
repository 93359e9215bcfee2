#ifndef ORION_SRC_LINALG_BSGS_DETAIL_H_
#define ORION_SRC_LINALG_BSGS_DETAIL_H_

/**
 * @file
 * Shared internals of the parallel BSGS evaluation paths, used by both
 * HeDiagonalMatrix (bsgs.cpp) and HeBlockedMatrix (blocked.cpp) so the
 * fan-out logic lives in exactly one place. Definitions in bsgs.cpp.
 */

#include <map>

#include "src/ckks/encoder.h"
#include "src/ckks/evaluator.h"
#include "src/linalg/bsgs.h"

namespace orion::lin::detail {

/** One pending "encode diag rotated down by g into *out" work item. */
struct EncodeSlot {
    const std::vector<double>* diag;
    u64 g;
    ckks::Plaintext* out;
};

/**
 * Encodes every slot in parallel: out[t] = diag[(t - g) mod dim]
 * (Equation 1's pre-rotated giant-group diagonals).
 */
void encode_rotated_diagonals(const ckks::Encoder& encoder, u64 dim,
                              int level, double scale,
                              const std::vector<EncodeSlot>& slots);

/**
 * Hoists ct once and serves every baby rotation from it, fanning the
 * rotations out across the thread pool. Returns the ciphertexts aligned
 * with `steps` and fills `lookup` (step -> pointer into the result).
 * The returned vector owns the ciphertexts; keep it alive while using
 * `lookup`.
 */
std::vector<ckks::Ciphertext> hoisted_baby_rotations(
    const ckks::Evaluator& eval, const ckks::Ciphertext& ct,
    const std::vector<u64>& steps,
    std::map<u64, const ckks::Ciphertext*>* lookup);

/**
 * One giant group's inner sum of PMults, sum_t babies[terms[t].baby] *
 * encoded[t], as a single Evaluator::mul_plain_sum pass. `terms` must be
 * nonempty.
 */
ckks::Ciphertext group_inner_sum(
    const ckks::Evaluator& eval, const std::vector<BsgsPlan::Term>& terms,
    const std::vector<ckks::Plaintext>& encoded,
    const std::map<u64, const ckks::Ciphertext*>& babies);

/**
 * One giant group's full work item: the inner sum of PMults followed by a
 * rotation by `giant` accumulated into the output accumulator `accs[acc]`.
 */
struct GroupTask {
    std::size_t acc;  ///< index into the output accumulator array
    u64 giant;        ///< giant-step rotation amount
    const std::vector<BsgsPlan::Term>* terms;
    const std::vector<ckks::Plaintext>* encoded;
};

/**
 * Evaluates every giant-group task — inner sum, giant rotation, rotation
 * accumulation — across the thread pool. Each worker chunk accumulates
 * into private per-acc partial accumulators that are merged into `accs`
 * serially in fixed (accumulator, chunk) order; the merge is exact modular
 * addition, so the result is bit-identical to serial accumulation at any
 * thread count. This lifts the formerly-serial giant-step accumulation
 * (the last serial fraction of the BSGS matvec) onto the pool.
 */
void accumulate_group_sums(
    const ckks::Evaluator& eval, const std::vector<GroupTask>& tasks,
    const std::map<u64, const ckks::Ciphertext*>& babies,
    std::vector<ckks::Evaluator::RotationAccumulator>& accs);

}  // namespace orion::lin::detail

#endif  // ORION_SRC_LINALG_BSGS_DETAIL_H_
