#ifndef ORION_SRC_LINALG_BSGS_H_
#define ORION_SRC_LINALG_BSGS_H_

/**
 * @file
 * Baby-step giant-step homomorphic matrix-vector products (Sections
 * 3.1-3.3, Equation 1).
 *
 * A BsgsPlan splits the nonzero diagonals of a matrix into giant groups of
 * n1 consecutive indices. Evaluation rotates the input by each needed baby
 * step (all served from one hoisted decomposition), multiplies by
 * pre-rotated plaintext diagonals, and applies one giant rotation per
 * group, accumulated with a deferred mod-down (double-hoisting).
 *
 * Which diagonals count as nonzero depends on where the plan comes from.
 * A value matrix skips zero weights, so a plan built from it covers only
 * the diagonals that will be encoded. A structure-only builder
 * (toeplitz.h) has no values and keeps every diagonal a weight could
 * touch. A plan that is encoded must come from the matrix being encoded.
 *
 * A plan is pure schedule; lin::HeBlockedMatrix (blocked.h) encodes a
 * matrix under it and evaluates it. Every linear layer in Orion
 * (convolutions, fully-connected layers) and every bootstrap DFT stage is
 * evaluated through that one type and consumes exactly one level.
 */

#include <map>
#include <vector>

#include "src/linalg/diagonal.h"

namespace orion::lin {

/** The rotation schedule of a BSGS matvec over a fixed diagonal set. */
struct BsgsPlan {
    u64 dim = 0;   ///< matrix dimension (must equal the CKKS slot count
                   ///  for homomorphic evaluation)
    u64 n1 = 1;    ///< giant group size (baby steps are 0..n1-1)

    /** One (baby rotation, diagonal) pair within a giant group. */
    struct Term {
        u64 baby;
        u64 diag;
    };
    /** Giant rotation amount -> terms evaluated under that group. */
    std::map<u64, std::vector<Term>> groups;
    /** Distinct baby steps needed across all groups (sorted). */
    std::vector<u64> baby_steps;

    /** Rotations performed: nontrivial baby steps + nontrivial giants. */
    u64 rotation_count() const;
    /** Baby-step rotations only (these are hoisted). */
    u64 baby_rotation_count() const;
    /** Giant-step rotations only. */
    u64 giant_rotation_count() const;
    /** Number of plaintext multiplications (= number of diagonals). */
    u64 pmult_count() const;
    /** All rotation steps the plan needs keys for. */
    std::vector<int> required_steps() const;

    /**
     * Builds a plan for the matrix's nonzero diagonals. n1 = 0 picks the
     * group size minimizing the rotation count (searched over powers of
     * two and the square-root neighborhood); n1 = 1 degenerates to the
     * plain diagonal method of Figure 2a.
     */
    static BsgsPlan build(const DiagonalMatrix& m, u64 n1 = 0);
    static BsgsPlan build_from_indices(u64 dim,
                                       const std::vector<u64>& diag_indices,
                                       u64 n1 = 0);
};

}  // namespace orion::lin

#endif  // ORION_SRC_LINALG_BSGS_H_
