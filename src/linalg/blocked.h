#ifndef ORION_SRC_LINALG_BLOCKED_H_
#define ORION_SRC_LINALG_BLOCKED_H_

/**
 * @file
 * Blocked matrix-vector products for tensors larger than one ciphertext
 * (Section 4.3, "Multi-ciphertext"). The matrix is tiled into slots x slots
 * blocks; each block is a DiagonalMatrix evaluated with BSGS. Baby-step
 * rotations are shared across all blocks in one block-column (they rotate
 * the same input ciphertext), so every block-column uses a common group
 * size n1.
 */

#include <span>

#include "src/ckks/encoder.h"
#include "src/ckks/evaluator.h"
#include "src/ckks/special_fft.h"
#include "src/linalg/bsgs.h"

namespace orion::lin {

/** A rows x cols matrix tiled into block_dim x block_dim diagonal blocks. */
class BlockedMatrix {
  public:
    BlockedMatrix(u64 rows, u64 cols, u64 block_dim);

    u64 rows() const { return rows_; }
    u64 cols() const { return cols_; }
    u64 block_dim() const { return block_dim_; }
    u64 row_blocks() const { return ceil_div(rows_, block_dim_); }
    u64 col_blocks() const { return ceil_div(cols_, block_dim_); }

    /** Adds v at logical position (r, c). */
    void add(u64 r, u64 c, double v);

    /** The (br, bc) block, or nullptr when all-zero. */
    const DiagonalMatrix* block(u64 br, u64 bc) const;

    /**
     * Rotate-and-add steps that complete the product (see
     * BlockedPlan::fold_steps); empty for a plain diagonal matrix. Only a
     * one-block matrix folds.
     */
    const std::vector<u64>& fold_steps() const { return fold_steps_; }
    void set_fold_steps(std::vector<u64> steps);

    /**
     * Cleartext matvec (x padded to col_blocks * block_dim), folded by
     * fold_steps.
     */
    std::vector<double> apply(const std::vector<double>& x) const;

    /** Sum of materialized diagonals over all blocks. */
    u64 num_diagonals() const;

  private:
    u64 rows_, cols_, block_dim_;
    std::map<std::pair<u64, u64>, DiagonalMatrix> blocks_;
    std::vector<u64> fold_steps_;
};

/**
 * Structure of a blocked matrix without its values: which generalized
 * diagonals of which blocks are nonzero. The structure-only Toeplitz
 * builders (toeplitz.h) produce one for networks whose full matrices
 * would not fit in memory (ResNet-50, YOLO-v1).
 */
struct BlockedStructure {
    u64 rows = 0, cols = 0, block_dim = 0;
    /** (block_row, block_col) -> sorted nonzero diagonal indices. */
    std::map<std::pair<u64, u64>, std::vector<u64>> blocks;
    /** As BlockedMatrix::fold_steps. */
    std::vector<u64> fold_steps;

    u64 row_blocks() const { return ceil_div(rows, block_dim); }
    u64 col_blocks() const { return ceil_div(cols, block_dim); }
    u64 num_diagonals() const;
};

/** Structure of an (already built) value matrix. */
BlockedStructure structure_of(const BlockedMatrix& m);

/**
 * Rotation schedule for a blocked matvec (per-block BSGS, shared babies),
 * followed on a one-block product by rotate-and-add steps.
 */
struct BlockedPlan {
    /** Plan of each materialized block, keyed by (block_row, block_col). */
    std::map<std::pair<u64, u64>, BsgsPlan> block_plans;
    /** Baby steps of each block-column (the union over its blocks). */
    std::map<u64, std::vector<u64>> column_babies;
    /**
     * After the rescale, y += rot(y, s) for each s here, then for each s
     * in replicate_steps. The fold sums a hybrid product's partial sums
     * (toeplitz.h: n_i/2, ..., n_o); replication copies a clean output
     * over the slot vector with period P (P, 2P, ..., slots/2).
     */
    std::vector<u64> fold_steps;
    std::vector<u64> replicate_steps;

    /**
     * Total ciphertext rotations: per column, its shared nontrivial baby
     * steps; per block, its nontrivial giant steps; the fold and
     * replication steps.
     */
    u64 rotation_count() const;
    /** Fold plus replication rotations (after the rescale). */
    u64 sum_rotation_count() const;
    u64 pmult_count() const;
    std::vector<int> required_steps() const;

    /**
     * Plans the diagonals m materializes (its zero weights skipped) and
     * its fold. No replication: that is the consumer's requirement.
     */
    static BlockedPlan build(const BlockedMatrix& m, u64 n1 = 0);
    /** Plans from diagonal index sets alone (no values needed). */
    static BlockedPlan build(const BlockedStructure& s, u64 n1 = 0);

    /** The replication steps P, 2P, ..., slots/2 of period P. */
    static std::vector<u64> replication(u64 period, u64 slots);
};

/**
 * A matrix encoded as pre-rotated plaintext diagonals at a fixed level and
 * scale, ready for repeated homomorphic application. This is the one
 * encoded matvec: linear layers use the blocked form, and single
 * slot-sized blocks (the bootstrap's complex DFT stages, plain BSGS
 * matvecs) are a 1x1 blocked plan with the same schedule.
 */
class HeBlockedMatrix {
  public:
    /**
     * Encodes every block of m under plan. `scale` is the plaintext scale;
     * passing the level's prime q_level (see Context::q) makes the
     * post-rescale output scale exactly equal to the input scale (the
     * paper's errorless scale management, Figure 7).
     */
    HeBlockedMatrix(const ckks::Context& ctx, const ckks::Encoder& encoder,
                    const BlockedMatrix& m, const BlockedPlan& plan,
                    int level, double scale);
    /** One slot-sized block. */
    HeBlockedMatrix(const ckks::Context& ctx, const ckks::Encoder& encoder,
                    const DiagonalMatrix& m, const BsgsPlan& plan, int level,
                    double scale);
    /**
     * One slot-sized complex block, every entry multiplied by pre_factor
     * before encoding. The post-rescale output scale of apply() is
     * input_scale * scale / q_level.
     */
    HeBlockedMatrix(const ckks::Context& ctx, const ckks::Encoder& encoder,
                    const ckks::ComplexDiagMatrix& m, const BsgsPlan& plan,
                    int level, double scale, double pre_factor);

    /**
     * y = M x homomorphically over ciphertext vectors; one level consumed
     * (the result is rescaled once, to level() - 1), then the plan's fold
     * and replication steps. in.size() must equal col_blocks(); the result
     * has row_blocks() entries.
     */
    std::vector<ckks::Ciphertext> apply(
        const ckks::Evaluator& eval,
        std::span<const ckks::Ciphertext> in) const;

    const BlockedPlan& plan() const { return plan_; }
    u64 row_blocks() const { return row_blocks_; }
    u64 col_blocks() const { return col_blocks_; }
    int level() const { return level_; }

  private:
    /**
     * Encodes pre_factor * diag_{g+b} of each planned block rotated down by
     * its giant amount g (Equation 1). block_of(key) returns the block's
     * DiagonalMatrix or ComplexDiagMatrix.
     */
    template <class BlockOf>
    void encode(const ckks::Encoder& encoder, u64 dim,
                const BlockOf& block_of, double pre_factor);

    const ckks::Context* ctx_;
    BlockedPlan plan_;
    int level_;
    double scale_;
    u64 row_blocks_, col_blocks_;
    /** Encoded diagonals per block, aligned with the block plan's groups. */
    std::map<std::pair<u64, u64>,
             std::map<u64, std::vector<ckks::Plaintext>>>
        encoded_;
};

}  // namespace orion::lin

#endif  // ORION_SRC_LINALG_BLOCKED_H_
