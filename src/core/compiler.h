#ifndef ORION_SRC_CORE_COMPILER_H_
#define ORION_SRC_CORE_COMPILER_H_

/**
 * @file
 * The Orion compiler (Section 6): lowers a network graph to an FHE
 * instruction sequence.
 *
 * Pipeline:
 *   1. BatchNorm folding into the preceding conv/linear layer.
 *   2. Range estimation (the paper's net.fit()): cleartext calibration
 *      passes record per-layer max magnitudes; every edge is normalized to
 *      [-1, 1] by folding scale factors into linear-layer weights (free)
 *      or inserting explicit scale-down multiplications where no foldable
 *      layer exists (residual shortcuts).
 *   3. Packing: every conv/pool/linear becomes a blocked Toeplitz matrix
 *      between multiplexed layouts (single-shot multiplexing, Section 4),
 *      with a BSGS rotation plan per block-column.
 *   4. Bootstrap placement + level assignment (Section 5) on the SESE
 *      chain, whose units are the instructions they emit, priced by
 *      instruction_cost.
 *   5. Instruction emission: the placed records, carrying their
 *      execution level and ciphertext count. Scales are not fixed here:
 *      core::PreparedProgram resolves them symbolically and encodes each
 *      linear layer's weights at the repair scale Delta * q_l / in_scale,
 *      so the between-layer invariant scale == Delta holds exactly
 *      (Figure 7).
 */

#include <memory>
#include <optional>

#include "src/approx/sign.h"
#include "src/core/cost_model.h"
#include "src/core/instruction.h"
#include "src/core/placement.h"
#include "src/nn/network.h"

namespace orion::core {

/** Compilation switches. */
struct CompileOptions {
    u64 slots = u64(1) << 15;  ///< ciphertext slot count to pack against
    int l_eff = 10;            ///< effective level after bootstrapping
    CostModel cost = CostModel::paper_scale();

    /** Packing strategies (Figure 5 comparison). */
    enum class Packing {
        kMultiplexed,  ///< single-shot multiplexed (Orion, Section 4.3)
        kRaster,       ///< plain raster Toeplitz (gap never grows)
    };
    Packing packing = Packing::kMultiplexed;
    /** false: plain diagonal method instead of BSGS (Figure 2 baseline). */
    bool use_bsgs = true;
    /** true: lazy bootstrap-when-forced placement (Section 5.1 baseline). */
    bool lazy_placement = false;

    int calibration_samples = 8;  ///< range-estimation passes
    double margin = 1.25;         ///< range headroom (values <= 1/margin)
    u64 calibration_seed = 99;
    /**
     * Calibration dataset for range estimation (the argument of the
     * paper's net.fit()). When empty, synthetic uniform(-1, 1) inputs are
     * drawn - matching inference inputs in distribution matters, because
     * squaring-heavy networks compound any tail mismatch.
     */
    std::vector<std::vector<double>> calibration_inputs;

    /**
     * Skip materializing weight-value matrices (rotation plans only).
     * Required for ImageNet-scale networks; such programs run on the
     * simulation backend but not the CKKS backend.
     */
    bool structural_only = false;

    /**
     * Samples packed side by side across free slots (tile-tensor
     * batching). Clamped to the program's per-layer batch capacity
     * (slots / widest layer span rounded up to a power of two); 1
     * compiles the exact historical single-sample program.
     */
    int batch = 1;
};

/** Everything needed to execute one linear layer. */
struct LinearLayerData {
    nn::LayerKind kind = nn::LayerKind::kConv2d;
    lin::TensorLayout in_layout, out_layout;
    lin::Conv2dSpec conv;            ///< for conv/pool
    int in_features = 0, out_features = 0;  ///< for linear
    std::vector<double> folded_weights;     ///< BN + normalization folded
    std::vector<double> folded_bias;        ///< normalized bias (may be empty)
    lin::BlockedPlan plan;
    PlanStats stats;
    std::shared_ptr<lin::BlockedMatrix> matrix;  ///< null when structural
    u64 rows = 0, cols = 0;
};

/**
 * Everything needed to execute one activation *unit*. A ReLU is lowered as
 * a SESE region (Section 5.2): one ActivationData per sign stage plus a
 * kMul join, so that bootstraps can be placed between (never within) the
 * composite's polynomial evaluations.
 */
struct ActivationData {
    nn::ActivationSpec::Kind kind = nn::ActivationSpec::Kind::kSquare;
    std::vector<approx::ChebyshevPoly> stages;  ///< empty for square;
                                                ///  exactly one otherwise
    int depth = 1;
    std::vector<int> stage_degrees;
    double nu_in = 1.0, nu_out = 1.0;
};

/** The compiled FHE program plus all compile-time statistics. */
struct CompiledNetwork {
    std::string name;
    std::vector<Instruction> program;
    std::vector<LinearLayerData> linears;
    std::vector<ActivationData> activations;

    // Input / output bookkeeping.
    nn::Shape input_shape;
    lin::TensorLayout input_layout;
    double input_nu = 1.0;   ///< encrypt nu * x
    double output_nu = 1.0;  ///< decrypted slots are nu * y
    lin::TensorLayout output_layout;
    u64 output_size = 0;

    // Batch tiling (tile tensors): every layer's layouts carry `batch`
    // lanes at stride `batch_stride` slots. batch_capacity is the most
    // the slot count admits for this network; batch is the compiled
    // (clamped) value, and batch_limit_layer names the widest layer —
    // the one whose span set the capacity.
    int batch = 1;
    u64 batch_stride = 0;
    int batch_capacity = 1;
    std::string batch_limit_layer;

    // Execution configuration carried to the backends.
    CostModel cost_model;
    int l_eff = 10;

    // Statistics (Table 2 / 4 / 5 columns). The counts, depths and
    // modeled_latency are one instruction_cost tally over `program`.
    u64 slots = 0;
    u64 total_rotations = 0;
    u64 total_pmults = 0;
    u64 num_bootstraps = 0;
    int activation_depth = 0;  ///< sum of activation depths
    int total_mult_depth = 0;  ///< whole-circuit depth (Table 2's column)
    double modeled_latency = 0.0;
    double compile_seconds = 0.0;
    double placement_seconds = 0.0;
    PlacementResult placement;

    /**
     * One rotation-key requirement of the program: a step and the highest
     * level any linear layer rotates by it. Key generation prunes each
     * Galois key to that level (ckks::GaloisKeyRequest), which is what
     * keeps per-session key bundles small; the executor layer appends the
     * bootstrap circuit's (nearly full-chain) requirements.
     */
    struct RotationUse {
        int step = 0;
        int level = 0;
    };
    std::vector<RotationUse> required_rotations() const;
};

/** The modeled price and operation counts of one instruction. */
struct InstructionCost {
    double seconds = 0.0;  ///< cost-model latency
    u64 rotations = 0;     ///< linear-layer rotations
    u64 pmults = 0;        ///< linear-layer diagonals and kScale products
    u64 bootstraps = 0;    ///< bootstrapped ciphertexts
    int depth = 0;         ///< multiplicative levels consumed
};

/**
 * The one price-and-count function. Bootstrap placement prices every unit
 * with it, compile() tallies the emitted program's totals with it, and
 * the executor walk charges each instruction with it. `level` is the
 * input level; a bootstrap always runs to cn.l_eff.
 */
InstructionCost instruction_cost(const CompiledNetwork& cn,
                                 const Instruction& ins, int level);

/** "kBootstrap", "kLinear", ... for error messages and reports. */
const char* to_string(Instruction::Op op);

/** "kBootstrap (layer 12, 2 cts)" — names an instruction precisely. */
std::string describe_instruction(const Instruction& ins);

/** Compiles a network. The network must outlive nothing (all data copied). */
CompiledNetwork compile(const nn::Network& net, const CompileOptions& options);

}  // namespace orion::core

#endif  // ORION_SRC_CORE_COMPILER_H_
