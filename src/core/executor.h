#ifndef ORION_SRC_CORE_EXECUTOR_H_
#define ORION_SRC_CORE_EXECUTOR_H_

/**
 * @file
 * Execution backends for compiled networks.
 *
 * Both backends run one program walk (executor.cpp): a single loop over
 * the instruction stream that tracks every value's level exactly, checks
 * operand levels, counts bootstraps / rotations / pmults and charges the
 * analytic cost model (both through instruction_cost, the function
 * placement prices with), opens one exec.* telemetry span per instruction,
 * and merges per-layer wall time. A backend only computes values.
 * SimExecutor's backend computes them in cleartext (reference linear
 * algebra, polynomial activation approximations, injected bootstrap
 * noise) - this is how ImageNet-scale rows of Table 2 are produced.
 * CkksExecutor's backend computes them under real RNS-CKKS encryption end
 * to end. The two therefore report identical accounting for a program.
 *
 * CkksExecutor never holds a secret. It holds only a client's evaluation
 * keys (relinearization + Galois), bound per run, and runs
 * run_encrypted(): ciphertexts in, ciphertexts out. Encryption and
 * decryption belong to the key owner (serve::ServeClient). The expensive
 * key-independent preparation (encoded diagonals, bias plaintexts,
 * resolved scales, the bootstrap circuit) lives in a shared
 * PreparedProgram so a pool of serving executors amortizes it across
 * sessions.
 *
 * Neither backend has a thread knob: kernels run on whatever pool the
 * calling thread reaches (see thread_pool.h), so the caller - a serving
 * worker, a test sweep, a bench - owns the thread budget.
 */

#include <memory>
#include <optional>

#include "src/ckks/ckks.h"
#include "src/core/compiler.h"

namespace orion::core {

/**
 * Wall-clock attribution of one network layer: consecutive program
 * instructions with the same Instruction::layer_id merge into one entry
 * (execution order is preserved), so the vector reads as the paper's
 * Table-4-style per-layer breakdown. Negative ids are compiler units
 * outside any frontend layer: -100 - p is the residual scale of layer
 * p's output, -1000 - k is sign stage k (an activations() index) of a
 * composite ReLU.
 */
struct LayerTiming {
    int layer_id = -1;
    double seconds = 0.0;
};

/**
 * The accounting of one program walk, identical for both backends: the
 * program's deterministic operation counts (race-free when many
 * executors share one Context) and the cost model's price of the run.
 * Rotations equal the measured kernel counts (asserted against Context
 * counters by the compiler integration test); pmults cover linear layers
 * and explicit scales but not the plaintext products inside polynomial
 * activation evaluation.
 */
struct RunStats {
    double modeled_latency = 0.0;  ///< cost-model seconds
    double wall_seconds = 0.0;     ///< measured wall-clock seconds
    u64 bootstraps = 0;
    u64 rotations = 0;
    u64 pmults = 0;
    std::vector<LayerTiming> layer_times;
};

/** Outcome of one inference. */
struct ExecutionResult : RunStats {
    std::vector<double> output;  ///< logical network output (de-normalized)
};

/** Outcome of one encrypted-domain inference (serving path). */
struct EncryptedResult : RunStats {
    std::vector<ckks::Ciphertext> outputs;  ///< still encrypted
};

/** Functional simulation backend. */
class SimExecutor {
  public:
    explicit SimExecutor(const CompiledNetwork& cn,
                         double bootstrap_noise_std = 1e-6, u64 seed = 5);

    ExecutionResult run(const std::vector<double>& input);

  private:
    const CompiledNetwork* cn_;
    double noise_std_;
    ckks::Sampler noise_;
};

/**
 * Key-independent prepared payloads of a compiled program: every linear
 * layer's matrix diagonals encoded at their assigned levels and repair
 * scales (Figure 7), bias plaintexts, the symbolic scale resolution, and
 * — when the program bootstraps and the context has the levels for it —
 * the public-key bootstrap circuit (ckks::BootstrapCircuit), one encoded
 * variant per distinct symbolic input scale. Immutable after
 * construction and safe to share (read-only) across any number of
 * concurrently running executors; the program must have been compiled
 * with matrices (structural_only = false).
 */
class PreparedProgram {
  public:
    PreparedProgram(const CompiledNetwork& cn, const ckks::Context& ctx);

    const CompiledNetwork& network() const { return *cn_; }
    const ckks::Context& context() const { return *ctx_; }

    /** The bootstrap circuit structure; null for bootstrap-free programs. */
    const ckks::BootstrapPlan* bootstrap_plan() const
    {
        return boot_plan_.get();
    }
    /**
     * True when every bootstrap instruction can run as the real circuit
     * (the context has l_eff + l_boot levels). False either because the
     * program is bootstrap-free or because the chain is too short, in
     * which case no executor can run the program.
     */
    bool bootstrap_supported() const { return !boot_circuits_.empty(); }

    /** The prepared payload of one program instruction. */
    struct Step {
        std::optional<lin::HeBlockedMatrix> matrix;  ///< kLinear
        std::vector<ckks::Plaintext> bias;  ///< kLinear; empty if no bias
        /** Exact scale of the produced value (kActivation, kScale). */
        double out_scale = 0.0;
        /** kBootstrap, when bootstrap_supported(). */
        const ckks::BootstrapCircuit* circuit = nullptr;
    };

  private:
    friend class CkksExecutor;

    const CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    std::vector<Step> steps_;  ///< indexed like cn_->program
    // Bootstrap support (empty / null for bootstrap-free programs). The
    // plan is the process-wide memoized one (BootstrapPlan::cached);
    // circuit variants share it rather than copying its stage matrices.
    std::shared_ptr<const ckks::BootstrapPlan> boot_plan_;
    std::vector<std::unique_ptr<const ckks::BootstrapCircuit>>
        boot_circuits_;  ///< one per distinct input scale
};

/**
 * The Galois-key requirements of serving a compiled program on a given
 * context: the program's level-pruned rotation steps plus, for
 * bootstrap-bearing programs the context can support, the bootstrap
 * circuit's steps and conjugation. A pure function of (cn, ctx.params),
 * so a client and a server derive identical sets independently — and
 * keygen generates *only* this union, nothing speculative.
 */
struct GaloisRequirements {
    std::vector<ckks::GaloisKeyRequest> requests;
    bool conjugation = false;
    int conjugation_level = -1;
};
GaloisRequirements required_galois(const CompiledNetwork& cn,
                                   const ckks::Context& ctx);

/**
 * Real-FHE backend over the from-scratch CKKS substrate.
 *
 * run_encrypted() runs its kernels on the calling thread's pool: its
 * ScopedPoolOverride if it has one, else the global pool. Outputs are
 * bit-identical at every thread count, so the budget only moves wall
 * time. An InferenceServer worker pins ServeOptions::threads_per_request
 * once for its whole life, not per request.
 */
class CkksExecutor {
  public:
    /**
     * Binds the executor to a prepared program; it has no key material of
     * its own. Bootstrap instructions run as the real public-key circuit
     * under the bound Galois/relinearization keys; the context must
     * therefore have l_eff + l_boot levels (construction fails otherwise,
     * naming the offending instruction).
     */
    CkksExecutor(const CompiledNetwork& cn, const ckks::Context& ctx,
                 std::shared_ptr<const PreparedProgram> prepared);

    /**
     * Binds a session's evaluation keys. The pointed-to keys must outlive
     * every subsequent run_encrypted() call.
     */
    void bind_session_keys(const ckks::KswitchKey* relin,
                           const ckks::GaloisKeys* galois);

    /**
     * Encrypted-domain inference: validates the input ciphertexts against
     * the program's kInput contract (count, level, scale), executes, and
     * returns the still-encrypted outputs with the program walk's
     * accounting (RunStats), the same SimExecutor reports. Safe to call
     * repeatedly on one instance: all per-run state (values, stats) is
     * local to the call.
     */
    EncryptedResult run_encrypted(const std::vector<ckks::Ciphertext>& input);

    /** Bytes of the bound Galois keys (0 when none are bound). */
    std::size_t galois_key_bytes() const
    {
        return galois_ ? galois_->byte_size() : 0;
    }

  private:
    const CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    ckks::Encoder encoder_;
    std::shared_ptr<const PreparedProgram> prep_;
    // Bound evaluation keys (a session's, owned by its client).
    const ckks::KswitchKey* relin_ = nullptr;
    const ckks::GaloisKeys* galois_ = nullptr;
    ckks::Evaluator eval_;
};

}  // namespace orion::core

#endif  // ORION_SRC_CORE_EXECUTOR_H_
