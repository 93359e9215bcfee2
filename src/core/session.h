#ifndef ORION_SRC_CORE_SESSION_H_
#define ORION_SRC_CORE_SESSION_H_

/**
 * @file
 * orion::Session - the unified pipeline facade (the C++ analogue of the
 * paper's Listing 1 driver): one object that owns the CKKS context, the
 * data owner's key material, and the compiled program, and exposes the
 * paper's verbs:
 *
 *   orion::Session session = orion::Session::toy();
 *   session.fit(calibration_batch);             // net.fit(loader)
 *   session.compile(*net, 1, 8, 8);             // orion.compile(net)
 *   auto result = session.run(image);           // encrypted inference
 *   auto sim = session.simulate(image);         // functional backend
 *
 * A Session comes in two flavors:
 *  - real-substrate (toy() / with_params()): a ckks::Context backs
 *    encrypt / run / decrypt / serve. The keys live in one
 *    serve::ServeClient seeded with SessionOptions::seed; the executor
 *    holds only that client's evaluation keys, exactly like a server
 *    does. Both are created lazily on first use, and the executor shares
 *    one PreparedProgram with any servers created from the same Session.
 *  - simulation-only (simulation()): no Context is built; compile()
 *    targets the paper-scale slot count and only simulate() executes
 *    (how the ImageNet-scale Table 2 rows are produced).
 *
 * The serving path hangs off the same object: serve() starts an
 * InferenceServer over the session's compiled program, serve_client()
 * creates a data-owner client with its own fresh secret.
 */

#include <memory>
#include <optional>
#include <vector>

#include "src/ckks/ckks.h"
#include "src/core/compiler.h"
#include "src/core/executor.h"
#include "src/nn/module.h"
#include "src/serve/serve.h"

namespace orion {

/** Substrate configuration fixed at Session construction. */
struct SessionOptions {
    /** CKKS ring parameters; nullopt = simulation-only session. */
    std::optional<ckks::CkksParams> params;
    /** Packing slot count for simulation-only sessions (paper: 2^15). */
    u64 sim_slots = u64(1) << 15;
    /** Effective post-bootstrap level handed to the compiler. */
    int l_eff = 10;
    /** Keygen seed of the session's own client (and of module init). */
    u64 seed = 7;
};

/** One FHE pipeline: context + client keys + compiled program + executors. */
class Session {
  public:
    explicit Session(SessionOptions opts);

    /** Toy ring (N = 2^11, l_eff 4): fast demos/tests, NOT secure. */
    static Session toy();
    /** A real substrate at the given parameters (NOT secure sizes). */
    static Session with_params(const ckks::CkksParams& params, int l_eff);
    /** Simulation-only: paper-scale packing, no Context, simulate(). */
    static Session simulation(u64 slots = u64(1) << 15, int l_eff = 10);

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    // ---- the paper's verbs ----

    /**
     * Registers calibration inputs for range estimation (the argument of
     * the paper's net.fit(loader)). Applies to subsequent compile()
     * calls; an explicit CompileOptions::calibration_inputs wins.
     */
    void fit(std::vector<std::vector<double>> calibration_data);

    /**
     * Compiles a network: fills the substrate-derived options (slots,
     * l_eff, cost model, calibration data from fit()) and runs the
     * Section 6 pipeline. Any previously compiled program, executors,
     * and prepared payloads of this Session are discarded.
     */
    const core::CompiledNetwork& compile(const nn::Network& net,
                                         core::CompileOptions opt = {});

    /**
     * Compiles a module tree over a (c, h, w) input: infers shapes,
     * He-initializes any unset parameters with the session seed, lowers
     * to the graph IR (kept; see network()), and compiles. Note the
     * weights end up resident three times (module tree, retained IR,
     * compiled program) - convenient for the small networks a real
     * substrate can execute; for ImageNet-scale trees lower yourself
     * with nn::build_network (which *moves* the weights) and use the
     * Network overload.
     */
    const core::CompiledNetwork& compile(nn::Module& module, int c, int h,
                                         int w, std::string name = "net",
                                         core::CompileOptions opt = {});

    /**
     * Full encrypted inference of one sample: the session client
     * encrypts, the executor runs the program on ciphertexts, the client
     * decrypts. Kernels run on the calling thread's pool (its
     * core::ScopedPoolOverride, else the global pool). The B = 1 case of
     * run(samples).
     */
    core::ExecutionResult run(const std::vector<double>& input);

    /**
     * Batched encrypted inference: packs up to CompiledNetwork::batch
     * samples into slot lanes (compile with CompileOptions::batch > 1),
     * executes the program ONCE, and returns one output per sample.
     */
    std::vector<std::vector<double>> run(
        const std::vector<std::vector<double>>& samples);

    /** Functional simulation (cost model + bootstrap noise). */
    core::ExecutionResult simulate(const std::vector<double>& input);

    /** Packs + encrypts up to CompiledNetwork::batch samples. */
    std::vector<ckks::Ciphertext> encrypt(
        const std::vector<std::vector<double>>& samples);
    std::vector<ckks::Ciphertext> encrypt(const std::vector<double>& input)
    {
        return encrypt(std::vector<std::vector<double>>{input});
    }

    /** Encrypted-domain inference: ciphertexts in, ciphertexts out. */
    core::EncryptedResult run_encrypted(
        const std::vector<ckks::Ciphertext>& input);

    /** Decrypts + unpacks + de-normalizes the first batch_count lanes. */
    std::vector<std::vector<double>> decrypt(
        const std::vector<ckks::Ciphertext>& outputs, int batch_count);
    std::vector<double> decrypt(const std::vector<ckks::Ciphertext>& outputs)
    {
        return decrypt(outputs, 1).front();
    }

    // ---- serving (the Section 6 deployment model) ----

    /**
     * Starts an InferenceServer over the session's compiled program,
     * sharing this Session's PreparedProgram with its worker pool.
     */
    std::unique_ptr<serve::InferenceServer> serve(
        serve::ServeOptions opts = {});

    /**
     * A data-owner client with its own fresh secret (never shared).
     * Without an explicit seed, keygen entropy comes from
     * std::random_device, so every default-constructed client has a
     * distinct secret; pass a seed only for reproducible tests/demos.
     */
    serve::ServeClient serve_client(
        std::optional<u64> seed = std::nullopt);

    // ---- access ----

    bool has_context() const { return ctx_ != nullptr; }
    const ckks::Context& context() const;
    const core::CompiledNetwork& compiled() const;
    /** The graph IR lowered by the module-tree compile() overload. */
    const nn::Network& network() const;
    /**
     * The session's executor (created on first use), bound to the
     * session client's evaluation keys; it never sees the secret.
     */
    core::CkksExecutor& executor();
    /** Shared key-independent payloads (created on first use). */
    std::shared_ptr<const core::PreparedProgram> prepared();
    const SessionOptions& options() const { return opts_; }

  private:
    void require_compiled(const char* verb) const;
    void require_context(const char* verb) const;
    void require_matrices(const char* verb) const;
    /** The session's key owner (created on first use). */
    serve::ServeClient& client(const char* verb);
    /** The one encrypt -> execute -> decrypt path behind both run()s. */
    core::ExecutionResult infer(
        const std::vector<std::vector<double>>& samples,
        std::vector<std::vector<double>>& outputs);

    SessionOptions opts_;
    std::unique_ptr<ckks::Context> ctx_;  ///< null when simulation-only
    std::optional<int> l_boot_;  ///< measured bootstrap-circuit depth
    std::vector<std::vector<double>> calibration_;
    std::optional<nn::Network> lowered_;  ///< module-compile() keeps the IR
    std::optional<core::CompiledNetwork> compiled_;
    std::shared_ptr<const core::PreparedProgram> prepared_;
    std::unique_ptr<serve::ServeClient> client_;
    std::unique_ptr<core::CkksExecutor> fhe_;  ///< bound to client_'s keys
    std::unique_ptr<core::SimExecutor> sim_;
};

}  // namespace orion

#endif  // ORION_SRC_CORE_SESSION_H_
