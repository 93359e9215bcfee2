#ifndef ORION_SRC_SERVE_SERVER_H_
#define ORION_SRC_SERVE_SERVER_H_

/**
 * @file
 * The multi-session FHE inference server (the deployment model of Section
 * 6: clients encrypt locally, the untrusted server computes on
 * ciphertexts it cannot read).
 *
 * Architecture:
 *  - One compiled network + one shared PreparedProgram (the expensive
 *    key-independent encodings, built once).
 *  - A pool of `max_inflight` worker threads, each owning one
 *    CkksExecutor (which never holds a secret). Per request, the worker
 *    takes a pinned lease on the session's evaluation keys (loading them
 *    from the spill file if the LRU key cache evicted them; see
 *    key_store.h), binds them into its executor, runs the encrypted
 *    program, and unbinds on every exit path; an executor therefore
 *    serves every session in turn, which is why CkksExecutor must be
 *    safely re-runnable.
 *  - A bounded submission queue (`queue_capacity` waiting requests).
 *    submit() applies backpressure by blocking; try_submit() rejects
 *    immediately when the queue is full.
 *  - Per-request statistics (queue wait, execute wall, rotations,
 *    bootstraps) are returned with each reply and recorded once, in the
 *    server's private telemetry registry; stats() and metrics_text() are
 *    two views of that one ledger.
 *
 * Threading: submit()/try_submit()/stats()/register_session() are safe to
 * call from any thread. Worker kernels default to one thread per request
 * (throughput via request-level parallelism); ServeOptions::
 * threads_per_request widens individual requests instead, through one
 * kernel pool per worker that lives as long as the worker.
 */

#include <condition_variable>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/executor.h"
#include "src/core/telemetry.h"
#include "src/serve/session.h"

namespace orion::serve {

/** Server construction knobs: the one place serving limits are set. */
struct ServeOptions {
    /**
     * Requests executing concurrently (workers in the executor pool);
     * 0 = the hardware concurrency.
     */
    int max_inflight = 2;
    /** Submitted-but-not-executing requests held before backpressure. */
    int queue_capacity = 16;
    /**
     * Kernel threads per executing request: 1 serializes each request's
     * kernels (default; throughput comes from request parallelism), > 1
     * gives each worker its own pool of that size, built once when the
     * worker starts and reused by every request it runs; 0 leaves the
     * workers on the global pool (core::set_num_threads /
     * $ORION_NUM_THREADS).
     */
    int threads_per_request = 1;
    /**
     * Start with the worker pool idle; requests queue (and the capacity
     * limit applies) until resume(). Lets tests and benches stage a
     * backlog deterministically.
     */
    bool start_paused = false;
    /**
     * Cap (MiB) on evaluation-key bytes kept resident across sessions;
     * least-recently-used sessions beyond it spill to disk and reload on
     * demand (see key_store.h). 0 = unbounded (all keys stay resident).
     */
    int key_cache_mb = 0;
    /** Spill directory for evicted keys (empty = private temp dir). */
    std::string key_spill_dir;
};

/** Failure classification of one request (ledger + RequestStats). */
enum class ErrorKind {
    kNone = 0,
    kBadSession,   ///< unknown / unregistered session id
    kDecodeError,  ///< malformed request bytes
    kExecError,    ///< execution failure under valid keys
    /**
     * Backpressure: the submission queue was full (a try_submit
     * rejection). Distinct from the kinds above because it is
     * *retryable* — the transport layer (net::ServeEndpoint) surfaces it
     * as a typed wire error so routers and clients back off and resend
     * instead of treating it as a permanent failure. Never appears in
     * the worker-loop ledger (rejected requests never execute).
     */
    kOverloaded,
};
const char* to_string(ErrorKind kind);

/**
 * The exception a failed request resolves to: an orion::Error carrying
 * its ErrorKind so the server ledger (and callers) can attribute the
 * failure instead of collapsing everything into one opaque bucket.
 */
class RequestError : public Error {
  public:
    RequestError(ErrorKind kind, const std::string& msg)
        : Error(msg), kind_(kind)
    {
    }
    ErrorKind kind() const { return kind_; }

  private:
    ErrorKind kind_;
};

/** Per-request statistics (also echoed to the client in the Response). */
struct RequestStats {
    u64 session_id = 0;
    u64 request_id = 0;
    double queue_wait_s = 0.0;  ///< submit -> worker pickup
    double execute_s = 0.0;     ///< encrypted program wall time
    u64 rotations = 0;
    u64 bootstraps = 0;
    /** Samples served by this request (its batch lanes); 1 when unbatched. */
    u64 batch_count = 1;
    /** kNone on success; failed requests carry theirs in RequestError. */
    ErrorKind error_kind = ErrorKind::kNone;
    /** Table-4-style per-layer wall-clock split of execute_s. */
    std::vector<core::LayerTiming> layer_times;
};

/** One finished request: the serialized Response plus its statistics. */
struct ServeReply {
    ckks::serial::Bytes response;
    RequestStats stats;
};

/**
 * Aggregate server counters: a snapshot view (InferenceServer::stats())
 * over the server's registry, its queue gauges and the key store.
 * Every submit()/try_submit() call bumps `submitted`, so once the server
 * is idle the ledger balances: completed + failed + rejected == submitted.
 */
struct ServerStats {
    u64 submitted = 0;
    u64 completed = 0;
    /** Samples served across completed requests (sum of batch counts). */
    u64 images = 0;
    u64 failed = 0;    ///< sum of the three failed_* kinds below
    u64 rejected = 0;  ///< try_submit refusals on a full queue
    // Failure attribution: failed == failed_bad_session + failed_decode +
    // failed_exec once the server is idle.
    u64 failed_bad_session = 0;
    u64 failed_decode = 0;
    u64 failed_exec = 0;
    u64 inflight = 0;     ///< executing right now (snapshot gauge)
    u64 queue_depth = 0;  ///< waiting in the queue (snapshot gauge)
    double total_queue_wait_s = 0.0;
    double total_execute_s = 0.0;
    u64 total_rotations = 0;
    u64 total_bootstraps = 0;
    u64 peak_inflight = 0;
    u64 peak_queue_depth = 0;
    // Evaluation-key cache counters (see KeyStoreStats).
    u64 key_cache_hits = 0;
    u64 key_cache_misses = 0;
    u64 key_cache_evictions = 0;
    u64 key_cache_prefetches = 0;
    u64 key_resident_bytes = 0;
    u64 key_resident_sessions = 0;
    u64 key_disk_bytes = 0;
    /** Bytes of unregistered-but-still-leased keys (in-flight requests). */
    u64 key_zombie_bytes = 0;
};

/** A multi-session encrypted-inference server over one compiled network. */
class InferenceServer {
  public:
    /**
     * Builds (or adopts) the shared PreparedProgram and starts the worker
     * pool. The network must be compiled with matrices. Bootstrap
     * instructions run as the public-key circuit under each session's
     * registered keys, so the context needs l_eff + l_boot levels
     * (construction fails otherwise, naming the instruction).
     */
    InferenceServer(const core::CompiledNetwork& cn,
                    const ckks::Context& ctx, ServeOptions opts = {},
                    std::shared_ptr<const core::PreparedProgram> prepared =
                        nullptr);
    /** Fails pending requests, drains workers, joins. */
    ~InferenceServer();

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    /** Registers a client's serialized KeyBundle; returns the session id. */
    u64 register_session(std::span<const u8> key_bundle);
    /** Idempotent; false when the id is unknown (never an error). */
    bool unregister_session(u64 id);
    std::size_t session_count() const { return sessions_.session_count(); }
    /**
     * Requests completed under one session; nullopt for unknown ids (a
     * live session that has served nothing yet reports 0, not nullopt).
     */
    std::optional<u64> session_requests(u64 id) const;

    /**
     * Enqueues a serialized Request. Blocks while the queue is at
     * capacity (backpressure). The future resolves to the reply, or to an
     * exception for unknown sessions / malformed bytes / execution
     * failures.
     */
    std::future<ServeReply> submit(ckks::serial::Bytes request);

    /** Non-blocking submit: nullopt (and stats().rejected++) when full. */
    std::optional<std::future<ServeReply>> try_submit(
        ckks::serial::Bytes request);

    /** Releases a start_paused worker pool; no-op when already running. */
    void resume();

    ServerStats stats() const;
    /**
     * Prometheus-style text exposition: this server's ledger counters,
     * queue/key-cache gauges, and request-latency histograms, followed by
     * the process-wide registry (ckks.op.*, arena.*, boot.* stage
     * histograms). One scrape surface for everything stats() reports.
     */
    std::string metrics_text() const;
    /** This server's private registry (request metrics only). */
    const telemetry::Registry& metrics() const { return metrics_; }
    int max_inflight() const { return max_inflight_; }
    int queue_capacity() const { return queue_capacity_; }
    const ckks::Context& context() const { return *ctx_; }
    const core::CompiledNetwork& network() const { return *cn_; }
    std::shared_ptr<const core::PreparedProgram> prepared() const
    {
        return prepared_;
    }

  private:
    struct Pending {
        ckks::serial::Bytes bytes;
        std::promise<ServeReply> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    std::future<ServeReply> enqueue(ckks::serial::Bytes request,
                                    bool blocking, bool& accepted);
    void worker_loop(std::size_t worker_index, int threads_per_request);
    ServeReply execute(Pending& p,
                       std::chrono::steady_clock::time_point picked_up,
                       std::size_t worker_index);

    const core::CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    int max_inflight_ = 0;
    int queue_capacity_ = 0;
    std::shared_ptr<const core::PreparedProgram> prepared_;
    SessionManager sessions_;
    // One executor per worker; index == worker index.
    std::vector<std::unique_ptr<core::CkksExecutor>> executors_;

    mutable std::mutex mu_;
    std::condition_variable queue_cv_;  ///< workers wait for work
    std::condition_variable space_cv_;  ///< submitters wait for space
    std::deque<Pending> queue_;
    bool stop_ = false;
    bool paused_ = false;
    u64 inflight_ = 0;
    u64 peak_inflight_ = 0;
    u64 peak_queue_depth_ = 0;

    // Per-server registry: the request ledger and latency histograms live
    // here, and only here, so one server's scrape is not polluted by
    // another's requests; stats() reads them back. The instrument
    // references are captured once (registry lookups lock).
    telemetry::Registry metrics_;
    telemetry::Counter& m_submitted_ = metrics_.counter("serve.submitted");
    telemetry::Counter& m_completed_ = metrics_.counter("serve.completed");
    telemetry::Counter& m_failed_ = metrics_.counter("serve.failed");
    telemetry::Counter& m_rejected_ = metrics_.counter("serve.rejected");
    telemetry::Counter& m_failed_bad_session_ =
        metrics_.counter("serve.failed.bad_session");
    telemetry::Counter& m_failed_decode_ =
        metrics_.counter("serve.failed.decode_error");
    telemetry::Counter& m_failed_exec_ =
        metrics_.counter("serve.failed.exec_error");
    telemetry::Histogram& m_queue_wait_ =
        metrics_.histogram("serve.queue_wait.seconds");
    telemetry::Histogram& m_execute_ =
        metrics_.histogram("serve.execute.seconds");
    telemetry::Counter& m_images_ = metrics_.counter("serve.images");
    telemetry::Histogram& m_batch_size_ =
        metrics_.histogram("serve.batch_size");
    telemetry::Counter& m_rotations_ = metrics_.counter("serve.rotations");
    telemetry::Counter& m_bootstraps_ =
        metrics_.counter("serve.bootstraps");

    std::vector<std::thread> workers_;
};

}  // namespace orion::serve

#endif  // ORION_SRC_SERVE_SERVER_H_
