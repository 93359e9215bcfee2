#include "src/serve/server.h"

#include "src/core/thread_pool.h"

namespace orion::serve {

namespace {

double
seconds_between(std::chrono::steady_clock::time_point a,
                std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

namespace {

std::size_t
key_cache_bytes(const ServeOptions& opts)
{
    ORION_CHECK(opts.key_cache_mb >= 0,
                "key_cache_mb " << opts.key_cache_mb << " is negative");
    return static_cast<std::size_t>(opts.key_cache_mb) *
           (std::size_t{1} << 20);
}

}  // namespace

const char*
to_string(ErrorKind kind)
{
    switch (kind) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kBadSession: return "bad_session";
    case ErrorKind::kDecodeError: return "decode_error";
    case ErrorKind::kExecError: return "exec_error";
    case ErrorKind::kOverloaded: return "overloaded";
    }
    return "unknown";
}

InferenceServer::InferenceServer(
    const core::CompiledNetwork& cn, const ckks::Context& ctx,
    ServeOptions opts, std::shared_ptr<const core::PreparedProgram> prepared)
    : cn_(&cn),
      ctx_(&ctx),
      sessions_(ctx, key_cache_bytes(opts), opts.key_spill_dir),
      paused_(opts.start_paused)
{
    ORION_CHECK(opts.max_inflight >= 0 && opts.queue_capacity >= 1,
                "server needs at least one worker and one queue slot");
    max_inflight_ = core::resolve_thread_count(opts.max_inflight);
    queue_capacity_ = opts.queue_capacity;

    // Bootstrap-bearing programs are served through the public-key
    // CoeffToSlot -> EvalMod -> SlotToCoeff circuit prepared here; the
    // executor constructor rejects programs the context cannot support,
    // naming the offending instruction.
    prepared_ = prepared ? std::move(prepared)
                         : std::make_shared<const core::PreparedProgram>(
                               cn, ctx);

    executors_.reserve(static_cast<std::size_t>(max_inflight_));
    for (int i = 0; i < max_inflight_; ++i) {
        executors_.push_back(
            std::make_unique<core::CkksExecutor>(cn, ctx, prepared_));
    }
    // Scrape-time gauges: queue/inflight snapshots and the key cache,
    // read through the same stats() view callers get. Lock order is
    // registry -> mu_ (nothing under mu_ touches the registry by name;
    // the instrument references are cached members).
    metrics_.add_collector([this](std::vector<telemetry::Sample>& out) {
        using Kind = telemetry::Sample::Kind;
        const ServerStats s = stats();
        const auto emit = [&out](const char* name, u64 v, Kind kind) {
            out.push_back({name, static_cast<double>(v), kind});
        };
        emit("serve.queue_depth", s.queue_depth, Kind::kGauge);
        emit("serve.inflight", s.inflight, Kind::kGauge);
        emit("serve.peak_queue_depth", s.peak_queue_depth, Kind::kGauge);
        emit("serve.peak_inflight", s.peak_inflight, Kind::kGauge);
        emit("serve.key_cache.hits", s.key_cache_hits, Kind::kCounter);
        emit("serve.key_cache.misses", s.key_cache_misses, Kind::kCounter);
        emit("serve.key_cache.evictions", s.key_cache_evictions,
             Kind::kCounter);
        emit("serve.key_cache.prefetches", s.key_cache_prefetches,
             Kind::kCounter);
        emit("serve.key_cache.resident_bytes", s.key_resident_bytes,
             Kind::kGauge);
        emit("serve.key_cache.resident_sessions", s.key_resident_sessions,
             Kind::kGauge);
        emit("serve.key_cache.disk_bytes", s.key_disk_bytes, Kind::kGauge);
        emit("serve.key_cache.zombie_bytes", s.key_zombie_bytes,
             Kind::kGauge);
        emit("serve.sessions", sessions_.session_count(), Kind::kGauge);
    });

    workers_.reserve(static_cast<std::size_t>(max_inflight_));
    for (int i = 0; i < max_inflight_; ++i) {
        workers_.emplace_back([this, i, threads = opts.threads_per_request] {
            worker_loop(static_cast<std::size_t>(i), threads);
        });
    }
}

InferenceServer::~InferenceServer()
{
    std::deque<Pending> orphaned;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
        orphaned.swap(queue_);
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
    for (Pending& p : orphaned) {
        p.promise.set_exception(std::make_exception_ptr(
            Error("inference server shut down before the request ran")));
    }
    for (std::thread& t : workers_) t.join();
}

u64
InferenceServer::register_session(std::span<const u8> key_bundle)
{
    // Reject incomplete bundles at registration (with the exact missing
    // step) rather than mid-request: the client derives the same
    // requirement set from the compiled program + bootstrap plan, so a
    // well-behaved client never trips this.
    const auto validate = [this](const KeyBundle& bundle) {
        ORION_CHECK(bundle.relin.valid() &&
                        bundle.relin.level() == ctx_->max_level(),
                    "key bundle: relinearization key missing or pruned "
                    "below the full chain");
        const core::GaloisRequirements need =
            core::required_galois(*cn_, *ctx_);
        for (const ckks::GaloisKeyRequest& req : need.requests) {
            const u64 elt = ctx_->galois_elt(req.step);
            ORION_CHECK(bundle.galois.has(elt),
                        "key bundle: missing Galois key for rotation step "
                            << req.step << " (element " << elt << ")");
            ORION_CHECK(bundle.galois.at(elt).level() >= req.level,
                        "key bundle: Galois key for step "
                            << req.step << " pruned to level "
                            << bundle.galois.at(elt).level()
                            << " but the program rotates at level "
                            << req.level);
        }
        if (need.conjugation) {
            const u64 conj = ctx_->galois_elt_conj();
            ORION_CHECK(bundle.galois.has(conj),
                        "key bundle: missing conjugation key (element "
                            << conj << "), required by the bootstrap "
                            << "circuit's real/imaginary split");
            ORION_CHECK(bundle.galois.at(conj).level() >=
                            need.conjugation_level,
                        "key bundle: conjugation key pruned below the "
                        "bootstrap circuit's CoeffToSlot level "
                            << need.conjugation_level);
        }
    };
    return sessions_.register_session(key_bundle, validate);
}

bool
InferenceServer::unregister_session(u64 id)
{
    return sessions_.unregister(id);
}

std::optional<u64>
InferenceServer::session_requests(u64 id) const
{
    const std::shared_ptr<Session> session = sessions_.peek(id);
    if (session == nullptr) return std::nullopt;
    return session->requests_served.value();
}

std::future<ServeReply>
InferenceServer::enqueue(ckks::serial::Bytes request, bool blocking,
                         bool& accepted)
{
    Pending p;
    p.bytes = std::move(request);
    std::future<ServeReply> fut = p.promise.get_future();
    // Peek the session id (frame check + one u64, no ciphertext decode)
    // so the key cache can warm while the request waits in the queue.
    // Malformed bytes are not an error here — they fail properly, with a
    // descriptive exception, when execute() decodes the full request.
    u64 prefetch_id = 0;
    bool have_prefetch_id = false;
    try {
        prefetch_id = peek_request_session(p.bytes);
        have_prefetch_id = true;
    } catch (...) {
    }
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (blocking) {
            space_cv_.wait(lk, [this] {
                return stop_ ||
                       queue_.size() <
                           static_cast<std::size_t>(queue_capacity_);
            });
        }
        ORION_CHECK(!stop_, "inference server is shutting down");
        // Every submission attempt counts, so the ledger balances:
        // completed + failed + rejected == submitted once idle.
        m_submitted_.add();
        if (queue_.size() >= static_cast<std::size_t>(queue_capacity_)) {
            m_rejected_.add();
            accepted = false;
            return fut;
        }
        p.enqueued = std::chrono::steady_clock::now();
        queue_.push_back(std::move(p));
        peak_queue_depth_ = std::max<u64>(peak_queue_depth_, queue_.size());
        accepted = true;
    }
    queue_cv_.notify_one();
    // Only warm keys for requests that actually entered the queue — a
    // rejected submission has no upcoming execution to warm for.
    if (accepted && have_prefetch_id) sessions_.prefetch(prefetch_id);
    return fut;
}

std::future<ServeReply>
InferenceServer::submit(ckks::serial::Bytes request)
{
    bool accepted = false;
    std::future<ServeReply> fut = enqueue(std::move(request),
                                          /*blocking=*/true, accepted);
    ORION_ASSERT(accepted);
    return fut;
}

std::optional<std::future<ServeReply>>
InferenceServer::try_submit(ckks::serial::Bytes request)
{
    bool accepted = false;
    std::future<ServeReply> fut = enqueue(std::move(request),
                                          /*blocking=*/false, accepted);
    if (!accepted) return std::nullopt;
    return fut;
}

ServeReply
InferenceServer::execute(Pending& p,
                         std::chrono::steady_clock::time_point picked_up,
                         std::size_t worker_index)
{
    Request req;
    try {
        TELEM_SPAN("serve.decode");
        req = decode_request(p.bytes, *ctx_);
    } catch (const std::exception& e) {
        throw RequestError(ErrorKind::kDecodeError, e.what());
    }
    // A pinned lease: the keys cannot be evicted (or freed by a racing
    // unregister) until it goes out of scope, and acquiring it reloads
    // them from the spill file if they were evicted.
    const SessionLease session = sessions_.find(req.session_id);
    if (!session) {
        std::ostringstream oss;
        oss << "unknown session id " << req.session_id
            << " (register a key bundle first)";
        throw RequestError(ErrorKind::kBadSession, oss.str());
    }

    // Over-capacity batches are request errors, not execution errors:
    // name the limit and the layer whose span set it (the PR 5
    // describe-the-instruction convention).
    if (req.batch_count > static_cast<u64>(cn_->batch)) {
        std::ostringstream oss;
        oss << "batch_count " << req.batch_count << " > program capacity "
            << cn_->batch << " for layer " << cn_->batch_limit_layer;
        throw RequestError(ErrorKind::kExecError, oss.str());
    }

    core::CkksExecutor& exec = *executors_[worker_index];
    // Unbind on every exit path (including throw): the executor outlives
    // the lease, and a later request must never see stale key pointers.
    struct BindGuard {
        core::CkksExecutor* exec;
        ~BindGuard() { exec->bind_session_keys(nullptr, nullptr); }
    } unbind{&exec};
    exec.bind_session_keys(&session.keys.relin(), &session.keys.galois());
    core::EncryptedResult er;
    try {
        TELEM_SPAN_ID("serve.execute", req.request_id);
        er = exec.run_encrypted(req.inputs);
    } catch (const std::exception& e) {
        throw RequestError(ErrorKind::kExecError, e.what());
    }
    session.session->requests_served += 1;

    ServeReply reply;
    reply.stats.session_id = req.session_id;
    reply.stats.request_id = req.request_id;
    reply.stats.queue_wait_s = seconds_between(p.enqueued, picked_up);
    reply.stats.execute_s = er.wall_seconds;
    reply.stats.rotations = er.rotations;
    reply.stats.bootstraps = er.bootstraps;
    reply.stats.batch_count = req.batch_count;
    reply.stats.layer_times = std::move(er.layer_times);

    Response resp;
    resp.request_id = req.request_id;
    resp.outputs = std::move(er.outputs);
    resp.rotations = er.rotations;
    resp.bootstraps = er.bootstraps;
    resp.queue_wait_s = reply.stats.queue_wait_s;
    resp.execute_s = reply.stats.execute_s;
    reply.response = encode_response(resp);
    return reply;
}

void
InferenceServer::worker_loop(std::size_t worker_index,
                             int threads_per_request)
{
    // The worker's kernel pool, built once: every request it runs (its
    // decode and encode too) fans out over the same threads_per_request
    // threads. 0 leaves the worker on the global pool.
    std::optional<core::ScopedPoolOverride> pool;
    if (threads_per_request > 0) pool.emplace(threads_per_request);
    while (true) {
        Pending p;
        {
            std::unique_lock<std::mutex> lk(mu_);
            queue_cv_.wait(lk, [this] {
                return stop_ || (!paused_ && !queue_.empty());
            });
            if (stop_ && queue_.empty()) return;
            p = std::move(queue_.front());
            queue_.pop_front();
            inflight_ += 1;
            peak_inflight_ = std::max(peak_inflight_, inflight_);
        }
        space_cv_.notify_one();

        const auto picked_up = std::chrono::steady_clock::now();
        try {
            ServeReply reply = execute(p, picked_up, worker_index);
            const RequestStats& rs = reply.stats;
            m_completed_.add();
            m_images_.add(rs.batch_count);
            m_batch_size_.observe(static_cast<double>(rs.batch_count));
            m_queue_wait_.observe(rs.queue_wait_s);
            m_execute_.observe(rs.execute_s);
            m_rotations_.add(rs.rotations);
            m_bootstraps_.add(rs.bootstraps);
            {
                std::lock_guard<std::mutex> lk(mu_);
                inflight_ -= 1;
            }
            p.promise.set_value(std::move(reply));
        } catch (...) {
            // Unclassified exceptions (never thrown by execute() today)
            // count as execution errors so the per-kind split still sums
            // to `failed`.
            ErrorKind kind = ErrorKind::kExecError;
            try {
                throw;
            } catch (const RequestError& e) {
                kind = e.kind();
            } catch (...) {
            }
            m_failed_.add();
            switch (kind) {
            case ErrorKind::kBadSession: m_failed_bad_session_.add(); break;
            case ErrorKind::kDecodeError: m_failed_decode_.add(); break;
            default: m_failed_exec_.add(); break;
            }
            {
                std::lock_guard<std::mutex> lk(mu_);
                inflight_ -= 1;
            }
            p.promise.set_exception(std::current_exception());
        }
    }
}

void
InferenceServer::resume()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        paused_ = false;
    }
    queue_cv_.notify_all();
}

ServerStats
InferenceServer::stats() const
{
    ServerStats s;
    {
        std::lock_guard<std::mutex> lk(mu_);
        s.inflight = inflight_;
        s.queue_depth = queue_.size();
        s.peak_inflight = peak_inflight_;
        s.peak_queue_depth = peak_queue_depth_;
    }
    s.submitted = m_submitted_.value();
    s.completed = m_completed_.value();
    s.images = m_images_.value();
    s.failed = m_failed_.value();
    s.rejected = m_rejected_.value();
    s.failed_bad_session = m_failed_bad_session_.value();
    s.failed_decode = m_failed_decode_.value();
    s.failed_exec = m_failed_exec_.value();
    s.total_queue_wait_s = m_queue_wait_.sum();
    s.total_execute_s = m_execute_.sum();
    s.total_rotations = m_rotations_.value();
    s.total_bootstraps = m_bootstraps_.value();
    const KeyStoreStats ks = sessions_.key_stats();
    s.key_cache_hits = ks.hits;
    s.key_cache_misses = ks.misses;
    s.key_cache_evictions = ks.evictions;
    s.key_cache_prefetches = ks.prefetches;
    s.key_resident_bytes = ks.resident_bytes;
    s.key_resident_sessions = ks.resident_sessions;
    s.key_disk_bytes = ks.disk_bytes;
    s.key_zombie_bytes = ks.zombie_bytes;
    return s;
}

std::string
InferenceServer::metrics_text() const
{
    // This server's request metrics first, then the process-wide registry
    // (ckks.op.* summed over live Contexts, arena.*, boot.* histograms).
    return metrics_.text() + telemetry::Registry::global().text();
}

}  // namespace orion::serve
