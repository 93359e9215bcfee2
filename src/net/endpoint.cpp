#include "src/net/endpoint.h"

namespace orion::net {

namespace {

ErrCode
to_err_code(serve::ErrorKind kind)
{
    switch (kind) {
    case serve::ErrorKind::kBadSession: return ErrCode::kBadSession;
    case serve::ErrorKind::kDecodeError: return ErrCode::kDecodeError;
    case serve::ErrorKind::kExecError: return ErrCode::kExecError;
    case serve::ErrorKind::kOverloaded: return ErrCode::kOverloaded;
    case serve::ErrorKind::kNone: break;
    }
    return ErrCode::kInternal;
}

}  // namespace

ServeEndpoint::ServeEndpoint(serve::InferenceServer& server,
                             Listener listener, EndpointOptions opts)
    : server_(server),
      fs_(std::move(listener), opts.net,
          [this](u64 id, Frame&& f) { on_frame(id, std::move(f)); })
{
    const int threads = opts.completion_threads > 0
                            ? opts.completion_threads
                            : server_.max_inflight();
    completion_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
        completion_.emplace_back([this] { completion_loop(); });
    }
    fs_.start();
}

ServeEndpoint::~ServeEndpoint() { stop(); }

void
ServeEndpoint::stop()
{
    fs_.stop();
    {
        std::lock_guard<std::mutex> lk(done_mu_);
        if (stop_) return;
        stop_ = true;
        // Abandon undrained futures: their conns are gone with the loop;
        // the server still completes the work against live promises.
        done_.clear();
    }
    done_cv_.notify_all();
    for (std::thread& t : completion_) t.join();
}

void
ServeEndpoint::send_error(u64 conn_id, u64 corr, ErrCode code,
                          const std::string& message)
{
    (void)fs_.send(conn_id, MsgType::kError, corr,
                   encode_error(code, message));
}

void
ServeEndpoint::on_frame(u64 conn_id, Frame&& f)
{
    try {
        switch (f.type) {
        case MsgType::kRegister: handle_register(conn_id, f); return;
        case MsgType::kRequest: handle_request(conn_id, std::move(f));
            return;
        case MsgType::kUnregister: {
            const u64 token = decode_u64(f.payload);
            bool known = false;
            {
                std::lock_guard<std::mutex> lk(mu_);
                auto it = token_to_local_.find(token);
                if (it != token_to_local_.end()) {
                    known = server_.unregister_session(it->second);
                    token_to_local_.erase(it);
                }
            }
            ckks::serial::ByteWriter w;
            w.put_u64(token);
            w.put_u8(known ? 1 : 0);
            (void)fs_.send(conn_id, MsgType::kUnregisterOk, f.corr,
                           w.take());
            return;
        }
        case MsgType::kPing: {
            const serve::ServerStats s = server_.stats();
            Pong pong;
            pong.inflight = s.inflight;
            pong.queue_depth = s.queue_depth;
            pong.sessions = server_.session_count();
            pong.completed = s.completed;
            (void)fs_.send(conn_id, MsgType::kPong, f.corr,
                           encode_pong(pong));
            return;
        }
        case MsgType::kMetrics:
            (void)fs_.send(conn_id, MsgType::kMetricsText, f.corr,
                           encode_text(server_.metrics_text()));
            return;
        default:
            send_error(conn_id, f.corr, ErrCode::kBadFrame,
                       std::string("unexpected frame type '") +
                           to_string(f.type) + "' at a serving endpoint");
            return;
        }
    } catch (const std::exception& e) {
        // Payload-level decode failures: the frame itself was sound, so
        // the connection survives; only this message fails.
        send_error(conn_id, f.corr, ErrCode::kDecodeError, e.what());
    }
}

void
ServeEndpoint::handle_register(u64 conn_id, const Frame& f)
{
    const u64 token = decode_register_token(f.payload);
    if (token == 0) {
        send_error(conn_id, f.corr, ErrCode::kDecodeError,
                   "session token 0 is reserved");
        return;
    }
    u64 local = 0;
    try {
        local = server_.register_session(register_bundle(f.payload));
    } catch (const std::exception& e) {
        send_error(conn_id, f.corr, ErrCode::kDecodeError, e.what());
        return;
    }
    u64 stale = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = token_to_local_.find(token);
        if (it != token_to_local_.end()) {
            // Re-registration (client retry or post-failover churn): the
            // fresh bundle wins, the stale local session is dropped.
            stale = it->second;
        }
        token_to_local_[token] = local;
    }
    if (stale != 0) (void)server_.unregister_session(stale);
    (void)fs_.send(conn_id, MsgType::kRegisterOk, f.corr,
                   encode_u64(token));
}

void
ServeEndpoint::handle_request(u64 conn_id, Frame&& f)
{
    u64 token = 0;
    try {
        token = serve::peek_request_session(f.payload);
    } catch (const std::exception& e) {
        send_error(conn_id, f.corr, ErrCode::kDecodeError, e.what());
        return;
    }
    u64 local = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = token_to_local_.find(token);
        if (it == token_to_local_.end()) {
            // The failover path: a router just moved this session here.
            // The typed code tells the client to re-send its bundle.
            std::ostringstream oss;
            oss << "session token " << token << " is not registered on "
                << "this endpoint; re-register the key bundle";
            send_error(conn_id, f.corr, ErrCode::kUnknownSession,
                       oss.str());
            return;
        }
        local = it->second;
    }
    serve::rewrite_request_session(f.payload, local);
    std::optional<std::future<serve::ServeReply>> fut =
        server_.try_submit(std::move(f.payload));
    if (!fut.has_value()) {
        // Satellite contract: backpressure is a *typed retryable* error
        // on the wire, not a generic failure.
        send_error(conn_id, f.corr, ErrCode::kOverloaded,
                   "submission queue is full; back off and retry");
        return;
    }
    {
        std::lock_guard<std::mutex> lk(done_mu_);
        if (stop_) return;  // reply has nowhere to go
        done_.push_back(Done{conn_id, f.corr, std::move(*fut)});
    }
    done_cv_.notify_one();
}

void
ServeEndpoint::completion_loop()
{
    for (;;) {
        Done d;
        {
            std::unique_lock<std::mutex> lk(done_mu_);
            done_cv_.wait(lk, [this] { return stop_ || !done_.empty(); });
            if (stop_) return;
            d = std::move(done_.front());
            done_.pop_front();
        }
        try {
            serve::ServeReply reply = d.fut.get();
            (void)fs_.send(d.conn_id, MsgType::kResponse, d.corr,
                           reply.response);
        } catch (const serve::RequestError& e) {
            send_error(d.conn_id, d.corr, to_err_code(e.kind()), e.what());
        } catch (const std::exception& e) {
            send_error(d.conn_id, d.corr, ErrCode::kInternal, e.what());
        }
    }
}

}  // namespace orion::net
