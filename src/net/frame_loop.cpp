#include "src/net/frame_loop.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "src/core/telemetry.h"

namespace orion::net {

namespace {

/** Connection counters in the global registry, captured once. */
struct LoopMetrics {
    telemetry::Registry& reg = telemetry::Registry::global();
    telemetry::Counter& accepted = reg.counter("net.conn.accepted");
    telemetry::Counter& closed = reg.counter("net.conn.closed");
    telemetry::Counter& read_timeout = reg.counter("net.conn.read_timeout");
    telemetry::Counter& write_timeout =
        reg.counter("net.conn.write_timeout");
    telemetry::Counter& frame_rejected =
        reg.counter("net.conn.frame_rejected");
};

LoopMetrics&
loop_metrics()
{
    static LoopMetrics m;
    return m;
}

constexpr std::size_t kReadChunk = 1 << 16;

}  // namespace

FrameServer::FrameServer(Listener listener, Options opts,
                         FrameHandler on_frame, CloseHandler on_close)
    : listener_(std::move(listener)), opts_(opts),
      on_frame_(std::move(on_frame)), on_close_(std::move(on_close))
{
    ORION_CHECK(listener_.valid(), "FrameServer needs a bound listener");
    ORION_CHECK(on_frame_ != nullptr, "FrameServer needs a frame handler");
    ORION_CHECK(::pipe(wake_pipe_) == 0,
                "wake pipe creation failed: " << std::strerror(errno));
    // The loop drains the pipe non-blockingly; writers must never stall.
    for (const int fd : wake_pipe_) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
    open_gauge_collector_ = telemetry::Registry::global().add_collector(
        [this](std::vector<telemetry::Sample>& out) {
            out.push_back({"net.conn.open",
                           static_cast<double>(open_conns()),
                           telemetry::Sample::Kind::kGauge});
        });
}

FrameServer::~FrameServer()
{
    stop();
    telemetry::Registry::global().remove_collector(open_gauge_collector_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void
FrameServer::start()
{
    ORION_CHECK(!thread_.joinable(), "FrameServer already started");
    thread_ = std::thread([this] { loop(); });
}

void
FrameServer::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_) return;
        stop_ = true;
    }
    wake();
    if (thread_.joinable()) thread_.join();
    std::map<u64, ConnState> orphaned;
    {
        std::lock_guard<std::mutex> lk(mu_);
        orphaned.swap(conns_);
    }
    loop_metrics().closed.add(orphaned.size());
}

void
FrameServer::wake()
{
    const u8 b = 1;
    (void)!::write(wake_pipe_[1], &b, 1);
}

bool
FrameServer::send(u64 conn_id, MsgType type, u64 corr,
                  std::span<const u8> payload)
{
    ckks::serial::Bytes wire = encode_frame(type, corr, payload);
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = conns_.find(conn_id);
        if (it == conns_.end()) return false;
        it->second.wq.push_back(std::move(wire));
    }
    transport_counters().frames_tx.add();
    wake();
    return true;
}

void
FrameServer::close_conn(u64 conn_id)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = conns_.find(conn_id);
        if (it == conns_.end()) return;
        it->second.close_after_flush = true;
    }
    wake();
}

std::size_t
FrameServer::open_conns() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return conns_.size();
}

bool
FrameServer::pump_reads(ConnState& cs,
                        std::vector<std::pair<u64, Frame>>& out, u64 id)
{
    for (;;) {
        std::size_t got = 0;
        const Conn::Io rc = cs.conn.read_some(cs.rbuf, kReadChunk, &got);
        if (rc == Conn::Io::kEof || rc == Conn::Io::kClosed) return false;
        if (got > 0) transport_counters().bytes_rx.add(got);

        // Assemble every complete frame currently buffered.
        for (;;) {
            const std::size_t avail = cs.rbuf.size() - cs.rpos;
            if (avail < kFrameHeaderBytes) break;
            FrameHeader h;
            try {
                TELEM_SPAN("net.frame.decode");
                h = decode_frame_header(
                    std::span<const u8>(cs.rbuf.data() + cs.rpos,
                                        kFrameHeaderBytes),
                    opts_.max_frame_bytes);
            } catch (const Error&) {
                // Garbage on the wire: the stream position is unusable.
                loop_metrics().frame_rejected.add();
                return false;
            }
            if (avail - kFrameHeaderBytes <
                static_cast<std::size_t>(h.payload_len)) {
                break;
            }
            Frame f;
            f.type = h.type;
            f.corr = h.corr;
            const u8* body = cs.rbuf.data() + cs.rpos + kFrameHeaderBytes;
            f.payload.assign(body, body + h.payload_len);
            cs.rpos += kFrameHeaderBytes +
                       static_cast<std::size_t>(h.payload_len);
            transport_counters().frames_rx.add();
            out.emplace_back(id, std::move(f));
        }
        // Compact the consumed prefix once it dominates the buffer.
        if (cs.rpos > 0 && (cs.rpos == cs.rbuf.size() ||
                            cs.rpos > (std::size_t{1} << 20))) {
            cs.rbuf.erase(cs.rbuf.begin(),
                          cs.rbuf.begin() +
                              static_cast<std::ptrdiff_t>(cs.rpos));
            cs.rpos = 0;
        }
        // Slow-loris bookkeeping: a partial frame starts (or keeps) the
        // clock; an empty buffer clears it.
        if (cs.rbuf.size() == cs.rpos) {
            cs.partial_since = 0.0;
        } else if (got > 0 || cs.partial_since == 0.0) {
            // Progress (or a fresh partial) resets the deadline: only a
            // *stalled* partial frame trips the timeout.
            cs.partial_since = mono_seconds();
        }
        if (rc == Conn::Io::kWouldBlock) return true;
    }
}

bool
FrameServer::pump_writes(ConnState& cs)
{
    while (!cs.wq.empty()) {
        const ckks::serial::Bytes& buf = cs.wq.front();
        std::size_t done = 0;
        const Conn::Io rc = cs.conn.write_some(buf.data() + cs.wq_off,
                                               buf.size() - cs.wq_off,
                                               &done);
        if (rc == Conn::Io::kClosed) return false;
        if (done > 0) {
            transport_counters().bytes_tx.add(done);
            cs.wq_off += done;
            cs.write_stalled_since = 0.0;
            if (cs.wq_off == buf.size()) {
                cs.wq.pop_front();
                cs.wq_off = 0;
            }
            continue;
        }
        if (cs.write_stalled_since == 0.0) {
            cs.write_stalled_since = mono_seconds();
        }
        return true;  // would block; poll will re-arm POLLOUT
    }
    cs.write_stalled_since = 0.0;
    return true;
}

void
FrameServer::loop()
{
    std::vector<struct pollfd> pfds;
    std::vector<u64> pfd_conn;  // conn id per pollfd (0 for specials)
    std::vector<std::pair<u64, Frame>> ready;
    std::vector<u64> closed;

    for (;;) {
        pfds.clear();
        pfd_conn.clear();
        pfds.push_back({wake_pipe_[0], POLLIN, 0});
        pfd_conn.push_back(0);
        pfds.push_back({listener_.fd(), POLLIN, 0});
        pfd_conn.push_back(0);
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stop_) return;
            for (auto& [id, cs] : conns_) {
                short events = POLLIN;
                if (!cs.wq.empty()) events |= POLLOUT;
                pfds.push_back({cs.conn.fd(), events, 0});
                pfd_conn.push_back(id);
            }
        }

        const int rc = ::poll(pfds.data(),
                              static_cast<nfds_t>(pfds.size()), 50);
        if (rc < 0 && errno != EINTR) return;  // unrecoverable

        // Drain wakeups.
        if (pfds[0].revents != 0) {
            u8 scratch[64];
            while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
            }
        }

        // Accept everything pending.
        if (pfds[1].revents != 0) {
            for (;;) {
                Conn c = listener_.accept();
                if (!c.valid()) break;
                std::lock_guard<std::mutex> lk(mu_);
                ConnState cs;
                cs.conn = std::move(c);
                conns_.emplace(next_conn_id_++, std::move(cs));
                loop_metrics().accepted.add();
            }
        }

        ready.clear();
        closed.clear();
        const double now = mono_seconds();
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (std::size_t i = 2; i < pfds.size(); ++i) {
                auto it = conns_.find(pfd_conn[i]);
                if (it == conns_.end()) continue;
                ConnState& cs = it->second;
                bool ok = true;
                if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) !=
                    0) {
                    // POLLHUP can still carry buffered bytes; read first.
                    ok = pump_reads(cs, ready, it->first);
                }
                if (ok && (pfds[i].revents & POLLIN) != 0) {
                    ok = pump_reads(cs, ready, it->first);
                }
                if (ok && (pfds[i].revents & POLLOUT) != 0) {
                    ok = pump_writes(cs);
                }
                if (ok && cs.partial_since != 0.0 &&
                    now - cs.partial_since > opts_.read_timeout_s) {
                    loop_metrics().read_timeout.add();
                    ok = false;
                }
                if (ok && cs.write_stalled_since != 0.0 &&
                    now - cs.write_stalled_since > opts_.write_timeout_s) {
                    loop_metrics().write_timeout.add();
                    ok = false;
                }
                if (ok && cs.close_after_flush && cs.wq.empty()) {
                    ok = false;
                }
                if (!ok) {
                    closed.push_back(it->first);
                    conns_.erase(it);
                    loop_metrics().closed.add();
                }
            }
        }

        // Callbacks run off the lock: handlers may send()/close_conn().
        for (auto& [id, frame] : ready) {
            on_frame_(id, std::move(frame));
        }
        if (on_close_) {
            for (const u64 id : closed) on_close_(id);
        }
    }
}

}  // namespace orion::net
