#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/net/net.h"
#include "tests/serve_env.h"

namespace orion::test {
namespace {

using serve::InferenceServer;
using serve::ServeClient;
using serve::ServeOptions;

ServeOptions
opts(int inflight, int capacity, bool paused = false)
{
    ServeOptions o;
    o.max_inflight = inflight;
    o.queue_capacity = capacity;
    o.start_paused = paused;
    return o;
}

net::ClientOptions
fast_client()
{
    net::ClientOptions o;
    o.connect_timeout_s = 2.0;
    o.io_timeout_s = 30.0;
    o.max_attempts = 40;
    o.backoff_base_s = 0.01;
    o.backoff_cap_s = 0.1;
    return o;
}

std::size_t
argmax(const std::vector<double>& v)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
        if (v[i] > v[best]) best = i;
    }
    return best;
}

u64
global_counter(const std::string& name)
{
    const auto snap = telemetry::Registry::global().snapshot();
    auto it = snap.find(name);
    return it == snap.end() ? 0 : static_cast<u64>(it->second);
}

/** Waits until the peer closes `conn` (read yields EOF/reset). */
bool
wait_for_peer_close(net::Conn& conn, double timeout_s)
{
    u8 byte = 0;
    try {
        conn.read_exact(&byte, 1, timeout_s);
    } catch (const net::DisconnectError&) {
        return true;
    } catch (const net::TimeoutError&) {
        return false;
    }
    return false;  // unexpected payload byte
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(NetFrame, HeaderRoundTrip)
{
    const std::vector<u8> payload = {1, 2, 3, 4, 5};
    const ckks::serial::Bytes wire =
        net::encode_frame(net::MsgType::kRequest, 42, payload);
    ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + payload.size());

    const net::FrameHeader h = net::decode_frame_header(
        std::span<const u8>(wire.data(), net::kFrameHeaderBytes),
        net::kDefaultMaxFrameBytes);
    EXPECT_EQ(h.type, net::MsgType::kRequest);
    EXPECT_EQ(h.corr, 42u);
    EXPECT_EQ(h.payload_len, payload.size());
}

TEST(NetFrame, HeaderValidationRejectsHostileInput)
{
    const ckks::serial::Bytes good =
        net::encode_frame(net::MsgType::kPing, 1, {});

    ckks::serial::Bytes bad_magic = good;
    bad_magic[0] = 'X';
    expect_throw_contains<Error>(
        [&] {
            net::decode_frame_header(
                std::span<const u8>(bad_magic.data(),
                                    net::kFrameHeaderBytes),
                net::kDefaultMaxFrameBytes);
        },
        "magic");

    ckks::serial::Bytes bad_version = good;
    bad_version[4] = 99;
    expect_throw_contains<Error>(
        [&] {
            net::decode_frame_header(
                std::span<const u8>(bad_version.data(),
                                    net::kFrameHeaderBytes),
                net::kDefaultMaxFrameBytes);
        },
        "version");

    ckks::serial::Bytes bad_type = good;
    bad_type[5] = 200;
    expect_throw_contains<Error>(
        [&] {
            net::decode_frame_header(
                std::span<const u8>(bad_type.data(),
                                    net::kFrameHeaderBytes),
                net::kDefaultMaxFrameBytes);
        },
        "type");

    // Oversized: a declared payload above the receiver's cap.
    const ckks::serial::Bytes big =
        net::encode_frame(net::MsgType::kRequest, 1,
                          std::vector<u8>(128, 0));
    expect_throw_contains<Error>(
        [&] {
            net::decode_frame_header(
                std::span<const u8>(big.data(), net::kFrameHeaderBytes),
                /*max_payload_bytes=*/64);
        },
        "exceeds");
}

TEST(NetFrame, ErrorTaxonomy)
{
    using net::ErrCode;
    EXPECT_TRUE(net::retryable(ErrCode::kOverloaded));
    EXPECT_TRUE(net::retryable(ErrCode::kShardDown));
    EXPECT_TRUE(net::retryable(ErrCode::kShuttingDown));
    EXPECT_FALSE(net::retryable(ErrCode::kDecodeError));
    EXPECT_FALSE(net::retryable(ErrCode::kExecError));
    EXPECT_TRUE(net::needs_reregister(ErrCode::kUnknownSession));
    EXPECT_FALSE(net::needs_reregister(ErrCode::kOverloaded));

    const ckks::serial::Bytes p =
        net::encode_error(ErrCode::kOverloaded, "queue full");
    const net::WireError we = net::decode_error(p);
    EXPECT_EQ(we.code, ErrCode::kOverloaded);
    EXPECT_EQ(we.message, "queue full");
}

TEST(NetFrame, ControlPayloadRoundTrips)
{
    net::Pong in;
    in.queue_depth = 3;
    in.inflight = 2;
    in.sessions = 7;
    in.completed = 11;
    const net::Pong out = net::decode_pong(net::encode_pong(in));
    EXPECT_EQ(out.queue_depth, 3u);
    EXPECT_EQ(out.inflight, 2u);
    EXPECT_EQ(out.sessions, 7u);
    EXPECT_EQ(out.completed, 11u);

    const std::vector<u8> bundle = {9, 8, 7};
    const ckks::serial::Bytes reg = net::encode_register(0xFEED, bundle);
    EXPECT_EQ(net::decode_register_token(reg), 0xFEEDu);
    const std::span<const u8> view = net::register_bundle(reg);
    ASSERT_EQ(view.size(), bundle.size());
    EXPECT_EQ(std::memcmp(view.data(), bundle.data(), bundle.size()), 0);

    EXPECT_EQ(net::decode_u64(net::encode_u64(123)), 123u);
    EXPECT_EQ(net::decode_text(net::encode_text("hello")), "hello");

    // Hostile control payloads hit ByteReader validation, not UB.
    expect_throw_contains<Error>(
        [&] { net::decode_pong(std::vector<u8>{1, 2}); }, "");
    expect_throw_contains<Error>(
        [&] { net::decode_register_token(std::vector<u8>{1}); }, "");
}

TEST(NetWire, RewriteRequestSessionPatchesInPlace)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    ServeClient client(senv.cn, env.ctx, /*seed=*/501);
    client.set_session_id(0xAABB);
    ckks::serial::Bytes req =
        client.make_request(random_vector(64, 1.0, 77));
    ASSERT_EQ(serve::peek_request_session(req), 0xAABBu);
    serve::rewrite_request_session(req, 7);
    EXPECT_EQ(serve::peek_request_session(req), 7u);
}

TEST(NetSocket, ParseHostPort)
{
    std::string host;
    int port = 0;
    net::parse_host_port("127.0.0.1:8080", host, port);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);
    expect_throw_contains<Error>(
        [&] { net::parse_host_port("nohost", host, port); }, "");
    expect_throw_contains<Error>(
        [&] { net::parse_host_port("h:notaport", host, port); }, "");
}

// ---------------------------------------------------------------------
// FrameServer loop: hostile input, disconnects, slow loris
// ---------------------------------------------------------------------

/** An echo FrameServer for transport-level tests. */
struct EchoServer {
    net::FrameServer fs;

    explicit EchoServer(net::FrameServer::Options o = {})
        : fs(net::Listener(0), o, [this](u64 id, net::Frame&& f) {
              fs.send(id, f.type, f.corr, f.payload);
          })
    {
        fs.start();
    }
};

TEST(NetLoop, EchoRoundTrip)
{
    EchoServer srv;
    net::Conn conn = net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
    const std::vector<u8> payload(1000, 0xAB);
    net::send_frame(conn, net::MsgType::kPing, 5, payload, 2.0);
    const net::Frame f = net::recv_frame(conn, 5.0);
    EXPECT_EQ(f.type, net::MsgType::kPing);
    EXPECT_EQ(f.corr, 5u);
    EXPECT_EQ(f.payload.size(), payload.size());
}

TEST(NetLoop, GarbageFrameClosesConnection)
{
    EchoServer srv;
    const u64 rejected_before = global_counter("net.conn.frame_rejected");
    net::Conn conn = net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
    const char garbage[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
    conn.write_all(garbage, sizeof(garbage), 2.0);
    EXPECT_TRUE(wait_for_peer_close(conn, 5.0));
    EXPECT_GT(global_counter("net.conn.frame_rejected"), rejected_before);

    // The loop survives a poisoned conn: a fresh one still works.
    net::Conn again = net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
    net::send_frame(again, net::MsgType::kPing, 1, {}, 2.0);
    EXPECT_EQ(net::recv_frame(again, 5.0).corr, 1u);
}

TEST(NetLoop, OversizedFrameClosesConnection)
{
    net::FrameServer::Options o;
    o.max_frame_bytes = 1024;
    EchoServer srv(o);
    net::Conn conn = net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
    // A well-formed header declaring a payload above the server's cap.
    const ckks::serial::Bytes wire = net::encode_frame(
        net::MsgType::kRequest, 1, std::vector<u8>(4096, 0));
    conn.write_all(wire.data(), net::kFrameHeaderBytes, 2.0);
    EXPECT_TRUE(wait_for_peer_close(conn, 5.0));
}

TEST(NetLoop, TruncatedFrameThenDisconnectIsHarmless)
{
    EchoServer srv;
    const u64 closed_before = global_counter("net.conn.closed");
    {
        net::Conn conn =
            net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
        // Half a header, then a mid-request disconnect.
        const ckks::serial::Bytes wire = net::encode_frame(
            net::MsgType::kRequest, 9, std::vector<u8>(64, 1));
        conn.write_all(wire.data(), net::kFrameHeaderBytes / 2, 2.0);
    }  // ~Conn closes the socket
    const double deadline = net::mono_seconds() + 5.0;
    while (global_counter("net.conn.closed") <= closed_before &&
           net::mono_seconds() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(global_counter("net.conn.closed"), closed_before);

    net::Conn again = net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
    net::send_frame(again, net::MsgType::kPing, 2, {}, 2.0);
    EXPECT_EQ(net::recv_frame(again, 5.0).corr, 2u);
}

TEST(NetLoop, SlowLorisPartialFrameHitsReadTimeout)
{
    net::FrameServer::Options o;
    o.read_timeout_s = 0.3;
    EchoServer srv(o);
    const u64 timeouts_before = global_counter("net.conn.read_timeout");
    net::Conn conn = net::Conn::connect("127.0.0.1", srv.fs.port(), 2.0);
    // Dribble a valid header prefix, then stall forever.
    const ckks::serial::Bytes wire = net::encode_frame(
        net::MsgType::kRequest, 3, std::vector<u8>(64, 1));
    conn.write_all(wire.data(), 6, 2.0);
    EXPECT_TRUE(wait_for_peer_close(conn, 5.0));
    EXPECT_GT(global_counter("net.conn.read_timeout"), timeouts_before);
}

// ---------------------------------------------------------------------
// ServeEndpoint end to end
// ---------------------------------------------------------------------

TEST(NetEndpoint, ServedMatchesDirectExecution)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    net::ServeEndpoint endpoint(server, net::Listener(0));

    DirectRun direct(senv.cn, env.ctx, senv.prepared);
    ServeClient crypto(senv.cn, env.ctx, /*seed=*/601);
    net::NetClient client(crypto, "127.0.0.1", endpoint.port(), 0x601,
                          fast_client());
    EXPECT_EQ(server.session_count(), 1u);

    for (int round = 0; round < 2; ++round) {
        const std::vector<double> x =
            random_vector(64, 1.0, 900 + static_cast<u64>(round));
        const std::vector<double> want = direct.run(x);
        const std::vector<double> got = client.infer(x);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_LT(max_abs_diff(got, want), 1e-3);
        EXPECT_EQ(argmax(got), argmax(want));
    }

    // The endpoint's scrape shows both serve.* and net.* series.
    const std::string text = client.fetch_metrics();
    EXPECT_NE(text.find("orion_serve_completed_total"), std::string::npos);
    EXPECT_NE(text.find("orion_net_frames_rx_total"), std::string::npos);

    client.close();
    const double deadline = net::mono_seconds() + 5.0;
    while (server.session_count() != 0 &&
           net::mono_seconds() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.session_count(), 0u);  // close() unregistered
}

TEST(NetEndpoint, OverloadedIsTypedAndRetryable)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    // Paused workers + a one-slot queue: the first request parks in the
    // queue, every further one is a try_submit rejection.
    InferenceServer server(senv.cn, env.ctx,
                           opts(1, 1, /*paused=*/true), senv.prepared);
    net::ServeEndpoint endpoint(server, net::Listener(0));

    ServeClient crypto(senv.cn, env.ctx, /*seed=*/602);
    net::NetClient client(crypto, "127.0.0.1", endpoint.port(), 0x602,
                          fast_client());

    // Fill the queue through the raw wire (no retry machinery).
    net::Conn raw = net::Conn::connect("127.0.0.1", endpoint.port(), 2.0);
    crypto.set_session_id(0x602);
    const ckks::serial::Bytes filler =
        crypto.make_request(random_vector(64, 1.0, 910));
    net::send_frame(raw, net::MsgType::kRequest, 77, filler, 5.0);

    // Wait until the filler occupies the queue slot.
    const double deadline = net::mono_seconds() + 5.0;
    while (server.stats().submitted < 1 &&
           net::mono_seconds() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(server.stats().submitted, 1u);

    // A second raw request must come back as the typed overloaded error.
    net::send_frame(raw, net::MsgType::kRequest, 78, filler, 5.0);
    const net::Frame err = net::recv_frame(raw, 5.0);
    ASSERT_EQ(err.type, net::MsgType::kError);
    EXPECT_EQ(err.corr, 78u);
    const net::WireError we = net::decode_error(err.payload);
    EXPECT_EQ(we.code, net::ErrCode::kOverloaded);
    EXPECT_TRUE(net::retryable(we.code));

    // The retrying client parks on overloaded until resume() frees the
    // queue, then completes.
    std::thread release([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        server.resume();
    });
    const std::vector<double> x = random_vector(64, 1.0, 911);
    const std::vector<double> out = client.infer(x);
    release.join();
    DirectRun direct(senv.cn, env.ctx, senv.prepared);
    const std::vector<double> want = direct.run(x);
    ASSERT_EQ(out.size(), want.size());
    EXPECT_LT(max_abs_diff(out, want), 1e-3);
    EXPECT_GT(client.retry_stats().retries, 0u);

    (void)net::recv_frame(raw, 30.0);  // drain the filler's response
    client.close();
}

TEST(NetEndpoint, PongReportsTheServerQueue)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4, /*paused=*/true),
                           senv.prepared);
    net::ServeEndpoint endpoint(server, net::Listener(0));

    ServeClient local(senv.cn, env.ctx, /*seed=*/604);
    local.set_session_id(server.register_session(local.key_bundle()));
    const std::vector<double> x = random_vector(64, 1.0, 912);
    auto f1 = server.try_submit(local.make_request(x));
    auto f2 = server.try_submit(local.make_request(x));
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());

    ServeClient crypto(senv.cn, env.ctx, /*seed=*/605);
    net::NetClient client(crypto, "127.0.0.1", endpoint.port(), 0x604,
                          fast_client());
    const net::Pong paused = client.ping();
    EXPECT_EQ(paused.queue_depth, 2u);
    EXPECT_EQ(paused.inflight, 0u);
    EXPECT_EQ(paused.completed, 0u);

    server.resume();
    EXPECT_NO_THROW(f1->get());
    EXPECT_NO_THROW(f2->get());
    const net::Pong idle = client.ping();
    EXPECT_EQ(idle.queue_depth, 0u);
    EXPECT_EQ(idle.inflight, 0u);
    EXPECT_EQ(idle.completed, 2u);

    client.close();
}

// ---------------------------------------------------------------------
// Router: sharding + kill-one-shard failover
// ---------------------------------------------------------------------

net::RouterOptions
fast_router()
{
    net::RouterOptions o;
    o.health_interval_s = 0.05;
    o.pong_timeout_s = 0.5;
    o.connect_timeout_s = 1.0;
    o.shard_read_timeout_s = 60.0;
    return o;
}

TEST(NetRouter, ShardsSessionsAndSurvivesShardDeath)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();

    InferenceServer server_a(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    InferenceServer server_b(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    auto ep_a = std::make_unique<net::ServeEndpoint>(server_a,
                                                     net::Listener(0));
    auto ep_b = std::make_unique<net::ServeEndpoint>(server_b,
                                                     net::Listener(0));
    std::ostringstream addr_a, addr_b;
    addr_a << "127.0.0.1:" << ep_a->port();
    addr_b << "127.0.0.1:" << ep_b->port();

    net::Router router({addr_a.str(), addr_b.str()}, net::Listener(0),
                       fast_router());
    ASSERT_TRUE(router.wait_for_shards(2, 10.0));

    DirectRun direct(senv.cn, env.ctx, senv.prepared);

    // Two clients; with rendezvous hashing their tokens may land on the
    // same shard or different ones — both placements are valid.
    ServeClient crypto_a(senv.cn, env.ctx, /*seed=*/701);
    ServeClient crypto_b(senv.cn, env.ctx, /*seed=*/702);
    net::NetClient client_a(crypto_a, "127.0.0.1", router.port(), 0x701,
                            fast_client());
    net::NetClient client_b(crypto_b, "127.0.0.1", router.port(), 0x702,
                            fast_client());
    EXPECT_EQ(router.session_count(), 2u);
    EXPECT_EQ(server_a.session_count() + server_b.session_count(), 2u);

    auto run_and_check = [&](net::NetClient& c, u64 seed) {
        const std::vector<double> x = random_vector(64, 1.0, seed);
        const std::vector<double> want = direct.run(x);
        const std::vector<double> got = c.infer(x);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_LT(max_abs_diff(got, want), 1e-3);
        EXPECT_EQ(argmax(got), argmax(want));
    };
    run_and_check(client_a, 920);
    run_and_check(client_b, 921);

    // Kill whichever shard currently holds at least one session — any
    // session death exercises failover. Every request after this must
    // still produce the right answer (retries allowed, wrong answers
    // not).
    const bool kill_a = server_a.session_count() > 0;
    InferenceServer& survivor_server = kill_a ? server_b : server_a;
    auto& victim_ep = kill_a ? ep_a : ep_b;
    const std::size_t victim_sessions =
        (kill_a ? server_a : server_b).session_count();
    ASSERT_GT(victim_sessions, 0u);
    victim_ep->stop();
    victim_ep.reset();

    const double deadline = net::mono_seconds() + 10.0;
    while (router.alive_shards() != 1 &&
           net::mono_seconds() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(router.alive_shards(), 1u);

    // Both clients keep getting correct answers: sessions on the dead
    // shard re-register on the survivor via unknown_session.
    run_and_check(client_a, 930);
    run_and_check(client_b, 931);
    run_and_check(client_a, 932);
    run_and_check(client_b, 933);

    const auto snap = router.metrics().snapshot();
    EXPECT_EQ(static_cast<u64>(snap.at("router.shard.dead")), 1u);
    EXPECT_EQ(static_cast<u64>(snap.at("router.shard.failover")),
              victim_sessions);
    EXPECT_GE(client_a.retry_stats().reregisters +
                  client_b.retry_stats().reregisters,
              victim_sessions);

    // The survivor now holds both sessions (the dead server object keeps
    // its stale registrations — nothing unregisters them — so only the
    // survivor's count is meaningful).
    EXPECT_EQ(survivor_server.session_count(), 2u);

    client_a.close();
    client_b.close();
    router.stop();
}

TEST(NetRouter, RoutesThroughToMetricsAndPing)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    net::ServeEndpoint endpoint(server, net::Listener(0));
    std::ostringstream addr;
    addr << "127.0.0.1:" << endpoint.port();
    net::Router router({addr.str()}, net::Listener(0), fast_router());
    ASSERT_TRUE(router.wait_for_shards(1, 10.0));

    ServeClient crypto(senv.cn, env.ctx, /*seed=*/703);
    net::NetClient client(crypto, "127.0.0.1", router.port(), 0x703,
                          fast_client());
    const net::Pong pong = client.ping();
    EXPECT_EQ(pong.sessions, 1u);

    const std::string text = client.fetch_metrics();
    EXPECT_NE(text.find("orion_router_requests_forwarded_total"),
              std::string::npos);
    EXPECT_NE(text.find("orion_router_shards_alive"), std::string::npos);

    client.close();
    router.stop();
}

}  // namespace
}  // namespace orion::test
