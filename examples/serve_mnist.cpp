/**
 * @file
 * MNIST MLP behind the serving subsystem: two clients with distinct key
 * bundles register sessions on one InferenceServer and run concurrent
 * encrypted inferences through the full wire path
 *
 *   encrypt -> serialize -> submit -> (scheduler) -> execute ->
 *   serialize -> decrypt
 *
 * and each result is validated against the Session's own in-process run
 * of the same compiled program (Session::run: the session client
 * encrypts, an executor holding only evaluation keys computes, the
 * client decrypts — the paper's Section 6 deployment model, where the
 * server computes on ciphertexts it cannot read).
 *
 * With `--connect host:port` the same two-client workload runs over TCP
 * instead: the peer is an orion_served shard or an orion_router front
 * (the wire is identical), requests travel through net::NetClient with
 * its retry/failover machinery, and the acceptance bar is unchanged —
 * served argmax must equal the direct in-process argmax.
 */

#include <cstdio>
#include <random>

#include "src/core/orion.h"
#include "src/net/net.h"
#include "src/serve/serve.h"

using namespace orion;

namespace {

std::size_t
argmax(const std::vector<double>& v)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
        if (v[i] > v[best]) best = i;
    }
    return best;
}

/** The --connect mode: both clients' traffic over Orion-Net frames. */
int
run_connected(Session& session, const std::string& host, int port)
{
    serve::ServeClient alice = session.serve_client(/*seed=*/1001);
    serve::ServeClient bob = session.serve_client(/*seed=*/2002);
    net::NetClient alice_net(alice, host, port, /*session_token=*/0xA11CE);
    net::NetClient bob_net(bob, host, port, /*session_token=*/0xB0B);
    std::printf("connected to %s:%d (key bundle %.1f MB each)\n",
                host.c_str(), port,
                static_cast<double>(alice.key_bundle().size()) / 1e6);

    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const int rounds = 2;
    int agree = 0, total = 0;
    for (int round = 0; round < rounds; ++round) {
        std::vector<double> image_a(784), image_b(784);
        for (double& x : image_a) x = dist(rng);
        for (double& x : image_b) x = dist(rng);
        const std::vector<double> want_a = session.run(image_a).output;
        const std::vector<double> want_b = session.run(image_b).output;
        const std::vector<double> got_a = alice_net.infer(image_a);
        const std::vector<double> got_b = bob_net.infer(image_b);
        auto report = [&](const char* who, const std::vector<double>& got,
                          const std::vector<double>& want) {
            double err = 0.0;
            for (std::size_t i = 0; i < want.size(); ++i) {
                err = std::max(err, std::abs(got[i] - want[i]));
            }
            agree += argmax(got) == argmax(want) ? 1 : 0;
            ++total;
            std::printf("  %s: served argmax %zu, direct argmax %zu, "
                        "max err %.2e\n",
                        who, argmax(got), argmax(want), err);
        };
        std::printf("round %d (over TCP):\n", round);
        report("alice", got_a, want_a);
        report("bob  ", got_b, want_b);
    }

    const net::RetryStats& rs = alice_net.retry_stats();
    std::printf("\nalice retry stats: %llu connects, %llu reconnects, "
                "%llu retries, %llu reregisters\n",
                static_cast<unsigned long long>(rs.connects),
                static_cast<unsigned long long>(rs.reconnects),
                static_cast<unsigned long long>(rs.retries),
                static_cast<unsigned long long>(rs.reregisters));
    std::printf("argmax agreement with direct execution: %d/%d\n", agree,
                total);

    // The peer's scrape surface (router.* series when the peer is a
    // router, serve.* + net.* when it is a shard) — the CI multi-process
    // smoke greps this.
    std::printf("\n--- peer metrics ---\n%s",
                alice_net.fetch_metrics().c_str());
    alice_net.close();
    bob_net.close();
    return agree == total ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string connect;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--connect" && i + 1 < argc) {
            connect = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: serve_mnist [--connect host:port]\n");
            return 2;
        }
    }

    const nn::Network net = nn::make_model("mlp");
    std::printf("MLP: %.2fM parameters\n", net.param_count() / 1e6);

    // One Session drives the whole pipeline: functional CKKS parameters
    // sized for the 784-dim input (NOT secure; see DESIGN.md on parameter
    // substitution - 2^12 keeps the smoke run CI-friendly), compile, the
    // in-process reference executor, the server, and both clients.
    Session session =
        Session::with_params(ckks::CkksParams::network(u64(1) << 12, 8),
                             /*l_eff=*/6);
    const core::CompiledNetwork& compiled = session.compile(net);
    std::printf("compiled in %.2f s: %llu rotations, depth %d, "
                "%llu bootstraps\n",
                compiled.compile_seconds,
                static_cast<unsigned long long>(compiled.total_rotations),
                compiled.activation_depth,
                static_cast<unsigned long long>(compiled.num_bootstraps));

    if (!connect.empty()) {
        std::string host;
        int port = 0;
        net::parse_host_port(connect, host, port);
        return run_connected(session, host, port);
    }

    serve::ServeOptions sopts;
    sopts.max_inflight = 2;
    sopts.queue_capacity = 8;
    // The server pool shares the session's key-independent PreparedProgram
    // with the session's own (ground-truth) executor.
    auto server = session.serve(sopts);
    std::printf("server: %d workers, queue capacity %d\n",
                server->max_inflight(), server->queue_capacity());

    // Two clients with independent secrets (different seeds).
    serve::ServeClient alice = session.serve_client(/*seed=*/1001);
    serve::ServeClient bob = session.serve_client(/*seed=*/2002);
    const ckks::serial::Bytes alice_bundle = alice.key_bundle();
    const ckks::serial::Bytes bob_bundle = bob.key_bundle();
    alice.set_session_id(server->register_session(alice_bundle));
    bob.set_session_id(server->register_session(bob_bundle));
    std::printf("sessions: alice=%llu bob=%llu "
                "(key bundle %.1f MB each)\n",
                static_cast<unsigned long long>(alice.session_id()),
                static_cast<unsigned long long>(bob.session_id()),
                static_cast<double>(alice_bundle.size()) / 1e6);

    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const int rounds = 2;
    int agree = 0, total = 0;
    for (int round = 0; round < rounds; ++round) {
        std::vector<double> image_a(784), image_b(784);
        for (double& x : image_a) x = dist(rng);
        for (double& x : image_b) x = dist(rng);

        // Reference outputs (same program, in-process, session-keyed).
        const std::vector<double> want_a = session.run(image_a).output;
        const std::vector<double> want_b = session.run(image_b).output;

        // Both sessions in flight concurrently.
        const ckks::serial::Bytes req_a = alice.make_request(image_a);
        const ckks::serial::Bytes req_b = bob.make_request(image_b);
        std::printf("round %d: request %.1f KB each\n", round,
                    static_cast<double>(req_a.size()) / 1e3);
        auto fut_a = server->submit(req_a);
        auto fut_b = server->submit(req_b);
        const serve::ServeReply rep_a = fut_a.get();
        const serve::ServeReply rep_b = fut_b.get();

        const std::vector<double> got_a =
            alice.decrypt_response(rep_a.response);
        const std::vector<double> got_b =
            bob.decrypt_response(rep_b.response);

        auto argmax = [](const std::vector<double>& v) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < v.size(); ++i) {
                if (v[i] > v[best]) best = i;
            }
            return best;
        };
        auto report = [&](const char* who, const serve::ServeReply& rep,
                          const std::vector<double>& got,
                          const std::vector<double>& want) {
            double err = 0.0;
            for (std::size_t i = 0; i < want.size(); ++i) {
                err = std::max(err, std::abs(got[i] - want[i]));
            }
            const bool same = argmax(got) == argmax(want);
            agree += same ? 1 : 0;
            ++total;
            std::printf("  %s: served argmax %zu, direct argmax %zu, "
                        "max err %.2e, queue %.1f ms, exec %.2f s, "
                        "%llu rotations\n",
                        who, argmax(got), argmax(want), err,
                        rep.stats.queue_wait_s * 1e3, rep.stats.execute_s,
                        static_cast<unsigned long long>(
                            rep.stats.rotations));
        };
        report("alice", rep_a, got_a, want_a);
        report("bob  ", rep_b, got_b, want_b);
    }

    const serve::ServerStats stats = server->stats();
    std::printf("\nserver stats: %llu completed, %llu failed, "
                "peak inflight %llu, mean queue wait %.1f ms, "
                "mean exec %.2f s\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.peak_inflight),
                1e3 * stats.total_queue_wait_s /
                    static_cast<double>(std::max<u64>(stats.completed, 1)),
                stats.total_execute_s /
                    static_cast<double>(std::max<u64>(stats.completed, 1)));
    std::printf("argmax agreement with direct execution: %d/%d\n", agree,
                total);

    // The scrape surface, printed last so `ORION_TRACE=... ./serve_mnist`
    // leaves both a trace file and a parseable /metrics dump behind (the
    // CI telemetry smoke step greps this).
    std::printf("\n--- metrics ---\n%s", server->metrics_text().c_str());
    return agree == total ? 0 : 1;
}
