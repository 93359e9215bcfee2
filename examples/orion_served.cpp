/**
 * @file
 * A standalone serving shard: one InferenceServer behind a net::
 * ServeEndpoint TCP listener, run as its own process. Pair with
 * orion_router to shard sessions across several of these, or point
 * `serve_mnist --connect host:port` straight at one.
 *
 *   ./orion_served --port 7000 [--model mlp] [--inflight 2] [--queue 8]
 *                  [--key-cache-mb 0]
 *
 * --key-cache-mb caps the evaluation-key bytes kept resident across
 * sessions; least-recently-used sessions beyond it spill to disk
 * (0 = every key stays resident).
 * --port 0 binds an ephemeral port. The bound port is announced on stdout
 * as "listening on port N" (flushed) so scripts can scrape it. SIGINT /
 * SIGTERM shut the endpoint down cleanly and print the /metrics-style
 * exposition before exit.
 *
 * Parameters match serve_mnist (CkksParams::network(2^12, 8), l_eff 6):
 * both sides compile the same model deterministically, so a client's key
 * bundle is compatible with any shard started with the same flags.
 */

#include <csignal>
#include <cstdio>
#include <cstring>

#include "src/core/orion.h"
#include "src/net/net.h"

using namespace orion;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
on_signal(int)
{
    g_stop = 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    int port = 0;
    std::string model = "mlp";
    serve::ServeOptions sopts;
    sopts.max_inflight = 2;
    sopts.queue_capacity = 8;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--port") {
            port = std::atoi(next("--port"));
        } else if (arg == "--model") {
            model = next("--model");
        } else if (arg == "--inflight") {
            sopts.max_inflight = std::atoi(next("--inflight"));
        } else if (arg == "--queue") {
            sopts.queue_capacity = std::atoi(next("--queue"));
        } else if (arg == "--key-cache-mb") {
            sopts.key_cache_mb = std::atoi(next("--key-cache-mb"));
        } else {
            std::fprintf(stderr,
                         "usage: orion_served [--port N] [--model NAME] "
                         "[--inflight N] [--queue N] [--key-cache-mb N]\n");
            return 2;
        }
    }

    const nn::Network net = nn::make_model(model);
    Session session =
        Session::with_params(ckks::CkksParams::network(u64(1) << 12, 8),
                             /*l_eff=*/6);
    const core::CompiledNetwork& compiled = session.compile(net);
    std::printf("compiled %s in %.2f s: %llu rotations, depth %d\n",
                model.c_str(), compiled.compile_seconds,
                static_cast<unsigned long long>(compiled.total_rotations),
                compiled.activation_depth);

    auto server = session.serve(sopts);
    net::ServeEndpoint endpoint(*server, net::Listener(port));
    std::printf("listening on port %d\n", endpoint.port());
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (!g_stop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::printf("shutting down (%zu sessions, %zu open conns)\n",
                server->session_count(), endpoint.open_conns());
    endpoint.stop();
    std::printf("\n--- metrics ---\n%s", endpoint.metrics_text().c_str());
    return 0;
}
