#include "src/core/config.h"

#include <cstdlib>
#include <mutex>
#include <thread>

#include "src/core/thread_pool.h"

namespace orion::core {

namespace {

std::mutex g_config_mu;

OrionConfig
config_from_env()
{
    OrionConfig cfg;
    if (const char* env = std::getenv("ORION_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n >= 0) cfg.num_threads = n;
    }
    return cfg;
}

OrionConfig&
mutable_config()
{
    static OrionConfig cfg = config_from_env();
    return cfg;
}

}  // namespace

int
resolve_thread_count(int n)
{
    if (n > 0) return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
OrionConfig::resolved_num_threads() const
{
    return resolve_thread_count(num_threads);
}

OrionConfig
config()
{
    std::lock_guard<std::mutex> lk(g_config_mu);
    return mutable_config();
}

void
set_config(const OrionConfig& cfg)
{
    {
        std::lock_guard<std::mutex> lk(g_config_mu);
        mutable_config() = cfg;
    }
    ThreadPool::set_global_threads(cfg.resolved_num_threads());
}

void
set_num_threads(int n)
{
    OrionConfig cfg;
    {
        // Single critical section for the read-modify-write, so two
        // concurrent setters cannot lose an update to other fields.
        std::lock_guard<std::mutex> lk(g_config_mu);
        mutable_config().num_threads = n;
        cfg = mutable_config();
    }
    ThreadPool::set_global_threads(cfg.resolved_num_threads());
}

}  // namespace orion::core
