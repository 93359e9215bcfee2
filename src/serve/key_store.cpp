#include "src/serve/key_store.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "src/ckks/serial.h"
#include "src/core/disk_store.h"

namespace orion::serve {

namespace {

/** Cap on queued prefetch hints; overflow hints are dropped (best-effort). */
constexpr std::size_t kPrefetchQueueCap = 1024;

}  // namespace

/**
 * One session's cache slot. The struct outlives its map entry: erase()
 * removes it from the index but outstanding leases hold the shared_ptr,
 * so an in-flight request keeps valid key references. `counted` tracks
 * whether `bytes` is currently included in stats_.resident_bytes, and
 * `zombie_counted` whether it is in stats_.zombie_bytes instead (erased
 * while pinned) — each flag is updated together with its gauge under mu_,
 * and at most one is set at a time.
 */
struct KeyStore::Entry {
    u64 id = 0;
    ckks::KswitchKey relin;
    ckks::GaloisKeys galois;
    std::size_t bytes = 0;       ///< expanded in-memory size (put-time)
    std::size_t disk_bytes = 0;  ///< serialized spill-file payload size
    u64 lru_tick = 0;
    int pins = 0;
    bool resident = false;
    bool counted = false;
    bool zombie_counted = false;
    bool loading = false;
    bool erased = false;
};

const ckks::KswitchKey&
KeyStore::Lease::relin() const
{
    ORION_CHECK(entry_ != nullptr, "dereferencing an empty key lease");
    return entry_->relin;
}

const ckks::GaloisKeys&
KeyStore::Lease::galois() const
{
    ORION_CHECK(entry_ != nullptr, "dereferencing an empty key lease");
    return entry_->galois;
}

void
KeyStore::Lease::reset()
{
    if (store_ != nullptr && entry_ != nullptr) store_->release(entry_.get());
    store_ = nullptr;
    entry_.reset();
}

KeyStore::KeyStore(const ckks::Context& ctx, std::size_t cache_bytes,
                   std::string spill_dir)
    : ctx_(&ctx), cache_bytes_(cache_bytes), spill_dir_(std::move(spill_dir))
{
    spill_enabled_ = cache_bytes_ > 0;
    if (!spill_enabled_) return;
    if (spill_dir_.empty()) {
        // Unique per store instance so concurrent servers (and concurrent
        // test binaries) never share spill files.
        static std::atomic<u64> counter{0};
        spill_dir_ =
            (std::filesystem::temp_directory_path() /
             ("orion-keys-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
        own_dir_ = true;
    }
    std::filesystem::create_directories(spill_dir_);
    prefetch_thread_ = std::thread([this] { prefetch_loop(); });
}

KeyStore::~KeyStore()
{
    if (prefetch_thread_.joinable()) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        prefetch_cv_.notify_all();
        prefetch_thread_.join();
    }
    if (!spill_enabled_) return;
    std::error_code ec;
    if (own_dir_) {
        std::filesystem::remove_all(spill_dir_, ec);
    } else {
        for (const auto& [id, e] : entries_) {
            (void)e;
            std::filesystem::remove(entry_path(id), ec);
        }
    }
}

std::string
KeyStore::entry_path(u64 id) const
{
    return spill_dir_ + "/session-" + std::to_string(id) + ".keys";
}

void
KeyStore::put(u64 id, ckks::KswitchKey relin, ckks::GaloisKeys galois)
{
    const std::size_t bytes = relin.byte_size() + galois.byte_size();
    std::size_t disk_bytes = 0;
    if (spill_enabled_) {
        // Write-once spill: eviction later just drops the memory. The
        // records carry {seed, b digits} per key, so the file is
        // roughly half the expanded size.
        const ckks::serial::Bytes rb = ckks::serial::serialize(relin);
        const ckks::serial::Bytes gb = ckks::serial::serialize(galois);
        core::DiskStoreWriter w(entry_path(id));
        w.put_bytes("relin", rb);
        w.put_bytes("galois", gb);
        w.close();
        disk_bytes = rb.size() + gb.size();
    }
    auto e = std::make_shared<Entry>();
    e->id = id;
    e->relin = std::move(relin);
    e->galois = std::move(galois);
    e->bytes = bytes;
    e->disk_bytes = disk_bytes;
    e->resident = true;
    e->counted = true;

    std::lock_guard<std::mutex> lk(mu_);
    ORION_CHECK(entries_.emplace(id, e).second,
                "key store already holds session " << id);
    e->lru_tick = ++tick_;
    stats_.resident_bytes += bytes;
    stats_.resident_sessions += 1;
    stats_.disk_bytes += disk_bytes;
    evict_locked();
}

bool
KeyStore::erase(u64 id)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = entries_.find(id);
        if (it == entries_.end()) return false;
        const std::shared_ptr<Entry> e = it->second;
        entries_.erase(it);
        e->erased = true;
        if (e->resident) stats_.resident_sessions -= 1;
        stats_.disk_bytes -= e->disk_bytes;
        if (e->counted) {
            // The entry leaves both resident gauges (and the eviction
            // budget) together. With no lease outstanding the expanded
            // keys are freed now; a pinned entry's bytes move to the
            // zombie gauge until the last lease releases, so they can
            // neither be mistaken for live working set nor push the LRU
            // into evicting sessions that still exist.
            stats_.resident_bytes -= e->bytes;
            e->counted = false;
            if (e->pins == 0) {
                e->resident = false;
                e->relin = ckks::KswitchKey{};
                e->galois = ckks::GaloisKeys{};
            } else {
                stats_.zombie_bytes += e->bytes;
                e->zombie_counted = true;
            }
        }
    }
    if (spill_enabled_) {
        std::error_code ec;
        std::filesystem::remove(entry_path(id), ec);
    }
    return true;
}

KeyStore::Lease
KeyStore::acquire(u64 id)
{
    std::shared_ptr<Entry> e =
        acquire_impl(id, /*pin=*/true, /*is_prefetch=*/false);
    if (e == nullptr) return Lease();
    return Lease(this, std::move(e));
}

void
KeyStore::prefetch(u64 id)
{
    if (!spill_enabled_) return;  // always resident; nothing to warm
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_) return;
        // A hint only helps for a known, cold, not-yet-queued entry;
        // everything else is dropped here so the single loader thread
        // never re-loads spill files nobody is waiting for. The bound
        // keeps a burst of cold submissions from piling up work that
        // outlives the requests that asked for it.
        const auto it = entries_.find(id);
        if (it == entries_.end() || it->second->resident ||
            it->second->loading) {
            return;
        }
        if (prefetch_queue_.size() >= kPrefetchQueueCap) return;
        if (!prefetch_pending_.insert(id).second) return;  // already queued
        prefetch_queue_.push_back(id);
    }
    prefetch_cv_.notify_one();
}

bool
KeyStore::resident(u64 id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(id);
    return it != entries_.end() && it->second->resident;
}

KeyStoreStats
KeyStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::shared_ptr<KeyStore::Entry>
KeyStore::acquire_impl(u64 id, bool pin, bool is_prefetch)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        const auto it = entries_.find(id);
        if (it == entries_.end()) return nullptr;
        std::shared_ptr<Entry> e = it->second;
        if (e->resident) {
            if (!is_prefetch) stats_.hits += 1;
            if (pin) e->pins += 1;
            e->lru_tick = ++tick_;
            return e;
        }
        if (e->loading) {
            // A prefetch finding a load in progress has nothing to add.
            if (is_prefetch) return nullptr;
            load_cv_.wait(lk, [&] { return !e->loading; });
            // Re-resolve from scratch: the load may have failed, the
            // entry may have been evicted again, or erased.
            continue;
        }
        // This thread loads. Mark the slot so concurrent acquires wait
        // (and eviction skips it), then read the spill file unlocked.
        e->loading = true;
        lk.unlock();
        ckks::KswitchKey relin;
        ckks::GaloisKeys galois;
        std::exception_ptr err;
        try {
            load_from_disk(*e, relin, galois);
        } catch (...) {
            err = std::current_exception();
        }
        lk.lock();
        e->loading = false;
        if (err) {
            load_cv_.notify_all();
            // An erase that raced the load deleted the spill file out
            // from under us; report "unknown id", not a disk error.
            if (e->erased) return nullptr;
            std::rethrow_exception(err);
        }
        e->relin = std::move(relin);
        e->galois = std::move(galois);
        e->resident = true;
        e->lru_tick = ++tick_;
        if (!e->erased) {
            e->counted = true;
            stats_.resident_bytes += e->bytes;
            stats_.resident_sessions += 1;
        } else if (pin) {
            // An erase raced the load: the keys exist only for this
            // lease, so they are zombie bytes from the start.
            stats_.zombie_bytes += e->bytes;
            e->zombie_counted = true;
        }
        if (is_prefetch) {
            stats_.prefetches += 1;
        } else {
            stats_.misses += 1;
        }
        if (pin) e->pins += 1;
        load_cv_.notify_all();
        evict_locked();
        return e;
    }
}

namespace {

/** Streams one spill record's bytes straight off disk, so deserialization
 *  never holds the raw record alongside the decoded keys. */
class SpillRecordSource final : public ckks::serial::ByteSource {
  public:
    SpillRecordSource(core::DiskStoreReader& reader, std::string name)
        : reader_(&reader), name_(std::move(name)),
          size_(reader.bytes_size(name_))
    {
    }

    void read_at(u64 offset, void* dst, std::size_t bytes) override
    {
        reader_->get_bytes_at(name_, offset, dst, bytes);
    }

    u64 size() const override { return size_; }

  private:
    core::DiskStoreReader* reader_;
    std::string name_;
    u64 size_;
};

}  // namespace

void
KeyStore::load_from_disk(const Entry& e, ckks::KswitchKey& relin,
                         ckks::GaloisKeys& galois) const
{
    // Deserialization re-expands seeded a-digits limb by limb via
    // expand_kswitch_a, so the loaded keys are bit-identical to the
    // originally registered ones. Limbs stream straight from the spill
    // file into the decoded polys: a cold Galois-key load peaks at ~1x
    // the key bytes instead of transiently doubling resident memory.
    core::DiskStoreReader reader(entry_path(e.id));
    SpillRecordSource relin_src(reader, "relin");
    relin = ckks::serial::deserialize_kswitch_key(relin_src, *ctx_);
    SpillRecordSource galois_src(reader, "galois");
    galois = ckks::serial::deserialize_galois_keys(galois_src, *ctx_);
}

void
KeyStore::evict_locked()
{
    if (cache_bytes_ == 0) return;
    while (stats_.resident_bytes > cache_bytes_) {
        Entry* victim = nullptr;
        for (const auto& [id, e] : entries_) {
            (void)id;
            if (!e->resident || e->loading || e->pins > 0) continue;
            if (victim == nullptr || e->lru_tick < victim->lru_tick) {
                victim = e.get();
            }
        }
        // Everything resident is pinned (or loading): over-budget is the
        // price of the no-eviction-while-pinned guarantee.
        if (victim == nullptr) return;
        victim->relin = ckks::KswitchKey{};
        victim->galois = ckks::GaloisKeys{};
        victim->resident = false;
        victim->counted = false;
        stats_.resident_bytes -= victim->bytes;
        stats_.resident_sessions -= 1;
        stats_.evictions += 1;
    }
}

void
KeyStore::release(Entry* e)
{
    std::lock_guard<std::mutex> lk(mu_);
    ORION_ASSERT(e->pins > 0);
    e->pins -= 1;
    if (e->pins > 0) return;
    if (e->erased) {
        // Last lease on an erased entry: its zombie bytes are done.
        if (e->zombie_counted) {
            stats_.zombie_bytes -= e->bytes;
            e->zombie_counted = false;
        }
        e->resident = false;
        e->relin = ckks::KswitchKey{};
        e->galois = ckks::GaloisKeys{};
    }
    evict_locked();
}

void
KeyStore::prefetch_loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
        prefetch_cv_.wait(lk,
                          [&] { return stop_ || !prefetch_queue_.empty(); });
        if (stop_) return;
        const u64 id = prefetch_queue_.front();
        prefetch_queue_.pop_front();
        prefetch_pending_.erase(id);
        lk.unlock();
        try {
            acquire_impl(id, /*pin=*/false, /*is_prefetch=*/true);
        } catch (...) {
            // Background warming is best-effort; the foreground acquire
            // will surface any real error.
        }
        lk.lock();
    }
}

}  // namespace orion::serve
