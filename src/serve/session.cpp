#include "src/serve/session.h"

namespace orion::serve {

u64
SessionManager::register_session(
    std::span<const u8> key_bundle,
    const std::function<void(const KeyBundle&)>& validate)
{
    // Decode outside the lock: key bundles are megabytes and decode cost
    // should not serialize against concurrent lookups.
    KeyBundle bundle = decode_key_bundle(key_bundle, *ctx_);
    if (validate) validate(bundle);
    auto session = std::make_shared<Session>();
    {
        std::lock_guard<std::mutex> lk(mu_);
        session->id = next_id_++;
    }
    // Keys first, session second: find() resolves the session map before
    // the key store, so this order means a published session always has
    // its keys registered.
    keys_.put(session->id, key_bundle, std::move(bundle.relin),
              std::move(bundle.galois));
    std::lock_guard<std::mutex> lk(mu_);
    sessions_.emplace(session->id, session);
    return session->id;
}

bool
SessionManager::unregister(u64 id)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (sessions_.erase(id) == 0) return false;
    }
    keys_.erase(id);
    return true;
}

SessionLease
SessionManager::find(u64 id) const
{
    SessionLease lease;
    lease.session = peek(id);
    if (lease.session == nullptr) return {};
    lease.keys = keys_.acquire(id);
    // Raced an unregister between the two lookups: uniformly unknown.
    if (!lease.keys) return {};
    return lease;
}

std::shared_ptr<Session>
SessionManager::peek(u64 id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

std::size_t
SessionManager::session_count() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return sessions_.size();
}

}  // namespace orion::serve
