#include "incremental/cache.hpp"

#include <utility>

namespace gentrius::incremental {

std::shared_ptr<const CacheEntry> ResultCache::find(
    const support::Fingerprint& fp, const std::string& encoding) {
  auto it = entries_.find(fp);
  if (it == entries_.end()) return nullptr;
  // Collision check: the fingerprint matched but the instance must too.
  if (it->second.entry->encoding != encoding) return nullptr;
  it->second.last_used = ++tick_;
  return it->second.entry;
}

void ResultCache::insert(const support::Fingerprint& fp, CacheEntry entry) {
  if (capacity_ == 0) return;
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  auto it = entries_.find(fp);
  if (it != entries_.end()) {
    it->second = Slot{std::move(shared), ++tick_};
    return;
  }
  if (entries_.size() >= capacity_) {
    auto victim = entries_.begin();
    for (auto i = entries_.begin(); i != entries_.end(); ++i)
      if (i->second.last_used < victim->second.last_used) victim = i;
    entries_.erase(victim);
    ++evictions_;
  }
  entries_.emplace(fp, Slot{std::move(shared), ++tick_});
}

}  // namespace gentrius::incremental
