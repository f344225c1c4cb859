#include "decompose/cache.hpp"

#include <utility>

namespace gentrius::decompose {

namespace {

/// Everything core::canonicalize_instance reads of an instance, in an
/// injective layout: the tree count, then per tree (in constraint order)
/// its vertex-slot count and per slot 0 when dead, else 1 + its degree,
/// its taxon and its half-edges (neighbour id, edge id) in adjacency order.
std::vector<std::uint32_t> exact_content(
    const std::vector<phylo::Tree>& instance) {
  std::vector<std::uint32_t> out{static_cast<std::uint32_t>(instance.size())};
  for (const phylo::Tree& tree : instance) {
    const auto slots = static_cast<phylo::VertexId>(tree.vertex_capacity());
    out.push_back(slots);
    for (phylo::VertexId v = 0; v < slots; ++v) {
      const bool live = tree.vertex_alive(v);
      out.push_back(live ? 1U + tree.vertex(v).degree : 0U);
      if (!live) continue;
      const phylo::Tree::Vertex& vx = tree.vertex(v);
      out.push_back(vx.taxon);
      for (std::uint8_t d = 0; d < vx.degree; ++d) {
        out.push_back(vx.adj[d].to);
        out.push_back(vx.adj[d].edge);
      }
    }
  }
  return out;
}

}  // namespace

std::shared_ptr<const CacheEntry> ResultCache::find(
    const support::Fingerprint& fp, const std::string& encoding) {
  // Collision check: the fingerprint matched but the instance must too.
  const auto same = [&](const std::shared_ptr<const CacheEntry>& entry) {
    return entry->encoding == encoding;
  };
  const auto* hit = entries_.find(fp, same);
  return hit != nullptr ? *hit : nullptr;
}

void ResultCache::insert(const support::Fingerprint& fp, CacheEntry entry) {
  entries_.insert(fp, std::make_shared<const CacheEntry>(std::move(entry)));
}

std::shared_ptr<const core::CanonicalInstance> ResultCache::key(
    const std::vector<phylo::Tree>& instance) {
  std::vector<std::uint32_t> content = exact_content(instance);
  if (const auto* hit = keys_.find(content, [](const auto&) { return true; }))
    return *hit;
  auto canon = std::make_shared<const core::CanonicalInstance>(
      core::canonicalize_instance(instance));
  keys_.insert(std::move(content), canon);
  return canon;
}

}  // namespace gentrius::decompose
