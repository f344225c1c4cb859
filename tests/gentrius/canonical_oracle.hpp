// Reference canonicalization for the differential suite of the canonical
// key: the same pipeline as core::canonicalize_instance, with the direct
// forms of its two inner loops. Color refinement recomputes every leaf's
// far-side hash by a recursion over the whole tree (O(sum |T_i|^2) per
// round), and rank encoding renders each subtree's children into separate
// strings and sorts them. core::canonicalize_instance must produce the same
// encoding, order, invariance flag and fingerprint on every instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "gentrius/problem.hpp"
#include "phylo/tree.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::canonical_oracle {

using support::mix_hash;

/// Hash of the subtree of `tree` on the far side of `v` seen from `from`,
/// with leaves valued by `color`; children fold in sorted order.
inline std::uint64_t rooted_hash(const phylo::Tree& tree, phylo::VertexId v,
                                 phylo::VertexId from,
                                 const std::vector<std::uint64_t>& color) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != phylo::kNoTaxon) return mix_hash(0x1eafULL, color[vx.taxon]);
  std::vector<std::uint64_t> parts;
  for (std::uint8_t i = 0; i < vx.degree; ++i) {
    if (vx.adj[i].to == from) continue;
    parts.push_back(rooted_hash(tree, vx.adj[i].to, v, color));
  }
  std::sort(parts.begin(), parts.end());
  std::uint64_t h = 0x5b17ULL;
  for (const std::uint64_t p : parts) h = mix_hash(h, p);
  return h;
}

inline std::size_t distinct_count(std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end());
  return static_cast<std::size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

/// WL refinement until the number of color classes stops growing: a
/// taxon's new color folds its old color with the sorted multiset of its
/// per-tree far-side hashes.
inline void refine_colors(const std::vector<phylo::Tree>& constraints,
                          const std::vector<phylo::TaxonId>& present,
                          std::vector<std::uint64_t>& color) {
  std::vector<std::uint64_t> active;
  for (const phylo::TaxonId x : present) active.push_back(color[x]);
  std::size_t distinct = distinct_count(active);

  std::vector<std::vector<std::uint64_t>> per_taxon(color.size());
  for (std::size_t round = 0; round <= present.size(); ++round) {
    for (const phylo::TaxonId x : present) per_taxon[x].clear();
    for (const auto& tree : constraints) {
      for (const phylo::TaxonId x : tree.taxa()) {
        const phylo::VertexId leaf = tree.leaf_of(x);
        std::uint64_t h = 0x0133ULL;  // singleton tree: no far side exists
        if (tree.leaf_count() > 1)
          h = rooted_hash(tree, tree.vertex(leaf).adj[0].to, leaf, color);
        per_taxon[x].push_back(h);
      }
    }
    for (const phylo::TaxonId x : present) {
      auto& hashes = per_taxon[x];
      std::sort(hashes.begin(), hashes.end());
      std::uint64_t h = mix_hash(0xc010ULL, color[x]);
      for (const std::uint64_t v : hashes) h = mix_hash(h, v);
      color[x] = h;
    }
    active.clear();
    for (const phylo::TaxonId x : present) active.push_back(color[x]);
    const std::size_t now = distinct_count(active);
    if (now == distinct) break;
    distinct = now;
  }
}

/// Label of canonical rank r: "c" + the rank, zero-padded to six digits.
inline std::string rank_label(std::size_t rank) {
  const std::string digits = std::to_string(rank);
  std::string out = "c";
  for (std::size_t i = digits.size(); i < 6; ++i) out.push_back('0');
  out += digits;
  return out;
}

/// Rank-label serialization of the subtree on the far side of `v` seen
/// from `from`, children sorted lexicographically.
inline std::string rank_subtree(const phylo::Tree& tree, phylo::VertexId v,
                                phylo::VertexId from,
                                const std::vector<std::size_t>& rank) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != phylo::kNoTaxon) return rank_label(rank[vx.taxon]);
  std::vector<std::string> parts;
  for (std::uint8_t i = 0; i < vx.degree; ++i) {
    if (vx.adj[i].to == from) continue;
    parts.push_back(rank_subtree(tree, vx.adj[i].to, v, rank));
  }
  std::sort(parts.begin(), parts.end());
  std::string out = "(";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(',');
    out += parts[i];
  }
  out.push_back(')');
  return out;
}

/// core::rank_newick's reference: rooted at the minimum-rank leaf (the
/// smallest id among equal ranks).
inline std::string rank_newick(const phylo::Tree& tree,
                               const std::vector<std::size_t>& rank) {
  const auto taxa = tree.taxa();
  phylo::TaxonId root = taxa.front();
  for (const phylo::TaxonId x : taxa)
    if (rank[x] < rank[root]) root = x;
  const std::string label = rank_label(rank[root]);
  if (taxa.size() == 1) return label + ";";
  const phylo::VertexId leaf = tree.leaf_of(root);
  std::string out = "(";
  out += label;
  out += ',';
  out += rank_subtree(tree, tree.vertex(leaf).adj[0].to, leaf, rank);
  out += ");";
  return out;
}

inline std::string encode_under_order(
    const std::vector<phylo::Tree>& constraints,
    const std::vector<phylo::TaxonId>& order, std::size_t universe) {
  std::vector<std::size_t> rank(universe, 0);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  std::vector<std::string> lines;
  for (const auto& tree : constraints) lines.push_back(rank_newick(tree, rank));
  std::sort(lines.begin(), lines.end());
  std::string out = "gentrius-instance-v1 n=";
  out += std::to_string(order.size());
  out += " k=";
  out += std::to_string(constraints.size());
  out += '\n';
  for (const auto& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

inline phylo::VertexId leaf_neighbor(const phylo::Tree& tree,
                                     phylo::TaxonId t) {
  const auto& vert = tree.vertex(tree.leaf_of(t));
  for (const auto& he : vert.adj)
    if (he.edge != phylo::kNoId && tree.edge_alive(he.edge)) return he.to;
  return phylo::kNoId;
}

inline bool swappable_pair(const std::vector<phylo::Tree>& constraints,
                           phylo::TaxonId a, phylo::TaxonId b) {
  for (const auto& tree : constraints) {
    const bool has_a = tree.has_taxon(a);
    if (has_a != tree.has_taxon(b)) return false;
    if (!has_a) continue;
    if (tree.leaf_count() == 2) continue;
    if (leaf_neighbor(tree, a) != leaf_neighbor(tree, b)) return false;
  }
  return true;
}

/// Individualization-refinement under the same 48-branch budget.
struct Canonicalizer {
  const std::vector<phylo::Tree>& constraints;
  const std::vector<phylo::TaxonId>& present;
  std::size_t universe;
  int budget = 48;
  bool invariant = true;

  std::string encode(std::vector<std::uint64_t> color,
                     std::vector<phylo::TaxonId>* order_out) {
    refine_colors(constraints, present, color);
    std::vector<phylo::TaxonId> sorted = present;
    std::sort(sorted.begin(), sorted.end(),
              [&](phylo::TaxonId a, phylo::TaxonId b) {
                return color[a] != color[b] ? color[a] < color[b] : a < b;
              });
    std::size_t tie_begin = sorted.size();
    std::size_t tie_end = tie_begin;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      if (color[sorted[i]] != color[sorted[i + 1]]) continue;
      tie_begin = i;
      tie_end = i + 2;
      while (tie_end < sorted.size() &&
             color[sorted[tie_end]] == color[sorted[tie_begin]])
        ++tie_end;
      break;
    }
    if (tie_begin == sorted.size()) {
      if (order_out) *order_out = sorted;
      return encode_under_order(constraints, sorted, universe);
    }
    bool all_twins = true;
    for (std::size_t i = tie_begin; all_twins && i + 1 < tie_end; ++i)
      for (std::size_t j = i + 1; j < tie_end; ++j)
        if (!swappable_pair(constraints, sorted[i], sorted[j])) {
          all_twins = false;
          break;
        }
    if (all_twins) {
      std::vector<std::uint64_t> branched = color;
      branched[sorted[tie_begin]] =
          mix_hash(0x1d1dULL, branched[sorted[tie_begin]]);
      return encode(std::move(branched), order_out);
    }
    const int class_size = static_cast<int>(tie_end - tie_begin);
    if (budget < class_size) {
      invariant = false;
      if (order_out) *order_out = sorted;
      return encode_under_order(constraints, sorted, universe);
    }
    budget -= class_size;
    std::string best;
    std::vector<phylo::TaxonId> best_order;
    for (std::size_t i = tie_begin; i < tie_end; ++i) {
      std::vector<std::uint64_t> branched = color;
      branched[sorted[i]] = mix_hash(0x1d1dULL, branched[sorted[i]]);
      std::vector<phylo::TaxonId> branch_order;
      std::string enc = encode(std::move(branched), &branch_order);
      if (best.empty() || enc < best) {
        best = std::move(enc);
        best_order = std::move(branch_order);
      }
    }
    if (order_out) *order_out = std::move(best_order);
    return best;
  }
};

inline core::CanonicalInstance canonicalize_part(
    const std::vector<phylo::Tree>& part, std::size_t universe) {
  std::vector<bool> seen(universe, false);
  for (const auto& tree : part)
    for (const phylo::TaxonId x : tree.taxa()) seen[x] = true;
  std::vector<phylo::TaxonId> present;
  for (std::size_t x = 0; x < universe; ++x)
    if (seen[x]) present.push_back(static_cast<phylo::TaxonId>(x));
  Canonicalizer canon{part, present, universe};
  core::CanonicalInstance out;
  out.encoding =
      canon.encode(std::vector<std::uint64_t>(universe, 0x1ULL), &out.order);
  out.relabel_invariant = canon.invariant;
  return out;
}

/// Constraints split into parts on disjoint taxa, numbered in order of
/// first appearance.
inline std::vector<std::vector<phylo::Tree>> split_parts(
    const std::vector<phylo::Tree>& constraints, std::size_t universe) {
  const std::size_t n = constraints.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto root = [&](std::size_t c) {
    while (parent[c] != c) c = parent[c] = parent[parent[c]];
    return c;
  };
  std::vector<std::size_t> owner(universe, n);
  for (std::size_t c = 0; c < n; ++c)
    for (const phylo::TaxonId x : constraints[c].taxa()) {
      if (owner[x] == n)
        owner[x] = c;
      else
        parent[root(c)] = root(owner[x]);
    }
  std::vector<std::size_t> part_of_root(n, n);
  std::vector<std::vector<phylo::Tree>> parts;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t r = root(c);
    if (part_of_root[r] == n) {
      part_of_root[r] = parts.size();
      parts.emplace_back();
    }
    parts[part_of_root[r]].push_back(constraints[c]);
  }
  return parts;
}

inline core::CanonicalInstance canonicalize_instance(
    const std::vector<phylo::Tree>& constraints) {
  std::size_t universe = 0;
  for (const auto& tree : constraints)
    for (const phylo::TaxonId x : tree.taxa())
      universe = std::max<std::size_t>(universe, x + 1);
  core::CanonicalInstance out;
  const auto parts = split_parts(constraints, universe);
  if (parts.size() == 1) {
    out = canonicalize_part(constraints, universe);
  } else {
    std::vector<core::CanonicalInstance> canons;
    for (const auto& part : parts)
      canons.push_back(canonicalize_part(part, universe));
    std::sort(canons.begin(), canons.end(),
              [](const core::CanonicalInstance& a,
                 const core::CanonicalInstance& b) {
                return a.encoding < b.encoding;
              });
    for (const core::CanonicalInstance& part : canons) {
      out.order.insert(out.order.end(), part.order.begin(), part.order.end());
      out.relabel_invariant = out.relabel_invariant && part.relabel_invariant;
    }
    out.encoding = encode_under_order(constraints, out.order, universe);
  }
  out.fp = support::fingerprint_bytes(out.encoding);
  return out;
}

}  // namespace gentrius::canonical_oracle
