#include "gentrius/problem.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace gentrius::core {

using support::InvalidInput;

Problem build_problem(std::vector<phylo::Tree> constraints,
                      const Options& options) {
  if (constraints.empty())
    throw InvalidInput("Gentrius needs at least one constraint tree");

  Problem p;
  p.constraints = std::move(constraints);

  phylo::TaxonId max_taxon = 0;
  bool any = false;
  for (const auto& t : p.constraints) {
    for (const phylo::TaxonId x : t.taxa()) {
      max_taxon = std::max(max_taxon, x);
      any = true;
    }
  }
  if (!any) throw InvalidInput("constraint trees contain no taxa");
  p.n_taxa = max_taxon + 1;

  p.all_taxa.resize(p.n_taxa);
  p.trees_of_taxon.assign(p.n_taxa, {});
  p.constraint_taxa.reserve(p.constraints.size());
  for (std::size_t i = 0; i < p.constraints.size(); ++i) {
    support::Bitset set(p.n_taxa);
    for (const phylo::TaxonId x : p.constraints[i].taxa()) {
      set.set(x);
      p.trees_of_taxon[x].push_back(static_cast<std::uint32_t>(i));
    }
    p.all_taxa |= set;
    p.constraint_taxa.push_back(std::move(set));
  }

  // Structural validation: every tree must be an unrooted binary tree (or a
  // star on < 4 taxa, which Tree guarantees by construction).
  for (const auto& t : p.constraints) {
    t.validate();
    if (t.leaf_count() == 0)
      throw InvalidInput("constraint tree with no taxa");
  }

  // Initial agile tree: heuristic 1 picks the constraint sharing the most
  // taxa with all remaining constraint trees (paper §II-B); only trees with
  // >= 3 taxa are usable as a starting topology.
  if (options.initial_constraint) {
    const std::size_t idx = *options.initial_constraint;
    if (idx >= p.constraints.size())
      throw InvalidInput("initial_constraint index out of range");
    if (p.constraints[idx].leaf_count() < 3)
      throw InvalidInput("initial constraint tree needs >= 3 taxa");
    p.initial_constraint = idx;
  } else if (options.select_initial_tree) {
    std::size_t best = p.constraints.size();
    std::size_t best_score = 0;
    for (std::size_t i = 0; i < p.constraints.size(); ++i) {
      if (p.constraints[i].leaf_count() < 3) continue;
      std::size_t score = 0;
      for (std::size_t j = 0; j < p.constraints.size(); ++j) {
        if (j == i) continue;
        score += p.constraint_taxa[i].intersection_count(p.constraint_taxa[j]);
      }
      if (best == p.constraints.size() || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    if (best == p.constraints.size())
      throw InvalidInput("no constraint tree with >= 3 taxa to start from");
    p.initial_constraint = best;
  } else {
    std::size_t first = p.constraints.size();
    for (std::size_t i = 0; i < p.constraints.size(); ++i) {
      if (p.constraints[i].leaf_count() >= 3) {
        first = i;
        break;
      }
    }
    if (first == p.constraints.size())
      throw InvalidInput("no constraint tree with >= 3 taxa to start from");
    p.initial_constraint = first;
  }

  const auto& init = p.constraint_taxa[p.initial_constraint];
  p.all_taxa.for_each([&](std::size_t x) {
    if (!init.test(x)) p.missing_taxa.push_back(static_cast<phylo::TaxonId>(x));
  });

  // Fixed-seed split-hash keys: deterministic across runs and threads.
  support::Rng rng(0x5eedc0de12345678ULL);
  p.taxon_keys.resize(p.n_taxa);
  for (auto& k : p.taxon_keys) k = rng.next() | 1;  // never zero

  return p;
}

// ---- canonical instance encoding -------------------------------------------

namespace {

using support::Fingerprint;
using support::mix_hash;

/// Hash of the subtree of `tree` on the far side of `v` seen from `from`,
/// with leaves valued by `color`. Children fold in sorted order, so the
/// hash depends only on the colored rooted topology, never on vertex ids.
std::uint64_t rooted_hash(const phylo::Tree& tree, phylo::VertexId v,
                          phylo::VertexId from,
                          const std::vector<std::uint64_t>& color) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != phylo::kNoTaxon) return mix_hash(0x1eafULL, color[vx.taxon]);
  std::uint64_t parts[3];
  std::size_t n = 0;
  for (std::uint8_t i = 0; i < vx.degree; ++i) {
    if (vx.adj[i].to == from) continue;
    parts[n++] = rooted_hash(tree, vx.adj[i].to, v, color);
  }
  // Insertion sort of the <= 3 child hashes (std::sort on the fixed array
  // trips GCC's -Warray-bounds through its unrolled insertion pass).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = i; j > 0 && parts[j] < parts[j - 1]; --j)
      std::swap(parts[j], parts[j - 1]);
  std::uint64_t h = 0x5b17ULL;
  for (std::size_t i = 0; i < n; ++i) h = mix_hash(h, parts[i]);
  return h;
}

std::size_t distinct_count(std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end());
  return static_cast<std::size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

/// One-round-at-a-time WL refinement until the number of color classes
/// stops growing. Each round, a taxon's new color folds its old color with
/// the sorted multiset of its per-tree rooted hashes (sorted: the encoding
/// must not depend on constraint order).
void refine_colors(const std::vector<phylo::Tree>& constraints,
                   const std::vector<phylo::TaxonId>& present,
                   std::vector<std::uint64_t>& color) {
  std::vector<std::uint64_t> active;
  active.reserve(present.size());
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
    if (now == distinct) break;  // partition stable
    distinct = now;
  }
}

/// Canonical serialization of one tree under rank labels: rooted at the
/// leaf of minimum rank, subtrees sorted lexicographically. Depends only on
/// the topology and the rank function — not on taxon ids or vertex layout.
std::string rank_subtree(const phylo::Tree& tree, phylo::VertexId v,
                         phylo::VertexId from,
                         const std::vector<std::size_t>& rank) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != phylo::kNoTaxon) return canonical_rank_label(rank[vx.taxon]);
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

std::string encode_under_order(const std::vector<phylo::Tree>& constraints,
                               const std::vector<phylo::TaxonId>& order,
                               std::size_t universe) {
  std::vector<std::size_t> rank(universe, 0);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  std::vector<std::string> lines;
  lines.reserve(constraints.size());
  for (const auto& tree : constraints)
    lines.push_back(rank_newick(tree, rank));
  // Sorted: the encoding must be constraint-order invariant.
  std::sort(lines.begin(), lines.end());
  std::string out = "gentrius-instance-v1 n=" + std::to_string(order.size()) +
                    " k=" + std::to_string(constraints.size()) + "\n";
  for (const auto& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

/// The (unique) internal vertex a leaf taxon hangs off.
phylo::VertexId leaf_neighbor(const phylo::Tree& tree, phylo::TaxonId t) {
  const auto& vert = tree.vertex(tree.leaf_of(t));
  for (const auto& he : vert.adj)
    if (he.edge != phylo::kNoId && tree.edge_alive(he.edge)) return he.to;
  return phylo::kNoId;
}

/// True when the transposition (a b) is an automorphism of the instance:
/// the two taxa appear in exactly the same trees and are cherry siblings
/// (same internal neighbor) wherever they appear — swapping two leaves of
/// an unrooted tree fixes its topology iff they share their attachment
/// vertex. The analog of the PAM twin-row rule (src/pam/canonical.cpp).
bool swappable_pair(const std::vector<phylo::Tree>& constraints,
                    phylo::TaxonId a, phylo::TaxonId b) {
  for (const auto& tree : constraints) {
    const bool has_a = tree.has_taxon(a);
    if (has_a != tree.has_taxon(b)) return false;
    if (!has_a) continue;
    if (tree.leaf_count() == 2) continue;  // swapping the only two leaves
    if (leaf_neighbor(tree, a) != leaf_neighbor(tree, b)) return false;
  }
  return true;
}

/// Individualization-refinement driver. `budget` caps the total number of
/// refinement branches tried across the whole recursion; on exhaustion ties
/// break by ascending taxon id (deterministic, possibly not
/// relabel-invariant — flagged on the result).
struct InstanceCanonicalizer {
  const std::vector<phylo::Tree>& constraints;
  const std::vector<phylo::TaxonId>& present;
  std::size_t universe;
  int budget = 48;
  bool invariant = true;

  std::string encode(std::vector<std::uint64_t> color,
                     std::vector<phylo::TaxonId>* order_out) {
    refine_colors(constraints, present, color);

    // Classes, ascending by (invariant) color value.
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

    if (tie_begin == sorted.size()) {  // discrete partition: done
      if (order_out) *order_out = sorted;
      return encode_under_order(constraints, sorted, universe);
    }

    // Fully swappable classes — cherry twins, the common tie on random
    // trees — are symmetric under the full symmetric group on the class,
    // so every branch would produce the identical encoding. Individualize
    // only the first member and spend no budget; this keeps the budget for
    // genuine (non-automorphic) ambiguity.
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
      // Budget exhausted: id tie-break (sorted already breaks ties by id).
      invariant = false;
      if (order_out) *order_out = sorted;
      return encode_under_order(constraints, sorted, universe);
    }
    budget -= class_size;

    // Individualize each member of the first tied class in turn; keep the
    // lexicographically smallest encoding. Automorphic members produce the
    // identical encoding, so any automorphism-induced tie is harmless.
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

/// Encoding and order (fp left unset) of one part of an instance:
/// constraints linked, directly or through other constraints, by shared
/// taxa.
CanonicalInstance canonicalize_part(const std::vector<phylo::Tree>& part,
                                    std::size_t universe) {
  std::vector<bool> seen(universe, false);
  for (const auto& tree : part)
    for (const phylo::TaxonId x : tree.taxa()) seen[x] = true;
  std::vector<phylo::TaxonId> present;
  for (std::size_t x = 0; x < universe; ++x)
    if (seen[x]) present.push_back(static_cast<phylo::TaxonId>(x));

  InstanceCanonicalizer canon{part, present, universe};
  CanonicalInstance out;
  out.encoding =
      canon.encode(std::vector<std::uint64_t>(universe, 0x1ULL), &out.order);
  out.relabel_invariant = canon.invariant;
  return out;
}

/// Part index of every constraint (parts numbered in order of first
/// appearance) and the number of parts.
std::size_t split_parts(const std::vector<phylo::Tree>& constraints,
                        std::size_t universe,
                        std::vector<std::size_t>& part_of) {
  const std::size_t n = constraints.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto root = [&](std::size_t c) {
    while (parent[c] != c) c = parent[c] = parent[parent[c]];
    return c;
  };
  std::vector<std::size_t> owner(universe, n);  // first constraint per taxon
  for (std::size_t c = 0; c < n; ++c)
    for (const phylo::TaxonId x : constraints[c].taxa()) {
      if (owner[x] == n)
        owner[x] = c;
      else
        parent[root(c)] = root(owner[x]);
    }
  std::vector<std::size_t> part_of_root(n, n);
  std::size_t parts = 0;
  part_of.assign(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t r = root(c);
    if (part_of_root[r] == n) part_of_root[r] = parts++;
    part_of[c] = part_of_root[r];
  }
  return parts;
}

}  // namespace

std::string canonical_rank_label(std::size_t rank) {
  std::string digits = std::to_string(rank);
  std::string out = "c";
  for (std::size_t i = digits.size(); i < 6; ++i) out.push_back('0');
  return out + digits;
}

std::string rank_newick(const phylo::Tree& tree,
                        const std::vector<std::size_t>& rank) {
  const auto taxa = tree.taxa();
  phylo::TaxonId root = taxa.front();
  for (const phylo::TaxonId x : taxa)
    if (rank[x] < rank[root]) root = x;
  if (taxa.size() == 1) return canonical_rank_label(rank[root]) + ";";
  const phylo::VertexId leaf = tree.leaf_of(root);
  // Appended into one string, as phylo::canonical_newick does (GCC 12's
  // -O3 -Wrestrict false positive on "(" + std::string&&).
  std::string out = "(";
  out += canonical_rank_label(rank[root]);
  out += ',';
  out += rank_subtree(tree, tree.vertex(leaf).adj[0].to, leaf, rank);
  out += ");";
  return out;
}

CanonicalInstance canonicalize_instance(
    const std::vector<phylo::Tree>& constraints) {
  if (constraints.empty())
    throw InvalidInput("cannot canonicalize an empty constraint list");

  std::size_t universe = 0;
  for (const auto& tree : constraints)
    for (const phylo::TaxonId x : tree.taxa())
      universe = std::max<std::size_t>(universe, x + 1);
  if (universe == 0)
    throw InvalidInput("constraint trees contain no taxa");

  CanonicalInstance out;
  std::vector<std::size_t> part_of;
  const std::size_t n_parts = split_parts(constraints, universe, part_of);
  if (n_parts == 1) {
    out = canonicalize_part(constraints, universe);
  } else {
    // Parts share no taxon, so the instance is determined up to relabeling
    // by the multiset of its parts' canonical forms. Each part spends its
    // own individualization budget, and the parts take consecutive rank
    // blocks in encoding order; isomorphic parts have equal encodings, so
    // their relative order does not change the result.
    std::vector<std::vector<phylo::Tree>> parts(n_parts);
    for (std::size_t c = 0; c < constraints.size(); ++c)
      parts[part_of[c]].push_back(constraints[c]);
    std::vector<CanonicalInstance> canons;
    canons.reserve(n_parts);
    for (const auto& part : parts)
      canons.push_back(canonicalize_part(part, universe));
    std::sort(canons.begin(), canons.end(),
              [](const CanonicalInstance& a, const CanonicalInstance& b) {
                return a.encoding < b.encoding;
              });
    for (const CanonicalInstance& part : canons) {
      out.order.insert(out.order.end(), part.order.begin(), part.order.end());
      out.relabel_invariant = out.relabel_invariant && part.relabel_invariant;
    }
    out.encoding = encode_under_order(constraints, out.order, universe);
  }
  out.fp = support::fingerprint_bytes(out.encoding);
  return out;
}

}  // namespace gentrius::core
