#include "gentrius/problem.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>

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

/// Hash of a rooted subtree from its children's hashes: ascending fold from
/// the internal-vertex seed, so it depends only on the colored rooted
/// topology, never on vertex ids. A leaf's hash is mix_hash(0x1eaf, color).
std::uint64_t fold_children(std::uint64_t* parts, std::size_t n) {
  // Insertion sort of the <= 2 child hashes (std::sort on a fixed array
  // trips GCC's -Warray-bounds through its unrolled insertion pass).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = i; j > 0 && parts[j] < parts[j - 1]; --j)
      std::swap(parts[j], parts[j - 1]);
  std::uint64_t h = 0x5b17ULL;
  for (std::size_t i = 0; i < n; ++i) h = mix_hash(h, parts[i]);
  return h;
}

/// WL color refinement of one part, linear in its trees per round.
///
/// Each round a taxon's new color folds its old color with the sorted
/// multiset of its far-side hashes, one per tree holding it: the hash of
/// the tree rooted at the leaf's neighbor with the leaf cut off (sorted:
/// the encoding must not depend on constraint order). Every tree is
/// traversed once, rooted at one leaf, and each round takes two sweeps per
/// tree: children first for down[v], the hash of the subtree below v, then
/// parents first for up[v], the hash of the rest of the tree seen from v.
/// A vertex whose parent is the root leaf has the root leaf's hash as up;
/// any other gets the fold of up[parent] and its siblings' down. A leaf's
/// far-side hash is then its up, and the root leaf's is its neighbor's
/// down. Built once per canonicalize_part call and shared by every
/// refinement of its individualization search, so a round allocates
/// nothing.
class Refiner {
 public:
  Refiner(const std::vector<phylo::Tree>& constraints,
          const std::vector<phylo::TaxonId>& present, std::size_t universe)
      : present_(present) {
    // Per taxon: first the number of trees holding it, then its next slot.
    std::vector<std::uint32_t> next_slot(universe, 0);
    struct Visit {
      phylo::VertexId v, from;
      std::uint32_t parent;
    };
    std::vector<Visit> stack;
    for (const auto& tree : constraints) {
      const auto taxa = tree.taxa();
      if (taxa.empty()) continue;
      tree_begin_.push_back(static_cast<std::uint32_t>(nodes_.size()));
      stack.push_back({tree.leaf_of(taxa.front()), phylo::kNoId, kNone});
      while (!stack.empty()) {
        const Visit at = stack.back();
        stack.pop_back();
        const auto i = static_cast<std::uint32_t>(nodes_.size());
        const auto& vx = tree.vertex(at.v);
        nodes_.push_back({vx.taxon, at.parent, {kNone, kNone}, kNone});
        if (at.parent != kNone) {
          Node& p = nodes_[at.parent];
          GENTRIUS_DCHECK(p.child[1] == kNone);
          p.child[p.child[0] == kNone ? 0 : 1] = i;
        }
        if (vx.taxon != phylo::kNoTaxon) {
          ++next_slot[vx.taxon];
          if (at.parent != kNone) continue;  // a leaf below the root leaf
        }
        for (std::uint8_t d = 0; d < vx.degree; ++d)
          if (vx.adj[d].to != at.from) stack.push_back({vx.adj[d].to, at.v, i});
      }
    }
    tree_begin_.push_back(static_cast<std::uint32_t>(nodes_.size()));

    slot_begin_.reserve(present.size() + 1);
    std::uint32_t slots = 0;
    for (const phylo::TaxonId x : present) {
      slot_begin_.push_back(slots);
      slots += next_slot[x];
      next_slot[x] = slot_begin_.back();
    }
    slot_begin_.push_back(slots);
    for (Node& n : nodes_)
      if (n.taxon != phylo::kNoTaxon) n.slot = next_slot[n.taxon]++;
    hashes_.resize(slots);
    down_.resize(nodes_.size());
    up_.resize(nodes_.size());
    distinct_.reserve(present.size());
  }

  /// One-round-at-a-time refinement until the number of color classes
  /// stops growing.
  void refine(std::vector<std::uint64_t>& color) {
    std::size_t distinct = distinct_count(color);
    for (std::size_t round = 0; round <= present_.size(); ++round) {
      for (std::size_t t = 0; t + 1 < tree_begin_.size(); ++t)
        sweep(tree_begin_[t], tree_begin_[t + 1], color);
      for (std::size_t k = 0; k < present_.size(); ++k) {
        const auto first = hashes_.begin() + slot_begin_[k];
        const auto last = hashes_.begin() + slot_begin_[k + 1];
        std::sort(first, last);
        std::uint64_t h = mix_hash(0xc010ULL, color[present_[k]]);
        for (auto it = first; it != last; ++it) h = mix_hash(h, *it);
        color[present_[k]] = h;
      }
      const std::size_t now = distinct_count(color);
      if (now == distinct) break;  // partition stable
      distinct = now;
    }
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// A vertex of a leaf-rooted traversal: parents come before children.
  struct Node {
    phylo::TaxonId taxon;
    std::uint32_t parent;    ///< kNone at the root leaf
    std::uint32_t child[2];  ///< kNone where absent
    std::uint32_t slot;      ///< leaves: the far-side hash's slot in hashes_
  };

  /// Both sweeps over the tree stored in nodes_[begin, end), then every
  /// leaf's far-side hash into its slot.
  void sweep(std::uint32_t begin, std::uint32_t end,
             const std::vector<std::uint64_t>& color) {
    std::uint64_t parts[2];
    for (std::uint32_t i = end; i-- > begin;) {
      const Node& n = nodes_[i];
      if (n.taxon != phylo::kNoTaxon) {
        down_[i] = mix_hash(0x1eafULL, color[n.taxon]);
        continue;
      }
      std::size_t k = 0;
      for (const std::uint32_t c : n.child)
        if (c != kNone) parts[k++] = down_[c];
      down_[i] = fold_children(parts, k);
    }
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const Node& n = nodes_[i];
      if (n.parent == begin) {
        up_[i] = down_[begin];  // the root leaf's own hash
        continue;
      }
      const Node& p = nodes_[n.parent];
      parts[0] = up_[n.parent];
      std::size_t k = 1;
      for (const std::uint32_t c : p.child)
        if (c != kNone && c != i) parts[k++] = down_[c];
      up_[i] = fold_children(parts, k);
    }
    const std::uint32_t first = nodes_[begin].child[0];
    hashes_[nodes_[begin].slot] =
        first != kNone ? down_[first] : 0x0133ULL;  // singleton: no far side
    for (std::uint32_t i = begin + 1; i < end; ++i)
      if (nodes_[i].taxon != phylo::kNoTaxon) hashes_[nodes_[i].slot] = up_[i];
  }

  std::size_t distinct_count(const std::vector<std::uint64_t>& color) {
    distinct_.clear();
    for (const phylo::TaxonId x : present_) distinct_.push_back(color[x]);
    std::sort(distinct_.begin(), distinct_.end());
    return static_cast<std::size_t>(
        std::unique(distinct_.begin(), distinct_.end()) - distinct_.begin());
  }

  const std::vector<phylo::TaxonId>& present_;
  std::vector<Node> nodes_;                ///< every tree, back to back
  std::vector<std::uint32_t> tree_begin_;  ///< per tree, plus the end
  std::vector<std::uint64_t> down_, up_;   ///< per node
  std::vector<std::uint32_t> slot_begin_;  ///< per present taxon, plus the end
  std::vector<std::uint64_t> hashes_;      ///< far-side hashes, by taxon
  std::vector<std::uint64_t> distinct_;    ///< distinct_count's scratch
};

/// Label of canonical rank r, appended in place.
void append_rank_label(std::string& out, std::size_t rank) {
  char digits[24];
  const auto n = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, rank).ptr - digits);
  out.push_back('c');
  if (n < 6) out.append(6 - n, '0');
  out.append(digits, n);
}

/// Canonical serialization of one tree under rank labels, appended to
/// `out`: the subtree on the far side of `v` seen from `from`, its two
/// children rendered in place and swapped when the second sorts first, so
/// subtrees are sorted lexicographically. Depends only on the topology and
/// the rank function — not on taxon ids or vertex layout.
void append_rank_subtree(std::string& out, const phylo::Tree& tree,
                         phylo::VertexId v, phylo::VertexId from,
                         const std::vector<std::size_t>& rank) {
  const auto& vx = tree.vertex(v);
  if (vx.taxon != phylo::kNoTaxon) {
    append_rank_label(out, rank[vx.taxon]);
    return;
  }
  out.push_back('(');
  const std::size_t first = out.size();
  std::size_t second = std::string::npos;
  for (std::uint8_t i = 0; i < vx.degree; ++i) {
    if (vx.adj[i].to == from) continue;
    GENTRIUS_DCHECK(second == std::string::npos);
    if (out.size() > first) second = out.size();
    append_rank_subtree(out, tree, vx.adj[i].to, v, rank);
  }
  if (second != std::string::npos) {
    const std::size_t end = out.size();
    std::size_t comma = second;
    if (out.compare(second, end - second, out, first, second - first) < 0) {
      std::rotate(out.begin() + static_cast<std::ptrdiff_t>(first),
                  out.begin() + static_cast<std::ptrdiff_t>(second),
                  out.end());
      comma = first + (end - second);
    }
    out.insert(comma, 1, ',');
  }
  out.push_back(')');
}

/// rank_newick, appended to `out`.
void append_rank_newick(std::string& out, const phylo::Tree& tree,
                        const std::vector<std::size_t>& rank) {
  const auto taxa = tree.taxa();
  phylo::TaxonId root = taxa.front();
  for (const phylo::TaxonId x : taxa)
    if (rank[x] < rank[root]) root = x;
  if (taxa.size() == 1) {
    append_rank_label(out, rank[root]);
    out.push_back(';');
    return;
  }
  const phylo::VertexId leaf = tree.leaf_of(root);
  out.push_back('(');
  append_rank_label(out, rank[root]);
  out.push_back(',');
  append_rank_subtree(out, tree, tree.vertex(leaf).adj[0].to, leaf, rank);
  out += ");";
}

std::string encode_under_order(const std::vector<phylo::Tree>& constraints,
                               const std::vector<phylo::TaxonId>& order,
                               std::size_t universe) {
  std::vector<std::size_t> rank(universe, 0);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  // Every line into one buffer, then sorted: the encoding must be
  // constraint-order invariant.
  std::string text;
  std::vector<std::size_t> ends;
  ends.reserve(constraints.size());
  for (const auto& tree : constraints) {
    append_rank_newick(text, tree, rank);
    ends.push_back(text.size());
  }
  std::vector<std::string_view> lines;
  lines.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    lines.emplace_back(text.data() + begin, end - begin);
    begin = end;
  }
  std::sort(lines.begin(), lines.end());
  std::string out = "gentrius-instance-v1 n=" + std::to_string(order.size()) +
                    " k=" + std::to_string(constraints.size()) + "\n";
  out.reserve(out.size() + text.size() + lines.size());
  for (const std::string_view line : lines) {
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
  Refiner& refiner;
  int budget = 48;
  bool invariant = true;

  std::string encode(std::vector<std::uint64_t> color,
                     std::vector<phylo::TaxonId>* order_out) {
    refiner.refine(color);

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

  Refiner refiner(part, present, universe);
  InstanceCanonicalizer canon{part, present, universe, refiner};
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
  std::string out;
  append_rank_label(out, rank);
  return out;
}

std::string rank_newick(const phylo::Tree& tree,
                        const std::vector<std::size_t>& rank) {
  std::string out;
  append_rank_newick(out, tree, rank);
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
