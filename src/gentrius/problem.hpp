// Immutable, thread-shared problem description.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gentrius/options.hpp"
#include "phylo/tree.hpp"
#include "support/bitset.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::core {

/// Normalized input for one Gentrius run: the constraint trees, their taxon
/// sets, and the chosen initial agile tree. Built once, then shared
/// read-only by every enumerator (each thread copies only its own agile
/// tree; the paper's "redundant input parsing" corresponds to each thread's
/// private Terrace built from this object).
struct Problem {
  std::size_t n_taxa = 0;  ///< universe size (max taxon id + 1 over all trees)
  std::vector<phylo::Tree> constraints;
  std::vector<support::Bitset> constraint_taxa;           ///< per constraint, over [0, n_taxa)
  std::vector<std::vector<std::uint32_t>> trees_of_taxon;  ///< constraint indices containing taxon
  support::Bitset all_taxa;                                ///< union of constraint taxa
  std::size_t initial_constraint = 0;
  std::vector<phylo::TaxonId> missing_taxa;  ///< taxa to insert, ascending
  /// xorshift keys for the split hashing of the double-edge mappings.
  std::vector<std::uint64_t> taxon_keys;

  std::size_t missing_count() const { return missing_taxa.size(); }
};

/// Validates the constraint set and applies the initial-tree-selection
/// heuristic (or the Options override). Throws InvalidInput on unusable
/// input: empty constraint list, no constraint with >= 3 taxa, non-binary
/// trees (vertices of degree 2 or > 3 among internals).
Problem build_problem(std::vector<phylo::Tree> constraints,
                      const Options& options);

// ---- canonical instance encoding -------------------------------------------

/// The canonical form of a constraint-tree instance: a byte encoding that is
/// invariant under taxon relabeling and constraint reordering, plus its
/// 128-bit fingerprint. Two instances with equal encodings are isomorphic —
/// the encoding is a full serialization of the constraint trees over
/// canonical taxon ranks, so consumers (the incremental ResultCache) compare
/// encodings byte for byte on every fingerprint hit and a hash collision can
/// cost a recomputation but never a wrong answer.
///
/// Canonical ranks come from Weisfeiler–Leman-style color refinement (each
/// taxon's color folds in the sorted multiset of its rooted tree hashes),
/// followed by individualization-refinement on surviving color ties under a
/// bounded branch budget. When the budget runs out — only on instances with
/// large automorphism-free color classes — ties fall back to ascending
/// taxon id and `relabel_invariant` turns false: the encoding is still
/// deterministic and sound, it just may differ between relabelings of the
/// same instance (a cache miss, not a correctness problem).
///
/// An instance whose constraints fall into parts on disjoint taxa (the
/// decompose residual: one representative per component) is canonicalized
/// part by part, each with its own budget, and the parts are concatenated
/// in encoding order. Isomorphic parts then cost no search across each
/// other, so such an instance stays relabel-invariant whenever its parts do.
struct CanonicalInstance {
  std::string encoding;
  support::Fingerprint fp;
  /// Canonical rank -> taxon id of the instance. Translates results cached
  /// in rank space (counts, stand Newick over rank labels) back into the
  /// caller's taxon ids.
  std::vector<phylo::TaxonId> order;
  bool relabel_invariant = true;
};

/// Label of canonical rank r inside the encoding: "c" + zero-padded rank,
/// so lexicographic label order equals rank order.
std::string canonical_rank_label(std::size_t rank);

/// Canonical Newick of one tree over canonical rank labels: rooted at the
/// minimum-rank leaf, subtrees sorted lexicographically. `rank` maps taxon
/// id -> canonical rank (entries for taxa outside the tree are ignored).
/// This is the serialization the incremental ResultCache stores stands in —
/// id-independent, so cached results survive taxon relabeling.
std::string rank_newick(const phylo::Tree& tree,
                        const std::vector<std::size_t>& rank);

CanonicalInstance canonicalize_instance(
    const std::vector<phylo::Tree>& constraints);

/// Shorthand: fingerprint of the canonical encoding.
support::Fingerprint instance_fingerprint(
    const std::vector<phylo::Tree>& constraints);

}  // namespace gentrius::core
