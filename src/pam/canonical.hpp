// Canonical encoding + fingerprint of a presence/absence matrix.
//
// The encoding is invariant under taxon relabeling and locus reordering:
// taxa are ranked by Weisfeiler–Leman color refinement over the bipartite
// taxon–locus incidence graph (with individualization-refinement on
// surviving ties under a bounded branch budget), and the locus rows are
// emitted as sorted 0/1 strings over the canonical taxon order. It
// identifies a whole matrix. The incremental result cache (src/incremental)
// does not use it: it keys every shard by the constraint-tree
// canonicalization in src/gentrius/problem.hpp.
//
// Like every fingerprint in this codebase, consumers must compare the full
// encoding on a fingerprint match — a hash collision costs a recomputation,
// never a wrong answer.
#pragma once

#include <string>
#include <vector>

#include "pam/pam.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::pam {

struct CanonicalPam {
  std::string encoding;
  support::Fingerprint fp;
  /// Canonical rank -> taxon id.
  std::vector<TaxonId> order;
  /// False only when the individualization budget ran out on a non-twin
  /// color tie: the encoding is still deterministic, but relabelings of the
  /// same matrix may encode differently (a cache miss, never corruption).
  bool relabel_invariant = true;
};

CanonicalPam canonical_encode(const Pam& pam);

/// Shorthand: fingerprint of the canonical encoding.
support::Fingerprint fingerprint(const Pam& pam);

}  // namespace gentrius::pam
