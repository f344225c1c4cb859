// Presence/absence matrix (PAM): which taxon has data for which locus.
//
// The PAM is the second input mode of Gentrius (paper §II-A): together with
// a complete species tree it defines the set of induced per-locus subtrees
// that act as constraint trees.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "support/bitset.hpp"

namespace gentrius::pam {

using phylo::TaxonId;

class Pam {
 public:
  Pam() = default;

  /// All-absent matrix of the given shape.
  Pam(std::size_t taxon_count, std::size_t locus_count);

  std::size_t taxon_count() const noexcept { return taxon_count_; }
  std::size_t locus_count() const noexcept { return loci_.size(); }

  bool present(TaxonId taxon, std::size_t locus) const {
    return loci_.at(locus).test(taxon);
  }

  void set_present(TaxonId taxon, std::size_t locus, bool value = true);

  /// Appends an all-absent locus; returns its index (incremental edit model:
  /// a new marker enters the dataset, cells fill afterwards).
  std::size_t add_locus();

  /// Grows the taxon dimension by one all-absent row; returns the new id
  /// (a newly sequenced taxon; it gains data via set_present).
  TaxonId add_taxon();

  /// Taxa with data for the locus, as a bitset over [0, taxon_count).
  const support::Bitset& locus_taxa(std::size_t locus) const {
    return loci_.at(locus);
  }

  /// Taxa with data for the locus, ascending ids.
  std::vector<TaxonId> locus_taxa_list(std::size_t locus) const;

  /// Number of loci the taxon has data for.
  std::size_t taxon_coverage(TaxonId taxon) const;

  /// Fraction of 0-cells in the matrix.
  double missing_fraction() const;

  /// A taxon present in every locus, if one exists (lowest id). SUPERB-style
  /// algorithms require such a taxon; Gentrius does not.
  std::optional<TaxonId> comprehensive_taxon() const;

  /// True iff every taxon has data in at least one locus (X = union of Y_i).
  bool covers_all_taxa() const;

  // ---- text I/O -------------------------------------------------------------
  // Format: header "<taxon_count> <locus_count>", then one line per taxon:
  // "<label> <0/1> <0/1> ...". Taxon ids are assigned via the TaxonSet.

  static Pam parse(const std::string& text, phylo::TaxonSet& taxa);
  std::string to_text(const phylo::TaxonSet& taxa) const;

 private:
  std::size_t taxon_count_ = 0;
  std::vector<support::Bitset> loci_;  // one bitset per locus
};

/// The constraint tree of one locus: the species tree restricted to the taxa
/// present in that locus. Throws InvalidInput when the species tree lacks a
/// taxon the locus marks present.
phylo::Tree induced_subtree(const phylo::Tree& species_tree, const Pam& pam,
                            std::size_t locus);

/// All per-locus induced subtrees (paper's second input mode). Loci with
/// fewer than `min_taxa` present taxa are skipped (they constrain nothing).
std::vector<phylo::Tree> induced_subtrees(const phylo::Tree& species_tree,
                                          const Pam& pam,
                                          std::size_t min_taxa = 4);

}  // namespace gentrius::pam
