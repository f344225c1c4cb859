// PAM edit model for incremental re-enumeration.
//
// A live dataset changes in four ways: a new locus enters (add_locus), a
// new taxon gets sequenced (add_taxon), a missing cell fills in
// (fill_cell), or a cell is retracted — a mislabeled sequence pulled from a
// locus (clear_cell). Each edit is a PamDelta; a batched EditScript applies
// several before re-enumerating once.
//
// The delta classifier maps an edit onto the interaction-graph components
// (src/decompose/components) it touches, before and after the edit. Edits
// rewire the graph: filling a cell can merge components (the taxon bridges
// two previously independent groups), clearing one can split a component
// in two. The session does not classify: every shard is keyed by its
// canonical instance, so a merged or split component simply misses the
// cache. classify_delta is a standalone analysis that the wall-clock
// benchmark's pam-edits replay still times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "pam/pam.hpp"
#include "phylo/tree.hpp"

namespace gentrius::incremental {

enum class EditKind : std::uint8_t {
  kAddLocus,   ///< append a locus with the given present taxa
  kAddTaxon,   ///< grow the taxon dimension; new taxon present in given loci
  kFillCell,   ///< 0 -> 1: taxon gains data for a locus
  kClearCell,  ///< 1 -> 0: taxon retracted from a locus
};

const char* to_string(EditKind k);

struct PamDelta {
  EditKind kind = EditKind::kFillCell;
  phylo::TaxonId taxon = phylo::kNoTaxon;  ///< fill/clear; ignored otherwise
  std::size_t locus = 0;                   ///< fill/clear; ignored otherwise
  std::vector<phylo::TaxonId> locus_taxa;  ///< add_locus: present taxa
  std::vector<std::size_t> taxon_loci;     ///< add_taxon: loci with data

  static PamDelta add_locus(std::vector<phylo::TaxonId> present);
  static PamDelta add_taxon(std::vector<std::size_t> loci);
  static PamDelta fill_cell(phylo::TaxonId taxon, std::size_t locus);
  static PamDelta clear_cell(phylo::TaxonId taxon, std::size_t locus);
};

/// A batch of edits applied atomically before one re-enumeration.
using EditScript = std::vector<PamDelta>;

/// Human-readable one-liner, e.g. "fill_cell t=7 l=2".
std::string to_string(const PamDelta& edit);

/// Applies one edit to the matrix. Throws support::InvalidInput on an
/// inapplicable edit: out-of-range indices, filling a 1-cell, clearing a
/// 0-cell, or an add_taxon whose taxon id would have no leaf in a species
/// tree of `max_taxa` leaves (pass SIZE_MAX to skip that check).
void apply_edit(pam::Pam& pam, const PamDelta& edit,
                std::size_t max_taxa = static_cast<std::size_t>(-1));

/// How one edit moved the component structure. Component indices refer to
/// the canonical component order (ascending smallest taxon id) of the
/// respective split.
struct DeltaClass {
  /// Components of the pre-edit split containing an edited cell's taxon or
  /// an edited locus's taxa.
  std::vector<std::size_t> touched_before;
  /// Components of the post-edit split containing edited taxa/loci.
  std::vector<std::size_t> touched_after;
  bool merged = false;  ///< >= 2 pre-edit components now share a component
  bool split = false;   ///< one pre-edit component now spans >= 2 components
};

/// Classifies one edit against the pre/post interaction-graph splits of the
/// induced constraint sets. `before`/`after` must be the analyze_pam splits
/// of the matrix before and after apply_edit; a kAddTaxon edit's taxon is
/// after_pam's last taxon.
DeltaClass classify_delta(const PamDelta& edit,
                          const pam::Pam& before_pam,
                          const decompose::ComponentSplit& before,
                          const pam::Pam& after_pam,
                          const decompose::ComponentSplit& after);

}  // namespace gentrius::incremental
