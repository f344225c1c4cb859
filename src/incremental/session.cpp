#include "incremental/session.hpp"

#include <string>
#include <utility>

#include "support/error.hpp"

namespace gentrius::incremental {

IncrementalSession::IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                                       SessionOptions options)
    : species_(std::move(species_tree)),
      pam_(std::move(pam)),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  core::validate_options(options_.engine, core::OptionsSurface::kIncremental);
  for (phylo::TaxonId t = 0; t < pam_.taxon_count(); ++t)
    if (!species_.has_taxon(t))
      throw support::InvalidInput(
          "incremental session: species tree is missing a leaf for taxon " +
          std::to_string(t) +
          " (it must span the session's full taxon universe)");
}

core::Result IncrementalSession::apply(const PamDelta& edit) {
  return apply(EditScript{edit});
}

core::Result IncrementalSession::apply(const EditScript& script) {
  // Validate-then-commit: the script lands on a scratch copy, so a
  // mid-script failure (out-of-range index, filling an already-present
  // cell, ...) rethrows with the session matrix untouched. An edited matrix
  // that cannot be enumerated (nothing enumerable, a species tree missing a
  // present taxon) is rolled back the same way.
  pam::Pam edited = pam_;
  for (const PamDelta& edit : script)
    apply_edit(edited, edit, species_.leaf_count());
  std::swap(pam_, edited);
  try {
    return enumerate();
  } catch (...) {
    std::swap(pam_, edited);
    throw;
  }
}

core::Result IncrementalSession::enumerate() {
  core::Result out = decompose::run_sharded(
      pam::induced_subtrees(species_, pam_, options_.min_taxa),
      options_.engine, options_.run, &cache_);
  lifetime_.merge(out.cache);
  return out;
}

}  // namespace gentrius::incremental
