#include "incremental/session.hpp"

#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace gentrius::incremental {

IncrementalSession::IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                                       SessionOptions options)
    : species_(std::move(species_tree)),
      pam_(std::move(pam)),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  const core::Options& engine = options_.engine;
  core::validate_options(engine);
  if (engine.collect_trees && engine.tree_names == nullptr)
    throw support::InvalidInput(
        "incremental session: stand trees are collected as labelled Newick; "
        "set Options::tree_names when collect_trees is on");
  if (engine.initial_constraint || !engine.insertion_order.empty())
    throw support::InvalidInput(
        "incremental session: initial_constraint / insertion_order index the "
        "whole constraint list and cannot survive PAM edits");
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
  // pam::induced_subtrees, reusing each slot whose row is unchanged. A slot
  // is replaced whole, after its subtree is built, so a throw leaves it
  // matching its own row.
  loci_.resize(pam_.locus_count());
  std::vector<phylo::Tree> constraints;
  for (std::size_t l = 0; l < loci_.size(); ++l) {
    const support::Bitset& row = pam_.locus_taxa(l);
    if (row.count() < options_.min_taxa) continue;
    if (!loci_[l] || loci_[l]->row != row)
      loci_[l] = Locus{row, pam::induced_subtree(species_, pam_, l)};
    constraints.push_back(loci_[l]->tree);
  }
  core::Result out = decompose::run_sharded(constraints, options_.engine,
                                            options_.run, &cache_);
  lifetime_.merge(out.cache);
  return out;
}

}  // namespace gentrius::incremental
