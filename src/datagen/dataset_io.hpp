// Dataset persistence: write/read a Dataset as a plain-text directory so
// generated corpora can be consumed by external tools and reproduced
// exactly. The stand_explorer CLI does not load this layout; its own reader
// takes <dir>/constraints.nwk as --trees.
//
// Layout:
//   <dir>/constraints.nwk   one Newick per line (the Gentrius input)
//   <dir>/species.nwk       the ground-truth species tree (when present)
//   <dir>/matrix.pam        the presence/absence matrix (when present)
//   <dir>/name.txt          the dataset name
//   <dir>/overrides.txt     crafted-instance engine overrides (when set):
//                           "initial_constraint <index>" and/or
//                           "insertion_order <label> <label> ..."
#pragma once

#include <string>

#include "datagen/dataset.hpp"

namespace gentrius::datagen {

void write_dataset(const Dataset& dataset, const std::string& directory);

/// Loads a dataset previously written by write_dataset. Missing optional
/// files (species tree, PAM) leave the corresponding fields empty.
Dataset load_dataset(const std::string& directory);

}  // namespace gentrius::datagen
