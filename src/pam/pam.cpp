#include "pam/pam.hpp"

#include <sstream>
#include <string>

#include "phylo/topology.hpp"
#include "support/error.hpp"

namespace gentrius::pam {

using support::InvalidInput;

Pam::Pam(std::size_t taxon_count, std::size_t locus_count)
    : taxon_count_(taxon_count),
      loci_(locus_count, support::Bitset(taxon_count)) {}

void Pam::set_present(TaxonId taxon, std::size_t locus, bool value) {
  if (taxon >= taxon_count_ || locus >= loci_.size())
    throw InvalidInput("PAM cell out of range");
  if (value)
    loci_[locus].set(taxon);
  else
    loci_[locus].reset(taxon);
}

std::size_t Pam::add_locus() {
  loci_.emplace_back(taxon_count_);
  return loci_.size() - 1;
}

TaxonId Pam::add_taxon() {
  // Bitset::resize zeroes the set; grow by rebuilding so presence survives.
  ++taxon_count_;
  for (auto& l : loci_) {
    support::Bitset grown(taxon_count_);
    l.for_each([&](std::size_t t) { grown.set(t); });
    l = std::move(grown);
  }
  return static_cast<TaxonId>(taxon_count_ - 1);
}

std::vector<TaxonId> Pam::locus_taxa_list(std::size_t locus) const {
  return loci_.at(locus).to_indices();
}

std::size_t Pam::taxon_coverage(TaxonId taxon) const {
  std::size_t c = 0;
  for (const auto& l : loci_)
    if (l.test(taxon)) ++c;
  return c;
}

double Pam::missing_fraction() const {
  if (taxon_count_ == 0 || loci_.empty()) return 0.0;
  std::size_t ones = 0;
  for (const auto& l : loci_) ones += l.count();
  const std::size_t cells = taxon_count_ * loci_.size();
  return 1.0 - static_cast<double>(ones) / static_cast<double>(cells);
}

std::optional<TaxonId> Pam::comprehensive_taxon() const {
  for (TaxonId t = 0; t < taxon_count_; ++t) {
    bool all = true;
    for (const auto& l : loci_) {
      if (!l.test(t)) {
        all = false;
        break;
      }
    }
    if (all) return t;
  }
  return std::nullopt;
}

bool Pam::covers_all_taxa() const {
  for (TaxonId t = 0; t < taxon_count_; ++t) {
    bool any = false;
    for (const auto& l : loci_) {
      if (l.test(t)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

Pam Pam::parse(const std::string& text, phylo::TaxonSet& taxa) {
  std::istringstream in(text);
  long long taxa_decl = 0;
  long long loci_decl = 0;
  if (!(in >> taxa_decl >> loci_decl))
    throw InvalidInput("PAM: missing '<taxa> <loci>' header");
  if (taxa_decl < 1 || loci_decl < 1)
    throw InvalidInput("PAM: taxon and locus counts must be positive");
  // Guard against absurd headers (fuzzed or corrupt input) before any
  // allocation is sized from them.
  constexpr long long kMaxCells = 100'000'000;
  if (taxa_decl > kMaxCells || loci_decl > kMaxCells ||
      taxa_decl * loci_decl > kMaxCells)
    throw InvalidInput("PAM: declared matrix implausibly large");
  const auto n_taxa = static_cast<std::size_t>(taxa_decl);
  const auto n_loci = static_cast<std::size_t>(loci_decl);
  Pam pam(n_taxa, n_loci);
  std::vector<char> seen(n_taxa, 0);
  for (std::size_t row = 0; row < n_taxa; ++row) {
    std::string label;
    if (!(in >> label)) throw InvalidInput("PAM: missing taxon row");
    const TaxonId id = taxa.add(label);
    if (id >= n_taxa)
      throw InvalidInput("PAM: more distinct labels than declared taxa");
    if (seen[id]) throw InvalidInput("PAM: duplicate taxon row: " + label);
    seen[id] = 1;
    for (std::size_t locus = 0; locus < n_loci; ++locus) {
      int cell = 0;
      if (!(in >> cell) || (cell != 0 && cell != 1))
        throw InvalidInput("PAM: cell must be 0 or 1 (taxon " + label + ")");
      if (cell) pam.loci_[locus].set(id);
    }
  }
  return pam;
}

std::string Pam::to_text(const phylo::TaxonSet& taxa) const {
  std::ostringstream out;
  out << taxon_count_ << ' ' << loci_.size() << '\n';
  for (TaxonId t = 0; t < taxon_count_; ++t) {
    out << taxa.name(t);
    for (const auto& l : loci_) out << ' ' << (l.test(t) ? 1 : 0);
    out << '\n';
  }
  return out.str();
}

phylo::Tree induced_subtree(const phylo::Tree& species_tree, const Pam& pam,
                            std::size_t locus) {
  std::vector<TaxonId> keep;
  pam.locus_taxa(locus).for_each(
      [&](std::size_t t) { keep.push_back(static_cast<TaxonId>(t)); });
  // restrict_to skips taxa the tree lacks; here that would silently drop a
  // present cell from the constraint.
  for (const TaxonId t : keep)
    if (!species_tree.has_taxon(t))
      throw InvalidInput("PAM marks taxon " + std::to_string(t) +
                         " present in locus " + std::to_string(locus) +
                         ", but the species tree has no leaf for it");
  return phylo::restrict_to(species_tree, keep);
}

std::vector<phylo::Tree> induced_subtrees(const phylo::Tree& species_tree,
                                          const Pam& pam, std::size_t min_taxa) {
  std::vector<phylo::Tree> out;
  for (std::size_t locus = 0; locus < pam.locus_count(); ++locus) {
    if (pam.locus_taxa(locus).count() < min_taxa) continue;
    out.push_back(induced_subtree(species_tree, pam, locus));
  }
  return out;
}

}  // namespace gentrius::pam
