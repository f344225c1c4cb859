#include "incremental/delta.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace gentrius::incremental {

using support::InvalidInput;

const char* to_string(EditKind k) {
  switch (k) {
    case EditKind::kAddLocus: return "add_locus";
    case EditKind::kAddTaxon: return "add_taxon";
    case EditKind::kFillCell: return "fill_cell";
    case EditKind::kClearCell: return "clear_cell";
  }
  return "?";
}

PamDelta PamDelta::add_locus(std::vector<phylo::TaxonId> present) {
  PamDelta d;
  d.kind = EditKind::kAddLocus;
  d.locus_taxa = std::move(present);
  return d;
}

PamDelta PamDelta::add_taxon(std::vector<std::size_t> loci) {
  PamDelta d;
  d.kind = EditKind::kAddTaxon;
  d.taxon_loci = std::move(loci);
  return d;
}

PamDelta PamDelta::fill_cell(phylo::TaxonId taxon, std::size_t locus) {
  PamDelta d;
  d.kind = EditKind::kFillCell;
  d.taxon = taxon;
  d.locus = locus;
  return d;
}

PamDelta PamDelta::clear_cell(phylo::TaxonId taxon, std::size_t locus) {
  PamDelta d;
  d.kind = EditKind::kClearCell;
  d.taxon = taxon;
  d.locus = locus;
  return d;
}

std::string to_string(const PamDelta& edit) {
  std::string out = to_string(edit.kind);
  switch (edit.kind) {
    case EditKind::kFillCell:
    case EditKind::kClearCell:
      out += " t=" + std::to_string(edit.taxon) +
             " l=" + std::to_string(edit.locus);
      break;
    case EditKind::kAddLocus:
      out += " taxa=" + std::to_string(edit.locus_taxa.size());
      break;
    case EditKind::kAddTaxon:
      out += " loci=" + std::to_string(edit.taxon_loci.size());
      break;
  }
  return out;
}

void apply_edit(pam::Pam& pam, const PamDelta& edit, std::size_t max_taxa) {
  switch (edit.kind) {
    case EditKind::kFillCell: {
      if (edit.taxon >= pam.taxon_count() || edit.locus >= pam.locus_count())
        throw InvalidInput("fill_cell: cell out of range");
      if (pam.present(edit.taxon, edit.locus))
        throw InvalidInput("fill_cell: cell already present");
      pam.set_present(edit.taxon, edit.locus, true);
      return;
    }
    case EditKind::kClearCell: {
      if (edit.taxon >= pam.taxon_count() || edit.locus >= pam.locus_count())
        throw InvalidInput("clear_cell: cell out of range");
      if (!pam.present(edit.taxon, edit.locus))
        throw InvalidInput("clear_cell: cell already absent");
      pam.set_present(edit.taxon, edit.locus, false);
      return;
    }
    case EditKind::kAddLocus: {
      for (const phylo::TaxonId t : edit.locus_taxa)
        if (t >= pam.taxon_count())
          throw InvalidInput("add_locus: present taxon out of range");
      const std::size_t locus = pam.add_locus();
      for (const phylo::TaxonId t : edit.locus_taxa)
        pam.set_present(t, locus, true);
      return;
    }
    case EditKind::kAddTaxon: {
      if (pam.taxon_count() >= max_taxa)
        throw InvalidInput(
            "add_taxon: the species tree has no leaf for the new taxon "
            "(the session's species tree must span the full taxon universe)");
      for (const std::size_t l : edit.taxon_loci)
        if (l >= pam.locus_count())
          throw InvalidInput("add_taxon: locus out of range");
      const phylo::TaxonId taxon = pam.add_taxon();
      for (const std::size_t l : edit.taxon_loci)
        pam.set_present(taxon, l, true);
      return;
    }
  }
}

namespace {

/// taxon id -> component index of its split (kNone if in no component).
std::vector<std::size_t> component_of_taxon(
    const decompose::ComponentSplit& split, std::size_t n_taxa) {
  constexpr auto kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner(n_taxa, kNone);
  for (std::size_t c = 0; c < split.components.size(); ++c)
    for (const phylo::TaxonId t : split.components[c].taxa)
      if (t < n_taxa) owner[t] = c;
  return owner;
}

/// The taxa an edit involves, against a given matrix state. `post_edit`
/// distinguishes the two sides for kAddTaxon: the new taxon (the matrix's
/// last) exists only in the post-edit matrix, so it touches no pre-edit
/// component.
std::vector<phylo::TaxonId> edited_taxa(const PamDelta& edit,
                                        const pam::Pam& pam, bool post_edit) {
  switch (edit.kind) {
    case EditKind::kFillCell:
    case EditKind::kClearCell: {
      // The edited taxon plus the locus's other members: the locus's
      // induced constraint changes shape for all of them.
      std::vector<phylo::TaxonId> taxa{edit.taxon};
      if (edit.locus < pam.locus_count())
        pam.locus_taxa(edit.locus).for_each([&](std::size_t t) {
          taxa.push_back(static_cast<phylo::TaxonId>(t));
        });
      std::sort(taxa.begin(), taxa.end());
      taxa.erase(std::unique(taxa.begin(), taxa.end()), taxa.end());
      return taxa;
    }
    case EditKind::kAddLocus:
      return edit.locus_taxa;
    case EditKind::kAddTaxon:
      if (!post_edit || pam.taxon_count() == 0) return {};
      return {static_cast<phylo::TaxonId>(pam.taxon_count() - 1)};
  }
  return {};
}

void collect_touched(const std::vector<phylo::TaxonId>& taxa,
                     const std::vector<std::size_t>& owner,
                     std::vector<std::size_t>& out) {
  constexpr auto kNone = static_cast<std::size_t>(-1);
  for (const phylo::TaxonId t : taxa)
    if (t < owner.size() && owner[t] != kNone) out.push_back(owner[t]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

DeltaClass classify_delta(const PamDelta& edit, const pam::Pam& before_pam,
                          const decompose::ComponentSplit& before,
                          const pam::Pam& after_pam,
                          const decompose::ComponentSplit& after) {
  constexpr auto kNone = static_cast<std::size_t>(-1);
  DeltaClass out;

  const auto owner_before =
      component_of_taxon(before, before_pam.taxon_count());
  const auto owner_after = component_of_taxon(after, after_pam.taxon_count());

  collect_touched(edited_taxa(edit, before_pam, /*post_edit=*/false),
                  owner_before, out.touched_before);
  collect_touched(edited_taxa(edit, after_pam, /*post_edit=*/true),
                  owner_after, out.touched_after);

  // Merge: two taxa in distinct pre-edit components share a post-edit
  // component. Split: two taxa of one pre-edit component now live in
  // distinct post-edit components. Detected over the whole taxon range so a
  // cascade (an edit rewiring components it did not directly touch) is
  // still reported.
  const std::size_t n =
      std::min(owner_before.size(), owner_after.size());
  // pre-component -> first post-component seen, and vice versa.
  std::vector<std::size_t> pre_to_post(before.components.size(), kNone);
  std::vector<std::size_t> post_to_pre(after.components.size(), kNone);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t pre = owner_before[t];
    const std::size_t post = owner_after[t];
    if (pre == kNone || post == kNone) continue;
    if (pre_to_post[pre] == kNone)
      pre_to_post[pre] = post;
    else if (pre_to_post[pre] != post)
      out.split = true;
    if (post_to_pre[post] == kNone)
      post_to_pre[post] = pre;
    else if (post_to_pre[post] != pre)
      out.merged = true;
  }
  return out;
}

}  // namespace gentrius::incremental
