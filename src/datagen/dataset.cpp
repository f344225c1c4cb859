#include "datagen/dataset.hpp"

#include <algorithm>

#include "datagen/tree_gen.hpp"
#include "phylo/newick.hpp"
#include "support/check.hpp"

namespace gentrius::datagen {

using phylo::TaxonId;
using phylo::Tree;
using support::Rng;

namespace {

/// prefix followed by i in decimal ("T0", "z12"). Appending into one
/// string keeps GCC 12's -O3 -Wrestrict false positive on
/// operator+(const char*, std::string&&) out of Release builds.
std::string numbered(const char* prefix, std::size_t i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

}  // namespace

std::vector<TaxonId> default_taxa(phylo::TaxonSet& taxa, std::size_t n) {
  std::vector<TaxonId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(taxa.add(numbered("T", i)));
  return out;
}

namespace {

/// Guarantees the PAM is usable: every locus has >= min_per_locus present
/// taxa and every taxon appears in at least one locus (X = union of Y_i).
void repair_pam(pam::Pam& pam, std::size_t min_per_locus, Rng& rng) {
  const std::size_t n = pam.taxon_count();
  for (std::size_t locus = 0; locus < pam.locus_count(); ++locus) {
    while (pam.locus_taxa(locus).count() < min_per_locus) {
      const auto t = static_cast<TaxonId>(rng.below(n));
      pam.set_present(t, locus, true);
    }
  }
  for (TaxonId t = 0; t < n; ++t) {
    if (pam.taxon_coverage(t) == 0)
      pam.set_present(t, rng.below(pam.locus_count()), true);
  }
}

Dataset finish_from_pam(Dataset ds, std::size_t min_per_locus) {
  ds.constraints = pam::induced_subtrees(ds.species_tree, ds.pam, min_per_locus);
  return ds;
}

}  // namespace

Dataset make_simulated(const SimulatedParams& params) {
  GENTRIUS_CHECK(params.n_taxa >= 4 && params.n_loci >= 1);
  Rng rng(params.seed);
  Dataset ds;
  ds.name = "sim-data-" + std::to_string(params.seed);
  const auto ids = default_taxa(ds.taxa, params.n_taxa);
  ds.species_tree = random_tree(ids, rng);
  ds.pam = pam::Pam(params.n_taxa, params.n_loci);
  for (std::size_t locus = 0; locus < params.n_loci; ++locus)
    for (TaxonId t = 0; t < params.n_taxa; ++t)
      if (!rng.bernoulli(params.missing_fraction)) ds.pam.set_present(t, locus);
  repair_pam(ds.pam, params.min_taxa_per_locus, rng);
  return finish_from_pam(std::move(ds), params.min_taxa_per_locus);
}

Dataset make_empirical_like(const EmpiricalLikeParams& params) {
  GENTRIUS_CHECK(params.n_taxa >= 4 && params.n_loci >= 1);
  Rng rng(params.seed);
  Dataset ds;
  ds.name = "emp-data-" + std::to_string(params.seed);
  const auto ids = default_taxa(ds.taxa, params.n_taxa);
  ds.species_tree = yule_tree(ids, rng);
  ds.pam = pam::Pam(params.n_taxa, params.n_loci);

  // Everything present initially; loci then lose whole clades.
  for (std::size_t locus = 0; locus < params.n_loci; ++locus)
    for (TaxonId t = 0; t < params.n_taxa; ++t) ds.pam.set_present(t, locus);

  const auto edges = ds.species_tree.live_edges();
  for (std::size_t locus = 0; locus < params.n_loci; ++locus) {
    double target;
    if (locus < params.backbone_loci) {
      // Backbone gene: nearly comprehensive sampling.
      target = params.base_missing * rng.uniform();
    } else {
      // Heavy-tailed per-locus missingness (u^3 pushes mass toward low
      // values with a long high-missingness tail, as in empirical PAMs).
      const double u = rng.uniform();
      target = params.base_missing + params.tail_missing * u * u * u;
    }
    const auto budget =
        static_cast<std::size_t>(target * static_cast<double>(params.n_taxa));
    std::size_t dropped = 0;
    std::size_t attempts = 0;
    while (dropped < budget && attempts < 8 * params.n_taxa) {
      ++attempts;
      const phylo::EdgeId e = edges[rng.below(edges.size())];
      const auto& ed = ds.species_tree.edge(e);
      const phylo::VertexId side = rng.bernoulli(0.5) ? ed.u : ed.v;
      auto clade = edge_side_taxa(ds.species_tree, e, side);
      if (clade.size() > params.n_taxa / 2 || clade.size() > budget - dropped + 2)
        continue;  // drop small clades only; keeps loci connected-ish
      for (const TaxonId t : clade) {
        if (ds.pam.present(t, locus)) {
          ds.pam.set_present(t, locus, false);
          ++dropped;
        }
      }
    }
    // Scattered single-taxon dropout on top of the clade structure.
    for (TaxonId t = 0; t < params.n_taxa; ++t)
      if (ds.pam.present(t, locus) && rng.bernoulli(params.scatter_missing))
        ds.pam.set_present(t, locus, false);
  }
  // Rogue taxa: keep a random sparse subset of taxa in at most rogue_loci
  // loci each — the weakly-constrained placements that generate stands.
  for (TaxonId t = 0; t < params.n_taxa; ++t) {
    if (!rng.bernoulli(params.rogue_fraction)) continue;
    std::vector<std::size_t> keep;
    for (std::size_t k = 0; k < params.rogue_loci; ++k)
      keep.push_back(rng.below(params.n_loci));
    for (std::size_t locus = 0; locus < params.n_loci; ++locus) {
      const bool kept =
          std::find(keep.begin(), keep.end(), locus) != keep.end();
      if (!kept) ds.pam.set_present(t, locus, false);
    }
  }
  repair_pam(ds.pam, params.min_taxa_per_locus, rng);
  return finish_from_pam(std::move(ds), params.min_taxa_per_locus);
}

// ---------------------------------------------------------------------------
// Crafted Fig. 5 instances.
//
// Both are built on the 5-taxon core agile tree A0 = ((p,h),m,(g,q)):
//
//        p .             . g
//           u --- s --- w
//        h '      |      ' q
//                 m
//
// The split taxon x is constrained by T_x = ((p,h),x,(g,q)), whose common
// subtree with A0 is ((p,h),(g,q)); x maps onto the central S-edge, whose
// preimage in A0 is {u-s, s-w, m-s}: a guaranteed 3-way initial split.
// A follow-up taxon d (or F) is pinned simultaneously "near x" and "near m"
// via ((d,x),(p,q)) and ((d,m),(p,q)); the two regions intersect only when x
// was placed on m's pendant edge (x and m become a cherry) — on the other
// two branches d has no admissible branch. This yields exact control over
// which initial-split branches are dead ends.
// ---------------------------------------------------------------------------

namespace {

struct CoreTaxa {
  TaxonId p, h, m, g, q, x;
};

CoreTaxa build_core(Dataset& ds, std::vector<Tree>& constraints) {
  CoreTaxa c{};
  c.p = ds.taxa.add("p");
  c.h = ds.taxa.add("h");
  c.m = ds.taxa.add("m");
  c.g = ds.taxa.add("g");
  c.q = ds.taxa.add("q");
  c.x = ds.taxa.add("x");
  // A0 is built programmatically so the edge ids of x's three admissible
  // branches come out as {central-left, central-right, pendant(m)} in
  // ascending order: the engine explores branches by ascending id, so the
  // two barren branches precede the live/stand-rich pendant(m) branch —
  // exactly the serial descent order the Fig. 5 scenarios need.
  Tree a0 = Tree::star({c.p, c.h, c.g});  // edges: p-w, h-w, w-g
  a0.insert_leaf(c.q, 2);                 // (g,q) cherry; central edge id 2
  a0.insert_leaf(c.m, 2);                 // m subdivides the central edge
  constraints.push_back(std::move(a0));
  phylo::NewickOptions opts;
  constraints.push_back(phylo::parse_newick("((p,h),x,(g,q));", ds.taxa, opts));
  return c;
}

Tree quartet(Dataset& ds, const std::string& a, const std::string& b,
             const std::string& cc, const std::string& dd) {
  phylo::NewickOptions opts;
  return phylo::parse_newick("((" + a + "," + b + "),(" + cc + "," + dd + "));",
                             ds.taxa, opts);
}

}  // namespace

Dataset make_plateau_instance(std::size_t chain_length, std::uint64_t /*seed*/) {
  Dataset ds;
  ds.name = "plateau-" + std::to_string(chain_length);
  const CoreTaxa c = build_core(ds, ds.constraints);
  (void)c;
  // d survives only on the m-pendant branch of the initial split; the third
  // constraint then pins it onto x's pendant edge exactly.
  ds.constraints.push_back(quartet(ds, "d", "x", "p", "q"));
  ds.constraints.push_back(quartet(ds, "d", "m", "p", "q"));
  ds.constraints.push_back(quartet(ds, "d", "x", "m", "p"));

  // Forced chain: z_i must form a cherry with z_{i-1}. Anchoring the quartet
  // at the previous link's cherry partner makes the admissible set a single
  // pendant edge.
  std::vector<std::string> link{"x", "d"};
  for (std::size_t i = 0; i < chain_length; ++i) {
    const std::string zi = numbered("z", i);
    const std::string prev = link[link.size() - 1];
    const std::string prev2 = link[link.size() - 2];
    ds.constraints.push_back(quartet(ds, zi, prev, prev2, "p"));
    link.push_back(zi);
  }

  ds.forced_initial_constraint = 0;
  ds.forced_insertion_order.push_back(ds.taxa.id_of("x"));
  ds.forced_insertion_order.push_back(ds.taxa.id_of("d"));
  for (std::size_t i = 0; i < chain_length; ++i)
    ds.forced_insertion_order.push_back(ds.taxa.id_of(numbered("z", i)));
  return ds;
}

Dataset make_superlinear_instance(std::size_t free_taxa, std::uint64_t /*seed*/) {
  Dataset ds;
  ds.name = "superlinear-" + std::to_string(free_taxa);
  const CoreTaxa c = build_core(ds, ds.constraints);
  (void)c;
  // Free taxa: each appears only in a 3-taxon tree, which constrains
  // nothing — every agile edge is admissible, so the subtree below each
  // initial-split branch grows roughly factorially in free_taxa.
  phylo::NewickOptions opts;
  for (std::size_t i = 0; i < free_taxa; ++i) {
    const std::string wi = numbered("w", i);
    ds.constraints.push_back(
        phylo::parse_newick("(" + wi + ",p,q);", ds.taxa, opts));
  }
  // F is viable only when x sits on m's pendant edge; on the two barren
  // branches every completion attempt dies at F.
  ds.constraints.push_back(quartet(ds, "F", "x", "p", "q"));
  ds.constraints.push_back(quartet(ds, "F", "m", "p", "q"));

  ds.forced_initial_constraint = 0;
  ds.forced_insertion_order.push_back(ds.taxa.id_of("x"));
  for (std::size_t i = 0; i < free_taxa; ++i)
    ds.forced_insertion_order.push_back(ds.taxa.id_of(numbered("w", i)));
  ds.forced_insertion_order.push_back(ds.taxa.id_of("F"));
  return ds;
}

Dataset make_flood_instance(std::size_t depth, std::uint64_t seed) {
  Dataset ds;
  ds.name = "flood-" + std::to_string(depth) + "-" + std::to_string(seed);
  support::Rng rng(seed ^ 0x666c6f6f64ULL);  // "flood"
  // depth/4 of the anchor clades (at seeded positions) are widened from a
  // cherry (a_i,b_i) to a triple ((a_i,b_i),c_i): their taxon sees five
  // admissible branches instead of three. Every seed explores a stand of
  // the same size (the wide count is fixed) but with a different branching
  // profile per stratum, so seeds are genuinely independent repetitions of
  // the scheduling dynamics rather than replays of one symmetric run.
  std::vector<std::size_t> order(depth);
  for (std::size_t i = 0; i < depth; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<bool> wide(depth, false);
  const std::size_t n_wide = std::max<std::size_t>(1, depth / 4);
  for (std::size_t k = 0; k < n_wide && k < depth; ++k) wide[order[k]] = true;
  // Spine of anchor clades: (p,q,(C0,(C1,(...,t)))). Spine node s_i joins
  // clade C_i, the previous spine node (or the (p,q) root) and the next
  // one (or the terminal taxon t).
  std::string inner = "t";
  for (std::size_t i = depth; i-- > 0;) {
    const std::string is = std::to_string(i);
    const std::string cherry = "(a" + is + ",b" + is + ")";
    const std::string clade = wide[i] ? "(" + cherry + ",c" + is + ")" : cherry;
    inner = "(" + clade + "," + inner + ")";
  }
  phylo::NewickOptions opts;
  ds.constraints.push_back(
      phylo::parse_newick("(p,q," + inner + ");", ds.taxa, opts));
  // Flood taxon f_i is pinned by one quartet ((f_i,a_i),(p,t)). The paths
  // p->a_i (from above) and t->a_i (from below) meet at spine node s_i, so
  // f_i's admissible set is the component of a_i at s_i: clade i's edges —
  // three for a cherry, five for a widened triple — at every state,
  // whatever was inserted elsewhere (no other taxon targets clade i).
  // Every state of the search therefore has a small constant branch count
  // and no dead ends: 3^(depth-w)*5^w stand trees, and an offer-eligible
  // frame at every single state — the densest hand-off pressure the
  // scheduler can face. With the paper's offer rule the central queue's
  // critical section becomes the bottleneck at high N_t.
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string fi = numbered("f", i);
    ds.constraints.push_back(
        quartet(ds, fi, numbered("a", i), "p", "t"));
  }
  ds.forced_initial_constraint = 0;
  for (std::size_t i = 0; i < depth; ++i)
    ds.forced_insertion_order.push_back(
        ds.taxa.id_of(numbered("f", i)));
  // The seed also permutes the insertion order, i.e. which stratum each
  // clade's branching lands on.
  rng.shuffle(ds.forced_insertion_order);
  return ds;
}

}  // namespace gentrius::datagen
