// ResultCache unit tests: LRU eviction order, the byte-compare collision
// guard, replace-in-place, and the capacity-0 kill switch; the canonical
// key memo (equal to a fresh canonicalization, bounded, off at capacity
// 0); and the rule that run_sharded caches only shards that no stopping
// rule cut short.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "benchutil/edit_stream.hpp"
#include "decompose/cache.hpp"
#include "decompose/components.hpp"
#include "decompose/shard_exec.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/problem.hpp"
#include "incremental/delta.hpp"
#include "phylo/newick.hpp"
#include "support/fingerprint.hpp"
#include "support/rng.hpp"

namespace gentrius::decompose {
namespace {

CacheEntry entry_for(const std::string& encoding, std::uint64_t count) {
  CacheEntry e;
  e.encoding = encoding;
  e.stand_trees = count;
  return e;
}

support::Fingerprint fp(const std::string& encoding) {
  return support::fingerprint_bytes(encoding);
}

TEST(ResultCache, InsertAndFind) {
  ResultCache cache(4);
  EXPECT_EQ(cache.find(fp("a"), "a"), nullptr);
  cache.insert(fp("a"), entry_for("a", 3));
  const auto hit = cache.find(fp("a"), "a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stand_trees, 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, CollisionGuardComparesEncodings) {
  ResultCache cache(4);
  cache.insert(fp("a"), entry_for("a", 3));
  // Same fingerprint, different bytes: must miss — a collision costs a
  // recomputation, never a wrong answer.
  EXPECT_EQ(cache.find(fp("a"), "b"), nullptr);
  EXPECT_NE(cache.find(fp("a"), "a"), nullptr);
}

TEST(ResultCache, LruEvictionPrefersStalest) {
  ResultCache cache(2);
  cache.insert(fp("a"), entry_for("a", 1));
  cache.insert(fp("b"), entry_for("b", 2));
  ASSERT_NE(cache.find(fp("a"), "a"), nullptr);  // refresh a; b is stalest
  cache.insert(fp("c"), entry_for("c", 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(fp("b"), "b"), nullptr);
  EXPECT_NE(cache.find(fp("a"), "a"), nullptr);
  EXPECT_NE(cache.find(fp("c"), "c"), nullptr);
}

TEST(ResultCache, ReplaceInPlaceDoesNotEvict) {
  ResultCache cache(2);
  cache.insert(fp("a"), entry_for("a", 1));
  cache.insert(fp("b"), entry_for("b", 2));
  cache.insert(fp("a"), entry_for("a", 7));  // refresh, not a new slot
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  const auto hit = cache.find(fp("a"), "a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stand_trees, 7u);
  EXPECT_NE(cache.find(fp("b"), "b"), nullptr);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(fp("a"), entry_for("a", 1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(fp("a"), "a"), nullptr);
}

TEST(ResultCache, EvictionChurnKeepsBound) {
  ResultCache cache(3);
  for (int i = 0; i < 50; ++i) {
    std::string enc = "e";
    enc += std::to_string(i);
    cache.insert(fp(enc), entry_for(enc, i));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.evictions(), 47u);
  // The three most recent survive.
  EXPECT_NE(cache.find(fp("e49"), "e49"), nullptr);
  EXPECT_NE(cache.find(fp("e47"), "e47"), nullptr);
  EXPECT_EQ(cache.find(fp("e0"), "e0"), nullptr);
}

// ---- canonical key memo ----------------------------------------------------

/// Expects the memo's key to be the one a fresh canonicalization computes.
void expect_fresh(const core::CanonicalInstance& got,
                  const std::vector<phylo::Tree>& instance) {
  const core::CanonicalInstance want = core::canonicalize_instance(instance);
  EXPECT_EQ(got.encoding, want.encoding);
  EXPECT_EQ(got.fp, want.fp);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.relabel_invariant, want.relabel_invariant);
}

/// The instance with taxon i renamed to perm[i]: Newick out under labels
/// that carry the permutation, back in under dense labels.
std::vector<phylo::Tree> relabeled(const std::vector<phylo::Tree>& instance,
                                   const std::vector<std::size_t>& perm) {
  phylo::TaxonSet from, to;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    std::string from_name = "t";
    from_name += std::to_string(perm[i]);
    from.add(from_name);
    std::string to_name = "t";
    to_name += std::to_string(i);
    to.add(to_name);
  }
  std::vector<phylo::Tree> out;
  for (const phylo::Tree& tree : instance)
    out.push_back(phylo::parse_newick(phylo::to_newick(tree, from), to));
  return out;
}

/// The component instances an incremental session keys on the wallbench
/// pam-edits stream, as canonical_key_test.cpp builds them: 100 edits of the
/// three-block instance, each applied to the published matrix and reverted,
/// every enumerable component of both.
std::vector<std::vector<phylo::Tree>> pam_edit_components(
    std::size_t& n_taxa) {
  constexpr std::size_t kFloor = 3;
  benchutil::MultiComponentParams params;
  params.n_components = 3;
  params.min_taxa_per_component = 16;
  params.max_taxa_per_component = 20;
  params.loci_per_component = 3;
  params.missing_fraction = 0.55;
  params.min_taxa_per_locus = kFloor;
  params.seed = 3;
  auto ds = benchutil::make_multi_component(params);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t locus = ds.pam.add_locus();
    ds.pam.set_present(
        static_cast<phylo::TaxonId>((5 * i) % ds.pam.taxon_count()), locus);
  }
  n_taxa = ds.pam.taxon_count();
  benchutil::EditStreamParams ep;
  ep.n_edits = 1;
  ep.min_taxa = kFloor;
  ep.noop_fraction = 0.25;
  std::vector<std::vector<phylo::Tree>> out;
  const auto add = [&](const pam::Pam& pam) {
    const auto dec = analyze_pam(ds.species_tree, pam, kFloor);
    for (const Component& comp : dec.split.components)
      if (comp.enumerable)
        out.push_back(detail::subset_constraints(dec.constraints, comp));
  };
  for (std::uint64_t edit_seed = 1; edit_seed <= 100; ++edit_seed) {
    ep.seed = edit_seed;
    const incremental::PamDelta edit =
        benchutil::make_edit_stream(ds.species_tree, ds.pam, ep).front();
    pam::Pam pam = ds.pam;
    incremental::apply_edit(pam, edit, ds.species_tree.leaf_count());
    add(pam);
    incremental::apply_edit(
        pam,
        edit.kind == incremental::EditKind::kFillCell
            ? incremental::PamDelta::clear_cell(edit.taxon, edit.locus)
            : incremental::PamDelta::fill_cell(edit.taxon, edit.locus),
        ds.species_tree.leaf_count());
    add(pam);
  }
  return out;
}

// Every pam-edits component, a relabeled twin and a constraint-permuted
// twin of each: the memo's key equals a fresh canonicalization on its first
// sight and on every memo hit, through a memo small enough to churn.
TEST(KeyMemo, EqualsAFreshKeyOnPamEditComponents) {
  std::size_t n_taxa = 0;
  const auto components = pam_edit_components(n_taxa);
  ASSERT_EQ(components.size(), 600u);
  support::Rng rng(0x3e30ULL);
  ResultCache cache(64);
  for (std::size_t i = 0; i < components.size(); ++i) {
    SCOPED_TRACE(i);
    std::vector<std::size_t> perm(n_taxa);
    for (std::size_t t = 0; t < n_taxa; ++t) perm[t] = t;
    rng.shuffle(perm);
    std::vector<phylo::Tree> permuted = components[i];
    std::reverse(permuted.begin(), permuted.end());
    for (const auto& instance :
         {components[i], relabeled(components[i], perm), permuted}) {
      const auto first = cache.key(instance);
      expect_fresh(*first, instance);
      const auto again = cache.key(instance);
      EXPECT_EQ(again, first);  // a memo hit shares the stored key
      expect_fresh(*again, instance);
    }
    EXPECT_LE(cache.memoized_keys(), cache.capacity());
    if (HasFailure()) return;
  }
  EXPECT_EQ(cache.size(), 0u);  // keying stores no result
  EXPECT_EQ(cache.evictions(), 0u);
}

/// A 6-taxon tree grown from star {0, 1, 2}: taxon 3 on taxon 2's pendant
/// edge, 4 on 3's, and 5 on 4's, or with `nni` on the edge that 4's
/// junction shares with taxon 3, one NNI away. Both carry the same vertex
/// and edge ids and the same taxa; only adjacencies differ.
phylo::Tree grown(bool nni) {
  phylo::Tree t = phylo::Tree::star({0, 1, 2});
  phylo::InsertRecord rec =
      t.insert_leaf(3, t.vertex(t.leaf_of(2)).adj[0].edge);
  rec = t.insert_leaf(4, rec.leaf_edge);
  t.insert_leaf(5, nni ? rec.moved_edge : rec.leaf_edge);
  return t;
}

TEST(KeyMemo, OneLeafOrOneNniApartGetDifferentKeys) {
  phylo::TaxonSet taxa;
  for (int i = 0; i < 7; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    taxa.add(name);
  }
  const auto tree = [&](const char* newick) {
    return phylo::parse_newick(newick, taxa);
  };
  const phylo::Tree other = tree("((t2,t3),(t4,t6),(t0,t5));");
  const std::vector<phylo::Tree> base{grown(false), other};
  // Taxon 5's leaf renamed to 6, nothing else moved.
  const std::vector<phylo::Tree> one_leaf{
      tree("((t0,t1),(t2,t3),(t4,t5));"), other};
  const std::vector<phylo::Tree> one_leaf_twin{
      tree("((t0,t1),(t2,t3),(t4,t6));"), other};
  const std::vector<phylo::Tree> one_nni{grown(true), other};
  ASSERT_EQ(one_nni[0].vertex_capacity(), base[0].vertex_capacity());

  const std::vector<std::vector<phylo::Tree>> pairs[] = {
      {one_leaf, one_leaf_twin}, {base, one_nni}};
  for (const auto& pair : pairs) {
    ResultCache cache(8);
    const auto a = cache.key(pair[0]);
    const auto b = cache.key(pair[1]);
    expect_fresh(*a, pair[0]);
    expect_fresh(*b, pair[1]);
    EXPECT_TRUE(a->encoding != b->encoding || a->order != b->order);
    EXPECT_EQ(cache.memoized_keys(), 2u);
  }
}

TEST(KeyMemo, ChurnKeepsBoundAndEvictsTheStalest) {
  // Reverted edits repeat the published matrix's components: keep each
  // instance once (equal Newick text implies equal trees).
  std::size_t n_taxa = 0;
  std::vector<std::vector<phylo::Tree>> components;
  {
    phylo::TaxonSet labels;
    for (std::size_t t = 0; t < 64; ++t) {
      std::string name = "t";
      name += std::to_string(t);
      labels.add(name);
    }
    std::vector<std::string> seen;
    for (auto& instance : pam_edit_components(n_taxa)) {
      std::string text;
      for (const phylo::Tree& tree : instance)
        text += phylo::to_newick(tree, labels);
      if (std::find(seen.begin(), seen.end(), text) != seen.end()) continue;
      seen.push_back(std::move(text));
      components.push_back(std::move(instance));
    }
  }
  ASSERT_GE(components.size(), 51u);
  ResultCache cache(3);
  std::vector<std::shared_ptr<const core::CanonicalInstance>> held;
  for (std::size_t i = 0; i < 50; ++i) {
    held.push_back(cache.key(components[i]));
    EXPECT_LE(cache.memoized_keys(), 3u);
  }
  EXPECT_EQ(cache.memoized_keys(), 3u);
  // The entries' LRU rule: refreshing 47 makes 48 the stalest, so the next
  // new key evicts 48 and keeps 47 and 49.
  EXPECT_EQ(cache.key(components[47]), held[47]);
  cache.key(components[50]);
  EXPECT_EQ(cache.key(components[47]), held[47]);
  EXPECT_EQ(cache.key(components[49]), held[49]);
  const auto rekeyed = cache.key(components[48]);
  EXPECT_NE(rekeyed, held[48]);  // refined again, not served
  expect_fresh(*rekeyed, components[48]);
  // Keying moves no result entry.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(KeyMemo, ZeroCapacityKeysNothing) {
  std::size_t n_taxa = 0;
  const auto components = pam_edit_components(n_taxa);
  ResultCache cache(0);
  const auto key = cache.key(components[0]);
  expect_fresh(*key, components[0]);
  EXPECT_EQ(cache.memoized_keys(), 0u);

  // run_sharded at capacity 0 keys nothing and reports every shard as a
  // miss, as an uncached run of the same cache would.
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;
  const auto ds = benchutil::make_multi_component(p);
  for (int run = 0; run < 2; ++run) {
    const core::Result r = run_sharded(ds.constraints, {}, {}, &cache);
    EXPECT_EQ(r.cache.hits, 0u);
    EXPECT_EQ(r.cache.misses, r.shards.size());
    EXPECT_EQ(r.cache.evictions, 0u);
    EXPECT_EQ(r.cache.recomputed_components, 2u);
  }
  EXPECT_EQ(cache.memoized_keys(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// A state limit between the two components' sizes lets the smaller one
// finish and cuts the larger one short. A later run without the limit must
// reuse the finished component, enumerate the cut one again, and count
// what an uncached run counts.
TEST(ShardedCache, StoresOnlyFinishedShards) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;  // components of 3 and 1 states
  const auto ds = benchutil::make_multi_component(p);
  const core::Options opts{};
  const core::Result reference = run_sharded(ds.constraints, opts);
  ASSERT_EQ(reference.reason, core::StopReason::kCompleted);
  ASSERT_EQ(reference.shards.size(), 3u);  // two components, the residual
  const std::uint64_t states0 = reference.shards[0].intermediate_states;
  const std::uint64_t states1 = reference.shards[1].intermediate_states;
  ASSERT_GT(states0 > states1 ? states0 - states1 : states1 - states0, 1u);
  const std::size_t small = states0 < states1 ? 0 : 1;
  const std::size_t large = 1 - small;

  ResultCache cache(16);
  core::Options limited = opts;
  limited.stop.max_states = (states0 + states1) / 2;
  const core::Result cut = run_sharded(ds.constraints, limited, {}, &cache);
  ASSERT_EQ(cut.shards[small].reason, core::StopReason::kCompleted);
  ASSERT_EQ(cut.shards[large].reason, core::StopReason::kStateLimit);

  const core::Result again = run_sharded(ds.constraints, opts, {}, &cache);
  EXPECT_TRUE(again.shards[small].reused);
  EXPECT_FALSE(again.shards[large].reused);
  EXPECT_EQ(again.shards[large].reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.stand_trees, reference.stand_trees);
}

// A run with no stopping rule caches every shard it enumerates; a second
// run on the same cache expands no state and counts the same stand.
TEST(ShardedCache, SecondRunReusesEveryShard) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;
  const auto ds = benchutil::make_multi_component(p);
  const core::Options opts{};
  ResultCache cache(16);
  const core::Result first = run_sharded(ds.constraints, opts, {}, &cache);
  ASSERT_EQ(first.reason, core::StopReason::kCompleted);
  EXPECT_EQ(first.cache.hits, 0u);
  EXPECT_EQ(first.cache.recomputed_components, 2u);

  const core::Result again = run_sharded(ds.constraints, opts, {}, &cache);
  EXPECT_EQ(again.reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.stand_trees, first.stand_trees);
  EXPECT_EQ(again.cache.misses, 0u);
  EXPECT_EQ(again.cache.reused_components, 2u);
  EXPECT_EQ(again.cache.recomputed_states, 0u);
  EXPECT_EQ(again.cache.reused_states, first.cache.recomputed_states);
  ASSERT_EQ(again.shards.size(), first.shards.size());
  for (std::size_t i = 0; i < again.shards.size(); ++i) {
    if (again.shards[i].kind != core::ShardStats::Kind::kComponent) continue;
    EXPECT_TRUE(again.shards[i].reused) << "shard " << i;
    EXPECT_EQ(again.shards[i].stand_trees, first.shards[i].stand_trees)
        << "shard " << i;
  }
}

// count_exact follows the component sizes, not the path a shard took: a
// run served entirely from the cache flags the counts the run that filled
// it flagged, on two 6-taxon blocks, and on a 4- and 5-taxon pair does not.
TEST(ShardedCache, HitsKeepTheCountExactFlag) {
  for (const std::size_t min_taxa : {4, 6}) {
    benchutil::MultiComponentParams p;
    p.n_components = 2;
    p.min_taxa_per_component = min_taxa;
    p.max_taxa_per_component = min_taxa == 4 ? 5 : 6;
    p.loci_per_component = 3;
    p.missing_fraction = 0.4;
    p.seed = 3;
    const auto ds = benchutil::make_multi_component(p);
    SCOPED_TRACE(ds.name);
    ResultCache cache(16);
    const core::Result first = run_sharded(ds.constraints, {}, {}, &cache);
    ASSERT_EQ(first.reason, core::StopReason::kCompleted);
    EXPECT_EQ(first.count_exact, min_taxa == 4);
    const core::Result again = run_sharded(ds.constraints, {}, {}, &cache);
    EXPECT_EQ(again.cache.misses, 0u);
    EXPECT_EQ(again.stand_trees, first.stand_trees);
    EXPECT_EQ(again.count_exact, first.count_exact);
  }
}

// A tree limit cuts shards short too: the shard it stops is not stored,
// and a later run without the limit enumerates it again.
TEST(ShardedCache, TreeLimitedShardIsNotStored) {
  benchutil::MultiComponentParams p;
  p.n_components = 2;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 5;
  p.loci_per_component = 2;
  p.seed = 8;
  const auto ds = benchutil::make_multi_component(p);
  const core::Options opts{};
  const core::Result reference = run_sharded(ds.constraints, opts);
  ASSERT_EQ(reference.reason, core::StopReason::kCompleted);
  const std::uint64_t trees0 = reference.shards[0].stand_trees;
  const std::uint64_t trees1 = reference.shards[1].stand_trees;
  ASSERT_GT(trees0 > trees1 ? trees0 - trees1 : trees1 - trees0, 1u);
  const std::size_t small = trees0 < trees1 ? 0 : 1;
  const std::size_t large = 1 - small;

  ResultCache cache(16);
  core::Options limited = opts;
  limited.stop.max_stand_trees = (trees0 + trees1) / 2;
  const core::Result cut = run_sharded(ds.constraints, limited, {}, &cache);
  ASSERT_EQ(cut.shards[small].reason, core::StopReason::kCompleted);
  ASSERT_EQ(cut.shards[large].reason, core::StopReason::kTreeLimit);

  const core::Result again = run_sharded(ds.constraints, opts, {}, &cache);
  EXPECT_TRUE(again.shards[small].reused);
  EXPECT_FALSE(again.shards[large].reused);
  EXPECT_EQ(again.shards[large].stand_trees,
            reference.shards[large].stand_trees);
  EXPECT_EQ(again.reason, core::StopReason::kCompleted);
  EXPECT_EQ(again.stand_trees, reference.stand_trees);
}

}  // namespace
}  // namespace gentrius::decompose
