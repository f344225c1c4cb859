// Terrace: the per-thread Gentrius state.
//
// Mirrors the Terrace class of the paper's §III-B: the agile tree, the
// constraint trees (shared, read-only, via Problem) and the double-edge
// mappings between agile-tree branches and common-subtree branches. Every
// thread owns one instance and performs all taxon insertions/removals on it;
// nothing here is thread-safe by design (paper: "each thread exclusively
// works on its own copy of the agile tree").
//
// Mapping machinery (paper §II-A, supplement of Chernomor et al. 2023): for
// constraint tree T_i with common taxa C = inserted ∩ Y_i (|C| >= 2), every
// edge of a binary tree maps onto exactly one edge of the common subtree
// S = agile|C. We identify S-edges by a canonical 64-bit XOR hash of the
// C-taxa on one side (side-symmetric via min(h, h ^ H_C)), rooted at the
// lowest-id common taxon; edges with no common taxa below inherit the key
// at their attachment point. One DFS over the agile tree keys every agile
// edge, one DFS over T_i keys every T_i edge, among them the attachment edge
// ê_i(x) of every not-yet-inserted taxon x in Y_i; x is admissible on an
// agile edge iff the keys agree for every constraining i. Those two sweeps (rebuild_constraint)
// run only to build a mapping; afterwards an insertion or removal of one of
// T_i's own taxa is applied to the mapping in place (see below).
//
// Hot-path engineering (see docs/PERFORMANCE.md):
//  * Keys are interned per rebuild into dense slot ids via a scratch
//    KeyMap; all steady-state bookkeeping — per-slot preimage counts,
//    intrusive preimage lists threaded through edge-indexed link arrays,
//    admissibility probes — is slot-indexed array arithmetic, no hashing.
//    Multi-constraint admissible sets walk the smallest constraint's
//    preimage list and probe the others, never a full edge scan.
//  * Mapping DFS passes run over flattened traversals (preorder position
//    arrays). Constraint trees are static, so their traversal is cached per
//    DFS root; the agile structural pass is shared by all constraints
//    rebuilt at the same root in one ensure_mappings batch.
//  * Insertions and removals are strictly LIFO (the enumerator's DFS
//    discipline); remove() must receive the record of the most recent
//    insert(). The split records, the batched foreign-taxon updates and the
//    dancing-links remaining-taxa list all rely on this.
//  * Local maintenance of a constraint's own taxa (docs/ALGORITHM.md §3):
//    an admissible insertion of x in Y_i changes only the S-edge ê_i(x),
//    which splits into three at x's attachment point. insert() pushes a
//    pending SplitRecord; the next ensure_mappings re-slots just that
//    edge's preimage, walking it from x's leaf in the agile tree and in T_i
//    (one walk, run on both trees; the two ends of ê_i(x) are matched
//    between the walks by a boundary signature), and keeps the largest part
//    on the old slot; the matching remove() merges the two new slots back.
//    Until then, and for good when x was T_i's last open taxon (the
//    constraint is parked), the mapping treats x as a foreign taxon. The
//    foreign-taxon updates are batched the same way, so inserts undone
//    before the next choose (probes, replays rewound, the last taxon of a
//    collecting run) touch no mapping. Inadmissible insertions, insertions
//    at |C_i| = 2 (the one S-edge's preimage is the whole tree, so a
//    rebuild is cheaper than a split), and removals whose record was
//    discarded because the constraint went dirty in between, fall back to a
//    rebuild.
//  * Per-constraint mapping storage is one block, allocated on first
//    activation, so constraints that never reach |C| >= 2 with open taxa
//    cost no memory. Every member is a plain value, so a copied Terrace is
//    independent of the original and may run on another thread.
//  * The root check is the first mapping build (docs/ALGORITHM.md §2): a
//    constraint with open taxa agrees with the initial tree iff every T_i
//    edge got a slot. Only constraints with >= 4 common taxa and no open
//    taxon, which no build sweeps, get a separate cluster comparison.
//  * Counting without inserting (docs/ALGORITHM.md §2): a counting run's
//    last taxon needs only its admissible count (count_branches, no sorted
//    branch list), and a two-taxon frame whose taxa share no constraint
//    target needs only the second taxon's count plus one membership probe
//    per branch of the first (second_taxon_counts). Neither taxon is
//    inserted, so no split, merge or rebuild runs for them.
#pragma once

#include <cstdint>
#include <vector>

#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"
#include "phylo/tree.hpp"
#include "support/bitset.hpp"
#include "support/key_map.hpp"

namespace gentrius::core {

using phylo::EdgeId;
using phylo::InsertRecord;
using phylo::TaxonId;
using phylo::VertexId;
using phylo::kNoId;
using phylo::kNoTaxon;

class Terrace {
 public:
  /// incremental: maintain the double-edge mappings across insertions and
  /// removals. For a computed constraint that does not contain the taxon
  /// the two new edges provably map onto the same common-subtree edge as
  /// the split edge, an O(1) slot update; for one that contains it, the
  /// common-subtree edge the taxon attaches to is split in place (or the
  /// mapping parked, when the taxon was its last open one). Off = recompute
  /// every active constraint at every state, the cost profile the paper's
  /// future-work section measures at 15-30 % of total runtime.
  explicit Terrace(const Problem& problem, bool incremental = true);

  const phylo::Tree& agile() const noexcept { return agile_; }
  const Problem& problem() const noexcept { return *problem_; }

  std::size_t remaining_count() const noexcept { return remaining_count_; }
  /// The not-yet-inserted taxa in ascending order (materialized from the
  /// intrusive remaining list; intended for tests and diagnostics).
  std::vector<TaxonId> remaining() const;
  bool is_inserted(TaxonId x) const { return inserted_.test(x); }

  /// Outcome of selecting the next taxon at the current state.
  struct Choice {
    TaxonId taxon = kNoTaxon;
    bool complete = false;  ///< no taxa remain: current agile tree is a stand tree
    bool dead_end = false;  ///< some remaining taxon has no admissible branch
  };

  /// Dynamic taxon insertion (heuristic 2): evaluates the admissible-branch
  /// count of every remaining taxon and picks the winner per the variant —
  /// kMinBranches: fewest admissible branches (ties: lowest taxon id);
  /// kMostConstrained: most active constraint trees (ties: fewest branches).
  /// Fills `branches` with the winner's admissible branches. A zero count
  /// anywhere is a dead end regardless of variant; the *first* zero-count
  /// taxon in ascending id order is reported, exactly as a full scan would.
  /// Once a count of 1 is locked in under kMinBranches, later taxa are only
  /// screened for dead ends (an existence probe), never fully counted.
  Choice choose_dynamic(
      std::vector<EdgeId>& branches,
      Options::DynamicVariant variant = Options::DynamicVariant::kMinBranches);

  /// Static-order variant: the admissible branches of a *given* taxon.
  /// dead_end is set when the set is empty.
  Choice choose_static(TaxonId taxon, std::vector<EdgeId>& branches);

  /// The lowest-id open taxon; kNoTaxon when none remain.
  TaxonId first_remaining() const noexcept {
    return rem_next_[problem_->n_taxa];
  }

  /// Number of admissible branches of open taxon x, without collecting
  /// them (a counting run's last taxon: only the number is used).
  std::size_t count_branches(TaxonId x);

  /// The two-taxon corollary (docs/ALGORITHM.md §2). x and y are the last
  /// two open taxa and `branches` are x's admissible branches. Unless a
  /// constraint holding both has ê_i(x) = ê_i(y), fills counts[k] with the
  /// number of y's admissible branches once x is inserted on branches[k]
  /// — |A_y|, plus 2 when branches[k] is in A_y — and returns true;
  /// otherwise returns false, and x must be inserted to count y.
  bool second_taxon_counts(TaxonId x, const std::vector<EdgeId>& branches,
                           std::vector<std::uint32_t>& counts);

  /// Inserts taxon x on agile edge e (must be admissible; unchecked here).
  InsertRecord insert(TaxonId x, EdgeId e);

  /// Exact inverse of the matching insert. Insert/remove pairs must nest
  /// LIFO (the record of the most recent live insert).
  void remove(const InsertRecord& rec);

  /// Checks the root invariant: agile|C_i == T_i|C_i for every constraint.
  /// Must hold before enumeration starts; when it fails the stand is empty.
  /// Call it at the initial state. It performs the first mapping build (the
  /// one the first choose would make), so selection_stats() counts those
  /// rebuilds even when the verdict is false; a second call at the same
  /// state rebuilds nothing and returns the same verdict. A constraint with
  /// open taxa agrees iff every edge of T_i keys an agile S-edge; one with
  /// >= 4 common taxa and no open taxon, which the build does not sweep, is
  /// compared by clusters_agree.
  bool initial_state_consistent();

  // ---- introspection (tests, benchmarks, run reports) ---------------------

  /// Cumulative counters of selection work; every driver, the virtual-time
  /// simulator included, sums the final totals of its workers into
  /// core::Result::selection.
  using SelectionStats = core::SelectionStats;
  const SelectionStats& selection_stats() const noexcept { return stats_; }

  /// Bytes currently allocated for constraint i's mapping storage: the
  /// capacity of its mapping block (edge and T_i-edge slots, preimage
  /// lists, target slots) plus its traversal and split records. Zero until
  /// the constraint first activates; never-activated constraints stay at
  /// zero for the lifetime of the terrace.
  std::size_t constraint_storage_bytes(std::size_t i) const;
  /// Bytes currently allocated for per-constraint mapping storage.
  std::size_t mapping_storage_bytes() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Flattened DFS traversal: preorder positions with parents before
  /// children; position 0 is the root leaf. Sweeping these arrays replaces
  /// pointer-chasing the tree during mapping rebuilds. Kept as parallel
  /// arrays deliberately: an AoS TravNode variant measured ~40 % slower on
  /// BM_FullStateExpansion (the sweeps read one field at a time, so packing
  /// defeats the per-field streaming).
  struct FlatTraversal {
    TaxonId root = kNoTaxon;  ///< root leaf's taxon; kNoTaxon = not built
    std::vector<std::uint32_t> parent_pos;
    std::vector<EdgeId> edge;
    std::vector<TaxonId> taxon;
  };

  struct TravItem {
    VertexId v = kNoId;
    std::uint32_t parent_pos = 0;
    EdgeId pedge = kNoId;
  };

  /// Record of the insertion of x into constraint i's own taxa, pushed by
  /// insert(x) and consumed by the matching remove(). It starts pending
  /// (the mapping treats x as a foreign taxon); ensure_mappings applies it
  /// as a split, which keeps the split S-edge's slot on its largest part and
  /// hands the two new slots n_slots_-2 and n_slots_-1 to the others.
  struct SplitRecord {
    TaxonId taxon = kNoTaxon;
    std::uint32_t slot = kNoSlot;  ///< slot of ê_i(x) before the split
    VertexId cmedian = kNoId;      ///< T_i vertex x attaches at; kNoId: pending
  };

  /// Preorder walk over the preimage of one S-edge (the edges whose slot is
  /// s), rooted at the pendant edge of a leaf. Position k holds the region
  /// edge edge[k], its endpoint far[k] away from the start leaf and the
  /// position parent[k] of the edge entering its near endpoint; a subtree is
  /// the position range [k, k + size[k]). The walk stops at the two ends of
  /// the S-edge and identifies them by signature: a C-leaf by its taxon
  /// (tagged), an S-node by the smaller of its two other edges' slots.
  /// part[j] is the median's child position toward end j; the rest of the
  /// region is the start leaf's part.
  struct RegionWalk {
    std::vector<EdgeId> edge;
    std::vector<VertexId> far;
    std::vector<std::uint32_t> parent, depth, size;
    std::uint64_t sig[2] = {0, 0};
    std::uint32_t part[2] = {0, 0};
    VertexId median = kNoId;
  };

  void ensure_mappings();
  void ensure_constraint_storage(std::size_t i);
  void rebuild_constraint(std::size_t i, TaxonId root);
  /// (Re)builds `out` as the flat traversal of `tree` rooted at the leaf of
  /// taxon `root`; `stack` is scratch.
  static void build_traversal(const phylo::Tree& tree, TaxonId root,
                              FlatTraversal& out,
                              std::vector<TravItem>& stack);
  /// Walks the preimage region of slot s from leaf `start`; in_c(t) tells
  /// whether a reached leaf is an end (a taxon of the common set). False
  /// when the region does not have the shape of one S-edge's preimage.
  template <typename InC>
  bool walk_region(const phylo::Tree& tree, const std::uint32_t* slot,
                   std::uint32_t s, VertexId start, InC in_c, RegionWalk& w);
  /// Applies constraint i's pending records in insertion order, or marks it
  /// dirty when one of them cannot be applied.
  void apply_pending(std::size_t i);
  /// Splits ê_i(x) in place for the pending record r of taxon x and fills
  /// in r. False when x's insertion was inadmissible or the walks disagree;
  /// the caller then falls back to a rebuild.
  bool split_constraint(std::size_t i, SplitRecord& r);
  /// Exact inverse of split_constraint, consuming its record.
  void merge_constraint(std::size_t i, const SplitRecord& r);
  /// Invalidates constraint i's mapping until the next ensure_mappings; its
  /// split records describe the old mapping and are dropped.
  void mark_dirty(std::size_t i);
  /// Day's cluster comparison (Day 1985) of agile|C_i with T_i|C_i: exact,
  /// linear in the two trees, and independent of the mappings.
  bool clusters_agree(std::size_t i) const;
  /// Expensive invariant: constraint i's agile and T_i edge partitions and
  /// its open-taxon targets equal what rebuild_constraint would produce, up
  /// to slot relabeling.
  bool mapping_matches_rebuild(std::size_t i) const;
  /// Expensive invariants of the two counting paths: count_branches agrees
  /// with collect_branches, and second_taxon_counts with inserting x on
  /// each branch, counting y and removing x again.
  bool count_matches_collect(TaxonId x, std::size_t count);
  bool second_counts_match_inserts(TaxonId x, TaxonId y,
                                   const std::vector<EdgeId>& branches,
                                   const std::vector<std::uint32_t>& counts);
  /// Exact number of admissible branches for x (mappings must be current).
  std::size_t admissible_count(TaxonId x);
  /// Whether x has at least one admissible branch (early-exit probe).
  bool has_admissible(TaxonId x);
  /// x's admissible branches, ascending.
  void collect_branches(TaxonId x, std::vector<EdgeId>& out);
  /// Calls visit(e) for every admissible branch e of the gathered taxon, in
  /// preimage-list order, until visit returns false: walks the smallest
  /// active constraint's preimage list and probes the others. Needs at
  /// least one active constraint; with one, it visits that preimage list.
  template <typename Visit>
  void for_each_admissible(Visit&& visit);
  /// Active constraint slots of x: |C_i| >= 2. Fills scratch_js_ plus the
  /// probe caches (edge-slot sections and x's target slots).
  void gather_constraints(TaxonId x);

  // Intrusive preimage-list maintenance for constraint i, slot s.
  void preimage_push(std::size_t i, std::uint32_t s, EdgeId e);
  void preimage_unlink(std::size_t i, std::uint32_t s, EdgeId e);

  /// Constraint i's mapping: the sections of its block (mapping_[i]),
  /// recomputed from the block on every call and never stored. edge_slot[e]
  /// and target_slot[x] identify the common-subtree edge that agile edge e
  /// and open taxon x map onto (kNoSlot: none on the agile side);
  /// slot_count[s] is slot s's preimage size, and slot_head plus the link
  /// arrays thread its preimage list through edge ids; cslot[f] is the slot
  /// of T_i edge f (kNoSlot: its S-edge has no agile preimage), and an open
  /// taxon's target is the slot of its pendant edge.
  template <typename U>
  struct Mapping {
    U* edge_slot;
    U* target_slot;
    U* slot_count;
    U* slot_head;
    U* link_next;
    U* link_prev;
    U* cslot;
  };
  Mapping<std::uint32_t> mapping(std::size_t i) noexcept {
    return sections(mapping_[i].data());
  }
  Mapping<const std::uint32_t> mapping(std::size_t i) const noexcept {
    return sections(mapping_[i].data());
  }
  /// With E = max_edges_ and n = n_taxa: edge slots at 0, targets at E,
  /// counts at E+n, heads at 2E+n, next links at 3E+n, prev links at 4E+n
  /// and T_i's edge slots (its edge capacity long) at 5E+n.
  template <typename U>
  Mapping<U> sections(U* block) const noexcept {
    const std::size_t e = max_edges_;
    U* const counts = block + e + problem_->n_taxa;
    return {block,          block + e,      counts,        counts + e,
            counts + 2 * e, counts + 3 * e, counts + 4 * e};
  }

  const Problem* problem_;
  phylo::Tree agile_;
  support::Bitset inserted_;

  // Remaining taxa as a dancing-links list in ascending id order: O(1)
  // unlink on insert, O(1) relink on the LIFO remove (the unlinked node
  // keeps its own neighbor pointers). Slot n_taxa is the sentinel.
  std::vector<TaxonId> rem_next_, rem_prev_;
  std::size_t remaining_count_ = 0;

  // Per-constraint incremental bookkeeping.
  std::vector<std::uint32_t> common_count_;     // |inserted ∩ Y_i|
  std::vector<std::uint32_t> remaining_in_;     // |Y_i \ inserted|
  std::vector<char> active_;                    // usable mapping this state

  // Mapping state. computed_[i]: the slot arrays hold a valid mapping for
  // constraint i; dirty_[i]: constraint must be recomputed at the next
  // ensure_mappings (its common taxon set changed and the mapping could not
  // be updated in place).
  bool incremental_ = true;
  std::vector<char> computed_;
  std::vector<char> dirty_;
  std::size_t max_edges_ = 0;  // agile edge-capacity bound, fixed at build

  // Slot-interned mapping storage: one block per constraint, empty until
  // the constraint first activates, read through mapping(i). Every rebuild
  // sets it, and splits and merges maintain it in place.
  std::vector<std::vector<std::uint32_t>> mapping_;
  std::vector<std::uint32_t> n_slots_;  // live slots
  support::KeyMap slot_map_;            // scratch key -> slot+1, per rebuild

  // splits_[i]: LIFO SplitRecords of constraint i's own taxa inserted since
  // its last rebuild, applied ones below the pending_[i] pending ones.
  std::vector<std::vector<SplitRecord>> splits_;
  std::vector<std::uint32_t> pending_;
  // Inserts since the last ensure_mappings, whose foreign-taxon slot update
  // has not reached the clean constraints yet; a remove before the next
  // ensure_mappings pops its insert here and touches no mapping.
  std::vector<InsertRecord> unflushed_;
  RegionWalk awalk_, cwalk_;  // split scratch: agile side, T_i side
  support::Bitset deferred_;  // apply_pending scratch: still-pending taxa

  // Flat traversals: constraint-side cached per constraint (static trees,
  // invalidated only when the DFS root changes); agile-side rebuilt on
  // demand and shared across same-root rebuilds in one batch.
  std::vector<FlatTraversal> ctrav_;
  FlatTraversal atrav_;
  std::vector<std::pair<TaxonId, std::uint32_t>> rebuild_order_;  // scratch
  std::vector<TravItem> trav_stack_;  // traversal and walk scratch

  SelectionStats stats_;

  // Mapping-sweep scratch, indexed by traversal position (parallel arrays,
  // same rationale as FlatTraversal).
  std::vector<std::uint64_t> xorv_;
  std::vector<std::uint32_t> cnt_;
  std::vector<std::uint64_t> ctxk_;
  std::vector<std::uint32_t> ctxs_;
  // C_i = Y_i ∩ inserted of the constraint currently being rebuilt,
  // materialized once per rebuild by the fused restrict_and_count kernel so
  // the per-node membership test in both sweeps is a single bit probe.
  support::Bitset common_scratch_;

  // Probe caches filled by gather_constraints(x): the active constraint
  // slots of x, plus — for the admissibility inner loop — each one's
  // edge-slot section and x's target slot, so a probe is one indexed load
  // and compare with no double indirection. The section pointers are the
  // only pointers into a mapping block that the Terrace keeps; they are
  // read only after the gather that set them (a copy's still point into
  // the original's blocks until its first gather).
  std::vector<std::uint32_t> scratch_js_;
  std::vector<const std::uint32_t*> scratch_eslot_;
  std::vector<std::uint32_t> scratch_target_;
};

}  // namespace gentrius::core
