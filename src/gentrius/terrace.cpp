#include "gentrius/terrace.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/check.hpp"

namespace gentrius::core {

namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Terrace::Terrace(const Problem& problem, bool incremental)
    : arena_(std::make_shared<support::Arena>()),
      problem_(&problem),
      agile_(problem.constraints[problem.initial_constraint]),
      inserted_(problem.n_taxa),
      incremental_(incremental),
      slot_map_(64, arena_),
      journal_(support::ArenaAllocator<MutEvent>(arena_)),
      xorv_(support::ArenaAllocator<std::uint64_t>(arena_)),
      cnt_(support::ArenaAllocator<std::uint32_t>(arena_)),
      ctxk_(support::ArenaAllocator<std::uint64_t>(arena_)),
      ctxs_(support::ArenaAllocator<std::uint32_t>(arena_)),
      scratch_js_(support::ArenaAllocator<std::uint32_t>(arena_)),
      scratch_eslot_(support::ArenaAllocator<const std::uint32_t*>(arena_)),
      scratch_target_(support::ArenaAllocator<std::uint32_t>(arena_)) {
  agile_.reserve_for_leaves(problem.all_taxa.count());

  for (const TaxonId t : agile_.taxa()) inserted_.set(t);

  // Remaining-taxa dancing-links list, ascending, sentinel at n_taxa.
  const TaxonId sentinel = static_cast<TaxonId>(problem.n_taxa);
  rem_next_.assign(problem.n_taxa + 1, sentinel);
  rem_prev_.assign(problem.n_taxa + 1, sentinel);
  TaxonId prev = sentinel;
  for (const TaxonId t : problem.missing_taxa) {
    rem_next_[prev] = t;
    rem_prev_[t] = prev;
    prev = t;
  }
  rem_next_[prev] = sentinel;
  rem_prev_[sentinel] = prev;
  remaining_count_ = problem.missing_taxa.size();

  const std::size_t m = problem.constraints.size();
  common_count_.resize(m);
  remaining_in_.resize(m);
  active_.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto& y = problem.constraint_taxa[i];
    common_count_[i] =
        static_cast<std::uint32_t>(y.intersection_count(inserted_));
    remaining_in_[i] =
        static_cast<std::uint32_t>(y.count()) - common_count_[i];
  }

  computed_.assign(m, 0);
  dirty_.assign(m, 1);
  dirty_mut_.assign(m, 0);

  const std::size_t n_total = problem.all_taxa.count();
  max_edges_ = n_total < 2 ? 1 : 2 * n_total;  // capacity bound
  // Per-constraint mapping storage stays empty until the constraint first
  // activates (ensure_constraint_storage); only the outer vectors are paid
  // up front. The inner vectors carry the arena allocator from day one, so
  // activation carves all six arrays out of one contiguous arena region.
  edge_slot_.assign(m, AVec<std::uint32_t>(
                           support::ArenaAllocator<std::uint32_t>(arena_)));
  target_slot_.assign(m, AVec<std::uint32_t>(
                             support::ArenaAllocator<std::uint32_t>(arena_)));
  slot_count_.assign(m, AVec<std::uint32_t>(
                            support::ArenaAllocator<std::uint32_t>(arena_)));
  slot_head_.assign(m, AVec<EdgeId>(support::ArenaAllocator<EdgeId>(arena_)));
  link_next_.assign(m, AVec<EdgeId>(support::ArenaAllocator<EdgeId>(arena_)));
  link_prev_.assign(m, AVec<EdgeId>(support::ArenaAllocator<EdgeId>(arena_)));
  n_slots_.assign(m, 0);
  ctrav_.resize(m);
  ckey_.assign(m, AVec<std::uint64_t>(
                      support::ArenaAllocator<std::uint64_t>(arena_)));
  have_ckeys_.assign(m, 0);
  cdelta_.resize(m);
  cslot_.assign(m, AVec<std::uint32_t>(
                       support::ArenaAllocator<std::uint32_t>(arena_)));
  splits_.resize(m);
  pending_.assign(m, 0);
  deferred_.resize(problem.n_taxa);

  cached_count_.assign(problem.n_taxa, 0);
  cache_mut_.assign(problem.n_taxa, 0);
  cache_valid_.assign(problem.n_taxa, 0);
  common_scratch_.resize(problem.n_taxa);
  edge_gen_.assign(max_edges_, 0);
  // Ring must comfortably hold one full DFS path of insert events plus the
  // backtracking churn between two evaluations of the same taxon.
  journal_.resize(pow2_at_least(4 * n_total + 64));

  std::size_t max_vertices = 2 * n_total;  // agile bound
  for (const auto& t : problem.constraints)
    max_vertices = std::max(max_vertices, t.vertex_capacity() + 1);
  xorv_.resize(max_vertices);
  cnt_.resize(max_vertices);
  ctxk_.resize(max_vertices);
  ctxs_.resize(max_vertices);
  trav_stack_.reserve(max_vertices);
}

std::vector<TaxonId> Terrace::remaining() const {
  std::vector<TaxonId> out;
  out.reserve(remaining_count_);
  const TaxonId sentinel = static_cast<TaxonId>(problem_->n_taxa);
  for (TaxonId x = rem_next_[sentinel]; x != sentinel; x = rem_next_[x])
    out.push_back(x);
  return out;
}

void Terrace::ensure_constraint_storage(std::size_t i) {
  if (!edge_slot_[i].empty()) return;
  edge_slot_[i].assign(max_edges_, kNoSlot);
  target_slot_[i].assign(problem_->n_taxa, kNoSlot);
  slot_count_[i].assign(max_edges_, 0);
  slot_head_[i].assign(max_edges_, kNoId);
  link_next_[i].assign(max_edges_, kNoId);
  link_prev_[i].assign(max_edges_, kNoId);
  const std::size_t tree_edges = problem_->constraints[i].edge_capacity();
  ckey_[i].assign(tree_edges, 0);
  cslot_[i].assign(tree_edges, kNoSlot);
}

std::size_t Terrace::constraint_storage_bytes(std::size_t i) const {
  return edge_slot_[i].capacity() * sizeof(std::uint32_t) +
         target_slot_[i].capacity() * sizeof(std::uint32_t) +
         slot_count_[i].capacity() * sizeof(std::uint32_t) +
         slot_head_[i].capacity() * sizeof(EdgeId) +
         link_next_[i].capacity() * sizeof(EdgeId) +
         link_prev_[i].capacity() * sizeof(EdgeId) +
         ckey_[i].capacity() * sizeof(std::uint64_t) +
         cslot_[i].capacity() * sizeof(std::uint32_t) +
         splits_[i].capacity() * sizeof(SplitRecord) +
         cdelta_[i].capacity() * sizeof(std::int32_t) +
         ctrav_[i].parent_pos.capacity() * sizeof(std::uint32_t) +
         ctrav_[i].edge.capacity() * sizeof(EdgeId) +
         ctrav_[i].taxon.capacity() * sizeof(TaxonId);
}

std::size_t Terrace::mapping_storage_bytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < edge_slot_.size(); ++i)
    total += constraint_storage_bytes(i);
  return total;
}

void Terrace::preimage_push(std::size_t i, std::uint32_t s, EdgeId e) {
  auto& next = link_next_[i];
  auto& prev = link_prev_[i];
  EdgeId& head = slot_head_[i][s];
  next[e] = head;
  prev[e] = kNoId;
  if (head != kNoId) prev[head] = e;
  head = e;
}

void Terrace::preimage_unlink(std::size_t i, std::uint32_t s, EdgeId e) {
  auto& next = link_next_[i];
  auto& prev = link_prev_[i];
  const EdgeId p = prev[e];
  const EdgeId n = next[e];
  if (p != kNoId)
    next[p] = n;
  else
    slot_head_[i][s] = n;
  if (n != kNoId) prev[n] = p;
}

void Terrace::journal_push(EdgeId split_edge, std::int8_t sign) {
  journal_[mutation_count_ & (journal_.size() - 1)] =
      MutEvent{split_edge, edge_gen_[split_edge], sign};
  ++mutation_count_;
  if (mutation_count_ - journal_base_ > journal_.size())
    journal_base_ = mutation_count_ - journal_.size();
}

void Terrace::mark_dirty(std::size_t i) {
  dirty_[i] = 1;
  splits_[i].clear();
  pending_[i] = 0;
}

InsertRecord Terrace::insert(TaxonId x, EdgeId e) {
  GENTRIUS_DCHECK(!inserted_.test(x));
  const std::uint64_t ev = mutation_count_;
  const std::int32_t tok = static_cast<std::int32_t>(x) + 1;
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    ++common_count_[i];
    --remaining_in_[i];
    dirty_mut_[i] = ev;  // the common taxon set of T_i changed
    // The C_i ledger is maintained in both modes: recompute-mode rebuilds
    // also elide the constraint-side DFS when the net common set is
    // unchanged — for them that is the dominant case, since every
    // constraint rebuilds per state but only the inserted taxon's trees
    // actually change.
    auto& d = cdelta_[i];
    if (!d.empty() && d.back() == -tok)
      d.pop_back();  // cancels the matching remove: net C_i change is nil
    else
      d.push_back(tok);
    if (!incremental_ || !computed_[i] || dirty_[i]) {
      mark_dirty(i);
    } else {
      // Defer the split to the next ensure_mappings: until then the mapping
      // stays the one for C_i without x, extended like that of a constraint
      // x does not belong to. An insert undone before any choose costs
      // O(1), and a constraint whose last open taxon went in (inactive,
      // parked) never splits.
      splits_[i].push_back(SplitRecord{x, kNoSlot, kNoId});
      ++pending_[i];
      active_[i] = remaining_in_[i] > 0 ? 1 : 0;
    }
  }
  if (!incremental_) {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      dirty_[i] = 1;
      dirty_mut_[i] = ev;
    }
  }
  const InsertRecord rec = agile_.insert_leaf(x, e);
  if (incremental_) unflushed_.push_back(rec);
  inserted_.set(x);
  // Dancing-links unlink: x keeps its own neighbor pointers so the LIFO
  // remove() can relink in O(1).
  rem_next_[rem_prev_[x]] = rem_next_[x];
  rem_prev_[rem_next_[x]] = rem_prev_[x];
  --remaining_count_;
  atrav_.root = kNoTaxon;  // agile topology changed
  journal_push(e, +1);
  return rec;
}

void Terrace::remove(const InsertRecord& rec) {
  const TaxonId x = rec.taxon;
  const std::uint64_t ev = mutation_count_;
  const std::int32_t tok = static_cast<std::int32_t>(x) + 1;
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    --common_count_[i];
    ++remaining_in_[i];
    dirty_mut_[i] = ev;
    auto& d = cdelta_[i];
    if (!d.empty() && d.back() == tok)
      d.pop_back();
    else
      d.push_back(-tok);
    auto& undo = splits_[i];
    if (!incremental_ || !computed_[i] || dirty_[i] || undo.empty() ||
        undo.back().taxon != x) {
      mark_dirty(i);  // x's insert was not applied in place
      continue;
    }
    const SplitRecord r = undo.back();
    undo.pop_back();
    if (r.cmedian == kNoId) {
      --pending_[i];  // never applied
    } else {
      GENTRIUS_DCHECK(unflushed_.empty());
      merge_constraint(i, r);
    }
    active_[i] = 1;
  }
  if (!incremental_) {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      dirty_[i] = 1;
      dirty_mut_[i] = ev;
    }
  } else if (!unflushed_.empty()) {
    // No ensure_mappings since the insert: no mapping has seen it.
    GENTRIUS_DCHECK(unflushed_.back().leaf_edge == rec.leaf_edge);
    unflushed_.pop_back();
  } else {
    // Exact inverse of the foreign-taxon insert update (after a merge the
    // three edges share the split edge's slot again).
    const std::size_t m = problem_->constraints.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (!computed_[i] || dirty_[i]) continue;
      const std::uint32_t s = edge_slot_[i][rec.split_edge];
      preimage_unlink(i, s, rec.moved_edge);
      preimage_unlink(i, s, rec.leaf_edge);
      slot_count_[i][s] -= 2;
    }
  }
  agile_.remove_leaf(rec);
  // Both ids just went back to the free list; retire them so journal
  // replays can tell a later reuse apart from the occupant they recorded.
  ++edge_gen_[rec.leaf_edge];
  ++edge_gen_[rec.moved_edge];
  inserted_.reset(x);
  rem_next_[rem_prev_[x]] = x;
  rem_prev_[rem_next_[x]] = x;
  ++remaining_count_;
  atrav_.root = kNoTaxon;
  journal_push(rec.split_edge, -1);
#if GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS
  for (const std::uint32_t i : problem_->trees_of_taxon[x])
    GENTRIUS_EXPENSIVE_DCHECK(dirty_[i] || pending_[i] != 0 ||
                              !unflushed_.empty() ||
                              mapping_matches_rebuild(i));
#endif
}

void Terrace::build_traversal(const phylo::Tree& tree, TaxonId root,
                              FlatTraversal& out,
                              std::vector<TravItem>& stack) {
  out.root = root;
  out.parent_pos.clear();
  out.edge.clear();
  out.taxon.clear();
  const VertexId rootv = tree.leaf_of(root);
  GENTRIUS_DCHECK(rootv != kNoId);
  stack.clear();
  stack.push_back(TravItem{rootv, 0, kNoId});
  while (!stack.empty()) {
    const TravItem it = stack.back();
    stack.pop_back();
    const std::uint32_t pos = static_cast<std::uint32_t>(out.parent_pos.size());
    const auto& vx = tree.vertex(it.v);
    out.parent_pos.push_back(it.parent_pos);
    out.edge.push_back(it.pedge);
    out.taxon.push_back(vx.taxon);
    for (std::uint8_t a = 0; a < vx.degree; ++a) {
      if (vx.adj[a].edge == it.pedge) continue;  // back-edge to parent
      stack.push_back(TravItem{vx.adj[a].to, pos, vx.adj[a].edge});
    }
  }
}

void Terrace::rebuild_constraint(std::size_t i, TaxonId root) {
  ensure_constraint_storage(i);
  const auto& y = problem_->constraint_taxa[i];
  const auto& keys = problem_->taxon_keys;
  // Materialize C_i = Y_i ∩ inserted once per rebuild (fused word-parallel
  // pass); both DFS sweeps below then pay a single bitset probe per node
  // instead of two.
  const std::size_t n_common = y.restrict_and_count(inserted_, common_scratch_);
  GENTRIUS_DCHECK(n_common == common_count_[i]);
  (void)n_common;

  // ---- agile side: slot every agile edge -------------------------------
  if (atrav_.root != root) build_traversal(agile_, root, atrav_, trav_stack_);
  const std::size_t n = atrav_.parent_pos.size();
  // Zero-fill, then one reverse sweep folding in leaf keys and pushing the
  // subtree aggregate to the parent (children precede their parent in
  // reverse preorder, so a node is final when its own position is reached).
  std::fill_n(xorv_.begin(), n, 0);
  std::fill_n(cnt_.begin(), n, 0);
  for (std::size_t k = n; k-- > 1;) {
    const TaxonId t = atrav_.taxon[k];
    if (t != kNoTaxon && common_scratch_.test(t)) {
      cnt_[k] += 1;
      xorv_[k] ^= keys[t];
    }
    const std::uint32_t p0 = atrav_.parent_pos[k];
    cnt_[p0] += cnt_[k];
    xorv_[p0] ^= xorv_[k];
  }
  xorv_[0] ^= keys[root];  // the root leaf is common by construction
  ++cnt_[0];
  const std::uint64_t hc = xorv_[0];  // XOR over all of C

  slot_map_.clear();
  std::uint32_t n_slots = 0;
  auto& eslot = edge_slot_[i];
  auto& scount = slot_count_[i];
  auto& shead = slot_head_[i];
  auto& lnext = link_next_[i];
  auto& lprev = link_prev_[i];
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint32_t p = atrav_.parent_pos[k];
    std::uint64_t key;
    std::uint32_t s;
    if (cnt_[k] > 0) {
      // Canonical side-symmetric split hash of the below-side C-taxa.
      const std::uint64_t h = xorv_[k];
      const std::uint64_t hx = h ^ hc;
      key = h < hx ? h : hx;
      // cnt is monotone toward the root, so p is either the root or keyed;
      // chains of edges inside one common-subtree edge reuse the parent's
      // slot without touching the intern table.
      if (p != 0 && key == ctxk_[p]) {
        s = ctxs_[p];
      } else {
        std::uint32_t& v = slot_map_[key];
        if (v == 0) {
          s = n_slots++;
          scount[s] = 0;
          shead[s] = kNoId;
          v = s + 1;
        } else {
          s = v - 1;
        }
      }
    } else {
      // No common taxa below: the edge lies strictly inside the parent's
      // common-subtree edge.
      key = ctxk_[p];
      s = ctxs_[p];
    }
    ctxk_[k] = key;
    ctxs_[k] = s;
    const EdgeId e = atrav_.edge[k];
    eslot[e] = s;
    ++scount[s];
    lnext[e] = shead[s];
    lprev[e] = kNoId;
    if (shead[s] != kNoId) lprev[shead[s]] = e;
    shead[s] = e;
  }
  n_slots_[i] = n_slots;

  // ---- constraint side: slot every T_i edge and open-taxon target ------
  FlatTraversal& ct = ctrav_[i];
  auto& ckey = ckey_[i];
  if (have_ckeys_[i] == 0 || !cdelta_[i].empty() || ct.root != root) {
    // Key every T_i edge. When C_i and the DFS root match the last pass's,
    // the stored keys are unchanged and this sweep is skipped — the
    // dominant case when the enumerator steps a taxon to its next branch —
    // leaving only the re-probe below against the fresh agile interning.
    if (ct.root != root)
      build_traversal(problem_->constraints[i], root, ct, trav_stack_);
    const std::size_t nc = ct.parent_pos.size();
    std::fill_n(xorv_.begin(), nc, 0);
    std::fill_n(cnt_.begin(), nc, 0);
    for (std::size_t k = nc; k-- > 1;) {
      const TaxonId t = ct.taxon[k];
      if (t != kNoTaxon && common_scratch_.test(t)) {
        cnt_[k] += 1;
        xorv_[k] ^= keys[t];
      }
      const std::uint32_t p0 = ct.parent_pos[k];
      cnt_[p0] += cnt_[k];
      xorv_[p0] ^= xorv_[k];
    }
    xorv_[0] ^= keys[root];
    ++cnt_[0];
    GENTRIUS_DCHECK(xorv_[0] == hc);  // same C on both sides
    for (std::size_t k = 1; k < nc; ++k) {
      const std::uint32_t p = ct.parent_pos[k];
      std::uint64_t key;
      if (cnt_[k] > 0) {
        const std::uint64_t h = xorv_[k];
        const std::uint64_t hx = h ^ hc;
        key = h < hx ? h : hx;
      } else {
        key = ckey[ct.edge[p]];  // hangs inside the parent's S-edge
      }
      ckey[ct.edge[k]] = key;
    }
    have_ckeys_[i] = 1;
    cdelta_[i].clear();
  }
  auto& cs = cslot_[i];
  auto& tslot = target_slot_[i];
  for (std::size_t k = 1; k < ct.parent_pos.size(); ++k) {
    const EdgeId f = ct.edge[k];
    const EdgeId pf = ct.edge[ct.parent_pos[k]];
    std::uint32_t s;
    if (k > 1 && ckey[f] == ckey[pf]) {
      s = cs[pf];  // same S-edge as the parent edge: no probe
    } else {
      const std::uint32_t v = slot_map_.get(ckey[f], 0);
      s = v == 0 ? kNoSlot : v - 1;
    }
    cs[f] = s;
    const TaxonId t = ct.taxon[k];
    if (t != kNoTaxon && !inserted_.test(t)) tslot[t] = s;
  }
}

void Terrace::ensure_mappings() {
  const std::size_t m = problem_->constraints.size();
  // Treat every insert since the last call as a foreign taxon for every
  // clean constraint, in insertion order: the retained half of the split
  // edge keeps its slot, and the moved half plus the pendant edge attach
  // strictly inside the same common-subtree edge — same slot, preimage
  // grows by two. Replaying by edge id is exact on the current tree: a
  // later insert on one of these edges copies the slot just given to it.
  for (const InsertRecord& rec : unflushed_) {
    for (std::size_t i = 0; i < m; ++i) {
      if (!computed_[i] || dirty_[i]) continue;
      const std::uint32_t s = edge_slot_[i][rec.split_edge];
      edge_slot_[i][rec.moved_edge] = s;
      edge_slot_[i][rec.leaf_edge] = s;
      slot_count_[i][s] += 2;
      preimage_push(i, s, rec.moved_edge);
      preimage_push(i, s, rec.leaf_edge);
    }
  }
  unflushed_.clear();
  rebuild_order_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (!dirty_[i] && pending_[i] != 0 && active_[i]) {
      apply_pending(i);  // marks the constraint dirty when it cannot
      GENTRIUS_EXPENSIVE_DCHECK(dirty_[i] || mapping_matches_rebuild(i));
    }
    if (!dirty_[i]) continue;
    dirty_[i] = 0;
    const bool on = common_count_[i] >= 2 && remaining_in_[i] > 0;
    active_[i] = on ? 1 : 0;
    if (!on) {
      computed_[i] = 0;
      continue;
    }
    const TaxonId root = static_cast<TaxonId>(
        problem_->constraint_taxa[i].first_common(inserted_));
    rebuild_order_.emplace_back(root, static_cast<std::uint32_t>(i));
  }
  if (rebuild_order_.empty()) return;
  // Group same-root rebuilds so they share one agile structural pass.
  std::stable_sort(rebuild_order_.begin(), rebuild_order_.end());
  for (const auto& [root, i] : rebuild_order_) {
    rebuild_constraint(i, root);
    computed_[i] = 1;
    ++stats_.mappings_rebuilt;
  }
}

template <typename InC>
bool Terrace::walk_region(const phylo::Tree& tree, const std::uint32_t* slot,
                          std::uint32_t s, VertexId start, InC in_c,
                          RegionWalk& w) {
  constexpr std::uint64_t kLeafSig = std::uint64_t{1} << 32;
  constexpr std::uint32_t kNoPos = 0xffffffffu;
  w.edge.clear();
  w.far.clear();
  w.parent.clear();
  w.depth.clear();
  std::uint32_t ends[2] = {0, 0};
  std::uint32_t n_ends = 0;
  const phylo::Tree::HalfEdge pendant = tree.vertex(start).adj[0];
  if (slot[pendant.edge] != s) return false;
  trav_stack_.clear();
  trav_stack_.push_back(TravItem{pendant.to, kNoPos, pendant.edge});
  while (!trav_stack_.empty()) {
    const TravItem it = trav_stack_.back();
    trav_stack_.pop_back();
    const auto pos = static_cast<std::uint32_t>(w.edge.size());
    w.edge.push_back(it.pedge);
    w.far.push_back(it.v);
    w.parent.push_back(it.parent_pos);
    const std::uint32_t depth =
        it.parent_pos == kNoPos ? 0 : w.depth[it.parent_pos] + 1;
    w.depth.push_back(depth);
    const auto& vx = tree.vertex(it.v);
    std::uint64_t sig;
    if (vx.degree == 1) {
      if (!in_c(vx.taxon)) continue;  // hangs inside the S-edge
      sig = kLeafSig | vx.taxon;
    } else {
      phylo::Tree::HalfEdge o[2];
      int n_other = 0;
      for (std::uint8_t a = 0; a < vx.degree; ++a)
        if (vx.adj[a].edge != it.pedge) o[n_other++] = vx.adj[a];
      const bool in0 = slot[o[0].edge] == s;
      const bool in1 = slot[o[1].edge] == s;
      if (in0 && in1) {
        trav_stack_.push_back(TravItem{o[0].to, pos, o[0].edge});
        trav_stack_.push_back(TravItem{o[1].to, pos, o[1].edge});
        continue;
      }
      if (in0 || in1) return false;
      sig = std::min(slot[o[0].edge], slot[o[1].edge]);  // an S-node
    }
    if (n_ends == 2) return false;
    ends[n_ends] = pos;
    w.sig[n_ends] = sig;
    ++n_ends;
  }
  if (n_ends != 2 || w.depth[ends[0]] == 0 || w.depth[ends[1]] == 0)
    return false;
  const std::size_t n = w.edge.size();
  w.size.assign(n, 1);
  for (std::size_t k = n; k-- > 1;) w.size[w.parent[k]] += w.size[k];
  // The median of the start leaf and the two ends: climb both ends to the
  // children of their deepest common ancestor position.
  std::uint32_t a = ends[0];
  std::uint32_t b = ends[1];
  while (w.depth[a] > w.depth[b]) a = w.parent[a];
  while (w.depth[b] > w.depth[a]) b = w.parent[b];
  if (a == b) return false;
  while (w.parent[a] != w.parent[b]) {
    a = w.parent[a];
    b = w.parent[b];
  }
  w.part[0] = a;
  w.part[1] = b;
  w.median = w.far[w.parent[a]];
  return true;
}

namespace {

/// Calls fn(k) for every position of part j of a region walk: j < 2 is the
/// median's subtree toward end j, j == 2 the start leaf's side.
template <typename Walk, typename Fn>
void for_each_in_part(const Walk& w, int j, Fn&& fn) {
  if (j < 2) {
    const std::uint32_t c = w.part[j];
    for (std::uint32_t k = c; k < c + w.size[c]; ++k) fn(k);
    return;
  }
  const auto n = static_cast<std::uint32_t>(w.edge.size());
  for (std::uint32_t k = 0; k < n; ++k) {
    if (k == w.part[0] || k == w.part[1]) {
      k += w.size[k] - 1;
      continue;
    }
    fn(k);
  }
}

}  // namespace

void Terrace::apply_pending(std::size_t i) {
  auto& undo = splits_[i];
  const std::size_t first = undo.size() - pending_[i];
  for (std::size_t k = first; k < undo.size(); ++k)
    deferred_.set(undo[k].taxon);
  std::uint32_t common = common_count_[i] - pending_[i];  // |C| of the mapping
  std::size_t k = first;
  for (; k < undo.size(); ++k) {
    deferred_.reset(undo[k].taxon);
    // At |C_i| = 2 the one S-edge's preimage is the whole agile tree and all
    // of T_i, so a split and its merge would sweep both trees where one
    // rebuild does.
    if (common == 2 || !split_constraint(i, undo[k])) break;
    ++common;
  }
  if (k == undo.size()) {
    pending_[i] = 0;
    return;
  }
  for (; k < undo.size(); ++k) deferred_.reset(undo[k].taxon);
  mark_dirty(i);
}

bool Terrace::split_constraint(std::size_t i, SplitRecord& r) {
  const TaxonId x = r.taxon;
  const std::uint32_t s = target_slot_[i][x];
  const phylo::Tree& tree = problem_->constraints[i];
  const auto& y = problem_->constraint_taxa[i];
  // The mapping's common set is C_i without the taxa whose splits are still
  // deferred. Agile leaves are all inserted, so an end is a leaf of Y_i
  // outside that set; T_i's leaves are all in Y_i, so an end is an inserted
  // one outside it. x, the start, is never reached.
  auto in_y = [&](TaxonId t) { return y.test(t) && !deferred_.test(t); };
  auto in_c = [&](TaxonId t) {
    return inserted_.test(t) && !deferred_.test(t);
  };
  // The walk also checks admissibility: x's pendant edge must map onto its
  // target (an inadmissible probe fails here and rebuilds).
  if (!walk_region(agile_, edge_slot_[i].data(), s, agile_.leaf_of(x), in_y,
                   awalk_) ||
      !walk_region(tree, cslot_[i].data(), s, tree.leaf_of(x), in_c, cwalk_))
    return false;
  // Orient T_i's parts like the agile ones by their end signatures.
  bool swap;
  if (cwalk_.sig[0] == awalk_.sig[0] && cwalk_.sig[1] == awalk_.sig[1])
    swap = false;
  else if (cwalk_.sig[0] == awalk_.sig[1] && cwalk_.sig[1] == awalk_.sig[0])
    swap = true;
  else
    return false;

  // The largest agile part keeps slot s; the other two get fresh slots.
  const auto n = static_cast<std::uint32_t>(awalk_.edge.size());
  const std::uint32_t sz0 = awalk_.size[awalk_.part[0]];
  const std::uint32_t sz1 = awalk_.size[awalk_.part[1]];
  const std::uint32_t sz[3] = {sz0, sz1, n - sz0 - sz1};
  int keep = 2;
  if (sz[0] > sz[keep]) keep = 0;
  if (sz[1] > sz[keep]) keep = 1;
  std::uint32_t label[3];
  std::uint32_t fresh = n_slots_[i];
  auto& scount = slot_count_[i];
  for (int j = 0; j < 3; ++j) {
    if (j == keep) {
      label[j] = s;
      continue;
    }
    label[j] = fresh;
    scount[fresh] = 0;
    slot_head_[i][fresh] = kNoId;
    ++fresh;
  }
  n_slots_[i] = fresh;

  auto& eslot = edge_slot_[i];
  auto& cs = cslot_[i];
  auto& tslot = target_slot_[i];
  for (int j = 0; j < 3; ++j) {
    if (j == keep) continue;
    const std::uint32_t t = label[j];
    for_each_in_part(awalk_, j, [&](std::uint32_t k) {
      const EdgeId e = awalk_.edge[k];
      preimage_unlink(i, s, e);
      preimage_push(i, t, e);
      eslot[e] = t;
    });
    scount[s] -= sz[j];
    scount[t] = sz[j];
    const int jc = j < 2 && swap ? 1 - j : j;
    for_each_in_part(cwalk_, jc, [&](std::uint32_t k) {
      cs[cwalk_.edge[k]] = t;
      const auto& vx = tree.vertex(cwalk_.far[k]);
      if (vx.degree == 1 && !in_c(vx.taxon)) tslot[vx.taxon] = t;
    });
  }
  r.slot = s;
  r.cmedian = cwalk_.median;
  return true;
}

void Terrace::merge_constraint(std::size_t i, const SplitRecord& r) {
  const std::uint32_t s = r.slot;
  const phylo::Tree& tree = problem_->constraints[i];
  auto& eslot = edge_slot_[i];
  auto& scount = slot_count_[i];
  auto& shead = slot_head_[i];
  auto& lnext = link_next_[i];
  auto& lprev = link_prev_[i];
  auto& cs = cslot_[i];
  auto& tslot = target_slot_[i];
  // x's own target was never touched while it was inserted: walks and
  // rebuilds only write open taxa.
  GENTRIUS_DCHECK(tslot[r.taxon] == s);
  GENTRIUS_DCHECK(n_slots_[i] >= 2);
  for (std::uint32_t p = n_slots_[i] - 2; p < n_slots_[i]; ++p) {
    // Agile side: relabel p's preimage list and splice it onto s's.
    EdgeId last = kNoId;
    for (EdgeId e = shead[p]; e != kNoId; e = lnext[e]) {
      eslot[e] = s;
      last = e;
    }
    if (last != kNoId) {
      lnext[last] = shead[s];
      if (shead[s] != kNoId) lprev[shead[s]] = last;
      shead[s] = shead[p];
      scount[s] += scount[p];
    }
    // T_i side: the part is the subtree hanging off the median through its
    // one p-edge; relabeling as it goes keeps the walk from turning back.
    trav_stack_.clear();
    trav_stack_.push_back(TravItem{r.cmedian, 0, kNoId});
    while (!trav_stack_.empty()) {
      const auto& vx = tree.vertex(trav_stack_.back().v);
      trav_stack_.pop_back();
      if (vx.degree == 1 && !inserted_.test(vx.taxon)) tslot[vx.taxon] = s;
      for (std::uint8_t a = 0; a < vx.degree; ++a) {
        const EdgeId f = vx.adj[a].edge;
        if (cs[f] != p) continue;
        cs[f] = s;
        trav_stack_.push_back(TravItem{vx.adj[a].to, 0, f});
      }
    }
  }
  n_slots_[i] -= 2;
}

bool Terrace::mapping_matches_rebuild(std::size_t i) const {
  const auto& y = problem_->constraint_taxa[i];
  const auto& keys = problem_->taxon_keys;
  const phylo::Tree& tree = problem_->constraints[i];
  const TaxonId root = static_cast<TaxonId>(y.first_common(inserted_));
  std::vector<TravItem> stack;
  // Canonical S-edge key of every edge of t, indexed by edge id, from a
  // fresh DFS rooted at the same common taxon as rebuild_constraint's: the
  // side-symmetric hash of the C-taxa below, or the parent edge's key when
  // there are none.
  auto edge_keys = [&](const phylo::Tree& t) {
    FlatTraversal tr;
    build_traversal(t, root, tr, stack);
    const std::size_t n = tr.parent_pos.size();
    std::vector<std::uint64_t> below(n, 0), pkey(n, 0);
    std::vector<std::uint32_t> cnt(n, 0);
    for (std::size_t k = n; k-- > 1;) {
      const TaxonId u = tr.taxon[k];
      if (u != kNoTaxon && y.test(u) && inserted_.test(u)) {
        below[k] ^= keys[u];
        ++cnt[k];
      }
      below[tr.parent_pos[k]] ^= below[k];
      cnt[tr.parent_pos[k]] += cnt[k];
    }
    const std::uint64_t hc = below[0] ^ keys[root];
    std::vector<std::uint64_t> key(t.edge_capacity(), 0);
    for (std::size_t k = 1; k < n; ++k) {
      pkey[k] = cnt[k] > 0 ? std::min(below[k], below[k] ^ hc)
                           : pkey[tr.parent_pos[k]];
      key[tr.edge[k]] = pkey[k];
    }
    return key;
  };
  const auto akey = edge_keys(agile_);
  const auto ckey = edge_keys(tree);

  const std::uint32_t n_slots = n_slots_[i];
  std::vector<std::uint64_t> slot_key(n_slots, 0);
  std::vector<std::uint32_t> seen(n_slots, 0);
  std::unordered_map<std::uint64_t, std::uint32_t> key_slot;
  for (EdgeId e = 0; e < agile_.edge_capacity(); ++e) {
    if (!agile_.edge_alive(e)) continue;
    const std::uint32_t s = edge_slot_[i][e];
    if (s >= n_slots) return false;
    if (seen[s]++ == 0) {
      slot_key[s] = akey[e];
      if (!key_slot.emplace(akey[e], s).second) return false;
    } else if (slot_key[s] != akey[e]) {
      return false;
    }
  }
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    if (seen[s] == 0 || slot_count_[i][s] != seen[s]) return false;
    std::uint32_t listed = 0;
    for (EdgeId e = slot_head_[i][s]; e != kNoId; e = link_next_[i][e]) {
      if (edge_slot_[i][e] != s) return false;
      ++listed;
    }
    if (listed != seen[s]) return false;
  }
  auto expected = [&](std::uint64_t k) {
    const auto it = key_slot.find(k);
    return it == key_slot.end() ? kNoSlot : it->second;
  };
  for (VertexId v = 0; v < tree.vertex_capacity(); ++v) {
    if (!tree.vertex_alive(v) || tree.vertex(v).degree != 1) continue;
    const TaxonId t = tree.vertex(v).taxon;
    if (!inserted_.test(t) &&
        target_slot_[i][t] != expected(ckey[tree.vertex(v).adj[0].edge]))
      return false;
  }
  for (EdgeId f = 0; f < tree.edge_capacity(); ++f)
    if (tree.edge_alive(f) && cslot_[i][f] != expected(ckey[f])) return false;
  return true;
}

void Terrace::gather_constraints(TaxonId x) {
  scratch_js_.clear();
  scratch_eslot_.clear();
  scratch_target_.clear();
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    if (!active_[i]) continue;
    // Active implies rebuilt (ensure_mappings ran), so the per-constraint
    // arrays exist; cache the edge-slot base pointer and x's target slot so
    // every probe below is one load + compare with no double indirection.
    scratch_js_.push_back(i);
    scratch_eslot_.push_back(edge_slot_[i].data());
    scratch_target_.push_back(target_slot_[i][x]);
  }
}

bool Terrace::edge_admissible(EdgeId e) const {
  for (std::size_t k = 0; k < scratch_eslot_.size(); ++k)
    if (scratch_eslot_[k][e] != scratch_target_[k]) return false;
  return true;
}

std::size_t Terrace::count_fresh(TaxonId x) {
  gather_constraints(x);
  if (scratch_js_.empty()) return agile_.edge_count();
  if (scratch_js_.size() == 1) {
    const std::uint32_t ts = scratch_target_[0];
    return ts == kNoSlot ? 0 : slot_count_[scratch_js_[0]][ts];
  }
  // Multiple constraints: walk the smallest constraint's preimage list and
  // probe the others through the gathered pointer caches.
  const std::size_t nj = scratch_js_.size();
  std::size_t best_k = 0;
  std::uint32_t best_n = 0xffffffffu;
  for (std::size_t k = 0; k < nj; ++k) {
    const std::uint32_t ts = scratch_target_[k];
    if (ts == kNoSlot) return 0;
    const std::uint32_t sc = slot_count_[scratch_js_[k]][ts];
    if (sc == 0) return 0;
    if (sc < best_n) {
      best_n = sc;
      best_k = k;
    }
  }
  std::size_t count = 0;
  const std::uint32_t best_i = scratch_js_[best_k];
  const auto& next = link_next_[best_i];
  for (EdgeId e = slot_head_[best_i][scratch_target_[best_k]]; e != kNoId;
       e = next[e]) {
    bool ok = true;
    for (std::size_t k = 0; k < nj; ++k) {
      if (k == best_k) continue;
      if (scratch_eslot_[k][e] != scratch_target_[k]) {
        ok = false;
        break;
      }
    }
    if (ok) ++count;
  }
  return count;
}

std::size_t Terrace::admissible_count(TaxonId x) {
  gather_constraints(x);
  if (scratch_js_.size() <= 1) {
    // Degenerate constraint degree: a fresh count is O(1) either way
    // (edge_count or one slot_count lookup), cheaper than any journal
    // replay — bypass the cache machinery entirely.
    std::size_t c;
    if (scratch_js_.empty()) {
      c = agile_.edge_count();
    } else {
      const std::uint32_t ts = scratch_target_[0];
      c = ts == kNoSlot ? 0 : slot_count_[scratch_js_[0]][ts];
    }
    cached_count_[x] = static_cast<std::uint32_t>(c);
    cache_mut_[x] = mutation_count_;
    cache_valid_[x] = 1;
    ++stats_.fresh_counts;
    return c;
  }
  bool valid = cache_valid_[x] != 0 && cache_mut_[x] >= journal_base_;
  if (valid) {
    for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
      if (dirty_mut_[i] >= cache_mut_[x]) {
        valid = false;
        break;
      }
    }
  }
  if (valid) {
    // Replay the journal window: an insert splits an edge into three that
    // agree on every constraint slot of x, so the admissible set gains (or
    // on remove, loses) exactly two edges iff the split edge is admissible.
    // Evaluating admissibility with the *current* slots is exact only for
    // events whose edge survived to the present: its slot is untouched
    // since x's constraints were last rebuilt, and paired insert/remove
    // events cancel. An event whose edge id died since (generation
    // mismatch) may have been recycled by a later insert — the id's slot
    // then reflects the new occupant, not the edge the event recorded — so
    // the window is unreplayable and we recount from scratch. (x's probe
    // caches were gathered above.)
    std::int64_t c = static_cast<std::int64_t>(cached_count_[x]);
    const std::size_t mask = journal_.size() - 1;
    bool replayable = true;
    for (std::uint64_t u = cache_mut_[x]; u < mutation_count_; ++u) {
      const MutEvent& evt = journal_[u & mask];
      if (edge_gen_[evt.edge] != evt.gen) {
        replayable = false;
        break;
      }
      if (edge_admissible(evt.edge)) c += 2 * evt.sign;
    }
    if (replayable) {
      GENTRIUS_DCHECK(c >= 0);
      // Cross-check against a full recount: O(edges) per refresh, so it is
      // off even in debug builds (which then exercise the cache as the
      // authoritative count, like release); enable with
      // -DGENTRIUS_EXPENSIVE_CHECKS=ON when touching the journal logic.
      GENTRIUS_EXPENSIVE_DCHECK(static_cast<std::size_t>(c) ==
                                count_fresh(x));
      cached_count_[x] = static_cast<std::uint32_t>(c);
      cache_mut_[x] = mutation_count_;
      ++stats_.cached_counts;
      return static_cast<std::size_t>(c);
    }
  }
  const std::size_t c = count_fresh(x);
  cached_count_[x] = static_cast<std::uint32_t>(c);
  cache_mut_[x] = mutation_count_;
  cache_valid_[x] = 1;
  ++stats_.fresh_counts;
  return c;
}

bool Terrace::has_admissible(TaxonId x) {
  gather_constraints(x);
  if (scratch_js_.empty()) return agile_.edge_count() > 0;
  const std::size_t nj = scratch_js_.size();
  std::size_t best_k = 0;
  std::uint32_t best_n = 0xffffffffu;
  for (std::size_t k = 0; k < nj; ++k) {
    const std::uint32_t ts = scratch_target_[k];
    if (ts == kNoSlot) return false;
    const std::uint32_t sc = slot_count_[scratch_js_[k]][ts];
    if (sc == 0) return false;
    if (sc < best_n) {
      best_n = sc;
      best_k = k;
    }
  }
  if (nj == 1) return true;  // nonzero preimage suffices
  const std::uint32_t best_i = scratch_js_[best_k];
  const auto& next = link_next_[best_i];
  for (EdgeId e = slot_head_[best_i][scratch_target_[best_k]]; e != kNoId;
       e = next[e]) {
    bool ok = true;
    for (std::size_t k = 0; k < nj; ++k) {
      if (k == best_k) continue;
      if (scratch_eslot_[k][e] != scratch_target_[k]) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

void Terrace::collect_branches(TaxonId x, std::vector<EdgeId>& out) {
  out.clear();
  gather_constraints(x);
  if (scratch_js_.empty()) {
    // Unconstrained taxon: every live edge, ascending.
    const std::size_t cap = agile_.edge_capacity();
    for (EdgeId e = 0; e < cap; ++e)
      if (agile_.edge_alive(e)) out.push_back(e);
    return;
  }
  const std::size_t nj = scratch_js_.size();
  std::size_t best_k = 0;
  std::uint32_t best_n = 0xffffffffu;
  for (std::size_t k = 0; k < nj; ++k) {
    const std::uint32_t ts = scratch_target_[k];
    if (ts == kNoSlot) return;
    const std::uint32_t sc = slot_count_[scratch_js_[k]][ts];
    if (sc == 0) return;
    if (sc < best_n) {
      best_n = sc;
      best_k = k;
    }
  }
  const std::uint32_t best_i = scratch_js_[best_k];
  const auto& next = link_next_[best_i];
  for (EdgeId e = slot_head_[best_i][scratch_target_[best_k]]; e != kNoId;
       e = next[e]) {
    bool ok = true;
    for (std::size_t k = 0; k < nj; ++k) {
      if (k == best_k) continue;
      if (scratch_eslot_[k][e] != scratch_target_[k]) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(e);
  }
  // Preimage lists are maintained in mutation order; the enumerator's branch
  // order contract (and the seed engine) is ascending edge id.
  std::sort(out.begin(), out.end());
}

Terrace::Choice Terrace::choose_dynamic(std::vector<EdgeId>& branches,
                                        Options::DynamicVariant variant) {
  branches.clear();
  Choice choice;
  if (remaining_count_ == 0) {
    choice.complete = true;
    return choice;
  }
  ensure_mappings();

  const TaxonId sentinel = static_cast<TaxonId>(problem_->n_taxa);
  std::size_t best_count = static_cast<std::size_t>(-1);
  std::size_t best_degree = 0;
  // Once a count of 1 is locked in under kMinBranches no later taxon can win
  // (ties break toward the lower id), but later zero counts must still be
  // detected — and attributed to the first zero in ascending order, exactly
  // as the full scan would — so the loop degrades to existence probes.
  bool existence_only = false;
  for (TaxonId x = rem_next_[sentinel]; x != sentinel; x = rem_next_[x]) {
    if (existence_only) {
      ++stats_.existence_checks;
      if (!has_admissible(x)) {
        choice.taxon = x;
        choice.dead_end = true;
        return choice;
      }
      continue;
    }
    const std::size_t c = admissible_count(x);  // gathers x's constraints
    if (c == 0) {
      choice.taxon = x;
      choice.dead_end = true;
      return choice;
    }
    bool better;
    if (variant == Options::DynamicVariant::kMostConstrained) {
      const std::size_t d = scratch_js_.size();
      better = d > best_degree || (d == best_degree && c < best_count);
      if (better) best_degree = d;
    } else {
      better = c < best_count;
    }
    if (better) {
      best_count = c;
      choice.taxon = x;
      if (variant == Options::DynamicVariant::kMinBranches && c == 1)
        existence_only = true;
    }
  }
  collect_branches(choice.taxon, branches);
  GENTRIUS_DCHECK(branches.size() == best_count);
  return choice;
}

Terrace::Choice Terrace::choose_static(TaxonId taxon,
                                       std::vector<EdgeId>& branches) {
  branches.clear();
  Choice choice;
  if (remaining_count_ == 0) {
    choice.complete = true;
    return choice;
  }
  ensure_mappings();
  choice.taxon = taxon;
  collect_branches(taxon, branches);
  if (branches.empty()) choice.dead_end = true;
  return choice;
}

bool Terrace::initial_state_consistent() const {
  // agile|C_i == T_i|C_i compared as cluster sets (Day 1985): root both
  // trees at one common taxon r, rank C_i \ {r} in the agile tree's
  // preorder, so that every agile cluster is a rank interval, store those
  // intervals in Day's two-array table, and require every cluster of T_i|C_i
  // to be a stored interval. Linear in the two trees per constraint.
  constexpr std::uint32_t kNone = 0xffffffffu;
  FlatTraversal tr;
  std::vector<TravItem> stack;
  std::vector<std::uint32_t> rank(problem_->n_taxa, kNone);
  std::vector<std::uint32_t> lo, hi, cnt, by_lo, by_hi;
  // Calls fn(lo, hi, count, parent_lo) for every non-trivial cluster of
  // tree|C_i (the C-taxa below a position whose parent is an S-node).
  auto clusters = [&](const phylo::Tree& tree, TaxonId root, auto&& fn) {
    build_traversal(tree, root, tr, stack);
    const std::size_t n = tr.parent_pos.size();
    lo.assign(n, kNone);
    hi.assign(n, 0);
    cnt.assign(n, 0);
    for (std::size_t k = n; k-- > 1;) {
      const TaxonId t = tr.taxon[k];
      if (t != kNoTaxon && rank[t] != kNone) {
        lo[k] = hi[k] = rank[t];
        cnt[k] = 1;
      }
      const std::uint32_t p = tr.parent_pos[k];
      cnt[p] += cnt[k];
      lo[p] = std::min(lo[p], lo[k]);
      hi[p] = std::max(hi[p], hi[k]);
    }
    for (std::size_t k = 1; k < n; ++k) {
      const std::uint32_t p = tr.parent_pos[k];
      if (cnt[k] >= 2 && cnt[p] > cnt[k] && !fn(lo[k], hi[k], cnt[k], lo[p]))
        return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < problem_->constraints.size(); ++i) {
    if (common_count_[i] < 4) continue;  // <= 3 common taxa: always consistent
    const auto& y = problem_->constraint_taxa[i];
    const TaxonId root = static_cast<TaxonId>(y.first_common(inserted_));
    build_traversal(agile_, root, tr, stack);
    std::uint32_t n_ranks = 0;
    for (std::size_t k = 1; k < tr.taxon.size(); ++k) {
      const TaxonId t = tr.taxon[k];
      if (t != kNoTaxon && y.test(t)) rank[t] = n_ranks++;
    }
    // Day's table: in a binary tree's cluster family, a cluster sharing its
    // left end with its parent cluster is the only one with its right end
    // among such clusters, and vice versa, so the two arrays are injective.
    by_lo.assign(n_ranks, kNone);
    by_hi.assign(n_ranks, kNone);
    std::size_t n_agile = 0;
    auto store = [&](std::uint32_t l, std::uint32_t h, std::uint32_t,
                     std::uint32_t parent_lo) {
      if (l == parent_lo)
        by_hi[h] = l;
      else
        by_lo[l] = h;
      ++n_agile;
      return true;
    };
    std::size_t n_tree = 0;
    auto stored = [&](std::uint32_t l, std::uint32_t h, std::uint32_t c,
                      std::uint32_t) {
      ++n_tree;
      return h - l + 1 == c && (by_lo[l] == h || by_hi[h] == l);
    };
    clusters(agile_, root, store);
    const bool found = clusters(problem_->constraints[i], root, stored);
    y.for_each_and(inserted_, [&](std::size_t t) { rank[t] = kNone; });
    if (!found || n_agile != n_tree) return false;
  }
  return true;
}

}  // namespace gentrius::core
