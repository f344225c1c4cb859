#include "gentrius/terrace.hpp"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "support/check.hpp"

namespace gentrius::core {

Terrace::Terrace(const Problem& problem, bool incremental)
    : problem_(&problem),
      agile_(problem.constraints[problem.initial_constraint]),
      inserted_(problem.n_taxa),
      incremental_(incremental) {
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

  const std::size_t n_total = problem.all_taxa.count();
  max_edges_ = n_total < 2 ? 1 : 2 * n_total;  // capacity bound
  // Per-constraint mapping blocks stay empty until the constraint first
  // activates (ensure_constraint_storage).
  mapping_.resize(m);
  n_slots_.assign(m, 0);
  ctrav_.resize(m);
  splits_.resize(m);
  pending_.assign(m, 0);
  deferred_.resize(problem.n_taxa);
  common_scratch_.resize(problem.n_taxa);

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
  static_assert(std::is_same_v<EdgeId, std::uint32_t> && kNoId == kNoSlot,
                "edge ids share the slot sections' type and empty value");
  auto& block = mapping_[i];
  if (!block.empty()) return;
  // Every section starts empty (kNoSlot, kNoId), the preimage counts at 0.
  block.assign(5 * max_edges_ + problem_->n_taxa +
                   problem_->constraints[i].edge_capacity(),
               kNoSlot);
  std::fill_n(mapping(i).slot_count, max_edges_, 0);
}

std::size_t Terrace::constraint_storage_bytes(std::size_t i) const {
  return mapping_[i].capacity() * sizeof(std::uint32_t) +
         splits_[i].capacity() * sizeof(SplitRecord) +
         ctrav_[i].parent_pos.capacity() * sizeof(std::uint32_t) +
         ctrav_[i].edge.capacity() * sizeof(EdgeId) +
         ctrav_[i].taxon.capacity() * sizeof(TaxonId);
}

std::size_t Terrace::mapping_storage_bytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < mapping_.size(); ++i)
    total += constraint_storage_bytes(i);
  return total;
}

void Terrace::preimage_push(std::size_t i, std::uint32_t s, EdgeId e) {
  const auto m = mapping(i);
  EdgeId& head = m.slot_head[s];
  m.link_next[e] = head;
  m.link_prev[e] = kNoId;
  if (head != kNoId) m.link_prev[head] = e;
  head = e;
}

void Terrace::preimage_unlink(std::size_t i, std::uint32_t s, EdgeId e) {
  const auto m = mapping(i);
  const EdgeId p = m.link_prev[e];
  const EdgeId n = m.link_next[e];
  if (p != kNoId)
    m.link_next[p] = n;
  else
    m.slot_head[s] = n;
  if (n != kNoId) m.link_prev[n] = p;
}

void Terrace::mark_dirty(std::size_t i) {
  dirty_[i] = 1;
  splits_[i].clear();
  pending_[i] = 0;
}

InsertRecord Terrace::insert(TaxonId x, EdgeId e) {
  GENTRIUS_DCHECK(!inserted_.test(x));
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    ++common_count_[i];
    --remaining_in_[i];
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
  if (!incremental_) std::fill(dirty_.begin(), dirty_.end(), 1);
  const InsertRecord rec = agile_.insert_leaf(x, e);
  if (incremental_) unflushed_.push_back(rec);
  inserted_.set(x);
  // Dancing-links unlink: x keeps its own neighbor pointers so the LIFO
  // remove() can relink in O(1).
  rem_next_[rem_prev_[x]] = rem_next_[x];
  rem_prev_[rem_next_[x]] = rem_prev_[x];
  --remaining_count_;
  atrav_.root = kNoTaxon;  // agile topology changed
  return rec;
}

void Terrace::remove(const InsertRecord& rec) {
  const TaxonId x = rec.taxon;
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    --common_count_[i];
    ++remaining_in_[i];
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
    std::fill(dirty_.begin(), dirty_.end(), 1);
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
      const auto map = mapping(i);
      const std::uint32_t s = map.edge_slot[rec.split_edge];
      preimage_unlink(i, s, rec.moved_edge);
      preimage_unlink(i, s, rec.leaf_edge);
      map.slot_count[s] -= 2;
    }
  }
  agile_.remove_leaf(rec);
  inserted_.reset(x);
  rem_next_[rem_prev_[x]] = x;
  rem_prev_[rem_next_[x]] = x;
  ++remaining_count_;
  atrav_.root = kNoTaxon;
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
  const auto map = mapping(i);
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
          map.slot_count[s] = 0;
          map.slot_head[s] = kNoId;
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
    map.edge_slot[e] = s;
    ++map.slot_count[s];
    map.link_next[e] = map.slot_head[s];
    map.link_prev[e] = kNoId;
    if (map.slot_head[s] != kNoId) map.link_prev[map.slot_head[s]] = e;
    map.slot_head[s] = e;
  }
  n_slots_[i] = n_slots;

  // ---- constraint side: slot every T_i edge and open-taxon target ------
  // The same sweep over T_i; a T_i edge whose S-edge has no agile preimage
  // gets kNoSlot.
  FlatTraversal& ct = ctrav_[i];
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
    std::uint32_t s;
    if (cnt_[k] > 0) {
      const std::uint64_t h = xorv_[k];
      const std::uint64_t hx = h ^ hc;
      key = h < hx ? h : hx;
      if (p != 0 && key == ctxk_[p]) {
        s = ctxs_[p];
      } else {
        const std::uint32_t v = slot_map_.get(key, 0);
        s = v == 0 ? kNoSlot : v - 1;
      }
    } else {
      key = ctxk_[p];  // hangs inside the parent's S-edge
      s = ctxs_[p];
    }
    ctxk_[k] = key;
    ctxs_[k] = s;
    map.cslot[ct.edge[k]] = s;
    const TaxonId t = ct.taxon[k];
    if (t != kNoTaxon && !inserted_.test(t)) map.target_slot[t] = s;
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
      const auto map = mapping(i);
      const std::uint32_t s = map.edge_slot[rec.split_edge];
      map.edge_slot[rec.moved_edge] = s;
      map.edge_slot[rec.leaf_edge] = s;
      map.slot_count[s] += 2;
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
  const auto map = mapping(i);
  const std::uint32_t s = map.target_slot[x];
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
  if (!walk_region(agile_, map.edge_slot, s, agile_.leaf_of(x), in_y,
                   awalk_) ||
      !walk_region(tree, map.cslot, s, tree.leaf_of(x), in_c, cwalk_))
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
  for (int j = 0; j < 3; ++j) {
    if (j == keep) {
      label[j] = s;
      continue;
    }
    label[j] = fresh;
    map.slot_count[fresh] = 0;
    map.slot_head[fresh] = kNoId;
    ++fresh;
  }
  n_slots_[i] = fresh;

  for (int j = 0; j < 3; ++j) {
    if (j == keep) continue;
    const std::uint32_t t = label[j];
    for_each_in_part(awalk_, j, [&](std::uint32_t k) {
      const EdgeId e = awalk_.edge[k];
      preimage_unlink(i, s, e);
      preimage_push(i, t, e);
      map.edge_slot[e] = t;
    });
    map.slot_count[s] -= sz[j];
    map.slot_count[t] = sz[j];
    const int jc = j < 2 && swap ? 1 - j : j;
    for_each_in_part(cwalk_, jc, [&](std::uint32_t k) {
      map.cslot[cwalk_.edge[k]] = t;
      const auto& vx = tree.vertex(cwalk_.far[k]);
      if (vx.degree == 1 && !in_c(vx.taxon)) map.target_slot[vx.taxon] = t;
    });
  }
  r.slot = s;
  r.cmedian = cwalk_.median;
  return true;
}

void Terrace::merge_constraint(std::size_t i, const SplitRecord& r) {
  const std::uint32_t s = r.slot;
  const phylo::Tree& tree = problem_->constraints[i];
  const auto map = mapping(i);
  // x's own target was never touched while it was inserted: walks and
  // rebuilds only write open taxa.
  GENTRIUS_DCHECK(map.target_slot[r.taxon] == s);
  GENTRIUS_DCHECK(n_slots_[i] >= 2);
  for (std::uint32_t p = n_slots_[i] - 2; p < n_slots_[i]; ++p) {
    // Agile side: relabel p's preimage list and splice it onto s's.
    EdgeId last = kNoId;
    for (EdgeId e = map.slot_head[p]; e != kNoId; e = map.link_next[e]) {
      map.edge_slot[e] = s;
      last = e;
    }
    if (last != kNoId) {
      map.link_next[last] = map.slot_head[s];
      if (map.slot_head[s] != kNoId) map.link_prev[map.slot_head[s]] = last;
      map.slot_head[s] = map.slot_head[p];
      map.slot_count[s] += map.slot_count[p];
    }
    // T_i side: the part is the subtree hanging off the median through its
    // one p-edge; relabeling as it goes keeps the walk from turning back.
    trav_stack_.clear();
    trav_stack_.push_back(TravItem{r.cmedian, 0, kNoId});
    while (!trav_stack_.empty()) {
      const auto& vx = tree.vertex(trav_stack_.back().v);
      trav_stack_.pop_back();
      if (vx.degree == 1 && !inserted_.test(vx.taxon))
        map.target_slot[vx.taxon] = s;
      for (std::uint8_t a = 0; a < vx.degree; ++a) {
        const EdgeId f = vx.adj[a].edge;
        if (map.cslot[f] != p) continue;
        map.cslot[f] = s;
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
  const auto tkey = edge_keys(tree);

  const auto map = mapping(i);
  const std::uint32_t n_slots = n_slots_[i];
  std::vector<std::uint64_t> slot_key(n_slots, 0);
  std::vector<std::uint32_t> seen(n_slots, 0);
  std::unordered_map<std::uint64_t, std::uint32_t> key_slot;
  for (EdgeId e = 0; e < agile_.edge_capacity(); ++e) {
    if (!agile_.edge_alive(e)) continue;
    const std::uint32_t s = map.edge_slot[e];
    if (s >= n_slots) return false;
    if (seen[s]++ == 0) {
      slot_key[s] = akey[e];
      if (!key_slot.emplace(akey[e], s).second) return false;
    } else if (slot_key[s] != akey[e]) {
      return false;
    }
  }
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    if (seen[s] == 0 || map.slot_count[s] != seen[s]) return false;
    std::uint32_t listed = 0;
    for (EdgeId e = map.slot_head[s]; e != kNoId; e = map.link_next[e]) {
      if (map.edge_slot[e] != s) return false;
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
        map.target_slot[t] != expected(tkey[tree.vertex(v).adj[0].edge]))
      return false;
  }
  for (EdgeId f = 0; f < tree.edge_capacity(); ++f)
    if (tree.edge_alive(f) && map.cslot[f] != expected(tkey[f])) return false;
  return true;
}

void Terrace::gather_constraints(TaxonId x) {
  scratch_js_.clear();
  scratch_eslot_.clear();
  scratch_target_.clear();
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    if (!active_[i]) continue;
    // Active implies rebuilt (ensure_mappings ran), so the block exists;
    // cache its edge-slot section and x's target slot so every probe below
    // is one load + compare with no double indirection.
    const auto map = mapping(i);
    scratch_js_.push_back(i);
    scratch_eslot_.push_back(map.edge_slot);
    scratch_target_.push_back(map.target_slot[x]);
  }
}

template <typename Visit>
void Terrace::for_each_admissible(Visit&& visit) {
  const std::size_t nj = scratch_js_.size();
  std::size_t best_k = 0;
  std::uint32_t best_n = 0xffffffffu;
  for (std::size_t k = 0; k < nj; ++k) {
    const std::uint32_t ts = scratch_target_[k];
    if (ts == kNoSlot) return;
    const std::uint32_t sc = mapping(scratch_js_[k]).slot_count[ts];
    if (sc == 0) return;
    if (sc < best_n) {
      best_n = sc;
      best_k = k;
    }
  }
  const auto best = mapping(scratch_js_[best_k]);
  for (EdgeId e = best.slot_head[scratch_target_[best_k]]; e != kNoId;
       e = best.link_next[e]) {
    bool ok = true;
    for (std::size_t k = 0; k < nj; ++k) {
      if (k == best_k) continue;
      if (scratch_eslot_[k][e] != scratch_target_[k]) {
        ok = false;
        break;
      }
    }
    if (ok && !visit(e)) return;
  }
}

std::size_t Terrace::admissible_count(TaxonId x) {
  ++stats_.fresh_counts;
  gather_constraints(x);
  if (scratch_js_.empty()) return agile_.edge_count();
  if (scratch_js_.size() == 1) {
    const std::uint32_t ts = scratch_target_[0];
    return ts == kNoSlot ? 0 : mapping(scratch_js_[0]).slot_count[ts];
  }
  std::size_t count = 0;
  for_each_admissible([&](EdgeId) {
    ++count;
    return true;
  });
  return count;
}

bool Terrace::has_admissible(TaxonId x) {
  gather_constraints(x);
  if (scratch_js_.empty()) return agile_.edge_count() > 0;
  bool found = false;
  for_each_admissible([&](EdgeId) {
    found = true;
    return false;
  });
  return found;
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
  for_each_admissible([&](EdgeId e) {
    out.push_back(e);
    return true;
  });
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

std::size_t Terrace::count_branches(TaxonId x) {
  GENTRIUS_DCHECK(!inserted_.test(x));
  ensure_mappings();
  const std::size_t count = admissible_count(x);
  GENTRIUS_EXPENSIVE_DCHECK(count_matches_collect(x, count));
  return count;
}

bool Terrace::second_taxon_counts(TaxonId x,
                                  const std::vector<EdgeId>& branches,
                                  std::vector<std::uint32_t>& counts) {
  GENTRIUS_DCHECK(remaining_count_ == 2 && !inserted_.test(x));
  const TaxonId y = first_remaining() == x ? rem_next_[x] : first_remaining();
  ensure_mappings();
  // A shared active constraint with ê_i(x) = ê_i(y) splits y's target when
  // x goes in, so y's count depends on where x goes. With distinct targets
  // the split leaves y's target and preimage alone, and every other
  // constraint of y extends by the foreign-taxon rule: the two new edges
  // join y's admissible set exactly when the split branch is in it.
  for (const std::uint32_t i : problem_->trees_of_taxon[x]) {
    if (active_[i] && problem_->constraint_taxa[i].test(y) &&
        mapping(i).target_slot[x] == mapping(i).target_slot[y])
      return false;
  }
  const auto base = static_cast<std::uint32_t>(admissible_count(y));
  // admissible_count left y's probe caches in scratch (gather_constraints).
  const std::size_t nj = scratch_js_.size();
  counts.resize(branches.size());
  for (std::size_t k = 0; k < branches.size(); ++k) {
    const EdgeId e = branches[k];
    bool in_y = true;
    for (std::size_t j = 0; j < nj && in_y; ++j)
      in_y = scratch_eslot_[j][e] == scratch_target_[j];
    counts[k] = base + (in_y ? 2 : 0);
  }
  GENTRIUS_EXPENSIVE_DCHECK(
      second_counts_match_inserts(x, y, branches, counts));
  return true;
}

bool Terrace::count_matches_collect(TaxonId x, std::size_t count) {
  std::vector<EdgeId> branches;
  collect_branches(x, branches);
  return branches.size() == count;
}

bool Terrace::second_counts_match_inserts(
    TaxonId x, TaxonId y, const std::vector<EdgeId>& branches,
    const std::vector<std::uint32_t>& counts) {
  // The counts and rebuilds the check makes itself stay out of the
  // selection stats.
  const SelectionStats stats = stats_;
  bool match = true;
  for (std::size_t k = 0; k < branches.size(); ++k) {
    const InsertRecord rec = insert(x, branches[k]);
    ensure_mappings();
    match = match && admissible_count(y) == counts[k];
    remove(rec);
  }
  stats_ = stats;
  return match;
}

bool Terrace::initial_state_consistent() {
  // The first mapping build is the check (docs/ALGORITHM.md §2): it gives a
  // T_i edge a slot iff the edge's split key is an agile split key, and two
  // binary trees on C_i with equal split sets are equal. The build sweeps
  // no constraint without open taxa, so Day's pass checks those; the
  // initial constraint is the agile tree itself.
  ensure_mappings();
  const std::size_t m = problem_->constraints.size();
  bool ok = true;
  for (std::size_t i = 0; i < m && ok; ++i) {
    // <= 3 common taxa: always consistent.
    if (common_count_[i] < 4 || i == problem_->initial_constraint) continue;
    if (!active_[i]) {
      ok = clusters_agree(i);  // no open taxon: no build sweeps it
      continue;
    }
    const phylo::Tree& tree = problem_->constraints[i];
    const std::uint32_t* const cs = mapping(i).cslot;
    for (EdgeId f = 0; f < tree.edge_capacity() && ok; ++f)
      ok = !tree.edge_alive(f) || cs[f] != kNoSlot;
  }
#if GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS
  bool day = true;
  for (std::size_t i = 0; i < m; ++i)
    day = day && (common_count_[i] < 4 || clusters_agree(i));
  GENTRIUS_EXPENSIVE_DCHECK(ok == day);
#endif
  return ok;
}

bool Terrace::clusters_agree(std::size_t i) const {
  // agile|C_i == T_i|C_i compared as cluster sets (Day 1985): root both
  // trees at one common taxon r, rank C_i \ {r} in the agile tree's
  // preorder, so that every agile cluster is a rank interval, store those
  // intervals in Day's two-array table, and require every cluster of T_i|C_i
  // to be a stored interval. Linear in the two trees.
  constexpr std::uint32_t kNone = 0xffffffffu;
  const auto& y = problem_->constraint_taxa[i];
  const TaxonId root = static_cast<TaxonId>(y.first_common(inserted_));
  FlatTraversal tr;
  std::vector<TravItem> stack;
  std::vector<std::uint32_t> rank(problem_->n_taxa, kNone);
  std::vector<std::uint32_t> lo, hi, cnt;
  // Calls fn(lo, hi, count, parent_lo) for every non-trivial cluster of
  // tree|C_i (the C-taxa below a position whose parent is an S-node), with
  // tr the tree's traversal from the root taxon.
  auto clusters = [&](auto&& fn) {
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
  build_traversal(agile_, root, tr, stack);
  std::uint32_t n_ranks = 0;
  for (std::size_t k = 1; k < tr.taxon.size(); ++k) {
    const TaxonId t = tr.taxon[k];
    if (t != kNoTaxon && y.test(t)) rank[t] = n_ranks++;
  }
  // Day's table: in a binary tree's cluster family, a cluster sharing its
  // left end with its parent cluster is the only one with its right end
  // among such clusters, and vice versa, so the two arrays are injective.
  std::vector<std::uint32_t> by_lo(n_ranks, kNone), by_hi(n_ranks, kNone);
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
  clusters(store);  // tr is still the agile traversal the ranks came from
  build_traversal(problem_->constraints[i], root, tr, stack);
  return clusters(stored) && n_agile == n_tree;
}

}  // namespace gentrius::core
