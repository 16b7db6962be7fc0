#include "bdd/bdd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "util/common.hpp"

namespace mps::bdd {

namespace {
constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFu;
/// log2 of every table's initial size; each doubles as it fills.
constexpr unsigned kInitialTableLog2 = 8;
}  // namespace

template <class Key>
Manager::Memo<Key>::Memo()
    : slots_(std::size_t{1} << kInitialTableLog2), shift_(64 - kInitialTableLog2) {}

template <class Key>
const NodeId* Manager::Memo<Key>::find(const Key& key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.key.empty()) return nullptr;
    if (slot.key == key) return &slot.result;
  }
}

template <class Key>
void Manager::Memo<Key>::insert(const Key& key, NodeId result) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    size_ = 0;
    for (const Slot& slot : old) {
      if (!slot.key.empty()) insert(slot.key, slot.result);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (!slots_[i].key.empty()) {
    if (slots_[i].key == key) return;
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{key, result};
  ++size_;
}

template <class Key>
void Manager::Memo<Key>::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

Manager::Manager(std::size_t num_vars) : num_vars_(num_vars) {
  nodes_.push_back({{kTerminalVar, kFalse, kFalse}, kFalse});  // 0 = false
  nodes_.push_back({{kTerminalVar, kTrue, kTrue}, kFalse});    // 1 = true
  rehash_unique(std::size_t{1} << kInitialTableLog2);
}

void Manager::rehash_unique(std::size_t num_buckets) {
  buckets_.assign(num_buckets, kFalse);
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(num_buckets));
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    Entry& e = nodes_[id];
    NodeId& head = buckets_[bucket(e.var, e.low, e.high)];
    e.next = head;
    head = id;
  }
}

NodeId Manager::make(std::uint32_t v, NodeId low, NodeId high) {
  if (low == high) return low;  // reduction rule
  NodeId& head = buckets_[bucket(v, low, high)];
  for (NodeId id = head; id != kFalse; id = nodes_[id].next) {
    const Entry& e = nodes_[id];
    if (e.var == v && e.low == low && e.high == high) return id;
  }
  if (max_nodes_ != 0 && nodes_.size() >= max_nodes_) {
    throw util::LimitError("bdd: node budget exceeded (" + std::to_string(max_nodes_) +
                           " nodes)");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({{v, low, high}, head});
  head = id;
  if (nodes_.size() > buckets_.size()) rehash_unique(2 * buckets_.size());
  return id;
}

void Manager::tick_op() {
  ++stats_.ops;
  if (max_ops_ != 0 && stats_.ops > max_ops_) {
    throw util::LimitError("bdd: operation budget exceeded (" + std::to_string(max_ops_) +
                           " steps)");
  }
}

NodeId Manager::var(std::uint32_t v) {
  MPS_ASSERT(v < num_vars_);
  return make(v, kFalse, kTrue);
}

NodeId Manager::nvar(std::uint32_t v) {
  MPS_ASSERT(v < num_vars_);
  return make(v, kTrue, kFalse);
}

NodeId Manager::top_var(NodeId f, NodeId g, NodeId h) const {
  std::uint32_t top = kTerminalVar;
  for (const NodeId x : {f, g, h}) {
    if (x > kTrue) top = std::min(top, nodes_[x].var);
  }
  return top;
}

NodeId Manager::ite(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const IteKey key{f, g, h};
  if (const NodeId* hit = ite_cache_.find(key)) {
    ++stats_.cache_hits;
    return *hit;
  }
  ++stats_.cache_misses;
  tick_op();

  const std::uint32_t v = top_var(f, g, h);
  auto cof = [&](NodeId x, bool value) -> NodeId {
    if (x <= kTrue || nodes_[x].var != v) return x;
    return value ? nodes_[x].high : nodes_[x].low;
  };
  const NodeId low = ite(cof(f, false), cof(g, false), cof(h, false));
  const NodeId high = ite(cof(f, true), cof(g, true), cof(h, true));
  const NodeId result = make(v, low, high);
  ite_cache_.insert(key, result);
  return result;
}

NodeId Manager::restrict(NodeId f, std::uint32_t v, bool value) {
  if (f <= kTrue) return f;
  const Node n = nodes_[f];
  if (n.var > v && n.var != kTerminalVar) return f;   // ordered: v not in support
  if (n.var == v) return value ? n.high : n.low;
  const OpKey key{restrict_op(v, value), f, 0, 0};
  if (const NodeId* hit = op_cache_.find(key)) {
    ++stats_.cache_hits;
    return *hit;
  }
  ++stats_.cache_misses;
  tick_op();
  const NodeId low = restrict(n.low, v, value);
  const NodeId high = restrict(n.high, v, value);
  const NodeId result = make(n.var, low, high);
  op_cache_.insert(key, result);
  return result;
}

NodeId Manager::restrict_nomemo(NodeId f, std::uint32_t v, bool value) {
  if (f <= kTrue) return f;
  const Node n = nodes_[f];
  if (n.var > v && n.var != kTerminalVar) return f;
  if (n.var == v) return value ? n.high : n.low;
  const NodeId low = restrict_nomemo(n.low, v, value);
  const NodeId high = restrict_nomemo(n.high, v, value);
  return make(n.var, low, high);
}

NodeId Manager::exists(NodeId f, std::uint32_t v) {
  return bdd_or(restrict(f, v, false), restrict(f, v, true));
}

NodeId Manager::forall(NodeId f, std::uint32_t v) {
  return bdd_and(restrict(f, v, false), restrict(f, v, true));
}

NodeId Manager::cube(const std::vector<std::uint32_t>& vars) {
  // Built bottom-up so the cube is linear no matter the input order.
  std::vector<std::uint32_t> sorted = vars;
  std::sort(sorted.begin(), sorted.end());
  NodeId c = kTrue;
  for (std::size_t i = sorted.size(); i-- > 0;) {
    MPS_ASSERT(sorted[i] < num_vars_);
    MPS_ASSERT(i == 0 || sorted[i - 1] != sorted[i]);
    c = make(sorted[i], kFalse, c);
  }
  return c;
}

NodeId Manager::exists_cube(NodeId f, NodeId cube) {
  if (f <= kTrue || cube == kTrue) return f;
  MPS_ASSERT(cube != kFalse);
  const Node n = nodes_[f];
  // Skip quantified variables above f's support: ∃x. f = f when x ∉ support.
  while (cube > kTrue && nodes_[cube].var < n.var) cube = nodes_[cube].high;
  if (cube == kTrue) return f;
  const OpKey key{kOpExists, f, cube, 0};
  if (const NodeId* hit = op_cache_.find(key)) {
    ++stats_.cache_hits;
    return *hit;
  }
  ++stats_.cache_misses;
  tick_op();
  NodeId result;
  if (nodes_[cube].var == n.var) {
    const NodeId rest = nodes_[cube].high;
    const NodeId low = exists_cube(n.low, rest);
    // ∨-cutoff: once one cofactor quantifies to ⊤ the disjunction is ⊤.
    result = low == kTrue ? kTrue : bdd_or(low, exists_cube(n.high, rest));
  } else {
    result = make(n.var, exists_cube(n.low, cube), exists_cube(n.high, cube));
  }
  op_cache_.insert(key, result);
  return result;
}

NodeId Manager::and_exists(NodeId f, NodeId g, NodeId cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (cube == kTrue) return bdd_and(f, g);
  if (f == kTrue) return exists_cube(g, cube);
  if (g == kTrue) return exists_cube(f, cube);
  if (f == g) return exists_cube(f, cube);

  const std::uint32_t v = std::min(nodes_[f].var, nodes_[g].var);
  while (cube > kTrue && nodes_[cube].var < v) cube = nodes_[cube].high;
  if (cube == kTrue) return bdd_and(f, g);

  // The cache key orders the unordered pair {f, g} (∧ is commutative).
  const OpKey key{kOpAndExists, std::min(f, g), std::max(f, g), cube};
  if (const NodeId* hit = op_cache_.find(key)) {
    ++stats_.cache_hits;
    return *hit;
  }
  ++stats_.cache_misses;
  tick_op();

  auto cof = [&](NodeId x, bool value) -> NodeId {
    if (x <= kTrue || nodes_[x].var != v) return x;
    return value ? nodes_[x].high : nodes_[x].low;
  };
  NodeId result;
  if (nodes_[cube].var == v) {
    const NodeId rest = nodes_[cube].high;
    const NodeId low = and_exists(cof(f, false), cof(g, false), rest);
    // ∨-cutoff as in exists_cube.
    result = low == kTrue ? kTrue : bdd_or(low, and_exists(cof(f, true), cof(g, true), rest));
  } else {
    result = make(v, and_exists(cof(f, false), cof(g, false), cube),
                  and_exists(cof(f, true), cof(g, true), cube));
  }
  op_cache_.insert(key, result);
  return result;
}

NodeId Manager::rename_shift_down(NodeId f) {
  if (f <= kTrue) return f;
  const OpKey key{kOpRename, f, 0, 0};
  if (const NodeId* hit = op_cache_.find(key)) {
    ++stats_.cache_hits;
    return *hit;
  }
  ++stats_.cache_misses;
  tick_op();
  const Node n = nodes_[f];
  const std::uint32_t v = (n.var & 1u) ? n.var - 1 : n.var;
  const NodeId low = rename_shift_down(n.low);
  const NodeId high = rename_shift_down(n.high);
  // The substitution is only order-preserving when the renamed children
  // still sit strictly below v — i.e. 2i and 2i+1 never co-occur on a path.
  MPS_ASSERT(low <= kTrue || nodes_[low].var > v);
  MPS_ASSERT(high <= kTrue || nodes_[high].var > v);
  const NodeId result = make(v, low, high);
  op_cache_.insert(key, result);
  return result;
}

std::size_t Manager::gc(const std::vector<NodeId*>& roots) {
  std::vector<char> mark(nodes_.size(), 0);
  mark[kFalse] = mark[kTrue] = 1;
  std::vector<NodeId> stack;
  for (const NodeId* r : roots) {
    MPS_ASSERT(*r < nodes_.size());
    stack.push_back(*r);
  }
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    if (mark[x]) continue;
    mark[x] = 1;
    stack.push_back(nodes_[x].low);
    stack.push_back(nodes_[x].high);
  }

  // Compact in place, in index order: make() only ever references
  // already-existing children, so children keep smaller ids than their
  // parents and every id moves down (remap[id] <= id).
  std::vector<NodeId> remap(nodes_.size(), kFalse);
  NodeId kept = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!mark[id]) continue;
    remap[id] = kept;
    Entry e = nodes_[id];
    if (e.var != kTerminalVar) {
      e.low = remap[e.low];
      e.high = remap[e.high];
    }
    nodes_[kept++] = e;
  }
  const std::size_t collected = nodes_.size() - kept;
  nodes_.resize(kept);

  rehash_unique(buckets_.size());
  // Every cached result may reference a freed or renumbered node: drop all.
  ite_cache_.clear();
  op_cache_.clear();

  for (NodeId* r : roots) *r = remap[*r];
  ++stats_.gc_runs;
  stats_.nodes_collected += collected;
  return collected;
}

bool Manager::eval(NodeId f, const util::BitVec& assignment) const {
  MPS_ASSERT(assignment.size() >= num_vars_);
  while (f > kTrue) {
    const Node& n = nodes_[f];
    f = assignment.test(n.var) ? n.high : n.low;
  }
  return f == kTrue;
}

double Manager::sat_count(NodeId f) const {
  // Memoized count of assignments below each node, scaled by skipped vars.
  std::unordered_map<NodeId, double> memo;
  auto count = [&](auto&& self, NodeId x) -> double {
    if (x == kFalse) return 0.0;
    if (x == kTrue) return 1.0;
    if (const auto it = memo.find(x); it != memo.end()) return it->second;
    const Node& n = nodes_[x];
    auto weight = [&](NodeId child) {
      const std::uint32_t child_var =
          child <= kTrue ? static_cast<std::uint32_t>(num_vars_) : nodes_[child].var;
      return std::pow(2.0, static_cast<double>(child_var - n.var - 1));
    };
    const double total = self(self, n.low) * weight(n.low) + self(self, n.high) * weight(n.high);
    memo.emplace(x, total);
    return total;
  };
  const std::uint32_t top = f <= kTrue ? static_cast<std::uint32_t>(num_vars_) : nodes_[f].var;
  return count(count, f) * std::pow(2.0, static_cast<double>(top));
}

bool Manager::pick_model(NodeId f, util::BitVec* out) const {
  if (f == kFalse) return false;
  util::BitVec model(num_vars_);
  while (f > kTrue) {
    const Node& n = nodes_[f];
    if (n.high != kFalse) {
      model.set(n.var);
      f = n.high;
    } else {
      f = n.low;
    }
  }
  *out = std::move(model);
  return true;
}

NodeId Manager::from_cover(const logic::Cover& cover) {
  MPS_ASSERT(cover.num_vars() == num_vars_);
  NodeId sum = kFalse;
  for (const logic::Cube& cube : cover.cubes()) {
    NodeId product = kTrue;
    // Build bottom-up (highest variable first) to keep intermediate sizes small.
    for (std::size_t v = num_vars_; v-- > 0;) {
      const auto lit = cube.literal(v);
      if (!lit.has_value()) continue;
      product = ite(var(static_cast<std::uint32_t>(v)), *lit ? product : kFalse,
                    *lit ? kFalse : product);
    }
    sum = bdd_or(sum, product);
  }
  return sum;
}

NodeId Manager::from_minterms(const std::vector<util::BitVec>& codes) {
  NodeId sum = kFalse;
  for (const auto& code : codes) {
    MPS_ASSERT(code.size() == num_vars_);
    NodeId product = kTrue;
    for (std::size_t v = num_vars_; v-- > 0;) {
      product = ite(var(static_cast<std::uint32_t>(v)), code.test(v) ? product : kFalse,
                    code.test(v) ? kFalse : product);
    }
    sum = bdd_or(sum, product);
  }
  return sum;
}

}  // namespace mps::bdd
