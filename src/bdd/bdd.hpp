// A reduced ordered BDD package — the substrate for the paper's cited
// follow-up ("the implementation area was further reduced by developing a
// BDD based constraint satisfaction approach [19]"), for exact equivalence
// checking in verify::, and for the symbolic reachability / CSC engine in
// bdd::SymbolicStg (symbolic.hpp).
//
// Classic design: hash-consed nodes addressed by index, complement-free
// (both terminals are materialized), memoized ITE.  Node 0 = false, node
// 1 = true.  Every table is flat, so a lookup touches one or two cache
// lines and freeing a manager frees a handful of arrays:
//   * the unique table (var, low, high) -> node chains through the node
//     array itself: each node carries the id of the next node in its
//     bucket, and the bucket heads are a power-of-two array of ids
//     (0 ends a chain: terminals are never chained).  Growth and gc()
//     both rehash by walking the node array;
//   * the two memo tables are exact open-addressed hash tables with
//     linear probing.  Exact, not lossy: Stats::ops and the op budget
//     count cache misses, so an evicting cache would change them.
//
// Beyond the textbook core the manager carries what image computation
// needs:
//   * a shared operation cache (restrict / exists_cube / and_exists /
//     rename_shift_down all memoize into one table, invalidated as a whole
//     by garbage collection),
//   * cube quantification (∃ over a variable set in one pass) and the
//     relational product and_exists(f, g, cube) = ∃cube. f ∧ g, which never
//     materializes f ∧ g,
//   * rename_shift_down: the next-state → current-state substitution for
//     the interleaved variable order (odd var 2i+1 ↦ even var 2i),
//   * mark-and-sweep garbage collection over caller-registered roots, with
//     full cache invalidation and node-id compaction,
//   * node and operation budgets surfaced as util::LimitError so runaway
//     fixed points fail cleanly instead of eating the machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "util/bitvec.hpp"

namespace mps::bdd {

using NodeId = std::uint32_t;
inline constexpr NodeId kFalse = 0;
inline constexpr NodeId kTrue = 1;

class Manager {
 public:
  explicit Manager(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Entries in the unique table: every non-terminal node is in it once.
  std::size_t unique_size() const { return nodes_.size() - 2; }

  NodeId bdd_false() const { return kFalse; }
  NodeId bdd_true() const { return kTrue; }
  /// The function "variable v" (positive literal).
  NodeId var(std::uint32_t v);
  /// The function "¬v".
  NodeId nvar(std::uint32_t v);

  NodeId ite(NodeId f, NodeId g, NodeId h);
  NodeId bdd_not(NodeId f) { return ite(f, kFalse, kTrue); }
  NodeId bdd_and(NodeId f, NodeId g) { return ite(f, g, kFalse); }
  NodeId bdd_or(NodeId f, NodeId g) { return ite(f, kTrue, g); }
  NodeId bdd_xor(NodeId f, NodeId g) { return ite(f, bdd_not(g), g); }
  NodeId bdd_implies(NodeId f, NodeId g) { return ite(f, g, kTrue); }

  /// Cofactor with respect to v = value.  Memoized in the shared op cache:
  /// shared subgraphs are visited once per call, not once per path.
  NodeId restrict(NodeId f, std::uint32_t v, bool value);
  /// Reference implementation without memoization — exponential on shared
  /// graphs (it re-walks a subgraph once per path reaching it).  Kept only
  /// so bench/micro_bdd can pin the win of the memoized version and tests
  /// can cross-check results; never call it from library code.
  NodeId restrict_nomemo(NodeId f, std::uint32_t v, bool value);
  /// ∃v. f
  NodeId exists(NodeId f, std::uint32_t v);
  /// ∀v. f
  NodeId forall(NodeId f, std::uint32_t v);

  /// The positive cube x_{v1} ∧ x_{v2} ∧ … used as a quantification set.
  NodeId cube(const std::vector<std::uint32_t>& vars);
  /// ∃vars(cube). f — single pass, memoized per (f, cube).
  NodeId exists_cube(NodeId f, NodeId cube);
  /// Relational product ∃vars(cube). f ∧ g without building f ∧ g — the
  /// quantification happens *inside* the conjunction (early quantification:
  /// a variable disappears as soon as both cofactor pairs are combined, and
  /// the ∨ of cofactors cuts off at the first kTrue).  Own memo entries in
  /// the shared op cache keyed by the unordered pair {f, g} and the cube.
  NodeId and_exists(NodeId f, NodeId g, NodeId cube);
  /// Substitute every odd variable 2i+1 by its even partner 2i — the
  /// next-state → current-state renaming of the interleaved order used by
  /// the symbolic engine.  Requires (checked): whenever 2i+1 occurs in the
  /// support of f, 2i does not occur above/below it on the same path, so
  /// the substitution is order-preserving.
  NodeId rename_shift_down(NodeId f);

  /// Evaluate under a total assignment.
  bool eval(NodeId f, const util::BitVec& assignment) const;
  /// Number of satisfying assignments over all num_vars() variables.
  double sat_count(NodeId f) const;
  /// Any satisfying assignment; false if f == kFalse.
  bool pick_model(NodeId f, util::BitVec* out) const;

  /// Build from a sum-of-cubes cover (variables must match num_vars()).
  NodeId from_cover(const logic::Cover& cover);
  /// Build the characteristic function of a minterm list.
  NodeId from_minterms(const std::vector<util::BitVec>& codes);

  // --- budgets ----------------------------------------------------------
  /// Abort (util::LimitError) when the node table would exceed `n` nodes.
  /// 0 = unlimited (the default).
  void set_max_nodes(std::size_t n) { max_nodes_ = n; }
  /// Abort (util::LimitError) after `n` cache-miss operation steps across
  /// all recursive ops.  0 = unlimited (the default).
  void set_max_ops(std::uint64_t n) { max_ops_ = n; }

  // --- garbage collection -----------------------------------------------
  /// Mark-and-sweep over the given roots: every node not reachable from a
  /// root is freed, surviving nodes are compacted (ids change!) and the
  /// NodeIds behind the passed pointers are rewritten in place.  All other
  /// outstanding NodeIds are invalidated, and both operation caches are
  /// cleared.  Returns the number of collected nodes.
  std::size_t gc(const std::vector<NodeId*>& roots);

  struct Stats {
    std::uint64_t ops = 0;              ///< cache-miss recursion steps
    std::uint64_t cache_hits = 0;       ///< op-cache + ite-cache hits
    std::uint64_t cache_misses = 0;     ///< op-cache + ite-cache misses
    std::uint64_t gc_runs = 0;          ///< number of gc() calls
    std::uint64_t nodes_collected = 0;  ///< total nodes freed across gcs
  };
  const Stats& stats() const { return stats_; }

  struct Node {
    std::uint32_t var;  // 0xFFFFFFFF for terminals
    NodeId low, high;
  };
  const Node& node(NodeId id) const { return nodes_[id]; }

 private:
  NodeId make(std::uint32_t v, NodeId low, NodeId high);
  NodeId top_var(NodeId f, NodeId g, NodeId h) const;
  /// Budget bookkeeping for one cache-miss expansion.
  void tick_op();

  /// Multiplicative hash of two packed words; callers take the top bits.
  static constexpr std::uint64_t hash2(std::uint64_t x, std::uint64_t y) {
    return ((x * 0x9E3779B97F4A7C15ull) ^ y) * 0xD6E8FEB86659FD93ull;
  }
  static constexpr std::uint64_t pack(std::uint32_t hi, std::uint32_t lo) {
    return std::uint64_t{hi} << 32 | lo;
  }

  /// A node as stored: the public fields plus the unique-table chain.
  struct Entry : Node {
    NodeId next;  ///< next node in this unique-table bucket; 0 ends the chain
  };
  /// Unique-table bucket of (v, low, high).
  std::size_t bucket(std::uint32_t v, NodeId low, NodeId high) const {
    return static_cast<std::size_t>(hash2(pack(low, high), v) >> bucket_shift_);
  }
  /// Re-chain every node into `num_buckets` (a power of two) buckets.
  void rehash_unique(std::size_t num_buckets);

  /// ITE memo key.  f ≥ 2 (terminal f never reaches the cache), so f == 0
  /// marks an empty slot.
  struct IteKey {
    NodeId f, g, h;
    bool operator==(const IteKey&) const = default;
    bool empty() const { return f == 0; }
    std::uint64_t hash() const { return hash2(pack(f, g), h); }
  };
  /// One memo key for every non-ITE operation; `op` packs the opcode with
  /// its scalar operand (see restrict_op), `a`/`b`/`c` hold node operands
  /// (cubes ride in `c`).  op ≥ 1, so op == 0 marks an empty slot.
  struct OpKey {
    std::uint32_t op;
    NodeId a, b, c;
    bool operator==(const OpKey&) const = default;
    bool empty() const { return op == 0; }
    std::uint64_t hash() const { return hash2(pack(op, a), pack(b, c)); }
  };
  enum OpCode : std::uint32_t {
    kOpRestrict0 = 1,  // packed by restrict_op
    kOpRestrict1 = 2,  // packed by restrict_op
    kOpExists = 3,
    kOpAndExists = 4,
    kOpRename = 5,
  };
  /// restrict's opcode: kOpRestrict0/1 + 8·v.  Every plain opcode is < 8,
  /// so a packed restrict opcode never collides with another operation.
  static constexpr std::uint32_t restrict_op(std::uint32_t v, bool value) {
    return (value ? kOpRestrict1 : kOpRestrict0) + 8 * v;
  }

  /// Exact memo table: open addressing with linear probing over flat
  /// {key, result} slots, doubled before it is half full, never evicting.
  template <class Key>
  class Memo {
   public:
    Memo();
    /// The memoized result of `key`, or nullptr.
    const NodeId* find(const Key& key) const;
    /// Memoize `key` -> `result`; keeps an existing entry.
    void insert(const Key& key, NodeId result);
    /// Drop every entry (the capacity stays).
    void clear();

   private:
    struct Slot {
      Key key;
      NodeId result;
    };
    std::size_t home(const Key& key) const {
      return static_cast<std::size_t>(key.hash() >> shift_);
    }
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 0;  ///< 64 − log2(slots_.size())
  };

  std::size_t num_vars_;
  std::vector<Entry> nodes_;
  std::vector<NodeId> buckets_;  ///< unique-table chain heads
  unsigned bucket_shift_ = 0;    ///< 64 − log2(buckets_.size())
  Memo<IteKey> ite_cache_;
  Memo<OpKey> op_cache_;
  std::size_t max_nodes_ = 0;
  std::uint64_t max_ops_ = 0;
  Stats stats_;
};

}  // namespace mps::bdd
