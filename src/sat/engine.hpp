// Engine-shared SAT substrate: the clause arena, the blocker-carrying watch
// entry, and the lazy variable-order max-heap that both search loops (the
// DPLL reference in solver.cpp and the CDCL engine in cdcl.cpp) are built
// on.  Header-only; everything here is layout and mechanism — policy (when
// to bump, what key to order by, which clauses to drop) stays with the
// engines.  Each clause's header sits inline before its literals (slot 0
// the size; the CDCL engine's LBD in slot 1), and a clause reference is the
// header's offset, so the watch loop needs no separate header table
// (DESIGN.md "Clause arena").  References grow in insertion order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sat/cnf.hpp"

namespace mps::sat {

constexpr std::int8_t kUnassignedValue = -1;
constexpr std::uint32_t kNoClause = 0xFFFFFFFFu;

/// Clauses stored inline in one Lit array: [Lit{size}, extra..., lits...],
/// with `kHeader` header slots per clause.  References are header offsets;
/// erase_if() invalidates them all.
template <std::uint32_t kHeader>
class ClauseArena {
 public:
  void reserve(std::size_t clauses, std::size_t literals) {
    slots_.reserve(clauses * kHeader + literals);
  }

  /// Append a clause; returns its reference.  Extra header slots start at 0.
  std::uint32_t add(const Lit* lits, std::size_t size) {
    const auto ref = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Lit{static_cast<std::uint32_t>(size)});
    slots_.insert(slots_.end(), kHeader - 1, Lit{0});
    slots_.insert(slots_.end(), lits, lits + size);
    return ref;
  }

  std::uint32_t size(std::uint32_t ref) const { return slots_[ref].x; }
  std::span<Lit> clause(std::uint32_t ref) { return {slots_.data() + ref + kHeader, size(ref)}; }
  /// The engine's own word in header slot 1.
  std::uint32_t& extra(std::uint32_t ref) {
    static_assert(kHeader >= 2, "no extra header slot");
    return slots_[ref + 1].x;
  }

  /// Walk clauses in insertion order: for (r = 0; r != end(); r = next(r)).
  std::uint32_t end() const { return static_cast<std::uint32_t>(slots_.size()); }
  std::uint32_t next(std::uint32_t ref) const { return ref + kHeader + size(ref); }

  /// Drop every clause whose (old, ascending) reference satisfies `drop`;
  /// survivors slide down in place, in order, their literals untouched.
  template <class Drop>
  void erase_if(Drop drop) {
    std::uint32_t out = 0;
    for (std::uint32_t ref = 0, len = 0; ref != end(); ref += len) {
      len = kHeader + size(ref);
      if (drop(ref)) continue;
      if (out != ref) std::copy_n(slots_.begin() + ref, len, slots_.begin() + out);
      out += len;
    }
    slots_.resize(out);
  }

 private:
  std::vector<Lit> slots_;
};

/// One watch-list entry: clause reference plus a cached literal of that clause
/// (the other watched literal at the time the entry was written); a true
/// blocker lets the propagator skip the normalize-and-scan protocol.
struct Watch {
  std::uint32_t clause;
  Lit blocker;
};

/// Double `v` without wrapping: geometric escalation budgets (restart
/// intervals, clause-DB caps) double on every trigger, and a long-running
/// search would eventually overflow int64 — signed overflow is UB, and even
/// the two's-complement wrap would turn the budget negative, making every
/// subsequent comparison fire.  Saturates at int64 max instead, which
/// behaves as "never again".
inline std::int64_t saturating_double(std::int64_t v) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  return v > kMax / 2 ? kMax : v * 2;
}

/// Lazy binary max-heap over candidate branch variables under a strict
/// total order supplied by the engine ("ranks higher" predicate; both
/// engines tie-break on the lowest variable id, which makes the order total
/// and the root the unique maximum).  Assigned variables are popped and
/// dropped lazily; the engine re-inserts on unassignment.  Key increases
/// percolate up via increased(); whole-key rescales rebuild with rebuild().
template <class Before>
class VarHeap {
 public:
  explicit VarHeap(Before before) : before_(before) {}

  /// Fill with every variable in [0, n) and heapify.
  void build(std::size_t n) {
    heap_.resize(n);
    pos_.assign(n, -1);
    for (Var v = 0; v < n; ++v) heap_[v] = v;
    for (std::size_t i = n; i-- > 0;) sift_down(i);
  }

  void insert(Var v) {
    if (pos_[v] >= 0) return;
    heap_.push_back(v);
    sift_up(heap_.size() - 1);
  }

  bool contains(Var v) const { return pos_[v] >= 0; }

  /// Restore heap order after the key of `v` increased (activity bump).
  void increased(Var v) {
    if (pos_[v] >= 0) sift_up(static_cast<std::size_t>(pos_[v]));
  }

  /// Restore the heap invariant wholesale (after a non-uniform rescale).
  void rebuild() {
    for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
  }

  /// Pop the maximum-order variable, or kNoVar if the heap is empty.
  Var pop() {
    if (heap_.empty()) return kNoVar;
    const Var top = heap_[0];
    pos_[top] = -1;
    const Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      pos_[last] = 0;
      sift_down(0);
    }
    return top;
  }

 private:
  void sift_up(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before_(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = static_cast<std::int32_t>(i);
      i = parent;
    }
    heap_[i] = v;
    pos_[v] = static_cast<std::int32_t>(i);
  }

  void sift_down(std::size_t i) {
    const Var v = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before_(heap_[child + 1], heap_[child])) ++child;
      if (!before_(heap_[child], v)) break;
      heap_[i] = heap_[child];
      pos_[heap_[i]] = static_cast<std::int32_t>(i);
      i = child;
    }
    heap_[i] = v;
    pos_[v] = static_cast<std::int32_t>(i);
  }

  Before before_;
  std::vector<Var> heap_;           // binary max-heap of candidate branch vars
  std::vector<std::int32_t> pos_;   // var -> index in heap_, -1 if absent
};

}  // namespace mps::sat
