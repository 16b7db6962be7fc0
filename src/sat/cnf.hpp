// CNF formula representation shared by the DPLL solver, the local-search
// solver and the CSC encoder.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace mps::sat {

using Var = std::uint32_t;
inline constexpr Var kNoVar = 0xFFFFFFFFu;

/// A literal: variable + sign, packed MiniSat-style (2*var + negated).
struct Lit {
  std::uint32_t x = 0xFFFFFFFFu;

  static Lit make(Var v, bool negated = false) { return Lit{(v << 1) | (negated ? 1u : 0u)}; }
  Var var() const { return x >> 1; }
  bool negated() const { return (x & 1) != 0; }
  Lit operator~() const { return Lit{x ^ 1u}; }
  bool operator==(const Lit&) const = default;
  bool valid() const { return x != 0xFFFFFFFFu; }
};

/// Positive literal of v.
inline Lit pos(Var v) { return Lit::make(v, false); }
/// Negative literal of v.
inline Lit neg(Var v) { return Lit::make(v, true); }

/// A (partial or total) assignment: per-variable truth value.
using Model = std::vector<bool>;

class Cnf {
 public:
  Var new_var() { return num_vars_++; }
  /// Reserve `n` fresh variables; returns the first.
  Var new_vars(std::size_t n) {
    const Var first = num_vars_;
    num_vars_ += static_cast<Var>(n);
    return first;
  }

  void add_clause(std::vector<Lit> lits);
  void add_clause(std::initializer_list<Lit> lits) { add_clause(std::vector<Lit>(lits)); }
  /// Convenience: unit clause.
  void add_unit(Lit l) { add_clause({l}); }

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return clauses_.size(); }
  std::size_t num_literals() const { return num_literals_; }
  const std::vector<Lit>& clause(std::size_t i) const { return clauses_[i]; }
  const std::vector<std::vector<Lit>>& clauses() const { return clauses_; }

  /// True if `m` (size >= num_vars) satisfies every clause.
  bool satisfied_by(const Model& m) const;

 private:
  Var num_vars_ = 0;
  std::vector<std::vector<Lit>> clauses_;
  std::size_t num_literals_ = 0;
};

}  // namespace mps::sat
