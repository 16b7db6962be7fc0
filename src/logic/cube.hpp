// Cubes in positional (two-bit-per-variable) notation, the representation
// used by espresso: for each binary variable, bit0 = "value 0 allowed",
// bit1 = "value 1 allowed".
//   01 -> literal  x'   (variable must be 0)
//   10 -> literal  x    (variable must be 1)
//   11 -> no literal    (don't care)
//   00 -> empty cube    (contradiction)
#pragma once

#include <optional>
#include <string>

#include "util/bitvec.hpp"

namespace mps::logic {

class Cube {
 public:
  Cube() = default;
  /// The universal cube (no literals) over n variables.
  explicit Cube(std::size_t num_vars) : bits_(2 * num_vars, true), num_vars_(num_vars) {}

  /// The minterm cube of a code (every variable a literal).
  static Cube minterm(const util::BitVec& code);
  /// Parse "10-1" (1 = positive literal, 0 = negative, '-' = absent).
  static Cube from_string(std::string_view pattern);

  std::size_t num_vars() const { return num_vars_; }

  bool allows(std::size_t var, bool value) const { return bits_.test(2 * var + (value ? 1 : 0)); }
  /// 0 -> must be 0, 1 -> must be 1, nullopt -> free (or empty).
  std::optional<bool> literal(std::size_t var) const;
  bool has_literal(std::size_t var) const {
    return bits_.test(2 * var) != bits_.test(2 * var + 1);
  }
  /// Set variable to a fixed value (adds/overwrites the literal).
  void set_literal(std::size_t var, bool value);
  /// Remove the literal on `var` (both values allowed).
  void free_var(std::size_t var);

  /// True if some variable allows neither value.
  bool is_empty() const;
  /// Number of literals.
  std::size_t literal_count() const;

  /// Does this cube contain the given minterm code?
  bool contains_code(const util::BitVec& code) const;
  /// Cube containment: does this cube contain every minterm of `other`?
  bool contains(const Cube& other) const { return other.bits_.is_subset_of(bits_); }
  /// Do the two cubes share a minterm?
  bool intersects(const Cube& other) const;
  /// Intersection (may be empty; check is_empty()).
  Cube intersect(const Cube& other) const;
  /// Smallest cube containing both.
  Cube supercube(const Cube& other) const;

  /// Number of variables where the cubes' parts are disjoint (espresso
  /// "distance"; 0 = intersecting, 1 = consensus exists).
  std::size_t distance(const Cube& other) const;
  /// Consensus (sharp of the distance-1 merge); nullopt if distance != 1.
  std::optional<Cube> consensus(const Cube& other) const;

  bool operator==(const Cube&) const = default;

  /// "10-1" rendering.
  std::string to_string() const;

 private:
  util::BitVec bits_;
  std::size_t num_vars_ = 0;
};

}  // namespace mps::logic
