// Product terms as two word masks over the variables, ⌈n/64⌉ words each:
// *care* has bit v set iff the cube has a literal on variable v, and
// *value* holds that literal's polarity (bit v = 1 for x, 0 for x').
//   care 1, value 1 -> literal  x
//   care 1, value 0 -> literal  x'
//   care 0, value 0 -> no literal (don't care)
// Value bits are zero wherever care is zero, so equal cubes have equal
// words.  A code lies in the cube iff it agrees with value on care, which
// is one XOR/AND per word; the universal cube has no care bits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bitvec.hpp"
#include "util/common.hpp"

namespace mps::logic {

class Cube {
 public:
  Cube() = default;
  /// The universal cube (no literals) over n variables.
  explicit Cube(std::size_t num_vars)
      : words_(2 * ((num_vars + 63) / 64), 0), num_vars_(num_vars) {}

  /// The minterm cube of a code (every variable a literal).
  static Cube minterm(const util::BitVec& code);
  /// The cube with these care and value rows (⌈n/64⌉ words each); value
  /// bits outside care are dropped.
  static Cube from_masks(std::size_t num_vars, std::span<const std::uint64_t> care,
                         std::span<const std::uint64_t> value);
  /// Parse "10-1" (1 = positive literal, 0 = negative, '-' = absent).
  static Cube from_string(std::string_view pattern);

  std::size_t num_vars() const { return num_vars_; }

  /// The care and value rows (bit v of word v/64); see the file comment.
  std::span<const std::uint64_t> care() const { return {words_.data(), words_.size() / 2}; }
  std::span<const std::uint64_t> value() const {
    return {words_.data() + words_.size() / 2, words_.size() / 2};
  }

  /// 0 -> must be 0, 1 -> must be 1, nullopt -> free.
  std::optional<bool> literal(std::size_t var) const;
  bool has_literal(std::size_t var) const {
    MPS_ASSERT(var < num_vars_);
    return (words_[var >> 6] >> (var & 63)) & 1u;
  }
  /// Set variable to a fixed value (adds/overwrites the literal).
  void set_literal(std::size_t var, bool value);
  /// Remove the literal on `var` (both values allowed).
  void free_var(std::size_t var);

  /// Number of literals.
  std::size_t literal_count() const;

  /// Does this cube contain the minterm `code` (⌈n/64⌉ words, bit v of
  /// word v/64)?
  bool contains_code(std::span<const std::uint64_t> code) const;
  /// Cube containment: does this cube contain every minterm of `other`?
  bool contains(const Cube& other) const;
  /// Smallest cube containing both.
  Cube supercube(const Cube& other) const;

  bool operator==(const Cube&) const = default;

  /// "10-1" rendering.
  std::string to_string() const;

 private:
  std::size_t row_words() const { return words_.size() / 2; }

  std::vector<std::uint64_t> words_;  // care row, then value row
  std::size_t num_vars_ = 0;
};

}  // namespace mps::logic
