// Covers: sums of cubes (single-output SOP form).
#pragma once

#include <string>
#include <vector>

#include "logic/cube.hpp"

namespace mps::logic {

class Cover {
 public:
  Cover() = default;
  explicit Cover(std::size_t num_vars) : num_vars_(num_vars) {}
  Cover(std::size_t num_vars, std::vector<Cube> cubes)
      : cubes_(std::move(cubes)), num_vars_(num_vars) {}

  std::size_t num_vars() const { return num_vars_; }
  std::size_t size() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  void add(Cube c);
  const Cube& operator[](std::size_t i) const { return cubes_[i]; }
  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }

  /// Does any cube contain the code (⌈n/64⌉ words, see Cube::contains_code)?
  bool covers_code(std::span<const std::uint64_t> code) const;

  /// Total literal count — the paper's "2level Area literals" metric
  /// (unfactored prime irredundant cover, as with espresso -Dso -S1).
  std::size_t literal_count() const;

  /// Remove cubes contained in another single cube of the cover.
  void remove_single_cube_containment();

  /// "10-1 + 1-01" rendering, or named-literal SOP ("a b' + c").
  std::string to_string() const;
  std::string to_expression(const std::vector<std::string>& var_names) const;

 private:
  std::vector<Cube> cubes_;
  std::size_t num_vars_ = 0;
};

}  // namespace mps::logic
