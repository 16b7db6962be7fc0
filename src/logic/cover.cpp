#include "logic/cover.hpp"

#include "util/common.hpp"

namespace mps::logic {

void Cover::add(Cube c) {
  MPS_ASSERT(c.num_vars() == num_vars_);
  cubes_.push_back(std::move(c));
}

bool Cover::covers_code(std::span<const std::uint64_t> code) const {
  for (const Cube& c : cubes_) {
    if (c.contains_code(code)) return true;
  }
  return false;
}

std::size_t Cover::literal_count() const {
  std::size_t n = 0;
  for (const Cube& c : cubes_) n += c.literal_count();
  return n;
}

void Cover::remove_single_cube_containment() {
  std::vector<Cube> kept;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    bool contained = false;
    for (std::size_t j = 0; j < cubes_.size() && !contained; ++j) {
      if (i == j) continue;
      // Strict: contained in a different cube; among equal cubes keep the first.
      if (cubes_[j].contains(cubes_[i]) && !(cubes_[i].contains(cubes_[j]) && i < j)) {
        contained = true;
      }
    }
    if (!contained) kept.push_back(cubes_[i]);
  }
  cubes_ = std::move(kept);
}

std::string Cover::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (i > 0) s += " + ";
    s += cubes_[i].to_string();
  }
  return s.empty() ? "0" : s;
}

std::string Cover::to_expression(const std::vector<std::string>& var_names) const {
  MPS_ASSERT(var_names.size() == num_vars_);
  if (cubes_.empty()) return "0";
  std::string s;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (i > 0) s += " + ";
    bool any = false;
    for (std::size_t v = 0; v < num_vars_; ++v) {
      const auto lit = cubes_[i].literal(v);
      if (!lit.has_value()) continue;
      if (any) s += " ";
      s += var_names[v];
      if (!*lit) s += "'";
      any = true;
    }
    if (!any) s += "1";
  }
  return s;
}

}  // namespace mps::logic
