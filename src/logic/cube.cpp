#include "logic/cube.hpp"

#include <bit>

#include "util/common.hpp"

namespace mps::logic {

namespace {

/// Word w of a row with all of its num_vars bits set (a minterm's care row).
std::uint64_t full_word(std::size_t w, std::size_t num_vars) {
  const std::size_t bits = num_vars - 64 * w;
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

Cube Cube::minterm(const util::BitVec& code) {
  Cube c(code.size());
  const std::size_t n = c.row_words();
  for (std::size_t w = 0; w < n; ++w) {
    c.words_[w] = full_word(w, code.size());
    c.words_[n + w] = code.words()[w] & c.words_[w];
  }
  return c;
}

Cube Cube::from_masks(std::size_t num_vars, std::span<const std::uint64_t> care,
                      std::span<const std::uint64_t> value) {
  Cube c(num_vars);
  const std::size_t n = c.row_words();
  MPS_ASSERT(care.size() == n && value.size() == n);
  for (std::size_t w = 0; w < n; ++w) {
    c.words_[w] = care[w] & full_word(w, num_vars);
    c.words_[n + w] = value[w] & c.words_[w];
  }
  return c;
}

Cube Cube::from_string(std::string_view pattern) {
  Cube c(pattern.size());
  for (std::size_t v = 0; v < pattern.size(); ++v) {
    switch (pattern[v]) {
      case '0': c.set_literal(v, false); break;
      case '1': c.set_literal(v, true); break;
      case '-':
      case '2': break;
      default: throw util::ParseError(std::string("bad cube character: ") + pattern[v]);
    }
  }
  return c;
}

std::optional<bool> Cube::literal(std::size_t var) const {
  if (!has_literal(var)) return std::nullopt;
  return ((words_[row_words() + (var >> 6)] >> (var & 63)) & 1u) != 0;
}

void Cube::set_literal(std::size_t var, bool value) {
  MPS_ASSERT(var < num_vars_);
  const std::uint64_t bit = std::uint64_t{1} << (var & 63);
  words_[var >> 6] |= bit;
  std::uint64_t& v = words_[row_words() + (var >> 6)];
  v = value ? v | bit : v & ~bit;
}

void Cube::free_var(std::size_t var) {
  MPS_ASSERT(var < num_vars_);
  const std::uint64_t keep = ~(std::uint64_t{1} << (var & 63));
  words_[var >> 6] &= keep;
  words_[row_words() + (var >> 6)] &= keep;
}

std::size_t Cube::literal_count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : care()) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool Cube::contains_code(std::span<const std::uint64_t> code) const {
  const std::size_t n = row_words();
  MPS_ASSERT(code.size() == n);
  for (std::size_t w = 0; w < n; ++w) {
    if ((code[w] ^ words_[n + w]) & words_[w]) return false;
  }
  return true;
}

bool Cube::contains(const Cube& other) const {
  MPS_ASSERT(num_vars_ == other.num_vars_);
  const std::size_t n = row_words();
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t care = words_[w];
    if ((care & ~other.words_[w]) || ((words_[n + w] ^ other.words_[n + w]) & care)) return false;
  }
  return true;
}

Cube Cube::supercube(const Cube& other) const {
  MPS_ASSERT(num_vars_ == other.num_vars_);
  Cube c = *this;
  const std::size_t n = row_words();
  for (std::size_t w = 0; w < n; ++w) {
    c.words_[w] &= other.words_[w] & ~(words_[n + w] ^ other.words_[n + w]);
    c.words_[n + w] &= c.words_[w];
  }
  return c;
}

std::string Cube::to_string() const {
  std::string s;
  s.reserve(num_vars_);
  for (std::size_t v = 0; v < num_vars_; ++v) {
    const auto lit = literal(v);
    s.push_back(!lit.has_value() ? '-' : *lit ? '1' : '0');
  }
  return s;
}

}  // namespace mps::logic
