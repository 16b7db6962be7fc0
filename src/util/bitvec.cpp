#include "util/bitvec.hpp"

#include <bit>
#include <cstdio>

namespace mps::util {

namespace {
constexpr std::size_t kWordBits = 64;
std::size_t words_for(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
}  // namespace

BitVec::BitVec(std::size_t size, bool value)
    : words_(words_for(size), value ? ~std::uint64_t{0} : 0), size_(size) {
  trim();
}

void BitVec::trim() {
  const std::size_t used = size_ & 63;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

void BitVec::set_all() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  trim();
}

void BitVec::push_back(bool value) {
  if (size_ == words_.size() * kWordBits) words_.push_back(0);
  ++size_;
  set(size_ - 1, value);
}

void BitVec::resize(std::size_t size) {
  words_.resize(words_for(size), 0);
  size_ = size;
  trim();
}

std::size_t BitVec::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t BitVec::find_first() const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[wi]));
    }
  }
  return npos;
}

std::size_t BitVec::find_next(std::size_t i) const {
  ++i;
  if (i >= size_) return npos;
  std::size_t wi = i >> 6;
  std::uint64_t w = words_[wi] & (~std::uint64_t{0} << (i & 63));
  for (;;) {
    if (w != 0) return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
    if (++wi == words_.size()) return npos;
    w = words_[wi];
  }
}

BitVec& BitVec::and_not(const BitVec& other) {
  MPS_ASSERT(size_ == other.size_);
  for (std::size_t wi = 0; wi < words_.size(); ++wi) words_[wi] &= ~other.words_[wi];
  return *this;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::uint64_t BitVec::hash() const {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ size_;
  for (auto w : words_) h = hash_combine(h, w);
  return h;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(test(i) ? '1' : '0');
  return s;
}

void assert_fail(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "MPS_ASSERT failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

}  // namespace mps::util
