// BitVec: a dynamically sized bit vector tuned for state-graph codes.
//
// State codes in this library are short (tens of bits) but are compared
// millions of times during CSC analysis and logic extraction, so the
// representation is a flat word array with no virtual dispatch and an
// explicit hash.  Unlike std::vector<bool> it exposes its words, so hot
// loops (the logic minimizer's cube tests among them) work a word at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace mps::util {

class BitVec {
 public:
  BitVec() = default;
  /// Construct with `size` bits, all set to `value`.
  explicit BitVec(std::size_t size, bool value = false);
  /// A copy of `size` bits kept elsewhere as ⌈size/64⌉ words, high bits 0.
  BitVec(std::span<const std::uint64_t> words, std::size_t size)
      : words_(words.begin(), words.end()), size_(size) {
    MPS_ASSERT(words_.size() == (size + 63) / 64);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::size_t i) const {
    MPS_ASSERT(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  bool operator[](std::size_t i) const { return test(i); }

  void set(std::size_t i, bool value = true) {
    MPS_ASSERT(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void reset(std::size_t i) { set(i, false); }
  void flip(std::size_t i) {
    MPS_ASSERT(i < size_);
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  void set_all();

  /// Append one bit at the end (grows size by 1).
  void push_back(bool value);

  /// Grow or shrink to `size` bits; new bits are zero.
  void resize(std::size_t size);

  /// Number of set bits.
  std::size_t count() const;

  /// Index of the first set bit, or npos if none.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_first() const;
  /// Index of the first set bit strictly after `i`, or npos.
  std::size_t find_next(std::size_t i) const;

  /// this &= ~other
  BitVec& and_not(const BitVec& other);

  bool operator==(const BitVec& other) const;
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  std::uint64_t hash() const;

  /// Read-only word access (bit i lives in word i/64, bit i%64): lets hot
  /// loops apply masks word-wise without materializing BitVec temporaries.
  std::span<const std::uint64_t> words() const { return words_; }

  /// "0101..." rendering, bit 0 first.
  std::string to_string() const;

 private:
  void trim();  // zero the unused high bits of the last word

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace mps::util
