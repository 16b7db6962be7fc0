// IdTable: interning of dense ids without copying keys.
//
// Explicit state-space builders number their states 0, 1, 2, ... and keep
// each state's key (a marking, a phase word) in their own flat storage,
// indexed by id.  The table holds only the ids: one open-addressed array of
// (id, hash tag) slots with linear probing, at most half full.  A lookup
// walks the probe sequence of the key's hash and lets the caller confirm a
// match against its own storage, so no key is stored twice and no node is
// allocated per state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mps::util {

class IdTable {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  IdTable() : slots_(16) {}

  /// The stored id whose key has `hash` and for which `same(id)` holds, or
  /// kNone.  `same` is only asked about ids stored under the same hash tag.
  template <class Same>
  std::uint32_t find(std::uint64_t hash, Same&& same) const {
    const std::uint32_t tag = tag_of(hash);
    for (std::size_t i = home(tag);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) return kNone;
      if (slot.tag == tag && same(slot.id)) return slot.id;
    }
  }

  /// Store `id` under `hash`.  The caller has found no equal key (find).
  void insert(std::uint64_t hash, std::uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(Slot{id, tag_of(hash)});
    ++size_;
  }

 private:
  struct Slot {
    std::uint32_t id = kNone;
    std::uint32_t tag = 0;
  };

  /// 32 well-mixed bits of the caller's hash (MurmurHash3's finalizer), so
  /// a weak hash still spreads.  The slot index is the tag's top bits; the
  /// rest tells most non-matching neighbours apart without asking `same`.
  static std::uint32_t tag_of(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return static_cast<std::uint32_t>(h >> 32);
  }
  std::size_t home(std::uint32_t tag) const {
    return static_cast<std::size_t>((std::uint64_t{tag} * slots_.size()) >> 32);
  }
  void place(Slot s) {
    std::size_t i = home(s.tag);
    while (slots_[i].id != kNone) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = s;
  }
  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.id != kNone) place(s);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size
  std::size_t size_ = 0;
};

}  // namespace mps::util
