// Flat open-addressing map from nonzero uint64 ids to uint32 values.
//
// One array of (key, value) cells, key 0 marking an empty cell, probed
// linearly from a Fibonacci hash of the key. Erase shifts the rest of the
// probe run back instead of leaving a tombstone, so lookups never scan dead
// cells. The table doubles once it is half full and halves once it is under
// an eighth full (down to kMinCapacity), so its memory stays within a small
// factor of the live entries however many ids pass through it, and it
// allocates only when it resizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/contract.h"

namespace droute::util {

class FlatIdMap {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t size() const { return size_; }
  /// Cells allocated: 0 before the first insert, else a power of two.
  std::size_t capacity() const { return cells_.size(); }

  /// The value stored under `key`, or kAbsent.
  std::uint32_t find(std::uint64_t key) const {
    if (cells_.empty()) return kAbsent;
    for (std::size_t at = home(key);; at = next(at)) {
      const Cell& cell = cells_[at];
      if (cell.key == key) return cell.value;
      if (cell.key == 0) return kAbsent;
    }
  }

  /// Stores `value` under `key`, which must be nonzero and absent.
  void insert(std::uint64_t key, std::uint32_t value) {
    DROUTE_DCHECK(key != 0, "FlatIdMap key 0 is the empty marker");
    if (2 * (size_ + 1) > cells_.size()) {
      rehash(cells_.empty() ? kMinCapacity : 2 * cells_.size());
    }
    std::size_t at = home(key);
    while (cells_[at].key != 0) {
      DROUTE_DCHECK(cells_[at].key != key, "FlatIdMap key inserted twice");
      at = next(at);
    }
    cells_[at] = Cell{key, value};
    ++size_;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    if (cells_.empty()) return false;
    std::size_t hole = home(key);
    while (cells_[hole].key != key) {
      if (cells_[hole].key == 0) return false;
      hole = next(hole);
    }
    // Backward-shift: move each later cell of the run into the hole unless
    // its home lies cyclically in (hole, at], where it must stay.
    for (std::size_t at = next(hole); cells_[at].key != 0; at = next(at)) {
      const std::size_t want = home(cells_[at].key);
      const bool stays = hole <= at ? (hole < want && want <= at)
                                    : (hole < want || want <= at);
      if (stays) continue;
      cells_[hole] = cells_[at];
      hole = at;
    }
    cells_[hole] = Cell{};
    --size_;
    if (cells_.size() > kMinCapacity && 8 * size_ < cells_.size()) {
      rehash(cells_.size() / 2);
    }
    return true;
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  std::size_t next(std::size_t at) const {
    return (at + 1) & (cells_.size() - 1);
  }

  void rehash(std::size_t capacity) {
    std::vector<Cell> old(capacity);
    old.swap(cells_);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Cell& cell : old) {
      if (cell.key == 0) continue;
      std::size_t at = home(cell.key);
      while (cells_[at].key != 0) at = next(at);
      cells_[at] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace droute::util
