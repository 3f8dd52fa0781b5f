// Indexed binary min-heap over dense uint32 ids.
//
// The owner keeps the keys (in its own slot storage) and supplies `Less`, a
// strict weak order on ids; the heap keeps the ids and each queued id's
// position, so a queued id can be re-keyed or erased in place in O(log n)
// with no dead entries left behind. Ids are expected to be dense (slot
// indices reused through a free list): the position table grows to the
// largest id ever pushed.
//
// Sift rules, fixed because they decide the pop order among equal keys: a
// sift up stops below a parent that is not greater than the key, a sift
// down takes the right child only when it is strictly less than the left
// one, and stops above a child that is not less than the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/contract.h"

namespace droute::util {

template <typename Less>
class IndexedHeap {
 public:
  explicit IndexedHeap(Less less) : less_(std::move(less)) {}

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The least queued id. The heap must not be empty.
  std::uint32_t top() const {
    DROUTE_DCHECK(!heap_.empty(), "top of an empty heap");
    return heap_.front();
  }

  bool contains(std::uint32_t id) const {
    return id < pos_.size() && pos_[id] != kAbsent;
  }

  /// Queues `id`, or restores the order around it after its key changed if
  /// it is already queued.
  void update(std::uint32_t id) {
    if (id >= pos_.size()) pos_.resize(std::size_t{id} + 1, kAbsent);
    if (pos_[id] == kAbsent) {
      pos_[id] = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(id);
    }
    fix(pos_[id]);
  }

  /// Removes `id` if queued; returns whether it was.
  bool erase(std::uint32_t id) {
    if (!contains(id)) return false;
    const std::uint32_t pos = pos_[id];
    pos_[id] = kAbsent;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return true;  // erased the last entry
    heap_[pos] = last;
    fix(pos);
    return true;
  }

  /// Removes and returns the least queued id. The heap must not be empty.
  std::uint32_t pop() {
    const std::uint32_t id = top();
    erase(id);
    return id;
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  // Restores the heap order around `pos` after its key changed, sifting up
  // or down and recording every moved id's new position.
  void fix(std::size_t pos) {
    const std::uint32_t id = heap_[pos];
    const auto place = [this](std::size_t at, std::uint32_t moved) {
      heap_[at] = moved;
      pos_[moved] = static_cast<std::uint32_t>(at);
    };
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!less_(id, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    // An id that moved up already keys no later than its new children; only
    // an id that stayed put can need to sink.
    const std::size_t size = heap_.size();
    for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
      if (child + 1 < size && less_(heap_[child + 1], heap_[child])) ++child;
      if (!less_(heap_[child], id)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, id);
  }

  Less less_;
  std::vector<std::uint32_t> heap_;  // ids in heap order
  std::vector<std::uint32_t> pos_;   // by id: index in heap_, or kAbsent
};

}  // namespace droute::util
