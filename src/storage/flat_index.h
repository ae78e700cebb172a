#ifndef MIRABEL_STORAGE_FLAT_INDEX_H_
#define MIRABEL_STORAGE_FLAT_INDEX_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

namespace mirabel::storage {

/// Open-addressing map from an integral key to a 32-bit value: the primary-key
/// index of `Table` and the id -> slot map of `edms::OfferLifecycle`.
///
/// One flat array of 16-byte slots (the key widened to 64 bits, the value,
/// and an empty marker folded into the value), power-of-two capacity, linear
/// probing, doubling once the load passes 3/4. The home slot is a
/// multiplicative (Fibonacci) hash: the top log2(capacity) bits of
/// key * floor(2^64 / phi), modulo 2^64. A plain `key & mask` would lay the
/// sequential ids of the workloads out as one contiguous run of occupied
/// slots, and every key whose home fell inside the run would probe to its
/// end.
///
/// Keys are only ever inserted: rows and lifecycle slots are never retired,
/// so the index needs no delete path (and no tombstones).
template <typename Key>
class FlatIndex {
  static_assert(std::is_integral_v<Key> && sizeof(Key) <= sizeof(uint64_t),
                "FlatIndex keys are integers of at most 64 bits");

 public:
  /// The largest value the index stores; the value above it marks an empty
  /// slot.
  static constexpr uint32_t kMaxValue = UINT32_MAX - 1;

  /// Maps `key` to `value` (<= kMaxValue). Returns false, leaving the mapping
  /// unchanged, when `key` is already present.
  bool Insert(Key key, uint32_t value) {
    assert(value <= kMaxValue);
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      if (Find(key).has_value()) return false;  // a duplicate never grows
      Grow();
    }
    const uint64_t k = static_cast<uint64_t>(key);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(k);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.value == kEmpty) {
        slot = {k, value};
        ++size_;
        return true;
      }
      if (slot.key == k) return false;
    }
  }

  /// The value of `key`; nullopt when absent.
  std::optional<uint32_t> Find(Key key) const {
    if (slots_.empty()) return std::nullopt;
    const uint64_t k = static_cast<uint64_t>(key);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(k);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.value == kEmpty) return std::nullopt;
      if (slot.key == k) return slot.value;
    }
  }

  size_t size() const { return size_; }
  /// Slots allocated: 0 before the first insert, then a power of two that
  /// keeps size() at or below 3/4 of it.
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinCapacity = 8;
  /// floor(2^64 / phi), which is odd.
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

  struct Slot {
    uint64_t key = 0;
    uint32_t value = kEmpty;
  };
  static_assert(sizeof(Slot) == 16);

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * kFibonacci) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? kMinCapacity : 2 * old.size();
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    const size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.value == kEmpty) continue;
      size_t i = Home(slot.key);
      while (slots_[i].value != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  /// 64 - log2(capacity): Home() keeps the hash's top log2(capacity) bits.
  int shift_ = 64;
};

}  // namespace mirabel::storage

#endif  // MIRABEL_STORAGE_FLAT_INDEX_H_
