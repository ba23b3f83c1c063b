// FlatMap: an open-addressing hash map from an integer key to a value.
//
// One contiguous array of slots, each holding its key, its value and an
// occupied flag, so a lookup that hits usually touches one cache line and
// never chases a pointer. Linear probing over a power-of-two table kept at
// most half full; the home slot is the top bits of a Fibonacci (golden
// ratio) multiply of the key, which spreads strided keys — sector numbers
// on a fixed pitch, block numbers — as well as random ones. Erase shifts
// the probe run back over the hole (no tombstones), so lookups stay short
// however many insert/erase cycles the table goes through.
//
// Values need only be default-constructible and movable, so move-only
// callbacks can live in the slots; an empty slot always holds a
// value-initialized V, which operator[] hands out for a new key.
//
// Iteration (for_each) walks the slots, an order that depends on the
// insertion history. Callers whose output must not depend on it sort what
// they read out, as the characterization consumers do when they build
// their ascending views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace ess::util {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K>, "FlatMap keys are integers");

 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value at `key`, or nullptr when absent. Valid until
  /// the next insertion or erase.
  V* find(K key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const V* find(K key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// The value at `key`, value-initialized when the key is new. One probe
  /// run finds the key or the empty slot it goes into.
  V& operator[](K key) {
    if (!slots_.empty()) {
      std::size_t i = home(key);
      for (; slots_[i].used; i = next(i)) {
        if (slots_[i].key == key) return slots_[i].value;
      }
      if (2 * (size_ + 1) <= slots_.size()) {
        slots_[i].key = key;
        slots_[i].used = true;
        ++size_;
        return slots_[i].value;
      }
    }
    rehash(2 * (size_ + 1));
    return place(key, V{});
  }

  /// Remove `key`; returns whether it was present.
  bool erase(K key) {
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    while (true) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].key == key) break;
      hole = next(hole);
    }
    // Backward shift: walk the rest of the probe run and pull back every
    // entry whose home does not lie cyclically between the hole and it,
    // so no later lookup meets an empty slot before its key.
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drop every entry, keeping the table's capacity.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Size the table for `n` entries without a rehash on the way there.
  void reserve(std::size_t n) {
    if (2 * n > slots_.size()) rehash(2 * n);
  }

  /// f(key, value) for every entry, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };

  std::size_t home(K key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  /// Store a key known to be absent; the table has room.
  V& place(K key, V value) {
    std::size_t i = home(key);
    while (slots_[i].used) i = next(i);
    slots_[i] = Slot{key, std::move(value), true};
    ++size_;
    return slots_[i].value;
  }

  /// Move every entry into a table of at least `min_slots` slots.
  void rehash(std::size_t min_slots) {
    std::size_t n = 16;
    int bits = 4;
    while (n < min_slots) {
      n *= 2;
      ++bits;
    }
    std::vector<Slot> old(n);
    old.swap(slots_);
    mask_ = n - 1;
    shift_ = 64 - bits;
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) place(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace ess::util
