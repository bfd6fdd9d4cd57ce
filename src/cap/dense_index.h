// A map from (group, position) keys to 32-bit values, for keys minted in sequence.
//
// An owner mints object indices in sequence and a holder mints cids in sequence, so the keys
// of the capability layer's indices arrive in order and stay clustered. Indexing them by
// position, not by a per-key hash, keeps the table small and its probes cache-friendly (the
// point MIND, arxiv 2107.00164, makes for translation state). The index is a directory of
// 64-entry leaves: leaf (group, pos >> 6) holds the values of its 64 positions, the
// directory is hashed by that leaf key, and a last-leaf cache serves runs of nearby keys
// without touching the directory. A leaf is freed once its last key is erased.
//
// Leaves are small on purpose. Keys can come from peers or from snapshots, so they may be
// sparse or hostile; a directory indexed directly by position would let one huge position
// allocate without bound, while a 64-entry leaf bounds the memory at about one leaf per live
// key in the worst case.

#ifndef SRC_CAP_DENSE_INDEX_H_
#define SRC_CAP_DENSE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

class DenseIndex {
 public:
  // The value of an absent key; it can never be stored.
  static constexpr uint32_t kAbsent = ~0u;
  static constexpr uint32_t kLeafShift = 6;
  static constexpr uint64_t kLeafSlots = uint64_t{1} << kLeafShift;

  DenseIndex() = default;
  // Moves drop both last-leaf caches, so neither side points into the other's leaves.
  DenseIndex(DenseIndex&& o) noexcept : leaves_(std::move(o.leaves_)) { o.cache_ = nullptr; }
  DenseIndex& operator=(DenseIndex&& o) noexcept {
    leaves_ = std::move(o.leaves_);
    cache_ = o.cache_ = nullptr;
    return *this;
  }

  uint32_t find(uint64_t pos, uint64_t group = 0) const {
    const Leaf* leaf = leaf_of(LeafKey{group, pos >> kLeafShift});
    return leaf == nullptr ? kAbsent : leaf->values[pos & (kLeafSlots - 1)];
  }

  // Sets the value of (group, pos) and returns the previous one (kAbsent if it had none).
  uint32_t put(uint64_t pos, uint32_t value, uint64_t group = 0) {
    FRACTOS_DCHECK(value != kAbsent);
    const LeafKey key{group, pos >> kLeafShift};
    Leaf* leaf = leaf_of(key);
    if (leaf == nullptr) {
      leaf = &leaves_.try_emplace(key).first->second;
      cache_key_ = key;
      cache_ = leaf;
    }
    const uint32_t old = std::exchange(leaf->values[pos & (kLeafSlots - 1)], value);
    if (old == kAbsent) {
      ++leaf->live;
    }
    return old;
  }

  // Removes (group, pos) and returns its value (kAbsent if it had none).
  uint32_t erase(uint64_t pos, uint64_t group = 0) {
    const LeafKey key{group, pos >> kLeafShift};
    Leaf* leaf = leaf_of(key);
    if (leaf == nullptr) {
      return kAbsent;
    }
    const uint32_t old = std::exchange(leaf->values[pos & (kLeafSlots - 1)], kAbsent);
    if (old != kAbsent && --leaf->live == 0) {
      leaves_.erase(key);
      cache_ = nullptr;
    }
    return old;
  }

  // Leaves currently allocated.
  size_t leaf_count() const { return leaves_.size(); }

 private:
  struct LeafKey {
    uint64_t group = 0;
    uint64_t leaf = 0;
    bool operator==(const LeafKey&) const = default;
  };
  struct LeafKeyHash {
    size_t operator()(const LeafKey& k) const noexcept {
      // The map reduces modulo a prime, so consecutive leaves of a group spread already.
      return static_cast<size_t>(k.leaf ^ (k.group * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Leaf {
    Leaf() { std::fill(std::begin(values), std::end(values), kAbsent); }
    uint32_t values[kLeafSlots];
    uint32_t live = 0;
  };

  Leaf* leaf_of(const LeafKey& key) const {
    if (cache_ != nullptr && cache_key_ == key) {
      return cache_;
    }
    auto it = leaves_.find(key);
    if (it == leaves_.end()) {
      return nullptr;
    }
    cache_key_ = key;
    cache_ = &it->second;
    return cache_;
  }

  mutable std::unordered_map<LeafKey, Leaf, LeafKeyHash> leaves_;
  mutable LeafKey cache_key_;
  mutable Leaf* cache_ = nullptr;  // the leaf of cache_key_, or nullptr
};

}  // namespace fractos

#endif  // SRC_CAP_DENSE_INDEX_H_
