// Sparse parallel hash table (§4.2 of the paper): a lock-free open-addressing
// table with linear probing that aggregates weighted samples. Keys are
// inserted with a CAS on the key slot; values are accumulated with atomic
// fetch-add (xadd for integral values). No deletions. Counts are exact: every
// accepted sample is accounted for by an atomic instruction.
//
// The table has fixed capacity. The sparsifier sizes it from a pilot
// estimate of the distinct keys (core/sparsifier.h, BuildSparsifier); if the
// fill factor exceeds the load limit, Upsert returns false and the caller
// retries with a larger table.
#ifndef LIGHTNE_PARALLEL_CONCURRENT_HASH_TABLE_H_
#define LIGHTNE_PARALLEL_CONCURRENT_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/atomics.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace lightne {

template <typename V>
class ConcurrentHashTable {
 public:
  /// Sentinel for an unoccupied slot; user keys must differ from it.
  static constexpr uint64_t kEmptyKey = ~0ull;

  /// Capacity is rounded up to a power of two >= capacity_hint / max_load.
  explicit ConcurrentHashTable(uint64_t capacity_hint, double max_load = 0.8)
      : max_load_(max_load) {
    LIGHTNE_CHECK_GT(max_load, 0.0);
    LIGHTNE_CHECK_LT(max_load, 1.0);
    uint64_t want = static_cast<uint64_t>(
        static_cast<double>(capacity_hint < 16 ? 16 : capacity_hint) /
        max_load);
    capacity_ = 1;
    while (capacity_ < want) capacity_ <<= 1;
    mask_ = capacity_ - 1;
    // Raw storage: the slots are constructed by Clear(), in parallel, so the
    // first touch of every page is spread over the workers.
    slots_.reset(static_cast<Slot*>(::operator new(
        capacity_ * sizeof(Slot), std::align_val_t{kSlotArrayAlign})));
    Clear();
  }

  /// Adds `delta` to the value stored under `key`, inserting the key if new.
  /// Thread-safe and lock-free. Returns false (and drops the update) only
  /// when the table is past its load limit; the overflow flag is then set.
  bool Upsert(uint64_t key, V delta) {
    LIGHTNE_CHECK_NE(key, kEmptyKey);
    if (overflow_.load(std::memory_order_relaxed)) return false;
    // Fault point: pretend the table just crossed its load limit so callers
    // exercise their overflow-retry path (see the sparsifier builder).
    if (LIGHTNE_FAULT_POINT("sparsifier/table_insert")) {
      overflow_.store(true, std::memory_order_relaxed);
      return false;
    }
    uint64_t idx = Hash(key) & mask_;
    for (uint64_t probes = 0; probes <= mask_; ++probes) {
      Slot& slot = slots_[idx];
      uint64_t k = slot.key.load(std::memory_order_acquire);
      if (k == key) {
        AtomicFetchAdd(slot.value, delta);
        return true;
      }
      if (k == kEmptyKey) {
        uint64_t expected = kEmptyKey;
        if (slot.key.compare_exchange_strong(expected, key,
                                             std::memory_order_acq_rel)) {
          uint64_t filled = 1 + fill_.fetch_add(1, std::memory_order_relaxed);
          if (static_cast<double>(filled) >
              max_load_ * static_cast<double>(capacity_)) {
            overflow_.store(true, std::memory_order_relaxed);
          }
          AtomicFetchAdd(slot.value, delta);
          return true;
        }
        if (expected == key) {  // lost the race to the same key
          AtomicFetchAdd(slot.value, delta);
          return true;
        }
        // lost to a different key: fall through and keep probing this slot's
        // successor (the slot now holds `expected`).
      }
      idx = (idx + 1) & mask_;
    }
    overflow_.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Batched Upsert with a hash-prefetch stage: every record's home slot is
  /// prefetched first, then the upserts run, so the probe cache misses of a
  /// batch overlap instead of serializing (the table is far larger than any
  /// cache, so an unprefetched probe is a near-guaranteed miss). Same
  /// thread-safety and exactness guarantees as Upsert, record by record.
  /// Returns false iff any record was rejected (overflow); the remaining
  /// records are still attempted so the accepted/rejected accounting of the
  /// caller's retry path stays simple.
  bool UpsertBatch(const std::pair<uint64_t, V>* records, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      PrefetchSlot(records[i].first);
    }
    bool ok = true;
    for (uint32_t i = 0; i < n; ++i) {
      ok = Upsert(records[i].first, records[i].second) && ok;
    }
    return ok;
  }

  /// Value stored under key, or V{} if absent. Safe concurrently with
  /// Upsert, but the read is a snapshot.
  V Get(uint64_t key) const {
    uint64_t idx = Hash(key) & mask_;
    for (uint64_t probes = 0; probes <= mask_; ++probes) {
      const Slot& slot = slots_[idx];
      uint64_t k = slot.key.load(std::memory_order_acquire);
      if (k == key) return slot.value.load(std::memory_order_relaxed);
      if (k == kEmptyKey) return V{};
      idx = (idx + 1) & mask_;
    }
    return V{};
  }

  /// Number of distinct keys inserted so far.
  uint64_t NumEntries() const { return fill_.load(std::memory_order_relaxed); }

  uint64_t capacity() const { return capacity_; }

  /// True once any Upsert was rejected (or the load limit was crossed).
  bool overflowed() const { return overflow_.load(std::memory_order_relaxed); }

  /// Bytes held by the slot array (the dominant footprint).
  uint64_t MemoryBytes() const { return capacity_ * sizeof(Slot); }

  /// Bytes a table constructed with this hint would occupy, mirroring the
  /// constructor's rounding. Lets budget-aware callers check the footprint
  /// before allocating (see the sparsifier's memory-budget governor).
  static uint64_t ProjectedMemoryBytes(uint64_t capacity_hint,
                                       double max_load = 0.8) {
    const uint64_t want = static_cast<uint64_t>(
        static_cast<double>(capacity_hint < 16 ? 16 : capacity_hint) /
        max_load);
    uint64_t capacity = 1;
    while (capacity < want) capacity <<= 1;
    return capacity * sizeof(Slot);
  }

  /// Largest capacity hint whose table fits in `budget_bytes`, or 0 if even
  /// the minimum table does not fit.
  static uint64_t LargestHintFitting(uint64_t budget_bytes,
                                     double max_load = 0.8) {
    uint64_t capacity = 1;
    while (capacity * 2 * sizeof(Slot) <= budget_bytes) capacity <<= 1;
    if (capacity * sizeof(Slot) > budget_bytes) return 0;
    // Invert the constructor rounding: any hint <= capacity * max_load maps
    // to a table of at most `capacity` slots.
    const uint64_t hint = static_cast<uint64_t>(
        static_cast<double>(capacity) * max_load);
    return ProjectedMemoryBytes(hint, max_load) <= budget_bytes ? hint : 0;
  }

  /// Reads slot `i` (< capacity()): false if it is empty, else its key and
  /// value. For callers that partition a scan of the slot array themselves
  /// (the sparsifier's table-to-CSR build). Must not run concurrently with
  /// Upsert.
  bool ReadSlot(uint64_t i, uint64_t* key, V* value) const {
    *key = slots_[i].key.load(std::memory_order_relaxed);
    if (*key == kEmptyKey) return false;
    *value = slots_[i].value.load(std::memory_order_relaxed);
    return true;
  }

  /// Extracts all (key, value) pairs (unordered), in parallel.
  std::vector<std::pair<uint64_t, V>> Extract() const {
    return ParallelPack<std::pair<uint64_t, V>>(
        capacity_,
        [&](uint64_t i) {
          return slots_[i].key.load(std::memory_order_relaxed) != kEmptyKey;
        },
        [&](uint64_t i) {
          return std::make_pair(slots_[i].key.load(std::memory_order_relaxed),
                                slots_[i].value.load(std::memory_order_relaxed));
        });
  }

  /// Resets the table to empty. Not thread-safe.
  void Clear() {
    ParallelFor(0, capacity_, [&](uint64_t i) {
      new (&slots_[i]) Slot{kEmptyKey, V{}};
    });
    fill_.store(0, std::memory_order_relaxed);
    overflow_.store(false, std::memory_order_relaxed);
  }

 private:
  // Layout choice: each slot is its natural 16 bytes, four to a cache line.
  // Four neighbors sharing a line could false-share when workers hammer one
  // hot key, but the sampler's key stream repeats little: a per-worker cache
  // in front of the table merged only 7.6% of accepted samples on the
  // oag-large benchmark workload and 1.1% on rmat-compressed. What arrives
  // is a near-distinct stream scattered over a table far larger than cache.
  // There a probe is one line miss whatever the slot size, and a padded
  // slot would only spend 4x the memory (and the page-faulting to touch it)
  // on lines that are rarely contended. The memory-budget governor sizes
  // tables through sizeof(Slot) (MemoryBytes / ProjectedMemoryBytes).
  struct Slot {
    std::atomic<uint64_t> key;
    std::atomic<V> value;
  };
  static_assert(sizeof(Slot) == 16, "slots are the unpadded 16-byte pair");
  static_assert(std::is_trivially_destructible_v<Slot>);
  static constexpr size_t kSlotArrayAlign = 64;
  struct SlotArrayDelete {
    void operator()(Slot* p) const {
      ::operator delete(p, std::align_val_t{kSlotArrayAlign});
    }
  };

  static uint64_t Hash(uint64_t key) {
    uint64_t s = key;
    return SplitMix64(s);
  }

  // Issues a write-intent prefetch for the key's home slot (probe chains are
  // short at the configured load factor, so the home line is almost always
  // the one touched). No-op on toolchains without the builtin.
  void PrefetchSlot(uint64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[Hash(key) & mask_], /*rw=*/1, /*locality=*/1);
#endif
  }

  double max_load_;
  uint64_t capacity_ = 0;
  uint64_t mask_ = 0;
  std::unique_ptr<Slot[], SlotArrayDelete> slots_;
  std::atomic<uint64_t> fill_{0};
  std::atomic<bool> overflow_{false};
};

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_CONCURRENT_HASH_TABLE_H_
