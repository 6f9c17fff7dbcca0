//===- memory/AccessSet.h - Read/write set tracking -------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-granularity read/write sets. The paper (§4.1) stores instrumented
/// block addresses "in a (local) hash set as well as a (global) array. The
/// hash set allows quick elimination of duplicates, while the global array
/// allows other processes to check for conflicts against their respective
/// read- and write-sets." AccessSet mirrors that structure: an
/// open-addressing hash set for dedup plus a dense array of the unique words
/// for iteration, serialization, and cross-set intersection.
///
/// The hash table is built lazily, on the first insert. A set decoded from
/// the wire (assignSortedKeys) arrives as an ascending word array and is
/// queried by binary search until something inserts into it, so the
/// parent's decode path never rehashes the ~thousands of words a child
/// ships; an empty set allocates nothing.
///
/// Addresses are tracked at 8-byte word granularity; instrumenting a range
/// inserts every word it covers, matching the paper's allocation-granularity
/// instrumentation where whole objects (and whole array ranges indexed by an
/// induction variable) are inserted at once. Table 4's "RW Set / Trans."
/// column counts exactly these words.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_MEMORY_ACCESSSET_H
#define ALTER_MEMORY_ACCESSSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alter {

/// Fixed-size Bloom-filter summary of an access set. Carried in the fork
/// executors' wire messages so the parent can prove two sets disjoint with
/// eight word compares instead of a word-by-word intersection — the common
/// case in the paper's workloads (Table 4 shows conflict-free rounds
/// dominating).
///
/// The filter summarizes 512-byte GRANULES (word key >> GranuleShift), not
/// individual words: a fixed-width filter over few-hundred-word sets would
/// saturate and never prove anything, while the spatially-separated slices
/// that make up the typical conflict-free round collapse to a handful of
/// granules and keep the filter sparse. Coarsening is conservative — granule
/// overlap is a superset of word overlap — so a zero AND still proves
/// disjointness; neighbors inside one granule merely fall back to the exact
/// check (counted as a filter false positive).
struct BloomSummary {
  static constexpr size_t NumWords = 8; // 512 bits
  /// log2(words per granule): 64 words = 512 bytes per granule.
  static constexpr unsigned GranuleShift = 6;

  uint64_t Bits[NumWords] = {};

  void add(uint64_t Hash) {
    const unsigned B0 = static_cast<unsigned>(Hash & 511);
    const unsigned B1 = static_cast<unsigned>((Hash >> 9) & 511);
    Bits[B0 >> 6] |= uint64_t(1) << (B0 & 63);
    Bits[B1 >> 6] |= uint64_t(1) << (B1 & 63);
  }

  void clear() {
    for (uint64_t &W : Bits)
      W = 0;
  }

  /// True when the filters share no set bit: the underlying sets are then
  /// PROVABLY disjoint (any common key sets identical bits in both).
  /// False is inconclusive — the caller must fall back to the exact check.
  bool disjointWith(const BloomSummary &Other) const {
    uint64_t Any = 0;
    for (size_t I = 0; I != NumWords; ++I)
      Any |= Bits[I] & Other.Bits[I];
    return Any == 0;
  }
};

/// A deduplicated set of 8-byte memory words touched by one transaction.
class AccessSet {
public:
  AccessSet() = default;

  /// Converts a byte address to its word key.
  static uintptr_t wordKey(const void *Addr) {
    return reinterpret_cast<uintptr_t>(Addr) >> 3;
  }

  /// Inserts the word containing \p Addr. Returns true if it was new.
  bool insert(const void *Addr) { return insertKey(wordKey(Addr)); }

  /// Inserts every word overlapping [Addr, Addr + Size).
  void insertRange(const void *Addr, size_t Size);

  /// True if the word containing \p Addr is present.
  bool contains(const void *Addr) const { return containsKey(wordKey(Addr)); }

  /// True if this set and \p Other share at least one word.
  bool intersects(const AccessSet &Other) const;

  /// A word key shared by this set and \p Other, or 0 when the sets are
  /// disjoint (word key 0 cannot occur for real data). Same cost as
  /// intersects(); the conflict detector uses the returned key as the
  /// abort's attribution witness.
  uintptr_t firstCommonWord(const AccessSet &Other) const;

  /// Inserts every word of \p Other into this set.
  void unionWith(const AccessSet &Other);

  /// Number of distinct words tracked.
  size_t sizeWords() const { return Words.size(); }

  /// True when no words are tracked.
  bool empty() const { return Words.empty(); }

  /// Approximate bytes of memory this set consumes (hash table + array).
  /// Used to model the paper's AggloClust out-of-memory crash under
  /// read-set-hungry policies.
  size_t memoryFootprintBytes() const;

  /// Dense array of the unique word keys, in insertion order (ascending for
  /// a set built by assignSortedKeys) — the paper's "global array" view
  /// used for cross-process conflict checks.
  const std::vector<uintptr_t> &words() const { return Words; }

  /// Removes all words, keeping capacity.
  void clear();

  /// Inserts each of \p Keys (bulk insertion).
  void insertWords(const uintptr_t *Keys, size_t Count);

  /// Replaces the contents with \p Keys, which must be strictly ascending
  /// and free of word key 0 (the wire decoder checks both). No hash table
  /// is built: lookups binary-search the array until the next insert.
  void assignSortedKeys(std::vector<uintptr_t> &&Keys);

  /// Bloom summary of every word inserted so far, maintained incrementally.
  /// Deterministic: depends only on the set of keys, not insertion order.
  const BloomSummary &summary() const { return Summary; }

private:
  bool insertKey(uintptr_t Key);
  bool containsKey(uintptr_t Key) const;
  void grow();
  void rehash(size_t Capacity);

  static uint64_t hashKey(uintptr_t Key) {
    uint64_t X = static_cast<uint64_t>(Key);
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return X;
  }

  /// Open-addressing table of word keys; EmptyKey marks free slots. Word
  /// key 0 cannot occur for real data (it would mean an access in the first
  /// 8 bytes of the address space), so 0 serves as the empty marker.
  static constexpr uintptr_t EmptyKey = 0;

  /// Empty until the first insert; while empty, Words is strictly
  /// ascending and containsKey binary-searches it.
  std::vector<uintptr_t> Table;
  std::vector<uintptr_t> Words;
  size_t Mask = 0;
  BloomSummary Summary;
};

} // namespace alter

#endif // ALTER_MEMORY_ACCESSSET_H
