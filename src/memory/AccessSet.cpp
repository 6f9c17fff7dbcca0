//===- memory/AccessSet.cpp -----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memory/AccessSet.h"

#include <algorithm>
#include <cassert>

using namespace alter;

namespace {
constexpr size_t InitialCapacity = 64; // must be a power of two
} // namespace

void AccessSet::insertRange(const void *Addr, size_t Size) {
  if (Size == 0)
    return;
  const uintptr_t First = wordKey(Addr);
  const uintptr_t Last =
      wordKey(static_cast<const char *>(Addr) + Size - 1);
  for (uintptr_t Key = First; Key <= Last; ++Key)
    insertKey(Key);
}

bool AccessSet::insertKey(uintptr_t Key) {
  assert(Key != EmptyKey && "access in the first word of the address space");
  // A set without a table (fresh, or decoded) reads as full here, so its
  // first insert builds one.
  if (Words.size() * 4 >= Table.size() * 3)
    grow();
  size_t Slot = hashKey(Key) & Mask;
  while (Table[Slot] != EmptyKey) {
    if (Table[Slot] == Key)
      return false;
    Slot = (Slot + 1) & Mask;
  }
  Table[Slot] = Key;
  Words.push_back(Key);
  Summary.add(hashKey(Key >> BloomSummary::GranuleShift));
  return true;
}

bool AccessSet::containsKey(uintptr_t Key) const {
  if (Table.empty())
    return std::binary_search(Words.begin(), Words.end(), Key);
  size_t Slot = hashKey(Key) & Mask;
  while (Table[Slot] != EmptyKey) {
    if (Table[Slot] == Key)
      return true;
    Slot = (Slot + 1) & Mask;
  }
  return false;
}

void AccessSet::grow() {
  size_t Capacity = Table.empty() ? InitialCapacity : Table.size() * 2;
  // A decoded set brings its words along: size its first table for them
  // plus the insert that asked for it.
  while ((Words.size() + 1) * 4 >= Capacity * 3)
    Capacity *= 2;
  rehash(Capacity);
}

void AccessSet::rehash(size_t Capacity) {
  std::vector<uintptr_t> NewTable(Capacity, EmptyKey);
  const size_t NewMask = Capacity - 1;
  for (uintptr_t Key : Words) {
    size_t Slot = hashKey(Key) & NewMask;
    while (NewTable[Slot] != EmptyKey)
      Slot = (Slot + 1) & NewMask;
    NewTable[Slot] = Key;
  }
  Table = std::move(NewTable);
  Mask = NewMask;
}

bool AccessSet::intersects(const AccessSet &Other) const {
  return firstCommonWord(Other) != EmptyKey;
}

uintptr_t AccessSet::firstCommonWord(const AccessSet &Other) const {
  // Probe the smaller array against the larger hash table (or, for a
  // decoded set that has none, its sorted array), mirroring the paper's
  // array-vs-set conflict check between processes.
  const AccessSet &Small = sizeWords() <= Other.sizeWords() ? *this : Other;
  const AccessSet &Large = sizeWords() <= Other.sizeWords() ? Other : *this;
  for (uintptr_t Key : Small.Words)
    if (Large.containsKey(Key))
      return Key;
  return EmptyKey;
}

void AccessSet::unionWith(const AccessSet &Other) {
  for (uintptr_t Key : Other.Words)
    insertKey(Key);
}

size_t AccessSet::memoryFootprintBytes() const {
  return (Table.capacity() + Words.capacity()) * sizeof(uintptr_t);
}

void AccessSet::clear() {
  std::fill(Table.begin(), Table.end(), EmptyKey);
  Words.clear();
  Summary.clear();
}

void AccessSet::insertWords(const uintptr_t *Keys, size_t Count) {
  for (size_t I = 0; I != Count; ++I)
    insertKey(Keys[I]);
}

void AccessSet::assignSortedKeys(std::vector<uintptr_t> &&Keys) {
  assert(std::adjacent_find(Keys.begin(), Keys.end(),
                            [](uintptr_t A, uintptr_t B) { return A >= B; }) ==
             Keys.end() &&
         "keys must be strictly ascending");
  assert((Keys.empty() || Keys.front() != EmptyKey) &&
         "access in the first word of the address space");
  Table.clear();
  Mask = 0;
  Words = std::move(Keys);
  // Ascending keys visit each granule in one stretch: hash it once.
  Summary.clear();
  uintptr_t Prev = ~uintptr_t(0); // no key's granule: keys are < 2^64
  for (const uintptr_t Key : Words) {
    const uintptr_t Granule = Key >> BloomSummary::GranuleShift;
    if (Granule != Prev)
      Summary.add(hashKey(Granule));
    Prev = Granule;
  }
}
