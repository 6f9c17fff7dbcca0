//===- runtime/CommitRing.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CommitRing.h"

#include "support/Trace.h"

#include <cerrno>
#include <climits>
#include <cstring>
#include <ctime>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

using namespace alter;

namespace {

size_t roundUpPow2(size_t V) {
  size_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

} // namespace

CommitRing::CommitRing(size_t CapacityBytes) {
  const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  Cap = roundUpPow2(CapacityBytes < Page ? Page : CapacityBytes);
  MapBytes = sizeof(Header) + Cap;
  void *Mem = ::mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    // ENOMEM-class exhaustion: leave the ring invalid and let the creation
    // site retreat (cold transport / contained fork failure) instead of
    // killing the parent.
    alterLogAlways(LogLevel::Warn, "ring",
                   "event=mmap_fail bytes=%zu errno=%d", MapBytes, errno);
    Cap = 0;
    MapBytes = 0;
    return;
  }
  Hdr = new (Mem) Header;
  Hdr->Head.store(0, std::memory_order_relaxed);
  Hdr->Tail.store(0, std::memory_order_relaxed);
  Data = static_cast<uint8_t *>(Mem) + sizeof(Header);
}

CommitRing::~CommitRing() {
  if (Hdr)
    ::munmap(Hdr, MapBytes);
}

size_t CommitRing::pushSome(const uint8_t *Src, size_t Size) {
  const uint64_t Head = Hdr->Head.load(std::memory_order_relaxed);
  const uint64_t Tail = Hdr->Tail.load(std::memory_order_acquire);
  const size_t Free = Cap - static_cast<size_t>(Head - Tail);
  const size_t N = Size < Free ? Size : Free;
  if (N == 0)
    return 0;
  const size_t Pos = static_cast<size_t>(Head) & (Cap - 1);
  const size_t FirstPart = N < Cap - Pos ? N : Cap - Pos;
  std::memcpy(Data + Pos, Src, FirstPart);
  std::memcpy(Data, Src + FirstPart, N - FirstPart);
  Hdr->Head.store(Head + N, std::memory_order_release);
  return N;
}

size_t CommitRing::drainInto(std::vector<uint8_t> &Out) {
  const uint64_t Tail = Hdr->Tail.load(std::memory_order_relaxed);
  const uint64_t Head = Hdr->Head.load(std::memory_order_acquire);
  const size_t N = static_cast<size_t>(Head - Tail);
  if (N == 0)
    return 0;
  const size_t Pos = static_cast<size_t>(Tail) & (Cap - 1);
  const size_t FirstPart = N < Cap - Pos ? N : Cap - Pos;
  Out.insert(Out.end(), Data + Pos, Data + Pos + FirstPart);
  Out.insert(Out.end(), Data, Data + (N - FirstPart));
  Hdr->Tail.store(Tail + N, std::memory_order_release);
  return N;
}

size_t CommitRing::used() const {
  const uint64_t Tail = Hdr->Tail.load(std::memory_order_relaxed);
  const uint64_t Head = Hdr->Head.load(std::memory_order_acquire);
  return static_cast<size_t>(Head - Tail);
}

void CommitRing::reset() {
  Hdr->Head.store(0, std::memory_order_relaxed);
  Hdr->Tail.store(0, std::memory_order_relaxed);
}

void CommitRing::backoff() {
  timespec Ts{0, 50'000}; // 50us: the parent drains on the next poll wake
  while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR)
    ;
}

//===----------------------------------------------------------------------===
// CommitStream
//===----------------------------------------------------------------------===

namespace {

constexpr size_t StreamRecordHeaderBytes = 2 * sizeof(uint64_t);

uint64_t padTo8(uint64_t V) { return (V + 7) & ~uint64_t(7); }

} // namespace

CommitStream::CommitStream(size_t MaxBytes) {
  const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  MapBytes = MaxBytes < Page ? Page : MaxBytes / Page * Page;
  void *Mem = ::mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    alterLogAlways(LogLevel::Warn, "stream",
                   "event=mmap_fail bytes=%zu errno=%d", MapBytes, errno);
    MapBytes = 0;
    return;
  }
  Hdr = new (Mem) Header;
  Hdr->Floor.store(0, std::memory_order_relaxed);
  Data = static_cast<uint8_t *>(Mem) + sizeof(Header);
  Cap = MapBytes - sizeof(Header);
}

CommitStream::~CommitStream() {
  if (Hdr)
    ::munmap(Hdr, MapBytes);
}

void CommitStream::copyIn(uint64_t Pos, const void *Src, size_t Size) {
  if (Size == 0)
    return; // an empty piece may carry a null pointer
  const size_t At = static_cast<size_t>(Pos % Cap);
  const size_t First = Size < Cap - At ? Size : Cap - At;
  std::memcpy(Data + At, Src, First);
  std::memcpy(Data, static_cast<const uint8_t *>(Src) + First, Size - First);
}

void CommitStream::copyOut(uint64_t Pos, void *Dst, size_t Size) const {
  if (Size == 0)
    return;
  const size_t At = static_cast<size_t>(Pos % Cap);
  const size_t First = Size < Cap - At ? Size : Cap - At;
  std::memcpy(Dst, Data + At, First);
  std::memcpy(static_cast<uint8_t *>(Dst) + First, Data, Size - First);
}

void CommitStream::append(std::initializer_list<Piece> Pieces) {
  uint64_t Len = 0;
  for (const Piece &P : Pieces)
    Len += P.Size;
  const uint64_t Start = End.Pos;
  const uint64_t Stop = Start + StreamRecordHeaderBytes + padTo8(Len);
  const bool Fits = Stop - Start <= Cap;
  // Raise the floor BEFORE overwriting anything: a consumer whose copy
  // picks up any byte written below is then guaranteed to see the new
  // floor when it re-reads it after the copy (seqlock-style fences).
  const uint64_t NewFloor = !Fits ? Stop : Stop > Cap ? Stop - Cap : 0;
  if (NewFloor > Hdr->Floor.load(std::memory_order_relaxed)) {
    Hdr->Floor.store(NewFloor, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  if (Fits) {
    const uint64_t RecHdr[2] = {End.Seq + 1, Len};
    copyIn(Start, RecHdr, sizeof(RecHdr));
    uint64_t Pos = Start + sizeof(RecHdr);
    for (const Piece &P : Pieces) {
      copyIn(Pos, P.Data, P.Size);
      Pos += P.Size;
    }
  }
  End.Pos = Stop;
  ++End.Seq;
}

CommitStream::ReadResult
CommitStream::next(Cursor &C, std::vector<uint8_t> &Payload) const {
  uint64_t RecHdr[2];
  copyOut(C.Pos, RecHdr, sizeof(RecHdr));
  const bool Sane =
      RecHdr[0] == C.Seq + 1 && RecHdr[1] <= Cap - StreamRecordHeaderBytes;
  if (Sane) {
    Payload.resize(static_cast<size_t>(RecHdr[1]));
    copyOut(C.Pos + sizeof(RecHdr), Payload.data(), Payload.size());
  }
  // Only now, after the copy, may the floor vouch for it.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (C.Pos < Hdr->Floor.load(std::memory_order_relaxed))
    return ReadResult::Overrun;
  if (!Sane)
    return ReadResult::Corrupt;
  C.Pos += StreamRecordHeaderBytes + padTo8(RecHdr[1]);
  ++C.Seq;
  return ReadResult::Ok;
}

void CommitStream::protectReadOnly() {
  if (Hdr)
    (void)::mprotect(Hdr, MapBytes, PROT_READ);
}

//===----------------------------------------------------------------------===
// DispatchQueue
//===----------------------------------------------------------------------===

DispatchQueue::DispatchQueue(size_t NumEntries, unsigned Slots) {
  Cap = roundUpPow2(NumEntries < 2 ? 2 : NumEntries);
  const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t Bytes =
      sizeof(Header) + Slots * sizeof(SlotWords) + Cap * sizeof(Entry);
  MapBytes = (Bytes + Page - 1) / Page * Page;
  void *Mem = ::mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    alterLogAlways(LogLevel::Warn, "queue",
                   "event=mmap_fail bytes=%zu errno=%d", MapBytes, errno);
    MapBytes = 0;
    Cap = 0;
    return;
  }
  // Fresh anonymous pages are zero: every entry starts as index 0 with no
  // status, which matches no open word.
  Hdr = new (Mem) Header;
  Words = reinterpret_cast<SlotWords *>(static_cast<uint8_t *>(Mem) +
                                        sizeof(Header));
  Entries = reinterpret_cast<Entry *>(reinterpret_cast<uint8_t *>(Words) +
                                      Slots * sizeof(SlotWords));
}

DispatchQueue::~DispatchQueue() {
  if (Hdr)
    ::munmap(Hdr, MapBytes);
}

void DispatchQueue::open(uint64_t Index) {
  entry(Index).State.store(stateWord(Index, EntryStatus::Open),
                           std::memory_order_release);
  if (Hdr->Published.load(std::memory_order_relaxed) <= Index)
    Hdr->Published.store(Index + 1, std::memory_order_release);
}

bool DispatchQueue::retract(uint64_t Index) {
  uint64_t Open = stateWord(Index, EntryStatus::Open);
  return entry(Index).State.compare_exchange_strong(
      Open, stateWord(Index, EntryStatus::Retracted),
      std::memory_order_acq_rel);
}

void DispatchQueue::setVerdicts(unsigned Slot, uint64_t Taken,
                                uint64_t Settled) {
  Words[Slot].Taken.store(Taken, std::memory_order_release);
  Words[Slot].Settled.store(Settled, std::memory_order_release);
}

void DispatchQueue::ring() {
  Hdr->Bell.fetch_add(1, std::memory_order_seq_cst);
  if (Hdr->Sleepers.load(std::memory_order_seq_cst) != 0)
    ::syscall(SYS_futex, &Hdr->Bell, FUTEX_WAKE, INT32_MAX, nullptr, nullptr,
              0);
}

bool DispatchQueue::claim(unsigned Slot, uint8_t Tag, uint64_t &Index) {
  const uint64_t End = Hdr->Published.load(std::memory_order_acquire);
  for (uint64_t I = Hdr->ScanFrom.load(std::memory_order_acquire); I < End;
       ++I) {
    uint64_t Word = stateWord(I, EntryStatus::Open);
    if (entry(I).State.load(std::memory_order_acquire) != Word)
      continue;
    if (entry(I).State.compare_exchange_strong(
            Word, stateWord(I, EntryStatus::Claimed, Slot, Tag),
            std::memory_order_acq_rel)) {
      Index = I;
      return true;
    }
  }
  return false;
}

void DispatchQueue::sleep(uint32_t Seen) {
  Hdr->Sleepers.fetch_add(1, std::memory_order_seq_cst);
  if (Hdr->Bell.load(std::memory_order_seq_cst) == Seen) {
    Hdr->ClaimSleeps.fetch_add(1, std::memory_order_relaxed);
    // The timeout is a liveness backstop only: ring() wakes every sleeper.
    timespec Ts{0, 100'000'000};
    ::syscall(SYS_futex, &Hdr->Bell, FUTEX_WAIT, Seen, &Ts, nullptr, 0);
  }
  Hdr->Sleepers.fetch_sub(1, std::memory_order_seq_cst);
}

void DispatchQueue::wakeParent() {
  Hdr->ParentBell.fetch_add(1, std::memory_order_seq_cst);
  if (Hdr->ParentSleeping.load(std::memory_order_seq_cst) != 0)
    ::syscall(SYS_futex, &Hdr->ParentBell, FUTEX_WAKE, 1, nullptr, nullptr,
              0);
}

void DispatchQueue::sleepParent(uint32_t Seen, int TimeoutMs) {
  Hdr->ParentSleeping.store(1, std::memory_order_seq_cst);
  if (Hdr->ParentBell.load(std::memory_order_seq_cst) == Seen) {
    timespec Ts{TimeoutMs / 1000, (TimeoutMs % 1000) * 1'000'000L};
    ::syscall(SYS_futex, &Hdr->ParentBell, FUTEX_WAIT, Seen, &Ts, nullptr, 0);
  }
  Hdr->ParentSleeping.store(0, std::memory_order_seq_cst);
}
