//===- runtime/CommitRing.h - Shared-memory SPSC commit ring ----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-producer/single-consumer byte ring in MAP_SHARED anonymous
/// memory, carrying one worker slot's framed commit records from a
/// forked child to the parent without crossing a kernel pipe. The mapping
/// is created by the parent before the worker-pool template forks, so the
/// template and every re-forked child inherit the same physical pages; a
/// child "ships" its commit message by memcpy into the ring, and wakes the
/// parent with a 1-byte doorbell on a side pipe (one-shot children) or a
/// futex in the DispatchQueue (resident children); see WorkerPool.h.
///
/// Layout: one cache-line-aligned header (free-running Head/Tail counters)
/// followed by a power-of-two data area. Head is advanced only by the
/// producer (child), Tail only by the consumer (parent); both are
/// std::atomic<uint64_t> with acquire/release ordering, which is all SPSC
/// needs. Records have no framing of their own — the commit frame
/// (magic | length | CRC32) already delimits and protects them, so the
/// parent can detect a complete record (wireFrameLooksComplete) and reject
/// a torn or corrupted one through the same checked decode path as the
/// pipe transport.
///
/// Backpressure: a message larger than the free space is published in
/// pieces (pushSome), the producer spinning with a short sleep until the
/// consumer drains. The non-blocking pushSome primitive is exposed so
/// wraparound and full-ring behavior are testable single-threaded.
///
/// CommitStream, below, carries commits the other way: the parent's
/// validated commits, broadcast to every replica of committed state.
/// DispatchQueue carries the work itself: chunks the parent publishes and
/// resident children claim.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_COMMITRING_H
#define ALTER_RUNTIME_COMMITRING_H

#include "support/FaultInjection.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace alter {

/// Doorbell-byte protocol for the ring transport (CommitRing + WorkerPool).
/// The high two bits carry the event, the low six bits an attempt tag that
/// the parent matches against the slot's current fork attempt, so a stale
/// doorbell from a previous occupant of the slot is dropped instead of
/// being mistaken for progress of the current child.
constexpr uint8_t RingDoorbellTagMask = 0x3f;
constexpr uint8_t RingDoorbellKindMask = 0xc0;
/// Child: the last piece of a record is published. Completes the record
/// even when an injected truncation keeps the frame from ever looking
/// whole. A record that fits the ring rings only this one byte.
constexpr uint8_t RingDoorbellFinish = 0x00;
/// Child: a piece of a record was published and more follow (a record
/// larger than the ring's free space).
constexpr uint8_t RingDoorbellData = 0x40;
/// Template: the child was reaped after a clean exit(0), or a resident
/// child bowed out because the commit stream lapped it.
constexpr uint8_t RingDoorbellClean = 0x80;
/// Template: the child was reaped after a signal or nonzero exit.
constexpr uint8_t RingDoorbellAbnormal = 0xc0;

/// SPSC byte ring in shared anonymous memory. Created before fork; both
/// sides use the same object (the parent's copy and the child's COW copy
/// point at the same MAP_SHARED pages).
class CommitRing {
public:
  /// Default per-slot capacity (ExecutorConfig::RingBytesPerSlot).
  static constexpr size_t DefaultCapacity = 1 << 20;

  /// Maps a ring with at least \p CapacityBytes of data area (rounded up
  /// to a power of two, minimum one page). An mmap failure (ENOMEM) does
  /// NOT abort: the ring comes up with valid() == false and every creation
  /// site degrades — the pool falls back to the cold pipe transport, a
  /// stage worker fails its (contained) fork. Callers must check valid()
  /// before use; the data-path methods assume a valid ring.
  explicit CommitRing(size_t CapacityBytes = DefaultCapacity);
  ~CommitRing();

  /// True when the shared mapping exists. False after an mmap failure —
  /// the contained resource-fault outcome, never a crash.
  bool valid() const { return Hdr != nullptr; }

  CommitRing(const CommitRing &) = delete;
  CommitRing &operator=(const CommitRing &) = delete;

  /// Producer side: copies at most \p Size bytes of \p Data into free
  /// space and returns how many were accepted (0 when full). Never blocks.
  size_t pushSome(const uint8_t *Data, size_t Size);

  /// Producer side: publishes all of \p Data, spinning with a short sleep
  /// while the ring is full. After each accepted piece \p OnProgress is
  /// invoked (the child rings its doorbell there, so the parent keeps
  /// draining and a message larger than the ring cannot deadlock).
  /// \p OnBackoff is invoked before each full-ring backoff sleep — the
  /// metrics hook that counts and times ring backpressure without putting
  /// a clock read on the uncontended path.
  template <typename Fn, typename BackoffFn>
  void pushAll(const uint8_t *Data, size_t Size, Fn &&OnProgress,
               BackoffFn &&OnBackoff) {
    size_t Off = 0;
    while (Off != Size) {
      const size_t N = pushSome(Data + Off, Size - Off);
      if (N == 0) {
        OnBackoff();
        backoff();
        continue;
      }
      Off += N;
      OnProgress();
    }
  }

  template <typename Fn>
  void pushAll(const uint8_t *Data, size_t Size, Fn &&OnProgress) {
    pushAll(Data, Size, static_cast<Fn &&>(OnProgress), [] {});
  }

  /// Consumer side: moves every available byte into \p Out (appending) and
  /// returns how many were taken.
  size_t drainInto(std::vector<uint8_t> &Out);

  /// Bytes currently readable.
  size_t used() const;

  /// Data-area size in bytes.
  size_t capacity() const { return Cap; }

  /// Resets Head/Tail to empty. Only legal while no producer is active
  /// (the parent calls it between chunk attempts, after the previous
  /// child's record was fully consumed or its child reaped).
  void reset();

  /// The producer's full-ring wait: a short sleep while the parent drains.
  static void backoff();

private:
  struct Header {
    alignas(64) std::atomic<uint64_t> Head; // producer cursor (free-running)
    alignas(64) std::atomic<uint64_t> Tail; // consumer cursor (free-running)
  };

  Header *Hdr = nullptr;
  uint8_t *Data = nullptr;
  size_t Cap = 0;
  size_t MapBytes = 0;
};

/// Single-producer, multi-consumer broadcast of committed write logs in
/// MAP_SHARED anonymous memory: the parent appends each validated commit as
/// one sequence-numbered record, and every replica of committed state
/// forked after the mapping was made (the warm template, the resident ring
/// children) replays the records after its own Cursor. Consumers hold no
/// shared state, so the producer never waits for them: it overwrites the
/// oldest bytes once the stream wraps, first raising a shared *floor* (the
/// lowest byte offset still intact). A consumer copies a record out, then
/// re-reads the floor; a floor above the record's offset means the copy
/// may be torn and the consumer has been lapped (Overrun) — it can never
/// reach committed state from its memory again and must be replaced by a
/// fresh fork. The producer can check the same condition for any cursor
/// it handed out (holds()), so it can avoid dispatching to a lapped
/// consumer in the first place.
///
/// Record layout: u64 sequence number (1-based), u64 payload length, the
/// payload, zero padding to 8 bytes. A record larger than the whole data
/// area is never written; the floor just moves past it, so every consumer
/// that needs it sees an overrun.
class CommitStream {
public:
  /// A consumer's replay position: the byte offset just past the last
  /// record it applied (free-running, never wrapped), and that record's
  /// sequence number (0 before the first).
  struct Cursor {
    uint64_t Pos = 0;
    uint64_t Seq = 0;
  };

  /// One piece of a record's payload (appended back to back).
  struct Piece {
    const void *Data;
    size_t Size;
  };

  enum class ReadResult { Ok, Overrun, Corrupt };

  /// Maps a stream whose mapping (floor header included) is at most
  /// \p MaxBytes, rounded down to whole pages, and at least one page. An
  /// mmap failure leaves valid() false, as for CommitRing.
  explicit CommitStream(size_t MaxBytes);
  ~CommitStream();

  CommitStream(const CommitStream &) = delete;
  CommitStream &operator=(const CommitStream &) = delete;

  bool valid() const { return Hdr != nullptr; }

  /// Data-area size in bytes.
  size_t capacity() const { return Cap; }

  /// Producer: appends one record made of \p Pieces. Never blocks.
  void append(std::initializer_list<Piece> Pieces);

  /// Producer: the cursor of a consumer that has applied every record
  /// appended so far. A process forked from the producer reads its own
  /// frozen copy, i.e. the end as of the fork.
  Cursor end() const { return End; }

  /// Producer: true when every record after \p C is still intact, so a
  /// consumer at \p C can catch up to end().
  bool holds(const Cursor &C) const {
    return C.Pos >= Hdr->Floor.load(std::memory_order_relaxed);
  }

  /// Consumer: copies the record after \p C into \p Payload and advances
  /// \p C past it. Overrun when the producer has overwritten (or is
  /// overwriting) that record; Corrupt when the bytes at \p C are not the
  /// record with sequence C.Seq + 1 although they are intact.
  ReadResult next(Cursor &C, std::vector<uint8_t> &Payload) const;

  /// Remaps the stream read-only in the calling process (the consumers:
  /// nothing but the parent may write it).
  void protectReadOnly();

private:
  struct Header {
    alignas(64) std::atomic<uint64_t> Floor;
  };

  void copyIn(uint64_t Pos, const void *Src, size_t Size);
  void copyOut(uint64_t Pos, void *Dst, size_t Size) const;

  Header *Hdr = nullptr;
  uint8_t *Data = nullptr;
  size_t Cap = 0;
  size_t MapBytes = 0;
  Cursor End; // producer-private
};

/// The parent-written, child-claimed chunk queue of the pipeline engine's
/// resident children, in MAP_SHARED anonymous memory made before the warm
/// template forks. The parent alone decides what runs: it publishes
/// entries {chunk, iteration range, armed fault} in its pending order and
/// may retract an entry nobody has claimed yet. A resident child claims the
/// lowest open entry with one compare-and-swap on the entry's state word,
/// which records the claimer's slot and attempt tag, so the parent can
/// attribute every claim — including one whose claimer died right after
/// the swap — without any message from the child.
///
/// Besides the entries the region holds the parent's published commit
/// sequence (a claimer's snapshot), per slot a pair of verdict counters
/// (reports of the slot's resident the parent has taken, and of those the
/// ones it has decided), the count of records the resident has published
/// and the word it announces its start in, one futex word children sleep
/// on while there is nothing they may claim — the parent bumps it after
/// every batch of publishes and verdicts — and one the parent sleeps on
/// while it waits for records.
class DispatchQueue {
public:
  /// State of an entry: Open (claimable), Claimed (by a slot and attempt
  /// tag) or Retracted (taken back by the parent). The word also carries
  /// the entry's index, so a recycled ring position never matches a stale
  /// reader's expectation.
  enum class EntryStatus : uint8_t { Open = 1, Claimed = 2, Retracted = 3 };

  /// One published chunk. Written by the parent before the entry opens.
  struct Entry {
    std::atomic<uint64_t> State;
    /// Commit sequence the claimer's snapshot reflects; written by the
    /// claimer before it runs the chunk.
    std::atomic<uint64_t> SnapshotSeq;
    /// Commit sequence when the parent published the entry: no claimer's
    /// snapshot is older.
    uint64_t PublishSeq;
    int64_t Chunk;
    int64_t First;
    int64_t Last;
    /// The fault the parent took for this dispatch (FaultPlan::take).
    ArmedFault Fault;
  };

  /// Maps a queue of at least \p Entries entries (rounded up to a power of
  /// two) and \p Slots verdict-counter pairs. An mmap failure leaves
  /// valid() false.
  DispatchQueue(size_t Entries, unsigned Slots);
  ~DispatchQueue();

  DispatchQueue(const DispatchQueue &) = delete;
  DispatchQueue &operator=(const DispatchQueue &) = delete;

  bool valid() const { return Hdr != nullptr; }

  /// Ring positions; the parent keeps fewer entries outstanding.
  size_t capacity() const { return Cap; }

  static uint64_t stateWord(uint64_t Index, EntryStatus St, unsigned Slot = 0,
                            uint8_t Tag = 0) {
    return Index << 32 | uint64_t(St) << 24 | uint64_t(Slot & 0xffff) << 8 |
           Tag;
  }
  static EntryStatus status(uint64_t Word) {
    return static_cast<EntryStatus>((Word >> 24) & 0xff);
  }
  static unsigned claimSlot(uint64_t Word) { return (Word >> 8) & 0xffff; }
  static uint8_t claimTag(uint64_t Word) { return Word & 0xff; }
  static uint64_t wordIndex(uint64_t Word) { return Word >> 32; }

  Entry &entry(uint64_t Index) const { return Entries[Index & (Cap - 1)]; }

  /// Parent: opens entry \p Index (the next index; the caller ensures the
  /// ring position is no longer in use) whose fields it has filled in.
  void open(uint64_t Index);
  /// Parent: takes back an unclaimed entry. False when it was claimed.
  bool retract(uint64_t Index);
  /// Parent: the lowest index that may still be open; claimers scan from
  /// there.
  void setScanFrom(uint64_t Index) {
    Hdr->ScanFrom.store(Index, std::memory_order_release);
  }
  /// Parent: publishes the commit sequence claimers take as snapshot.
  void setCommitSeq(uint64_t Seq) {
    Hdr->CommitSeq.store(Seq, std::memory_order_release);
  }
  /// Parent: sets slot \p Slot's verdict counters (a new resident starts at
  /// zero).
  void setVerdicts(unsigned Slot, uint64_t Taken, uint64_t Settled);
  /// Parent: zeroes slot \p Slot's child-written words before its next
  /// resident is forked (its predecessor was reaped and can write no more).
  void newResident(unsigned Slot) {
    Words[Slot].Records.store(0, std::memory_order_release);
    Words[Slot].Up.store(0, std::memory_order_release);
  }
  /// Parent: the resident of \p Slot with attempt tag \p Tag has started.
  bool up(unsigned Slot, uint8_t Tag) const {
    return Words[Slot].Up.load(std::memory_order_acquire) == upWord(Tag);
  }
  /// Parent: records slot \p Slot's resident has published whole. Read it
  /// before draining the ring: every byte of those records is then there.
  uint64_t records(unsigned Slot) const {
    return Words[Slot].Records.load(std::memory_order_acquire);
  }
  /// Parent: the generation to pass to sleepParent() after re-checking for
  /// work.
  uint32_t parentGeneration() const {
    return Hdr->ParentBell.load(std::memory_order_acquire);
  }
  /// Parent: sleeps until a child or the template calls wakeParent() after
  /// \p Seen was read, or \p TimeoutMs passes.
  void sleepParent(uint32_t Seen, int TimeoutMs);
  /// Parent: closes slot \p Slot's claim gate for good: its resident is
  /// being retired.
  void closeSlot(unsigned Slot) { setVerdicts(Slot, uint64_t(1) << 62, 0); }
  /// Parent: wakes every sleeping claimer (after publishing or verdicts).
  void ring();

  /// Child: claims the lowest open entry for (\p Slot, \p Tag) into
  /// \p Index. False when none is open.
  bool claim(unsigned Slot, uint8_t Tag, uint64_t &Index);
  uint64_t commitSeq() const {
    return Hdr->CommitSeq.load(std::memory_order_acquire);
  }
  uint64_t taken(unsigned Slot) const {
    return Words[Slot].Taken.load(std::memory_order_acquire);
  }
  uint64_t settled(unsigned Slot) const {
    return Words[Slot].Settled.load(std::memory_order_acquire);
  }
  /// Child: the futex generation to pass to sleep() after re-checking.
  uint32_t generation() const {
    return Hdr->Bell.load(std::memory_order_acquire);
  }
  /// Child: sleeps until ring() moves the generation past \p Seen (or a
  /// short backstop timeout), counting the sleep.
  void sleep(uint32_t Seen);
  /// Child: the resident of \p Slot with attempt tag \p Tag has started,
  /// before it claims anything; wakes the parent. A resident whose template
  /// reaps it before it announced itself was never really forked.
  void announce(unsigned Slot, uint8_t Tag) {
    Words[Slot].Up.store(upWord(Tag), std::memory_order_release);
    wakeParent();
  }
  /// Child: its record is whole in slot \p Slot's ring; wakes the parent.
  void published(unsigned Slot) {
    Words[Slot].Records.fetch_add(1, std::memory_order_release);
    wakeParent();
  }
  /// Child or template: wakes the parent if it sleeps in sleepParent(). A
  /// futex wake, unlike a pipe write, does not pull the parent onto the
  /// waker's CPU, so a resident runs on while the parent commits.
  void wakeParent();

  /// Claimer sleeps so far, over every process.
  uint64_t claimSleeps() const {
    return Hdr->ClaimSleeps.load(std::memory_order_relaxed);
  }

private:
  struct Header {
    alignas(64) std::atomic<uint64_t> Published;
    std::atomic<uint64_t> ScanFrom;
    std::atomic<uint64_t> CommitSeq;
    std::atomic<uint64_t> ClaimSleeps;
    alignas(64) std::atomic<uint32_t> Bell;
    std::atomic<uint32_t> Sleepers;
    alignas(64) std::atomic<uint32_t> ParentBell;
    std::atomic<uint32_t> ParentSleeping;
  };
  struct SlotWords {
    alignas(64) std::atomic<uint64_t> Taken; // parent-written
    std::atomic<uint64_t> Settled;
    alignas(64) std::atomic<uint64_t> Records; // child-written
    std::atomic<uint64_t> Up;
  };
  static uint64_t upWord(uint8_t Tag) { return 0x100 | Tag; }

  Header *Hdr = nullptr;
  SlotWords *Words = nullptr;
  Entry *Entries = nullptr;
  size_t Cap = 0;
  size_t MapBytes = 0;
};

} // namespace alter

#endif // ALTER_RUNTIME_COMMITRING_H
