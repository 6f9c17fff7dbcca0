//===- runtime/TxnWire.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TxnWire.h"

#include "support/Error.h"
#include "support/Io.h"
#include "support/Timer.h"
#include "support/Varint.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <unistd.h>

using namespace alter;

namespace {

/// Growable little-endian byte sink for the child->parent commit message.
class ByteWriter {
public:
  void u64(uint64_t V) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
    Bytes.insert(Bytes.end(), P, P + sizeof(V));
  }

  void raw(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), P, P + Size);
  }

  std::vector<uint8_t> &bytes() { return Bytes; }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader for the same message. Corruption is a recoverable
/// condition: any out-of-bounds access latches the failed() flag and reads
/// return zeros, so decode loops terminate and the caller rejects the
/// message as a whole.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint64_t u64() {
    uint64_t V = 0;
    if (!need(sizeof(V)))
      return 0;
    std::memcpy(&V, Data + Pos, sizeof(V));
    Pos += sizeof(V);
    return V;
  }

  uint64_t varint() {
    const uint8_t *P = Data + Pos;
    uint64_t V;
    if (!readVarint(P, Data + Size, V)) {
      Failed = true;
      return 0;
    }
    Pos = static_cast<size_t>(P - Data);
    return V;
  }

  const uint8_t *raw(size_t Bytes) {
    if (!need(Bytes))
      return Data + Size; // zero bytes remain past this pointer
    const uint8_t *P = Data + Pos;
    Pos += Bytes;
    return P;
  }

  size_t position() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool exhausted() const { return Pos == Size; }
  bool failed() const { return Failed; }

private:
  bool need(size_t Bytes) {
    // Guard with subtraction: `Pos + Bytes > Size` can wrap to a small
    // value when a corrupt length field makes Bytes enormous.
    if (Bytes > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

constexpr uint64_t MessageMagic = 0x35414c544552ULL; // "ALTER5"
constexpr size_t FrameHeaderBytes = 3 * sizeof(uint64_t);

/// Fixed wire size of one TRACE-section event: 6 u64 slots (StartNs, DurNs,
/// Chunk, Arg0, Arg1, Worker | Kind << 32).
constexpr size_t TraceEventWireBytes = 6 * sizeof(uint64_t);

/// Decoded word-key cap: each message describes one chunk's accesses, so a
/// count beyond this is corruption, not a big loop. It bounds the memory a
/// corrupt-but-plausible run table can make the parent allocate.
constexpr uint64_t MaxWireSetWords = 1ULL << 26;

void writeAllToPipe(int Fd, const void *Data, size_t Size) {
  if (!writeFull(Fd, Data, Size))
    _exit(11); // cannot report further; parent sees an abnormal exit
}

void sleepNs(uint64_t Ns) {
  timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Ns / 1000000000ULL);
  Ts.tv_nsec = static_cast<long>(Ns % 1000000000ULL);
  while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR)
    ;
}

/// Slicing-by-8 tables for the reflected IEEE polynomial: T[0] is the
/// classic bytewise table, T[K][B] the CRC of byte B followed by K zero
/// bytes. Built at compile time, so there is no first-use race.
struct Crc32Tables {
  uint32_t T[8][256] = {};
};

constexpr Crc32Tables makeCrc32Tables() {
  Crc32Tables Tab;
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
    Tab.T[0][I] = C;
  }
  for (int K = 1; K != 8; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      Tab.T[K][I] = (Tab.T[K - 1][I] >> 8) ^ Tab.T[0][Tab.T[K - 1][I] & 0xff];
  return Tab;
}

constexpr Crc32Tables Crc32 = makeCrc32Tables();

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "wireCrc32 folds 8-byte words in little-endian order");

} // namespace

uint32_t alter::wireCrc32(const uint8_t *Data, size_t Size) {
  const auto &T = Crc32.T;
  uint32_t Crc = 0xffffffffu;
  // Eight bytes per step: fold the running CRC into the low word, then
  // look each byte up in the table for its distance from the end.
  for (; Size >= 8; Data += 8, Size -= 8) {
    uint64_t Word;
    std::memcpy(&Word, Data, sizeof(Word));
    const uint32_t Lo = static_cast<uint32_t>(Word) ^ Crc;
    const uint32_t Hi = static_cast<uint32_t>(Word >> 32);
    Crc = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^ T[5][(Lo >> 16) & 0xff] ^
          T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^ T[2][(Hi >> 8) & 0xff] ^
          T[1][(Hi >> 16) & 0xff] ^ T[0][Hi >> 24];
  }
  for (; Size != 0; ++Data, --Size)
    Crc = T[0][(Crc ^ *Data) & 0xff] ^ (Crc >> 8);
  return Crc ^ 0xffffffffu;
}

std::vector<uint8_t> alter::readAllFromPipe(int Fd) {
  std::vector<uint8_t> Out;
  uint8_t Buf[1 << 16];
  for (;;) {
    const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Out; // hard error == truncation; the frame check rejects it
    }
    if (N == 0)
      return Out;
    Out.insert(Out.end(), Buf, Buf + N);
  }
}

size_t alter::rawAccessSetBytes(const AccessSet &Set) {
  return sizeof(uint64_t) + Set.sizeWords() * sizeof(uintptr_t);
}

void alter::serializeAccessSet(std::vector<uint8_t> &Out,
                               const AccessSet &Set) {
  // Bloom summary first, so a future lazy parent could prefilter without
  // expanding the word list.
  const BloomSummary &Summary = Set.summary();
  const uint8_t *SummaryBytes =
      reinterpret_cast<const uint8_t *>(Summary.Bits);
  Out.insert(Out.end(), SummaryBytes, SummaryBytes + sizeof(Summary.Bits));

  std::vector<uintptr_t> Sorted(Set.words());
  std::sort(Sorted.begin(), Sorted.end());
  appendVarint(Out, Sorted.size());

  // Collapse sorted keys into (gap, length) runs. Gap is measured from the
  // previous run's end, so contiguous ranges cost a few bytes per run while
  // scattered keys degrade gracefully to one varint delta each.
  size_t NumRuns = 0;
  for (size_t J = 0; J != Sorted.size();) {
    size_t K = J + 1;
    while (K != Sorted.size() && Sorted[K] == Sorted[K - 1] + 1)
      ++K;
    ++NumRuns;
    J = K;
  }
  appendVarint(Out, NumRuns);
  uint64_t PrevEnd = 0;
  size_t I = 0;
  while (I != Sorted.size()) {
    size_t K = I + 1;
    while (K != Sorted.size() && Sorted[K] == Sorted[K - 1] + 1)
      ++K;
    const uint64_t Base = static_cast<uint64_t>(Sorted[I]);
    const uint64_t Len = static_cast<uint64_t>(K - I);
    appendVarint(Out, Base - PrevEnd);
    appendVarint(Out, Len - 1);
    PrevEnd = Base + Len;
    I = K;
  }
}

bool alter::deserializeAccessSet(const uint8_t *Data, size_t Size,
                                 AccessSet &Set, size_t &Consumed) {
  ByteReader R(Data, Size);
  // The summary is recomputed from the keys below (bit-identical, since it
  // depends only on the key set); read past it.
  R.raw(sizeof(BloomSummary().Bits));
  const uint64_t Count = R.varint();
  const uint64_t NumRuns = R.varint();
  if (R.failed())
    return false;
  // Bound allocation before decoding: word count against the sanity cap,
  // run count against the physical encoding size (each run is >= 2 bytes).
  if (Count > MaxWireSetWords || NumRuns > Size / 2 + 1 || NumRuns > Count)
    return false;
  // The runs are ascending and disjoint by construction (each gap counts
  // from the previous run's end), so they decode straight into the set's
  // sorted array; the set builds a hash table only if something inserts.
  std::vector<uintptr_t> Keys;
  Keys.reserve(static_cast<size_t>(Count));
  uint64_t PrevEnd = 0;
  for (uint64_t Run = 0; Run != NumRuns; ++Run) {
    const uint64_t Gap = R.varint();
    const uint64_t Len = R.varint() + 1;
    if (R.failed() || Len == 0)
      return false;
    const uint64_t Base = PrevEnd + Gap;
    // Word key 0 is the access set's empty marker, never a real access;
    // a base or run end that wraps past 2^64 is corruption too.
    if (Base == 0 || Base < PrevEnd || Base + Len < Base ||
        Len > Count - Keys.size())
      return false;
    for (uint64_t K = 0; K != Len; ++K)
      Keys.push_back(static_cast<uintptr_t>(Base + K));
    PrevEnd = Base + Len;
  }
  if (Keys.size() != Count)
    return false;
  Set.assignSortedKeys(std::move(Keys));
  Consumed = R.position();
  return true;
}

namespace {

/// Child-side core shared by the pipe and ring transports: executes the
/// chunk transactionally in \p Ctx, serializes the framed message, and
/// applies any armed wire-corruption or stall fault. The crash/kill faults
/// raise inside, so this returns only on the report path. The assembled
/// (possibly corrupted) message is ready to ship verbatim over either
/// transport.
///
/// A one-shot child (\p Resident false) leaves memory dirty: its address
/// space is discarded on exit. A resident child restores its snapshot —
/// memory and arena cursor — so it can run its next chunk whatever the
/// parent decides about this one; \p Allocated then tells whether the
/// chunk moved the arena cursor before the rollback.
std::vector<uint8_t> buildChildCommitMessage(
    const LoopSpec &Spec, const ExecutorConfig &Config, TxnContext &Ctx,
    bool Resident, unsigned Worker, int64_t Chunk, int64_t FirstIter,
    int64_t LastIter, const ArmedFault &Fault, MetricsRegistry *Metrics,
    bool *Allocated = nullptr) {
  if (Fault.Armed && Fault.Kind == FaultKind::ChildCrash)
    ::raise(SIGSEGV); // the injected "buggy chunk" dies before any work

  TraceBuffer Trace(Config.Trace);
  if (Trace.events())
    Trace.record(TraceEventKind::ChunkStart, Worker, Chunk, traceNowNs(), 0,
                 static_cast<uint64_t>(FirstIter),
                 static_cast<uint64_t>(LastIter));

  const size_t BumpBefore =
      Config.Allocator ? Config.Allocator->bumpOffset(Worker) : 0;
  Ctx.beginTxn();
  const uint64_t TraceT0 = Trace.events() ? traceNowNs() : 0;
  const uint64_t T0 = nowNs();
  for (int64_t I = FirstIter; I != LastIter; ++I)
    Spec.Body(Ctx, I);
  // Either way the log ends up holding the new values for the frame.
  if (Resident)
    Ctx.suspendTxn();
  else
    Ctx.captureRedo();
  const uint64_t WorkNs = nowNs() - T0;
  if (Trace.events())
    Trace.record(TraceEventKind::ChunkExec, Worker, Chunk, TraceT0, WorkNs,
                 Ctx.readSet().sizeWords(), Ctx.writeSet().sizeWords());
  if (Metrics) {
    Metrics->record(HistogramId::ChunkExecNs, WorkNs);
    Metrics->addCounter(CounterId::ChildChunks);
  }

  if (Fault.Armed && Fault.Kind == FaultKind::ChildKill)
    ::raise(SIGKILL); // the injected kill lands after the work, pre-report

  std::vector<uint8_t> Message =
      encodeCommitFrame(Ctx, Config, Worker, Chunk, WorkNs, Trace, Metrics);
  // The frame has recorded the arena cursor; a resident child's own
  // allocations come back to it, if the chunk commits, through the stream.
  if (Allocated)
    *Allocated = Config.Allocator &&
                 Config.Allocator->bumpOffset(Worker) != BumpBefore;
  if (Resident)
    Ctx.abortTxn();
  if (Fault.Armed) {
    switch (Fault.Kind) {
    case FaultKind::PipeTruncate:
      faultTruncateWire(Message, Fault.Seed, Fault.Chunk);
      break;
    case FaultKind::BitFlip:
      faultBitFlipWire(Message, Fault.Seed, Fault.Chunk);
      break;
    case FaultKind::Stall:
      sleepNs(Fault.StallNs);
      break;
    default:
      break; // parent-side kinds handled before fork
    }
  }
  return Message;
}

} // namespace

std::vector<uint8_t> alter::encodeCommitFrame(TxnContext &Ctx,
                                              const ExecutorConfig &Config,
                                              unsigned Worker, int64_t Chunk,
                                              uint64_t WorkNs,
                                              TraceBuffer &Trace,
                                              MetricsRegistry *Metrics) {
  const auto &Slots = Ctx.reductionSlots();

  // Serialize the body (sets, log, slots) separately from the fixed header:
  // the trace events recorded below need the body size, and the RawBytes
  // header field needs the final TRACE-section size.
  const uint64_t SerT0 = Metrics ? nowNs() : 0;
  ByteWriter Body;
  serializeAccessSet(Body.bytes(), Ctx.readSet());
  serializeAccessSet(Body.bytes(), Ctx.writeSet());
  uint64_t LogBytes = 0;
  {
    std::vector<uint8_t> LogBuf;
    Ctx.writeLog().serializeCompact(LogBuf);
    LogBytes = LogBuf.size();
    Body.u64(LogBuf.size());
    Body.raw(LogBuf.data(), LogBuf.size());
  }
  Body.u64(Slots.size());
  for (const TxnContext::RedSlotState &S : Slots) {
    Body.u64(S.Touched ? 1 : 0);
    uint64_t AccBits;
    std::memcpy(&AccBits, &S.Acc.F, sizeof(AccBits));
    Body.u64(AccBits);
  }

  // The METRICS blob must be serialized before the CommitAttempt event so
  // the event's wire-size prediction is exact, and the recordings must land
  // before the blob so this frame carries its own serialize latency and
  // sizes. WireFrameBytes deliberately excludes the trace/metrics sections
  // — the registry cannot contain its own size.
  std::vector<uint8_t> MetricsBlob;
  if (Metrics) {
    Metrics->record(HistogramId::SerializeNs, nowNs() - SerT0);
    Metrics->record(HistogramId::WriteLogBytes, LogBytes);
    Metrics->gaugeMax(GaugeId::MaxWriteLogBytes, LogBytes);
    Metrics->record(HistogramId::WireFrameBytes,
                    FrameHeaderBytes + 9 * sizeof(uint64_t) +
                        Body.bytes().size());
    Metrics->addCounter(CounterId::ChildFrames);
    Metrics->serialize(MetricsBlob);
    Metrics->reset(); // each frame ships deltas since the previous one
  }
  const uint64_t MetricsSectionBytes = sizeof(uint64_t) + MetricsBlob.size();

  if (Trace.events()) {
    Trace.record(TraceEventKind::Serialize, Worker, Chunk, traceNowNs(), 0,
                 9 * sizeof(uint64_t) + Body.bytes().size());
    // Predicted on-pipe message size, counting this event itself in the
    // TRACE section (it is the last one recorded).
    const uint64_t WireTotal =
        FrameHeaderBytes + 9 * sizeof(uint64_t) + Body.bytes().size() +
        sizeof(uint64_t) + TraceEventWireBytes * (Trace.buffer().size() + 1) +
        MetricsSectionBytes;
    Trace.record(TraceEventKind::CommitAttempt, Worker, Chunk, traceNowNs(),
                 0, WireTotal);
  }
  const uint64_t TraceSectionBytes =
      sizeof(uint64_t) + TraceEventWireBytes * Trace.buffer().size();

  // What the uncompressed format (raw 8-byte word keys, 16-byte write-log
  // entry table) would have shipped for this same message. The TRACE and
  // METRICS sections are already compact, so they contribute their wire
  // size as-is.
  const uint64_t RawBytes =
      9 * sizeof(uint64_t) + rawAccessSetBytes(Ctx.readSet()) +
      rawAccessSetBytes(Ctx.writeSet()) + sizeof(uint64_t) +
      Ctx.writeLog().serializedSize() + sizeof(uint64_t) +
      Slots.size() * 2 * sizeof(uint64_t) + TraceSectionBytes +
      MetricsSectionBytes;

  ByteWriter W;
  W.u64(Ctx.limitExceeded() ? 1 : 0);
  W.u64(WorkNs);
  W.u64(Ctx.instrReadCalls());
  W.u64(Ctx.instrWriteCalls());
  W.u64(Ctx.bytesRead());
  W.u64(Ctx.bytesWritten());
  W.u64(Ctx.memTrafficBytes());
  W.u64(Config.Allocator ? Config.Allocator->bumpOffset(Worker) : 0);
  W.u64(RawBytes);
  W.raw(Body.bytes().data(), Body.bytes().size());
  // TRACE section: count, then fixed-size events; the count is simply 0
  // below TraceLevel::Events.
  W.u64(Trace.buffer().size());
  for (const TraceEvent &E : Trace.buffer()) {
    W.u64(E.StartNs);
    W.u64(E.DurNs);
    W.u64(static_cast<uint64_t>(E.Chunk));
    W.u64(E.Arg0);
    W.u64(E.Arg1);
    W.u64(static_cast<uint64_t>(E.Worker) |
          (static_cast<uint64_t>(E.Kind) << 32));
  }

  // METRICS section: blob length, then the sparse registry; the length is
  // simply 0 with metrics off.
  W.u64(MetricsBlob.size());
  W.raw(MetricsBlob.data(), MetricsBlob.size());

  // Frame the payload: magic | payload length | CRC32. The parent verifies
  // all three before trusting a byte of the payload.
  ByteWriter Framed;
  Framed.u64(MessageMagic);
  Framed.u64(W.bytes().size());
  Framed.u64(wireCrc32(W.bytes().data(), W.bytes().size()));
  Framed.raw(W.bytes().data(), W.bytes().size());

  return std::move(Framed.bytes());
}

void alter::runWireChild(const LoopSpec &Spec, const ExecutorConfig &Config,
                         unsigned Worker, int64_t Chunk, int64_t FirstIter,
                         int64_t LastIter, int Fd, const ArmedFault &Fault,
                         uint64_t BumpFloor) {
  markForkedChild();
  if (Config.Allocator)
    Config.Allocator->advanceBump(Worker, static_cast<size_t>(BumpFloor));
  MetricsRegistry Reg;
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, Worker, Config.Limits);
  const std::vector<uint8_t> Message = buildChildCommitMessage(
      Spec, Config, Ctx, /*Resident=*/false, Worker, Chunk, FirstIter,
      LastIter, Fault, Config.Metrics ? &Reg : nullptr);
  writeAllToPipe(Fd, Message.data(), Message.size());
  ::close(Fd);
  _exit(0);
}

namespace {

/// Busy-wait hint for the claim loop's short spin.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Publishes one record into \p Ring. A one-shot child (\p Queue null)
/// rings a Data bell after every piece that leaves more to push (the
/// parent keeps draining, so a record larger than the ring cannot
/// deadlock) and a Finish bell after the last: a record that fits rings
/// once. A resident rings no pipe at all: it wakes the parent through
/// \p Queue when the ring is full and once the record is whole. Full-ring
/// waits are recorded into \p Metrics.
void publishRecord(CommitRing &Ring, int DoorbellFd, uint8_t Tag,
                   const std::vector<uint8_t> &Message,
                   MetricsRegistry *Metrics, DispatchQueue *Queue = nullptr,
                   unsigned Slot = 0) {
  const uint64_t PushT0 = Metrics ? nowNs() : 0;
  uint64_t Backoffs = 0;
  size_t Off = 0;
  do {
    const size_t N = Ring.pushSome(Message.data() + Off, Message.size() - Off);
    if (N == 0 && Off != Message.size()) {
      ++Backoffs;
      if (Queue)
        Queue->wakeParent();
      CommitRing::backoff();
      continue;
    }
    Off += N;
    if (Queue)
      continue;
    // A failed doorbell write (parent gone) is unrecoverable but also
    // unreportable; the template reaps us.
    const uint8_t Bell =
        (Off == Message.size() ? RingDoorbellFinish : RingDoorbellData) |
        (Tag & RingDoorbellTagMask);
    (void)writeFull(DoorbellFd, &Bell, 1);
  } while (Off != Message.size());
  if (Queue)
    Queue->published(Slot);
  if (Metrics && Backoffs != 0) {
    // Only backpressured publishes count: an uncontended memcpy is not a
    // wait, so the histogram measures full-ring stalls, not throughput.
    Metrics->record(HistogramId::RingBackpressureNs, nowNs() - PushT0);
    Metrics->addCounter(CounterId::RingWaits, Backoffs);
  }
}

} // namespace

void alter::runWireChildRing(const LoopSpec &Spec,
                             const ExecutorConfig &Config, unsigned Worker,
                             int64_t Chunk, int64_t FirstIter,
                             int64_t LastIter, CommitRing &Ring,
                             int DoorbellFd, uint8_t DoorbellTag,
                             const ArmedFault &Fault) {
  markForkedChild();
  MetricsRegistry Reg;
  MetricsRegistry *Metrics = Config.Metrics ? &Reg : nullptr;
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, Worker, Config.Limits);
  const std::vector<uint8_t> Message =
      buildChildCommitMessage(Spec, Config, Ctx, /*Resident=*/false, Worker,
                              Chunk, FirstIter, LastIter, Fault, Metrics);
  publishRecord(Ring, DoorbellFd, DoorbellTag, Message, Metrics);
  _exit(0);
}

void alter::runResidentChild(const LoopSpec &Spec,
                             const ExecutorConfig &Config, unsigned Slot,
                             uint8_t Tag, CommitRing &Ring,
                             DispatchQueue &Queue, const CommitStream &Stream,
                             CommitStream::Cursor Cursor) {
  markForkedChild();
  Queue.announce(Slot, Tag);
  const unsigned Worker = Slot + 1;
  // Survives across chunks, but each encodeCommitFrame takes-and-resets
  // it, so chunk N's frame carries the waits recorded since chunk N-1's
  // frame (the last chunk's post-frame waits are lost with the child).
  MetricsRegistry Reg;
  MetricsRegistry *Metrics = Config.Metrics ? &Reg : nullptr;
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, Worker, Config.Limits);
  // Records pushed so far, and whether the last one moved the arena
  // cursor: such a chunk holds our next claim until the parent has decided
  // it, so no later chunk of ours reuses its arena bytes while it may still
  // commit (PAPER.md §4.1: concurrent processes never share an address).
  uint64_t Pushed = 0;
  bool HoldArena = false;
  bool First = true;
  for (;;) {
    const uint64_t WaitT0 = Metrics ? nowNs() : 0;
    uint64_t Index = 0;
    for (unsigned Spins = 0;; ++Spins) {
      const uint32_t Gen = Queue.generation();
      // At most one of our records may await the parent's verdict while
      // we run the next chunk: the bound keeps snapshots from going stale
      // on loops where the parent is the bottleneck.
      const bool Gate = HoldArena ? Queue.settled(Slot) == Pushed
                                  : Pushed - Queue.taken(Slot) <= 1;
      if (Gate) {
        // Catch up before claiming: a replica the stream has lapped bows
        // out holding no chunk, and the pool replaces it. (The first claim
        // must not move the snapshot; see below.)
        if (!First &&
            catchUpCommits(Stream, Cursor, Queue.commitSeq(), Spec, Config) !=
                CommitStream::ReadResult::Ok)
          _exit(StreamOverrunExitStatus);
        if (Queue.claim(Slot, Tag, Index))
          break;
      }
      if (Spins < 64) {
        cpuRelax();
        continue;
      }
      Queue.sleep(Gen);
    }
    if (Metrics)
      Metrics->record(HistogramId::ValidateWaitNs, nowNs() - WaitT0);
    // The snapshot is read after the claim, so it is never older than the
    // commit sequence the parent published the entry at — the bound its
    // epoch pruning relies on. A first chunk runs on that publication
    // snapshot (or the fork's, if later): residents started together then
    // run their first chunks on one snapshot however the scheduler
    // staggers their claims. A lapped replay hands the claimed chunk back
    // through the template's reap.
    DispatchQueue::Entry &E = Queue.entry(Index);
    const uint64_t Seq = First ? std::max(Cursor.Seq, E.PublishSeq)
                               : Queue.commitSeq();
    First = false;
    if (catchUpCommits(Stream, Cursor, Seq, Spec, Config) !=
        CommitStream::ReadResult::Ok)
      _exit(StreamOverrunExitStatus);
    E.SnapshotSeq.store(Seq, std::memory_order_relaxed);
    const std::vector<uint8_t> Message =
        buildChildCommitMessage(Spec, Config, Ctx, /*Resident=*/true, Worker,
                                E.Chunk, E.First, E.Last, E.Fault, Metrics,
                                &HoldArena);
    publishRecord(Ring, /*DoorbellFd=*/-1, Tag, Message, Metrics, &Queue,
                  Slot);
    ++Pushed;
  }
}

namespace {

/// Fixed head of a commit-stream record's payload; NumSlots raw
/// RedSlotStates and the compact write log follow. Raw structs: every
/// reader is a fork of the writer.
struct CommitRecordHeader {
  uint64_t Worker;
  uint64_t BumpOffset;
  uint64_t NumSlots;
};

/// Applies one commit-stream record, exactly as the parent applied the
/// commit. False when the record does not decode. \p Slots is scratch
/// space kept across records.
bool applyCommitRecord(const std::vector<uint8_t> &Record,
                       const LoopSpec &Spec, const ExecutorConfig &Config,
                       std::vector<TxnContext::RedSlotState> &Slots) {
  CommitRecordHeader Hdr;
  if (Record.size() < sizeof(Hdr))
    return false;
  std::memcpy(&Hdr, Record.data(), sizeof(Hdr));
  if (Hdr.NumSlots != Spec.Reductions.size())
    return false;
  const size_t SlotBytes =
      Spec.Reductions.size() * sizeof(TxnContext::RedSlotState);
  if (Record.size() - sizeof(Hdr) < SlotBytes)
    return false;
  const uint8_t *LogData = Record.data() + sizeof(Hdr) + SlotBytes;
  WriteLog Log;
  if (!WriteLog::deserializeCompactChecked(
          LogData, Record.size() - sizeof(Hdr) - SlotBytes, Log))
    return false;
  Slots.resize(Spec.Reductions.size());
  if (SlotBytes != 0)
    std::memcpy(Slots.data(), Record.data() + sizeof(Hdr), SlotBytes);
  applyCommit(Spec, Config, static_cast<unsigned>(Hdr.Worker), Log, Slots,
              Hdr.BumpOffset);
  return true;
}

} // namespace

void alter::applyCommit(const LoopSpec &Spec, const ExecutorConfig &Config,
                        unsigned Worker, const WriteLog &Log,
                        const std::vector<TxnContext::RedSlotState> &Slots,
                        uint64_t BumpOffset) {
  Log.apply();
  for (size_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].Active && Slots[I].Touched)
      TxnContext::commitReductionSlot(Spec.Reductions[I], Slots[I]);
  if (Config.Allocator)
    Config.Allocator->advanceBump(Worker, static_cast<size_t>(BumpOffset));
}

void alter::appendCommitRecord(CommitStream &Stream, unsigned Worker,
                               const ChildReport &Rep) {
  const CommitRecordHeader Hdr{Worker, Rep.BumpOffset, Rep.Slots.size()};
  Stream.append({{&Hdr, sizeof(Hdr)},
                 {Rep.Slots.data(),
                  Rep.Slots.size() * sizeof(TxnContext::RedSlotState)},
                 {Rep.LogWire.data(), Rep.LogWire.size()}});
}

CommitStream::ReadResult alter::catchUpCommits(const CommitStream &Stream,
                                               CommitStream::Cursor &Cursor,
                                               uint64_t TargetSeq,
                                               const LoopSpec &Spec,
                                               const ExecutorConfig &Config) {
  std::vector<uint8_t> Record;
  std::vector<TxnContext::RedSlotState> Slots;
  while (Cursor.Seq < TargetSeq) {
    const CommitStream::ReadResult R = Stream.next(Cursor, Record);
    if (R != CommitStream::ReadResult::Ok)
      return R;
    if (!applyCommitRecord(Record, Spec, Config, Slots))
      return CommitStream::ReadResult::Corrupt;
  }
  return CommitStream::ReadResult::Ok;
}

size_t alter::wireFrameBytes(const uint8_t *Bytes, size_t Size) {
  if (Size < FrameHeaderBytes)
    return 0;
  uint64_t Magic, PayloadLen;
  std::memcpy(&Magic, Bytes, sizeof(Magic));
  if (Magic != MessageMagic)
    return Size; // corrupt header: length untrustworthy, let decode reject
  std::memcpy(&PayloadLen, Bytes + sizeof(uint64_t), sizeof(PayloadLen));
  // Overflow-safe: compare payload bytes present, not header + length.
  if (Size - FrameHeaderBytes < PayloadLen)
    return 0;
  return FrameHeaderBytes + static_cast<size_t>(PayloadLen);
}

bool alter::wireFrameLooksComplete(const uint8_t *Bytes, size_t Size) {
  return wireFrameBytes(Bytes, Size) != 0;
}

bool alter::decodeChildReport(const std::vector<uint8_t> &Bytes,
                              const LoopSpec &Spec,
                              const RuntimeParams &Params, ChildReport &Rep,
                              std::string &Error) {
  if (Bytes.size() < FrameHeaderBytes) {
    Error = "truncated frame header";
    return false;
  }
  ByteReader R(Bytes.data(), Bytes.size());
  const uint64_t Magic = R.u64();
  if (Magic != MessageMagic) {
    Error = "bad message magic";
    return false;
  }
  const uint64_t PayloadLen = R.u64();
  const uint64_t Crc = R.u64();
  if (PayloadLen != Bytes.size() - FrameHeaderBytes) {
    Error = "frame length mismatch";
    return false;
  }
  if (Crc != wireCrc32(Bytes.data() + FrameHeaderBytes,
                       static_cast<size_t>(PayloadLen))) {
    Error = "frame CRC mismatch";
    return false;
  }

  Rep = ChildReport();
  Rep.LimitExceeded = R.u64() != 0;
  Rep.WorkNs = R.u64();
  Rep.InstrReadCalls = R.u64();
  Rep.InstrWriteCalls = R.u64();
  Rep.BytesRead = R.u64();
  Rep.BytesWritten = R.u64();
  Rep.MemTrafficBytes = R.u64();
  Rep.BumpOffset = R.u64();
  Rep.RawWireBytes = R.u64();
  Rep.WireBytes = Bytes.size();
  size_t Consumed = 0;
  if (R.failed() ||
      !deserializeAccessSet(Bytes.data() + R.position(), R.remaining(),
                            Rep.Reads, Consumed)) {
    Error = "corrupt read set";
    return false;
  }
  R.raw(Consumed);
  if (!deserializeAccessSet(Bytes.data() + R.position(), R.remaining(),
                            Rep.Writes, Consumed)) {
    Error = "corrupt write set";
    return false;
  }
  R.raw(Consumed);
  const uint64_t LogBytes = R.u64();
  if (R.failed() || LogBytes > R.remaining()) {
    Error = "corrupt write log length";
    return false;
  }
  const uint8_t *LogData = R.raw(static_cast<size_t>(LogBytes));
  if (!WriteLog::deserializeCompactChecked(
          LogData, static_cast<size_t>(LogBytes), Rep.Log)) {
    Error = "corrupt write log";
    return false;
  }
  Rep.LogWire.assign(LogData, LogData + LogBytes);
  const uint64_t NumSlots = R.u64();
  if (R.failed() || NumSlots != Spec.Reductions.size()) {
    Error = "reduction slot count mismatch";
    return false;
  }
  Rep.Slots.resize(NumSlots);
  for (uint64_t I = 0; I != NumSlots; ++I) {
    TxnContext::RedSlotState &S = Rep.Slots[I];
    S.Touched = R.u64() != 0;
    uint64_t AccBits = R.u64();
    S.Acc.Kind = Spec.Reductions[I].Kind;
    std::memcpy(&S.Acc.F, &AccBits, sizeof(AccBits));
    for (const EnabledReduction &E : Params.Reductions) {
      if (E.BindingIndex == I) {
        S.Active = true;
        S.Op = E.Op;
        S.Custom = E.Custom;
      }
    }
  }
  if (R.failed()) {
    Error = "message length inconsistent with contents";
    return false;
  }

  // The TRACE section. Bound the allocation by the physical bytes
  // remaining; the METRICS section follows it.
  const uint64_t NumEvents = R.u64();
  if (R.failed() || NumEvents > R.remaining() / TraceEventWireBytes) {
    Error = "corrupt trace section";
    return false;
  }
  Rep.Trace.reserve(static_cast<size_t>(NumEvents));
  for (uint64_t I = 0; I != NumEvents; ++I) {
    TraceEvent E;
    E.StartNs = R.u64();
    E.DurNs = R.u64();
    E.Chunk = static_cast<int64_t>(R.u64());
    E.Arg0 = R.u64();
    E.Arg1 = R.u64();
    const uint64_t Packed = R.u64();
    const uint64_t Kind = Packed >> 32;
    if (Kind >= static_cast<uint64_t>(NumTraceEventKinds)) {
      Error = "corrupt trace event kind";
      return false;
    }
    E.Worker = static_cast<uint32_t>(Packed & 0xffffffffULL);
    E.Kind = static_cast<TraceEventKind>(Kind);
    Rep.Trace.push_back(E);
  }

  // The METRICS section — blob length, then the sparse registry, which
  // must consume the remaining bytes exactly (an empty blob: metrics off).
  // The blob's internal consistency (ids in range, bucket totals matching
  // counts) is checked by the registry decoder; any violation rejects the
  // whole frame.
  const uint64_t MetricsBytes = R.u64();
  if (R.failed() || MetricsBytes != R.remaining()) {
    Error = "corrupt metrics section";
    return false;
  }
  const uint8_t *Blob = R.raw(static_cast<size_t>(MetricsBytes));
  if (MetricsBytes != 0) {
    Rep.Metrics = std::make_unique<MetricsRegistry>();
    if (!MetricsRegistry::deserialize(
            Blob, static_cast<size_t>(MetricsBytes), *Rep.Metrics)) {
      Error = "corrupt metrics blob";
      return false;
    }
  }
  if (R.failed() || !R.exhausted()) {
    Error = "message length inconsistent with contents";
    return false;
  }
  return true;
}
