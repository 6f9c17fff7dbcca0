//===- runtime/WorkerPool.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include "support/Error.h"
#include "support/Io.h"
#include "support/Subprocess.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace alter;

namespace {

//===----------------------------------------------------------------------===
// Control-pipe command protocol (parent -> template)
//===----------------------------------------------------------------------===

/// Command header: 1-byte opcode + u64 payload length. Payloads are raw
/// little-endian structs; the template is a fork of the parent, so
/// pointers (reduction Custom ops) and layouts are identical by
/// construction and need no portable encoding.
enum : uint8_t {
  OpFork = 2,  ///< catch up, then fork a one-shot chunk child for a slot
  OpKill = 3,  ///< SIGKILL + reap a slot's child (acked by a doorbell)
  OpSpawn = 4, ///< catch up, then fork a resident child for a slot
};

constexpr size_t CmdHeaderBytes = 1 + sizeof(uint64_t);

struct ForkCmd {
  uint64_t Slot;
  uint64_t Attempt;
  int64_t Chunk;
  int64_t First;
  int64_t Last;
  ArmedFault Fault;
  /// Commit-stream sequence number to replay through before forking.
  uint64_t Seq;
};

struct KillCmd {
  uint64_t Slot;
};

struct SpawnCmd {
  uint64_t Slot;
  uint64_t Attempt;
  /// Commit-stream sequence number to replay through before forking.
  uint64_t Seq;
  /// Arena cursor the resident starts from at least: past the allocations
  /// of the slot's reports that still await in-order retirement.
  uint64_t BumpFloor;
  /// An injected SpawnFail: the template's fork reports failure.
  uint64_t FailFork;
};

/// The executors and the pool live in processes that write to pipes whose
/// read end can vanish mid-run (a killed template, a dead parent); the
/// failure must surface as EPIPE, not a process-killing SIGPIPE.
void ignoreSigpipeOnce() {
  static const bool Done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)Done;
}

void writeDoorbell(int Fd, uint8_t Byte) {
  (void)writeFull(Fd, &Byte, 1);
}

} // namespace

//===----------------------------------------------------------------------===
// Process-default transport selection
//===----------------------------------------------------------------------===

namespace {

TransportKind &transportStorage() {
  static TransportKind Kind = [] {
    const char *Env = std::getenv("ALTER_TRANSPORT");
    if (!Env || !*Env)
      return TransportKind::Ring;
    const std::string Value(Env);
    if (Value == "pipe")
      return TransportKind::Pipe;
    if (Value == "ring")
      return TransportKind::Ring;
    // Startup config validation, not a resource-exhaustion path: a bad
    // ALTER_TRANSPORT spelling means the operator's intent is unknowable
    // and aborting at process start is the contained outcome.
    fatalError(std::string("malformed ALTER_TRANSPORT value: ") + Env);
  }();
  return Kind;
}

} // namespace

const char *alter::transportKindName(TransportKind Kind) {
  switch (Kind) {
  case TransportKind::Pipe:
    return "pipe";
  case TransportKind::Ring:
    return "ring";
  }
  ALTER_UNREACHABLE("covered switch");
}

TransportKind alter::globalTransportKind() { return transportStorage(); }

void alter::setGlobalTransportKind(TransportKind Kind) {
  transportStorage() = Kind;
}

//===----------------------------------------------------------------------===
// WorkerPool: parent side
//===----------------------------------------------------------------------===

WorkerPool::WorkerPool(const LoopSpec &Spec, const ExecutorConfig &Config,
                       unsigned NumSlots, bool Residents, RunStats &Stats)
    : Spec(Spec), Config(Config), Residents(Residents), Stats(Stats),
      Slots(NumSlots), Stream(Config.RingBytesPerSlot) {
  ignoreSigpipeOnce();
  if (!Stream.valid()) {
    // Same containment as a ring mapping failure below.
    Invalid = true;
    FailSite = 0;
  }
  if (Residents) {
    // Outstanding entries stay below a few per slot (open, claimed and
    // one ahead), far from wrapping the ring.
    Queue = std::make_unique<DispatchQueue>(std::max<size_t>(64, 8 * NumSlots),
                                            NumSlots);
    if (!Queue->valid()) {
      if (!Invalid)
        FailSite = 0;
      Invalid = true;
    }
  }
  for (unsigned SlotIdx = 0; SlotIdx != Slots.size(); ++SlotIdx) {
    SlotState &S = Slots[SlotIdx];
    // Resource exhaustion here (ENOMEM on the ring mapping, EMFILE/ENFILE
    // on the pipe) is a contained per-run outcome, not a crash: the pool
    // comes up with valid() == false and the engine that built it drops to
    // the cold pipe transport. Injected setup faults (mmapfail@N /
    // pipeexhaust@N, N = slot index) strike the same paths.
    const bool InjectMmap =
        FaultPlan::global().takeSetup(FaultKind::MmapFail, SlotIdx).Armed;
    S.Ring = std::make_unique<CommitRing>(Config.RingBytesPerSlot);
    if (InjectMmap || !S.Ring->valid()) {
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=ring_invalid slot=%u injected=%d", SlotIdx,
                     InjectMmap ? 1 : 0);
      if (!Invalid)
        FailSite = 0;
      Invalid = true;
      continue;
    }
    const bool InjectPipe =
        FaultPlan::global().takeSetup(FaultKind::PipeExhaust, SlotIdx).Armed;
    int Fds[2];
    if (InjectPipe || ::pipe(Fds) != 0) {
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=doorbell_pipe_fail slot=%u errno=%d injected=%d",
                     SlotIdx, InjectPipe ? 0 : errno, InjectPipe ? 1 : 0);
      if (!Invalid)
        FailSite = 1;
      Invalid = true;
      continue;
    }
    S.DoorbellR = Fds[0];
    S.DoorbellW = Fds[1];
    // The parent drains doorbells opportunistically from its poll loop.
    const int Flags = ::fcntl(S.DoorbellR, F_GETFL);
    ::fcntl(S.DoorbellR, F_SETFL, Flags | O_NONBLOCK);
  }
}

WorkerPool::~WorkerPool() {
  retireTemplate();
  for (SlotState &S : Slots) {
    if (S.DoorbellR >= 0)
      ::close(S.DoorbellR);
    if (S.DoorbellW >= 0)
      ::close(S.DoorbellW);
  }
}

bool WorkerPool::anyInFlight() const {
  // A slot whose record arrived whole is not in flight even before the
  // template confirms the reap: its producer has nothing left to publish,
  // and the OpFork path kills and reaps any technically-live predecessor
  // before the successor runs. A resident is in flight while it holds an
  // unreported claim.
  for (const SlotState &S : Slots)
    if ((S.Used && !S.TerminalSeen && !S.RecordDone) || !S.Claims.empty())
      return true;
  return false;
}

bool WorkerPool::sendCommand(uint8_t Op, const void *Payload, size_t Size) {
  if (ControlFd < 0)
    return false;
  uint8_t Cmd[CmdHeaderBytes + sizeof(ForkCmd)];
  static_assert(sizeof(SpawnCmd) <= sizeof(ForkCmd), "commands fit Cmd");
  assert(Size <= sizeof(ForkCmd) && "control commands are small structs");
  const uint64_t PayloadLen = Size;
  Cmd[0] = Op;
  std::memcpy(Cmd + 1, &PayloadLen, sizeof(PayloadLen));
  std::memcpy(Cmd + CmdHeaderBytes, Payload, Size);
  if (writeFull(ControlFd, Cmd, CmdHeaderBytes + Size))
    return true;
  // The template is gone (EPIPE) or wedged: retire it hard so the caller
  // degrades to cold forks and the next warm fork respawns cleanly.
  ++Stats.PoolFaults;
  killTemplateHard();
  return false;
}

void WorkerPool::killTemplateHard() {
  if (TemplatePid > 0) {
    ::kill(TemplatePid, SIGKILL);
    int Status = 0;
    ChildRusage Usage;
    if (waitpidRusage(TemplatePid, &Status, &Usage) > 0)
      accumulateTemplateUsage(Usage);
  }
  if (ControlFd >= 0)
    ::close(ControlFd);
  ControlFd = -1;
  TemplatePid = -1;
  // The template's children died with it (PDEATHSIG) and nothing is left
  // to reap them, so their terminal doorbells would never ring. Complete
  // them on the dead template's behalf: a one-shot slot gets its abnormal
  // doorbell and the executor requeues the chunk; a resident's claims are
  // reported Lost. (Without PDEATHSIG an orphan may still publish a whole
  // record; it is discarded and the retry is merely redundant, never a
  // duplicate commit.)
  loseAllResidents();
  for (SlotState &S : Slots) {
    if (S.Used && !S.TerminalSeen)
      writeDoorbell(S.DoorbellW,
                    static_cast<uint8_t>(RingDoorbellAbnormal |
                                         (S.Attempt & RingDoorbellTagMask)));
    resetSlot(S);
    // Retire the slot's ring with the template: a child killed
    // mid-publish may still push a few bytes after the parent's drain,
    // interleaving garbage into the next attempt's records. Only children
    // of the NEXT template (forked from the parent after this point) map
    // the fresh ring. The doorbell pipe stays — stale bells carry the old
    // attempt tag and are filtered, and the executor's polled fds must
    // remain valid across the respawn.
    S.Ring = std::make_unique<CommitRing>(Config.RingBytesPerSlot);
    if (!S.Ring->valid()) {
      // The replacement mapping failed (ENOMEM while already degraded):
      // the whole pool retreats to cold forks rather than aborting.
      alterLogAlways(LogLevel::Warn, "pool",
                     "event=ring_respawn_fail errno=%d", errno);
      Invalid = true;
    }
  }
}

void WorkerPool::accumulateTemplateUsage(const ChildRusage &Usage) {
  TemplateUsage.UserNs += Usage.UserNs;
  TemplateUsage.SysNs += Usage.SysNs;
  TemplateUsage.MaxRssBytes =
      std::max(TemplateUsage.MaxRssBytes, Usage.MaxRssBytes);
}

size_t WorkerPool::ringDepthBytes() const {
  size_t Total = 0;
  for (const SlotState &S : Slots)
    if (S.Ring && S.Ring->valid())
      Total += S.Ring->used();
  return Total;
}

void WorkerPool::resetSlot(SlotState &S) {
  S.Used = false;
  S.TerminalSeen = true;
  S.RecordDone = true;
}

bool WorkerPool::ensureTemplate() {
  if (TemplatePid > 0)
    return true;
  int Fds[2];
  if (::pipe(Fds) != 0)
    return false;
  // Forked from the parent, the template holds every commit pushed so far.
  TemplateCursor = Stream.end();
  const pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Fds[1]);
    // Parent-only descriptors: the doorbell read ends.
    for (SlotState &S : Slots)
      if (S.DoorbellR >= 0)
        ::close(S.DoorbellR);
    templateMain(Fds[0]);
    // templateMain never returns.
  }
  ::close(Fds[0]);
  ControlFd = Fds[1];
  TemplatePid = Pid;
  // A fresh template snapshots the parent wholesale; whatever children the
  // previous incarnation lost are strangers to it.
  for (SlotState &S : Slots)
    resetSlot(S);
  return true;
}

void WorkerPool::retireTemplate() {
  if (TemplatePid < 0)
    return;
  // Control-pipe EOF tells the template to kill and reap any straggling
  // children and exit; it is quiescent otherwise, so this is prompt.
  ::close(ControlFd);
  ControlFd = -1;
  int Status = 0;
  ChildRusage Usage;
  if (waitpidRusage(TemplatePid, &Status, &Usage) > 0)
    accumulateTemplateUsage(Usage);
  TemplatePid = -1;
  // Every child died in the teardown.
  loseAllResidents();
  for (SlotState &S : Slots)
    resetSlot(S);
}

bool WorkerPool::warmFork(unsigned Slot, int64_t Chunk, int64_t First,
                          int64_t Last, const ArmedFault &Fault,
                          ChunkChannel &Ch) {
  assert(!Residents && "resident pools run chunks through the queue");
  if (Invalid) {
    // A ring or pipe never came up (or died in a hard retirement): every
    // fork degrades to the cold path until the engine drops the pool.
    ++Stats.PoolFaults;
    return false;
  }
  SlotState &S = Slots[Slot];

  if (!ensureTemplate()) {
    ++Stats.PoolFaults;
    return false;
  }

  // Quiesce the slot, but only when the previous record did NOT arrive
  // whole: then the old child may still be publishing (e.g. a corrupt
  // length field made the parent complete the record early), so block
  // until the template confirms the reap. A whole record means the
  // producer pushed its final byte and is exiting — the steady-state hot
  // path skips the wait entirely (blocking here would serialize the
  // parent against the template's fork+reap work and forfeit the pool's
  // pipelining), and the template's OpFork handler still kills and reaps
  // any technically-live predecessor before the successor runs. A Kill
  // command is idempotent — if the child already exited, the reap sweep
  // has written (or the kill handler writes) the terminal doorbell this
  // wait consumes.
  if (S.Used && !S.TerminalSeen && !S.RecordDone) {
    const KillCmd Kill{Slot};
    if (!sendCommand(OpKill, &Kill, sizeof(Kill)))
      return false;
    const uint64_t Deadline = nowNs() + 5'000'000'000ULL;
    while (!S.TerminalSeen) {
      pollfd Pfd{S.DoorbellR, POLLIN, 0};
      const int N = ::poll(&Pfd, 1, 50);
      if (N < 0 && errno == EINTR)
        continue;
      uint8_t Bells[64];
      for (;;) {
        const ssize_t R = ::read(S.DoorbellR, Bells, sizeof(Bells));
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0)
          break;
        for (ssize_t I = 0; I != R; ++I)
          if ((Bells[I] & RingDoorbellTagMask) == S.Attempt &&
              (Bells[I] & RingDoorbellKindMask) >= RingDoorbellClean)
            S.TerminalSeen = true;
      }
      if (!S.TerminalSeen && nowNs() > Deadline) {
        // Template wedged: retire it hard and fall back cold.
        ++Stats.PoolFaults;
        killTemplateHard();
        return false;
      }
    }
  }

  // A template fork replays the stream from the template's cursor; if the
  // parent has already overwritten part of what it needs, only a fresh
  // template (forked from the parent, hence current) can serve the fork.
  // Replacing it kills its children, so wait for a moment with nothing in
  // flight (the outgoing template has no children left to reap) and run
  // cold until then.
  if (!Stream.holds(TemplateCursor)) {
    if (anyInFlight()) {
      ++Stats.PoolFaults;
      return false;
    }
    retireTemplate();
    ++Stats.TemplateRefreshes;
    if (!ensureTemplate()) {
      ++Stats.PoolFaults;
      return false;
    }
  }

  // The slot is quiet: discard stale doorbells and leftover ring bytes
  // from the previous attempt. (The template's OpFork handler kills and
  // reaps a predecessor before forking the successor.)
  {
    uint8_t Bells[64];
    for (;;) {
      const ssize_t R = ::read(S.DoorbellR, Bells, sizeof(Bells));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        break;
    }
    std::vector<uint8_t> Discard;
    S.Ring->drainInto(Discard);
  }

  S.Attempt = (S.Attempt + 1) & RingDoorbellTagMask;
  const ForkCmd Fork{Slot, S.Attempt, Chunk, First, Last, Fault,
                     Stream.end().Seq};
  if (!sendCommand(OpFork, &Fork, sizeof(Fork)))
    return false;

  S.Used = true;
  S.TerminalSeen = false;
  S.RecordDone = false;
  TemplateCursor = Stream.end();
  Ch = ChunkChannel();
  Ch.Launched = true;
  Ch.Warm = true;
  Ch.PollFd = S.DoorbellR;
  return true;
}

//===----------------------------------------------------------------------===
// WorkerPool: resident children
//===----------------------------------------------------------------------===

bool WorkerPool::publish(int64_t Chunk, int64_t First, int64_t Last,
                         const ArmedFault &Fault, uint64_t &Index) {
  // A ring position is reusable once its entry is neither open nor
  // claimed-and-unreported: its claimer has read it and moved on.
  uint64_t Oldest = NextIndex;
  for (const auto &[I, E] : Entries)
    if (!E.Reported) {
      Oldest = I;
      break;
    }
  if (NextIndex - Oldest >= Queue->capacity())
    return false;
  Index = NextIndex++;
  DispatchQueue::Entry &E = Queue->entry(Index);
  E.Chunk = Chunk;
  E.First = First;
  E.Last = Last;
  E.Fault = Fault;
  E.PublishSeq = Stream.end().Seq;
  E.SnapshotSeq.store(0, std::memory_order_relaxed);
  Queue->open(Index);
  EntryState &St = Entries[Index];
  St.Chunk = Chunk;
  Dirty = true;
  return true;
}

bool WorkerPool::retract(uint64_t Index) {
  if (!Queue->retract(Index))
    return false;
  Entries.erase(Index);
  return true;
}

WorkerPool::ResidentState WorkerPool::ensureResident(unsigned Slot,
                                                     uint64_t BumpFloor) {
  SlotState &S = Slots[Slot];
  // A retiring resident keeps its slot until the template has reaped it:
  // only then is every byte it pushed out of the ring.
  if (S.Resident != ResidentState::None)
    return S.Resident;
  // The slot's last resident could not be forked: run it cold until a
  // cold fork of it works again (coldForked), so that a lasting fork
  // failure reaches the engine's fork-failure handling.
  if (S.SpawnFailed)
    return ResidentState::None;
  if (Invalid || !ensureTemplate()) {
    ++Stats.PoolFaults;
    return ResidentState::None;
  }
  // A lapped template can only fork replicas that can never reach
  // committed state. Replacing it kills every resident with it, so do it
  // only while none holds a claim; until then this slot runs cold.
  if (!Stream.holds(TemplateCursor)) {
    if (anyInFlight()) {
      ++Stats.PoolFaults;
      return ResidentState::None;
    }
    retireTemplate();
    ++Stats.TemplateRefreshes;
    if (!ensureTemplate()) {
      ++Stats.PoolFaults;
      return ResidentState::None;
    }
  }
  // The slot is quiet (its resident was reaped, or died with the old
  // template): discard stale doorbells and leftover ring bytes.
  (void)readBells(Slot);
  std::vector<uint8_t> Discard;
  S.Ring->drainInto(Discard);
  S.Attempt = (S.Attempt + 1) & RingDoorbellTagMask;
  const bool FailFork =
      FaultPlan::global().takeSetup(FaultKind::SpawnFail, Slot).Armed;
  const SpawnCmd Spawn{Slot, S.Attempt, Stream.end().Seq, BumpFloor,
                       FailFork ? 1u : 0u};
  // A new resident starts with no records, hence no verdicts.
  Queue->newResident(Slot);
  Queue->setVerdicts(Slot, 0, 0);
  if (!sendCommand(OpSpawn, &Spawn, sizeof(Spawn)))
    return ResidentState::None;
  TemplateCursor = Stream.end();
  // Counted as a warm fork once it announces itself (collect).
  S.Resident = ResidentState::Live;
  S.Up = false;
  S.Claimed = false;
  S.Terminal = false;
  S.Abnormal = false;
  S.Published = 0;
  S.Records = 0;
  S.Buf.clear();
  S.Claims.clear();
  S.Taken = 0;
  S.Settled = 0;
  S.VerdictsDirty = false;
  return ResidentState::Live;
}

int WorkerPool::residentFd(unsigned Slot) const {
  return Slots[Slot].Resident == ResidentState::None ? -1
                                                     : Slots[Slot].DoorbellR;
}

uint8_t WorkerPool::readBells(unsigned Slot) {
  SlotState &S = Slots[Slot];
  uint8_t Terminal = 0;
  uint8_t Bells[256];
  for (;;) {
    const ssize_t N = ::read(S.DoorbellR, Bells, sizeof(Bells));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Stats.WireBytesCopied += static_cast<uint64_t>(N);
    for (ssize_t I = 0; I != N; ++I) {
      const uint8_t Tag = Bells[I] & RingDoorbellTagMask;
      const uint8_t Kind = Bells[I] & RingDoorbellKindMask;
      if (Tag != S.Attempt)
        continue; // stale: a previous occupant of this slot
      if (Kind >= RingDoorbellClean)
        Terminal = Kind;
    }
  }
  return Terminal;
}

void WorkerPool::scanClaims() {
  for (auto It = Entries.begin(); It != Entries.end(); ++It) {
    EntryState &E = It->second;
    if (!E.Open)
      continue;
    const uint64_t Word =
        Queue->entry(It->first).State.load(std::memory_order_acquire);
    if (DispatchQueue::status(Word) != DispatchQueue::EntryStatus::Claimed ||
        DispatchQueue::wordIndex(Word) != It->first)
      continue;
    E.Open = false;
    E.Slot = DispatchQueue::claimSlot(Word);
    E.Attempt = DispatchQueue::claimTag(Word);
    ResidentEvent Ev;
    Ev.Slot = E.Slot;
    Ev.Index = It->first;
    Ev.Chunk = E.Chunk;
    SlotState *S = E.Slot < Slots.size() ? &Slots[E.Slot] : nullptr;
    if (S && S->Resident == ResidentState::Live && E.Attempt == S->Attempt) {
      // Claims of one resident are made in ascending index order, and this
      // scan may see a later one before an earlier one: keep them sorted.
      S->Claims.insert(
          std::lower_bound(S->Claims.begin(), S->Claims.end(), It->first),
          It->first);
      Ev.K = ResidentEvent::Kind::Claimed;
      Ev.Reuse = S->Claimed;
      S->Claimed = true;
      if (Ev.Reuse) {
        ++Stats.WarmForks;
        ++Stats.ChildReuses;
      }
    } else {
      // A claimer the pool already retired (killed, or gone with its
      // template) grabbed the entry on its way out.
      Ev.K = ResidentEvent::Kind::Lost;
      Ev.Fault = Queue->entry(It->first).Fault;
    }
    emit(std::move(Ev));
  }
  for (auto It = Entries.begin(); It != Entries.end();) {
    const bool Gone =
        !It->second.Open &&
        (It->second.Slot >= Slots.size() ||
         Slots[It->second.Slot].Resident != ResidentState::Live ||
         It->second.Attempt != Slots[It->second.Slot].Attempt);
    It = Gone ? Entries.erase(It) : std::next(It);
  }
}

void WorkerPool::loseClaims(unsigned Slot, bool Crashed) {
  SlotState &S = Slots[Slot];
  for (const uint64_t Index : S.Claims) {
    ResidentEvent Ev;
    Ev.K = ResidentEvent::Kind::Lost;
    Ev.Slot = Slot;
    Ev.Index = Index;
    Ev.Chunk = Queue->entry(Index).Chunk;
    Ev.Crashed = Crashed;
    if (!Crashed)
      Ev.Fault = Queue->entry(Index).Fault;
    Entries.erase(Index);
    emit(std::move(Ev));
  }
  S.Claims.clear();
  S.Buf.clear();
}

void WorkerPool::loseAllResidents() {
  if (!Residents)
    return;
  for (unsigned I = 0; I != Slots.size(); ++I) {
    if (Slots[I].Resident == ResidentState::None)
      continue;
    loseClaims(I, /*Crashed=*/false);
    Slots[I].Resident = ResidentState::None;
  }
}

size_t
WorkerPool::collect(const std::vector<bool> &Readable,
                    const std::function<bool(ResidentEvent &)> &OnEvent) {
  size_t Delivered = 0;
  // Doorbells, then ring bytes, then claims: a bell read here vouches for
  // every record byte its sender published before it, and a record byte
  // for the claim its sender made before it.
  for (unsigned I = 0; I != Slots.size(); ++I) {
    SlotState &S = Slots[I];
    if (S.Resident == ResidentState::None)
      continue;
    const uint8_t Terminal = Readable[I] ? readBells(I) : 0;
    if (Terminal != 0) {
      S.Terminal = true;
      S.Abnormal = Terminal == RingDoorbellAbnormal;
    }
    // Read after the bells: a resident announces itself before anything
    // that could end in its terminal bell.
    if (!S.Up && Queue->up(I, S.Attempt)) {
      S.Up = true;
      ++Stats.WarmForks;
      ++Delivered; // news for the engine: entries may open now
    }
    S.Published = Queue->records(I);
    S.Ring->drainInto(S.Buf);
  }
  scanClaims();
  for (unsigned I = 0; I != Slots.size(); ++I) {
    SlotState &S = Slots[I];
    if (S.Resident == ResidentState::Retiring) {
      S.Buf.clear();
      if (S.Terminal)
        S.Resident = ResidentState::None;
      continue;
    }
    if (S.Resident != ResidentState::Live)
      continue;
    size_t Pos = 0;
    bool Rejected = false;
    while (!Rejected) {
      // Split one record off the ring bytes: a whole frame, or — once the
      // resident has counted it published — whatever a truncated record
      // left.
      const uint8_t *Data = S.Buf.data() + Pos;
      const size_t Avail = S.Buf.size() - Pos;
      size_t Len = wireFrameBytes(Data, Avail);
      if (Len == 0 && S.Published > S.Records && Avail != 0)
        Len = Avail;
      if (Len == 0)
        break;
      ++S.Records;
      if (S.Claims.empty()) {
        // A record with no claim to match: nothing after it can be
        // trusted either.
        Rejected = true;
        break;
      }
      ResidentEvent Ev;
      Ev.K = ResidentEvent::Kind::Report;
      Ev.Slot = I;
      Ev.Index = S.Claims.front();
      S.Claims.pop_front();
      Entries[Ev.Index].Reported = true;
      const DispatchQueue::Entry &E = Queue->entry(Ev.Index);
      Ev.Chunk = E.Chunk;
      Ev.SnapshotSeq = E.SnapshotSeq.load(std::memory_order_relaxed);
      Ev.Frame.assign(Data, Data + Len);
      Pos += Len;
      emit(std::move(Ev));
      // Deliver now: the verdict on this record decides whether the
      // resident's later records still count.
      for (ResidentEvent &D : Deferred)
        if (!OnEvent(D) && D.K == ResidentEvent::Kind::Report)
          Rejected = true;
      Delivered += Deferred.size();
      Deferred.clear();
    }
    S.Buf.erase(S.Buf.begin(), S.Buf.begin() + static_cast<ptrdiff_t>(Pos));
    if (Rejected) {
      // Retire the resident: whatever it published after the bad record is
      // unframed, so every later claim requeues (uncharged).
      // Its claim gate closes first, so it takes no more work meanwhile.
      const KillCmd Kill{I};
      loseClaims(I, /*Crashed=*/false);
      S.VerdictsDirty = false;
      if (S.Terminal) {
        S.Resident = ResidentState::None;
      } else {
        Queue->closeSlot(I);
        S.Resident = ResidentState::Retiring;
        (void)sendCommand(OpKill, &Kill, sizeof(Kill));
      }
      continue;
    }
    if (S.Terminal) {
      if (!S.Up) {
        // Reaped before it announced itself: the template's fork failed
        // (or the child died at birth), so it ran nothing. A fork failure,
        // not a chunk's crash; the slot runs cold for now (ensureResident).
        ++Stats.NumForkFailures;
        ++Stats.ResourceFaults;
        ++Stats.PoolFaults;
        S.SpawnFailed = true;
      }
      // The resident is gone: what it claimed and never reported is lost,
      // a contained crash when it died abnormally.
      loseClaims(I, S.Abnormal);
      S.Resident = ResidentState::None;
    }
  }
  for (ResidentEvent &D : Deferred)
    OnEvent(D);
  Delivered += Deferred.size();
  Deferred.clear();
  return Delivered;
}

void WorkerPool::taken(uint64_t Index) {
  auto It = Entries.find(Index);
  if (It == Entries.end() || It->second.Taken)
    return;
  It->second.Taken = true;
  SlotState &S = Slots[It->second.Slot];
  if (S.Resident != ResidentState::Live || S.Attempt != It->second.Attempt)
    return;
  ++S.Taken;
  S.VerdictsDirty = true;
}

void WorkerPool::settled(uint64_t Index) {
  auto It = Entries.find(Index);
  if (It == Entries.end())
    return;
  const EntryState E = It->second;
  Entries.erase(It);
  SlotState &S = Slots[E.Slot];
  if (S.Resident != ResidentState::Live || S.Attempt != E.Attempt)
    return;
  if (!E.Taken)
    ++S.Taken;
  ++S.Settled;
  S.VerdictsDirty = true;
}

void WorkerPool::flush() {
  for (unsigned I = 0; I != Slots.size(); ++I) {
    SlotState &S = Slots[I];
    if (!S.VerdictsDirty || S.Resident != ResidentState::Live)
      continue;
    S.VerdictsDirty = false;
    Queue->setVerdicts(I, S.Taken, S.Settled);
    Dirty = true;
  }
  if (!Dirty)
    return;
  Dirty = false;
  uint64_t ScanFrom = NextIndex;
  for (const auto &[Index, E] : Entries)
    if (E.Open) {
      ScanFrom = Index;
      break;
    }
  Queue->setScanFrom(ScanFrom);
  Queue->ring();
}

void WorkerPool::pushCommit(unsigned Worker, const ChildReport &Rep) {
  appendCommitRecord(Stream, Worker, Rep);
  if (Queue)
    Queue->setCommitSeq(Stream.end().Seq);
}

bool WorkerPool::pump(unsigned Slot, ChunkChannel &Ch) {
  SlotState &S = Slots[Slot];
  bool Final = false;
  uint8_t Bells[256];
  for (;;) {
    const ssize_t N = ::read(S.DoorbellR, Bells, sizeof(Bells));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Ch.BytesCopied += static_cast<uint64_t>(N);
    for (ssize_t I = 0; I != N; ++I) {
      const uint8_t B = Bells[I];
      if ((B & RingDoorbellTagMask) != S.Attempt)
        continue; // stale: a previous occupant of this slot
      const uint8_t Kind = B & RingDoorbellKindMask;
      if (Kind == RingDoorbellData)
        continue; // drained below regardless
      if (Kind == RingDoorbellFinish) {
        // The child finished publishing: the record is final even if an
        // injected truncation keeps the frame from looking whole.
        Final = true;
        continue;
      }
      S.TerminalSeen = true;
      Final = true;
      if (Kind == RingDoorbellAbnormal && !Ch.Done)
        Ch.Abnormal = true;
    }
  }
  // Drain after the doorbells so a terminal byte observes every record
  // byte the child managed to publish.
  S.Ring->drainInto(Ch.Buf);
  if (!Ch.Done &&
      (Final || wireFrameLooksComplete(Ch.Buf.data(), Ch.Buf.size()))) {
    Ch.Done = true;
  }
  if (Ch.Done)
    S.RecordDone = true;
  return Ch.Done;
}

void WorkerPool::coldForked(unsigned Slot) {
  Slots[Slot].SpawnFailed = false;
}

void WorkerPool::killSlot(unsigned Slot) {
  const KillCmd Kill{Slot};
  (void)sendCommand(OpKill, &Kill, sizeof(Kill));
}

void WorkerPool::failTemplate() {
  ++Stats.PoolFaults;
  killTemplateHard();
}

//===----------------------------------------------------------------------===
// WorkerPool: template side
//===----------------------------------------------------------------------===

void WorkerPool::templateMain(int CtlFd) {
  // Any fatalError below this point must _exit, never abort(): an abort in
  // a forked template would dump core and re-run parent atexit handlers.
  markForkedChild();
  ignoreSigpipeOnce();
  const pid_t TmplPid = ::getpid();
#ifdef __linux__
  // Belt and braces: if the parent dies without tearing us down, die too
  // instead of lingering as an orphaned resident process.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif

  // Only the parent writes the stream. Our copy of its producer state is
  // frozen at our fork, so its end is exactly the commits we hold.
  Stream.protectReadOnly();
  CommitStream::Cursor Cur = Stream.end();

  std::vector<pid_t> Child(Slots.size(), -1);
  std::vector<uint8_t> ChildTag(Slots.size(), 0);

  // A terminal doorbell; the parent of a resident pool may be asleep on
  // the queue rather than in poll, so wake it too.
  const auto Terminal = [&](unsigned Slot, uint8_t Kind) {
    writeDoorbell(Slots[Slot].DoorbellW,
                  static_cast<uint8_t>(Kind |
                                       (ChildTag[Slot] & RingDoorbellTagMask)));
    if (Queue)
      Queue->wakeParent();
  };

  const auto ReapDoorbell = [&](unsigned Slot, int Status) {
    // A resident the stream lapped bows out cleanly: it holds no chunk, or
    // one it never ran, which the parent requeues uncharged.
    const bool Clean = WIFEXITED(Status) &&
                       (WEXITSTATUS(Status) == 0 ||
                        WEXITSTATUS(Status) == StreamOverrunExitStatus);
    Terminal(Slot, Clean ? RingDoorbellClean : RingDoorbellAbnormal);
  };

  const auto ReapSweep = [&] {
    for (unsigned I = 0; I != Child.size(); ++I) {
      if (Child[I] < 0)
        continue;
      int Status = 0;
      const pid_t R = ::waitpid(Child[I], &Status, WNOHANG);
      if (R == Child[I]) {
        Child[I] = -1;
        ReapDoorbell(I, Status);
      }
    }
  };

  const auto KillReap = [&](unsigned Slot, bool Doorbell) {
    if (Child[Slot] < 0)
      return;
    ::kill(Child[Slot], SIGKILL);
    int Status = 0;
    waitpidRetry(Child[Slot], &Status);
    Child[Slot] = -1;
    if (Doorbell)
      ReapDoorbell(Slot, Status);
  };

  // Every child is killed before any is reaped, so their exits run in
  // parallel.
  const auto Shutdown = [&] {
    for (const pid_t P : Child)
      if (P >= 0)
        ::kill(P, SIGKILL);
    for (unsigned I = 0; I != Child.size(); ++I)
      KillReap(I, /*Doorbell=*/false);
    _exit(0);
  };

  // Lapped (the parent's check raced a burst of commits), we can never
  // bring our memory to a fork's snapshot: fail the slot's launch like a
  // failed fork, then die so the parent's liveness poll replaces us with a
  // template forked from itself.
  const auto Lapped = [&](unsigned Slot) {
    Terminal(Slot, RingDoorbellAbnormal);
    for (unsigned I = 0; I != Child.size(); ++I)
      KillReap(I, /*Doorbell=*/false);
    _exit(StreamOverrunExitStatus);
  };

  // Forks the slot's child; returns 0 in the child, with only the slot's
  // own doorbell left open, and the pid (or -1 after ringing the abnormal
  // doorbell, so the parent requeues instead of waiting) in the template.
  // \p Fail injects a failed fork.
  const auto ForkChild = [&](unsigned Slot, bool Fail = false) -> pid_t {
    const pid_t Pid = Fail ? -1 : ::fork();
    if (Pid < 0) {
      Terminal(Slot, RingDoorbellAbnormal);
      return -1;
    }
    if (Pid != 0)
      return Pid;
    ::close(CtlFd);
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    // PDEATHSIG only fires on a FUTURE death of the parent: if the
    // template was killed (poison, hard retirement) between fork() and the
    // prctl above, no signal will ever come and we are already reparented.
    // Running on would make us a ghost producer on the slot's ring and a
    // ghost claimer on the queue. Detect the reparenting and bow out.
    if (::getppid() != TmplPid)
      _exit(0);
    for (unsigned I = 0; I != Slots.size(); ++I)
      if (I != Slot && Slots[I].DoorbellW >= 0)
        ::close(Slots[I].DoorbellW);
    return 0;
  };

  std::vector<uint8_t> Buf;
  for (;;) {
    bool AnyChild = false;
    for (const pid_t P : Child)
      AnyChild |= P >= 0;
    pollfd Pfd{CtlFd, POLLIN, 0};
    const int N = ::poll(&Pfd, 1, AnyChild ? 1 : -1);
    if (N < 0 && errno != EINTR)
      Shutdown();
    ReapSweep();
    if (N > 0 && (Pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      uint8_t Tmp[1 << 16];
      const ssize_t R = ::read(CtlFd, Tmp, sizeof(Tmp));
      if (R < 0) {
        if (errno != EINTR)
          Shutdown();
      } else if (R == 0) {
        Shutdown(); // parent closed the control pipe: teardown
      } else {
        Buf.insert(Buf.end(), Tmp, Tmp + R);
      }
    }

    // Dispatch every complete command in arrival order.
    size_t Pos = 0;
    while (Buf.size() - Pos >= CmdHeaderBytes) {
      const uint8_t Op = Buf[Pos];
      uint64_t PayloadLen = 0;
      std::memcpy(&PayloadLen, Buf.data() + Pos + 1, sizeof(PayloadLen));
      if (Buf.size() - Pos - CmdHeaderBytes < PayloadLen)
        break;
      const uint8_t *Payload = Buf.data() + Pos + CmdHeaderBytes;
      Pos += CmdHeaderBytes + static_cast<size_t>(PayloadLen);

      if (Op == OpFork) {
        ForkCmd Fork;
        if (PayloadLen != sizeof(Fork))
          _exit(13);
        std::memcpy(&Fork, Payload, sizeof(Fork));
        const unsigned Slot = static_cast<unsigned>(Fork.Slot);
        if (Slot >= Slots.size())
          _exit(13);
        // The slot's previous child, a straggler, must die before its
        // successor runs. Then bring our memory to the fork's snapshot.
        KillReap(Slot, /*Doorbell=*/false);
        ChildTag[Slot] = static_cast<uint8_t>(Fork.Attempt);
        if (catchUpCommits(Stream, Cur, Fork.Seq, Spec, Config) !=
            CommitStream::ReadResult::Ok)
          Lapped(Slot);
        const pid_t Pid = ForkChild(Slot);
        if (Pid == 0)
          runWireChildRing(Spec, Config, /*Worker=*/Slot + 1, Fork.Chunk,
                           Fork.First, Fork.Last, *Slots[Slot].Ring,
                           Slots[Slot].DoorbellW,
                           static_cast<uint8_t>(Fork.Attempt), Fork.Fault);
        Child[Slot] = Pid;
      } else if (Op == OpSpawn) {
        SpawnCmd Spawn;
        if (PayloadLen != sizeof(Spawn))
          _exit(13);
        std::memcpy(&Spawn, Payload, sizeof(Spawn));
        const unsigned Slot = static_cast<unsigned>(Spawn.Slot);
        if (Slot >= Slots.size() || !Queue)
          _exit(13);
        KillReap(Slot, /*Doorbell=*/false);
        ChildTag[Slot] = static_cast<uint8_t>(Spawn.Attempt);
        if (catchUpCommits(Stream, Cur, Spawn.Seq, Spec, Config) !=
            CommitStream::ReadResult::Ok)
          Lapped(Slot);
        const pid_t Pid = ForkChild(Slot, Spawn.FailFork != 0);
        if (Pid == 0) {
          if (Config.Allocator)
            Config.Allocator->advanceBump(Slot + 1,
                                          static_cast<size_t>(Spawn.BumpFloor));
          runResidentChild(Spec, Config, Slot,
                           static_cast<uint8_t>(Spawn.Attempt),
                           *Slots[Slot].Ring, *Queue, Stream, Cur);
        }
        Child[Slot] = Pid;
      } else if (Op == OpKill) {
        KillCmd Kill;
        if (PayloadLen != sizeof(Kill))
          _exit(13);
        std::memcpy(&Kill, Payload, sizeof(Kill));
        const unsigned Slot = static_cast<unsigned>(Kill.Slot);
        if (Slot >= Slots.size())
          _exit(13);
        // Kill + reap with a terminal doorbell; a no-op when the reap
        // sweep already handled the child (its doorbell is in flight).
        KillReap(Slot, /*Doorbell=*/true);
      } else {
        _exit(13);
      }
    }
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
  }
}

//===----------------------------------------------------------------------===
// Shared chunk-spawn layer (both engines, both transports)
//===----------------------------------------------------------------------===

bool alter::spawnChunkChild(const LoopSpec &Spec,
                            const ExecutorConfig &Config, WorkerPool *Pool,
                            unsigned Slot, int64_t Chunk, int64_t First,
                            int64_t Last, const ArmedFault &Fault,
                            const std::vector<int> &CloseInChild,
                            ChunkChannel &Ch, uint64_t BumpFloor) {
  Ch = ChunkChannel();
  ArmedFault ChildFault = Fault;
  bool Poisoned = false;
  if (Fault.Armed && Fault.Kind == FaultKind::TemplatePoison) {
    // The fault targets the pool, not the chunk: kill the template (the
    // next warm fork respawns it) and run this chunk cold and clean.
    if (Pool)
      Pool->failTemplate();
    ChildFault = ArmedFault();
    Poisoned = true;
  }
  if (Pool && !Poisoned &&
      Pool->warmFork(Slot, Chunk, First, Last, ChildFault, Ch))
    return true;

  // Cold path: the legacy fork-from-parent + private pipe transport.
  int Fds[2];
  if (::pipe(Fds) != 0)
    return false;
  const pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    // Close the other in-flight parent-side read ends inherited by this
    // child so their EOF semantics stay clean.
    for (const int Fd : CloseInChild)
      if (Fd >= 0)
        ::close(Fd);
    runWireChild(Spec, Config, /*Worker=*/Slot + 1, Chunk, First, Last,
                 Fds[1], ChildFault, BumpFloor);
    // runWireChild never returns.
  }
  ::close(Fds[1]);
  Ch.Launched = true;
  Ch.Warm = false;
  Ch.PollFd = Fds[0];
  Ch.DirectPid = Pid;
  return true;
}

bool alter::pumpChunkChannel(WorkerPool *Pool, unsigned Slot,
                             ChunkChannel &Ch) {
  if (Ch.Warm)
    return Pool->pump(Slot, Ch);
  uint8_t Buf[1 << 16];
  const ssize_t N = ::read(Ch.PollFd, Buf, sizeof(Buf));
  if (N < 0) {
    if (errno == EINTR)
      return Ch.Done;
    // Hard error == truncation; the frame check downstream rejects
    // whatever arrived.
    ::close(Ch.PollFd);
    Ch.PollFd = -1;
    Ch.Done = true;
  } else if (N == 0) {
    ::close(Ch.PollFd);
    Ch.PollFd = -1;
    Ch.Done = true; // EOF: the whole commit message has arrived
  } else {
    Ch.Buf.insert(Ch.Buf.end(), Buf, Buf + N);
    Ch.BytesCopied += static_cast<uint64_t>(N);
  }
  return Ch.Done;
}

void alter::killChunkChild(WorkerPool *Pool, unsigned Slot,
                           ChunkChannel &Ch) {
  if (Ch.Warm) {
    Pool->killSlot(Slot);
    return;
  }
  if (Ch.DirectPid > 0)
    ::kill(Ch.DirectPid, SIGKILL);
}

