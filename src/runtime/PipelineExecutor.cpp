//===- runtime/PipelineExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PipelineExecutor.h"

#include "runtime/ParentLane.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <deque>
#include <functional>
#include <map>
#include <poll.h>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

/// A cold child of one worker slot: the pipe transport's only kind, and the
/// ring transport's fallback for a slot whose resident cannot be forked. A
/// slot (arena index slot + 1) runs a resident or a cold child, never both.
struct ColdSlot {
  bool Busy = false;
  ChunkChannel Ch;
  int64_t Chunk = -1;
  uint64_t SnapshotSeq = 0;
};

/// A chunk published to the resident queue whose report has not arrived.
struct Flight {
  int64_t Chunk = -1;
  /// Commit sequence at publication: no claimer's snapshot is older.
  uint64_t PublishSeq = 0;
  bool Claimed = false;
};

/// Queue index of a report that came from a cold child.
constexpr uint64_t ColdIndex = ~uint64_t(0);

/// A decoded report waiting for in-order retirement.
struct BufferedReport {
  ChildReport Rep;
  uint64_t SnapshotSeq = 0;
  unsigned SlotIdx = 0;
  uint64_t Index = ColdIndex;
};

} // namespace

PipelineExecutor::PipelineExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  if (!this->Config.Costs)
    this->Config.Costs = &CostModel::calibrated();
}

RunResult PipelineExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  ParentLane Lane("pipeline", Spec, Config, ScheduleKind::Chunked,
                  Config.Params.ChunkFactor > 0 ? Config.Params.ChunkFactor
                                                : globalChunkFactor(),
                  Config.Params.Conflict, LaneClock::Real);
  RunStats &Stats = Lane.Stats;
  ConflictDetector &Detector = Lane.Detector;
  TraceSink &Sink = Lane.Sink;
  const int64_t NumChunks = Lane.NumChunks;
  const unsigned P = Config.NumWorkers;
  const bool InOrder =
      Config.Params.CommitOrder == CommitOrderPolicy::InOrder;
  const uint64_t DeadlineNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(Config.TimeoutFactor *
                                  static_cast<double>(Config.SeqBaselineNs));

  // Pending chunks, kept sorted ascending at all times: initial chunks are
  // created in order and retried chunks re-enter by sorted insertion, so
  // the front is always the oldest runnable chunk.
  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != NumChunks; ++C)
    Pending.push_back(C);
  // Faults taken for chunks that went back to Pending without running
  // (a retracted entry): they strike at the chunk's next dispatch.
  std::map<int64_t, ArmedFault> HeldFaults;

  std::vector<ColdSlot> Cold(P);
  std::map<uint64_t, Flight> Flights;        // queue index -> chunk
  std::map<int64_t, BufferedReport> Arrived; // InOrder retirement buffer
  std::map<int64_t, unsigned> RetryCount;
  int64_t NextToRetire = 0; // InOrder: the only chunk allowed to commit
  int64_t Committed = 0;
  int64_t DrainChunk = -1; // starvation guard target, -1 when inactive

  // On the ring transport every chunk runs on a resident child that
  // claims it from the pool's queue (see WorkerPool.h).
  Lane.startPool(/*Residents=*/true);
  WorkerPool *Pool = Lane.Pool.get();
  // Effective parallelism, shrunk (never below 1) when the environment
  // cannot even sustain the launches — see the all-fail sweep backoff.
  unsigned ActiveP = P;
  unsigned FailedSweeps = 0;

  auto runningChunks = [&] {
    uint64_t N = 0;
    for (const auto &[Index, F] : Flights)
      N += F.Claimed ? 1 : 0;
    for (const ColdSlot &C : Cold)
      N += C.Busy ? 1 : 0;
    return N;
  };
  auto anyInFlight = [&] {
    if (!Flights.empty())
      return true;
    for (const ColdSlot &C : Cold)
      if (C.Busy)
        return true;
    return false;
  };

  // Every exit but success: SIGKILL and reap every cold child (the pool's
  // retirement in Lane.finish tears down the template and its residents).
  auto killInFlight = [&] {
    for (unsigned I = 0; I != P; ++I) {
      ColdSlot &C = Cold[I];
      if (!C.Busy)
        continue;
      killChunkChild(nullptr, I, C.Ch);
      if (C.Ch.PollFd >= 0)
        ::close(C.Ch.PollFd);
      int Status = 0;
      Lane.reapPid(C.Ch.DirectPid, &Status);
      C.Busy = false;
    }
  };
  auto stop = [&](RunStatus Status, std::string Detail) {
    killInFlight();
    return Lane.finish(Status, std::move(Detail));
  };

  auto insertPending = [&](int64_t Chunk) {
    Pending.insert(std::lower_bound(Pending.begin(), Pending.end(), Chunk),
                   Chunk);
  };

  // Contained per-chunk failure: requeue for a clean retry, or — once the
  // chunk has burned its fault budget — fail the whole run with a Crash
  // the caller can recover from sequentially.
  auto chunkFault = [&](int64_t Chunk, const std::string &Why) {
    if (Lane.chargeFault(Chunk, Why))
      insertPending(Chunk);
  };

  // Verdicts for the resident that produced a report (cold reports have
  // no queue entry).
  auto taken = [&](uint64_t Index) {
    if (Index != ColdIndex)
      Pool->taken(Index);
  };
  auto settled = [&](uint64_t Index) {
    if (Index != ColdIndex)
      Pool->settled(Index);
  };

  // The arena cursor a new child of \p SlotIdx must start past: the
  // allocations of the slot's reports still parked for retirement.
  auto bumpFloor = [&](unsigned SlotIdx) {
    uint64_t Floor = 0;
    for (const auto &[Chunk, B] : Arrived)
      if (B.SlotIdx == SlotIdx)
        Floor = std::max(Floor, B.Rep.BumpOffset);
    return Floor;
  };

  // The next chunk the parent lets run, or -1. Under the starvation guard
  // only the starving chunk may run, and only once nothing else is in
  // flight, which guarantees it validates against zero concurrent commits
  // and therefore commits. Under InOrder, once more than P reports are
  // parked only the oldest unretired chunk may run, which bounds how far
  // the pipeline runs ahead of it.
  auto nextChunk = [&]() -> int64_t {
    if (Pending.empty() || Lane.failed())
      return -1;
    if (DrainChunk >= 0) {
      if (anyInFlight())
        return -1;
      const auto It =
          std::lower_bound(Pending.begin(), Pending.end(), DrainChunk);
      assert(It != Pending.end() && *It == DrainChunk &&
             "drain target must be pending");
      Pending.erase(It);
      return DrainChunk;
    }
    if (InOrder && Arrived.size() > P && Pending.front() != NextToRetire)
      return -1;
    const int64_t Chunk = Pending.front();
    Pending.pop_front();
    return Chunk;
  };

  // Dispatch-time fault of \p Chunk (FaultPlan::take, or the one held from
  // a retracted entry). False when the chunk must not run: a shutdown
  // request (it stays pending) or an injected fork failure (charged).
  auto takeFault = [&](int64_t Chunk, ArmedFault &Fault) {
    const auto Held = HeldFaults.find(Chunk);
    if (Held != HeldFaults.end()) {
      Fault = Held->second;
      HeldFaults.erase(Held);
      return true;
    }
    if (Lane.takeFault(Chunk, /*Worker=*/0, Fault))
      return true;
    if (shutdownRequested())
      insertPending(Chunk);
    else
      chunkFault(Chunk, "fork/pipe failure");
    return false;
  };

  // Runs \p Chunk on a cold child in \p SlotIdx. The child's snapshot is
  // the parent's memory: every commit applied so far.
  auto forkCold = [&](unsigned SlotIdx, int64_t Chunk,
                      const ArmedFault &Fault) {
    ColdSlot &C = Cold[SlotIdx];
    // A cold child inherits the other in-flight read ends; close them in
    // the child so their EOF semantics stay clean.
    std::vector<int> CloseInChild;
    for (const ColdSlot &Other : Cold)
      if (Other.Busy)
        CloseInChild.push_back(Other.Ch.PollFd);
    if (!Lane.spawn(SlotIdx, Chunk, Fault, CloseInChild, C.Ch,
                    /*Via=*/nullptr, bumpFloor(SlotIdx))) {
      chunkFault(Chunk, "fork/pipe failure");
      return;
    }
    if (Pool)
      Pool->coldForked(SlotIdx);
    C.Busy = true;
    C.Chunk = Chunk;
    C.SnapshotSeq = Detector.commitSeq();
  };

  // An injected TemplatePoison targets the pool, not the chunk: the
  // template dies (its residents with it, their claims requeued) and the
  // chunk runs cold and clean in a free slot.
  auto poison = [&](int64_t Chunk) {
    if (Pool)
      Pool->failTemplate();
    for (unsigned I = 0; I != ActiveP; ++I)
      if (!Cold[I].Busy) {
        forkCold(I, Chunk, ArmedFault());
        return;
      }
    insertPending(Chunk);
  };

  // Open entries are the head of the pending order: a requeued older
  // chunk overtakes them, and \p All takes back every one (the drain, or
  // no live resident to claim them). Entries claimed meanwhile stay; the
  // next collect reports them.
  auto retractOpen = [&](bool All) {
    for (auto It = Flights.begin(); It != Flights.end();) {
      const Flight &F = It->second;
      const bool Take = !F.Claimed && (All || (!Pending.empty() &&
                                               F.Chunk > Pending.front()));
      const ArmedFault Fault = Take ? Pool->entryFault(It->first)
                                    : ArmedFault();
      if (!Take || !Pool->retract(It->first)) {
        ++It;
        continue;
      }
      if (Fault.Armed)
        HeldFaults[F.Chunk] = Fault;
      insertPending(F.Chunk);
      It = Flights.erase(It);
    }
  };

  // Keeps every active slot working: the continuous feed that replaces the
  // round barrier. On the ring transport each slot holds a resident and the
  // queue holds OpenEntriesPerResident open entries per live resident, in
  // pending order; a slot whose resident cannot be forked runs cold
  // children instead. No entry opens while a forked resident has not yet
  // announced itself: residents forked together start together, instead
  // of the first one running ahead alone while the template forks the
  // rest.
  auto schedule = [&] {
    // Reorder before anything can be forked: a fresh resident must find
    // the oldest runnable chunk first (under InOrder, the residents that
    // hold parked allocating chunks wait for it).
    if (Pool)
      retractOpen(DrainChunk >= 0);
    // Residents to keep: one per active slot, but no more than there are
    // chunks left to claim (a short loop forks fewer).
    size_t Wanted = Pending.size();
    for (const auto &[Index, F] : Flights)
      Wanted += F.Claimed ? 0 : 1;
    for (unsigned I = 0; Pool && I != ActiveP; ++I)
      if (Pool->residentLive(I) && Wanted != 0)
        --Wanted;
    unsigned Live = 0, Starting = 0;
    for (unsigned I = 0; I != ActiveP && !Lane.failed(); ++I) {
      if (Cold[I].Busy)
        continue;
      WorkerPool::ResidentState St = WorkerPool::ResidentState::None;
      if (Pool) {
        if (!Pool->residentLive(I)) {
          if (Wanted == 0)
            continue;
          --Wanted;
        }
        St = Pool->ensureResident(I, bumpFloor(I));
      }
      if (St == WorkerPool::ResidentState::Live) {
        ++Live;
        Starting += Pool->residentUp(I) ? 0 : 1;
        continue;
      }
      if (St == WorkerPool::ResidentState::Retiring)
        continue;
      const int64_t Chunk = nextChunk();
      if (Chunk < 0)
        continue;
      ArmedFault Fault;
      if (!takeFault(Chunk, Fault))
        continue;
      if (Fault.Armed && Fault.Kind == FaultKind::TemplatePoison)
        Fault = ArmedFault(); // no pool to poison here
      forkCold(I, Chunk, Fault);
    }
    if (!Pool)
      return;
    if (Live == 0)
      retractOpen(/*All=*/true);
    unsigned Open = 0;
    for (const auto &[Index, F] : Flights)
      Open += F.Claimed ? 0 : 1;
    const unsigned Target = Starting != 0 ? 0 : OpenEntriesPerResident * Live;
    while (Open < Target && !Lane.failed()) {
      const int64_t Chunk = nextChunk();
      if (Chunk < 0)
        break;
      ArmedFault Fault;
      if (!takeFault(Chunk, Fault)) {
        if (shutdownRequested())
          break; // the chunk stays pending; the main loop winds down
        continue;
      }
      if (Fault.Armed && Fault.Kind == FaultKind::TemplatePoison) {
        poison(Chunk);
        break; // every resident is gone; respawn on the next sweep
      }
      uint64_t Index = 0;
      if (!Pool->publish(Chunk, Lane.first(Chunk), Lane.last(Chunk), Fault,
                         Index)) {
        if (Fault.Armed)
          HeldFaults[Chunk] = Fault;
        insertPending(Chunk);
        break;
      }
      Flights[Index] = Flight{Chunk, Detector.commitSeq(), false};
      ++Open;
    }
    Pool->flush();
  };

  auto pruneEpochs = [&] {
    uint64_t MinSnapshot = Detector.commitSeq();
    for (const auto &[Index, F] : Flights)
      MinSnapshot = std::min(MinSnapshot, F.PublishSeq);
    for (const ColdSlot &C : Cold)
      if (C.Busy)
        MinSnapshot = std::min(MinSnapshot, C.SnapshotSeq);
    for (const auto &[Chunk, B] : Arrived)
      MinSnapshot = std::min(MinSnapshot, B.SnapshotSeq);
    Detector.pruneEpochsThrough(MinSnapshot);
  };

  // Validates chunk \p Chunk's report against exactly the commits since its
  // snapshot, then commits it or requeues it. Returns true on commit.
  auto retire = [&](ChildReport &Rep, int64_t Chunk, uint64_t SnapshotSeq,
                    unsigned SlotIdx) {
    const ParentLane::ValidateClock V = Lane.beginValidate();
    const bool Conflicts =
        Detector.hasConflictSince(SnapshotSeq, Rep.Reads, Rep.Writes);
    Lane.endValidate(Chunk, V, Conflicts, Detector.lastConflictWord());
    if (Conflicts) {
      Lane.retry(Chunk, Detector.lastConflictWord());
      insertPending(Chunk);
      const unsigned Count = ++RetryCount[Chunk];
      // InOrder needs no guard: only the oldest unretired chunk validates,
      // and its solo retry cannot conflict. OutOfOrder chunks can starve
      // behind a stream of committers, so drain the pipe and run them
      // alone.
      if (!InOrder && Count >= StarvationRetryLimit && DrainChunk < 0)
        DrainChunk = Chunk;
      return false;
    }
    Detector.recordCommitEpoch(Rep.Writes);
    Lane.commit(Rep, Chunk, /*Arena=*/SlotIdx + 1);
    ++Committed;
    if (Chunk == DrainChunk)
      DrainChunk = -1;
    RetryCount.erase(Chunk);
    return true;
  };

  // Retire buffered reports in ascending chunk order (InOrder only).
  auto drainArrived = [&] {
    for (auto It = Arrived.find(NextToRetire); It != Arrived.end();
         It = Arrived.find(NextToRetire)) {
      BufferedReport B = std::move(It->second);
      Arrived.erase(It);
      const bool Ok = retire(B.Rep, NextToRetire, B.SnapshotSeq, B.SlotIdx);
      settled(B.Index);
      if (!Ok)
        break;
      ++NextToRetire;
    }
  };

  // Parent side of one decoded report: validate/commit/requeue per the
  // commit-order policy. Only the access-set cap escalates straight to a
  // run-level Crash, because the same chunk would overflow again on retry.
  auto accept = [&](ChildReport &Rep, int64_t Chunk, uint64_t SnapshotSeq,
                    unsigned SlotIdx, uint64_t Index) {
    if (!Lane.account(Rep)) {
      settled(Index);
      // Indict the earliest uncommitted chunk, not the one that tripped
      // the cap. The tripping chunk's set usually blew up re-validating
      // against snapshots that are stale only because an earlier chunk
      // has not retired; the ladder resolves the indicted chunk solo and
      // then re-runs the tail, so pointing it at the head-of-line
      // blocker lets the tripping chunk retry with fresh, small sets
      // instead of overflowing again in quarantine.
      int64_t Earliest = Chunk;
      for (const auto &[I, F] : Flights)
        Earliest = std::min(Earliest, F.Chunk);
      for (const ColdSlot &C : Cold)
        if (C.Busy)
          Earliest = std::min(Earliest, C.Chunk);
      if (!Arrived.empty())
        Earliest = std::min(Earliest, Arrived.begin()->first);
      if (!Pending.empty()) // sorted: the front is the oldest runnable
        Earliest = std::min(Earliest, Pending.front());
      if (InOrder)
        Earliest = std::min(Earliest, NextToRetire);
      Lane.fail(Earliest,
                strprintf("worker %u (chunk %lld) exceeded the access-set "
                          "memory cap (earliest uncommitted chunk %lld "
                          "indicted)",
                          SlotIdx, static_cast<long long>(Chunk),
                          static_cast<long long>(Earliest)));
      return;
    }
    if (InOrder && Chunk != NextToRetire) {
      // Too early to retire: park the report. Its resident may run on;
      // the parked-report bound in nextChunk keeps the run-ahead finite.
      Arrived.emplace(Chunk,
                      BufferedReport{std::move(Rep), SnapshotSeq, SlotIdx,
                                     Index});
      taken(Index);
      return;
    }
    const bool Ok = retire(Rep, Chunk, SnapshotSeq, SlotIdx);
    settled(Index);
    if (!Ok)
      return;
    if (InOrder) {
      ++NextToRetire;
      drainArrived();
    }
    pruneEpochs();
  };

  // What the residents did: claims, records, and deaths.
  const std::function<bool(ResidentEvent &)> OnResident =
      [&](ResidentEvent &Ev) {
        switch (Ev.K) {
        case ResidentEvent::Kind::Claimed:
          Flights[Ev.Index].Claimed = true;
          Lane.claimed(Ev.Slot, Ev.Chunk, Ev.Reuse);
          return true;
        case ResidentEvent::Kind::Lost:
          Flights.erase(Ev.Index);
          if (Ev.Crashed) {
            ++Stats.NumChildCrashes;
            chunkFault(Ev.Chunk, "pooled child terminated abnormally");
          } else {
            if (Ev.Fault.Armed)
              HeldFaults[Ev.Chunk] = Ev.Fault;
            insertPending(Ev.Chunk);
          }
          return true;
        case ResidentEvent::Kind::Report: {
          Flights.erase(Ev.Index);
          ChildReport Rep;
          std::string Why;
          if (!Lane.decode(Ev.Frame, Rep, Why)) {
            settled(Ev.Index);
            chunkFault(Ev.Chunk, Why);
            return false; // the pool retires the resident
          }
          accept(Rep, Ev.Chunk, Ev.SnapshotSeq, Ev.Slot, Ev.Index);
          return true;
        }
        }
        return true;
      };

  // Parent side of one completed cold child: reap it, decode its message,
  // and accept it. A crashed child or rejected message is contained to
  // the chunk.
  auto completeCold = [&](unsigned SlotIdx) {
    ColdSlot &C = Cold[SlotIdx];
    ChildReport Rep;
    std::string Why;
    const bool Reaped = Lane.reap(C.Ch, Rep, Why);
    C.Ch.Buf.clear();
    C.Busy = false;
    if (!Reaped) {
      chunkFault(C.Chunk, Why);
      return;
    }
    accept(Rep, C.Chunk, C.SnapshotSeq, SlotIdx, ColdIndex);
  };

  std::vector<pollfd> Fds;
  std::vector<unsigned> FdSlots;
  std::vector<bool> Readable(P);
  while (Committed != NumChunks) {
    if (shutdownRequested()) {
      // Graceful wind-down: stop dispatching, SIGKILL and reap every live
      // child, and surface a valid partial result.
      killInFlight();
      return Lane.interrupt();
    }
    schedule();
    if (Lane.failed()) {
      killInFlight();
      return Lane.finishFailed();
    }

    // Cold children first (FdSlots[i] = slot), then resident doorbells
    // (FdSlots[i] = P + slot), then the template's liveness.
    Fds.clear();
    FdSlots.clear();
    for (unsigned I = 0; I != P; ++I)
      if (Cold[I].Busy) {
        Fds.push_back({Cold[I].Ch.PollFd, POLLIN, 0});
        FdSlots.push_back(I);
      }
    for (unsigned I = 0; Pool && I != P; ++I) {
      const int Fd = Pool->residentFd(I);
      if (Fd < 0)
        continue;
      Fds.push_back({Fd, POLLIN, 0});
      FdSlots.push_back(P + I);
    }
    // Watch the template too: a resident's terminal doorbell comes from
    // the template, so its death must be noticed here (see
    // WorkerPool::livenessFd).
    const int LivenessFd = Pool && !Fds.empty() ? Pool->livenessFd() : -1;
    if (LivenessFd >= 0)
      Fds.push_back({LivenessFd, 0, 0});

    if (Fds.empty()) {
      // Every launch attempt failed this iteration (transient fork/pipe
      // exhaustion): back off briefly instead of spinning, then retry.
      // Two consecutive all-fail sweeps mean the environment cannot
      // sustain the requested parallelism at all — halve it (never below
      // one) so the retries demand fewer simultaneous children.
      if (!Pending.empty() && ++FailedSweeps >= 2 && ActiveP > 1) {
        ActiveP = std::max(1u, ActiveP / 2);
        ++Stats.ResourceFaults;
        ++Stats.ParallelismDowngrades;
        if (Sink.events())
          Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
                     traceNowNs(), 0, /*Arg0=*/1, /*Arg1=*/ActiveP);
        FailedSweeps = 0;
      }
      ::poll(nullptr, 0, 1);
    } else {
      FailedSweeps = 0;
      // Residents wake the parent through the queue's futex, which — unlike
      // a pipe write — does not pull it onto their CPU, so a resident runs
      // on while the parent commits. Then the pipes (the template's reap
      // doorbells, its liveness) are only checked here, and the parent
      // sleeps on the queue below. Cold children wake it through their
      // pipes; while residents run beside them, a short timeout bounds how
      // long their records wait. With a deadline armed, wake periodically
      // even if no child reports, so a runaway chunk cannot postpone the
      // timeout check.
      const bool QueueWait = Pool && FdSlots.front() >= P;
      const bool Residents = Pool && FdSlots.back() >= P;
      const uint32_t Seen = QueueWait ? Pool->parentGeneration() : 0;
      const int PollTimeoutMs = QueueWait   ? 0
                                : Residents ? 1
                                : DeadlineNs == 0 ? -1
                                                  : 100;
      const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
      int Ready;
      do {
        Ready = ::poll(Fds.data(), Fds.size(), PollTimeoutMs);
      } while (Ready < 0 && errno == EINTR);
      if (!QueueWait) {
        ++Stats.PollWakes;
        if (Sink.events() && Ready >= 0)
          Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                     PollT0, traceNowNs() - PollT0,
                     /*Arg0=*/static_cast<uint64_t>(Ready),
                     /*Arg1=*/static_cast<uint64_t>(Fds.size()));
        Lane.sample(runningChunks(), /*Force=*/false);
      }
      if (Ready < 0)
        return stop(RunStatus::Crash, "poll() failed in pipeline executor");

      // Before anything can spawn: a respawned template would reuse the
      // dead one's descriptor number.
      if (LivenessFd >= 0 && (Fds.back().revents & (POLLERR | POLLHUP)))
        Pool->failTemplate(); // its residents' claims requeue below
      if (Pool) {
        std::fill(Readable.begin(), Readable.end(), false);
        for (size_t F = 0; F != FdSlots.size(); ++F)
          if (FdSlots[F] >= P &&
              (Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
            Readable[FdSlots[F] - P] = true;
        const size_t Events = Pool->collect(Readable, OnResident);
        if (Lane.failed()) {
          killInFlight();
          return Lane.finishFailed();
        }
        if (QueueWait && Ready == 0 && Events == 0) {
          // Nothing to do: sleep until a resident publishes a record or
          // the template reaps one. The timeout is the backstop for a
          // template that dies unannounced (the liveness check above).
          Pool->sleepParent(Seen, DeadlineNs == 0 ? 20 : 10);
          ++Stats.PollWakes;
          if (Sink.events())
            Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                       PollT0, traceNowNs() - PollT0, /*Arg0=*/0,
                       /*Arg1=*/static_cast<uint64_t>(Fds.size()));
          Lane.sample(runningChunks(), /*Force=*/false);
        }
      }
      for (size_t F = 0; F != FdSlots.size(); ++F) {
        if (FdSlots[F] >= P ||
            !(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        // Pump whatever arrived; at EOF retire the slot. Truncated
        // buffers are rejected by the decode inside completeCold,
        // containing the failure to this chunk.
        if (!pumpChunkChannel(nullptr, FdSlots[F], Cold[FdSlots[F]].Ch))
          continue;
        completeCold(FdSlots[F]);
        if (Lane.failed()) {
          killInFlight();
          return Lane.finishFailed();
        }
      }
    }

    if (DeadlineNs != 0 &&
        AccumulatedSimNs + (nowNs() - Lane.startNs()) > DeadlineNs)
      return stop(RunStatus::Timeout, "pipelined execution time exceeded "
                                      "the 10x-sequential deadline");
  }

  assert(Arrived.empty() && "buffered reports outlived the run");
  return Lane.finish(RunStatus::Success, std::string());
}
