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
#include <map>
#include <poll.h>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

/// One worker slot of the pipeline. A slot owns one arena index (slot i
/// runs children as Worker i+1), so its lifecycle must serialize every use
/// of that arena:
///
///   Free -> Running (child dispatched) -> Free        (report consumed), or
///        -> Running -> Reserved (report buffered for in-order retirement,
///           arena cursor still unadvanced) -> Free    (retired or retried)
///
/// Reserved exists only under CommitOrderPolicy::InOrder. A loop that
/// allocates (ExecutorConfig::Allocator) always reserves: a buffered
/// chunk's allocations live in the slot's arena beyond its child's report,
/// and running another chunk in the same arena before the buffered one
/// retires would hand out overlapping addresses. Without an allocator a
/// slot is freed as soon as its report is parked, unless P reports are
/// already parked — which bounds how far the pipeline runs ahead of the
/// oldest unretired chunk.
struct Slot {
  enum class State { Free, Running, Reserved };
  State St = State::Free;
  ChunkChannel Ch; // transport-agnostic child channel
  int64_t Chunk = -1;
  uint64_t SnapshotSeq = 0;
};

/// A decoded report waiting for in-order retirement.
struct BufferedReport {
  ChildReport Rep;
  uint64_t SnapshotSeq = 0;
  unsigned SlotIdx = 0;
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

  std::vector<Slot> Slots(P);
  std::map<int64_t, BufferedReport> Arrived; // InOrder retirement buffer
  std::map<int64_t, unsigned> RetryCount;
  int64_t NextToRetire = 0; // InOrder: the only chunk allowed to commit
  int64_t Committed = 0;
  int64_t DrainChunk = -1; // starvation guard target, -1 when inactive

  // Resident children replay the commit stream before each chunk, so a
  // redispatch gets the same snapshot a fork would.
  Lane.startPool(/*AllowReuse=*/true);
  WorkerPool *Pool = Lane.Pool.get();
  // Effective parallelism, shrunk (never below 1) when the environment
  // cannot even sustain the launches — see the all-fail sweep backoff.
  unsigned ActiveP = P;
  unsigned FailedSweeps = 0;

  auto runningSlots = [&] {
    uint64_t N = 0;
    for (const Slot &S : Slots)
      N += S.St == Slot::State::Running ? 1 : 0;
    return N;
  };

  // Every exit but success: SIGKILL and reap every live child (the pool
  // destructor tears down the template and its residents on return).
  auto killInFlight = [&] {
    for (unsigned I = 0; I != P; ++I) {
      Slot &S = Slots[I];
      if (S.St != Slot::State::Running)
        continue;
      killChunkChild(Pool, I, S.Ch);
      if (!S.Ch.Warm) {
        if (S.Ch.PollFd >= 0)
          ::close(S.Ch.PollFd);
        int Status = 0;
        Lane.reapPid(S.Ch.DirectPid, &Status);
      }
      // Warm children are the template's to reap; the pool teardown (or
      // the Kill command just sent) takes care of them.
      S.St = Slot::State::Free;
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

  // A chunk that did not launch stays pending: a fork failure is charged
  // to it, a shutdown request (SignalStorm) winds the run down first.
  auto forkChunk = [&](unsigned SlotIdx, int64_t Chunk) {
    Slot &S = Slots[SlotIdx];
    // A cold fallback child inherits the other in-flight COLD read ends;
    // close them in the child so their EOF semantics stay clean. (Warm
    // slots poll pool-owned doorbells, which don't carry EOF.)
    std::vector<int> CloseInChild;
    for (const Slot &Other : Slots)
      if (Other.St == Slot::State::Running && !Other.Ch.Warm)
        CloseInChild.push_back(Other.Ch.PollFd);
    if (!Lane.launch(SlotIdx, Chunk, CloseInChild, S.Ch)) {
      if (shutdownRequested())
        insertPending(Chunk);
      else
        chunkFault(Chunk, "fork/pipe failure");
      return;
    }
    S.St = Slot::State::Running;
    S.Chunk = Chunk;
    // The child's snapshot reflects every commit applied so far: a cold
    // fork sees the parent's memory, and a warm child — forked by the
    // template or redispatched to a resident — first replays the commit
    // stream up to the commits pushed before its command. Either way it
    // must validate against everything that commits after this point.
    S.SnapshotSeq = Detector.commitSeq();
  };

  // Keep every slot busy: the continuous feed that replaces the round
  // barrier. Under the starvation guard only the starving chunk may fork,
  // and only once the pipeline has drained, which guarantees it validates
  // against zero concurrent commits and therefore commits.
  auto fillSlots = [&] {
    if (DrainChunk >= 0) {
      if (runningSlots() != 0)
        return;
      for (unsigned I = 0; I != P; ++I) {
        if (Slots[I].St != Slot::State::Free)
          continue;
        const auto It =
            std::lower_bound(Pending.begin(), Pending.end(), DrainChunk);
        assert(It != Pending.end() && *It == DrainChunk &&
               "drain target must be pending");
        Pending.erase(It);
        forkChunk(I, DrainChunk);
        return;
      }
      return;
    }
    // Dispatch only into the first ActiveP slots: a parallelism downgrade
    // must reduce the number of SIMULTANEOUS children, and slots above the
    // shrunk width drain naturally (Reserved reports still retire).
    for (unsigned I = 0; I != ActiveP && !Pending.empty() && !Lane.failed();
         ++I) {
      if (Slots[I].St != Slot::State::Free)
        continue;
      const int64_t Chunk = Pending.front();
      Pending.pop_front();
      forkChunk(I, Chunk);
    }
  };

  auto pruneEpochs = [&] {
    uint64_t MinSnapshot = Detector.commitSeq();
    for (const Slot &S : Slots)
      if (S.St == Slot::State::Running)
        MinSnapshot = std::min(MinSnapshot, S.SnapshotSeq);
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
      if (Slots[B.SlotIdx].St == Slot::State::Reserved)
        Slots[B.SlotIdx].St = Slot::State::Free;
      if (!retire(B.Rep, NextToRetire, B.SnapshotSeq, B.SlotIdx))
        break;
      ++NextToRetire;
    }
  };

  // Parent side of one completed child: reap it, decode its message, and
  // validate/commit/requeue per the commit-order policy. A crashed child
  // or rejected message is contained to the chunk (chunkFault); only the
  // access-set cap escalates straight to a run-level Crash, because the
  // same chunk would overflow again on retry.
  auto completeSlot = [&](unsigned SlotIdx) {
    Slot &S = Slots[SlotIdx];
    ChildReport Rep;
    std::string Why;
    const bool Reaped = Lane.reap(SlotIdx, S.Ch, Rep, Why);
    S.Ch.Buf.clear();
    if (!Reaped) {
      S.St = Slot::State::Free;
      chunkFault(S.Chunk, Why);
      return;
    }
    if (!Lane.account(Rep)) {
      // Indict the earliest uncommitted chunk, not the one that tripped
      // the cap. The tripping chunk's set usually blew up re-validating
      // against snapshots that are stale only because an earlier chunk
      // has not retired; the ladder resolves the indicted chunk solo and
      // then re-runs the tail, so pointing it at the head-of-line
      // blocker lets the tripping chunk retry with fresh, small sets
      // instead of overflowing again in quarantine.
      int64_t Earliest = S.Chunk;
      for (const Slot &Other : Slots)
        if (&Other != &S && Other.St != Slot::State::Free)
          Earliest = std::min(Earliest, Other.Chunk);
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
                          SlotIdx, static_cast<long long>(S.Chunk),
                          static_cast<long long>(Earliest)));
      S.St = Slot::State::Free;
      return;
    }

    if (InOrder && S.Chunk != NextToRetire) {
      // Too early to retire: park the report (see Slot for when its slot
      // stays reserved until then).
      Arrived.emplace(S.Chunk,
                      BufferedReport{std::move(Rep), S.SnapshotSeq, SlotIdx});
      S.St = Config.Allocator || Arrived.size() > P ? Slot::State::Reserved
                                                    : Slot::State::Free;
      return;
    }
    S.St = Slot::State::Free;
    if (!retire(Rep, S.Chunk, S.SnapshotSeq, SlotIdx))
      return;
    if (InOrder) {
      ++NextToRetire;
      drainArrived();
    }
    pruneEpochs();
  };

  while (Committed != NumChunks) {
    if (shutdownRequested()) {
      // Graceful wind-down: stop dispatching, SIGKILL and reap every live
      // child, and surface a valid partial result.
      killInFlight();
      return Lane.interrupt();
    }
    fillSlots();
    if (Lane.failed()) {
      killInFlight();
      return Lane.finishFailed();
    }

    std::vector<pollfd> Fds;
    std::vector<unsigned> FdSlots;
    for (unsigned I = 0; I != P; ++I) {
      if (Slots[I].St != Slot::State::Running)
        continue;
      Fds.push_back({Slots[I].Ch.PollFd, POLLIN, 0});
      FdSlots.push_back(I);
    }

    // Watch the template too: a warm child's terminal doorbell comes from
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
      // With a deadline armed, wake periodically even if no child reports,
      // so a runaway chunk cannot postpone the timeout check indefinitely.
      const int PollTimeoutMs = DeadlineNs == 0 ? -1 : 100;
      const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
      int Ready;
      do {
        Ready = ::poll(Fds.data(), Fds.size(), PollTimeoutMs);
      } while (Ready < 0 && errno == EINTR);
      if (Sink.events() && Ready >= 0)
        Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                   PollT0, traceNowNs() - PollT0,
                   /*Arg0=*/static_cast<uint64_t>(Ready),
                   /*Arg1=*/static_cast<uint64_t>(Fds.size()));
      Lane.sample(runningSlots(), /*Force=*/false);
      if (Ready < 0)
        return stop(RunStatus::Crash, "poll() failed in pipeline executor");

      // Before any completion can spawn: a respawned template would reuse
      // the dead one's descriptor number.
      if (LivenessFd >= 0 && (Fds.back().revents & (POLLERR | POLLHUP)))
        Pool->failTemplate(); // rings the abnormal doorbells polled next
      for (size_t F = 0; F != FdSlots.size(); ++F) {
        if (!(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        // Pump whatever arrived (pipe bytes or ring records); when the
        // record is complete — EOF on a cold pipe, a whole frame or a
        // terminal doorbell on a warm ring — retire the slot. Truncated
        // buffers are rejected by the decode inside completeSlot,
        // containing the failure to this chunk.
        if (!pumpChunkChannel(Pool, FdSlots[F], Slots[FdSlots[F]].Ch))
          continue;
        completeSlot(FdSlots[F]);
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
