//===- runtime/ForkJoinExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ForkJoinExecutor.h"

#include "runtime/ParentLane.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <deque>
#include <poll.h>
#include <vector>

using namespace alter;

namespace {

/// Real-time floor under the stall deadline: fork/exec jitter on a loaded
/// host must not masquerade as a stalled child when the sequential baseline
/// is tiny.
constexpr uint64_t MinStallGraceNs = 250'000'000; // 250ms

} // namespace

ForkJoinExecutor::ForkJoinExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  if (!this->Config.Costs)
    this->Config.Costs = &CostModel::calibrated();
}

RunResult ForkJoinExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  ParentLane Lane("forkjoin", Spec, Config, ScheduleKind::Chunked,
                  Config.Params.ChunkFactor > 0 ? Config.Params.ChunkFactor
                                                : globalChunkFactor(),
                  Config.Params.Conflict, LaneClock::Rounds);
  RunStats &Stats = Lane.Stats;
  ConflictDetector &Detector = Lane.Detector;
  TraceSink &Sink = Lane.Sink;
  const unsigned P = Config.NumWorkers;
  const bool InOrder = Config.Params.CommitOrder == CommitOrderPolicy::InOrder;

  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != Lane.NumChunks; ++C)
    Pending.push_back(C);

  // No child reuse here: every round's chunks fork fresh from the template,
  // which catches up to the previous rounds' commits first.
  Lane.startPool(/*Residents=*/false);
  WorkerPool *Pool = Lane.Pool.get();
  // Effective parallelism: halved (never below 1) after consecutive rounds
  // in which EVERY launch failed — fork/pipe exhaustion at full width.
  unsigned ActiveP = P;
  unsigned AllFailedRounds = 0;

  // Real-time stall deadline: children run on real CPUs, so the 10x rule
  // has to bound real time here. On an oversubscribed host P children
  // serialize, hence the NumWorkers factor on the budget.
  uint64_t RealDeadline = 0;
  if (Config.SeqBaselineNs != 0) {
    const double BudgetNs = Config.TimeoutFactor *
                            static_cast<double>(Config.SeqBaselineNs) *
                            static_cast<double>(P);
    RealDeadline = Lane.startNs() + std::max(static_cast<uint64_t>(BudgetNs),
                                             MinStallGraceNs);
  }

  // Shutdown winds down gracefully at the round top and after the join:
  // every child of the round is already dead and reaped by then, and the
  // pool destructor (on return) tears down the template, so nothing is
  // orphaned.
  while (!Pending.empty()) {
    if (shutdownRequested())
      return Lane.interrupt();
    ++Stats.NumRounds;
    const unsigned RoundSize =
        static_cast<unsigned>(std::min<int64_t>(ActiveP, Pending.size()));
    std::vector<int64_t> RoundChunks(Pending.begin(),
                                     Pending.begin() + RoundSize);
    Pending.erase(Pending.begin(), Pending.begin() + RoundSize);

    // Fork up to N children: each inherits a COW snapshot of the committed
    // state. A pipe() or fork() failure is contained to its slot — the
    // chunk is requeued, the rest of the round proceeds.
    std::vector<ChunkChannel> Chans(RoundSize);
    bool AllLaunchesFailed = RoundSize > 0;
    for (unsigned W = 0; W != RoundSize; ++W) {
      // Cold children must not inherit the other in-flight pipe read ends.
      std::vector<int> CloseInChild;
      for (unsigned Prev = 0; Prev != W; ++Prev)
        if (Chans[Prev].Launched && !Chans[Prev].Warm)
          CloseInChild.push_back(Chans[Prev].PollFd);
      AllLaunchesFailed &=
          !Lane.launch(W, RoundChunks[W], CloseInChild, Chans[W]);
    }

    // Fork/pipe exhaustion at full width: when EVERY launch of the round
    // failed twice in a row, halve the effective parallelism so the
    // retries demand fewer simultaneous children.
    if (AllLaunchesFailed) {
      if (++AllFailedRounds >= 2 && ActiveP > 1) {
        ActiveP = std::max(1u, ActiveP / 2);
        ++Stats.ResourceFaults;
        ++Stats.ParallelismDowngrades;
        if (Sink.events())
          Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
                     traceNowNs(), 0, /*Arg0=*/1, /*Arg1=*/ActiveP);
        AllFailedRounds = 0;
      }
    } else {
      AllFailedRounds = 0;
    }

    // Join: drain every pipe concurrently under the stall deadline. A
    // child that outlives the deadline is SIGKILLed; the resulting EOF
    // unblocks its read and the truncated message is rejected downstream.
    bool TimedOut = false;
    for (;;) {
      if (shutdownRequested())
        // Stop waiting for stragglers: SIGKILL everything still in flight;
        // the resulting EOFs/terminal doorbells complete the channels and
        // the post-join check returns Interrupted.
        for (unsigned W = 0; W != RoundSize; ++W)
          if (Chans[W].Launched && !Chans[W].Done)
            killChunkChild(Pool, W, Chans[W]);
      std::vector<pollfd> Pfds;
      std::vector<unsigned> PfdSlot;
      for (unsigned W = 0; W != RoundSize; ++W)
        if (Chans[W].Launched && !Chans[W].Done) {
          Pfds.push_back({Chans[W].PollFd, POLLIN, 0});
          PfdSlot.push_back(W);
        }
      if (Pfds.empty())
        break;
      // Watch the template too: a warm child's terminal doorbell comes
      // from the template, so its death must be noticed here (see
      // WorkerPool::livenessFd).
      const int LivenessFd = Pool ? Pool->livenessFd() : -1;
      if (LivenessFd >= 0)
        Pfds.push_back({LivenessFd, 0, 0});
      int TimeoutMs = -1;
      if (RealDeadline != 0) {
        const uint64_t Now = nowNs();
        TimeoutMs = Now >= RealDeadline
                        ? 0
                        : static_cast<int>((RealDeadline - Now) / 1000000) +
                              1;
      }
      const uint64_t PollT0 = Sink.events() ? traceNowNs() : 0;
      const int N =
          ::poll(Pfds.data(), static_cast<nfds_t>(Pfds.size()), TimeoutMs);
      if (Sink.events() && N >= 0)
        Sink.event(TraceEventKind::PollWake, /*Worker=*/0, /*Chunk=*/-1,
                   PollT0, traceNowNs() - PollT0,
                   /*Arg0=*/static_cast<uint64_t>(N),
                   /*Arg1=*/static_cast<uint64_t>(Pfds.size()));
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 || (RealDeadline != 0 && nowNs() >= RealDeadline)) {
        // Deadline expired (or poll itself failed) with children still
        // reporting: kill them and drain the EOFs at full speed. Only the
        // deadline path flags the run as timed out.
        if (RealDeadline != 0 && nowNs() >= RealDeadline)
          TimedOut = true;
        for (unsigned W = 0; W != RoundSize; ++W)
          if (Chans[W].Launched && !Chans[W].Done)
            killChunkChild(Pool, W, Chans[W]);
        RealDeadline = 0;
        continue;
      }
      if (LivenessFd >= 0 && (Pfds.back().revents & (POLLERR | POLLHUP)))
        Pool->failTemplate(); // rings the abnormal doorbells polled next
      for (size_t I = 0; I != PfdSlot.size(); ++I) {
        if (!(Pfds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        pumpChunkChannel(Pool, PfdSlot[I], Chans[PfdSlot[I]]);
      }
    }

    // Reap, decode and account every report of the round. Every failure
    // mode lands in FailWhy — nothing here aborts the parent. A chunk that
    // overflowed the access-set cap is the paper's resource Crash: no
    // retry, the same chunk would overflow again.
    std::vector<ChildReport> Reports(RoundSize);
    std::vector<std::string> FailWhy(RoundSize);
    for (unsigned W = 0; W != RoundSize; ++W) {
      if (!Chans[W].Launched)
        FailWhy[W] = "fork/pipe failure";
      else if (Lane.reap(Chans[W], Reports[W], FailWhy[W]) &&
               !Lane.account(Reports[W]))
        Lane.fail(RoundChunks[W],
                  strprintf("worker %u (chunk %lld) exceeded the access-set "
                            "memory cap",
                            W, static_cast<long long>(RoundChunks[W])));
    }

    if (shutdownRequested())
      return Lane.interrupt();
    if (TimedOut)
      return Lane.finish(RunStatus::Timeout,
                         "exceeded the real-time deadline with children "
                         "still executing");
    if (Lane.failed())
      return Lane.finishFailed();

    // Validate and commit in deterministic ascending order. Failed slots
    // participate as automatic validation failures so InOrder semantics
    // hold: nothing younger than a missing chunk may commit in order.
    Detector.resetRound();
    std::vector<TxnCost> Costs(RoundSize);
    bool InOrderBroken = false;
    std::vector<int64_t> Retried;
    for (unsigned W = 0; W != RoundSize; ++W) {
      const int64_t Chunk = RoundChunks[W];
      if (!FailWhy[W].empty()) {
        if (!Lane.chargeFault(Chunk, FailWhy[W]))
          return Lane.finishFailed();
        InOrderBroken |= InOrder;
        Retried.push_back(Chunk);
        continue;
      }
      ChildReport &Rep = Reports[W];
      Costs[W].WorkNs = Rep.WorkNs;
      Costs[W].BytesTouched = Rep.MemTrafficBytes;

      const uint64_t WordsBefore = Detector.wordsChecked();
      const ParentLane::ValidateClock V = Lane.beginValidate();
      // Preserve the short-circuit: a broken in-order prefix fails the
      // chunk without running (and without charging for) a conflict check.
      const bool Failed =
          InOrderBroken || Detector.hasConflict(Rep.Reads, Rep.Writes);
      const uintptr_t Witness =
          InOrderBroken ? 0 : Detector.lastConflictWord();
      Costs[W].CheckWords = Detector.wordsChecked() - WordsBefore;
      Lane.endValidate(Chunk, V, Failed, Witness);
      if (Failed) {
        Lane.retry(Chunk, Witness);
        InOrderBroken |= InOrder;
        Retried.push_back(Chunk);
        continue;
      }
      Costs[W].Committed = true;
      Costs[W].CommitBytes = Rep.Log.dataBytes();
      Detector.recordCommit(Rep.Writes);
      Lane.commit(Rep, Chunk, /*Arena=*/W + 1);
    }
    // Failed chunks retry ahead of younger chunks, preserving program order.
    for (auto It = Retried.rbegin(); It != Retried.rend(); ++It)
      Pending.push_front(*It);

    Stats.SimTimeNs += Config.Costs->roundNs(Costs, P);
    if (Sink.events())
      Sink.event(TraceEventKind::RoundBarrier, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/Stats.NumRounds);
    Lane.sample(0, /*Force=*/false);
  }

  return Lane.finish(RunStatus::Success, std::string());
}
