//===- runtime/LockstepExecutor.cpp ---------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/LockstepExecutor.h"

#include "runtime/ConflictDetector.h"
#include "runtime/TraceSink.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <vector>

using namespace alter;

LockstepExecutor::LockstepExecutor(ExecutorConfig Config)
    : Config(std::move(Config)) {
  assert(this->Config.NumWorkers >= 1 && "need at least one worker");
  if (!this->Config.Costs)
    this->Config.Costs = &CostModel::calibrated();
}

RunResult LockstepExecutor::run(const LoopSpec &Spec) {
  assert(Spec.Body && "loop has no body");
  RunResult Result;
  Result.ScheduleUsed = ScheduleKind::Chunked;
  const int64_t Cf = Config.Params.ChunkFactor > 0
                         ? Config.Params.ChunkFactor
                         : globalChunkFactor();
  Result.ChunkFactorUsed = Cf;
  const int64_t NumChunks = (Spec.NumIterations + Cf - 1) / Cf;
  const unsigned P = Config.NumWorkers;

  // Pending chunks in ascending program order. Retried chunks re-enter in
  // order, so the front of the queue is always the oldest pending chunk —
  // required for InOrder progress and for determinism.
  std::deque<int64_t> Pending;
  for (int64_t C = 0; C != NumChunks; ++C)
    Pending.push_back(C);

  // One context per worker, reused across rounds (beginTxn resets state).
  std::vector<std::unique_ptr<TxnContext>> Contexts;
  Contexts.reserve(P);
  for (unsigned W = 0; W != P; ++W)
    Contexts.push_back(std::make_unique<TxnContext>(
        ContextMode::Transactional, &Config.Params, &Spec, Config.Allocator,
        /*Worker=*/W + 1, Config.Limits));

  ConflictDetector Detector(Config.Params.Conflict);
  TraceSink Sink(Config.Trace);
  const uint64_t RealStart = nowNs();
  const auto Finish = [&]() -> RunResult {
    Result.Stats.RealTimeNs = nowNs() - RealStart;
    logRunDone("lockstep", Result);
    Sink.finish(Result);
    return std::move(Result);
  };
  const uint64_t DeadlineSimNs =
      Config.SeqBaselineNs == 0
          ? 0
          : static_cast<uint64_t>(Config.TimeoutFactor *
                                  static_cast<double>(Config.SeqBaselineNs));

  while (!Pending.empty()) {
    ++Result.Stats.NumRounds;
    // Step 2a: workers pick up the next chunks in program order.
    const unsigned RoundSize =
        static_cast<unsigned>(std::min<int64_t>(P, Pending.size()));
    std::vector<int64_t> RoundChunks(Pending.begin(),
                                     Pending.begin() + RoundSize);
    Pending.erase(Pending.begin(), Pending.begin() + RoundSize);

    // Step 2b: execute in isolation, tracking read/write sets.
    std::vector<TxnCost> Costs(RoundSize);
    for (unsigned W = 0; W != RoundSize; ++W) {
      TxnContext &Ctx = *Contexts[W];
      Ctx.beginTxn();
      const int64_t First = RoundChunks[W] * Cf;
      const int64_t Last =
          std::min<int64_t>(First + Cf, Spec.NumIterations);
      const uint64_t TraceT0 = Sink.events() ? traceNowNs() : 0;
      const uint64_t T0 = nowNs();
      for (int64_t I = First; I != Last; ++I)
        Spec.Body(Ctx, I);
      // Unwind the direct writes so the next round-mate sees the committed
      // snapshot (the paper's per-process isolation, step 2b).
      Ctx.suspendTxn();
      Costs[W].WorkNs = nowNs() - T0;
      Result.Stats.WorkerBusyNs += Costs[W].WorkNs;
      Costs[W].BytesTouched = Ctx.memTrafficBytes();
      if (Sink.events())
        Sink.event(TraceEventKind::ChunkExec, /*Worker=*/W + 1,
                   RoundChunks[W], TraceT0, traceNowNs() - TraceT0,
                   /*Arg0=*/Ctx.readSet().sizeWords(),
                   /*Arg1=*/Ctx.writeSet().sizeWords());
      if (Ctx.limitExceeded()) {
        Result.Status = RunStatus::Crash;
        Result.Detail = strprintf(
            "transaction for chunk %lld exceeded the access-set memory cap",
            static_cast<long long>(RoundChunks[W]));
        return Finish();
      }
    }

    // Step 2c: validate and commit one after another in deterministic
    // (ascending program) order.
    Detector.resetRound();
    const uint64_t CheckWordsBase = Detector.wordsChecked();
    bool InOrderBroken = false;
    for (unsigned W = 0; W != RoundSize; ++W) {
      TxnContext &Ctx = *Contexts[W];
      ++Result.Stats.NumTransactions;
      Result.Stats.ReadSetWords.add(
          static_cast<double>(Ctx.readSet().sizeWords()));
      Result.Stats.WriteSetWords.add(
          static_cast<double>(Ctx.writeSet().sizeWords()));
      Result.Stats.InstrReadCalls += Ctx.instrReadCalls();
      Result.Stats.InstrWriteCalls += Ctx.instrWriteCalls();
      Result.Stats.BytesRead += Ctx.bytesRead();
      Result.Stats.BytesWritten += Ctx.bytesWritten();

      const uint64_t WordsBefore = Detector.wordsChecked();
      const uint64_t ValT0 = Sink.events() ? traceNowNs() : 0;
      // Preserve the short-circuit: a broken in-order prefix fails the
      // chunk without running a conflict check.
      bool Failed = InOrderBroken;
      if (!Failed)
        Failed = Detector.hasConflict(Ctx.readSet(), Ctx.writeSet());
      const uintptr_t Witness =
          InOrderBroken ? 0 : Detector.lastConflictWord();
      Costs[W].CheckWords = Detector.wordsChecked() - WordsBefore;
      if (Sink.events())
        Sink.event(TraceEventKind::Validate, /*Worker=*/0, RoundChunks[W],
                   ValT0, traceNowNs() - ValT0, /*Arg0=*/Failed ? 1 : 0,
                   /*Arg1=*/Witness);
      if (Failed) {
        ++Result.Stats.NumRetries;
        if (Sink.counters())
          Sink.conflict(RoundChunks[W], Witness);
        if (Sink.events())
          Sink.event(TraceEventKind::Retry, /*Worker=*/0, RoundChunks[W],
                     traceNowNs());
        Ctx.abortTxn();
        if (Config.Params.CommitOrder == CommitOrderPolicy::InOrder)
          InOrderBroken = true;
        // Re-queue in program order: retried chunks precede younger ones.
        Pending.push_front(RoundChunks[W]);
        continue;
      }
      ++Result.Stats.NumCommitted;
      Costs[W].Committed = true;
      Costs[W].CommitBytes = Ctx.writeLog().dataBytes();
      Detector.recordCommit(Ctx.writeSet());
      Ctx.commitTxn();
      Result.CommitOrder.push_back(RoundChunks[W]);
      if (Sink.events())
        Sink.event(TraceEventKind::Commit, /*Worker=*/0, RoundChunks[W],
                   traceNowNs(), 0,
                   /*Arg0=*/Ctx.writeLog().dataBytes());
    }
    (void)CheckWordsBase;
    // Failed chunks were pushed to the front in ascending order of W, which
    // reverses them; restore ascending order.
    {
      unsigned Retried = 0;
      for (unsigned W = 0; W != RoundSize; ++W)
        if (!Costs[W].Committed)
          ++Retried;
      if (Retried > 1)
        std::reverse(Pending.begin(), Pending.begin() + Retried);
    }

    // Step 2d: advance the modeled parallel clock past the barrier. Each of
    // the P workers owns the whole modeled round, busy or not, so the round
    // books P x its length as slot time (occupancy = busy / slot).
    const uint64_t RoundNs = Config.Costs->roundNs(Costs, P);
    Result.Stats.SimTimeNs += RoundNs;
    Result.Stats.WorkerSlotNs += RoundNs * P;
    if (Sink.events())
      Sink.event(TraceEventKind::RoundBarrier, /*Worker=*/0, /*Chunk=*/-1,
                 traceNowNs(), 0, /*Arg0=*/Result.Stats.NumRounds);

    if (DeadlineSimNs != 0 &&
        AccumulatedSimNs + Result.Stats.SimTimeNs > DeadlineSimNs) {
      Result.Status = RunStatus::Timeout;
      Result.Detail = "modeled execution time exceeded the 10x-sequential "
                      "deadline";
      return Finish();
    }
  }

  return Finish();
}
