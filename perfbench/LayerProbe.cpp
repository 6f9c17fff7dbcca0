//===- perfbench/LayerProbe.cpp -------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "LayerProbe.h"

#include "runtime/ConflictDetector.h"
#include "runtime/TxnContext.h"
#include "runtime/TxnWire.h"

#include <algorithm>

using namespace alter;
using namespace perfbench;

std::vector<int64_t> perfbench::pickReplayChunks(int64_t NumIterations,
                                                 int64_t Cf) {
  std::vector<int64_t> Chunks;
  if (NumIterations <= 0 || Cf <= 0)
    return Chunks;
  const int64_t NumChunks = (NumIterations + Cf - 1) / Cf;
  const int64_t K = std::min<int64_t>(NumChunks, ReplayChunks);
  for (int64_t J = 0; J != K; ++J)
    Chunks.push_back(J * NumChunks / K);
  return Chunks;
}

namespace {

int64_t resolvedChunkFactor(const ExecutorConfig &Config) {
  return Config.Params.ChunkFactor > 0 ? Config.Params.ChunkFactor
                                       : globalChunkFactor();
}

uint64_t recoveryWork(const RunStats &S) {
  return S.RecoveredIterations + S.QuarantinedIterations + S.SalvagedChunks;
}

} // namespace

LayerProbe::LayerProbe(LoopRunner &Inner, const ExecutorConfig &Config,
                       SpanRecorder &Spans, int64_t Sample, bool Replay,
                       std::vector<InvocationRecord> &Invocations,
                       std::vector<ReplayRecord> &Replays)
    : Inner(Inner), Config(Config), Spans(Spans), Sample(Sample),
      Replay(Replay), Invocations(Invocations), Replays(Replays) {}

bool LayerProbe::runInner(const LoopSpec &Spec) {
  ScopedSpan Outer(Spans, "runtime.runner.run_inner", Invocation);
  if (Replay && Invocation < ReplayInvocations)
    replay(Spec);

  const RunStats Before = Inner.result().Stats;
  ScopedSpan Forward(Spans, "runtime.runner.invocation", Invocation);
  const bool Ok = Inner.runInner(Spec);
  const uint64_t InvocationNs = Forward.close();
  const RunResult &After = Inner.result();
  const RunStats &A = After.Stats;

  InvocationRecord R;
  R.Sample = Sample;
  R.Invocation = Invocation;
  R.Iterations = Spec.NumIterations;
  R.InvocationNs = InvocationNs;
  R.Schedule = After.ScheduleUsed;
  R.Recovered = recoveryWork(A) != recoveryWork(Before) ||
                (A.Recovered && !Before.Recovered);
  R.Transactions = A.NumTransactions - Before.NumTransactions;
  R.Committed = A.NumCommitted - Before.NumCommitted;
  R.Retries = A.NumRetries - Before.NumRetries;
  R.BusyNs = A.WorkerBusyNs - Before.WorkerBusyNs;
  R.SlotNs = A.WorkerSlotNs - Before.WorkerSlotNs;
  R.WarmForks = A.WarmForks - Before.WarmForks;
  R.ColdForks = A.ColdForks - Before.ColdForks;
  R.ChildReuses = A.ChildReuses - Before.ChildReuses;
  R.WireBytes = A.WireBytes - Before.WireBytes;
  R.WireBytesRaw = A.WireBytesRaw - Before.WireBytesRaw;
  R.StageStalled = A.StageStalled - Before.StageStalled;
  R.QueueDepthPeak = A.QueueDepthPeak;
  R.RunInnerNs = Outer.close();
  Invocations.push_back(R);

  Accumulated = After;
  ++Invocation;
  return Ok;
}

void LayerProbe::replay(const LoopSpec &Spec) {
  const int64_t Cf = resolvedChunkFactor(Config);
  // The frame is encoded as a child would, minus the optional TRACE events
  // and METRICS section the measured runs do not ship either.
  ExecutorConfig WireConfig = Config;
  WireConfig.Trace = TraceLevel::Off;
  WireConfig.Metrics = false;
  TraceBuffer NoTrace(TraceLevel::Off);
  // Worker 1 is the first speculative arena (0 is the sequential one), as
  // in the in-process lock-step engine.
  constexpr unsigned Worker = 1;
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, Worker, Config.Limits);
  ConflictDetector Detector(Config.Params.Conflict);

  for (const int64_t Chunk : pickReplayChunks(Spec.NumIterations, Cf)) {
    const int64_t First = Chunk * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, Spec.NumIterations);
    ReplayRecord R;
    R.Sample = Sample;
    R.Invocation = Invocation;
    R.Chunk = Chunk;
    R.Iterations = Last - First;
    ScopedSpan Step(Spans, "replay.chunk", Chunk);

    Ctx.beginTxn();
    {
      ScopedSpan S(Spans, "replay.body", R.Iterations);
      for (int64_t I = First; I != Last; ++I)
        Spec.Body(Ctx, I);
      R.BodyNs = S.close();
    }
    {
      ScopedSpan S(Spans, "replay.suspend");
      Ctx.suspendTxn();
      R.SuspendNs = S.close();
    }
    R.InstrCalls = Ctx.instrReadCalls() + Ctx.instrWriteCalls();
    R.ReadWords = Ctx.readSet().sizeWords();
    R.WriteWords = Ctx.writeSet().sizeWords();
    R.LogBytes = Ctx.writeLog().dataBytes();

    std::vector<uint8_t> Frame;
    {
      ScopedSpan S(Spans, "replay.encode");
      Frame = encodeCommitFrame(Ctx, WireConfig, Worker, Chunk, R.BodyNs,
                                NoTrace);
      R.EncodeNs = S.close();
    }
    R.FrameBytes = Frame.size();

    ChildReport Report;
    std::string Error;
    bool Decoded = false;
    {
      ScopedSpan S(Spans, "replay.decode");
      Decoded = decodeChildReport(Frame, Spec, Config.Params, Report, Error);
      R.DecodeNs = S.close();
    }
    R.RoundTripOk = Decoded &&
                    Report.Reads.sizeWords() == R.ReadWords &&
                    Report.Writes.sizeWords() == R.WriteWords &&
                    Report.Log.numEntries() == Ctx.writeLog().numEntries();

    const uint64_t ChecksBefore = Detector.bloomChecks();
    const uint64_t SkipsBefore = Detector.bloomSkips();
    {
      ScopedSpan S(Spans, "replay.check");
      R.Conflict = Detector.hasConflict(Report.Reads, Report.Writes);
      R.CheckNs = S.close();
    }
    R.BloomChecks = Detector.bloomChecks() - ChecksBefore;
    R.BloomSkips = Detector.bloomSkips() - SkipsBefore;
    // Later replayed chunks validate against this one as if it committed.
    Detector.recordCommit(Report.Writes);

    {
      ScopedSpan S(Spans, "replay.abort");
      Ctx.abortTxn();
      R.AbortNs = S.close();
    }
    Replays.push_back(R);
  }
}

ChunkClockRunner::ChunkClockRunner(AlterAllocator *Allocator, int64_t Cf,
                                   SpanRecorder &Spans, int64_t Sample,
                                   std::vector<SeqChunkRecord> &Chunks)
    : Allocator(Allocator), Cf(Cf), Spans(Spans), Sample(Sample),
      Chunks(Chunks) {}

bool ChunkClockRunner::runInner(const LoopSpec &Spec) {
  ScopedSpan Outer(Spans, "seq.run_inner", Invocation);
  TxnContext Ctx(ContextMode::Passthrough, /*Params=*/nullptr, &Spec,
                 Allocator, /*Worker=*/0);
  std::vector<int64_t> Timed;
  if (Invocation < ReplayInvocations)
    Timed = pickReplayChunks(Spec.NumIterations, Cf);
  int64_t I = 0;
  for (const int64_t Chunk : Timed) {
    const int64_t First = Chunk * Cf;
    const int64_t Last = std::min<int64_t>(First + Cf, Spec.NumIterations);
    for (; I != First; ++I)
      Spec.Body(Ctx, I);
    ScopedSpan S(Spans, "seq.chunk", Last - First);
    for (; I != Last; ++I)
      Spec.Body(Ctx, I);
    SeqChunkRecord R;
    R.Sample = Sample;
    R.Invocation = Invocation;
    R.Chunk = Chunk;
    R.Iterations = Last - First;
    R.Ns = S.close();
    Chunks.push_back(R);
  }
  for (; I != Spec.NumIterations; ++I)
    Spec.Body(Ctx, I);
  ++Invocation;
  return true;
}
