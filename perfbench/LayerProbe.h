//===- perfbench/LayerProbe.h - Per-layer measurement runners ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LoopRunners the traced run puts between a workload and the runtime.
///
/// LayerProbe decorates the real (RecoveringLoopRunner) runner: it opens a
/// span around every runInner, reads the public RunResult before and after
/// the forwarded call to attribute RunStats deltas to the invocation, and,
/// for the first few invocations of a sample, replays a handful of the
/// invocation's chunks in-process under a Transactional TxnContext with
/// the run's params — body, suspendTxn, encodeCommitFrame,
/// decodeChildReport and ConflictDetector::hasConflict against the chunks
/// replayed before it — then abortTxn, so memory and the allocator are as
/// they were before the real runner sees the loop.
///
/// ChunkClockRunner is the sequential counterpart: it executes the loop
/// itself through a Passthrough context, exactly as SequentialExecutor
/// does, and times the same chunks the replay picks, which is the base of
/// runtime.txn.inflation.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_PERFBENCH_LAYERPROBE_H
#define ALTER_PERFBENCH_LAYERPROBE_H

#include "Spans.h"

#include "runtime/LoopRunner.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Invocations of one sample whose chunks are replayed / chunk-timed.
constexpr unsigned ReplayInvocations = 3;
/// Chunks replayed per such invocation, spread evenly over the loop.
constexpr unsigned ReplayChunks = 8;

/// The chunk indices replayed for a loop of \p NumIterations at chunk
/// factor \p Cf: every chunk when there are at most ReplayChunks, else
/// ReplayChunks evenly spaced ones, ascending.
std::vector<int64_t> pickReplayChunks(int64_t NumIterations, int64_t Cf);

/// RunStats deltas of one forwarded runInner call.
struct InvocationRecord {
  int64_t Sample = 0;
  int64_t Invocation = 0;
  int64_t Iterations = 0;
  uint64_t RunInnerNs = 0;   ///< decorator span, replay included
  uint64_t InvocationNs = 0; ///< the forwarded call alone
  alter::ScheduleKind Schedule = alter::ScheduleKind::Unknown;
  bool Recovered = false;
  uint64_t Transactions = 0;
  uint64_t Committed = 0;
  uint64_t Retries = 0;
  uint64_t BusyNs = 0;
  uint64_t SlotNs = 0;
  uint64_t WarmForks = 0;
  uint64_t ColdForks = 0;
  uint64_t ChildReuses = 0;
  uint64_t WireBytes = 0;
  uint64_t WireBytesRaw = 0;
  uint64_t StageStalled = 0;
  /// High-water mark over the sample so far (RunStats merges it by max).
  uint64_t QueueDepthPeak = 0;
};

/// One replayed chunk.
struct ReplayRecord {
  int64_t Sample = 0;
  int64_t Invocation = 0;
  int64_t Chunk = 0;
  int64_t Iterations = 0;
  uint64_t BodyNs = 0;
  uint64_t SuspendNs = 0;
  uint64_t EncodeNs = 0;
  uint64_t DecodeNs = 0;
  uint64_t CheckNs = 0;
  uint64_t AbortNs = 0;
  uint64_t InstrCalls = 0;
  uint64_t ReadWords = 0;
  uint64_t WriteWords = 0;
  uint64_t LogBytes = 0;
  uint64_t FrameBytes = 0;
  uint64_t BloomChecks = 0;
  uint64_t BloomSkips = 0;
  bool Conflict = false;
  /// The decoded report matched the context it was encoded from.
  bool RoundTripOk = true;
};

/// One sequentially executed chunk at a replayed position.
struct SeqChunkRecord {
  int64_t Sample = 0;
  int64_t Invocation = 0;
  int64_t Chunk = 0;
  int64_t Iterations = 0;
  uint64_t Ns = 0;
};

class LayerProbe : public alter::LoopRunner {
public:
  /// Forwards to \p Inner, whose accumulated result this runner mirrors.
  /// \p Config is the configuration \p Inner was built with; \p Replay
  /// enables the in-process replay for this sample.
  LayerProbe(alter::LoopRunner &Inner, const alter::ExecutorConfig &Config,
             SpanRecorder &Spans, int64_t Sample, bool Replay,
             std::vector<InvocationRecord> &Invocations,
             std::vector<ReplayRecord> &Replays);

  bool runInner(const alter::LoopSpec &Spec) override;

private:
  void replay(const alter::LoopSpec &Spec);

  alter::LoopRunner &Inner;
  const alter::ExecutorConfig &Config;
  SpanRecorder &Spans;
  int64_t Sample;
  bool Replay;
  int64_t Invocation = 0;
  std::vector<InvocationRecord> &Invocations;
  std::vector<ReplayRecord> &Replays;
};

class ChunkClockRunner : public alter::LoopRunner {
public:
  /// \p Cf must be the chunk factor the replay uses.
  ChunkClockRunner(alter::AlterAllocator *Allocator, int64_t Cf,
                   SpanRecorder &Spans, int64_t Sample,
                   std::vector<SeqChunkRecord> &Chunks);

  bool runInner(const alter::LoopSpec &Spec) override;

private:
  alter::AlterAllocator *Allocator;
  int64_t Cf;
  SpanRecorder &Spans;
  int64_t Sample;
  int64_t Invocation = 0;
  std::vector<SeqChunkRecord> &Chunks;
};

} // namespace perfbench

#endif // ALTER_PERFBENCH_LAYERPROBE_H
