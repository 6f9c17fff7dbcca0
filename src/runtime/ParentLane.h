//===- runtime/ParentLane.h - Fork engines' commit lane ---------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parent side of ALTER's commit protocol (§4.1), shared by the three
/// fork engines. ForkJoinExecutor runs rounds, PipelineExecutor feeds
/// chunks continuously and StagePipelineExecutor splits each chunk into
/// stages; they differ in WHEN they fork and WHICH commits a report
/// validates against, and in nothing else the parent does. That rest lives
/// here, once:
///
///  - the run's bookkeeping: the RunResult, the TraceSink, the
///    ConflictDetector and the warm WorkerPool, with the retreat to the
///    cold pipe transport when the pool cannot be built;
///  - dispatch: the parent's dispatch kill point, the armed fault of a
///    chunk (looked up in original coordinates through LoopSpec::FaultRemap,
///    with SignalStorm and ForkFail handled in the parent), and the launch
///    of a chunk child with its fork accounting;
///  - reaping a child and decoding its report, classifying crashes and
///    wire rejects and accounting the child's rusage;
///  - adding a decoded report to RunStats, the trace and the metrics;
///  - validation timing and the retry accounting of a failed validation;
///  - the commit sequence: write-ahead journal, the commit kill point,
///    applyCommit (the same function the replicas replay the commit stream
///    with), the commit-stream push, commit metrics, trace and CommitOrder;
///  - the per-chunk fault budget and the run's latched Crash;
///  - the timeline sampler and the finish step, which emits the engine's
///    run_done log line (logRunDone).
///
/// Nothing here is virtual or type-erased: the engines call these members
/// directly on their hot paths.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_PARENTLANE_H
#define ALTER_RUNTIME_PARENTLANE_H

#include "runtime/ConflictDetector.h"
#include "runtime/Executor.h"
#include "runtime/TraceSink.h"
#include "runtime/WorkerPool.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace alter {

/// Which clocks RunStats::SimTimeNs and WorkerSlotNs follow for an engine.
enum class LaneClock : uint8_t {
  /// SimTimeNs is summed by the engine from the cost model, round by
  /// round; worker slots follow the real clock (ForkJoinExecutor).
  Rounds,
  /// Real parallel execution: SimTimeNs is the real clock
  /// (PipelineExecutor).
  Real,
  /// SimTimeNs is the engine's modeled pipeline clock, set before
  /// finish(), and sizes the worker slots too (StagePipelineExecutor).
  Modeled,
};

/// One fork engine run's parent-side state and commit protocol (see the
/// file comment).
class ParentLane {
public:
  /// \p Engine names the engine in the run_done line; \p ChunkFactor and
  /// \p Conflict are the ones the engine runs with (the staged engine
  /// coarsens the chunk factor and always validates under FULL).
  ParentLane(const char *Engine, const LoopSpec &Spec,
             const ExecutorConfig &Config, ScheduleKind Schedule,
             int64_t ChunkFactor, ConflictPolicy Conflict, LaneClock Clock);

  ParentLane(const ParentLane &) = delete;
  ParentLane &operator=(const ParentLane &) = delete;

  RunResult Result;
  RunStats &Stats = Result.Stats;
  TraceSink Sink;
  ConflictDetector Detector;
  /// The warm template and rings; null on the pipe transport, for the
  /// staged engine, and after a failed setup.
  std::unique_ptr<WorkerPool> Pool;
  const int64_t Cf;
  const int64_t NumChunks;

  /// Iteration range [first, last) of \p Chunk.
  int64_t first(int64_t Chunk) const { return Chunk * Cf; }
  int64_t last(int64_t Chunk) const;

  /// Real-clock start of the run.
  uint64_t startNs() const { return StartNs; }

  /// Builds the warm pool when the run uses the ring transport, with a
  /// dispatch queue for resident children when \p Residents. A pool that
  /// cannot be built (ENOMEM/EMFILE) is a contained resource fault: the
  /// run retreats to the cold pipe transport. The run's clock restarts
  /// once the transport is up.
  void startPool(bool Residents);

  /// Dispatch of \p Chunk to worker track \p Worker: passes the parent's
  /// dispatch kill point and takes the chunk's armed fault into \p Fault.
  /// Returns false when the chunk must not run: a SignalStorm latched a
  /// shutdown request (the engine winds down into Interrupted, so the
  /// chunk is not charged), or an injected ForkFail, counted here as a
  /// fork failure that the engine charges to the chunk.
  bool takeFault(int64_t Chunk, uint32_t Worker, ArmedFault &Fault);

  /// takeFault plus the launch of a chunk child into slot \p Slot (warm
  /// from the pool when it is up, else cold, closing \p CloseInChild in
  /// the child), with the fork counters and trace event. False when the
  /// chunk did not launch; see takeFault for telling a shutdown apart.
  bool launch(unsigned Slot, int64_t Chunk,
              const std::vector<int> &CloseInChild, ChunkChannel &Ch);

  /// The launch half of launch(), for a fault already taken: a one-shot
  /// child from \p Via when it is non-null and healthy, else cold with its
  /// arena cursor advanced to \p BumpFloor.
  bool spawn(unsigned Slot, int64_t Chunk, const ArmedFault &Fault,
             const std::vector<int> &CloseInChild, ChunkChannel &Ch,
             WorkerPool *Via, uint64_t BumpFloor);

  /// Traces a resident child in slot \p Slot claiming \p Chunk (its
  /// Fork event; the pool counts the fork or reuse).
  void claimed(unsigned Slot, int64_t Chunk, bool Reuse);

  /// Reaps the child behind a completed channel and decodes its report
  /// into \p Rep. A crash, a failed wait or a rejected frame is counted
  /// and described in \p Why, and returns false.
  bool reap(ChunkChannel &Ch, ChildReport &Rep, std::string &Why);

  /// Decodes one commit frame into \p Rep; a rejected frame is counted as
  /// a wire reject and described in \p Why.
  bool decode(const std::vector<uint8_t> &Frame, ChildReport &Rep,
              std::string &Why);

  /// Waits for \p Pid and accounts its rusage. False when the wait failed.
  bool reapPid(pid_t Pid, int *Status);

  /// Adds a decoded report to RunStats, the trace and the metrics. A
  /// report that tripped the access-set cap records only its set sizes —
  /// the blowup that kills the run must still show — and returns false:
  /// the engine fails the run with Crash.
  bool account(const ChildReport &Rep);

  /// Validation timing: beginValidate passes the parent's validate kill
  /// point; endValidate records the latency and the Validate trace event.
  struct ValidateClock {
    uint64_t TraceNs = 0;
    uint64_t RealNs = 0;
  };
  ValidateClock beginValidate();
  void endValidate(int64_t Chunk, const ValidateClock &Clock, bool Failed,
                   uintptr_t Witness);

  /// Accounts a failed validation of \p Chunk: the retry, its conflict
  /// attribution to \p Witness, and the Retry trace event.
  void retry(int64_t Chunk, uintptr_t Witness);

  /// Commits a validated report of \p Chunk run in arena \p Arena:
  /// write-ahead journal, the commit kill point, applyCommit, the push to
  /// the pool's commit stream, commit metrics and trace, and CommitOrder.
  /// With \p Retire false (the staged engine's replica half) the journal
  /// and CommitOrder are left to retireChunk, once the whole chunk has
  /// committed.
  void commit(ChildReport &Rep, int64_t Chunk, unsigned Arena,
              bool Retire = true);

  /// Journals \p Chunk's commit carrying \p Log, when a journal is
  /// attached, passes the commit kill point and appends to CommitOrder.
  void retireChunk(int64_t Chunk, const WriteLog &Log);

  /// Charges one contained failure to \p Chunk's budget. True when the
  /// chunk may retry (a FaultContained event is traced); false once the
  /// budget is spent, and the run's Crash is latched.
  bool chargeFault(int64_t Chunk, const std::string &Why);
  /// Clears \p Chunk's fault budget (the staged engine, at retirement).
  void clearFaults(int64_t Chunk) { FaultCounts.erase(Chunk); }

  /// Latches the run's Crash, indicting \p Chunk; the first latch wins.
  void fail(int64_t Chunk, std::string Detail);
  bool failed() const { return Failed; }

  /// Timeline sampler: piggybacks on the engines' dispatch points under
  /// the MetricsSampleIntervalNs floor. No threads, and no clock read when
  /// metrics are off.
  void sample(uint64_t Inflight, bool Force);

  /// Ends the run: timing and occupancy, Bloom counters, pool retirement
  /// and template rusage, the forced final sample, the run_done line, and
  /// the trace flush. Every exit path of a fork engine goes through here
  /// exactly once.
  RunResult finish(RunStatus Status, std::string Detail);
  /// finish() with the latched Crash.
  RunResult finishFailed() { return finish(RunStatus::Crash, FailDetail); }
  /// finish() for a shutdown request: the engine has already stopped and
  /// reaped every child.
  RunResult interrupt();

private:
  /// Counts one failed launch of \p Chunk (pipe/fork exhaustion).
  void forkFailed(int64_t Chunk, uint32_t Worker);
  void addUsage(const ChildRusage &Usage);

  const char *Engine;
  const LoopSpec &Spec;
  const ExecutorConfig &Config;
  const LaneClock Clock;
  uint64_t StartNs;
  std::unordered_map<int64_t, unsigned> FaultCounts;
  bool Failed = false;
  std::string FailDetail;
  uint64_t LastSampleNs = 0;
  bool Sampled = false;
};

} // namespace alter

#endif // ALTER_RUNTIME_PARENTLANE_H
