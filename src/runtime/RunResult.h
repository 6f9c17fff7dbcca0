//===- runtime/RunResult.h - Execution outcome and statistics ---*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outcome of executing an annotated loop, plus the per-run statistics
/// that feed Table 4 (transaction count, read/write-set words per
/// transaction, retry rate) and the speedup figures (simulated and real
/// wall-clock time).
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_RUNRESULT_H
#define ALTER_RUNTIME_RUNRESULT_H

#include "support/Metrics.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alter {

/// How a loop execution ended. Crash/Timeout are detected by the executors
/// themselves (resource caps, 10x-sequential deadline) so that the inference
/// engine can classify candidates exactly as §5 describes.
enum class RunStatus {
  Success, ///< ran to completion
  Crash,   ///< resource exhaustion or abnormal termination
  Timeout, ///< exceeded the configured deadline (10x sequential by default)
  /// A shutdown signal (SIGTERM/SIGINT/SIGHUP) arrived mid-run: the
  /// executor stopped dispatching, killed and reaped every live child, and
  /// returned whatever had committed. Unlike Crash/Timeout this is a clean,
  /// operator-requested stop — the recovery ladder must NOT try to finish
  /// the loop.
  Interrupted,
};

/// Returns "success", "crash", "timeout", or "interrupted".
const char *runStatusName(RunStatus Status);

/// Which schedule a loop actually executed under. The planner
/// (RecoveringLoopRunner + CostModel) records its pick here so benches and
/// the --stage CI gate can assert the auto policy chose as expected.
enum class ScheduleKind : uint8_t {
  Unknown,    ///< engine predates the planner or was driven directly
  Sequential, ///< ran on the sequential reference engine
  Chunked,    ///< chunked iteration speculation (fork/lockstep engines)
  Staged,     ///< PS-DSWP stage pipeline (StagePipelineExecutor)
};

/// Returns "unknown", "sequential", "chunked", or "staged".
const char *scheduleKindName(ScheduleKind Kind);

/// The run counters, declared once. Each row is
/// X(Field, Type, Merge, Key, MetricsKey, InRunDone):
///  - Field, Type: the RunStats member (uint64_t, bool or RunningStat);
///  - Merge: how RunStats::merge folds another run's value in: Sum, Max
///    (high-water marks), Or (flags) or Stat (RunningStat::merge);
///  - Key: the row's key in the bench --json record, which carries every
///    row, and in the run_done log line;
///  - MetricsKey: its key in the alter-metrics-v1 report, or nullptr when
///    the report leaves it out (that key set is a committed schema);
///  - InRunDone: whether the run_done log line carries it.
/// A RunningStat row renders as Key_mean and Key_max. Merge, the three
/// emitters and the tests all expand this table, so adding a counter is
/// one row here and nothing else.
#define ALTER_RUN_STATS(X)                                                    \
  /* Transactions that attempted to commit (including retries of the same     \
     chunk; a chunk retried twice counts three attempts). */                  \
  X(NumTransactions, uint64_t, Sum, "transactions", "transactions", false)    \
  /* Attempts that validated and committed. */                                \
  X(NumCommitted, uint64_t, Sum, "committed", "committed", true)              \
  /* Attempts that failed validation and were re-executed. */                 \
  X(NumRetries, uint64_t, Sum, "retries", "retries", true)                    \
  /* Lock-step rounds executed. */                                            \
  X(NumRounds, uint64_t, Sum, "rounds", nullptr, true)                        \
  /* Distributions of read-set and write-set sizes (words) per                \
     transaction. */                                                          \
  X(ReadSetWords, RunningStat, Stat, "read_set_words", nullptr, false)        \
  X(WriteSetWords, RunningStat, Stat, "write_set_words", nullptr, false)      \
  /* Instrumentation calls executed (after the §4.1 optimizations; a range    \
     instrumentation counts once). */                                         \
  X(InstrReadCalls, uint64_t, Sum, "instr_read_calls", nullptr, false)        \
  X(InstrWriteCalls, uint64_t, Sum, "instr_write_calls", nullptr, false)      \
  /* Data movement performed by the loop bodies, for the bandwidth            \
     model. */                                                                \
  X(BytesRead, uint64_t, Sum, "bytes_read", nullptr, false)                   \
  X(BytesWritten, uint64_t, Sum, "bytes_written", nullptr, false)             \
  /* Modeled parallel wall-clock (lock-step cost model; the real clock on     \
     the pipelined fork engine). */                                           \
  X(SimTimeNs, uint64_t, Sum, "sim_time_ns", "sim_time_ns", true)             \
  /* Real host time spent executing. */                                       \
  X(RealTimeNs, uint64_t, Sum, "real_time_ns", "wall_ns", true)               \
                                                                              \
  /* Commit path: Bloom prefilter and compressed wire format. */              \
  /* Set-pair conflict checks submitted to the Bloom prefilter. */            \
  X(BloomChecks, uint64_t, Sum, "bloom_checks", nullptr, false)               \
  /* Checks the prefilter resolved as provably disjoint, skipping the         \
     word-by-word intersection entirely. */                                   \
  X(BloomSkips, uint64_t, Sum, "bloom_skips", nullptr, false)                 \
  /* Checks the prefilter could not resolve but the exact intersection        \
     found empty (false positives of the filter). */                          \
  X(BloomFalsePositives, uint64_t, Sum, "bloom_false_positives", nullptr,     \
    false)                                                                    \
  /* Bytes actually shipped child -> parent over the commit pipes             \
     (compressed access sets + write logs). */                                \
  X(WireBytes, uint64_t, Sum, "wire_bytes", nullptr, false)                   \
  /* Bytes the uncompressed wire format would have shipped for the same       \
     messages; WireBytes / WireBytesRaw is the compression ratio. */          \
  X(WireBytesRaw, uint64_t, Sum, "wire_bytes_raw", nullptr, false)            \
  /* Bytes that actually crossed a kernel pipe for commit transport. On       \
     the Pipe transport this equals WireBytes (the whole message is           \
     copied); on the Ring transport records travel through shared memory      \
     and only the 1-byte doorbells are copied, so this is ~0. */              \
  X(WireBytesCopied, uint64_t, Sum, "wire_bytes_copied", nullptr, false)      \
                                                                              \
  /* Warm worker pool (TransportKind::Ring steady state). */                  \
  /* Children forked from the warm template process (one-shot chunk           \
     children, and resident children of the pipeline engine), plus the        \
     chunks residents ran without a fork (ChildReuses). */                    \
  X(WarmForks, uint64_t, Sum, "warm_forks", "warm_forks", true)               \
  /* Chunks forked cold from the full parent: every fork on the Pipe          \
     transport, plus Ring-transport fallbacks when the pool was               \
     unavailable. */                                                          \
  X(ColdForks, uint64_t, Sum, "cold_forks", "cold_forks", true)               \
  /* Chunks run by a resident child with no fork at all: every chunk a       \
     resident claims after its first (the fork-free steady state; pipeline    \
     engine, Ring transport). Counted inside WarmForks: a reuse is the        \
     warmest possible path. */                                                \
  X(ChildReuses, uint64_t, Sum, "child_reuses", nullptr, true)                \
  /* Times a resident child slept on the dispatch queue's futex: nothing      \
     was open to claim, or it was one chunk ahead of the parent's verdict     \
     on its previous record. */                                               \
  X(ClaimSleeps, uint64_t, Sum, "claim_sleeps", nullptr, false)               \
  /* Times the pipeline engine's parent woke from poll(2) (a batch of         \
     doorbells, a child exit, or a deadline tick). */                         \
  X(PollWakes, uint64_t, Sum, "poll_wakes", nullptr, false)                   \
  /* Template retire/respawn cycles: a template the commit stream had         \
     lapped is replaced by a fresh fork of the parent. */                     \
  X(TemplateRefreshes, uint64_t, Sum, "template_refreshes", nullptr, false)   \
  /* Pool infrastructure faults absorbed without failing any chunk:           \
     template spawn failures, a dead template discovered on use, injected     \
     TemplatePoison hits, and forks that found the template lapped by the     \
     commit stream while it could not yet be replaced. Each degrades the      \
     affected forks to the cold path. */                                      \
  X(PoolFaults, uint64_t, Sum, "pool_faults", nullptr, false)                 \
                                                                              \
  /* Stage pipeline (StagePipelineExecutor). */                               \
  /* Times the stage feed blocked: the sequential stage had a chunk ready     \
     but every replica of the parallel stage was busy (backpressure), or      \
     the retirement frontier starved waiting on one straggling replica. */    \
  X(StageStalled, uint64_t, Sum, "stage_stalled", nullptr, true)              \
  /* Peak number of chunks in flight between the two stages (dispatched       \
     into an inter-stage queue but not yet retired): a high-water mark,       \
     not a count. */                                                          \
  X(QueueDepthPeak, uint64_t, Max, "queue_depth_peak", nullptr, false)        \
                                                                              \
  /* Worker occupancy (straggler accounting). */                              \
  /* Worker-ns spent executing chunk bodies (summed across workers). */       \
  X(WorkerBusyNs, uint64_t, Sum, "worker_busy_ns", "worker_busy_ns", false)   \
  /* Worker-ns of capacity the run had available: NumWorkers x executor       \
     wall-clock, summed across inner-loop invocations. */                     \
  X(WorkerSlotNs, uint64_t, Sum, "worker_slot_ns", "worker_slot_ns", false)   \
                                                                              \
  /* Child CPU accounting (wait4/getrusage at reap time). Separating CPU      \
     time from wall time makes host oversubscription visible: a run whose     \
     children burned 4x its wall clock in CPU really ran 4-wide; one whose    \
     CPU equals its wall clock serialized. */                                 \
  /* User-mode CPU ns summed over reaped children. Warm (template-forked)     \
     children are reaped by the template, so their usage arrives              \
     transitively when the template itself is reaped at pool teardown. */     \
  X(ChildUserNs, uint64_t, Sum, "cpu_user_ns", "cpu_user_ns", true)           \
  /* System-mode CPU ns summed over reaped children. */                       \
  X(ChildSysNs, uint64_t, Sum, "cpu_sys_ns", "cpu_sys_ns", true)              \
  /* Peak resident set across reaped children. */                             \
  X(MaxChildRssBytes, uint64_t, Max, "max_child_rss_bytes",                   \
    "max_child_rss_bytes", false)                                             \
                                                                              \
  /* Fault containment and recovery: speculative failures that did NOT        \
     abort the run. Each was contained to its chunk and retried, or the       \
     whole run completed through the sequential fallback. */                  \
  /* fork()/pipe() attempts that failed; the chunk was requeued. */           \
  X(NumForkFailures, uint64_t, Sum, "fork_failures", nullptr, false)          \
  /* Children that died abnormally (signal or nonzero exit) before            \
     reporting; each crash was contained to its chunk. */                     \
  X(NumChildCrashes, uint64_t, Sum, "child_crashes", nullptr, true)           \
  /* Commit messages rejected by the wire framing (truncation, length         \
     mismatch, CRC failure, or structural decode errors). */                  \
  X(NumWireRejects, uint64_t, Sum, "wire_rejects", nullptr, true)             \
  /* Iterations completed by the full-tail sequential fallback after the      \
     degradation ladder gave up (RecoveringLoopRunner). */                    \
  X(RecoveredIterations, uint64_t, Sum, "recovered_iterations", nullptr,      \
    false)                                                                    \
  /* Chunks (tier 1) or bisection fragments (tier 2) of an indicted chunk     \
     that a solo speculative re-execution committed during salvage. */        \
  X(SalvagedChunks, uint64_t, Sum, "salvaged_chunks", nullptr, false)         \
  /* Iterations the ladder isolated as poisoned and executed sequentially     \
     under quarantine (tier 3). Bounded by the poisoned chunk's size,         \
     never the tail. */                                                       \
  X(QuarantinedIterations, uint64_t, Sum, "quarantined_iterations", nullptr,  \
    false)                                                                    \
  /* Range splits performed while bisecting failing chunks (tier 2). */       \
  X(BisectionRounds, uint64_t, Sum, "bisection_rounds", nullptr, false)       \
  /* Environment resource failures (ring mmap, pipe exhaustion, fork          \
     EAGAIN, dispatch-write failure) demoted to contained per-run outcomes    \
     instead of aborting the process. */                                      \
  X(ResourceFaults, uint64_t, Sum, "resource_faults", nullptr, true)          \
  /* Times a run retreated from the Ring transport to the cold Pipe path      \
     because shared-memory/pipe setup failed (pool construction or a          \
     mid-run pool rebuild). */                                                \
  X(TransportDowngrades, uint64_t, Sum, "transport_downgrades", nullptr,      \
    false)                                                                    \
  /* Times an engine shrank its effective worker count after every launch     \
     attempt in a sweep failed (persistent fork/pipe exhaustion); the last    \
     rung before the ladder's sequential floor. */                            \
  X(ParallelismDowngrades, uint64_t, Sum, "parallelism_downgrades", nullptr,  \
    false)                                                                    \
  /* True when any part of the execution ran sequentially against             \
     committed memory (quarantined iterations or the full-tail fallback):     \
     the run completed, but not entirely speculatively. */                    \
  X(Recovered, bool, Or, "recovered", nullptr, false)                         \
  /* Bytes appended to the commit journal (frame headers + payloads),         \
     zero when no journal is attached. */                                     \
  X(JournalBytes, uint64_t, Sum, "journal_bytes", "journal_bytes", false)     \
  /* fdatasync(2) calls the journal's durability policy issued. */            \
  X(JournalFsyncs, uint64_t, Sum, "journal_fsyncs", "journal_fsyncs", false)  \
  /* Chunk/range frames replayed from a recovered journal by re-executing     \
     their iterations against rebuilt initial state (restart recovery). */    \
  X(ReplayedChunks, uint64_t, Sum, "replayed_chunks", "replayed_chunks",      \
    false)                                                                    \
  /* Wall time spent replaying the journal's committed prefix on              \
     restart. */                                                              \
  X(RecoveryNs, uint64_t, Sum, "recovery_ns", "recovery_ns", false)

/// How RunStats::render lays a row out, and which rows it picks (see
/// ALTER_RUN_STATS).
enum class StatsEmitter : uint8_t {
  Bench,   ///< `"key": value`, every row (bench --json records)
  Metrics, ///< `"key": value`, rows with a MetricsKey (alter-metrics-v1)
  RunDone, ///< `key=value`, rows marked InRunDone (the run_done log line)
};

/// Statistics accumulated over one or more loop executions.
struct RunStats {
#define ALTER_DECLARE_RUN_STAT(Field, Type, ...) Type Field{};
  ALTER_RUN_STATS(ALTER_DECLARE_RUN_STAT)
#undef ALTER_DECLARE_RUN_STAT

  /// Fraction of worker capacity spent executing bodies. The round-barrier
  /// engine loses occupancy to stragglers (every slot idles until the
  /// slowest chunk of the round finishes); the pipelined engine refills
  /// slots the moment they free.
  double occupancy() const {
    if (WorkerSlotNs == 0)
      return 0.0;
    return static_cast<double>(WorkerBusyNs) /
           static_cast<double>(WorkerSlotNs);
  }

  /// Worker-ns of idle capacity (slots waiting on stragglers, forks, and
  /// commits) while the executor ran.
  uint64_t stragglerStallNs() const {
    return WorkerSlotNs > WorkerBusyNs ? WorkerSlotNs - WorkerBusyNs : 0;
  }

  /// Fraction of Bloom-prefiltered checks that were false positives.
  double bloomFalsePositiveRate() const {
    if (BloomChecks == 0)
      return 0.0;
    return static_cast<double>(BloomFalsePositives) /
           static_cast<double>(BloomChecks);
  }

  /// Wire compression ratio (compressed / raw); 1.0 when nothing shipped.
  double wireCompressionRatio() const {
    if (WireBytesRaw == 0)
      return 1.0;
    return static_cast<double>(WireBytes) /
           static_cast<double>(WireBytesRaw);
  }

  /// Fraction of chunk forks served by the warm template (1.0 when every
  /// chunk took the fast path; 0.0 on the Pipe transport).
  double warmForkRate() const {
    const uint64_t Total = WarmForks + ColdForks;
    if (Total == 0)
      return 0.0;
    return static_cast<double>(WarmForks) / static_cast<double>(Total);
  }

  /// Fraction of commit attempts that failed (the paper flags > 50% as
  /// "high conflicts").
  double retryRate() const {
    if (NumTransactions == 0)
      return 0.0;
    return static_cast<double>(NumRetries) /
           static_cast<double>(NumTransactions);
  }

  /// CPU ns the reaped children burned, user plus system.
  uint64_t childCpuNs() const { return ChildUserNs + ChildSysNs; }

  /// Child CPU time over the run's wall clock: ~NumWorkers when the
  /// children really ran in parallel, ~1 when they serialized.
  double cpuVsWall() const {
    if (RealTimeNs == 0)
      return 0.0;
    return static_cast<double>(childCpuNs()) /
           static_cast<double>(RealTimeNs);
  }

  /// Accumulates \p Other into this (used across outer-loop invocations),
  /// each row by its ALTER_RUN_STATS merge rule.
  void merge(const RunStats &Other);

  /// The rows \p Emitter carries, in table order, each preceded by \p Sep.
  std::string render(StatsEmitter Emitter, const char *Sep) const;
};

/// Aborts attributed to one 512-byte granule: how many commit attempts a
/// granule's data made fail validation, plus the first conflicting word the
/// validator witnessed there (resolvable to an allocation-site label via
/// traceLabelForWordKey). The direct input the adaptive-chunk-factor work
/// needs: it names WHICH datum makes an annotation misspeculate.
struct GranuleAbortStat {
  uintptr_t GranuleKey = 0;     ///< word key >> BloomSummary::GranuleShift
  uintptr_t WitnessWordKey = 0; ///< first witness word seen in the granule
  uint64_t Aborts = 0;
};

/// One snapshot of the live runtime state, taken by the parent-side
/// timeline sampler at existing dispatch points (poll wakeups, round
/// barriers) — no threads, and deterministic under the seeded trace clock.
/// The counter fields are cumulative (the run's totals at sample time);
/// rates fall out of adjacent-sample deltas. BusyNs/SlotNs derive from the
/// real host clock and are excluded from determinism comparisons.
struct TimelineSample {
  uint64_t TimeNs = 0;         ///< trace-clock timestamp
  uint64_t Committed = 0;      ///< cumulative committed chunks
  uint64_t Retries = 0;        ///< cumulative validation retries
  uint64_t WarmForks = 0;      ///< cumulative warm (template) forks
  uint64_t ColdForks = 0;      ///< cumulative cold forks
  uint64_t InflightChunks = 0; ///< chunks executing right now
  uint64_t RingDepthBytes = 0; ///< commit-ring backlog right now
  uint64_t BusyNs = 0;         ///< cumulative WorkerBusyNs (real time)
  uint64_t SlotNs = 0;         ///< capacity so far: wall-so-far x workers
};

/// The post-run critical-path attribution: 100% of executor wall clock
/// split across the phases the runtime can stall in. Derived from the
/// merged TraceEvents plus the child-side ring-backpressure histogram;
/// OtherNs absorbs the un-witnessed remainder, and if raw attribution
/// overshoots the wall (overlapping windows under the ladder), every phase
/// is scaled down proportionally so the breakdown still sums to the wall.
struct RunProfile {
  uint64_t WallNs = 0;            ///< executor wall clock (RealTimeNs)
  uint64_t DispatchStallNs = 0;   ///< parent polled with nothing in flight
  uint64_t ChildExecNs = 0;       ///< parent polled while children executed
  uint64_t ValidationNs = 0;      ///< serialized conflict checks
  uint64_t CommitLaneNs = 0;      ///< log apply + reductions + pool push
  uint64_t RingBackpressureNs = 0;///< children blocked on full commit rings
  uint64_t LadderNs = 0;          ///< recovery-ladder tiers (salvage,
                                  ///< bisect, quarantine, full tail)
  uint64_t OtherNs = 0;           ///< wall clock no event witnessed
  /// Sum of child ChunkExec event durations, reconciled against the
  /// independently measured RunStats::WorkerBusyNs (WorkNs in each commit
  /// header): busyReconciliation() ~ 1.0 when the trace is trustworthy.
  uint64_t ChunkExecDurNs = 0;
  uint64_t WorkerBusyNs = 0;

  uint64_t attributedNs() const {
    return DispatchStallNs + ChildExecNs + ValidationNs + CommitLaneNs +
           RingBackpressureNs + LadderNs + OtherNs;
  }
  /// Percentage of the wall clock the phases account for (100 +- rounding
  /// by construction; the check.sh --metrics gate asserts 99..101).
  double coveragePct() const {
    return WallNs == 0 ? 0.0
                       : 100.0 * static_cast<double>(attributedNs()) /
                             static_cast<double>(WallNs);
  }
  double busyReconciliation() const {
    return WorkerBusyNs == 0 ? 0.0
                             : static_cast<double>(ChunkExecDurNs) /
                                   static_cast<double>(WorkerBusyNs);
  }
};

/// Outcome of one loop execution (or of an outer loop's worth of them).
struct RunResult {
  RunStatus Status = RunStatus::Success;
  RunStats Stats;
  /// Optional human-readable detail for failures.
  std::string Detail;
  /// Chunk factor the engine actually ran with (params or global default).
  /// The recovery layer needs it to map committed chunk indices back to
  /// iteration ranges; 0 for engines that do not chunk (sequential).
  int64_t ChunkFactorUsed = 0;
  /// The chunk the engine indicts for a Crash (fault-budget exhaustion or
  /// the access-set cap); -1 when the failure has no single culpable chunk
  /// (timeouts, poll failures, successful runs). The degradation ladder
  /// starts its salvage at this chunk.
  int64_t FailedChunk = -1;
  /// Schedule the loop actually ran under (the planner's pick, or the
  /// forced policy). Unknown when the result came from an engine driven
  /// outside the schedule-aware runner.
  ScheduleKind ScheduleUsed = ScheduleKind::Unknown;
  /// Chunk indices in the order they committed. Under OutOfOrder policies a
  /// parallel execution is equivalent to replaying chunks serially in this
  /// order (conflict serializability); tests exploit that. Only the most
  /// recent inner-loop invocation's order is kept when results accumulate.
  std::vector<int64_t> CommitOrder;

  //===--------------------------------------------------------------------===
  // Telemetry (populated by TraceSink when ExecutorConfig::Trace is on)
  //===--------------------------------------------------------------------===

  /// Merged per-run timeline: parent-side events plus the child-side events
  /// shipped in each commit message's TRACE section. Empty below
  /// TraceLevel::Events.
  std::vector<TraceEvent> TraceEvents;
  /// Events that hit the bounded buffers and were counted instead of kept.
  uint64_t TraceEventsDropped = 0;
  /// Conflict attribution, sorted ascending by GranuleKey. Populated from
  /// TraceLevel::Counters.
  std::vector<GranuleAbortStat> GranuleAborts;
  /// Aborts with no single witness word (e.g. InOrder commit-order breakage
  /// cascades).
  uint64_t UnattributedAborts = 0;

  //===--------------------------------------------------------------------===
  // Metrics (populated when ExecutorConfig::Metrics is on)
  //===--------------------------------------------------------------------===

  /// Merged metrics: child registries shipped in METRICS wire sections plus
  /// the parent's own validate/commit latencies and high-water gauges.
  MetricsRegistry Metrics;
  /// Periodic runtime snapshots from the parent-side timeline sampler,
  /// ordered by TimeNs. Exported as Perfetto counter tracks by
  /// writeChromeTrace. Empty when metrics are off.
  std::vector<TimelineSample> Timeline;

  /// Accumulates \p Other's telemetry into this (the trace-side companion
  /// of Stats.merge, used across outer-loop invocations).
  void mergeTrace(const RunResult &Other);

  /// Writes the timeline as Chrome trace_event JSON (Perfetto-loadable, one
  /// track per worker slot). Returns false with \p Error set on I/O errors.
  bool writeChromeTrace(const std::string &Path,
                        std::string *Error = nullptr) const;

  /// Human-readable telemetry report: event counts per kind plus the top-N
  /// granules ranked by aborts caused, with allocation-site labels.
  std::string traceSummary(size_t TopN = 5) const;

  /// Attributes the executor wall clock to phases from the merged
  /// TraceEvents (requires TraceLevel::Events) and the metrics registry.
  RunProfile computeProfile() const;

  /// Human-readable phase table for --profile: one row per phase with ns,
  /// ms, and percent-of-wall columns, plus the WorkerBusyNs reconciliation
  /// line.
  std::string profileTable() const;

  /// Writes the stable machine-readable metrics report ("alter-metrics-v1"
  /// schema): run stats, CPU accounting, the phase profile, and every
  /// counter/gauge/histogram (all ids present even when empty, so the key
  /// set is schema-stable). Returns false with \p Error set on I/O errors.
  bool writeMetricsJson(const std::string &Path,
                        std::string *Error = nullptr) const;

  bool succeeded() const { return Status == RunStatus::Success; }
};

/// Emits the one run_done Info log line of an engine run: the
/// engine, schedule, status and occupancy, then the table rows marked
/// InRunDone. Every engine's exit paths call it, so the key set is one.
void logRunDone(const char *Engine, const RunResult &Result);

} // namespace alter

#endif // ALTER_RUNTIME_RUNRESULT_H
