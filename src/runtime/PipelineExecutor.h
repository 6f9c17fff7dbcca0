//===- runtime/PipelineExecutor.h - Event-driven pipelined engine -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipelined successor to ForkJoinExecutor's round barrier: the
/// parent keeps NumWorkers children busy continuously. The moment any
/// child's commit message arrives, the parent validates it and commits or
/// requeues it — no worker ever idles behind a straggler chunk of its
/// "round", because there are no rounds. On the ring transport each slot
/// holds a resident child that claims its next chunk itself from the
/// pool's dispatch queue, which the parent keeps published in pending
/// order (see WorkerPool.h); on the pipe transport, or for a slot whose
/// resident cannot be forked, the parent forks a cold child per chunk.
///
/// Semantics (relative to §4.2/§4.3 and Theorems 4.1-4.4):
///
///  - Each child starts on the commits applied before it runs: a cold
///    child is forked from the parent, a resident replays the pool's
///    commit stream through the commit count it reads right after claiming
///    the chunk (for its first chunk, the count the entry was published
///    at, or its fork's if later). The transaction records that count
///    ("snapshot sequence") and validates against exactly the write sets
///    of transactions that committed AFTER that point (ConflictDetector's
///    epoch interface). This generalizes the round discipline — a
///    round-mate is just a transaction whose snapshot you share — and
///    preserves each theorem's guarantee:
///      * RAW/FULL: a committing transaction's reads are unaffected by
///        every commit it missed, so the final state equals the serial
///        replay of chunks in commit order (conflict serializability).
///      * WAW: committed write sets since the snapshot are disjoint from
///        this transaction's writes (snapshot isolation / StaleReads).
///      * NONE: always commit.
///  - CommitOrderPolicy::InOrder retires chunks in ascending order: an
///    arrived report for chunk c buffers until every chunk < c has
///    committed, then validates against the commits it missed. Combined
///    with RAW this is Theorem 4.3's sequential semantics. Because only
///    the oldest unretired chunk can commit, its retry (on a fresh
///    snapshot, with nothing else committing) always succeeds — progress
///    is guaranteed.
///  - CommitOrderPolicy::OutOfOrder retires on arrival. Arrival order is
///    timing-dependent, so the schedule (unlike the barriered engines') is
///    not deterministic across runs — but every final state is equivalent
///    to a serial execution in the reported CommitOrder, which is what the
///    theorems promise. A starvation guard drains the pipeline and runs a
///    repeatedly-conflicting chunk solo, guaranteeing progress.
///
/// A child that dies of a signal, exits abnormally, or trips a resource cap
/// surfaces as RunStatus::Crash; remaining in-flight children are killed
/// and reaped before returning.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_PIPELINEEXECUTOR_H
#define ALTER_RUNTIME_PIPELINEEXECUTOR_H

#include "runtime/Executor.h"

namespace alter {

/// Process-based pipelined implementation of the ALTER protocol.
class PipelineExecutor : public Executor {
public:
  explicit PipelineExecutor(ExecutorConfig Config);

  RunResult run(const LoopSpec &Spec) override;

  /// The configuration in force.
  const ExecutorConfig &config() const { return Config; }

  /// Adjusts the accumulated-time budget shared across run() calls of an
  /// outer convergence loop (see ExecutorLoopRunner). The pipelined engine
  /// runs on real parallelism, so its "modeled" clock is its real clock.
  void setAccumulatedSimNs(uint64_t Ns) override { AccumulatedSimNs = Ns; }

  /// Consecutive validation failures of one chunk that trigger the
  /// drain-and-run-solo starvation guard.
  static constexpr unsigned StarvationRetryLimit = 4;

  /// Queue entries the parent keeps open per live resident child: enough
  /// that a resident finishing a chunk, and the one ahead of it, finds its
  /// next chunk published without waiting for the parent.
  static constexpr unsigned OpenEntriesPerResident = 2;

private:
  ExecutorConfig Config;
  uint64_t AccumulatedSimNs = 0;
};

} // namespace alter

#endif // ALTER_RUNTIME_PIPELINEEXECUTOR_H
