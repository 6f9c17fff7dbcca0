//===- tests/StagePipelineTest.cpp - PS-DSWP stage pipeline ---------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stage-pipelined schedule and its planner:
///
///  S1. Every registry workload that carries a stage decomposition
///      produces the exact sequential output when forced onto the stage
///      pipeline; workloads without one fall back to chunked and still
///      validate.
///  S2. The auto planner picks staged for the loop where the sequential
///      lane is cheap relative to the replicated stage (SSCA2) and
///      chunked where it is not (Genome).
///  S3. Forcing staged at one worker degrades to chunked — a pipeline
///      needs a replica beside the sequential lane.
///  S4. When a chunk trips the access-set cap, the pipelined engine
///      indicts the EARLIEST uncommitted chunk (the resume point the
///      degradation ladder needs), not the chunk that happened to
///      overflow, and on every fork engine the blown set sizes still
///      reach the telemetry.
///  S5. Buffered-write contexts (the stage replicas' mode) give
///      read-own-writes without touching memory before commit.
///
//===----------------------------------------------------------------------===//

#include "runtime/ForkJoinExecutor.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/TxnContext.h"
#include "support/FaultInjection.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace alter;

//===----------------------------------------------------------------------===
// S1: registry-wide staged output equivalence
//===----------------------------------------------------------------------===

TEST(StageScheduleTest, ForcedStagedMatchesSequentialAcrossRegistry) {
  unsigned StagedRuns = 0;
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    const std::optional<Annotation> A = W->paperAnnotation();
    if (!A)
      continue; // labyrinth: the paper could not parallelize it
    SCOPED_TRACE(Name);

    W->setUp(0);
    W->runSequential();
    const std::vector<double> Reference = W->outputSignature();

    W->setUp(0);
    const RunResult R = W->runScheduled(SchedulePolicy::Staged,
                                        W->resolveAnnotation(*A),
                                        /*NumWorkers=*/4);
    ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
    if (R.ScheduleUsed == ScheduleKind::Staged) {
      ++StagedRuns;
      EXPECT_TRUE(W->validate(Reference))
          << "staged output must equal the sequential reference";
    } else {
      // No stage decomposition: the driver falls back to chunked, which
      // must still produce a valid result.
      EXPECT_TRUE(W->validate(Reference));
    }
  }
  EXPECT_GE(StagedRuns, 2u)
      << "at least Genome and SSCA2 carry stage decompositions";
}

//===----------------------------------------------------------------------===
// S2/S3: the planner's per-loop choice
//===----------------------------------------------------------------------===

namespace {

RunResult runAuto(const std::string &Name, unsigned NumWorkers,
                  std::vector<double> *Reference = nullptr,
                  bool *Valid = nullptr) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  const std::optional<Annotation> A = W->paperAnnotation();
  EXPECT_TRUE(A.has_value());
  if (Reference) {
    W->setUp(0);
    W->runSequential();
    *Reference = W->outputSignature();
  }
  W->setUp(0);
  const RunResult R =
      W->runScheduled(SchedulePolicy::Auto, W->resolveAnnotation(*A),
                      NumWorkers);
  if (Valid && Reference)
    *Valid = W->validate(*Reference);
  return R;
}

} // namespace

TEST(StageScheduleTest, PlannerPicksStagedForSsca2) {
  // The SSCA2 scatter's fill-cursor chain is a cheap sequential lane; the
  // replicated edge-weight stage dominates, so the planner's probe sees
  // staged beating chunked (which burns ~30% on hub aborts).
  std::vector<double> Reference;
  bool Valid = false;
  const RunResult R = runAuto("ssca2", /*NumWorkers=*/4, &Reference, &Valid);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Staged)
      << "planner chose " << scheduleKindName(R.ScheduleUsed);
  EXPECT_TRUE(Valid);
}

TEST(StageScheduleTest, PlannerKeepsGenomeChunked) {
  // Genome's hash-probe stage is too cheap to pay for a dedicated
  // sequential insertion lane: the planner must keep it chunked.
  std::vector<double> Reference;
  bool Valid = false;
  const RunResult R = runAuto("genome", /*NumWorkers=*/4, &Reference, &Valid);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_EQ(R.ScheduleUsed, ScheduleKind::Chunked)
      << "planner chose " << scheduleKindName(R.ScheduleUsed);
  EXPECT_TRUE(Valid);
}

TEST(StageScheduleTest, SingleWorkerFallsBackToChunked) {
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Staged,
      W->resolveAnnotation(*W->paperAnnotation()), /*NumWorkers=*/1);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_NE(R.ScheduleUsed, ScheduleKind::Staged)
      << "one worker cannot host a replica beside the sequential lane";
  EXPECT_TRUE(W->validate(Reference));
}

TEST(StageScheduleTest, EnvPlanCompletesWithValidOutput) {
  // check.sh --stage drives this test with ALTER_FAULTS plans (stage-worker
  // kill, queue-record qflip): whatever the environment armed, a forced
  // staged run must end in Success with the sequential output — clean when
  // no plan is set, degraded through the ladder when one is. Deliberately
  // does NOT touch FaultPlan::global(), so the env-parsed plan survives.
  std::unique_ptr<Workload> W = makeWorkload("ssca2");
  W->setUp(0);
  W->runSequential();
  const std::vector<double> Reference = W->outputSignature();
  W->setUp(0);
  const RunResult R = W->runScheduled(
      SchedulePolicy::Staged, W->resolveAnnotation(*W->paperAnnotation()),
      /*NumWorkers=*/4);
  ASSERT_EQ(R.Status, RunStatus::Success) << R.Detail;
  EXPECT_TRUE(W->validate(Reference));
}

//===----------------------------------------------------------------------===
// S4: access-set cap attribution in the fork engines
//===----------------------------------------------------------------------===

TEST(PipelineLimitAttributionTest, CapIndictsEarliestUncommittedChunk) {
  // Chunk 2 stalls (still in flight); chunk 5's read set then trips the
  // cap. The AggloClust failure mode: the overflowing chunk is usually a
  // victim of head-of-line blocking, so the engine must point the
  // degradation ladder at the oldest uncommitted chunk — re-running the
  // tail from chunk 5 would silently drop chunk 2's iteration.
  std::vector<double> Data(4096);
  std::vector<double> Cells(8, 0.0);
  double Sink = 0;
  LoopSpec Spec;
  Spec.NumIterations = 8;
  Spec.Body = [&](TxnContext &Ctx, int64_t I) {
    if (I == 5) {
      double Acc = 0;
      for (double &D : Data)
        Acc += Ctx.load(&D); // tracks 4096 words: blows the 48 KiB cap
      Ctx.store(&Sink, Acc);
      return;
    }
    Ctx.store(&Cells[static_cast<size_t>(I)],
              Ctx.load(&Cells[static_cast<size_t>(I)]) + 1.0);
  };
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::Stall, /*Chunk=*/2, /*Sticky=*/false);
  FaultPlan::global().setStallNs(400'000'000); // chunk 2 outlives the run
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  // The footprint counts set CAPACITY (table + keys), so the floor must
  // clear the small chunks' preallocated buckets and still be far under
  // chunk 5's ~4096 tracked words.
  Config.Limits.MaxAccessSetBytes = 48 * 1024;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  FaultPlan::global().clear();
  ASSERT_EQ(R.Status, RunStatus::Crash) << R.Detail;
  EXPECT_EQ(R.FailedChunk, 2) << R.Detail;
  // The blown sets must reach the telemetry: the largest read set on
  // record is the capped chunk's, far beyond the one-word chunks.
  EXPECT_GE(R.Stats.ReadSetWords.max(), 512.0);
}

TEST(ForkJoinLimitAttributionTest, CapCrashesAndRecordsTheBlownSets) {
  // The round-barrier engine's side of the same contract: chunk 5's read
  // set trips the cap, the run fails with Crash indicting that chunk, and
  // the blown sets still reach the telemetry — the parent accounts the
  // capped report through the same commit lane as the pipelined engine.
  std::vector<double> Data(4096);
  std::vector<double> Cells(8, 0.0);
  double Sink = 0;
  LoopSpec Spec;
  Spec.NumIterations = 8;
  Spec.Body = [&](TxnContext &Ctx, int64_t I) {
    if (I == 5) {
      double Acc = 0;
      for (double &D : Data)
        Acc += Ctx.load(&D); // tracks 4096 words: blows the 48 KiB cap
      Ctx.store(&Sink, Acc);
      return;
    }
    Ctx.store(&Cells[static_cast<size_t>(I)],
              Ctx.load(&Cells[static_cast<size_t>(I)]) + 1.0);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  Config.Limits.MaxAccessSetBytes = 48 * 1024;
  ForkJoinExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_EQ(R.Status, RunStatus::Crash) << R.Detail;
  EXPECT_EQ(R.FailedChunk, 5) << R.Detail;
  EXPECT_GE(R.Stats.ReadSetWords.max(), 512.0);
}

//===----------------------------------------------------------------------===
// S5: buffered-write replica contexts
//===----------------------------------------------------------------------===

TEST(BufferedWriteTest, ReadsOwnWritesWithoutTouchingMemory) {
  RuntimeParams Params;
  Params.Conflict = ConflictPolicy::FULL;
  LoopSpec Spec;
  Spec.NumIterations = 1;
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec,
                 /*Allocator=*/nullptr, /*Worker=*/0);
  Ctx.enableBufferedWrites();

  double X = 1.0;
  std::vector<double> Arr = {10.0, 11.0, 12.0, 13.0};

  Ctx.beginTxn();
  Ctx.store(&X, 5.0);
  EXPECT_EQ(X, 1.0) << "buffered stores must not touch memory pre-commit";
  EXPECT_EQ(Ctx.load(&X), 5.0) << "loads must see the transaction's writes";
  Ctx.store(&Arr[2], 99.0);
  std::vector<double> Out(4, 0.0);
  Ctx.readRange(Arr.data(), Arr.size(), Out.data());
  EXPECT_EQ(Out[1], 11.0);
  EXPECT_EQ(Out[2], 99.0) << "range reads must overlay buffered writes";
  Ctx.commitTxn();
  EXPECT_EQ(X, 5.0);
  EXPECT_EQ(Arr[2], 99.0);
}

TEST(BufferedWriteTest, AbortDiscardsBufferedWrites) {
  RuntimeParams Params;
  Params.Conflict = ConflictPolicy::FULL;
  LoopSpec Spec;
  Spec.NumIterations = 1;
  TxnContext Ctx(ContextMode::Transactional, &Params, &Spec,
                 /*Allocator=*/nullptr, /*Worker=*/0);
  Ctx.enableBufferedWrites();
  double X = 1.0;
  Ctx.beginTxn();
  Ctx.store(&X, 7.0);
  Ctx.abortTxn();
  EXPECT_EQ(X, 1.0) << "an aborted buffered transaction leaves no trace";
}
