//===- tests/PipelineExecutorTest.cpp - Pipelined engine properties -------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the pipelined process engine and the compressed wire
/// format it shares with the round-barrier engine.
///
/// The pipeline retires OutOfOrder chunks in arrival order, which is
/// timing-dependent — so unlike the barriered engines these tests assert
/// the THEOREM-level guarantees (final-state equivalence, commit-order
/// serializability, in-order retirement, snapshot-isolation exactness)
/// rather than bit-identical schedules across engines:
///
///  Q1. Conflict-free loops match the sequential result under every
///      (ConflictPolicy x CommitOrderPolicy) combination, with reductions
///      enabled, and commit every chunk exactly once.
///  Q2. RAW/FULL runs equal the serial replay of their own commit order
///      (Theorems 4.1/4.2), and with InOrder equal sequential semantics
///      (Theorem 4.3).
///  Q3. InOrder retires in ascending chunk order regardless of conflicts.
///  Q4. Forced overlap produces retries, never lost updates.
///  Q5. A crashing or cap-tripping child surfaces as RunStatus::Crash.
///  Q6. Real workloads validate() under their paper annotation.
///
/// Plus round-trip and compression checks for the RLE access-set and
/// compact write-log encodings.
///
//===----------------------------------------------------------------------===//

#include "memory/AlterAllocator.h"
#include "runtime/PipelineExecutor.h"
#include "runtime/TxnWire.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <sys/mman.h>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

void sleepMs(long Ms) {
  timespec Ts{0, Ms * 1000000L};
  while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR)
    ;
}

//===----------------------------------------------------------------------===
// Wire format round trips
//===----------------------------------------------------------------------===

std::vector<uintptr_t> sortedWords(const AccessSet &Set) {
  std::vector<uintptr_t> W = Set.words();
  std::sort(W.begin(), W.end());
  return W;
}

TEST(AccessSetWireTest, ScatteredKeysRoundTrip) {
  std::vector<double> Pool(4096);
  AccessSet Set;
  // Scattered picks with varied strides, plus one contiguous run.
  for (size_t I = 0; I < Pool.size(); I += 1 + (I * 7) % 61)
    Set.insert(&Pool[I]);
  Set.insertRange(&Pool[100], 64 * sizeof(double));

  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  AccessSet Back;
  size_t Consumed = 0;
  EXPECT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back, Consumed));
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_EQ(sortedWords(Back), sortedWords(Set));
  EXPECT_EQ(std::memcmp(Back.summary().Bits, Set.summary().Bits,
                        sizeof(Set.summary().Bits)),
            0)
      << "summary must be reconstructible from the keys alone";
}

TEST(AccessSetWireTest, EmptySetRoundTrips) {
  AccessSet Set;
  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  AccessSet Back;
  size_t Consumed = 0;
  EXPECT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back, Consumed));
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_TRUE(Back.empty());
}

TEST(AccessSetWireTest, ContiguousRangesCompressBelowRaw) {
  // An induction-variable range: 4096 words in a handful of runs must
  // serialize far below the 8-bytes-per-word raw form.
  std::vector<double> Data(4096);
  AccessSet Set;
  Set.insertRange(Data.data(), Data.size() * sizeof(double));
  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  EXPECT_LT(Wire.size(), rawAccessSetBytes(Set) / 10)
      << "range-heavy sets must collapse to a few RLE runs";
}

/// Key sets for the decoded-set parity checks: one long induction-variable
/// range, scattered single words, and both together.
std::vector<AccessSet> paritySets(std::vector<double> &Pool) {
  std::vector<AccessSet> Sets(3);
  Sets[0].insertRange(&Pool[512], 1024 * sizeof(double));
  for (size_t I = 0; I < Pool.size(); I += 3 + (I * 13) % 97)
    Sets[1].insert(&Pool[I]);
  // Mixed, inserted out of order so words() differs from the decoded array.
  Sets[2].insertRange(&Pool[3000], 200 * sizeof(double));
  for (size_t I = Pool.size() - 1; I > 64; I -= 41 + I % 7)
    Sets[2].insert(&Pool[I]);
  Sets[2].insertRange(&Pool[10], 30 * sizeof(double));
  return Sets;
}

AccessSet wireRoundTrip(const AccessSet &Set) {
  std::vector<uint8_t> Wire;
  serializeAccessSet(Wire, Set);
  AccessSet Back;
  size_t Consumed = 0;
  EXPECT_TRUE(deserializeAccessSet(Wire.data(), Wire.size(), Back, Consumed));
  EXPECT_EQ(Consumed, Wire.size());
  return Back;
}

TEST(AccessSetWireTest, DecodedSetsMatchTheOriginal) {
  std::vector<double> Pool(4096);
  for (const AccessSet &Set : paritySets(Pool)) {
    const AccessSet Back = wireRoundTrip(Set);
    EXPECT_EQ(Back.sizeWords(), Set.sizeWords());
    EXPECT_EQ(Back.words(), sortedWords(Set))
        << "a decoded set holds the original's words in ascending order";
    EXPECT_EQ(std::memcmp(Back.summary().Bits, Set.summary().Bits,
                          sizeof(Set.summary().Bits)),
              0);
  }
}

TEST(AccessSetWireTest, DecodedSetsAnswerQueriesLikeHashBuiltSets) {
  // A decoded set has no hash table until something inserts: its lookups
  // binary-search the sorted array. They must agree with the hash-built
  // original, with the decoded set on either side of a pair query.
  std::vector<double> Pool(4096);
  const std::vector<AccessSet> Sets = paritySets(Pool);
  for (size_t A = 0; A != Sets.size(); ++A) {
    const AccessSet Back = wireRoundTrip(Sets[A]);
    for (size_t I = 0; I != Pool.size(); ++I)
      ASSERT_EQ(Back.contains(&Pool[I]), Sets[A].contains(&Pool[I]))
          << "set " << A << ", word " << I;
    for (size_t B = 0; B != Sets.size(); ++B) {
      SCOPED_TRACE("sets " + std::to_string(A) + " x " + std::to_string(B));
      const AccessSet OtherBack = wireRoundTrip(Sets[B]);
      const uintptr_t Expected = Sets[A].firstCommonWord(Sets[B]);
      for (const uintptr_t Got :
           {Back.firstCommonWord(Sets[B]), Sets[B].firstCommonWord(Back),
            Back.firstCommonWord(OtherBack)}) {
        // Any shared word is a valid witness; which one depends on the
        // probing order, so compare presence and membership.
        EXPECT_EQ(Got != 0, Expected != 0);
        if (Got != 0) {
          const void *Addr = reinterpret_cast<const void *>(Got << 3);
          EXPECT_TRUE(Sets[A].contains(Addr) && Sets[B].contains(Addr));
        }
      }
      EXPECT_EQ(Back.intersects(Sets[B]), Sets[A].intersects(Sets[B]));
    }
  }
}

TEST(AccessSetWireTest, InsertAfterDecodeStillDeduplicates) {
  std::vector<double> Pool(4096);
  for (const AccessSet &Set : paritySets(Pool)) {
    AccessSet Back = wireRoundTrip(Set);
    const size_t Size = Back.sizeWords();
    const void *Member = reinterpret_cast<const void *>(Back.words()[0] << 3);
    EXPECT_FALSE(Back.insert(Member)) << "already decoded";
    EXPECT_EQ(Back.sizeWords(), Size);
    size_t Fresh = 0;
    while (Set.contains(&Pool[Fresh]))
      ++Fresh;
    EXPECT_TRUE(Back.insert(&Pool[Fresh]));
    EXPECT_FALSE(Back.insert(&Pool[Fresh]));
    EXPECT_EQ(Back.sizeWords(), Size + 1);
    for (const uintptr_t Key : Set.words())
      EXPECT_FALSE(Back.insert(reinterpret_cast<const void *>(Key << 3)));
    EXPECT_EQ(Back.sizeWords(), Size + 1);
    EXPECT_TRUE(Back.contains(&Pool[Fresh]));
  }
}

TEST(WriteLogCompactTest, RoundTripAppliesIdentically) {
  std::vector<uint64_t> Target(64, 0);
  WriteLog Log;
  // Sequential stores, a stride pattern, a rewrite, and an odd size.
  for (size_t I = 0; I != 16; ++I) {
    const uint64_t V = 100 + I;
    Log.record(&Target[I], &V, sizeof(V));
  }
  for (size_t I = 20; I < 40; I += 3) {
    const uint32_t V = static_cast<uint32_t>(7 * I);
    Log.record(reinterpret_cast<uint32_t *>(&Target[I]), &V, sizeof(V));
  }
  const uint64_t Rewrite = 999;
  Log.record(&Target[3], &Rewrite, sizeof(Rewrite));

  std::vector<uint8_t> Wire;
  Log.serializeCompact(Wire);
  const WriteLog Back = WriteLog::deserializeCompact(Wire.data(), Wire.size());
  ASSERT_EQ(Back.numEntries(), Log.numEntries());

  std::vector<uint64_t> FromOriginal(64, 0), FromCopy(64, 0);
  Target = FromOriginal;
  Log.apply();
  FromOriginal.assign(Target.begin(), Target.end());
  std::fill(Target.begin(), Target.end(), 0);
  Back.apply();
  FromCopy.assign(Target.begin(), Target.end());
  EXPECT_EQ(FromCopy, FromOriginal);
  EXPECT_EQ(FromOriginal[3], 999u) << "program order must be preserved";
}

TEST(MetricsRegistryTest, SerializeDeserializeRoundTrips) {
  MetricsRegistry Reg;
  Reg.addCounter(CounterId::ChildChunks, 5);
  Reg.addCounter(CounterId::RingWaits, 2);
  Reg.gaugeMax(GaugeId::MaxWriteLogBytes, 4096);
  Reg.record(HistogramId::ChunkExecNs, 0);
  Reg.record(HistogramId::ChunkExecNs, 1234);
  Reg.record(HistogramId::ChunkExecNs, ~uint64_t(0));
  Reg.record(HistogramId::WriteLogBytes, 512);

  std::vector<uint8_t> Blob;
  Reg.serialize(Blob);
  MetricsRegistry Back;
  ASSERT_TRUE(MetricsRegistry::deserialize(Blob.data(), Blob.size(), Back));
  EXPECT_EQ(Back.counter(CounterId::ChildChunks), 5u);
  EXPECT_EQ(Back.counter(CounterId::RingWaits), 2u);
  EXPECT_EQ(Back.counter(CounterId::ParentCommits), 0u);
  EXPECT_EQ(Back.gauge(GaugeId::MaxWriteLogBytes), 4096u);
  const LatencyHistogram &H = Back.histogram(HistogramId::ChunkExecNs);
  EXPECT_EQ(H.Count, 3u);
  EXPECT_EQ(H.Min, 0u);
  EXPECT_EQ(H.Max, ~uint64_t(0));
  EXPECT_EQ(Back.histogram(HistogramId::WriteLogBytes).Count, 1u);
  EXPECT_TRUE(Back.histogram(HistogramId::ValidateNs).empty());

  // An empty registry round-trips to an empty registry in a few bytes.
  MetricsRegistry Empty, EmptyBack;
  std::vector<uint8_t> EmptyBlob;
  Empty.serialize(EmptyBlob);
  EXPECT_LE(EmptyBlob.size(), 32u);
  ASSERT_TRUE(MetricsRegistry::deserialize(EmptyBlob.data(),
                                           EmptyBlob.size(), EmptyBack));
  EXPECT_TRUE(EmptyBack.empty());

  // Truncated and padded blobs must be rejected, never trusted.
  MetricsRegistry Junk;
  EXPECT_FALSE(
      MetricsRegistry::deserialize(Blob.data(), Blob.size() - 1, Junk));
  std::vector<uint8_t> Padded = Blob;
  Padded.push_back(0);
  EXPECT_FALSE(
      MetricsRegistry::deserialize(Padded.data(), Padded.size(), Junk));
}

namespace {

/// Executes a small disjoint-stores chunk transactionally and encodes its
/// commit frame, with or without a child metrics registry.
std::vector<uint8_t> encodeTestFrame(const LoopSpec &Spec,
                                     const ExecutorConfig &Config,
                                     std::vector<int64_t> &Data,
                                     MetricsRegistry *Metrics) {
  std::fill(Data.begin(), Data.end(), 0);
  TxnContext Ctx(ContextMode::Transactional, &Config.Params, &Spec,
                 Config.Allocator, /*Worker=*/1, Config.Limits);
  Ctx.beginTxn();
  for (int64_t I = 0; I != 4; ++I)
    Spec.Body(Ctx, I);
  Ctx.captureRedo();
  TraceBuffer Trace(TraceLevel::Off);
  return encodeCommitFrame(Ctx, Config, /*Worker=*/1, /*Chunk=*/0,
                           /*WorkNs=*/1234, Trace, Metrics);
}

uint64_t frameMagic(const std::vector<uint8_t> &Frame) {
  uint64_t Magic = 0;
  std::memcpy(&Magic, Frame.data(), sizeof(Magic));
  return Magic;
}

} // namespace

TEST(CommitFrameVersionTest, MetricsOffAndOnFramesBothRoundTrip) {
  std::vector<int64_t> Data(16, 0);
  LoopSpec Spec;
  Spec.NumIterations = 16;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I + 3);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 1;

  // Metrics off: an empty METRICS section, byte-identical across encodes
  // (the registry must not perturb the metrics-off path).
  const std::vector<uint8_t> Off = encodeTestFrame(Spec, Config, Data, nullptr);
  const std::vector<uint8_t> OffAgain =
      encodeTestFrame(Spec, Config, Data, nullptr);
  EXPECT_EQ(Off, OffAgain);

  // Metrics on: the frame carries the registry in its METRICS section and
  // resets it (per-frame deltas). There is one frame format either way.
  MetricsRegistry Reg;
  Reg.record(HistogramId::ChunkExecNs, 1234);
  Reg.addCounter(CounterId::ChildChunks);
  const std::vector<uint8_t> On = encodeTestFrame(Spec, Config, Data, &Reg);
  EXPECT_EQ(frameMagic(On), 0x35414c544552ULL); // "ALTER5" little-endian
  EXPECT_EQ(frameMagic(Off), frameMagic(On));
  EXPECT_GT(On.size(), Off.size());
  EXPECT_TRUE(Reg.empty()) << "encode must take-and-reset the registry";

  // Both decode through the one parent-side decoder; the metrics-off
  // report has an empty registry, the metrics-on report carries the
  // child's.
  ChildReport RepOff, RepOn;
  std::string Error;
  ASSERT_TRUE(decodeChildReport(Off, Spec, Config.Params, RepOff, Error))
      << Error;
  EXPECT_EQ(RepOff.Metrics, nullptr)
      << "an empty METRICS section carries no registry";
  EXPECT_LT(sizeof(ChildReport), 2048u)
      << "reports are decoded, parked and moved on the commit lane";
  ASSERT_TRUE(decodeChildReport(On, Spec, Config.Params, RepOn, Error))
      << Error;
  ASSERT_NE(RepOn.Metrics, nullptr);
  const MetricsRegistry &Child = *RepOn.Metrics;
  EXPECT_EQ(Child.counter(CounterId::ChildChunks), 1u);
  EXPECT_EQ(Child.counter(CounterId::ChildFrames), 1u);
  EXPECT_EQ(Child.histogram(HistogramId::ChunkExecNs).Count, 1u);
  EXPECT_EQ(Child.histogram(HistogramId::ChunkExecNs).Sum, 1234u);
  EXPECT_EQ(Child.histogram(HistogramId::SerializeNs).Count, 1u);
  EXPECT_EQ(Child.histogram(HistogramId::WriteLogBytes).Count, 1u);
  // WireFrameBytes excludes the trace/metrics sections (the registry
  // cannot contain its own size): header + fixed fields + body only.
  const LatencyHistogram &FrameH =
      Child.histogram(HistogramId::WireFrameBytes);
  EXPECT_EQ(FrameH.Count, 1u);
  EXPECT_LT(FrameH.Max, On.size());

  // The two reports agree on everything the commit path consumes.
  EXPECT_EQ(RepOff.WorkNs, RepOn.WorkNs);
  EXPECT_EQ(RepOff.BytesWritten, RepOn.BytesWritten);
  EXPECT_EQ(RepOff.Writes.sizeWords(), RepOn.Writes.sizeWords());
  EXPECT_EQ(RepOff.Log.numEntries(), RepOn.Log.numEntries());

  // A truncated message is a rejected frame, not a crash.
  for (const std::vector<uint8_t> *Frame : {&Off, &On}) {
    std::vector<uint8_t> Truncated(Frame->begin(), Frame->end() - 1);
    ChildReport RepT;
    EXPECT_FALSE(
        decodeChildReport(Truncated, Spec, Config.Params, RepT, Error));
  }
}

TEST(WriteLogCompactTest, SequentialStoresCompressBelowRaw) {
  std::vector<double> Target(1024);
  WriteLog Log;
  for (double &D : Target)
    Log.record(&D, &D, sizeof(D));
  std::vector<uint8_t> Wire;
  Log.serializeCompact(Wire);
  // Raw form: 16 table bytes/entry + payload. Compact: ~2 + payload.
  EXPECT_LT(Wire.size(), Log.serializedSize() * 2 / 3);
}

//===----------------------------------------------------------------------===
// Policy-matrix properties (Q1-Q3)
//===----------------------------------------------------------------------===

struct MatrixParam {
  ConflictPolicy Conflict;
  CommitOrderPolicy CommitOrder;
  unsigned Workers;
  int Cf;

  std::string name() const {
    std::string Name = conflictPolicyName(Conflict);
    Name += commitOrderPolicyName(CommitOrder);
    Name += "W" + std::to_string(Workers) + "Cf" + std::to_string(Cf);
    return Name;
  }
};

std::vector<MatrixParam> allConfigurations() {
  std::vector<MatrixParam> Params;
  for (ConflictPolicy Conflict :
       {ConflictPolicy::FULL, ConflictPolicy::RAW, ConflictPolicy::WAW,
        ConflictPolicy::NONE})
    for (CommitOrderPolicy Order :
         {CommitOrderPolicy::InOrder, CommitOrderPolicy::OutOfOrder})
      for (unsigned Workers : {2u, 4u})
        for (int Cf : {1, 5})
          Params.push_back({Conflict, Order, Workers, Cf});
  return Params;
}

/// Same contended shape as PolicyMatrixTest's MixedLoop: neighbor reads,
/// own writes, a hot shared cell.
struct MixedLoop {
  static constexpr int64_t N = 40;
  std::vector<int64_t> Data;
  int64_t Hot = 0;

  MixedLoop() : Data(N + 1, 1) {}

  LoopSpec spec() {
    LoopSpec S;
    S.Name = "pipeline.mixed";
    S.NumIterations = N;
    S.Body = [this](TxnContext &Ctx, int64_t I) {
      const int64_t Left = Ctx.load(&Data[static_cast<size_t>(I)]);
      const int64_t Right = Ctx.load(&Data[static_cast<size_t>(I) + 1]);
      Ctx.store(&Data[static_cast<size_t>(I)], Left + Right + I);
      if (I % 7 == 0) {
        const int64_t H = Ctx.load(&Hot);
        Ctx.store(&Hot, H + I);
      }
    };
    return S;
  }

  std::vector<int64_t> state() const {
    std::vector<int64_t> S = Data;
    S.push_back(Hot);
    return S;
  }
};

class PipelineMatrix : public ::testing::TestWithParam<MatrixParam> {
protected:
  ExecutorConfig config() const {
    ExecutorConfig Config;
    Config.NumWorkers = GetParam().Workers;
    Config.Params.Conflict = GetParam().Conflict;
    Config.Params.CommitOrder = GetParam().CommitOrder;
    Config.Params.ChunkFactor = GetParam().Cf;
    return Config;
  }
};

// Q1: disjoint writes + an exact reduction match sequential under every
// combination, and every chunk commits exactly once.
TEST_P(PipelineMatrix, DisjointLoopWithReductionMatchesSequential) {
  constexpr int64_t N = 48;
  std::vector<int64_t> Cells(N, 0);
  double Sum = 0.0;

  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Reductions.push_back({"sum", &Sum, ScalarKind::F64});
  Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Cells[static_cast<size_t>(I)], I * 3 + 1);
    // Quarter values are exactly representable: the sum is independent of
    // commit order, so OutOfOrder arrival timing cannot perturb it.
    Ctx.redUpdateF(0, ReduceOp::Plus,
                   static_cast<double>((I * 31) % 97) + 0.25);
  };
  ExecutorConfig Config = config();
  Config.Params.Reductions.push_back({0, ReduceOp::Plus});
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;

  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Cells[static_cast<size_t>(I)], I * 3 + 1);
  double Expected = 0.0;
  for (int64_t I = 0; I != N; ++I)
    Expected += static_cast<double>((I * 31) % 97) + 0.25;
  EXPECT_DOUBLE_EQ(Sum, Expected);

  const int64_t NumChunks = (N + GetParam().Cf - 1) / GetParam().Cf;
  ASSERT_EQ(R.CommitOrder.size(), static_cast<size_t>(NumChunks));
  std::set<int64_t> Unique(R.CommitOrder.begin(), R.CommitOrder.end());
  EXPECT_EQ(Unique.size(), R.CommitOrder.size())
      << "every chunk commits exactly once";
  EXPECT_EQ(R.Stats.NumCommitted, static_cast<uint64_t>(NumChunks));
  EXPECT_GT(R.Stats.WireBytes, 0u);
  EXPECT_GT(R.Stats.WorkerBusyNs, 0u);
}

// Q2: commit-order serializability under read-tracking policies.
TEST_P(PipelineMatrix, ReadTrackingPoliciesAreCommitOrderSerializable) {
  if (GetParam().Conflict != ConflictPolicy::RAW &&
      GetParam().Conflict != ConflictPolicy::FULL)
    GTEST_SKIP() << "serializability is only promised with read tracking";

  MixedLoop Parallel;
  PipelineExecutor Exec(config());
  const RunResult R = Exec.run(Parallel.spec());
  ASSERT_TRUE(R.succeeded()) << R.Detail;

  MixedLoop Replay;
  LoopSpec Spec = Replay.spec();
  TxnContext Ctx(ContextMode::Passthrough, nullptr, &Spec, nullptr, 0);
  for (int64_t Chunk : R.CommitOrder) {
    const int64_t First = Chunk * GetParam().Cf;
    const int64_t Last =
        std::min<int64_t>(First + GetParam().Cf, MixedLoop::N);
    for (int64_t I = First; I != Last; ++I)
      Spec.Body(Ctx, I);
  }
  EXPECT_EQ(Parallel.state(), Replay.state())
      << "execution must equal its commit-order serialization";
}

// Q3: in-order retirement.
TEST_P(PipelineMatrix, InOrderRetiresInProgramOrder) {
  if (GetParam().CommitOrder != CommitOrderPolicy::InOrder)
    GTEST_SKIP() << "property specific to InOrder";
  MixedLoop Loop;
  PipelineExecutor Exec(config());
  const RunResult R = Exec.run(Loop.spec());
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(std::is_sorted(R.CommitOrder.begin(), R.CommitOrder.end()))
      << "InOrder must retire chunks in ascending program order";
}

// Q2b: InOrder + read tracking is Theorem 4.3 — sequential semantics.
TEST_P(PipelineMatrix, TlsPointMatchesSequential) {
  if (GetParam().CommitOrder != CommitOrderPolicy::InOrder ||
      (GetParam().Conflict != ConflictPolicy::RAW &&
       GetParam().Conflict != ConflictPolicy::FULL))
    GTEST_SKIP() << "property specific to the Theorem 4.3 corner";
  MixedLoop Parallel;
  PipelineExecutor Exec(config());
  ASSERT_TRUE(Exec.run(Parallel.spec()).succeeded());

  MixedLoop Seq;
  LoopSpec Spec = Seq.spec();
  TxnContext Ctx(ContextMode::Passthrough, nullptr, &Spec, nullptr, 0);
  for (int64_t I = 0; I != MixedLoop::N; ++I)
    Spec.Body(Ctx, I);
  EXPECT_EQ(Parallel.state(), Seq.state())
      << "Theorem 4.3: RAW + InOrder equals sequential semantics";
}

INSTANTIATE_TEST_SUITE_P(Lattice, PipelineMatrix,
                         ::testing::ValuesIn(allConfigurations()),
                         [](const auto &Info) { return Info.param.name(); });

//===----------------------------------------------------------------------===
// Q4: forced overlap — retries happen and updates are never lost
//===----------------------------------------------------------------------===

class PipelineForcedRetry
    : public ::testing::TestWithParam<
          std::tuple<ConflictPolicy, CommitOrderPolicy>> {};

TEST_P(PipelineForcedRetry, OverlappingIncrementsRetryWithoutLostUpdates) {
  // Two chunks, two workers, chunk factor 1: both fork before either
  // commits (each sleeps well past the fork skew), so the second validator
  // must observe the first's commit and retry. The shared counter stays
  // exact through the retry.
  int64_t Shared = 0;
  LoopSpec Spec;
  Spec.NumIterations = 2;
  Spec.Body = [&Shared](TxnContext &Ctx, int64_t) {
    const int64_t V = Ctx.load(&Shared);
    sleepMs(30);
    Ctx.store(&Shared, V + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = std::get<0>(GetParam());
  Config.Params.CommitOrder = std::get<1>(GetParam());
  Config.Params.ChunkFactor = 1;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Shared, 2) << "no lost update";
  EXPECT_GE(R.Stats.NumRetries, 1u) << "the overlap must conflict";
  EXPECT_EQ(R.Stats.NumCommitted, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Overlap, PipelineForcedRetry,
    ::testing::Combine(::testing::Values(ConflictPolicy::RAW,
                                         ConflictPolicy::WAW),
                       ::testing::Values(CommitOrderPolicy::InOrder,
                                         CommitOrderPolicy::OutOfOrder)),
    [](const auto &Info) {
      return std::string(conflictPolicyName(std::get<0>(Info.param))) +
             commitOrderPolicyName(std::get<1>(Info.param));
    });

// Livelock guard: a chunk that keeps conflicting under OutOfOrder is
// eventually drained and run solo, so heavy contention still terminates.
TEST(PipelineStarvationTest, HeavyContentionTerminatesExactly) {
  std::vector<int64_t> Cells(2, 0);
  LoopSpec Spec;
  Spec.NumIterations = 32;
  Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
    int64_t *Cell = &Cells[static_cast<size_t>(I % 2)];
    Ctx.store(Cell, Ctx.load(Cell) + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Cells[0], 16);
  EXPECT_EQ(Cells[1], 16);
  EXPECT_EQ(R.Stats.NumCommitted, 32u);
}

//===----------------------------------------------------------------------===
// Q5: crash surfacing
//===----------------------------------------------------------------------===

TEST(PipelineCrashTest, AbnormalChildExitSurfacesAsCrash) {
  std::vector<int64_t> Cells(8, 0);
  LoopSpec Spec;
  Spec.NumIterations = 8;
  Spec.Body = [&Cells](TxnContext &Ctx, int64_t I) {
    if (I == 3)
      ::_exit(7); // only ever runs in a forked child
    Ctx.store(&Cells[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.Conflict = ConflictPolicy::NONE;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_EQ(R.Status, RunStatus::Crash);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(PipelineCrashTest, AccessSetCapSurfacesAsCrash) {
  std::vector<double> Data(4096);
  double Sink = 0;
  LoopSpec Spec;
  Spec.NumIterations = 4;
  Spec.Body = [&Data, &Sink](TxnContext &Ctx, int64_t) {
    double Acc = 0;
    for (double &D : Data)
      Acc += Ctx.load(&D);
    Ctx.store(&Sink, Acc);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.Conflict = ConflictPolicy::RAW; // track the huge read set
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Params.ChunkFactor = 1;
  Config.Limits.MaxAccessSetBytes = 1024;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  EXPECT_EQ(R.Status, RunStatus::Crash);
}

//===----------------------------------------------------------------------===
// Q6: real workloads under their paper annotation
//===----------------------------------------------------------------------===

class PipelineWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineWorkload, ValidatesUnderPaperAnnotation) {
  auto Ref = makeWorkload(GetParam());
  Ref->setUp(0);
  Ref->runSequential();
  const std::vector<double> RefSig = Ref->outputSignature();

  auto W = makeWorkload(GetParam());
  W->setUp(0);
  const RuntimeParams Params = W->resolveAnnotation(*W->paperAnnotation());
  const RunResult R = W->runPipeline(Params, /*NumWorkers=*/3);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W->validate(RefSig))
      << "pipelined run must satisfy the workload's own correctness "
         "criterion";
  EXPECT_GT(R.Stats.WireBytes, 0u);
}

TEST_P(PipelineWorkload, ValidatesUnderTls) {
  // The InOrder + read-tracking corner (Theorem 4.3) through real state.
  auto Ref = makeWorkload(GetParam());
  Ref->setUp(0);
  Ref->runSequential();
  const std::vector<double> RefSig = Ref->outputSignature();

  auto W = makeWorkload(GetParam());
  W->setUp(0);
  const RuntimeParams Params =
      paramsForSequentialSpeculation(W->defaultChunkFactor());
  const RunResult R = W->runPipeline(Params, /*NumWorkers=*/2);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W->validate(RefSig));
}

TEST_P(PipelineWorkload, ValidatesWhenEveryOtherDispatchForks) {
  // A child killed on every other chunk (one-shot, so each retry runs
  // clean) sends those chunks' slots through a fresh template fork, which
  // first replays the commit stream from the template's last fork, while
  // the surviving residents replay it before each chunk they claim: both
  // kinds of replica must be exactly current at every chunk.
  auto Ref = makeWorkload(GetParam());
  Ref->setUp(0);
  Ref->runSequential();
  const std::vector<double> RefSig = Ref->outputSignature();

  auto W = makeWorkload(GetParam());
  W->setUp(0);
  ExecutorConfig Config;
  Config.NumWorkers = 3;
  Config.Params = W->resolveAnnotation(*W->paperAnnotation());
  Config.Allocator = W->allocator();
  Config.Transport = TransportKind::Ring;
  FaultPlan::global().clear();
  for (int64_t Chunk = 0; Chunk < 64; Chunk += 2)
    FaultPlan::global().arm(FaultKind::ChildKill, Chunk, /*Sticky=*/false);
  PipelineExecutor Exec(Config);
  ExecutorLoopRunner Runner(Exec);
  W->run(Runner);
  FaultPlan::global().clear();
  const RunResult &R = Runner.result();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_TRUE(W->validate(RefSig));
  EXPECT_GT(R.Stats.NumChildCrashes, 0u) << "the kills must have struck";
  EXPECT_GT(R.Stats.ChildReuses, 0u) << "survivors must be redispatched";
  EXPECT_GT(R.Stats.WarmForks, R.Stats.ChildReuses)
      << "template forks must have happened between the reuses";
}

// Kept to fast loops: one with reductions enabled (kmeans: + reduction),
// two without (floyd: StaleReads, genome: OutOfOrder).
INSTANTIATE_TEST_SUITE_P(Paper, PipelineWorkload,
                         ::testing::Values("floyd", "kmeans", "genome"),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===
// Steady-state transport: warm pool + commit rings vs the cold pipe path
//===----------------------------------------------------------------------===

/// A disjoint-writes loop with enough chunks to reach steady state.
RunResult runDisjointOnTransport(TransportKind Transport,
                                 std::vector<int64_t> &Data,
                                 unsigned Workers = 4) {
  constexpr int64_t N = 64;
  Data.assign(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I * 5 + 2);
  };
  ExecutorConfig Config;
  Config.NumWorkers = Workers;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = Transport;
  PipelineExecutor Exec(Config);
  return Exec.run(Spec);
}

TEST(TransportTest, RingAndPipeProduceIdenticalOutput) {
  std::vector<int64_t> RingData, PipeData;
  const RunResult Ring = runDisjointOnTransport(TransportKind::Ring, RingData);
  const RunResult Pipe = runDisjointOnTransport(TransportKind::Pipe, PipeData);
  ASSERT_TRUE(Ring.succeeded()) << Ring.Detail;
  ASSERT_TRUE(Pipe.succeeded()) << Pipe.Detail;
  EXPECT_EQ(RingData, PipeData);
  EXPECT_EQ(Ring.Stats.NumCommitted, Pipe.Stats.NumCommitted);
  EXPECT_EQ(Ring.CommitOrder, Pipe.CommitOrder)
      << "InOrder retirement is transport-independent";
}

TEST(TransportTest, SteadyStateForksAreWarm) {
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.WarmForks, 0u);
  EXPECT_GT(R.Stats.warmForkRate(), 0.9)
      << "with a healthy pool, (almost) every chunk re-forks warm";
  EXPECT_EQ(R.Stats.PoolFaults, 0u);
  EXPECT_EQ(R.Stats.TemplateRefreshes, 0u)
      << "a 1 MiB stream never laps the template on this loop";
}

TEST(TransportTest, PipeTransportNeverTouchesThePool) {
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Pipe, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(R.Stats.WarmForks, 0u);
  EXPECT_GT(R.Stats.ColdForks, 0u);
  EXPECT_EQ(R.Stats.TemplateRefreshes, 0u);
}

TEST(TransportTest, RingCopiesOrdersOfMagnitudeFewerWireBytes) {
  // Pipe copies every framed commit message through the kernel; Ring
  // copies only the 1-byte doorbells. The records themselves travel
  // through shared memory (WireBytes counts them identically either way).
  std::vector<int64_t> Data;
  const RunResult Ring = runDisjointOnTransport(TransportKind::Ring, Data);
  const RunResult Pipe = runDisjointOnTransport(TransportKind::Pipe, Data);
  ASSERT_TRUE(Ring.succeeded());
  ASSERT_TRUE(Pipe.succeeded());
  EXPECT_GT(Pipe.Stats.WireBytesCopied, 0u);
  EXPECT_LT(Ring.Stats.WireBytesCopied, Pipe.Stats.WireBytesCopied / 10)
      << "ring wire traffic must be doorbells, not records";
  EXPECT_GT(Ring.Stats.WireBytes, 0u)
      << "the records themselves still flow (through shared memory)";
}

TEST(TransportTest, SteadyStateRedispatchesWithoutForking) {
  // The fork-free steady state: once a slot's first warm child is
  // resident, it claims every later chunk itself, with no fork at all. One
  // worker forks one resident, so of the 32 chunks only the first is not
  // a reuse (the bound leaves slack).
  std::vector<int64_t> Data;
  const RunResult R =
      runDisjointOnTransport(TransportKind::Ring, Data, /*Workers=*/1);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GE(R.Stats.ChildReuses, 24u)
      << "nearly every chunk must ride the already-resident child";
  EXPECT_LT(R.Stats.ChildReuses, R.Stats.WarmForks)
      << "reuses are counted inside WarmForks, never beyond them";
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
}

TEST(TransportTest, PipelinedRedispatchKeepsDisjointOutputExact) {
  // The same loop at full width: reuse counts are scheduling-dependent
  // here (a slot refilled before its parked InOrder commit retires forks
  // instead), so assert only the invariants and the output.
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_LE(R.Stats.ChildReuses, R.Stats.WarmForks);
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
}

TEST(TransportTest, KilledResidentsAreReplacedBetweenRedispatches) {
  // Kills on alternate chunks force a template fork into the struck
  // slots, so forks and redispatches interleave throughout the run: every
  // replacement must start on the commits so far, exactly like the
  // residents it sits beside.
  constexpr int64_t N = 64;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I * 7 + 3);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = TransportKind::Ring;
  FaultPlan::global().clear();
  for (int64_t Chunk = 1; Chunk < N / 2; Chunk += 2)
    FaultPlan::global().arm(FaultKind::ChildKill, Chunk, /*Sticky=*/false);
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  const size_t Pending = FaultPlan::global().pendingCount();
  FaultPlan::global().clear();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Pending, 0u) << "every armed kill must have struck";
  EXPECT_EQ(R.Stats.NumChildCrashes, static_cast<uint64_t>(N / 4));
  EXPECT_GT(R.Stats.ChildReuses, 0u);
  EXPECT_GT(R.Stats.WarmForks - R.Stats.ChildReuses, 4u)
      << "killed residents are replaced by template forks";
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 7 + 3);
}

TEST(TransportTest, ConflictHeavyLoopStaysCorrectUnderReuse) {
  // Every iteration read-modify-writes one shared accumulator, so chunks
  // abort constantly. A resident child rolls its memory back to its
  // snapshot after every chunk and catches up from the commit stream
  // before the next, so it re-runs aborted chunks in place; the sum must
  // stay exact through all of it. (The aborted-writes test below covers
  // writes that no later commit would overwrite.)
  constexpr int64_t N = 48;
  int64_t Acc = 0;
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Acc](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Acc, Ctx.load(&Acc) + I + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.NumRetries, 0u)
      << "the loop must actually conflict for this test to mean anything";
  EXPECT_EQ(Acc, N * (N + 1) / 2)
      << "aborted-child memory must never reach committed state";
}

TEST(TransportTest, ConflictHeavyLoopForksOnlyOncePerSlot) {
  // The same conflict storm: with no fault armed, every abort is rolled
  // back inside its resident child, so the template forks exactly one
  // child per slot for the whole run and everything else is redispatch.
  constexpr int64_t N = 48;
  int64_t Acc = 0;
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Acc](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Acc, Ctx.load(&Acc) + I + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 4;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.NumRetries, 0u);
  EXPECT_EQ(Acc, N * (N + 1) / 2);
  EXPECT_EQ(R.Stats.ColdForks, 0u);
  EXPECT_EQ(R.Stats.WarmForks - R.Stats.ChildReuses, 4u)
      << "real forks must be one per slot: aborts re-run in place";
}

/// Shared-memory words a test body can write from any forked child.
class SharedWords {
public:
  explicit SharedWords(size_t N) : Bytes(N * sizeof(int64_t)) {
    void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    Words = Mem == MAP_FAILED ? nullptr : static_cast<int64_t *>(Mem);
  }
  ~SharedWords() {
    if (Words)
      ::munmap(Words, Bytes);
  }
  int64_t *data() const { return Words; }

private:
  size_t Bytes;
  int64_t *Words;
};

/// Disjoint loop whose every chunk writes \p WordsPerIter words per
/// iteration, so its commit records have a predictable size. Each chunk is
/// one iteration. With \p PidLog, every execution of a chunk appends the
/// pid of the process that ran it to PidLog[1..], counting in PidLog[0].
RunResult runWideDisjoint(std::vector<int64_t> &Data, unsigned Workers,
                          int64_t WordsPerIter, size_t StreamBytes,
                          int64_t *PidLog = nullptr) {
  constexpr int64_t N = 24;
  Data.assign(static_cast<size_t>(N * WordsPerIter), -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data, WordsPerIter, PidLog](TxnContext &Ctx, int64_t I) {
    if (PidLog)
      PidLog[1 + __atomic_fetch_add(PidLog, 1, __ATOMIC_SEQ_CST)] = ::getpid();
    for (int64_t K = 0; K != WordsPerIter; ++K)
      Ctx.store(&Data[static_cast<size_t>(I * WordsPerIter + K)], I * K + 1);
  };
  ExecutorConfig Config;
  Config.NumWorkers = Workers;
  Config.Params.ChunkFactor = 1;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Transport = TransportKind::Ring;
  Config.RingBytesPerSlot = StreamBytes;
  PipelineExecutor Exec(Config);
  return Exec.run(Spec);
}

void expectWideDisjointOutput(const std::vector<int64_t> &Data,
                              int64_t WordsPerIter) {
  for (size_t J = 0; J != Data.size(); ++J) {
    const int64_t I = static_cast<int64_t>(J) / WordsPerIter;
    const int64_t K = static_cast<int64_t>(J) % WordsPerIter;
    ASSERT_EQ(Data[J], I * K + 1) << "word " << J;
  }
}

TEST(TransportTest, StreamOverrunReplacesResidentsAndTemplate) {
  // A one-page stream cannot hold a single one of these commits (each
  // writes 1000 words), so from the first commit on every replica is
  // lapped: a resident runs the chunk it claims first and at most one
  // more, claimed on the same snapshot before any commit laps it (no chunk
  // conflicts, so every record the parent takes commits), and a
  // replacement needs a fresh template — forked from the parent when no
  // claim is in flight, a cold fork otherwise. The output must not notice.
  SharedWords Log(1 + 256);
  ASSERT_NE(Log.data(), nullptr);
  std::vector<int64_t> Data;
  const RunResult R = runWideDisjoint(Data, /*Workers=*/3,
                                      /*WordsPerIter=*/1000,
                                      /*StreamBytes=*/4096, Log.data());
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  expectWideDisjointOutput(Data, 1000);
  const int64_t Runs = std::min<int64_t>(Log.data()[0], 256);
  std::map<int64_t, int> RunsPerProcess;
  for (int64_t K = 0; K != Runs; ++K)
    ++RunsPerProcess[Log.data()[1 + K]];
  for (const auto &[Pid, Count] : RunsPerProcess)
    EXPECT_LE(Count, 2) << "process " << Pid
                        << " ran a chunk after a commit lapped it";
  EXPECT_GT(R.Stats.TemplateRefreshes + R.Stats.ColdForks, 0u)
      << "the lapped template must have been replaced or bypassed";
  EXPECT_EQ(R.Stats.NumChildCrashes, 0u)
      << "the parent sees a lapped replica before dispatching to it";
}

TEST(TransportTest, ResidentCatchUpSurvivesStreamWraparound) {
  // The other side of the same bound: with one worker a resident only
  // ever lags by its own last commit, which fits, so it replays every
  // commit across many wraparounds of the small stream and is never
  // replaced.
  std::vector<int64_t> Data;
  const RunResult R = runWideDisjoint(Data, /*Workers=*/1,
                                      /*WordsPerIter=*/100,
                                      /*StreamBytes=*/4096);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  expectWideDisjointOutput(Data, 100);
  EXPECT_EQ(R.Stats.WarmForks - R.Stats.ChildReuses, 1u);
  EXPECT_EQ(R.Stats.TemplateRefreshes, 0u);
}

TEST(TransportTest, LappedTemplateIsRefreshedFromTheParent) {
  // One worker keeps its resident child current across wraparounds of the
  // small stream while the template stays at its spawn snapshot and is
  // soon lapped. Each kill sends the struck chunk's retry to a template
  // fork; the kills are spaced further apart than the stream holds, so
  // each finds the template lapped and, with nothing in flight, replaces
  // it with a fresh fork of the parent instead of degrading to cold.
  FaultPlan::global().clear();
  for (const int64_t Chunk : {6, 12, 18})
    FaultPlan::global().arm(FaultKind::ChildKill, Chunk, /*Sticky=*/false);
  std::vector<int64_t> Data;
  const RunResult R = runWideDisjoint(Data, /*Workers=*/1,
                                      /*WordsPerIter=*/100,
                                      /*StreamBytes=*/4096);
  const size_t Pending = FaultPlan::global().pendingCount();
  FaultPlan::global().clear();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Pending, 0u) << "every armed kill must have struck";
  expectWideDisjointOutput(Data, 100);
  EXPECT_GE(R.Stats.TemplateRefreshes, 1u)
      << "a lapped template must be replaced through the stream check";
  EXPECT_GT(R.Stats.warmForkRate(), 0.9)
      << "refreshes re-fork the template, they do not degrade to cold";
}

TEST(TransportTest, AbortedWritesDoNotSurviveInTheResidentChild) {
  // Insert-if-absent into a set of flags, counting insertions in one
  // shared counter: the counter makes most chunks abort, and an aborted
  // attempt has already set its flags. A resident child that kept those
  // writes would see its own flags on the retry, skip the insertions, and
  // commit a count that is short — nothing committed later overwrites a
  // flag the parent never saw set.
  constexpr int64_t N = 480;
  constexpr int64_t Keys = 160;
  std::vector<int64_t> Flag(Keys, 0);
  int64_t Count = 0;
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Flag, &Count](TxnContext &Ctx, int64_t I) {
    int64_t *F = &Flag[static_cast<size_t>((I * 7) % Keys)];
    if (Ctx.load(F) == 0) {
      Ctx.store(F, int64_t(1));
      Ctx.store(&Count, Ctx.load(&Count) + 1);
    }
  };
  ExecutorConfig Config;
  Config.NumWorkers = 3;
  Config.Params.ChunkFactor = 8;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.NumRetries, 0u);
  EXPECT_GT(R.Stats.ChildReuses, 0u);
  EXPECT_EQ(Count, Keys);
  for (int64_t K = 0; K != Keys; ++K)
    EXPECT_EQ(Flag[static_cast<size_t>(K)], 1) << "key " << K;
}

TEST(TransportTest, AbortedAllocationsAreRolledBackInTheResidentChild) {
  // Every iteration allocates a node and pushes it onto one shared list,
  // so most chunks abort after allocating. A resident child rolls its
  // arena cursor back with its memory and advances it again only by
  // replaying committed records: the list must hold every node exactly
  // once, intact, and the arenas must hold nothing but those nodes.
  struct Node {
    int64_t Value;
    Node *Next;
  };
  constexpr int64_t N = 48;
  constexpr unsigned Workers = 3;
  AlterAllocator Alloc(Workers, 1 << 20);
  size_t NodeBytes = 0;
  {
    AlterAllocator Probe(1, 1 << 20);
    Probe.allocate(1, sizeof(Node));
    NodeBytes = Probe.bumpOffset(1);
  }
  Node *Head = nullptr;
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Head](TxnContext &Ctx, int64_t I) {
    Node *Fresh = static_cast<Node *>(Ctx.allocate(sizeof(Node)));
    Ctx.storeInit(&Fresh->Value, I);
    Ctx.storeInit(&Fresh->Next, Ctx.load(&Head));
    Ctx.store(&Head, Fresh);
  };
  ExecutorConfig Config;
  Config.NumWorkers = Workers;
  Config.Params.ChunkFactor = 2;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Allocator = &Alloc;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GT(R.Stats.NumRetries, 0u) << "the shared head must conflict";
  EXPECT_GT(R.Stats.ChildReuses, 0u) << "aborts must re-run in place";

  std::set<int64_t> Values;
  std::set<const Node *> Nodes;
  for (const Node *P = Head; P && Nodes.size() <= N; P = P->Next) {
    Nodes.insert(P);
    Values.insert(P->Value);
  }
  EXPECT_EQ(Nodes.size(), static_cast<size_t>(N));
  EXPECT_EQ(Values.size(), static_cast<size_t>(N));
  if (!Values.empty()) {
    EXPECT_EQ(*Values.begin(), 0);
    EXPECT_EQ(*Values.rbegin(), N - 1);
  }
  size_t ArenaBytes = 0;
  for (unsigned W = 1; W <= Workers; ++W)
    ArenaBytes += Alloc.bumpOffset(W);
  EXPECT_EQ(ArenaBytes, static_cast<size_t>(N) * NodeBytes)
      << "an aborted chunk's allocations must not stay in its arena";
}

TEST(TransportTest, InOrderRedispatchesWhileAChunkIsParked) {
  // Chunk 0 sleeps, so the chunks after it complete first and park for
  // in-order retirement. With no allocator a parked report does not hold
  // its resident back: it claims its next chunk at once and works ahead. The
  // later chunks count themselves in shared memory; chunk 0 reads the
  // count when it wakes.
  void *Mem = ::mmap(nullptr, 2 * sizeof(int64_t), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(Mem, MAP_FAILED);
  int64_t *Done = static_cast<int64_t *>(Mem);
  int64_t *SeenByChunk0 = Done + 1;
  *Done = 0;
  *SeenByChunk0 = -1;
  constexpr int64_t N = 12;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data, Done, SeenByChunk0](TxnContext &Ctx, int64_t I) {
    if (I == 0) {
      sleepMs(300);
      __atomic_store_n(SeenByChunk0, __atomic_load_n(Done, __ATOMIC_SEQ_CST),
                       __ATOMIC_SEQ_CST);
    }
    Ctx.store(&Data[static_cast<size_t>(I)], I * 11 + 5);
    if (I != 0)
      __atomic_add_fetch(Done, 1, __ATOMIC_SEQ_CST);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 2;
  Config.Params.ChunkFactor = 1;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Transport = TransportKind::Ring;
  PipelineExecutor Exec(Config);
  const RunResult R = Exec.run(Spec);
  const int64_t Seen = __atomic_load_n(SeenByChunk0, __ATOMIC_SEQ_CST);
  ::munmap(Mem, 2 * sizeof(int64_t));
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_GE(Seen, 2) << "the second slot must run past its parked chunk";
  EXPECT_GE(R.Stats.ChildReuses, 2u);
  EXPECT_TRUE(std::is_sorted(R.CommitOrder.begin(), R.CommitOrder.end()));
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 11 + 5);
}


//===----------------------------------------------------------------------===
// Self-scheduled residents: chunks claimed from the shared dispatch queue
//===----------------------------------------------------------------------===

/// Live (unreaped) children of this process, per the kernel.
std::string liveChildren() {
  std::ifstream In("/proc/self/task/" + std::to_string(::getpid()) +
                   "/children");
  std::string Out((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  while (!Out.empty() && (Out.back() == ' ' || Out.back() == '\n'))
    Out.pop_back();
  return Out;
}

TEST(TransportTest, SteadyStateForksOncePerSlotAndCopiesNoPipeBytes) {
  // No fault, no conflict: every slot forks one resident, which claims
  // chunk after chunk from the queue. The parent writes nothing to a child
  // per chunk (there is no command channel left to write), and no record
  // rings a pipe: residents count records in shared memory and wake the
  // parent through a futex.
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
  EXPECT_EQ(R.Stats.WarmForks - R.Stats.ChildReuses, 4u)
      << "exactly one fork per slot";
  EXPECT_EQ(R.Stats.ColdForks, 0u);
  EXPECT_GE(R.Stats.ChildReuses + 4, R.Stats.NumTransactions)
      << "every chunk after a resident's first is a reuse";
  EXPECT_EQ(R.Stats.WireBytesCopied, 0u)
      << "no doorbell byte, let alone a record, crosses a pipe";
}

TEST(TransportTest, ChildDeathAfterAClaimRequeuesTheChunk) {
  // A resident killed after its chunk's work (ChildKill), or before any
  // work — right after the claim, before its first write (ChildCrash) —
  // loses nothing: the parent finds the claim in the queue and requeues
  // the chunk, under either commit order.
  for (FaultKind Kind : {FaultKind::ChildKill, FaultKind::ChildCrash}) {
    for (CommitOrderPolicy Order :
         {CommitOrderPolicy::InOrder, CommitOrderPolicy::OutOfOrder}) {
      SCOPED_TRACE(std::string(faultKindName(Kind)) + "/" +
                   commitOrderPolicyName(Order));
      constexpr int64_t N = 48;
      std::vector<int64_t> Data(N, -1);
      LoopSpec Spec;
      Spec.NumIterations = N;
      Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
        Ctx.store(&Data[static_cast<size_t>(I)], I * 9 + 4);
      };
      ExecutorConfig Config;
      Config.NumWorkers = 3;
      Config.Params.ChunkFactor = 2;
      Config.Params.CommitOrder = Order;
      Config.Transport = TransportKind::Ring;
      FaultPlan::global().clear();
      FaultPlan::global().arm(Kind, /*Chunk=*/5, /*Sticky=*/false);
      const RunResult R = PipelineExecutor(Config).run(Spec);
      const size_t Pending = FaultPlan::global().pendingCount();
      FaultPlan::global().clear();
      ASSERT_TRUE(R.succeeded()) << R.Detail;
      EXPECT_EQ(Pending, 0u) << "the fault must have struck";
      EXPECT_EQ(R.Stats.NumChildCrashes, 1u);
      EXPECT_EQ(R.Stats.NumCommitted, static_cast<uint64_t>(N / 2));
      for (int64_t I = 0; I != N; ++I)
        EXPECT_EQ(Data[static_cast<size_t>(I)], I * 9 + 4) << "iteration "
                                                           << I;
      if (Order == CommitOrderPolicy::InOrder) {
        EXPECT_TRUE(std::is_sorted(R.CommitOrder.begin(), R.CommitOrder.end()));
      }
      EXPECT_EQ(liveChildren(), "") << "no child may be leaked";
    }
  }
}

TEST(TransportTest, RejectedRecordRetiresTheResidentAndRequeuesLaterClaims) {
  // A bit-flipped record is rejected; the ring's framing after it cannot
  // be trusted, so its resident is retired, and every chunk
  // it claimed after that record runs again in another process. Each
  // execution logs (sequence number, chunk, pid) in shared memory to check
  // the second half; the one-ahead claim makes such chunks common.
  constexpr int64_t N = 48;
  constexpr int64_t BadChunk = 6;
  SharedWords Log(1 + 3 * 256);
  ASSERT_NE(Log.data(), nullptr);
  int64_t *Seq = Log.data();
  int64_t *Entries = Log.data() + 1;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data, Seq, Entries](TxnContext &Ctx, int64_t I) {
    const int64_t K = __atomic_fetch_add(Seq, 1, __ATOMIC_SEQ_CST);
    if (K < 256) {
      Entries[3 * K] = K;
      Entries[3 * K + 1] = I;
      Entries[3 * K + 2] = ::getpid();
    }
    Ctx.store(&Data[static_cast<size_t>(I)], I * 3 + 8);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 3;
  Config.Params.ChunkFactor = 1;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Transport = TransportKind::Ring;
  FaultPlan::global().clear();
  FaultPlan::global().setSeed(3);
  FaultPlan::global().arm(FaultKind::BitFlip, BadChunk, /*Sticky=*/false);
  const RunResult R = PipelineExecutor(Config).run(Spec);
  FaultPlan::global().clear();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 3 + 8) << "iteration " << I;
  EXPECT_EQ(R.Stats.NumWireRejects, 1u);
  EXPECT_EQ(R.Stats.NumChildCrashes, 0u);
  // The retired resident's successor is forked once the template has
  // reaped it, and only if chunks are left by then.
  EXPECT_GE(R.Stats.WarmForks - R.Stats.ChildReuses, 3u);
  EXPECT_LE(R.Stats.WarmForks - R.Stats.ChildReuses, 3u + 1u)
      << "at most one successor for the retired resident";

  const int64_t Runs = std::min<int64_t>(*Seq, 256);
  int64_t BadSeq = -1, BadPid = -1;
  for (int64_t K = 0; K != Runs; ++K)
    if (Entries[3 * K + 1] == BadChunk && BadSeq < 0) {
      BadSeq = K;
      BadPid = Entries[3 * K + 2];
    }
  ASSERT_GE(BadSeq, 0);
  for (int64_t K = BadSeq + 1; K != Runs; ++K) {
    if (Entries[3 * K + 2] != BadPid)
      continue;
    // A later claim of the retired resident: it must have run again
    // elsewhere.
    bool Rerun = false;
    for (int64_t J = K + 1; J != Runs; ++J)
      Rerun |= Entries[3 * J + 1] == Entries[3 * K + 1] &&
               Entries[3 * J + 2] != BadPid;
    EXPECT_TRUE(Rerun) << "chunk " << Entries[3 * K + 1];
  }
}

TEST(TransportTest, InOrderAllocatingLoopsKeepArenasDisjoint) {
  // Genome (input 0) allocates hash-table nodes under in-order retirement:
  // parked reports hold allocations a resident must never hand out again.
  {
    auto Ref = makeWorkload("genome");
    Ref->setUp(0);
    Ref->runSequential();
    const std::vector<double> RefSig = Ref->outputSignature();
    auto W = makeWorkload("genome");
    W->setUp(0);
    const RunResult R = W->runPipeline(
        paramsForSequentialSpeculation(W->defaultChunkFactor()),
        /*NumWorkers=*/3);
    ASSERT_TRUE(R.succeeded()) << R.Detail;
    EXPECT_TRUE(W->validate(RefSig));
  }
  // The same guarantee, checked directly: chunk 0 is slow, so the chunks
  // after it park with their allocations, and a kill replaces a resident
  // while they are parked. Every node must be distinct, intact and
  // disjoint from every other.
  struct Node {
    int64_t Value;
    int64_t Pad[3];
  };
  constexpr int64_t N = 24;
  constexpr unsigned Workers = 3;
  AlterAllocator Alloc(Workers, 1 << 20);
  std::vector<Node *> Slot(N, nullptr);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Slot](TxnContext &Ctx, int64_t I) {
    if (I == 0)
      sleepMs(100);
    Node *Fresh = static_cast<Node *>(Ctx.allocate(sizeof(Node)));
    Ctx.storeInit(&Fresh->Value, I * 13 + 1);
    Ctx.store(&Slot[static_cast<size_t>(I)], Fresh);
  };
  ExecutorConfig Config;
  Config.NumWorkers = Workers;
  Config.Params.ChunkFactor = 1;
  Config.Params.CommitOrder = CommitOrderPolicy::InOrder;
  Config.Allocator = &Alloc;
  Config.Transport = TransportKind::Ring;
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::ChildKill, /*Chunk=*/4, /*Sticky=*/false);
  const RunResult R = PipelineExecutor(Config).run(Spec);
  FaultPlan::global().clear();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(R.Stats.NumChildCrashes, 1u);
  std::set<uintptr_t> Starts;
  for (int64_t I = 0; I != N; ++I) {
    const Node *P = Slot[static_cast<size_t>(I)];
    ASSERT_NE(P, nullptr) << "iteration " << I;
    EXPECT_EQ(P->Value, I * 13 + 1) << "iteration " << I;
    Starts.insert(reinterpret_cast<uintptr_t>(P));
  }
  ASSERT_EQ(Starts.size(), static_cast<size_t>(N)) << "no node shared";
  for (auto It = Starts.begin(); std::next(It) != Starts.end(); ++It)
    EXPECT_GE(*std::next(It) - *It, sizeof(Node)) << "nodes overlap";
}

TEST(TransportTest, FailedResidentForkIsAForkFailureAndRunsTheSlotCold) {
  // The template's fork of slot 1's resident fails once. That resident
  // never announces itself, so its reap doorbell is a fork failure, not a
  // crash: counted as such and as a pool fault, not as a warm fork, and
  // slot 1 runs a cold child before it forks a resident again.
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::SpawnFail, /*Slot=*/1);
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data,
                                             /*Workers=*/3);
  const size_t Pending = FaultPlan::global().pendingCount();
  FaultPlan::global().clear();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  EXPECT_EQ(Pending, 0u) << "the fault must have struck";
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
  EXPECT_EQ(R.Stats.NumForkFailures, 1u);
  EXPECT_GE(R.Stats.PoolFaults, 1u);
  EXPECT_GE(R.Stats.ColdForks, 1u) << "the slot must have run cold";
  EXPECT_EQ(R.Stats.NumChildCrashes, 0u);
  EXPECT_LE(R.Stats.WarmForks - R.Stats.ChildReuses, 3u)
      << "the failed fork is not a warm fork";
  EXPECT_EQ(liveChildren(), "") << "no child may be leaked";
}

TEST(TransportTest, LastingResidentForkFailureStillFinishesTheRun) {
  // Every resident fork fails. The run must not spin re-sending spawns:
  // each failure sends its slot to a cold child, so every chunk runs cold
  // and the run finishes.
  FaultPlan::global().clear();
  for (int64_t Slot = 0; Slot != 3; ++Slot)
    FaultPlan::global().arm(FaultKind::SpawnFail, Slot, /*Sticky=*/true);
  std::vector<int64_t> Data;
  const RunResult R = runDisjointOnTransport(TransportKind::Ring, Data,
                                             /*Workers=*/3);
  FaultPlan::global().clear();
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I * 5 + 2);
  EXPECT_EQ(R.Stats.WarmForks, 0u) << "no resident ever came up";
  EXPECT_EQ(R.Stats.ColdForks, R.Stats.NumTransactions);
  EXPECT_GE(R.Stats.NumForkFailures, 3u);
  EXPECT_GE(R.Stats.PoolFaults, R.Stats.NumForkFailures);
  EXPECT_EQ(R.Stats.NumChildCrashes, 0u);
  EXPECT_EQ(liveChildren(), "") << "no child may be leaked";
}

TEST(TransportTest, StalledClaimIsKilledByTheDeadline) {
  // A resident stalls on the chunk it claimed: the deadline ends the run
  // as Timeout long before the stall would, and tearing the pool down
  // leaves no child behind.
  constexpr int64_t N = 32;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&Data](TxnContext &Ctx, int64_t I) {
    Ctx.store(&Data[static_cast<size_t>(I)], I);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 3;
  Config.Params.ChunkFactor = 2;
  Config.Transport = TransportKind::Ring;
  Config.SeqBaselineNs = 2'000'000; // a 20 ms deadline
  FaultPlan::global().clear();
  FaultPlan::global().arm(FaultKind::Stall, /*Chunk=*/3, /*Sticky=*/false);
  FaultPlan::global().setStallNs(5'000'000'000ULL);
  const uint64_t T0 = nowNs();
  const RunResult R = PipelineExecutor(Config).run(Spec);
  const uint64_t Elapsed = nowNs() - T0;
  FaultPlan::global().clear();
  EXPECT_EQ(R.Status, RunStatus::Timeout) << R.Detail;
  EXPECT_LT(Elapsed, 2'000'000'000ULL) << "the stall must not be waited out";
  EXPECT_EQ(liveChildren(), "") << "no child may be leaked";
}

TEST(TransportTest, StarvationDrainRunsTheStarvingChunkAlone) {
  // Chunk 0 reads a cell every other chunk writes, and each attempt waits
  // (boundedly) until another body has finished, so a commit lands after
  // its snapshot: it fails validation over and over under OutOfOrder until
  // the starvation guard retracts the queue, waits for the residents to go
  // idle, and publishes it alone. Each attempt logs how many bodies ran
  // beside it.
  constexpr int64_t N = 48;
  SharedWords Shared(3 + 64);
  ASSERT_NE(Shared.data(), nullptr);
  int64_t *Running = Shared.data();
  int64_t *Attempts = Shared.data() + 1;
  int64_t *Done = Shared.data() + 2;
  int64_t *Seen = Shared.data() + 3; // per attempt of chunk 0: max running
  int64_t Hot = 0;
  std::vector<int64_t> Data(N, -1);
  LoopSpec Spec;
  Spec.NumIterations = N;
  Spec.Body = [&](TxnContext &Ctx, int64_t I) {
    int64_t Now = __atomic_add_fetch(Running, 1, __ATOMIC_SEQ_CST);
    if (I == 0) {
      const int64_t A = __atomic_fetch_add(Attempts, 1, __ATOMIC_SEQ_CST);
      (void)Ctx.load(&Hot);
      const int64_t Done0 = __atomic_load_n(Done, __ATOMIC_SEQ_CST);
      for (int W = 0;
           W != 50 && __atomic_load_n(Done, __ATOMIC_SEQ_CST) == Done0; ++W)
        sleepMs(1);
      sleepMs(2);
      Now = std::max(Now, __atomic_load_n(Running, __ATOMIC_SEQ_CST));
      if (A < 64)
        Seen[A] = Now;
    } else {
      sleepMs(3);
      Ctx.store(&Hot, I);
      __atomic_add_fetch(Done, 1, __ATOMIC_SEQ_CST);
    }
    Ctx.store(&Data[static_cast<size_t>(I)], I + 100);
    __atomic_sub_fetch(Running, 1, __ATOMIC_SEQ_CST);
  };
  ExecutorConfig Config;
  Config.NumWorkers = 3;
  Config.Params.ChunkFactor = 1;
  Config.Params.Conflict = ConflictPolicy::RAW;
  Config.Params.CommitOrder = CommitOrderPolicy::OutOfOrder;
  Config.Transport = TransportKind::Ring;
  const RunResult R = PipelineExecutor(Config).run(Spec);
  ASSERT_TRUE(R.succeeded()) << R.Detail;
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Data[static_cast<size_t>(I)], I + 100);
  const int64_t A = std::min<int64_t>(*Attempts, 64);
  ASSERT_GT(A, static_cast<int64_t>(PipelineExecutor::StarvationRetryLimit))
      << "chunk 0 must have starved into the guard";
  EXPECT_EQ(Seen[A - 1], 1) << "its last attempt ran alone";
}

} // namespace
