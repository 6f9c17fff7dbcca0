//===- runtime/ParentLane.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ParentLane.h"

#include "runtime/CommitJournal.h"
#include "runtime/ShutdownSupervisor.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <sys/wait.h>

using namespace alter;

ParentLane::ParentLane(const char *Engine, const LoopSpec &Spec,
                       const ExecutorConfig &Config, ScheduleKind Schedule,
                       int64_t ChunkFactor, ConflictPolicy Conflict,
                       LaneClock Clock)
    : Sink(Config.Trace), Detector(Conflict), Cf(ChunkFactor),
      NumChunks((Spec.NumIterations + ChunkFactor - 1) / ChunkFactor),
      Engine(Engine), Spec(Spec), Config(Config), Clock(Clock),
      StartNs(nowNs()) {
  Result.ScheduleUsed = Schedule;
  Result.ChunkFactorUsed = Cf;
  ensureShutdownSupervisorInstalled();
}

int64_t ParentLane::last(int64_t Chunk) const {
  return std::min<int64_t>(first(Chunk) + Cf, Spec.NumIterations);
}

void ParentLane::startPool(bool Residents) {
  if (Config.Transport != TransportKind::Ring)
    return;
  Pool = std::make_unique<WorkerPool>(Spec, Config, Config.NumWorkers,
                                      Residents, Stats);
  StartNs = nowNs();
  if (Pool->valid())
    return;
  // Resource exhaustion while building the rings/pipes (ENOMEM/EMFILE):
  // retreat to the cold pipe transport for this run instead of aborting.
  ++Stats.ResourceFaults;
  ++Stats.TransportDowngrades;
  if (Sink.events()) {
    Sink.event(TraceEventKind::ResourceFault, /*Worker=*/0, /*Chunk=*/-1,
               traceNowNs(), 0, /*Arg0=*/Pool->setupFaultSite());
    Sink.event(TraceEventKind::Downgrade, /*Worker=*/0, /*Chunk=*/-1,
               traceNowNs(), 0, /*Arg0=*/0, /*Arg1=*/Config.NumWorkers);
  }
  Pool.reset();
}

bool ParentLane::takeFault(int64_t Chunk, uint32_t Worker,
                           ArmedFault &Fault) {
  faultParentKillPoint(); // crash-restart: parent dies at dispatch
  Fault = ArmedFault();
  if (!FaultPlan::global().enabled())
    return true;
  // Fault points address the ORIGINAL coordinates of the work: a salvage
  // sub-run re-indexes chunks, so map back before consuming.
  FaultCoords FC{Chunk, first(Chunk), last(Chunk)};
  if (Spec.FaultRemap)
    FC = Spec.FaultRemap(FC.Chunk, FC.FirstIter, FC.LastIter);
  Fault = FaultPlan::global().take(FC.Chunk, FC.FirstIter, FC.LastIter);
  if (Fault.Armed && Fault.Kind == FaultKind::SignalStorm) {
    // The storm targets the parent, not the chunk: latch a shutdown
    // request; the engine winds down into Interrupted.
    requestShutdown();
    return false;
  }
  if (Fault.Armed && Fault.Kind == FaultKind::ForkFail) {
    forkFailed(Chunk, Worker);
    return false;
  }
  return true;
}

void ParentLane::forkFailed(int64_t Chunk, uint32_t Worker) {
  ++Stats.NumForkFailures;
  ++Stats.ResourceFaults;
  if (Sink.events())
    Sink.event(TraceEventKind::ResourceFault, Worker, Chunk, traceNowNs(), 0,
               /*Arg0=*/2);
}

bool ParentLane::launch(unsigned Slot, int64_t Chunk,
                        const std::vector<int> &CloseInChild,
                        ChunkChannel &Ch) {
  ArmedFault Fault;
  if (!takeFault(Chunk, /*Worker=*/0, Fault))
    return false;
  return spawn(Slot, Chunk, Fault, CloseInChild, Ch, Pool.get(), 0);
}

bool ParentLane::spawn(unsigned Slot, int64_t Chunk, const ArmedFault &Fault,
                       const std::vector<int> &CloseInChild, ChunkChannel &Ch,
                       WorkerPool *Via, uint64_t BumpFloor) {
  if (!spawnChunkChild(Spec, Config, Via, Slot, Chunk, first(Chunk),
                       last(Chunk), Fault, CloseInChild, Ch, BumpFloor)) {
    forkFailed(Chunk, /*Worker=*/0);
    return false;
  }
  if (Ch.Warm)
    ++Stats.WarmForks;
  else
    ++Stats.ColdForks;
  if (Sink.events())
    Sink.event(TraceEventKind::Fork, /*Worker=*/0, Chunk, traceNowNs(), 0,
               /*Arg0=*/Slot + 1, /*Arg1=*/Ch.Warm ? 1 : 0);
  return true;
}

void ParentLane::claimed(unsigned Slot, int64_t Chunk, bool Reuse) {
  if (Sink.events())
    Sink.event(TraceEventKind::Fork, /*Worker=*/0, Chunk, traceNowNs(), 0,
               /*Arg0=*/Slot + 1, /*Arg1=*/Reuse ? 2 : 1);
}

bool ParentLane::reap(ChunkChannel &Ch, ChildReport &Rep, std::string &Why) {
  Stats.WireBytesCopied += Ch.BytesCopied;
  if (Ch.Warm) {
    // The template reaped the child; its doorbell carried the verdict.
    if (Ch.Abnormal) {
      ++Stats.NumChildCrashes;
      Why = "pooled child terminated abnormally";
      return false;
    }
  } else {
    int Status = 0;
    if (!reapPid(Ch.DirectPid, &Status)) {
      ++Stats.NumChildCrashes;
      Why = "waitpid failure";
      return false;
    }
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      ++Stats.NumChildCrashes;
      Why = strprintf("terminated abnormally (status 0x%x)", Status);
      return false;
    }
  }
  return decode(Ch.Buf, Rep, Why);
}

bool ParentLane::decode(const std::vector<uint8_t> &Frame, ChildReport &Rep,
                        std::string &Why) {
  std::string Error;
  if (decodeChildReport(Frame, Spec, Config.Params, Rep, Error))
    return true;
  ++Stats.NumWireRejects;
  Why = "rejected commit message: " + Error;
  return false;
}

void ParentLane::addUsage(const ChildRusage &Usage) {
  Stats.ChildUserNs += Usage.UserNs;
  Stats.ChildSysNs += Usage.SysNs;
  Stats.MaxChildRssBytes = std::max(Stats.MaxChildRssBytes, Usage.MaxRssBytes);
}

bool ParentLane::reapPid(pid_t Pid, int *Status) {
  ChildRusage Usage;
  if (waitpidRusage(Pid, Status, &Usage) < 0)
    return false;
  addUsage(Usage);
  return true;
}

bool ParentLane::account(const ChildReport &Rep) {
  Stats.ReadSetWords.add(static_cast<double>(Rep.Reads.sizeWords()));
  Stats.WriteSetWords.add(static_cast<double>(Rep.Writes.sizeWords()));
  if (Rep.LimitExceeded)
    return false;
  ++Stats.NumTransactions;
  Stats.InstrReadCalls += Rep.InstrReadCalls;
  Stats.InstrWriteCalls += Rep.InstrWriteCalls;
  Stats.BytesRead += Rep.BytesRead;
  Stats.BytesWritten += Rep.BytesWritten;
  Stats.WireBytes += Rep.WireBytes;
  Stats.WireBytesRaw += Rep.RawWireBytes;
  Stats.WorkerBusyNs += Rep.WorkNs;
  Sink.absorbChild(Rep.Trace);
  if (Rep.Metrics)
    Result.Metrics.merge(*Rep.Metrics);
  return true;
}

ParentLane::ValidateClock ParentLane::beginValidate() {
  ValidateClock C;
  C.TraceNs = Sink.events() ? traceNowNs() : 0;
  C.RealNs = Config.Metrics ? nowNs() : 0;
  faultParentKillPoint(); // crash-restart: parent dies at validate
  return C;
}

void ParentLane::endValidate(int64_t Chunk, const ValidateClock &C,
                             bool Conflicts, uintptr_t Witness) {
  if (Config.Metrics) {
    Result.Metrics.record(HistogramId::ValidateNs, nowNs() - C.RealNs);
    Result.Metrics.addCounter(CounterId::ParentValidates);
  }
  if (Sink.events())
    Sink.event(TraceEventKind::Validate, /*Worker=*/0, Chunk, C.TraceNs,
               traceNowNs() - C.TraceNs, /*Arg0=*/Conflicts ? 1 : 0,
               /*Arg1=*/Witness);
}

void ParentLane::retry(int64_t Chunk, uintptr_t Witness) {
  ++Stats.NumRetries;
  if (Sink.counters())
    Sink.conflict(Chunk, Witness);
  if (Sink.events())
    Sink.event(TraceEventKind::Retry, /*Worker=*/0, Chunk, traceNowNs());
}

void ParentLane::commit(ChildReport &Rep, int64_t Chunk, unsigned Arena,
                        bool Retire) {
  ++Stats.NumCommitted;
  const uint64_t TraceT0 = Sink.events() ? traceNowNs() : 0;
  const uint64_t RealT0 = Config.Metrics ? nowNs() : 0;
  // Write-ahead: journal the commit before applying it. A crash in the gap
  // replays the chunk by re-execution, which re-derives these same effects
  // from the rebuilt prefix state.
  if (Retire)
    retireChunk(Chunk, Rep.Log);
  // Apply the child's writes verbatim: the ALTER allocator guarantees
  // address disjointness, so this cannot clobber live parent data.
  applyCommit(Spec, Config, Arena, Rep.Log, Rep.Slots, Rep.BumpOffset);
  // Stream the commit to the warm replicas (template and residents) at
  // the exact point it is applied here; they replay it before their next
  // chunk.
  if (Pool)
    Pool->pushCommit(Arena, Rep);
  if (Config.Metrics) {
    Result.Metrics.record(HistogramId::CommitNs, nowNs() - RealT0);
    Result.Metrics.addCounter(CounterId::ParentCommits);
  }
  if (Sink.events())
    Sink.event(TraceEventKind::Commit, /*Worker=*/0, Chunk, TraceT0,
               traceNowNs() - TraceT0, /*Arg0=*/Rep.Log.dataBytes());
}

void ParentLane::retireChunk(int64_t Chunk, const WriteLog &Log) {
  if (Config.Journal)
    Config.Journal->appendCommit(Chunk, first(Chunk), last(Chunk), &Log);
  faultParentKillPoint(); // crash-restart: parent dies at commit
  Result.CommitOrder.push_back(Chunk);
}

bool ParentLane::chargeFault(int64_t Chunk, const std::string &Why) {
  const unsigned Count = ++FaultCounts[Chunk];
  if (Count > Config.ChunkFaultRetryLimit) {
    fail(Chunk, strprintf("chunk %lld failed %u consecutive attempts (%s)",
                          static_cast<long long>(Chunk), Count, Why.c_str()));
    return false;
  }
  if (Sink.events())
    Sink.event(TraceEventKind::FaultContained, /*Worker=*/0, Chunk,
               traceNowNs(), 0, /*Arg0=*/Count);
  return true;
}

void ParentLane::fail(int64_t Chunk, std::string Detail) {
  if (Failed)
    return;
  Failed = true;
  Result.FailedChunk = Chunk;
  FailDetail = std::move(Detail);
}

void ParentLane::sample(uint64_t Inflight, bool Force) {
  if (!Config.Metrics)
    return;
  const uint64_t Now = traceNowNs();
  if (!Force && Sampled && Now - LastSampleNs < Config.MetricsSampleIntervalNs)
    return;
  Sampled = true;
  LastSampleNs = Now;
  TimelineSample S;
  S.TimeNs = Now;
  S.Committed = Stats.NumCommitted;
  S.Retries = Stats.NumRetries;
  S.WarmForks = Stats.WarmForks;
  S.ColdForks = Stats.ColdForks;
  S.InflightChunks = Inflight;
  S.RingDepthBytes = Pool ? Pool->ringDepthBytes() : 0;
  S.BusyNs = Stats.WorkerBusyNs;
  S.SlotNs = (nowNs() - StartNs) * Config.NumWorkers;
  Result.Timeline.push_back(S);
  Result.Metrics.addCounter(CounterId::TimelineSamples);
  Result.Metrics.gaugeMax(GaugeId::PeakInflight, Inflight);
  Result.Metrics.gaugeMax(GaugeId::PeakRingDepthBytes, S.RingDepthBytes);
}

RunResult ParentLane::finish(RunStatus Status, std::string Detail) {
  Result.Status = Status;
  Result.Detail = std::move(Detail);
  Stats.RealTimeNs = nowNs() - StartNs;
  if (Clock == LaneClock::Real)
    Stats.SimTimeNs = Stats.RealTimeNs;
  Stats.WorkerSlotNs =
      (Clock == LaneClock::Modeled ? Stats.SimTimeNs : Stats.RealTimeNs) *
      Config.NumWorkers;
  Stats.BloomChecks = Detector.bloomChecks();
  Stats.BloomSkips = Detector.bloomSkips();
  Stats.BloomFalsePositives = Detector.bloomFalsePositives();
  if (Pool) {
    if (!Pool->valid()) {
      // The pool died mid-run (failed ring respawn under exhaustion):
      // every later fork already degraded cold; account the downgrade.
      ++Stats.ResourceFaults;
      ++Stats.TransportDowngrades;
    }
    // Retire the template now (the destructor would, but too late to read
    // the rusage): wait4 on it folds in the CPU time of every warm child
    // it reaped, so the warm lineage is accounted transitively.
    Pool->retire();
    addUsage(Pool->templateRusage());
    Stats.ClaimSleeps += Pool->claimSleeps();
  }
  sample(0, /*Force=*/true);
  logRunDone(Engine, Result);
  Sink.finish(Result);
  return std::move(Result);
}

RunResult ParentLane::interrupt() {
  const uint64_t Done = Result.CommitOrder.size();
  if (Sink.events())
    Sink.event(TraceEventKind::Interrupt, /*Worker=*/0, /*Chunk=*/-1,
               traceNowNs(), 0, /*Arg0=*/Done);
  return finish(RunStatus::Interrupted,
                strprintf("interrupted by shutdown request (signal %d) with "
                          "%llu of %lld chunks committed",
                          shutdownSignal(),
                          static_cast<unsigned long long>(Done),
                          static_cast<long long>(NumChunks)));
}
