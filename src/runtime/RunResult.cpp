//===- runtime/RunResult.cpp ----------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/RunResult.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>

using namespace alter;

const char *alter::runStatusName(RunStatus Status) {
  switch (Status) {
  case RunStatus::Success:
    return "success";
  case RunStatus::Crash:
    return "crash";
  case RunStatus::Timeout:
    return "timeout";
  case RunStatus::Interrupted:
    return "interrupted";
  }
  ALTER_UNREACHABLE("covered switch");
}

const char *alter::scheduleKindName(ScheduleKind Kind) {
  switch (Kind) {
  case ScheduleKind::Unknown:
    return "unknown";
  case ScheduleKind::Sequential:
    return "sequential";
  case ScheduleKind::Chunked:
    return "chunked";
  case ScheduleKind::Staged:
    return "staged";
  }
  ALTER_UNREACHABLE("covered switch");
}

namespace {

// The merge rules of ALTER_RUN_STATS; each accepts only its row type.
void mergeSum(uint64_t &A, uint64_t B) { A += B; }
void mergeMax(uint64_t &A, uint64_t B) { A = std::max(A, B); }
void mergeOr(bool &A, bool B) { A = A || B; }
void mergeStat(RunningStat &A, const RunningStat &B) { A.merge(B); }

const char *rowKey(StatsEmitter Emitter, const char *Key,
                   const char *MetricsKey, bool InRunDone) {
  switch (Emitter) {
  case StatsEmitter::Bench:
    return Key;
  case StatsEmitter::Metrics:
    return MetricsKey;
  case StatsEmitter::RunDone:
    return InRunDone ? Key : nullptr;
  }
  ALTER_UNREACHABLE("covered switch");
}

void renderPair(std::string &Out, StatsEmitter Emitter, const char *Sep,
                const std::string &Key, const std::string &Value) {
  Out += Sep;
  Out += Emitter == StatsEmitter::RunDone ? Key + "=" + Value
                                          : "\"" + Key + "\": " + Value;
}

void renderRow(std::string &Out, StatsEmitter Emitter, const char *Sep,
               const char *Key, uint64_t V) {
  renderPair(Out, Emitter, Sep, Key,
             strprintf("%llu", static_cast<unsigned long long>(V)));
}

void renderRow(std::string &Out, StatsEmitter Emitter, const char *Sep,
               const char *Key, bool V) {
  renderPair(Out, Emitter, Sep, Key, V ? "true" : "false");
}

void renderRow(std::string &Out, StatsEmitter Emitter, const char *Sep,
               const char *Key, const RunningStat &V) {
  renderPair(Out, Emitter, Sep, std::string(Key) + "_mean",
             strprintf("%.6g", V.mean()));
  renderPair(Out, Emitter, Sep, std::string(Key) + "_max",
             strprintf("%.6g", V.max()));
}

} // namespace

void RunStats::merge(const RunStats &Other) {
#define ALTER_MERGE_RUN_STAT(Field, Type, Merge, ...)                         \
  merge##Merge(Field, Other.Field);
  ALTER_RUN_STATS(ALTER_MERGE_RUN_STAT)
#undef ALTER_MERGE_RUN_STAT
}

std::string RunStats::render(StatsEmitter Emitter, const char *Sep) const {
  std::string Out;
#define ALTER_RENDER_RUN_STAT(Field, Type, Merge, Key, MKey, RunDone)        \
  if (const char *K = rowKey(Emitter, Key, MKey, RunDone))                    \
    renderRow(Out, Emitter, Sep, K, Field);
  ALTER_RUN_STATS(ALTER_RENDER_RUN_STAT)
#undef ALTER_RENDER_RUN_STAT
  return Out;
}

void alter::logRunDone(const char *Engine, const RunResult &Result) {
  if (!logEnabled(LogLevel::Info))
    return;
  alterLog(LogLevel::Info, "run",
           "event=run_done engine=%s schedule=%s status=%s occupancy=%.3f%s",
           Engine, scheduleKindName(Result.ScheduleUsed),
           runStatusName(Result.Status), Result.Stats.occupancy(),
           Result.Stats.render(StatsEmitter::RunDone, " ").c_str());
}

//===----------------------------------------------------------------------===
// Critical-path profiler
//===----------------------------------------------------------------------===

RunProfile RunResult::computeProfile() const {
  RunProfile P;
  P.WallNs = Stats.RealTimeNs;
  P.WorkerBusyNs = Stats.WorkerBusyNs;
  for (const TraceEvent &E : TraceEvents) {
    switch (E.Kind) {
    case TraceEventKind::PollWake:
      // Arg1 carries the number of chunks in flight at poll time: a wake
      // with nothing in flight is the dispatcher stalling (fork failures,
      // empty-slot backoff); with children running the parent is
      // productively blocked on their progress.
      if (E.Arg1 == 0)
        P.DispatchStallNs += E.DurNs;
      else
        P.ChildExecNs += E.DurNs;
      break;
    case TraceEventKind::Validate:
      P.ValidationNs += E.DurNs;
      break;
    case TraceEventKind::Commit:
      P.CommitLaneNs += E.DurNs;
      break;
    case TraceEventKind::Salvage:
    case TraceEventKind::Bisect:
    case TraceEventKind::Quarantine:
    case TraceEventKind::Recovery:
      P.LadderNs += E.DurNs;
      break;
    case TraceEventKind::ChunkExec:
      P.ChunkExecDurNs += E.DurNs;
      break;
    default:
      break;
    }
  }
  // Ring backpressure happens inside the child while the parent sits in
  // poll, so carve it out of the child-exec window. The histogram sums
  // concurrent waits across children; clamping to the window keeps the
  // attribution within the wall clock.
  const uint64_t RingSum =
      Metrics.histogram(HistogramId::RingBackpressureNs).Sum;
  P.RingBackpressureNs = std::min(RingSum, P.ChildExecNs);
  P.ChildExecNs -= P.RingBackpressureNs;

  uint64_t Attributed = P.DispatchStallNs + P.ChildExecNs + P.ValidationNs +
                        P.CommitLaneNs + P.RingBackpressureNs + P.LadderNs;
  if (Attributed <= P.WallNs) {
    P.OtherNs = P.WallNs - Attributed;
  } else if (Attributed != 0) {
    // Overlapping windows (ladder tiers poll while their tier duration is
    // also counted) can overshoot the wall: scale every phase down so the
    // breakdown still covers exactly 100%.
    const double Scale = static_cast<double>(P.WallNs) /
                         static_cast<double>(Attributed);
    const auto Shrink = [&](uint64_t &V) {
      V = static_cast<uint64_t>(static_cast<double>(V) * Scale);
    };
    Shrink(P.DispatchStallNs);
    Shrink(P.ChildExecNs);
    Shrink(P.ValidationNs);
    Shrink(P.CommitLaneNs);
    Shrink(P.RingBackpressureNs);
    Shrink(P.LadderNs);
    Attributed = P.DispatchStallNs + P.ChildExecNs + P.ValidationNs +
                 P.CommitLaneNs + P.RingBackpressureNs + P.LadderNs;
    P.OtherNs = P.WallNs > Attributed ? P.WallNs - Attributed : 0;
  }
  return P;
}

std::string RunResult::profileTable() const {
  const RunProfile P = computeProfile();
  std::string Out = strprintf("critical-path profile (wall %.2f ms):\n",
                              P.WallNs / 1e6);
  const auto Row = [&](const char *Name, uint64_t Ns) {
    Out += strprintf("  %-18s %10.2f ms  %5.1f%%\n", Name, Ns / 1e6,
                     P.WallNs == 0 ? 0.0
                                   : 100.0 * static_cast<double>(Ns) /
                                         static_cast<double>(P.WallNs));
  };
  Row("dispatch_stall", P.DispatchStallNs);
  Row("child_exec", P.ChildExecNs);
  Row("ring_backpressure", P.RingBackpressureNs);
  Row("validation", P.ValidationNs);
  Row("commit_lane", P.CommitLaneNs);
  Row("ladder", P.LadderNs);
  Row("other", P.OtherNs);
  Out += strprintf("  %-18s %10.2f ms  %5.1f%%\n", "total",
                   P.attributedNs() / 1e6, P.coveragePct());
  Out += strprintf("worker-busy reconciliation: chunk_exec %.2f ms vs "
                   "worker_busy %.2f ms (ratio %.3f)\n",
                   P.ChunkExecDurNs / 1e6, P.WorkerBusyNs / 1e6,
                   P.busyReconciliation());
  Out += strprintf("cpu vs wall: user %.2f ms + sys %.2f ms over %.2f ms "
                   "wall (%.2fx), max child rss %.1f MiB\n",
                   Stats.ChildUserNs / 1e6, Stats.ChildSysNs / 1e6,
                   P.WallNs / 1e6, Stats.cpuVsWall(),
                   Stats.MaxChildRssBytes / (1024.0 * 1024.0));
  return Out;
}

bool RunResult::writeMetricsJson(const std::string &Path,
                                 std::string *Error) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  const RunProfile P = computeProfile();
  const auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  std::fprintf(F, "{\n  \"schema\": \"alter-metrics-v1\",\n");
  std::fprintf(F, "  \"status\": \"%s\",\n  \"schedule\": \"%s\"",
               runStatusName(Status), scheduleKindName(ScheduleUsed));
  // The stats block: the ALTER_RUN_STATS rows with a MetricsKey, then the
  // two values the table does not hold.
  std::fprintf(F,
               "%s,\n  \"occupancy\": %.6g,\n  \"timeline_samples\": %zu,\n",
               Stats.render(StatsEmitter::Metrics, ",\n  ").c_str(),
               Stats.occupancy(), Timeline.size());
  std::fprintf(F,
               "  \"profile\": {\"wall_ns\": %llu, "
               "\"dispatch_stall_ns\": %llu, \"child_exec_ns\": %llu, "
               "\"ring_backpressure_ns\": %llu, \"validation_ns\": %llu, "
               "\"commit_lane_ns\": %llu, \"ladder_ns\": %llu, "
               "\"other_ns\": %llu, \"coverage_pct\": %.6g, "
               "\"chunk_exec_dur_ns\": %llu, "
               "\"busy_reconciliation\": %.6g},\n",
               U(P.WallNs), U(P.DispatchStallNs), U(P.ChildExecNs),
               U(P.RingBackpressureNs), U(P.ValidationNs), U(P.CommitLaneNs),
               U(P.LadderNs), U(P.OtherNs), P.coveragePct(),
               U(P.ChunkExecDurNs), P.busyReconciliation());
  // Every metric id is emitted, recorded or not, so consumers can rely on
  // a stable key set (the check.sh --metrics schema gate).
  std::fprintf(F, "  \"counters\": {");
  for (unsigned I = 0; I != static_cast<unsigned>(CounterId::NumCounters);
       ++I)
    std::fprintf(F, "%s\"%s\": %llu", I == 0 ? "" : ", ",
                 counterName(static_cast<CounterId>(I)),
                 U(Metrics.counter(static_cast<CounterId>(I))));
  std::fprintf(F, "},\n  \"gauges\": {");
  for (unsigned I = 0; I != static_cast<unsigned>(GaugeId::NumGauges); ++I)
    std::fprintf(F, "%s\"%s\": %llu", I == 0 ? "" : ", ",
                 gaugeName(static_cast<GaugeId>(I)),
                 U(Metrics.gauge(static_cast<GaugeId>(I))));
  std::fprintf(F, "},\n  \"histograms\": {\n");
  for (unsigned I = 0;
       I != static_cast<unsigned>(HistogramId::NumHistograms); ++I) {
    const LatencyHistogram &H =
        Metrics.histogram(static_cast<HistogramId>(I));
    std::fprintf(F,
                 "    \"%s\": {\"count\": %llu, \"sum\": %llu, "
                 "\"min\": %llu, \"max\": %llu, \"mean\": %.6g, "
                 "\"p50\": %llu, \"p90\": %llu, \"p99\": %llu}%s\n",
                 histogramName(static_cast<HistogramId>(I)), U(H.Count),
                 U(H.Sum), U(H.empty() ? 0 : H.Min), U(H.Max), H.mean(),
                 U(H.percentile(0.50)), U(H.percentile(0.90)),
                 U(H.percentile(0.99)),
                 I + 1 == static_cast<unsigned>(HistogramId::NumHistograms)
                     ? ""
                     : ",");
  }
  std::fprintf(F, "  }\n}\n");
  if (std::fclose(F) != 0) {
    if (Error)
      *Error = "write to " + Path + " failed";
    return false;
  }
  return true;
}
