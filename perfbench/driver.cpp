//===- perfbench/driver.cpp - Closed-loop real-engine benchmark driver ----===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One closed-loop client: each run starts only after the previous one has
/// finished and been validated. Every ALTER run (RecoveringLoopRunner,
/// SchedulePolicy::Auto, the workload's chunk factor, P = 3 workers) is
/// paired with a run of the sequential reference; the seed decides which of
/// the pair goes first, and each pair is preceded by a host-speed probe, a
/// fixed kernel that involves none of the program's code. The driver prints
/// one JSON document of raw samples on stdout; perfbench/run.py turns it
/// into the benchmark's metrics.
///
///   perfbench_driver --workload NAME [--input N] --seed N --seconds S
///                    --trace 0|1 [--corrupt-reference]
///   perfbench_driver --report
///
/// --trace 1 first measures untraced pairs (the tracing-overhead base),
/// then traced pairs: spans around every layer call, per-invocation
/// RunResult deltas, and an in-process replay of a few chunks (LayerProbe).
/// --corrupt-reference perturbs the reference signature so every sample
/// must fail validation; the benchmark's own tests use it.
/// --report sweeps every parallelizable registry loop once (not gated).
///
//===----------------------------------------------------------------------===//

#include "LayerProbe.h"
#include "Spans.h"

#include "runtime/LoopRunner.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace alter;
using namespace perfbench;

namespace {

/// Worker processes of every ALTER run: with the parent's commit lane they
/// fill a 4-core host.
constexpr unsigned NumWorkers = 3;
/// Set-up repetitions per run; run.py reports the median of the ones host
/// steal left undisturbed.
constexpr int SetupRepeats = 7;
/// Undisturbed ALTER samples an untraced run needs for its p90 to have ten
/// samples beyond it; the run extends past --seconds (up to MeasureCapNs)
/// until it has them.
constexpr size_t MinTailSamples = 100;
/// Traced ALTER samples that replay chunks in-process.
constexpr int64_t ReplaySamples = 3;
/// Null invocations measured in a traced run.
constexpr size_t NullInvocations = 30;
/// Share of a traced run spent on the untraced overhead base.
constexpr double UntracedShare = 0.4;
/// A run during which the hypervisor stole more than this share of the
/// guest's CPU capacity is disturbed: validated and counted, but run.py
/// takes the timings from the undisturbed runs.
constexpr double MaxStealShare = 0.05;
/// The longest an untraced run measures while collecting MinTailSamples
/// undisturbed samples; it bounds the whole benchmark's time on a busy host.
constexpr uint64_t MeasureCapNs = 40'000'000'000ull;

/// The benchmark's workloads: a registry loop plus the annotation it runs
/// under (empty: the paper's). The chunk factor is always the registry's.
struct BenchWorkload {
  const char *Name;
  const char *Registry;
  const char *Annotation;
};

const BenchWorkload Workloads[] = {
    {"barneshut", "barneshut", ""},
    {"gsdense", "gsdense", ""},
    // Thm 4.1's RAW + OutOfOrder mapping: the one workload tracking reads.
    {"genome-ooo", "genome", "[OutOfOrder]"},
    {"ssca2", "ssca2", ""},
};

/// Environment knobs that change the measured program.
const char *const RefusedEnv[] = {"ALTER_FAULTS", "ALTER_JOURNAL",
                                  "ALTER_TRACE", "ALTER_METRICS",
                                  "ALTER_TRANSPORT"};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME [--input N] --seed N "
               "--seconds S --trace 0|1 [--corrupt-reference]\n"
               "       perfbench_driver --report\n",
               Why.c_str());
  std::exit(2);
}

struct Options {
  std::string Workload;
  size_t Input = 1;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  bool CorruptReference = false;
  bool Report = false;
};

uint64_t parseNumber(const std::string &Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || Text[0] == '-')
    usage("bad value for " + Flag + ": '" + Text + "'");
  return V;
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage("missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload") {
      O.Workload = Value();
    } else if (A == "--input") {
      O.Input = parseNumber(A, Value());
    } else if (A == "--seed") {
      O.Seed = parseNumber(A, Value());
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = static_cast<double>(parseNumber(A, Value()));
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--trace") {
      const uint64_t T = parseNumber(A, Value());
      if (T > 1)
        usage("--trace takes 0 or 1");
      O.Trace = T == 1;
      HaveTrace = true;
    } else if (A == "--corrupt-reference") {
      O.CorruptReference = true;
    } else if (A == "--report") {
      O.Report = true;
    } else {
      usage("unknown argument '" + A + "'");
    }
  }
  if (!O.Report && (O.Workload.empty() || !HaveSeed || !HaveSeconds ||
                    !HaveTrace))
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return O;
}

//===----------------------------------------------------------------------===
// Process accounting
//===----------------------------------------------------------------------===

uint64_t tvNs(const timeval &T) {
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(T.tv_usec) * 1'000ull;
}

/// User + system CPU of this process plus every reaped child.
uint64_t processCpuNs() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return tvNs(Self.ru_utime) + tvNs(Self.ru_stime) + tvNs(Kids.ru_utime) +
         tvNs(Kids.ru_stime);
}

/// Time the hypervisor ran something else while this guest's CPUs wanted
/// to run (the steal column of /proc/stat), summed over all CPUs; 0 where
/// the kernel does not report it. Recorded so that a run disturbed by its
/// neighbours is visible as such.
uint64_t hostStealNs() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t Fields[8] = {}; // user nice system idle iowait irq softirq steal
  In >> Cpu;
  for (uint64_t &F : Fields)
    In >> F;
  return Fields[7] * (1'000'000'000ull /
                      static_cast<uint64_t>(::sysconf(_SC_CLK_TCK)));
}

/// Share of the guest's CPU capacity during a \p WallNs interval that
/// \p StealNs of host steal took.
double stealShare(uint64_t StealNs, uint64_t WallNs) {
  static const double Cpus =
      static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return WallNs ? static_cast<double>(StealNs) /
                      (Cpus * static_cast<double>(WallNs))
                : 0.0;
}

/// Live or unreaped children of this process, per the kernel, except
/// \p Spare (the host-probe server).
std::vector<pid_t> liveChildren(pid_t Spare) {
  std::vector<pid_t> Pids;
  DIR *Tasks = ::opendir("/proc/self/task");
  if (!Tasks)
    return Pids;
  while (const dirent *E = ::readdir(Tasks)) {
    if (E->d_name[0] == '.')
      continue;
    std::ifstream In(std::string("/proc/self/task/") + E->d_name +
                     "/children");
    pid_t Pid = 0;
    while (In >> Pid)
      if (Pid != Spare)
        Pids.push_back(Pid);
  }
  ::closedir(Tasks);
  return Pids;
}

/// Kills and reaps leaked children, sparing \p Spare; returns how many
/// there were.
size_t reapLeakedChildren(pid_t Spare = -1) {
  const std::vector<pid_t> Leaked = liveChildren(Spare);
  for (const pid_t Pid : Leaked) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  }
  return Leaked.size();
}

/// One thread's share of the host-speed probe: allocate and fill a 256 KiB
/// buffer, then make eight passes of dependent multiply-add reads and
/// read-modify-writes over it. The work is fixed and involves none of the
/// program's code, so its time moves only with the host: clock speed,
/// neighbours on sibling hyperthreads, cache and page-fault cost.
uint64_t probeThreadNs(uint64_t Seed) {
  constexpr size_t Words = 1 << 15;
  const uint64_t T0 = nowNs();
  std::vector<uint64_t> Buf(Words, 1);
  uint64_t X = Seed;
  for (int Round = 0; Round != 8; ++Round)
    for (size_t I = 0; I != Words; ++I) {
      X = X * 6364136223846793005ull + Buf[(X >> 40) & (Words - 1)];
      Buf[I] ^= X;
    }
  volatile uint64_t Sink = X;
  (void)Sink;
  return nowNs() - T0;
}

/// The host-speed probe, twice: the probe kernel on one thread (as a
/// sequential run uses the host), then on one thread per online CPU at once
/// (as an ALTER run keeps every CPU busy), taking the median thread's time.
struct ProbeReply {
  uint64_t OneNs = 0;
  uint64_t AllNs = 0;
};

ProbeReply hostProbe() {
  ProbeReply R;
  R.OneNs = probeThreadNs(1);
  const unsigned N = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<uint64_t> Ns(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&Ns, I] { Ns[I] = probeThreadNs(I + 1); });
  for (std::thread &T : Threads)
    T.join();
  std::sort(Ns.begin(), Ns.end());
  R.AllNs = Ns[N / 2];
  return R;
}

/// `perfbench_driver --probe-server`: one host-speed probe per byte read on
/// stdin, its ProbeReply written to stdout; exits on EOF.
int probeServer() {
  char Request = 0;
  while (::read(0, &Request, 1) == 1) {
    const ProbeReply R = hostProbe();
    if (::write(1, &R, sizeof R) != static_cast<ssize_t>(sizeof R))
      return 1;
  }
  return 0;
}

/// The driver's handle on its probe server. The probe runs in a process of
/// its own, this binary exec'd fresh, so that its threads and allocations
/// leave the measured process (its malloc state, its single-threadedness,
/// the pages its forks share) exactly as they would be without it.
class HostProbe {
public:
  HostProbe() {
    int Req[2], Resp[2];
    if (::pipe2(Req, O_CLOEXEC) != 0 || ::pipe2(Resp, O_CLOEXEC) != 0)
      die("pipe");
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Req[0], 0);
    posix_spawn_file_actions_adddup2(&Actions, Resp[1], 1);
    char Self[] = "/proc/self/exe", Flag[] = "--probe-server";
    char *Argv[] = {Self, Flag, nullptr};
    const int Err =
        posix_spawn(&Pid, Self, &Actions, nullptr, Argv, environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Req[0]);
    ::close(Resp[1]);
    ToServer = Req[1];
    FromServer = Resp[0];
    if (Err != 0) {
      Pid = -1;
      die("spawn");
    }
  }
  HostProbe(const HostProbe &) = delete;
  HostProbe &operator=(const HostProbe &) = delete;
  ~HostProbe() {
    ::close(ToServer);
    ::close(FromServer);
    int Status = 0;
    while (Pid > 0 && ::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  }

  pid_t pid() const { return Pid; }

  /// One probe.
  ProbeReply measure() {
    const char Request = 1;
    if (::write(ToServer, &Request, 1) != 1)
      die("request");
    ProbeReply Reply;
    size_t Got = 0;
    while (Got != sizeof Reply) {
      const ssize_t R = ::read(FromServer,
                               reinterpret_cast<char *>(&Reply) + Got,
                               sizeof Reply - Got);
      if (R > 0)
        Got += static_cast<size_t>(R);
      else if (R == 0 || errno != EINTR)
        die("reply");
    }
    return Reply;
  }

private:
  [[noreturn]] void die(const char *What) {
    std::fprintf(stderr, "perfbench_driver: host probe server: %s failed\n",
                 What);
    std::exit(2);
  }

  pid_t Pid = -1;
  int ToServer = -1;
  int FromServer = -1;
};

//===----------------------------------------------------------------------===
// JSON output
//===----------------------------------------------------------------------===

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (const char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += strprintf("\\u%04x", C);
    else
      Out += C;
  }
  return Out + "\"";
}

template <typename T> std::string jsonArray(const std::vector<T> &V) {
  std::string Out = "[";
  for (size_t I = 0; I != V.size(); ++I)
    Out += (I ? "," : "") + std::to_string(V[I]);
  return Out + "]";
}

//===----------------------------------------------------------------------===
// The measured program
//===----------------------------------------------------------------------===

struct AlterSample {
  uint64_t WallNs = 0;
  uint64_t CpuNs = 0;
  uint64_t SetupNs = 0;
  uint64_t ValidateNs = 0;
  double StealShare = 0;
  bool Traced = false;
  bool Replayed = false;
  std::string Failure; ///< empty when the sample passed
};

struct SeqSample {
  uint64_t WallNs = 0;
  uint64_t LoopNs = 0;
  double StealShare = 0;
};

class Bench {
public:
  Bench(const Options &O, const BenchWorkload &BW)
      : O(O), BW(BW), Spans(O.Trace), Rng(O.Seed) {}

  /// Builds the input, the reference signature and one validated warm-up
  /// run, SetupRepeats times; keeps the last workload instance.
  void setUp();
  void measure();
  std::string json() const;

private:
  ExecutorConfig alterConfig() const;
  AlterSample alterSample(bool Traced, bool Replay);
  SeqSample seqSample(bool ChunkClock);
  void nullInvocation();
  bool pair(bool Traced, int64_t Id);
  pid_t probePid() const { return Probe ? Probe->pid() : -1; }
  size_t undisturbedAlter() const {
    return std::count_if(Alter.begin(), Alter.end(),
                         [](const AlterSample &S) {
                           return S.StealShare <= MaxStealShare;
                         });
  }

  const Options &O;
  const BenchWorkload &BW;
  SpanRecorder Spans;
  Xoshiro256StarStar Rng;

  std::unique_ptr<Workload> W;
  RuntimeParams Params;
  std::vector<double> Reference;
  std::string AnnotationText;

  std::vector<uint64_t> SetupNs;
  std::vector<double> SetupSteal;
  std::string SetupFailure;
  std::vector<AlterSample> Alter;
  std::vector<SeqSample> Seq;
  std::vector<uint64_t> NullNs;
  std::vector<InvocationRecord> Invocations;
  std::vector<ReplayRecord> Replays;
  std::vector<SeqChunkRecord> SeqChunks;
  std::vector<std::string> Schedules;
  std::string SeqFailure;
  uint64_t PeakSelfRssKb = 0;
  uint64_t PeakChildRssKb = 0;
  uint64_t MeasureNs = 0;
  uint64_t MeasureStealNs = 0;
  std::optional<HostProbe> Probe; ///< alive while measure() runs
  std::vector<uint64_t> ProbeOneNs, ProbeAllNs;
};

ExecutorConfig Bench::alterConfig() const {
  ExecutorConfig Config;
  Config.NumWorkers = NumWorkers;
  Config.Params = Params;
  Config.Schedule = SchedulePolicy::Auto;
  Config.Allocator = W->allocator();
  return Config;
}

void Bench::setUp() {
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    Spans.setSample(-1 - Rep);
    ScopedSpan Setup(Spans, "setup");
    const uint64_t Steal0 = hostStealNs();
    std::unique_ptr<Workload> Fresh = makeWorkload(BW.Registry);
    if (O.Input >= Fresh->numInputs()) {
      std::fprintf(stderr, "perfbench_driver: %s has no input %zu\n",
                   BW.Registry, O.Input);
      std::exit(2);
    }
    std::optional<Annotation> A =
        BW.Annotation[0] ? parseAnnotation(BW.Annotation)
                         : Fresh->paperAnnotation();
    if (!A) {
      std::fprintf(stderr, "perfbench_driver: %s has no annotation\n",
                   BW.Name);
      std::exit(2);
    }
    Params = Fresh->resolveAnnotation(*A);
    AnnotationText = A->str();
    {
      ScopedSpan S(Spans, "workloads.setup");
      Fresh->setUp(O.Input);
    }
    {
      ScopedSpan S(Spans, "seq.reference");
      SequentialLoopRunner Runner(Fresh->allocator());
      Fresh->run(Runner);
    }
    std::vector<double> Ref = Fresh->outputSignature();
    if (Rep == 0)
      Reference = Ref;
    else if (Ref != Reference)
      SetupFailure = "the sequential reference differs between set-ups";
    W = std::move(Fresh);
    {
      ScopedSpan S(Spans, "workloads.setup");
      W->setUp(O.Input);
    }
    ScopedSpan Warm(Spans, "warmup");
    RunResult R;
    {
      RecoveringLoopRunner Runner(ParallelEngine::Pipeline, alterConfig());
      W->run(Runner);
      R = Runner.result();
    }
    if (!R.succeeded() || !W->validate(Reference))
      SetupFailure = "the warm-up run failed";
    Warm.close();
    SetupNs.push_back(Setup.close());
    SetupSteal.push_back(stealShare(hostStealNs() - Steal0, SetupNs.back()));
  }
  if (O.CorruptReference)
    for (double &V : Reference)
      V = V * 1.5 + 1e6;
}

AlterSample Bench::alterSample(bool Traced, bool Replay) {
  AlterSample S;
  S.Traced = Traced;
  S.Replayed = Replay;
  const int64_t Id = static_cast<int64_t>(Alter.size());
  Spans.setSample(Id);
  ScopedSpan Root(Spans, "alter.sample");
  {
    ScopedSpan Setup(Spans, "workloads.setup");
    W->setUp(O.Input);
    S.SetupNs = Setup.close();
  }
  const ExecutorConfig Config = alterConfig();
  RunResult R;
  const uint64_t Cpu0 = processCpuNs();
  const uint64_t Steal0 = hostStealNs();
  ScopedSpan Run(Spans, "alter.run");
  {
    RecoveringLoopRunner Runner(ParallelEngine::Pipeline, Config);
    if (Traced) {
      LayerProbe Probe(Runner, Config, Spans, Id, Replay, Invocations,
                       Replays);
      W->run(Probe);
    } else {
      W->run(Runner);
    }
    R = Runner.result();
  }
  S.WallNs = Run.close();
  S.CpuNs = processCpuNs() - Cpu0;
  S.StealShare = stealShare(hostStealNs() - Steal0, S.WallNs);
  bool Valid = false;
  {
    ScopedSpan V(Spans, "workloads.validate");
    Valid = W->validate(Reference);
    S.ValidateNs = V.close();
  }
  const size_t Leaked = reapLeakedChildren(probePid());
  if (!R.succeeded())
    S.Failure = std::string("status ") + runStatusName(R.Status);
  else if (!Valid)
    S.Failure = "validation";
  else if (Leaked != 0)
    S.Failure = "leaked child";
  Schedules.push_back(scheduleKindName(R.ScheduleUsed));
  return S;
}

SeqSample Bench::seqSample(bool ChunkClock) {
  SeqSample S;
  Spans.setSample(-1000 - static_cast<int64_t>(Seq.size()));
  ScopedSpan Root(Spans, "seq.sample");
  {
    ScopedSpan Setup(Spans, "workloads.setup");
    W->setUp(O.Input);
  }
  const int64_t Id = static_cast<int64_t>(Seq.size());
  const uint64_t Steal0 = hostStealNs();
  ScopedSpan Run(Spans, "seq.run");
  if (ChunkClock) {
    // Chunk-timed sequential runs give the replay its per-chunk base.
    ChunkClockRunner Runner(W->allocator(), Params.ChunkFactor, Spans, Id,
                            SeqChunks);
    W->run(Runner);
    S.WallNs = Run.close();
  } else {
    SequentialLoopRunner Runner(W->allocator());
    W->run(Runner);
    S.WallNs = Run.close();
    S.LoopNs = Runner.result().Stats.RealTimeNs;
  }
  S.StealShare = stealShare(hostStealNs() - Steal0, S.WallNs);
  ScopedSpan V(Spans, "workloads.validate");
  // The reference runs must validate against their own signature; a
  // corrupted reference fails them too, which is what its test expects.
  if (!W->validate(Reference) && SeqFailure.empty())
    SeqFailure = "the sequential run failed validation";
  return S;
}

void Bench::nullInvocation() {
  Spans.setSample(-100000 - static_cast<int64_t>(NullNs.size()));
  LoopSpec Empty;
  Empty.Name = "perfbench.null";
  Empty.NumIterations = 1;
  Empty.Body = [](TxnContext &, int64_t) {};
  ScopedSpan S(Spans, "null_invocation");
  {
    RecoveringLoopRunner Runner(ParallelEngine::Pipeline, alterConfig());
    Runner.runInner(Empty);
  }
  NullNs.push_back(S.close());
  reapLeakedChildren(probePid());
}

/// One host-speed probe, then one ALTER + sequential pair in seed-chosen
/// order. Returns false once the run cannot continue (a failed sequential
/// reference).
bool Bench::pair(bool Traced, int64_t TracedIndex) {
  const bool AlterFirst = (Rng.next() & 1) != 0;
  const bool Replay = Traced && TracedIndex < ReplaySamples;
  const ProbeReply P = Probe->measure();
  ProbeOneNs.push_back(P.OneNs);
  ProbeAllNs.push_back(P.AllNs);
  if (AlterFirst)
    Alter.push_back(alterSample(Traced, Replay));
  Seq.push_back(seqSample(Replay));
  if (!AlterFirst)
    Alter.push_back(alterSample(Traced, Replay));
  if (Traced && NullNs.size() < NullInvocations)
    nullInvocation();
  return SeqFailure.empty() || O.CorruptReference;
}

void Bench::measure() {
  Probe.emplace();
  const uint64_t Budget = static_cast<uint64_t>(O.Seconds * 1e9);
  const uint64_t Cap = std::max(Budget, MeasureCapNs);
  const uint64_t Start = nowNs();
  const uint64_t Steal0 = hostStealNs();
  const auto Elapsed = [&] { return nowNs() - Start; };
  if (!O.Trace) {
    while (Elapsed() < Cap &&
           (Elapsed() < Budget || undisturbedAlter() < MinTailSamples))
      if (!pair(false, 0))
        break;
  } else {
    const uint64_t UntracedBudget =
        static_cast<uint64_t>(UntracedShare * static_cast<double>(Budget));
    Spans.setEnabled(false);
    while (Elapsed() < UntracedBudget && pair(false, 0)) {
    }
    Spans.setEnabled(true);
    int64_t Traced = 0;
    while (Elapsed() < Cap &&
           (Elapsed() < Budget || Traced < ReplaySamples + 3))
      if (!pair(true, Traced++))
        break;
  }
  MeasureNs = Elapsed();
  MeasureStealNs = hostStealNs() - Steal0;
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  PeakSelfRssKb = static_cast<uint64_t>(Self.ru_maxrss);
  PeakChildRssKb = static_cast<uint64_t>(Kids.ru_maxrss);
  Probe.reset();
}

std::string hostJson(const Options &O, const BenchWorkload &BW,
                     const Workload &W, const std::string &Annotation,
                     int ChunkFactor) {
  utsname U{};
  ::uname(&U);
  return strprintf(
      "{\"nproc\":%ld,\"workers\":%u,\"build_type\":%s,\"compiler\":%s,"
      "\"kernel\":%s,\"machine\":%s,\"workload\":%s,\"registry_loop\":%s,"
      "\"input\":%zu,\"input_name\":%s,\"held_out_input\":%s,"
      "\"annotation\":%s,\"chunk_factor\":%d,\"schedule_policy\":\"auto\","
      "\"seed\":%llu}",
      ::sysconf(_SC_NPROCESSORS_ONLN), NumWorkers,
      jsonString(PERFBENCH_BUILD_TYPE).c_str(),
      jsonString(PERFBENCH_COMPILER).c_str(), jsonString(U.release).c_str(),
      jsonString(U.machine).c_str(), jsonString(BW.Name).c_str(),
      jsonString(BW.Registry).c_str(), O.Input,
      jsonString(W.inputName(O.Input)).c_str(),
      jsonString(W.inputName(0)).c_str(), jsonString(Annotation).c_str(),
      ChunkFactor, static_cast<unsigned long long>(O.Seed));
}

std::string Bench::json() const {
  std::vector<uint64_t> AlterWall, AlterCpu, AlterSetup, AlterValidate,
      SeqWall, SeqLoop;
  std::vector<double> AlterSteal, SeqSteal;
  std::vector<int> Traced, Replayed;
  std::string Failures = "[";
  for (const AlterSample &S : Alter) {
    AlterWall.push_back(S.WallNs);
    AlterCpu.push_back(S.CpuNs);
    AlterSteal.push_back(S.StealShare);
    AlterSetup.push_back(S.SetupNs);
    AlterValidate.push_back(S.ValidateNs);
    Traced.push_back(S.Traced);
    Replayed.push_back(S.Replayed);
    Failures += (Failures.size() > 1 ? "," : "") + jsonString(S.Failure);
  }
  Failures += "]";
  for (const SeqSample &S : Seq) {
    SeqWall.push_back(S.WallNs);
    SeqLoop.push_back(S.LoopNs);
    SeqSteal.push_back(S.StealShare);
  }
  std::string Sched = "[";
  for (size_t I = 0; I != Schedules.size(); ++I)
    Sched += (I ? "," : "") + jsonString(Schedules[I]);
  Sched += "]";

  std::string Out = "{";
  Out += "\"host\":" + hostJson(O, BW, *W, AnnotationText,
                                static_cast<int>(Params.ChunkFactor));
  Out += ",\"setup_failure\":" + jsonString(SetupFailure);
  Out += ",\"seq_failure\":" + jsonString(SeqFailure);
  Out += ",\"setup_ns\":" + jsonArray(SetupNs);
  Out += ",\"setup_steal_share\":" + jsonArray(SetupSteal);
  Out += ",\"measure_ns\":" + std::to_string(MeasureNs);
  Out += ",\"measure_steal_ns\":" + std::to_string(MeasureStealNs);
  Out += strprintf(",\"max_steal_share\":%g", MaxStealShare);
  Out += ",\"alter\":{\"wall_ns\":" + jsonArray(AlterWall) +
         ",\"cpu_ns\":" + jsonArray(AlterCpu) +
         ",\"steal_share\":" + jsonArray(AlterSteal) +
         ",\"setup_ns\":" + jsonArray(AlterSetup) +
         ",\"validate_ns\":" + jsonArray(AlterValidate) +
         ",\"traced\":" + jsonArray(Traced) +
         ",\"replayed\":" + jsonArray(Replayed) + ",\"failure\":" + Failures +
         ",\"schedule\":" + Sched + "}";
  Out += ",\"seq\":{\"wall_ns\":" + jsonArray(SeqWall) +
         ",\"loop_ns\":" + jsonArray(SeqLoop) +
         ",\"steal_share\":" + jsonArray(SeqSteal) + "}";
  Out += strprintf(",\"peak_rss_kb\":{\"self\":%llu,\"children\":%llu}",
                   static_cast<unsigned long long>(PeakSelfRssKb),
                   static_cast<unsigned long long>(PeakChildRssKb));
  Out += ",\"null_invocation_ns\":" + jsonArray(NullNs);
  Out += ",\"probe_one_ns\":" + jsonArray(ProbeOneNs);
  Out += ",\"probe_all_ns\":" + jsonArray(ProbeAllNs);

  Out += ",\"invocations\":[";
  for (size_t I = 0; I != Invocations.size(); ++I) {
    const InvocationRecord &R = Invocations[I];
    Out += strprintf(
        "%s{\"sample\":%lld,\"invocation\":%lld,\"iterations\":%lld,"
        "\"run_inner_ns\":%llu,\"ns\":%llu,\"schedule\":\"%s\","
        "\"recovered\":%d,\"transactions\":%llu,\"committed\":%llu,"
        "\"retries\":%llu,\"busy_ns\":%llu,\"slot_ns\":%llu,"
        "\"warm_forks\":%llu,\"cold_forks\":%llu,\"child_reuses\":%llu,"
        "\"wire_bytes\":%llu,\"wire_bytes_raw\":%llu,\"stage_stalled\":%llu,"
        "\"queue_depth_peak\":%llu}",
        I ? "," : "", static_cast<long long>(R.Sample),
        static_cast<long long>(R.Invocation),
        static_cast<long long>(R.Iterations),
        static_cast<unsigned long long>(R.RunInnerNs),
        static_cast<unsigned long long>(R.InvocationNs),
        scheduleKindName(R.Schedule), R.Recovered ? 1 : 0,
        static_cast<unsigned long long>(R.Transactions),
        static_cast<unsigned long long>(R.Committed),
        static_cast<unsigned long long>(R.Retries),
        static_cast<unsigned long long>(R.BusyNs),
        static_cast<unsigned long long>(R.SlotNs),
        static_cast<unsigned long long>(R.WarmForks),
        static_cast<unsigned long long>(R.ColdForks),
        static_cast<unsigned long long>(R.ChildReuses),
        static_cast<unsigned long long>(R.WireBytes),
        static_cast<unsigned long long>(R.WireBytesRaw),
        static_cast<unsigned long long>(R.StageStalled),
        static_cast<unsigned long long>(R.QueueDepthPeak));
  }
  Out += "],\"replays\":[";
  for (size_t I = 0; I != Replays.size(); ++I) {
    const ReplayRecord &R = Replays[I];
    Out += strprintf(
        "%s{\"sample\":%lld,\"invocation\":%lld,\"chunk\":%lld,"
        "\"iterations\":%lld,\"body_ns\":%llu,\"suspend_ns\":%llu,"
        "\"encode_ns\":%llu,\"decode_ns\":%llu,\"check_ns\":%llu,"
        "\"abort_ns\":%llu,\"instr_calls\":%llu,\"read_words\":%llu,"
        "\"write_words\":%llu,\"log_bytes\":%llu,\"frame_bytes\":%llu,"
        "\"bloom_checks\":%llu,\"bloom_skips\":%llu,\"conflict\":%d,"
        "\"round_trip_ok\":%d}",
        I ? "," : "", static_cast<long long>(R.Sample),
        static_cast<long long>(R.Invocation), static_cast<long long>(R.Chunk),
        static_cast<long long>(R.Iterations),
        static_cast<unsigned long long>(R.BodyNs),
        static_cast<unsigned long long>(R.SuspendNs),
        static_cast<unsigned long long>(R.EncodeNs),
        static_cast<unsigned long long>(R.DecodeNs),
        static_cast<unsigned long long>(R.CheckNs),
        static_cast<unsigned long long>(R.AbortNs),
        static_cast<unsigned long long>(R.InstrCalls),
        static_cast<unsigned long long>(R.ReadWords),
        static_cast<unsigned long long>(R.WriteWords),
        static_cast<unsigned long long>(R.LogBytes),
        static_cast<unsigned long long>(R.FrameBytes),
        static_cast<unsigned long long>(R.BloomChecks),
        static_cast<unsigned long long>(R.BloomSkips), R.Conflict ? 1 : 0,
        R.RoundTripOk ? 1 : 0);
  }
  Out += "],\"seq_chunks\":[";
  for (size_t I = 0; I != SeqChunks.size(); ++I) {
    const SeqChunkRecord &R = SeqChunks[I];
    Out += strprintf("%s{\"sample\":%lld,\"invocation\":%lld,\"chunk\":%lld,"
                     "\"iterations\":%lld,\"ns\":%llu}",
                     I ? "," : "", static_cast<long long>(R.Sample),
                     static_cast<long long>(R.Invocation),
                     static_cast<long long>(R.Chunk),
                     static_cast<long long>(R.Iterations),
                     static_cast<unsigned long long>(R.Ns));
  }
  Out += "],\"spans\":";
  Spans.writeJson(Out);
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===
// Report mode: the ROADMAP starting-point table
//===----------------------------------------------------------------------===

template <typename Fn> uint64_t timed(Fn F) {
  const uint64_t T0 = nowNs();
  F();
  return nowNs() - T0;
}

int report() {
  const unsigned Widths[] = {1, 2, NumWorkers};
  std::printf("# Real Auto wall clock vs the sequential run, and the modeled "
              "Lockstep speedup, input 1, paper annotation and chunk "
              "factor.\n# real = sequential algorithm wall / Auto algorithm "
              "wall; modeled = sequential loop time / Lockstep SimTimeNs.\n");
  std::printf("%-11s %9s", "loop", "seq_ms");
  for (const unsigned P : Widths)
    std::printf("  %10s %7s %-10s %8s", strprintf("auto_ms@%u", P).c_str(),
                "real", "pick", "modeled");
  std::printf("\n");
  bool AllValid = true;
  for (const std::string &Name : allWorkloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    const std::optional<Annotation> A = W->paperAnnotation();
    if (!A)
      continue;
    const RuntimeParams Params = W->resolveAnnotation(*A);
    uint64_t SeqWall = ~uint64_t(0), SeqLoop = ~uint64_t(0);
    std::vector<double> Ref;
    for (int Rep = 0; Rep != 3; ++Rep) {
      W->setUp(1);
      RunResult R;
      SeqWall = std::min(SeqWall,
                         timed([&] { R = W->runSequential(); }));
      SeqLoop = std::min(SeqLoop, R.Stats.RealTimeNs);
      Ref = W->outputSignature();
    }
    std::printf("%-11s %9.2f", Name.c_str(), SeqWall / 1e6);
    for (const unsigned P : Widths) {
      W->setUp(1);
      RunResult R;
      const uint64_t Wall =
          timed([&] { R = W->runScheduled(SchedulePolicy::Auto, Params, P); });
      const bool Valid = R.succeeded() && W->validate(Ref);
      AllValid &= Valid;
      W->setUp(1);
      const RunResult L = W->runLockstep(Params, P);
      const double Modeled =
          L.Stats.SimTimeNs ? static_cast<double>(SeqLoop) /
                                  static_cast<double>(L.Stats.SimTimeNs)
                            : 0.0;
      std::printf("  %10.2f %6.2fx %-10s %7.2fx", Wall / 1e6,
                  static_cast<double>(SeqWall) / static_cast<double>(Wall),
                  Valid ? scheduleKindName(R.ScheduleUsed) : "INVALID",
                  Modeled);
      reapLeakedChildren();
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return AllValid ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::string(Argv[1]) == "--probe-server")
    return probeServer();
  const Options O = parseOptions(Argc, Argv);
  for (const char *Var : RefusedEnv)
    if (const char *V = std::getenv(Var); V && *V) {
      std::fprintf(stderr,
                   "perfbench_driver: refusing to run with %s set: it "
                   "changes the measured program\n",
                   Var);
      return 2;
    }
  if (O.Report)
    return report();
  const BenchWorkload *BW = nullptr;
  for (const BenchWorkload &Candidate : Workloads)
    if (O.Workload == Candidate.Name)
      BW = &Candidate;
  if (!BW)
    usage("unknown workload '" + O.Workload + "'");
  Bench B(O, *BW);
  B.setUp();
  B.measure();
  const std::string Out = B.json();
  std::fwrite(Out.data(), 1, Out.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
