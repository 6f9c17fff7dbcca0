//===- support/FaultInjection.cpp -----------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Error.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <cstddef>
#include <cstdlib>
#include <csignal>
#include <unistd.h>

using namespace alter;

namespace {

constexpr uint64_t DefaultSeed = 0x414c544552ULL; // "ALTER"
constexpr uint64_t DefaultStallNs = 2'000'000'000ULL;

bool parseKind(const std::string &Name, FaultKind &Kind) {
  if (Name == "forkfail")
    Kind = FaultKind::ForkFail;
  else if (Name == "crash")
    Kind = FaultKind::ChildCrash;
  else if (Name == "kill")
    Kind = FaultKind::ChildKill;
  else if (Name == "truncate")
    Kind = FaultKind::PipeTruncate;
  else if (Name == "bitflip")
    Kind = FaultKind::BitFlip;
  else if (Name == "stall")
    Kind = FaultKind::Stall;
  else if (Name == "poison")
    Kind = FaultKind::TemplatePoison;
  else if (Name == "qflip")
    Kind = FaultKind::QueueFlip;
  else if (Name == "mmapfail")
    Kind = FaultKind::MmapFail;
  else if (Name == "pipeexhaust")
    Kind = FaultKind::PipeExhaust;
  else if (Name == "sigstorm")
    Kind = FaultKind::SignalStorm;
  else if (Name == "parentkill")
    Kind = FaultKind::ParentKill;
  else if (Name == "spawnfail")
    Kind = FaultKind::SpawnFail;
  else
    return false;
  return true;
}

bool parseUint(const std::string &Text, uint64_t &Value) {
  if (Text.empty())
    return false;
  Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    const uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return false; // overflow: reject rather than wrap to a bogus target
    Value = Value * 10 + Digit;
  }
  return true;
}

/// A FaultPoint whose target is a setup resource (worker-slot index), not a
/// chunk of work; the ordinary fork-time take() must never consume it.
bool isSetupKind(FaultKind Kind) {
  return Kind == FaultKind::MmapFail || Kind == FaultKind::PipeExhaust ||
         Kind == FaultKind::SpawnFail;
}

} // namespace

const char *alter::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::ForkFail:
    return "forkfail";
  case FaultKind::ChildCrash:
    return "crash";
  case FaultKind::ChildKill:
    return "kill";
  case FaultKind::PipeTruncate:
    return "truncate";
  case FaultKind::BitFlip:
    return "bitflip";
  case FaultKind::Stall:
    return "stall";
  case FaultKind::TemplatePoison:
    return "poison";
  case FaultKind::QueueFlip:
    return "qflip";
  case FaultKind::MmapFail:
    return "mmapfail";
  case FaultKind::PipeExhaust:
    return "pipeexhaust";
  case FaultKind::SignalStorm:
    return "sigstorm";
  case FaultKind::ParentKill:
    return "parentkill";
  case FaultKind::SpawnFail:
    return "spawnfail";
  }
  ALTER_UNREACHABLE("covered switch");
}

FaultPlan::FaultPlan() : Seed(DefaultSeed), StallNs(DefaultStallNs) {
  if (const char *Env = std::getenv("ALTER_FAULTS")) {
    std::string Error;
    if (!parse(Env, &Error)) {
      // A typo must be loud but not lethal: arm nothing, latch the error,
      // and spell out the grammar so the operator can fix the plan.
      LoadError = "malformed ALTER_FAULTS: " + Error;
      alterLogAlways(LogLevel::Error, "faults",
                     "msg=\"%s\" grammar=\"kind@N | kind@N! | kind@iN | "
                     "kind@iN! | seed=N | stallms=N, comma/semicolon "
                     "separated; kinds: forkfail crash kill truncate "
                     "bitflip stall poison qflip mmapfail pipeexhaust "
                     "sigstorm parentkill spawnfail\"",
                     LoadError.c_str());
    }
  }
}

FaultPlan &FaultPlan::global() {
  static FaultPlan Plan;
  return Plan;
}

void FaultPlan::clear() {
  Points.clear();
  Seed = DefaultSeed;
  StallNs = DefaultStallNs;
  ParentKillPoints = 0;
}

void FaultPlan::parentKillPoint() {
  bool AnyArmed = false;
  for (const FaultPoint &P : Points)
    if (P.Kind == FaultKind::ParentKill) {
      AnyArmed = true;
      break;
    }
  if (!AnyArmed)
    return; // counter frozen: ordinals stay deterministic for armed plans
  const int64_t Ordinal = static_cast<int64_t>(ParentKillPoints++);
  for (const FaultPoint &P : Points) {
    if (P.Kind != FaultKind::ParentKill || P.IterTarget ||
        P.Target != Ordinal)
      continue;
    // Die exactly as an OOM-killed parent would: no handler, no unwind,
    // no journal flush. The restart path must cope with precisely this.
    ::kill(::getpid(), SIGKILL);
    for (;;)
      ::pause(); // unreachable: SIGKILL cannot be blocked
  }
}

void alter::faultParentKillPoint() { FaultPlan::global().parentKillPoint(); }

void FaultPlan::arm(FaultKind Kind, int64_t Chunk, bool Sticky) {
  Points.push_back({Kind, Chunk, Sticky, /*IterTarget=*/false});
}

void FaultPlan::armIteration(FaultKind Kind, int64_t Iter, bool Sticky) {
  Points.push_back({Kind, Iter, Sticky, /*IterTarget=*/true});
}

ArmedFault FaultPlan::take(int64_t Chunk) {
  // Empty iteration range: chunk-targeted points only.
  return take(Chunk, /*FirstIter=*/0, /*LastIter=*/0);
}

ArmedFault FaultPlan::take(int64_t Chunk, int64_t FirstIter,
                           int64_t LastIter) {
  ArmedFault Fault;
  for (size_t I = 0; I != Points.size(); ++I) {
    const FaultPoint &P = Points[I];
    if (isSetupKind(P.Kind) || P.Kind == FaultKind::ParentKill)
      continue; // not fork-targeted; consumed by takeSetup/parentKillPoint
    const bool Hit = P.IterTarget
                         ? (P.Target >= FirstIter && P.Target < LastIter)
                         : P.Target == Chunk;
    if (!Hit)
      continue;
    Fault.Armed = true;
    Fault.Kind = P.Kind;
    Fault.Chunk = Chunk;
    Fault.Seed = Seed;
    Fault.StallNs = StallNs;
    if (!P.Sticky)
      Points.erase(Points.begin() + static_cast<ptrdiff_t>(I));
    return Fault;
  }
  return Fault;
}

ArmedFault FaultPlan::takeSetup(FaultKind Kind, int64_t Index) {
  ArmedFault Fault;
  for (size_t I = 0; I != Points.size(); ++I) {
    const FaultPoint &P = Points[I];
    if (P.Kind != Kind || P.IterTarget || P.Target != Index)
      continue;
    Fault.Armed = true;
    Fault.Kind = P.Kind;
    Fault.Chunk = Index;
    Fault.Seed = Seed;
    Fault.StallNs = StallNs;
    if (!P.Sticky)
      Points.erase(Points.begin() + static_cast<ptrdiff_t>(I));
    return Fault;
  }
  return Fault;
}

bool FaultPlan::parse(const std::string &Text, std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  std::vector<FaultPoint> Parsed;
  uint64_t NewSeed = Seed;
  uint64_t NewStallNs = StallNs;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find_first_of(",;", Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Entry = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;
    const size_t Eq = Entry.find('=');
    if (Eq != std::string::npos) {
      const std::string Key = Entry.substr(0, Eq);
      uint64_t Value;
      if (!parseUint(Entry.substr(Eq + 1), Value))
        return Fail("bad number in '" + Entry + "'");
      if (Key == "seed")
        NewSeed = Value;
      else if (Key == "stallms")
        NewStallNs = Value * 1'000'000ULL;
      else
        return Fail("unknown option '" + Key + "'");
      continue;
    }
    const size_t At = Entry.find('@');
    if (At == std::string::npos)
      return Fail("missing '@chunk' in '" + Entry + "'");
    FaultPoint Point;
    if (!parseKind(Entry.substr(0, At), Point.Kind))
      return Fail("unknown fault kind '" + Entry.substr(0, At) + "'");
    std::string TargetText = Entry.substr(At + 1);
    if (!TargetText.empty() && TargetText.back() == '!') {
      Point.Sticky = true;
      TargetText.pop_back();
    }
    if (!TargetText.empty() && TargetText.front() == 'i') {
      Point.IterTarget = true;
      TargetText.erase(TargetText.begin());
    }
    uint64_t Target;
    if (!parseUint(TargetText, Target))
      return Fail(std::string("bad ") +
                  (Point.IterTarget ? "iteration" : "chunk") + " index in '" +
                  Entry + "'");
    Point.Target = static_cast<int64_t>(Target);
    Parsed.push_back(Point);
  }
  Points.insert(Points.end(), Parsed.begin(), Parsed.end());
  Seed = NewSeed;
  StallNs = NewStallNs;
  return true;
}

void alter::faultTruncateWire(std::vector<uint8_t> &Bytes, uint64_t Seed,
                              int64_t Chunk) {
  if (Bytes.empty())
    return;
  // Keep between ~25% and ~75% of the message, deterministic in the chunk.
  SplitMix64 Rng(Seed ^ static_cast<uint64_t>(Chunk));
  const size_t Keep =
      Bytes.size() / 4 + static_cast<size_t>(Rng.next() % (Bytes.size() / 2 + 1));
  Bytes.resize(Keep);
}

void alter::faultBitFlipWire(std::vector<uint8_t> &Bytes, uint64_t Seed,
                             int64_t Chunk) {
  if (Bytes.empty())
    return;
  SplitMix64 Rng(Seed ^ static_cast<uint64_t>(Chunk) ^ 0xb17f11bULL);
  const uint64_t Bit = Rng.next() % (Bytes.size() * 8);
  Bytes[static_cast<size_t>(Bit / 8)] ^=
      static_cast<uint8_t>(1u << (Bit % 8));
}
