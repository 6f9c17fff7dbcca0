//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness for the fork-based executors.
/// Tests, benchmarks, and the ALTER_FAULTS environment variable arm a
/// process-global FaultPlan with per-chunk faults; the executors consult the
/// plan at well-defined points (fork, child report) and apply the armed
/// fault exactly where a real failure would strike:
///
///  - ForkFail:     the parent's fork()/pipe() of that chunk reports failure;
///  - ChildCrash:   the child dies of SIGSEGV before executing its chunk;
///  - ChildKill:    the child is SIGKILLed after executing its chunk;
///  - PipeTruncate: the child ships only a prefix of its commit message;
///  - BitFlip:      one bit of the commit message is flipped in flight;
///  - Stall:        the child sleeps past the executor deadline before
///                  reporting (containment requires an armed deadline);
///  - TemplatePoison: the warm worker-pool template is killed at spawn
///                  time, so the chunk cannot warm-fork. The executor
///                  degrades to a cold pipe fork for that attempt and the
///                  pool respawns afterwards; on the Pipe transport (no
///                  pool) the fault is consumed as a no-op.
///  - QueueFlip:    one bit of the PARENT->child inter-stage queue record
///                  (StagePipelineExecutor token dispatch) is flipped
///                  before it enters the ring; the stage worker rejects
///                  the corrupt record and dies, and the engine contains
///                  the loss like any dead stage child. Engines without
///                  an inter-stage queue consume the fault as a no-op.
///  - MmapFail:     the shared-memory commit ring for worker slot N fails
///                  to mmap (as under ENOMEM). Consumed at ring-creation
///                  time via takeSetup, not at fork time; the pool (or
///                  stage worker) degrades instead of aborting.
///  - PipeExhaust:  the pipe() setup for worker slot N fails (as under
///                  EMFILE). Also a takeSetup-consumed setup fault.
///  - SpawnFail:    the warm template's fork of worker slot N's resident
///                  child fails (as under EAGAIN); a setup fault too,
///                  consumed each time the pool forks that slot's resident.
///  - SignalStorm:  a shutdown signal (SIGTERM) is delivered to the parent
///                  when chunk N is about to fork; the run winds down to a
///                  valid Interrupted result with every child reaped.
///
/// Faults are consumed by the PARENT at fork time (FaultPlan::take), so a
/// one-shot fault strikes only the first execution attempt of its chunk and
/// the executor's retry runs clean — modeling a transient failure. A sticky
/// fault stays armed and strikes every attempt — modeling a persistent
/// failure that drives the degradation ladder (salvage, bisection,
/// quarantine) and ultimately the sequential fallback.
///
/// A fault point targets either a chunk ("kill@3") or a single ITERATION
/// ("crash@i17"). Iteration targeting is what makes chunk bisection
/// testable: when the ladder re-executes half a chunk, the fault must
/// follow the poisoned iteration into whichever sub-range contains it, not
/// the re-numbered chunk id. Executors therefore pass the original
/// iteration range of the work they are forking (via LoopSpec::FaultRemap
/// when the range was re-indexed by a salvage sub-run).
///
/// Everything is deterministic: corruption positions derive from
/// (seed, chunk) via SplitMix64, never from wall-clock or global entropy.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_FAULTINJECTION_H
#define ALTER_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <string>
#include <vector>

namespace alter {

/// The failure modes the harness can force (see file comment).
enum class FaultKind : uint8_t {
  ForkFail,
  ChildCrash,
  ChildKill,
  PipeTruncate,
  BitFlip,
  Stall,
  TemplatePoison,
  QueueFlip,
  MmapFail,
  PipeExhaust,
  SignalStorm,
  /// SIGKILL the *parent* at the Nth parent-side kill point (dispatch,
  /// validate, commit, journal fsync). Targets are point ordinals, not
  /// chunks: the process-global point counter increments at every
  /// instrumented site, and the point whose ordinal matches an armed
  /// target kills the process outright — no handler runs, simulating an
  /// OOM-kill or operator kill of the parent for crash-restart testing.
  ParentKill,
  /// The warm template's fork of worker slot N's resident child fails (as
  /// under EAGAIN). A takeSetup-consumed setup fault, struck each time the
  /// pool forks a resident for the slot.
  SpawnFail,
};

/// Returns "forkfail", "crash", "kill", "truncate", "bitflip", "stall",
/// "poison", "qflip", "mmapfail", "pipeexhaust", "sigstorm", "parentkill",
/// or "spawnfail".
const char *faultKindName(FaultKind Kind);

/// One armed fault: strikes execution attempts of chunk \p Target (or, when
/// \p IterTarget is set, of any forked range containing iteration
/// \p Target).
struct FaultPoint {
  FaultKind Kind = FaultKind::ChildCrash;
  int64_t Target = 0;
  /// Sticky faults strike every attempt; one-shot faults only the first.
  bool Sticky = false;
  /// Target is an iteration index, not a chunk index.
  bool IterTarget = false;
};

/// What FaultPlan::take hands the executor for one fork: the fault to
/// apply (if any) plus the deterministic context needed to apply it.
struct ArmedFault {
  bool Armed = false;
  FaultKind Kind = FaultKind::ChildCrash;
  int64_t Chunk = 0;
  uint64_t Seed = 0;
  uint64_t StallNs = 0;
};

/// Process-global fault-injection plan. Not thread-safe (the executors are
/// single-threaded parents); forked children inherit a copy-on-write copy,
/// which is why consumption happens parent-side before fork.
class FaultPlan {
public:
  /// The global plan. First access loads ALTER_FAULTS from the environment.
  /// A malformed value arms nothing; instead a structured error naming the
  /// offending token and the accepted grammar is logged and latched in
  /// loadError(), so an injection typo is loud without killing the process.
  static FaultPlan &global();

  /// The latched ALTER_FAULTS parse error ("" when the value parsed, or no
  /// value was set). Harnesses that must not mistake a typo for a clean
  /// run assert on this.
  const std::string &loadError() const { return LoadError; }

  /// Removes every armed fault and restores default seed/stall values.
  void clear();

  /// True when at least one fault is armed.
  bool enabled() const { return !Points.empty(); }

  /// Number of faults still armed.
  size_t pendingCount() const { return Points.size(); }

  /// Arms \p Kind against chunk \p Chunk.
  void arm(FaultKind Kind, int64_t Chunk, bool Sticky = false);

  /// Arms \p Kind against iteration \p Iter: the fault strikes any forked
  /// range whose [FirstIter, LastIter) contains the iteration.
  void armIteration(FaultKind Kind, int64_t Iter, bool Sticky = false);

  /// Seed for deterministic corruption positions.
  void setSeed(uint64_t S) { Seed = S; }
  uint64_t seed() const { return Seed; }

  /// Sleep applied by a Stall fault before the child reports.
  void setStallNs(uint64_t Ns) { StallNs = Ns; }
  uint64_t stallNs() const { return StallNs; }

  /// Called by an executor immediately before forking chunk \p Chunk:
  /// returns the fault armed against it (Armed=false when none) and, unless
  /// the fault is sticky, disarms it so the retry attempt runs clean.
  /// Matches chunk-targeted points only; use the three-argument overload
  /// when the forked iteration range is known.
  ArmedFault take(int64_t Chunk);

  /// Full consumption point: matches chunk-targeted points against
  /// \p Chunk and iteration-targeted points against the half-open range
  /// [FirstIter, LastIter) the fork covers. At most one point is consumed
  /// per call (first match in arming order). Setup faults (MmapFail,
  /// PipeExhaust, SpawnFail) are never matched here — their targets are
  /// worker-slot indices, consumed by takeSetup at resource-creation time.
  ArmedFault take(int64_t Chunk, int64_t FirstIter, int64_t LastIter);

  /// Setup-time consumption point: matches only points of exactly \p Kind
  /// targeting slot/worker \p Index. Called where a resource is created
  /// (ring mmap, pipe setup), so resource-exhaustion containment can be
  /// driven deterministically.
  ArmedFault takeSetup(FaultKind Kind, int64_t Index);

  /// Parent-kill consumption point: called at every instrumented
  /// parent-side site (dispatch, validate, commit, fsync). Advances the
  /// process-global point counter only while a ParentKill point is armed
  /// (so ordinals are deterministic for a plan armed at process start) and
  /// raises SIGKILL on the calling process when an armed point's ordinal
  /// is reached. Never returns on a hit.
  void parentKillPoint();

  /// Parses a plan spec: comma/semicolon-separated entries of
  /// "kind@chunk" (one-shot), "kind@chunk!" (sticky), "kind@iN" /
  /// "kind@iN!" (iteration-targeted), "seed=N", and "stallms=N".
  /// Example: "kill@3,truncate@1!,crash@i17!,seed=7".
  /// On failure returns false, sets \p Error if non-null, and leaves the
  /// plan unchanged.
  bool parse(const std::string &Text, std::string *Error = nullptr);

private:
  FaultPlan();

  std::vector<FaultPoint> Points;
  uint64_t Seed;
  uint64_t StallNs;
  /// Ordinal of the next parent-side kill point (see parentKillPoint).
  uint64_t ParentKillPoints = 0;
  std::string LoadError;
};

/// Convenience wrapper: FaultPlan::global().parentKillPoint(). Executors
/// and the commit journal call this at each dispatch/validate/commit/fsync
/// site; it is a cheap no-op unless a ParentKill point is armed.
void faultParentKillPoint();

/// Child-side wire corruption, exposed for tests: truncates \p Bytes to a
/// deterministic prefix (about half the message).
void faultTruncateWire(std::vector<uint8_t> &Bytes, uint64_t Seed,
                       int64_t Chunk);

/// Flips one deterministically chosen bit of \p Bytes.
void faultBitFlipWire(std::vector<uint8_t> &Bytes, uint64_t Seed,
                      int64_t Chunk);

} // namespace alter

#endif // ALTER_SUPPORT_FAULTINJECTION_H
