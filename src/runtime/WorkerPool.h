//===- runtime/WorkerPool.h - Warm fork pool + chunk transport --*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fork engines' steady-state transport: a resident *template* process
/// per run, one shared-memory commit ring per worker slot, and one commit
/// stream shared by the whole pool.
///
/// Fork-per-chunk pays twice per chunk: fork() must write-protect the full
/// parent address space (and the parent then COW-faults its way back), and
/// the commit message crosses a kernel pipe. The pool amortizes both. The
/// parent forks the template once; the template is a small, quiescent
/// process that forks the per-chunk children on command. Children publish
/// their commit frames into their slot's CommitRing; only 1-byte
/// doorbells cross pipes.
///
/// Commit stream (parent -> every replica): the parent appends each
/// validated commit (write log, reduction slots, arena cursor) once to a
/// CommitStream sized by RingBytesPerSlot and mapped read-only in the
/// template and its children. Every replica of committed state — the
/// template and each resident child — keeps its own cursor and replays
/// the records after it, in commit order, up to the sequence number its
/// next command names: the template before each fork, a resident child
/// before each chunk. So a child always starts a chunk on exactly the
/// commits the parent had applied at dispatch, which is the snapshot the
/// executors' SnapshotSeq logic assumes. The parent never waits for a
/// replica: it checks before each command that the records the replica
/// needs are still in the stream (CommitStream::holds) and otherwise
/// replaces it; a replica lapped mid-replay exits with
/// StreamOverrunExitStatus (a contained crash for a child, a template
/// death for the template).
///
/// Control protocol (parent -> template, framed commands, FIFO):
///   Fork   — replay the stream through Seq, then fork a child for (slot,
///            chunk, range, armed fault). The child runs runWireChildRing.
///            If the slot's previous child is still around (resident, or
///            somehow unreaped), it is killed and reaped first.
///   Kill   — SIGKILL + reap the slot's child (deadline enforcement).
///   EOF    — teardown: kill and reap every child, _exit.
///
/// Completion signals (template/child -> parent, per-slot doorbell pipe):
/// the child writes RingDoorbellData after each published piece; the
/// template writes RingDoorbellClean/Abnormal when it reaps the child. A
/// record is complete when its frame is whole (wireFrameLooksComplete) or
/// a terminal doorbell arrives — the frame check covers a template that
/// died mid-chunk, the terminal doorbell covers truncated/corrupt frames
/// that will never look whole. Every doorbell byte carries the slot's
/// 6-bit fork-attempt tag so stale bytes from a previous occupant are
/// dropped.
///
/// Fork-free steady state (pipeline engine): a ring child does not exit
/// after publishing its record — it restores its snapshot (suspendTxn plus
/// an arena rollback), rings a Finish doorbell and blocks on its slot's
/// WORK PIPE. Whatever becomes of that chunk (committed, aborted, or still
/// parked for in-order retirement), the parent dispatches the slot's next
/// chunk to that same resident child with a single WireNextCmd write; the
/// child catches up from the stream and runs it: no fork anywhere, by
/// anyone. The template forks only a slot's first child and replacements
/// after a crash, a kill, a wire fault or a stream overrun. Redispatch
/// keeps the slot's attempt tag: Finish is provably the old chunk's last
/// doorbell, so no stale byte can complete the new chunk, and the
/// template's per-slot pid/tag bookkeeping stays valid for kills and
/// crash reaps.
///
/// Every pool failure (template spawn failure, dead template, injected
/// TemplatePoison) degrades the affected forks to the legacy cold
/// pipe+fork path — never to a chunk failure. The pool respawns on the
/// next warm fork; a respawn forks from the parent, whose memory IS
/// committed state, so it starts at the stream's end. A template that
/// dies while no command is being written is noticed through
/// livenessFd(), which the engines poll alongside their chunk channels.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_WORKERPOOL_H
#define ALTER_RUNTIME_WORKERPOOL_H

#include "runtime/CommitRing.h"
#include "runtime/Executor.h"
#include "runtime/TxnWire.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"

#include <memory>
#include <sys/types.h>
#include <vector>

namespace alter {

/// Parent-side state of one in-flight chunk, transport-agnostic: the
/// executors poll PollFd, pump bytes with pumpChunkChannel, and decode Buf
/// once Done — identically for a warm ring child and a cold pipe child.
struct ChunkChannel {
  /// A child is running (warm or cold). False after a fork failure.
  bool Launched = false;
  /// Forked from the warm template (ring transport) rather than cold from
  /// the parent (pipe transport or pool fallback).
  bool Warm = false;
  /// Redispatched to the slot's resident child with no fork at all (the
  /// fork-free steady state). Implies Warm. The child catches up to the
  /// parent's commits at dispatch, so its snapshot is as fresh as a fork's.
  bool Reused = false;
  /// What the executor polls: the pipe read end (cold) or the slot's
  /// doorbell read end (warm; pool-owned, do not close).
  int PollFd = -1;
  /// Cold child's pid, reaped by the executor; -1 for warm children,
  /// which the template reaps.
  pid_t DirectPid = -1;
  /// The assembled commit message.
  std::vector<uint8_t> Buf;
  /// The full record arrived (or the child is gone); Buf is final.
  bool Done = false;
  /// Warm only: the template reaped the child after a signal or nonzero
  /// exit. Cold children report through their wait status instead.
  bool Abnormal = false;
  /// Bytes that crossed a kernel pipe for this chunk (whole message when
  /// cold, doorbell bytes when warm). Feeds RunStats::WireBytesCopied.
  uint64_t BytesCopied = 0;
};

/// One run's warm template process, its per-slot commit rings and its
/// commit stream. Created
/// by a fork engine when ExecutorConfig::Transport == TransportKind::Ring;
/// ladder sub-runs construct fresh engines, so they get private pools and
/// rings automatically.
class WorkerPool {
public:
  /// Allocates the commit stream and the rings, doorbell pipes, and work
  /// pipes for \p NumSlots worker slots. The template itself is forked
  /// lazily on the first warm fork (and re-forked after a fault or a
  /// refresh). \p AllowReuse enables the fork-free steady state (child
  /// redispatch); the pipeline engine passes true, ForkJoin false (it
  /// forks every round's chunks fresh). The pool counts its faults,
  /// refreshes and reuses straight into \p Stats.
  WorkerPool(const LoopSpec &Spec, const ExecutorConfig &Config,
             unsigned NumSlots, bool AllowReuse, RunStats &Stats);

  /// Tears the template down (control-pipe EOF makes it kill and reap any
  /// straggling children, then exit) and reaps it.
  ~WorkerPool();

  /// True when the stream and every slot's ring mapping and pipes came up.
  /// False after resource exhaustion at construction (ENOMEM on a ring or
  /// stream mmap, EMFILE on a pipe) or a failed ring respawn in a hard
  /// retirement — a contained outcome: warmFork refuses, and the owning
  /// engine should drop the pool and run the whole loop on the cold pipe
  /// transport (counting a TransportDowngrade).
  bool valid() const { return !Invalid; }

  /// Site code of the first setup failure when !valid(), matching the
  /// ResourceFault trace-event convention: 0 = ring or stream mmap, 1 =
  /// pipe setup.
  unsigned setupFaultSite() const { return FailSite; }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Runs chunk \p Chunk on \p Slot and fills \p Ch: redispatches the
  /// slot's resident child when there is one (reuse allowed, the child
  /// rang Finish and is alive, its last record was not rejected, and the
  /// stream still holds every commit it must replay), otherwise forks from
  /// the warm template. Either way the child starts on every commit pushed
  /// so far. Returns false when the pool is unusable (spawn failed, the
  /// template died, or it fell behind the stream while other chunks are in
  /// flight) — the caller falls back to a cold fork. Replaces a template
  /// the stream has lapped and counts a pool fault on failure.
  bool warmFork(unsigned Slot, int64_t Chunk, int64_t First, int64_t Last,
                const ArmedFault &Fault, ChunkChannel &Ch);

  /// Appends one validated commit to the commit stream (write log,
  /// reduction slots, arena cursor for arena index \p Worker). Call at the
  /// exact point the parent applies the commit itself, before any later
  /// dispatch: replicas catch up to the commits pushed before their
  /// command.
  void pushCommit(unsigned Worker, const ChildReport &Rep);

  /// The parent rejected the record \p Slot's child published (wire
  /// fault): never redispatch that child; the slot's next chunk re-forks.
  void discardResident(unsigned Slot) { Slots[Slot].Discard = true; }

  /// Parent-side pump for a warm slot: drains doorbell bytes and the ring,
  /// and marks Ch.Done (and Abnormal) per the completion rules. Returns
  /// Ch.Done.
  bool pump(unsigned Slot, ChunkChannel &Ch);

  /// Asks the template to SIGKILL and reap \p Slot's child; the terminal
  /// doorbell completes the channel through the normal pump path.
  void killSlot(unsigned Slot);

  /// Treats the current template as failed: kills it outright, counts a
  /// pool fault, and rings the abnormal doorbell of every in-flight warm
  /// chunk (its children die with it) so the engine requeues it. The
  /// pending warm fork degrades to cold; the next one respawns. Called for
  /// an injected TemplatePoison, and by the engines when livenessFd()
  /// reports the template dead.
  void failTemplate();

  /// Template liveness for the engines' poll loops: the control pipe's
  /// write end, or -1 while no template is up. Poll it with events 0: the
  /// kernel reports POLLERR once the template's read end is gone, i.e.
  /// the template died. The parent writes to the template only to fork or
  /// kill, so this is how a death outside the pool's control (killed,
  /// crashed, lapped by the stream) is noticed while chunks are waiting.
  int livenessFd() const { return ControlFd; }

  /// Retires the current template now (idempotent; the destructor would do
  /// the same). Executors call it before reading templateRusage() so the
  /// final incarnation's CPU time is folded in.
  void retire() { retireTemplate(); }

  /// Accumulated rusage of every template incarnation reaped so far. Linux
  /// wait4 reports a process's own usage PLUS that of its waited-for
  /// descendants, and the template reaps every warm child, so this is the
  /// transitive CPU cost of the whole warm lineage.
  const ChildRusage &templateRusage() const { return TemplateUsage; }

  /// Bytes currently buffered across all slot commit rings (parent-side
  /// backlog gauge for the timeline sampler).
  size_t ringDepthBytes() const;

private:
  struct SlotState {
    std::unique_ptr<CommitRing> Ring;
    int DoorbellR = -1; // parent polls (O_NONBLOCK; parent-owned)
    int DoorbellW = -1; // parent keeps a copy for respawned templates
    int WorkR = -1;     // resident child blocks here for redispatch
    int WorkW = -1;     // parent writes WireNextCmd here
    uint8_t Attempt = 0;
    bool Used = false;        // a warm fork has occupied this slot
    bool TerminalSeen = true; // last occupant's terminal doorbell arrived
    bool RecordDone = true;   // last occupant's record arrived whole
    bool FinishSeen = false;  // the occupant rang Finish: resident + idle
    bool Discard = false;     // the occupant's last record was rejected
    /// Stream position the occupant reached for its current chunk.
    CommitStream::Cursor Cursor;
  };

  void resetSlot(SlotState &S);
  void accumulateTemplateUsage(const ChildRusage &Usage);
  bool ensureTemplate();
  void retireTemplate();
  void killTemplateHard();
  bool sendCommand(uint8_t Op, const void *Payload, size_t Size);
  bool anyInFlight() const;
  [[noreturn]] void templateMain(int ControlFd);

  const LoopSpec &Spec;
  const ExecutorConfig &Config;
  const bool AllowReuse;
  RunStats &Stats;
  bool Invalid = false; // a ring/pipe failed: warm forks permanently refuse
  unsigned FailSite = 0; // first failure site (0 ring mmap, 1 pipe setup)
  std::vector<SlotState> Slots;
  pid_t TemplatePid = -1;
  ChildRusage TemplateUsage; // summed over reaped template incarnations
  int ControlFd = -1; // parent's write end of the current template's pipe
  /// Committed state for the replicas. Outlives template incarnations: a
  /// respawn simply starts at its end.
  CommitStream Stream;
  /// Stream position the template reached (or will reach) for its latest
  /// fork; its spawn position before the first.
  CommitStream::Cursor TemplateCursor;
};

/// Launches a child for one chunk — the single spawn path both executors
/// and both transports share. Warm-forks from \p Pool when it is present
/// and healthy; otherwise cold-forks from the parent with a private pipe
/// (closing \p CloseInChild, the other in-flight cold read ends, in the
/// child). An armed TemplatePoison fault strikes here. Returns false (and
/// leaves Ch unlaunched) only when the cold fork itself fails.
bool spawnChunkChild(const LoopSpec &Spec, const ExecutorConfig &Config,
                     WorkerPool *Pool, unsigned Slot, int64_t Chunk,
                     int64_t First, int64_t Last, const ArmedFault &Fault,
                     const std::vector<int> &CloseInChild, ChunkChannel &Ch);

/// Pumps one readable channel: warm slots delegate to Pool->pump, cold
/// slots read the pipe (EOF or a hard error completes them). Returns
/// Ch.Done.
bool pumpChunkChannel(WorkerPool *Pool, unsigned Slot, ChunkChannel &Ch);

/// Kills an in-flight chunk child (deadline enforcement): SIGKILL for a
/// cold child, a Kill command to the template for a warm one. Completion
/// still arrives through pumpChunkChannel.
void killChunkChild(WorkerPool *Pool, unsigned Slot, ChunkChannel &Ch);

} // namespace alter

#endif // ALTER_RUNTIME_WORKERPOOL_H
