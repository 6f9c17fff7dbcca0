//===- runtime/WorkerPool.h - Warm fork pool + chunk transport --*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fork engines' steady-state transport: a resident *template* process
/// per run, one shared-memory commit ring per worker slot, one commit
/// stream shared by the whole pool, and — for the pipeline engine — one
/// dispatch queue its resident children claim chunks from.
///
/// Fork-per-chunk pays twice per chunk: fork() must write-protect the full
/// parent address space (and the parent then COW-faults its way back), and
/// the commit message crosses a kernel pipe. The pool amortizes both. The
/// parent forks the template once; the template is a small, quiescent
/// process that forks children on command. Children publish their commit
/// frames into their slot's CommitRing; at most 1-byte doorbells cross
/// pipes.
///
/// Commit stream (parent -> every replica): the parent appends each
/// validated commit (write log, reduction slots, arena cursor) once to a
/// CommitStream sized by RingBytesPerSlot and mapped read-only in the
/// template and its children, and publishes the new commit count in the
/// dispatch queue. Every replica of committed state — the template and
/// each resident child — keeps its own cursor and replays the records
/// after it, in commit order: the template up to the sequence number its
/// next command names, a resident up to the count it reads right after
/// claiming a chunk, which becomes the chunk's SnapshotSeq (its first
/// chunk runs on the count the entry was published at, or the fork's if
/// later, so residents started together share one snapshot). The parent
/// never waits for a replica. It checks before each template command that
/// the records the template needs are still in the stream
/// (CommitStream::holds) and otherwise replaces it; a resident checks for
/// itself before each claim and bows out (StreamOverrunExitStatus, reaped
/// as clean) holding no chunk; a template lapped mid-replay dies.
///
/// Control protocol (parent -> template, framed commands, FIFO):
///   Fork   — replay the stream through Seq, then fork a one-shot child for
///            (slot, chunk, range, armed fault); it runs runWireChildRing
///            and exits (the round-barrier engine).
///   Spawn  — replay the stream through Seq, then fork a resident child for
///            a slot (the pipeline engine); it runs runResidentChild, with
///            its arena cursor first advanced to the command's floor.
///   Either kills and reaps the slot's previous child first.
///   Kill   — SIGKILL + reap the slot's child (a deadline, or a resident
///            whose record the parent rejected).
///   EOF    — teardown: kill and reap every child, _exit.
///
/// Completion signals (template/child -> parent, per-slot doorbell pipe):
/// a one-shot child rings RingDoorbellFinish after the last piece of its
/// record (and RingDoorbellData after earlier pieces of a record larger
/// than the ring's free space); the template rings RingDoorbellClean or
/// RingDoorbellAbnormal when it reaps a child. A one-shot record is
/// complete when its frame is whole (wireFrameLooksComplete) or its Finish
/// bell arrived — the bell covers truncated or corrupt frames that will
/// never look whole. Every doorbell byte carries the slot's 6-bit attempt
/// tag, so stale bytes from a previous occupant are dropped.
///
/// Fork-free steady state (pipeline engine): the parent forks one resident
/// child per slot, and the residents claim their chunks themselves from a
/// DispatchQueue in the same MAP_SHARED memory as the rings and the
/// stream. The parent alone decides what may run — pending order, retries,
/// the starvation-guard drain, the parallelism downgrade and the
/// dispatch-time fault all act on what it publishes; it keeps a constant
/// number of entries open per live resident, opens none while a resident
/// it forked has not yet announced itself (so the residents forked
/// together start together), and retracts open entries a requeued older
/// chunk must overtake. A resident claims an entry with one
/// compare-and-swap that names its slot and attempt tag, reads the
/// published commit count (its snapshot), catches up from the stream, runs
/// the chunk, publishes the record, counts it in its slot's
/// published-records word and wakes the parent through a futex (no pipe:
/// a pipe write pulls the woken parent onto the resident's CPU), and
/// claims again — no parent write per chunk, and no fork anywhere. It
/// sleeps on the queue's futex when nothing is open, or when it is already
/// one record ahead of the parent's verdict on its previous one (and,
/// after a chunk that allocated, until every record it pushed is decided,
/// so the arena bytes of a chunk that may still commit are never handed
/// out twice).
///
/// The parent finds a slot's chunks through the claim words, in claim
/// order, and matches the records in the slot's ring to them in that
/// order; a record is complete when its frame is whole or the published
/// count covers it. A resident that dies (the template's terminal
/// doorbell, which also wakes the parent's futex) loses every claim it has
/// not reported, including one it made just before dying, and the engine
/// requeues those chunks. A record the parent rejects retires its resident
/// (its claim gate closes, then Kill), and its later claims requeue
/// uncharged: the ring's framing after a bad record is not trusted. Its
/// successor is forked once the predecessor's reap doorbell proves the
/// ring holds no more of its bytes. The template forks a slot's first
/// resident and replacements after a crash, a retirement, a stream overrun
/// or a template refresh. A resident announces itself in the queue before
/// it claims anything; one the template reaps before that was never really
/// forked: a fork failure, and its slot runs cold children until one of
/// them forks.
///
/// Every pool failure (template spawn failure, a resident's failed fork,
/// dead template, injected TemplatePoison) degrades the affected forks to
/// the legacy cold pipe+fork path — never to a chunk failure. The pool
/// respawns on the next warm fork; a respawn forks from the parent, whose
/// memory IS committed state, so it starts at the stream's end. A
/// template that dies while no command is being written is noticed
/// through livenessFd(), which the engines poll alongside their chunk
/// channels.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_WORKERPOOL_H
#define ALTER_RUNTIME_WORKERPOOL_H

#include "runtime/CommitRing.h"
#include "runtime/Executor.h"
#include "runtime/TxnWire.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <sys/types.h>
#include <vector>

namespace alter {

/// Parent-side state of one in-flight chunk child, transport-agnostic: the
/// executors poll PollFd, pump bytes with pumpChunkChannel, and decode Buf
/// once Done — identically for a warm one-shot child and a cold pipe child.
struct ChunkChannel {
  /// A child is running (warm or cold). False after a fork failure.
  bool Launched = false;
  /// Forked from the warm template (ring transport) rather than cold from
  /// the parent (pipe transport or pool fallback).
  bool Warm = false;
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

/// What the pool tells the pipeline engine about the chunks its resident
/// children claim (WorkerPool::collect).
struct ResidentEvent {
  enum class Kind : uint8_t {
    /// A resident claimed the published entry: the chunk is running. Reuse
    /// is set unless it is the resident's first chunk.
    Claimed,
    /// The entry's record arrived whole: Frame and SnapshotSeq are set.
    Report,
    /// The entry's chunk will never report. Crashed is set when its
    /// claimer died abnormally on its own, a contained crash the chunk is
    /// charged for; otherwise the pool or the parent ended the claimer and
    /// the chunk simply requeues, with its armed fault in Fault.
    Lost,
  };
  Kind K = Kind::Claimed;
  unsigned Slot = 0;
  uint64_t Index = 0;
  int64_t Chunk = -1;
  bool Reuse = false;
  bool Crashed = false;
  uint64_t SnapshotSeq = 0;
  ArmedFault Fault;
  std::vector<uint8_t> Frame;
};

/// One run's warm template process, its per-slot commit rings, its commit
/// stream and, for resident children, its dispatch queue. Created by a
/// fork engine when ExecutorConfig::Transport == TransportKind::Ring;
/// ladder sub-runs construct fresh engines, so they get private pools and
/// rings automatically.
class WorkerPool {
public:
  /// Allocates the commit stream, the rings and doorbell pipes for
  /// \p NumSlots worker slots and, with \p Residents, the dispatch queue.
  /// The template itself is forked lazily (and re-forked after a fault or
  /// a refresh). The pipeline engine passes Residents true and runs every
  /// chunk on resident children; the round-barrier engine passes false and
  /// forks a one-shot child per chunk (warmFork). The pool counts its
  /// faults, refreshes, forks and reuses straight into \p Stats.
  WorkerPool(const LoopSpec &Spec, const ExecutorConfig &Config,
             unsigned NumSlots, bool Residents, RunStats &Stats);

  /// Tears the template down (control-pipe EOF makes it kill and reap any
  /// straggling children, then exit) and reaps it.
  ~WorkerPool();

  /// True when the stream, the queue and every slot's ring mapping and
  /// pipe came up. False after resource exhaustion at construction (ENOMEM
  /// on a mapping, EMFILE on a pipe) or a failed ring respawn in a hard
  /// retirement — a contained outcome: the pool refuses work, and the
  /// owning engine should drop it and run the whole loop on the cold pipe
  /// transport (counting a TransportDowngrade).
  bool valid() const { return !Invalid; }

  /// Site code of the first setup failure when !valid(), matching the
  /// ResourceFault trace-event convention: 0 = ring, stream or queue mmap,
  /// 1 = pipe setup.
  unsigned setupFaultSite() const { return FailSite; }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  //===--------------------------------------------------------------------===
  // One-shot children (round-barrier engine)
  //===--------------------------------------------------------------------===

  /// Forks a one-shot child for chunk \p Chunk on \p Slot from the warm
  /// template and fills \p Ch. The child starts on every commit pushed so
  /// far. Returns false when the pool is unusable (spawn failed, the
  /// template died, or it fell behind the stream while other chunks are in
  /// flight) — the caller falls back to a cold fork. Replaces a template
  /// the stream has lapped and counts a pool fault on failure.
  bool warmFork(unsigned Slot, int64_t Chunk, int64_t First, int64_t Last,
                const ArmedFault &Fault, ChunkChannel &Ch);

  /// Parent-side pump for a one-shot warm slot: drains doorbell bytes and
  /// the ring, and marks Ch.Done (and Abnormal) per the completion rules.
  /// Returns Ch.Done.
  bool pump(unsigned Slot, ChunkChannel &Ch);

  /// Asks the template to SIGKILL and reap \p Slot's child; the terminal
  /// doorbell completes the channel through the normal pump path.
  void killSlot(unsigned Slot);

  //===--------------------------------------------------------------------===
  // Resident children (pipeline engine)
  //===--------------------------------------------------------------------===

  /// Publishes chunk \p Chunk (iterations [\p First, \p Last), armed
  /// \p Fault) as queue entry \p Index for the residents to claim. Its
  /// claimer's snapshot is never older than the commits pushed so far.
  /// False when every ring position is still in use.
  bool publish(int64_t Chunk, int64_t First, int64_t Last,
               const ArmedFault &Fault, uint64_t &Index);

  /// Takes back open entry \p Index. False when a resident claimed it
  /// first; collect() then reports the claim.
  bool retract(uint64_t Index);

  /// The fault published with entry \p Index.
  ArmedFault entryFault(uint64_t Index) const {
    return Queue->entry(Index).Fault;
  }

  /// Where a slot's resident stands after ensureResident.
  enum class ResidentState : uint8_t {
    None,     ///< no resident, and none could be forked: run the slot cold
    Live,     ///< a resident was forked (now or earlier)
    Retiring, ///< the resident's record was rejected and it is being killed
  };

  /// Keeps a live resident in \p Slot, forking one from the template (with
  /// its arena cursor advanced to \p BumpFloor) when the slot has none. A
  /// lapped template is refreshed first when no other resident holds a
  /// claim, else the slot runs cold for now (a pool fault). After a
  /// resident of the slot was reaped before it announced itself (a failed
  /// fork in the template, counted in NumForkFailures and PoolFaults), the
  /// slot runs cold until coldForked(). Returns Live, Retiring (run nothing
  /// there until the template has reaped it) or None.
  ResidentState ensureResident(unsigned Slot, uint64_t BumpFloor);

  /// A cold child of \p Slot was forked: its next ensureResident may fork
  /// a resident again.
  void coldForked(unsigned Slot);

  bool residentLive(unsigned Slot) const {
    return Slots[Slot].Resident == ResidentState::Live;
  }
  /// The slot's live resident has announced itself (it is counted as a
  /// warm fork from then on).
  bool residentUp(unsigned Slot) const {
    return residentLive(Slot) && Slots[Slot].Up;
  }

  /// Doorbell descriptor to poll for \p Slot's resident, or -1.
  int residentFd(unsigned Slot) const;

  /// Collects what the residents did since the last call, in order: the
  /// doorbells of the slots flagged in \p Readable, every new claim, every
  /// record now whole in a ring, and the claims of residents that died.
  /// \p OnEvent returns false for a Report the parent rejected: the pool
  /// retires that resident and reports its later claims Lost. Returns the
  /// number of events delivered plus the residents that announced
  /// themselves since the last call: zero means nothing changed.
  size_t collect(const std::vector<bool> &Readable,
                 const std::function<bool(ResidentEvent &)> &OnEvent);

  /// The parent's sleep between collects when only residents run (see
  /// DispatchQueue::sleepParent): read the generation, collect, and sleep
  /// only if nothing was found.
  uint32_t parentGeneration() const { return Queue->parentGeneration(); }
  void sleepParent(uint32_t Seen, int TimeoutMs) {
    Queue->sleepParent(Seen, TimeoutMs);
  }

  /// The parent took entry \p Index's report without deciding it (parked
  /// for in-order retirement). Its claimer may run one chunk further.
  void taken(uint64_t Index);
  /// The parent decided entry \p Index's report (committed, retried or
  /// rejected).
  void settled(uint64_t Index);

  /// Makes the publishes, retractions and verdicts since the last flush
  /// visible to the residents and wakes the sleeping ones.
  void flush();

  //===--------------------------------------------------------------------===
  // Both
  //===--------------------------------------------------------------------===

  /// Appends one validated commit to the commit stream (write log,
  /// reduction slots, arena cursor for arena index \p Worker) and publishes
  /// the new commit sequence to the queue. Call at the exact point the
  /// parent applies the commit itself, before any later dispatch: replicas
  /// catch up to the commits pushed before their command or claim.
  void pushCommit(unsigned Worker, const ChildReport &Rep);

  /// Treats the current template as failed: kills it outright, counts a
  /// pool fault, and completes every in-flight warm child (its children
  /// die with it) so the engine requeues the chunk: a one-shot slot's
  /// abnormal doorbell is rung, a resident's claims are reported Lost
  /// (uncharged) by the next collect(). Called for an injected
  /// TemplatePoison, and by the engines when livenessFd() reports the
  /// template dead.
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

  /// Times resident children slept waiting for a claim, over the run.
  uint64_t claimSleeps() const { return Queue ? Queue->claimSleeps() : 0; }

  /// Bytes currently buffered across all slot commit rings (parent-side
  /// backlog gauge for the timeline sampler).
  size_t ringDepthBytes() const;

private:
  struct SlotState {
    std::unique_ptr<CommitRing> Ring;
    int DoorbellR = -1; // parent polls (O_NONBLOCK; parent-owned)
    int DoorbellW = -1; // parent keeps a copy for respawned templates
    uint8_t Attempt = 0;
    bool Used = false;        // a one-shot child has occupied this slot
    bool TerminalSeen = true; // last occupant's terminal doorbell arrived
    bool RecordDone = true;   // last occupant's record arrived whole
    // Resident slots only.
    ResidentState Resident = ResidentState::None;
    bool Up = false;          // the resident announced itself
    bool SpawnFailed = false; // the last one never did: run the slot cold
    bool Claimed = false;     // the resident has claimed its first chunk
    bool Terminal = false;   // its terminal doorbell arrived
    bool Abnormal = false;   // ... and said it died abnormally
    uint64_t Published = 0;  // records it has published whole
    uint64_t Records = 0;    // records split off its ring so far
    std::vector<uint8_t> Buf; // ring bytes not yet split into records
    /// Claimed entries without a report, in claim (= index) order.
    std::deque<uint64_t> Claims;
    uint64_t Taken = 0, Settled = 0; // verdicts for the queue's counters
    bool VerdictsDirty = false;
  };

  /// Parent-side record of an open or claimed queue entry.
  struct EntryState {
    int64_t Chunk = -1;
    bool Open = true;
    unsigned Slot = 0;
    uint8_t Attempt = 0;
    bool Reported = false; // its record arrived: the claimer is done with it
    bool Taken = false;
  };

  void resetSlot(SlotState &S);
  void accumulateTemplateUsage(const ChildRusage &Usage);
  bool ensureTemplate();
  void retireTemplate();
  void killTemplateHard();
  bool sendCommand(uint8_t Op, const void *Payload, size_t Size);
  bool anyInFlight() const;
  /// Reports every unreported claim of \p Slot's resident Lost and drops
  /// the slot's buffered bytes.
  void loseClaims(unsigned Slot, bool Crashed);
  /// Retires every resident at once (the template went away).
  void loseAllResidents();
  void scanClaims();
  uint8_t readBells(unsigned Slot);
  void emit(ResidentEvent Ev) { Deferred.push_back(std::move(Ev)); }
  [[noreturn]] void templateMain(int ControlFd);

  const LoopSpec &Spec;
  const ExecutorConfig &Config;
  const bool Residents;
  RunStats &Stats;
  bool Invalid = false; // a ring/pipe failed: warm forks permanently refuse
  unsigned FailSite = 0; // first failure site (0 mmap, 1 pipe setup)
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
  /// Resident mode: the claim queue, its open and claimed entries, and the
  /// next index to publish.
  std::unique_ptr<DispatchQueue> Queue;
  std::map<uint64_t, EntryState> Entries;
  uint64_t NextIndex = 0;
  bool Dirty = false; // something to flush
  /// Events produced outside collect() (template death, refresh), handed
  /// out first by the next collect().
  std::vector<ResidentEvent> Deferred;
};

/// Launches a child for one chunk — the single spawn path both executors
/// and both transports share. Warm-forks from \p Pool when it is present
/// and healthy; otherwise cold-forks from the parent with a private pipe
/// (closing \p CloseInChild, the other in-flight cold read ends, in the
/// child). An armed TemplatePoison fault strikes here. Returns false (and
/// leaves Ch unlaunched) only when the cold fork itself fails.
/// A cold child's arena cursor first advances to \p BumpFloor.
bool spawnChunkChild(const LoopSpec &Spec, const ExecutorConfig &Config,
                     WorkerPool *Pool, unsigned Slot, int64_t Chunk,
                     int64_t First, int64_t Last, const ArmedFault &Fault,
                     const std::vector<int> &CloseInChild, ChunkChannel &Ch,
                     uint64_t BumpFloor = 0);

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
