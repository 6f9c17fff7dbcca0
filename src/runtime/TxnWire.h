//===- runtime/TxnWire.h - Child->parent commit wire format -----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The commit message a forked child ships to its parent, shared by the
/// three fork engines: the chunk's access sets, write log, reduction
/// deltas, arena cursor, and instrumentation counters.
///
/// The format is compressed (§4.1 ships these over every commit, so pipe
/// traffic is a first-order cost):
///
///  - access sets carry their Bloom summary followed by the sorted word
///    keys run-length-encoded as varint (gap, length) pairs — array ranges
///    instrumented by induction variables collapse to a handful of runs;
///  - the write log's entry table is delta + varint encoded
///    (WriteLog::serializeCompact);
///  - each message reports the byte count the uncompressed format would
///    have used, so RunStats can expose the compression ratio.
///
/// And hardened — a corrupt or truncated message must be REJECTED, never
/// trusted and never fatal, so the executors can contain the failure to the
/// chunk that produced it:
///
///  - every message is framed as magic | payload length | CRC32(payload);
///    the parent verifies all three before decoding a single payload byte;
///  - decoding is allocation-bounded (entry counts are validated against
///    the physical message size before any reserve) and returns failure on
///    structural inconsistencies instead of aborting;
///  - pipe I/O retries on EINTR and treats hard errors as truncation.
///
/// Versioning: parent and children are always forks of one binary, so
/// there is exactly one format, "ALTER5". After the reduction slots come
/// two sections: TRACE, a u64 event count followed by that many fixed-size
/// (6 x u64) TraceEvents recorded inside the child (chunk start/exec,
/// serialize, commit attempt), and METRICS, a u64 blob length followed by
/// the child's sparse MetricsRegistry wire form (per-chunk latency/size
/// histograms, take-and-reset per frame). Off, each section is empty: a
/// zero count below TraceLevel::Events, a zero length with metrics off
/// (ExecutorConfig::Metrics). Counts and lengths are validated against the
/// physical bytes remaining before any allocation, and the frame must end
/// exactly at the METRICS section's last byte.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_RUNTIME_TXNWIRE_H
#define ALTER_RUNTIME_TXNWIRE_H

#include "memory/AccessSet.h"
#include "memory/WriteLog.h"
#include "runtime/CommitRing.h"
#include "runtime/Executor.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace alter {

/// Everything the parent needs to validate and commit one child's chunk.
struct ChildReport {
  bool LimitExceeded = false;
  uint64_t WorkNs = 0;
  uint64_t InstrReadCalls = 0;
  uint64_t InstrWriteCalls = 0;
  uint64_t BytesRead = 0;
  uint64_t BytesWritten = 0;
  uint64_t MemTrafficBytes = 0;
  uint64_t BumpOffset = 0;
  /// Bytes the uncompressed wire format would have occupied (child-side
  /// computation, shipped in the message).
  uint64_t RawWireBytes = 0;
  /// Bytes the message actually occupied (parent-side, from the pipe).
  uint64_t WireBytes = 0;
  AccessSet Reads;
  AccessSet Writes;
  WriteLog Log;
  /// The write log's compact wire bytes exactly as the frame carried them
  /// (already validated by decoding Log from them): the parent forwards
  /// them to the commit stream without serializing Log again.
  std::vector<uint8_t> LogWire;
  std::vector<TxnContext::RedSlotState> Slots;
  /// Child-side trace events from the message's TRACE section (empty below
  /// TraceLevel::Events).
  std::vector<TraceEvent> Trace;
  /// Child-side metrics from the message's METRICS section; null when the
  /// section is empty (the run has metrics off), so a report does not
  /// carry a registry it has no use for. The parent merges it into
  /// RunResult::Metrics.
  std::unique_ptr<MetricsRegistry> Metrics;
};

/// Child side: executes iterations [\p FirstIter, \p LastIter) of chunk
/// \p Chunk of \p Spec transactionally as \p Worker, writes the framed
/// commit message to \p Fd, and _exit()s. Never returns. Applies \p Fault
/// (taken from the FaultPlan by the parent at fork time) when armed. At
/// TraceLevel::Events the message carries the chunk's lifecycle events in
/// its TRACE section. Worker's arena cursor first advances to
/// \p BumpFloor, past the allocations of the slot's reports that still
/// await in-order retirement.
[[noreturn]] void runWireChild(const LoopSpec &Spec,
                               const ExecutorConfig &Config, unsigned Worker,
                               int64_t Chunk, int64_t FirstIter,
                               int64_t LastIter, int Fd,
                               const ArmedFault &Fault = ArmedFault(),
                               uint64_t BumpFloor = 0);

/// Exit status of a replica (resident child or warm template) that found
/// itself lapped by the commit stream: its memory can no longer be brought
/// to committed state, so it bows out and is replaced by a fresh fork.
constexpr int StreamOverrunExitStatus = 14;

/// Ring-transport variant of runWireChild for a one-shot child of the warm
/// template (the round-barrier engine): same transactional execution and
/// frame, but the message is published into \p Ring (shared with the
/// parent) instead of a pipe, ringing (RingDoorbellData | \p DoorbellTag)
/// on \p DoorbellFd after every piece that leaves more to push and
/// RingDoorbellFinish after the last, then exits. Never returns.
[[noreturn]] void runWireChildRing(const LoopSpec &Spec,
                                   const ExecutorConfig &Config,
                                   unsigned Worker, int64_t Chunk,
                                   int64_t FirstIter, int64_t LastIter,
                                   CommitRing &Ring, int DoorbellFd,
                                   uint8_t DoorbellTag,
                                   const ArmedFault &Fault = ArmedFault());

/// A resident child of worker slot \p Slot (the pipeline engine's
/// fork-free steady state), tagged \p Tag: a replica of committed state
/// that claims chunks from \p Queue for as long as it lives. It first
/// announces itself in the queue. For each chunk it catches up from
/// \p Stream (from \p Cursor, the template's position at the fork)
/// through the commit sequence it reads after the claim — the chunk's
/// snapshot, which it stores in the entry — runs the chunk with its one
/// TxnContext, publishes the frame into \p Ring, counts it in the queue
/// and wakes the parent (one futex word, no pipe), restores its snapshot
/// (suspendTxn plus an arena rollback) and claims again. It claims only
/// while at most one of its records awaits the parent's verdict, and after
/// a chunk that allocated only once the parent has decided every record it
/// pushed; otherwise, or when nothing is open, it sleeps on the queue's
/// futex. A lapped replay exits with StreamOverrunExitStatus. Never
/// returns; the template kills it.
[[noreturn]] void runResidentChild(const LoopSpec &Spec,
                                   const ExecutorConfig &Config,
                                   unsigned Slot, uint8_t Tag,
                                   CommitRing &Ring, DispatchQueue &Queue,
                                   const CommitStream &Stream,
                                   CommitStream::Cursor Cursor);

/// Parent side: appends one validated commit to \p Stream — arena index
/// \p Worker's cursor, the reduction slots and the write log's compact
/// bytes (Rep.LogWire) — for the replicas to replay.
void appendCommitRecord(CommitStream &Stream, unsigned Worker,
                        const ChildReport &Rep);

/// Applies one commit's effects to this process's memory: the write log,
/// the touched reduction slots, and arena \p Worker's bump cursor. The
/// parent's commit lane (ParentLane::commit) and the replicas' commit
/// stream replay (catchUpCommits) both apply through here, so parent
/// memory and replica memory cannot diverge.
void applyCommit(const LoopSpec &Spec, const ExecutorConfig &Config,
                 unsigned Worker, const WriteLog &Log,
                 const std::vector<TxnContext::RedSlotState> &Slots,
                 uint64_t BumpOffset);

/// Replica side: replays every record of \p Stream after \p Cursor
/// through sequence number \p TargetSeq into this process's memory (write
/// log, reduction slots, arena cursor — the same effects as the parent's
/// own commit), advancing \p Cursor. Stops at the first record that was
/// overwritten (Overrun) or does not decode (Corrupt); records before it
/// stay applied.
CommitStream::ReadResult catchUpCommits(const CommitStream &Stream,
                                        CommitStream::Cursor &Cursor,
                                        uint64_t TargetSeq,
                                        const LoopSpec &Spec,
                                        const ExecutorConfig &Config);

/// Child side: serializes the framed commit message for a transaction
/// already executed in \p Ctx (after captureRedo or suspendTxn): fixed
/// header, compressed access sets, write log, reduction slots, TRACE
/// section, all wrapped in the magic | length | CRC32 frame. The
/// uncorrupted building block behind runWireChild, exposed so other
/// transactional children (the stage-pipeline workers) can ship through
/// the identical validate/commit path. Records the Serialize/CommitAttempt
/// trace events into \p Trace before encoding the TRACE section. With
/// \p Metrics null the METRICS section is empty, and equal transactions
/// encode to identical bytes; with a registry the frame carries it (after
/// recording this frame's serialize latency and sizes into it) in the
/// METRICS section, then RESETS it — each frame ships the deltas since the
/// previous one, so the parent-side merge across frames double-counts
/// nothing.
std::vector<uint8_t> encodeCommitFrame(TxnContext &Ctx,
                                       const ExecutorConfig &Config,
                                       unsigned Worker, int64_t Chunk,
                                       uint64_t WorkNs, TraceBuffer &Trace,
                                       MetricsRegistry *Metrics = nullptr);

/// True when \p Bytes holds a complete frame: the header has arrived and
/// the payload-length field is satisfied. A corrupt magic makes the length
/// untrustworthy, so any full header with a bad magic counts as complete —
/// the decode path rejects it either way. Used by the ring transport,
/// which has no EOF to delimit a record.
bool wireFrameLooksComplete(const uint8_t *Bytes, size_t Size);

/// Bytes of the first frame in \p Bytes when it is complete (see
/// wireFrameLooksComplete; a corrupt magic claims all \p Size bytes), else
/// 0. Splits the records of a ring that carries several back to back.
size_t wireFrameBytes(const uint8_t *Bytes, size_t Size);

/// Parent side: verifies the frame (magic, length, CRC32) and decodes one
/// child's message into \p Rep. Returns false — with \p Error describing
/// the rejection — on any truncation, corruption, or structural
/// inconsistency. Never aborts and never trusts unverified bytes.
bool decodeChildReport(const std::vector<uint8_t> &Bytes,
                       const LoopSpec &Spec, const RuntimeParams &Params,
                       ChildReport &Rep, std::string &Error);

/// Serializes \p Set in the compressed form (Bloom summary + RLE word
/// runs). Exposed for tests and size accounting.
void serializeAccessSet(std::vector<uint8_t> &Out, const AccessSet &Set);

/// Inverse of serializeAccessSet: replaces \p Set's contents with the
/// decoded words (ascending, no hash table built); \p Consumed receives the
/// encoded length. Returns false on corrupt input — including word key 0
/// and runs that wrap past 2^64 — leaving \p Set unchanged.
bool deserializeAccessSet(const uint8_t *Data, size_t Size, AccessSet &Set,
                          size_t &Consumed);

/// Bytes the uncompressed (8 bytes per word key) access-set format uses.
size_t rawAccessSetBytes(const AccessSet &Set);

/// CRC32 (IEEE 802.3 polynomial) used by the message frame. Exposed for
/// tests.
uint32_t wireCrc32(const uint8_t *Data, size_t Size);

/// Blocking full read of \p Fd until EOF. Retries on EINTR; a hard read
/// error returns the bytes collected so far (the frame check downstream
/// rejects the truncation).
std::vector<uint8_t> readAllFromPipe(int Fd);

} // namespace alter

#endif // ALTER_RUNTIME_TXNWIRE_H
