//===- tests/CommitRingTest.cpp - Shared-memory commit ring ---------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPSC shared-memory ring underneath the warm-pool transport:
/// wraparound across record boundaries, full-ring backpressure, frame
/// completion detection (wireFrameLooksComplete), rejection of torn and
/// corrupted records through the checked decode, and cross-process
/// visibility of the MAP_SHARED pages (a forked producer, the real
/// deployment shape). Also the CommitStream broadcast in the other
/// direction: in-order replay across wraparound, overrun detection for a
/// lapped consumer, and a forked read-only consumer.
///
//===----------------------------------------------------------------------===//

#include "runtime/CommitRing.h"
#include "runtime/TxnWire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace alter;

namespace {

std::vector<uint8_t> patternBytes(size_t N, uint8_t Seed) {
  std::vector<uint8_t> Out(N);
  for (size_t I = 0; I != N; ++I)
    Out[I] = static_cast<uint8_t>(Seed + I * 7);
  return Out;
}

/// A minimal well-formed frame header (ALTER5 magic, PayloadLen, CRC32)
/// followed by PayloadLen payload bytes. The CRC is real, so the only
/// reason the full decode would reject it is structural (which these tests
/// don't reach — they stop at frame completion).
std::vector<uint8_t> framedRecord(uint64_t PayloadLen) {
  const uint64_t Magic = 0x35414c544552ULL; // "ALTER5"
  std::vector<uint8_t> Payload(static_cast<size_t>(PayloadLen), 0x5a);
  const uint64_t Crc = wireCrc32(Payload.data(), Payload.size());
  std::vector<uint8_t> Out;
  const auto PutU64 = [&Out](uint64_t V) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
    Out.insert(Out.end(), P, P + sizeof(V));
  };
  PutU64(Magic);
  PutU64(PayloadLen);
  PutU64(Crc);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===
// Capacity and basic transfer
//===----------------------------------------------------------------------===

TEST(CommitRingTest, CapacityRoundsUpToPowerOfTwoPages) {
  CommitRing Tiny(1);
  EXPECT_GE(Tiny.capacity(), static_cast<size_t>(::sysconf(_SC_PAGESIZE)));
  CommitRing Odd(5000);
  EXPECT_EQ(Odd.capacity() & (Odd.capacity() - 1), 0u) << "power of two";
  EXPECT_GE(Odd.capacity(), 5000u);
}

TEST(CommitRingTest, BytesRoundTripInOrder) {
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(1000, 3);
  EXPECT_EQ(Ring.pushSome(In.data(), In.size()), In.size());
  EXPECT_EQ(Ring.used(), In.size());
  std::vector<uint8_t> Out;
  EXPECT_EQ(Ring.drainInto(Out), In.size());
  EXPECT_EQ(Out, In);
  EXPECT_EQ(Ring.used(), 0u);
}

TEST(CommitRingTest, WraparoundPreservesRecordBytes) {
  // Push/drain records sized to land the cursors on awkward offsets, long
  // enough that Head and Tail wrap the 4 KiB data area many times. Every
  // record must come back byte-identical — the memcpy split at the wrap
  // point is exactly what this exercises.
  CommitRing Ring(4096);
  std::vector<uint8_t> Out;
  for (int R = 0; R != 200; ++R) {
    const size_t N = 333 + static_cast<size_t>(R * 61 % 2900);
    const std::vector<uint8_t> In =
        patternBytes(N, static_cast<uint8_t>(R * 17));
    ASSERT_EQ(Ring.pushSome(In.data(), In.size()), In.size())
        << "record " << R << " fits an empty ring";
    Out.clear();
    ASSERT_EQ(Ring.drainInto(Out), In.size());
    ASSERT_EQ(Out, In) << "record " << R << " must survive the wrap";
  }
}

TEST(CommitRingTest, FullRingBackpressureAndPartialAccept) {
  CommitRing Ring(4096);
  const size_t Cap = Ring.capacity();
  const std::vector<uint8_t> Fill = patternBytes(Cap, 9);
  EXPECT_EQ(Ring.pushSome(Fill.data(), Fill.size()), Cap);
  // Full: nothing more is accepted, nothing blocks.
  uint8_t Extra = 0xff;
  EXPECT_EQ(Ring.pushSome(&Extra, 1), 0u);
  // Partial drain opens exactly that much space again.
  std::vector<uint8_t> Out;
  EXPECT_EQ(Ring.drainInto(Out), Cap);
  const std::vector<uint8_t> Over = patternBytes(Cap + 100, 21);
  EXPECT_EQ(Ring.pushSome(Over.data(), Over.size()), Cap)
      << "an oversized push accepts only the free space";
  Out.clear();
  EXPECT_EQ(Ring.drainInto(Out), Cap);
  EXPECT_TRUE(std::equal(Out.begin(), Out.end(), Over.begin()));
}

TEST(CommitRingTest, PushAllDeliversMessagesLargerThanTheRing) {
  // The deployment-critical property: a commit message larger than the
  // ring still goes through, because OnProgress lets the consumer drain
  // between pieces. Simulate the parent inside OnProgress.
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(3 * 4096 + 777, 5);
  std::vector<uint8_t> Out;
  Ring.pushAll(In.data(), In.size(), [&] { Ring.drainInto(Out); });
  Ring.drainInto(Out);
  EXPECT_EQ(Out, In);
}

TEST(CommitRingTest, ResetEmptiesTheRing) {
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(100, 1);
  EXPECT_EQ(Ring.pushSome(In.data(), In.size()), In.size());
  Ring.reset();
  EXPECT_EQ(Ring.used(), 0u);
  std::vector<uint8_t> Out;
  EXPECT_EQ(Ring.drainInto(Out), 0u);
  // And it is usable again afterwards.
  EXPECT_EQ(Ring.pushSome(In.data(), In.size()), In.size());
  EXPECT_EQ(Ring.drainInto(Out), In.size());
}

//===----------------------------------------------------------------------===
// Cross-process: the real producer is a forked child
//===----------------------------------------------------------------------===

TEST(CommitRingTest, ForkedProducerBytesAreVisibleToTheParent) {
  // The ring is created before fork, so parent and child share the same
  // MAP_SHARED pages — the exact deployment shape of the warm pool, where
  // the template's grandchildren publish into a ring the parent drains.
  CommitRing Ring(4096);
  const std::vector<uint8_t> In = patternBytes(3 * 4096 + 123, 77);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    Ring.pushAll(In.data(), In.size(), [] {});
    _exit(0);
  }
  std::vector<uint8_t> Out;
  while (Out.size() != In.size())
    Ring.drainInto(Out);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  EXPECT_EQ(Out, In);
}

//===----------------------------------------------------------------------===
// Record completion and corruption rejection
//===----------------------------------------------------------------------===

TEST(WireFrameTest, CompletionTracksTheLengthField) {
  const std::vector<uint8_t> Rec = framedRecord(500);
  // Every strict prefix is incomplete; the full record (and anything
  // beyond) is complete.
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), 0));
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), 23));
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), 24));
  EXPECT_FALSE(wireFrameLooksComplete(Rec.data(), Rec.size() - 1));
  EXPECT_TRUE(wireFrameLooksComplete(Rec.data(), Rec.size()));
}

TEST(WireFrameTest, CorruptMagicCountsAsCompleteSoDecodeRejects) {
  // With a corrupt magic the length field is untrustworthy: waiting for it
  // to be satisfied could wait forever. The frame counts as complete and
  // the checked decode rejects it.
  std::vector<uint8_t> Rec = framedRecord(100);
  Rec[3] ^= 0x40;
  EXPECT_TRUE(wireFrameLooksComplete(Rec.data(), 24));
  LoopSpec Spec;
  RuntimeParams Params;
  ChildReport Rep;
  std::string Error;
  EXPECT_FALSE(decodeChildReport(Rec, Spec, Params, Rep, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(WireFrameTest, TornRingRecordIsRejectedByCheckedDecode) {
  // A child killed mid-publish leaves a prefix in the ring; the terminal
  // doorbell completes the channel and the decode must reject the torn
  // bytes (truncated payload => length mismatch).
  const std::vector<uint8_t> Rec = framedRecord(300);
  CommitRing Ring(4096);
  ASSERT_EQ(Ring.pushSome(Rec.data(), Rec.size() - 57), Rec.size() - 57);
  std::vector<uint8_t> Torn;
  Ring.drainInto(Torn);
  LoopSpec Spec;
  RuntimeParams Params;
  ChildReport Rep;
  std::string Error;
  EXPECT_FALSE(decodeChildReport(Torn, Spec, Params, Rep, Error));
}

TEST(WireFrameTest, BitflippedRingRecordIsRejectedByCrc) {
  // A complete frame with one payload bit flipped passes the completion
  // check (the length is intact) but must fail the CRC in decode.
  std::vector<uint8_t> Rec = framedRecord(300);
  Rec[24 + 123] ^= 0x10;
  EXPECT_TRUE(wireFrameLooksComplete(Rec.data(), Rec.size()));
  LoopSpec Spec;
  RuntimeParams Params;
  ChildReport Rep;
  std::string Error;
  EXPECT_FALSE(decodeChildReport(Rec, Spec, Params, Rep, Error));
  EXPECT_NE(Error.find("CRC"), std::string::npos)
      << "rejection reason should name the CRC, got: " << Error;
}

//===----------------------------------------------------------------------===
// CommitStream: the parent -> replicas broadcast of committed write logs
//===----------------------------------------------------------------------===

namespace {

/// Appends a record whose payload is \p Len pattern bytes seeded by
/// \p Seed, returning the payload.
std::vector<uint8_t> appendPattern(CommitStream &Stream, size_t Len,
                                   uint8_t Seed) {
  const std::vector<uint8_t> Payload = patternBytes(Len, Seed);
  Stream.append({{Payload.data(), Payload.size()}});
  return Payload;
}

} // namespace

TEST(CommitStreamTest, MappingStaysWithinTheByteBudget) {
  const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  CommitStream Small(Page);
  ASSERT_TRUE(Small.valid());
  EXPECT_LT(Small.capacity(), Page) << "the floor header shares the page";
  CommitStream Odd(3 * Page + 100);
  EXPECT_LT(Odd.capacity(), 3 * Page);
  EXPECT_GT(Odd.capacity(), 2 * Page);
}

TEST(CommitStreamTest, ConsumersReplayRecordsInOrderAcrossWraparound) {
  // Two consumers at different speeds over many wraps: each sees every
  // record, byte-exact and in sequence, as long as it keeps up.
  CommitStream Stream(4096);
  ASSERT_TRUE(Stream.valid());
  CommitStream::Cursor Fast, Slow;
  std::vector<std::vector<uint8_t>> Sent;
  std::vector<uint8_t> Got;
  for (unsigned I = 0; I != 200; ++I) {
    // Pieces of one record are concatenated, and odd lengths exercise
    // the 8-byte padding.
    const std::vector<uint8_t> A = patternBytes(100 + I % 13, uint8_t(I));
    const std::vector<uint8_t> B = patternBytes(I % 7, uint8_t(I + 1));
    Stream.append({{A.data(), A.size()}, {B.data(), B.size()}});
    std::vector<uint8_t> Whole = A;
    Whole.insert(Whole.end(), B.begin(), B.end());
    Sent.push_back(Whole);
    ASSERT_EQ(Stream.next(Fast, Got), CommitStream::ReadResult::Ok);
    EXPECT_EQ(Got, Whole);
    EXPECT_EQ(Fast.Seq, I + 1);
    if (I % 3 == 2)
      while (Slow.Seq != Fast.Seq) {
        ASSERT_TRUE(Stream.holds(Slow));
        ASSERT_EQ(Stream.next(Slow, Got), CommitStream::ReadResult::Ok);
        EXPECT_EQ(Got, Sent[Slow.Seq - 1]);
      }
  }
  EXPECT_EQ(Fast.Pos, Stream.end().Pos);
  EXPECT_EQ(Stream.end().Seq, 200u);
}

TEST(CommitStreamTest, LappedConsumerSeesOverrun) {
  CommitStream Stream(4096);
  CommitStream::Cursor Lagging;
  appendPattern(Stream, 1000, 1);
  EXPECT_TRUE(Stream.holds(Lagging));
  for (uint8_t I = 0; I != 8; ++I)
    appendPattern(Stream, 1000, I);
  EXPECT_FALSE(Stream.holds(Lagging));
  std::vector<uint8_t> Got;
  EXPECT_EQ(Stream.next(Lagging, Got), CommitStream::ReadResult::Overrun);
  // A consumer that started late enough is unaffected.
  CommitStream::Cursor Current = Stream.end();
  const std::vector<uint8_t> Last = appendPattern(Stream, 1000, 77);
  EXPECT_TRUE(Stream.holds(Current));
  ASSERT_EQ(Stream.next(Current, Got), CommitStream::ReadResult::Ok);
  EXPECT_EQ(Got, Last);
}

TEST(CommitStreamTest, RecordLargerThanTheStreamLapsEveryoneBehindIt) {
  CommitStream Stream(4096);
  const CommitStream::Cursor Before = Stream.end();
  appendPattern(Stream, 2 * Stream.capacity(), 3);
  EXPECT_FALSE(Stream.holds(Before)) << "nobody can replay that record";
  CommitStream::Cursor C = Before;
  std::vector<uint8_t> Got;
  EXPECT_EQ(Stream.next(C, Got), CommitStream::ReadResult::Overrun);
  // Records after it are fine for consumers that start after it.
  CommitStream::Cursor After = Stream.end();
  const std::vector<uint8_t> Small = appendPattern(Stream, 64, 9);
  ASSERT_EQ(Stream.next(After, Got), CommitStream::ReadResult::Ok);
  EXPECT_EQ(Got, Small);
}

TEST(CommitStreamTest, MisplacedCursorIsCorruptNotOk) {
  CommitStream Stream(4096);
  appendPattern(Stream, 64, 1);
  appendPattern(Stream, 64, 2);
  CommitStream::Cursor Wrong;
  Wrong.Seq = 1; // claims one record applied but points at the first
  std::vector<uint8_t> Got;
  EXPECT_EQ(Stream.next(Wrong, Got), CommitStream::ReadResult::Corrupt);
}

TEST(CommitStreamTest, ForkedConsumerReadsRecordsAppendedAfterTheFork) {
  // The deployment shape: the consumer is forked first (read-only
  // mapping), the parent appends afterwards, and the child replays from
  // the cursor it inherited.
  CommitStream Stream(1 << 16);
  const CommitStream::Cursor AtFork = Stream.end();
  int Go[2];
  ASSERT_EQ(::pipe(Go), 0);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    Stream.protectReadOnly();
    uint8_t Byte;
    if (::read(Go[0], &Byte, 1) != 1)
      _exit(2);
    CommitStream::Cursor C = AtFork;
    std::vector<uint8_t> Got;
    for (uint8_t I = 0; I != 10; ++I) {
      if (Stream.next(C, Got) != CommitStream::ReadResult::Ok)
        _exit(3);
      if (Got != patternBytes(500, I))
        _exit(4);
    }
    _exit(0);
  }
  for (uint8_t I = 0; I != 10; ++I)
    appendPattern(Stream, 500, I);
  const uint8_t Byte = 1;
  ASSERT_EQ(::write(Go[1], &Byte, 1), 1);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ::close(Go[0]);
  ::close(Go[1]);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}
