//===- perfbench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. The benchmark opens a span around each call
/// it makes into a layer (Workload::setUp, LoopRunner::runInner, validate,
/// the replayed TxnContext/TxnWire/ConflictDetector steps); spans live in
/// memory and are written out once, when the run ends. A disabled recorder
/// still measures durations — callers use them as their clock — but keeps
/// nothing, so the untraced run pays only the clock reads it needs anyway.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_PERFBENCH_SPANS_H
#define ALTER_PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed interval of the traced run. Parent is an index into the
/// recorder's span list, -1 for a root; Sample groups the spans of one
/// sample (all spans under one root share it).
struct Span {
  const char *Name = "";
  int64_t Sample = -1;
  int64_t Parent = -1;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Free integer attribute (iterations of a replayed chunk, ...).
  int64_t Arg = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  void setEnabled(bool On) { Enabled = On; }

  /// Sample id given to spans opened from now on.
  void setSample(int64_t Id) { Sample = Id; }

  /// Appends the spans as a JSON array of [sample, parent, name, start_ns,
  /// end_ns, arg] rows, with times relative to the first span.
  void writeJson(std::string &Out) const;

private:
  friend class ScopedSpan;
  bool Enabled;
  int64_t Sample = -1;
  /// Innermost open span: the parent of the next one opened.
  int64_t Open = -1;
  std::vector<Span> Spans;
};

/// Opens a span on construction; close() (or the destructor) ends it and
/// returns its duration. Spans must nest: close in reverse opening order.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name, int64_t Arg = 0);
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  uint64_t close();

private:
  SpanRecorder &Rec;
  int64_t Index = -1;
  int64_t SavedOpen = -1;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  bool Closed = false;
};

} // namespace perfbench

#endif // ALTER_PERFBENCH_SPANS_H
