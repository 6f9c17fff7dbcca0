//===- perfbench/Spans.cpp ------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Format.h"
#include "support/Timer.h"

using namespace perfbench;

ScopedSpan::ScopedSpan(SpanRecorder &Rec, const char *Name, int64_t Arg)
    : Rec(Rec) {
  if (Rec.Enabled) {
    SavedOpen = Rec.Open;
    Index = static_cast<int64_t>(Rec.Spans.size());
    Span S;
    S.Name = Name;
    S.Sample = Rec.Sample;
    S.Parent = Rec.Open;
    S.Arg = Arg;
    Rec.Spans.push_back(S);
    Rec.Open = Index;
  }
  StartNs = alter::nowNs();
  if (Index >= 0)
    Rec.Spans[Index].StartNs = StartNs;
}

uint64_t ScopedSpan::close() {
  if (Closed)
    return DurNs;
  Closed = true;
  const uint64_t EndNs = alter::nowNs();
  DurNs = EndNs - StartNs;
  if (Index >= 0) {
    Rec.Spans[Index].EndNs = EndNs;
    Rec.Open = SavedOpen;
  }
  return DurNs;
}

void SpanRecorder::writeJson(std::string &Out) const {
  const uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out += '[';
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += alter::strprintf(
        "%s[%lld,%lld,\"%s\",%llu,%llu,%lld]", I ? "," : "",
        static_cast<long long>(S.Sample), static_cast<long long>(S.Parent),
        S.Name, static_cast<unsigned long long>(S.StartNs - Base),
        static_cast<unsigned long long>(S.EndNs - Base),
        static_cast<long long>(S.Arg));
  }
  Out += ']';
}
