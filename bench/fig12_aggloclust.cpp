//===- bench/fig12_aggloclust.cpp - Reproduce Figure 12 -------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 12: agglomerative clustering speedup vs processors under
/// StaleReads (the only surviving model — read tracking exhausts memory,
/// Table 3). Shape: modest scaling (~1.5-2x) with a low retry rate (the
/// paper's Table 4 reports 3.6%).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Format.h"

#include <cstdio>

using namespace alter;
using namespace alter::bench;

int main(int argc, char **argv) {
  initBenchArgs(argc, argv);
  printHeader("Figure 12", "Agglomerative clustering speedup vs processors");
  const size_t Input = 1;
  const uint64_t SeqNs = measureSequentialNs("aggloclust", Input);
  std::unique_ptr<Workload> W = makeWorkload("aggloclust");
  const SweepSeries Alter = runSweep(
      "aggloclust", Input, W->resolveAnnotation(*W->paperAnnotation()),
      "ALTER aggloclust", SeqNs);
  printFigure("AggloClust (StaleReads, AlterList loop)", {Alter},
              "modest scaling; StaleReads is the only viable model");
  std::printf("\nretry rate at 4 workers: %s (paper: 3.6%%)\n",
              formatPercent(Alter.Points[2].Stats.retryRate()).c_str());
  finalizeBenchJson();
  return 0;
}
