//===- perfbench/Workloads.h - the benchmark's campaign grids ---*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three campaign workloads. Grid shapes and knob points are fixed:
/// Rspare and Xlimit sit on the paper's Figure 6 sweep points. The seed
/// shuffles the order of the benchmark, level and device axes, so every
/// seed submits the same work in a different order. Knob values are not
/// drawn from the seed on purpose: branch-and-bound effort is chaotic in
/// them (README.md, "Another seed"), so a drawn knob grid would change how
/// much work a pass does from one seed to the next.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_PERFBENCH_WORKLOADS_H
#define RAMLOC_PERFBENCH_WORKLOADS_H

#include "campaign/Campaign.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Worker count of the parallel passes: fixed, never read from the host,
/// so every run on every machine measures the same schedule.
inline constexpr unsigned ParallelJobs = 4;

struct Workload {
  std::string Name;
  /// The grid every timed pass runs.
  ramloc::GridSpec Grid;
  /// store_extend only: the grid set-up fills the base store with. Empty
  /// (no benchmarks) on the workloads that run without a store.
  ramloc::GridSpec BaseGrid;

  bool usesStore() const { return !BaseGrid.Benchmarks.empty(); }
};

/// measure_grid, model_grid, store_extend.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name for \p Seed; \p Tiny shrinks every axis to a
/// grid that runs in well under a second (the smoke test's size). False
/// for an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, bool Tiny,
                  Workload &Out);

} // namespace perfbench

#endif // RAMLOC_PERFBENCH_WORKLOADS_H
