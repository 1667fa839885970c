//===- perfbench/Workloads.cpp - the benchmark's campaign grids ----------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "beebs/Beebs.h"
#include "power/DeviceRegistry.h"
#include "support/Random.h"

#include <utility>

using namespace ramloc;

namespace perfbench {

namespace {

/// Fisher-Yates shuffle driven by \p R.
template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"measure_grid",
                                                 "model_grid",
                                                 "store_extend"};
  return Names;
}

bool makeWorkload(const std::string &Name, uint64_t Seed, bool Tiny,
                  Workload &Out) {
  Out = Workload();
  Out.Name = Name;
  GridSpec &G = Out.Grid;
  G.Benchmarks =
      Tiny ? std::vector<std::string>{"crc32", "fdct"} : beebsNames();
  if (Name == "model_grid") {
    // Figure 6's shape: no simulation, 16-point warm knob chains.
    G.Levels = Tiny ? std::vector<OptLevel>{OptLevel::O1, OptLevel::O2}
                    : std::vector<OptLevel>{OptLevel::O1, OptLevel::O2,
                                            OptLevel::Os};
    G.Devices = {"stm32f100", "stm32f100-2ws"};
    G.RsparePoints = Tiny ? std::vector<unsigned>{128, 512}
                          : std::vector<unsigned>{128, 256, 512, 1024};
    G.XlimitPoints = Tiny ? std::vector<double>{1.05, 1.5}
                          : std::vector<double>{1.05, 1.2, 1.5, 2.0};
    G.Kind = JobKind::ModelOnly;
  } else if (Name == "measure_grid" || Name == "store_extend") {
    G.Levels = {OptLevel::O2};
    G.Devices = Tiny ? std::vector<std::string>{"stm32f100", "stm32l-lp"}
                     : deviceNames();
    G.RsparePoints = {128, 512};
    G.XlimitPoints = {1.05, 1.5};
    G.Kind = JobKind::Measure;
  } else {
    return false;
  }
  // Knob axes stay ascending: a solve group's warm chain and its stored
  // incumbent both assume it.
  SplitMix64 R(Seed);
  shuffle(G.Benchmarks, R);
  shuffle(G.Levels, R);
  shuffle(G.Devices, R);
  if (Name == "store_extend") {
    // The base store holds measure_grid's grid; every pass adds the
    // middle knob points, so it finds the base jobs in the store and
    // computes only the new ones.
    Out.BaseGrid = G;
    G.RsparePoints = {128, 256, 512};
    G.XlimitPoints = {1.05, 1.2, 1.5};
  }
  return true;
}

} // namespace perfbench
