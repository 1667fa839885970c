//===- bench/perf_sim_throughput.cpp - execute/recost throughput -------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The perf harness for the interpreter and the simulate-once/cost-many
// split. Three numbers:
//
//  - sim_ns_per_instr: raw interpreter cost, wall nanoseconds per
//    simulated instruction over the whole BEEBS suite at O2. Each window
//    runs all ten images once; the median and interquartile range over
//    the windows are reported, with per-benchmark medians alongside.
//  - fullsim_configs_per_sec: device-axis grid points satisfied by full
//    simulation (link + execute + integrate per device).
//  - recost_configs_per_sec: the same grid points satisfied by recosting
//    one shared ExecutionProfile (link + O(#instructions) recost +
//    integrate per device).
//
// The recost/fullsim ratio is the wall-clock factor the device axis of a
// campaign gains from profile reuse; CI asserts it stays >= 5x. A
// campaign-level measurement (whole Measure jobs through runCampaign,
// with and without reuse) is reported alongside for context — it is
// diluted by the ILP/codegen work that profile reuse does not touch.
//
// Emits BENCH_sim_throughput.json in the working directory.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "power/DeviceRegistry.h"
#include "sim/ProfileCache.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace ramloc;

namespace {

// Heavy enough that simulation dominates the per-config link cost (the
// part recosting cannot remove), as it does in real campaign workloads.
constexpr const char *Benchmark = "crc32";
constexpr unsigned Repeat = 200;

/// Interpreter windows over the suite (each runs all ten images once).
constexpr unsigned SimWindows = 21;

/// The \p Q quantile of \p V (linear interpolation between ranks).
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
}

/// Runs \p Body repeatedly until it has consumed at least \p MinSeconds,
/// returning iterations per second. Each measured window also lands in
/// the bench.measure_seconds histogram.
template <typename Fn> double ratePerSec(double MinSeconds, Fn &&Body) {
  // One warm-up iteration keeps one-time costs (allocation, cache
  // priming) out of the measured window.
  Body();
  unsigned Iters = 0;
  ScopedTimer Timer(&globalMetrics().histogram("bench.measure_seconds"));
  do {
    Body();
    ++Iters;
  } while (Timer.seconds() < MinSeconds);
  return Iters / Timer.stop();
}

} // namespace

int main() {
  std::printf("== sim throughput: execute once, cost many ==\n\n");

  Module M = buildBeebs(Benchmark, OptLevel::O2, Repeat);
  LinkResult LR = linkModule(M, {});
  if (!LR.ok()) {
    std::fprintf(stderr, "link failed: %s\n", LR.Errors.front().c_str());
    return 1;
  }
  const std::vector<DeviceInfo> &Devices = deviceRegistry();

  // --- raw interpreter cost over the suite ------------------------------
  struct SuiteRun {
    const char *Name;
    Image Img;
    uint64_t Instructions = 0;
    uint64_t Cycles = 0;
    std::vector<double> NsPerInstr;
  };
  std::vector<SuiteRun> Suite;
  uint64_t SuiteInstructions = 0, SuiteCycles = 0;
  for (const BeebsInfo &Info : beebsSuite()) {
    LinkResult SL = linkModule(buildBeebs(Info.Name, OptLevel::O2), {});
    if (!SL.ok()) {
      std::fprintf(stderr, "link failed: %s\n", SL.Errors.front().c_str());
      return 1;
    }
    RunStats S = runImage(SL.Img); // also the warm-up run
    if (!S.ok()) {
      std::fprintf(stderr, "%s: run failed: %s\n", Info.Name,
                   S.Error.c_str());
      return 1;
    }
    Suite.push_back({Info.Name, std::move(SL.Img), S.Instructions, S.Cycles,
                     {}});
    SuiteInstructions += S.Instructions;
    SuiteCycles += S.Cycles;
  }
  std::vector<double> WindowNs;
  for (unsigned W = 0; W != SimWindows; ++W) {
    double Seconds = 0;
    for (SuiteRun &R : Suite) {
      ScopedTimer Timer(&globalMetrics().histogram("bench.measure_seconds"));
      (void)runImage(R.Img);
      double S = Timer.stop();
      Seconds += S;
      R.NsPerInstr.push_back(S * 1e9 / R.Instructions);
    }
    WindowNs.push_back(Seconds * 1e9 / SuiteInstructions);
  }
  double NsMedian = quantile(WindowNs, 0.5);
  double NsQ1 = quantile(WindowNs, 0.25), NsQ3 = quantile(WindowNs, 0.75);
  double CyclesPerSec = SuiteCycles / (NsMedian * 1e-9 * SuiteInstructions);
  std::printf("interpreter: %.2f ns per simulated instruction (median of "
              "%u windows, IQR %.2f-%.2f; %llu instructions per window "
              "over %zu BEEBS O2 images), %.0f simulated cycles/sec\n",
              NsMedian, SimWindows, NsQ1, NsQ3,
              static_cast<unsigned long long>(SuiteInstructions),
              Suite.size(), CyclesPerSec);
  for (const SuiteRun &R : Suite)
    std::printf("  %-14s %6.2f ns/instr (%llu instructions)\n", R.Name,
                quantile(R.NsPerInstr, 0.5),
                static_cast<unsigned long long>(R.Instructions));

  // --- device-axis configs/sec: full simulation vs recost ----------------
  // One "config" is one grid point of the device axis: measure the linked
  // benchmark under one device's power and timing tables.
  double FullsimConfigsPerSec = ratePerSec(0.5, [&] {
    for (const DeviceInfo &D : Devices) {
      SimOptions Sim;
      Sim.Timing = D.Timing;
      (void)measureModule(M, D.Model, {}, Sim);
    }
  });
  FullsimConfigsPerSec *= Devices.size();

  // Warm cache: every config is a pure recost — the marginal cost of one
  // more device on an already-profiled execution.
  ProfileCache WarmProfiles;
  {
    SimOptions Sim;
    Sim.Timing = Devices.front().Timing;
    (void)measureModule(M, Devices.front().Model, {}, Sim,
                        &WarmProfiles); // prime: the one full simulation
  }
  double RecostConfigsPerSec = ratePerSec(0.5, [&] {
    for (const DeviceInfo &D : Devices) {
      SimOptions Sim;
      Sim.Timing = D.Timing;
      (void)measureModule(M, D.Model, {}, Sim, &WarmProfiles);
    }
  });
  RecostConfigsPerSec *= Devices.size();

  // Cold cache: each pass pays 1 simulation + N-1 recosts, exactly what
  // a cold campaign's device axis pays end to end.
  double ColdAxisConfigsPerSec = ratePerSec(0.5, [&] {
    ProfileCache Profiles;
    for (const DeviceInfo &D : Devices) {
      SimOptions Sim;
      Sim.Timing = D.Timing;
      (void)measureModule(M, D.Model, {}, Sim, &Profiles);
    }
  });
  ColdAxisConfigsPerSec *= Devices.size();

  double Speedup = RecostConfigsPerSec / FullsimConfigsPerSec;
  std::printf("device axis (%zu devices): %.1f configs/sec full-sim, "
              "%.1f configs/sec recost (%.1fx), %.1f configs/sec for a "
              "cold 1-sim+%zu-recost axis\n",
              Devices.size(), FullsimConfigsPerSec, RecostConfigsPerSec,
              Speedup, ColdAxisConfigsPerSec, Devices.size() - 1);

  // --- campaign-level context --------------------------------------------
  GridSpec Grid;
  Grid.Benchmarks = {Benchmark};
  Grid.Devices = deviceNames();
  Grid.Repeat = Repeat;

  // The campaign times itself (Summary.WallSeconds is a view over the
  // campaign.wall_seconds histogram); no harness-side stopwatch needed.
  CampaignOptions NoReuse;
  NoReuse.Jobs = 1;
  NoReuse.ReuseProfiles = false;
  CampaignResult R1 = runCampaign(Grid, NoReuse);
  double CampaignNoReuse = R1.Results.size() / R1.Summary.WallSeconds;

  CampaignOptions Reuse;
  Reuse.Jobs = 1;
  CampaignResult R2 = runCampaign(Grid, Reuse);
  double CampaignReuse = R2.Results.size() / R2.Summary.WallSeconds;
  std::printf("campaign grid (whole Measure jobs): %.2f configs/sec "
              "without reuse, %.2f with (%llu sims + %llu recosts)\n",
              CampaignNoReuse, CampaignReuse,
              static_cast<unsigned long long>(R2.Summary.FullSims),
              static_cast<unsigned long long>(R2.Summary.Recosts));

  JsonWriter W;
  W.beginObject();
  W.field("schema", "ramloc-bench-sim-throughput-v2");
  W.field("sim_windows", static_cast<uint64_t>(SimWindows));
  W.field("sim_instructions_per_window", SuiteInstructions);
  W.field("sim_ns_per_instr", NsMedian);
  W.field("sim_ns_per_instr_q1", NsQ1);
  W.field("sim_ns_per_instr_q3", NsQ3);
  W.field("sim_ns_per_instr_iqr", NsQ3 - NsQ1);
  W.key("sim_ns_per_instr_by_benchmark").beginObject();
  for (const SuiteRun &R : Suite)
    W.field(R.Name, quantile(R.NsPerInstr, 0.5));
  W.endObject();
  W.field("sim_cycles_per_sec", CyclesPerSec);
  W.field("benchmark", Benchmark);
  W.field("repeat", Repeat);
  W.field("devices", static_cast<uint64_t>(Devices.size()));
  W.field("fullsim_configs_per_sec", FullsimConfigsPerSec);
  W.field("recost_configs_per_sec", RecostConfigsPerSec);
  W.field("recost_speedup", Speedup);
  W.field("coldaxis_configs_per_sec", ColdAxisConfigsPerSec);
  W.field("campaign_noreuse_configs_per_sec", CampaignNoReuse);
  W.field("campaign_reuse_configs_per_sec", CampaignReuse);
  W.field("campaign_fullsims", R2.Summary.FullSims);
  W.field("campaign_recosts", R2.Summary.Recosts);
  W.endObject();
  std::string Error;
  if (!writeTextFile("BENCH_sim_throughput.json", W.str() + "\n",
                     &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_sim_throughput.json\n");
  return 0;
}
