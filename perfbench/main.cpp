//===- perfbench/main.cpp - the campaign benchmark -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
//
//   campaign_bench --workload W --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--tiny]
//   campaign_bench --describe
//   campaign_bench --selftest --work-dir DIR
//
// --trace 0 times interleaved --jobs=1 / --jobs=4 campaign passes for S
// seconds and prints the end-to-end metrics; --trace 1 alternates
// untraced passes with traced stage replays (Replay.h) for S seconds and
// prints the per-layer metrics. Either way the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
// explains the workloads, the statistics and why runs are this long.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"
#include "Replay.h"
#include "Workloads.h"

#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

using namespace ramloc;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better;
};

// The catalogue BENCHMARK.json mirrors (smoke.py holds them equal).
const std::vector<MetricDef> EndToEnd = {
    {"wall_s", "s", "lower"},
    {"serial_wall_s", "s", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"proven_share", "ratio", "higher"},
    {"ok_share", "ratio", "higher"},
    {"energy_ratio_geomean", "ratio", "lower"},
};

const std::vector<MetricDef> PerLayer = {
    {"sim.fullsim_s", "s", "lower"},
    {"sim.fullsims", "count", "lower"},
    {"sim.instructions", "count", "lower"},
    {"sim.recost_s", "s", "lower"},
    {"sim.recosts", "count", "lower"},
    {"sim.exec_key_s", "s", "lower"},
    {"sim.profile_wait_s", "s", "lower"},
    {"sim.profile_waits", "count", "lower"},
    {"sim.profile_waits.serial", "count", "lower"},
    {"sim.preloaded_profiles", "count", "higher"},
    {"lp.solve_s", "s", "lower"},
    {"lp.solve_ms.p50", "ms", "lower"},
    {"lp.solve_ms.tail", "ms", "lower"},
    {"lp.solves", "count", "lower"},
    {"lp.cold_solves", "count", "lower"},
    {"lp.warm_solves", "count", "higher"},
    {"lp.seeded_solves", "count", "higher"},
    {"lp.nodes", "count", "lower"},
    {"lp.dual_pivots", "count", "lower"},
    {"lp.primal_pivots", "count", "lower"},
    {"lp.lost_proofs", "count", "lower"},
    {"core.extract_s", "s", "lower"},
    {"core.extractions", "count", "lower"},
    {"core.model_build_s", "s", "lower"},
    {"core.rewrite_s", "s", "lower"},
    {"core.rewrites", "count", "lower"},
    {"core.apply_shared_share", "ratio", "higher"},
    {"layout.link_s", "s", "lower"},
    {"layout.links", "count", "lower"},
    {"mir.verify_s", "s", "lower"},
    {"power.integrate_s", "s", "lower"},
    {"store.open_s", "s", "lower"},
    {"store.records_loaded", "count", "higher"},
    {"store.save_s", "s", "lower"},
    {"store.records_appended", "count", "lower"},
    {"store.journal_append_s", "s", "lower"},
    {"store.journal_appends", "count", "lower"},
    {"beebs.build_s", "s", "lower"},
    {"campaign.busy_share", "ratio", "higher"},
    {"campaign.cache_hits", "count", "higher"},
    {"campaign.other_s", "s", "lower"},
    {"campaign.tracing_overhead_s", "s", "lower"},
    {"bench.probe_s", "s", "lower"},
};

/// Before every pass pair a run sets up at least once and for at least
/// SetupSeconds; setup_s is the median of all of them. Spreading set-ups
/// over the run samples the same machine regimes as the passes; without
/// a store to fill a set-up takes well under a millisecond, so those
/// workloads repeat it many times per pair.
constexpr double SetupSeconds = 0.02;
/// Pass pairs (or replay rounds) a run makes however short --seconds is.
constexpr unsigned MinRounds = 2;

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Nearest-rank percentile \p P of \p V (P in (0, 100]).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// The highest of p99.9/p99/p95/p90 that leaves at least ten samples
/// beyond it; the median when there are too few samples for any.
double tailPercentileOf(size_t N) {
  for (double P : {99.9, 99.0, 95.0, 90.0})
    if (N * (1.0 - P / 100.0) >= 10.0)
      return P;
  return 50.0;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Model-predicted energy ratio: model_grid has no measurements.
double predictedGeomean(const std::vector<JobResult> &Results) {
  std::vector<double> Ratios;
  for (const JobResult &R : Results)
    if (R.ok() && R.PredictedBaseEnergyMilliJoules > 0)
      Ratios.push_back(R.PredictedOptEnergyMilliJoules /
                       R.PredictedBaseEnergyMilliJoules);
  return Ratios.empty() ? 1.0 : geomean(Ratios);
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 30.0;
  bool Trace = false;
  bool Tiny = false;
  std::string WorkDir;
};

using MetricValues = std::map<std::string, double>;

/// The last stdout line.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<MetricDef> &Defs,
                 const MetricValues &Values) {
  JsonWriter W(/*Pretty=*/false);
  W.beginObject();
  W.field("correct", Correct);
  W.field("attempted", Attempted);
  W.field("failed", Failed);
  W.key("metrics").beginObject();
  for (const MetricDef &D : Defs) {
    W.key(D.Name).beginObject();
    W.field("value", Values.at(D.Name));
    W.field("unit", D.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
}

void printTable(const std::vector<MetricDef> &Defs,
                const MetricValues &Values) {
  for (const MetricDef &D : Defs)
    std::printf("  %-28s %14.6g %-6s (%s is better)\n", D.Name,
                Values.at(D.Name), D.Unit, D.Better);
}

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Ref; ///< the first pass's job lines

  void addPass(const PassResult &P) {
    if (Ref.empty())
      Ref = P.Bytes;
    Attempted += P.CR.Results.size();
    Failed += countFailures(P.CR.Results, P.Bytes, Ref) + P.StoreFailures;
  }
};

struct Dirs {
  std::string Base, Pass;
  explicit Dirs(const std::string &Work)
      : Base(Work + "/base-store"), Pass(Work + "/pass-store") {}
};

int runTimed(const Args &A, const Workload &W) {
  Dirs D(A.WorkDir);
  std::vector<JobSpec> Jobs = W.Grid.expand();
  std::vector<double> Setups;
  Tally T;
  std::vector<double> Serial, Parallel;
  CampaignResult Reference;
  WallTimer Clock;
  for (unsigned Pair = 0; Pair < MinRounds || Clock.seconds() < A.Seconds;
       ++Pair) {
    WallTimer SetupClock;
    do
      Setups.push_back(runSetup(W, D.Base));
    while (SetupClock.seconds() < SetupSeconds);
    // Alternate which job count goes first so neither always follows
    // the other.
    for (unsigned Jobs1 : Pair % 2 ? std::vector<unsigned>{ParallelJobs, 1}
                                   : std::vector<unsigned>{1, ParallelJobs}) {
      PassResult P = runPass(W, Jobs, Jobs1, D.Base, D.Pass);
      T.addPass(P);
      (Jobs1 == 1 ? Serial : Parallel).push_back(P.Seconds);
      if (Reference.Results.empty())
        Reference = std::move(P.CR);
      std::fprintf(stderr, "pass %u jobs=%u %.4f s probe %.4f s\n", Pair,
                   Jobs1, P.Seconds, P.ProbeSeconds);
    }
  }

  uint64_t Proven = 0;
  for (const JobResult &R : Reference.Results)
    Proven += R.ok() && R.SolveOutcome == SolveStatus::Optimal;
  MetricValues V;
  // The mean pass: of the per-run statistics tried (minimum, first
  // quartile, median, trimmed mean, mean) it repeated best across runs
  // (README.md, "Why a run is 30 seconds").
  V["wall_s"] = mean(Parallel);
  V["serial_wall_s"] = mean(Serial);
  V["setup_s"] = median(Setups);
  V["peak_rss_mb"] = peakRssMb();
  V["proven_share"] =
      static_cast<double>(Proven) / static_cast<double>(Jobs.size());
  V["ok_share"] = 1.0 - static_cast<double>(T.Failed) /
                            static_cast<double>(T.Attempted);
  V["energy_ratio_geomean"] = W.Grid.Kind == JobKind::ModelOnly
                                  ? predictedGeomean(Reference.Results)
                                  : Reference.Summary.GeomeanEnergyRatio;

  std::printf("%s seed %llu: %zu jobs, %zu pass pairs in %.1f s, "
              "failed_share %.6g (%llu of %llu attempted)\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              Jobs.size(), Serial.size(), Clock.seconds(),
              1.0 - V["ok_share"], static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Attempted));
  const CampaignSummary &S = Reference.Summary;
  std::printf("  fastest pass: %.4g s at jobs=4, %.4g s at jobs=1; %llu "
              "full sims, %llu recosts, %llu cold + %llu warm solves, %u "
              "cache hits\n",
              *std::min_element(Parallel.begin(), Parallel.end()),
              *std::min_element(Serial.begin(), Serial.end()),
              static_cast<unsigned long long>(S.FullSims),
              static_cast<unsigned long long>(S.Recosts),
              static_cast<unsigned long long>(S.ColdSolves),
              static_cast<unsigned long long>(S.WarmSolves), S.CacheHits);
  printTable(EndToEnd, V);
  bool Correct = T.Failed == 0;
  printResult(Correct, T.Attempted, T.Failed, EndToEnd, V);
  return Correct ? 0 : 1;
}

/// The per-layer metrics of one traced replay.
MetricValues layerMetrics(const ReplayResult &R) {
  auto self = [&](const char *Name) {
    auto It = R.Layers.find(Name);
    return It == R.Layers.end() ? 0.0 : It->second.SelfSeconds;
  };
  auto calls = [&](const char *Name) {
    auto It = R.Layers.find(Name);
    return It == R.Layers.end() ? 0.0 : double(It->second.Calls);
  };
  uint64_t Lost = 0;
  for (const JobResult &J : R.Results)
    Lost += J.ok() && J.SolveOutcome != SolveStatus::Optimal;
  // Busy: span self time on the replay threads — everything but the
  // main thread's store open/save — with waiting excluded.
  double Busy = 0.0;
  for (const auto &[Name, L] : R.Layers)
    if (Name != "sim.profile_wait" && Name != "store.open" &&
        Name != "store.journal_begin" && Name != "store.save")
      Busy += L.SelfSeconds;

  MetricValues V;
  V["sim.fullsim_s"] = self("sim.fullsim");
  V["sim.fullsims"] = R.Counters.FullSims;
  V["sim.instructions"] = R.Instructions;
  V["sim.recost_s"] = self("sim.recost");
  V["sim.recosts"] = R.Counters.Recosts;
  V["sim.exec_key_s"] = self("sim.exec_key");
  V["sim.profile_wait_s"] = self("sim.profile_wait");
  V["sim.profile_waits"] = R.ProfileWaits;
  V["sim.preloaded_profiles"] = R.PreloadedProfiles;
  V["lp.solve_s"] = self("lp.solve");
  V["lp.solve_ms.p50"] = percentile(R.SolveMs, 50.0);
  V["lp.solve_ms.tail"] =
      percentile(R.SolveMs, tailPercentileOf(R.SolveMs.size()));
  V["lp.solves"] = R.SolveMs.size();
  V["lp.cold_solves"] = R.Counters.ColdSolves;
  V["lp.warm_solves"] = R.Counters.WarmSolves;
  V["lp.seeded_solves"] = R.Counters.SeededSolves;
  V["lp.nodes"] = R.Nodes;
  V["lp.dual_pivots"] = R.DualPivots;
  V["lp.primal_pivots"] = R.PrimalPivots;
  V["lp.lost_proofs"] = Lost;
  V["core.extract_s"] = self("core.extract");
  V["core.extractions"] = R.Counters.Extractions;
  V["core.model_build_s"] = self("core.model_build");
  V["core.rewrite_s"] = self("core.rewrite");
  V["core.rewrites"] = calls("core.rewrite");
  V["core.apply_shared_share"] =
      R.MeasureJobs ? double(R.SharedApplies) / double(R.MeasureJobs) : 0.0;
  V["layout.link_s"] = self("layout.link");
  V["layout.links"] = calls("layout.link");
  V["mir.verify_s"] = self("mir.verify");
  V["power.integrate_s"] = self("power.integrate");
  V["store.open_s"] = self("store.open");
  V["store.records_loaded"] = R.RecordsLoaded;
  V["store.save_s"] = self("store.save");
  V["store.records_appended"] = R.RecordsAppended;
  V["store.journal_append_s"] = self("store.journal_append");
  V["store.journal_appends"] = R.JournalAppends;
  V["beebs.build_s"] = self("beebs.build");
  V["campaign.busy_share"] = Busy / (R.Threads * R.PoolSeconds);
  V["campaign.cache_hits"] = R.Counters.CacheHits;
  V["campaign.other_s"] = self("campaign.group");
  return V;
}

int runTraced(const Args &A, const Workload &W) {
  Dirs D(A.WorkDir);
  std::vector<JobSpec> Jobs = W.Grid.expand();
  runSetup(W, D.Base);

  Tally T;
  std::map<unsigned, std::vector<MetricValues>> Rounds; // by thread count
  std::vector<double> Untraced, Traced, Probes;
  std::vector<std::string> Diffs;
  ReplayResult Last;
  WallTimer Clock;
  for (unsigned Round = 0; Round < MinRounds || Clock.seconds() < A.Seconds;
       ++Round) {
    for (unsigned Threads : {ParallelJobs, 1u}) {
      PassResult P = runPass(W, Jobs, Threads, D.Base, D.Pass);
      T.addPass(P);
      Probes.push_back(P.ProbeSeconds);
      if (W.usesStore())
        freshCopy(D.Base, D.Pass);
      ReplayResult R =
          replayCampaign(Jobs, Threads, W.usesStore() ? D.Pass : "");
      std::vector<std::string> Check = crossCheck(R, P.CR);
      T.Attempted += R.Results.size();
      T.Failed += Check.size();
      Diffs.insert(Diffs.end(), Check.begin(), Check.end());
      std::fprintf(stderr,
                   "round %u threads=%u campaign %.4f s replay %.4f s, "
                   "%zu mismatch(es)\n",
                   Round, Threads, P.Seconds, R.Seconds, Check.size());
      Rounds[Threads].push_back(layerMetrics(R));
      if (Threads == ParallelJobs) {
        Untraced.push_back(P.Seconds);
        Traced.push_back(R.Seconds);
        Last = std::move(R);
      }
    }
  }
  for (const std::string &Diff : Diffs)
    std::fprintf(stderr, "replay mismatch: %s\n", Diff.c_str());

  auto medians = [](const std::vector<MetricValues> &Samples) {
    MetricValues V;
    for (const auto &[Name, X] : Samples.front()) {
      std::vector<double> Values;
      for (const MetricValues &M : Samples)
        Values.push_back(M.at(Name));
      V[Name] = median(Values);
    }
    return V;
  };
  MetricValues V = medians(Rounds[ParallelJobs]);
  MetricValues Serial = medians(Rounds[1]);
  V["sim.profile_waits.serial"] = Serial["sim.profile_waits"];
  V["campaign.tracing_overhead_s"] = median(Traced) - median(Untraced);
  V["bench.probe_s"] = median(Probes);
  // A serial replay cannot wait: the owner of every profile is the
  // thread itself and publishes before its next acquire.
  bool Correct = T.Failed == 0 && V["sim.profile_waits.serial"] == 0.0;

  std::string TracePath = A.WorkDir + "/trace.json";
  std::ofstream(TracePath) << traceToChromeJson(Last.Trace, false);
  std::printf("%s seed %llu: %zu jobs, %zu traced replay rounds in %.1f s; "
              "last trace in %s\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              Jobs.size(), Rounds[1].size(), Clock.seconds(),
              TracePath.c_str());
  printTable(PerLayer, V);
  std::printf("  self times of the 1-thread replay:\n");
  for (const auto &[Name, X] : Serial)
    if (Name.size() > 2 && Name.compare(Name.size() - 2, 2, "_s") == 0 &&
        X > 0.0)
      std::printf("    %-26s %14.6g s\n", Name.c_str(), X);
  printResult(Correct, T.Attempted, T.Failed, PerLayer, V);
  return Correct ? 0 : 1;
}

void describe() {
  JsonWriter W(/*Pretty=*/true);
  W.beginObject();
  for (const auto &[Key, Defs] :
       {std::pair{"end_to_end", &EndToEnd}, std::pair{"per_layer", &PerLayer}}) {
    W.key(Key).beginArray();
    for (const MetricDef &D : *Defs) {
      W.beginObject();
      W.field("name", D.Name);
      W.field("unit", D.Unit);
      W.field("better", D.Better);
      W.endObject();
    }
    W.endArray();
  }
  W.key("workloads").beginArray();
  for (const std::string &Name : workloadNames())
    W.value(Name);
  W.endArray();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
}

/// Feeds every correctness check a deliberately mismatched input and
/// returns how many of them failed to notice.
int selftest(const std::string &WorkDir) {
  int Silent = 0;
  auto expect = [&](bool Fired, const char *Check) {
    std::printf("%-52s %s\n", Check, Fired ? "ok" : "FAILED");
    Silent += !Fired;
  };
  Workload W;
  makeWorkload("store_extend", 7, /*Tiny=*/true, W);
  Dirs D(WorkDir);
  std::vector<JobSpec> Jobs = W.Grid.expand();
  runSetup(W, D.Base);
  PassResult P = runPass(W, Jobs, ParallelJobs, D.Base, D.Pass);
  expect(P.StoreFailures == 0 &&
             countFailures(P.CR.Results, P.Bytes, P.Bytes) == 0,
         "a clean pass counts no failure");

  std::vector<std::string> Other = P.Bytes;
  Other.back() += " ";
  expect(countFailures(P.CR.Results, P.Bytes, Other) == 1,
         "fires: report bytes differ across passes");
  std::vector<JobResult> Errored = P.CR.Results;
  Errored.front().Error = "injected";
  expect(countFailures(Errored, P.Bytes, P.Bytes) == 1, "fires: a job error");

  {
    // Drop the last record line save() appended: reopen must miss it.
    freshCopy(D.Base, D.Pass);
    CacheStore Store;
    StoreRun Run = runStoreCampaign(Store, D.Pass, Jobs, ParallelJobs);
    std::string Path = D.Pass + "/results.jsonl", Text, Line;
    std::ifstream In(Path);
    std::vector<std::string> Lines;
    while (std::getline(In, Line))
      Lines.push_back(Line);
    In.close();
    Lines.pop_back();
    std::ofstream Out(Path, std::ios::trunc);
    for (const std::string &L : Lines)
      Out << L << "\n";
    Out.close();
    expect(Run.Saved && missingOnReopen(Store, D.Pass) == 1,
           "fires: an acknowledged record missing on reopen");
  }

  freshCopy(D.Base, D.Pass);
  ReplayResult R = replayCampaign(Jobs, ParallelJobs, D.Pass);
  expect(crossCheck(R, P.CR).empty(), "the replay reproduces the campaign");
  auto mutated = [&](auto Mutate, const char *Check) {
    CampaignResult C = P.CR;
    Mutate(C);
    expect(!crossCheck(R, C).empty(), Check);
  };
  size_t Job = 0;
  while (Job + 1 < P.CR.Results.size() && P.CR.Results[Job].CacheHit)
    ++Job;
  mutated([&](CampaignResult &C) { C.Results[Job].OptEnergyMilliJoules *= 2; },
          "fires: replay a per-job energy differs");
  mutated([&](CampaignResult &C) { ++C.Results[Job].OptCycles; },
          "fires: replay per-job cycles differ");
  mutated(
      [&](CampaignResult &C) {
        C.Results[Job].SolveOutcome = SolveStatus::FeasibleLimit;
      },
      "fires: replay a solve status differs");
  mutated([&](CampaignResult &C) { ++C.Results[Job].RamBytes; },
          "fires: replay other report bytes differ");
  mutated([](CampaignResult &C) { ++C.Summary.FullSims; },
          "fires: replay full sims differ");
  mutated([](CampaignResult &C) { ++C.Summary.Recosts; },
          "fires: replay recosts differ");
  mutated([](CampaignResult &C) { ++C.Summary.Extractions; },
          "fires: replay extractions differ");
  mutated([](CampaignResult &C) { ++C.Summary.ColdSolves; },
          "fires: replay cold solves differ");
  mutated([](CampaignResult &C) { ++C.Summary.WarmSolves; },
          "fires: replay warm solves differ");
  mutated([](CampaignResult &C) { ++C.Summary.IncumbentSeeds; },
          "fires: replay seeded solves differ");
  mutated([](CampaignResult &C) { ++C.Summary.CacheHits; },
          "fires: replay cache hits differ");
  mutated([](CampaignResult &C) { C.Results.pop_back(); },
          "fires: replay job count differs");
  return Silent;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Mode) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--describe" || Arg == "--selftest") {
      Mode = Arg;
    } else if (Arg == "--tiny") {
      A.Tiny = true;
    } else if ((V = next()) == nullptr) {
      return false;
    } else if (Arg == "--workload") {
      A.Workload = V;
    } else if (Arg == "--seed") {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds") {
      A.Seconds = std::atof(V);
    } else if (Arg == "--trace") {
      A.Trace = std::string(V) == "1";
    } else if (Arg == "--work-dir") {
      A.WorkDir = V;
    } else {
      return false;
    }
  }
  return Mode == "--describe" || !A.WorkDir.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Mode;
  if (!parseArgs(Argc, Argv, A, Mode)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--tiny]\n"
                 "       campaign_bench --describe\n"
                 "       campaign_bench --selftest --work-dir DIR\n");
    return 2;
  }
  if (Mode == "--describe") {
    describe();
    return 0;
  }
  try {
    fs::create_directories(A.WorkDir);
    if (Mode == "--selftest")
      return selftest(A.WorkDir) == 0 ? 0 : 1;
    Workload W;
    if (!makeWorkload(A.Workload, A.Seed, A.Tiny, W)) {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   A.Workload.c_str());
      return 2;
    }
    return A.Trace ? runTraced(A, W) : runTimed(A, W);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
