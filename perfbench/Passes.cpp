//===- perfbench/Passes.cpp - timed campaign passes and checks -----------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "beebs/Beebs.h"
#include "campaign/Report.h"
#include "mir/Verifier.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <tuple>

using namespace ramloc;
namespace fs = std::filesystem;

namespace perfbench {

namespace {
/// Where runProbe() leaves its result, so the loop has an observable
/// effect.
volatile uint64_t ProbeSink;
} // namespace

std::vector<std::string> jobBytes(const std::vector<JobResult> &Results) {
  std::vector<std::string> Out;
  Out.reserve(Results.size());
  for (const JobResult &R : Results) {
    JsonWriter W(/*Pretty=*/false);
    writeJobResult(W, R);
    Out.push_back(W.str());
  }
  return Out;
}

unsigned countFailures(const std::vector<JobResult> &Got,
                       const std::vector<std::string> &GotBytes,
                       const std::vector<std::string> &Ref) {
  unsigned Failed = 0;
  for (size_t I = 0; I != Got.size(); ++I)
    if (!Got[I].ok() || I >= Ref.size() || GotBytes[I] != Ref[I])
      ++Failed;
  if (Ref.size() > Got.size())
    Failed += static_cast<unsigned>(Ref.size() - Got.size());
  return Failed;
}

StoreRun runStoreCampaign(CacheStore &Store, const std::string &Dir,
                          const std::vector<JobSpec> &Jobs,
                          unsigned Workers) {
  std::string Error;
  if (!Store.open(Dir, &Error))
    throw std::runtime_error("cache store: " + Error);
  // ramloc-batch's journal token for a run with no solver limits.
  if (!Store.beginJournal("limits:t0:n0:p0", /*Resume=*/false, &Error))
    throw std::runtime_error("progress journal: " + Error);
  StoreRun Run;
  CampaignOptions Opts;
  Opts.Jobs = Workers;
  Opts.Cache = &Store.cache();
  Opts.Profiles = &Store.profiles();
  Opts.Incumbents = &Store.incumbents();
  Opts.Journal = [&Store, &Run](const JobResult &R) {
    if (!Store.appendJournal(R))
      ++Run.JournalFailures;
  };
  Run.CR = runCampaign(Jobs, Opts);
  Run.Saved = Store.save();
  return Run;
}

unsigned missingOnReopen(const CacheStore &Store, const std::string &Dir) {
  CacheStore Reopened;
  bool Opened = Reopened.open(Dir);
  unsigned Missing = 0;
  for (const auto &[Key, R] : Store.cache().snapshot()) {
    if (!R.ok() || R.SolveOutcome != SolveStatus::Optimal)
      continue;
    JobResult Found;
    if (!Opened || !Reopened.cache().lookup(Key, Found) ||
        jobBytes({Found}) != jobBytes({R}))
      ++Missing;
  }
  return Missing;
}

double runProbe() {
  // A 64-bit LCG: one multiply-add chain the compiler cannot shorten,
  // seeded from the clock so no part of it is known at compile time.
  uint64_t X = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  WallTimer T;
  for (unsigned I = 0; I != 10'000'000; ++I)
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
  double Seconds = T.seconds();
  ProbeSink = X;
  return Seconds;
}

void freshCopy(const std::string &From, const std::string &To) {
  fs::remove_all(To);
  fs::copy(From, To, fs::copy_options::recursive);
}

PassResult runPass(const Workload &W, const std::vector<JobSpec> &Jobs,
                   unsigned Workers, const std::string &BaseStore,
                   const std::string &PassDir) {
  PassResult P;
  P.ProbeSeconds = runProbe();
  if (!W.usesStore()) {
    CampaignOptions Opts;
    Opts.Jobs = Workers;
    WallTimer T;
    P.CR = runCampaign(Jobs, Opts);
    P.Seconds = T.seconds();
  } else {
    freshCopy(BaseStore, PassDir);
    CacheStore Store;
    WallTimer T;
    StoreRun Run = runStoreCampaign(Store, PassDir, Jobs, Workers);
    P.Seconds = T.seconds();
    P.CR = std::move(Run.CR);
    P.StoreFailures = missingOnReopen(Store, PassDir) + Run.JournalFailures +
                      (Run.Saved ? 0 : 1);
  }
  P.Bytes = jobBytes(P.CR.Results);
  return P;
}

double runSetup(const Workload &W, const std::string &StoreDir) {
  WallTimer T;
  std::set<std::tuple<std::string, OptLevel, unsigned>> Modules;
  for (const JobSpec &J : W.Grid.expand())
    Modules.emplace(J.Benchmark, J.Level, J.Repeat);
  for (const auto &[Name, Level, Repeat] : Modules) {
    if (!isKnownBeebs(Name))
      throw std::runtime_error("unknown benchmark '" + Name + "'");
    std::vector<std::string> Diags =
        verifyModule(buildBeebs(Name, Level, Repeat));
    if (!Diags.empty())
      throw std::runtime_error(Name + ": " + Diags.front());
  }
  if (W.usesStore()) {
    fs::remove_all(StoreDir);
    CacheStore Store;
    StoreRun Run =
        runStoreCampaign(Store, StoreDir, W.BaseGrid.expand(), ParallelJobs);
    if (!Run.Saved || Run.JournalFailures != 0 || Run.CR.Summary.Failed != 0)
      throw std::runtime_error("filling the base store failed");
  }
  return T.seconds();
}

} // namespace perfbench
