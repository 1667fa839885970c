//===- perfbench/Replay.cpp - traced replay of a campaign ----------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
//
// Replay::runGroup below mirrors runSolveGroup in campaign/Campaign.cpp,
// and Replay::measure mirrors measureModule in core/Pipeline.cpp, stage
// call for stage call, so the spans around the calls attribute the
// campaign's time to layers. Fault injection is not mirrored: the
// benchmark never installs an injector.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "Passes.h"

#include "beebs/Beebs.h"
#include "campaign/CacheStore.h"
#include "mir/Verifier.h"
#include "power/DeviceRegistry.h"
#include "sim/ProfileCache.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

using namespace ramloc;

namespace perfbench {

namespace {

/// Category of every span the replay records.
constexpr const char *Cat = "perfbench";

/// State the replay's worker threads share.
struct Replay {
  const std::vector<JobSpec> &Jobs;
  std::vector<JobResult> &Results;
  ProfileCache *Profiles = nullptr;
  IncumbentStore *Incumbents = nullptr;
  CacheStore *Store = nullptr;

  std::mutex PublishedMu;
  /// Execution keys whose profile is ready (published or preloaded): an
  /// acquire of any other key that does not make the caller its owner
  /// blocks until the owner publishes — a profile wait.
  std::set<std::string> Published;

  std::mutex DoneMu;
  uint64_t JournalAppends = 0;
  std::string JournalError;

  std::atomic<uint64_t> FullSims{0}, Recosts{0}, Instructions{0},
      ProfileWaits{0};

  // Per-group tallies, summed under DoneMu when a group finishes.
  WorkCounters Counters;
  uint64_t Nodes = 0, DualPivots = 0, PrimalPivots = 0;
  uint64_t MeasureJobs = 0, SharedApplies = 0;

  Replay(const std::vector<JobSpec> &Jobs, std::vector<JobResult> &Results)
      : Jobs(Jobs), Results(Results) {}

  std::shared_ptr<const ExecutionProfile> acquire(const std::string &Key,
                                                  bool &Owner);
  void publish(const std::string &Key,
               std::shared_ptr<const ExecutionProfile> Profile);
  Measurement measure(const Module &M, const PipelineOptions &Opts);
  void jobDone(size_t I);
  void runGroup(const std::vector<size_t> &Indices);
};

std::shared_ptr<const ExecutionProfile>
Replay::acquire(const std::string &Key, bool &Owner) {
  bool Ready;
  {
    std::lock_guard<std::mutex> Lock(PublishedMu);
    Ready = Published.count(Key) != 0;
  }
  // The span's name depends on the outcome, so the event is assembled by
  // hand instead of through a scoped TraceSpan.
  TraceRecorder *R = TraceRecorder::current();
  uint64_t Start = R ? R->nowNs() : 0;
  std::shared_ptr<const ExecutionProfile> P = Profiles->acquire(Key, Owner);
  bool Waited = !Owner && !Ready;
  if (Waited)
    ++ProfileWaits;
  if (R) {
    TraceEvent E;
    E.Name = Waited ? "sim.profile_wait" : "sim.profile_acquire";
    E.Category = Cat;
    E.StartNs = Start;
    E.DurNs = R->nowNs() - Start;
    R->record(std::move(E));
  }
  return P;
}

void Replay::publish(const std::string &Key,
                     std::shared_ptr<const ExecutionProfile> Profile) {
  {
    TraceSpan Span("sim.profile_publish", Cat);
    Profiles->publish(Key, std::move(Profile));
  }
  std::lock_guard<std::mutex> Lock(PublishedMu);
  Published.insert(Key);
}

Measurement Replay::measure(const Module &M, const PipelineOptions &Opts) {
  Measurement Out;
  LinkResult LR;
  {
    TraceSpan Span("layout.link", Cat);
    LR = linkModule(M, Opts.Link);
  }
  if (!LR.ok()) {
    Out.Stats.Error = "link failed: " + LR.Errors.front();
    return Out;
  }

  std::string Key;
  {
    TraceSpan Span("sim.exec_key", Cat);
    Key = executionKey(LR.Img);
  }
  bool Owner = false;
  std::shared_ptr<const ExecutionProfile> Shared = acquire(Key, Owner);
  bool Simulated = Owner;
  if (Owner) {
    auto Fresh = std::make_shared<ExecutionProfile>();
    try {
      TraceSpan Span("sim.fullsim", Cat);
      Out.Stats = runImageProfiled(LR.Img, Opts.Sim, *Fresh);
    } catch (...) {
      publish(Key, nullptr);
      throw;
    }
    bool Valid = Fresh->Valid;
    publish(Key, Valid ? std::move(Fresh) : nullptr);
  } else {
    bool Recosted = false;
    if (Shared) {
      TraceSpan Span("sim.recost", Cat);
      Recosted = recostProfile(LR.Img, *Shared, Opts.Sim, Out.Stats);
    }
    if (Recosted) {
      ++Recosts;
    } else {
      TraceSpan Span("sim.fullsim", Cat);
      Out.Stats = runImage(LR.Img, Opts.Sim);
      Simulated = true;
    }
  }
  if (Simulated) {
    ++FullSims;
    Instructions += Out.Stats.Instructions;
  }
  {
    TraceSpan Span("power.integrate", Cat);
    Out.Energy = Opts.Power.integrate(Out.Stats);
  }
  return Out;
}

void Replay::jobDone(size_t I) {
  if (!Store)
    return;
  std::lock_guard<std::mutex> Lock(DoneMu);
  TraceSpan Span("store.journal_append", Cat);
  std::string Error;
  if (Store->appendJournal(Results[I], &Error))
    ++JournalAppends;
  else if (JournalError.empty())
    JournalError = "journal append: " + Error;
}

/// The model-side fields of a result (Campaign.cpp's fillModelFields).
void fillModelFields(JobResult &R, const ModelParams &MP,
                     const Assignment &InRam) {
  ModelEstimate Base =
      evaluateAssignment(MP, Assignment(MP.numBlocks(), false));
  ModelEstimate Opt = evaluateAssignment(MP, InRam);
  R.PredictedBaseEnergyMilliJoules = Base.EnergyMilliJoules;
  R.PredictedOptEnergyMilliJoules = Opt.EnergyMilliJoules;
  R.PredictedBaseCycles = Base.Cycles;
  R.PredictedOptCycles = Opt.Cycles;
  R.RamBytes = Opt.RamBytes;
  for (unsigned B = 0, E = MP.numBlocks(); B != E; ++B)
    if (InRam[B])
      ++R.MovedBlocks;
}

void Replay::runGroup(const std::vector<size_t> &Indices) {
  TraceSpan GroupSpan("campaign.group", Cat);
  const JobSpec &First = Jobs[Indices.front()];
  auto failAll = [&](const std::string &Error) {
    for (size_t I : Indices) {
      Results[I] = JobResult();
      Results[I].Spec = Jobs[I];
      Results[I].Error = Error;
      jobDone(I);
    }
  };
  if (!isKnownBeebs(First.Benchmark))
    return failAll("unknown benchmark '" + First.Benchmark + "'");
  const DeviceInfo *Dev = findDevice(First.Device);
  if (!Dev)
    return failAll("unknown device '" + First.Device + "'");

  PipelineOptions Opts;
  Opts.Knobs.RspareBytes = First.RspareBytes;
  Opts.Knobs.Xlimit = First.Xlimit;
  Opts.Power = Dev->Model;
  Opts.Sim.Timing = Dev->Timing;
  Opts.Extract.Timing = Dev->Timing;
  Opts.UseProfiledFrequencies = First.Freq == FreqMode::Profiled;
  bool IsMeasure = First.Kind == JobKind::Measure;

  Module M;
  {
    TraceSpan Span("beebs.build", Cat);
    M = buildBeebs(First.Benchmark, First.Level, First.Repeat);
  }

  // extractModule.
  Measurement Base;
  ModelParams MP;
  ModelEstimate PredictedBase;
  {
    std::vector<std::string> Diags;
    {
      TraceSpan Span("mir.verify", Cat);
      Diags = verifyModule(M);
    }
    if (!Diags.empty())
      return failAll("verifier: " + Diags.front());
    if (IsMeasure || Opts.UseProfiledFrequencies) {
      Base = measure(M, Opts);
      if (!Base.ok())
        return failAll("baseline run failed: " + Base.Stats.Error);
    }
    TraceSpan Span("core.extract", Cat);
    ModuleFrequency Freq =
        Opts.UseProfiledFrequencies
            ? moduleFrequencyFromProfile(M, Base.Stats.profileMap(M),
                                         Opts.Freq)
            : estimateModuleFrequency(M, Opts.Freq);
    MP = extractParams(M, Freq, Opts.Power, Opts.Extract);
    PredictedBase = evaluateAssignment(MP, Assignment(MP.numBlocks(), false));
  }

  std::optional<PlacementSolver> Solver;
  {
    TraceSpan Span("core.model_build", Cat);
    Solver.emplace(MP, Opts.Knobs);
  }
  const std::string GroupKey = First.solveGroupKey();
  bool Seeded = false;
  if (Incumbents && Opts.Solver.WarmNodes) {
    IncumbentStore::Entry Known;
    if (Incumbents->lookup(GroupKey, Known)) {
      TraceSpan Span("lp.seed", Cat);
      Seeded = Solver->seedIncumbent(MP, Known.InRam);
    }
  }

  WorkCounters C;
  uint64_t Nodes = 0, Dual = 0, Primal = 0, MeasureJobs = 0, Shared = 0;
  std::map<Assignment, JobResult> ByPlacement;
  bool FirstJob = true;
  for (size_t I : Indices) {
    const JobSpec &Spec = Jobs[I];
    ModelKnobs Knobs = Opts.Knobs;
    Knobs.RspareBytes = Spec.RspareBytes;
    Knobs.Xlimit = Spec.Xlimit;

    MipSolution Sol;
    Assignment InRam;
    {
      TraceSpan Span("lp.solve", Cat);
      InRam = Solver->solve(Knobs, Opts.Solver, &Sol);
    }
    if (Incumbents && FirstJob)
      Incumbents->offer(GroupKey, InRam,
                        evaluateAssignment(MP, InRam).EnergyMilliJoules);

    JobResult R;
    if (IsMeasure) {
      ++MeasureJobs;
      auto It = ByPlacement.find(InRam);
      if (It != ByPlacement.end()) {
        ++Shared;
        R = It->second;
      } else {
        // applyAndMeasure.
        ModelEstimate PredictedOpt = evaluateAssignment(MP, InRam);
        Module Optimized;
        {
          TraceSpan Span("core.rewrite", Cat);
          Optimized = applyPlacement(M, MP, InRam);
        }
        std::vector<std::string> Diags;
        {
          TraceSpan Span("mir.verify", Cat);
          Diags = verifyModule(Optimized);
        }
        Measurement Opt;
        if (!Diags.empty()) {
          R.Error = "post-transform verifier: " + Diags.front();
        } else if (Opt = measure(Optimized, Opts); !Opt.ok()) {
          R.Error = "optimized run failed: " + Opt.Stats.Error;
        } else if (Opt.Stats.ExitCode != Base.Stats.ExitCode) {
          R.Error = formatString(
              "transformation changed the program result: 0x%08x vs 0x%08x",
              Base.Stats.ExitCode, Opt.Stats.ExitCode);
        } else {
          R.BaseEnergyMilliJoules = Base.Energy.MilliJoules;
          R.OptEnergyMilliJoules = Opt.Energy.MilliJoules;
          R.BaseSeconds = Base.Energy.Seconds;
          R.OptSeconds = Opt.Energy.Seconds;
          R.BaseAvgMilliWatts = Base.Energy.AvgMilliWatts;
          R.OptAvgMilliWatts = Opt.Energy.AvgMilliWatts;
          R.BaseCycles = Base.Stats.Cycles;
          R.OptCycles = Opt.Stats.Cycles;
          R.PredictedBaseEnergyMilliJoules = PredictedBase.EnergyMilliJoules;
          R.PredictedOptEnergyMilliJoules = PredictedOpt.EnergyMilliJoules;
          R.PredictedBaseCycles = PredictedBase.Cycles;
          R.PredictedOptCycles = PredictedOpt.Cycles;
          R.RamBytes = PredictedOpt.RamBytes;
          for (unsigned B = 0, E = MP.numBlocks(); B != E; ++B)
            if (InRam[B])
              ++R.MovedBlocks;
        }
        ByPlacement.emplace(InRam, R);
      }
    } else {
      fillModelFields(R, MP, InRam);
    }
    R.Spec = Spec;
    R.SolveOutcome = Sol.Outcome == SolveStatus::Optimal
                         ? SolveStatus::Optimal
                     : Sol.Outcome == SolveStatus::InfeasibleProven
                         ? SolveStatus::InfeasibleProven
                         : SolveStatus::FeasibleLimit;
    C.Extractions += FirstJob ? 1 : 0;
    C.SeededSolves += FirstJob && Seeded && Sol.seededIncumbent() ? 1 : 0;
    (Sol.warmStarted() ? C.WarmSolves : C.ColdSolves) += 1;
    Nodes += Sol.NodesExplored;
    Dual += Sol.dualPivots();
    Primal += Sol.primalPivots();
    Results[I] = std::move(R);
    jobDone(I);
    FirstJob = false;
  }

  std::lock_guard<std::mutex> Lock(DoneMu);
  Counters.Extractions += C.Extractions;
  Counters.SeededSolves += C.SeededSolves;
  Counters.WarmSolves += C.WarmSolves;
  Counters.ColdSolves += C.ColdSolves;
  this->Nodes += Nodes;
  DualPivots += Dual;
  PrimalPivots += Primal;
  this->MeasureJobs += MeasureJobs;
  SharedApplies += Shared;
}

/// A campaign pass's counters (its Summary views).
WorkCounters countersOf(const CampaignSummary &S) {
  WorkCounters C;
  C.FullSims = S.FullSims;
  C.Recosts = S.Recosts;
  C.Extractions = S.Extractions;
  C.ColdSolves = S.ColdSolves;
  C.WarmSolves = S.WarmSolves;
  C.SeededSolves = S.IncumbentSeeds;
  C.CacheHits = S.CacheHits;
  return C;
}

/// Span self times by name, over the spans of category \p Category only
/// (the library's own spans are transparent: neither parents nor
/// children).
std::map<std::string, LayerTime> selfTimes(const TraceSnapshot &S,
                                           const char *Category) {
  // Events arrive sorted by (thread, start, longest first), so on each
  // thread a span's parent is the innermost earlier span still open at
  // its start.
  struct Open {
    const TraceEvent *E;
    uint64_t Children = 0;
  };
  std::map<std::string, LayerTime> Out;
  std::vector<Open> Stack;
  auto close = [&](const Open &O) {
    LayerTime &L = Out[O.E->Name];
    uint64_t Self = O.E->DurNs > O.Children ? O.E->DurNs - O.Children : 0;
    L.SelfSeconds += static_cast<double>(Self) * 1e-9;
    ++L.Calls;
  };
  unsigned Tid = ~0u;
  for (const TraceEvent &E : S.Events) {
    if (std::string_view(E.Category) != Category)
      continue;
    if (E.Tid != Tid) {
      for (; !Stack.empty(); Stack.pop_back())
        close(Stack.back());
      Tid = E.Tid;
    }
    while (!Stack.empty() &&
           Stack.back().E->StartNs + Stack.back().E->DurNs <= E.StartNs) {
      close(Stack.back());
      Stack.pop_back();
    }
    if (!Stack.empty())
      Stack.back().Children += E.DurNs;
    Stack.push_back({&E});
  }
  for (; !Stack.empty(); Stack.pop_back())
    close(Stack.back());
  return Out;
}

} // namespace

ReplayResult replayCampaign(const std::vector<JobSpec> &Jobs,
                            unsigned Threads, const std::string &StoreDir) {
  ReplayResult Out;
  Out.Threads = Threads;
  Out.Results.resize(Jobs.size());
  TraceRecorder Recorder;
  Recorder.install();
  Recorder.setThreadName("main");
  WallTimer Wall;

  Replay Rp(Jobs, Out.Results);
  ProfileCache LocalProfiles;
  std::unique_ptr<CacheStore> Store;
  Rp.Profiles = &LocalProfiles;
  if (!StoreDir.empty()) {
    Store = std::make_unique<CacheStore>();
    bool Opened;
    {
      TraceSpan Span("store.open", Cat);
      Opened = Store->open(StoreDir, &Out.Error);
    }
    if (Opened) {
      TraceSpan Span("store.journal_begin", Cat);
      Opened = Store->beginJournal("limits:t0:n0:p0", false, &Out.Error);
    }
    if (!Opened)
      return Out;
    Rp.Store = Store.get();
    Rp.Profiles = &Store->profiles();
    Rp.Incumbents = &Store->incumbents();
    for (const auto &[Key, P] : Store->profiles().snapshot())
      Rp.Published.insert(Key);
    Out.PreloadedProfiles = Store->loadedProfiles();
    Out.RecordsLoaded = Store->loadedEntries() + Store->loadedProfiles() +
                        Store->loadedIncumbents();
  }

  // runCampaign's up-front dedup and solve grouping.
  std::vector<size_t> RunIndices;
  std::vector<ptrdiff_t> CopyFrom(Jobs.size(), -1);
  std::unordered_map<std::string, size_t> FirstByKey;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    std::string Key = Jobs[I].cacheKey();
    JobResult Cached;
    if (Store && Store->cache().lookup(Key, Cached)) {
      Out.Results[I] = Cached;
      Out.Results[I].Spec = Jobs[I];
      Out.Results[I].CacheHit = true;
      continue;
    }
    auto [It, Inserted] = FirstByKey.emplace(Key, I);
    if (Inserted)
      RunIndices.push_back(I);
    else
      CopyFrom[I] = static_cast<ptrdiff_t>(It->second);
  }
  std::vector<std::vector<size_t>> Groups;
  std::unordered_map<std::string, size_t> GroupOf;
  for (size_t I : RunIndices) {
    auto [It, New] = GroupOf.emplace(Jobs[I].solveGroupKey(), Groups.size());
    if (New)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }

  WallTimer Pool;
  std::atomic<size_t> Next{0};
  std::mutex ErrorMu;
  std::exception_ptr Failure;
  {
    std::vector<std::jthread> Workers;
    for (unsigned T = 0; T != Threads; ++T)
      Workers.emplace_back([&, T] {
        TraceRecorder::current()->setThreadName(
            formatString("replay-%u", T));
        try {
          for (size_t G; (G = Next++) < Groups.size();)
            Rp.runGroup(Groups[G]);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(ErrorMu);
          Failure = std::current_exception();
        }
      });
  }
  Out.PoolSeconds = Pool.seconds();
  if (Failure)
    std::rethrow_exception(Failure);

  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (CopyFrom[I] >= 0) {
      Out.Results[I] = Out.Results[CopyFrom[I]];
      Out.Results[I].Spec = Jobs[I];
      Out.Results[I].CacheHit = true;
    }
    if (Out.Results[I].CacheHit)
      ++Rp.Counters.CacheHits;
  }
  if (Store) {
    for (size_t I : RunIndices) {
      Store->cache().insert(Jobs[I].cacheKey(), Out.Results[I]);
      const JobResult &R = Out.Results[I];
      if (R.ok() && R.SolveOutcome == SolveStatus::Optimal)
        ++Out.RecordsAppended;
    }
    bool Saved;
    {
      TraceSpan Span("store.save", Cat);
      Saved = Store->save(&Out.Error);
    }
    if (Saved && !Rp.JournalError.empty())
      Out.Error = Rp.JournalError;
  }
  Out.Seconds = Wall.seconds();
  Out.Trace = Recorder.snapshot();
  TraceRecorder::uninstall();

  Out.Counters = Rp.Counters;
  Out.Counters.FullSims = Rp.FullSims;
  Out.Counters.Recosts = Rp.Recosts;
  Out.Instructions = Rp.Instructions;
  Out.ProfileWaits = Rp.ProfileWaits;
  Out.Nodes = Rp.Nodes;
  Out.DualPivots = Rp.DualPivots;
  Out.PrimalPivots = Rp.PrimalPivots;
  Out.MeasureJobs = Rp.MeasureJobs;
  Out.SharedApplies = Rp.SharedApplies;
  Out.JournalAppends = Rp.JournalAppends;
  Out.Layers = selfTimes(Out.Trace, Cat);
  for (const TraceEvent &E : Out.Trace.Events)
    if (std::string_view(E.Name) == "lp.solve")
      Out.SolveMs.push_back(static_cast<double>(E.DurNs) * 1e-6);
  return Out;
}

std::vector<std::string> crossCheck(const ReplayResult &Replay,
                                    const CampaignResult &Campaign) {
  std::vector<std::string> Diffs;
  if (!Replay.Error.empty())
    Diffs.push_back("replay: " + Replay.Error);
  const std::vector<JobResult> &A = Replay.Results, &B = Campaign.Results;
  if (A.size() != B.size()) {
    Diffs.push_back(formatString("replay ran %zu jobs, the campaign %zu",
                                 A.size(), B.size()));
    return Diffs;
  }
  std::vector<std::string> ABytes = jobBytes(A), BBytes = jobBytes(B);
  for (size_t I = 0; I != A.size(); ++I) {
    const JobResult &X = A[I], &Y = B[I];
    const char *What =
        X.BaseEnergyMilliJoules != Y.BaseEnergyMilliJoules ||
                X.OptEnergyMilliJoules != Y.OptEnergyMilliJoules ||
                X.PredictedOptEnergyMilliJoules !=
                    Y.PredictedOptEnergyMilliJoules
            ? "energy"
        : X.BaseCycles != Y.BaseCycles || X.OptCycles != Y.OptCycles
            ? "cycles"
        : X.SolveOutcome != Y.SolveOutcome ? "solve status"
        : X.Error != Y.Error               ? "error"
        : ABytes[I] != BBytes[I]           ? "report bytes"
                                           : nullptr;
    if (What)
      Diffs.push_back(std::string(What) + " differs for " +
                      Y.Spec.cacheKey());
  }
  const WorkCounters &R = Replay.Counters, C = countersOf(Campaign.Summary);
  auto counter = [&](const char *Name, uint64_t Got, uint64_t Want) {
    if (Got != Want)
      Diffs.push_back(formatString("%s: replay %llu, campaign %llu", Name,
                                   static_cast<unsigned long long>(Got),
                                   static_cast<unsigned long long>(Want)));
  };
  counter("full sims", R.FullSims, C.FullSims);
  counter("recosts", R.Recosts, C.Recosts);
  counter("extractions", R.Extractions, C.Extractions);
  counter("cold solves", R.ColdSolves, C.ColdSolves);
  counter("warm solves", R.WarmSolves, C.WarmSolves);
  counter("seeded solves", R.SeededSolves, C.SeededSolves);
  counter("cache hits", R.CacheHits, C.CacheHits);
  return Diffs;
}

} // namespace perfbench
