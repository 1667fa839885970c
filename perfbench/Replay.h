//===- perfbench/Replay.h - traced replay of a campaign ---------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer breakdown. A replay runs a workload's solve groups on
/// benchmark-owned threads, in expansion order, through the public stage
/// functions runCampaign composes (buildBeebs, verifyModule, linkModule,
/// executionKey, ProfileCache::acquire/publish, runImageProfiled /
/// recostProfile, PowerModel::integrate, frequency estimation,
/// extractParams, PlacementSolver, applyPlacement and the CacheStore),
/// each call wrapped in a TraceSpan whose name is its layer's metric
/// prefix. Spans stay in the TraceRecorder's memory until the replay ends;
/// a layer's self time is its spans' durations minus what their child
/// spans cover.
///
/// The replay is a second code path beside runCampaign, so it must prove
/// it did the same work: crossCheck() compares its per-job results and its
/// counters against a campaign pass over the same jobs.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_PERFBENCH_REPLAY_H
#define RAMLOC_PERFBENCH_REPLAY_H

#include "campaign/Campaign.h"
#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The work counters a replay must reproduce.
struct WorkCounters {
  uint64_t FullSims = 0;
  uint64_t Recosts = 0;
  uint64_t Extractions = 0;
  uint64_t ColdSolves = 0;
  uint64_t WarmSolves = 0;
  uint64_t SeededSolves = 0;
  uint64_t CacheHits = 0;
};

/// Self time and call count of one span name.
struct LayerTime {
  double SelfSeconds = 0.0;
  uint64_t Calls = 0;
};

struct ReplayResult {
  std::vector<ramloc::JobResult> Results;
  WorkCounters Counters;
  unsigned Threads = 0;
  double Seconds = 0.0;       ///< the whole replay, store open to save
  double PoolSeconds = 0.0;   ///< threads started to threads joined
  std::map<std::string, LayerTime> Layers;
  std::vector<double> SolveMs; ///< every lp.solve span, milliseconds
  uint64_t Instructions = 0;   ///< executed by full simulations
  uint64_t Nodes = 0, DualPivots = 0, PrimalPivots = 0;
  uint64_t MeasureJobs = 0;    ///< Measure jobs the groups solved
  uint64_t SharedApplies = 0;  ///< of those, served by a coinciding placement
  uint64_t ProfileWaits = 0;   ///< acquires that blocked on another owner
  uint64_t PreloadedProfiles = 0;
  uint64_t RecordsLoaded = 0;    ///< results + profiles + incumbents
  uint64_t RecordsAppended = 0;  ///< results save() persisted
  uint64_t JournalAppends = 0;
  /// Why the replay could not run a store step; empty on success.
  std::string Error;
  ramloc::TraceSnapshot Trace;
};

/// Replays \p Jobs on \p Threads threads with a recorder installed. With a
/// non-empty \p StoreDir (a fresh copy of the base store) it opens, seeds
/// from, journals into and saves the store as runStoreCampaign does.
ReplayResult replayCampaign(const std::vector<ramloc::JobSpec> &Jobs,
                            unsigned Threads, const std::string &StoreDir);

/// How the replay differs from \p Campaign: one line per job whose
/// energies, cycles, solve status or report bytes differ, and one per
/// counter that differs. Empty when the replay reproduced the campaign.
std::vector<std::string> crossCheck(const ReplayResult &Replay,
                                    const ramloc::CampaignResult &Campaign);

} // namespace perfbench

#endif // RAMLOC_PERFBENCH_REPLAY_H
