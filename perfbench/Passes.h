//===- perfbench/Passes.h - timed campaign passes and checks ----*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One timed campaign pass, the set-up before the first one, and the
/// correctness checks every pass feeds: report bytes identical across
/// passes and job counts, no job errors, and — on a store workload —
/// every record save() acknowledged found again on reopen.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_PERFBENCH_PASSES_H
#define RAMLOC_PERFBENCH_PASSES_H

#include "Workloads.h"

#include "campaign/CacheStore.h"

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Each job's compact report line: the unit the byte-identity checks
/// compare.
std::vector<std::string>
jobBytes(const std::vector<ramloc::JobResult> &Results);

/// Jobs of \p Got that ended in error or whose report line differs from
/// \p Ref (a length mismatch counts every missing or extra job).
unsigned countFailures(const std::vector<ramloc::JobResult> &Got,
                       const std::vector<std::string> &GotBytes,
                       const std::vector<std::string> &Ref);

/// What a store-backed campaign did besides producing results.
struct StoreRun {
  ramloc::CampaignResult CR;
  bool Saved = false;
  unsigned JournalFailures = 0;
};

/// Opens \p Store on \p Dir and runs \p Jobs through it as
/// `ramloc-batch --cache-dir` does: cached results, preloaded profiles and
/// incumbents, one journal append per finished job, save() at the end.
/// Throws std::runtime_error when the store cannot be opened.
StoreRun runStoreCampaign(ramloc::CacheStore &Store, const std::string &Dir,
                          const std::vector<ramloc::JobSpec> &Jobs,
                          unsigned Workers);

/// The records \p Store's last save() acknowledged — its successful,
/// Optimal results, the only ones save() persists — that a fresh open of
/// \p Dir does not serve with identical report bytes.
unsigned missingOnReopen(const ramloc::CacheStore &Store,
                         const std::string &Dir);

/// A fixed arithmetic loop, timed: which machine speed regime a pass ran
/// in.
double runProbe();

struct PassResult {
  double Seconds = 0.0;       ///< store open + campaign + save
  double ProbeSeconds = 0.0;  ///< runProbe() just before the pass
  ramloc::CampaignResult CR;
  std::vector<std::string> Bytes;
  /// Store workloads: acknowledged records missing on reopen, plus
  /// failed journal appends and a failed save().
  unsigned StoreFailures = 0;
};

/// One timed pass at \p Workers workers with fresh in-process caches. A
/// store workload first copies \p BaseStore to \p PassDir (untimed) and
/// runs on the copy; the reopen check after it is untimed too.
PassResult runPass(const Workload &W, const std::vector<ramloc::JobSpec> &Jobs,
                   unsigned Workers, const std::string &BaseStore,
                   const std::string &PassDir);

/// One set-up: grid expansion, building and verifying every benchmark
/// module the grid names and, for a store workload, filling a fresh base
/// store at \p StoreDir with the base grid. Returns its wall seconds.
/// Throws std::runtime_error when any of it fails.
double runSetup(const Workload &W, const std::string &StoreDir);

/// Replaces \p To with a copy of directory \p From.
void freshCopy(const std::string &From, const std::string &To);

} // namespace perfbench

#endif // RAMLOC_PERFBENCH_PASSES_H
