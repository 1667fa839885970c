//===- sim/ExecutionProfile.h - device-independent run profile --*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counting and pricing. The architectural instruction stream of a run
/// depends only on (image, initial arguments): a TimingModel changes how
/// many cycles each step costs and how they are attributed, never which
/// instructions execute or what values they compute. So a run records
/// only device-independent counts — per static instruction, its
/// executions, taken conditional branches, condition-failed skips and load
/// data memories (InstrCounts) — and priceCounts() turns them into the
/// RunStats any TimingModel produces, in one pass over the static
/// instructions. This is the trace-once/cost-many structure the paper's
/// own Fb/Cb/Lb model implies.
///
/// Every full simulation prices its own counts this way at the end of the
/// run, and recostProfile() prices a stored ExecutionProfile — the counts
/// of an earlier run of the same image — the same way. The campaign engine
/// uses the second to make the device axis of a grid nearly free (1 full
/// simulation + N-1 recosts instead of N simulations). The two paths share
/// one pricing function, so their RunStats — Cycles, ClassCycles,
/// LoadCycles, ContentionStalls, FlashWaitCycles, BlockCounts, ExitCode —
/// agree bit-for-bit and downstream energy integration produces
/// byte-identical reports. recostProfile() refuses (returns false)
/// whenever a recost cannot stand in for a run: an invalid profile, a run
/// that would exceed the cycle budget under the new timing, or a request
/// for timing-dependent output (power-profile samples); callers fall back
/// to full simulation.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_EXECUTIONPROFILE_H
#define RAMLOC_SIM_EXECUTIONPROFILE_H

#include "sim/Simulator.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ramloc {

class JsonValue;
class JsonWriter;

/// One run's device-independent execution record, parallel to
/// Image::Instrs. Collected by runImageProfiled(); consumed by
/// recostProfile().
struct ExecutionProfile {
  /// Per static instruction, indexed like Image::Instrs.
  std::vector<InstrCounts> Instrs;
  /// Per-block execution counts, indexed [function][block] (the Fb of
  /// Figure 5, identical to RunStats::BlockCounts).
  std::vector<std::vector<uint64_t>> BlockCounts;
  uint64_t Instructions = 0;
  uint64_t SleepEvents = 0;
  uint32_t ExitCode = 0;
  /// True only when the profiled run completed cleanly (no fault, no
  /// cycle-limit abort). Invalid profiles must never be recosted or
  /// persisted.
  bool Valid = false;

  bool operator==(const ExecutionProfile &O) const = default;
};

/// The key a profile is shared and persisted under: the image fingerprint
/// plus the initial r0-r2 arguments. Two runs with equal keys execute the
/// same instruction stream on every device.
std::string executionKey(const Image &Img, uint32_t Arg0 = 0,
                         uint32_t Arg1 = 0, uint32_t Arg2 = 0);

/// Runs \p Img once, collecting both the \p Opts-timed RunStats and the
/// device-independent profile (into \p Profile). The returned stats are
/// identical to runImage() with the same options.
RunStats runImageProfiled(const Image &Img, const SimOptions &Opts,
                          ExecutionProfile &Profile, uint32_t Arg0 = 0,
                          uint32_t Arg1 = 0, uint32_t Arg2 = 0);

/// Prices \p Counts (parallel to Img.Instrs) under \p Opts: adds the
/// startup copy and every instruction's cycles to Out's cycle totals and
/// attribution matrices, and sets Instructions, SleepEvents and
/// BlockCounts (each block's head instruction, executed or skipped).
/// Leaves ExitCode, Error, HitCycleLimit and Samples alone. Returns false
/// on counts no run can produce (a load whose data memories do not sum to
/// its executions, more taken than executed branches).
bool priceCounts(const Image &Img, std::span<const InstrCounts> Counts,
                 const SimOptions &Opts, RunStats &Out);

/// Derives the RunStats a full simulation of \p Img under \p Opts would
/// produce, from \p Profile, in O(#static instructions). Returns false —
/// leaving \p Out untouched — when exact equivalence cannot be
/// guaranteed: the profile is invalid or shaped for a different image,
/// Opts requests power-profile samples (SampleIntervalCycles != 0), or
/// the recosted run would hit Opts.MaxCycles.
bool recostProfile(const Image &Img, const ExecutionProfile &Profile,
                   const SimOptions &Opts, RunStats &Out);

/// Serializes \p Profile as one compact JSON object carrying \p Key (the
/// profile-store dialect; only valid profiles should be written).
void writeExecutionProfile(JsonWriter &W, const std::string &Key,
                           const ExecutionProfile &Profile);

/// Parses an object written by writeExecutionProfile. Returns false on a
/// malformed document; on success \p Key and \p Out are filled and the
/// profile is marked Valid.
bool parseExecutionProfile(const JsonValue &V, std::string &Key,
                           ExecutionProfile &Out);

} // namespace ramloc

#endif // RAMLOC_SIM_EXECUTIONPROFILE_H
