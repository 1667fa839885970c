//===- sim/ProfileCache.h - shared execution-profile cache ------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, compute-once cache of ExecutionProfiles keyed by
/// execution key (image fingerprint + initial arguments). "Compute-once"
/// is the load-bearing property: when a campaign fans one benchmark
/// across N devices concurrently, the first worker to reach an execution
/// key becomes its owner and simulates; every later worker recosts the
/// published profile. The grid therefore performs exactly one full
/// simulation per distinct execution no matter how the scheduler
/// interleaves the device axis — the invariant the campaign run counters
/// assert.
///
/// A worker that reaches a key while its owner is still simulating need
/// not sit idle. If its thread has a helper installed (HelpScope — the
/// campaign installs one that runs another queued solve group), acquire()
/// runs the helper, re-checks the key after each unit of work, and blocks
/// only when the helper has nothing to run or the thread is already
/// inside a helper (help depth <= 1, which bounds the work alive on one
/// thread). An owner never waits or helps between acquire() and
/// publish(), so every awaited key is held by a thread that is making
/// progress and helping cannot deadlock.
///
/// The cache also tallies how runs were satisfied (full simulations vs
/// recosts) and how long acquirers blocked (sim.profile.waits and
/// sim.profile.wait_seconds in globalMetrics()), which the campaign
/// engine surfaces as diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_PROFILECACHE_H
#define RAMLOC_SIM_PROFILECACHE_H

#include "sim/ExecutionProfile.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ramloc {

class Counter;
class Histogram;

class ProfileCache {
public:
  /// Work a waiting acquirer may run on its own thread: runs one unit and
  /// returns true, or returns false when there is nothing to run.
  using Helper = std::function<bool()>;

  /// Installs a helper for the calling thread for the scope's lifetime,
  /// restoring the previous one on exit. \p Help must outlive the scope.
  class HelpScope {
  public:
    explicit HelpScope(const Helper &Help);
    ~HelpScope();

    HelpScope(const HelpScope &) = delete;
    HelpScope &operator=(const HelpScope &) = delete;

  private:
    const Helper *Prev;
  };

  ProfileCache();

  /// How measurements through this cache were satisfied.
  struct Counters {
    uint64_t FullSims = 0; ///< runs that executed the interpreter
    uint64_t Recosts = 0;  ///< runs derived from a shared profile
  };

  /// Looks \p Key up. If the key is untouched, returns nullptr with
  /// \p Owner set: the caller must simulate and then publish() exactly
  /// once (nullptr on failure), without acquiring anything in between, or
  /// every later acquirer of the key deadlocks. If another caller owns the
  /// key's computation, waits until it publishes, then returns the profile
  /// (possibly nullptr when the owning run could not produce a valid one).
  /// While waiting, the calling thread runs its installed helper one unit
  /// at a time, re-checking the key after each; it blocks when the helper
  /// returns false, when none is installed, or when this acquire is itself
  /// running inside a helper.
  std::shared_ptr<const ExecutionProfile> acquire(const std::string &Key,
                                                  bool &Owner);

  /// Publishes the owner's result for \p Key and wakes all waiters.
  /// \p Profile may be nullptr (the run faulted or hit the cycle limit);
  /// waiters then fall back to their own full simulations.
  void publish(const std::string &Key,
               std::shared_ptr<const ExecutionProfile> Profile);

  /// Non-blocking insert of an already-computed profile (disk preload).
  /// Keys already present are left untouched.
  void preload(const std::string &Key,
               std::shared_ptr<const ExecutionProfile> Profile);

  void noteFullSim();
  void noteRecost();
  Counters counters() const;

  /// Valid, ready profiles sorted by key (the persistence order).
  std::vector<std::pair<std::string, std::shared_ptr<const ExecutionProfile>>>
  snapshot() const;

  /// Number of valid, ready profiles.
  size_t size() const;

private:
  struct Entry {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    std::shared_ptr<const ExecutionProfile> Profile;
  };

  mutable std::mutex Mu;
  std::unordered_map<std::string, std::shared_ptr<Entry>> Map;
  Counters Stats;
  Counter &Waits;           ///< acquires that blocked on an in-flight key
  Histogram &WaitSeconds;   ///< how long each of them blocked
};

} // namespace ramloc

#endif // RAMLOC_SIM_PROFILECACHE_H
