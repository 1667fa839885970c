//===- tests/SimProfileTest.cpp - execute/recost equivalence -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The acceptance bar for the simulate-once/cost-many split: RunStats
// derived by recosting a shared ExecutionProfile must equal direct
// simulation on EVERY counter, for every registry device (wait-stated
// parts included), across the whole BEEBS suite — plus round-trip checks
// for the predecoded dispatch table and the profile serialization.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "core/Pipeline.h"
#include "power/DeviceRegistry.h"
#include "sim/ExecutionProfile.h"
#include "sim/Predecode.h"
#include "sim/ProfileCache.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace ramloc;

namespace {

Image linkBeebs(const std::string &Name, OptLevel Level = OptLevel::O1,
                unsigned Repeat = 2) {
  Module M = buildBeebs(Name, Level, Repeat);
  LinkResult LR = linkModule(M, {});
  EXPECT_TRUE(LR.ok()) << Name;
  return LR.Img;
}

/// Every RunStats counter, compared field by field so a divergence names
/// the counter that broke.
void expectStatsEqual(const RunStats &A, const RunStats &B,
                      const std::string &Context) {
  EXPECT_EQ(A.Cycles, B.Cycles) << Context;
  EXPECT_EQ(A.Instructions, B.Instructions) << Context;
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned C = 0; C != 7; ++C)
      EXPECT_EQ(A.ClassCycles[F][C], B.ClassCycles[F][C])
          << Context << " ClassCycles[" << F << "][" << C << "]";
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned D = 0; D != 2; ++D)
      EXPECT_EQ(A.LoadCycles[F][D], B.LoadCycles[F][D])
          << Context << " LoadCycles[" << F << "][" << D << "]";
  EXPECT_EQ(A.ContentionStalls, B.ContentionStalls) << Context;
  EXPECT_EQ(A.FlashWaitCycles, B.FlashWaitCycles) << Context;
  EXPECT_EQ(A.SleepEvents, B.SleepEvents) << Context;
  EXPECT_EQ(A.BlockCounts, B.BlockCounts) << Context;
  EXPECT_EQ(A.Samples.size(), B.Samples.size()) << Context;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Context;
  EXPECT_EQ(A.Error, B.Error) << Context;
  EXPECT_EQ(A.HitCycleLimit, B.HitCycleLimit) << Context;
}

} // namespace

TEST(ExecutionProfile, RecostMatchesDirectSimulationAcrossSuiteAndDevices) {
  for (const BeebsInfo &Info : beebsSuite()) {
    Image Img = linkBeebs(Info.Name);

    // Collect the profile under the reference device...
    ExecutionProfile Profile;
    SimOptions RefSim;
    RunStats RefStats = runImageProfiled(Img, RefSim, Profile);
    ASSERT_TRUE(RefStats.ok()) << Info.Name;
    ASSERT_TRUE(Profile.Valid) << Info.Name;

    // ...and recost it for every registry device, wait-stated parts
    // included: bit-for-bit equality with direct simulation.
    for (const DeviceInfo &D : deviceRegistry()) {
      SimOptions Sim;
      Sim.Timing = D.Timing;
      RunStats Direct = runImage(Img, Sim);
      RunStats Recost;
      ASSERT_TRUE(recostProfile(Img, Profile, Sim, Recost))
          << Info.Name << " on " << D.Name;
      expectStatsEqual(Direct, Recost,
                       std::string(Info.Name) + " on " + D.Name);
    }
  }
}

TEST(ExecutionProfile, ProfileIsDeviceIndependent) {
  // The whole premise: which instructions execute does not depend on the
  // timing model, so a profile collected on a wait-stated part equals
  // one collected on the reference part.
  Image Img = linkBeebs("crc32");
  ExecutionProfile RefProfile, WaitedProfile;
  SimOptions RefSim;
  SimOptions WaitedSim;
  WaitedSim.Timing = findDevice("stm32f103-72mhz")->Timing;
  ASSERT_EQ(WaitedSim.Timing.FlashWaitStates, 2u);

  RunStats RefStats = runImageProfiled(Img, RefSim, RefProfile);
  RunStats WaitedStats = runImageProfiled(Img, WaitedSim, WaitedProfile);
  ASSERT_TRUE(RefStats.ok());
  ASSERT_TRUE(WaitedStats.ok());
  EXPECT_GT(WaitedStats.Cycles, RefStats.Cycles);
  EXPECT_EQ(RefProfile, WaitedProfile);
}

TEST(ExecutionProfile, ProfiledRunMatchesPlainRun) {
  Image Img = linkBeebs("int_matmult");
  SimOptions Sim;
  Sim.Timing = findDevice("stm32f100-2ws")->Timing;
  ExecutionProfile Profile;
  RunStats A = runImageProfiled(Img, Sim, Profile);
  RunStats B = runImage(Img, Sim);
  expectStatsEqual(A, B, "int_matmult profiled vs plain");
}

TEST(ExecutionProfile, RecostCoversOptimizedImagesWithRamCode) {
  // Optimized binaries execute from both memories and exercise the
  // contention path; the recost must track the placement exactly.
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  ASSERT_FALSE(PR.MovedBlocks.empty());
  LinkResult LR = linkModule(PR.Optimized, {});
  ASSERT_TRUE(LR.ok());

  ExecutionProfile Profile;
  SimOptions RefSim;
  (void)runImageProfiled(LR.Img, RefSim, Profile);
  ASSERT_TRUE(Profile.Valid);
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions Sim;
    Sim.Timing = D.Timing;
    RunStats Direct = runImage(LR.Img, Sim);
    EXPECT_GT(Direct.fetchCycles(MemKind::Ram), 0u);
    RunStats Recost;
    ASSERT_TRUE(recostProfile(LR.Img, Profile, Sim, Recost)) << D.Name;
    expectStatsEqual(Direct, Recost, "optimized crc32 on " + D.Name);
  }
}

TEST(ExecutionProfile, RecostRefusesTimingDependentOutput) {
  Image Img = linkBeebs("crc32");
  ExecutionProfile Profile;
  SimOptions Sim;
  (void)runImageProfiled(Img, Sim, Profile);
  ASSERT_TRUE(Profile.Valid);

  SimOptions Sampling;
  Sampling.SampleIntervalCycles = 1000;
  RunStats Out;
  EXPECT_FALSE(recostProfile(Img, Profile, Sampling, Out));
}

TEST(ExecutionProfile, RecostRefusesCycleBudgetOverflow) {
  Image Img = linkBeebs("crc32");
  ExecutionProfile Profile;
  SimOptions Sim;
  RunStats Stats = runImageProfiled(Img, Sim, Profile);
  ASSERT_TRUE(Profile.Valid);

  // A budget below the run's cost must force the full-simulation path
  // (whose abort point depends on the device), never a recost.
  SimOptions Tight;
  Tight.MaxCycles = Stats.Cycles - 1;
  RunStats Out;
  EXPECT_FALSE(recostProfile(Img, Profile, Tight, Out));
  // At exactly the run's cost the simulator completes (the limit check
  // runs before each step, and the last step lands on the budget).
  SimOptions Exact;
  Exact.MaxCycles = Stats.Cycles;
  ASSERT_TRUE(recostProfile(Img, Profile, Exact, Out));
  expectStatsEqual(runImage(Img, Exact), Out, "exact-budget recost");
}

TEST(ExecutionProfile, InvalidProfilesAreNeverRecost) {
  Image Img = linkBeebs("crc32");
  ExecutionProfile Profile;
  SimOptions Starved;
  Starved.MaxCycles = 100; // aborts mid-run
  RunStats Stats = runImageProfiled(Img, Starved, Profile);
  EXPECT_TRUE(Stats.HitCycleLimit);
  EXPECT_FALSE(Profile.Valid);
  RunStats Out;
  EXPECT_FALSE(recostProfile(Img, Profile, SimOptions{}, Out));
}

TEST(ExecutionProfile, ExecutionKeySeparatesImagesAndArguments) {
  Image A = linkBeebs("crc32");
  Image B = linkBeebs("sha");
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  EXPECT_NE(executionKey(A), executionKey(B));
  EXPECT_NE(executionKey(A, 1), executionKey(A, 2));
  EXPECT_EQ(executionKey(A), executionKey(A));

  Image A2 = linkBeebs("crc32");
  EXPECT_EQ(A.fingerprint(), A2.fingerprint());
}

TEST(ExecutionProfile, SerializationRoundTripsExactly) {
  Image Img = linkBeebs("2dfir");
  ExecutionProfile Profile;
  SimOptions Sim;
  (void)runImageProfiled(Img, Sim, Profile);
  ASSERT_TRUE(Profile.Valid);
  std::string Key = executionKey(Img);

  JsonWriter W(/*Pretty=*/false);
  writeExecutionProfile(W, Key, Profile);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(W.str(), V, &Error)) << Error;
  ExecutionProfile Back;
  std::string BackKey;
  ASSERT_TRUE(parseExecutionProfile(V, BackKey, Back));
  EXPECT_EQ(BackKey, Key);
  EXPECT_EQ(Back, Profile);

  // And the parsed profile recosts identically to the original.
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions DevSim;
    DevSim.Timing = D.Timing;
    RunStats FromOriginal, FromParsed;
    ASSERT_TRUE(recostProfile(Img, Profile, DevSim, FromOriginal));
    ASSERT_TRUE(recostProfile(Img, Back, DevSim, FromParsed));
    expectStatsEqual(FromOriginal, FromParsed, "parsed profile " + D.Name);
  }
}

TEST(Predecode, RoundTripsAgainstTheRawInstructionStream) {
  // Predecode an optimized image (code in both memories) under a
  // wait-stated timing model and check every pre-resolved field against
  // a fresh computation from the placed instruction.
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  LinkResult LR = linkModule(PR.Optimized, {});
  ASSERT_TRUE(LR.ok());
  const Image &Img = LR.Img;

  TimingModel T = findDevice("stm32f100-2ws")->Timing;
  ASSERT_GT(T.FlashWaitStates, 0u);
  DecodedImage Dec = predecodeImage(Img, T);
  ASSERT_EQ(Dec.size(), Img.Instrs.size());

  bool SawRamFetch = false;
  for (size_t I = 0; I != Dec.size(); ++I) {
    const DecodedInstr &D = Dec[I];
    const PlacedInstr &P = Img.Instrs[I];
    ASSERT_EQ(D.P, &P);
    MemKind Fetch = Img.Map.regionOf(P.Addr);
    unsigned Wait =
        Fetch == MemKind::Flash ? T.FlashWaitStates : 0;
    SawRamFetch |= Fetch == MemKind::Ram;
    EXPECT_EQ(D.Fetch, static_cast<uint8_t>(Fetch));
    EXPECT_EQ(D.Class, static_cast<uint8_t>(opClass(P.I.Kind)));
    EXPECT_EQ(D.Kind, P.I.Kind);
    EXPECT_EQ(D.CondCode, P.I.CondCode);
    EXPECT_EQ(D.NextAddr, P.Addr + P.Size);
    EXPECT_EQ(D.TargetAddr, P.TargetAddr);
    EXPECT_EQ(D.FuncIdx, P.FuncIdx);
    EXPECT_EQ(D.BlockIdx, P.BlockIdx);
    EXPECT_EQ(D.IsBlockHead, P.IsBlockHead);
    EXPECT_EQ(D.CheckCond, P.I.CondCode != Cond::AL &&
                               P.I.Kind != OpKind::BCond);
    EXPECT_EQ(D.CyclesNotTaken, T.cycles(P.I, false) + Wait);
    EXPECT_EQ(D.CyclesTaken, T.cycles(P.I, true) + Wait);
    EXPECT_EQ(D.CyclesSkipped, T.SkippedCycles + Wait);
    EXPECT_EQ(D.FlashWait, Wait);
    EXPECT_EQ(D.ContentionStall,
              Fetch == MemKind::Ram ? T.RamContentionStall : 0u);
  }
  EXPECT_TRUE(SawRamFetch); // the image really exercised both regions
}

TEST(ProfileCache, ComputeOnceUnderConcurrency) {
  ProfileCache Cache;
  std::atomic<unsigned> Owners{0};
  std::atomic<unsigned> Recipients{0};
  auto Payload = std::make_shared<ExecutionProfile>();
  Payload->Valid = true;

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != 8; ++I)
    Threads.emplace_back([&] {
      bool Owner = false;
      std::shared_ptr<const ExecutionProfile> P =
          Cache.acquire("key", Owner);
      if (Owner) {
        ++Owners;
        Cache.publish("key", Payload);
      } else {
        EXPECT_EQ(P, Payload);
        ++Recipients;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Owners.load(), 1u);
  EXPECT_EQ(Recipients.load(), 7u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(ProfileCache, MeasureModuleSharesOneSimulationAcrossDevices) {
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  ProfileCache Profiles;
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions Sim;
    Sim.Timing = D.Timing;
    Measurement Got = measureModule(M, D.Model, {}, Sim, &Profiles);
    ASSERT_TRUE(Got.ok()) << D.Name;
    Measurement Direct = measureModule(M, D.Model, {}, Sim);
    expectStatsEqual(Direct.Stats, Got.Stats, D.Name);
    // Energy integration over identical integers is bit-identical.
    EXPECT_EQ(Direct.Energy.MilliJoules, Got.Energy.MilliJoules)
        << D.Name;
    EXPECT_EQ(Direct.Energy.Seconds, Got.Energy.Seconds) << D.Name;
    EXPECT_EQ(Direct.Energy.AvgMilliWatts, Got.Energy.AvgMilliWatts)
        << D.Name;
  }
  ProfileCache::Counters C = Profiles.counters();
  EXPECT_EQ(C.FullSims, 1u);
  EXPECT_EQ(C.Recosts, deviceRegistry().size() - 1);
}

TEST(ProfileCache, SamplingRunsBypassTheCache) {
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  ProfileCache Profiles;
  SimOptions Sim;
  Sim.SampleIntervalCycles = 500;
  Measurement Got = measureModule(M, PowerModel::stm32f100(), {}, Sim,
                                  &Profiles);
  ASSERT_TRUE(Got.ok());
  EXPECT_FALSE(Got.Stats.Samples.empty());
  ProfileCache::Counters C = Profiles.counters();
  EXPECT_EQ(C.FullSims, 0u);
  EXPECT_EQ(C.Recosts, 0u);
  EXPECT_EQ(Profiles.size(), 0u);
}

namespace {

std::shared_ptr<const ExecutionProfile> validProfile() {
  auto P = std::make_shared<ExecutionProfile>();
  P->Valid = true;
  return P;
}

uint64_t profileWaits() {
  return globalMetrics().counterValue("sim.profile.waits");
}

} // namespace

TEST(ProfileCache, WaiterHelpsWhileKeyIsInFlight) {
  ProfileCache Cache;
  bool Owner = false;
  ASSERT_EQ(Cache.acquire("key", Owner), nullptr);
  ASSERT_TRUE(Owner);

  auto Payload = validProfile();
  std::atomic<unsigned> Calls{0};
  const ProfileCache::Helper Help = [&Calls] {
    ++Calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return true; // there is always more work: the waiter never blocks
  };
  uint64_t WaitsBefore = profileWaits();
  std::shared_ptr<const ExecutionProfile> Got;
  bool WaiterOwner = true;
  std::thread Waiter([&] {
    ProfileCache::HelpScope Scope(Help);
    Got = Cache.acquire("key", WaiterOwner);
  });
  while (Calls.load() < 2)
    std::this_thread::yield();
  Cache.publish("key", Payload);
  Waiter.join();
  EXPECT_FALSE(WaiterOwner);
  EXPECT_EQ(Got, Payload);
  EXPECT_GE(Calls.load(), 2u);
  EXPECT_EQ(profileWaits(), WaitsBefore); // it helped, it never blocked
}

TEST(ProfileCache, NestedWaiterBlocksInsteadOfHelping) {
  ProfileCache Cache;
  bool Owner = false;
  Cache.acquire("outer", Owner);
  ASSERT_TRUE(Owner);
  Cache.acquire("inner", Owner);
  ASSERT_TRUE(Owner);

  auto Outer = validProfile(), Inner = validProfile();
  std::atomic<unsigned> Calls{0};
  std::atomic<bool> InnerStarted{false};
  std::shared_ptr<const ExecutionProfile> GotInner;
  // The first call runs "other work" that itself waits on an in-flight
  // key; that nested acquire must block rather than re-enter the helper.
  const ProfileCache::Helper Help = [&] {
    if (++Calls != 1)
      return false;
    InnerStarted = true;
    bool InnerOwner = true;
    GotInner = Cache.acquire("inner", InnerOwner);
    EXPECT_FALSE(InnerOwner);
    return true;
  };
  uint64_t WaitsBefore = profileWaits();
  std::shared_ptr<const ExecutionProfile> GotOuter;
  std::thread Waiter([&] {
    ProfileCache::HelpScope Scope(Help);
    bool OuterOwner = true;
    GotOuter = Cache.acquire("outer", OuterOwner);
    EXPECT_FALSE(OuterOwner);
  });
  while (!InnerStarted.load())
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(Calls.load(), 1u); // blocked at depth 1, not helping again
  Cache.publish("inner", Inner);
  // Back at depth 0 the waiter asks for more work, gets none, and blocks.
  while (Calls.load() < 2)
    std::this_thread::yield();
  Cache.publish("outer", Outer);
  Waiter.join();
  EXPECT_EQ(Calls.load(), 2u);
  EXPECT_EQ(GotInner, Inner);
  EXPECT_EQ(GotOuter, Outer);
  // Both blocks are counted unless a publish raced ahead of them.
  EXPECT_GE(profileWaits(), WaitsBefore + 1);
  EXPECT_LE(profileWaits(), WaitsBefore + 2);
}

TEST(ProfileCache, OwnerPathNeverCallsTheHelper) {
  ProfileCache Cache;
  unsigned Calls = 0;
  const ProfileCache::Helper Help = [&Calls] {
    ++Calls;
    return true;
  };
  ProfileCache::HelpScope Scope(Help);
  bool Owner = false;
  EXPECT_EQ(Cache.acquire("fresh", Owner), nullptr);
  EXPECT_TRUE(Owner);
  auto Payload = validProfile();
  Cache.publish("fresh", Payload);
  // Published and preloaded keys are ready: no wait, so no help either.
  EXPECT_EQ(Cache.acquire("fresh", Owner), Payload);
  EXPECT_FALSE(Owner);
  Cache.preload("stored", Payload);
  EXPECT_EQ(Cache.acquire("stored", Owner), Payload);
  EXPECT_FALSE(Owner);
  EXPECT_EQ(Calls, 0u);
}

TEST(ProfileCache, FaultedPublishWakesAHelper) {
  ProfileCache Cache;
  bool Owner = false;
  Cache.acquire("key", Owner);
  ASSERT_TRUE(Owner);

  std::atomic<unsigned> Calls{0};
  // One unit of other work, then the queue is empty and the waiter
  // blocks: the owner's null publish must still wake it.
  const ProfileCache::Helper Help = [&Calls] { return ++Calls == 1; };
  std::shared_ptr<const ExecutionProfile> Got = validProfile();
  bool WaiterOwner = true;
  std::thread Waiter([&] {
    ProfileCache::HelpScope Scope(Help);
    Got = Cache.acquire("key", WaiterOwner);
  });
  while (Calls.load() < 2)
    std::this_thread::yield();
  Cache.publish("key", nullptr); // the owning run faulted
  Waiter.join();
  EXPECT_FALSE(WaiterOwner);
  EXPECT_EQ(Got, nullptr);
  EXPECT_EQ(Calls.load(), 2u);
  EXPECT_EQ(Cache.size(), 0u);
}
