//===- tests/SimProfileTest.cpp - execute/recost equivalence -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The acceptance bar for the simulate-once/cost-many split: RunStats
// derived by recosting a shared ExecutionProfile must equal direct
// simulation on EVERY counter, for every registry device (wait-stated
// parts included), across the whole BEEBS suite — plus round-trip checks
// for the predecoded dispatch table and the profile serialization, and a
// golden oracle of recorded RunStats digests that both paths must
// reproduce.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "core/Instrumenter.h"
#include "core/Pipeline.h"
#include "power/DeviceRegistry.h"
#include "sim/ExecutionProfile.h"
#include "sim/Predecode.h"
#include "sim/ProfileCache.h"
#include "support/Format.h"
#include "support/Hash.h"
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

  const uint32_t N = static_cast<uint32_t>(Dec.size());
  auto indexAt = [&Img](uint32_t Addr) {
    int I = Img.instrIndexAt(Addr);
    return I < 0 ? Unresolved : static_cast<uint32_t>(I);
  };
  bool SawRamFetch = false;
  for (uint32_t I = 0; I != N; ++I) {
    const DecodedInstr &D = Dec[I];
    const PlacedInstr &P = Img.Instrs[I];
    MemKind Fetch = Img.Map.regionOf(P.Addr);
    unsigned Wait =
        Fetch == MemKind::Flash ? T.FlashWaitStates : 0;
    SawRamFetch |= Fetch == MemKind::Ram;
    EXPECT_EQ(D.Fetch, static_cast<uint8_t>(Fetch));
    EXPECT_EQ(D.Class, static_cast<uint8_t>(opClass(P.I.Kind)));
    EXPECT_EQ(D.Kind, P.I.Kind);
    EXPECT_EQ(D.Imm, P.I.Imm);
    for (unsigned R = 0; R != 4; ++R)
      EXPECT_EQ(D.Regs[R], P.I.Regs[R]);
    EXPECT_EQ(D.SetsFlags, P.I.SetsFlags);
    EXPECT_EQ(D.NextAddr, P.Addr + P.Size);
    EXPECT_EQ(D.TargetAddr, P.TargetAddr);
    // Successors are indices; an unresolvable fall-through names its own
    // instruction past the table.
    uint32_t Next = indexAt(P.Addr + P.Size);
    EXPECT_EQ(D.Next, Next == Unresolved ? N + I : Next);
    EXPECT_EQ(D.Target, indexAt(P.TargetAddr & ~1u));
    for (unsigned F = 0; F != 16; ++F) {
      Flags Fl{(F & 8) != 0, (F & 4) != 0, (F & 2) != 0, (F & 1) != 0};
      ASSERT_EQ(nzcvFlags(Fl), F);
      EXPECT_EQ(((D.CondMask >> F) & 1) != 0, condPasses(P.I.CondCode, Fl));
    }
    EXPECT_EQ(D.CheckCond, P.I.CondCode != Cond::AL &&
                               P.I.Kind != OpKind::BCond);
    EXPECT_EQ(D.CyclesNotTaken, T.cycles(P.I, false) + Wait);
    EXPECT_EQ(D.CyclesTaken, T.cycles(P.I, true) + Wait);
    EXPECT_EQ(D.CyclesSkipped, T.SkippedCycles + Wait);
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

//===----------------------------------------------------------------------===//
// Golden oracle: RunStats digests recorded from an interpreter that
// attributed cycles step by step, independently of recostProfile(). Full
// simulation and recost share one pricing path (priceCounts), so
// comparing them with each other cannot catch a pricing bug; these
// constants can. Change them only with a deliberate change of simulated
// behaviour.
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over fixed-width little-endian words, so field boundaries
/// cannot alias.
struct Digest {
  uint64_t H = Fnv1aOffset;
  void word(uint64_t V) {
    for (unsigned B = 0; B != 8; ++B) {
      H ^= static_cast<unsigned char>(V >> (B * 8));
      H *= Fnv1aPrime;
    }
  }
  void text(const std::string &S) {
    word(S.size());
    H = fnv1a64(H, S);
  }
  void counts(const std::vector<std::vector<uint64_t>> &BlockCounts) {
    word(BlockCounts.size());
    for (const std::vector<uint64_t> &F : BlockCounts) {
      word(F.size());
      for (uint64_t C : F)
        word(C);
    }
  }
};

/// Every RunStats field, Error and ExitCode included.
uint64_t digestOf(const RunStats &S) {
  Digest D;
  D.word(S.Cycles);
  D.word(S.Instructions);
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned C = 0; C != 7; ++C)
      D.word(S.ClassCycles[F][C]);
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned M = 0; M != 2; ++M)
      D.word(S.LoadCycles[F][M]);
  D.word(S.ContentionStalls);
  D.word(S.FlashWaitCycles);
  D.word(S.SleepEvents);
  D.counts(S.BlockCounts);
  D.word(S.Samples.size());
  for (const PowerSample &P : S.Samples) {
    D.word(P.Cycles);
    for (unsigned F = 0; F != 2; ++F)
      for (unsigned C = 0; C != 7; ++C)
        D.word(P.ClassCycles[F][C]);
    for (unsigned F = 0; F != 2; ++F)
      for (unsigned M = 0; M != 2; ++M)
        D.word(P.LoadCycles[F][M]);
  }
  D.word(S.ExitCode);
  D.text(S.Error);
  D.word(S.HitCycleLimit);
  return D.H;
}

/// Every ExecutionProfile field: what the profile store persists.
uint64_t digestOf(const ExecutionProfile &P) {
  Digest D;
  D.word(P.Instrs.size());
  for (const InstrCounts &C : P.Instrs) {
    D.word(C.Exec);
    D.word(C.Taken);
    D.word(C.Skipped);
    D.word(C.LoadData[0]);
    D.word(C.LoadData[1]);
  }
  D.counts(P.BlockCounts);
  D.word(P.Instructions);
  D.word(P.SleepEvents);
  D.word(P.ExitCode);
  D.word(P.Valid);
  return D.H;
}

/// \p M with every other movable block (by global index) moved to RAM, up
/// to 1 KB: code in both memories, chosen without the solver so the
/// oracle does not move when placement decisions do.
Image linkRamPlaced(const Module &M) {
  ExtractedModule EM = extractModule(M, PipelineOptions{},
                                     /*NeedBaseline=*/false);
  EXPECT_TRUE(EM.ok()) << EM.Error;
  Assignment InRam(EM.MP.numBlocks(), false);
  unsigned Bytes = 0;
  for (unsigned B = 1; B < InRam.size(); B += 2) {
    const BlockParams &BP = EM.MP.Blocks[B];
    if (BP.Movable && Bytes + BP.Sb <= 1024) {
      InRam[B] = true;
      Bytes += BP.Sb;
    }
  }
  LinkResult LR = linkModule(applyPlacement(M, EM.MP, InRam), {});
  EXPECT_TRUE(LR.ok());
  return LR.Img;
}

/// Runs \p Img under \p Opts both plain and profiled; the two must agree
/// (they share one interpreter) and the digest is returned.
uint64_t runDigest(const Image &Img, const SimOptions &Opts,
                   ExecutionProfile *Profile = nullptr,
                   uint32_t Arg0 = 0) {
  RunStats Plain = runImage(Img, Opts, Arg0);
  ExecutionProfile Local;
  RunStats Profiled =
      runImageProfiled(Img, Opts, Profile ? *Profile : Local, Arg0);
  EXPECT_EQ(digestOf(Plain), digestOf(Profiled));
  return digestOf(Plain);
}

constexpr unsigned NumGoldenDevices = 9;

struct GoldenBench {
  const char *Name;
  /// Per registry device, in registry order.
  uint64_t Base[NumGoldenDevices];
  uint64_t RamPlaced[NumGoldenDevices];
  /// Reference-device profiles of the two images.
  uint64_t BaseProfile;
  uint64_t RamProfile;
  /// Fig. 7 power-profile runs (1000-cycle windows) of the base image on
  /// the reference device and on stm32f103-72mhz (2 wait states).
  uint64_t Sampled[2];
};

// clang-format off
const GoldenBench GoldenSuite[] = {
    {"2dfir",
     {0x10b38fe7939bc472ULL, 0x10b38fe7939bc472ULL, 0x10b38fe7939bc472ULL,
      0x10b38fe7939bc472ULL, 0x10b38fe7939bc472ULL, 0x12b174099141ab2fULL,
      0x12b174099141ab2fULL, 0x10b38fe7939bc472ULL, 0xc04be6dcba54191cULL},
     {0xf32c2b8fe5b21b80ULL, 0xf32c2b8fe5b21b80ULL, 0xf32c2b8fe5b21b80ULL,
      0xf32c2b8fe5b21b80ULL, 0xf32c2b8fe5b21b80ULL, 0x517df6fafd4ebf29ULL,
      0x517df6fafd4ebf29ULL, 0xf32c2b8fe5b21b80ULL, 0xebfa68331476e891ULL},
     0xcca0bca7112d94ceULL,
     0xfc47685dd597a593ULL,
     {0x1c2689de1806ce08ULL, 0x0c7da2f41b0469cfULL}},
    {"blowfish",
     {0x4e99535ddb368539ULL, 0x4e99535ddb368539ULL, 0x4e99535ddb368539ULL,
      0x4e99535ddb368539ULL, 0x4e99535ddb368539ULL, 0x4872666312045c16ULL,
      0x4872666312045c16ULL, 0x4e99535ddb368539ULL, 0x8b4d51f51c540b14ULL},
     {0x0b1cc7ef089e906dULL, 0x0b1cc7ef089e906dULL, 0x0b1cc7ef089e906dULL,
      0x0b1cc7ef089e906dULL, 0x0b1cc7ef089e906dULL, 0xaa4c14bb1d57c479ULL,
      0xaa4c14bb1d57c479ULL, 0x0b1cc7ef089e906dULL, 0x94fb2fcbea1425a3ULL},
     0x2bf2403636f22146ULL,
     0x7771ceda665d49aaULL,
     {0xef02ebd38924264dULL, 0x0125ab2dbaaf9cc8ULL}},
    {"crc32",
     {0x8d41fe8b2b1d54aeULL, 0x8d41fe8b2b1d54aeULL, 0x8d41fe8b2b1d54aeULL,
      0x8d41fe8b2b1d54aeULL, 0x8d41fe8b2b1d54aeULL, 0x51dc7994a1c12b18ULL,
      0x51dc7994a1c12b18ULL, 0x8d41fe8b2b1d54aeULL, 0x0e15ae72146fef9bULL},
     {0x71411cf609998d8aULL, 0x71411cf609998d8aULL, 0x71411cf609998d8aULL,
      0x71411cf609998d8aULL, 0x71411cf609998d8aULL, 0x2ef94982c62e27adULL,
      0x2ef94982c62e27adULL, 0x71411cf609998d8aULL, 0x8115828d40267f24ULL},
     0x0309f2d76c95e6d2ULL,
     0xb0399a8f5278ca07ULL,
     {0x2608dc82fe042d55ULL, 0x6393acfd787da205ULL}},
    {"cubic",
     {0x024b2d3860339b8bULL, 0x024b2d3860339b8bULL, 0x024b2d3860339b8bULL,
      0x024b2d3860339b8bULL, 0x024b2d3860339b8bULL, 0x869629de34086437ULL,
      0x869629de34086437ULL, 0x024b2d3860339b8bULL, 0x945e5925085b58eaULL},
     {0x953a57e46ed519d7ULL, 0x953a57e46ed519d7ULL, 0x953a57e46ed519d7ULL,
      0x953a57e46ed519d7ULL, 0x953a57e46ed519d7ULL, 0xfe377c31bc965f21ULL,
      0xfe377c31bc965f21ULL, 0x953a57e46ed519d7ULL, 0x49eb16a6dc060798ULL},
     0x353522d3023ce8a0ULL,
     0x0b17091ecefa6d4bULL,
     {0x74f96bcc2af92e10ULL, 0xa7dcef746612e899ULL}},
    {"dijkstra",
     {0xa61543eb9c1b7b92ULL, 0xa61543eb9c1b7b92ULL, 0xa61543eb9c1b7b92ULL,
      0xa61543eb9c1b7b92ULL, 0xa61543eb9c1b7b92ULL, 0x57ee345ff34cb2b2ULL,
      0x57ee345ff34cb2b2ULL, 0xa61543eb9c1b7b92ULL, 0xd4a199b1027711f7ULL},
     {0x8fc31dcb5050afafULL, 0x8fc31dcb5050afafULL, 0x8fc31dcb5050afafULL,
      0x8fc31dcb5050afafULL, 0x8fc31dcb5050afafULL, 0xbdff5d7c7842c103ULL,
      0xbdff5d7c7842c103ULL, 0x8fc31dcb5050afafULL, 0xb61493eb6523c93fULL},
     0x909686a605b8cc25ULL,
     0x288a48692017a16bULL,
     {0x96f6e5e5b386c99bULL, 0x6f63858c380a8d10ULL}},
    {"fdct",
     {0x5690da997a231017ULL, 0x5690da997a231017ULL, 0x5690da997a231017ULL,
      0x5690da997a231017ULL, 0x5690da997a231017ULL, 0xb0dbc82851eece5aULL,
      0xb0dbc82851eece5aULL, 0x5690da997a231017ULL, 0xd9fbae06522ecb16ULL},
     {0x7302873fcdec89ebULL, 0x7302873fcdec89ebULL, 0x7302873fcdec89ebULL,
      0x7302873fcdec89ebULL, 0x7302873fcdec89ebULL, 0xa3009975b22ce7d4ULL,
      0xa3009975b22ce7d4ULL, 0x7302873fcdec89ebULL, 0x705999bf84093031ULL},
     0x91349e5639376e2aULL,
     0x7e6f3529845885ffULL,
     {0x4aa276c0c858f42dULL, 0x7e602768b5165da5ULL}},
    {"float_matmult",
     {0x2c7d6c87365cde47ULL, 0x2c7d6c87365cde47ULL, 0x2c7d6c87365cde47ULL,
      0x2c7d6c87365cde47ULL, 0x2c7d6c87365cde47ULL, 0x7235a57123ad2c38ULL,
      0x7235a57123ad2c38ULL, 0x2c7d6c87365cde47ULL, 0x5520b65c94dcee9eULL},
     {0xe1510f37d96f57b8ULL, 0xe1510f37d96f57b8ULL, 0xe1510f37d96f57b8ULL,
      0xe1510f37d96f57b8ULL, 0xe1510f37d96f57b8ULL, 0x64499de2b400be14ULL,
      0x64499de2b400be14ULL, 0xe1510f37d96f57b8ULL, 0x0ddb641899d1d274ULL},
     0xf4da72d121edbc18ULL,
     0xd89b25f380519a68ULL,
     {0xc11a047cf3292d42ULL, 0x1efd814cd9822fa0ULL}},
    {"int_matmult",
     {0xf843920a3ee38bc0ULL, 0xf843920a3ee38bc0ULL, 0xf843920a3ee38bc0ULL,
      0xf843920a3ee38bc0ULL, 0xf843920a3ee38bc0ULL, 0x7c89c31574c5efa1ULL,
      0x7c89c31574c5efa1ULL, 0xf843920a3ee38bc0ULL, 0x65dc9482832c2a38ULL},
     {0x43a8bd05b450bc16ULL, 0x43a8bd05b450bc16ULL, 0x43a8bd05b450bc16ULL,
      0x43a8bd05b450bc16ULL, 0x43a8bd05b450bc16ULL, 0x3544c8faf5fbad2bULL,
      0x3544c8faf5fbad2bULL, 0x43a8bd05b450bc16ULL, 0x571cdc802419fe6fULL},
     0xee4391285ac115c0ULL,
     0x6b2c130aececb641ULL,
     {0x302c9651a772416fULL, 0xdb863eb34caf92deULL}},
    {"rijndael",
     {0x9c24f43178261069ULL, 0x9c24f43178261069ULL, 0x9c24f43178261069ULL,
      0x9c24f43178261069ULL, 0x9c24f43178261069ULL, 0xf82f659838080acfULL,
      0xf82f659838080acfULL, 0x9c24f43178261069ULL, 0xa42e1465a898045fULL},
     {0xdd9ffd1aa30944beULL, 0xdd9ffd1aa30944beULL, 0xdd9ffd1aa30944beULL,
      0xdd9ffd1aa30944beULL, 0xdd9ffd1aa30944beULL, 0x137669dfc991576dULL,
      0x137669dfc991576dULL, 0xdd9ffd1aa30944beULL, 0x89b48a3644fea306ULL},
     0xd2d6a1468f1c6a1eULL,
     0x32e59af791f57df3ULL,
     {0xdd618c1236494846ULL, 0x64c339a3f68080adULL}},
    {"sha",
     {0xc6804b497978b76dULL, 0xc6804b497978b76dULL, 0xc6804b497978b76dULL,
      0xc6804b497978b76dULL, 0xc6804b497978b76dULL, 0x97eb5c418bb30fd5ULL,
      0x97eb5c418bb30fd5ULL, 0xc6804b497978b76dULL, 0xd619e4e380822552ULL},
     {0xc66c4851b13dce25ULL, 0xc66c4851b13dce25ULL, 0xc66c4851b13dce25ULL,
      0xc66c4851b13dce25ULL, 0xc66c4851b13dce25ULL, 0x798e3484e24d734bULL,
      0x798e3484e24d734bULL, 0xc66c4851b13dce25ULL, 0x94cd87a3a28dbfebULL},
     0xc54ddcdd8282ca38ULL,
     0xa4763d00d8a11f87ULL,
     {0x85199de93cee6f5fULL, 0x84c74618b325d8c3ULL}},
};
// clang-format on

std::string hex(uint64_t V) {
  return formatString("0x%016llx", static_cast<unsigned long long>(V));
}

} // namespace

TEST(GoldenOracle, BeebsO2ReproducesRecordedStatsOnEveryDevice) {
  const std::vector<DeviceInfo> &Devices = deviceRegistry();
  ASSERT_EQ(Devices.size(), NumGoldenDevices);
  ASSERT_EQ(std::size(GoldenSuite), beebsSuite().size());
  const TimingModel Waited = findDevice("stm32f103-72mhz")->Timing;
  for (const GoldenBench &G : GoldenSuite) {
    Module M = buildBeebs(G.Name, OptLevel::O2, 2);
    LinkResult LR = linkModule(M, {});
    ASSERT_TRUE(LR.ok()) << G.Name;
    Image Ram = linkRamPlaced(M);
    for (size_t D = 0; D != Devices.size(); ++D) {
      SimOptions Sim;
      Sim.Timing = Devices[D].Timing;
      std::string Ctx = std::string(G.Name) + " on " + Devices[D].Name;
      ExecutionProfile BaseProf, RamProf;
      EXPECT_EQ(hex(runDigest(LR.Img, Sim, &BaseProf)), hex(G.Base[D]))
          << Ctx;
      EXPECT_EQ(hex(runDigest(Ram, Sim, &RamProf)), hex(G.RamPlaced[D]))
          << Ctx << " (RAM-placed)";
      EXPECT_EQ(hex(digestOf(BaseProf)), hex(G.BaseProfile)) << Ctx;
      EXPECT_EQ(hex(digestOf(RamProf)), hex(G.RamProfile)) << Ctx;
    }
    SimOptions Sampled;
    Sampled.SampleIntervalCycles = 1000;
    EXPECT_EQ(hex(digestOf(runImage(LR.Img, Sampled))), hex(G.Sampled[0]))
        << G.Name << " sampled";
    Sampled.Timing = Waited;
    EXPECT_EQ(hex(digestOf(runImage(LR.Img, Sampled))), hex(G.Sampled[1]))
        << G.Name << " sampled, 2 wait states";
  }
}

namespace {

/// One faulting or aborted run, digested across every registry device
/// (the partial statistics carry each device's attribution).
uint64_t faultDigest(const Image &Img,
                     uint64_t MaxCycles = 4'000'000'000ULL) {
  Digest D;
  for (const DeviceInfo &Dev : deviceRegistry()) {
    SimOptions Sim;
    Sim.Timing = Dev.Timing;
    Sim.MaxCycles = MaxCycles;
    RunStats S = runImage(Img, Sim);
    EXPECT_FALSE(S.ok()) << Dev.Name;
    D.word(runDigest(Img, Sim));
  }
  return D.H;
}

Image linkFaultSnippet(std::vector<Instr> Body, Module Extra = {}) {
  Module M = std::move(Extra);
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock BB("entry");
  BB.Instrs = std::move(Body);
  BB.Instrs.push_back(build::bkpt());
  F.Blocks.push_back(BB);
  M.Functions.insert(M.Functions.begin(), F);
  LinkResult LR = linkModule(M);
  EXPECT_TRUE(LR.ok()) << (LR.Errors.empty() ? "" : LR.Errors.front());
  return LR.Img;
}

} // namespace

TEST(GoldenOracle, FaultPathsReproduceRecordedStats) {
  using namespace build;
  const uint32_t RamEnd = MemoryMap{}.stackTop();
  Module Rodata;
  Rodata.addRodataWords("tab", {7});
  struct Case {
    const char *Name;
    Image Img;
    uint64_t MaxCycles;
    uint64_t Expected;
  } Cases[] = {
      {"read fault (unmapped)",
       linkFaultSnippet({movImm(R0, 3), push(1u << R0), addImm(R0, R0, 1),
                         ldrLitConst(R1, 0x40000000), ldrImm(R0, R1, 0)}),
       4'000'000'000ULL, 0x40d53a0796700723ULL},
      {"read fault (straddles the end of RAM)",
       linkFaultSnippet({ldrLitConst(R1, static_cast<int32_t>(RamEnd - 2)),
                         ldrhImm(R2, R1, 0), ldrImm(R0, R1, 0)}),
       4'000'000'000ULL, 0xfaf06f9f08173d6cULL},
      {"read fault (pop past the stack top)",
       linkFaultSnippet({pop((1u << R0) | (1u << PC))}),
       4'000'000'000ULL, 0xb79a4ef368eaf970ULL},
      {"write fault (flash)",
       linkFaultSnippet({ldrLitSym(R1, "tab"), ldrImm(R2, R1, 0),
                         strImm(R2, R1, 0)},
                        Rodata),
       4'000'000'000ULL, 0x38eb035070938784ULL},
      {"write fault (straddles the end of RAM)",
       linkFaultSnippet({ldrLitConst(R1, static_cast<int32_t>(RamEnd - 1)),
                         strbImm(R0, R1, 0), strhImm(R0, R1, 0)}),
       4'000'000'000ULL, 0xfc206a13a840f7daULL},
      {"fetch fault (bx into data)",
       linkFaultSnippet({ldrLitConst(R1, 0x20000101), bx(R1)}),
       4'000'000'000ULL, 0xf7b9208508be083bULL},
      {"fetch fault (ldr pc to unmapped)",
       linkFaultSnippet({ldrLitConst(PC, 0x40000001)}),
       4'000'000'000ULL, 0xa5320abeaf865fd6ULL},
  };
  for (const Case &C : Cases)
    EXPECT_EQ(hex(faultDigest(C.Img, C.MaxCycles)), hex(C.Expected))
        << C.Name;

  // The cycle budget tripping mid-run, in flash-only and RAM-placed code.
  Module M = buildBeebs("crc32", OptLevel::O2, 2);
  LinkResult LR = linkModule(M, {});
  ASSERT_TRUE(LR.ok());
  EXPECT_EQ(hex(faultDigest(LR.Img, 5003)), hex(0x88bdd383f6c5cf8fULL))
      << "cycle limit";
  EXPECT_EQ(hex(faultDigest(linkRamPlaced(M), 5003)),
            hex(0x3b99301f08af9149ULL))
      << "cycle limit (RAM-placed)";
}
