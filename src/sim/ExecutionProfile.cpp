//===- sim/ExecutionProfile.cpp - device-independent run profile ---------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/ExecutionProfile.h"

#include "support/Format.h"
#include "support/Json.h"

using namespace ramloc;

std::string ramloc::executionKey(const Image &Img, uint32_t Arg0,
                                 uint32_t Arg1, uint32_t Arg2) {
  return formatString(
      "%016llx:%08x:%08x:%08x",
      static_cast<unsigned long long>(Img.fingerprint()), Arg0, Arg1,
      Arg2);
}

RunStats ramloc::runImageProfiled(const Image &Img, const SimOptions &Opts,
                                  ExecutionProfile &Profile, uint32_t Arg0,
                                  uint32_t Arg1, uint32_t Arg2) {
  Simulator Sim(Img, Opts);
  Sim.collectProfile(Profile);
  Sim.state().R[R0] = Arg0;
  Sim.state().R[R1] = Arg1;
  Sim.state().R[R2] = Arg2;
  Sim.run();
  RunStats Stats = Sim.takeStats();
  Profile.BlockCounts = Stats.BlockCounts;
  Profile.Instructions = Stats.Instructions;
  Profile.SleepEvents = Stats.SleepEvents;
  Profile.ExitCode = Stats.ExitCode;
  Profile.Valid = Stats.ok() && !Stats.HitCycleLimit;
  return Stats;
}

bool ramloc::priceCounts(const Image &Img,
                         std::span<const InstrCounts> Counts,
                         const SimOptions &Opts, RunStats &Out) {
  const TimingModel &T = Opts.Timing;
  if (Opts.IncludeStartupCopy && Img.StartupCopyCycles > 0) {
    // The boot loop runs from flash, streaming words from flash to RAM.
    Out.Cycles += Img.StartupCopyCycles;
    Out.ClassCycles[0][static_cast<unsigned>(InstrClass::Load)] +=
        Img.StartupCopyCycles;
    Out.LoadCycles[0][0] += Img.StartupCopyCycles;
  }
  Out.Instructions = 0;
  Out.SleepEvents = 0;
  Out.BlockCounts.resize(Img.BlockAddr.size());
  for (unsigned F = 0, NF = Img.BlockAddr.size(); F != NF; ++F)
    Out.BlockCounts[F].assign(Img.BlockAddr[F].size(), 0);

  for (size_t I = 0, N = Img.Instrs.size(); I != N; ++I) {
    const InstrCounts &C = Counts[I];
    uint64_t Steps = C.Exec + C.Skipped;
    if (Steps == 0)
      continue;
    const PlacedInstr &P = Img.Instrs[I];
    Out.Instructions += Steps;
    if (P.IsBlockHead) {
      if (P.FuncIdx >= Out.BlockCounts.size() ||
          P.BlockIdx >= Out.BlockCounts[P.FuncIdx].size())
        return false;
      Out.BlockCounts[P.FuncIdx][P.BlockIdx] += Steps;
    }
    unsigned F = static_cast<unsigned>(Img.Map.regionOf(P.Addr));
    unsigned Cls = static_cast<unsigned>(opClass(P.I.Kind));
    uint64_t Wait =
        F == static_cast<unsigned>(MemKind::Flash) ? T.FlashWaitStates : 0;
    OpKind K = P.I.Kind;
    bool CondBranch =
        K == OpKind::BCond || K == OpKind::Cbz || K == OpKind::Cbnz;
    uint64_t Cyc = C.Skipped * (T.SkippedCycles + Wait);

    if (Cls == static_cast<unsigned>(InstrClass::Load)) {
      // Each load execution is split by its data memory, with the
      // RAM-port contention stall when a RAM fetch loads RAM.
      if (C.LoadData[0] + C.LoadData[1] != C.Exec)
        return false;
      for (unsigned D = 0; D != 2; ++D) {
        uint64_t Per = T.cycles(P.I, /*Taken=*/false) + Wait;
        if (F == static_cast<unsigned>(MemKind::Ram) &&
            D == static_cast<unsigned>(MemKind::Ram)) {
          Per += T.RamContentionStall;
          Out.ContentionStalls += C.LoadData[D] * T.RamContentionStall;
        }
        Out.LoadCycles[F][D] += C.LoadData[D] * Per;
        Cyc += C.LoadData[D] * Per;
      }
    } else if (CondBranch) {
      if (C.Taken > C.Exec)
        return false;
      Cyc += (C.Exec - C.Taken) * (T.cycles(P.I, /*Taken=*/false) + Wait) +
             C.Taken * (T.cycles(P.I, /*Taken=*/true) + Wait);
    } else {
      // Unconditional control flow costs its taken figure; cycles()
      // ignores the flag for everything else.
      bool Taken = K == OpKind::B || K == OpKind::Bl ||
                   K == OpKind::Blx || K == OpKind::Bx;
      Cyc += C.Exec * (T.cycles(P.I, Taken) + Wait);
      if (K == OpKind::Wfi)
        Out.SleepEvents += C.Exec;
    }
    Out.Cycles += Cyc;
    Out.ClassCycles[F][Cls] += Cyc;
    Out.FlashWaitCycles += Steps * Wait;
  }
  return true;
}

bool ramloc::recostProfile(const Image &Img,
                           const ExecutionProfile &Profile,
                           const SimOptions &Opts, RunStats &Out) {
  // Sample boundaries depend on per-step cycle costs: timing-dependent
  // output that only a full simulation can produce.
  if (!Profile.Valid || Opts.SampleIntervalCycles != 0 ||
      Profile.Instrs.size() != Img.Instrs.size())
    return false;
  RunStats RS;
  if (!priceCounts(Img, Profile.Instrs, Opts, RS))
    return false;
  // The per-instruction counts determine the whole-run totals; a profile
  // whose stored totals disagree is malformed.
  if (RS.BlockCounts != Profile.BlockCounts ||
      RS.Instructions != Profile.Instructions ||
      RS.SleepEvents != Profile.SleepEvents)
    return false;
  RS.ExitCode = Profile.ExitCode;

  // A full simulation aborts when the running total reaches MaxCycles
  // before a step; totals at or under the budget can never have tripped
  // that check mid-run. Past it, abort timing is device-dependent — fall
  // back to full simulation rather than guess.
  if (RS.Cycles > Opts.MaxCycles)
    return false;

  Out = std::move(RS);
  return true;
}

namespace {

/// Strict non-negative integer extraction (doubles above 2^53 or with a
/// fractional part are corruption, not data).
bool asCount(const JsonValue &V, uint64_t &Out) {
  if (V.kind() != JsonValue::Kind::Number)
    return false;
  double D = V.number();
  if (D < 0 || D > 9007199254740992.0 ||
      D != static_cast<double>(static_cast<uint64_t>(D)))
    return false;
  Out = static_cast<uint64_t>(D);
  return true;
}

} // namespace

void ramloc::writeExecutionProfile(JsonWriter &W, const std::string &Key,
                                   const ExecutionProfile &Profile) {
  W.beginObject();
  W.field("key", Key);
  W.field("instructions", Profile.Instructions);
  W.field("sleep_events", Profile.SleepEvents);
  W.field("exit_code", static_cast<uint64_t>(Profile.ExitCode));
  W.key("blocks").beginArray();
  for (const std::vector<uint64_t> &F : Profile.BlockCounts) {
    W.beginArray();
    for (uint64_t B : F)
      W.value(B);
    W.endArray();
  }
  W.endArray();
  // One element per static instruction: a bare count when only Exec is
  // non-zero (the overwhelmingly common case), else the full 5-tuple
  // [exec, taken, skipped, load_flash, load_ram].
  W.key("instrs").beginArray();
  for (const InstrCounts &C : Profile.Instrs) {
    if (C.Taken == 0 && C.Skipped == 0 && C.LoadData[0] == 0 &&
        C.LoadData[1] == 0) {
      W.value(C.Exec);
      continue;
    }
    W.beginArray();
    W.value(C.Exec).value(C.Taken).value(C.Skipped);
    W.value(C.LoadData[0]).value(C.LoadData[1]);
    W.endArray();
  }
  W.endArray();
  W.endObject();
}

bool ramloc::parseExecutionProfile(const JsonValue &V, std::string &Key,
                                   ExecutionProfile &Out) {
  if (V.kind() != JsonValue::Kind::Object)
    return false;
  const JsonValue *K = V.find("key");
  const JsonValue *Instructions = V.find("instructions");
  const JsonValue *Sleep = V.find("sleep_events");
  const JsonValue *Exit = V.find("exit_code");
  const JsonValue *Blocks = V.find("blocks");
  const JsonValue *Instrs = V.find("instrs");
  if (!K || K->kind() != JsonValue::Kind::String || !Instructions ||
      !Sleep || !Exit || !Blocks ||
      Blocks->kind() != JsonValue::Kind::Array || !Instrs ||
      Instrs->kind() != JsonValue::Kind::Array)
    return false;

  ExecutionProfile P;
  uint64_t ExitCode = 0;
  if (!asCount(*Instructions, P.Instructions) ||
      !asCount(*Sleep, P.SleepEvents) || !asCount(*Exit, ExitCode) ||
      ExitCode > 0xFFFFFFFFull)
    return false;
  P.ExitCode = static_cast<uint32_t>(ExitCode);

  for (const JsonValue &F : Blocks->items()) {
    if (F.kind() != JsonValue::Kind::Array)
      return false;
    std::vector<uint64_t> Counts;
    Counts.reserve(F.items().size());
    for (const JsonValue &B : F.items()) {
      uint64_t C = 0;
      if (!asCount(B, C))
        return false;
      Counts.push_back(C);
    }
    P.BlockCounts.push_back(std::move(Counts));
  }

  P.Instrs.reserve(Instrs->items().size());
  for (const JsonValue &E : Instrs->items()) {
    InstrCounts C;
    if (E.kind() == JsonValue::Kind::Number) {
      if (!asCount(E, C.Exec))
        return false;
    } else if (E.kind() == JsonValue::Kind::Array &&
               E.items().size() == 5) {
      if (!asCount(E.items()[0], C.Exec) ||
          !asCount(E.items()[1], C.Taken) ||
          !asCount(E.items()[2], C.Skipped) ||
          !asCount(E.items()[3], C.LoadData[0]) ||
          !asCount(E.items()[4], C.LoadData[1]))
        return false;
    } else {
      return false;
    }
    P.Instrs.push_back(C);
  }

  P.Valid = true;
  Key = K->string();
  Out = std::move(P);
  return true;
}
