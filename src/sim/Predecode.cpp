//===- sim/Predecode.cpp - pre-resolved interpreter dispatch -------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Predecode.h"

#include "support/Trace.h"

using namespace ramloc;

DecodedImage ramloc::predecodeImage(const Image &Img,
                                    const TimingModel &Timing) {
  TraceSpan Span("predecode", "sim");
  // The 15x16 condition table, one row per condition code.
  uint16_t CondMasks[static_cast<unsigned>(Cond::AL) + 1] = {};
  for (unsigned C = 0; C <= static_cast<unsigned>(Cond::AL); ++C)
    for (unsigned F = 0; F != 16; ++F)
      if (condPasses(static_cast<Cond>(C),
                     Flags{(F & 8) != 0, (F & 4) != 0, (F & 2) != 0,
                           (F & 1) != 0}))
        CondMasks[C] |= 1u << F;
  auto indexAt = [&Img](uint32_t Addr) {
    int I = Img.instrIndexAt(Addr);
    return I < 0 ? Unresolved : static_cast<uint32_t>(I);
  };

  const uint32_t N = static_cast<uint32_t>(Img.Instrs.size());
  DecodedImage Dec;
  Dec.reserve(N);
  for (const PlacedInstr &P : Img.Instrs) {
    DecodedInstr D;
    D.NextAddr = P.Addr + P.Size;
    D.TargetAddr = P.TargetAddr;
    D.Next = indexAt(D.NextAddr);
    if (D.Next == Unresolved)
      D.Next = N + static_cast<uint32_t>(Dec.size());
    // A taken direct branch ignores the Thumb bit; the exit address never
    // resolves, so reaching it goes through the run-time halt check.
    D.Target = indexAt(P.TargetAddr & ~1u);
    MemKind Fetch = Img.Map.regionOf(P.Addr);
    D.Fetch = static_cast<uint8_t>(Fetch);
    D.Class = static_cast<uint8_t>(opClass(P.I.Kind));
    D.Kind = P.I.Kind;
    D.Imm = P.I.Imm;
    for (unsigned R = 0; R != 4; ++R)
      D.Regs[R] = P.I.Regs[R];
    D.SetsFlags = P.I.SetsFlags;
    D.CondMask = CondMasks[static_cast<unsigned>(P.I.CondCode)];
    D.CheckCond = P.I.CondCode != Cond::AL && P.I.Kind != OpKind::BCond;
    uint32_t Wait = Fetch == MemKind::Flash ? Timing.FlashWaitStates : 0;
    D.ContentionStall =
        Fetch == MemKind::Ram ? Timing.RamContentionStall : 0;
    D.CyclesNotTaken = Timing.cycles(P.I, /*Taken=*/false) + Wait;
    D.CyclesTaken = Timing.cycles(P.I, /*Taken=*/true) + Wait;
    D.CyclesSkipped = Timing.SkippedCycles + Wait;
    Dec.push_back(D);
  }
  return Dec;
}
