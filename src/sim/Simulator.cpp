//===- sim/Simulator.cpp - Cortex-M3-like interpreter -------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/ExecutionProfile.h"
#include "support/Format.h"

#include <bit>
#include <cassert>
#include <cstring>

using namespace ramloc;

namespace {

/// ADD with carry-in, producing NZCV the ARM way.
struct AddResult {
  uint32_t Value;
  bool C;
  bool V;
};

AddResult addWithCarry(uint32_t A, uint32_t B, bool CarryIn) {
  uint64_t Unsigned =
      static_cast<uint64_t>(A) + B + (CarryIn ? 1 : 0);
  int64_t Signed = static_cast<int64_t>(static_cast<int32_t>(A)) +
                   static_cast<int32_t>(B) + (CarryIn ? 1 : 0);
  uint32_t Result = static_cast<uint32_t>(Unsigned);
  return {Result, Unsigned > 0xFFFFFFFFULL,
          Signed != static_cast<int32_t>(Result)};
}

/// Simulated memory is little-endian: on a little-endian host an access
/// is one memcpy.
template <typename T> T loadLE(const uint8_t *P) {
  T V = 0;
  if constexpr (std::endian::native == std::endian::little)
    std::memcpy(&V, P, sizeof(T));
  else
    for (unsigned B = 0; B != sizeof(T); ++B)
      V |= static_cast<T>(static_cast<T>(P[B]) << (8 * B));
  return V;
}

template <typename T> void storeLE(uint8_t *P, T V) {
  if constexpr (std::endian::native == std::endian::little)
    std::memcpy(P, &V, sizeof(T));
  else
    for (unsigned B = 0; B != sizeof(T); ++B)
      P[B] = static_cast<uint8_t>(V >> (8 * B));
}

} // namespace

std::map<std::string, uint64_t> RunStats::profileMap(const Module &M) const {
  std::map<std::string, uint64_t> Out;
  for (unsigned F = 0, NF = BlockCounts.size(); F != NF; ++F) {
    assert(F < M.Functions.size() && "stats do not match module");
    const Function &Fn = M.Functions[F];
    for (unsigned B = 0, NB = BlockCounts[F].size(); B != NB; ++B)
      Out[Fn.Name + ":" + Fn.Blocks[B].Label] = BlockCounts[F][B];
  }
  return Out;
}

Simulator::Simulator(const Image &Img, const SimOptions &Opts)
    : Img(Img), Opts(Opts), Dec(predecodeImage(Img, Opts.Timing)),
      Limit(Opts.MaxCycles), Ram(Img.RamBytes) {
  assert(Ram.size() == Img.Map.RamSize && "RAM image must fill RAM");
  State.R[SP] = Img.Map.stackTop();
  State.R[LR] = ExitAddress;
  PcAddr = Img.EntryAddr;
  int Entry = Img.instrIndexAt(Img.EntryAddr);
  Idx = Entry < 0 ? Unresolved : static_cast<uint32_t>(Entry);
  // The boot loop runs from flash, streaming words from flash to RAM;
  // pricing attributes it, the running total must include it.
  if (Opts.IncludeStartupCopy)
    Cycles = Img.StartupCopyCycles;
}

void Simulator::collectProfile(ExecutionProfile &P) {
  P = ExecutionProfile{};
  P.Instrs.assign(Img.Instrs.size(), InstrCounts{});
  Counts = P.Instrs.data();
}

void Simulator::fault(const std::string &Msg) {
  if (Stats.Error.empty())
    Stats.Error = Msg;
  Halted = true;
  Limit = 0;
}

void Simulator::halt() {
  Stats.ExitCode = State.R[R0];
  Halted = true;
  Limit = 0;
  if (Opts.SampleIntervalCycles != 0 && CurSample.Cycles > 0) {
    Stats.Samples.push_back(CurSample); // short tail interval
    CurSample = PowerSample{};
  }
}

void Simulator::accessFault(uint32_t Addr, bool Write) {
  fault(formatString("%s fault at 0x%08x (pc=0x%08x)",
                     Write ? "write" : "read", Addr, Img.Instrs[Idx].Addr));
}

template <typename T> uint32_t Simulator::read(uint32_t Addr) {
  if (const uint8_t *P = ramAt(Addr, sizeof(T)))
    return loadLE<T>(P);
  uint32_t Off = Addr - Img.Map.FlashBase;
  if (static_cast<uint64_t>(Off) + sizeof(T) <= Img.Map.FlashSize)
    return loadLE<T>(&Img.FlashBytes[Off]);
  accessFault(Addr, /*Write=*/false);
  return 0;
}

template <typename T> void Simulator::write(uint32_t Addr, uint32_t Value) {
  if (uint8_t *P = ramAt(Addr, sizeof(T)))
    storeLE<T>(P, static_cast<T>(Value));
  else
    accessFault(Addr, /*Write=*/true); // flash is read-only
}

void Simulator::jump(uint32_t Addr) {
  Addr &= ~1u; // ignore the Thumb bit
  if (Addr == ExitAddress) {
    halt();
    return;
  }
  int I = Img.instrIndexAt(Addr);
  Idx = I < 0 ? Unresolved : static_cast<uint32_t>(I);
  PcAddr = Addr;
}

void Simulator::stop() {
  if (Halted)
    return;
  if (Cycles >= Opts.MaxCycles) {
    Stats.HitCycleLimit = true;
    fault("cycle limit exceeded");
    return;
  }
  // A fall-through with no successor names its instruction past the
  // table; a run-time jump left its address in PcAddr.
  uint32_t Addr =
      Idx == Unresolved ? PcAddr : Dec[Idx - Dec.size()].NextAddr;
  fault(formatString("fetch fault at 0x%08x", Addr));
}

template <bool Sampled>
inline void Simulator::charge(const DecodedInstr &D, uint32_t Cyc,
                              bool IsLoad, unsigned DataMem) {
  Cycles += Cyc;
  if constexpr (Sampled) {
    CurSample.Cycles += Cyc;
    CurSample.ClassCycles[D.Fetch][D.Class] += Cyc;
    if (IsLoad)
      CurSample.LoadCycles[D.Fetch][DataMem] += Cyc;
    if (CurSample.Cycles >= Opts.SampleIntervalCycles) {
      Stats.Samples.push_back(CurSample);
      CurSample = PowerSample{};
    }
  }
}

template <bool Sampled>
inline void Simulator::chargeLoad(const DecodedInstr &D, InstrCounts &C,
                                  unsigned DataMem) {
  // Fetch and data contend for the single RAM port (the model's Lb).
  ++C.LoadData[DataMem];
  charge<Sampled>(D, D.CyclesNotTaken + (DataMem ? D.ContentionStall : 0),
                  /*IsLoad=*/true, DataMem);
}

template <bool Sampled, typename T>
inline void Simulator::load(const DecodedInstr &D, InstrCounts &C,
                            uint32_t Addr) {
  chargeLoad<Sampled>(D, C, Img.Map.inRam(Addr));
  reg(D.Regs[0]) = read<T>(Addr);
  Idx = D.Next;
}

template <bool Sampled, typename T>
inline void Simulator::store(const DecodedInstr &D, uint32_t Addr) {
  charge<Sampled>(D, D.CyclesNotTaken);
  write<T>(Addr, reg(D.Regs[0]));
  Idx = D.Next;
}

template <bool Sampled>
inline void Simulator::step(const DecodedInstr &D) {
  InstrCounts &C = Counts[Idx];
  // Predicated non-branch instruction whose condition fails: one skipped
  // cycle (plus the fetch's wait states), no architectural effect.
  if (D.CheckCond && !passes(D)) {
    ++C.Skipped;
    charge<Sampled>(D, D.CyclesSkipped);
    Idx = D.Next;
    return;
  }
  ++C.Exec;

  const uint32_t Rn = reg(D.Regs[1]);
  const uint32_t Rm = reg(D.Regs[2]);
  const uint32_t Imm = static_cast<uint32_t>(D.Imm);
  uint32_t Result = 0;
  bool WroteResult = true;
  // C and V stay as they are unless an add/subtract produces new ones.
  AddResult Arith = {0, State.F.C, State.F.V};
  auto arith = [&](uint32_t A, uint32_t B, bool CarryIn) {
    Arith = addWithCarry(A, B, CarryIn);
    return Arith.Value;
  };

  switch (D.Kind) {
  // --- control flow -------------------------------------------------------
  case OpKind::B:
    charge<Sampled>(D, D.CyclesTaken);
    takeBranch(D);
    return;
  case OpKind::BCond:
  case OpKind::Cbz:
  case OpKind::Cbnz: {
    bool Taken = D.Kind == OpKind::BCond
                     ? passes(D)
                     : (reg(D.Regs[0]) == 0) == (D.Kind == OpKind::Cbz);
    if (Taken) {
      ++C.Taken;
      charge<Sampled>(D, D.CyclesTaken);
      takeBranch(D);
    } else {
      charge<Sampled>(D, D.CyclesNotTaken);
      Idx = D.Next;
    }
    return;
  }
  case OpKind::Bl:
    charge<Sampled>(D, D.CyclesTaken);
    reg(LR) = D.NextAddr;
    takeBranch(D);
    return;
  case OpKind::Blx: {
    charge<Sampled>(D, D.CyclesTaken);
    uint32_t Target = reg(D.Regs[0]);
    reg(LR) = D.NextAddr;
    jump(Target);
    return;
  }
  case OpKind::Bx:
    charge<Sampled>(D, D.CyclesTaken);
    jump(reg(D.Regs[0]));
    return;
  case OpKind::It:
  case OpKind::Nop:
  case OpKind::Wfi:
    charge<Sampled>(D, D.CyclesNotTaken);
    Idx = D.Next;
    return;
  case OpKind::Bkpt:
    charge<Sampled>(D, D.CyclesNotTaken);
    halt();
    return;

  // --- memory -------------------------------------------------------------
  case OpKind::LdrImm:
    return load<Sampled, uint32_t>(D, C, Rn + Imm);
  case OpKind::LdrReg:
    return load<Sampled, uint32_t>(D, C, Rn + Rm);
  case OpKind::LdrbImm:
    return load<Sampled, uint8_t>(D, C, Rn + Imm);
  case OpKind::LdrbReg:
    return load<Sampled, uint8_t>(D, C, Rn + Rm);
  case OpKind::LdrhImm:
    return load<Sampled, uint16_t>(D, C, Rn + Imm);
  case OpKind::StrImm:
    return store<Sampled, uint32_t>(D, Rn + Imm);
  case OpKind::StrReg:
    return store<Sampled, uint32_t>(D, Rn + Rm);
  case OpKind::StrbImm:
    return store<Sampled, uint8_t>(D, Rn + Imm);
  case OpKind::StrbReg:
    return store<Sampled, uint8_t>(D, Rn + Rm);
  case OpKind::StrhImm:
    return store<Sampled, uint16_t>(D, Rn + Imm);
  case OpKind::LdrLit: {
    // The pool slot was resolved by the linker; its memory determines the
    // data-side power (RAM code with flash pools is the expensive Figure 1
    // case; our pools co-locate with the code, so RAM code pools are RAM).
    if (D.Regs[0] != PC)
      return load<Sampled, uint32_t>(D, C, D.TargetAddr);
    chargeLoad<Sampled>(D, C, Img.Map.inRam(D.TargetAddr));
    jump(read<uint32_t>(D.TargetAddr));
    return;
  }
  case OpKind::Push: {
    uint32_t Mask = Imm;
    uint32_t Addr = reg(SP) - 4 * std::popcount(Mask);
    charge<Sampled>(D, D.CyclesNotTaken);
    reg(SP) = Addr;
    for (unsigned R = 0; R < 16; ++R) {
      if (!(Mask & (1u << R)))
        continue;
      write<uint32_t>(Addr, State.R[R]);
      Addr += 4;
    }
    Idx = D.Next;
    return;
  }
  case OpKind::Pop: {
    uint32_t Mask = Imm;
    chargeLoad<Sampled>(D, C, static_cast<unsigned>(MemKind::Ram));
    uint32_t Addr = reg(SP);
    uint32_t NewPC = 0;
    for (unsigned R = 0; R < 16; ++R) {
      if (!(Mask & (1u << R)))
        continue;
      uint32_t V = read<uint32_t>(Addr);
      Addr += 4;
      if (R == PC)
        NewPC = V;
      else
        State.R[R] = V;
    }
    reg(SP) = Addr;
    if (Mask & (1u << PC))
      jump(NewPC);
    else
      Idx = D.Next;
    return;
  }

  // --- data processing ----------------------------------------------------
  case OpKind::MovImm:
    Result = Imm;
    break;
  case OpKind::MovReg:
    Result = Rn; // Regs[1] = rm for mov
    break;
  case OpKind::Mvn:
    Result = ~Rn;
    break;
  case OpKind::AddImm:
    Result = arith(Rn, Imm, false);
    break;
  case OpKind::AddReg:
    Result = arith(Rn, Rm, false);
    break;
  case OpKind::SubImm:
    Result = arith(Rn, ~Imm, true);
    break;
  case OpKind::SubReg:
    Result = arith(Rn, ~Rm, true);
    break;
  case OpKind::Rsb:
    Result = arith(~Rn, Imm, true);
    break;
  case OpKind::Adc:
    Result = arith(Rn, Rm, State.F.C);
    break;
  case OpKind::Sbc:
    Result = arith(Rn, ~Rm, State.F.C);
    break;
  case OpKind::Mul:
    Result = Rn * Rm;
    break;
  case OpKind::Mla:
    Result = Rn * Rm + reg(D.Regs[3]);
    break;
  case OpKind::Udiv:
    Result = Rm == 0 ? 0 : Rn / Rm;
    break;
  case OpKind::Sdiv: {
    int32_t N = static_cast<int32_t>(Rn);
    int32_t Dv = static_cast<int32_t>(Rm);
    if (Dv == 0)
      Result = 0;
    else if (N == INT32_MIN && Dv == -1)
      Result = static_cast<uint32_t>(INT32_MIN);
    else
      Result = static_cast<uint32_t>(N / Dv);
    break;
  }
  case OpKind::AndReg:
    Result = Rn & Rm;
    break;
  case OpKind::OrrReg:
    Result = Rn | Rm;
    break;
  case OpKind::EorReg:
    Result = Rn ^ Rm;
    break;
  case OpKind::BicReg:
    Result = Rn & ~Rm;
    break;
  case OpKind::AndImm:
    Result = Rn & Imm;
    break;
  case OpKind::OrrImm:
    Result = Rn | Imm;
    break;
  case OpKind::EorImm:
    Result = Rn ^ Imm;
    break;
  case OpKind::BicImm:
    Result = Rn & ~Imm;
    break;
  case OpKind::LslImm:
    Result = Imm == 0 ? Rn : Rn << (Imm & 31);
    break;
  case OpKind::LsrImm:
    Result = Imm >= 32 ? 0 : Rn >> Imm;
    break;
  case OpKind::AsrImm:
    Result = Imm >= 32
                 ? (static_cast<int32_t>(Rn) < 0 ? 0xFFFFFFFFu : 0)
                 : static_cast<uint32_t>(static_cast<int32_t>(Rn) >> Imm);
    break;
  case OpKind::LslReg: {
    uint32_t Amt = Rm & 0xFF;
    Result = Amt >= 32 ? 0 : Rn << Amt;
    break;
  }
  case OpKind::LsrReg: {
    uint32_t Amt = Rm & 0xFF;
    Result = Amt >= 32 ? 0 : Rn >> Amt;
    break;
  }
  case OpKind::AsrReg: {
    uint32_t Amt = Rm & 0xFF;
    if (Amt >= 32)
      Result = static_cast<int32_t>(Rn) < 0 ? 0xFFFFFFFFu : 0;
    else
      Result = static_cast<uint32_t>(static_cast<int32_t>(Rn) >> Amt);
    break;
  }
  case OpKind::RorReg: {
    uint32_t Amt = Rm & 31;
    Result = Amt == 0 ? Rn : (Rn >> Amt) | (Rn << (32 - Amt));
    break;
  }
  case OpKind::CmpImm:
    Result = arith(reg(D.Regs[0]), ~Imm, true);
    WroteResult = false;
    break;
  case OpKind::CmpReg:
    Result = arith(reg(D.Regs[0]), ~Rn, true); // Regs[1] = rm for cmp
    WroteResult = false;
    break;
  case OpKind::Tst:
    Result = reg(D.Regs[0]) & Rn;
    WroteResult = false;
    break;
  case OpKind::Uxtb:
    Result = Rn & 0xFF;
    break;
  case OpKind::Uxth:
    Result = Rn & 0xFFFF;
    break;
  case OpKind::Sxtb:
    Result = static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int8_t>(Rn & 0xFF)));
    break;
  case OpKind::Sxth:
    Result = static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int16_t>(Rn & 0xFFFF)));
    break;
  }

  charge<Sampled>(D, D.CyclesNotTaken);
  if (WroteResult)
    reg(D.Regs[0]) = Result;
  if (D.SetsFlags) {
    State.F.N = (Result >> 31) != 0;
    State.F.Z = Result == 0;
    State.F.C = Arith.C;
    State.F.V = Arith.V;
  }
  Idx = D.Next;
}

void Simulator::run() {
  const size_t N = Dec.size();
  if (!Counts) {
    OwnCounts.assign(N, InstrCounts{});
    Counts = OwnCounts.data();
  }
  if (Opts.SampleIntervalCycles != 0)
    while (Cycles < Limit && Idx < N)
      step<true>(Dec[Idx]);
  else
    while (Cycles < Limit && Idx < N)
      step<false>(Dec[Idx]);
  stop();

  [[maybe_unused]] bool Priced =
      priceCounts(Img, std::span<const InstrCounts>(Counts, N), Opts, Stats);
  assert(Priced && Stats.Cycles == Cycles &&
         "pricing disagrees with the running cycle total");
}

RunStats ramloc::runImage(const Image &Img, const SimOptions &Opts,
                          uint32_t Arg0, uint32_t Arg1, uint32_t Arg2) {
  Simulator Sim(Img, Opts);
  Sim.state().R[R0] = Arg0;
  Sim.state().R[R1] = Arg1;
  Sim.state().R[R2] = Arg2;
  Sim.run();
  return Sim.takeStats();
}
