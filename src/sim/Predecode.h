//===- sim/Predecode.h - pre-resolved interpreter dispatch ------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the interpreter's hot loop reads and writes per step.
///
/// predecodeImage() resolves, once per (image, timing model), everything a
/// step needs that does not depend on machine state: operands copied out
/// of the placed instruction, the fall-through and direct-branch
/// successors as instruction indices (so only bx/blx/pop {pc}/ldr pc look
/// an address up at run time), the condition as a 16-entry pass mask over
/// the NZCV flags, and cycle costs with flash wait states folded in. The
/// RAM-port contention stall stays dynamic because it depends on the
/// executed load's data address.
///
/// InstrCounts is what a step writes: per static instruction, how often it
/// executed, was taken, was skipped, and which memory its loads read. The
/// counts are all a run records; every cycle figure is priced from them
/// afterwards (sim/ExecutionProfile.h).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_PREDECODE_H
#define RAMLOC_SIM_PREDECODE_H

#include "isa/Timing.h"
#include "layout/Image.h"

#include <cstdint>
#include <vector>

namespace ramloc {

/// Dynamic facts about one static instruction that a TimingModel cannot
/// predict. Everything else pricing needs (opcode, fetch memory, size,
/// literal-pool slot) is static and read from the Image.
struct InstrCounts {
  /// Condition-passed executions (including taken branches).
  uint64_t Exec = 0;
  /// Taken executions of a conditional branch (BCond/Cbz/Cbnz); always
  /// <= Exec, and 0 for every other opcode.
  uint64_t Taken = 0;
  /// Predicated executions whose condition failed (one skipped cycle).
  uint64_t Skipped = 0;
  /// Load executions split by data memory [flash, RAM]. For loads the two
  /// sum to Exec; 0 for non-loads.
  uint64_t LoadData[2] = {0, 0};

  bool operator==(const InstrCounts &O) const = default;
};

/// Target index meaning "no instruction starts there": taking the branch
/// resolves the address at run time (halt or fetch fault).
inline constexpr uint32_t Unresolved = UINT32_MAX;

/// One pre-resolved instruction: everything the hot loop needs that does
/// not depend on machine state.
struct DecodedInstr {
  /// Fall-through successor index. When no instruction starts at
  /// NextAddr it is the table size plus this instruction's own index, so
  /// the fetch that faults can name the address.
  uint32_t Next = 0;
  /// Direct-branch (b, b<c>, cbz, cbnz, bl) target index, or Unresolved.
  uint32_t Target = 0;
  /// Fall-through address: the link value of calls.
  uint32_t NextAddr = 0;
  /// Resolved branch target / literal-pool slot (PlacedInstr::TargetAddr).
  uint32_t TargetAddr = 0;
  /// Cycle costs with flash wait states already folded in.
  uint32_t CyclesNotTaken = 0;
  uint32_t CyclesTaken = 0;   ///< taken cost for conditional control flow
  uint32_t CyclesSkipped = 0; ///< condition-failed predicated execution
  /// RamContentionStall when fetched from RAM, else 0: the extra stall a
  /// RAM-data load pays on the shared RAM port.
  uint32_t ContentionStall = 0;
  /// Operands, copied from the placed instruction.
  int32_t Imm = 0;
  Reg Regs[4] = {R0, R0, R0, R0};
  OpKind Kind = OpKind::Nop;
  bool SetsFlags = false;
  /// True for predicated non-branch instructions: the hot loop gates them
  /// on CondMask before executing.
  bool CheckCond = false;
  uint8_t Fetch = 0; ///< MemKind of the fetch: 0 = flash, 1 = RAM
  uint8_t Class = 0; ///< InstrClass of the opcode
  /// Bit nzcvFlags(F) is set when the condition passes under flags F.
  uint16_t CondMask = 0xFFFF;
};

/// The NZCV flags as a 4-bit index into DecodedInstr::CondMask.
inline unsigned nzcvFlags(const Flags &F) {
  return (F.N ? 8u : 0u) | (F.Z ? 4u : 0u) | (F.C ? 2u : 0u) |
         (F.V ? 1u : 0u);
}

/// The dense decode table: DecodedInstr[i] describes Image::Instrs[i].
using DecodedImage = std::vector<DecodedInstr>;

/// Builds the decode table for \p Img under \p Timing.
DecodedImage predecodeImage(const Image &Img, const TimingModel &Timing);

} // namespace ramloc

#endif // RAMLOC_SIM_PREDECODE_H
