//===- sim/Simulator.h - Cortex-M3-like interpreter -------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cycle-approximate interpreter for linked images, standing in for the
/// paper's power-instrumented STM32VLDISCOVERY board.
///
/// The hot loop dispatches over a predecoded image (sim/Predecode.h) and
/// only counts: each step bumps its instruction's InstrCounts (executed,
/// taken, skipped, load data memory) and one running cycle total, which
/// includes the RAM fetch/data contention stall the paper's Lb term models
/// and keeps SimOptions::MaxCycles exact. Everything RunStats reports per
/// memory and class — ClassCycles, LoadCycles, ContentionStalls,
/// FlashWaitCycles, BlockCounts — is priced once, at the end of the run,
/// by the same code that recosts a stored ExecutionProfile
/// (priceCounts in sim/ExecutionProfile.h). Only power-profile sampling
/// (Figure 7) attributes cycles per step, to its windows.
///
/// Architectural conventions:
///  - Registers r0-r12, sp (full-descending), lr, pc; NZCV flags.
///  - The run starts at the image entry with lr = ExitAddress; returning
///    to ExitAddress or executing bkpt halts the run.
///  - r0 at halt is reported as the exit code (workload checksum).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_SIMULATOR_H
#define RAMLOC_SIM_SIMULATOR_H

#include "isa/Timing.h"
#include "layout/Image.h"
#include "sim/Predecode.h"
#include "sim/RunStats.h"

#include <cstdint>

namespace ramloc {

struct ExecutionProfile;

/// Simulation knobs.
struct SimOptions {
  TimingModel Timing;
  /// Abort threshold, to keep runaway programs bounded.
  uint64_t MaxCycles = 4'000'000'000ULL;
  /// Account the startup .data/.ramcode copy loop (flash-fetched loads).
  bool IncludeStartupCopy = true;
  /// When non-zero, record a PowerSample roughly every this many cycles
  /// (the power-profile instrumentation behind Figure 7). Sample
  /// boundaries depend on the timing model, so runs with sampling cannot
  /// be served by recosting a shared profile.
  uint64_t SampleIntervalCycles = 0;
};

/// The magic return address that terminates simulation when jumped to.
inline constexpr uint32_t ExitAddress = 0xFFFFFFF0;

/// Architectural machine state, exposed for unit tests.
struct MachineState {
  uint32_t R[16] = {};
  Flags F;
};

/// Runs \p Img from its entry to completion and returns statistics.
/// \p Argv0..2 preload r0..r2 (workload parameters).
RunStats runImage(const Image &Img, const SimOptions &Opts = {},
                  uint32_t Arg0 = 0, uint32_t Arg1 = 0, uint32_t Arg2 = 0);

/// The interpreter behind runImage/runImageProfiled; tests drive it
/// directly to inspect machine state.
class Simulator {
public:
  Simulator(const Image &Img, const SimOptions &Opts);

  /// Binds \p P as the run's execution-profile sink: per-instruction
  /// counts accumulate into it. \p P is (re)initialized to the image's
  /// shape; the caller finalizes the whole-run fields (see
  /// runImageProfiled).
  void collectProfile(ExecutionProfile &P);

  /// Runs until halt/fault/cycle-limit, then prices the counts into the
  /// statistics.
  void run();

  const MachineState &state() const { return State; }
  MachineState &state() { return State; }
  const RunStats &stats() const { return Stats; }
  RunStats takeStats() { return std::move(Stats); }

private:
  /// Executes the instruction at Idx.
  template <bool Sampled> void step(const DecodedInstr &D);
  /// Charges \p Cyc cycles to the running total (and the sampling
  /// window).
  template <bool Sampled>
  void charge(const DecodedInstr &D, uint32_t Cyc, bool IsLoad = false,
              unsigned DataMem = 0);
  /// Counts a load reading \p DataMem and charges it, adding the RAM-port
  /// contention stall for RAM data.
  template <bool Sampled>
  void chargeLoad(const DecodedInstr &D, InstrCounts &C, unsigned DataMem);
  /// Executes a load of a T from \p Addr.
  template <bool Sampled, typename T>
  void load(const DecodedInstr &D, InstrCounts &C, uint32_t Addr);
  /// Executes a store of a T to \p Addr.
  template <bool Sampled, typename T>
  void store(const DecodedInstr &D, uint32_t Addr);
  /// Continues at a taken direct branch's target.
  void takeBranch(const DecodedInstr &D) {
    if (D.Target != Unresolved)
      Idx = D.Target;
    else
      jump(D.TargetAddr);
  }
  /// Continues at a run-time address: the exit address halts, an address
  /// with no instruction faults at the next fetch.
  void jump(uint32_t Addr);
  /// Ends the loop: records why it stopped (cycle limit or fetch fault)
  /// unless the run already halted or faulted.
  void stop();

  /// RAM bytes [Addr, Addr + Bytes) when they all lie in RAM, else null.
  uint8_t *ramAt(uint32_t Addr, uint32_t Bytes) {
    uint32_t Off = Addr - Img.Map.RamBase;
    return static_cast<uint64_t>(Off) + Bytes <= Img.Map.RamSize
               ? Ram.data() + Off
               : nullptr;
  }
  /// Memory access: RAM in one offset compare, flash reads next, and
  /// anything else (flash writes, unmapped or straddling addresses)
  /// faults.
  template <typename T> uint32_t read(uint32_t Addr);
  template <typename T> void write(uint32_t Addr, uint32_t Value);
  void accessFault(uint32_t Addr, bool Write);

  void fault(const std::string &Msg);
  void halt();

  uint32_t &reg(Reg R) { return State.R[R]; }
  /// True when \p D's condition passes under the current flags.
  bool passes(const DecodedInstr &D) const {
    return (D.CondMask >> nzcvFlags(State.F)) & 1;
  }

  const Image &Img;
  SimOptions Opts;
  MachineState State;
  RunStats Stats;
  /// Pre-resolved handlers/operands/cycle costs, parallel to Img.Instrs.
  DecodedImage Dec;
  /// Per-instruction counts, parallel to Dec: the bound profile's, else
  /// OwnCounts (allocated by run()).
  std::vector<InstrCounts> OwnCounts;
  InstrCounts *Counts = nullptr;
  /// Index of the instruction to execute next (into Img.Instrs / Dec).
  /// Past the table the next fetch faults: Unresolved after a jump to
  /// PcAddr found no instruction, Dec.size() + i when instruction i falls
  /// through to an address with no instruction.
  uint32_t Idx = Unresolved;
  uint32_t PcAddr = 0;
  /// Running cycle total; the loop runs while it is below Limit, which
  /// is MaxCycles until a halt or fault drops it to 0.
  uint64_t Cycles = 0;
  uint64_t Limit = 0;
  bool Halted = false;
  /// Accumulator for the current sampling interval.
  PowerSample CurSample;
  /// RAM contents (mutable); flash is read from the image (writes fault).
  std::vector<uint8_t> Ram;
};

} // namespace ramloc

#endif // RAMLOC_SIM_SIMULATOR_H
