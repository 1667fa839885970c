//===- lp/SolverConfig.h - unified solver knobs and counters ----*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration struct for the whole exact-solver stack and one
/// counter struct for its effort accounting. SolverConfig rides unchanged
/// through PlacementSolver -> solveMip -> solveLpWarm -> resolveLpFromBasis;
/// every layer reads the fields it owns. SolverStats is the matching
/// effort ledger: one instance per solve (or per worker in the parallel
/// tree search, merged at the end), mirrored into the mip.* metrics so
/// per-thread counts aggregate through the registry.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_SOLVERCONFIG_H
#define RAMLOC_LP_SOLVERCONFIG_H

#include <array>
#include <cstdint>
#include <string>

namespace ramloc {

/// How the simplex prices its pivots. Every rule is exact — the optimum
/// (and therefore every campaign report) is byte-identical across rules;
/// what changes is how many pivots the search spends getting there, which
/// is the solver's hot-path currency on warm re-solve chains.
enum class Pricing : uint8_t {
  /// Dual steepest-edge (Forrest–Goldfarb): the leaving row is the one
  /// whose box violation is largest *per unit of basis-inverse row norm*,
  /// so one pivot repairs as much true infeasibility as possible instead
  /// of chasing raw violation magnitudes. Reference weights are exact
  /// (the dense tableau's slack block holds B^-1 outright), updated by a
  /// per-pivot recurrence and self-checked against a fresh recompute at
  /// every refactorization. The default: warm branch & bound re-solves
  /// are dual-simplex dominated, and this is where their pivots go.
  SteepestEdge,
  /// Textbook most-violated selection, both simplexes: the A/B baseline
  /// the steepest-edge pivot gate compares against.
  Dantzig,
  /// Bland's least-index rule everywhere. Immune to cycling by
  /// construction: the fallback every rule switches to when stalled.
  /// Settable through PricingRule so the degenerate-pivot regressions can
  /// pin it, but not parseable by name.
  Bland,
};

const char *pricingName(Pricing P);
/// Parses the two user-facing rules, "steepest-edge" and "dantzig".
bool pricingFromName(const std::string &Name, Pricing &Out);

/// What a finished solve actually proved. LpStatus says what the final
/// point is; SolveStatus says how much to trust it — the two are
/// orthogonal once deadlines exist, because a deadline can stop a search
/// that holds a perfectly good incumbent it simply has not proven
/// optimal. A degraded answer must always carry its label: nothing in
/// the stack may report a limit-truncated solve as Optimal.
enum class SolveStatus : uint8_t {
  Optimal,          ///< incumbent returned and proven optimal
  FeasibleLimit,    ///< feasible incumbent returned; proof cut short by a
                    ///< time/node/pivot limit (best-effort answer)
  InfeasibleProven, ///< no feasible point exists, and that was proven
  Aborted,          ///< nothing trustworthy: limit hit before any
                    ///< incumbent, unbounded relaxation, or numerics
};

const char *solveStatusName(SolveStatus S);
bool solveStatusFromName(const std::string &Name, SolveStatus &Out);

/// Why a node relaxation was solved cold instead of re-optimized from the
/// retained tableau. Every cold node solve has exactly one reason, and
/// solveMip publishes each as a mip.cold_rebuild.<name> counter.
enum class ColdReason : uint8_t {
  NoState,         ///< no tableau to reuse: first solve, structure change,
                   ///< or warm nodes disabled
  AfterInfeasible, ///< the previous cold solve ended without an optimum
                   ///< (almost always Infeasible), leaving no usable basis
  Patch,           ///< a bound change forced a nonbasic side switch
  Singular,        ///< refactorization found the retained basis singular
  StuckRow,        ///< the warm dual repair met a numerically stuck row
  Budget,          ///< the warm repair spent its pivot budget (or its
                   ///< primal polish drifted unbounded)
  Injected,        ///< the solver.degrade fault dropped the tableau
};
constexpr unsigned NumColdReasons = 7;

const char *coldReasonName(ColdReason R);

/// Every knob the exact-solver stack reads, LP engine and MIP search
/// alike. One instance flows through the whole call chain; layers read
/// the fields they own and pass the value on untouched.
struct SolverConfig {
  //===--- LP engine (simplex) --------------------------------------------===//

  /// Reduced-cost / feasibility tolerance for both ratio tests.
  double Tolerance = 1e-9;
  /// Pivot budget per simplex phase.
  unsigned MaxIterations = 100000;
  /// Pivot selection rule (see Pricing). Exact and report-neutral either
  /// way; SteepestEdge spends the fewest dual pivots on warm chains.
  Pricing PricingRule = Pricing::SteepestEdge;
  /// Refactorization cadence: after RefactorInterval * (rows + vars + 1)
  /// pivots, a retained warm tableau is re-derived *from its current
  /// basis* — the rows are rebuilt from original problem data and
  /// re-eliminated against the basis the chain has refined, which
  /// re-sparsifies fill-in and discards the rounding drift dense
  /// in-place updates accumulate (the dense analogue of periodic
  /// product-form/LU refactorization) while keeping the basis, the
  /// nonbasic statuses and the re-anchored steepest-edge weights, so
  /// 1000-point knob chains and Pareto sweeps never pay a cold restart.
  /// Only a numerically singular basis degrades to the old
  /// rebuild-from-scratch path. 0 disables the cadence entirely.
  unsigned RefactorInterval = 64;

  //===--- MIP search (branch & bound) ------------------------------------===//

  /// |value - round(value)| below which a binary is considered integral.
  double IntegerTolerance = 1e-6;
  /// Node budget; exceeding it returns the best incumbent with
  /// Proven = false.
  unsigned MaxNodes = 200000;
  /// Absolute optimality gap at which a node is pruned.
  double GapTolerance = 1e-9;
  /// Warm-start each node's relaxation from its parent's basis (dual
  /// simplex) instead of re-solving from scratch. Exact either way;
  /// disable for the fully cold reference path (--reuse without 'solve').
  bool WarmNodes = true;

  //===--- Cooperative limits (graceful degradation) ----------------------===//
  //
  // All three default to 0 = unlimited. Limits are checked cooperatively
  // at node granularity (a node's LP solve is never interrupted midway),
  // and a limited search always returns the best incumbent found so far
  // with a truthful MipSolution::Outcome — FeasibleLimit when one
  // exists, Aborted when the limit fired first. Time limits make results
  // machine-dependent by nature; node and pivot limits are deterministic
  // for a fixed thread count.

  /// Wall-clock deadline for one solveMip call, in milliseconds.
  unsigned TimeLimitMs = 0;
  /// Node cap for one solveMip call. Effectively min'ed with MaxNodes
  /// (the long-standing safety backstop, which keeps its own default).
  uint64_t NodeLimit = 0;
  /// Cap on total simplex pivots (primal + dual, summed over nodes and
  /// workers) for one solveMip call.
  uint64_t PivotLimit = 0;

  //===--- Parallel tree search -------------------------------------------===//

  /// Worker threads for the branch & bound tree (--solver-threads). 1 =
  /// serial. Each worker carries its own warm tableau cloned from the
  /// solved root and a work-stealing shard of the open list; the shared
  /// incumbent is installed under a canonical tie-break (strictly better
  /// objective, else bit-equal objective and lexicographically smaller
  /// assignment), so the result never depends on worker arrival order
  /// and reports stay byte-identical across thread counts whenever the
  /// optimum is unique — the same caveat the warm/cold A/B carries.
  unsigned Threads = 1;
};

/// The solver's effort ledger: how each explored node's relaxation was
/// satisfied and what the simplex spent doing it. One instance per
/// solveMip call — the parallel tree search keeps one per worker and
/// merges them — published into the mip.* metrics registry counters by
/// the solve itself, so campaign summaries, perf harnesses and --metrics
/// snapshots all read one source.
struct SolverStats {
  /// A cold search has ColdNodeSolves == NodesExplored; the warm path
  /// pays one cold solve (the root, unless a MipWarmStart seeded it) and
  /// re-optimizes the rest.
  unsigned ColdNodeSolves = 0;
  unsigned WarmNodeSolves = 0;
  uint64_t PrimalPivots = 0;
  uint64_t DualPivots = 0;
  /// Ratio-test outcomes that moved a variable across its box without a
  /// pivot (bounded-variable fast path).
  uint64_t BoundFlips = 0;
  /// Warm tableaux re-derived from original problem data mid-search: the
  /// periodic SolverConfig::RefactorInterval cadence (which now keeps the
  /// current basis) plus repair bail-outs (iteration-limited or
  /// numerically stuck re-optimizations, which rebuild cold).
  uint64_t Refactorizations = 0;
  /// Steepest-edge weight recurrence updates applied (one per pivot while
  /// dual steepest-edge pricing is active).
  uint64_t PricingUpdates = 0;
  /// Exact weight recomputes from the tableau's basis-inverse block:
  /// first activations plus the per-refactorization re-anchoring.
  uint64_t PricingRecomputes = 0;
  /// Refactorization self-checks where a recurrence-maintained weight had
  /// drifted materially from its exact recompute. Drift is repaired on
  /// the spot (the recompute wins); a nonzero count is a numerics canary,
  /// not an error.
  uint64_t PricingDrift = 0;
  /// ColdNodeSolves split by ColdReason; the entries sum to it.
  std::array<unsigned, NumColdReasons> ColdRebuilds{};
  /// True when the solve itself started from a caller-provided
  /// MipWarmStart basis (knob-axis reuse) rather than a cold root.
  bool WarmStarted = false;
  /// True when the caller-provided incumbent survived the zero-tolerance
  /// feasibility re-check and opened the search.
  bool SeededIncumbent = false;

  /// Folds \p Other in (parallel workers' ledgers into the solve's).
  /// Counters add; the per-solve flags are root-level facts and OR in.
  SolverStats &merge(const SolverStats &Other);
};

} // namespace ramloc

#endif // RAMLOC_LP_SOLVERCONFIG_H
