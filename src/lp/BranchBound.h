//===- lp/BranchBound.h - 0/1 MIP solver ------------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch & bound over the simplex relaxation for problems whose integer
/// variables are all binary (exactly the shape of the paper's Section 4
/// model after linearization), with bound pruning, pseudo-cost branching
/// (most-fractional until costs are observed) and an LP-rounding
/// incumbent heuristic.
///
/// Nodes are expanded depth-first: every node is one bound change from
/// the previous one, so the dual repair of the retained tableau stays
/// local and the warm start pays for itself.
///
/// Solve once, branch cheap: each child node differs from its parent in
/// exactly one variable bound, which — with the bounded-variable tableau
/// — is an O(1) box update plus an O(rows) basic-value refresh that
/// leaves the parent basis dual feasible, so by default nodes are solved
/// by dual-simplex re-optimization of one evolving WarmStart tableau
/// instead of a fresh solve (SolverConfig::WarmNodes; both paths are
/// exact, so the answer is the same either way — MipSolution::Stats
/// records how each node was satisfied, and why each cold one went cold).
/// A MipWarmStart additionally carries that tableau and the previous
/// optimum *across* solveMip calls, so a sweep that only patches bounds
/// or constraint RHS values between solves — the knob axis of a placement
/// campaign — re-optimizes from its neighbour instead of starting over,
/// and an externally seeded incumbent (e.g. the persistent cache's
/// best-known assignment) opens the search with most of the tree already
/// pruned.
///
/// With SolverConfig::Threads > 1 the tree itself is searched in
/// parallel: the root relaxation is solved once on the caller's warm
/// tableau (preserving the cross-solve reuse semantics above), then the
/// open list is sharded across workers with JobQueue-style deque
/// stealing — each worker dives its own shard and steals the oldest node
/// of a sibling's shard when dry — and each worker re-optimizes its own
/// deep copy of the solved root tableau. The shared incumbent makes
/// pruning global. Determinism comes from *canonical result selection*,
/// not from scheduling: a candidate incumbent's integer values are
/// snapped exactly and it replaces the current best only when its
/// objective is strictly smaller, or bit-equal with a lexicographically
/// smaller assignment. That rule is independent of tree shape and arrival
/// order, and the serial path applies the same rule, so any thread count
/// returns the same assignment whenever the optimum is unique (multiple
/// bit-equal-energy optima remain the one documented divergence, exactly
/// as for the warm/cold A/B).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_BRANCHBOUND_H
#define RAMLOC_LP_BRANCHBOUND_H

#include "lp/Simplex.h"

namespace ramloc {

/// MIP outcome. Status Optimal with Proven false means "best found within
/// the node budget"; Outcome is the one-word trust label derived from
/// (Status, Proven) that callers must propagate — a degraded answer is
/// never reported as SolveStatus::Optimal.
struct MipSolution {
  LpStatus Status = LpStatus::Infeasible;
  double Objective = 0.0;
  std::vector<double> Values;
  unsigned NodesExplored = 0;
  bool Proven = false;
  /// What this solve proved (see lp/SolverConfig.h). Optimal only when
  /// the incumbent's optimality was proven; FeasibleLimit when a
  /// cooperative limit (TimeLimitMs / NodeLimit / PivotLimit / MaxNodes)
  /// truncated the proof but an incumbent exists; InfeasibleProven when
  /// infeasibility was established; Aborted otherwise.
  SolveStatus Outcome = SolveStatus::Aborted;

  /// The solve's effort ledger (merged across workers when the tree was
  /// searched in parallel), also published into the mip.* metrics
  /// counters. Use the accessors below for the common reads.
  SolverStats Stats;

  bool feasible() const { return Status == LpStatus::Optimal; }

  unsigned coldNodeSolves() const { return Stats.ColdNodeSolves; }
  unsigned warmNodeSolves() const { return Stats.WarmNodeSolves; }
  uint64_t primalPivots() const { return Stats.PrimalPivots; }
  uint64_t dualPivots() const { return Stats.DualPivots; }
  uint64_t boundFlips() const { return Stats.BoundFlips; }
  uint64_t refactorizations() const { return Stats.Refactorizations; }
  bool warmStarted() const { return Stats.WarmStarted; }
  bool seededIncumbent() const { return Stats.SeededIncumbent; }
};

/// Cross-solve warm-start state for a structurally fixed problem whose
/// bounds or constraint RHS values change between solves. The LP tableau
/// evolves in place across the search trees, and the previous optimum —
/// or an externally provided assignment, e.g. the persistent cache's
/// best-known placement — seeds the next solve's incumbent (after an
/// exact, zero-tolerance feasibility re-check under the patched problem:
/// admitting a point infeasible by even a whisker could prune the true
/// optimum, whereas spuriously rejecting a boundary-tight seed merely
/// loses a head start). Reuse with a *structurally* different problem is
/// detected and degrades to a cold solve.
struct MipWarmStart {
  WarmStart Lp;
  /// The incumbent seed for the next solve (empty when none): the
  /// previous solve's optimum, or a caller-planted assignment.
  std::vector<double> Incumbent;
};

/// Solves \p P to optimality (integer variables must be binary). With
/// \p Warm, re-optimizes from the previous solve's basis and incumbent
/// and leaves the state primed for the next call. Cfg.Threads > 1
/// searches the tree with a work-stealing worker pool; results are
/// canonical across thread counts (see the file comment).
MipSolution solveMip(const LpProblem &P, const SolverConfig &Cfg = {},
                     MipWarmStart *Warm = nullptr);

} // namespace ramloc

#endif // RAMLOC_LP_BRANCHBOUND_H
