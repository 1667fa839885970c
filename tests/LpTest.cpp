//===- tests/LpTest.cpp - simplex and branch & bound -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "lp/BranchBound.h"
#include "lp/Simplex.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace ramloc;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36.
  // As minimization of the negated objective.
  LpProblem P;
  unsigned X = P.addVariable(0, 1e9, -3);
  unsigned Y = P.addVariable(0, 1e9, -5);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 4);
  P.addConstraint({{Y, 2.0}}, ConstraintSense::LessEq, 12);
  P.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LessEq, 18);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-7);
  EXPECT_NEAR(S.Values[Y], 6.0, 1e-7);
  EXPECT_NEAR(S.Objective, -36.0, 1e-7);
}

TEST(Simplex, EqualityAndGreaterConstraints) {
  // min x + y st x + y >= 2, x - y == 0  ->  x = y = 1.
  LpProblem P;
  unsigned X = P.addVariable(0, 100, 1);
  unsigned Y = P.addVariable(0, 100, 1);
  P.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::GreaterEq, 2);
  P.addConstraint({{X, 1.0}, {Y, -1.0}}, ConstraintSense::Equal, 0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-7);
}

TEST(Simplex, InfeasibleDetected) {
  LpProblem P;
  unsigned X = P.addVariable(0, 10, 1);
  P.addConstraint({{X, 1.0}}, ConstraintSense::GreaterEq, 20);
  EXPECT_EQ(solveLp(P).Status, LpStatus::Infeasible);
}

TEST(Simplex, ContradictoryRowsInfeasible) {
  LpProblem P;
  unsigned X = P.addVariable(0, 10, 0);
  P.addConstraint({{X, 1.0}}, ConstraintSense::GreaterEq, 5);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 3);
  EXPECT_EQ(solveLp(P).Status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpProblem P;
  unsigned X = P.addVariable(0, std::numeric_limits<double>::infinity(),
                             -1.0);
  (void)X;
  EXPECT_EQ(solveLp(P).Status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x st x >= -5 (shifted variable handling).
  LpProblem P;
  unsigned X = P.addVariable(-5, 5, 1);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], -5.0, 1e-7);
}

TEST(Simplex, FixedVariableSubstitution) {
  // x fixed at 2 by bounds participates via the RHS only.
  LpProblem P;
  unsigned X = P.addVariable(2, 2, 1);
  unsigned Y = P.addVariable(0, 10, 1);
  P.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::GreaterEq, 5);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-9);
  EXPECT_NEAR(S.Values[Y], 3.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the optimum.
  LpProblem P;
  unsigned X = P.addVariable(0, 10, -1);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 5);
  P.addConstraint({{X, 2.0}}, ConstraintSense::LessEq, 10);
  P.addConstraint({{X, 3.0}}, ConstraintSense::LessEq, 15);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 5.0, 1e-7);
}

/// Beale's classic cycling example: under naive Dantzig pricing with the
/// wrong tie-breaks, the simplex revisits the same degenerate bases
/// forever. The regression pins termination and optimality under both
/// user-facing pricing rules (each falls back to Bland on a stall) and
/// under Bland itself.
/// Optimum: x = (1/25, 0, 1, 0), objective -1/20.
TEST(Simplex, BealeCyclingTerminatesUnderEveryPricingRule) {
  auto Build = [] {
    LpProblem P;
    double Inf = std::numeric_limits<double>::infinity();
    unsigned X1 = P.addVariable(0, Inf, -0.75);
    unsigned X2 = P.addVariable(0, Inf, 150.0);
    unsigned X3 = P.addVariable(0, Inf, -0.02);
    unsigned X4 = P.addVariable(0, Inf, 6.0);
    P.addConstraint({{X1, 0.25}, {X2, -60.0}, {X3, -0.04}, {X4, 9.0}},
                    ConstraintSense::LessEq, 0);
    P.addConstraint({{X1, 0.5}, {X2, -90.0}, {X3, -0.02}, {X4, 3.0}},
                    ConstraintSense::LessEq, 0);
    P.addConstraint({{X3, 1.0}}, ConstraintSense::LessEq, 1);
    return P;
  };

  for (Pricing Rule :
       {Pricing::SteepestEdge, Pricing::Dantzig, Pricing::Bland}) {
    SolverConfig Opts;
    Opts.PricingRule = Rule;
    LpProblem P = Build();
    LpSolution S = solveLp(P, Opts);
    ASSERT_EQ(S.Status, LpStatus::Optimal)
        << "pricing rule " << pricingName(Rule);
    EXPECT_NEAR(S.Objective, -0.05, 1e-9);
    EXPECT_NEAR(S.Values[0], 0.04, 1e-7);
    EXPECT_NEAR(S.Values[2], 1.0, 1e-7);
    // The warm path must agree on the same degenerate-prone problem.
    WarmStart Ws;
    std::vector<double> Lo(P.numVariables()), Hi(P.numVariables());
    for (unsigned J = 0; J != P.numVariables(); ++J) {
      Lo[J] = P.Variables[J].Lower;
      Hi[J] = P.Variables[J].Upper;
    }
    LpSolution W = solveLpWarm(P, Lo, Hi, Ws, Opts);
    ASSERT_EQ(W.Status, LpStatus::Optimal);
    EXPECT_NEAR(W.Objective, -0.05, 1e-9);
  }
}

TEST(Simplex, DegenerateProblemTerminatesUnderBland) {
  LpProblem P;
  unsigned X = P.addVariable(0, 10, -1);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 5);
  P.addConstraint({{X, 2.0}}, ConstraintSense::LessEq, 10);
  P.addConstraint({{X, 3.0}}, ConstraintSense::LessEq, 15);
  SolverConfig Opts;
  Opts.PricingRule = Pricing::Bland;
  LpSolution S = solveLp(P, Opts);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 5.0, 1e-7);
}

/// Only the two user-facing rules parse: Bland stays internal (the stall
/// fallback), and every other name is rejected.
TEST(SolverConfig, PricingNamesRoundTripTheTwoUserFacingRules) {
  for (Pricing Rule : {Pricing::SteepestEdge, Pricing::Dantzig}) {
    Pricing Parsed = Pricing::Bland;
    ASSERT_TRUE(pricingFromName(pricingName(Rule), Parsed));
    EXPECT_EQ(Parsed, Rule);
  }
  Pricing Unused = Pricing::SteepestEdge;
  EXPECT_FALSE(pricingFromName("partial", Unused));
  EXPECT_FALSE(pricingFromName("bland", Unused));
  EXPECT_FALSE(pricingFromName("newton", Unused));
  EXPECT_EQ(Unused, Pricing::SteepestEdge);
}

TEST(Simplex, SolvedBasisIsExposed) {
  LpProblem P;
  unsigned X = P.addVariable(0, 1e9, -3);
  unsigned Y = P.addVariable(0, 1e9, -5);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 4);
  P.addConstraint({{Y, 2.0}}, ConstraintSense::LessEq, 12);
  P.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LessEq, 18);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  // One basic column per tableau row, and with implicit bounds the
  // tableau has exactly one row per constraint — the [0, 1e9] boxes are
  // variable data, not rows (the explicit-bound-row formulation carried
  // 5 rows here).
  EXPECT_EQ(S.Basis.size(), 3u);
}

TEST(Simplex, BoundFlipReachesOptimumWithoutPivots) {
  // min -x - y st x + y <= 10, x,y in [0,1]: both variables just flip to
  // their upper bounds; the slack stays basic and no elimination runs.
  LpProblem P;
  unsigned X = P.addVariable(0, 1, -1);
  unsigned Y = P.addVariable(0, 1, -1);
  P.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::LessEq, 10);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-9);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-9);
  EXPECT_NEAR(S.Objective, -2.0, 1e-9);
  EXPECT_EQ(S.BoundFlips, 2u);
  EXPECT_EQ(S.Basis, std::vector<unsigned>{2u}); // the slack never left
}

TEST(Simplex, BoundFlipInterleavesWithPivots) {
  // min -3a - b st 2a + b <= 2, a in [0,1], b in [0,3]: a flips to its
  // upper bound (ratio 1 on the row ties its span 1; the flip wins), then
  // b enters basically to soak up the remaining slack.
  LpProblem P;
  unsigned A = P.addVariable(0, 1, -3);
  unsigned B = P.addVariable(0, 3, -1);
  P.addConstraint({{A, 2.0}, {B, 1.0}}, ConstraintSense::LessEq, 2);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[A], 1.0, 1e-9);
  EXPECT_NEAR(S.Values[B], 0.0, 1e-9);
  EXPECT_NEAR(S.Objective, -3.0, 1e-9);
  EXPECT_GE(S.BoundFlips, 1u);
}

TEST(Simplex, FreeVariableSettlesInterior) {
  // min y st y >= x - 3, y >= 1 - x, x free, y free: optimum at the
  // kink x = 2, y = -1. Both variables start nonbasic-free at 0.
  double Inf = std::numeric_limits<double>::infinity();
  LpProblem P;
  unsigned X = P.addVariable(-Inf, Inf, 0);
  unsigned Y = P.addVariable(-Inf, Inf, 1);
  P.addConstraint({{Y, 1.0}, {X, -1.0}}, ConstraintSense::GreaterEq, -3);
  P.addConstraint({{Y, 1.0}, {X, 1.0}}, ConstraintSense::GreaterEq, 1);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-7);
  EXPECT_NEAR(S.Values[Y], -1.0, 1e-7);
  EXPECT_NEAR(S.Objective, -1.0, 1e-7);
}

TEST(Simplex, FreeVariableUnboundedBelow) {
  double Inf = std::numeric_limits<double>::infinity();
  LpProblem P;
  unsigned X = P.addVariable(-Inf, Inf, 1); // min x, x free
  (void)X;
  EXPECT_EQ(solveLp(P).Status, LpStatus::Unbounded);
}

TEST(Simplex, InfeasibleBoundBoxDetected) {
  // Crossed bound overrides (branch & bound hands these to
  // solveLpWithBounds in principle) are infeasible by inspection.
  LpProblem P;
  unsigned A = P.addBinary(-1);
  unsigned B = P.addBinary(-1);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::LessEq, 1);
  std::vector<double> Lo = {1, 0}, Hi = {0, 1}; // A's box is empty
  EXPECT_EQ(solveLpWithBounds(P, Lo, Hi).Status, LpStatus::Infeasible);
}

TEST(WarmLp, InfeasibleBoxPatchAndRecovery) {
  // A warm tableau patched to an empty box reports infeasible without
  // pivoting, stays re-optimizable, and recovers when the box widens.
  LpProblem P;
  unsigned A = P.addBinary(-5);
  unsigned B = P.addBinary(-3);
  P.addConstraint({{A, 2.0}, {B, 3.0}}, ConstraintSense::LessEq, 4);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
  Lo[A] = 1.0;
  Hi[A] = 0.0; // empty box
  LpSolution Crossed = solveLpWarm(P, Lo, Hi, Ws, {});
  EXPECT_EQ(Crossed.Status, LpStatus::Infeasible);
  EXPECT_TRUE(Crossed.WarmStarted);
  Lo[A] = 0.0;
  Hi[A] = 1.0;
  LpSolution Back = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Back.Status, LpStatus::Optimal);
  EXPECT_NEAR(Back.Objective, -7.0, 1e-9); // A = 1, B = 2/3 again
}

TEST(WarmLp, FixedVariableViaBoundsNeverEnters) {
  // Fixing a variable through the override box (lb == ub) pins it while
  // the rest re-optimizes; warm and cold agree exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
  for (double V : {1.0, 0.0}) {
    Lo[B] = Hi[B] = V; // fix B at each bound in turn
    LpSolution Warm = solveLpWarm(P, Lo, Hi, Ws, {});
    LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
    ASSERT_EQ(Warm.Status, LpStatus::Optimal);
    ASSERT_EQ(Cold.Status, LpStatus::Optimal);
    EXPECT_NEAR(Warm.Values[B], V, 1e-9);
    EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9);
    Lo[B] = 0.0;
    Hi[B] = 1.0;
  }
}

TEST(WarmLp, ReoptimizesAfterBoundTightening) {
  // Binary-style knapsack relaxation: fixing a variable via its bound
  // rows must re-optimize from the retained basis (dual pivots, not a
  // fresh phase-1/2), and match the cold answer exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};

  WarmStart Ws;
  LpSolution Root = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Root.Status, LpStatus::Optimal);
  EXPECT_FALSE(Root.WarmStarted);
  ASSERT_TRUE(Ws.valid());

  Hi[A] = 0.0; // branch A = 0
  LpSolution Child = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_TRUE(Child.WarmStarted);
  LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
  EXPECT_NEAR(Child.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Child.Values[A], 0.0, 1e-9);

  Hi[A] = 1.0;
  Lo[A] = 1.0; // backtrack and branch A = 1
  Child = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_TRUE(Child.WarmStarted);
  Cold = solveLpWithBounds(P, Lo, Hi);
  EXPECT_NEAR(Child.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Child.Values[A], 1.0, 1e-9);
}

TEST(WarmLp, ReoptimizesAfterRhsPatch) {
  // The knob-axis pattern: only a constraint RHS changes between solves.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  P.addConstraint({{A, 5.0}, {B, 4.0}}, ConstraintSense::LessEq, 9);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};

  WarmStart Ws;
  LpSolution First = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(First.Status, LpStatus::Optimal);
  EXPECT_NEAR(First.Objective, -16.0, 1e-9); // both fit

  P.Constraints[0].Rhs = 5.0; // tighten the budget
  LpSolution Patched = resolveLpFromBasis(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Patched.Status, LpStatus::Optimal);
  EXPECT_TRUE(Patched.WarmStarted);
  LpSolution Cold = solveLp(P);
  EXPECT_NEAR(Patched.Objective, Cold.Objective, 1e-9);

  P.Constraints[0].Rhs = 9.0; // and loosen it again
  Patched = resolveLpFromBasis(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Patched.Status, LpStatus::Optimal);
  EXPECT_NEAR(Patched.Objective, -16.0, 1e-9);
}

TEST(WarmLp, RefactorizationPreservesBasisAcrossWarmChain) {
  // With RefactorInterval = 1 the cadence rebuild fires after a handful
  // of pivots. The rebuild must re-eliminate the *current* basis in
  // place -- the chained solves stay warm (dual re-optimization, not a
  // cold phase-1/2 restart) and keep matching the cold answers exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  SolverConfig Opts;
  Opts.RefactorInterval = 1; // threshold: rows + vars + 1 = 5 pivots
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};

  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, Opts).Status, LpStatus::Optimal);

  bool SawRefactor = false;
  unsigned Pivots = 0;
  for (unsigned Round = 0; Round != 12; ++Round) {
    unsigned V = Round % 3;
    Lo[V] = Hi[V] = double(Round % 2); // fix one binary, alternating
    LpSolution Warm = solveLpWarm(P, Lo, Hi, Ws, Opts);
    LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
    ASSERT_EQ(Warm.Status, Cold.Status) << "round " << Round;
    if (Warm.Status == LpStatus::Optimal)
      EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9)
          << "round " << Round;
    EXPECT_TRUE(Warm.WarmStarted) << "round " << Round;
    SawRefactor |= Warm.Refactorized;
    Pivots += Warm.Iterations + Warm.DualIterations;
    Lo[V] = 0.0;
    Hi[V] = 1.0; // backtrack for the next round
  }
  // The chain pivots well past the interval, so at least one solve must
  // have gone through the in-place refactorization.
  EXPECT_TRUE(SawRefactor);
  EXPECT_GT(Pivots, 0u);
}

TEST(WarmLp, DetectsInfeasibilityAfterTightening) {
  LpProblem P;
  unsigned A = P.addBinary(0.0);
  unsigned B = P.addBinary(0.0);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::GreaterEq, 2);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
  Hi[A] = 0.0; // now A + B >= 2 needs A = 1
  EXPECT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Infeasible);
  // Loosening must recover, whichever path (dual-proven infeasibility
  // keeps the basis; a rebuild re-solves cold).
  Hi[A] = 1.0;
  EXPECT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
}

TEST(WarmLp, ResolveWithoutBasisReportsIterLimit) {
  LpProblem P;
  (void)P.addBinary(-1);
  std::vector<double> Lo = {0}, Hi = {1};
  WarmStart Ws;
  EXPECT_FALSE(Ws.valid());
  EXPECT_EQ(resolveLpFromBasis(P, Lo, Hi, Ws, {}).Status,
            LpStatus::IterLimit);
}

TEST(Mip, SimpleKnapsack) {
  // max 10a + 6b + 4c st 5a + 4b + 3c <= 9 -> {a, b} wait: a+b = 16,
  // weight 9 feasible; optimal is a+b = 16.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  MipSolution S = solveMip(P);
  ASSERT_TRUE(S.feasible());
  EXPECT_TRUE(S.Proven);
  EXPECT_NEAR(S.Objective, -16.0, 1e-7);
  EXPECT_NEAR(S.Values[A], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[B], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[C], 0.0, 1e-7);
}

TEST(Mip, IntegralityMatters) {
  // LP relaxation would take half of a big item; MIP must not.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-4);
  P.addConstraint({{A, 10.0}, {B, 5.0}}, ConstraintSense::LessEq, 5);
  MipSolution S = solveMip(P);
  ASSERT_TRUE(S.feasible());
  EXPECT_NEAR(S.Objective, -4.0, 1e-7);
  EXPECT_NEAR(S.Values[A], 0.0, 1e-7);
}

TEST(Mip, InfeasibleMip) {
  LpProblem P;
  unsigned A = P.addBinary(-1);
  P.addConstraint({{A, 1.0}}, ConstraintSense::GreaterEq, 2);
  MipSolution S = solveMip(P);
  EXPECT_FALSE(S.feasible());
}

TEST(Mip, MixedContinuousBinary) {
  // min -x - 10b st x <= 3 + 2b, x <= 4.5, b binary.
  LpProblem P;
  unsigned X = P.addVariable(0, 4.5, -1);
  unsigned B = P.addBinary(-10);
  P.addConstraint({{X, 1.0}, {B, -2.0}}, ConstraintSense::LessEq, 3);
  MipSolution S = solveMip(P);
  ASSERT_TRUE(S.feasible());
  EXPECT_NEAR(S.Values[B], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[X], 4.5, 1e-7);
}

TEST(LpProblem, FeasibilityChecker) {
  LpProblem P;
  unsigned A = P.addBinary(-1);
  unsigned B = P.addBinary(-1);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::LessEq, 1);
  EXPECT_TRUE(P.isFeasible({1, 0}));
  EXPECT_TRUE(P.isFeasible({0, 1}));
  EXPECT_FALSE(P.isFeasible({1, 1}));
  EXPECT_FALSE(P.isFeasible({2, 0})); // bound violation
  EXPECT_FALSE(P.isFeasible({1}));    // wrong arity
  EXPECT_DOUBLE_EQ(P.objectiveValue({1, 0}), -1.0);
}

namespace {

/// Exhaustive 0/1 reference optimum for small problems.
double bruteForceOptimum(const LpProblem &P) {
  unsigned N = P.numVariables();
  double Best = std::numeric_limits<double>::infinity();
  for (uint64_t Mask = 0; Mask != (1ULL << N); ++Mask) {
    std::vector<double> X(N);
    for (unsigned J = 0; J != N; ++J)
      X[J] = (Mask >> J) & 1;
    if (P.isFeasible(X))
      Best = std::min(Best, P.objectiveValue(X));
  }
  return Best;
}

} // namespace

/// Property sweep: the MIP solver matches brute force on random knapsacks
/// with side constraints.
class MipRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MipRandomized, MatchesBruteForce) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  unsigned N = 4 + static_cast<unsigned>(Rng.nextBelow(9)); // 4..12 vars
  LpProblem P;
  for (unsigned J = 0; J != N; ++J)
    P.addBinary(static_cast<double>(Rng.nextInRange(-20, 5)));
  unsigned NumCons = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned C = 0; C != NumCons; ++C) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      if (Rng.nextBool(0.7))
        Terms.push_back({J, static_cast<double>(Rng.nextInRange(1, 9))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    double Rhs = static_cast<double>(Rng.nextInRange(3, 25));
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Rhs);
  }

  double Reference = bruteForceOptimum(P);
  // Every node-solve strategy x thread count is exact and must agree
  // with brute force.
  for (bool WarmNodes : {false, true})
    for (unsigned Threads : {1u, 4u}) {
      SolverConfig Opts;
      Opts.WarmNodes = WarmNodes;
      Opts.Threads = Threads;
      MipSolution S = solveMip(P, Opts);
      ASSERT_TRUE(S.feasible()); // all-zeros is always feasible here
      EXPECT_TRUE(S.Proven);
      EXPECT_NEAR(S.Objective, Reference, 1e-6)
          << (WarmNodes ? "warm" : "cold") << " nodes, " << Threads
          << " threads";
      EXPECT_TRUE(P.isFeasible(S.Values));
      if (WarmNodes)
        EXPECT_EQ(S.coldNodeSolves() + S.warmNodeSolves(), S.NodesExplored);
      else
        EXPECT_EQ(S.coldNodeSolves(), S.NodesExplored);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipRandomized, ::testing::Range(0, 25));

TEST(Mip, WarmStartChainsAcrossRhsPatches) {
  // The knob-axis shape: one problem, the budget row's RHS swept; each
  // solve after the first re-optimizes the previous basis and seeds its
  // incumbent from the previous optimum.
  LpProblem P = [] {
    LpProblem Q;
    for (int J = 0; J != 8; ++J)
      Q.addBinary(-(5.0 + J));
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != 8; ++J)
      Terms.push_back({J, double(2 + J % 4)});
    Q.addConstraint(std::move(Terms), ConstraintSense::LessEq, 10);
    return Q;
  }();

  MipWarmStart Warm;
  bool First = true;
  for (double Budget : {10.0, 6.0, 14.0, 3.0, 10.0}) {
    P.Constraints[0].Rhs = Budget;
    MipSolution Cold = solveMip(P, [] {
      SolverConfig O;
      O.WarmNodes = false;
      return O;
    }());
    MipSolution W = solveMip(P, {}, &Warm);
    ASSERT_EQ(Cold.feasible(), W.feasible()) << "budget " << Budget;
    EXPECT_NEAR(W.Objective, Cold.Objective, 1e-9) << "budget " << Budget;
    EXPECT_EQ(W.warmStarted(), !First);
    First = false;
  }
}

TEST(Mip, ExternallySeededIncumbentOpensTheSearch) {
  // Planting a feasible assignment in the warm state before the first
  // solve marks the solution as seeded and cannot change the answer; an
  // infeasible plant is rejected by the zero-tolerance re-check.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  MipSolution Plain = solveMip(P);
  ASSERT_TRUE(Plain.feasible());
  EXPECT_FALSE(Plain.seededIncumbent());

  MipWarmStart Seeded;
  Seeded.Incumbent = {1.0, 1.0, 0.0}; // the known optimum
  MipSolution S = solveMip(P, {}, &Seeded);
  ASSERT_TRUE(S.feasible());
  EXPECT_TRUE(S.seededIncumbent());
  EXPECT_NEAR(S.Objective, Plain.Objective, 1e-9);
  EXPECT_EQ(S.Values, Plain.Values);

  MipWarmStart Bogus;
  Bogus.Incumbent = {1.0, 1.0, 1.0}; // weight 12 > 9: infeasible
  MipSolution R = solveMip(P, {}, &Bogus);
  ASSERT_TRUE(R.feasible());
  EXPECT_FALSE(R.seededIncumbent());
  EXPECT_NEAR(R.Objective, Plain.Objective, 1e-9);
}

namespace {

/// Sum of a solve's per-reason cold-rebuild counts.
unsigned coldRebuildSum(const SolverStats &St) {
  unsigned Sum = 0;
  for (unsigned N : St.ColdRebuilds)
    Sum += N;
  return Sum;
}

uint64_t publishedColdRebuilds() {
  uint64_t Sum = 0;
  for (unsigned R = 0; R != NumColdReasons; ++R)
    Sum += globalMetrics().counterValue(
        std::string("mip.cold_rebuild.") +
        coldReasonName(static_cast<ColdReason>(R)));
  return Sum;
}

} // namespace

TEST(Mip, EveryColdNodeSolveHasExactlyOneReason) {
  // A knapsack that branches for a while, so cold rebuilds happen for
  // more than one reason (the root has no state; infeasible children
  // leave none behind).
  LpProblem P;
  for (int J = 0; J != 12; ++J)
    P.addBinary(-(3.0 + (J * 7) % 11));
  std::vector<std::pair<unsigned, double>> Terms;
  for (unsigned J = 0; J != 12; ++J)
    Terms.push_back({J, double(2 + (J * 5) % 7)});
  P.addConstraint(std::move(Terms), ConstraintSense::LessEq, 23);
  auto reason = [](const MipSolution &S, ColdReason R) {
    return S.Stats.ColdRebuilds[static_cast<unsigned>(R)];
  };

  for (unsigned Threads : {1u, 4u}) {
    SolverConfig Cfg;
    Cfg.Threads = Threads;
    uint64_t ColdBefore = globalMetrics().counterValue("mip.cold_node_solves");
    uint64_t ReasonsBefore = publishedColdRebuilds();
    MipSolution S = solveMip(P, Cfg);
    ASSERT_TRUE(S.Proven);
    EXPECT_GT(S.NodesExplored, 1u);
    EXPECT_EQ(coldRebuildSum(S.Stats), S.Stats.ColdNodeSolves);
    EXPECT_GE(reason(S, ColdReason::NoState), 1u); // the root
    EXPECT_EQ(reason(S, ColdReason::Injected), 0u);
    // solveMip publishes the same split into the registry.
    EXPECT_EQ(publishedColdRebuilds() - ReasonsBefore,
              globalMetrics().counterValue("mip.cold_node_solves") -
                  ColdBefore);

    // Cold nodes have no retained state to lose: one reason for all.
    Cfg.WarmNodes = false;
    MipSolution C = solveMip(P, Cfg);
    EXPECT_EQ(reason(C, ColdReason::NoState), C.NodesExplored);
    EXPECT_EQ(coldRebuildSum(C.Stats), C.Stats.ColdNodeSolves);

    // The solver.degrade fault drops every usable tableau: those
    // rebuilds are counted as injected, and the answer does not move.
    Cfg.WarmNodes = true;
    FaultInjector F;
    F.arm("solver.degrade", 1.0);
    F.install();
    MipSolution D = solveMip(P, Cfg);
    FaultInjector::uninstall();
    EXPECT_NEAR(D.Objective, S.Objective, 1e-9);
    EXPECT_EQ(D.Stats.WarmNodeSolves, 0u);
    EXPECT_GT(reason(D, ColdReason::Injected), 0u);
    EXPECT_EQ(reason(D, ColdReason::Injected), F.firedCount("solver.degrade"));
    EXPECT_EQ(coldRebuildSum(D.Stats), D.Stats.ColdNodeSolves);
  }
}

namespace {

/// Counts the exhaustive 0/1 optima of \p P at objective \p Best. The
/// random knapsacks below have integer costs, so equality is exact.
unsigned bruteForceOptimumCount(const LpProblem &P, double Best) {
  unsigned N = P.numVariables();
  unsigned Count = 0;
  for (uint64_t Mask = 0; Mask != (1ULL << N); ++Mask) {
    std::vector<double> X(N);
    for (unsigned J = 0; J != N; ++J)
      X[J] = (Mask >> J) & 1;
    if (P.isFeasible(X) && P.objectiveValue(X) == Best)
      ++Count;
  }
  return Count;
}

} // namespace

/// Property sweep for the parallel tree search: every thread count is
/// exact (matches the brute-force enumerator and the serial
/// solver's objective), and whenever the optimum is unique the canonical
/// selection rule makes the assignment bit-identical to the serial one.
/// Multiple bit-equal-cost optima are the one documented divergence.
class MipParallelRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MipParallelRandomized, MatchesSerialAndBruteForce) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 104729 + 71);
  unsigned N = 5 + static_cast<unsigned>(Rng.nextBelow(8)); // 5..12 vars
  LpProblem P;
  for (unsigned J = 0; J != N; ++J)
    P.addBinary(static_cast<double>(Rng.nextInRange(-20, 5)));
  unsigned NumCons = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned C = 0; C != NumCons; ++C) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      if (Rng.nextBool(0.7))
        Terms.push_back({J, static_cast<double>(Rng.nextInRange(1, 9))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    double Rhs = static_cast<double>(Rng.nextInRange(3, 25));
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Rhs);
  }

  double Reference = bruteForceOptimum(P);
  bool Unique = bruteForceOptimumCount(P, Reference) == 1;

  MipSolution Serial = solveMip(P);
  ASSERT_TRUE(Serial.feasible()); // all-zeros is always feasible here
  EXPECT_NEAR(Serial.Objective, Reference, 1e-6);

  for (unsigned Threads : {2u, 4u}) {
    SolverConfig Cfg;
    Cfg.Threads = Threads;
    MipSolution S = solveMip(P, Cfg);
    ASSERT_TRUE(S.feasible());
    EXPECT_TRUE(S.Proven);
    EXPECT_NEAR(S.Objective, Reference, 1e-6) << Threads << " threads";
    EXPECT_TRUE(P.isFeasible(S.Values));
    if (Unique)
      EXPECT_EQ(S.Values, Serial.Values) << Threads << " threads";
    EXPECT_EQ(S.coldNodeSolves() + S.warmNodeSolves(), S.NodesExplored)
        << Threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipParallelRandomized,
                         ::testing::Range(0, 15));

/// Property sweep for pricing: both rules x thread count are exact (same
/// objective as the brute-force enumerator), and when the optimum is
/// unique the canonical selection keeps the assignment identical to the
/// baseline config. The rules take different pivot paths through the
/// same polytopes; neither may change an answer.
class MipPricingRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MipPricingRandomized, AllRulesAgreeWithBruteForce) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 15485863 + 37);
  unsigned N = 5 + static_cast<unsigned>(Rng.nextBelow(8)); // 5..12 vars
  LpProblem P;
  for (unsigned J = 0; J != N; ++J)
    P.addBinary(static_cast<double>(Rng.nextInRange(-20, 5)));
  unsigned NumCons = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned C = 0; C != NumCons; ++C) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      if (Rng.nextBool(0.7))
        Terms.push_back({J, static_cast<double>(Rng.nextInRange(1, 9))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    double Rhs = static_cast<double>(Rng.nextInRange(3, 25));
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Rhs);
  }

  double Reference = bruteForceOptimum(P);
  bool Unique = bruteForceOptimumCount(P, Reference) == 1;
  MipSolution Baseline = solveMip(P);
  ASSERT_TRUE(Baseline.feasible()); // all-zeros is always feasible here
  EXPECT_NEAR(Baseline.Objective, Reference, 1e-6);

  for (Pricing Rule : {Pricing::SteepestEdge, Pricing::Dantzig})
    for (unsigned Threads : {1u, 4u}) {
      SolverConfig Cfg;
      Cfg.PricingRule = Rule;
      Cfg.Threads = Threads;
      MipSolution S = solveMip(P, Cfg);
      ASSERT_TRUE(S.feasible());
      EXPECT_TRUE(S.Proven);
      EXPECT_NEAR(S.Objective, Reference, 1e-6)
          << pricingName(Rule) << " pricing, " << Threads << " threads";
      EXPECT_TRUE(P.isFeasible(S.Values));
      if (Unique)
        EXPECT_EQ(S.Values, Baseline.Values)
            << pricingName(Rule) << " pricing, " << Threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipPricingRandomized,
                         ::testing::Range(0, 12));
