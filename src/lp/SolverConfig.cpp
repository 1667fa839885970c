//===- lp/SolverConfig.cpp - unified solver knobs and counters ------------===//

#include "lp/SolverConfig.h"

namespace ramloc {

const char *pricingName(Pricing P) {
  switch (P) {
  case Pricing::SteepestEdge:
    return "steepest-edge";
  case Pricing::Dantzig:
    return "dantzig";
  case Pricing::Bland:
    return "bland";
  }
  return "steepest-edge";
}

bool pricingFromName(const std::string &Name, Pricing &Out) {
  if (Name == "steepest-edge")
    Out = Pricing::SteepestEdge;
  else if (Name == "dantzig")
    Out = Pricing::Dantzig;
  else
    return false;
  return true;
}

const char *solveStatusName(SolveStatus S) {
  switch (S) {
  case SolveStatus::Optimal:
    return "optimal";
  case SolveStatus::FeasibleLimit:
    return "feasible-limit";
  case SolveStatus::InfeasibleProven:
    return "infeasible-proven";
  case SolveStatus::Aborted:
    return "aborted";
  }
  return "aborted";
}

bool solveStatusFromName(const std::string &Name, SolveStatus &Out) {
  if (Name == "optimal")
    Out = SolveStatus::Optimal;
  else if (Name == "feasible-limit")
    Out = SolveStatus::FeasibleLimit;
  else if (Name == "infeasible-proven")
    Out = SolveStatus::InfeasibleProven;
  else if (Name == "aborted")
    Out = SolveStatus::Aborted;
  else
    return false;
  return true;
}

const char *coldReasonName(ColdReason R) {
  switch (R) {
  case ColdReason::NoState:
    return "no_state";
  case ColdReason::AfterInfeasible:
    return "after_infeasible";
  case ColdReason::Patch:
    return "patch";
  case ColdReason::Singular:
    return "singular";
  case ColdReason::StuckRow:
    return "stuck_row";
  case ColdReason::Budget:
    return "budget";
  case ColdReason::Injected:
    return "injected";
  }
  return "no_state";
}

SolverStats &SolverStats::merge(const SolverStats &Other) {
  ColdNodeSolves += Other.ColdNodeSolves;
  WarmNodeSolves += Other.WarmNodeSolves;
  PrimalPivots += Other.PrimalPivots;
  DualPivots += Other.DualPivots;
  BoundFlips += Other.BoundFlips;
  Refactorizations += Other.Refactorizations;
  PricingUpdates += Other.PricingUpdates;
  PricingRecomputes += Other.PricingRecomputes;
  PricingDrift += Other.PricingDrift;
  for (unsigned R = 0; R != NumColdReasons; ++R)
    ColdRebuilds[R] += Other.ColdRebuilds[R];
  WarmStarted = WarmStarted || Other.WarmStarted;
  SeededIncumbent = SeededIncumbent || Other.SeededIncumbent;
  return *this;
}

} // namespace ramloc
