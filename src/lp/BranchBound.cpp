//===- lp/BranchBound.cpp - 0/1 MIP solver ------------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "lp/BranchBound.h"

#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

using namespace ramloc;

namespace {

struct Node {
  std::vector<double> Lower;
  std::vector<double> Upper;
  double Bound;      ///< parent LP objective: lower bound on this subtree
  int BranchVar = -1; ///< variable whose bound created this node
  bool BranchUp = false; ///< true: forced to 1; false: forced to 0
  double FracDist = 0.0; ///< fractional distance the branch moved it
};

/// Rounds an LP point to the nearest binary assignment; returns true if
/// the rounded point is feasible. Cheap incumbent generator.
bool roundToFeasible(const LpProblem &P, const std::vector<double> &X,
                     std::vector<double> &Out) {
  Out = X;
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J)
    if (P.Variables[J].Integer)
      Out[J] = Out[J] >= 0.5 ? 1.0 : 0.0;
  return P.isFeasible(Out);
}

/// Snaps every integral-within-tolerance integer variable to its exact
/// 0/1 value. Incumbents are canonicalized before they are compared or
/// stored, so the same binary assignment reached through two different
/// tableau histories (warm chains drift in the last bits) produces one
/// representative point.
void snapIntegers(const LpProblem &P, std::vector<double> &V, double IntTol) {
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    if (!P.Variables[J].Integer)
      continue;
    double R = std::round(V[J]);
    if (std::abs(V[J] - R) <= IntTol)
      V[J] = R;
  }
}

/// The canonical incumbent order (see BranchBound.h): a candidate
/// replaces the current best only on a strictly smaller objective, or a
/// bit-equal objective with a lexicographically smaller assignment. The
/// relation is a total order on candidate points, so the surviving
/// incumbent is independent of the order candidates arrive in — the
/// property the parallel search's determinism rests on. The serial path
/// applies the same rule so thread counts agree.
bool canonicallyBetter(double Obj, const std::vector<double> &V, bool HaveCur,
                       double CurObj, const std::vector<double> &CurV) {
  if (!HaveCur)
    return true;
  if (Obj != CurObj)
    return Obj < CurObj;
  return std::lexicographical_compare(V.begin(), V.end(), CurV.begin(),
                                      CurV.end());
}

/// The solve's cooperative limits, resolved once at entry. Limits are
/// checked at node granularity — a node's LP solve always runs to its
/// own completion — so hitting one loses the optimality proof but never
/// corrupts state: the search simply stops expanding and keeps whatever
/// incumbent it holds. The node cap folds SolverConfig::NodeLimit into
/// the long-standing MaxNodes backstop (effective cap = min of the two),
/// so with every limit at its 0 default the search behaves bit-for-bit
/// as before.
struct SearchLimits {
  std::chrono::steady_clock::time_point Deadline{};
  bool HaveDeadline = false;
  uint64_t NodeCap = 0;
  uint64_t PivotCap = 0; ///< 0 = unlimited

  explicit SearchLimits(const SolverConfig &Cfg) {
    if (Cfg.TimeLimitMs) {
      HaveDeadline = true;
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(Cfg.TimeLimitMs);
    }
    NodeCap = Cfg.MaxNodes;
    if (Cfg.NodeLimit && Cfg.NodeLimit < NodeCap)
      NodeCap = Cfg.NodeLimit;
    PivotCap = Cfg.PivotLimit;
  }

  bool deadlinePassed() const {
    return HaveDeadline && std::chrono::steady_clock::now() >= Deadline;
  }
  bool pivotsExhausted(uint64_t PivotsSpent) const {
    return PivotCap != 0 && PivotsSpent >= PivotCap;
  }
};

/// Derives the one-word trust label from what the finished search
/// established. The mapping is deliberately conservative: any lost proof
/// demotes a feasible answer to FeasibleLimit, and anything without a
/// trustworthy point (unbounded relaxation, limit-before-incumbent,
/// root iteration limit) is Aborted — a degraded answer must never read
/// as Optimal downstream.
void finalizeOutcome(MipSolution &Sol) {
  if (Sol.Status == LpStatus::Optimal)
    Sol.Outcome =
        Sol.Proven ? SolveStatus::Optimal : SolveStatus::FeasibleLimit;
  else if (Sol.Status == LpStatus::Infeasible && Sol.Proven)
    Sol.Outcome = SolveStatus::InfeasibleProven;
  else
    Sol.Outcome = SolveStatus::Aborted;
}

/// Per-variable branching history: average objective degradation per unit
/// of fraction moved, one estimate per direction. Reset for every
/// solveMip call (and kept per worker in the parallel search) so a
/// solve's branching decisions depend only on its own tree, not on what a
/// previous knob point explored.
struct PseudoCosts {
  std::vector<double> DownSum, UpSum;
  std::vector<unsigned> DownCnt, UpCnt;

  explicit PseudoCosts(unsigned N)
      : DownSum(N, 0.0), UpSum(N, 0.0), DownCnt(N, 0), UpCnt(N, 0) {}

  void observe(unsigned Var, bool Up, double Degradation, double Dist) {
    double PerUnit = std::max(Degradation, 0.0) / std::max(Dist, 1e-6);
    if (Up) {
      UpSum[Var] += PerUnit;
      ++UpCnt[Var];
    } else {
      DownSum[Var] += PerUnit;
      ++DownCnt[Var];
    }
  }

  double estimate(unsigned Var, bool Up, double Fallback) const {
    unsigned Cnt = Up ? UpCnt[Var] : DownCnt[Var];
    if (Cnt == 0)
      return Fallback;
    return (Up ? UpSum[Var] : DownSum[Var]) / Cnt;
  }
};

/// Folds one node relaxation's effort into the search ledger.
void accumulateLp(SolverStats &St, const LpSolution &Relax) {
  if (Relax.WarmStarted) {
    ++St.WarmNodeSolves;
  } else {
    ++St.ColdNodeSolves;
    ++St.ColdRebuilds[static_cast<unsigned>(Relax.RebuildReason)];
  }
  St.PrimalPivots += Relax.Iterations;
  St.DualPivots += Relax.DualIterations;
  St.BoundFlips += Relax.BoundFlips;
  if (Relax.Refactorized)
    ++St.Refactorizations;
  St.PricingUpdates += Relax.PricingUpdates;
  St.PricingRecomputes += Relax.PricingRecomputes;
  St.PricingDrift += Relax.PricingDrift;
}

/// Picks the branching variable for a fractional relaxation point.
/// Pseudo-cost scoring multiplies the estimated degradation of the two
/// children (the product rule); variables without history score with the
/// tree-wide average so early decisions degrade to most-fractional.
int pickBranchVariable(const LpProblem &P, const std::vector<double> &X,
                       const SolverConfig &Opts, const PseudoCosts &PC) {
  int BranchVar = -1;
  double BestScore = 0.0;

  // Tree-wide average per-unit degradation, the fallback estimate.
  double Sum = 0.0;
  unsigned Cnt = 0;
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    if (PC.DownCnt[J]) {
      Sum += PC.DownSum[J] / PC.DownCnt[J];
      ++Cnt;
    }
    if (PC.UpCnt[J]) {
      Sum += PC.UpSum[J] / PC.UpCnt[J];
      ++Cnt;
    }
  }
  double Fallback = Cnt ? Sum / Cnt : 1.0;

  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    if (!P.Variables[J].Integer)
      continue;
    double V = X[J];
    double Frac = std::min(V - std::floor(V), std::ceil(V) - V);
    if (Frac <= Opts.IntegerTolerance)
      continue;
    double Down = V - std::floor(V);
    double Up = std::ceil(V) - V;
    double Score = std::max(Down * PC.estimate(J, false, Fallback), 1e-12) *
                   std::max(Up * PC.estimate(J, true, Fallback), 1e-12);
    if (BranchVar < 0 || Score > BestScore) {
      BranchVar = static_cast<int>(J);
      BestScore = Score;
    }
  }
  return BranchVar;
}

/// Splits \p N on \p BranchVar and hands both children to \p Push,
/// closer side last: the LIFO open list pops the last pushed node, so the
/// search dives into the half the relaxation already leans towards.
template <typename PushFn>
void branchNode(Node &&N, int BranchVar, double Frac, double Bound,
                PushFn &&Push) {
  unsigned BV = static_cast<unsigned>(BranchVar);
  Node Zero{N.Lower, N.Upper, Bound, BranchVar, false, Frac};
  Zero.Upper[BV] = 0.0;
  Node One{std::move(N.Lower), std::move(N.Upper), Bound, BranchVar, true,
           1.0 - Frac};
  One.Lower[BV] = 1.0;
  if (Frac >= 0.5) {
    Push(std::move(Zero));
    Push(std::move(One));
  } else {
    Push(std::move(One));
    Push(std::move(Zero));
  }
}

//===----------------------------------------------------------------------===//
// Parallel tree search.
//===----------------------------------------------------------------------===//

/// Work-stealing search over the open list, JobQueue-style: one deque
/// shard per worker, own-end pops, sibling steals when dry. Owners pop
/// their own back (diving) and thieves take a victim's *front* — the
/// oldest node, closest to the root, i.e. the largest unexplored subtree,
/// which keeps steals rare. Termination and result selection are in
/// BranchBound.h's file comment: Pending/Queued counters close the
/// search, the canonical incumbent order makes the answer independent of
/// worker scheduling.
struct ParallelTree {
  struct Shard {
    std::deque<Node> Q;
    std::mutex Mu;
  };

  const LpProblem &P;
  const SolverConfig &Cfg;
  const SearchLimits &Limits;
  unsigned NumWorkers;
  const WarmStart *RootWs; ///< solved root tableau each worker clones

  std::vector<Shard> Shards;

  std::mutex StateMu;
  std::condition_variable WorkCv;
  size_t Queued = 0;  ///< unclaimed nodes across all shards
  size_t Pending = 0; ///< unclaimed + in-flight nodes
  bool Stopping = false; ///< hard abort (unbounded relaxation)

  // Shared incumbent. BestObj is a monotone non-increasing pruning bound
  // read with relaxed loads on the hot path; installs go through IncMu
  // and the canonical order.
  std::atomic<bool> HaveInc{false};
  std::atomic<double> BestObj{std::numeric_limits<double>::infinity()};
  std::mutex IncMu;
  double IncObjective = 0.0;
  std::vector<double> IncValues;

  std::atomic<unsigned> Explored{0};
  std::atomic<bool> LostProof{false};
  std::atomic<bool> SawUnbounded{false};
  /// Simplex pivots spent search-wide (root solve seeds it; every node
  /// adds its own after the LP returns). Only read when a PivotLimit is
  /// set; one relaxed add per node keeps it off the hot path.
  std::atomic<uint64_t> PivotsUsed{0};

  std::vector<SolverStats> WorkerStats;

  ParallelTree(const LpProblem &P, const SolverConfig &Cfg,
               const SearchLimits &Limits, unsigned NumWorkers,
               const WarmStart *RootWs)
      : P(P), Cfg(Cfg), Limits(Limits), NumWorkers(NumWorkers), RootWs(RootWs),
        Shards(NumWorkers), WorkerStats(NumWorkers) {}

  void seedIncumbent(double Obj, std::vector<double> Values) {
    IncObjective = Obj;
    IncValues = std::move(Values);
    BestObj.store(Obj, std::memory_order_relaxed);
    HaveInc.store(true, std::memory_order_relaxed);
  }

  void offerIncumbent(std::vector<double> &&V, double Obj) {
    std::lock_guard<std::mutex> L(IncMu);
    if (canonicallyBetter(Obj, V, HaveInc.load(std::memory_order_relaxed),
                          IncObjective, IncValues)) {
      IncObjective = Obj;
      IncValues = std::move(V);
      BestObj.store(Obj, std::memory_order_relaxed);
      HaveInc.store(true, std::memory_order_release);
    }
  }

  /// Direct push during single-threaded setup (root children).
  void pushInitial(Node &&N) {
    Shards[0].Q.push_back(std::move(N));
    ++Queued;
    ++Pending;
  }

  void pushChild(unsigned Me, Node &&N) {
    Shard &S = Shards[Me];
    {
      std::lock_guard<std::mutex> L(S.Mu);
      S.Q.push_back(std::move(N));
    }
    {
      std::lock_guard<std::mutex> L(StateMu);
      ++Queued;
      ++Pending;
    }
    WorkCv.notify_one();
  }

  /// Pops one node from \p Victim: the owner takes its newest node, a
  /// thief the victim's oldest.
  bool tryPop(unsigned Victim, bool Stealing, Node &Out) {
    Shard &S = Shards[Victim];
    std::lock_guard<std::mutex> L(S.Mu);
    if (S.Q.empty())
      return false;
    if (Stealing) {
      Out = std::move(S.Q.front());
      S.Q.pop_front();
    } else {
      Out = std::move(S.Q.back());
      S.Q.pop_back();
    }
    return true;
  }

  /// Blocks until a node is claimed or the search is over. A claim
  /// reserves one node by decrementing Queued (pushes make the node
  /// visible in its shard *before* incrementing Queued, so a reservation
  /// is always backed); the scan then walks own shard first, siblings
  /// after, retrying on the rare transient miss where concurrent claims
  /// and pushes shuffle which shard holds the backing node.
  bool claimNode(unsigned Me, Node &Out) {
    {
      std::unique_lock<std::mutex> L(StateMu);
      WorkCv.wait(L, [&] { return Stopping || Pending == 0 || Queued > 0; });
      if (Stopping || Queued == 0)
        return false;
      --Queued;
    }
    for (;;) {
      for (unsigned K = 0; K != NumWorkers; ++K)
        if (tryPop((Me + K) % NumWorkers, /*Stealing=*/K != 0, Out))
          return true;
      std::this_thread::yield();
      std::lock_guard<std::mutex> L(StateMu);
      if (Stopping)
        return false;
    }
  }

  void finishNode() {
    std::lock_guard<std::mutex> L(StateMu);
    --Pending;
    if (Pending == 0)
      WorkCv.notify_all();
  }

  void abortSearch() {
    {
      std::lock_guard<std::mutex> L(StateMu);
      Stopping = true;
    }
    WorkCv.notify_all();
  }

  void processNode(unsigned Me, Node N, WarmStart &W, PseudoCosts &PC,
                   SolverStats &St) {
    // Cooperative deadline / pivot-budget check. Unlike the node cap,
    // these limits stop the *whole* search, not just this node: the
    // budget is global, so once it is spent every shard's remaining
    // nodes are equally unaffordable and waking siblings to re-discover
    // that wastes the caller's deadline.
    if (Limits.deadlinePassed() ||
        Limits.pivotsExhausted(PivotsUsed.load(std::memory_order_relaxed))) {
      LostProof.store(true, std::memory_order_relaxed);
      abortSearch();
      return;
    }
    if (N.Bound >= BestObj.load(std::memory_order_relaxed) - Cfg.GapTolerance)
      return;
    uint64_t Ticket = Explored.fetch_add(1, std::memory_order_relaxed);
    if (Ticket >= Limits.NodeCap) {
      Explored.fetch_sub(1, std::memory_order_relaxed);
      LostProof.store(true, std::memory_order_relaxed);
      return;
    }

    LpSolution Relax = Cfg.WarmNodes
                           ? solveLpWarm(P, N.Lower, N.Upper, W, Cfg)
                           : solveLpWithBounds(P, N.Lower, N.Upper, Cfg);
    accumulateLp(St, Relax);
    PivotsUsed.fetch_add(Relax.Iterations + Relax.DualIterations,
                         std::memory_order_relaxed);

    if (N.BranchVar >= 0 && std::isfinite(N.Bound) &&
        Relax.Status == LpStatus::Optimal)
      PC.observe(static_cast<unsigned>(N.BranchVar), N.BranchUp,
                 Relax.Objective - N.Bound, N.FracDist);

    if (Relax.Status == LpStatus::Infeasible)
      return;
    if (Relax.Status == LpStatus::Unbounded) {
      SawUnbounded.store(true, std::memory_order_relaxed);
      abortSearch();
      return;
    }
    if (Relax.Status == LpStatus::IterLimit) {
      LostProof.store(true, std::memory_order_relaxed);
      return;
    }
    if (Relax.Objective >=
        BestObj.load(std::memory_order_relaxed) - Cfg.GapTolerance)
      return;

    int BranchVar = pickBranchVariable(P, Relax.Values, Cfg, PC);
    if (BranchVar < 0) {
      std::vector<double> Cand = std::move(Relax.Values);
      snapIntegers(P, Cand, Cfg.IntegerTolerance);
      double Obj = P.objectiveValue(Cand);
      offerIncumbent(std::move(Cand), Obj);
      return;
    }

    if (!HaveInc.load(std::memory_order_relaxed)) {
      std::vector<double> Rounded;
      if (roundToFeasible(P, Relax.Values, Rounded)) {
        double Obj = P.objectiveValue(Rounded);
        offerIncumbent(std::move(Rounded), Obj);
      }
    }

    double Frac = Relax.Values[static_cast<unsigned>(BranchVar)];
    branchNode(std::move(N), BranchVar, Frac, Relax.Objective,
               [&](Node &&Child) { pushChild(Me, std::move(Child)); });
  }

  void worker(unsigned Me) {
    WarmStart W;
    if (Cfg.WarmNodes && RootWs)
      W = RootWs->clone();
    PseudoCosts PC(P.numVariables());
    SolverStats &St = WorkerStats[Me];
    Node N;
    while (claimNode(Me, N)) {
      processNode(Me, std::move(N), W, PC, St);
      finishNode();
    }
  }

  void run() {
    std::vector<std::thread> Threads;
    Threads.reserve(NumWorkers);
    for (unsigned I = 0; I != NumWorkers; ++I)
      Threads.emplace_back([this, I] { worker(I); });
    for (std::thread &T : Threads)
      T.join();
  }
};

/// The search proper. The public solveMip wraps this to stamp the
/// Outcome label and publish effort metrics on every exit path, so the
/// body is free to return early wherever the tree ends.
MipSolution solveMipImpl(const LpProblem &P, const SolverConfig &Cfg,
                         MipWarmStart *Warm) {
  MipSolution Best;
  Best.Proven = true; // until a node/pivot/time budget is hit

  // Resolve the cooperative limits once: the deadline anchors to this
  // call's entry, and the node cap folds NodeLimit into MaxNodes.
  SearchLimits Limits(Cfg);

  for ([[maybe_unused]] const LpVariable &V : P.Variables)
    assert((!V.Integer || (V.Lower >= 0.0 && V.Upper <= 1.0)) &&
           "only binary integer variables are supported");

  std::vector<double> RootLo(P.numVariables()), RootHi(P.numVariables());
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    RootLo[J] = P.Variables[J].Lower;
    RootHi[J] = P.Variables[J].Upper;
  }

  // Knob-axis / cross-process reuse: the LP basis survives from the
  // previous solve, and the seeded incumbent — when still feasible under
  // the patched bounds/RHS — opens the search with a proven-quality
  // point, so most of the new tree prunes immediately. The feasibility
  // re-check is exact (zero tolerance): admitting a point that is
  // infeasible by even a whisker could prune the true optimum, whereas
  // spuriously rejecting a boundary-tight seed merely loses a head start.
  WarmStart LocalWs;
  WarmStart &Ws = Warm ? Warm->Lp : LocalWs;
  Best.Stats.WarmStarted = Cfg.WarmNodes && Ws.valid();

  bool HaveIncumbent = false;
  if (Warm && Warm->Incumbent.size() == P.numVariables() &&
      P.isFeasible(Warm->Incumbent, /*Tol=*/0.0)) {
    HaveIncumbent = true;
    Best.Stats.SeededIncumbent = true;
    Best.Status = LpStatus::Optimal;
    Best.Objective = P.objectiveValue(Warm->Incumbent);
    Best.Values = Warm->Incumbent;
  }

  unsigned Threads = std::max(1u, Cfg.Threads);

  if (Threads > 1) {
    //===--- Parallel tree search ------------------------------------------===//
    // The root relaxation is solved serially on the caller's tableau —
    // preserving the cross-solve warm-start semantics and the campaign's
    // cold/warm accounting — then the tree below it fans out over the
    // work-stealing pool, each worker re-optimizing its own clone of the
    // solved root tableau.
    if (Limits.NodeCap == 0) {
      Best.Proven = false;
      return Best;
    }
    ++Best.NodesExplored;
    LpSolution Relax = Cfg.WarmNodes
                           ? solveLpWarm(P, RootLo, RootHi, Ws, Cfg)
                           : solveLpWithBounds(P, RootLo, RootHi, Cfg);
    accumulateLp(Best.Stats, Relax);

    if (Relax.Status == LpStatus::Unbounded) {
      Best.Status = LpStatus::Unbounded;
      return Best;
    }
    if (Relax.Status == LpStatus::IterLimit) {
      Best.Proven = false;
      return Best;
    }
    if (Relax.Status == LpStatus::Optimal &&
        !(HaveIncumbent &&
          Relax.Objective >= Best.Objective - Cfg.GapTolerance)) {
      ParallelTree PT(P, Cfg, Limits, Threads, Cfg.WarmNodes ? &Ws : nullptr);
      if (HaveIncumbent)
        PT.seedIncumbent(Best.Objective, Best.Values);

      // The root solve's pivots count against the search-wide budget.
      PT.PivotsUsed.store(Best.Stats.PrimalPivots + Best.Stats.DualPivots,
                          std::memory_order_relaxed);
      int BranchVar = pickBranchVariable(P, Relax.Values, Cfg,
                                         PseudoCosts(P.numVariables()));
      if (BranchVar < 0) {
        std::vector<double> Cand = std::move(Relax.Values);
        snapIntegers(P, Cand, Cfg.IntegerTolerance);
        double Obj = P.objectiveValue(Cand);
        PT.offerIncumbent(std::move(Cand), Obj);
      } else {
        if (!PT.HaveInc.load(std::memory_order_relaxed)) {
          std::vector<double> Rounded;
          if (roundToFeasible(P, Relax.Values, Rounded)) {
            double Obj = P.objectiveValue(Rounded);
            PT.offerIncumbent(std::move(Rounded), Obj);
          }
        }
        Node Root;
        Root.Lower = std::move(RootLo);
        Root.Upper = std::move(RootHi);
        double Frac = Relax.Values[static_cast<unsigned>(BranchVar)];
        branchNode(std::move(Root), BranchVar, Frac, Relax.Objective,
                   [&](Node &&Child) { PT.pushInitial(std::move(Child)); });
        PT.run();
      }

      Best.NodesExplored += PT.Explored.load(std::memory_order_relaxed);
      for (const SolverStats &St : PT.WorkerStats)
        Best.Stats.merge(St);
      if (PT.SawUnbounded.load(std::memory_order_relaxed)) {
        Best.Status = LpStatus::Unbounded;
        return Best;
      }
      if (PT.LostProof.load(std::memory_order_relaxed))
        Best.Proven = false;
      if (PT.HaveInc.load(std::memory_order_acquire)) {
        Best.Status = LpStatus::Optimal;
        Best.Objective = PT.IncObjective;
        Best.Values = std::move(PT.IncValues);
      }
    }
    if (Warm)
      Warm->Incumbent =
          Best.feasible() ? Best.Values : std::vector<double>();
    return Best;
  }

  //===--- Serial tree search ----------------------------------------------===//

  PseudoCosts PC(P.numVariables());

  // Depth-first diving: the open list is a stack, so every node is one
  // bound change from the previous one and the warm repair stays local.
  std::vector<Node> Open;
  Node Root;
  Root.Lower = std::move(RootLo);
  Root.Upper = std::move(RootHi);
  Root.Bound = -std::numeric_limits<double>::infinity();
  Open.push_back(std::move(Root));

  while (!Open.empty()) {
    // Cooperative limits, checked once per node between LP solves: the
    // node cap, the search-wide pivot budget spent so far, and the
    // wall-clock deadline. Breaking with nodes still open loses the
    // optimality proof but keeps the incumbent.
    if (Best.NodesExplored >= Limits.NodeCap ||
        Limits.pivotsExhausted(Best.Stats.PrimalPivots +
                               Best.Stats.DualPivots) ||
        Limits.deadlinePassed()) {
      Best.Proven = false;
      break;
    }
    Node N = std::move(Open.back());
    Open.pop_back();

    // Bound pruning against the incumbent.
    if (HaveIncumbent && N.Bound >= Best.Objective - Cfg.GapTolerance)
      continue;

    ++Best.NodesExplored;
    LpSolution Relax = Cfg.WarmNodes
                           ? solveLpWarm(P, N.Lower, N.Upper, Ws, Cfg)
                           : solveLpWithBounds(P, N.Lower, N.Upper, Cfg);
    accumulateLp(Best.Stats, Relax);

    // Feed the branching history: this node's relaxation tells us what
    // its creating branch actually cost per unit of fraction moved.
    if (N.BranchVar >= 0 && std::isfinite(N.Bound) &&
        Relax.Status == LpStatus::Optimal)
      PC.observe(static_cast<unsigned>(N.BranchVar), N.BranchUp,
                 Relax.Objective - N.Bound, N.FracDist);

    if (Relax.Status == LpStatus::Infeasible)
      continue;
    if (Relax.Status == LpStatus::Unbounded) {
      // A bounded-binary MIP with unbounded relaxation direction in the
      // continuous part: treat as a hard failure.
      Best.Status = LpStatus::Unbounded;
      return Best;
    }
    if (Relax.Status == LpStatus::IterLimit) {
      Best.Proven = false;
      continue;
    }
    if (HaveIncumbent &&
        Relax.Objective >= Best.Objective - Cfg.GapTolerance)
      continue;

    int BranchVar = pickBranchVariable(P, Relax.Values, Cfg, PC);

    if (BranchVar < 0) {
      // Integral: candidate incumbent, installed under the same
      // canonical order the parallel search uses so thread counts agree.
      std::vector<double> Cand = std::move(Relax.Values);
      snapIntegers(P, Cand, Cfg.IntegerTolerance);
      double Obj = P.objectiveValue(Cand);
      if (canonicallyBetter(Obj, Cand, HaveIncumbent, Best.Objective,
                            Best.Values)) {
        HaveIncumbent = true;
        Best.Status = LpStatus::Optimal;
        Best.Objective = Obj;
        Best.Values = std::move(Cand);
      }
      continue;
    }

    // Rounding heuristic for an early incumbent.
    std::vector<double> Rounded;
    if (!HaveIncumbent && roundToFeasible(P, Relax.Values, Rounded)) {
      double Obj = P.objectiveValue(Rounded);
      HaveIncumbent = true;
      Best.Status = LpStatus::Optimal;
      Best.Objective = Obj;
      Best.Values = std::move(Rounded);
    }

    double Frac = Relax.Values[static_cast<unsigned>(BranchVar)];
    branchNode(std::move(N), BranchVar, Frac, Relax.Objective,
               [&](Node &&Child) { Open.push_back(std::move(Child)); });
  }

  if (Warm)
    Warm->Incumbent =
        Best.feasible() ? Best.Values : std::vector<double>();
  return Best;
}

} // namespace

MipSolution ramloc::solveMip(const LpProblem &P, const SolverConfig &Cfg,
                             MipWarmStart *Warm) {
  MipSolution Sol = solveMipImpl(P, Cfg, Warm);
  finalizeOutcome(Sol);

  // Publish this solve's effort and outcome into the global metrics
  // registry. The registry is the one source the campaign summaries, the
  // perf harnesses and --metrics snapshots all read, so nobody re-derives
  // pivot counts by hand; recording happens once per solve (never per
  // node or pivot), so the cost is a handful of relaxed atomic adds.
  MetricsRegistry &M = globalMetrics();
  M.counter("mip.solves").add();
  M.counter("mip.nodes").add(Sol.NodesExplored);
  M.counter("mip.cold_node_solves").add(Sol.Stats.ColdNodeSolves);
  M.counter("mip.warm_node_solves").add(Sol.Stats.WarmNodeSolves);
  M.counter("mip.primal_pivots").add(Sol.Stats.PrimalPivots);
  M.counter("mip.dual_pivots").add(Sol.Stats.DualPivots);
  M.counter("mip.bound_flips").add(Sol.Stats.BoundFlips);
  M.counter("mip.refactorizations").add(Sol.Stats.Refactorizations);
  M.counter("mip.pricing.updates").add(Sol.Stats.PricingUpdates);
  M.counter("mip.pricing.recomputes").add(Sol.Stats.PricingRecomputes);
  M.counter("mip.pricing.drift").add(Sol.Stats.PricingDrift);
  // One reason per cold node solve: the reasons sum to
  // mip.cold_node_solves.
  for (unsigned R = 0; R != NumColdReasons; ++R)
    M.counter(std::string("mip.cold_rebuild.") +
              coldReasonName(static_cast<ColdReason>(R)))
        .add(Sol.Stats.ColdRebuilds[R]);
  if (Sol.Stats.WarmStarted)
    M.counter("mip.warm_starts").add();
  if (Sol.Stats.SeededIncumbent)
    M.counter("mip.seeded_incumbents").add();
  M.counter(std::string("mip.status.") + solveStatusName(Sol.Outcome)).add();
  return Sol;
}
