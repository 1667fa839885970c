//===- campaign/JobQueue.cpp - work-stealing thread pool -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/JobQueue.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <chrono>

using namespace ramloc;

namespace {

/// The pool and deque index of the calling worker thread; null on every
/// thread that is not a JobQueue worker.
thread_local const JobQueue *CurrentPool = nullptr;
thread_local unsigned CurrentWorker = 0;

} // namespace

JobQueue::JobQueue(unsigned WorkerCount) {
  if (WorkerCount == 0)
    WorkerCount = 1;
  Queues.reserve(WorkerCount);
  for (unsigned I = 0; I != WorkerCount; ++I)
    Queues.push_back(std::make_unique<WorkerState>());
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I != WorkerCount; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

JobQueue::~JobQueue() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void JobQueue::submit(Job J) {
  unsigned Target;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Pending;
    Target = NextQueue;
    NextQueue = (NextQueue + 1) % Queues.size();
  }
  {
    std::lock_guard<std::mutex> Lock(Queues[Target]->Mu);
    Queues[Target]->Deque.push_back(std::move(J));
  }
  WorkCv.notify_one();
}

void JobQueue::wait() {
  std::unique_lock<std::mutex> Lock(StateMu);
  IdleCv.wait(Lock, [this] { return Pending == 0; });
}

bool JobQueue::runQueued() {
  if (CurrentPool != this)
    return false;
  return tryRunOne(CurrentWorker);
}

size_t JobQueue::stealCount() const {
  std::lock_guard<std::mutex> Lock(StateMu);
  return Steals;
}

bool JobQueue::tryRunOne(unsigned Self) {
  Job J;
  bool Stolen = false;
  // Own deque first (front: oldest of our own work)...
  {
    WorkerState &Mine = *Queues[Self];
    std::lock_guard<std::mutex> Lock(Mine.Mu);
    if (!Mine.Deque.empty()) {
      J = std::move(Mine.Deque.front());
      Mine.Deque.pop_front();
    }
  }
  // ...then steal from the back of a sibling.
  if (!J) {
    for (size_t Off = 1; Off != Queues.size() && !J; ++Off) {
      WorkerState &Victim = *Queues[(Self + Off) % Queues.size()];
      std::lock_guard<std::mutex> Lock(Victim.Mu);
      if (!Victim.Deque.empty()) {
        J = std::move(Victim.Deque.back());
        Victim.Deque.pop_back();
        Stolen = true;
      }
    }
  }
  if (!J)
    return false;

  {
    // Name the thread lazily, per job rather than at pool start: the
    // recorder is typically installed after the pool's threads exist,
    // and naming is one TLS lookup — noise against a whole job.
    if (TraceRecorder *R = TraceRecorder::current())
      R->setThreadName("worker-" + std::to_string(Self));
    TraceSpan Span("job", "queue");
    if (Span.active() && Stolen)
      Span.arg("stolen", "1");
    J();
  }

  MetricsRegistry &M = globalMetrics();
  M.counter("jobqueue.jobs").add();
  if (Stolen)
    M.counter("jobqueue.steals").add();
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (Stolen)
      ++Steals;
    if (--Pending == 0)
      IdleCv.notify_all();
  }
  return true;
}

void JobQueue::workerLoop(unsigned Self) {
  CurrentPool = this;
  CurrentWorker = Self;
  Counter &IdleNs = globalMetrics().counter("jobqueue.idle_ns");
  for (;;) {
    if (tryRunOne(Self))
      continue;
    auto IdleFrom = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> Lock(StateMu);
    if (Stopping)
      return;
    // Re-check under the lock: a job may have been submitted between the
    // failed scan and acquiring StateMu. Pending > 0 with an empty scan
    // can also mean jobs are *running* elsewhere, so wake on a timeout
    // too rather than requiring a perfectly paired notify.
    WorkCv.wait_for(Lock, std::chrono::milliseconds(10));
    IdleNs.add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - IdleFrom)
            .count()));
  }
}
