//===- campaign/JobQueue.h - work-stealing thread pool ----------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool built from std::thread, mutexes and a
/// condition variable. Each worker owns a deque: it pops its own work
/// from the front and steals from the back of its siblings when idle,
/// so a handful of long pipeline runs (sha, rijndael) cannot strand the
/// other workers behind them. Campaign jobs are independent and write
/// to disjoint result slots, so the pool needs no futures or result
/// plumbing — callers submit closures and wait for quiescence.
///
/// A running job may also lend its thread back to the pool: a worker
/// that would otherwise block (the campaign's profile waits) calls
/// runQueued() to execute one queued job inline before it re-checks what
/// it was waiting for.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CAMPAIGN_JOBQUEUE_H
#define RAMLOC_CAMPAIGN_JOBQUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ramloc {

/// The pool. Workers start on construction and join on destruction;
/// destruction waits for all submitted jobs to finish.
class JobQueue {
public:
  using Job = std::function<void()>;

  /// \p Workers is clamped to at least 1.
  explicit JobQueue(unsigned Workers);
  ~JobQueue();

  JobQueue(const JobQueue &) = delete;
  JobQueue &operator=(const JobQueue &) = delete;

  /// Enqueues \p J (round-robin across worker deques). Safe to call from
  /// multiple threads and from inside running jobs.
  void submit(Job J);

  /// Blocks until every submitted job has finished executing.
  void wait();

  /// Runs one queued job (own deque first, then a sibling's) on the
  /// calling thread and returns true; returns false when nothing is
  /// queued. Valid only on this pool's own worker threads, i.e. from
  /// inside a running job; any other caller gets false and runs nothing.
  bool runQueued();

  unsigned workerCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Jobs that ran on a deque other than the one they were pushed to.
  /// Diagnostics only (reported by ramloc-batch --verbose).
  size_t stealCount() const;

private:
  struct WorkerState {
    std::deque<Job> Deque;
    std::mutex Mu;
  };

  void workerLoop(unsigned Self);
  bool tryRunOne(unsigned Self);

  std::vector<std::unique_ptr<WorkerState>> Queues;
  std::vector<std::thread> Workers;

  /// Guards sleeping/waking and the counters below.
  mutable std::mutex StateMu;
  std::condition_variable WorkCv; ///< signalled when work arrives / stops
  std::condition_variable IdleCv; ///< signalled when Pending hits zero
  size_t Pending = 0;             ///< submitted but not yet finished
  size_t Steals = 0;
  bool Stopping = false;
  unsigned NextQueue = 0; ///< round-robin submission cursor
};

} // namespace ramloc

#endif // RAMLOC_CAMPAIGN_JOBQUEUE_H
