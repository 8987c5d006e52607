//===- ThreadPool.h - Minimal thread pool for sound reductions --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool used by the parallel interval
/// reductions. Design constraints, in order:
///
///  * Determinism of the *callers* must not depend on scheduling: the pool
///    only hands out task indices; which thread runs which index is
///    arbitrary, so callers must write results into per-index slots and do
///    any order-sensitive combining themselves (see BatchReduce.cpp).
///  * Workers make no assumption about the FPU state: each task body is
///    responsible for establishing (and restoring, via RAII) the rounding
///    mode it needs. Worker threads are created with the default
///    round-to-nearest mode and must be returned to it after every task.
///  * One parallelFor runs at a time (submissions serialize); the caller
///    participates in the work, so the pool functions correctly even with
///    zero workers.
///
/// Pool size: IGEN_THREADS from the knob table if set (clamped to the
/// machine's useful participant count, see clampParticipants),
/// otherwise max(4, hardware_concurrency) total participants. The
/// minimum of 4 keeps the multithreaded reduction paths exercised
/// (timesliced) even on single-core CI machines.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_THREADPOOL_H
#define IGEN_RUNTIME_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace igen::runtime {

class ThreadPool {
public:
  /// The process-wide pool (created on first use).
  static ThreadPool &instance();

  /// Clamps an IGEN_THREADS value (the knob table's positive count, or 0
  /// when unset or rejected) to at most max(4, \p Hardware) participants.
  /// 0 stays 0: the caller then falls back to the hardware default.
  /// Exposed for testing; `instance()` applies it to the table's value.
  static unsigned clampParticipants(long long Requested, unsigned Hardware);

  /// Creates a pool with \p WorkerCount background workers (the caller of
  /// parallelFor is an additional participant).
  explicit ThreadPool(unsigned WorkerCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of background worker threads.
  unsigned workerCount() const { return Workers.size(); }

  /// Maximum useful participant count (workers + the calling thread).
  unsigned maxParticipants() const { return workerCount() + 1; }

  /// Runs Body(0) .. Body(NumTasks-1), distributing indices over at most
  /// \p MaxParticipants threads (0 = all available; the caller always
  /// participates). Blocks until every task has finished. Task-to-thread
  /// assignment is dynamic (atomic counter) and NOT deterministic.
  void parallelFor(size_t NumTasks, unsigned MaxParticipants,
                   const std::function<void(size_t)> &Body);

private:
  struct Batch;

  void workerLoop();
  static void runTasks(Batch &B);

  std::vector<std::thread> Workers;
  std::mutex M;
  std::condition_variable WorkCv; ///< Workers wait for slots here.
  std::condition_variable DoneCv; ///< The submitter waits for completion.
  std::shared_ptr<Batch> Current; ///< Batch workers may still claim.
  unsigned SlotsLeft = 0;         ///< Worker slots left in Current.
  bool Stop = false;
  std::mutex SubmitM; ///< Serializes concurrent parallelFor calls.
};

} // namespace igen::runtime

#endif // IGEN_RUNTIME_THREADPOOL_H
