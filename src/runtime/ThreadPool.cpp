//===- ThreadPool.cpp - Minimal thread pool -------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadPool.h"

#include "support/Knobs.h"

#include <algorithm>
#include <atomic>

namespace igen::runtime {

/// One parallelFor invocation. Heap-allocated and shared so that a worker
/// waking up late (after the batch already completed and a new one
/// started) still operates on a consistent, exhausted object instead of
/// racing with the next batch's setup.
struct ThreadPool::Batch {
  std::function<void(size_t)> Body;
  size_t NumTasks = 0;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};
  ThreadPool *Pool = nullptr;
};

unsigned ThreadPool::clampParticipants(long long Requested,
                                       unsigned Hardware) {
  // Oversubscribing past the hardware only adds scheduling noise; the
  // floor of 4 matches the default so small machines still exercise the
  // multithreaded paths.
  return static_cast<unsigned>(
      std::min<long long>(Requested, std::max(4u, Hardware)));
}

namespace {

unsigned defaultParticipants() {
  unsigned HW = std::thread::hardware_concurrency();
  unsigned FromEnv = ThreadPool::clampParticipants(knobInt(Knob::Threads), HW);
  return FromEnv ? FromEnv : std::max(4u, HW);
}

} // namespace

ThreadPool &ThreadPool::instance() {
  static ThreadPool Pool(defaultParticipants() - 1);
  return Pool;
}

ThreadPool::ThreadPool(unsigned WorkerCount) {
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I < WorkerCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runTasks(Batch &B) {
  for (;;) {
    size_t I = B.Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= B.NumTasks)
      return;
    B.Body(I);
    if (B.Done.fetch_add(1, std::memory_order_acq_rel) + 1 == B.NumTasks) {
      std::lock_guard<std::mutex> L(B.Pool->M);
      B.Pool->DoneCv.notify_all();
    }
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::shared_ptr<Batch> B;
    {
      std::unique_lock<std::mutex> L(M);
      WorkCv.wait(L, [this] { return Stop || SlotsLeft > 0; });
      if (Stop)
        return;
      --SlotsLeft;
      B = Current;
    }
    runTasks(*B);
  }
}

void ThreadPool::parallelFor(size_t NumTasks, unsigned MaxParticipants,
                             const std::function<void(size_t)> &Body) {
  if (NumTasks == 0)
    return;
  unsigned Avail = maxParticipants();
  unsigned Participants =
      MaxParticipants == 0 ? Avail : std::min(MaxParticipants, Avail);
  if (NumTasks < Participants)
    Participants = static_cast<unsigned>(NumTasks);
  if (Participants <= 1) {
    for (size_t I = 0; I < NumTasks; ++I)
      Body(I);
    return;
  }

  std::lock_guard<std::mutex> SubmitLock(SubmitM);
  auto B = std::make_shared<Batch>();
  B->Body = Body;
  B->NumTasks = NumTasks;
  B->Pool = this;
  {
    std::lock_guard<std::mutex> L(M);
    Current = B;
    SlotsLeft = Participants - 1;
  }
  WorkCv.notify_all();

  runTasks(*B); // The caller participates.

  {
    std::unique_lock<std::mutex> L(M);
    DoneCv.wait(L, [&] {
      return B->Done.load(std::memory_order_acquire) == B->NumTasks;
    });
    // Unclaimed slots are stale once the batch is done; a late worker
    // claiming Current anyway finds it exhausted and goes back to sleep.
    if (Current == B) {
      Current.reset();
      SlotsLeft = 0;
    }
  }
}

} // namespace igen::runtime
