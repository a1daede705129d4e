// Process-wide work-stealing thread pool.
//
// One pool per process (ThreadPool::instance()); every parallel stage in
// the stack — Pippenger MSM windows, NTT butterfly layers, the Plonk
// prover's independent per-wire/per-round polynomial work, and whole
// proof jobs from ProverService — shares the same fixed set of workers,
// so concurrency is bounded regardless of how deeply stages nest.
//
// Topology: N-1 worker threads plus the calling thread, for a total
// concurrency of N. N defaults to std::thread::hardware_concurrency()
// and can be overridden with the ZKDET_THREADS environment variable or
// reconfigured at runtime with configure() (tests and benches sweep it).
//
// Scheduling: each worker owns a deque; external submissions round-robin
// across deques, a worker pops from the back of its own deque and steals
// from the front of a sibling's when empty. parallel_for() decomposes an
// index range into chunks claimed from a shared atomic cursor: the
// caller participates (it is never blocked out of its own loop), idle
// workers pick up "ticket" tasks that drain chunks alongside it, and a
// ticket that arrives after the loop finished is a cheap no-op. Chunk
// bodies must not block on other pool work; under that contract nested
// parallel_for calls are deadlock-free (the innermost caller simply runs
// its own chunks when all workers are busy).
//
// Determinism: chunks write to disjoint, index-addressed outputs, so
// results are bitwise independent of the worker count or interleaving.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace zkdet::runtime {

class ThreadPool {
 public:
  // The process-wide pool. First call reads ZKDET_THREADS (total
  // concurrency, >= 1); unset or invalid falls back to
  // hardware_concurrency().
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total concurrency: worker threads + the calling thread.
  [[nodiscard]] std::size_t concurrency() const { return workers_n_ + 1; }

  // Re-create the pool with `total_threads` total concurrency (>= 1,
  // i.e. total_threads - 1 workers). Must only be called while no pool
  // work is in flight.
  void configure(std::size_t total_threads);

  // Runs body(begin, end) over a partition of [0, n) with chunks of at
  // most `grain` indices. Blocks until every index has been processed.
  // The first exception thrown by a body is rethrown on the caller.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Grain chosen automatically (~4 chunks per thread).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Fire-and-forget task (ProverService proof jobs). The task runs on
  // some worker; completion is signalled by the caller's own future.
  void submit(std::function<void()> task);

  // Tasks submitted but not yet taken by a worker; 0 whenever the pool
  // is idle (idle workers sleep only while it is 0).
  [[nodiscard]] std::size_t pending_tasks() const;

  // True when the current thread is one of the pool's workers. Used to
  // run would-be-blocking waits inline instead of deadlocking the pool.
  [[nodiscard]] static bool on_worker_thread();

  // Applies fn(i) for i in [0, items.size()) and returns the results in
  // index order (deterministic regardless of scheduling).
  template <typename T, typename F>
  std::vector<T> parallel_map(std::size_t n, F&& fn) {
    std::vector<T> out(n);
    parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
    });
    return out;
  }

 private:
  explicit ThreadPool(std::size_t total_threads);

  struct Impl;
  Impl* impl_ = nullptr;  // worker state; rebuilt by configure()
  std::size_t workers_n_ = 0;

  void start(std::size_t workers);
  void stop();
};

// Free-function shorthands for the shared pool.
inline void parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::instance().parallel_for(n, body);
}
inline void parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::instance().parallel_for(n, grain, body);
}

}  // namespace zkdet::runtime
