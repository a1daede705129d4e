#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>

#include "check/mutex.hpp"
#include "runtime/stats.hpp"

namespace zkdet::runtime {

namespace {

// -1 when not a pool worker; otherwise the worker's index.
thread_local std::ptrdiff_t tl_worker_index = -1;

std::size_t default_total_threads() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at pool start-up
  if (const char* env = std::getenv("ZKDET_THREADS")) {  // zkdet-lint: allow(env-knob)
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(v);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

struct ThreadPool::Impl {
  struct WorkerQueue {
    Mutex m{check::LockLevel::kPoolQueue, "pool.worker-queue"};
    std::deque<std::function<void()>> tasks ZKDET_GUARDED_BY(m);
  };

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> threads;

  // Sleep/wake machinery: `pending` counts tasks sitting in any deque;
  // workers sleep on `cv` when it is zero. kPoolSleep sits above
  // kPoolQueue in the lock order because push() counts and pop()
  // uncounts a task under its queue lock (note_taken).
  Mutex sleep_m{check::LockLevel::kPoolSleep, "pool.sleep"};
  CondVar cv;
  std::size_t pending ZKDET_GUARDED_BY(sleep_m) = 0;
  bool stopping ZKDET_GUARDED_BY(sleep_m) = false;

  std::atomic<std::size_t> rr{0};  // round-robin cursor for submissions

  void push(std::function<void()> task) {
    const std::size_t w =
        rr.fetch_add(1, std::memory_order_relaxed) % queues.size();
    {
      // Count the task before it becomes visible: a worker pops (and
      // decrements `pending`) under this queue lock, so bumping it here
      // keeps the counter from missing a task taken in between.
      const MutexLock lk(queues[w]->m);
      queues[w]->tasks.push_back(std::move(task));
      const MutexLock sleep_lk(sleep_m);
      ++pending;
    }
    cv.notify_one();
  }

  // Pops one task (own deque back first, then steal from siblings'
  // fronts). Returns false when every deque is empty.
  bool pop(std::size_t self, std::function<void()>& out) {
    {
      auto& q = *queues[self];
      const MutexLock lk(q.m);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.back());
        q.tasks.pop_back();
        note_taken();
        return true;
      }
    }
    for (std::size_t d = 1; d < queues.size(); ++d) {
      auto& q = *queues[(self + d) % queues.size()];
      const MutexLock lk(q.m);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.front());
        q.tasks.pop_front();
        note_taken();
        return true;
      }
    }
    return false;
  }

  void note_taken() {
    const MutexLock lk(sleep_m);
    if (pending > 0) --pending;
  }

  void worker_loop(std::size_t idx) {
    tl_worker_index = static_cast<std::ptrdiff_t>(idx);
    // Runs until the pool shuts down, not until an attempt cap.
    for (;;) {  // zkdet-lint: allow(unbounded-retry)
      std::function<void()> task;
      if (pop(idx, task)) {
        task();
        continue;
      }
      UniqueLock lk(sleep_m);
      while (!stopping && pending == 0) cv.wait(lk);
      if (stopping) return;
    }
  }
};

ThreadPool::ThreadPool(std::size_t total_threads) {
  start(total_threads > 0 ? total_threads - 1 : 0);
}

ThreadPool::~ThreadPool() { stop(); }

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(default_total_threads());
  return pool;
}

void ThreadPool::start(std::size_t workers) {
  workers_n_ = workers;
  if (workers == 0) return;
  impl_ = new Impl;
  impl_->queues.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->queues.push_back(std::make_unique<Impl::WorkerQueue>());
  }
  impl_->threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this, i] { impl_->worker_loop(i); });
  }
}

void ThreadPool::stop() {
  if (impl_ == nullptr) return;
  {
    const MutexLock lk(impl_->sleep_m);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
  impl_ = nullptr;
  workers_n_ = 0;
}

void ThreadPool::configure(std::size_t total_threads) {
  stop();
  start(total_threads > 0 ? total_threads - 1 : 0);
}

bool ThreadPool::on_worker_thread() { return tl_worker_index >= 0; }

std::size_t ThreadPool::pending_tasks() const {
  if (impl_ == nullptr) return 0;
  const MutexLock lk(impl_->sleep_m);
  return impl_->pending;
}

void ThreadPool::submit(std::function<void()> task) {
  if (impl_ == nullptr) {
    task();  // single-threaded configuration: run inline
    return;
  }
  impl_->push(std::move(task));
}

namespace {

// Shared state of one parallel_for region. Chunks are claimed from
// `next`; the region is over when `done` reaches `num_chunks`. Tickets
// keep the context alive via shared_ptr, so a ticket drained after the
// caller returned only observes an exhausted cursor.
struct ForContext {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  Mutex m{check::LockLevel::kPoolRegion, "parallel_for.region"};
  CondVar cv;
  std::exception_ptr error ZKDET_GUARDED_BY(m);  // first failure

  // Claims and runs chunks until the cursor is exhausted.
  void drain(bool stolen) {
    // Bounded by the chunk cursor, not an attempt count.
    for (;;) {  // zkdet-lint: allow(unbounded-retry)
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t b = c * grain;
      const std::size_t e = std::min(n, b + grain);
      try {
        (*body)(b, e);
      } catch (...) {
        const MutexLock lk(m);
        if (!error) error = std::current_exception();
      }
      counters::chunks_executed.fetch_add(1, std::memory_order_relaxed);
      if (stolen) {
        counters::chunks_stolen.fetch_add(1, std::memory_order_relaxed);
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        const MutexLock lk(m);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t num_chunks = (n + grain - 1) / grain;
  if (impl_ == nullptr || num_chunks == 1) {
    body(0, n);
    return;
  }
  counters::parallel_regions.fetch_add(1, std::memory_order_relaxed);

  auto ctx = std::make_shared<ForContext>();
  ctx->body = &body;
  ctx->n = n;
  ctx->grain = grain;
  ctx->num_chunks = num_chunks;

  // One ticket per worker (bounded by leftover chunks); each ticket
  // drains chunks next to the caller.
  const std::size_t tickets = std::min(workers_n_, num_chunks - 1);
  for (std::size_t t = 0; t < tickets; ++t) {
    impl_->push([ctx] { ctx->drain(/*stolen=*/true); });
  }
  ctx->drain(/*stolen=*/false);

  if (ctx->done.load(std::memory_order_acquire) != num_chunks) {
    UniqueLock lk(ctx->m);
    while (ctx->done.load(std::memory_order_acquire) != num_chunks) {
      ctx->cv.wait(lk);
    }
  }
  std::exception_ptr err;
  {
    const MutexLock lk(ctx->m);
    err = ctx->error;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t target = 4 * concurrency();
  parallel_for(n, std::max<std::size_t>(1, n / target), body);
}

}  // namespace zkdet::runtime
