#include "runtime/prover_service.hpp"

#include <chrono>

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::runtime {

const char* prove_error_name(ProveError e) {
  switch (e) {
    case ProveError::kNone: return "none";
    case ProveError::kSrsTooSmall: return "srs-too-small";
    case ProveError::kUnsatisfiedWitness: return "unsatisfied-witness";
    case ProveError::kInjectedFault: return "injected-fault";
  }
  return "unknown";
}

std::shared_ptr<const plonk::KeyPairResult> ProverService::keys_for(
    const std::string& circuit_id, const plonk::ConstraintSystem& cs) {
  std::shared_future<KeyPtr> entry;
  std::promise<KeyPtr> mine;
  {
    const MutexLock lk(m_);
    const auto it = keys_.find(circuit_id);
    if (it != keys_.end()) {
      counters::key_cache_hits.fetch_add(1, std::memory_order_relaxed);
      entry = it->second;
    } else {
      counters::key_cache_misses.fetch_add(1, std::memory_order_relaxed);
      keys_.emplace(circuit_id, mine.get_future().share());
    }
  }
  if (entry.valid()) return entry.get();  // ready, or wait for the owner

  // We own the miss: preprocess outside the lock, then publish.
  KeyPtr keys;
  if (auto result = plonk::preprocess(cs, srs_)) {
    keys = std::make_shared<const plonk::KeyPairResult>(std::move(*result));
  } else {
    const MutexLock lk(m_);
    keys_.erase(circuit_id);  // SRS too small: cache nothing
  }
  mine.set_value(keys);
  return keys;
}

std::shared_ptr<const plonk::KeyPairResult> ProverService::find_keys(
    const std::string& circuit_id) const {
  const MutexLock lk(m_);
  const auto it = keys_.find(circuit_id);
  if (it == keys_.end() || it->second.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready) {
    return nullptr;
  }
  return it->second.get();
}

std::future<ProveOutcome> ProverService::submit(ProofJob job) {
  counters::jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  auto run = [this, job = std::move(job)]() mutable -> ProveOutcome {
    ProveOutcome out;
    out.attempts = 1;
    // Fail-point: the worker executing this job dies mid-proof. The
    // job's result is a typed, retryable error — never a lost future.
    if (fault::fire(fault::points::kProverJob)) {
      out.error = ProveError::kInjectedFault;
    } else if (const auto keys = keys_for(job.circuit_id, *job.cs); !keys) {
      out.error = ProveError::kSrsTooSmall;
    } else {
      out.proof = plonk::prove(keys->pk, *job.cs, srs_, job.witness, job.rng);
      if (!out.proof) out.error = ProveError::kUnsatisfiedWitness;
    }
    counters::jobs_completed.fetch_add(1, std::memory_order_relaxed);
    if (!out.proof) {
      counters::jobs_failed.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  };
  auto task =
      std::make_shared<std::packaged_task<ProveOutcome()>>(std::move(run));
  auto fut = task->get_future();
  auto& pool = ThreadPool::instance();
  if (pool.concurrency() <= 1 || ThreadPool::on_worker_thread()) {
    (*task)();  // no workers, or we are one: run inline instead of blocking
  } else {
    pool.submit([task] { (*task)(); });
  }
  return fut;
}

ProveOutcome ProverService::prove(const ProofJob& job,
                                  BackoffPolicy policy) {
  // Bounded by construction: Backoff grants at most max_attempts and
  // records a deterministic jittered delay per retry (never slept).
  Backoff backoff(policy);
  ProveOutcome out;
  while (backoff.next_attempt()) {
    ProveOutcome step = submit(job).get();  // job copied per attempt
    out.proof = std::move(step.proof);
    out.error = step.error;
    out.attempts += step.attempts;
    if (out.proof || out.error != ProveError::kInjectedFault) break;
  }
  out.backoff_us = backoff.total_delay_us();
  return out;
}

}  // namespace zkdet::runtime
