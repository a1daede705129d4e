#include "rpc/admission.hpp"

#include <algorithm>
#include <cstdlib>

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "runtime/stats.hpp"

namespace zkdet::rpc {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at construction
  const char* env = std::getenv(name);  // zkdet-lint: allow(env-knob)
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || n == 0) return fallback;
  return static_cast<std::size_t>(n);
}

}  // namespace

AdmissionConfig AdmissionConfig::from_env() {
  AdmissionConfig cfg;
  cfg.queue_capacity = env_size("ZKDET_RPC_QUEUE", cfg.queue_capacity);
  cfg.max_inflight = env_size("ZKDET_RPC_INFLIGHT", cfg.max_inflight);
  return cfg;
}

bool AdmissionQueue::offer(std::uint64_t session, Request req) {
  MutexLock lock(mu_);
  // The fail-point sheds an otherwise-admissible request: clients must
  // survive Overloaded at any position, not just under real pressure.
  if (q_.size() >= cfg_.queue_capacity ||
      fault::fire(fault::points::kRpcQueueFull)) {
    runtime::counters::rpc_shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  q_.push_back(Admitted{session, std::move(req)});
  runtime::counters::rpc_admitted.fetch_add(1, std::memory_order_relaxed);
  runtime::counters::rpc_queue_depth.store(q_.size(),
                                           std::memory_order_relaxed);
  return true;
}

std::vector<Admitted> AdmissionQueue::take_round() {
  MutexLock lock(mu_);
  const std::size_t n = std::min(q_.size(), cfg_.max_inflight);
  std::vector<Admitted> round;
  round.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    round.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  runtime::counters::rpc_queue_depth.store(q_.size(),
                                           std::memory_order_relaxed);
  return round;
}

std::size_t AdmissionQueue::depth() const {
  MutexLock lock(mu_);
  return q_.size();
}

}  // namespace zkdet::rpc
