#include "runtime/stats.hpp"

namespace zkdet::runtime {

namespace counters {
#define ZKDET_STATS_COUNTER(name) std::atomic<std::uint64_t> name{0};
ZKDET_RUNTIME_COUNTERS(ZKDET_STATS_COUNTER)
#undef ZKDET_STATS_COUNTER
}  // namespace counters

StatsSnapshot stats() {
  StatsSnapshot s;
#define ZKDET_STATS_LOAD(name) \
  s.name = counters::name.load(std::memory_order_relaxed);
  ZKDET_RUNTIME_COUNTERS(ZKDET_STATS_LOAD)
#undef ZKDET_STATS_LOAD
  return s;
}

void reset_stats() {
#define ZKDET_STATS_RESET(name) counters::name.store(0, std::memory_order_relaxed);
  ZKDET_RUNTIME_COUNTERS(ZKDET_STATS_RESET)
#undef ZKDET_STATS_RESET
}

}  // namespace zkdet::runtime
