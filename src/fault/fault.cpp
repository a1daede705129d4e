#include "fault/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "check/mutex.hpp"

namespace zkdet::fault {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

struct PointState {
  Schedule schedule;
  std::uint64_t hits = 0;
  std::uint64_t failures = 0;
};

struct Registry {
  // Innermost leaf of the lock order: fire() runs under txpool, ledger
  // and storage locks.
  Mutex m{check::LockLevel::kFault, "fault.registry"};
  std::unordered_map<std::string, PointState> points ZKDET_GUARDED_BY(m);
};

Registry& registry() {
  static Registry r;
  return r;
}

// SplitMix64: the per-hit decision hash for probabilistic schedules.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool decide(const Schedule& s, std::uint64_t hit) {
  switch (s.mode) {
    case Mode::kAlways:
      return true;
    case Mode::kOnce:
      return hit == s.first_hit;
    case Mode::kTimes:
      return hit >= s.first_hit && hit < s.first_hit + s.count;
    case Mode::kProbability: {
      if (s.p <= 0.0) return false;
      if (s.p >= 1.0) return true;
      // Counter-mode: the decision for hit i is a pure function of
      // (seed, i), so the fault trace replays exactly from the spec.
      const auto threshold = static_cast<std::uint64_t>(
          s.p * 18446744073709551615.0);  // p * (2^64 - 1)
      return splitmix64(s.seed ^ (hit * 0xd1b54a32d192ed03ull)) <= threshold;
    }
  }
  return false;
}

// Parses one `spec` (the right-hand side of point=spec). Returns
// nullopt on malformed input.
std::optional<Schedule> parse_schedule(const std::string& spec) {
  auto parse_u64 = [](const std::string& s,
                      std::uint64_t& out) -> bool {
    if (s.empty()) return false;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out = v;
    return true;
  };

  if (spec == "always") return Schedule::always();

  if (spec.rfind("once", 0) == 0) {
    std::uint64_t at = 1;
    if (spec.size() > 4) {
      if (spec[4] != '@' || !parse_u64(spec.substr(5), at) || at == 0) {
        return std::nullopt;
      }
    }
    return Schedule::once(at);
  }

  if (spec.rfind("times:", 0) == 0) {
    std::string rest = spec.substr(6);
    std::uint64_t from = 1;
    const auto amp = rest.find('@');
    if (amp != std::string::npos) {
      if (!parse_u64(rest.substr(amp + 1), from) || from == 0) {
        return std::nullopt;
      }
      rest = rest.substr(0, amp);
    }
    std::uint64_t n = 0;
    if (!parse_u64(rest, n) || n == 0) return std::nullopt;
    return Schedule::times(n, from);
  }

  if (spec.rfind("prob:", 0) == 0) {
    const std::string rest = spec.substr(5);
    const auto colon = rest.find(':');
    if (colon == std::string::npos) return std::nullopt;
    char* end = nullptr;
    const double p = std::strtod(rest.substr(0, colon).c_str(), &end);
    if (end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) {
      return std::nullopt;
    }
    std::uint64_t seed = 0;
    if (!parse_u64(rest.substr(colon + 1), seed)) return std::nullopt;
    return Schedule::probability(p, seed);
  }

  return std::nullopt;
}

// Installs ZKDET_FAULTS before main() so instrumented code needs no
// explicit opt-in call.
const std::size_t g_env_installed = install_from_env();

}  // namespace

namespace detail {

bool fire_slow(const char* point) {
  Registry& r = registry();
  const MutexLock lk(r.m);
  const auto it = r.points.find(point);
  if (it == r.points.end()) return false;
  PointState& st = it->second;
  ++st.hits;
  const bool fail = decide(st.schedule, st.hits);
  if (fail) ++st.failures;
  return fail;
}

}  // namespace detail

void inject(const std::string& point, const Schedule& schedule) {
  Registry& r = registry();
  const MutexLock lk(r.m);
  r.points[point] = PointState{schedule, 0, 0};
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void clear(const std::string& point) {
  Registry& r = registry();
  const MutexLock lk(r.m);
  r.points.erase(point);
  if (r.points.empty()) {
    detail::g_armed.store(false, std::memory_order_relaxed);
  }
}

void clear_all() {
  Registry& r = registry();
  const MutexLock lk(r.m);
  r.points.clear();
  detail::g_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t hits(const std::string& point) {
  Registry& r = registry();
  const MutexLock lk(r.m);
  const auto it = r.points.find(point);
  return it == r.points.end() ? 0 : it->second.hits;
}

std::uint64_t failures(const std::string& point) {
  Registry& r = registry();
  const MutexLock lk(r.m);
  const auto it = r.points.find(point);
  return it == r.points.end() ? 0 : it->second.failures;
}

std::size_t install_spec(const std::string& spec) {
  std::size_t installed = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto semi = spec.find(';', pos);
    const std::string entry = spec.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "zkdet-fault: ignoring malformed entry '%s'\n",
                   entry.c_str());
      continue;
    }
    const auto schedule = parse_schedule(entry.substr(eq + 1));
    if (!schedule) {
      std::fprintf(stderr, "zkdet-fault: ignoring malformed schedule '%s'\n",
                   entry.c_str());
      continue;
    }
    inject(entry.substr(0, eq), *schedule);
    ++installed;
  }
  return installed;
}

std::size_t install_from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before main()
  const char* env = std::getenv("ZKDET_FAULTS");  // zkdet-lint: allow(env-knob)
  if (env == nullptr || *env == '\0') return 0;
  return install_spec(env);
}

}  // namespace zkdet::fault
