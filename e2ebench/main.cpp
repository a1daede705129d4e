// zkdet_e2e: the end-to-end ZKDET benchmark binary.
//
//   zkdet_e2e --workload exchange|audit|transfer --seed N --seconds S
//             --trace 0|1 --run-dir DIR [--trace-out FILE]
//
// Runs one workload against the public APIs of core, rpc and runtime,
// checks every output, and prints as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Lines before it start
// with '#' and are for people. Exit code: 0 when every correctness gate
// held, 1 when a gate failed (the result line then says "correct":
// false), 2 on a usage or set-up error (no result line).
//
// `run.py` next to this file builds this binary and is the command to
// call; it owns the per-run directory and removes it afterwards.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace zkdet;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "zkdet_e2e: %s\nusage: zkdet_e2e --workload "
               "exchange|audit|transfer --seed N --seconds S --trace 0|1 "
               "--run-dir DIR [--trace-out FILE] [--inject-accepted-probe]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--inject-accepted-probe") {
      opt.inject_accepted_probe = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--run-dir") {
      opt.run_dir = argv[++i];
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.run_dir.empty()) return usage("--run-dir is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  e2e::Result res;
  try {
    if (opt.workload == "exchange") {
      e2e::run_exchange(opt, res);
    } else if (opt.workload == "audit") {
      e2e::run_audit(opt, res);
    } else if (opt.workload == "transfer") {
      e2e::run_transfer(opt, res);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zkdet_e2e: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  std::printf("%s\n", res.json().c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
