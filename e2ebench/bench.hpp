// Shared pieces of the end-to-end benchmark binary: options, sample
// statistics, the result line, counter snapshots and the span tracer.
//
// Everything here is measured from the benchmark's own side of the
// public APIs: wall time around each call it makes into a layer, and
// the public counter snapshots runtime::stats() / Ledger::stats() read
// at the same boundaries. Nothing reaches into the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ledger/ledger.hpp"
#include "runtime/stats.hpp"

namespace zkdet::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time consumed so far by all threads of this process, and by the
// calling thread, in seconds.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

// Thread CPU time of one run of a fixed reference kernel: a dependent
// chain of 64x64->128-bit multiplies, the instruction mix of the field
// arithmetic under every layer, with no memory traffic. It is the
// benchmark's own code, so no change to src/ moves it; what moves it is
// the host. On a shared host the CPU time of the same work swung by up
// to 1.8x between runs; the reference swings with it.
[[nodiscard]] double reference_cpu_s();
// The reference kernel's CPU time on the host the benchmark was defined
// on (4-vCPU x86-64 KVM guest, quiet); op_cpu_norm_ms is scaled to it.
inline constexpr double kReferenceNominalS = 0.025;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Private per-run directory (ledgers, replicas, the RPC socket). The
  // caller creates it and removes it afterwards.
  std::string run_dir;
  // Where the traced run writes its spans (empty: not written).
  std::string trace_out;
  // Smoke-test hook: audit presents an honest chain as a forged probe,
  // so the "every probe is rejected" gate must fail.
  bool inject_accepted_probe = false;
};

// A set of timings or other samples; percentiles use nearest rank.
class Samples {
 public:
  void add(double v) { xs_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] double median() const;
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> xs_;
};

// The run's outcome: correctness gates, operation counts and metrics.
class Result {
 public:
  // Records a correctness gate; a false `ok` makes the run incorrect.
  void gate(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  // Human-readable line on stdout, before the final JSON line.
  void note(const std::string& text) const;

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::string json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// Counter snapshot at a layer boundary.
struct Counters {
  runtime::StatsSnapshot rt;
  std::uint64_t ledger_records = 0;
  std::uint64_t chain_height = 0;
};

// Per-field difference `b - a` of the monotone counters (gauges and
// the settle_max_fold high-water mark are taken from `b`).
[[nodiscard]] runtime::StatsSnapshot delta(const runtime::StatsSnapshot& a,
                                           const runtime::StatsSnapshot& b);

// Peak resident set size of this process so far, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// Polls the runtime gauges on a side thread while alive and keeps their
// maxima: the txpool and admission queues fill and drain inside one
// pump, so sampling only at the benchmark's own boundaries would always
// read them empty. Only the traced run starts one.
class GaugeSampler {
 public:
  GaugeSampler();
  ~GaugeSampler();
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  [[nodiscard]] std::uint64_t txpool_depth_max() const {
    return txpool_max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rpc_depth_max() const {
    return rpc_max_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> txpool_max_{0};
  std::atomic<std::uint64_t> rpc_max_{0};
  std::thread thread_;
};

// In-memory span recorder. Disabled, every call is a no-op, so the
// untraced run pays one branch per boundary. Enabled, each span keeps
// name, start, end, parent span, the operation id it belongs to and the
// runtime/ledger counter deltas across it; write() dumps them as JSON.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  // Ledger and chain whose appended records and sealed blocks are part
  // of each span's deltas.
  void watch(const ledger::Ledger* ledger, const chain::Chain* chain) {
    ledger_ = ledger;
    chain_ = chain;
  }

  class Span {
   public:
    Span(Tracer* tr, std::size_t index) : tr_(tr), index_(index) {}
    Span(Span&& o) noexcept : tr_(o.tr_), index_(o.index_) { o.tr_ = nullptr; }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() { end(); }
    // Closes the span now (idempotent).
    void end();

   private:
    Tracer* tr_;
    std::size_t index_;
  };

  // Opens a span nested under the innermost open one.
  [[nodiscard]] Span span(const char* name, std::uint64_t op_id);
  // Records an already-finished span without counters (request
  // lifetimes, which overlap each other rather than nest).
  void record(const char* name, std::uint64_t op_id, Clock::time_point start,
              Clock::time_point end);

  // Sum and count of the closed spans called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  [[nodiscard]] double mean_s(const std::string& name) const;
  // Wall time spent inside the tracer itself (counter snapshots and
  // bookkeeping), the directly measured part of the tracing overhead.
  [[nodiscard]] double self_s() const { return self_ns_ * 1e-9; }
  [[nodiscard]] std::size_t spans() const { return spans_.size(); }

  // Writes every span as JSON; false on an IO error.
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  struct Rec {
    const char* name = nullptr;
    std::uint64_t op_id = 0;
    std::int64_t parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool has_counters = false;
    Counters at_start;
    Counters diff;
  };
  struct Agg {
    double total = 0;
    std::size_t count = 0;
  };
  [[nodiscard]] Counters snapshot() const;
  void close(std::size_t index);

  bool enabled_;
  Clock::time_point t0_;
  const ledger::Ledger* ledger_ = nullptr;
  const chain::Chain* chain_ = nullptr;
  std::vector<Rec> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, Agg> agg_;
  std::uint64_t self_ns_ = 0;
};

// Per-layer metric names and units: the one table the traced
// run's output and BENCHMARK.json's per_layer list follow. Every traced
// run reports every entry; a layer that does no work reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

// Fills the counter-derived per-layer metrics shared by all workloads
// from the timed loop's counter delta. `ops` is the workload's unit
// operation count and `verify_calls` the plonk::verify calls the loop
// made (both as bases for per-operation figures).
void counter_layer_metrics(std::map<std::string, double>& out,
                           const runtime::StatsSnapshot& d,
                           std::uint64_t ops, std::uint64_t verify_calls,
                           std::uint64_t blocks, std::uint64_t records);

// What a workload hands to finish(): its set-up samples, its CPU cost
// per unit operation, and the per-layer values (including the
// wall-clock figures users see, named "wall.*").
struct Report {
  const char* workload = "";
  Samples setup_s;      // wall time of each set-up
  Samples setup_cpu_s;  // process CPU time of each set-up
  Samples ref_s;        // reference kernel runs around the timed loop
  std::uint64_t ops = 0;   // unit operations timed
  double op_per_s = 0;     // unit operations completed per wall second
  double op_cpu_s = 0;     // process CPU time per unit operation
  double busy_cores = 0;   // process CPU time over wall time in the loop
  double peak_rss_mb = 0;  // 0: the process peak at the end of the run
  std::map<std::string, double> layer;
};

// Runs the reference kernel `n` times into rep.ref_s; workloads call it
// right before and right after their timed loop, outside the operations
// they time.
void sample_reference(Report& rep, int n = 5);

// Prints the human-readable summary, then fills `res` with the
// end-to-end metrics (untraced) or every per-layer metric (traced), and
// writes the spans when the run was traced with an output path.
void finish(const Options& opt, const Tracer& tr, Report& rep, Result& res);

// Workload entry points. Each fills `res`; set-up repeats are part of
// the workload since what set-up means differs per workload.
void run_exchange(const Options& opt, Result& res);
void run_audit(const Options& opt, Result& res);
void run_transfer(const Options& opt, Result& res);

}  // namespace zkdet::e2e
