// Crash-recovery matrix (ISSUE 5 acceptance property): for EVERY ledger
// fail-point and every hit position, killing the process mid-write and
// reopening the data directory must yield a chain that (a) passes
// validate_chain() and (b) reaches the exact same tip hash, balances
// and contract state as an uninterrupted run once the interrupted
// workload is resumed.
//
// The workload is a fixed script of ops where each op seals exactly one
// block, so the recovered chain height tells the resume loop precisely
// which ops are already durable — the same discipline a real client
// uses ("did my tx land?" == "is it in a block?"). All schedules are
// deterministic (fault::Schedule::once at each hit index), so this
// matrix needs no sanitizer luck to reproduce a failure: the failing
// (point, hit) pair is printed by gtest.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>

#include "chain/chain.hpp"
#include "crypto/rng.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/ledger.hpp"

namespace zkdet::ledger {
namespace {

using chain::CallContext;
using crypto::Drbg;
using crypto::KeyPair;

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("zkdet-crash-matrix-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

class ProbeContract : public chain::Contract {
 public:
  ProbeContract() : Contract("Probe", 64) {}
  void set(CallContext& ctx, const std::string& key, std::uint64_t v) {
    store().set_u64(ctx, key, v);
  }
  void erase(CallContext& ctx, const std::string& key) {
    store().erase(ctx, key);
  }
};

constexpr std::size_t kOps = 10;
// Startup seals one block (the Probe deploy) on top of genesis, so op i
// runs when the chain is at height kStartupHeight + i.
constexpr std::uint64_t kStartupHeight = 2;

// One "process": a chain with a ledger attached, the startup ritual
// already executed (accounts registered, Probe deployed-or-adopted).
struct World {
  chain::Chain chain;
  std::optional<Ledger> ledger;  // declared after chain: detaches first
  KeyPair alice, bob;
  chain::Address a, b;
  ProbeContract* probe = nullptr;

  World(const std::string& dir, const Options& opts) {
    Drbg rng("crash-matrix", 17);
    alice = KeyPair::generate(rng);
    bob = KeyPair::generate(rng);
    ledger.emplace(chain, dir, opts);
    // Idempotent against restored state: a known key is a no-op credit,
    // and the deploy adopts its persisted contract instead of re-minting.
    a = chain.create_account(alice, 100'000);
    b = chain.create_account(bob, 50'000);
    probe = &chain.deploy<ProbeContract>(alice, nullptr);
  }

  void run_op(std::size_t i) {
    const std::string tag = " op " + std::to_string(i);
    switch (i % 5) {
      case 0:
        chain.call(
            alice, "transfer" + tag, [](CallContext&) {}, 10 + i, b);
        break;
      case 1:
        chain.call(alice, "slots" + tag, [&](CallContext& ctx) {
          probe->set(ctx, "k" + std::to_string(i), i * 7);
          probe->set(ctx, "shared", i);
        });
        break;
      case 2:
        chain.call(bob, "events" + tag, [&](CallContext& ctx) {
          ctx.emit(chain::Event{"Tick", {{"op", std::to_string(i)}}});
          ctx.emit(chain::Event{"Tock", {{"sq", std::to_string(i * i)}}});
        });
        break;
      case 3:
        chain.call(alice, "churn" + tag, [&](CallContext& ctx) {
          probe->set(ctx, "tmp", i);
          probe->erase(ctx, "tmp");
        });
        break;
      default:
        chain.advance_blocks(1);
        break;
    }
  }

  // Resumes the script from whatever the recovered height says is done.
  void run_remaining() {
    ASSERT_GE(chain.height(), kStartupHeight);
    for (std::size_t i = chain.height() - kStartupHeight; i < kOps; ++i) {
      run_op(i);
    }
  }
};

struct FinalState {
  std::array<std::uint8_t, 32> tip{};
  std::uint64_t height = 0;
  std::map<chain::Address, std::uint64_t> balances;
  std::map<std::string, ff::Fr> probe_slots;
};

FinalState capture(World& w) {
  FinalState s;
  s.tip = w.chain.blocks().back().hash;
  s.height = w.chain.height();
  s.balances = w.chain.balances_map();
  s.probe_slots = w.probe->audit_store().peek_all();
  return s;
}

void expect_equal(const FinalState& got, const FinalState& want,
                  const std::string& what) {
  EXPECT_EQ(got.height, want.height) << what;
  EXPECT_EQ(got.tip, want.tip) << what << ": tip hash diverged";
  EXPECT_EQ(got.balances, want.balances) << what;
  EXPECT_EQ(got.probe_slots, want.probe_slots) << what;
}

Options matrix_options() {
  Options opts;
  opts.snapshot_interval = 4;  // several snapshots inside the script
  opts.fsync_each_append = true;
  return opts;
}

// The uninterrupted run every (point, hit) cell must converge to.
FinalState control_state() {
  TempDir dir;
  World w(dir.str(), matrix_options());
  w.run_remaining();
  EXPECT_TRUE(w.chain.validate_chain());
  return capture(w);
}

struct MatrixCase {
  const char* point;
  std::uint64_t hit;
};

class CrashMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CrashMatrix, KillReopenReplayConverges) {
  const auto& [point, hit] = GetParam();
  static const FinalState control = control_state();

  TempDir dir;
  fault::inject(point, fault::Schedule::once(hit));
  bool crashed = false;
  {
    std::optional<World> w;
    try {
      w.emplace(dir.str(), matrix_options());
      w->run_remaining();
    } catch (const CrashInjected&) {
      crashed = true;
    } catch (const IoError&) {
      crashed = true;  // injected EIO: fail-stop, treated as a kill
    }
    if (!crashed) {
      // The schedule's hit index exceeds how often this point is even
      // consulted in a clean run: the run completed uninterrupted.
      EXPECT_EQ(fault::failures(point), 0u)
          << point << " fired but nothing crashed";
      EXPECT_TRUE(w->chain.validate_chain());
      expect_equal(capture(*w), control, "uninterrupted cell");
      fault::clear_all();
      return;
    }
    // "Process death": drop every in-memory structure, faults off.
  }
  fault::clear_all();

  // Reopen as a fresh process and let the client resume its script.
  World w(dir.str(), matrix_options());
  EXPECT_TRUE(w.chain.validate_chain())
      << point << "@" << hit << ": recovered chain fails validation";
  w.run_remaining();
  EXPECT_TRUE(w.chain.validate_chain());
  expect_equal(capture(w), control,
               std::string(point) + "@" + std::to_string(hit));
}

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  // A clean run appends 2 account records + 11 block records = 13 WAL
  // writes and performs 2 snapshots; hits beyond a point's actual count
  // degenerate to uninterrupted runs (verified as such by the test).
  for (const char* point : fault::points::kLedgerAll) {
    for (std::uint64_t hit = 1; hit <= 14; ++hit) {
      cases.push_back({point, hit});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllLedgerFailPoints, CrashMatrix, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_hit" + std::to_string(info.param.hit);
    });

}  // namespace
}  // namespace zkdet::ledger
