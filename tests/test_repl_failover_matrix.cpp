// Failover chaos matrix (PR 8 acceptance property): for EVERY
// replication fail-point and every hit position, kill the primary,
// promote the follower, resume the workload on the promoted chain —
// and the result must be byte-identical to an uninterrupted control
// run: same tip hash, same balances (funds conserved), every exchange
// terminated settled xor refunded. Divergence injection must always be
// detected fail-stop; a diverged follower must never promote.
//
// The workload exercises the exchange protocol end to end without
// Plonk proving (cheap enough to run ~50 cells): a KeySecureArbiter
// escrow that times out and refunds, a ZkcpArbiter escrow settled by
// revealing the key (Poseidon check only), plus transfers. Each op
// seals exactly one block, so the promoted chain's height tells the
// resume loop which ops are already durable — the same discipline the
// ledger crash matrix uses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <optional>

#include "chain/arbiter.hpp"
#include "chain/chain.hpp"
#include "chain/verifier_contract.hpp"
#include "crypto/poseidon.hpp"
#include "crypto/rng.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/ledger.hpp"
#include "replication/replica_set.hpp"

namespace zkdet::replication {
namespace {

using chain::CallContext;
using crypto::Drbg;
using crypto::KeyPair;
using ff::Fr;

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("zkdet-repl-matrix-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

constexpr std::size_t kOps = 10;
// Startup seals three blocks (verifier + arbiter + zkcp deploys) on top
// of genesis, so op i runs when the chain is at kStartupHeight + i.
constexpr std::uint64_t kStartupHeight = 4;
constexpr std::uint64_t kTotalFunds = 150'000;

// One "process": chain + ledger + deployed exchange contracts. The
// deterministic Drbg makes every incarnation (control, pre-kill,
// promoted) byte-compatible: same keys, same secrets, same op stream.
struct World {
  chain::Chain chain;
  std::optional<ledger::Ledger> ledger;  // after chain: detaches first
  KeyPair buyer_keys, seller_keys;
  chain::Address buyer, seller;
  chain::PlonkVerifierContract* verifier = nullptr;
  chain::KeySecureArbiter* arbiter = nullptr;
  chain::ZkcpArbiter* zkcp = nullptr;
  Fr h_v, key_cm, zkcp_key;

  World(const std::string& dir, const ledger::Options& opts) {
    Drbg rng("repl-matrix", 23);
    buyer_keys = KeyPair::generate(rng);
    seller_keys = KeyPair::generate(rng);
    h_v = rng.random_fr();
    key_cm = rng.random_fr();
    zkcp_key = rng.random_fr();
    ledger.emplace(chain, dir, opts);
    // Idempotent against restored state: known keys are no-op credits,
    // deploys adopt their persisted contracts.
    buyer = chain.create_account(buyer_keys, 100'000);
    seller = chain.create_account(seller_keys, 50'000);
    // A stub verifying key is fine: the key-secure exchange in this
    // workload terminates through the refund path, never settle().
    verifier = &chain.deploy<chain::PlonkVerifierContract>(
        buyer_keys, nullptr, plonk::VerifyingKey{}, "PlonkVerifier(stub)");
    arbiter = &chain.deploy<chain::KeySecureArbiter>(
        buyer_keys, nullptr, *verifier, /*first_id=*/1, /*stride=*/1);
    zkcp = &chain.deploy<chain::ZkcpArbiter>(buyer_keys, nullptr);
  }

  void run_op(std::size_t i) {
    const std::string tag = " op " + std::to_string(i);
    switch (i) {
      case 0:
        chain.call(
            buyer_keys, "ks-lock" + tag,
            [&](CallContext& ctx) {
              arbiter->lock(ctx, seller, h_v, key_cm, /*timeout_blocks=*/3);
            },
            300, arbiter->address());
        break;
      case 1:
        chain.call(
            buyer_keys, "pay" + tag, [](CallContext&) {}, 10, seller);
        break;
      case 2:
        chain.call(
            buyer_keys, "zkcp-lock" + tag,
            [&](CallContext& ctx) {
              zkcp->lock(ctx, seller,
                         crypto::poseidon_hash({zkcp_key}, 0x6b6579));
            },
            200, zkcp->address());
        break;
      case 3:
        chain.call(seller_keys, "zkcp-open" + tag, [&](CallContext& ctx) {
          zkcp->open(ctx, 1, zkcp_key);
        });
        break;
      case 4:
        chain.call(
            seller_keys, "pay-back" + tag, [](CallContext&) {}, 5, buyer);
        break;
      case 5:
      case 6:
      case 7:
        chain.advance_blocks(1);  // run out the key-secure deadline
        break;
      case 8:
        chain.call(buyer_keys, "ks-refund" + tag,
                   [&](CallContext& ctx) { arbiter->refund(ctx, 1); });
        break;
      default:
        chain.call(
            buyer_keys, "pay-final" + tag, [](CallContext&) {}, 7, seller);
        break;
    }
  }

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
  chain::ExchangeState ks_state = chain::ExchangeState::kNone;
  chain::ExchangeState zkcp_state = chain::ExchangeState::kNone;
};

FinalState capture(World& w) {
  FinalState s;
  s.tip = w.chain.blocks().back().hash;
  s.height = w.chain.height();
  s.balances = w.chain.balances_map();
  if (const auto x = w.arbiter->exchange(1)) s.ks_state = x->state;
  if (const auto x = w.zkcp->exchange(1)) s.zkcp_state = x->state;
  return s;
}

void expect_final(const FinalState& got, const FinalState& want,
                  const std::string& what) {
  EXPECT_EQ(got.height, want.height) << what;
  EXPECT_EQ(got.tip, want.tip) << what << ": tip hash diverged";
  EXPECT_EQ(got.balances, want.balances) << what;
  // Every exchange terminated, settled xor refunded — and funds were
  // conserved across kill + promotion.
  EXPECT_EQ(got.ks_state, chain::ExchangeState::kRefunded) << what;
  EXPECT_EQ(got.zkcp_state, chain::ExchangeState::kSettled) << what;
  const std::uint64_t total = std::accumulate(
      got.balances.begin(), got.balances.end(), std::uint64_t{0},
      [](std::uint64_t acc, const auto& kv) { return acc + kv.second; });
  EXPECT_EQ(total, kTotalFunds) << what << ": funds not conserved";
}

ledger::Options matrix_options() {
  ledger::Options opts;
  opts.snapshot_interval = 4;  // snapshots + segment GC inside the script
  opts.fsync_each_append = true;
  return opts;
}

// The uninterrupted, replication-free run every cell must converge to.
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

class FailoverMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FailoverMatrix, KillPromoteResumeConverges) {
  const auto& [point, hit] = GetParam();
  static const FinalState control = control_state();

  TempDir dir;
  fault::inject(point, fault::Schedule::once(hit));
  std::string promoted_dir;
  bool diverged = false;
  {
    World w(dir.str() + "/primary", matrix_options());
    ReplicaSet reps(*w.ledger, w.chain, dir.str() + "/standby", 1);
    const auto pump_once = [&] {
      try {
        reps.pump();
      } catch (const ledger::CrashInjected&) {
        // Follower process death: restart it from its own directory.
        reps.restart_follower(0);
      }
    };
    // Natural lag: one pump per op, then drain to the watermark.
    for (std::size_t i = 0; i < kOps; ++i) {
      w.run_op(i);
      pump_once();
    }
    for (int round = 0; round < 2000 && !reps.shipper().all_caught_up();
         ++round) {
      pump_once();
    }
    // Extra rounds so a late fail-stop propagates both directions.
    pump_once();
    pump_once();

    diverged = reps.shipper().status(0).failed || reps.follower(0).failed();
    if (fault::failures(fault::points::kReplShipDiverge) > 0) {
      // Divergence injection must ALWAYS be detected — fail-stop, never
      // a silent fork...
      EXPECT_TRUE(diverged) << point << "@" << hit << ": silent fork";
    }
    if (diverged) {
      // ...and a diverged follower must never become the primary.
      EXPECT_THROW((void)reps.promote(0), ledger::IoError)
          << point << "@" << hit;
      fault::clear_all();
      return;
    }
    EXPECT_TRUE(reps.shipper().all_caught_up())
        << point << "@" << hit << ": follower never caught up ("
        << reps.shipper().status(0).diagnostic << ")";
    promoted_dir = reps.promote(0);
  }  // primary killed: every in-memory structure dropped
  fault::clear_all();

  // Failover: open a fresh primary on the promoted follower's directory
  // and let the client resume its script from the recovered height.
  World w(promoted_dir, matrix_options());
  EXPECT_TRUE(w.chain.validate_chain())
      << point << "@" << hit << ": promoted chain fails validation";
  w.run_remaining();
  EXPECT_TRUE(w.chain.validate_chain());
  expect_final(capture(w), control,
               std::string(point) + "@" + std::to_string(hit));
}

// ZKDET_REPL_MATRIX_HITS selects the kill positions: "a-b" ranges and
// single values, comma-separated (e.g. "1-10", "11-15", "3,7"). The
// in-suite default sweeps 1..10; scripts/ci.sh replays a disjoint
// higher slice so CI covers kill positions the suite did not.
std::vector<std::uint64_t> hit_positions() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at test start-up
  const char* env = std::getenv("ZKDET_REPL_MATRIX_HITS");
  const std::string spec = (env != nullptr && *env != '\0') ? env : "1-10";
  std::vector<std::uint64_t> hits;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const std::size_t dash = tok.find('-');
    char* end = nullptr;
    const std::uint64_t lo = std::strtoull(tok.c_str(), &end, 10);
    const std::uint64_t hi =
        dash == std::string::npos
            ? lo
            : std::strtoull(tok.c_str() + dash + 1, &end, 10);
    for (std::uint64_t h = lo; h >= 1 && h <= hi && h <= 100; ++h) {
      hits.push_back(h);
    }
  }
  if (hits.empty()) {
    for (std::uint64_t h = 1; h <= 10; ++h) hits.push_back(h);
  }
  return hits;
}

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  for (const char* point : fault::points::kReplAll) {
    for (const std::uint64_t hit : hit_positions()) {
      cases.push_back({point, hit});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllReplicationFailPoints, FailoverMatrix, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_hit" + std::to_string(info.param.hit);
    });

}  // namespace
}  // namespace zkdet::replication
