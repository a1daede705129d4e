// RPC serving layer tests: wire codec strictness, stream reassembly
// over damaged input, deterministic admission/shedding, the end-to-end
// socket path, prove coalescing, follower-served reads, and the
// byte-identity acceptance property — the same intent stream driven
// in-process and through the RPC server must seal byte-identical chain
// state (tip hash, balances, WAL bytes).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "chain/arbiter.hpp"
#include "core/circuits.hpp"
#include "core/follower_view.hpp"
#include "core/system.hpp"
#include "core/transformation.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/wal.hpp"
#include "plonk/plonk.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "runtime/stats.hpp"

namespace zkdet::rpc {
namespace {

namespace fs = std::filesystem;
using chain::ExchangeState;
using ff::Fr;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("zkdet-rpc-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

Request make_rq(Op op, std::uint64_t id, std::uint64_t client = 0,
                std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0,
                std::vector<Fr> frs = {}) {
  Request rq;
  rq.op = op;
  rq.id = id;
  rq.client = client;
  rq.a = a;
  rq.b = b;
  rq.c = c;
  rq.frs = std::move(frs);
  return rq;
}

// Concatenated bytes of every WAL segment, in segment order.
std::vector<std::uint8_t> wal_bytes(const fs::path& dir) {
  std::vector<fs::path> segments;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(e.path());
  }
  std::sort(segments.begin(), segments.end());
  std::vector<std::uint8_t> out;
  for (const auto& seg : segments) {
    std::ifstream in(seg, std::ios::binary);
    out.insert(out.end(), std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return out;
}

// --- wire codec ---------------------------------------------------------

TEST(RpcWire, RequestRoundTrip) {
  Request rq = make_rq(Op::kLock, 42, 2, 1, 5'000, 30,
                       {Fr::from_u64(7), Fr::from_u64(9)});
  const auto bytes = encode_request(rq);
  const auto back = decode_request(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, Op::kLock);
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->client, 2u);
  EXPECT_EQ(back->a, 1u);
  EXPECT_EQ(back->b, 5'000u);
  EXPECT_EQ(back->c, 30u);
  ASSERT_EQ(back->frs.size(), 2u);
  EXPECT_EQ(back->frs[1], Fr::from_u64(9));
}

TEST(RpcWire, ResponseRoundTrip) {
  Response rs;
  rs.id = 17;
  rs.status = Status::kOverloaded;
  rs.value = 3;
  rs.aux = 11;
  rs.fr = Fr::from_u64(123);
  rs.bytes = {9, 8, 7};
  rs.text = "busy";
  const auto bytes = encode_response(rs);
  const auto back = decode_response(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, 17u);
  EXPECT_EQ(back->status, Status::kOverloaded);
  EXPECT_EQ(back->value, 3u);
  EXPECT_EQ(back->aux, 11u);
  EXPECT_EQ(back->fr, Fr::from_u64(123));
  EXPECT_EQ(back->bytes, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(back->text, "busy");
}

TEST(RpcWire, DamagedPayloadsRejected) {
  const auto bytes = encode_request(make_rq(Op::kPing, 1));
  // Truncated.
  EXPECT_FALSE(decode_request(
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 1)));
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode_request(padded));
  // Unknown op.
  auto bad_op = bytes;
  bad_op[0] = 0xff;
  EXPECT_FALSE(decode_request(bad_op));
  // Response decoder on request bytes (status byte out of range or
  // layout mismatch) must not crash; empty input must fail cleanly.
  EXPECT_FALSE(decode_response(std::span<const std::uint8_t>{}));
}

// --- stream reassembly --------------------------------------------------

TEST(RpcFrameBuffer, ReassemblesAcrossArbitraryChunks) {
  const auto f1 = ledger::frame_record(std::vector<std::uint8_t>{1, 2, 3});
  const auto f2 = ledger::frame_record(std::vector<std::uint8_t>{4, 5});
  std::vector<std::uint8_t> wire(f1);
  wire.insert(wire.end(), f2.begin(), f2.end());
  // Feed one byte at a time: payloads must pop exactly when complete.
  sockio::FrameBuffer buf;
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t b : wire) {
    buf.stream().push_back(b);
    while (auto p = buf.next_payload()) got.push_back(std::move(*p));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(got[1], (std::vector<std::uint8_t>{4, 5}));
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(RpcFrameBuffer, CorruptFrameSkippedStreamStaysAligned) {
  auto f1 = ledger::frame_record(std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
  const auto f2 = ledger::frame_record(std::vector<std::uint8_t>{42});
  f1[f1.size() - 2] ^= 0x10;  // damage f1's payload: CRC now fails
  sockio::FrameBuffer buf;
  buf.stream().insert(buf.stream().end(), f1.begin(), f1.end());
  buf.stream().insert(buf.stream().end(), f2.begin(), f2.end());
  // f1 is dropped (lost in transit), f2 still arrives.
  const auto p = buf.next_payload();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, std::vector<std::uint8_t>{42});
  EXPECT_FALSE(buf.poisoned());
}

TEST(RpcFrameBuffer, AbsurdLengthPrefixPoisons) {
  sockio::FrameBuffer buf;
  // Length prefix 0xffffffff: cannot be skipped, must poison.
  buf.stream().assign({0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0});
  EXPECT_FALSE(buf.next_payload().has_value());
  EXPECT_TRUE(buf.poisoned());
}

// --- admission ----------------------------------------------------------

TEST(RpcAdmission, BoundedQueueShedsDeterministically) {
  AdmissionConfig cfg;
  cfg.queue_capacity = 2;
  cfg.max_inflight = 1;
  AdmissionQueue q(cfg);
  EXPECT_TRUE(q.offer(1, make_rq(Op::kPing, 1)));
  EXPECT_TRUE(q.offer(1, make_rq(Op::kPing, 2)));
  EXPECT_FALSE(q.offer(1, make_rq(Op::kPing, 3)));  // full: shed
  EXPECT_EQ(q.depth(), 2u);
  // FIFO rounds of at most max_inflight.
  auto round = q.take_round();
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(round[0].request.id, 1u);
  round = q.take_round();
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(round[0].request.id, 2u);
  EXPECT_TRUE(q.take_round().empty());
}

TEST(RpcAdmission, EnvConfigParsesAndClamps) {
  ::setenv("ZKDET_RPC_QUEUE", "7", 1);
  ::setenv("ZKDET_RPC_INFLIGHT", "3", 1);
  auto cfg = AdmissionConfig::from_env();
  EXPECT_EQ(cfg.queue_capacity, 7u);
  EXPECT_EQ(cfg.max_inflight, 3u);
  ::setenv("ZKDET_RPC_QUEUE", "nonsense", 1);
  ::setenv("ZKDET_RPC_INFLIGHT", "0", 1);
  cfg = AdmissionConfig::from_env();
  EXPECT_EQ(cfg.queue_capacity, AdmissionConfig{}.queue_capacity);
  EXPECT_EQ(cfg.max_inflight, AdmissionConfig{}.max_inflight);
  ::unsetenv("ZKDET_RPC_QUEUE");
  ::unsetenv("ZKDET_RPC_INFLIGHT");
}

// --- end-to-end over a real unix socket ---------------------------------

struct RpcFixture : ::testing::Test {
  static core::ZkdetSystem& sys() {
    static core::ZkdetSystem s(1 << 14, 21);
    return s;
  }
  static core::TransformationProtocol& tp() {
    static core::TransformationProtocol t(sys());
    return t;
  }
  static Dispatcher& disp() {
    static Dispatcher d(sys(), tp(), /*seed=*/5);
    return d;
  }
  void TearDown() override { fault::clear_all(); }
};

TEST_F(RpcFixture, FullExchangeOverUnixSocket) {
  TempDir dir;
  fs::create_directories(dir.path);
  const std::string sock = (dir.path / "rpc.sock").string();
  auto listener = sockio::listen_unix(sock);
  ASSERT_TRUE(listener.has_value());
  Server server(disp(), std::move(*listener));
  auto client = Client::connect_unix(sock);
  ASSERT_TRUE(client.has_value());

  std::uint64_t id = 1;
  auto call = [&](Request rq) {
    auto rs = client->call(server, rq);
    EXPECT_TRUE(rs.has_value()) << "no response for op "
                                << op_name(rq.op);
    return rs.value_or(Response{});
  };

  // ping echoes.
  auto rs = call(make_rq(Op::kPing, id++, 0, 777));
  EXPECT_EQ(rs.status, Status::kOk);
  EXPECT_EQ(rs.value, 777u);

  // Register a seller and a buyer.
  const auto seller = call(make_rq(Op::kRegister, id++, 0, 100'000));
  ASSERT_EQ(seller.status, Status::kOk);
  const auto buyer = call(make_rq(Op::kRegister, id++, 0, 500'000));
  ASSERT_EQ(buyer.status, Status::kOk);
  EXPECT_NE(seller.value, buyer.value);

  // Seller publishes a dataset and offers it.
  const auto pub = call(make_rq(Op::kPublish, id++, seller.value, 0, 0, 0,
                                {Fr::from_u64(10), Fr::from_u64(20)}));
  ASSERT_EQ(pub.status, Status::kOk);
  const auto offer =
      call(make_rq(Op::kOffer, id++, seller.value, pub.value));
  ASSERT_EQ(offer.status, Status::kOk);

  // Buyer locks payment; operator custodies k_v.
  const auto lock = call(
      make_rq(Op::kLock, id++, buyer.value, offer.value, 5'000, 50));
  ASSERT_EQ(lock.status, Status::kOk);
  const std::uint64_t exchange_id = lock.value;
  ASSERT_GE(exchange_id, 1u);

  // Exchange visible through the read path, locked.
  auto xi = call(make_rq(Op::kReadExchange, id++, 0, exchange_id));
  ASSERT_EQ(xi.status, Status::kOk);
  EXPECT_EQ(xi.value, static_cast<std::uint64_t>(ExchangeState::kLocked));
  EXPECT_EQ(xi.aux, 5'000u);

  // Seller settles (pi_k proved server-side, folded verification).
  const auto settle =
      call(make_rq(Op::kSettle, id++, seller.value, exchange_id));
  ASSERT_EQ(settle.status, Status::kOk);

  xi = call(make_rq(Op::kReadExchange, id++, 0, exchange_id));
  EXPECT_EQ(xi.value, static_cast<std::uint64_t>(ExchangeState::kSettled));

  // Balances moved: seller gained the escrow amount.
  const auto bal = call(make_rq(Op::kReadBalance, id++, seller.value));
  ASSERT_EQ(bal.status, Status::kOk);
  EXPECT_EQ(bal.value, 100'000u + 5'000u);
  EXPECT_TRUE(sys().chain().validate_chain());
}

// The refund path drives the dispatcher directly: the buyer reclaims an
// expired escrow exactly once, through the same builder as
// KeySecureExchange::refund.
TEST_F(RpcFixture, RefundAfterDeadline) {
  std::uint64_t id = 9000;
  const auto one = [&](Request rq) {
    const std::vector<Request> round{std::move(rq)};
    return disp().run(round).at(0);
  };
  const auto seller = one(make_rq(Op::kRegister, id++, 0, 100'000));
  const auto buyer = one(make_rq(Op::kRegister, id++, 0, 50'000));
  ASSERT_EQ(seller.status, Status::kOk);
  ASSERT_EQ(buyer.status, Status::kOk);
  const auto pub = one(make_rq(Op::kPublish, id++, seller.value, 0, 0, 0,
                               {Fr::from_u64(31), Fr::from_u64(32)}));
  ASSERT_EQ(pub.status, Status::kOk);
  const auto offer = one(make_rq(Op::kOffer, id++, seller.value, pub.value));
  ASSERT_EQ(offer.status, Status::kOk);
  const auto lock = one(make_rq(Op::kLock, id++, buyer.value, offer.value,
                                4'000, /*timeout=*/2));
  ASSERT_EQ(lock.status, Status::kOk) << lock.text;
  const auto balance = [&] {
    return one(make_rq(Op::kReadBalance, id++, buyer.value)).value;
  };
  EXPECT_EQ(balance(), 50'000u - 4'000u);

  // Before the deadline the arbiter refuses.
  EXPECT_EQ(one(make_rq(Op::kRefund, id++, buyer.value, lock.value)).status,
            Status::kRejected);
  sys().chain().advance_blocks(3);
  const auto refund = one(make_rq(Op::kRefund, id++, buyer.value, lock.value));
  ASSERT_EQ(refund.status, Status::kOk) << refund.text;
  EXPECT_EQ(balance(), 50'000u);
  const auto xi = one(make_rq(Op::kReadExchange, id++, 0, lock.value));
  EXPECT_EQ(xi.value, static_cast<std::uint64_t>(ExchangeState::kRefunded));

  // A second refund, and a refund of exchange 0, are rejected.
  EXPECT_EQ(one(make_rq(Op::kRefund, id++, buyer.value, lock.value)).status,
            Status::kRejected);
  EXPECT_EQ(one(make_rq(Op::kRefund, id++, buyer.value, 0)).status,
            Status::kRejected);
  EXPECT_EQ(balance(), 50'000u);
  EXPECT_TRUE(sys().chain().validate_chain());
}

TEST_F(RpcFixture, OverloadShedsTypedNeverSilent) {
  TempDir dir;
  fs::create_directories(dir.path);
  const std::string sock = (dir.path / "rpc.sock").string();
  auto listener = sockio::listen_unix(sock);
  ASSERT_TRUE(listener.has_value());
  AdmissionConfig cfg;
  cfg.queue_capacity = 4;
  cfg.max_inflight = 2;
  Server server(disp(), std::move(*listener), cfg);
  auto client = Client::connect_unix(sock);
  ASSERT_TRUE(client.has_value());

  const auto before = runtime::stats();
  // 12 pings land before the server pumps once: 2x+ the queue bound.
  constexpr std::uint64_t kBurst = 12;
  for (std::uint64_t i = 1; i <= kBurst; ++i) {
    ASSERT_TRUE(client->send(make_rq(Op::kPing, 1000 + i, 0, i)));
  }
  // Pump to quiescence; collect every response.
  for (int round = 0; round < 50; ++round) {
    server.pump();
    client->flush();
    client->poll();
  }
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  for (std::uint64_t i = 1; i <= kBurst; ++i) {
    const auto rs = client->take(1000 + i);
    ASSERT_TRUE(rs.has_value()) << "request " << i << " got NO response";
    if (rs->status == Status::kOk) {
      EXPECT_EQ(rs->value, i);  // echo intact
      ++ok;
    } else {
      EXPECT_EQ(rs->status, Status::kOverloaded);
      EXPECT_FALSE(rs->text.empty());
      ++overloaded;
    }
  }
  // Every request answered exactly once; the queue bound held.
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_EQ(ok, cfg.queue_capacity);
  EXPECT_EQ(overloaded, kBurst - cfg.queue_capacity);
  const auto after = runtime::stats();
  EXPECT_EQ(after.rpc_shed - before.rpc_shed, overloaded);
  EXPECT_EQ(after.rpc_admitted - before.rpc_admitted, ok);
  EXPECT_EQ(after.rpc_queue_depth, 0u);
}

TEST_F(RpcFixture, ProveRequestsCoalesceIntoOneBatch) {
  TempDir dir;
  fs::create_directories(dir.path);
  const std::string sock = (dir.path / "rpc.sock").string();
  auto listener = sockio::listen_unix(sock);
  ASSERT_TRUE(listener.has_value());
  Server server(disp(), std::move(*listener));
  auto client = Client::connect_unix(sock);
  ASSERT_TRUE(client.has_value());

  const auto before = runtime::stats();
  constexpr std::uint64_t kProves = 3;
  for (std::uint64_t i = 1; i <= kProves; ++i) {
    ASSERT_TRUE(client->send(make_rq(
        Op::kProve, 2000 + i, 0, 0, 0, 0,
        {Fr::from_u64(100 + i), Fr::from_u64(200 + i),
         Fr::from_u64(300 + i)})));
  }
  for (int round = 0; round < 50 && client->stashed() < kProves; ++round) {
    server.pump();
    client->flush();
    client->poll();
  }
  const auto* keys = sys().find_keys("pi_k");
  ASSERT_NE(keys, nullptr);
  for (std::uint64_t i = 1; i <= kProves; ++i) {
    const auto rs = client->take(2000 + i);
    ASSERT_TRUE(rs.has_value());
    ASSERT_EQ(rs->status, Status::kOk);
    const auto proof = plonk::Proof::from_bytes(rs->bytes);
    ASSERT_TRUE(proof.has_value());
    // The proof verifies against pi_k's public inputs (k_c, c, h_v)
    // recomputed natively from the witness this request carried.
    const Fr key = Fr::from_u64(100 + i);
    const Fr blinder = Fr::from_u64(200 + i);
    const Fr k_v = Fr::from_u64(300 + i);
    EXPECT_TRUE(plonk::verify(
        keys->vk, {key + k_v, core::commit_key(key, blinder),
                   core::hash_key(k_v)},
        *proof));
  }
  const auto after = runtime::stats();
  // All three proves coalesced into one dispatch round's prover group.
  EXPECT_EQ(after.rpc_batched_proves - before.rpc_batched_proves, kProves);
  EXPECT_EQ(after.rpc_inflight, 0u);
}

TEST_F(RpcFixture, ProtocolViolationDropsSessionNotServer) {
  TempDir dir;
  fs::create_directories(dir.path);
  const std::string sock = (dir.path / "rpc.sock").string();
  auto listener = sockio::listen_unix(sock);
  ASSERT_TRUE(listener.has_value());
  Server server(disp(), std::move(*listener));

  // A client that speaks valid CRC frames with garbage payloads.
  auto rogue = sockio::connect_unix(sock);
  ASSERT_TRUE(rogue.has_value());
  const auto junk = ledger::frame_record(std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef});
  ASSERT_EQ(sockio::write_some(*rogue, junk).status, sockio::IoStatus::kOk);
  server.run_until_idle();
  EXPECT_EQ(server.session_count(), 0u);  // rogue session reaped

  // A well-behaved client still gets service afterwards.
  auto client = Client::connect_unix(sock);
  ASSERT_TRUE(client.has_value());
  const auto rs = client->call(server, make_rq(Op::kPing, 1, 0, 5));
  ASSERT_TRUE(rs.has_value());
  EXPECT_EQ(rs->value, 5u);
}

// --- follower-served reads ----------------------------------------------

TEST(RpcFollowerRead, ReadsServeFromReplicaPrefix) {
  TempDir dir;
  ::setenv("ZKDET_REPLICAS", "1", 1);
  auto sys = std::make_unique<core::ZkdetSystem>(1 << 12, 31, dir.str());
  ::unsetenv("ZKDET_REPLICAS");
  ASSERT_NE(sys->replicas(), nullptr);
  core::TransformationProtocol tp(*sys);
  Dispatcher disp(*sys, tp, /*seed=*/9);
  core::FollowerReadView view(sys->replicas()->follower(0));
  disp.serve_reads_from(&view);

  // Two registrations and a transfer, driven through the dispatcher.
  std::vector<Request> setup;
  setup.push_back(make_rq(Op::kRegister, 1, 0, 10'000));
  setup.push_back(make_rq(Op::kRegister, 2, 0, 1'000));
  auto rs = disp.run(setup);
  ASSERT_EQ(rs[0].status, Status::kOk);
  ASSERT_EQ(rs[1].status, Status::kOk);
  std::vector<Request> xfer;
  xfer.push_back(make_rq(Op::kTransfer, 3, rs[0].value, rs[1].value, 2'500));
  ASSERT_EQ(disp.run(xfer)[0].status, Status::kOk);

  // Before any replication pump the follower serves a stale prefix —
  // height never exceeds the primary's, balance is some committed
  // prefix's value.
  std::vector<Request> read1;
  read1.push_back(make_rq(Op::kReadBalance, 4, 2));
  const auto stale = disp.run(read1)[0];
  ASSERT_EQ(stale.status, Status::kOk);
  EXPECT_LE(stale.aux, sys->chain().height());

  // After sync the follower-served balance matches the primary exactly.
  ASSERT_TRUE(sys->replicas()->sync());
  std::vector<Request> read2;
  read2.push_back(make_rq(Op::kReadBalance, 5, 2));
  const auto fresh = disp.run(read2)[0];
  ASSERT_EQ(fresh.status, Status::kOk);
  EXPECT_EQ(fresh.value, 1'000u + 2'500u);
  EXPECT_EQ(fresh.aux, sys->chain().height());
}

// --- the byte-identity acceptance property ------------------------------

// The same intent stream, split into the same rounds, driven (a)
// straight into Dispatcher::run and (b) through a real socket client
// against a Server, must leave byte-identical chain state: same tip
// hash, same balances, and byte-for-byte identical WAL journals.
TEST(RpcByteIdentity, InProcessAndSocketRunsSealIdenticalState) {
  // Round structure: ids within a round may not depend on effects of
  // the same round (documented dispatcher contract), so the stream
  // advances in three rounds. Handles/ids are deterministic for a
  // fixed (system seed, dispatcher seed, stream).
  const std::vector<std::vector<Request>> rounds = [] {
    std::vector<std::vector<Request>> r(3);
    r[0].push_back(make_rq(Op::kRegister, 1, 0, 100'000));  // -> handle 1
    r[0].push_back(make_rq(Op::kRegister, 2, 0, 500'000));  // -> handle 2
    r[0].push_back(make_rq(Op::kPublish, 3, 1, 0, 0, 0,
                           {ff::Fr::from_u64(5), ff::Fr::from_u64(6)}));
    r[1].push_back(make_rq(Op::kOffer, 4, 1, 1));       // token 1 -> offer 1
    r[1].push_back(make_rq(Op::kTransfer, 5, 2, 1, 7'000));
    r[2].push_back(make_rq(Op::kLock, 6, 2, 1, 9'000, 40));  // -> exchange 1
    return r;
  }();
  const std::vector<Request> settle_round = {
      make_rq(Op::kSettle, 7, 1, 1),
      make_rq(Op::kTransfer, 8, 2, 1, 1'000),
  };

  TempDir dir_a;
  TempDir dir_b;
  std::vector<std::uint8_t> tip_a;
  std::vector<std::uint8_t> tip_b;
  std::map<std::string, std::uint64_t> bal_a;
  std::map<std::string, std::uint64_t> bal_b;

  {  // Leg A: in-process — Dispatcher::run called directly.
    core::ZkdetSystem sys(1 << 14, 55, dir_a.str());
    core::TransformationProtocol tp(sys);
    Dispatcher disp(sys, tp, /*seed=*/77);
    for (const auto& round : rounds) {
      for (const auto& rs : disp.run(round)) {
        ASSERT_EQ(rs.status, Status::kOk) << rs.text;
      }
    }
    for (const auto& rs : disp.run(settle_round)) {
      ASSERT_EQ(rs.status, Status::kOk) << rs.text;
    }
    const auto h = chain::Chain::block_hash(sys.chain().blocks().back());
    tip_a.assign(h.begin(), h.end());
    bal_a = sys.chain().balances_map();
  }
  {  // Leg B: the same rounds through a real socket server.
    core::ZkdetSystem sys(1 << 14, 55, dir_b.str());
    core::TransformationProtocol tp(sys);
    Dispatcher disp(sys, tp, /*seed=*/77);
    fs::create_directories(dir_b.path);
    const std::string sock = (dir_b.path / "rpc.sock").string();
    auto listener = sockio::listen_unix(sock);
    ASSERT_TRUE(listener.has_value());
    AdmissionConfig cfg;  // roomy: each batch lands in one round
    cfg.queue_capacity = 64;
    cfg.max_inflight = 64;
    Server server(disp, std::move(*listener), cfg);
    auto client = Client::connect_unix(sock);
    ASSERT_TRUE(client.has_value());
    auto drive = [&](const std::vector<Request>& batch) {
      for (const auto& rq : batch) ASSERT_TRUE(client->send(rq));
      for (int i = 0; i < 200 && client->stashed() < batch.size(); ++i) {
        server.pump();
        client->flush();
        client->poll();
      }
      for (const auto& rq : batch) {
        const auto rs = client->take(rq.id);
        ASSERT_TRUE(rs.has_value()) << "no response for id " << rq.id;
        ASSERT_EQ(rs->status, Status::kOk) << rs->text;
      }
    };
    for (const auto& round : rounds) drive(round);
    drive(settle_round);
    const auto h = chain::Chain::block_hash(sys.chain().blocks().back());
    tip_b.assign(h.begin(), h.end());
    bal_b = sys.chain().balances_map();
  }

  EXPECT_EQ(tip_a, tip_b);
  EXPECT_EQ(bal_a, bal_b);
  // Both systems are destroyed: the journals are final. Byte-identical.
  const auto wal_a = wal_bytes(dir_a.path);
  const auto wal_b = wal_bytes(dir_b.path);
  ASSERT_FALSE(wal_a.empty());
  EXPECT_EQ(wal_a, wal_b);
}

}  // namespace
}  // namespace zkdet::rpc
