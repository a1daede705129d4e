#include "replication/replica_set.hpp"

#include <cstdlib>
#include <cstring>

#include "replication/socket_link.hpp"

namespace zkdet::replication {

namespace {

std::unique_ptr<Link> make_link(TransportKind kind) {
  if (kind == TransportKind::kSocket) {
    if (auto link = SocketLink::loopback()) return link;
    // socketpair refused (fd exhaustion): degrade to in-memory rather
    // than lose the replica.
  }
  return std::make_unique<InMemoryLink>();
}

}  // namespace

TransportKind resolve_transport(TransportKind kind) {
  if (kind != TransportKind::kDefault) return kind;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at construction
  const char* env = std::getenv("ZKDET_REPL_TRANSPORT");  // zkdet-lint: allow(env-knob)
  if (env != nullptr && std::strcmp(env, "socket") == 0) {
    return TransportKind::kSocket;
  }
  return TransportKind::kMemory;
}

ReplicaSet::ReplicaSet(ledger::Ledger& ledger, const chain::Chain& chain,
                       std::string base_dir, std::size_t replicas, Config cfg)
    : shipper_(ledger, chain, cfg.shipper) {
  const TransportKind kind = resolve_transport(cfg.transport);
  for (std::size_t i = 0; i < replicas; ++i) {
    dirs_.push_back(base_dir + "/r" + std::to_string(i));
    links_.push_back(make_link(kind));
    followers_.push_back(
        std::make_unique<Follower>(dirs_[i], *links_[i]));
    shipper_.add_follower(*links_[i]);
  }
}

void ReplicaSet::pump() {
  shipper_.pump();
  for (auto& f : followers_) f->pump();
}

bool ReplicaSet::sync(std::size_t max_rounds) {
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (shipper_.all_caught_up()) return true;
    pump();
  }
  return shipper_.all_caught_up();
}

bool ReplicaSet::final_sync(runtime::BackoffPolicy policy) {
  runtime::Backoff backoff(policy);
  auto acked_sum = [this] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < followers_.size(); ++i) {
      sum += shipper_.status(i).acked;
    }
    return sum;
  };
  std::uint64_t last = acked_sum();
  while (!shipper_.all_caught_up()) {
    // The budget only burns on fruitless rounds: progress re-arms it,
    // so a healthy-but-behind follower catches up fully while a dead
    // transport costs at most max_attempts pumps.
    if (!backoff.next_attempt()) return false;
    pump();
    const std::uint64_t now = acked_sum();
    if (now > last) {
      last = now;
      backoff.reset();
    }
  }
  return true;
}

void ReplicaSet::restart_follower(std::size_t i) {
  auto& slot = followers_.at(i);
  slot.reset();  // release the old incarnation's WAL write head first
  slot = std::make_unique<Follower>(dirs_[i], *links_[i]);
}

std::string ReplicaSet::promote(std::size_t i) {
  return followers_.at(i)->prepare_promotion();
}

std::size_t parse_replica_count(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  std::size_t n = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    n = n * 10 + static_cast<std::size_t>(*p - '0');
    if (n > 1000) return 16;
  }
  return n > 16 ? 16 : n;
}

}  // namespace zkdet::replication
