#include "replication/socket_link.hpp"

#include <span>
#include <utility>

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/wal.hpp"

namespace zkdet::replication {

namespace sockio = rpc::sockio;

SocketLink::SocketLink(sockio::Fd primary_end, sockio::Fd follower_end) {
  // One endpoint lock at a time: both sit at LockLevel::kReplLink.
  {
    const MutexLock lp(primary_.mu);
    primary_.fd = std::move(primary_end);
  }
  const MutexLock lf(follower_.mu);
  follower_.fd = std::move(follower_end);
}

std::unique_ptr<SocketLink> SocketLink::loopback() {
  auto pair = sockio::stream_pair();
  if (!pair) return nullptr;
  return std::make_unique<SocketLink>(std::move(pair->first),
                                      std::move(pair->second));
}

void SocketLink::flush_locked(Endpoint& ep) {
  while (ep.out_off < ep.out.size()) {
    const auto r = sockio::write_some(
        ep.fd, std::span<const std::uint8_t>(ep.out).subspan(ep.out_off));
    if (r.status == sockio::IoStatus::kOk) {
      ep.out_off += r.n;
      continue;
    }
    if (r.status != sockio::IoStatus::kWouldBlock) ep.broken = true;
    break;
  }
  if (ep.out_off == ep.out.size() && !ep.out.empty()) {
    ep.out.clear();
    ep.out_off = 0;
  }
}

void SocketLink::queue_and_flush(Endpoint& ep,
                                 std::vector<std::uint8_t> datagram) {
  const MutexLock lk(ep.mu);
  if (!ep.fd.valid() || ep.broken) return;  // peer gone: datagram is lost
  ep.out.insert(ep.out.end(), datagram.begin(), datagram.end());
  flush_locked(ep);
}

std::optional<std::vector<std::uint8_t>> SocketLink::flush_and_recv(
    Endpoint& ep) {
  const MutexLock lk(ep.mu);
  if (!ep.fd.valid()) return std::nullopt;
  // Opportunistic flush: this end's queued sends (acks, or a snapshot
  // larger than the kernel buffer) drain as the peer reads.
  if (!ep.broken) flush_locked(ep);
  // Bounded by kernel buffer contents: every kOk consumes bytes, any
  // other status breaks.
  for (;;) {  // zkdet-lint: allow(unbounded-retry)
    const auto r = sockio::read_some(ep.fd, ep.in.stream());
    if (r.status == sockio::IoStatus::kOk) continue;
    if (r.status != sockio::IoStatus::kWouldBlock) ep.broken = true;
    break;
  }
  auto payload = ep.in.next_payload();
  if (ep.in.poisoned()) ep.broken = true;
  if (!payload) return std::nullopt;
  // Reconstruct the datagram: re-framing the payload is byte-identical
  // to what the sender wrote (CRC framing is deterministic).
  return ledger::frame_record(*payload);
}

void SocketLink::send_to_follower(std::vector<std::uint8_t> datagram) {
  // Same in-flight faults as InMemoryLink, so replication chaos
  // schedules replay unchanged over real sockets.
  if (fault::fire(fault::points::kReplShipDrop)) return;
  if (fault::fire(fault::points::kReplShipCorrupt) && !datagram.empty()) {
    datagram[datagram.size() / 2] ^= 0x40;
  }
  queue_and_flush(primary_, std::move(datagram));
}

std::optional<std::vector<std::uint8_t>> SocketLink::recv_at_follower() {
  return flush_and_recv(follower_);
}

void SocketLink::send_to_primary(std::vector<std::uint8_t> datagram) {
  if (fault::fire(fault::points::kReplAckLost)) return;
  queue_and_flush(follower_, std::move(datagram));
}

std::optional<std::vector<std::uint8_t>> SocketLink::recv_at_primary() {
  return flush_and_recv(primary_);
}

void SocketLink::sever() {
  {
    const MutexLock lk(primary_.mu);
    primary_.fd.reset();
    primary_.broken = true;
  }
  const MutexLock lk(follower_.mu);
  follower_.fd.reset();
  follower_.broken = true;
}

bool SocketLink::primary_broken() const {
  const MutexLock lk(primary_.mu);
  return primary_.broken;
}

bool SocketLink::follower_broken() const {
  const MutexLock lk(follower_.mu);
  return follower_.broken;
}

}  // namespace zkdet::replication
