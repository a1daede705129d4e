// Fuzz target: replication frame decoding — the datagram a follower (or,
// for acks and fail-stops, a primary) reads off a Link.
//
// For any datagram, replication::decode_frame either rejects it or
// returns a frame that encode_frame turns back into the same bytes. It
// never crashes, throws or reads past the datagram. Raw bytes almost
// never pass the CRC, so a second mode wraps the fuzz bytes in valid CRC
// framing to reach the body decoder, and a third builds a well-formed
// frame from them, checks the encode/decode round trip field by field,
// and checks that corrupting any single byte of the datagram is rejected
// (CRC-32C catches every error burst of up to 32 bits).
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ledger/wal.hpp"
#include "replication/transport.hpp"

using namespace zkdet;

namespace {

void check_roundtrip(const std::vector<std::uint8_t>& datagram) {
  const auto frame = replication::decode_frame(datagram);
  if (!frame) return;
  if (replication::encode_frame(*frame) != datagram) {
    __builtin_trap();  // non-canonical acceptance
  }
}

// Consumes up to `n` bytes from the front of `in` (fewer when short).
std::span<const std::uint8_t> take(std::span<const std::uint8_t>& in,
                                   std::size_t n) {
  const auto out = in.first(std::min(n, in.size()));
  in = in.subspan(out.size());
  return out;
}

std::uint64_t take_u64(std::span<const std::uint8_t>& in) {
  std::uint64_t v = 0;
  for (const std::uint8_t b : take(in, 8)) v = (v << 8) | b;
  return v;
}

void check_wellformed(std::uint8_t selector, std::span<const std::uint8_t> in) {
  replication::Frame f;
  const auto type = take(in, 1);
  f.type = static_cast<replication::FrameType>(
      1 + (type.empty() ? 0 : type[0] % 4));
  f.seq = take_u64(in);
  f.height = take_u64(in);
  const auto hash = take(in, f.tip_hash.size());
  std::copy(hash.begin(), hash.end(), f.tip_hash.begin());
  const auto text_len = take(in, 1);
  const auto text = take(in, text_len.empty() ? 0 : text_len[0] % 64);
  f.text.assign(text.begin(), text.end());
  f.bytes.assign(in.begin(), in.end());

  const auto datagram = replication::encode_frame(f);
  const auto back = replication::decode_frame(datagram);
  if (!back || back->type != f.type || back->seq != f.seq ||
      back->height != f.height || back->tip_hash != f.tip_hash ||
      back->text != f.text || back->bytes != f.bytes) {
    __builtin_trap();
  }
  if (replication::encode_frame(*back) != datagram) __builtin_trap();

  // One damaged byte, position and (non-zero) mask chosen by the input.
  auto damaged = datagram;
  const std::size_t pos = (f.seq ^ f.height) % damaged.size();
  damaged[pos] ^= static_cast<std::uint8_t>(1 + selector % 255);
  if (replication::decode_frame(damaged)) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0];
  const std::span<const std::uint8_t> input(data + 1, size - 1);

  switch (selector % 3) {
    case 0:
      // Arbitrary datagram, exactly sized so an over-read leaves it.
      check_roundtrip(std::vector<std::uint8_t>(input.begin(), input.end()));
      break;
    case 1:
      // Valid CRC framing around an arbitrary body.
      check_roundtrip(ledger::frame_record(input));
      break;
    default:
      check_wellformed(selector, input);
      break;
  }
  return 0;
}
