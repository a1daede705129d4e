// Fuzz target: the RPC socket edge — rpc/wire request/response decoding
// and sockio::FrameBuffer stream reassembly.
//
// Every byte a client can send reaches these decoders first. Accepted
// payloads must be canonical (re-encoding reproduces the input byte for
// byte); rejected ones must come back as nullopt, never as a crash or an
// exception. The frame buffer must hand back exactly the intact frames of
// a stream in order, however the stream is chunked, skip frames whose CRC
// does not match, and only poison itself on a length prefix no frame can
// have.
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "ledger/wal.hpp"
#include "rpc/socket.hpp"
#include "rpc/wire.hpp"

using namespace zkdet;

namespace {

void check_request_roundtrip(std::span<const std::uint8_t> bytes) {
  const auto rq = rpc::decode_request(bytes);
  if (!rq) return;
  const auto re = rpc::encode_request(*rq);
  if (re.size() != bytes.size() ||
      std::memcmp(re.data(), bytes.data(), re.size()) != 0) {
    __builtin_trap();  // non-canonical acceptance
  }
}

void check_response_roundtrip(std::span<const std::uint8_t> bytes) {
  const auto rs = rpc::decode_response(bytes);
  if (!rs) return;
  const auto re = rpc::encode_response(*rs);
  if (re.size() != bytes.size() ||
      std::memcmp(re.data(), bytes.data(), re.size()) != 0) {
    __builtin_trap();
  }
}

// Feeds `stream` to a FrameBuffer in chunks whose sizes come from
// `chunking`, draining after every chunk the way the server's read loop
// does. Returns the payloads in arrival order.
std::vector<std::vector<std::uint8_t>> reassemble(
    std::span<const std::uint8_t> stream, std::span<const std::uint8_t> chunking,
    rpc::sockio::FrameBuffer& fb) {
  std::vector<std::vector<std::uint8_t>> out;
  std::size_t off = 0;
  std::size_t k = 0;
  while (off < stream.size()) {
    const std::size_t want =
        chunking.empty() ? stream.size() : 1 + chunking[k++ % chunking.size()];
    const std::size_t n = std::min(want, stream.size() - off);
    auto& buf = fb.stream();
    buf.insert(buf.end(), stream.begin() + static_cast<std::ptrdiff_t>(off),
               stream.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    while (auto p = fb.next_payload()) out.push_back(std::move(*p));
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0];
  const std::span<const std::uint8_t> input(data + 1, size - 1);

  switch (selector % 4) {
    case 0:
      check_request_roundtrip(input);
      break;
    case 1:
      check_response_roundtrip(input);
      break;
    case 2: {
      // Well-formed stream: the input is cut into payloads (a length byte
      // then that many bytes), each framed; frames whose flag bit is set
      // get a flipped CRC byte and must be skipped. Whatever the chunking,
      // exactly the intact payloads come back, in order, and the buffer
      // ends empty and unpoisoned.
      if (input.size() < 2) break;
      const std::size_t nchunk = input[0] % 16;
      const std::span<const std::uint8_t> chunking =
          input.subspan(1, std::min(nchunk, input.size() - 1));
      std::span<const std::uint8_t> rest = input.subspan(1 + chunking.size());
      std::vector<std::uint8_t> stream;
      std::vector<std::vector<std::uint8_t>> expected;
      while (rest.size() >= 1) {
        const bool corrupt = (rest[0] & 0x80) != 0;
        const std::size_t len = std::min<std::size_t>(rest[0] & 0x7f, rest.size() - 1);
        const std::span<const std::uint8_t> payload = rest.subspan(1, len);
        rest = rest.subspan(1 + len);
        std::vector<std::uint8_t> frame = ledger::frame_record(payload);
        if (corrupt) {
          frame[4] ^= 0x5a;  // first CRC byte
        } else {
          expected.emplace_back(payload.begin(), payload.end());
        }
        stream.insert(stream.end(), frame.begin(), frame.end());
      }
      rpc::sockio::FrameBuffer fb;
      const auto got = reassemble(stream, chunking, fb);
      if (got != expected) __builtin_trap();
      if (fb.poisoned() || fb.pending_bytes() != 0) __builtin_trap();
      break;
    }
    default: {
      // Arbitrary bytes as a client stream. No crash, no overread; every
      // frame handed out is decoded the way the server would, and a
      // poisoned buffer stays silent.
      const std::size_t nchunk = input.empty() ? 0 : input[0] % 8;
      const std::span<const std::uint8_t> chunking =
          input.subspan(0, std::min(nchunk, input.size()));
      rpc::sockio::FrameBuffer fb;
      const auto got = reassemble(input, chunking, fb);
      std::size_t payload_bytes = 0;
      for (const auto& p : got) {
        payload_bytes += p.size() + ledger::kFrameHeaderSize;
        check_request_roundtrip(p);
      }
      if (payload_bytes > input.size()) __builtin_trap();
      if (fb.pending_bytes() > input.size()) __builtin_trap();
      if (fb.poisoned() && fb.next_payload().has_value()) __builtin_trap();
      break;
    }
  }
  return 0;
}
