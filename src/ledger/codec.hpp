// Canonical binary codec for chain entities — the byte-level contract
// between the in-memory chain and the durable ledger.
//
// Every encoder is *canonical*: one value has exactly one encoding
// (little-endian integers, u32-length-prefixed strings, 32-byte
// canonical-form field elements, std::map iteration order for state
// maps), so encode(decode(bytes)) == bytes and decode(encode(v)) == v
// hold exactly. Chain::block_hash hashes these bytes, which makes the
// encoding consensus-critical: any change requires bumping the entity's
// version header.
//
// Decoders are strict and bounds-checked: truncation, trailing garbage
// at top level, non-canonical field elements, off-curve points and
// unknown versions all throw CodecError — a WAL record either decodes
// to the exact value that was written or is rejected, never "best
// effort" parsed.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/chain.hpp"

namespace zkdet::ledger {

// Format version stamped on every top-level entity encoding. Bump when
// the byte layout changes; decoders reject versions they don't know.
// v2: TxRecord gained the per-sender nonce (between description and
// gas_used).
inline constexpr std::uint16_t kCodecVersion = 2;

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what)
      : std::runtime_error("codec: " + what) {}
};

// Append-only little-endian byte builder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // u32 byte-length prefix + raw bytes.
  void str(const std::string& s);
  void bytes(std::span<const std::uint8_t> b);
  void hash32(const std::array<std::uint8_t, 32>& h);
  // 32-byte canonical (non-Montgomery) little-endian representation.
  void fr(const ff::Fr& v);
  // u32 length prefix + the curve serialization from ec/curve.hpp.
  void g1(const crypto::G1Affine& p);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked cursor over an immutable byte span. Throws CodecError
// instead of reading past the end; never allocates more than the bytes
// that are actually present (length claims are validated against
// remaining() before any reserve).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::array<std::uint8_t, 32> hash32();
  [[nodiscard]] ff::Fr fr();
  [[nodiscard]] crypto::G1Affine g1();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  // Top-level decoders call this to reject trailing garbage.
  void expect_end() const {
    if (pos_ != data_.size()) throw CodecError("trailing bytes after value");
  }
  // Bounds check for count prefixes: every element of a sequence costs
  // at least `min_element_size` bytes, so a count that cannot possibly
  // fit in the remaining input is rejected before any allocation.
  void check_count(std::uint64_t count, std::size_t min_element_size) const;

 private:
  std::span<const std::uint8_t> take(std::size_t n);
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- composable entity codecs (used when entities nest) ---
void write_event(Writer& w, const chain::Event& e);
[[nodiscard]] chain::Event read_event(Reader& r);
void write_tx_record(Writer& w, const chain::TxRecord& tx);
[[nodiscard]] chain::TxRecord read_tx_record(Reader& r);
void write_block(Writer& w, const chain::Block& b);
[[nodiscard]] chain::Block read_block(Reader& r);
void write_delta(Writer& w, const chain::StateDelta& d);
[[nodiscard]] chain::StateDelta read_delta(Reader& r);

// --- whole-buffer helpers ---
[[nodiscard]] std::vector<std::uint8_t> encode_event(const chain::Event& e);
[[nodiscard]] chain::Event decode_event(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> encode_tx_record(
    const chain::TxRecord& tx);
[[nodiscard]] chain::TxRecord decode_tx_record(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> encode_block(const chain::Block& b);
[[nodiscard]] chain::Block decode_block(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> encode_delta(
    const chain::StateDelta& d);
[[nodiscard]] chain::StateDelta decode_delta(
    std::span<const std::uint8_t> bytes);

// Full persisted chain image: block history, account balances and keys,
// contract KV state, plus the WAL sequence watermark (`wal_seq` = the
// last WAL record already folded into this snapshot; replay resumes at
// wal_seq + 1).
struct ChainSnapshot {
  std::vector<chain::Block> blocks;
  std::map<chain::Address, std::uint64_t> balances;
  std::map<chain::Address, crypto::G1Affine> account_keys;
  std::map<chain::Address, chain::RestoredContract> contracts;
  std::uint64_t wal_seq = 0;
};

[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const ChainSnapshot& s);
[[nodiscard]] ChainSnapshot decode_snapshot(
    std::span<const std::uint8_t> bytes);

}  // namespace zkdet::ledger
