#include "ledger/codec.hpp"

#include "ec/curve.hpp"
#include "ff/u256.hpp"

namespace zkdet::ledger {

namespace {

void check_version(std::uint16_t v, const char* entity) {
  if (v != kCodecVersion) {
    throw CodecError(std::string(entity) + ": unknown version " +
                     std::to_string(v));
  }
}

}  // namespace

// --- Writer ---

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::str(const std::string& s) {
  if (s.size() > 0xFFFFFFFFull) throw CodecError("string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::bytes(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::hash32(const std::array<std::uint8_t, 32>& h) {
  buf_.insert(buf_.end(), h.begin(), h.end());
}

void Writer::fr(const ff::Fr& v) {
  const auto b = ff::u256_to_bytes(v.to_canonical());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::g1(const crypto::G1Affine& p) {
  const auto b = ec::g1_to_bytes(p);
  if (b.size() > 0xFFFFFFFFull) throw CodecError("point encoding too long");
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

// --- Reader ---

std::span<const std::uint8_t> Reader::take(std::size_t n) {
  if (n > remaining()) throw CodecError("truncated input");
  const auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

std::uint8_t Reader::u8() { return take(1)[0]; }

std::uint16_t Reader::u16() {
  const auto s = take(2);
  return static_cast<std::uint16_t>(s[0] | (std::uint16_t{s[1]} << 8));
}

std::uint32_t Reader::u32() {
  const auto s = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{s[static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  const auto s = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{s[static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  const auto s = take(len);
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

std::array<std::uint8_t, 32> Reader::hash32() {
  const auto s = take(32);
  std::array<std::uint8_t, 32> h{};
  std::copy(s.begin(), s.end(), h.begin());
  return h;
}

ff::Fr Reader::fr() {
  const auto v = ff::u256_from_bytes(hash32());
  // Strict canonical form: exactly one byte string per field element,
  // otherwise block hashes over re-encoded values would not be stable.
  if (ff::u256_geq(v, ff::Fr::MOD)) {
    throw CodecError("non-canonical field element");
  }
  return ff::Fr::from_canonical(v);
}

crypto::G1Affine Reader::g1() {
  const std::uint32_t len = u32();
  const auto s = take(len);
  const auto p = ec::g1_from_bytes(s);
  if (!p) throw CodecError("invalid curve point");
  return *p;
}

void Reader::check_count(std::uint64_t count,
                         std::size_t min_element_size) const {
  if (min_element_size == 0) min_element_size = 1;
  if (count > remaining() / min_element_size) {
    throw CodecError("sequence count exceeds input size");
  }
}

// --- Event ---

void write_event(Writer& w, const chain::Event& e) {
  w.u16(kCodecVersion);
  w.str(e.name);
  if (e.fields.size() > 0xFFFFFFFFull) throw CodecError("too many fields");
  w.u32(static_cast<std::uint32_t>(e.fields.size()));
  for (const auto& [k, v] : e.fields) {
    w.str(k);
    w.str(v);
  }
}

chain::Event read_event(Reader& r) {
  check_version(r.u16(), "event");
  chain::Event e;
  e.name = r.str();
  const std::uint32_t n = r.u32();
  r.check_count(n, 8);  // two empty strings = 8 bytes of length prefixes
  e.fields.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto k = r.str();
    auto v = r.str();
    e.fields.emplace_back(std::move(k), std::move(v));
  }
  return e;
}

// --- TxRecord ---

void write_tx_record(Writer& w, const chain::TxRecord& tx) {
  w.u16(kCodecVersion);
  w.u64(tx.block);
  w.str(tx.sender);
  w.str(tx.description);
  w.u64(tx.nonce);
  w.u64(tx.gas_used);
  w.u8(tx.success ? 1 : 0);
  if (tx.events.size() > 0xFFFFFFFFull) throw CodecError("too many events");
  w.u32(static_cast<std::uint32_t>(tx.events.size()));
  for (const auto& e : tx.events) write_event(w, e);
  w.u8(tx.has_sig ? 1 : 0);
  if (tx.has_sig) {
    w.g1(tx.sig.r);
    w.fr(tx.sig.s);
  }
}

chain::TxRecord read_tx_record(Reader& r) {
  check_version(r.u16(), "tx");
  chain::TxRecord tx;
  tx.block = r.u64();
  tx.sender = r.str();
  tx.description = r.str();
  tx.nonce = r.u64();
  tx.gas_used = r.u64();
  const std::uint8_t success = r.u8();
  if (success > 1) throw CodecError("tx: non-canonical bool");
  tx.success = success == 1;
  const std::uint32_t n = r.u32();
  r.check_count(n, 10);  // version + empty name + zero field count
  tx.events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) tx.events.push_back(read_event(r));
  const std::uint8_t has_sig = r.u8();
  if (has_sig > 1) throw CodecError("tx: non-canonical bool");
  tx.has_sig = has_sig == 1;
  if (tx.has_sig) {
    tx.sig.r = r.g1();
    tx.sig.s = r.fr();
  }
  return tx;
}

// --- Block ---

void write_block(Writer& w, const chain::Block& b) {
  w.u16(kCodecVersion);
  w.u64(b.height);
  w.u64(b.timestamp);
  w.hash32(b.prev_hash);
  w.hash32(b.hash);
  if (b.txs.size() > 0xFFFFFFFFull) throw CodecError("too many txs");
  w.u32(static_cast<std::uint32_t>(b.txs.size()));
  for (const auto& tx : b.txs) write_tx_record(w, tx);
}

chain::Block read_block(Reader& r) {
  check_version(r.u16(), "block");
  chain::Block b;
  b.height = r.u64();
  b.timestamp = r.u64();
  b.prev_hash = r.hash32();
  b.hash = r.hash32();
  const std::uint32_t n = r.u32();
  r.check_count(n, 32);  // minimal empty tx record
  b.txs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) b.txs.push_back(read_tx_record(r));
  return b;
}

// --- StateDelta ---

void write_delta(Writer& w, const chain::StateDelta& d) {
  w.u16(kCodecVersion);
  w.u32(static_cast<std::uint32_t>(d.balance_sets.size()));
  for (const auto& [addr, bal] : d.balance_sets) {
    w.str(addr);
    w.u64(bal);
  }
  w.u32(static_cast<std::uint32_t>(d.contracts_created.size()));
  for (const auto& c : d.contracts_created) {
    w.str(c.address);
    w.str(c.name);
    w.u64(c.code_size);
  }
  w.u32(static_cast<std::uint32_t>(d.slot_sets.size()));
  for (const auto& [addr, key, value] : d.slot_sets) {
    w.str(addr);
    w.str(key);
    w.fr(value);
  }
  w.u32(static_cast<std::uint32_t>(d.slot_erases.size()));
  for (const auto& [addr, key] : d.slot_erases) {
    w.str(addr);
    w.str(key);
  }
}

chain::StateDelta read_delta(Reader& r) {
  check_version(r.u16(), "delta");
  chain::StateDelta d;
  const std::uint32_t nbal = r.u32();
  r.check_count(nbal, 12);
  d.balance_sets.reserve(nbal);
  for (std::uint32_t i = 0; i < nbal; ++i) {
    auto addr = r.str();
    const std::uint64_t bal = r.u64();
    d.balance_sets.emplace_back(std::move(addr), bal);
  }
  const std::uint32_t nct = r.u32();
  r.check_count(nct, 16);
  d.contracts_created.reserve(nct);
  for (std::uint32_t i = 0; i < nct; ++i) {
    chain::StateDelta::NewContract c;
    c.address = r.str();
    c.name = r.str();
    c.code_size = r.u64();
    d.contracts_created.push_back(std::move(c));
  }
  const std::uint32_t nset = r.u32();
  r.check_count(nset, 40);
  d.slot_sets.reserve(nset);
  for (std::uint32_t i = 0; i < nset; ++i) {
    auto addr = r.str();
    auto key = r.str();
    auto value = r.fr();
    d.slot_sets.emplace_back(std::move(addr), std::move(key), value);
  }
  const std::uint32_t ner = r.u32();
  r.check_count(ner, 8);
  d.slot_erases.reserve(ner);
  for (std::uint32_t i = 0; i < ner; ++i) {
    auto addr = r.str();
    auto key = r.str();
    d.slot_erases.emplace_back(std::move(addr), std::move(key));
  }
  return d;
}

// --- whole-buffer helpers ---

namespace {

template <typename T, typename WriteFn>
std::vector<std::uint8_t> encode_one(const T& v, WriteFn fn) {
  Writer w;
  fn(w, v);
  return w.take();
}

template <typename ReadFn>
auto decode_one(std::span<const std::uint8_t> bytes, ReadFn fn) {
  Reader r(bytes);
  auto v = fn(r);
  r.expect_end();
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_event(const chain::Event& e) {
  return encode_one(e, write_event);
}
chain::Event decode_event(std::span<const std::uint8_t> bytes) {
  return decode_one(bytes, read_event);
}
std::vector<std::uint8_t> encode_tx_record(const chain::TxRecord& tx) {
  return encode_one(tx, write_tx_record);
}
chain::TxRecord decode_tx_record(std::span<const std::uint8_t> bytes) {
  return decode_one(bytes, read_tx_record);
}
std::vector<std::uint8_t> encode_block(const chain::Block& b) {
  return encode_one(b, write_block);
}
chain::Block decode_block(std::span<const std::uint8_t> bytes) {
  return decode_one(bytes, read_block);
}
std::vector<std::uint8_t> encode_delta(const chain::StateDelta& d) {
  return encode_one(d, write_delta);
}
chain::StateDelta decode_delta(std::span<const std::uint8_t> bytes) {
  return decode_one(bytes, read_delta);
}

// --- ChainSnapshot ---

std::vector<std::uint8_t> encode_snapshot(const ChainSnapshot& s) {
  Writer w;
  w.u16(kCodecVersion);
  w.u64(s.wal_seq);
  w.u32(static_cast<std::uint32_t>(s.blocks.size()));
  for (const auto& b : s.blocks) write_block(w, b);
  w.u32(static_cast<std::uint32_t>(s.balances.size()));
  for (const auto& [addr, bal] : s.balances) {
    w.str(addr);
    w.u64(bal);
  }
  w.u32(static_cast<std::uint32_t>(s.account_keys.size()));
  for (const auto& [addr, pk] : s.account_keys) {
    w.str(addr);
    w.g1(pk);
  }
  w.u32(static_cast<std::uint32_t>(s.contracts.size()));
  for (const auto& [addr, c] : s.contracts) {
    w.str(addr);
    w.str(c.name);
    w.u64(c.code_size);
    w.u32(static_cast<std::uint32_t>(c.slots.size()));
    for (const auto& [key, value] : c.slots) {
      w.str(key);
      w.fr(value);
    }
  }
  return w.take();
}

ChainSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  check_version(r.u16(), "snapshot");
  ChainSnapshot s;
  s.wal_seq = r.u64();
  const std::uint32_t nblocks = r.u32();
  r.check_count(nblocks, 86);  // empty block: hdr + two hashes + count
  s.blocks.reserve(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) s.blocks.push_back(read_block(r));
  const std::uint32_t nbal = r.u32();
  r.check_count(nbal, 12);
  for (std::uint32_t i = 0; i < nbal; ++i) {
    auto addr = r.str();
    const std::uint64_t bal = r.u64();
    s.balances.emplace(std::move(addr), bal);
  }
  const std::uint32_t nkeys = r.u32();
  r.check_count(nkeys, 8);
  for (std::uint32_t i = 0; i < nkeys; ++i) {
    auto addr = r.str();
    auto pk = r.g1();
    s.account_keys.emplace(std::move(addr), pk);
  }
  const std::uint32_t nct = r.u32();
  r.check_count(nct, 20);
  for (std::uint32_t i = 0; i < nct; ++i) {
    auto addr = r.str();
    chain::RestoredContract c;
    c.name = r.str();
    c.code_size = r.u64();
    const std::uint32_t nslots = r.u32();
    r.check_count(nslots, 36);
    for (std::uint32_t j = 0; j < nslots; ++j) {
      auto key = r.str();
      auto value = r.fr();
      c.slots.emplace(std::move(key), value);
    }
    s.contracts.emplace(std::move(addr), std::move(c));
  }
  r.expect_end();
  return s;
}

}  // namespace zkdet::ledger
