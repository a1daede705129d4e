// Fuzz target: transcript byte-decoding and proof/point deserialization.
//
// Drives the Fiat-Shamir transcript with an arbitrary op-stream
// (absorb/challenge interleavings must stay deterministic and never
// crash) and throws arbitrary bytes at the proof and curve-point
// decoders (must reject or round-trip, never accept an invalid point).
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "check/invariants.hpp"
#include "ec/curve.hpp"
#include "plonk/plonk.hpp"
#include "plonk/transcript.hpp"

using namespace zkdet;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0];
  ++data;
  --size;

  switch (selector % 3) {
    case 0: {
      // Transcript op-stream: byte-sized ops, deterministic replay.
      plonk::Transcript t1("fuzz");
      plonk::Transcript t2("fuzz");
      std::size_t off = 0;
      ff::Fr last1 = ff::Fr::zero();
      ff::Fr last2 = ff::Fr::zero();
      for (int ops = 0; ops < 64 && off < size; ++ops) {
        const std::uint8_t op = data[off++];
        const std::size_t take = std::min<std::size_t>(op & 0x1F, size - off);
        const std::span<const std::uint8_t> chunk(data + off, take);
        off += take;
        switch (op % 4) {
          case 0:
            t1.absorb_bytes(chunk);
            t2.absorb_bytes(chunk);
            break;
          case 1:
            t1.absorb_u64(op);
            t2.absorb_u64(op);
            break;
          case 2:
            t1.absorb_fr(ff::Fr::from_u64(op));
            t2.absorb_fr(ff::Fr::from_u64(op));
            break;
          default:
            last1 = t1.challenge("c");
            last2 = t2.challenge("c");
            break;
        }
      }
      // Identical op-streams must yield identical challenges, and every
      // challenge must be canonical.
      if (last1 != last2) __builtin_trap();
      if (!ff::u256_less(last1.to_canonical(), ff::Fr::MOD)) __builtin_trap();
      break;
    }
    case 1: {
      // Proof decoding: reject, or accept only on-curve points and
      // round-trip byte-identically and by value.
      std::vector<std::uint8_t> buf(data, data + size);
      buf.resize(plonk::Proof::size_bytes(), 0);
      const auto proof = plonk::Proof::from_bytes(buf);
      if (proof.has_value()) {
        for (const ec::G1Affine* p :
             {&proof->cm_a, &proof->cm_b, &proof->cm_c, &proof->cm_z,
              &proof->cm_t_lo, &proof->cm_t_mid, &proof->cm_t_hi,
              &proof->w_zeta, &proof->w_zeta_omega}) {
          if (!check::in_g1(*p)) __builtin_trap();
        }
        const auto bytes = proof->to_bytes();
        if (bytes != buf) __builtin_trap();
        const auto again = plonk::Proof::from_bytes(bytes);
        if (!again.has_value() || !(*again == *proof)) __builtin_trap();
      }
      break;
    }
    default: {
      // Curve point decoding: anything accepted must re-encode to the
      // same bytes and actually lie in the right group.
      if (size >= 64) {
        const auto p = ec::g1_from_bytes({data, 64});
        if (p.has_value()) {
          if (!p->on_curve()) __builtin_trap();
          if (ec::g1_to_bytes(*p) != std::vector<std::uint8_t>(data, data + 64))
            __builtin_trap();
        }
      }
      if (size >= 128) {
        const auto q = ec::g2_from_bytes({data, 128});
        if (q.has_value()) {
          if (!q->on_curve()) __builtin_trap();
          if (!q->mul(ff::Fr::MOD).is_identity()) __builtin_trap();
        }
      }
      break;
    }
  }
  return 0;
}
