// Circuit builder: the front end over plonk::ConstraintSystem.
//
// Replaces the paper's Circom language. A builder simultaneously lays
// down gates and computes the witness from concrete input values, so a
// protocol builds its circuit once with real inputs to prove, and once
// with placeholder inputs to derive keys (gate structure is
// value-independent by construction — gadget code never branches on
// witness values when emitting constraints).
//
// This header is the "fundamental mathematical gadget" part of the
// paper's IV-D library: arithmetic, booleans, equality/zero tests,
// selections, bit decomposition and comparisons. Cryptographic gadgets
// (MiMC, Poseidon, Merkle) live in hash_gadgets.hpp, and the fixed-point
// numeric tower for the IV-E applications in fixed_point.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "plonk/constraint_system.hpp"

namespace zkdet::gadgets {

using ff::Fr;
using plonk::ConstraintSystem;
using plonk::Gate;
using plonk::Var;

// A handle to one circuit variable.
struct Wire {
  Var var = ConstraintSystem::kZeroVar;
};

class CircuitBuilder {
 public:
  CircuitBuilder();

  // --- inputs and constants ---
  Wire add_public_input(const Fr& value);
  Wire add_witness(const Fr& value);
  Wire constant(const Fr& value);
  Wire zero() const { return Wire{ConstraintSystem::kZeroVar}; }
  Wire one() { return constant(Fr::one()); }

  // --- arithmetic ---
  Wire add(Wire a, Wire b);
  Wire sub(Wire a, Wire b);
  Wire mul(Wire a, Wire b);
  Wire neg(Wire a) { return scale(a, -Fr::one()); }
  Wire scale(Wire a, const Fr& s);
  Wire add_constant(Wire a, const Fr& k);
  // qm*a*b + ql*a + qr*b + qc: the general gate, one row.
  Wire arith(Wire a, Wire b, const Fr& qm, const Fr& ql, const Fr& qr,
             const Fr& qc);
  // ca*a + cb*b + k
  Wire linear(const Fr& ca, Wire a, const Fr& cb, Wire b, const Fr& k) {
    return arith(a, b, Fr::zero(), ca, cb, k);
  }
  // a*b + c (one gate)
  Wire mul_add(Wire a, Wire b, Wire c);
  // Sum of many terms (chained gates).
  Wire sum(std::span<const Wire> xs);
  Wire inner_product(std::span<const Wire> xs, std::span<const Wire> ys);

  // --- assertions ---
  void assert_equal(Wire a, Wire b);
  void assert_zero(Wire a);
  void assert_constant(Wire a, const Fr& k);
  void assert_mul(Wire a, Wire b, Wire c);  // a*b == c
  void assert_bool(Wire a);                 // a in {0, 1}

  // --- booleans (wires must be boolean-constrained by the caller or
  //     produced by boolean gadgets) ---
  Wire logic_and(Wire a, Wire b);
  Wire logic_or(Wire a, Wire b);
  Wire logic_xor(Wire a, Wire b);
  Wire logic_not(Wire a);

  // cond ? t : f (cond boolean)
  Wire select(Wire cond, Wire t, Wire f);

  // 1 if a == 0 else 0 (boolean output)
  Wire is_zero(Wire a);
  Wire is_equal(Wire a, Wire b) { return is_zero(sub(a, b)); }

  // --- bits and comparisons ---
  // Little-endian bit decomposition; asserts a < 2^nbits.
  std::vector<Wire> to_bits(Wire a, std::size_t nbits);
  Wire from_bits(std::span<const Wire> bits);
  void assert_range(Wire a, std::size_t nbits) { (void)to_bits(a, nbits); }
  // a < b as boolean; both operands must fit in nbits (asserted).
  Wire less_than(Wire a, Wire b, std::size_t nbits);
  void assert_less_than(Wire a, Wire b, std::size_t nbits);
  void assert_leq(Wire a, Wire b, std::size_t nbits);

  // --- access ---
  [[nodiscard]] const ConstraintSystem& cs() const { return cs_; }
  [[nodiscard]] const std::vector<Fr>& witness() const { return values_; }
  [[nodiscard]] const Fr& value(Wire w) const { return values_[w.var]; }
  [[nodiscard]] std::size_t num_gates() const { return cs_.num_rows(); }
  // Sanity: every emitted gate holds under the tracked witness.
  [[nodiscard]] bool witness_consistent() const {
    return cs_.is_satisfied(values_);
  }

 private:
  Wire new_wire(const Fr& value);
  void raw_gate(const Fr& qm, const Fr& ql, const Fr& qr, const Fr& qo,
                const Fr& qc, Wire a, Wire b, Wire c);

  ConstraintSystem cs_;
  std::vector<Fr> values_;
};

}  // namespace zkdet::gadgets
