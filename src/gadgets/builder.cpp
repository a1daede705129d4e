#include "gadgets/builder.hpp"

#include "check/check.hpp"

namespace zkdet::gadgets {

CircuitBuilder::CircuitBuilder() { values_.push_back(Fr::zero()); }

Wire CircuitBuilder::new_wire(const Fr& value) {
  const Var v = cs_.add_variable();
  ZKDET_DCHECK(v == values_.size(), "builder/constraint-system var id skew");
  values_.push_back(value);
  return Wire{v};
}

void CircuitBuilder::raw_gate(const Fr& qm, const Fr& ql, const Fr& qr,
                              const Fr& qo, const Fr& qc, Wire a, Wire b,
                              Wire c) {
  cs_.add_gate(Gate{qm, ql, qr, qo, qc, a.var, b.var, c.var});
}

Wire CircuitBuilder::add_public_input(const Fr& value) {
  const Wire w = new_wire(value);
  cs_.set_public(w.var);
  return w;
}

Wire CircuitBuilder::add_witness(const Fr& value) { return new_wire(value); }

Wire CircuitBuilder::constant(const Fr& value) {
  if (value.is_zero()) return zero();
  const Wire w = new_wire(value);
  // w - value == 0
  raw_gate(Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(), -value, w, zero(),
           zero());
  return w;
}

Wire CircuitBuilder::add(Wire a, Wire b) {
  return linear(Fr::one(), a, Fr::one(), b, Fr::zero());
}

Wire CircuitBuilder::sub(Wire a, Wire b) {
  return linear(Fr::one(), a, -Fr::one(), b, Fr::zero());
}

Wire CircuitBuilder::mul(Wire a, Wire b) {
  return arith(a, b, Fr::one(), Fr::zero(), Fr::zero(), Fr::zero());
}

Wire CircuitBuilder::scale(Wire a, const Fr& s) {
  return linear(s, a, Fr::zero(), zero(), Fr::zero());
}

Wire CircuitBuilder::add_constant(Wire a, const Fr& k) {
  return linear(Fr::one(), a, Fr::zero(), zero(), k);
}

Wire CircuitBuilder::arith(Wire a, Wire b, const Fr& qm, const Fr& ql,
                           const Fr& qr, const Fr& qc) {
  const Wire out =
      new_wire(qm * value(a) * value(b) + ql * value(a) + qr * value(b) + qc);
  // qm*a*b + ql*a + qr*b - out + qc == 0
  raw_gate(qm, ql, qr, -Fr::one(), qc, a, b, out);
  return out;
}

Wire CircuitBuilder::mul_add(Wire a, Wire b, Wire c) {
  // The gate's qm term multiplies the a/b slots, so a*b+c needs four
  // wires and therefore two gates.
  return add(mul(a, b), c);
}

Wire CircuitBuilder::sum(std::span<const Wire> xs) {
  if (xs.empty()) return zero();
  Wire acc = xs[0];
  std::size_t i = 1;
  // fold two terms per gate: acc' = acc + x_i + x_{i+1} is not a single
  // gate (3 inputs), so chain pairwise.
  for (; i < xs.size(); ++i) acc = add(acc, xs[i]);
  return acc;
}

Wire CircuitBuilder::inner_product(std::span<const Wire> xs,
                                   std::span<const Wire> ys) {
  ZKDET_CHECK(xs.size() == ys.size(), "inner_product length mismatch");
  Wire acc = zero();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc = mul_add(xs[i], ys[i], acc);
  }
  return acc;
}

void CircuitBuilder::assert_equal(Wire a, Wire b) {
  raw_gate(Fr::zero(), Fr::one(), -Fr::one(), Fr::zero(), Fr::zero(), a, b,
           zero());
}

void CircuitBuilder::assert_zero(Wire a) {
  raw_gate(Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(), a, zero(),
           zero());
}

void CircuitBuilder::assert_constant(Wire a, const Fr& k) {
  raw_gate(Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(), -k, a, zero(), zero());
}

void CircuitBuilder::assert_mul(Wire a, Wire b, Wire c) {
  raw_gate(Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::zero(), a, b, c);
}

void CircuitBuilder::assert_bool(Wire a) {
  // a * a - a == 0
  raw_gate(Fr::one(), -Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(), a, a,
           zero());
}

Wire CircuitBuilder::logic_and(Wire a, Wire b) { return mul(a, b); }

Wire CircuitBuilder::logic_or(Wire a, Wire b) {
  // a + b - a*b
  return arith(a, b, -Fr::one(), Fr::one(), Fr::one(), Fr::zero());
}

Wire CircuitBuilder::logic_xor(Wire a, Wire b) {
  // a + b - 2ab
  return arith(a, b, -Fr::from_u64(2), Fr::one(), Fr::one(), Fr::zero());
}

Wire CircuitBuilder::logic_not(Wire a) {
  return linear(-Fr::one(), a, Fr::zero(), zero(), Fr::one());
}

Wire CircuitBuilder::select(Wire cond, Wire t, Wire f) {
  // f + cond * (t - f)
  const Wire diff = sub(t, f);
  const Wire scaled = mul(cond, diff);
  return add(f, scaled);
}

Wire CircuitBuilder::is_zero(Wire a) {
  const Fr av = value(a);
  const Fr inv_hint = av.is_zero() ? Fr::zero() : av.inverse();
  const Wire inv = add_witness(inv_hint);
  const Wire out = add_witness(av.is_zero() ? Fr::one() : Fr::zero());
  // a * inv + out - 1 == 0
  raw_gate(Fr::one(), Fr::zero(), Fr::zero(), Fr::one(), -Fr::one(), a, inv,
           out);
  // a * out == 0
  raw_gate(Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero(), a, out,
           zero());
  return out;
}

std::vector<Wire> CircuitBuilder::to_bits(Wire a, std::size_t nbits) {
  ZKDET_CHECK(nbits > 0 && nbits <= 128, "to_bits width out of range");
  const ff::U256 canonical = value(a).to_canonical();
  std::vector<Wire> bits;
  bits.reserve(nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    const Wire b = add_witness(canonical.bit(i) ? Fr::one() : Fr::zero());
    assert_bool(b);
    bits.push_back(b);
  }
  // The value must actually fit; a witness that doesn't satisfies nothing.
  const Wire recomposed = from_bits(bits);
  assert_equal(a, recomposed);
  return bits;
}

Wire CircuitBuilder::from_bits(std::span<const Wire> bits) {
  Wire acc = zero();
  Fr pow = Fr::one();
  for (const Wire& b : bits) {
    acc = linear(Fr::one(), acc, pow, b, Fr::zero());
    pow += pow;
  }
  return acc;
}

Wire CircuitBuilder::less_than(Wire a, Wire b, std::size_t nbits) {
  ZKDET_CHECK(nbits + 1 <= 128, "less_than width out of range");
  assert_range(a, nbits);
  assert_range(b, nbits);
  // diff = b - a + 2^nbits in (0, 2^(nbits+1)); its top bit is 1 iff
  // b >= a.
  Fr two_n = Fr::one();
  for (std::size_t i = 0; i < nbits; ++i) two_n += two_n;
  const Wire diff = linear(Fr::one(), b, -Fr::one(), a, two_n);
  const std::vector<Wire> bits = to_bits(diff, nbits + 1);
  // b >= a  <=>  top bit set; a < b  <=>  top bit set and diff != 2^nbits
  // Simpler: a < b  <=>  b >= a and a != b. Compute geq = top bit; then
  // lt = geq AND NOT(a == b).
  const Wire geq = bits[nbits];
  const Wire eq = is_equal(a, b);
  return logic_and(geq, logic_not(eq));
}

void CircuitBuilder::assert_less_than(Wire a, Wire b, std::size_t nbits) {
  const Wire lt = less_than(a, b, nbits);
  assert_constant(lt, Fr::one());
}

void CircuitBuilder::assert_leq(Wire a, Wire b, std::size_t nbits) {
  assert_range(a, nbits);
  assert_range(b, nbits);
  Fr two_n = Fr::one();
  for (std::size_t i = 0; i < nbits; ++i) two_n += two_n;
  const Wire diff = linear(Fr::one(), b, -Fr::one(), a, two_n);
  const std::vector<Wire> bits = to_bits(diff, nbits + 1);
  assert_constant(bits[nbits], Fr::one());
}

}  // namespace zkdet::gadgets
