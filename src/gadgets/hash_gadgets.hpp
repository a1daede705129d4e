// Cryptographic gadgets: in-circuit MiMC, Poseidon, Merkle proofs.
//
// These mirror src/crypto byte-for-byte: for any inputs, the wire value
// computed in-circuit equals the native function's output (tested as a
// property), so commitments/ciphertexts produced off-circuit verify
// in-circuit.
#pragma once

#include "crypto/mimc.hpp"
#include "crypto/poseidon.hpp"
#include "gadgets/builder.hpp"

namespace zkdet::gadgets {

// MiMC-7 block cipher E_k(m): 91 rounds of (t + k + c_i)^7, final +k.
Wire mimc_block_gadget(CircuitBuilder& bld, Wire key, Wire msg);

// MiMC-CTR: ciphertext[i] = plain[i] + E_k(nonce + i). Returns the
// ciphertext wires. `nonce` is a circuit constant/public wire.
std::vector<Wire> mimc_ctr_encrypt_gadget(CircuitBuilder& bld, Wire key,
                                          Wire nonce,
                                          std::span<const Wire> plain);

// Sponge hash matching crypto::poseidon_hash(input, domain_tag, t=3).
// One permutation costs at most 542 rows (DESIGN.md "Poseidon gadget").
Wire poseidon_hash_gadget(CircuitBuilder& bld, std::span<const Wire> input,
                          std::uint64_t domain_tag);

Wire poseidon_hash2_gadget(CircuitBuilder& bld, Wire left, Wire right);

// Commitment gadget matching crypto::PoseidonCommitment::commit_with.
Wire poseidon_commit_gadget(CircuitBuilder& bld, std::span<const Wire> msg,
                            Wire blinder);

// Merkle path verification: recomputes the root from `leaf`, sibling
// hashes and direction bits (0 = leaf on the left), and returns it.
Wire merkle_root_gadget(CircuitBuilder& bld, Wire leaf,
                        std::span<const Wire> siblings,
                        std::span<const Wire> directions);

}  // namespace zkdet::gadgets
