#include <gtest/gtest.h>

#include "crypto/mimc.hpp"
#include "crypto/poseidon.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "oracles/ladder.hpp"
#include "oracles/schnorr.hpp"

namespace zkdet::crypto {
namespace {

using ff::Fr;

// --- SHA-256 against FIPS 180-4 known-answer vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_encode(Sha256::digest(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_encode(Sha256::digest(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_encode(Sha256::digest(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (const char c : msg) {
    h.update(std::string(1, c));
  }
  EXPECT_EQ(h.finalize(), Sha256::digest(msg));
}

TEST(Sha256, PaddingBoundaries) {
  // lengths around the 55/56/64-byte padding boundaries must all differ
  std::vector<std::array<std::uint8_t, 32>> digests;
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    digests.push_back(Sha256::digest(std::string(len, 'x')));
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_NE(digests[i], digests[j]);
    }
  }
}

// --- DRBG ---

TEST(Drbg, Deterministic) {
  Drbg a(42);
  Drbg b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Drbg, SeedsDiffer) {
  Drbg a(1);
  Drbg b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a() != b());
  EXPECT_TRUE(any_diff);
}

TEST(Drbg, RandomFrInField) {
  Drbg rng(3);
  for (int i = 0; i < 50; ++i) {
    const Fr x = rng.random_fr();
    EXPECT_TRUE(ff::u256_less(x.to_canonical(), Fr::MOD));
  }
}

// --- MiMC ---

TEST(Mimc, RoundConstantsStable) {
  const auto& c = mimc_round_constants();
  ASSERT_EQ(c.size(), kMimcRounds);
  EXPECT_TRUE(c[0].is_zero());
  EXPECT_FALSE(c[1].is_zero());
  // deterministic across calls
  EXPECT_EQ(c[5], mimc_round_constants()[5]);
}

TEST(Mimc, BlockDeterministic) {
  const Fr k = Fr::from_u64(7);
  const Fr m = Fr::from_u64(9);
  EXPECT_EQ(mimc_encrypt_block(k, m), mimc_encrypt_block(k, m));
  EXPECT_NE(mimc_encrypt_block(k, m), mimc_encrypt_block(k + Fr::one(), m));
  EXPECT_NE(mimc_encrypt_block(k, m), mimc_encrypt_block(k, m + Fr::one()));
}

TEST(Mimc, CtrRoundtrip) {
  Drbg rng(4);
  std::vector<Fr> plain;
  for (int i = 0; i < 20; ++i) plain.push_back(rng.random_fr());
  const Fr key = rng.random_fr();
  const Fr nonce = rng.random_fr();
  const auto ct = mimc_ctr_encrypt(key, nonce, plain);
  EXPECT_EQ(ct.size(), plain.size());
  EXPECT_EQ(mimc_ctr_decrypt(key, nonce, ct), plain);
}

TEST(Mimc, CtrWrongKeyGarbles) {
  Drbg rng(5);
  std::vector<Fr> plain{rng.random_fr(), rng.random_fr()};
  const Fr key = rng.random_fr();
  const Fr nonce = rng.random_fr();
  const auto ct = mimc_ctr_encrypt(key, nonce, plain);
  EXPECT_NE(mimc_ctr_decrypt(key + Fr::one(), nonce, ct), plain);
  EXPECT_NE(mimc_ctr_decrypt(key, nonce + Fr::one(), ct), plain);
}

TEST(Mimc, CtrBlocksDifferAcrossPositions) {
  // identical plaintext blocks must encrypt differently (CTR property)
  const std::vector<Fr> plain(4, Fr::from_u64(5));
  const auto ct = mimc_ctr_encrypt(Fr::from_u64(1), Fr::from_u64(2), plain);
  EXPECT_NE(ct[0], ct[1]);
  EXPECT_NE(ct[1], ct[2]);
}

TEST(Mimc, HashBasics) {
  const Fr h1 = mimc_hash({Fr::from_u64(1), Fr::from_u64(2)});
  const Fr h2 = mimc_hash({Fr::from_u64(2), Fr::from_u64(1)});
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h1, mimc_hash({Fr::from_u64(1), Fr::from_u64(2)}));
}

// --- Poseidon ---

TEST(Poseidon, PermutationDeterministic) {
  const auto& params = PoseidonParams::get(3);
  EXPECT_EQ(params.t, 3u);
  EXPECT_EQ(params.rf, 8u);
  EXPECT_EQ(params.rp, 60u);
  std::vector<Fr> s1{Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)};
  std::vector<Fr> s2 = s1;
  poseidon_permute(params, s1);
  poseidon_permute(params, s2);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1[0], Fr::from_u64(1));  // state actually mixed
}

TEST(Poseidon, HashLengthDomainSeparation) {
  // H(m) != H(m || 0) — the capacity encodes the length.
  const Fr a = poseidon_hash({Fr::from_u64(1)});
  const Fr b = poseidon_hash({Fr::from_u64(1), Fr::zero()});
  EXPECT_NE(a, b);
}

TEST(Poseidon, TagDomainSeparation) {
  const Fr a = poseidon_hash({Fr::from_u64(1)}, 1);
  const Fr b = poseidon_hash({Fr::from_u64(1)}, 2);
  EXPECT_NE(a, b);
}

TEST(Poseidon, Hash2) {
  const Fr l = Fr::from_u64(10);
  const Fr r = Fr::from_u64(20);
  EXPECT_NE(poseidon_hash2(l, r), poseidon_hash2(r, l));
  EXPECT_EQ(poseidon_hash2(l, r), poseidon_hash2(l, r));
}

TEST(Poseidon, WidthsProduceDifferentParams) {
  const auto& p2 = PoseidonParams::get(2);
  const auto& p4 = PoseidonParams::get(4);
  EXPECT_EQ(p2.mds.size(), 4u);
  EXPECT_EQ(p4.mds.size(), 16u);
  EXPECT_NE(p2.ark[0], p4.ark[0]);
}

TEST(Poseidon, MdsHasNoZeroEntries) {
  for (const std::size_t t : {2u, 3u, 5u}) {
    for (const Fr& x : PoseidonParams::get(t).mds) EXPECT_FALSE(x.is_zero());
  }
}

TEST(PoseidonCommitment, OpenAcceptsHonest) {
  Drbg rng(6);
  const std::vector<Fr> msg{Fr::from_u64(1), Fr::from_u64(2)};
  const auto [c, o] = PoseidonCommitment::commit(msg, rng);
  EXPECT_TRUE(PoseidonCommitment::open(msg, c, o));
}

TEST(PoseidonCommitment, BindingRejections) {
  Drbg rng(7);
  const std::vector<Fr> msg{Fr::from_u64(1), Fr::from_u64(2)};
  const auto [c, o] = PoseidonCommitment::commit(msg, rng);
  EXPECT_FALSE(PoseidonCommitment::open({Fr::from_u64(1), Fr::from_u64(3)}, c, o));
  EXPECT_FALSE(PoseidonCommitment::open(msg, c + Fr::one(), o));
  EXPECT_FALSE(PoseidonCommitment::open(msg, c, o + Fr::one()));
}

TEST(PoseidonCommitment, HidingBlindersChangeCommitment) {
  const std::vector<Fr> msg{Fr::from_u64(9)};
  const Fr c1 = PoseidonCommitment::commit_with(msg, Fr::from_u64(1));
  const Fr c2 = PoseidonCommitment::commit_with(msg, Fr::from_u64(2));
  EXPECT_NE(c1, c2);
}

// --- Schnorr ---

TEST(Schnorr, ConstantTimeKeyDerivationMatchesLadderAndVartime) {
  // Keygen and signing use the constant-time fixed-base path; the public
  // key it derives must be the group element the Montgomery-ladder
  // oracle and the variable-time path compute.
  Drbg rng(77);
  const KeyPair kp = KeyPair::generate(rng);
  EXPECT_EQ(ec::G1::generator().mul(kp.sk), kp.pk);
  EXPECT_EQ(oracle::mul_ladder(ec::G1::generator(), kp.sk), kp.pk);
}

// Signatures from fixed seeds, recorded when signing still ran the
// Montgomery ladder. R = k*G is the same group element on every
// constant-time path, so keys, signatures and addresses must stay
// byte-identical, and with them every block and WAL byte.
TEST(Schnorr, GoldenSignaturesFromFixedSeeds) {
  Sha256 all;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Drbg rng("schnorr-golden", seed);
    const KeyPair kp = KeyPair::generate(rng);
    for (std::uint8_t m = 0; m < 4; ++m) {
      const std::vector<std::uint8_t> msg(
          m * 7u, static_cast<std::uint8_t>(seed + m));
      const Signature sig = schnorr_sign(kp, msg, rng);
      EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig)) << seed << "/" << int{m};
      const auto pb = ec::g1_to_bytes(kp.pk);
      const auto rb = ec::g1_to_bytes(sig.r);
      const auto sb = ff::u256_to_bytes(sig.s.to_canonical());
      all.update(pb);
      all.update(rb);
      all.update(sb);
      if (seed == 1 && m == 1) {
        EXPECT_EQ(hex_encode(pb),
                  "156250cb3e6c1d5224509d163550117e9abd97e3886a23c9cee9a2fcaa8e"
                  "50ad0d6f936b0da5c7257c422f23db36aeb73e203d48d714142032105fe6"
                  "cdbf002b");
        EXPECT_EQ(hex_encode(rb),
                  "170e4e9e88ae8a6f15f54c490597386326cc040ad12a8be0d5365c9a5376"
                  "80fa28edb0b58862e23626eee28a493b103eb7ef532bfd5983b2b137129c"
                  "72eeaa87");
        EXPECT_EQ(hex_encode(sb),
                  "0525d638eeb973f77d52851462f956c69c002472a4645e30ddac7e55a67a"
                  "dd5f");
        EXPECT_EQ(address_of(kp.pk),
                  "0x72bdbd4fcbc8c2bda1d8542df732883b66fc810d");
      }
    }
  }
  EXPECT_EQ(hex_encode(all.finalize()),
            "42028770cb96bb5da2ff6ce3fc1d2bd0a4165b2be175a1238f6af9e3c0694c70");
}

// The verifier against the double-and-add verifier it replaced
// (tests/oracles/schnorr.hpp), with the verdict each case must reach.
TEST(Schnorr, VerdictsMatchDoubleAndAddOracle) {
  const auto check = [](const G1Affine& pk, const std::vector<std::uint8_t>& msg,
                        const Signature& sig, bool expected,
                        const char* what) {
    EXPECT_EQ(schnorr_verify(pk, msg, sig), expected) << what;
    EXPECT_EQ(oracle::schnorr_verify_naive(pk.to_jacobian(), msg,
                                           sig.r.to_jacobian(), sig.s),
              expected)
        << what << " (oracle)";
  };
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Drbg rng("schnorr-verdicts", seed);
    const KeyPair kp = KeyPair::generate(rng);
    const KeyPair other = KeyPair::generate(rng);
    const std::vector<std::uint8_t> msg(seed * 5, 0xA5);
    const Signature sig = schnorr_sign(kp, msg, rng);
    check(kp.pk, msg, sig, true, "valid");

    Signature bad_s = sig;
    bad_s.s += Fr::one();
    check(kp.pk, msg, bad_s, false, "tampered s");

    Signature bad_r = sig;
    bad_r.r = G1Affine::from_jacobian(sig.r.to_jacobian() + G1::generator());
    check(kp.pk, msg, bad_r, false, "tampered R");

    Signature zero_r = sig;
    zero_r.r = G1Affine::identity();
    check(kp.pk, msg, zero_r, false, "R = identity, s of another nonce");

    check(other.pk, msg, sig, false, "wrong key");
    check(G1Affine::identity(), msg, sig, false, "identity key");

    std::vector<std::uint8_t> other_msg = msg;
    other_msg.push_back(1);
    check(kp.pk, other_msg, sig, false, "tampered message");
  }
}

// A nonce of zero gives R = identity, and s = e*sk then satisfies the
// verification equation; both verifiers accept it alike.
TEST(Schnorr, IdentityNonceVerdictMatchesOracle) {
  Drbg rng(78);
  const KeyPair kp = KeyPair::generate(rng);
  const std::vector<std::uint8_t> msg{9, 9};
  Sha256 h;
  h.update(std::string("zkdet-schnorr"));
  h.update(ec::g1_to_bytes(G1Affine::identity()));
  h.update(ec::g1_to_bytes(kp.pk));
  h.update(msg);
  const Fr e = Fr::reduce_from(ff::u256_from_bytes(h.finalize()));
  const Signature sig{G1Affine::identity(), e * kp.sk};
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig));
  EXPECT_TRUE(oracle::schnorr_verify_naive(kp.pk.to_jacobian(), msg,
                                           G1::identity(), sig.s));
}

TEST(Schnorr, SignVerify) {
  Drbg rng(8);
  const KeyPair kp = KeyPair::generate(rng);
  const std::vector<std::uint8_t> msg{1, 2, 3, 4};
  const Signature sig = schnorr_sign(kp, msg, rng);
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  Drbg rng(9);
  const KeyPair kp = KeyPair::generate(rng);
  const std::vector<std::uint8_t> msg{1, 2, 3, 4};
  const Signature sig = schnorr_sign(kp, msg, rng);
  const std::vector<std::uint8_t> other{1, 2, 3, 5};
  EXPECT_FALSE(schnorr_verify(kp.pk, other, sig));
}

TEST(Schnorr, RejectsWrongKey) {
  Drbg rng(10);
  const KeyPair kp = KeyPair::generate(rng);
  const KeyPair other = KeyPair::generate(rng);
  const std::vector<std::uint8_t> msg{42};
  const Signature sig = schnorr_sign(kp, msg, rng);
  EXPECT_FALSE(schnorr_verify(other.pk, msg, sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  Drbg rng(11);
  const KeyPair kp = KeyPair::generate(rng);
  const std::vector<std::uint8_t> msg{42};
  Signature sig = schnorr_sign(kp, msg, rng);
  sig.s += Fr::one();
  EXPECT_FALSE(schnorr_verify(kp.pk, msg, sig));
  Signature sig2 = schnorr_sign(kp, msg, rng);
  sig2.r = ec::G1Affine::from_jacobian(sig2.r.to_jacobian() +
                                       ec::G1::generator());
  EXPECT_FALSE(schnorr_verify(kp.pk, msg, sig2));
}

TEST(Schnorr, RejectsIdentityKey) {
  Drbg rng(12);
  const KeyPair kp = KeyPair::generate(rng);
  const std::vector<std::uint8_t> msg{42};
  const Signature sig = schnorr_sign(kp, msg, rng);
  EXPECT_FALSE(schnorr_verify(ec::G1Affine::identity(), msg, sig));
}

TEST(Schnorr, AddressFormat) {
  Drbg rng(13);
  const KeyPair kp = KeyPair::generate(rng);
  const std::string addr = address_of(kp.pk);
  EXPECT_EQ(addr.size(), 2u + 40u);
  EXPECT_EQ(addr.substr(0, 2), "0x");
  EXPECT_EQ(address_of(kp.pk), addr);  // stable
}

}  // namespace
}  // namespace zkdet::crypto
