#include "fault/pfa_present.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "crypto/table_cipher.hpp"
#include "fault/analysis.hpp"
#include "fault/injection.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace explframe::fault {
namespace {

using crypto::Present80;

// The bit-serial residual search recover_master_key used to run, kept as
// the differential oracle: per candidate, invert the key register from
// round 32, re-expand the key and encrypt through the S-box table.
Present80::Key oracle_invert_schedule(__uint128_t reg32) {
  const __uint128_t mask80 = (static_cast<__uint128_t>(1) << 80) - 1;
  const auto& inv = Present80::inv_sbox();
  __uint128_t reg = reg32 & mask80;
  for (std::uint32_t round = 31; round >= 1; --round) {
    reg ^= static_cast<__uint128_t>(round) << 15;
    const auto top = static_cast<std::uint8_t>((reg >> 76) & 0xF);
    reg = (reg & ~(static_cast<__uint128_t>(0xF) << 76)) |
          (static_cast<__uint128_t>(inv[top]) << 76);
    reg = ((reg >> 61) | (reg << 19)) & mask80;
  }
  Present80::Key key{};
  for (std::size_t i = 0; i < 10; ++i)
    key[i] = static_cast<std::uint8_t>(reg >> (8 * (9 - i)));
  return key;
}

std::optional<PresentPfa::MasterKeyResult> oracle_search(
    std::uint64_t k32, std::uint64_t pt, std::uint64_t ct,
    std::span<const std::uint8_t, 16> table) {
  for (std::uint32_t low = 0; low < (1u << 16); ++low) {
    const auto key =
        oracle_invert_schedule((static_cast<__uint128_t>(k32) << 16) | low);
    const auto rk = Present80::expand_key(key);
    if (Present80::encrypt_with_sbox(pt, rk, table) == ct)
      return PresentPfa::MasterKeyResult{key, low + 1};
  }
  return std::nullopt;
}

// The key whose round-32 key register is (k32 << 16) | low.
Present80::Key key_with_register(std::uint64_t k32, std::uint16_t low) {
  return oracle_invert_schedule((static_cast<__uint128_t>(k32) << 16) | low);
}

// Absorb faulty ciphertexts until K32 pins; the fast SP path keeps the
// 4096-case grid below cheap (it is differentially tested in crypto/).
std::uint64_t pin_k32(PresentPfa& pfa, Rng& rng, std::uint8_t v,
                      const Present80::RoundKeys& rk,
                      const Present80::SpTables& sp) {
  while (!pfa.recover_k32(v) && pfa.ciphertext_count() < 20'000)
    pfa.add_ciphertext(Present80::encrypt_with_sp(rng.next(), rk, sp));
  EXPECT_TRUE(pfa.recover_k32(v).has_value());
  return pfa.recover_k32(v).value_or(0);
}

TEST(PresentPfa, ResidualSearchMatchesBitSerialOracle) {
  // 64 keys x every live single-bit fault (16 entries x 4 low-nibble
  // bits): the SP-table search returns the oracle's key and search_tried.
  // The keys are random except that their 16 hidden register bits are
  // drawn below 64, which bounds the oracle's cost per case to 64
  // candidates; the full-range cases follow in the next test.
  struct Case {
    std::uint16_t low;
    Present80::Key key;
    Present80::RoundKeys rk;
  };
  Rng rng(210);
  std::vector<Case> cases(64);
  for (Case& c : cases) {
    c.low = static_cast<std::uint16_t>(rng.uniform(64));
    c.key = key_with_register(rng.next(), c.low);
    c.rk = Present80::expand_key(c.key);
  }
  for (std::uint16_t entry = 0; entry < 16; ++entry) {
    for (std::uint8_t bit = 0; bit < 4; ++bit) {
      auto table = Present80::sbox();
      const auto [v, v_new] =
          apply_fault(table, {entry, static_cast<std::uint8_t>(1u << bit)});
      (void)v_new;
      const std::span<const std::uint8_t, 16> tspan(table);
      const auto sp = Present80::derive_sp_tables(tspan);
      for (const Case& c : cases) {
        PresentPfa pfa;
        const std::uint64_t k32 = pin_k32(pfa, rng, v, c.rk, sp);
        ASSERT_EQ(k32, c.rk[31]);
        const std::uint64_t pt = rng.next();
        const std::uint64_t ct = Present80::encrypt_with_sbox(pt, c.rk, tspan);
        const auto got = pfa.recover_master_key(v, pt, ct, tspan);
        const auto want = oracle_search(k32, pt, ct, tspan);
        ASSERT_TRUE(got.has_value() && want.has_value())
            << "entry " << entry << " bit " << int{bit};
        EXPECT_EQ(got->key, want->key);
        EXPECT_EQ(got->search_tried, want->search_tried);
        EXPECT_EQ(got->key, c.key);
        EXPECT_EQ(got->search_tried, c.low + 1u);
      }
    }
  }
}

TEST(PresentPfa, ResidualSearchMatchesOracleOverFullRange) {
  // A uniformly random key (its hidden register bits anywhere in 2^16)
  // against the oracle, and the last candidate the search can reach.
  Rng rng(211);
  const auto search = [&rng](const Present80::Key& key) {
    const auto rk = Present80::expand_key(key);
    auto table = Present80::sbox();
    const auto [v, v_new] = apply_fault(table, {0x6, 0x4});
    (void)v_new;
    const std::span<const std::uint8_t, 16> tspan(table);
    PresentPfa pfa;
    const std::uint64_t k32 =
        pin_k32(pfa, rng, v, rk, Present80::derive_sp_tables(tspan));
    const std::uint64_t pt = rng.next();
    const std::uint64_t ct = Present80::encrypt_with_sbox(pt, rk, tspan);
    const auto got = pfa.recover_master_key(v, pt, ct, tspan);
    const auto want = oracle_search(k32, pt, ct, tspan);
    EXPECT_TRUE(got.has_value() && want.has_value());
    if (!got || !want) return 0u;
    EXPECT_EQ(got->key, key);
    EXPECT_EQ(want->key, key);
    EXPECT_EQ(got->search_tried, want->search_tried);
    return got->search_tried;
  };
  Present80::Key random_key;
  rng.fill_bytes(random_key);
  EXPECT_GE(search(random_key), 1u);
  EXPECT_EQ(search(key_with_register(rng.next(), 0xFFFF)), 1u << 16);
}

TEST(PresentPfa, MismatchedPairFailsAgainWithoutRecovering) {
  // A known pair the key cannot produce: every candidate fails, and a
  // second recover_key() at the same pinned K32 fails the same way.
  // Supplying the right pair afterwards must search again and succeed.
  Rng rng(212);
  Present80::Key key;
  rng.fill_bytes(key);
  const auto rk = Present80::expand_key(key);
  auto table = Present80::sbox();
  const SboxByteFault fault{0xD, 0x2};
  const auto [v, v_new] = apply_fault(table, fault);
  const auto analysis =
      make_analysis(AnalysisKind::kPfaMissingValue,
                    crypto::cipher_for(crypto::CipherKind::kPresent80),
                    FaultModel{fault.index, fault.mask, v, v_new});
  const auto encrypt_bytes = [&](std::uint64_t pt) {
    return u64_to_le_bytes(Present80::encrypt_with_sbox(pt, rk, table));
  };
  for (int i = 0; i < 2000; ++i)
    analysis->add_ciphertext(encrypt_bytes(rng.next()));
  ASSERT_EQ(analysis->remaining_keyspace_log2(), 16.0);

  const std::uint64_t pt = rng.next();
  const std::uint64_t ct = Present80::encrypt_with_sbox(pt, rk, table);
  analysis->set_known_pair(u64_to_le_bytes(pt), u64_to_le_bytes(ct ^ 1));
  EXPECT_FALSE(analysis->recover_key().has_value());
  EXPECT_FALSE(analysis->recover_key().has_value());
  EXPECT_EQ(analysis->residual_search(), 0u);

  analysis->set_known_pair(u64_to_le_bytes(pt), u64_to_le_bytes(ct));
  const auto recovered = analysis->recover_key();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(std::equal(recovered->begin(), recovered->end(), key.begin(),
                         key.end()));
  EXPECT_GT(analysis->residual_search(), 0u);
}

TEST(PresentPfa, RecoversLastRoundKey) {
  Rng rng(201);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x5, 0x2});
  const auto rk = Present80::expand_key(key);

  PresentPfa pfa;
  for (int i = 0; i < 600; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));

  const auto k32 = pfa.recover_k32(v);
  ASSERT_TRUE(k32.has_value());
  EXPECT_EQ(*k32, rk[31]);
  (void)v_new;
}

TEST(PresentPfa, RecoversMasterKeyWithResidualSearch) {
  Rng rng(202);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0xB, 0x8});
  (void)v_new;
  const auto rk = Present80::expand_key(key);

  PresentPfa pfa;
  const std::uint64_t known_pt = rng.next();
  const std::uint64_t known_ct =
      Present80::encrypt_with_sbox(known_pt, rk, table);
  for (int i = 0; i < 800; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));

  const auto result = pfa.recover_master_key(v, known_pt, known_ct, table);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->key, key);
  EXPECT_GE(result->search_tried, 1u);
  EXPECT_LE(result->search_tried, 1u << 16);
}

TEST(PresentPfa, NeedsFarFewerCiphertextsThanAes) {
  // 16-value nibbles saturate after ~O(16 ln 16) ~ 45 samples; 200 is
  // plenty. This is the data-complexity contrast shown in EXP-T6.
  Rng rng(203);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x3, 0x1});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  for (int i = 0; i < 200; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
  EXPECT_TRUE(pfa.recover_k32(v).has_value());
}

TEST(PresentPfa, KeyspaceShrinksMonotonically) {
  Rng rng(204);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x9, 0x4});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  double last = 64.0;
  for (int chunk = 0; chunk < 6; ++chunk) {
    for (int i = 0; i < 30; ++i)
      pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
    const double now = pfa.remaining_keyspace_log2(v);
    EXPECT_LE(now, last + 1e-9);
    last = now;
  }
  EXPECT_DOUBLE_EQ(last, 0.0);
}

TEST(PresentPfa, TooFewCiphertextsAmbiguous) {
  Rng rng(205);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x1, 0x2});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  for (int i = 0; i < 5; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
  EXPECT_FALSE(pfa.recover_k32(v).has_value());
  EXPECT_GT(pfa.remaining_keyspace_log2(v), 0.0);
}

TEST(PresentPfa, ResetClears) {
  PresentPfa pfa;
  pfa.add_ciphertext(0x123456789abcdef0ULL);
  EXPECT_EQ(pfa.ciphertext_count(), 1u);
  pfa.reset();
  EXPECT_EQ(pfa.ciphertext_count(), 0u);
  // Reset restores the incremental tallies too: a fresh engine and a reset
  // one must agree after absorbing the same stream.
  PresentPfa fresh;
  Rng rng(207);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t c = rng.next();
    pfa.add_ciphertext(c);
    fresh.add_ciphertext(c);
  }
  EXPECT_EQ(pfa.recover_k32(0xC), fresh.recover_k32(0xC));
  EXPECT_EQ(pfa.remaining_keyspace_log2(0xC),
            fresh.remaining_keyspace_log2(0xC));
}

TEST(PresentPfa, IncrementalTalliesMatchCandidateRescan) {
  Rng rng(208);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x5, 0x2});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  for (int step = 0; step < 40; ++step) {
    for (int i = 0; i < 20; ++i)
      pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
    const auto cand = pfa.candidates(v);
    double bits = 0.0;
    bool empty = false;
    bool unique = true;
    for (const auto& c : cand) {
      if (c.empty()) empty = true;
      if (c.size() != 1) unique = false;
      bits += c.empty() ? 0.0 : std::log2(static_cast<double>(c.size()));
    }
    EXPECT_DOUBLE_EQ(pfa.remaining_keyspace_log2(v), empty ? 64.0 : bits);
    EXPECT_EQ(pfa.recover_k32(v).has_value(), unique);
  }
  ASSERT_TRUE(pfa.recover_k32(v).has_value());
  EXPECT_EQ(*pfa.recover_k32(v), rk[31]);
}

TEST(PresentPfa, BatchAddEqualsPerCiphertextAdd) {
  Rng rng(209);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  apply_fault(table, {0x3, 0x1});
  const auto rk = Present80::expand_key(key);

  PresentPfa per, batch;
  std::vector<std::uint8_t> flat;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t ct =
        Present80::encrypt_with_sbox(rng.next(), rk, table);
    per.add_ciphertext(ct);
    for (int b = 0; b < 8; ++b)
      flat.push_back(static_cast<std::uint8_t>(ct >> (8 * b)));
  }
  batch.add_ciphertext_batch(flat);
  EXPECT_EQ(batch.ciphertext_count(), per.ciphertext_count());
  const std::uint8_t v = Present80::sbox()[0x3];
  EXPECT_EQ(batch.recover_k32(v), per.recover_k32(v));
  EXPECT_EQ(batch.remaining_keyspace_log2(v), per.remaining_keyspace_log2(v));
}

}  // namespace
}  // namespace explframe::fault
