// Unit tests for the support layer: RNG, bit vectors, the prefix-free wire
// codec, combinatorics, and integer math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "support/bitvec.hpp"
#include "support/check.hpp"
#include "support/combinatorics.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

namespace csd {
namespace {

// ---------------------------------------------------------------- check --
TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(CSD_CHECK(1 == 2), CheckFailure);
  try {
    CSD_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

// A failed check names its source file relative to the checkout, so the
// message's bytes do not depend on where the binary was built.
TEST(Check, NamesItsFileRelativeToTheCheckout) {
  try {
    CSD_CHECK(1 == 2);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(" at tests/test_support.cpp:"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------------ rng --
TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> hist(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++hist[v];
  }
  for (const int h : hist) {
    EXPECT_GT(h, 9000);
    EXPECT_LT(h, 11000);
  }
}

// The rejection loop below() ran for every bound before power-of-two
// bounds took the mask.
std::uint64_t below_by_rejection(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, BelowMatchesTheRejectionLoopDrawForDraw) {
  std::vector<std::uint64_t> bounds = {3, 1000, (1ULL << 63) + 1};
  for (int k = 0; k < 64; ++k) bounds.push_back(1ULL << k);
  for (const std::uint64_t bound : bounds) {
    Rng masked(41), looped(41);
    for (int i = 0; i < 10000; ++i)
      ASSERT_EQ(masked.below(bound), below_by_rejection(looped, bound))
          << "bound " << bound << " draw " << i;
    EXPECT_EQ(masked.state(), looped.state()) << "bound " << bound;
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    lo_seen |= (v == -2);
    hi_seen |= (v == 2);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(11);
  auto p = rng.permutation(100);
  std::sort(p.begin(), p.end());
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (const std::uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto s = rng.sample_without_replacement(100, k);
    ASSERT_EQ(s.size(), k);
    std::set<std::uint32_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), k);
    for (const auto v : s) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(9, 4), derive_seed(9, 4));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// --------------------------------------------------------------- bitvec --
TEST(BitVec, PushAndGet) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, SizedConstructorAndSet) {
  BitVec v(130, false);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  v.set(0);
  v.set(64);
  v.set(129);
  EXPECT_EQ(v.count(), 3u);
  v.set(64, false);
  EXPECT_EQ(v.count(), 2u);
  BitVec ones(70, true);
  EXPECT_EQ(ones.count(), 70u);
}

TEST(BitVec, AppendBitsRoundTrip) {
  BitVec v;
  v.append_bits(0xdeadbeefULL, 32);
  v.append_bits(0x3, 2);
  EXPECT_EQ(v.read_bits(0, 32), 0xdeadbeefULL);
  EXPECT_EQ(v.read_bits(32, 2), 0x3u);
}

TEST(BitVec, IntersectionAndUnion) {
  BitVec a(10), b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(5);
  BitVec i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.get(3));
  BitVec u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
}

TEST(BitVec, FindNext) {
  BitVec v(20);
  v.set(4);
  v.set(17);
  EXPECT_EQ(v.find_next(0), 4u);
  EXPECT_EQ(v.find_next(5), 17u);
  EXPECT_EQ(v.find_next(18), 20u);
}

TEST(BitVec, HashDiffersOnContent) {
  BitVec a(64), b(64);
  b.set(63);
  EXPECT_NE(a.hash(), b.hash());
  BitVec c(65);
  EXPECT_NE(a.hash(), c.hash());  // size participates
}

TEST(BitVec, EqualityAndAppend) {
  BitVec a;
  a.append_bits(0b1011, 4);
  BitVec b;
  b.append_bits(0b1011, 4);
  EXPECT_EQ(a, b);
  a.append(b);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a.read_bits(4, 4), 0b1011u);
}

TEST(BitVec, ClearResets) {
  BitVec v(70, true);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.count(), 0u);
  v.push_back(true);
  EXPECT_EQ(v.size(), 1u);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.below(1), 0u);
}

// ----------------------------------------------------------- word prims --
TEST(Bits, Popcount64) {
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(1), 1);
  EXPECT_EQ(popcount64(~0ULL), 64);
  EXPECT_EQ(popcount64(0x8000000000000001ULL), 2);
  EXPECT_EQ(popcount64(0x5555555555555555ULL), 32);
}

TEST(Bits, CountrZero64) {
  EXPECT_EQ(countr_zero64(0), 64);
  EXPECT_EQ(countr_zero64(1), 0);
  EXPECT_EQ(countr_zero64(0x8000000000000000ULL), 63);
  EXPECT_EQ(countr_zero64(0b1010000), 4);
}

TEST(Bits, BitWidth64) {
  EXPECT_EQ(bit_width64(0), 0);
  EXPECT_EQ(bit_width64(1), 1);
  EXPECT_EQ(bit_width64(2), 2);
  EXPECT_EQ(bit_width64(255), 8);
  EXPECT_EQ(bit_width64(256), 9);
  EXPECT_EQ(bit_width64(~0ULL), 64);
}

// Word-boundary sizes are where the splice logic can go wrong: counts and
// searches over 63/64/65-bit vectors must agree with a bit-by-bit model.
TEST(BitVec, CountAtWordBoundaries) {
  for (const std::size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    BitVec ones(n, true);
    EXPECT_EQ(ones.count(), n) << "n=" << n;
    BitVec v(n);
    v.set(0);
    v.set(n - 1);
    EXPECT_EQ(v.count(), 2u) << "n=" << n;
    EXPECT_EQ(v.find_next(0), 0u);
    EXPECT_EQ(v.find_next(1), n - 1);
    EXPECT_EQ(v.find_next(n - 1), n - 1);
    EXPECT_EQ(v.find_next(n), n);
  }
}

TEST(BitVec, AppendBitsAcrossWordBoundary) {
  // Force a splice that straddles a word: 63 bits, then a 64-bit value.
  BitVec v;
  v.append_bits(0x7fffffffffffffffULL, 63);
  v.append_bits(0xdeadbeefcafef00dULL, 64);
  v.append_bits(0x1, 1);
  ASSERT_EQ(v.size(), 128u);
  EXPECT_EQ(v.read_bits(0, 63), 0x7fffffffffffffffULL);
  EXPECT_EQ(v.read_bits(63, 64), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(v.read_bits(127, 1), 1u);
}

TEST(BitVec, AppendBitsMasksOverwideValue) {
  BitVec v;
  v.append_bits(~0ULL, 5);  // only the low 5 bits may land
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.read_bits(0, 5), 31u);
  EXPECT_EQ(v.count(), 5u);  // trim invariant: no stray high bits
}

// Randomized equivalence against a bit-by-bit reference model.
TEST(BitVec, MatchesBitByBitReference) {
  Rng rng(42);
  BitVec v;
  std::vector<bool> ref;
  for (int step = 0; step < 200; ++step) {
    const auto width = static_cast<unsigned>(1 + rng.below(64));
    const std::uint64_t value = rng();
    v.append_bits(value, width);
    for (unsigned i = 0; i < width; ++i) ref.push_back((value >> i) & 1);
  }
  ASSERT_EQ(v.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(v.get(i), ref[i]) << "bit " << i;
  std::size_t expected_count = 0;
  for (const bool b : ref) expected_count += b;
  EXPECT_EQ(v.count(), expected_count);
  // read_bits at random offsets
  for (int probe = 0; probe < 200; ++probe) {
    const auto width = static_cast<unsigned>(1 + rng.below(64));
    if (v.size() < width) continue;
    const std::size_t pos = rng.below(v.size() - width + 1);
    std::uint64_t expect = 0;
    for (unsigned i = 0; i < width; ++i)
      expect |= static_cast<std::uint64_t>(ref[pos + i]) << i;
    ASSERT_EQ(v.read_bits(pos, width), expect) << "pos " << pos;
  }
}

TEST(BitVec, AppendVectorMatchesReference) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    BitVec a, b;
    std::vector<bool> ref;
    const std::size_t na = rng.below(130), nb = rng.below(130);
    for (std::size_t i = 0; i < na; ++i) {
      const bool bit = rng.below(2) == 1;
      a.push_back(bit);
      ref.push_back(bit);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      const bool bit = rng.below(2) == 1;
      b.push_back(bit);
      ref.push_back(bit);
    }
    a.append(b);
    ASSERT_EQ(a.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(a.get(i), ref[i]) << "trial " << trial << " bit " << i;
  }
}

TEST(BitVec, SelfAppendIsAnError) {
  BitVec v;
  v.append_bits(0b101, 3);
  EXPECT_THROW(v.append(v), CheckFailure);
}

TEST(BitVec, IntersectHelpers) {
  BitVec a(200), b(200);
  for (std::size_t i = 0; i < 200; i += 3) a.set(i);
  for (std::size_t i = 0; i < 200; i += 5) b.set(i);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < 200; i += 15) ++expect;
  EXPECT_EQ(intersect_count(a, b), expect);
  BitVec dst;
  intersect_into(dst, a, b);
  EXPECT_EQ(dst.size(), 200u);
  EXPECT_EQ(dst.count(), expect);
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_EQ(dst.get(i), i % 15 == 0);
  // Aliasing: dst may be one of the operands.
  intersect_into(a, a, b);
  EXPECT_EQ(a, dst);
}

// Equal-size contract: mixing sizes in the set-algebra operations is a
// caller bug and must throw, not silently zero-extend.
TEST(BitVec, SetOpsRejectMismatchedSizes) {
  BitVec a(64), b(65), dst;
  EXPECT_THROW(a &= b, CheckFailure);
  EXPECT_THROW(a |= b, CheckFailure);
  EXPECT_THROW(intersect_count(a, b), CheckFailure);
  EXPECT_THROW(intersect_into(dst, a, b), CheckFailure);
}

TEST(BitVec, ForEachSetVisitsAscending) {
  BitVec v(150);
  const std::vector<std::size_t> want = {0, 63, 64, 65, 127, 149};
  for (const auto i : want) v.set(i);
  std::vector<std::size_t> got;
  for_each_set(v, [&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitVec, AssignReusesStorage) {
  BitVec big(1000, true);
  BitVec small;
  small.append_bits(0b110, 3);
  big.assign(small);
  EXPECT_EQ(big.size(), 3u);
  EXPECT_EQ(big, small);
  big.assign(BitVec(70, true));
  EXPECT_EQ(big.count(), 70u);
}

TEST(BitVec, TruncateKeepsTrimInvariant) {
  BitVec v(130, true);
  v.truncate(65);
  EXPECT_EQ(v.size(), 65u);
  EXPECT_EQ(v.count(), 65u);
  v.append_bits(0, 63);  // spliced against the trimmed tail word
  EXPECT_EQ(v.count(), 65u);
  EXPECT_EQ(v.read_bits(64, 64), 1u);
}

// ------------------------------------------------- BitVec storage rule --
// Up to BitVec::kInlineBits bits live inline; past that in a heap buffer
// that clear() and truncate() keep. Contents never depend on the storage.

// The bits of `v` as bools, read one at a time.
std::vector<bool> bits_of(const BitVec& v) {
  std::vector<bool> out;
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back(v.get(i));
  return out;
}

// A `bits`-bit vector with a position-dependent pattern; `salt` varies it.
BitVec patterned(std::size_t bits, std::uint64_t salt = 0) {
  BitVec v;
  for (std::size_t i = 0; i < bits; ++i)
    v.push_back(((i * 7 + salt) % 3) == 0);
  return v;
}

TEST(BitVecStorage, GrowsPastTheInlineWordsAndShrinksBack) {
  Rng rng(11);
  for (int grow_by = 0; grow_by < 3; ++grow_by) {
    BitVec v;
    std::vector<bool> want;
    while (v.size() <= BitVec::kInlineBits + 70) {
      EXPECT_EQ(v.on_heap(), v.size() > BitVec::kInlineBits) << v.size();
      if (grow_by == 0) {  // append_bits, 13 bits at a time
        const std::uint64_t value = rng();
        v.append_bits(value, 13);
        for (unsigned i = 0; i < 13; ++i) want.push_back((value >> i) & 1);
      } else if (grow_by == 1) {  // push_back
        const bool bit = rng.below(2) == 1;
        v.push_back(bit);
        want.push_back(bit);
      } else {  // append, 37 bits at a time
        const BitVec piece = patterned(37, v.size());
        v.append(piece);
        const auto piece_bits = bits_of(piece);
        want.insert(want.end(), piece_bits.begin(), piece_bits.end());
      }
      ASSERT_EQ(bits_of(v), want);
    }
    ASSERT_TRUE(v.on_heap());
    // Back below 128 bits: the heap buffer stays, the contents follow.
    v.truncate(100);
    want.resize(100);
    EXPECT_TRUE(v.on_heap());
    EXPECT_EQ(bits_of(v), want);
    v.clear();
    EXPECT_TRUE(v.on_heap());
    EXPECT_TRUE(v.empty());
    v.append_bits(0b1011, 4);
    EXPECT_EQ(v.read_bits(0, 4), 0b1011u);
    EXPECT_EQ(v.count(), 3u);
  }
}

TEST(BitVecStorage, CopyMoveSwapAndSelfAssignmentAcrossStorage) {
  const std::size_t sizes[] = {100, 300};  // inline, heap
  for (const std::size_t a_bits : sizes) {
    for (const std::size_t b_bits : sizes) {
      SCOPED_TRACE(testing::Message() << a_bits << " x " << b_bits);
      const BitVec a0 = patterned(a_bits, 1);
      const BitVec b0 = patterned(b_bits, 2);
      EXPECT_EQ(a0.on_heap(), a_bits > BitVec::kInlineBits);

      BitVec copy(a0);  // copy construction
      EXPECT_EQ(copy, a0);
      BitVec target = b0;  // copy assignment over each storage
      target = a0;
      EXPECT_EQ(target, a0);

      BitVec source = a0;  // move construction empties the source
      BitVec moved(std::move(source));
      EXPECT_EQ(moved, a0);
      EXPECT_TRUE(source.empty());
      EXPECT_FALSE(source.on_heap());
      source.append_bits(0b11, 2);  // a moved-from vector is usable
      EXPECT_EQ(source.count(), 2u);

      BitVec over = b0;  // move assignment over each storage
      BitVec from = a0;
      over = std::move(from);
      EXPECT_EQ(over, a0);
      EXPECT_TRUE(from.empty());

      BitVec x = a0, y = b0;  // member swap, then the ADL swap back
      x.swap(y);
      EXPECT_EQ(x, b0);
      EXPECT_EQ(y, a0);
      EXPECT_EQ(x.on_heap(), b0.on_heap());
      swap(x, y);
      EXPECT_EQ(x, a0);
      EXPECT_EQ(y, b0);

      BitVec self = a0;  // self-assignment keeps the contents
      BitVec& alias = self;
      self = alias;
      EXPECT_EQ(self, a0);
      self = std::move(alias);
      EXPECT_EQ(self, a0);
      self.swap(alias);
      EXPECT_EQ(self, a0);
    }
  }
}

TEST(BitVecStorage, EqualityAndHashIgnoreTheStorage) {
  for (const std::size_t bits : {0u, 1u, 64u, 100u, 128u}) {
    const BitVec in_line = patterned(bits, 3);
    BitVec on_heap = patterned(BitVec::kInlineBits + 64, 3);
    on_heap.truncate(bits);
    ASSERT_FALSE(in_line.on_heap());
    ASSERT_TRUE(on_heap.on_heap());
    EXPECT_EQ(in_line, on_heap) << bits;
    EXPECT_EQ(in_line.hash(), on_heap.hash()) << bits;
    if (bits > 0) {
      on_heap.flip(bits - 1);
      EXPECT_FALSE(in_line == on_heap) << bits;
    }
  }
}

TEST(BitVecStorage, IntersectIntoMayAliasAnOperandAtEitherSize) {
  for (const std::size_t bits : {100u, 300u}) {
    SCOPED_TRACE(bits);
    const BitVec a0 = patterned(bits, 0);
    const BitVec b0 = patterned(bits, 1);
    BitVec want;
    intersect_into(want, a0, b0);
    for (std::size_t i = 0; i < bits; ++i)
      ASSERT_EQ(want.get(i), a0.get(i) && b0.get(i));
    BitVec a = a0, b = b0;
    intersect_into(a, a, b);  // dst aliases a
    EXPECT_EQ(a, want);
    a = a0;
    intersect_into(b, a, b);  // dst aliases b
    EXPECT_EQ(b, want);
    BitVec both = a0;
    intersect_into(both, both, both);  // dst aliases both
    EXPECT_EQ(both, a0);
  }
}

// ----------------------------------------------------------------- wire --
TEST(Wire, BitsFor) {
  EXPECT_EQ(wire::bits_for(0), 1u);
  EXPECT_EQ(wire::bits_for(1), 1u);
  EXPECT_EQ(wire::bits_for(2), 1u);
  EXPECT_EQ(wire::bits_for(3), 2u);
  EXPECT_EQ(wire::bits_for(256), 8u);
  EXPECT_EQ(wire::bits_for(257), 9u);
}

TEST(Wire, FixedWidthRoundTrip) {
  wire::Writer w;
  w.u(5, 3);
  w.boolean(true);
  w.u(1023, 10);
  wire::Reader r(w.bits());
  EXPECT_EQ(r.u(3), 5u);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.u(10), 1023u);
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, VarintRoundTrip) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 1ULL << 40,
        ~0ULL}) {
    wire::Writer w;
    w.varint(v);
    wire::Reader r(w.bits());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.at_end());
  }
}

// The tenth group sits at shift 63 and has room for one bit. A wider one
// must throw: 0x7f there would otherwise decode to ~0, the same value as the
// writer's own encoding (last group 0x01), so six damaged bits would vanish.
TEST(Wire, VarintRejectsAnOverflowingTenthGroup) {
  const auto ten_groups = [](std::uint64_t last) {
    wire::Writer w;
    for (int g = 0; g < 9; ++g) {
      w.boolean(true);
      w.u(0x7f, 7);
    }
    w.boolean(false);
    w.u(last, 7);
    return std::move(w).take();
  };
  const BitVec ok = ten_groups(0x01);
  wire::Reader valid(ok);
  EXPECT_EQ(valid.varint(), ~0ULL);
  for (const std::uint64_t last : {0x02ULL, 0x03ULL, 0x7fULL}) {
    const BitVec bad = ten_groups(last);
    wire::Reader r(bad);
    EXPECT_THROW(r.varint(), CheckFailure) << last;
  }
}

TEST(Wire, VarintIsPrefixFree) {
  // No encoding is a prefix of another (required by §4's transcript
  // argument): check pairwise over a sample.
  std::vector<BitVec> encodings;
  for (std::uint64_t v = 0; v < 200; ++v) {
    wire::Writer w;
    w.varint(v);
    encodings.push_back(std::move(w).take());
  }
  for (std::size_t a = 0; a < encodings.size(); ++a)
    for (std::size_t b = 0; b < encodings.size(); ++b) {
      if (a == b || encodings[a].size() > encodings[b].size()) continue;
      bool is_prefix = true;
      for (std::size_t i = 0; i < encodings[a].size(); ++i)
        is_prefix &= encodings[a].get(i) == encodings[b].get(i);
      EXPECT_FALSE(is_prefix) << a << " prefixes " << b;
    }
}

TEST(Wire, ReadPastEndThrows) {
  wire::Writer w;
  w.u(3, 2);
  wire::Reader r(w.bits());
  r.u(2);
  EXPECT_THROW(r.u(1), CheckFailure);
}

TEST(Wire, OverwideValueRejected) {
  wire::Writer w;
  EXPECT_THROW(w.u(4, 2), CheckFailure);
}

TEST(Wire, RawRoundTrip) {
  BitVec payload;
  payload.append_bits(0b10110, 5);
  wire::Writer w;
  w.u(9, 4);
  w.raw(payload);
  wire::Reader r(w.bits());
  EXPECT_EQ(r.u(4), 9u);
  EXPECT_EQ(r.raw(5), payload);
  // Runs across word boundaries, read from an unaligned position.
  Rng rng(5);
  for (const std::size_t run : {0u, 1u, 63u, 64u, 65u, 128u, 129u, 300u}) {
    BitVec long_run;
    for (std::size_t i = 0; i < run; ++i) long_run.push_back(rng.below(2) == 1);
    wire::Writer lw;
    lw.u(5, 3);
    lw.raw(long_run);
    lw.boolean(true);
    wire::Reader lr(lw.bits());
    EXPECT_EQ(lr.u(3), 5u);
    EXPECT_EQ(lr.raw(run), long_run) << run;
    EXPECT_TRUE(lr.boolean());
    EXPECT_TRUE(lr.at_end());
  }
}

// -------------------------------------------------------- combinatorics --
TEST(Combinatorics, BinomialSmall) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(3, 5), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Combinatorics, BinomialPascalIdentity) {
  for (std::uint64_t n = 1; n <= 30; ++n)
    for (std::uint64_t k = 1; k <= n; ++k)
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
}

TEST(Combinatorics, BinomialSaturates) {
  EXPECT_EQ(binomial(1000, 500), std::numeric_limits<std::uint64_t>::max());
}

TEST(Combinatorics, UnrankRankInverse) {
  const std::uint32_t m = 8, k = 3;
  std::set<std::vector<std::uint32_t>> seen;
  for (std::uint64_t r = 0; r < binomial(m, k); ++r) {
    const auto subset = unrank_k_subset(r, m, k);
    ASSERT_EQ(subset.size(), k);
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
    for (const auto e : subset) EXPECT_LT(e, m);
    EXPECT_EQ(rank_k_subset(subset, m), r);
    seen.insert(subset);
  }
  EXPECT_EQ(seen.size(), binomial(m, k));  // all distinct
}

TEST(Combinatorics, UnrankRoundTripsAtFrameSizes) {
  // m = 364 is the THM12 frame's m at k = 2, n = 32768; 65536 makes each
  // element's binary search span 16 halvings.
  Rng rng(41);
  for (const std::uint32_t m : {364u, 1024u, 65536u}) {
    for (std::uint32_t k = 1; k <= 4; ++k) {
      const std::uint64_t total = binomial(m, k);
      std::vector<std::uint64_t> ranks = {0, 1, total - 1};
      for (int i = 0; i < 200; ++i) ranks.push_back(rng.below(total));
      for (const std::uint64_t r : ranks) {
        const auto subset = unrank_k_subset(r, m, k);
        ASSERT_EQ(subset.size(), k);
        for (std::size_t i = 1; i < k; ++i)
          EXPECT_LT(subset[i - 1], subset[i]) << "m=" << m << " r=" << r;
        EXPECT_LT(subset.back(), m);
        EXPECT_EQ(rank_k_subset(subset, m), r) << "m=" << m << " k=" << k;
      }
    }
  }
  // C(65536, 6) saturates; ranks below the saturated count still unrank.
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max() - 1;
  EXPECT_EQ(rank_k_subset(unrank_k_subset(top, 65536, 6), 65536), top);
}

TEST(Combinatorics, UnrankOutOfRangeThrows) {
  EXPECT_THROW(unrank_k_subset(binomial(6, 2), 6, 2), CheckFailure);
}

TEST(Combinatorics, ForEachKSubsetEnumeratesAll) {
  std::uint64_t count = 0;
  std::set<std::vector<std::uint32_t>> seen;
  for_each_k_subset(7, 3, [&](const std::vector<std::uint32_t>& s) {
    ++count;
    seen.insert(s);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  });
  EXPECT_EQ(count, binomial(7, 3));
  EXPECT_EQ(seen.size(), count);
}

TEST(Combinatorics, ForEachKSubsetEdgeCases) {
  int count = 0;
  for_each_k_subset(3, 5, [&](const auto&) { ++count; });
  EXPECT_EQ(count, 0);
  for_each_k_subset(3, 3, [&](const auto& s) {
    ++count;
    EXPECT_EQ(s.size(), 3u);
  });
  EXPECT_EQ(count, 1);
}

// ------------------------------------------------------------- mathutil --
TEST(MathUtil, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(7, 0), 1u);
  EXPECT_EQ(ipow(10, 19), 10000000000000000000ULL);
  EXPECT_EQ(ipow(2, 64), std::numeric_limits<std::uint64_t>::max());
}

TEST(MathUtil, Roots) {
  EXPECT_EQ(floor_kth_root(8, 3), 2u);
  EXPECT_EQ(floor_kth_root(9, 3), 2u);
  EXPECT_EQ(ceil_kth_root(8, 3), 2u);
  EXPECT_EQ(ceil_kth_root(9, 3), 3u);
  EXPECT_EQ(ceil_kth_root(1, 5), 1u);
  EXPECT_EQ(ceil_kth_root(0, 2), 0u);
  for (std::uint64_t n = 1; n < 500; ++n)
    for (std::uint32_t k = 1; k <= 4; ++k) {
      const auto f = floor_kth_root(n, k);
      EXPECT_LE(ipow(f, k), n);
      EXPECT_GT(ipow(f + 1, k), n);
      const auto c = ceil_kth_root(n, k);
      EXPECT_GE(ipow(c, k), n);
      if (c > 0) {
        EXPECT_LT(ipow(c - 1, k), n);
      }
    }
}

TEST(MathUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(MathUtil, EvenCycleEdgeBound) {
  // M = ⌈c·n·⌈n^{1/k}⌉⌉.
  EXPECT_EQ(even_cycle_edge_bound(100, 2, 1, 1), 1000u);  // 100 * 10
  EXPECT_EQ(even_cycle_edge_bound(100, 2, 4, 1), 4000u);
  EXPECT_EQ(even_cycle_edge_bound(100, 2, 1, 2), 500u);
  // Monotone in n.
  std::uint64_t prev = 0;
  for (std::uint64_t n = 2; n < 300; ++n) {
    const auto m = even_cycle_edge_bound(n, 3, 1, 1);
    EXPECT_GE(m, prev);
    prev = m;
  }
}

TEST(MathUtil, CeilPowRatio) {
  EXPECT_EQ(ceil_pow_ratio(16, 1, 2), 4u);   // 16^{1/2}
  EXPECT_EQ(ceil_pow_ratio(17, 1, 2), 5u);   // ⌈17^{1/2}⌉
  EXPECT_EQ(ceil_pow_ratio(8, 2, 3), 4u);    // 8^{2/3}
  EXPECT_EQ(ceil_pow_ratio(100, 3, 2), 1000u);
}

// ---------------------------------------------------------------- table --
TEST(Table, PrintsAlignedRows) {
  Table t({"n", "rounds", "ratio"});
  t.row().cell(std::uint64_t{16}).cell(std::uint64_t{42}).cell(1.5, 2);
  t.row().cell(std::uint64_t{256}).cell(std::uint64_t{9000}).cell(0.33, 2);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("rounds"), std::string::npos);
  EXPECT_NE(s.find("9000"), std::string::npos);
  EXPECT_NE(s.find("0.33"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, IncompleteRowRejected) {
  Table t({"a", "b"});
  t.row().cell(1);
  EXPECT_THROW(t.row(), CheckFailure);
}

TEST(Table, BoolCells) {
  Table t({"ok"});
  t.row().cell(true);
  t.row().cell(false);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("yes"), std::string::npos);
  EXPECT_NE(os.str().find("no"), std::string::npos);
}

}  // namespace
}  // namespace csd
