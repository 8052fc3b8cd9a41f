#include "sketch/hll.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lockdown::sketch {
namespace {

TEST(HyperLogLog, RejectsBadPrecision) {
  EXPECT_THROW(HyperLogLog::Seeded(3, 1), std::invalid_argument);
  EXPECT_THROW(HyperLogLog::Seeded(17, 1), std::invalid_argument);
  EXPECT_NO_THROW(HyperLogLog::Seeded(4, 1));
  EXPECT_NO_THROW(HyperLogLog::Seeded(16, 1));
}

TEST(HyperLogLog, EmptyEstimatesZero) {
  EXPECT_DOUBLE_EQ(HyperLogLog::Seeded(12, 7).Estimate(), 0.0);
}

TEST(HyperLogLog, SmallCardinalityIsNearExact) {
  // Linear counting regime: tiny sets should be estimated almost exactly.
  auto hll = HyperLogLog::Seeded(12, 42);
  for (std::uint64_t i = 0; i < 100; ++i) hll.Add(i);
  EXPECT_NEAR(hll.Estimate(), 100.0, 3.0);
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  auto hll = HyperLogLog::Seeded(12, 42);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 200; ++i) hll.Add(i);
  }
  EXPECT_NEAR(hll.Estimate(), 200.0, 6.0);
}

TEST(HyperLogLog, RelativeErrorWithinFourSigmaAcrossSeeds) {
  // Property: for each of several seeds and cardinalities, the estimate
  // lands within 4 standard errors of the truth. 4 sigma per trial keeps
  // the aggregate false-failure probability negligible.
  const std::vector<std::uint64_t> cardinalities = {1000, 10000, 100000};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::uint64_t n : cardinalities) {
      auto hll = HyperLogLog::Seeded(12, seed);
      // Distinct per-(seed, n) universes so trials are independent.
      for (std::uint64_t i = 0; i < n; ++i) {
        hll.Add((seed << 40) ^ (n << 20) ^ i);
      }
      const double err =
          std::abs(hll.Estimate() - static_cast<double>(n)) /
          static_cast<double>(n);
      EXPECT_LT(err, 4.0 * hll.RelativeStandardError())
          << "seed=" << seed << " n=" << n
          << " estimate=" << hll.Estimate();
    }
  }
}

TEST(HyperLogLog, DeterministicAcrossInstances) {
  auto a = HyperLogLog::Seeded(10, 9);
  auto b = HyperLogLog::Seeded(10, 9);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    a.Add(i * 2654435761u);
    b.Add(i * 2654435761u);
  }
  ASSERT_EQ(a.registers().size(), b.registers().size());
  for (std::size_t i = 0; i < a.registers().size(); ++i) {
    EXPECT_EQ(a.registers()[i], b.registers()[i]);
  }
}

TEST(HyperLogLog, MergeEqualsUnion) {
  auto whole = HyperLogLog::Seeded(12, 3);
  auto left = HyperLogLog::Seeded(12, 3);
  auto right = HyperLogLog::Seeded(12, 3);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    whole.Add(i);
    (i % 2 == 0 ? left : right).Add(i);
  }
  left.Merge(right);
  EXPECT_DOUBLE_EQ(left.Estimate(), whole.Estimate());
}

TEST(HyperLogLog, MergeAssociativeAndCommutative) {
  const auto make = [](std::uint64_t lo, std::uint64_t hi) {
    auto hll = HyperLogLog::Seeded(10, 5);
    for (std::uint64_t i = lo; i < hi; ++i) hll.Add(i);
    return hll;
  };
  const auto a = make(0, 3000);
  const auto b = make(2000, 6000);
  const auto c = make(5000, 9000);

  auto ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  auto bc = b;
  bc.Merge(c);
  auto a_bc = a;
  a_bc.Merge(bc);
  auto cba = c;
  cba.Merge(b);
  cba.Merge(a);

  for (std::size_t i = 0; i < ab_c.registers().size(); ++i) {
    EXPECT_EQ(ab_c.registers()[i], a_bc.registers()[i]);
    EXPECT_EQ(ab_c.registers()[i], cba.registers()[i]);
  }
}

TEST(HyperLogLog, MergeRejectsMismatch) {
  auto a = HyperLogLog::Seeded(10, 1);
  EXPECT_THROW(a.Merge(HyperLogLog::Seeded(11, 1)), MergeError);
  EXPECT_THROW(a.Merge(HyperLogLog::Seeded(10, 2)), MergeError);
}

// The estimator as first written, with std::ldexp per register; Estimate()
// must reproduce it bit for bit. `linear` reports the branch taken.
double LdexpReferenceEstimate(const HyperLogLog& hll, bool& linear) {
  const auto registers = hll.registers();
  const std::size_t size = registers.size();
  const auto m = static_cast<double>(size);
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    zeros += reg == 0;
  }
  const double alpha = size == 16   ? 0.673
                       : size == 32 ? 0.697
                       : size == 64 ? 0.709
                                    : 0.7213 / (1.0 + 1.079 / m);
  const double raw = alpha * m * m / inverse_sum;
  linear = raw <= 2.5 * m && zeros != 0;
  return linear ? m * std::log(m / static_cast<double>(zeros)) : raw;
}

TEST(HyperLogLog, EstimateMatchesLdexpReference) {
  for (int p = HyperLogLog::kMinPrecision; p <= HyperLogLog::kMaxPrecision; ++p) {
    const std::uint64_t m = std::uint64_t{1} << p;
    // m/4 items stay in the linear-counting regime, 8m reach the raw one.
    for (const std::uint64_t n : {m / 4, 8 * m}) {
      auto hll = HyperLogLog::Seeded(p, 17);
      for (std::uint64_t i = 0; i < n; ++i) hll.Add(i);
      bool linear = false;
      const double expected = LdexpReferenceEstimate(hll, linear);
      EXPECT_EQ(linear, n < m) << "p=" << p << " n=" << n;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hll.Estimate()),
                std::bit_cast<std::uint64_t>(expected))
          << "p=" << p << " n=" << n << " estimate=" << hll.Estimate()
          << " reference=" << expected;
    }
  }
}

TEST(HyperLogLog, MemoryBytesScalesWithPrecision) {
  EXPECT_GE(HyperLogLog::Seeded(12, 1).MemoryBytes(), std::size_t{4096});
  EXPECT_LT(HyperLogLog::Seeded(6, 1).MemoryBytes(), std::size_t{4096});
}

}  // namespace
}  // namespace lockdown::sketch
