// Randomized scalar-vs-SIMD equivalence for the common::simd kernels and
// the blocked batch traversal of FlattenedForest.
//
// The contract under test (src/common/simd.hpp): every kernel returns
// bit-identical results on every dispatch arm the host supports, across
// alignment offsets, tail lengths 0..width-1, and NaN placement. The
// scalar arm is pinned with forceLevel and used as the reference; each
// richer arm must reproduce it exactly, compared through bit_cast so NaN
// payloads and signed zeros count too. The batched forest walk is held to
// the same standard against the per-row `predict` walk, and the flat
// format's one layout admits no `layout` marker.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.hpp"
#include "common/stats.hpp"
#include "core/lookback_ring.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/serialize.hpp"

namespace {

using vcaqoe::common::simd::Level;

/// RAII pin for the dispatch arm; restores auto-detection on scope exit.
struct ForcedLevel {
  explicit ForcedLevel(Level level) { vcaqoe::common::simd::forceLevel(level); }
  ~ForcedLevel() { vcaqoe::common::simd::clearForcedLevel(); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
};

/// Every arm this host can actually run; always includes kScalar.
std::vector<Level> testableLevels() {
  std::vector<Level> levels{Level::kScalar};
  for (const Level l : {Level::kSse2, Level::kAvx2, Level::kNeon}) {
    if (vcaqoe::common::simd::supported(l)) levels.push_back(l);
  }
  return levels;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Buffer sizes straddling every interesting boundary: the sequential
/// cutover (8), the 4-lane group width, and the 8/16-wide match sweeps.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                              11, 12, 13, 15, 16, 17, 23, 31, 32, 33,
                              63, 64, 65, 100, 127, 128, 129, 200};

}  // namespace

TEST(SimdDispatch, ToStringCoversEveryLevel) {
  EXPECT_STREQ("scalar", toString(Level::kScalar));
  EXPECT_STREQ("sse2", toString(Level::kSse2));
  EXPECT_STREQ("avx2", toString(Level::kAvx2));
  EXPECT_STREQ("neon", toString(Level::kNeon));
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndForceable) {
  EXPECT_TRUE(vcaqoe::common::simd::supported(Level::kScalar));
  ForcedLevel pin(Level::kScalar);
  EXPECT_EQ(Level::kScalar, vcaqoe::common::simd::activeLevel());
}

TEST(SimdDispatch, ActiveLevelIsAlwaysSupported) {
  EXPECT_TRUE(
      vcaqoe::common::simd::supported(vcaqoe::common::simd::activeLevel()));
}

TEST(SimdDispatch, ForcingAnUnsupportedLevelPinsScalar) {
  // At most one of NEON / SSE2 exists on any one architecture, so one of
  // them is always the unsupported probe.
  const Level unsupported = vcaqoe::common::simd::supported(Level::kSse2)
                                ? Level::kNeon
                                : Level::kSse2;
  ASSERT_FALSE(vcaqoe::common::simd::supported(unsupported));
  ForcedLevel pin(unsupported);
  EXPECT_EQ(Level::kScalar, vcaqoe::common::simd::activeLevel());
}

TEST(SimdKernels, SumMatchesScalarAcrossLevelsAlignmentsTailsAndNaN) {
  std::mt19937 rng(20230901);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  for (const std::size_t n : kSizes) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (const bool withNaN : {false, true}) {
        std::vector<double> buf(n + offset + 4);
        for (auto& x : buf) x = value(rng);
        double* xs = buf.data() + offset;
        if (withNaN && n > 0) {
          xs[rng() % n] = std::numeric_limits<double>::quiet_NaN();
        }
        double expect = 0.0;
        {
          ForcedLevel pin(Level::kScalar);
          expect = vcaqoe::common::simd::sumF64(xs, n);
        }
        for (const Level level : testableLevels()) {
          ForcedLevel pin(level);
          const double got = vcaqoe::common::simd::sumF64(xs, n);
          EXPECT_EQ(bits(expect), bits(got))
              << "sumF64 n=" << n << " offset=" << offset << " nan="
              << withNaN << " level=" << toString(level);
        }
      }
    }
  }
}

TEST(SimdKernels, MinMaxMatchesScalarAcrossLevelsAlignmentsTailsAndNaN) {
  std::mt19937 rng(20230902);
  std::uniform_real_distribution<double> value(-1e9, 1e9);
  for (const std::size_t n : kSizes) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (const int nanCount : {0, 1, 3}) {
        std::vector<double> buf(n + offset + 4);
        for (auto& x : buf) x = value(rng);
        double* xs = buf.data() + offset;
        for (int k = 0; k < nanCount && n > 0; ++k) {
          xs[rng() % n] = std::numeric_limits<double>::quiet_NaN();
        }
        // Signed zeros exercise the MINPD ordered-compare rule too.
        if (n > 2) {
          xs[0] = 0.0;
          xs[1] = -0.0;
        }
        vcaqoe::common::simd::MinMaxF64 expect;
        {
          ForcedLevel pin(Level::kScalar);
          expect = vcaqoe::common::simd::minMaxF64(xs, n);
        }
        for (const Level level : testableLevels()) {
          ForcedLevel pin(level);
          const auto got = vcaqoe::common::simd::minMaxF64(xs, n);
          EXPECT_EQ(bits(expect.min), bits(got.min))
              << "min n=" << n << " offset=" << offset << " nans="
              << nanCount << " level=" << toString(level);
          EXPECT_EQ(bits(expect.max), bits(got.max))
              << "max n=" << n << " offset=" << offset << " nans="
              << nanCount << " level=" << toString(level);
        }
      }
    }
  }
}

TEST(SimdKernels, CentralMoment2MatchesScalarAcrossLevels) {
  std::mt19937 rng(20230903);
  std::uniform_real_distribution<double> value(-1e3, 1e3);
  for (const std::size_t n : kSizes) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      std::vector<double> buf(n + offset + 4);
      for (auto& x : buf) x = value(rng);
      double* xs = buf.data() + offset;
      const double mu = value(rng);
      double expect = 0.0;
      {
        ForcedLevel pin(Level::kScalar);
        expect = vcaqoe::common::simd::centralMoment2F64(xs, n, mu);
      }
      for (const Level level : testableLevels()) {
        ForcedLevel pin(level);
        const double got = vcaqoe::common::simd::centralMoment2F64(xs, n, mu);
        EXPECT_EQ(bits(expect), bits(got))
            << "moment2 n=" << n << " offset=" << offset
            << " level=" << toString(level);
      }
    }
  }
}

TEST(SimdKernels, SmallSpansUseTheSequentialContract) {
  // Part of the public contract: below the cutover the kernels are a plain
  // left fold, so the historical values of tiny windows never moved.
  // Integer-valued doubles make the checks exact no matter how this test
  // file itself was compiled.
  const std::vector<double> xs{5, -3, 11, 2, -7, 13, 1};
  for (std::size_t n = 0; n <= xs.size(); ++n) {
    double fold = 0.0;
    double mn = n ? xs[0] : 0.0;
    double mx = n ? xs[0] : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      fold += xs[i];
      mn = std::min(mn, xs[i]);
      mx = std::max(mx, xs[i]);
    }
    for (const Level level : testableLevels()) {
      ForcedLevel pin(level);
      EXPECT_EQ(fold, vcaqoe::common::simd::sumF64(xs.data(), n));
      const auto minmax = vcaqoe::common::simd::minMaxF64(xs.data(), n);
      EXPECT_EQ(mn, minmax.min);
      EXPECT_EQ(mx, minmax.max);
    }
  }
}

TEST(SimdKernels, FindLastMatchAgreesWithNaiveOracleAcrossLevels) {
  std::mt19937 rng(20230904);
  for (const std::size_t n : kSizes) {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint32_t> sizes(n);
      // Cluster sizes so matches are common, with occasional extremes to
      // exercise the unsigned wrap/bias arithmetic.
      for (auto& s : sizes) {
        const int kind = static_cast<int>(rng() % 8);
        if (kind == 0) {
          s = 0;
        } else if (kind == 1) {
          s = std::numeric_limits<std::uint32_t>::max() - (rng() % 3);
        } else {
          s = 1000 + rng() % 64;
        }
      }
      const std::uint32_t target =
          round % 2 ? 1000 + static_cast<std::uint32_t>(rng() % 64)
                    : static_cast<std::uint32_t>(rng());
      const std::uint32_t deltaMax =
          round < 2 ? std::numeric_limits<std::uint32_t>::max()
                    : static_cast<std::uint32_t>(rng() % 40);
      std::ptrdiff_t oracle = -1;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t diff =
            sizes[i] > target ? sizes[i] - target : target - sizes[i];
        if (diff <= deltaMax) oracle = static_cast<std::ptrdiff_t>(i);
      }
      for (const Level level : testableLevels()) {
        ForcedLevel pin(level);
        EXPECT_EQ(oracle, vcaqoe::common::simd::findLastMatchU32(
                              sizes.data(), n, target, deltaMax))
            << "n=" << n << " target=" << target << " delta=" << deltaMax
            << " level=" << toString(level);
      }
    }
  }
}

TEST(SimdKernels, IatMillisMatchesScalarIncludingGuardEdges) {
  std::mt19937 rng(20230905);
  for (const std::size_t n : kSizes) {
    std::vector<std::int64_t> arrival(n);
    std::int64_t t = 1'700'000'000'000'000'000LL;
    for (std::size_t i = 0; i < n; ++i) {
      t += static_cast<std::int64_t>(rng() % 40'000'000);  // 0..40 ms
      arrival[i] = t;
    }
    // Guard edges: a backwards jump and a > 2^52 ns jump must fall back to
    // the scalar cast inside the vector arm, not corrupt the conversion.
    if (n > 6) {
      arrival[3] = arrival[2] - 5'000'000;
      arrival[6] = arrival[5] + (INT64_C(1) << 53);
    }
    std::vector<double> expect(n > 1 ? n - 1 : 0);
    {
      ForcedLevel pin(Level::kScalar);
      vcaqoe::common::simd::iatMillisF64(arrival.data(), n, expect.data());
    }
    for (const Level level : testableLevels()) {
      ForcedLevel pin(level);
      std::vector<double> got(expect.size(), -1.0);
      vcaqoe::common::simd::iatMillisF64(arrival.data(), n, got.data());
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(bits(expect[i]), bits(got[i]))
            << "iat i=" << i << " n=" << n << " level=" << toString(level);
      }
    }
  }
}

TEST(SimdKernels, U32WideningIsExactAcrossLevels) {
  std::mt19937 rng(20230906);
  for (const std::size_t n : kSizes) {
    std::vector<std::uint32_t> xs(n);
    for (auto& x : xs) {
      x = rng() % 4 == 0 ? static_cast<std::uint32_t>(rng()) : 1200 + rng() % 300;
    }
    for (const Level level : testableLevels()) {
      ForcedLevel pin(level);
      std::vector<double> out(n, -1.0);
      vcaqoe::common::simd::u32ToF64(xs.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(static_cast<double>(xs[i])), bits(out[i]))
            << "u32 i=" << i << " level=" << toString(level);
      }
    }
  }
}

TEST(SimdKernels, PublicStatsAreBitIdenticalAcrossLevels) {
  // The stats entry points (mean / sampleStdev / fiveNumber) route through
  // the kernels; pinning arms must never change what callers observe.
  std::mt19937 rng(20230907);
  std::uniform_real_distribution<double> value(0.0, 2000.0);
  for (const std::size_t n : {0u, 3u, 7u, 8u, 40u, 129u}) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = value(rng);
    vcaqoe::common::FiveNumber expect;
    {
      ForcedLevel pin(Level::kScalar);
      expect = vcaqoe::common::fiveNumber(xs);
    }
    for (const Level level : testableLevels()) {
      ForcedLevel pin(level);
      const auto got = vcaqoe::common::fiveNumber(xs);
      EXPECT_EQ(bits(expect.mean), bits(got.mean));
      EXPECT_EQ(bits(expect.stdev), bits(got.stdev));
      EXPECT_EQ(bits(expect.median), bits(got.median));
      EXPECT_EQ(bits(expect.min), bits(got.min));
      EXPECT_EQ(bits(expect.max), bits(got.max));
    }
  }
}

TEST(SimdKernels, LookbackRingMatchesAreLevelIndependent) {
  // Drive the real ring (wrapped, both segments live) under every arm.
  std::mt19937 rng(20230908);
  for (const std::size_t capacity : {1u, 3u, 4u, 5u, 8u, 9u, 16u, 33u}) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> pushes;
    for (std::size_t i = 0; i < 3 * capacity + 5; ++i) {
      pushes.emplace_back(900 + rng() % 300, i);
    }
    std::vector<std::int64_t> expect;
    {
      ForcedLevel pin(Level::kScalar);
      vcaqoe::core::LookbackRing ring(capacity);
      for (const auto& [size, id] : pushes) {
        expect.push_back(ring.matchMostRecent(size + 20, 25));
        ring.push(size, id);
      }
    }
    for (const Level level : testableLevels()) {
      ForcedLevel pin(level);
      vcaqoe::core::LookbackRing ring(capacity);
      std::size_t at = 0;
      for (const auto& [size, id] : pushes) {
        EXPECT_EQ(expect[at], ring.matchMostRecent(size + 20, 25))
            << "capacity=" << capacity << " push=" << at
            << " level=" << toString(level);
        ring.push(size, id);
        ++at;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FlattenedForest batch traversal.
// ---------------------------------------------------------------------------

namespace {

struct ForestParts {
  std::vector<std::int32_t> roots;
  std::vector<std::int32_t> feature;
  std::vector<double> threshold;
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  std::vector<double> leafValue;
};

std::int32_t buildTree(ForestParts& p, std::mt19937& rng, int depth,
                       std::size_t featureCount, bool classification) {
  if (depth <= 0 || rng() % 4 == 0) {
    const auto leaf = static_cast<std::int32_t>(p.leafValue.size());
    p.leafValue.push_back(classification
                              ? static_cast<double>(rng() % 3)
                              : std::uniform_real_distribution<double>(
                                    0.0, 60.0)(rng));
    return -leaf - 1;
  }
  const auto node = static_cast<std::int32_t>(p.feature.size());
  p.feature.push_back(static_cast<std::int32_t>(rng() % featureCount));
  p.threshold.push_back(
      std::uniform_real_distribution<double>(0.0, 100.0)(rng));
  p.left.push_back(0);
  p.right.push_back(0);
  const auto l = buildTree(p, rng, depth - 1, featureCount, classification);
  const auto r = buildTree(p, rng, depth - 1, featureCount, classification);
  p.left[static_cast<std::size_t>(node)] = l;
  p.right[static_cast<std::size_t>(node)] = r;
  return node;
}

vcaqoe::ml::FlattenedForest randomForest(std::mt19937& rng, int trees,
                                         int depth, std::size_t featureCount,
                                         bool classification = false) {
  ForestParts p;
  for (int t = 0; t < trees; ++t) {
    p.roots.push_back(buildTree(p, rng, depth, featureCount, classification));
  }
  return vcaqoe::ml::FlattenedForest::fromParts(
      classification ? vcaqoe::ml::TreeTask::kClassification
                     : vcaqoe::ml::TreeTask::kRegression,
      featureCount, p.roots, p.feature, p.threshold, p.left, p.right,
      p.leafValue);
}

/// Rows that love threshold edges: exact thresholds, their float-rounded
/// values, points between the two, and NaN.
std::vector<std::vector<double>> edgeRows(const vcaqoe::ml::FlattenedForest& f,
                                          std::mt19937& rng, int count) {
  std::vector<std::vector<double>> rows;
  std::uniform_real_distribution<double> value(0.0, 100.0);
  for (int r = 0; r < count; ++r) {
    std::vector<double> row(f.featureCount());
    for (auto& v : row) {
      switch (f.threshold().empty() ? 4u : rng() % 5) {
        case 0: {
          const double t = f.threshold()[rng() % f.threshold().size()];
          v = t;
          break;
        }
        case 1: {
          const double t = f.threshold()[rng() % f.threshold().size()];
          v = static_cast<double>(static_cast<float>(t));
          break;
        }
        case 2: {
          const double t = f.threshold()[rng() % f.threshold().size()];
          const double tf = static_cast<double>(static_cast<float>(t));
          v = t + (tf - t) / 2.0;  // inside the rounding gap (if any)
          break;
        }
        case 3:
          v = std::numeric_limits<double>::quiet_NaN();
          break;
        default:
          v = value(rng);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

TEST(SimdForestLayout, BlockedBatchTraversalIsBitIdenticalToRowWise) {
  std::mt19937 rng(20230909);
  for (const bool classification : {false, true}) {
    const auto forest = randomForest(rng, 15, 6, 12, classification);
    for (const std::size_t batch : {1u, 2u, 7u, 8u, 9u, 20u, 64u}) {
      const auto rows = edgeRows(forest, rng, static_cast<int>(batch));
      std::vector<vcaqoe::ml::FeatureRow> spans(rows.begin(), rows.end());
      std::vector<double> blocked(batch);
      forest.predictBatch(spans, blocked);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(bits(forest.predict(spans[r])), bits(blocked[r]))
            << "batch=" << batch << " row=" << r << " cls=" << classification;
      }
    }
  }
}

TEST(SimdForestLayout, UnknownLayoutMarkerIsMalformed) {
  std::mt19937 rng(20230914);
  const auto forest = randomForest(rng, 3, 3, 4);
  std::stringstream stream;
  vcaqoe::ml::saveFlattenedForest(forest, stream);
  std::string text = stream.str();
  const auto task = text.find("task ");
  ASSERT_NE(std::string::npos, task);
  text.insert(text.find('\n', task) + 1, "layout vanblocks\n");
  std::stringstream bad(text);
  EXPECT_THROW(vcaqoe::ml::loadFlattenedForest(bad), std::runtime_error);
}
