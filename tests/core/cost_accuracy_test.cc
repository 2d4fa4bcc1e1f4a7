#include "core/metrics/cost_accuracy.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/topk_benefit.h"
#include "core/metrics/accuracy.h"
#include "support/brute_force.h"
#include "util/rng.h"

namespace qasca {
namespace {

DistributionMatrix RandomMatrix(int n, int num_labels, util::Rng& rng) {
  DistributionMatrix q(n, num_labels);
  std::vector<double> w(num_labels);
  for (int i = 0; i < n; ++i) {
    for (double& x : w) x = rng.Uniform(0.01, 1.0);
    q.SetRowNormalized(i, w);
  }
  return q;
}

TEST(CostAccuracyTest, ZeroOneReducesToAccuracy) {
  util::Rng rng(1);
  CostAccuracyMetric cost = CostAccuracyMetric::ZeroOne(3);
  AccuracyMetric plain;
  DistributionMatrix q = RandomMatrix(8, 3, rng);
  ResultVector r = {0, 1, 2, 0, 1, 2, 0, 1};
  EXPECT_NEAR(cost.Evaluate(q, r), plain.Evaluate(q, r), 1e-12);
  EXPECT_EQ(cost.OptimalResult(q), plain.OptimalResult(q));
  EXPECT_NEAR(cost.Quality(q), plain.Quality(q), 1e-12);

  GroundTruthVector truth = {0, 1, 2, 1, 1, 0, 0, 2};
  EXPECT_NEAR(cost.EvaluateAgainstTruth(truth, r),
              plain.EvaluateAgainstTruth(truth, r), 1e-12);
}

TEST(CostAccuracyTest, AsymmetricCostsShiftTheOptimalResult) {
  // Missing a "target" (truth 0, returned 1) costs 5x the reverse error:
  // the optimal result returns label 0 even at modest probability.
  CostAccuracyMetric cost({0.0, 5.0, 1.0, 0.0}, 2);
  DistributionMatrix q(1, 2);
  q.SetRow(0, std::vector<double>{0.3, 0.7});
  // Expected cost of returning 0: 0.7 * 1 = 0.7; of returning 1:
  // 0.3 * 5 = 1.5 -> return 0 despite being the minority label.
  EXPECT_EQ(cost.OptimalResult(q)[0], 0);
  AccuracyMetric plain;
  EXPECT_EQ(plain.OptimalResult(q)[0], 1);
}

TEST(CostAccuracyTest, QualityMatchesOptimalEvaluation) {
  util::Rng rng(2);
  CostAccuracyMetric cost({0.0, 2.0, 0.5, 0.0}, 2);
  DistributionMatrix q = RandomMatrix(20, 2, rng);
  EXPECT_NEAR(cost.Quality(q), cost.Evaluate(q, cost.OptimalResult(q)),
              1e-12);
}

TEST(CostAccuracyTest, OptimalBeatsEnumeration) {
  util::Rng rng(3);
  CostAccuracyMetric cost({0.0, 3.0, 1.0, 0.0}, 2);
  for (int trial = 0; trial < 20; ++trial) {
    DistributionMatrix q = RandomMatrix(6, 2, rng);
    double best = cost.Quality(q);
    ResultVector r(6);
    for (uint32_t mask = 0; mask < 64; ++mask) {
      for (int i = 0; i < 6; ++i) r[i] = (mask >> i) & 1u;
      EXPECT_LE(cost.Evaluate(q, r), best + 1e-12);
    }
  }
}

TEST(CostAccuracyTest, PerfectResultScoresOne) {
  CostAccuracyMetric cost({0.0, 2.0, 1.0, 0.0}, 2);
  GroundTruthVector truth = {0, 1, 0};
  EXPECT_DOUBLE_EQ(cost.EvaluateAgainstTruth(truth, {0, 1, 0}), 1.0);
}

TEST(CostAccuracyTest, WorstResultScoresByNormalisedCost) {
  CostAccuracyMetric cost({0.0, 2.0, 1.0, 0.0}, 2);
  // Returning 1 for truth 0 costs 2 (the max): quality contribution 0;
  // returning 0 for truth 1 costs 1: contribution 0.5.
  GroundTruthVector truth = {0, 1};
  EXPECT_DOUBLE_EQ(cost.EvaluateAgainstTruth(truth, {1, 0}), 0.25);
}

TEST(CostAccuracyTest, DecomposableTopKMatchesBruteForce) {
  util::Rng rng(4);
  CostAccuracyMetric cost({0.0, 4.0, 1.0, 0.0}, 2);
  for (int trial = 0; trial < 15; ++trial) {
    DistributionMatrix qc = RandomMatrix(6, 2, rng);
    DistributionMatrix qw = RandomMatrix(6, 2, rng);
    AssignmentRequest request;
    request.current = &qc;
    request.estimated = &qw;
    request.candidates = {0, 1, 2, 3, 4, 5};
    request.k = 2;
    AssignmentResult fast = AssignTopKBenefitDecomposable(
        request,
        [&](std::span<const double> row) { return cost.RowQuality(row); });
    AssignmentResult slow = AssignBruteForce(request, cost);
    EXPECT_NEAR(fast.objective, slow.objective, 1e-10) << "trial " << trial;
  }
}

TEST(CostAccuracyDeathTest, RejectsNonZeroDiagonal) {
  EXPECT_DEATH(CostAccuracyMetric({0.5, 1.0, 1.0, 0.0}, 2),
               "diagonal costs");
}

TEST(CostAccuracyDeathTest, RejectsNegativeCosts) {
  EXPECT_DEATH(CostAccuracyMetric({0.0, -1.0, 1.0, 0.0}, 2),
               "non-negative");
}

TEST(CostAccuracyDeathTest, RejectsAllZeroCosts) {
  EXPECT_DEATH(CostAccuracyMetric({0.0, 0.0, 0.0, 0.0}, 2), "all zero");
}

}  // namespace
}  // namespace qasca
