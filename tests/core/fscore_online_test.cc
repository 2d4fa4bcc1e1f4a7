#include "core/assignment/fscore_online.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/metrics/fscore.h"
#include "support/brute_force.h"
#include "util/rng.h"

namespace qasca {
namespace {

DistributionMatrix Figure2Qc() {
  DistributionMatrix qc(6, 2);
  qc.SetRow(0, std::vector<double>{0.8, 0.2});
  qc.SetRow(1, std::vector<double>{0.6, 0.4});
  qc.SetRow(2, std::vector<double>{0.25, 0.75});
  qc.SetRow(3, std::vector<double>{0.5, 0.5});
  qc.SetRow(4, std::vector<double>{0.9, 0.1});
  qc.SetRow(5, std::vector<double>{0.3, 0.7});
  return qc;
}

DistributionMatrix Figure2Qw() {
  DistributionMatrix qw = Figure2Qc();
  qw.SetRow(0, std::vector<double>{0.923, 0.077});
  qw.SetRow(1, std::vector<double>{0.818, 0.182});
  qw.SetRow(3, std::vector<double>{0.75, 0.25});
  qw.SetRow(5, std::vector<double>{0.125, 0.875});
  return qw;
}

AssignmentRequest Figure2Request(const DistributionMatrix& qc,
                                 const DistributionMatrix& qw) {
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 3, 5};
  request.k = 2;
  return request;
}

TEST(FScoreOnlineTest, PaperExample5SelectsQ1AndQ2) {
  // Example 5: with alpha = 0.75 the optimal assignment is {q1, q2} and
  // delta* = 0.832: Precision-heavy alpha prefers boosting already-likely
  // target questions over the Accuracy pick {q2, q4} of Example 4.
  DistributionMatrix qc = Figure2Qc();
  DistributionMatrix qw = Figure2Qw();
  FScoreAssignmentOptions options;
  options.alpha = 0.75;
  for (bool warm_start : {false, true}) {
    options.warm_start = warm_start;
    AssignmentResult result =
        AssignFScoreOnline(Figure2Request(qc, qw), options);
    EXPECT_EQ(result.selected, (std::vector<QuestionIndex>{0, 1}))
        << "warm_start=" << warm_start;
    EXPECT_NEAR(result.objective, 0.832, 1e-3) << "warm_start=" << warm_start;
  }
}

TEST(FScoreOnlineTest, ObjectiveEqualsQualityOfChosenAssignment) {
  DistributionMatrix qc = Figure2Qc();
  DistributionMatrix qw = Figure2Qw();
  FScoreAssignmentOptions options;
  options.alpha = 0.75;
  AssignmentResult result = AssignFScoreOnline(Figure2Request(qc, qw), options);
  FScoreMetric metric(options.alpha);
  DistributionMatrix qx = BuildAssignmentMatrix(qc, qw, result.selected);
  EXPECT_NEAR(result.objective, metric.Quality(qx), 1e-9);
}

class FScoreOnlineSweep : public ::testing::TestWithParam<int> {};

TEST_P(FScoreOnlineSweep, MatchesBruteForceOptimum) {
  util::Rng rng(6000 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    int n = 4 + rng.UniformInt(5);  // 4..8
    DistributionMatrix qc(n, 2);
    DistributionMatrix qw(n, 2);
    for (int i = 0; i < n; ++i) {
      double pc = rng.Uniform();
      double pw = rng.Uniform();
      qc.SetRow(i, std::vector<double>{pc, 1.0 - pc});
      qw.SetRow(i, std::vector<double>{pw, 1.0 - pw});
    }
    int m = 2 + rng.UniformInt(n - 1);
    std::vector<int> candidates = rng.SampleWithoutReplacement(n, m);
    int k = 1 + rng.UniformInt(m);
    double alpha = rng.Uniform(0.05, 0.95);

    AssignmentRequest request;
    request.current = &qc;
    request.estimated = &qw;
    request.candidates = candidates;
    request.k = k;

    FScoreMetric metric(alpha);
    FScoreAssignmentOptions options;
    options.alpha = alpha;
    for (bool warm_start : {false, true}) {
      options.warm_start = warm_start;
      AssignmentResult fast = AssignFScoreOnline(request, options);
      AssignmentResult slow = AssignBruteForce(request, metric);
      EXPECT_NEAR(fast.objective, slow.objective, 1e-9)
          << "n=" << n << " m=" << m << " k=" << k << " alpha=" << alpha
          << " warm_start=" << warm_start;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FScoreOnlineSweep, ::testing::Range(0, 10));

TEST(FScoreOnlineTest, WarmAndColdStartAgreeOnObjective) {
  util::Rng rng(61);
  DistributionMatrix qc(40, 2);
  DistributionMatrix qw(40, 2);
  for (int i = 0; i < 40; ++i) {
    double pc = rng.Uniform();
    double pw = rng.Uniform();
    qc.SetRow(i, std::vector<double>{pc, 1.0 - pc});
    qw.SetRow(i, std::vector<double>{pw, 1.0 - pw});
  }
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  for (int i = 0; i < 40; ++i) request.candidates.push_back(i);
  request.k = 5;
  for (double alpha : {0.25, 0.5, 0.75, 0.95}) {
    FScoreAssignmentOptions options;
    options.alpha = alpha;
    options.warm_start = false;
    double cold = AssignFScoreOnline(request, options).objective;
    options.warm_start = true;
    double warm = AssignFScoreOnline(request, options).objective;
    EXPECT_NEAR(cold, warm, 1e-9) << "alpha=" << alpha;
  }
}

TEST(FScoreOnlineTest, IterationProductStaysSmall) {
  // Section 6.1.3 observes u*v <= 10 in practice.
  util::Rng rng(62);
  DistributionMatrix qc(500, 2);
  DistributionMatrix qw(500, 2);
  for (int i = 0; i < 500; ++i) {
    double pc = rng.Uniform();
    double pw = rng.Uniform();
    qc.SetRow(i, std::vector<double>{pc, 1.0 - pc});
    qw.SetRow(i, std::vector<double>{pw, 1.0 - pw});
  }
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  for (int i = 0; i < 500; ++i) request.candidates.push_back(i);
  request.k = 20;
  for (double alpha : {0.1, 0.5, 0.9}) {
    FScoreAssignmentOptions options;
    options.alpha = alpha;
    options.warm_start = true;
    AssignmentResult result = AssignFScoreOnline(request, options);
    EXPECT_LE(result.outer_iterations, 10) << "alpha=" << alpha;
    EXPECT_LE(result.inner_iterations, 40) << "alpha=" << alpha;
  }
}

TEST(FScoreOnlineTest, NonZeroTargetLabelMatchesBruteForce) {
  util::Rng rng(63);
  for (int trial = 0; trial < 10; ++trial) {
    DistributionMatrix qc(6, 3);
    DistributionMatrix qw(6, 3);
    std::vector<double> w(3);
    for (int i = 0; i < 6; ++i) {
      for (double& x : w) x = rng.Uniform(0.01, 1.0);
      qc.SetRowNormalized(i, w);
      for (double& x : w) x = rng.Uniform(0.01, 1.0);
      qw.SetRowNormalized(i, w);
    }
    AssignmentRequest request;
    request.current = &qc;
    request.estimated = &qw;
    request.candidates = {0, 1, 2, 3, 4, 5};
    request.k = 2;
    FScoreAssignmentOptions options;
    options.alpha = 0.6;
    options.target_label = 2;
    FScoreMetric metric(options.alpha, options.target_label);
    AssignmentResult fast = AssignFScoreOnline(request, options);
    AssignmentResult slow = AssignBruteForce(request, metric);
    EXPECT_NEAR(fast.objective, slow.objective, 1e-9) << "trial " << trial;
  }
}

TEST(FScoreOnlineTest, DegenerateAllZeroTargetProbabilities) {
  DistributionMatrix qc(4, 2);
  DistributionMatrix qw(4, 2);
  for (int i = 0; i < 4; ++i) {
    qc.SetRow(i, std::vector<double>{0.0, 1.0});
    qw.SetRow(i, std::vector<double>{0.0, 1.0});
  }
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 2, 3};
  request.k = 2;
  FScoreAssignmentOptions options;
  options.alpha = 0.5;
  AssignmentResult result = AssignFScoreOnline(request, options);
  EXPECT_EQ(result.selected.size(), 2u);
  EXPECT_DOUBLE_EQ(result.objective, 0.0);
}

}  // namespace
}  // namespace qasca
