#include "core/assignment/assignment.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/metrics/accuracy.h"
#include "support/brute_force.h"

namespace qasca {
namespace {

DistributionMatrix Constant(int n, double p) {
  DistributionMatrix q(n, 2);
  for (int i = 0; i < n; ++i) q.SetRow(i, std::vector<double>{p, 1.0 - p});
  return q;
}

TEST(AssignmentTest, BuildAssignmentMatrixMixesRows) {
  DistributionMatrix qc = Constant(4, 0.5);
  DistributionMatrix qw = Constant(4, 0.9);
  DistributionMatrix qx = BuildAssignmentMatrix(qc, qw, {1, 3});
  EXPECT_DOUBLE_EQ(qx.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(qx.At(1, 0), 0.9);
  EXPECT_DOUBLE_EQ(qx.At(2, 0), 0.5);
  EXPECT_DOUBLE_EQ(qx.At(3, 0), 0.9);
}

TEST(AssignmentTest, BuildAssignmentMatrixEmptySelection) {
  DistributionMatrix qc = Constant(3, 0.7);
  DistributionMatrix qw = Constant(3, 0.1);
  DistributionMatrix qx = BuildAssignmentMatrix(qc, qw, {});
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(qx.At(i, 0), 0.7);
}

TEST(AssignmentTest, ValidateAcceptsWellFormedRequest) {
  DistributionMatrix qc = Constant(5, 0.5);
  DistributionMatrix qw = Constant(5, 0.6);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 2, 4};
  request.k = 2;
  ValidateRequest(request);  // Must not abort.
}

TEST(AssignmentDeathTest, ValidateRejectsDuplicates) {
  DistributionMatrix qc = Constant(5, 0.5);
  DistributionMatrix qw = Constant(5, 0.6);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 2, 2};
  request.k = 2;
  EXPECT_DEATH(ValidateRequest(request), "duplicate");
}

TEST(AssignmentDeathTest, ValidateRejectsKTooLarge) {
  DistributionMatrix qc = Constant(5, 0.5);
  DistributionMatrix qw = Constant(5, 0.6);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1};
  request.k = 3;
  EXPECT_DEATH(ValidateRequest(request), "Check failed");
}

TEST(AssignmentDeathTest, ValidateRejectsOutOfRangeCandidate) {
  DistributionMatrix qc = Constant(3, 0.5);
  DistributionMatrix qw = Constant(3, 0.6);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 7};
  request.k = 1;
  EXPECT_DEATH(ValidateRequest(request), "Check failed");
}

TEST(AssignmentTest, BruteForceEnumeratesAllCombinations) {
  DistributionMatrix qc = Constant(5, 0.5);
  DistributionMatrix qw = Constant(5, 0.8);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 2, 3};
  request.k = 2;
  AccuracyMetric metric;
  AssignmentResult result = AssignBruteForce(request, metric);
  EXPECT_EQ(result.outer_iterations, 6);  // C(4,2)
  EXPECT_EQ(result.selected.size(), 2u);
}

TEST(AssignmentTest, BruteForcePicksStrictlyBestQuestion) {
  // Only question 2's row improves under the worker; it must be selected.
  DistributionMatrix qc = Constant(4, 0.6);
  DistributionMatrix qw = Constant(4, 0.6);
  qw.SetRow(2, std::vector<double>{0.95, 0.05});
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 2, 3};
  request.k = 1;
  AccuracyMetric metric;
  AssignmentResult result = AssignBruteForce(request, metric);
  EXPECT_EQ(result.selected, (std::vector<QuestionIndex>{2}));
}

}  // namespace
}  // namespace qasca
