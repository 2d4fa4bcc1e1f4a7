// Exhaustive small-instance property tests (ISSUE 5): on every generated
// instance with n <= 6 questions and l <= 3 labels,
//  * the Theorem-2/Algorithm-1 F-score* result selection must attain the
//    same F-score* as brute-force enumeration over ALL l^n label vectors
//    (at most 729 per instance), and the thresholded R* must itself
//    evaluate to the returned lambda*;
//  * the Top-K Benefit selection must attain the same Accuracy* objective
//    as brute-force enumeration over all C(|S^w|, k) assignments.
// Instances are generated from counter-based SplitMix64 streams, so the
// sweep is identical on every platform and run.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/topk_benefit.h"
#include "core/metrics/accuracy.h"
#include "core/metrics/fscore.h"
#include "support/brute_force.h"
#include "util/rng.h"

namespace qasca {
namespace {

// A random but deterministic n x l distribution matrix: rows drawn from the
// seed's SplitMix64 stream and normalized.
DistributionMatrix RandomMatrix(int n, int l, uint64_t seed) {
  DistributionMatrix q(n, l);
  util::SplitMix64 stream(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(l));
    double total = 0.0;
    for (double& cell : row) {
      cell = 0.05 + stream.NextDouble();  // bounded away from 0
      total += cell;
    }
    for (double& cell : row) cell /= total;
    q.SetRow(i, row);
  }
  return q;
}

// All l^n label vectors, visited by counting in base l.
template <typename Visit>
void ForEachLabelVector(int n, int l, Visit visit) {
  ResultVector result(static_cast<size_t>(n), 0);
  while (true) {
    visit(result);
    int pos = 0;
    while (pos < n) {
      if (++result[static_cast<size_t>(pos)] < l) break;
      result[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n) return;
  }
}

TEST(SmallInstancePropertyTest, FScoreResultSelectionMatchesBruteForce) {
  for (int n = 1; n <= 6; ++n) {
    for (int l = 2; l <= 3; ++l) {
      for (const double alpha : {0.3, 0.5, 0.7}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          const DistributionMatrix q = RandomMatrix(
              n, l, seed * 1000003ull + static_cast<uint64_t>(n * 10 + l));
          for (LabelIndex target = 0; target < std::min(l, 2); ++target) {
            const FScoreQualityResult algorithm =
                SolveFScoreQuality(q, alpha, target);
            double best = 0.0;
            ForEachLabelVector(n, l, [&](const ResultVector& result) {
              best = std::max(best, FScoreStar(q, result, alpha, target));
            });
            // Theorem 2: lambda* is the global optimum over all label
            // vectors, and the thresholded R* attains it.
            EXPECT_NEAR(algorithm.lambda, best, 1e-9)
                << "n=" << n << " l=" << l << " alpha=" << alpha
                << " seed=" << seed << " target=" << target;
            EXPECT_NEAR(
                FScoreStar(q, algorithm.optimal_result, alpha, target),
                best, 1e-9);
          }
        }
      }
    }
  }
}

TEST(SmallInstancePropertyTest, TopKBenefitMatchesBruteForceBestK) {
  AccuracyMetric metric;
  for (int n = 2; n <= 6; ++n) {
    for (int l = 2; l <= 3; ++l) {
      for (int k = 1; k <= std::min(n, 3); ++k) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
          const uint64_t base =
              seed * 6364136223846793005ull + static_cast<uint64_t>(n * l);
          const DistributionMatrix qc = RandomMatrix(n, l, base);
          const DistributionMatrix qw = RandomMatrix(n, l, base ^ 0x5bd1e995);
          AssignmentRequest request;
          request.current = &qc;
          request.estimated = &qw;
          request.candidates.resize(static_cast<size_t>(n));
          for (int i = 0; i < n; ++i) request.candidates[i] = i;
          request.k = k;

          const AssignmentResult fast = AssignTopKBenefit(request);
          const AssignmentResult exact = AssignBruteForce(request, metric);
          // Ties between equal-benefit questions may pick different sets,
          // but the attained objective must be the brute-force optimum.
          EXPECT_NEAR(fast.objective, exact.objective, 1e-9)
              << "n=" << n << " l=" << l << " k=" << k << " seed=" << seed;
          EXPECT_EQ(static_cast<int>(fast.selected.size()), k);
        }
      }
    }
  }
}

}  // namespace
}  // namespace qasca
