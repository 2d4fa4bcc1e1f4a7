#include "support/brute_force.h"

#include <vector>

#include "util/logging.h"

namespace qasca {
namespace {

// Invokes `visit` with every size-k combination of `candidates`.
template <typename Visitor>
void ForEachCombination(const std::vector<QuestionIndex>& candidates, int k,
                        Visitor visit) {
  std::vector<QuestionIndex> combination(k);
  std::vector<int> cursor(k);
  for (int c = 0; c < k; ++c) cursor[c] = c;
  const int n = static_cast<int>(candidates.size());
  while (true) {
    for (int c = 0; c < k; ++c) combination[c] = candidates[cursor[c]];
    visit(combination);
    int c = k - 1;
    while (c >= 0 && cursor[c] == n - k + c) --c;
    if (c < 0) return;
    ++cursor[c];
    for (int d = c + 1; d < k; ++d) cursor[d] = cursor[d - 1] + 1;
  }
}

}  // namespace

AssignmentResult AssignBruteForce(const AssignmentRequest& request,
                                  const EvaluationMetric& metric) {
  ValidateRequest(request);
  AssignmentResult best;
  best.objective = -1.0;
  ForEachCombination(
      request.candidates, request.k,
      [&](const std::vector<QuestionIndex>& combination) {
        DistributionMatrix qx = BuildAssignmentMatrix(request, combination);
        double quality = metric.Quality(qx);
        ++best.outer_iterations;  // Repurposed as the enumeration count.
        if (quality > best.objective) {
          best.objective = quality;
          best.selected = combination;
        }
      });
  return best;
}

}  // namespace qasca
