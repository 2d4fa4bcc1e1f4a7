#ifndef QASCA_TESTS_SUPPORT_BRUTE_FORCE_H_
#define QASCA_TESTS_SUPPORT_BRUTE_FORCE_H_

#include "core/assignment/assignment.h"
#include "core/metrics/metric.h"

namespace qasca {

/// Reference implementation of Definition 1 by exhaustive enumeration: for
/// every one of the C(|S^w|, k) feasible assignments X, build Q^X (Eq. 1),
/// compute F(Q^X) = max_R F*(Q^X, R) with the metric's optimal-result
/// algorithm, and return the maximiser.
///
/// Exponential in k: a test oracle that validates the linear-time
/// algorithms and reproduces the paper's illustrative examples
/// (Examples 4–5).
AssignmentResult AssignBruteForce(const AssignmentRequest& request,
                                  const EvaluationMetric& metric);

}  // namespace qasca

#endif  // QASCA_TESTS_SUPPORT_BRUTE_FORCE_H_
