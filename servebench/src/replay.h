// Traced mode: one AppManager pass, then a single-threaded replay of each
// app's journaled event sequence through standalone layer objects, timed
// from outside by the benchmark's own spans.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support.h"
#include "workloads.h"

namespace servebench {

struct TracedRun {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Runs the traced mode of `spec`. Journals and per-object replay files go
/// under `work_dir`; the spans are written to `spans_path` at the end.
TracedRun RunTraced(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& work_dir, const std::string& spans_path,
                    CheckLog* checks);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
