// The serving workloads: their generated inputs, the closed-loop client
// that drives AppManager, and the output checks.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "platform/app_config.h"
#include "simulation/simulated_worker.h"
#include "support.h"

namespace servebench {

/// One hosted application's inputs, all generated from the workload seed.
/// The program sees only these.
struct AppInputs {
  qasca::AppConfig config;
  qasca::GroundTruthVector truth;
  std::vector<double> difficulty;
  std::vector<qasca::SimulatedWorker> workers;
  /// AppManager::AppOptions::seed, the app's decision RNG stream.
  uint64_t decision_seed = 0;
};

/// The shape of one workload's pass (see README.md for the reasoning).
struct WorkloadSpec {
  std::string name;
  /// Untimed HITs per app served at the end of set-up.
  int warmup_hits_per_app = 0;
  /// Single client: spend every app's budget (paper_apps).
  bool spend_budget = false;
  /// multi_app: rounds of `hits_per_round` HITs; each round ends with one
  /// AdvanceAppClock tick per app.
  int rounds = 0;
  int hits_per_round = 0;
  /// multi_app: share of HITs whose worker never submits them.
  double abandon_share = 0.0;
  /// Service restarts (every app crashed and recovered), back to back, made
  /// once the client has served `restart_after_hits` timed HITs; serving
  /// then goes on on the recovered apps.
  int restarts_per_pass = 2;
  int restart_after_hits = 0;
  /// --trace 0 runs at least this many passes, whatever --seconds says.
  int min_passes = 1;
  /// Traced replay: run the standalone EM on every n-th completion.
  int em_sample_every = 1;
};

/// The spec for `workload`; an empty name if the workload is unknown.
WorkloadSpec SpecFor(const std::string& workload);

/// Generates every app's inputs for (workload, seed). Same seed, same inputs.
std::vector<AppInputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

/// What one pass (set-up, timed serving, restart) measured.
struct PassResult {
  double setup_s = 0.0;
  std::vector<double> request_ms;
  std::vector<double> completion_ms;
  /// The same samples split by app (index = AppId).
  std::vector<std::vector<double>> request_ms_by_app;
  std::vector<std::vector<double>> completion_ms_by_app;
  /// Wall time of the timed serving, restarts left out, and the HITs
  /// completed in it.
  double timed_wall_s = 0.0;
  int64_t timed_completions = 0;
  /// Client time per timed HIT outside program calls, in microseconds.
  double client_us_per_hit = 0.0;
  /// Wall time of each restart of every app.
  std::vector<double> recover_ms;
  /// F(T, R*) per app, computed by the benchmark after the restart.
  std::vector<double> app_quality;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Journal events each app recorded during set-up (the warm-up prefix).
  std::vector<size_t> warmup_events;
};

/// Runs one whole pass of `spec` with its journals under `journal_dir`
/// (created fresh; the caller removes it). Every output check lands in
/// `checks`.
PassResult RunPass(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& journal_dir, CheckLog* checks);

/// Set-up alone (inputs, registration, warm-up), for extra setup_s samples.
double RunSetupOnly(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& journal_dir, CheckLog* checks);

/// The journal prefix AppManager scopes app `app`'s journal from.
std::string JournalPrefix(const std::string& journal_dir, int app);

/// Benchmark-side quality: Accuracy or F-score of `result` against `truth`,
/// per the app's metric, written independently of the program's metrics.
double BenchQuality(const qasca::AppConfig& config,
                    const qasca::GroundTruthVector& truth,
                    const qasca::ResultVector& result);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
