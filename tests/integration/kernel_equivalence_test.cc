// The kernel-equivalence suite (DESIGN.md §12): full engine runs must make
// byte-identical assignment decisions and reach a byte-identical final
// state under
//   * every kernel ISA this host supports (scalar / SSE2 / AVX2),
//   * the serving Qw path (QascaStrategy: zero-copy overlay, cached
//     likelihood tables) and the test-local references below, which derive
//     Qw by a deep copy of Qc or through a likelihood table rebuilt on every
//     request.
// The decision sequence and Engine::StateFingerprint() are compared EXACTLY
// against a single reference run per scenario — this is the engine-level
// proof behind the per-kernel bitwise tests in tests/core/kernels_test.cc,
// and the reason the golden-trace hashes stay pinned across ISAs.
//
// tools/run_checks.sh additionally replays this binary under asan-ubsan
// with each QASCA_KERNEL_ISA override, covering the env-var dispatch path
// that SetIsaForTesting bypasses.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/assignment.h"
#include "core/assignment/fscore_online.h"
#include "core/assignment/qw_overlay.h"
#include "core/assignment/topk_benefit.h"
#include "core/kernels/kernels.h"
#include "model/likelihood_cache.h"
#include "model/posterior.h"
#include "platform/database.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

using kernels::Isa;

// Same deterministic pseudo-noisy worker as the determinism suite: the
// answer depends only on (worker, question, truth), so every configuration
// replays an identical answer stream. ~25% wrong.
LabelIndex SimulatedAnswer(WorkerId worker, QuestionIndex question,
                           LabelIndex truth, int num_labels) {
  uint64_t h = (static_cast<uint64_t>(worker) * 1000003u +
                static_cast<uint64_t>(question) + 1) *
               0x9e3779b97f4a7c15ull;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  if (h % 100 < 25) {
    return static_cast<LabelIndex>(
        (static_cast<uint64_t>(truth) + 1 + h % (num_labels - 1)) %
        num_labels);
  }
  return truth;
}

// How a run's strategy derives Qw for the requesting worker.
enum class QwPath {
  // QascaStrategy: overlay rows through the core's likelihood cache.
  kServing,
  // Deep copy of Qc with the candidate rows overwritten by
  // EstimateWorkerDistribution, straight from the worker model: no
  // overlay, no likelihood table, no cache.
  kDeepCopy,
  // Overlay rows through a likelihood table rebuilt on every request,
  // ignoring the core's cache.
  kFreshTable,
};

// The reference strategies behind kDeepCopy and kFreshTable: QASCA's
// Section 4-5 selection (Top-K Benefit for Accuracy*, the online F-score
// algorithm otherwise) over a Qw derived without the serving path's
// memoisation. Any divergence from QascaStrategy is a bug in the overlay,
// the cache or a kernel.
class ReferenceQascaStrategy final : public AssignmentStrategy {
 public:
  explicit ReferenceQascaStrategy(QwPath path) : path_(path) {}

  std::string name() const override { return "QASCA (reference Qw)"; }

  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override {
    const DistributionMatrix& qc = context.database->current();
    AssignmentRequest request;
    request.current = &qc;
    request.candidates = candidates;
    request.k = k;
    request.compute_objective = false;
    std::optional<DistributionMatrix> deep_copy;
    if (path_ == QwPath::kDeepCopy) {
      deep_copy.emplace(EstimateWorkerDistribution(
          qc, *context.worker_model, candidates, QwMode::kSampled,
          *context.rng));
      request.estimated = &*deep_copy;
    } else {
      WorkerLikelihoods likelihoods;
      likelihoods.Rebuild(*context.worker_model);
      EstimateWorkerRowsInto(qc, *context.worker_model, likelihoods,
                             candidates, QwMode::kSampled, *context.rng,
                             &overlay_);
      request.estimated = &qc;
      request.overlay = &overlay_;
    }
    if (context.metric->kind == MetricSpec::Kind::kAccuracy) {
      return AssignTopKBenefit(request).selected;
    }
    FScoreAssignmentOptions options;
    options.alpha = context.metric->alpha;
    options.target_label = context.metric->target_label;
    options.warm_start = true;
    return AssignFScoreOnline(request, options).selected;
  }

 private:
  QwPath path_;
  QwOverlay overlay_;
};

struct Variant {
  Isa isa = Isa::kScalar;
  QwPath path = QwPath::kServing;
  bool telemetry = false;
};

struct RunRecord {
  std::vector<QuestionIndex> selections;
  uint64_t fingerprint = 0;
  util::TelemetrySnapshot snapshot;
};

struct Scenario {
  std::string name;
  MetricSpec metric;
  WorkerModel::Kind kind;
};

std::vector<Scenario> Scenarios() {
  // One Top-K Benefit (accuracy) and one Dinkelbach (F-score) engine, with
  // the opposite worker-model kind each, so both assignment algorithms and
  // both model kinds cross the kernels.
  return {
      {"accuracy/cm", MetricSpec::Accuracy(),
       WorkerModel::Kind::kConfusionMatrix},
      {"fscore/wp", MetricSpec::FScore(0.5, 0),
       WorkerModel::Kind::kWorkerProbability},
  };
}

void RunEngine(const Scenario& s, const Variant& v, RunRecord* out) {
  kernels::SetIsaForTesting(v.isa);
  AppConfig config;
  config.name = "kernel-equivalence";
  config.num_questions = 36;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 20;  // 20 HITs
  config.metric = s.metric;
  config.worker_kind = s.kind;
  config.em.max_iterations = 15;
  config.em_refresh_interval = 3;
  config.telemetry_enabled = v.telemetry;

  GroundTruthVector truth(config.num_questions);
  for (int q = 0; q < config.num_questions; ++q) {
    truth[q] = q % config.num_labels;
  }

  std::unique_ptr<AssignmentStrategy> strategy;
  if (v.path == QwPath::kServing) {
    strategy = std::make_unique<QascaStrategy>();
  } else {
    strategy = std::make_unique<ReferenceQascaStrategy>(v.path);
  }
  TaskAssignmentEngine engine(config, std::move(strategy), /*seed=*/7);
  RunRecord record;
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 6;
    auto hit = engine.RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      record.selections.push_back(q);
      labels.push_back(SimulatedAnswer(worker, q, truth[q],
                                       config.num_labels));
    }
    ASSERT_TRUE(engine.CompleteHit(worker, labels).ok());
  }
  record.fingerprint = engine.StateFingerprint();
  record.snapshot = engine.TelemetrySnapshot();
  *out = std::move(record);
}

int64_t CounterValue(const util::TelemetrySnapshot& snapshot,
                     std::string_view name) {
  for (const util::CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return -1;
}

std::string VariantName(const Variant& v) {
  static constexpr const char* kPathNames[] = {"/serving", "/deep-copy",
                                               "/fresh-table"};
  return std::string(kernels::IsaName(v.isa)) +
         kPathNames[static_cast<int>(v.path)];
}

TEST(KernelEquivalenceIntegrationTest,
     EveryIsaCacheAndOverlayVariantIsByteIdentical) {
  const Isa saved = kernels::ActiveIsa();
  for (const Scenario& s : Scenarios()) {
    // Reference: scalar kernels on the deep-copy path, the representation
    // furthest from the serving one.
    RunRecord reference;
    RunEngine(s, Variant{Isa::kScalar, QwPath::kDeepCopy}, &reference);
    ASSERT_FALSE(reference.selections.empty()) << s.name;
    ASSERT_NE(reference.fingerprint, 0u) << s.name;

    for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
      if (!kernels::IsaSupported(isa)) continue;
      for (QwPath path :
           {QwPath::kServing, QwPath::kDeepCopy, QwPath::kFreshTable}) {
        const Variant v{isa, path};
        RunRecord record;
        RunEngine(s, v, &record);
        EXPECT_EQ(record.selections, reference.selections)
            << s.name << " " << VariantName(v) << ": selections diverged";
        EXPECT_EQ(record.fingerprint, reference.fingerprint)
            << s.name << " " << VariantName(v) << ": state fingerprint "
            << "diverged";
      }
    }
  }
  kernels::SetIsaForTesting(saved);
}

TEST(KernelEquivalenceIntegrationTest, CacheTelemetryShowsHitsAndInvalidation) {
  const Isa saved = kernels::ActiveIsa();
  const Scenario s = Scenarios()[0];
  RunRecord record;
  RunEngine(s, Variant{kernels::ActiveIsa(), QwPath::kServing,
                       /*telemetry=*/true},
            &record);
  const int64_t hits =
      CounterValue(record.snapshot, util::tnames::kQwLikelihoodCacheHits);
  const int64_t misses =
      CounterValue(record.snapshot, util::tnames::kQwLikelihoodCacheMisses);
  // 20 HITs from 6 workers with a refit every 3rd completion: every Qw
  // request and incremental posterior refresh resolves through the cache,
  // and invalidation forces fresh misses after each refit — so both
  // counters must be active.
  EXPECT_GE(hits + misses, 20);
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  // The overlay materialises exactly the candidate rows each request.
  EXPECT_GT(CounterValue(record.snapshot, util::tnames::kQwOverlayRows), 0);
  kernels::SetIsaForTesting(saved);
}

TEST(KernelEquivalenceIntegrationTest, KernelIsaGaugeReportsActiveDispatch) {
  const Isa saved = kernels::ActiveIsa();
  const Scenario s = Scenarios()[0];
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    if (!kernels::IsaSupported(isa)) continue;
    RunRecord record;
    RunEngine(s, Variant{isa, QwPath::kServing, /*telemetry=*/true}, &record);
    double gauge = -1.0;
    for (const util::GaugeSnapshot& g : record.snapshot.gauges) {
      if (g.name == util::tnames::kKernelIsa) gauge = g.value;
    }
    EXPECT_EQ(gauge, static_cast<double>(static_cast<int>(isa)))
        << kernels::IsaName(isa);
  }
  kernels::SetIsaForTesting(saved);
}

TEST(KernelEquivalenceIntegrationTest, LegacyModeDrawsNoOverlayTelemetry) {
  const Isa saved = kernels::ActiveIsa();
  const Scenario s = Scenarios()[0];
  RunRecord record;
  RunEngine(s, Variant{kernels::ActiveIsa(), QwPath::kDeepCopy,
                       /*telemetry=*/true},
            &record);
  // The deep-copy reference never touches the overlay: its row counter
  // stays at zero or was never registered at all (-1). So the equivalence
  // above really compares two representations.
  EXPECT_LE(CounterValue(record.snapshot, util::tnames::kQwOverlayRows), 0);
  kernels::SetIsaForTesting(saved);
}

}  // namespace
}  // namespace qasca
