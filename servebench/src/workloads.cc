#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_set>

#include "platform/app_manager.h"
#include "platform/qasca_strategy.h"
#include "simulation/dataset.h"
#include "util/rng.h"

namespace servebench {
namespace {

using qasca::AppManager;
using qasca::QuestionIndex;
using qasca::WorkerId;

/// Tolerance of the Qc row-sum check.
constexpr double kRowSumTolerance = 1e-9;
/// paper_apps: QASCA's quality may trail the benchmark's own majority vote
/// over the same answers by at most this much. Over about 100 seeds x 5 apps
/// the largest shortfall measured was 0.046 (SA; EM's fixed point is
/// sometimes worse than the vote), against a mean gain of about 0.03; a
/// broken fit or assignment falls far below the vote.
constexpr double kMajorityVoteMargin = 0.08;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return qasca::util::SplitMix64(
             qasca::util::SplitMix64::MixSeed(seed, stream))
      .Next();
}

/// One closed-loop client: its timings, its tallies and the output checks
/// it makes on every HIT.
class Client {
 public:
  Client(const std::vector<AppInputs>& apps, AppManager* manager,
         uint64_t rng_seed, CheckLog* checks)
      : apps_(apps), manager_(manager), rng_(rng_seed), checks_(checks) {
    for (const AppInputs& app : apps) {
      AppTally tally;
      tally.hits_per_worker.assign(app.workers.size(), 0);
      tally.seen.resize(app.workers.size());
      tally.label_counts.assign(static_cast<size_t>(app.config.num_questions) *
                                    app.config.num_labels,
                                0);
      tallies_.push_back(std::move(tally));
    }
    request_ms_by_app.resize(apps.size());
    completion_ms_by_app.resize(apps.size());
  }

  qasca::util::Rng& rng() { return rng_; }

  /// A worker of `app` with room for one more HIT, drawn uniformly from
  /// those that `eligible` accepts.
  template <typename Eligible>
  WorkerId PickWorker(int app, Eligible eligible) {
    const AppInputs& in = apps_[static_cast<size_t>(app)];
    const int pool = static_cast<int>(in.workers.size());
    const int k = in.config.questions_per_hit;
    for (int attempt = 0; attempt < 100000; ++attempt) {
      const WorkerId w = rng_.UniformInt(pool);
      const int served = tallies_[app].hits_per_worker[static_cast<size_t>(w)];
      if (in.config.num_questions - k * (served + 1) >= 0 && eligible(w)) {
        return w;
      }
    }
    checks_->Expect(false, "no eligible worker left in app", app);
    return 0;
  }

  /// Requests a HIT for `worker`, checks it, answers it by the worker's
  /// latent confusion matrix and, unless `abandon`, submits it. Returns the
  /// HIT's questions, or nothing if the request failed.
  std::optional<std::vector<QuestionIndex>> ServeHit(int app, WorkerId worker,
                                                     bool timed,
                                                     bool abandon) {
    const AppInputs& in = apps_[static_cast<size_t>(app)];
    AppTally& tally = tallies_[static_cast<size_t>(app)];
    ++attempted;
    const Clock::time_point t0 = Clock::now();
    qasca::util::StatusOr<std::vector<QuestionIndex>> hit =
        manager_->SubmitHitRequest(app, worker);
    const Clock::time_point t1 = Clock::now();
    if (!hit.ok()) {
      ++failed;
      std::fprintf(stderr, "request failed: %s\n",
                   hit.status().ToString().c_str());
      return std::nullopt;
    }
    if (timed) {
      request_ms.push_back(MsBetween(t0, t1));
      request_ms_by_app[static_cast<size_t>(app)].push_back(request_ms.back());
    }
    // k distinct in-range questions this worker was never handed before
    // (questions of an expired lease are forgotten when it expires).
    std::unordered_set<QuestionIndex>& seen =
        tally.seen[static_cast<size_t>(worker)];
    bool well_formed =
        static_cast<int>(hit->size()) == in.config.questions_per_hit;
    for (QuestionIndex q : *hit) {
      well_formed = well_formed && q >= 0 && q < in.config.num_questions &&
                    seen.insert(q).second;
    }
    checks_->Expect(well_formed, "HIT is not k distinct unseen questions",
                    worker);
    ++tally.assigned;
    ++tally.hits_per_worker[static_cast<size_t>(worker)];
    if (abandon) {
      ++tally.abandoned;
      if (timed) client_s += SecondsBetween(t1, Clock::now());
      return std::move(*hit);
    }

    const qasca::SimulatedWorker& simulated =
        in.workers[static_cast<size_t>(worker)];
    labels_.clear();
    for (QuestionIndex q : *hit) {
      const qasca::LabelIndex label = simulated.AnswerQuestion(
          in.truth[static_cast<size_t>(q)], rng_,
          in.difficulty[static_cast<size_t>(q)]);
      labels_.push_back(label);
      ++tally.label_counts[static_cast<size_t>(q) * in.config.num_labels +
                           label];
    }
    ++attempted;
    const Clock::time_point t2 = Clock::now();
    qasca::util::Status status =
        manager_->SubmitHitCompletion(app, worker, labels_);
    const Clock::time_point t3 = Clock::now();
    if (timed) client_s += SecondsBetween(t1, t2);
    if (!status.ok()) {
      ++failed;
      std::fprintf(stderr, "completion failed: %s\n",
                   status.ToString().c_str());
      return std::move(*hit);
    }
    ++tally.completed;
    if (timed) {
      completion_ms.push_back(MsBetween(t2, t3));
      completion_ms_by_app[static_cast<size_t>(app)].push_back(
          completion_ms.back());
      ++timed_completions;
    }
    return std::move(*hit);
  }

  /// An expired lease's questions return to the worker's candidate set.
  void Forget(int app, WorkerId worker,
              const std::vector<QuestionIndex>& questions) {
    std::unordered_set<QuestionIndex>& seen =
        tallies_[static_cast<size_t>(app)].seen[static_cast<size_t>(worker)];
    for (QuestionIndex q : questions) seen.erase(q);
  }

  struct AppTally {
    int64_t assigned = 0;
    int64_t completed = 0;
    int64_t abandoned = 0;
    /// Abandoned leases the clock must have expired by the end of the pass.
    int64_t expected_expired = 0;
    std::vector<int> hits_per_worker;
    std::vector<std::unordered_set<QuestionIndex>> seen;
    /// Answers submitted, per (question, label).
    std::vector<int> label_counts;
  };
  std::vector<AppTally>& tallies() { return tallies_; }

  std::vector<double> request_ms;
  std::vector<double> completion_ms;
  /// The same samples split by app.
  std::vector<std::vector<double>> request_ms_by_app;
  std::vector<std::vector<double>> completion_ms_by_app;
  /// Time spent between a request's return and the completion call:
  /// checking the HIT and simulating the worker's answers.
  double client_s = 0.0;
  int64_t timed_completions = 0;
  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  const std::vector<AppInputs>& apps_;
  AppManager* manager_;
  qasca::util::Rng rng_;
  CheckLog* checks_;
  std::vector<AppTally> tallies_;
  std::vector<qasca::LabelIndex> labels_;
};

bool AnyWorker(WorkerId) { return true; }

/// Majority vote over the submitted answers; ties and unanswered questions
/// go to the label answered most often overall.
qasca::ResultVector MajorityVote(const qasca::AppConfig& config,
                                 const std::vector<int>& counts) {
  const int l = config.num_labels;
  std::vector<int64_t> totals(static_cast<size_t>(l), 0);
  for (size_t i = 0; i < counts.size(); ++i) totals[i % l] += counts[i];
  const int fallback = static_cast<int>(
      std::max_element(totals.begin(), totals.end()) - totals.begin());
  qasca::ResultVector result(static_cast<size_t>(config.num_questions));
  for (int i = 0; i < config.num_questions; ++i) {
    const int* row = counts.data() + static_cast<size_t>(i) * l;
    int best = fallback;
    for (int j = 0; j < l; ++j) {
      if (row[j] > row[best]) best = j;
    }
    result[static_cast<size_t>(i)] = best;
  }
  return result;
}

/// Checks one app's served state after the restart and returns its quality.
double CheckApp(const AppManager& manager, int app, const AppInputs& in,
                const Client::AppTally& tally, const WorkloadSpec& spec,
                CheckLog* checks) {
  qasca::util::StatusOr<AppManager::AppStats> stats = manager.StatsFor(app);
  checks->Expect(stats.ok(), "StatsFor failed", app);
  if (!stats.ok()) return 0.0;
  checks->Expect(stats->completed_hits == tally.completed,
                 "completed HITs differ from the client's count",
                 stats->completed_hits);
  checks->Expect(
      tally.assigned == static_cast<int64_t>(stats->completed_hits) +
                            stats->leases_expired + stats->open_hits,
      "assigned != completed + expired + open", tally.assigned);
  checks->Expect(stats->assigned_hits ==
                     stats->completed_hits + stats->open_hits,
                 "engine assigned != completed + open", stats->assigned_hits);
  checks->Expect(stats->leases_expired == tally.expected_expired,
                 "leases expired differ from the clock's count",
                 stats->leases_expired);
  if (spec.spend_budget) {
    checks->Expect(stats->assigned_hits == in.config.TotalHits() &&
                       stats->completed_hits == in.config.TotalHits(),
                   "budget not spent", stats->assigned_hits);
  }

  double quality = 0.0;
  qasca::util::Status inspected = manager.InspectApp(
      app, [&](const qasca::TaskAssignmentEngine& engine) {
        const qasca::DistributionMatrix& qc = engine.database().current();
        const qasca::ResultVector results = engine.CurrentResults();
        const qasca::MetricSpec& metric = in.config.metric;
        const int l = qc.num_labels();
        double min_target_in = 2.0;
        double max_target_out = -1.0;
        int64_t bad_rows = 0;
        int64_t non_argmax = 0;
        for (int i = 0; i < qc.num_questions(); ++i) {
          std::span<const double> row = qc.Row(i);
          double sum = 0.0;
          double max = row[0];
          bool non_negative = true;
          for (int j = 0; j < l; ++j) {
            sum += row[j];
            max = std::max(max, row[j]);
            non_negative = non_negative && row[j] >= 0.0;
          }
          if (!non_negative || std::abs(sum - 1.0) > kRowSumTolerance) {
            ++bad_rows;
          }
          const qasca::LabelIndex r = results[static_cast<size_t>(i)];
          if (metric.kind == qasca::MetricSpec::Kind::kAccuracy) {
            // Theorem 1: R*_i is a label of maximal probability.
            if (r < 0 || r >= l || row[r] != max) ++non_argmax;
          } else {
            const double p = row[metric.target_label];
            if (r == metric.target_label) {
              min_target_in = std::min(min_target_in, p);
            } else {
              max_target_out = std::max(max_target_out, p);
            }
          }
        }
        checks->Expect(bad_rows == 0, "Qc rows not distributions", bad_rows);
        checks->Expect(non_argmax == 0, "Accuracy* result not a row argmax",
                       non_argmax);
        // Theorem 2: the target rows are exactly those at or above one
        // threshold on the target probability.
        checks->Expect(min_target_in > max_target_out,
                       "F-score* target rows are not a threshold set", app);
        quality = BenchQuality(in.config, in.truth, results);
        checks->Expect(
            std::abs(quality - engine.QualityAgainstTruth(in.truth)) <= 1e-12,
            "benchmark quality differs from QualityAgainstTruth", app);
      });
  checks->Expect(inspected.ok(), "InspectApp failed", app);

  if (spec.spend_budget) {
    const double vote = BenchQuality(in.config, in.truth,
                                     MajorityVote(in.config, tally.label_counts));
    std::printf("# app %s quality=%.4f majority_vote=%.4f\n",
                in.config.name.c_str(), quality, vote);
    checks->Expect(quality >= vote - kMajorityVoteMargin,
                   "quality below majority vote less the margin (app)", app);
  }
  return quality;
}

/// A pass's served system. The client and the manager's apps refer to
/// `apps`, so a SetupState is filled in place and never moved.
struct SetupState {
  std::vector<AppInputs> apps;
  std::unique_ptr<AppManager> manager;
  std::unique_ptr<Client> client;
};

/// Set-up: inputs, registration (engines, databases, journals) and the
/// untimed warm-up prefix, served round-robin by one client.
void SetUp(const WorkloadSpec& spec, uint64_t seed,
           const std::string& journal_dir, CheckLog* checks,
           SetupState& state) {
  state.apps = GenerateInputs(spec, seed);
  std::filesystem::remove_all(journal_dir);
  std::filesystem::create_directories(journal_dir);
  state.manager = std::make_unique<AppManager>();
  for (size_t a = 0; a < state.apps.size(); ++a) {
    AppManager::AppOptions options;
    options.config = state.apps[a].config;
    options.config.persistence_path = journal_dir + "/journal";
    const qasca::QwMode mode = options.config.qw_mode;
    options.strategy_factory = [mode] {
      return std::make_unique<qasca::QascaStrategy>(mode);
    };
    options.seed = state.apps[a].decision_seed;
    qasca::util::StatusOr<qasca::AppId> id =
        state.manager->RegisterApp(std::move(options));
    checks->Expect(id.ok() && *id == static_cast<int>(a), "RegisterApp", a);
  }
  state.client = std::make_unique<Client>(state.apps, state.manager.get(),
                                          DeriveSeed(seed, 101), checks);
  Client& client = *state.client;
  for (int h = 0; h < spec.warmup_hits_per_app; ++h) {
    for (int a = 0; a < static_cast<int>(state.apps.size()); ++a) {
      client.ServeHit(a, client.PickWorker(a, AnyWorker),
                      /*timed=*/false, /*abandon=*/false);
    }
  }
}

/// The service restart of a pass, made once the client has served
/// `restart_after_hits` timed HITs. Its wall time is kept apart from the
/// timed serving around it.
class Restarter {
 public:
  Restarter(const WorkloadSpec& spec, SetupState& state, PassResult* result,
            CheckLog* checks)
      : spec_(spec), state_(state), result_(result), checks_(checks) {}

  /// Restarts the service if its point has come and it has not run yet.
  void MaybeRestart() {
    if (done_ || static_cast<int>(state_.client->request_ms.size()) <
                     spec_.restart_after_hits) {
      return;
    }
    done_ = true;
    const Clock::time_point start = Clock::now();
    Restart();
    paused_s_ += SecondsBetween(start, Clock::now());
  }
  bool done() const { return done_; }
  double paused_s() const { return paused_s_; }

 private:
  /// Every app crashes and recovers from its journal; the recovered state
  /// must be bit-identical, and serving continues on it.
  void Restart() {
    AppManager& manager = *state_.manager;
    Client& client = *state_.client;
    const int apps = static_cast<int>(state_.apps.size());
    std::vector<uint64_t> before(static_cast<size_t>(apps), 0);
    for (int a = 0; a < apps; ++a) {
      qasca::util::StatusOr<uint64_t> fp = manager.AppStateFingerprint(a);
      checks_->Expect(fp.ok(), "fingerprint before restart", a);
      if (fp.ok()) before[a] = *fp;
    }
    for (int restart = 0; restart < spec_.restarts_per_pass; ++restart) {
      const Clock::time_point recover_start = Clock::now();
      for (int a = 0; a < apps; ++a) {
        ++client.attempted;
        if (!manager.CrashAndRecoverApp(a).ok()) ++client.failed;
      }
      result_->recover_ms.push_back(MsBetween(recover_start, Clock::now()));
      for (int a = 0; a < apps; ++a) {
        qasca::util::StatusOr<uint64_t> fp = manager.AppStateFingerprint(a);
        checks_->Expect(fp.ok() && *fp == before[a],
                        "fingerprint changed across the restart", a);
      }
    }
  }

  const WorkloadSpec& spec_;
  SetupState& state_;
  PassResult* result_;
  CheckLog* checks_;
  bool done_ = false;
  double paused_s_ = 0.0;
};

/// paper_apps: spends every app's budget, apps drawn in proportion to their
/// remaining HITs.
void ServeBudgets(SetupState& state, Restarter& restarter) {
  Client& client = *state.client;
  const int apps = static_cast<int>(state.apps.size());
  std::vector<int64_t> remaining(static_cast<size_t>(apps));
  int64_t total = 0;
  for (int a = 0; a < apps; ++a) {
    remaining[a] = state.apps[a].config.TotalHits() - client.tallies()[a].assigned;
    total += remaining[a];
  }
  while (total > 0) {
    int64_t pick = static_cast<int64_t>(client.rng().Uniform() * total);
    int a = 0;
    while (pick >= remaining[a]) pick -= remaining[a++];
    if (client.ServeHit(a, client.PickWorker(a, AnyWorker), true,
                        false)) {
      --remaining[a];
      --total;
      restarter.MaybeRestart();
    } else {
      break;  // counted as failed; a failing app would never drain
    }
  }
}

/// multi_app: serves HITs of apps drawn uniformly, in rounds; each round
/// ends with one AdvanceAppClock tick per app, so abandoned leases expire
/// exactly `lease_timeout_ticks` rounds later.
void ServeRounds(const WorkloadSpec& spec, SetupState& state,
                 Restarter& restarter, CheckLog* checks) {
  Client& client = *state.client;
  const int apps = static_cast<int>(state.apps.size());
  struct Abandoned {
    int app;
    WorkerId worker;
    int free_from_round;
    std::vector<QuestionIndex> questions;
  };
  std::vector<Abandoned> abandoned;
  std::vector<std::unordered_set<WorkerId>> blocked(static_cast<size_t>(apps));
  for (int r = 0; r < spec.rounds; ++r) {
    for (size_t i = 0; i < abandoned.size();) {
      if (abandoned[i].free_from_round <= r) {
        client.Forget(abandoned[i].app, abandoned[i].worker,
                      abandoned[i].questions);
        blocked[abandoned[i].app].erase(abandoned[i].worker);
        abandoned[i] = std::move(abandoned.back());
        abandoned.pop_back();
      } else {
        ++i;
      }
    }
    for (int h = 0; h < spec.hits_per_round; ++h) {
      const int a = client.rng().UniformInt(apps);
      const WorkerId w = client.PickWorker(
          a, [&](WorkerId id) { return !blocked[a].contains(id); });
      const bool abandon = client.rng().Uniform() < spec.abandon_share;
      std::optional<std::vector<QuestionIndex>> hit =
          client.ServeHit(a, w, true, abandon);
      if (abandon && hit.has_value()) {
        const int timeout =
            static_cast<int>(state.apps[a].config.lease_timeout_ticks);
        // Leased at clock r, deadline r + timeout, reached by the tick
        // that ends round r + timeout - 1.
        if (r + timeout <= spec.rounds) {
          ++client.tallies()[a].expected_expired;
        }
        blocked[a].insert(w);
        abandoned.push_back({a, w, r + timeout, std::move(*hit)});
      }
    }
    for (int a = 0; a < apps; ++a) {
      ++client.attempted;
      const bool ticked = state.manager->AdvanceAppClock(a, 1).ok();
      if (!ticked) ++client.failed;
      checks->Expect(ticked, "AdvanceAppClock failed", a);
    }
    restarter.MaybeRestart();
  }
}

}  // namespace

WorkloadSpec SpecFor(const std::string& workload) {
  WorkloadSpec spec;
  // A restart replays every journaled event through the strategy and EM,
  // so it costs about as much as the serving before it. It is made early in
  // the pass, so that most of a run's time is timed serving.
  if (workload == "paper_apps") {
    spec.name = workload;
    spec.warmup_hits_per_app = 60;
    spec.spend_budget = true;
    spec.min_passes = 3;
    spec.restart_after_hits = 1000;  // of the 4200 timed HITs
    spec.em_sample_every = 10;
  } else if (workload == "multi_app") {
    spec.name = workload;
    // One client, like paper_apps. With two or more client threads the
    // shard locks are contended, but both p99s then moved by up to 2x
    // between runs (README.md, "Left out").
    spec.warmup_hits_per_app = 40;
    spec.rounds = 40;
    spec.hits_per_round = 30;
    spec.min_passes = 3;
    spec.restart_after_hits = 90;  // the end of round 3
    spec.abandon_share = 0.05;
    spec.em_sample_every = 20;
  }
  return spec;
}

std::vector<AppInputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<qasca::ApplicationSpec> specs;
  if (spec.name == "paper_apps") {
    specs = qasca::PaperApplications();
  } else if (spec.name == "multi_app") {
    specs = {qasca::FilmPostersApp(), qasca::SentimentAnalysisApp(),
             qasca::EntityResolutionApp(), qasca::PositiveSentimentApp()};
    for (qasca::ApplicationSpec& app : specs) {
      app.name += "10k";
      app.num_questions = 10000;
      app.workers.num_workers = 120;
    }
  }
  std::vector<AppInputs> apps;
  for (size_t i = 0; i < specs.size(); ++i) {
    qasca::util::Rng rng(DeriveSeed(seed, i));
    AppInputs in;
    in.config = qasca::MakeAppConfig(specs[i]);
    if (spec.name == "multi_app") {
      // Full refit on every completion: the incremental refresh aborts on
      // these apps (README.md, "Left out").
      in.config.lease_timeout_ticks = 3;
    }
    in.truth = qasca::GenerateGroundTruth(specs[i], rng);
    in.difficulty = qasca::GenerateQuestionDifficulty(specs[i], rng);
    in.workers = qasca::GenerateWorkerPool(specs[i].workers, rng);
    in.decision_seed = DeriveSeed(seed, 1000 + i);
    apps.push_back(std::move(in));
  }
  return apps;
}

std::string JournalPrefix(const std::string& journal_dir, int app) {
  return journal_dir + "/journal.app" + std::to_string(app);
}

double BenchQuality(const qasca::AppConfig& config,
                    const qasca::GroundTruthVector& truth,
                    const qasca::ResultVector& result) {
  if (truth.size() != result.size() || truth.empty()) return -1.0;
  if (config.metric.kind == qasca::MetricSpec::Kind::kAccuracy) {
    int64_t correct = 0;
    for (size_t i = 0; i < truth.size(); ++i) correct += truth[i] == result[i];
    return static_cast<double>(correct) / static_cast<double>(truth.size());
  }
  // F-score (Eq. 7): TP / (alpha * |returned target| + (1-alpha) * |true target|).
  const qasca::LabelIndex target = config.metric.target_label;
  const double alpha = config.metric.alpha;
  int64_t both = 0;
  int64_t returned = 0;
  int64_t actual = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    both += result[i] == target && truth[i] == target;
    returned += result[i] == target;
    actual += truth[i] == target;
  }
  const double denominator = alpha * returned + (1.0 - alpha) * actual;
  return denominator > 0.0 ? both / denominator : 0.0;
}

double RunSetupOnly(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& journal_dir, CheckLog* checks) {
  const Clock::time_point start = Clock::now();
  SetupState state;
  SetUp(spec, seed, journal_dir, checks, state);
  const double seconds = SecondsBetween(start, Clock::now());
  checks->Expect(state.client->failed == 0, "set-up operation failed",
                 state.client->failed);
  return seconds;
}

PassResult RunPass(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& journal_dir, CheckLog* checks) {
  PassResult result;
  const Clock::time_point start = Clock::now();
  SetupState state;
  SetUp(spec, seed, journal_dir, checks, state);
  const int apps = static_cast<int>(state.apps.size());
  result.setup_s = SecondsBetween(start, Clock::now());
  for (int a = 0; a < apps; ++a) {
    // One assignment and one completion event per warm-up HIT.
    result.warmup_events.push_back(2 * static_cast<size_t>(spec.warmup_hits_per_app));
  }

  Restarter restarter(spec, state, &result, checks);
  const Clock::time_point timed_start = Clock::now();
  if (spec.rounds > 0) {
    ServeRounds(spec, state, restarter, checks);
  } else {
    ServeBudgets(state, restarter);
  }
  result.timed_wall_s =
      SecondsBetween(timed_start, Clock::now()) - restarter.paused_s();
  checks->Expect(restarter.done(), "the pass ended before its restart", 0);
  Client& main = *state.client;
  result.timed_completions = main.timed_completions;
  result.client_us_per_hit =
      1e6 * main.client_s /
      std::max<double>(1.0, static_cast<double>(main.request_ms.size()));

  for (int a = 0; a < apps; ++a) {
    result.app_quality.push_back(CheckApp(*state.manager, a, state.apps[a],
                                          main.tallies()[a], spec, checks));
  }
  result.request_ms = std::move(main.request_ms);
  result.completion_ms = std::move(main.completion_ms);
  result.request_ms_by_app = std::move(main.request_ms_by_app);
  result.completion_ms_by_app = std::move(main.completion_ms_by_app);
  result.attempted = main.attempted;
  result.failed = main.failed;
  return result;
}

}  // namespace servebench
