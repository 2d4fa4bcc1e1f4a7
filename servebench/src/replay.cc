#include "replay.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "core/assignment/fscore_online.h"
#include "core/assignment/topk_benefit.h"
#include "model/em.h"
#include "model/likelihood_cache.h"
#include "model/posterior.h"
#include "platform/assignment_core.h"
#include "platform/engine.h"
#include "platform/journal.h"
#include "platform/qasca_strategy.h"
#include "util/rng.h"
#include "util/telemetry_names.h"

namespace servebench {
namespace {

using qasca::LifecycleJournal;
using qasca::QuestionIndex;
using qasca::WorkerId;
using Event = LifecycleJournal::Event;

/// The layer boundaries the replay times. The layer replay (ReplayLayers)
/// and the engine replay (ReplayEngines) each give every event a root span;
/// every other span of that event has the event's id and a parent below.
enum Layer : uint8_t {
  kEvent,
  kCoreDecide,
  kCoreApplyCompletion,
  kPoolDecide,
  kCandidates,
  kQwRows,
  kTopKSelect,
  kFScoreSelect,
  kRefreshRow,
  kEmRefit,
  kJournalAppend,
  kEngineEvent,
  kEngineRequest,
  kEngineCompletion,
  kEngineTick,
  kSpannedEngine,
  kSpannedCall,
  kObservedRequest,
  kLayerCount,
};

struct LayerInfo {
  const char* name;
  /// The enclosing span's layer; a root span names itself.
  Layer parent;
};

constexpr LayerInfo kLayers[kLayerCount] = {
    {"replay.event", kEvent},
    {"assignment_core.decide", kEvent},
    {"assignment_core.apply_completion", kEvent},
    {"assignment_core_pool.decide", kEvent},
    {"database.candidates", kEvent},
    {"posterior.qw_rows", kEvent},
    {"topk_benefit.select", kEvent},
    {"fscore_online.select", kEvent},
    {"posterior.refresh_row", kEvent},
    {"em.refit", kEvent},
    {"journal.append", kEvent},
    {"engine_replay.event", kEngineEvent},
    {"engine.request", kEngineEvent},
    {"engine.completion", kEngineEvent},
    {"engine.tick", kEngineEvent},
    {"engine_spanned.event", kEngineEvent},
    {"engine_spanned.call", kSpannedEngine},
    {"engine_observed.request", kEngineEvent},
};

struct SpanRecord {
  Layer layer;
  int app;
  uint32_t event;
  int64_t start_ns;
  int64_t duration_ns;
};

/// In-memory span store, written out once at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, int app, uint32_t event)
        : tracer_(tracer), layer_(layer), app_(app), event_(event),
          start_(Clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Record(layer_, app_, event_, start_);
    }

   private:
    Tracer* tracer_;
    Layer layer_;
    int app_;
    uint32_t event_;
    Clock::time_point start_;
  };

  void Record(Layer layer, int app, uint32_t event, Clock::time_point start) {
    const Clock::time_point end = Clock::now();
    spans_.push_back(
        {layer, app, event,
         std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
             .count(),
         std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count()});
  }

  /// Durations of every span of `layer`, in `scale` units per second.
  std::vector<double> Durations(Layer layer, double scale) const {
    std::vector<double> out;
    for (const SpanRecord& span : spans_) {
      if (span.layer == layer) out.push_back(span.duration_ns * 1e-9 * scale);
    }
    return out;
  }

  double TotalSeconds(Layer layer) const {
    double total = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.layer == layer) total += span.duration_ns * 1e-9;
    }
    return total;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRecord& s : spans_) {
      const LayerInfo& info = kLayers[s.layer];
      out << "{\"name\":\"" << info.name << "\",\"app\":" << s.app
          << ",\"event\":" << s.event << ",\"parent\":\""
          << (info.parent == s.layer ? "" : kLayers[info.parent].name)
          << "\",\"start_ns\":" << s.start_ns
          << ",\"duration_ns\":" << s.duration_ns << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

/// Counts gathered over every app's replay.
struct Tallies {
  std::vector<double> candidates_per_request;
  std::vector<double> qw_rows_per_request;
  std::vector<double> dinkelbach_iterations;
  std::vector<double> em_iterations;
  int64_t journal_events = 0;
  int64_t journal_bytes = 0;
  int64_t events_in_memory = 0;
  double journal_open_ms = 0.0;
  double engine_recover_ms = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

std::unique_ptr<qasca::AssignmentStrategy> MakeStrategy(
    const qasca::AppConfig& config) {
  return std::make_unique<qasca::QascaStrategy>(config.qw_mode);
}

int64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<int64_t>(size);
}

/// The engine's lease bookkeeping, re-derived for the standalone cores
/// (which have none): open HITs with deadlines on the replayed clock,
/// expired in ascending worker order like TaskAssignmentEngine::Tick.
struct LeaseBook {
  struct Lease {
    std::vector<QuestionIndex> questions;
    uint64_t deadline = 0;
  };
  std::map<WorkerId, Lease> open;
  uint64_t now = 0;
  uint64_t timeout = 0;

  void Assign(WorkerId worker, std::vector<QuestionIndex> questions) {
    open[worker] = {std::move(questions),
                    timeout == 0 ? UINT64_MAX : now + timeout};
  }
  std::vector<std::pair<WorkerId, std::vector<QuestionIndex>>> Advance(
      uint64_t ticks) {
    now += ticks;
    std::vector<std::pair<WorkerId, std::vector<QuestionIndex>>> expired;
    for (auto it = open.begin(); it != open.end();) {
      if (it->second.deadline <= now) {
        expired.emplace_back(it->first, std::move(it->second.questions));
        it = open.erase(it);
      } else {
        ++it;
      }
    }
    return expired;
  }
};

/// Replays one app's journaled events through a standalone core, a core with
/// a thread pool, a journal and the layer functions, timing each call.
void ReplayLayers(const WorkloadSpec& spec, const AppInputs& in, int app,
                  const std::vector<Event>& events, size_t warmup_events,
                  uint64_t seed, const std::string& dir, Tracer* tracer,
                  Tallies* tallies, CheckLog* checks) {
  std::filesystem::create_directories(dir);
  const qasca::AppConfig& config = in.config;
  qasca::AppConfig pool_config = config;
  pool_config.num_threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  qasca::util::MetricRegistry core_registry(false);
  qasca::AssignmentCore core(&config, MakeStrategy(config), in.decision_seed,
                             &core_registry);
  qasca::util::MetricRegistry pool_registry(false);
  qasca::AssignmentCore pool_core(&pool_config, MakeStrategy(config),
                                  in.decision_seed, &pool_registry);
  LifecycleJournal journal(dir + "/journal");

  // The duplicate layer calls draw from the benchmark's own stream and
  // their own scratch; no program state is touched.
  qasca::util::Rng bench_rng(seed ^ (0x5eed0000ULL + app));
  qasca::QwOverlay overlay;
  qasca::WorkerLikelihoods likelihoods;
  std::vector<double> row;
  const bool accuracy = config.metric.kind == qasca::MetricSpec::Kind::kAccuracy;

  LeaseBook leases;
  leases.timeout = config.lease_timeout_ticks;
  int64_t completions = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    const bool timed = i >= warmup_events;
    Tracer* t = timed ? tracer : nullptr;
    const uint32_t id = static_cast<uint32_t>(i);
    Tracer::Scope root(t, kEvent, app, id);
    switch (event.kind) {
      case Event::Kind::kAssign: {
        const WorkerId worker = event.worker;
        if (timed) {
          const qasca::Database& db = core.database();
          std::vector<QuestionIndex> candidates;
          {
            Tracer::Scope span(t, kCandidates, app, id);
            candidates = db.CandidatesFor(worker);
          }
          tallies->candidates_per_request.push_back(
              static_cast<double>(candidates.size()));
          const qasca::WorkerModel& model = db.parameters().WorkerFor(worker);
          likelihoods.Rebuild(model);
          {
            Tracer::Scope span(t, kQwRows, app, id);
            qasca::EstimateWorkerRowsInto(db.current(), model, likelihoods,
                                          candidates, config.qw_mode,
                                          bench_rng, &overlay, nullptr,
                                          nullptr, accuracy);
          }
          tallies->qw_rows_per_request.push_back(overlay.rows_materialized());
          qasca::AssignmentRequest request;
          request.current = &db.current();
          request.estimated = &db.current();
          request.overlay = &overlay;
          request.candidates = std::move(candidates);
          request.k = config.questions_per_hit;
          request.compute_objective = false;
          if (accuracy) {
            Tracer::Scope span(t, kTopKSelect, app, id);
            qasca::AssignTopKBenefit(request);
          } else {
            qasca::FScoreAssignmentOptions options;
            options.alpha = config.metric.alpha;
            options.target_label = config.metric.target_label;
            qasca::AssignmentResult result;
            {
              Tracer::Scope span(t, kFScoreSelect, app, id);
              result = qasca::AssignFScoreOnline(request, options);
            }
            tallies->dinkelbach_iterations.push_back(result.inner_iterations);
          }
        }
        tallies->attempted += 2;
        {
          qasca::util::StatusOr<qasca::AssignmentCore::Decision> decision =
              [&] {
                Tracer::Scope span(t, kCoreDecide, app, id);
                return core.Decide(worker, nullptr);
              }();
          const bool same = decision.ok() && decision->questions == event.questions;
          checks->Expect(same, "core replay diverged from the served HIT", i);
          if (!decision.ok()) ++tallies->failed;
          core.CommitAssignment(worker, event.questions);
        }
        {
          qasca::util::StatusOr<qasca::AssignmentCore::Decision> decision =
              [&] {
                Tracer::Scope span(t, kPoolDecide, app, id);
                return pool_core.Decide(worker, nullptr);
              }();
          checks->Expect(decision.ok() && decision->questions == event.questions,
                         "pooled core replay diverged from the served HIT", i);
          if (!decision.ok()) ++tallies->failed;
          pool_core.CommitAssignment(worker, event.questions);
        }
        {
          Tracer::Scope span(t, kJournalAppend, app, id);
          if (!journal.AppendAssign(worker, event.questions).ok()) {
            ++tallies->failed;
          }
        }
        ++tallies->attempted;
        leases.Assign(worker, event.questions);
        break;
      }
      case Event::Kind::kComplete: {
        const WorkerId worker = event.worker;
        auto lease = leases.open.find(worker);
        checks->Expect(lease != leases.open.end(),
                       "journal completes a HIT that is not open", i);
        if (lease == leases.open.end()) break;
        const std::vector<QuestionIndex> questions =
            std::move(lease->second.questions);
        leases.open.erase(lease);
        {
          Tracer::Scope span(t, kCoreApplyCompletion, app, id);
          core.ApplyCompletion(worker, questions, event.labels);
        }
        pool_core.ApplyCompletion(worker, questions, event.labels);
        tallies->attempted += 1;
        {
          Tracer::Scope span(t, kJournalAppend, app, id);
          if (!journal.AppendComplete(worker, event.labels).ok()) {
            ++tallies->failed;
          }
        }
        if (timed) {
          // The incremental refresh's per-row call, on rows the core just
          // refitted; see README.md for where the program takes it.
          const qasca::EmResult& parameters = core.database().parameters();
          qasca::WorkerModelLookup lookup =
              [&parameters](WorkerId w) -> const qasca::WorkerModel& {
            return parameters.WorkerFor(w);
          };
          for (QuestionIndex q : questions) {
            Tracer::Scope span(t, kRefreshRow, app, id);
            qasca::ComputePosteriorRowInto(
                core.database().answers()[static_cast<size_t>(q)],
                parameters.prior, lookup, &row);
          }
          if (completions % spec.em_sample_every == 0) {
            qasca::EmResult fit;
            {
              Tracer::Scope span(t, kEmRefit, app, id);
              fit = qasca::RunEm(core.database().answers(), config.num_labels,
                                 config.em);
            }
            tallies->em_iterations.push_back(fit.iterations);
          }
        }
        ++completions;
        break;
      }
      case Event::Kind::kTick: {
        for (auto& [worker, questions] : leases.Advance(event.ticks)) {
          core.ReleaseAssignment(worker, questions);
          pool_core.ReleaseAssignment(worker, questions);
        }
        tallies->attempted += 1;
        Tracer::Scope span(t, kJournalAppend, app, id);
        if (!journal.AppendTick(event.ticks).ok()) ++tallies->failed;
        break;
      }
    }
  }

  tallies->journal_events += static_cast<int64_t>(events.size());
  tallies->journal_bytes += FileBytes(dir + "/journal.snapshot") +
                            FileBytes(dir + "/journal.log");
  const Clock::time_point start = Clock::now();
  LifecycleJournal reopened(dir + "/journal");
  tallies->journal_open_ms += MsBetween(start, Clock::now());
  tallies->events_in_memory += static_cast<int64_t>(reopened.events().size());
  checks->Expect(reopened.events().size() == events.size(),
                 "standalone journal lost events", app);
}

/// Replays one app's journaled events through three engines side by side:
/// a plain engine (the engine.* figures), a second plain engine whose every
/// call also runs inside one of the benchmark's spans, and an engine with
/// telemetry, flight recorder, provenance and an SLO tracker on. All three
/// are timed the same way, from outside, so the spanned and the observed
/// engine differ from the plain one only in what their overhead metric
/// measures. The engine that goes first rotates from event to event, so
/// none always runs on caches the others left warm.
void ReplayEngines(const AppInputs& in, int app,
                   const std::vector<Event>& events, size_t warmup_events,
                   const std::string& dir, Tracer* tracer, Tallies* tallies,
                   CheckLog* checks) {
  std::filesystem::create_directories(dir);
  const qasca::AppConfig& config = in.config;
  qasca::AppConfig plain_config = config;
  plain_config.persistence_path = dir + "/plain";
  qasca::AppConfig spanned_config = config;
  spanned_config.persistence_path = dir + "/spanned";
  qasca::AppConfig observed_config = config;
  observed_config.persistence_path = dir + "/observed";
  observed_config.telemetry_enabled = true;
  observed_config.flight_recorder_enabled = true;
  observed_config.provenance_enabled = true;
  observed_config.slo_p95_assign_ms = 50.0;

  enum Role { kPlain, kSpanned, kObserved, kRoles };
  constexpr const char* kDiverged[kRoles] = {
      "engine replay diverged from the served HIT",
      "spanned engine replay diverged from the served HIT",
      "observed engine replay diverged from the served HIT",
  };
  qasca::TaskAssignmentEngine plain(plain_config, MakeStrategy(config),
                                    in.decision_seed);
  qasca::TaskAssignmentEngine spanned(spanned_config, MakeStrategy(config),
                                      in.decision_seed);
  qasca::TaskAssignmentEngine observed(observed_config, MakeStrategy(config),
                                       in.decision_seed);
  qasca::TaskAssignmentEngine* engines[kRoles] = {&plain, &spanned, &observed};

  for (size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    Tracer* t = i >= warmup_events ? tracer : nullptr;
    const uint32_t id = static_cast<uint32_t>(i);
    Tracer::Scope root(t, kEngineEvent, app, id);
    // What each engine timed: the plain one per event kind, the spanned one
    // every event, the observed one its requests.
    Layer outer_layer[kRoles] = {kEngineRequest, kSpannedEngine,
                                 kObservedRequest};
    Tracer* outer_tracer[kRoles] = {t, t, t};
    if (event.kind == Event::Kind::kComplete) {
      outer_layer[kPlain] = kEngineCompletion;
      outer_tracer[kObserved] = nullptr;
    } else if (event.kind == Event::Kind::kTick) {
      outer_layer[kPlain] = kEngineTick;
      outer_tracer[kObserved] = nullptr;
    }
    int expired[kRoles] = {};
    for (int turn = 0; turn < kRoles; ++turn) {
      const int role = static_cast<int>((i + turn) % kRoles);
      qasca::TaskAssignmentEngine& engine = *engines[role];
      bool ok = true;
      std::vector<QuestionIndex> hit;
      {
        Tracer::Scope outer(outer_tracer[role], outer_layer[role], app, id);
        std::optional<Tracer::Scope> inner;
        if (role == kSpanned) inner.emplace(t, kSpannedCall, app, id);
        switch (event.kind) {
          case Event::Kind::kAssign: {
            qasca::util::StatusOr<std::vector<QuestionIndex>> served =
                engine.RequestHit(event.worker);
            ok = served.ok();
            if (ok) hit = std::move(*served);
            break;
          }
          case Event::Kind::kComplete:
            ok = engine.CompleteHit(event.worker, event.labels).ok();
            break;
          case Event::Kind::kTick:
            expired[role] = engine.Tick(event.ticks);
            break;
        }
      }
      ++tallies->attempted;
      if (!ok) ++tallies->failed;
      if (event.kind == Event::Kind::kAssign) {
        checks->Expect(ok && hit == event.questions, kDiverged[role], i);
      }
    }
    checks->Expect(expired[kSpanned] == expired[kPlain] &&
                       expired[kObserved] == expired[kPlain],
                   "engines expired different lease counts", i);
  }

  const uint64_t fingerprint = plain.StateFingerprint();
  checks->Expect(spanned.StateFingerprint() == fingerprint,
                 "spans changed the engine state", app);
  checks->Expect(observed.StateFingerprint() == fingerprint,
                 "observability changed the engine state", app);
  {
    const Clock::time_point start = Clock::now();
    qasca::TaskAssignmentEngine recovered(plain_config, MakeStrategy(config),
                                          in.decision_seed);
    const bool ok = recovered.Recover().ok();
    tallies->engine_recover_ms += MsBetween(start, Clock::now());
    ++tallies->attempted;
    if (!ok) ++tallies->failed;
    checks->Expect(ok && recovered.StateFingerprint() == fingerprint,
                   "standalone recovery is not bit-identical", app);
  }
  const qasca::util::TelemetrySnapshot snapshot = observed.TelemetrySnapshot();
  for (const qasca::util::CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == qasca::util::tnames::kQwLikelihoodCacheHits) {
      tallies->cache_hits += counter.value;
    } else if (counter.name == qasca::util::tnames::kQwLikelihoodCacheMisses) {
      tallies->cache_misses += counter.value;
    }
  }
}

}  // namespace

TracedRun RunTraced(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& work_dir, const std::string& spans_path,
                    CheckLog* checks) {
  const std::string journal_dir = work_dir + "/served";
  // One restart is enough here: the replay needs the journals, not the
  // recovery figures.
  WorkloadSpec pass_spec = spec;
  pass_spec.restarts_per_pass = 1;
  // The replay runs every served event through several engines, so
  // multi_app serves half its rounds here to keep the run short.
  pass_spec.rounds = spec.rounds / 2;
  const PassResult pass = RunPass(pass_spec, seed, journal_dir, checks);
  const std::vector<AppInputs> apps = GenerateInputs(spec, seed);

  Tracer tracer;
  Tallies tallies;
  for (size_t a = 0; a < apps.size(); ++a) {
    const int app = static_cast<int>(a);
    // The app's event sequence, in the order its journal recorded it.
    const std::vector<Event> events =
        LifecycleJournal(JournalPrefix(journal_dir, app)).events();
    const std::string dir = work_dir + "/replay/app" + std::to_string(a);
    ReplayLayers(spec, apps[a], app, events, pass.warmup_events[a], seed,
                 dir + "/layers", &tracer, &tallies, checks);
    ReplayEngines(apps[a], app, events, pass.warmup_events[a],
                  dir + "/engines", &tracer, &tallies, checks);
  }
  checks->Expect(tracer.Write(spans_path), "could not write the spans", 0);

  auto p50 = [&](Layer layer, double scale) {
    return Percentile(tracer.Durations(layer, scale), 0.5);
  };
  const double engine_request = p50(kEngineRequest, 1e3);
  const double engine_completion = p50(kEngineCompletion, 1e3);
  const double core_decide = p50(kCoreDecide, 1e3);
  // The same events through the plain and the spanned engine.
  const double plain_engine_s = tracer.TotalSeconds(kEngineRequest) +
                                tracer.TotalSeconds(kEngineCompletion) +
                                tracer.TotalSeconds(kEngineTick);
  const double spanned_engine_s = tracer.TotalSeconds(kSpannedEngine);
  const int64_t lookups = tallies.cache_hits + tallies.cache_misses;

  TracedRun run;
  run.metrics = {
      {"app_manager.request_overhead_ms",
       Percentile(pass.request_ms, 0.5) - engine_request, "ms"},
      {"app_manager.completion_overhead_ms",
       Percentile(pass.completion_ms, 0.5) - engine_completion, "ms"},
      {"engine.request_ms", engine_request, "ms"},
      {"engine.completion_ms", engine_completion, "ms"},
      {"assignment_core.decide_ms", core_decide, "ms"},
      {"assignment_core.apply_completion_ms", p50(kCoreApplyCompletion, 1e3),
       "ms"},
      {"database.candidates_ms", p50(kCandidates, 1e3), "ms"},
      {"database.candidates_per_request",
       Median(tallies.candidates_per_request), "count"},
      {"posterior.qw_rows_ms", p50(kQwRows, 1e3), "ms"},
      {"posterior.qw_rows_per_request", Median(tallies.qw_rows_per_request),
       "count"},
      {"posterior.refresh_row_us", p50(kRefreshRow, 1e6), "us"},
      {"topk_benefit.select_ms", p50(kTopKSelect, 1e3), "ms"},
      {"fscore_online.select_ms", p50(kFScoreSelect, 1e3), "ms"},
      {"fscore_online.dinkelbach_iterations",
       Median(tallies.dinkelbach_iterations), "count"},
      {"em.refit_ms", p50(kEmRefit, 1e3), "ms"},
      {"em.iterations_per_refit", Median(tallies.em_iterations), "count"},
      {"likelihood_cache.hit_ratio",
       lookups > 0 ? static_cast<double>(tallies.cache_hits) / lookups : 0.0,
       "ratio"},
      {"journal.append_us", p50(kJournalAppend, 1e6), "us"},
      {"journal.bytes_per_event",
       tallies.journal_events > 0
           ? static_cast<double>(tallies.journal_bytes) / tallies.journal_events
           : 0.0,
       "B"},
      {"journal.open_ms", tallies.journal_open_ms, "ms"},
      {"journal.events_in_memory", static_cast<double>(tallies.events_in_memory),
       "count"},
      {"engine.recover_ms", tallies.engine_recover_ms, "ms"},
      {"thread_pool.decide_speedup", core_decide / p50(kPoolDecide, 1e3), "x"},
      {"telemetry.request_overhead_pct",
       100.0 * (p50(kObservedRequest, 1e3) - engine_request) / engine_request,
       "%"},
      {"generator.us_per_hit", pass.client_us_per_hit, "us"},
      {"trace.overhead_pct",
       100.0 * (spanned_engine_s - plain_engine_s) / plain_engine_s, "%"},
  };
  run.attempted = pass.attempted + tallies.attempted;
  run.failed = pass.failed + tallies.failed;
  return run;
}

}  // namespace servebench
