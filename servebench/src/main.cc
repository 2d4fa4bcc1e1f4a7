// servebench: the end-to-end serving benchmark of the QASCA AppManager.
//
//   servebench --workload <paper_apps|multi_app> --seed <n>
//              --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 runs whole passes (set-up, then timed closed-loop serving with
// service restarts early in it) until --seconds have elapsed and at least
// the workload's minimum number of passes has run, and reports the
// end-to-end metrics;
// --trace 1 runs one pass and the traced single-threaded replay and reports
// the per-layer metrics. The last line of standard output is the JSON
// result. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/kernels/kernels.h"
#include "replay.h"
#include "support.h"
#include "util/logging.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SERVEBENCH_CXX_FLAGS
#define SERVEBENCH_CXX_FLAGS ""
#endif

namespace servebench {
namespace {

/// Set-up-only samples taken before and again after the passes, so that
/// setup_s is the median of passes + 2 * kExtraSetups set-ups spread over
/// the whole run.
constexpr int kExtraSetups = 2;

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// Why this build must not be measured, or empty if it may be.
std::string RefusalReason() {
  if (qasca::util::kDChecksEnabled) return "DCHECK invariants are compiled in";
  if (std::strstr(SERVEBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return std::string("built with sanitizers: ") + SERVEBENCH_CXX_FLAGS;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#ifndef __OPTIMIZE__
  return "built without optimisation";
#endif
  return "";
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "<paper_apps|multi_app> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/servebench";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  const WorkloadSpec spec = SpecFor(workload);
  if (spec.name.empty()) return Usage("unknown workload");
  if (trace != 0 && trace != 1) return Usage("--trace is 0 or 1");

  std::printf("# servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace);
  std::printf("# host nproc=%u cpu=\"%s\" kernel_isa=%d\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              static_cast<int>(qasca::kernels::ActiveIsa()));
  std::printf("# build compiler=\"%s\" build_type=%s flags=\"%s\" dchecks=%d\n",
              __VERSION__, SERVEBENCH_BUILD_TYPE, SERVEBENCH_CXX_FLAGS,
              qasca::util::kDChecksEnabled ? 1 : 0);
  const std::string refusal = RefusalReason();
  if (!refusal.empty()) {
    std::fprintf(stderr, "servebench: refusing to measure: %s\n",
                 refusal.c_str());
    return 3;
  }

  const std::string run_dir =
      work_dir + "/run-" + workload + "-" + std::to_string(getpid());
  CheckLog checks;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;

  if (trace == 1) {
    std::filesystem::create_directories(work_dir + "/traces");
    const std::string spans_path =
        work_dir + "/traces/" + workload + ".spans.jsonl";
    TracedRun run = RunTraced(spec, seed, run_dir, spans_path, &checks);
    metrics = std::move(run.metrics);
    attempted = run.attempted;
    failed = run.failed;
    std::printf("# spans written to %s\n", spans_path.c_str());
  } else {
    std::vector<double> setup_s;
    auto sample_setups = [&] {
      for (int i = 0; i < kExtraSetups; ++i) {
        setup_s.push_back(RunSetupOnly(
            spec, seed, run_dir + "/setup" + std::to_string(setup_s.size()),
            &checks));
      }
    };
    sample_setups();
    const Clock::time_point start = Clock::now();
    std::vector<PassResult> passes;
    do {
      passes.push_back(RunPass(spec, seed,
                               run_dir + "/pass" + std::to_string(passes.size()),
                               &checks));
    } while (SecondsBetween(start, Clock::now()) < seconds ||
             static_cast<int>(passes.size()) < spec.min_passes);
    sample_setups();
    std::vector<double> request_ms;
    std::vector<double> completion_ms;
    std::vector<std::vector<double>> request_ms_by_app;
    std::vector<std::vector<double>> completion_ms_by_app;
    std::vector<double> hits_per_s;
    std::vector<double> recover_ms;
    std::vector<double> quality;
    for (const PassResult& pass : passes) {
      std::printf("# pass setup_s=%.4f request_trimmed_mean_ms=%.4f "
                  "completion_trimmed_mean_ms=%.4f hits_per_s=%.1f "
                  "recover_ms=%.1f\n",
                  pass.setup_s, TypicalLatency(pass.request_ms_by_app),
                  TypicalLatency(pass.completion_ms_by_app),
                  pass.timed_completions / pass.timed_wall_s,
                  Median(pass.recover_ms));
      request_ms_by_app.resize(pass.request_ms_by_app.size());
      completion_ms_by_app.resize(pass.completion_ms_by_app.size());
      for (size_t a = 0; a < pass.request_ms_by_app.size(); ++a) {
        request_ms_by_app[a].insert(request_ms_by_app[a].end(),
                                    pass.request_ms_by_app[a].begin(),
                                    pass.request_ms_by_app[a].end());
        completion_ms_by_app[a].insert(completion_ms_by_app[a].end(),
                                       pass.completion_ms_by_app[a].begin(),
                                       pass.completion_ms_by_app[a].end());
      }
      setup_s.push_back(pass.setup_s);
      request_ms.insert(request_ms.end(), pass.request_ms.begin(),
                        pass.request_ms.end());
      completion_ms.insert(completion_ms.end(), pass.completion_ms.begin(),
                           pass.completion_ms.end());
      hits_per_s.push_back(pass.timed_completions / pass.timed_wall_s);
      recover_ms.insert(recover_ms.end(), pass.recover_ms.begin(),
                        pass.recover_ms.end());
      double sum = 0.0;
      for (double q : pass.app_quality) sum += q;
      quality.push_back(sum / pass.app_quality.size());
      attempted += pass.attempted;
      failed += pass.failed;
    }
    std::printf("# passes=%zu requests=%zu (%zu beyond p99) completions=%zu "
                "(%zu beyond p99) restarts=%zu setups=%zu\n",
                passes.size(), request_ms.size(),
                SamplesBeyond(request_ms.size(), 0.99), completion_ms.size(),
                SamplesBeyond(completion_ms.size(), 0.99), recover_ms.size(),
                setup_s.size());
    for (size_t a = 0; a < request_ms_by_app.size(); ++a) {
      std::printf("# app %zu requests=%zu p50_ms=%.4f trimmed_mean_ms=%.4f "
                  "completions=%zu p50_ms=%.4f trimmed_mean_ms=%.4f\n",
                  a, request_ms_by_app[a].size(),
                  Percentile(request_ms_by_app[a], 0.5),
                  TrimmedMean(request_ms_by_app[a], 0.10),
                  completion_ms_by_app[a].size(),
                  Percentile(completion_ms_by_app[a], 0.5),
                  TrimmedMean(completion_ms_by_app[a], 0.10));
    }
    metrics = {
        {"request_trimmed_mean_ms", TypicalLatency(request_ms_by_app), "ms"},
        {"request_p99_ms", Percentile(request_ms, 0.99), "ms"},
        {"completion_trimmed_mean_ms", TypicalLatency(completion_ms_by_app),
         "ms"},
        {"completion_p99_ms", Percentile(completion_ms, 0.99), "ms"},
        {"hits_per_s", Median(hits_per_s), "1/s"},
        {"recover_ms", Median(recover_ms), "ms"},
        {"final_quality", Median(quality), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  }
  std::error_code ignored;
  std::filesystem::remove_all(run_dir, ignored);

  std::printf("# checks=%lld failed_checks=%lld attempted=%lld failed=%lld\n",
              static_cast<long long>(checks.checks()),
              static_cast<long long>(checks.failures()),
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (const Metric& metric : metrics) {
    std::printf("# %-38s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintResultLine(checks.ok(), attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
