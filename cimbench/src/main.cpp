// cimbench: the cimtpu serving benchmark.
//
//   cimbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--threads N] [--scale N]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then replays it trial after trial for --seconds and reports end-to-end
// host and simulated metrics.  --trace 1 runs traced passes instead (see
// traced.h) and reports per-layer metrics, medians over the passes.  Every
// trial's simulated outputs must match the first trial's bit for bit, and
// every cell must conserve its requests; otherwise the run prints one
// error line, reports correct=false and exits 1.
//
// The last stdout line is the result object; the line before it records
// the host, thread count, compiler, seed and the trial samples.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "traced.h"
#include "workloads.h"

namespace {

using cimbench::SimSummary;
using cimbench::Workload;

// Set-up repeats at least kMinSetupRepetitions times and until
// kSetupSeconds have passed, so even a millisecond set-up gets a steady
// median.
constexpr std::size_t kMinSetupRepetitions = 5;
constexpr std::size_t kMaxSetupRepetitions = 200;
constexpr double kSetupSeconds = 0.5;
constexpr int kMinTrials = 3;

/// Pins the calling thread to each allowed CPU in turn.  On a shared host
/// the CPUs differ in speed from run to run, so a run that timed every
/// repetition on the CPU it happened to start on would carry that CPU's
/// speed into its median; rotating makes every run sample all of them
/// alike.  Only single-threaded phases rotate: threads a pinned thread
/// starts inherit its one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
#if defined(__linux__)
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
#endif
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t turn) {
#if defined(__linux__)
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
#else
    (void)turn;
#endif
  }

  void restore() {
#if defined(__linux__)
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof(allowed_), &allowed_);
#endif
  }

 private:
#if defined(__linux__)
  cpu_set_t allowed_;
#endif
  std::vector<int> cpus_;
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  int threads = 0;  ///< 0: the workload's default
  int scale = 1;
};

[[noreturn]] void fail_usage(const std::string& message) {
  std::fprintf(stderr, "cimbench: %s\n", message.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const char* text, long long min,
                    long long max) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < min ||
      value > max) {
    fail_usage(flag + " expects an integer in [" + std::to_string(min) + ", " +
               std::to_string(max) + "], got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail_usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          parse_int(flag, value, 0, 0x7fffffffffffffffLL));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_int(flag, value, 1, 600));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(parse_int(flag, value, 0, 1));
    } else if (flag == "--threads") {
      args.threads = static_cast<int>(parse_int(flag, value, 1, 256));
    } else if (flag == "--scale") {
      args.scale = static_cast<int>(parse_int(flag, value, 1, 1000000));
    } else {
      fail_usage("unknown flag '" + flag + "'");
    }
  }
  const auto& names = cimbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::string known;
    for (const std::string& name : names) known += " " + name;
    fail_usage("--workload must be one of:" + known);
  }
  return args;
}

using cimbench::seconds_since;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string samples(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + number(values[i]);
  }
  return out + "]";
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_info(const Args& args, int threads, const std::string& extra) {
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"nproc\": %u, \"threads\": %d, \"compiler\": \"%s\", "
      "\"scale\": %d%s}}\n",
      args.workload.c_str(), args.seed, args.trace,
      std::thread::hardware_concurrency(), threads, kCompiler, args.scale,
      extra.c_str());
}

using MetricList = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const MetricList& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].first +
           "\": {\"value\": " + number(metrics[i].second.first) +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

int run_untraced(const Args& args, int threads) {
  CpuRotation rotation;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_times.size() < kMinSetupRepetitions ||
         (seconds_since(setup_start) < kSetupSeconds &&
          setup_times.size() < kMaxSetupRepetitions)) {
    workload.reset();
    rotation.pin(setup_times.size());
    const auto start = std::chrono::steady_clock::now();
    workload = cimbench::build_workload(args.workload, args.seed, args.scale);
    setup_times.push_back(seconds_since(start));
  }
  rotation.restore();

  std::vector<double> walls;
  std::uint64_t first_digest = 0;
  SimSummary first;
  std::int64_t attempted = 0, failed = 0;
  std::string error;
  const auto measure_start = std::chrono::steady_clock::now();
  while (static_cast<int>(walls.size()) < kMinTrials ||
         seconds_since(measure_start) < args.seconds) {
    if (threads == 1) rotation.pin(walls.size());
    const auto start = std::chrono::steady_clock::now();
    const std::vector<cimtpu::serving::ServingMetrics> cells =
        cimbench::run_points(*workload, threads);
    walls.push_back(seconds_since(start));

    const SimSummary summary = cimbench::summarize(*workload, cells);
    const std::uint64_t trial_digest = cimbench::digest(cells);
    attempted += summary.requests;
    failed += summary.requests - summary.completed;
    if (walls.size() == 1) {
      first_digest = trial_digest;
      first = summary;
    }
    error = cimbench::check_conservation(*workload, cells);
    if (error.empty() && trial_digest != first_digest) {
      error = "trial " + std::to_string(walls.size()) +
              " simulated outputs differ from trial 1";
    }
    if (!error.empty()) {
      failed += summary.completed;  // the whole failed trial counts
      break;
    }
  }

  const double wall_s = median(walls);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, first_digest);
  print_info(args, threads,
             ", \"trials\": " + std::to_string(walls.size()) +
                 ", \"digest\": \"" + digest_hex +
                 "\", \"wall_s_samples\": " + samples(walls) +
                 ", \"setup_s_samples\": " + samples(setup_times));
  if (!error.empty()) std::fprintf(stderr, "cimbench: %s\n", error.c_str());
  print_result(
      error.empty(), attempted, failed,
      {{"wall_s", {wall_s, "s"}},
       {"sim_steps_per_s",
        {static_cast<double>(first.steps) / wall_s, "steps/s"}},
       {"setup_s", {median(setup_times), "s"}},
       {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
       {"sim_ttft_p99_s", {first.ttft_p99_s, "s"}},
       {"sim_tpot_p99_s", {first.tpot_p99_s, "s"}},
       {"sim_goodput_tok_s", {first.goodput_tok_s, "tok/s"}},
       {"sim_energy_per_token_j", {first.energy_per_token_j, "J"}},
       {"sim_mxu_energy_per_token_j", {first.mxu_energy_per_token_j, "J"}},
       {"completed_share", {first.completed_share, "ratio"}}});
  return error.empty() ? 0 : 1;
}

int run_traced(const Args& args, int threads) {
  std::map<std::string, std::vector<double>> values;
  std::int64_t attempted = 0, failed = 0;
  std::string error;
  int passes = 0;
  std::string spans_json;
  const auto start = std::chrono::steady_clock::now();
  while (passes == 0 || seconds_since(start) < args.seconds) {
    cimbench::TracedPass pass = cimbench::run_traced_pass(
        args.workload, args.seed, threads, args.scale);
    ++passes;
    attempted += pass.attempted;
    failed += pass.failed;
    for (const auto& [name, value] : pass.values) values[name].push_back(value);
    spans_json.clear();
    for (std::size_t i = 0; i < pass.spans.names().size(); ++i) {
      const auto& totals = pass.spans.totals_at(i);
      spans_json += (i > 0 ? ", \"" : "\"") + pass.spans.names()[i] +
                    "\": {\"count\": " + std::to_string(totals.count) +
                    ", \"total_s\": " + number(totals.total_ns * 1e-9) +
                    ", \"self_s\": " + number(totals.self_ns() * 1e-9) + "}";
    }
    if (!pass.error.empty()) {
      error = pass.error;
      failed += pass.attempted - pass.failed;  // the whole pass counts
      break;
    }
  }
  // Spans of the last pass, aggregated by name.
  std::fprintf(stderr, "{\"spans\": {%s}}\n", spans_json.c_str());
  print_info(args, threads, ", \"passes\": " + std::to_string(passes));
  if (!error.empty()) std::fprintf(stderr, "cimbench: %s\n", error.c_str());
  MetricList metrics;
  for (const auto& [name, unit] : cimbench::per_layer_metrics()) {
    metrics.push_back({name, {median(values.at(name)), unit}});
  }
  print_result(error.empty(), attempted, failed, metrics);
  return error.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "cimbench: built without optimization; build it in Release\n");
  return 1;
#endif
  const Args args = parse_args(argc, argv);
  const int threads =
      args.threads > 0 ? args.threads : cimbench::default_threads(args.workload);
  try {
    return args.trace == 1 ? run_traced(args, threads)
                           : run_untraced(args, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cimbench: %s\n", e.what());
    return 1;
  }
}
