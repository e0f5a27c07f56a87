#pragma once
// The benchmark's three serving workloads, built from a seed through the
// public cimtpu::serving API.
//
//   chat_long            one engine: llama2-7b INT4 on the paper's default
//                        CIM-TPU, a long Zipf chat stream at 1 req/s.
//   policy_cluster_grid  the pressured eviction-policy grid plus the 4-way
//                        router grid over 4 prefix-caching replicas.
//   design_sweep         a Table IV-style design space (TPUv4i baseline +
//                        80 CIM-TPU shapes, INT4 and INT8) over one trace.
//
// Building a workload is the benchmark's set-up phase; running its points
// is the measured phase.  Every simulated output is deterministic in the
// seed, so the digest of a trial's outputs must repeat exactly.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serving/sweep.h"

namespace cimbench {

class SpanRecorder;

namespace serving = cimtpu::serving;

struct Workload {
  /// Request traces, owned here; points refer to them by pointer, and a
  /// deque never moves its elements.
  std::deque<std::vector<serving::Request>> traces;
  std::vector<serving::SweepPoint> points;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Default worker threads for `name`: 1 for the single-engine workload,
/// min(4, hardware threads) for the sweeps.
int default_threads(const std::string& name);

/// Builds the named workload (throws std::invalid_argument for an unknown
/// name).  `scale` > 1 divides every request count, for the self-test.
/// With `spans`, each generate_requests call is recorded as "request_gen".
std::unique_ptr<Workload> build_workload(const std::string& name,
                                         std::uint64_t seed, int scale,
                                         SpanRecorder* spans = nullptr);

/// Runs every point once at `threads` workers: run_serving for a lone
/// single-engine point, run_sweep otherwise.
std::vector<serving::ServingMetrics> run_points(const Workload& workload,
                                                int threads);

/// The end-to-end simulated metrics, pooled over a trial's cells.
struct SimSummary {
  std::int64_t requests = 0;   ///< trace sizes, summed over cells
  std::int64_t completed = 0;
  std::int64_t steps = 0;      ///< engine steps, all cells and replicas
  double ttft_p99_s = 0;       ///< worst cell
  double tpot_p99_s = 0;       ///< worst cell
  double goodput_tok_s = 0;    ///< sum tokens / sum makespan
  double energy_per_token_j = 0;
  double mxu_energy_per_token_j = 0;
  double completed_share = 0;
};

SimSummary summarize(const Workload& workload,
                     const std::vector<serving::ServingMetrics>& cells);

/// FNV-1a digest of every cell's registry JSON and headline simulated
/// fields, printed at round-trip precision.  Wall-clock fields excluded.
std::uint64_t digest(const std::vector<serving::ServingMetrics>& cells);

/// Request conservation per cell: completed + shed + horizon-cut must
/// equal the trace size.  Returns "" when every cell holds, else a
/// one-line description of the first cell that does not.
std::string check_conservation(
    const Workload& workload,
    const std::vector<serving::ServingMetrics>& cells);

}  // namespace cimbench
