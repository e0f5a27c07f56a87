#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "arch/tpu_config.h"
#include "models/model_zoo.h"
#include "serving/traffic_profiles.h"
#include "spans.h"

namespace cimbench {
namespace {

namespace arch = cimtpu::arch;
namespace ir = cimtpu::ir;

// Request counts at scale 1.  Each trial replays the whole workload, so
// these set how long one trial takes (0.3-1.5 s on a 4-core x86 host) and
// how many samples the simulated percentiles rest on.  Rates are chosen so
// the worst cell's p99s vary little from seed to seed: chat_long stays
// below the 32-slot batch's saturation, the pressured grid runs well past
// its KV budget's capacity instead of at its bursty edge, and the design
// sweep chunks prefill and caps outputs (see README.md).
constexpr std::int64_t kChatLongRequests = 200000;
constexpr double kChatLongRate = 1.0;
constexpr std::int64_t kPolicyRequests = 40000;
constexpr double kPolicyRate = 3.0;
constexpr std::int64_t kPolicyPriorityClasses = 3;
constexpr std::int64_t kRouterRequests = 30000;
constexpr std::int64_t kDesignRequests = 1500;
constexpr double kDesignRate = 4.0;
constexpr std::int64_t kDesignOutputMax = 128;
constexpr std::int64_t kDesignChunkTokens = 512;
constexpr std::int64_t kDesignSeqlenBucket = 16;
constexpr int kMinRequests = 200;

std::int64_t scaled(std::int64_t requests, int scale) {
  return std::max<std::int64_t>(kMinRequests, requests / std::max(1, scale));
}

const std::vector<serving::Request>* add_trace(
    Workload* workload, const serving::RequestStreamConfig& stream,
    SpanRecorder* spans) {
  if (spans != nullptr) {
    Span span(*spans, spans->id("request_gen"));
    workload->traces.push_back(serving::generate_requests(stream));
  } else {
    workload->traces.push_back(serving::generate_requests(stream));
  }
  return &workload->traces.back();
}

cimtpu::models::TransformerConfig llama7b(ir::DType dtype) {
  cimtpu::models::TransformerConfig model = cimtpu::models::llama2_7b();
  model.dtype = dtype;
  return model;
}

void build_chat_long(Workload* workload, std::uint64_t seed, int scale,
                     SpanRecorder* spans) {
  const auto* requests = add_trace(
      workload,
      serving::zipf_chat_stream(seed, scaled(kChatLongRequests, scale),
                                kChatLongRate),
      spans);
  serving::SweepPoint point;
  point.label = "chat_long";
  point.scenario = serving::llama7b_baseline_scenario(1, ir::DType::kInt4);
  point.scenario.chip_config = arch::cim_tpu_default();
  point.requests = requests;
  workload->points.push_back(std::move(point));
}

void build_policy_cluster_grid(Workload* workload, std::uint64_t seed,
                               int scale, SpanRecorder* spans) {
  const cimtpu::models::TransformerConfig model = llama7b(ir::DType::kInt4);
  const auto* chat = add_trace(
      workload,
      serving::zipf_chat_stream(seed, scaled(kPolicyRequests, scale),
                                kPolicyRate, kPolicyPriorityClasses),
      spans);
  serving::RequestStreamConfig router_stream =
      serving::cluster_chatbot_stream(seed);
  router_stream.num_requests = scaled(kRouterRequests, scale);
  const auto* chatbot = add_trace(workload, router_stream, spans);

  workload->points = serving::pressured_policy_grid_points(model, chat);
  for (serving::SweepPoint& point :
       serving::cluster_router_grid_points(model, chatbot)) {
    workload->points.push_back(std::move(point));
  }
}

void build_design_sweep(Workload* workload, std::uint64_t seed, int scale,
                        SpanRecorder* spans) {
  serving::RequestStreamConfig stream = serving::zipf_chat_stream(
      seed, scaled(kDesignRequests, scale), kDesignRate);
  stream.output.max_len = kDesignOutputMax;
  const auto* requests = add_trace(workload, stream, spans);
  std::vector<arch::TpuChipConfig> chips = {arch::tpu_v4i_baseline()};
  for (int count : {1, 2, 4, 8, 16}) {
    for (int rows : {4, 8, 16, 32}) {
      for (int cols : {4, 8, 16, 32}) {
        chips.push_back(arch::cim_tpu(count, rows, cols));
      }
    }
  }
  for (ir::DType dtype : {ir::DType::kInt4, ir::DType::kInt8}) {
    for (const arch::TpuChipConfig& chip : chips) {
      serving::SweepPoint point;
      point.label = chip.name + (dtype == ir::DType::kInt4 ? " int4" : " int8");
      point.scenario = serving::llama7b_baseline_scenario(1, dtype);
      point.scenario.chip_config = chip;
      point.scenario.scheduler.seqlen_bucket = kDesignSeqlenBucket;
      point.scenario.scheduler.prefill_chunk_tokens = kDesignChunkTokens;
      point.requests = requests;
      workload->points.push_back(std::move(point));
    }
  }
}

void append(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, value);
  *out += buf;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "chat_long", "policy_cluster_grid", "design_sweep"};
  return names;
}

int default_threads(const std::string& name) {
  if (name == "chat_long") return 1;
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hardware, 1u, 4u));
}

std::unique_ptr<Workload> build_workload(const std::string& name,
                                         std::uint64_t seed, int scale,
                                         SpanRecorder* spans) {
  auto workload = std::make_unique<Workload>();
  if (name == "chat_long") {
    build_chat_long(workload.get(), seed, scale, spans);
  } else if (name == "policy_cluster_grid") {
    build_policy_cluster_grid(workload.get(), seed, scale, spans);
  } else if (name == "design_sweep") {
    build_design_sweep(workload.get(), seed, scale, spans);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (const serving::SweepPoint& point : workload->points) {
    point.scenario.validate();
  }
  return workload;
}

std::vector<serving::ServingMetrics> run_points(const Workload& workload,
                                                int threads) {
  const serving::SweepPoint& first = workload.points.front();
  if (workload.points.size() == 1 && first.replicas == 0) {
    return {serving::run_serving(first.scenario, *first.requests)};
  }
  serving::SweepOptions options;
  options.threads = threads;
  return serving::run_sweep(workload.points, options);
}

SimSummary summarize(const Workload& workload,
                     const std::vector<serving::ServingMetrics>& cells) {
  SimSummary summary;
  std::int64_t tokens = 0;
  double makespan = 0;
  double energy = 0;
  double mxu_energy = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const serving::ServingMetrics& cell = cells[i];
    summary.requests +=
        static_cast<std::int64_t>(workload.points[i].requests->size());
    summary.completed += cell.completed;
    summary.steps += cell.total_steps;
    summary.ttft_p99_s = std::max(summary.ttft_p99_s, cell.ttft.p99);
    summary.tpot_p99_s = std::max(summary.tpot_p99_s, cell.tpot.p99);
    tokens += cell.generated_tokens;
    makespan += cell.makespan;
    energy += cell.total_energy;
    mxu_energy += cell.mxu_energy;
  }
  const double token_count = static_cast<double>(tokens);
  summary.goodput_tok_s = makespan > 0 ? token_count / makespan : 0;
  summary.energy_per_token_j = tokens > 0 ? energy / token_count : 0;
  summary.mxu_energy_per_token_j = tokens > 0 ? mxu_energy / token_count : 0;
  summary.completed_share =
      summary.requests > 0 ? static_cast<double>(summary.completed) /
                                 static_cast<double>(summary.requests)
                           : 0;
  return summary;
}

std::uint64_t digest(const std::vector<serving::ServingMetrics>& cells) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const serving::ServingMetrics& cell : cells) {
    std::string text = cell.registry.to_json();
    append(&text, "requests", static_cast<double>(cell.num_requests));
    append(&text, "completed", static_cast<double>(cell.completed));
    append(&text, "tokens", static_cast<double>(cell.generated_tokens));
    append(&text, "steps", static_cast<double>(cell.total_steps));
    append(&text, "makespan", cell.makespan);
    append(&text, "ttft_p99", cell.ttft.p99);
    append(&text, "tpot_p99", cell.tpot.p99);
    append(&text, "energy", cell.total_energy);
    append(&text, "mxu_energy", cell.mxu_energy);
    append(&text, "cost_hits", static_cast<double>(cell.cost_cache_hits));
    append(&text, "cost_misses", static_cast<double>(cell.cost_cache_misses));
    for (const unsigned char c : text) {
      hash ^= c;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

std::string check_conservation(
    const Workload& workload,
    const std::vector<serving::ServingMetrics>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const serving::ServingMetrics& cell = cells[i];
    const auto requests =
        static_cast<std::int64_t>(workload.points[i].requests->size());
    const std::int64_t not_arrived = requests - cell.num_requests;
    const std::int64_t shed = cell.counters.total_shed();
    if (not_arrived < 0 || cell.completed + shed + not_arrived != requests) {
      return "cell '" + workload.points[i].label + "': completed " +
             std::to_string(cell.completed) + " + shed " +
             std::to_string(shed) + " + horizon-cut " +
             std::to_string(not_arrived) + " != requests " +
             std::to_string(requests);
    }
  }
  return "";
}

}  // namespace cimbench
