#include "serving/studies.h"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/units.h"
#include "ir/dtype.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

using Getter = std::function<StudyValue(const StudyRow&)>;
using R = const StudyRow&;
using F = CellFormat;
using M = ServingMetrics;
using C = ServingCounters;

const ServingScenario& scenario(R r) { return r.cell.point.scenario; }

/// A ServingMetrics field, kept integral or real as declared.
template <typename T>
Getter metric(T M::*field) {
  return [field](R r) -> StudyValue {
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<double>(r.cell.metrics.*field);
    } else {
      return static_cast<std::int64_t>(r.cell.metrics.*field);
    }
  };
}

Getter counter(std::int64_t C::*field) {
  return [field](R r) { return r.cell.metrics.counters.*field; };
}

Getter fault_stat(std::int64_t FaultStats::*field) {
  return [field](R r) { return r.cell.metrics.fault.*field; };
}

Getter registry_counter(const char* name) {
  return [name](R r) { return r.cell.metrics.registry.counter_or_zero(name); };
}

Getter registry_gauge(const char* name) {
  return [name](R r) { return r.cell.metrics.registry.gauge_or_zero(name); };
}

Getter latency(LatencySummary M::*summary, Seconds LatencySummary::*field) {
  return [summary, field](R r) { return (r.cell.metrics.*summary).*field; };
}

/// A field of the row's tenant in per-tenant rows, else of the cell.
template <typename T>
Getter tenant_or_cell(T TenantMetrics::*tenant_field, T M::*cell_field) {
  return [tenant_field, cell_field](R r) {
    return r.tenant ? r.tenant->*tenant_field : r.cell.metrics.*cell_field;
  };
}

/// A TTFT percentile: the row's tenant's, else the cell's.
Getter ttft(Seconds LatencySummary::*field) {
  return [field](R r) {
    return (r.tenant ? r.tenant->ttft : r.cell.metrics.ttft).*field;
  };
}

StudyColumn json_only(StudyColumn column) {
  column.header = nullptr;
  return column;
}

StudyColumn table_only(StudyColumn column) {
  column.key = nullptr;
  return column;
}

// --- Values several studies report -------------------------------------------

const StudyColumn kRate{"arrival_rate", "rate (req/s)", F::kFixed1,
                        [](R r) { return r.cell.arrival_rate; }};
const StudyColumn kAdmission{"admission", "admission", F::kText, [](R r) {
                               return scenario(r).scheduler.admission.policy;
                             }};
const StudyColumn kGoodput{
    "goodput_tokens_per_s", "tokens/s", F::kFixed1,
    tenant_or_cell(&TenantMetrics::goodput_tokens_per_second,
                   &M::goodput_tokens_per_second)};
const StudyColumn kCompleted{
    "completed", "done", F::kInt,
    tenant_or_cell(&TenantMetrics::completed, &M::completed)};
const StudyColumn kTtftP50{"ttft_p50_s", "TTFT p50", F::kTime,
                           ttft(&LatencySummary::p50)};
const StudyColumn kTtftP99{"ttft_p99_s", "TTFT p99", F::kTime,
                           ttft(&LatencySummary::p99)};
const StudyColumn kTpotP99{"tpot_p99_s", "TPOT p99", F::kTime,
                           latency(&M::tpot, &LatencySummary::p99)};
const StudyColumn kE2eP99{nullptr, "e2e p99", F::kTime,
                          latency(&M::e2e, &LatencySummary::p99)};
const StudyColumn kPreemptions{"preemptions", "preempt", F::kInt,
                               metric(&M::preemptions)};
const StudyColumn kHitRate{"prefix_hit_rate", "hit rate", F::kFixed3,
                           metric(&M::prefix_hit_rate)};
const StudyColumn kSloGoodput{"slo_goodput_tokens_per_s", "SLO tokens/s",
                              F::kFixed1,
                              metric(&M::slo_goodput_tokens_per_second)};
const StudyColumn kJainReplicas{
    "jain_across_replicas", "jain", F::kFixed4,
    registry_gauge("cluster.jain_across_replicas")};

std::string render(CellFormat format, const StudyValue& value) {
  if (const auto* label = std::get_if<std::string>(&value)) return *label;
  if (const auto* flag = std::get_if<bool>(&value)) return *flag ? "on" : "off";
  const double real = std::holds_alternative<double>(value)
                          ? std::get<double>(value)
                          : static_cast<double>(std::get<std::int64_t>(value));
  switch (format) {
    case F::kOffIfZero:
      if (std::get<std::int64_t>(value) == 0) return "off";
      [[fallthrough]];
    case F::kInt: return cell_i(std::get<std::int64_t>(value));
    case F::kFixed1: return cell_f(real, 1);
    case F::kFixed2: return cell_f(real, 2);
    case F::kFixed3: return cell_f(real, 3);
    case F::kFixed4: return cell_f(real, 4);
    case F::kTime: return format_time(real);
    case F::kEnergy: return format_energy(real);
    case F::kPercent: return cell_f(100.0 * real, 1) + "%";
    case F::kGiB: return cell_f(real / GiB, 2);
    case F::kText: break;
  }
  std::ostringstream out;
  out << real;
  return out.str();
}

void write_json_value(const StudyValue& value, std::ostream& out) {
  if (const auto* label = std::get_if<std::string>(&value)) {
    out << '"' << *label << '"';
  } else if (const auto* flag = std::get_if<bool>(&value)) {
    out << (*flag ? "true" : "false");
  } else if (const auto* integer = std::get_if<std::int64_t>(&value)) {
    out << *integer;
  } else {
    out << std::get<double>(value);
  }
}

void write_json_values(const std::vector<StudyColumn>& columns, R row,
                       std::ostream& out) {
  const char* separator = "";
  for (const StudyColumn& column : columns) {
    if (column.key == nullptr) continue;
    out << separator << '"' << column.key << "\": ";
    write_json_value(column.get(row), out);
    separator = ", ";
  }
}

void append_cells(const std::vector<StudyColumn>& columns, R row,
                  std::vector<std::string>* cells) {
  for (const StudyColumn& column : columns) {
    if (column.header != nullptr) {
      cells->push_back(render(column.format, column.get(row)));
    }
  }
}

ServingStudy make_study(StudyKind kind, const char* name) {
  ServingStudy study;
  study.kind = kind;
  study.name = name;
  return study;
}

/// A point-list study over a trace it owns.
ServingStudy point_study(StudyKind kind, const char* name,
                         const RequestStreamConfig& stream) {
  ServingStudy study = make_study(kind, name);
  study.requests =
      std::make_shared<const std::vector<Request>>(generate_requests(stream));
  return study;
}

std::string model_label(const models::TransformerConfig& model) {
  return model.name + " " + ir::dtype_name(model.dtype);
}

// --- The studies -------------------------------------------------------------

ServingStudy baseline_study(const StudyInputs& in) {
  ServingStudy study = make_study(StudyKind::kBaseline, "baseline");
  study.sweep.stream = in.stream;
  study.sweep.arrival_rates = in.baseline_rates;
  study.sweep.base.scenario =
      llama7b_baseline_scenario(/*chips=*/1, in.model.dtype);
  study.sweep.base.scenario.model = in.model;
  study.sweep.axes = {{"chips", {"1", "4"},
                       [](SweepPoint& point, std::size_t i) {
                         point.scenario.chips = i == 0 ? 1 : 4;
                       }}};
  study.title = "Serving baseline — " + model_label(in.model) + " on TPUv4i, " +
                cell_i(in.stream.num_requests) + "-request " +
                arrival_process_name(in.stream.process) + " streams";
  study.json_open = "\"baseline\": [";
  study.json_close = "]";
  study.columns = {
      kRate,
      {"chips", "chips", F::kInt,
       [](R r) { return std::int64_t{scenario(r).chips}; }},
      kGoodput,
      table_only(kTtftP50),
      kTtftP99,
      {nullptr, "TPOT p50", F::kTime, latency(&M::tpot, &LatencySummary::p50)},
      kTpotP99,
      kE2eP99,
      {"energy_per_token_j", "J/token", F::kEnergy,
       metric(&M::energy_per_token)},
      {nullptr, "MXU util", F::kPercent, metric(&M::mxu_utilization)},
      {nullptr, "steps", F::kInt, metric(&M::total_steps)},
      table_only(kPreemptions),
      {"cost_cache_hits", nullptr, F::kInt, metric(&M::cost_cache_hits)},
      {"cost_cache_misses", nullptr, F::kInt, metric(&M::cost_cache_misses)},
      {"cost_cache_entries", nullptr, F::kInt, metric(&M::cost_cache_entries)},
      {"cost_cache_occupancy", nullptr, F::kFixed4,
       metric(&M::cost_cache_occupancy)},
  };
  return study;
}

ServingStudy policies_study(const StudyInputs& in) {
  constexpr std::int64_t kKvBudgetTokens = 8000;
  RequestStreamConfig stream = in.stream;
  stream.num_requests = std::min<std::int64_t>(stream.num_requests, 2000);
  stream.priority_classes = 3;  // for priority_victim
  ServingStudy study = point_study(StudyKind::kPolicies, "policies", stream);
  study.points = pressured_policy_grid_points(in.model, study.requests.get(),
                                              kKvBudgetTokens);
  study.title = "Preemption policy x chunked prefill — " +
                model_label(in.model) + ", " + cell_i(kKvBudgetTokens) +
                "-token KV budget, " + cell_i(stream.num_requests) +
                " requests at " + cell_f(stream.arrival_rate, 1) + " req/s";
  study.json_open = "\"policies\": [";
  study.json_close = "]";
  study.columns = {
      {"policy", "policy", F::kText,
       [](R r) { return eviction_policy_name(scenario(r).eviction); }},
      {"chunk_tokens", "chunk", F::kOffIfZero,
       [](R r) { return scenario(r).scheduler.prefill_chunk_tokens; }},
      {"kv_budget_tokens", nullptr, F::kInt,
       [](R) { return std::int64_t{kKvBudgetTokens}; }},
      kGoodput, kTtftP99, kTpotP99, kE2eP99,
      {"preemptions_recompute", "recompute", F::kInt,
       counter(&C::preemptions_recompute)},
      {"preemptions_swap", "swapped", F::kInt, counter(&C::preemptions_swap)},
      {"swap_bytes", "swap GiB", F::kGiB,
       [](R r) { return r.cell.metrics.counters.total_swap_bytes(); }},
      {"chunked_prefill_steps", "chunk steps", F::kInt,
       counter(&C::chunked_prefill_steps)},
  };
  return study;
}

ServingStudy fairness_study(const StudyInputs& in) {
  ServingStudy study = point_study(
      StudyKind::kFairness, "fairness",
      multi_tenant_pressure_stream(in.stream.seed, /*num_requests=*/400,
                                   /*arrival_rate=*/50.0, /*num_tenants=*/2));
  study.points = multi_tenant_fairness_points(in.model, study.requests.get());
  const std::vector<double>& weights = multi_tenant_fairness_weights();
  std::string ratio;
  std::ostringstream json;
  json << "\"fairness\": {\"tenants\": " << weights.size()
       << ", \"weights\": [";
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ratio += (i > 0 ? ":" : "") + cell_f(weights[i], 0);
    json << (i > 0 ? ", " : "") << weights[i];
  }
  json << "], \"horizon_s\": " << kMultiTenantFairnessHorizon
       << ", \"requests\": " << study.requests->size() << ", \"rows\": [";
  study.title = "Multi-tenant admission — " + cell_i(weights.size()) +
                " tenants, weights " + ratio + ", " +
                cell_f(kMultiTenantFairnessHorizon, 0) +
                " s overload window, 2000-token KV budget";
  study.json_open = json.str();
  study.json_close = "]}";
  study.columns = {
      kAdmission,
      {"jain_fairness_index", "jain", F::kFixed4, metric(&M::jain_fairness)},
      json_only(kCompleted),
  };
  study.tenant_columns = {
      {"tenant", "tenant", F::kInt, [](R r) { return r.tenant->tenant_id; }},
      {"weight", "weight", F::kFixed1, [](R r) { return r.tenant->weight; }},
      {nullptr, "arrived", F::kInt, [](R r) { return r.tenant->num_requests; }},
      kCompleted,
      {"generated_tokens", "tokens", F::kInt,
       [](R r) { return r.tenant->generated_tokens; }},
      table_only(kTtftP50), kTtftP99, kGoodput,
      {nullptr, "share", F::kPercent, [](R r) -> StudyValue {
         double total = 0;
         for (const TenantMetrics& tenant : r.cell.metrics.tenants) {
           total += tenant.goodput_tokens_per_second;
         }
         if (total <= 0) return std::string("n/a");
         return r.tenant->goodput_tokens_per_second / total;
       }},
  };
  return study;
}

ServingStudy prefix_cache_study(const StudyInputs& in) {
  constexpr std::int64_t kKvBudgetTokens = 20000;
  ServingStudy study = point_study(
      StudyKind::kPrefixCache, "prefix_cache",
      prefix_chatbot_stream(in.stream.seed, /*num_requests=*/400,
                            /*arrival_rate=*/30.0));
  study.points = prefix_cache_grid_points(in.model, study.requests.get(),
                                          kKvBudgetTokens);
  study.title = "Paged KV prefix caching — " + cell_i(kPrefixChatbotPool) +
                " shared " + cell_i(kPrefixChatbotPrefixLen) +
                "-token system prompts, " + cell_i(kKvBudgetTokens) +
                "-token KV budget, " + cell_i(study.requests->size()) +
                " requests";
  std::ostringstream json;
  json << "\"prefix_cache\": {\"prefix_pool\": " << kPrefixChatbotPool
       << ", \"prefix_len_tokens\": " << kPrefixChatbotPrefixLen
       << ", \"kv_budget_tokens\": " << kKvBudgetTokens
       << ", \"requests\": " << study.requests->size() << ", \"rows\": [";
  study.json_open = json.str();
  study.json_close = "]}";
  study.columns = {
      {"kv_block_tokens", "block", F::kInt,
       [](R r) { return scenario(r).scheduler.kv_block_tokens; }},
      {"prefix_caching", "prefix cache", F::kText,
       [](R r) { return scenario(r).scheduler.enable_prefix_cache; }},
      kGoodput, table_only(kTtftP50), kTtftP99, json_only(kTpotP99), kHitRate,
      {"prefix_hit_tokens", nullptr, F::kInt, counter(&C::prefix_hit_tokens)},
      {"blocks_saved", "blocks saved", F::kInt,
       counter(&C::prefix_shared_blocks)},
      {"cow_blocks", "CoW", F::kInt, counter(&C::prefix_cow_blocks)},
      {"internal_fragmentation", "frag", F::kFixed4,
       metric(&M::kv_internal_fragmentation)},
      kPreemptions,
  };
  return study;
}

ServingStudy slo_frontier_study(const StudyInputs& in) {
  ServingStudy study = make_study(StudyKind::kSloFrontier, "slo_frontier");
  study.sweep = slo_frontier_sweep(in.model, in.stream.seed);
  study.title = "SLO frontier — TTFT " + cell_f(kSloTtftDeadline, 1) +
                " s / TPOT " + cell_f(kSloTpotDeadline, 2) + " s deadlines, " +
                cell_f(kSloFrontierHorizon, 0) + " s overload window";
  std::ostringstream json;
  json << "\"slo_frontier\": {\"ttft_deadline_s\": " << kSloTtftDeadline
       << ", \"tpot_deadline_s\": " << kSloTpotDeadline
       << ", \"horizon_s\": " << kSloFrontierHorizon
       << ", \"requests\": " << kSloFrontierRequests << ", \"rows\": [";
  study.json_open = json.str();
  study.json_close = "]}";
  study.columns = {
      kRate, kAdmission,
      // Every arrived request either completed or was shed.
      {"arrived", nullptr, F::kInt,
       [](R r) {
         return r.cell.metrics.completed + r.cell.metrics.counters.total_shed();
       }},
      kCompleted,
      {"shed_deadline", "shed dl", F::kInt, counter(&C::shed_deadline)},
      {"shed_horizon", "shed hz", F::kInt, counter(&C::shed_horizon)},
      {"slo_met", nullptr, F::kInt, metric(&M::slo_met)},
      {"slo_attainment", "attainment", F::kFixed4, metric(&M::slo_attainment)},
      kSloGoodput, kGoodput, kTtftP50, kTtftP99, json_only(kTpotP99),
  };
  return study;
}

ServingStudy fault_storm_study(const StudyInputs& in) {
  ServingStudy study = make_study(StudyKind::kFaultStorm, "fault_storm");
  study.sweep = fault_storm_sweep(in.model, in.stream.seed, in.fault_rates);
  study.title = "Fault storm — seed " + cell_i(kFaultStormSeed) + ", " +
                cell_f(kFaultStormHorizon, 0) +
                " s window, recovery off vs on";
  std::ostringstream json;
  json << "\"resilience\": {\"fault_seed\": " << kFaultStormSeed
       << ", \"horizon_s\": " << kFaultStormHorizon
       << ", \"requests\": " << kSloFrontierRequests << ", \"rows\": [";
  study.json_open = json.str();
  study.json_close = "]}";
  // A cell's fault-rate scale, read back from its scaled kv-loss rate.
  const double base_rate = study.sweep.base.scenario.fault.kv_loss_rate_per_s;
  study.columns = {
      {"fault_rate", "fault rate", F::kFixed2,
       [base_rate](R r) {
         return scenario(r).fault.kv_loss_rate_per_s / base_rate;
       }},
      {"recovery", "recovery", F::kText,
       [](R r) { return scenario(r).fault.recovery_enabled; }},
      {"availability", "avail", F::kFixed4, metric(&M::availability)},
      {"mttr_s", "MTTR", F::kTime, metric(&M::mttr_seconds)},
      {"retries", "retries", F::kInt, fault_stat(&FaultStats::retries)},
      {"shed_fault", "shed fault", F::kInt, counter(&C::shed_fault)},
      {"wasted_recompute_tokens", "wasted tok", F::kInt,
       fault_stat(&FaultStats::wasted_recompute_tokens)},
      {"stalls", nullptr, F::kInt, fault_stat(&FaultStats::stalls)},
      {"kv_losses", nullptr, F::kInt, fault_stat(&FaultStats::kv_losses)},
      {"device_failures", nullptr, F::kInt,
       fault_stat(&FaultStats::device_failures)},
      {"host_restores", "restores", F::kInt,
       fault_stat(&FaultStats::host_restores)},
      {"degrade_enters", "degraded", F::kInt,
       fault_stat(&FaultStats::degrade_enters)},
      kCompleted, kSloGoodput, json_only(kGoodput),
  };
  return study;
}

ServingStudy cluster_router_study(const StudyInputs& in) {
  ServingStudy study =
      point_study(StudyKind::kClusterRouter, "cluster_router",
                  cluster_chatbot_stream(in.stream.seed));
  study.points = cluster_router_grid_points(in.model, study.requests.get());
  study.title = "Cluster router — " + cell_i(kClusterReplicas) +
                " replicas, " + cell_i(kClusterPrefixPool) +
                "-prefix chatbot stream, " + cell_i(kClusterTenants) +
                " tenants";
  // The cluster block holds these rows and the disaggregation block.
  std::ostringstream json;
  json << "\"cluster\": {\"replicas\": " << kClusterReplicas
       << ", \"prefix_pool\": " << kClusterPrefixPool
       << ", \"tenants\": " << kClusterTenants
       << ", \"router_requests\": " << study.requests->size()
       << ", \"router_rows\": [";
  study.json_open = json.str();
  study.json_close = "]";
  study.columns = {
      {"router", "router", F::kText,
       [](R r) { return r.cell.point.router_policy; }},
      kGoodput, table_only(kTtftP50), kTtftP99, json_only(kTpotP99), kHitRate,
      kJainReplicas, kCompleted,
  };
  return study;
}

ServingStudy disaggregation_study(const StudyInputs& in) {
  ServingStudy study =
      make_study(StudyKind::kDisaggregation, "cluster_disagg");
  study.sweep = cluster_disaggregation_sweep(in.model, in.stream.seed);
  study.title = "Prefill/decode disaggregation — " + cell_i(kClusterReplicas) +
                " replicas (" + cell_i(kClusterPrefillReplicas) +
                " prefill when disaggregated), zipf-chat traffic";
  std::ostringstream json;
  json << "\"disaggregation\": {\"prefill_replicas\": "
       << kClusterPrefillReplicas
       << ", \"requests\": " << kClusterDisaggRequests << ", \"rows\": [";
  study.json_open = json.str();
  study.json_close = "]}}";  // closes the router study's cluster block too
  // Transfer accounting lives in the cluster registry (zero and absent
  // when colocated).
  study.columns = {
      kRate,
      {"disaggregated", "disagg", F::kText,
       [](R r) { return r.cell.point.disaggregated; }},
      kTtftP99, kTtftP50, json_only(kTpotP99), kGoodput, kCompleted,
      {"kv_transfer_count", nullptr, F::kInt,
       registry_counter("cluster.kv_transfer_count")},
      {"kv_transfer_blocks", nullptr, F::kInt,
       registry_counter("cluster.kv_transfer_blocks")},
      {"kv_transfer_bytes", "KV GiB", F::kGiB,
       registry_counter("cluster.kv_transfer_bytes")},
      {"kv_transfer_seconds", "xfer s", F::kFixed3,
       registry_gauge("cluster.kv_transfer_seconds")},
      json_only(kJainReplicas),
  };
  return study;
}

}  // namespace

std::vector<ServingStudy> serving_studies(const StudyInputs& inputs) {
  std::vector<ServingStudy> studies;
  for (ServingStudy (*build)(const StudyInputs&) :
       {baseline_study, policies_study, fairness_study, prefix_cache_study,
        slo_frontier_study, fault_storm_study, cluster_router_study,
        disaggregation_study}) {
    studies.push_back(build(inputs));
  }
  return studies;
}

std::vector<SweepCellResult> run_study(const ServingStudy& study,
                                       const SweepOptions& options) {
  if (study.points.empty()) return run_serving_sweep(study.sweep, options);
  std::vector<ServingMetrics> metrics = run_sweep(study.points, options);
  std::vector<SweepCellResult> cells(metrics.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].point = study.points[i];
    cells[i].point.requests = nullptr;
    cells[i].metrics = std::move(metrics[i]);
  }
  return cells;
}

AsciiTable study_table(const ServingStudy& study,
                       const std::vector<SweepCellResult>& cells) {
  AsciiTable table(study.title);
  std::vector<std::string> header;
  for (const auto* columns : {&study.columns, &study.tenant_columns}) {
    for (const StudyColumn& column : *columns) {
      if (column.header != nullptr) header.push_back(column.header);
    }
  }
  table.set_header(std::move(header));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (study.tenant_columns.empty()) {
      std::vector<std::string> values;
      append_cells(study.columns, StudyRow{cells[i]}, &values);
      table.add_row(std::move(values));
      continue;
    }
    if (i > 0) table.add_separator();
    for (const TenantMetrics& tenant : cells[i].metrics.tenants) {
      std::vector<std::string> values;
      append_cells(study.columns, StudyRow{cells[i]}, &values);
      append_cells(study.tenant_columns, StudyRow{cells[i], &tenant}, &values);
      table.add_row(std::move(values));
    }
  }
  return table;
}

void write_study_json(const ServingStudy& study,
                      const std::vector<SweepCellResult>& cells,
                      std::ostream& out) {
  out << "  " << study.json_open << '\n';
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << (i > 0 ? ",\n" : "") << "    {";
    write_json_values(study.columns, StudyRow{cells[i]}, out);
    if (!study.tenant_columns.empty()) {
      out << ", \"per_tenant\": [";
      const char* separator = "";
      for (const TenantMetrics& tenant : cells[i].metrics.tenants) {
        out << separator << '{';
        write_json_values(study.tenant_columns, StudyRow{cells[i], &tenant},
                          out);
        out << '}';
        separator = ", ";
      }
      out << ']';
    }
    out << '}';
  }
  out << "\n  " << study.json_close;
}

}  // namespace cimtpu::serving
