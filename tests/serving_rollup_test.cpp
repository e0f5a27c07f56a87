// Latency rollup lockstep: the in-place radix sample sort (whole buffers
// and segments), and the engine's and the cluster fleet's TTFT/TPOT/e2e
// rollup must equal a plain std::sort reference bit for bit — and the
// engine's request-id
// validation that its id-indexed per-request state relies on, plus its
// inject/finish lifecycle — and the metrics structs' field tables: each
// covers its whole struct, and publishing writes every entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/chip.h"
#include "common/status.h"
#include "serving/cluster.h"
#include "serving/fault.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/obs_registry.h"
#include "serving/serving_sim.h"
#include "serving/stats.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

// Seeded sample over many binades and both signs, so every radix byte
// varies; a quarter of the draws repeat a small pool that holds 0.0, -0.0
// and negatives, so the sample is full of duplicates.
std::vector<double> random_sample(std::size_t n, std::uint64_t seed) {
  static const double kPool[] = {0.0,  -0.0, 1.5,  -2.25,
                                 1e-9, 3.0,  -1e6, 0.125};
  std::mt19937_64 rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng();
    if (r % 4 == 0) {
      values.push_back(kPool[(r >> 2) % 8]);
      continue;
    }
    const double mantissa = static_cast<double>(rng() >> 11) * 0x1p-53;
    const int exponent = static_cast<int>((r >> 8) % 61) - 30;
    const double value = std::ldexp(mantissa, exponent);
    values.push_back(((r >> 16) & 1) != 0 ? -value : value);
  }
  return values;
}

// The pre-radix rollup: copy, std::sort, sum in ascending order, numpy-style
// linear-interpolation percentiles.
LatencySummary reference_summary(std::vector<double> values) {
  LatencySummary summary;
  summary.count = static_cast<std::int64_t>(values.size());
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  double sum = 0;
  for (double v : values) sum += v;
  summary.mean = sum / static_cast<double>(values.size());
  const auto at = [&values](double p) {
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    return values[lo] +
           (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  summary.p50 = at(50.0);
  summary.p95 = at(95.0);
  summary.p99 = at(99.0);
  summary.max = values.back();
  return summary;
}

void expect_summary_eq(const LatencySummary& actual,
                       const LatencySummary& expected,
                       const std::string& label) {
  LatencySummary::for_each_field([&](const char* name, auto member) {
    EXPECT_EQ(actual.*member, expected.*member) << label << " " << name;
  });
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Empty, single, one byte's worth of buckets either side, and large.
const std::size_t kSizes[] = {0, 1, 255, 256, 100000};

TEST(SortSample, MatchesStdSortOnSeededSamples) {
  std::vector<double> scratch;  // one scratch for every sort, as the rollup
  for (std::size_t n : kSizes) {
    const std::vector<double> sample = random_sample(n, 1000 + n);
    std::vector<double> expected = sample;
    std::sort(expected.begin(), expected.end());
    std::vector<double> actual = sample;
    sort_sample(actual.data(), actual.data() + n, &scratch);
    ASSERT_EQ(actual.size(), expected.size()) << n;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(actual[i] == expected[i])) ++mismatches;
      // Total order: no -0.0 after a +0.0.
      if (i > 0 && actual[i] == 0.0 && actual[i - 1] == 0.0 &&
          std::signbit(actual[i]) && !std::signbit(actual[i - 1])) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << n;
  }
}

// The rollup sorts tenant segments of one buffer: a sort of [first, last)
// leaves every value outside it untouched, and re-sorting the whole
// buffer of sorted segments gives one sort's bits.  Latency-like values
// in [1, 2) share their top key byte, so the sort skips that pass and
// ends its odd count of passes in the scratch buffer.
TEST(SortSample, SortsASegmentInPlaceAndTheWholeAfterward) {
  std::mt19937_64 rng(3000);
  std::vector<double> sample(100000);
  for (double& value : sample) {
    value = 1.0 + static_cast<double>(rng() >> 11) * 0x1p-53;
  }
  for (std::size_t i = 0; i < sample.size(); i += 10) sample[i] = 1.5;
  std::vector<double> whole = sample;
  std::vector<double> scratch(3);  // shorter than any segment: it grows
  sort_sample(whole.data(), whole.data() + whole.size(), &scratch);
  std::vector<double> buffer = sample;
  const std::size_t cuts[] = {0, 1, 4000, 4000, 61000, 100000};
  for (std::size_t k = 0; k + 1 < std::size(cuts); ++k) {
    std::vector<double> expected = buffer;
    std::sort(expected.begin() + cuts[k], expected.begin() + cuts[k + 1]);
    sort_sample(buffer.data() + cuts[k], buffer.data() + cuts[k + 1],
                &scratch);
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      // Outside the segment: the same bits; inside: std::sort's values.
      const bool inside = i >= cuts[k] && i < cuts[k + 1];
      ASSERT_TRUE(inside ? buffer[i] == expected[i]
                         : same_bits({buffer[i]}, {expected[i]}))
          << "segment " << k << " index " << i;
    }
  }
  sort_sample(buffer.data(), buffer.data() + buffer.size(), &scratch);
  EXPECT_TRUE(same_bits(buffer, whole));
}

TEST(SummarizeLatencies, MatchesStdSortReferenceFieldByField) {
  for (std::size_t n : kSizes) {
    const std::vector<double> sample = random_sample(n, 2000 + n);
    std::vector<double> moved = sample;
    expect_summary_eq(summarize_latencies(std::move(moved)),
                      reference_summary(sample),
                      "n=" + std::to_string(n));
  }
}

// --- Engine rollup lockstep ----------------------------------------------------

// Ids as a cluster replica sees them: unique, non-contiguous and not
// monotone in arrival order.
std::vector<Request> replica_like_requests() {
  RequestStreamConfig stream = zipf_chat_stream(17, 3000, 4.0);
  stream.num_tenants = 4;
  stream.tenant_weights = {1.0, 2.0, 3.0, 0.5};
  std::vector<Request> requests = generate_requests(stream);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = static_cast<std::int64_t>((i * 7919) % 4000) * 5 + 3;
    // Tenant ids that are sparse and not in first-arrival order.
    requests[i].tenant_id = 30 - 10 * requests[i].tenant_id;
  }
  return requests;
}

/// Checks `metrics`' request rollup — global ttft/tpot/e2e and every
/// tenant's summaries — against std::sort references built from `rows`,
/// the per-request outcomes parallel to `requests`.
void expect_rollup_matches_reference(
    const std::vector<Request>& requests,
    const std::vector<ServingEngine::RequestOutcome>& rows,
    const ServingMetrics& metrics) {
  std::vector<double> ttft, tpot, e2e;
  std::map<std::int64_t, std::pair<std::vector<double>, std::vector<double>>>
      tenant_samples;  // tenant id -> (ttft, e2e)
  ASSERT_EQ(rows.size(), requests.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const ServingEngine::RequestOutcome& row = rows[k];
    const Request& request = requests[k];
    if (!row.arrived) continue;
    auto& [tenant_ttft, tenant_e2e] = tenant_samples[request.tenant_id];
    if (row.first_token >= 0) {
      ttft.push_back(row.first_token - request.arrival_time);
      tenant_ttft.push_back(row.first_token - request.arrival_time);
    }
    if (row.completion < 0) continue;
    e2e.push_back(row.completion - request.arrival_time);
    tenant_e2e.push_back(row.completion - request.arrival_time);
    if (request.output_len > 1 && row.first_token >= 0) {
      tpot.push_back((row.completion - row.first_token) /
                     static_cast<double>(request.output_len - 1));
    }
  }
  ASSERT_GE(tenant_samples.size(), 3u);
  expect_summary_eq(metrics.ttft, reference_summary(ttft), "ttft");
  expect_summary_eq(metrics.tpot, reference_summary(tpot), "tpot");
  expect_summary_eq(metrics.e2e, reference_summary(e2e), "e2e");
  ASSERT_EQ(metrics.tenants.size(), tenant_samples.size());
  std::size_t i = 0;
  for (const auto& [tenant_id, samples] : tenant_samples) {
    const TenantMetrics& tenant = metrics.tenants[i++];
    EXPECT_EQ(tenant.tenant_id, tenant_id);
    const std::string label = "tenant " + std::to_string(tenant_id);
    expect_summary_eq(tenant.ttft, reference_summary(samples.first),
                      label + " ttft");
    expect_summary_eq(tenant.e2e, reference_summary(samples.second),
                      label + " e2e");
  }
}

/// Counts of the row kinds a horizon cut leaves: never arrived, arrived
/// and shed before a first token, and in flight (a first token, no
/// completion).
struct RowKinds {
  std::int64_t not_arrived = 0;
  std::int64_t shed_waiting = 0;
  std::int64_t in_flight = 0;
};

RowKinds row_kinds(const std::vector<ServingEngine::RequestOutcome>& rows) {
  RowKinds kinds;
  for (const ServingEngine::RequestOutcome& row : rows) {
    if (!row.arrived) {
      kinds.not_arrived += 1;
    } else if (row.completion < 0) {
      (row.first_token < 0 ? kinds.shed_waiting : kinds.in_flight) += 1;
    }
  }
  return kinds;
}

TEST(EngineRollup, MatchesStdSortReferenceFromOutcomes) {
  const std::vector<Request> requests = replica_like_requests();
  ServingScenario scenario = llama7b_baseline_scenario(1, ir::DType::kInt4);
  // Cut mid-stream: some requests never arrive, some are still in flight.
  scenario.max_sim_seconds = 0.6 * requests.back().arrival_time;
  ServingEngine engine(scenario);
  for (const Request& request : requests) engine.inject(request);
  engine.drain();
  const std::vector<ServingEngine::RequestOutcome> outcomes =
      engine.outcomes();
  const ServingMetrics metrics = engine.finish();

  ASSERT_GT(row_kinds(outcomes).not_arrived, 0);
  ASSERT_GT(metrics.counters.shed_horizon, 0);
  expect_rollup_matches_reference(requests, outcomes, metrics);
}

// --- Cluster rollup lockstep -------------------------------------------------
// The fleet's request metrics come from the same rollup over the stitched
// rows.  The references rebuild those rows from engines run alone: a
// replica's run depends only on the requests it was given and when, never
// on where the cluster driver paused it.

TEST(ClusterRollup, ColocatedFleetMatchesStdSortReference) {
  // Three times the engine test's load, so requests still wait at the cut.
  std::vector<Request> requests = replica_like_requests();
  for (Request& request : requests) request.arrival_time /= 3.0;
  constexpr int kReplicas = 3;
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.base.max_sim_seconds = 0.5 * requests.back().arrival_time;
  config.replicas.assign(kReplicas, ReplicaSpec{});
  config.router_policy = "round_robin";
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  // Round robin sends request p to replica p % kReplicas.
  std::vector<ServingEngine::RequestOutcome> rows(requests.size());
  for (int replica = 0; replica < kReplicas; ++replica) {
    ServingEngine engine(config.base);
    for (std::size_t p = replica; p < requests.size(); p += kReplicas) {
      engine.inject(requests[p]);
    }
    engine.drain();
    engine.finish();
    const std::vector<ServingEngine::RequestOutcome> outcomes =
        engine.outcomes();
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      rows[replica + k * kReplicas] = outcomes[k];
    }
  }
  const RowKinds kinds = row_kinds(rows);
  ASSERT_GT(kinds.not_arrived, 0);
  ASSERT_GT(kinds.shed_waiting, 0);
  ASSERT_GT(kinds.in_flight, 0);
  EXPECT_EQ(cluster.arrived,
            static_cast<std::int64_t>(requests.size()) - kinds.not_arrived);
  EXPECT_EQ(cluster.shed, kinds.shed_waiting + kinds.in_flight);
  expect_rollup_matches_reference(requests, rows, cluster.fleet);
}

TEST(ClusterRollup, DisaggregatedFleetMatchesStdSortReference) {
  // An overloaded deadline stream under EDF: the prefill side sheds
  // requests whose TTFT deadline is already lost, and every seventh
  // request has one output token, so it completes on the prefill side.
  RequestStreamConfig stream = slo_chat_stream(/*seed=*/23, 1200, 100.0);
  stream.num_tenants = 3;
  std::vector<Request> requests = generate_requests(stream);
  for (std::size_t p = 0; p < requests.size(); p += 7) {
    requests[p].output_len = 1;
  }
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.base.scheduler.admission.policy = "edf";
  config.replicas.assign(2, ReplicaSpec{});
  config.disaggregated = true;
  config.prefill_replicas = 1;
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  // Prefill side: every request as a one-token clone.
  std::vector<Request> prefill_clones = requests;
  for (Request& clone : prefill_clones) {
    clone.output_len = 1;
    clone.tpot_deadline = 0;
  }
  ServingEngine prefill(config.base);
  prefill.inject_all(prefill_clones);
  prefill.drain();
  prefill.finish();
  const std::vector<ServingEngine::RequestOutcome> prefilled =
      prefill.outcomes();
  std::vector<ServingEngine::RequestOutcome> rows = prefilled;
  // Each multi-token prompt's KV streams to the decode replica one p2p
  // message per block and lands there, in (landing time, id) order.
  const arch::TpuChip chip(config.base.chip_config);
  const std::int64_t block_tokens = config.base.scheduler.kv_block_tokens;
  const Seconds block_time = chip.ici().p2p_time(
      KvCacheManager::token_bytes(config.base.model) *
      static_cast<double>(block_tokens));
  std::vector<std::pair<Seconds, std::size_t>> landings;  // (time, p)
  for (std::size_t p = 0; p < requests.size(); ++p) {
    if (requests[p].output_len < 2) continue;
    rows[p].completion = -1;  // the decode side completes it
    if (prefilled[p].completion < 0) continue;  // shed: nothing streams
    const std::int64_t blocks =
        (requests[p].prompt_len + block_tokens - 1) / block_tokens;
    landings.emplace_back(
        prefilled[p].completion + static_cast<double>(blocks) * block_time,
        p);
  }
  std::sort(landings.begin(), landings.end(),
            [&](const auto& a, const auto& b) {
              return a.first != b.first
                         ? a.first < b.first
                         : requests[a.second].id < requests[b.second].id;
            });
  std::deque<Request> decode_clones;
  ServingEngine decode(config.base);
  for (const auto& [time, p] : landings) {
    Request& clone = decode_clones.emplace_back(requests[p]);
    clone.arrival_time = time;
    clone.prefix_id = -1;
    clone.prefix_len = 0;
    clone.ttft_deadline = 0;
    clone.tpot_deadline = 0;
    decode.inject_prefilled(clone);
  }
  decode.drain();
  decode.finish();
  const std::vector<ServingEngine::RequestOutcome> decoded = decode.outcomes();
  for (std::size_t k = 0; k < landings.size(); ++k) {
    ServingEngine::RequestOutcome& row = rows[landings[k].second];
    row.completion = decoded[k].completion;
    row.shed = row.shed || decoded[k].shed;
  }

  std::int64_t shed = 0;
  for (const ServingEngine::RequestOutcome& row : rows) shed += row.shed;
  ASSERT_GT(shed, 0);
  EXPECT_EQ(cluster.shed, shed);
  EXPECT_EQ(cluster.arrived, static_cast<std::int64_t>(requests.size()));
  expect_rollup_matches_reference(requests, rows, cluster.fleet);
}

// --- Request-id validation ----------------------------------------------------

Request tiny_request(std::int64_t id) {
  Request request;
  request.id = id;
  request.prompt_len = 16;
  request.output_len = 4;
  return request;
}

void expect_one_line_config_error(ServingEngine* engine,
                                  const Request& request,
                                  const std::string& needle) {
  try {
    engine->inject(request);
    FAIL() << "inject(" << request.id << ") must throw";
  } catch (const ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(needle), std::string::npos) << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
}

TEST(ServingEngineIds, RejectsNegativeId) {
  ServingEngine engine(llama7b_baseline_scenario(1, ir::DType::kInt4));
  expect_one_line_config_error(&engine, tiny_request(-1), "negative");
}

TEST(ServingEngineIds, RejectsDuplicateIdWithinOneEngine) {
  // The engine reads injected requests in place: they outlive it.
  const Request seven = tiny_request(7);
  const Request three = tiny_request(3);
  ServingEngine engine(llama7b_baseline_scenario(1, ir::DType::kInt4));
  engine.inject(seven);
  engine.inject(three);
  expect_one_line_config_error(&engine, tiny_request(7), "duplicate");
  // The rejected copy left no trace: the two accepted requests finish.
  engine.drain();
  EXPECT_EQ(engine.finish().completed, 2);
}

TEST(ServingEngineIds, SameIdInAnotherEngineIsLegal) {
  // Disaggregated clusters re-inject a request id into a different replica.
  const ServingScenario scenario =
      llama7b_baseline_scenario(1, ir::DType::kInt4);
  const Request request = tiny_request(5);
  ServingEngine prefill(scenario);
  ServingEngine decode(scenario);
  prefill.inject(request);
  decode.inject_prefilled(request);
  prefill.drain();
  decode.drain();
  EXPECT_EQ(prefill.finish().completed, 1);
  EXPECT_EQ(decode.finish().completed, 1);
}

TEST(ServingEngineLifecycle, InjectAfterFinishFails) {
  // A finished engine runs no more steps: a late request would silently
  // never arrive, so both inject flavours fail loudly, as finish does.
  const Request first = tiny_request(0);
  const Request late = tiny_request(1);
  const Request late_prefilled = tiny_request(2);
  ServingEngine engine(llama7b_baseline_scenario(1, ir::DType::kInt4));
  engine.inject(first);
  engine.drain();
  EXPECT_EQ(engine.finish().completed, 1);
  EXPECT_THROW(engine.inject(late), InternalError);
  EXPECT_THROW(engine.inject_prefilled(late_prefilled), InternalError);
  EXPECT_THROW(engine.finish(), InternalError);
  EXPECT_EQ(engine.outcomes().size(), 1u);
}

// --- Request lifetimes -------------------------------------------------------
// The engine keeps a reference to each injected request, so a temporary
// would dangle once its full expression ends: every inject flavour accepts
// an lvalue and rejects an rvalue at compile time.

template <typename Engine, typename Arg, typename = void>
struct CanInject : std::false_type {};
template <typename Engine, typename Arg>
struct CanInject<Engine, Arg,
                 std::void_t<decltype(std::declval<Engine&>().inject(
                     std::declval<Arg>()))>> : std::true_type {};

template <typename Engine, typename Arg, typename = void>
struct CanInjectPrefilled : std::false_type {};
template <typename Engine, typename Arg>
struct CanInjectPrefilled<
    Engine, Arg,
    std::void_t<decltype(std::declval<Engine&>().inject_prefilled(
        std::declval<Arg>()))>> : std::true_type {};

template <typename Engine, typename Arg, typename = void>
struct CanInjectAll : std::false_type {};
template <typename Engine, typename Arg>
struct CanInjectAll<Engine, Arg,
                    std::void_t<decltype(std::declval<Engine&>().inject_all(
                        std::declval<Arg>()))>> : std::true_type {};

static_assert(CanInject<ServingEngine, Request&>::value);
static_assert(CanInject<ServingEngine, const Request&>::value);
static_assert(!CanInject<ServingEngine, Request>::value);
static_assert(!CanInject<ServingEngine, const Request>::value);
static_assert(CanInjectPrefilled<ServingEngine, const Request&>::value);
static_assert(!CanInjectPrefilled<ServingEngine, Request>::value);
static_assert(CanInjectAll<ServingEngine, const std::vector<Request>&>::value);
static_assert(!CanInjectAll<ServingEngine, std::vector<Request>>::value);

// --- Field tables --------------------------------------------------------
// Publishing, the fleet rollup, the study getters and the bit-identity
// checks see only what a struct's for_each_field table lists, so each table
// must cover its whole struct: its rows (and the fields the struct leaves
// out on purpose, passed as `excluded`) must tile the struct's bytes, with
// no gap a field could sit in.  A nested struct or container counts as one
// field here; nested tables are checked on their own.

struct FieldSpan {
  std::ptrdiff_t begin = 0;
  std::ptrdiff_t end = 0;
  std::ptrdiff_t align = 1;
};

template <typename S, typename T>
FieldSpan span_of(const S& object, T S::*member) {
  const auto begin = reinterpret_cast<const char*>(&(object.*member)) -
                     reinterpret_cast<const char*>(&object);
  return {begin, begin + static_cast<std::ptrdiff_t>(sizeof(T)),
          static_cast<std::ptrdiff_t>(alignof(T))};
}

template <typename S, typename... Excluded>
void expect_table_covers_struct(const char* struct_name,
                                Excluded... excluded) {
  const S object{};
  std::vector<FieldSpan> spans = {span_of(object, excluded)...};
  S::for_each_field([&](const char*, auto member, auto&&...) {
    spans.push_back(span_of(object, member));
  });
  std::sort(spans.begin(), spans.end(),
            [](const FieldSpan& a, const FieldSpan& b) {
              return a.begin < b.begin;
            });
  std::ptrdiff_t covered = 0;
  for (const FieldSpan& span : spans) {
    EXPECT_GE(span.begin, covered)
        << struct_name << ": a field is listed twice";
    EXPECT_LT(span.begin - covered, span.align)
        << struct_name << ": a field before offset " << span.begin
        << " is missing from its for_each_field table";
    covered = span.end;
  }
  EXPECT_LT(static_cast<std::ptrdiff_t>(sizeof(S)) - covered,
            static_cast<std::ptrdiff_t>(alignof(S)))
      << struct_name << ": its last field is missing from its table";
}

TEST(MetricsFieldTables, EachTableCoversItsWholeStruct) {
  expect_table_covers_struct<LatencySummary>("LatencySummary");
  expect_table_covers_struct<TenantMetrics>("TenantMetrics");
  expect_table_covers_struct<ServingCounters>("ServingCounters");
  expect_table_covers_struct<FaultStats>("FaultStats");
  // Host time and the sampled time series are not simulated results.
  expect_table_covers_struct<ServingMetrics>(
      "ServingMetrics", &ServingMetrics::timeseries,
      &ServingMetrics::sim_wall_seconds);
  expect_table_covers_struct<ClusterMetrics>("ClusterMetrics");
}

/// Sets every field of the run's nested keyed table `part` to a distinct
/// value (1, 2, ...) through its table, publishes the run's engine keys,
/// then checks the registry holds each under every key its entry names: an
/// int64 field as a counter, a Bytes field as a gauge.
template <typename S>
void expect_publishes_every_field(S ServingMetrics::*part) {
  ServingMetrics metrics;
  S& stats = metrics.*part;
  std::int64_t next = 1;
  S::for_each_field([&](const char*, auto member, auto&&...) {
    stats.*member = static_cast<std::decay_t<decltype(stats.*member)>>(next++);
  });
  MetricsRegistry registry;
  publish_keys(metrics, &FieldKeys::engine, /*gate_open=*/true, "",
               &registry);
  next = 1;
  S::for_each_field([&](const char* name, auto member, auto... keys) {
    using T = std::decay_t<decltype(stats.*member)>;
    for (const char* key : {keys...}) {
      if constexpr (std::is_same_v<T, std::int64_t>) {
        EXPECT_EQ(registry.counter_or_zero(key), next) << name;
        EXPECT_EQ(registry.gauges().count(key), 0u) << name;
      } else {
        EXPECT_EQ(registry.gauge_or_zero(key), static_cast<double>(next))
            << name;
        EXPECT_EQ(registry.counters().count(key), 0u) << name;
      }
    }
    ++next;
  });
}

TEST(MetricsFieldTables, PublishWritesEveryFieldUnderItsKey) {
  expect_publishes_every_field(&ServingMetrics::counters);
  expect_publishes_every_field(&ServingMetrics::fault);
  // A field published under two keys, and the derived hit-rate gauge.
  ServingMetrics metrics;
  metrics.fault.retries = 30;
  metrics.counters.prefix_lookup_tokens = 4;
  metrics.counters.prefix_hit_tokens = 3;
  derive_metrics(/*mxu_busy_chip_seconds=*/0, &metrics);
  MetricsRegistry registry;
  publish_keys(metrics, &FieldKeys::engine, /*gate_open=*/true, "",
               &registry);
  EXPECT_EQ(registry.counter_or_zero("fault.retries_total"), 30);
  EXPECT_EQ(registry.counter_or_zero("engine.retries_total"), 30);
  EXPECT_EQ(registry.gauge_or_zero("scheduler.prefix_hit_rate"), 0.75);
  EXPECT_EQ(registry.gauges().count("engine.mttr_s"), 1u);
  // Gated rows, nested tables included, stay out while the gate is shut.
  MetricsRegistry shut;
  publish_keys(metrics, &FieldKeys::engine, /*gate_open=*/false, "", &shut);
  EXPECT_EQ(shut.counters().count("fault.retries_total"), 0u);
  EXPECT_EQ(shut.counters().count("engine.retries_total"), 0u);
  EXPECT_EQ(shut.gauges().count("engine.mttr_s"), 0u);
  EXPECT_EQ(shut.gauge_or_zero("scheduler.prefix_hit_rate"), 0.75);
}

}  // namespace
}  // namespace cimtpu::serving
