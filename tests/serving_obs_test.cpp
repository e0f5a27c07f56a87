// Observability-layer tests: the shared percentile/histogram math, the
// metrics registry and time-series sampler, and — most importantly — the
// tracing CONTRACT: enabling event tracing must leave every simulated
// metric bit-identical (checked across all six golden-pinned policy x
// chunk combinations), traces must reconcile exactly against
// ServingMetrics (TTFT/e2e recomputed purely from trace events), trace
// files must be byte-identical whatever the sweep thread count, and a
// preempted request's event sequence must follow the lifecycle grammar.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "expect_identical_metrics.h"
#include "serving/fault.h"
#include "serving/obs_registry.h"
#include "serving/stats.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

// --- Shared percentile math (satellite: dedup with unit tests) ---------------

double percentile_of(const std::vector<double>& sorted, double p) {
  return percentile_sorted(sorted.data(), sorted.data() + sorted.size(), p);
}

TEST(Percentile, SingleElement) {
  EXPECT_EQ(percentile_of({7.5}, 0.0), 7.5);
  EXPECT_EQ(percentile_of({7.5}, 50.0), 7.5);
  EXPECT_EQ(percentile_of({7.5}, 100.0), 7.5);
}

TEST(Percentile, EdgesAreMinAndMax) {
  const std::vector<double> sorted = {1.0, 1.5, 3.0, 4.0, 9.0};
  EXPECT_EQ(percentile_of(sorted, 0.0), 1.0);
  EXPECT_EQ(percentile_of(sorted, 100.0), 9.0);
}

TEST(Percentile, LinearInterpolationMatchesNumpyConvention) {
  // numpy.percentile([1, 2, 3, 4], 50) == 2.5; 25 -> 1.75.
  EXPECT_DOUBLE_EQ(percentile_of({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile_of({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75);
}

TEST(ExponentialBounds, GeometricAndStrictlyAscending) {
  const std::vector<double> bounds = exponential_bounds(1e-3, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

// --- Fixed-bucket histogram --------------------------------------------------

TEST(FixedBucketHistogram, EmptyHistogramIsAllZero) {
  const FixedBucketHistogram histogram(exponential_bounds(1.0, 2.0, 4));
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.mean(), 0.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 0.0);
  EXPECT_EQ(histogram.quantile(50.0), 0.0);
}

TEST(FixedBucketHistogram, CountsSumAndOverflowBucket) {
  FixedBucketHistogram histogram({1.0, 2.0, 4.0});
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);  // 3 bounds + overflow
  histogram.observe(0.5);   // bucket 0 (<= 1)
  histogram.observe(1.5);   // bucket 1 (<= 2)
  histogram.observe(3.0);   // bucket 2 (<= 4)
  histogram.observe(100.0); // overflow
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 105.0);
  EXPECT_EQ(histogram.min(), 0.5);
  EXPECT_EQ(histogram.max(), 100.0);
  EXPECT_EQ(histogram.bucket_counts()[0], 1);
  EXPECT_EQ(histogram.bucket_counts()[1], 1);
  EXPECT_EQ(histogram.bucket_counts()[2], 1);
  EXPECT_EQ(histogram.bucket_counts()[3], 1);
}

TEST(FixedBucketHistogram, QuantileEdgesAreExactMinMax) {
  FixedBucketHistogram histogram({1.0, 10.0, 100.0});
  histogram.observe(0.25);
  histogram.observe(5.0);
  histogram.observe(42.0);
  EXPECT_EQ(histogram.quantile(0.0), 0.25);
  EXPECT_EQ(histogram.quantile(100.0), 42.0);
  // Interior quantiles stay inside the observed range.
  const double q50 = histogram.quantile(50.0);
  EXPECT_GE(q50, 0.25);
  EXPECT_LE(q50, 42.0);
}

TEST(FixedBucketHistogram, SingleObservation) {
  FixedBucketHistogram histogram({1.0, 2.0});
  histogram.observe(1.5);
  EXPECT_EQ(histogram.quantile(0.0), 1.5);
  EXPECT_EQ(histogram.quantile(50.0), 1.5);
  EXPECT_EQ(histogram.quantile(100.0), 1.5);
}

TEST(FixedBucketHistogram, ReplayedRunMatchesSeparateObservations) {
  // The engine's quiet-decode fast-forward adds the run's sum in its own
  // per-step loop; the result must equal `times` observe() calls bit for
  // bit, including a sum whose additions round (0.1 is inexact).
  for (const std::int64_t times : {std::int64_t{0}, std::int64_t{1},
                                   std::int64_t{7}, std::int64_t{100003}}) {
    FixedBucketHistogram separate(exponential_bounds(1e-4, 2.0, 20));
    FixedBucketHistogram replayed(exponential_bounds(1e-4, 2.0, 20));
    separate.observe(3.0);
    replayed.observe(3.0);
    double sum = replayed.sum();
    for (std::int64_t i = 0; i < times; ++i) {
      separate.observe(0.1);
      sum += 0.1;
    }
    replayed.observe_replayed(0.1, times, sum);
    EXPECT_EQ(replayed.count(), separate.count()) << times;
    EXPECT_EQ(replayed.sum(), separate.sum()) << times;
    EXPECT_EQ(replayed.min(), separate.min()) << times;
    EXPECT_EQ(replayed.max(), separate.max()) << times;
    EXPECT_EQ(replayed.bucket_counts(), separate.bucket_counts()) << times;
    EXPECT_EQ(replayed.quantile(50.0), separate.quantile(50.0)) << times;
  }
}

TEST(FixedBucketHistogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(FixedBucketHistogram({2.0, 1.0}), ConfigError);
  EXPECT_THROW(FixedBucketHistogram({1.0, 1.0}), ConfigError);
}

// --- Metrics registry --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.publish("b.count", std::int64_t{3});
  registry.publish("a.count", std::int64_t{7});
  registry.publish("z.load", 0.5);
  registry.histogram("lat", {1.0, 2.0}).observe(1.5);
  EXPECT_EQ(registry.counters().at("a.count"), 7);
  EXPECT_EQ(registry.counters().at("b.count"), 3);
  EXPECT_EQ(registry.gauges().at("z.load"), 0.5);
  EXPECT_EQ(registry.histograms().at("lat").count(), 1);
  // First registration wins: later bounds are ignored, counts persist.
  registry.histogram("lat", {99.0}).observe(1.6);
  EXPECT_EQ(registry.histograms().at("lat").count(), 2);
  EXPECT_EQ(registry.histograms().at("lat").upper_bounds().size(), 2u);
}

TEST(MetricsRegistry, OrZeroLookupsReadPresentNamesAndDefaultAbsentOnes) {
  MetricsRegistry registry;
  registry.publish("cluster.kv_transfer_bytes", 4096);
  registry.publish("cluster.kv_transfer_seconds", 0.25);
  EXPECT_EQ(registry.counter_or_zero("cluster.kv_transfer_bytes"), 4096);
  EXPECT_EQ(registry.gauge_or_zero("cluster.kv_transfer_seconds"), 0.25);
  EXPECT_EQ(registry.counter_or_zero("cluster.kv_transfer_count"), 0);
  EXPECT_EQ(registry.gauge_or_zero("cluster.missing_seconds"), 0.0);
  // Absent lookups never create the name (the JSON export stays clean).
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.gauges().size(), 1u);
}

TEST(MetricsRegistry, ToJsonIsDeterministicAndOrdered) {
  MetricsRegistry registry;
  registry.publish("zz", 1);
  registry.publish("aa", 2);
  registry.publish("mid", 1.25);
  registry.histogram("h", {1.0}).observe(0.5);
  const std::string json = registry.to_json();
  // Lexicographic key order regardless of insertion order.
  EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\""), std::string::npos);
  // Identical registries -> identical bytes.
  MetricsRegistry other;
  other.histogram("h", {1.0}).observe(0.5);
  other.publish("mid", 1.25);
  other.publish("aa", 2);
  other.publish("zz", 1);
  EXPECT_EQ(json, other.to_json());
}

TEST(JsonDouble, RoundTripsAndSanitizes) {
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(std::stod(json_double(0.1)), 0.1);
  EXPECT_EQ(std::stod(json_double(1e300)), 1e300);
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "0");
}

// --- Time-series sampler -----------------------------------------------------

TEST(TimeSeriesSampler, DisabledAtZeroInterval) {
  TimeSeriesSampler sampler(0);
  EXPECT_FALSE(sampler.enabled());
  EXPECT_FALSE(sampler.due(1e9));
}

TEST(TimeSeriesSampler, BurstAcrossIntervalsYieldsOneSample) {
  TimeSeriesSampler sampler(1.0);
  EXPECT_TRUE(sampler.due(0.0));  // first sample at the first step
  TimeSample sample;
  sample.time = 5.5;  // one step jumped 5 intervals
  sampler.record(sample);
  EXPECT_FALSE(sampler.due(5.9));
  EXPECT_TRUE(sampler.due(6.0));
  EXPECT_EQ(sampler.take().size(), 1u);
}

// --- Tracing contract: bit-identical metrics on/off --------------------------

ServingScenario golden_scenario(EvictionPolicy policy, std::int64_t chunk) {
  return llama7b_pressured_scenario(1, ir::DType::kInt4, policy, chunk,
                                    /*kv_budget_tokens=*/2000);
}

RequestStreamConfig golden_stream() {
  RequestStreamConfig stream;
  stream.seed = 42;
  stream.num_requests = 120;
  stream.arrival_rate = 50.0;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = stream.prompt.max_len = 256;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 64;
  stream.output.max_len = 256;
  stream.priority_classes = 3;
  return stream;
}

TEST(TracingContract, MetricsBitIdenticalOnAndOffAcrossGoldenGrid) {
  // Untraced engines commit quiet decode runs in bulk (scheduler.h), also
  // while requests wait for KV or a batch slot; traced engines step
  // through them one at a time, so tracing on/off is the fast-path on/off
  // oracle.  Each admission policy locks waiting work out differently;
  // EDF, which sheds on the clock, never runs quiet past a queue.  The
  // non-FIFO runs carry TTFT deadlines so EDF actually sheds.
  const std::vector<Request> plain = generate_requests(golden_stream());
  RequestStreamConfig with_deadlines = golden_stream();
  with_deadlines.ttft_deadline_s = 1.0;
  const std::vector<Request> deadlines = generate_requests(with_deadlines);
  for (const std::string admission : {"fifo", "wfq", "edf"}) {
    const std::vector<Request>& requests =
        admission == "fifo" ? plain : deadlines;
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{512}}) {
        SCOPED_TRACE(admission + " " + eviction_policy_name(policy) +
                     " chunk=" + std::to_string(chunk));
        ServingScenario untraced = golden_scenario(policy, chunk);
        untraced.scheduler.admission.policy = admission;
        const ServingMetrics off = run_serving(untraced, requests);
        ServingScenario traced = untraced;
        traced.trace.enabled = true;
        traced.trace.sample_interval = 0.25;
        ServingTrace trace;
        const ServingMetrics on =
            run_serving(traced, requests, nullptr, &trace);
        expect_identical_metrics(off, on);
        EXPECT_FALSE(trace.events().empty());
        EXPECT_FALSE(on.timeseries.empty());
        EXPECT_TRUE(off.timeseries.empty());
        if (admission == "edf") {
          EXPECT_GT(off.counters.shed_deadline, 0);
        }
      }
    }
  }
}

// --- Tracing contract where quiet decode runs are fast-forwarded -------------
// On the pressured golden grid above, quiet runs stand over a queue that
// KV or the batch cap keeps out.  The contract is checked again on light
// traffic, where most decode steps are quiet with nothing waiting, across
// the deployment shapes that change how a step is charged.

std::vector<Request> light_chat_requests() {
  return generate_requests(zipf_chat_stream(/*seed=*/42, /*num_requests=*/300,
                                            /*arrival_rate=*/1.0));
}

ServingMetrics run_traced(ServingScenario scenario,
                          const std::vector<Request>& requests) {
  scenario.trace.enabled = true;
  return run_serving(scenario, requests);
}

TEST(TracingContract, MetricsBitIdenticalOnAndOffOnLightTraffic) {
  const std::vector<Request> requests = light_chat_requests();
  const ServingScenario base =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
  std::vector<std::pair<std::string, ServingScenario>> cases;
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost}) {
    ServingScenario scenario = base;
    scenario.eviction = policy;
    cases.emplace_back(eviction_policy_name(policy), scenario);
  }
  cases.emplace_back("chips=2",
                     llama7b_baseline_scenario(/*chips=*/2, ir::DType::kInt4));
  ServingScenario tensor_parallel = base;
  tensor_parallel.tensor_parallel_ways = 2;
  cases.emplace_back("tensor_parallel_ways=2", tensor_parallel);
  ServingScenario horizon = base;
  horizon.max_sim_seconds = 100.0;  // the stream spans ~300 s
  cases.emplace_back("max_sim_seconds=100", horizon);
  // Narrow cost buckets: quiet runs end on bucket crossings and chain into
  // runs over the new grouping, costed before their first step.
  for (std::int64_t bucket : {1, 4, 16}) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{512}}) {
      ServingScenario narrow = base;
      narrow.scheduler.seqlen_bucket = bucket;
      narrow.scheduler.prefill_chunk_tokens = chunk;
      cases.emplace_back("seqlen_bucket=" + std::to_string(bucket) +
                             " chunk=" + std::to_string(chunk),
                         narrow);
    }
  }
  // Paged KV: quiet runs at block sizes > 1 replay a fragmentation gauge
  // that moves within the run.
  for (std::int64_t block : {16, 64}) {
    ServingScenario paged = base;
    paged.scheduler.kv_block_tokens = block;
    paged.scheduler.enable_prefix_cache = block == 16;
    cases.emplace_back("kv_block_tokens=" + std::to_string(block), paged);
  }
  for (const auto& [name, scenario] : cases) {
    SCOPED_TRACE(name);
    const ServingMetrics off = run_serving(scenario, requests);
    expect_identical_metrics(off, run_traced(scenario, requests));
    EXPECT_GT(off.decode_steps, 10 * off.prefill_steps);
  }
}

TEST(TracingContract, MetricsBitIdenticalOnAndOffWithPrefixReclaim) {
  // The prefix-cache deployment under a budget its cached prefix blocks
  // fill: decode growth reclaims them, interleaved with finisher releases,
  // and quiet runs stop where the free blocks run out.
  const std::vector<Request> requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/42, /*num_requests=*/300,
                            /*arrival_rate=*/20.0));
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    SCOPED_TRACE(eviction_policy_name(policy));
    ServingScenario scenario = prefix_cache_scenario(
        ir::DType::kInt4, /*enable_prefix_cache=*/true,
        /*kv_block_tokens=*/16, /*kv_budget_tokens=*/6000);
    scenario.eviction = policy;
    const ServingMetrics off = run_serving(scenario, requests);
    expect_identical_metrics(off, run_traced(scenario, requests));
    EXPECT_GT(off.counters.prefix_hit_tokens, 0);
    EXPECT_GT(
        off.registry.counter_or_zero("kv.cached_blocks_reclaimed_total"), 0);
  }
}

TEST(TracingContract, PumpSlicesMatchDrainOnLightTraffic) {
  // A cluster driver pumps each replica to its next event time; a quiet
  // run must stop at every slice boundary exactly where single steps would.
  const std::vector<Request> requests = light_chat_requests();
  for (std::int64_t bucket : {128, 16, 1}) {
    SCOPED_TRACE("seqlen_bucket=" + std::to_string(bucket));
    ServingScenario scenario =
        llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
    scenario.scheduler.seqlen_bucket = bucket;
    ServingEngine sliced(scenario);
    for (const Request& request : requests) sliced.inject(request);
    for (Seconds until = 0.05; sliced.pump(until); until += 0.05) {
    }
    const ServingMetrics metrics = sliced.finish();
    expect_identical_metrics(metrics, run_serving(scenario, requests));
    expect_identical_metrics(metrics, run_traced(scenario, requests));
  }
}

TEST(TracingContract, DisabledTraceRecordsNothing) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(metrics.timeseries.empty());
}

TEST(TracingContract, SamplingWithoutEventTracing) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  scenario.trace.sample_interval = 1.0;  // enabled stays false
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);
  EXPECT_TRUE(trace.events().empty());
  ASSERT_FALSE(metrics.timeseries.empty());
  // Samples are monotone in time and step, and KV occupancy is sane.
  for (std::size_t i = 0; i < metrics.timeseries.size(); ++i) {
    const TimeSample& sample = metrics.timeseries[i];
    EXPECT_GE(sample.kv_occupied_blocks, sample.kv_referenced_blocks);
    EXPECT_LE(sample.kv_occupied_blocks, sample.kv_capacity_blocks);
    if (i > 0) {
      EXPECT_GT(sample.time, metrics.timeseries[i - 1].time);
      EXPECT_GE(sample.step, metrics.timeseries[i - 1].step);
    }
  }
}

// --- Trace content: lifecycle grammar of a preempted request ------------------

std::vector<TraceEventType> events_for_request(
    const std::vector<TraceEvent>& events, std::int64_t id) {
  std::vector<TraceEventType> sequence;
  for (const TraceEvent& event : events) {
    if (event.request_id == id) sequence.push_back(event.type);
  }
  return sequence;
}

// The objects of a perfetto_trace_json document, in order: the text
// between its fixed head and tail, split at the ",\n" separators.
std::vector<std::string> perfetto_objects(const std::string& perfetto) {
  const std::string head = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const std::string tail = "\n]}";
  std::vector<std::string> objects;
  if (perfetto.size() < head.size() + tail.size() ||
      perfetto.compare(0, head.size(), head) != 0 ||
      perfetto.compare(perfetto.size() - tail.size(), tail.size(), tail) !=
          0) {
    ADD_FAILURE() << "not a Perfetto trace document";
    return objects;
  }
  const std::string body = perfetto.substr(
      head.size(), perfetto.size() - head.size() - tail.size());
  for (std::size_t start = 0;;) {
    const std::size_t end = body.find(",\n", start);
    objects.push_back(body.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 2;
  }
  return objects;
}

TEST(TraceContent, PreemptedRequestFollowsLifecycleGrammar) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  scenario.trace.enabled = true;
  ServingTrace trace;
  run_serving(scenario, requests, nullptr, &trace);

  std::int64_t victim = -1;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kPreempt) {
      victim = event.request_id;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "pressured run must preempt someone";

  const std::vector<TraceEventType> sequence =
      events_for_request(trace.events(), victim);
  ASSERT_GE(sequence.size(), 5u);
  // Exact sequence grammar for a recompute victim with whole-prompt
  // prefill: arrive, then per admission round one admit followed by one
  // prefill_chunk, decode_enter at prompt completion, first_token emitted
  // exactly once, preempt between rounds, finish last.
  EXPECT_EQ(sequence.front(), TraceEventType::kArrive);
  EXPECT_EQ(sequence[1], TraceEventType::kAdmit);
  EXPECT_EQ(sequence.back(), TraceEventType::kFinish);
  std::int64_t admits = 0, preempts = 0, chunks = 0, first_tokens = 0;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    switch (sequence[i]) {
      case TraceEventType::kAdmit:
        admits += 1;
        // Recompute re-queues the prompt: every admit is followed by a
        // prefill chunk before anything else happens to this request.
        ASSERT_LT(i + 1, sequence.size());
        EXPECT_EQ(sequence[i + 1], TraceEventType::kPrefillChunk);
        break;
      case TraceEventType::kPreempt:
        preempts += 1;
        break;
      case TraceEventType::kPrefillChunk:
        chunks += 1;
        break;
      case TraceEventType::kFirstToken:
        first_tokens += 1;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(admits, preempts + 1);  // every preemption re-admits once
  EXPECT_EQ(chunks, admits);        // chunk=0: one whole-prompt chunk each
  EXPECT_EQ(first_tokens, 1);       // TTFT is the FIRST emission only
  // Event times never go backwards within a request's lifecycle.
  Seconds last_time = -1;
  for (const TraceEvent& event : trace.events()) {
    if (event.request_id != victim) continue;
    EXPECT_GE(event.time, last_time);
    last_time = event.time;
  }

  // The victim decodes again after its last re-admission, so its Perfetto
  // track ends with a decode span that closes at its finish.
  const std::string track =
      ",\"pid\":1,\"tid\":" + std::to_string(victim) + ",\"ts\":";
  std::string last_span;
  for (const std::string& object :
       perfetto_objects(perfetto_trace_json(trace.events(), {}))) {
    if (object.find("\"ph\":\"X\"") != std::string::npos &&
        object.find(track) != std::string::npos) {
      last_span = object;
    }
  }
  ASSERT_EQ(last_span.rfind("{\"name\":\"decode\",", 0), 0u) << last_span;
  const double ts = std::stod(last_span.substr(last_span.find(track) +
                                               track.size()));
  const double dur =
      std::stod(last_span.substr(last_span.find("\"dur\":") + 6));
  EXPECT_GT(dur, 0);
  EXPECT_NEAR((ts + dur) * 1e-6, last_time, 1e-9) << last_span;
}

TEST(TraceContent, SwapVictimPairsSwapOutWithSwapIn) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario = golden_scenario(EvictionPolicy::kSwapToHost, 0);
  scenario.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);
  ASSERT_GT(metrics.counters.preemptions_swap, 0);
  std::int64_t swap_outs = 0, swap_ins = 0;
  Bytes out_bytes = 0, in_bytes = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kSwapOut) {
      swap_outs += 1;
      out_bytes += event.bytes;
      EXPECT_GT(event.bytes, 0);
    } else if (event.type == TraceEventType::kSwapIn) {
      swap_ins += 1;
      in_bytes += event.bytes;
    }
  }
  // The trace IS the counter stream: totals must match exactly.
  EXPECT_EQ(swap_outs, metrics.counters.preemptions_swap);
  EXPECT_EQ(swap_ins, metrics.counters.swap_ins);
  EXPECT_EQ(out_bytes, metrics.counters.swap_out_bytes);
  EXPECT_EQ(in_bytes, metrics.counters.swap_in_bytes);
}

// --- Reconciliation: metrics recomputed from the trace alone ------------------

TEST(TraceContent, TimelinesReconcileExactlyWithMetrics) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPriorityVictim, 512);
  scenario.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);

  std::vector<double> ttft, e2e;
  std::int64_t completed = 0, generated = 0;
  for (const RequestTimeline& timeline :
       trace_request_timelines(trace.events())) {
    EXPECT_GE(timeline.arrival, 0);
    if (timeline.first_token >= 0) {
      ttft.push_back(timeline.first_token - timeline.arrival);
      EXPECT_GE(timeline.first_admit, timeline.arrival);
    }
    if (timeline.completion >= 0) {
      completed += 1;
      generated += timeline.generated_tokens;
      e2e.push_back(timeline.completion - timeline.arrival);
    }
  }
  // Request ids are assigned in arrival order, so the id-ordered timeline
  // vectors accumulate in the same order as the metrics rollup: the whole
  // summary — mean included — matches BIT FOR BIT, not approximately.
  const LatencySummary trace_ttft = summarize_latencies(std::move(ttft));
  const LatencySummary trace_e2e = summarize_latencies(std::move(e2e));
  EXPECT_EQ(completed, metrics.completed);
  EXPECT_EQ(generated, metrics.generated_tokens);
  EXPECT_EQ(trace_ttft.count, metrics.ttft.count);
  EXPECT_EQ(trace_ttft.mean, metrics.ttft.mean);
  EXPECT_EQ(trace_ttft.p50, metrics.ttft.p50);
  EXPECT_EQ(trace_ttft.p95, metrics.ttft.p95);
  EXPECT_EQ(trace_ttft.p99, metrics.ttft.p99);
  EXPECT_EQ(trace_ttft.max, metrics.ttft.max);
  EXPECT_EQ(trace_e2e.count, metrics.e2e.count);
  EXPECT_EQ(trace_e2e.mean, metrics.e2e.mean);
  EXPECT_EQ(trace_e2e.p50, metrics.e2e.p50);
  EXPECT_EQ(trace_e2e.p99, metrics.e2e.p99);
  EXPECT_EQ(trace_e2e.max, metrics.e2e.max);
}

TEST(TraceContent, ReconcileTraceMatchesAndFlagsAnAlteredSummary) {
  // The traced point serving_traffic reconciles: prefix caching on at
  // block 16 over the canonical chatbot stream.
  const std::vector<Request> requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/42, /*num_requests=*/400,
                            /*arrival_rate=*/30.0));
  const models::TransformerConfig model =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4).model;
  ServingScenario scenario =
      prefix_cache_grid_points(model, &requests)[1].scenario;
  ASSERT_TRUE(scenario.scheduler.enable_prefix_cache);
  scenario.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics metrics =
      run_serving(scenario, requests, nullptr, &trace);

  const TraceReconciliation exact =
      reconcile_trace(trace.events(), metrics.ttft, metrics.e2e);
  EXPECT_TRUE(exact.ttft_matches);
  EXPECT_TRUE(exact.e2e_matches);
  EXPECT_EQ(exact.requests_traced, requests.size());
  expect_identical_summary(exact.ttft, metrics.ttft);
  expect_identical_summary(exact.e2e, metrics.e2e);

  // One field off by one ulp, or one count off by one, is a mismatch of
  // that summary only.
  LatencySummary ttft = metrics.ttft;
  ttft.p95 = std::nextafter(ttft.p95, std::numeric_limits<double>::max());
  const TraceReconciliation bad_ttft =
      reconcile_trace(trace.events(), ttft, metrics.e2e);
  EXPECT_FALSE(bad_ttft.ttft_matches);
  EXPECT_TRUE(bad_ttft.e2e_matches);
  LatencySummary e2e = metrics.e2e;
  e2e.count += 1;
  const TraceReconciliation bad_e2e =
      reconcile_trace(trace.events(), metrics.ttft, e2e);
  EXPECT_TRUE(bad_e2e.ttft_matches);
  EXPECT_FALSE(bad_e2e.e2e_matches);
}

TEST(TraceContent, EventCountsByTypeName) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  ServingScenario scenario =
      golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  scenario.trace.enabled = true;
  ServingTrace trace;
  run_serving(scenario, requests, nullptr, &trace);
  const std::map<std::string, std::int64_t> counts =
      trace_event_counts(trace.events());
  std::int64_t total = 0;
  for (const auto& [name, count] : counts) total += count;
  EXPECT_EQ(total, static_cast<std::int64_t>(trace.events().size()));
  EXPECT_EQ(counts.at("arrive"), static_cast<std::int64_t>(requests.size()));
  EXPECT_EQ(counts.count("kv_transfer"), 0u);  // only recorded types
}

// Exact exported text of every TraceEventType, both exporters: one event of
// each type through the ServingTrace hooks — all three shed causes, both
// recovery mechanisms, a stall with no request, and a degrade enter/exit —
// compared line by line (JSONL) and object by object (Perfetto, with one
// time-series sample for the counter tracks).  A change
// to how either exporter writes a payload must keep these bytes.
TEST(TraceContent, FaultStormSpansNeverEndBeforeTheyStart) {
  // The fault-storm study's recovery-off cell at seed 42.  Faults that
  // land mid-step are delivered after the step, which may have emitted a
  // first token (or reopened a decode span) for a request the fault then
  // sheds: the shed must not be stamped before that token.
  const models::TransformerConfig model =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4).model;
  ServingSweep sweep = fault_storm_sweep(model, /*seed=*/42, {1.0});
  ServingScenario scenario = sweep.base.scenario;
  scenario.fault.recovery_enabled = false;
  scenario.trace.enabled = true;
  sweep.stream.arrival_rate = sweep.arrival_rates.front();
  ServingTrace trace;
  run_serving(scenario, generate_requests(sweep.stream), nullptr, &trace);
  std::int64_t fault_sheds = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kShed && event.aux == 2) ++fault_sheds;
  }
  EXPECT_GT(fault_sheds, 0);
  std::int64_t decode_spans = 0;
  for (const std::string& object :
       perfetto_objects(perfetto_trace_json(trace.events(), {}))) {
    if (object.find("\"ph\":\"X\"") == std::string::npos) continue;
    if (object.find("\"name\":\"decode\"") != std::string::npos) {
      ++decode_spans;
    }
    const std::size_t dur = object.find("\"dur\":");
    ASSERT_NE(dur, std::string::npos) << object;
    EXPECT_GE(std::stod(object.substr(dur + 6)), 0.0) << object;
  }
  EXPECT_GT(decode_spans, 0);
}

TEST(TraceContent, ExportedTextOfEveryEventTypeIsPinned) {
  TraceConfig config;
  config.enabled = true;
  ServingTrace trace(config);
  Request request;
  request.id = 7;
  request.arrival_time = 0.25;
  request.prompt_len = 96;
  request.output_len = 12;
  request.tenant_id = 3;
  request.prefix_id = 2;
  request.prefix_len = 64;
  trace.on_route(request, /*replica=*/1, /*time=*/0.25);
  trace.on_arrive(request);
  trace.begin_step(0, /*start=*/0.5);
  trace.on_admit(request, /*lookup_tokens=*/64, /*prefix_hit_tokens=*/48,
                 /*shared_blocks=*/3, /*cow_blocks=*/1);
  trace.on_prefill_chunk(7, /*prev=*/48, /*chunk=*/48);
  trace.on_decode_enter(7, /*kv_bucket=*/128);
  trace.end_step(/*prefill=*/true, /*batch=*/1, /*end=*/0.75,
                 /*latency_s=*/0.25, /*kv_referenced_blocks=*/6,
                 /*blocks_allocated=*/4, /*blocks_reclaimed=*/1);
  trace.on_first_token(7, /*emit_time=*/0.8);
  trace.on_kv_transfer(7, /*src_replica=*/0, /*dst_replica=*/2,
                       /*blocks=*/6, /*bytes=*/98304.0, /*time=*/0.8,
                       /*duration=*/0.0625);
  trace.begin_step(1, /*start=*/1.0);
  trace.on_preempt(7);
  trace.on_swap_out(7, /*bytes=*/12288.0);
  trace.on_swap_in(7, /*bytes=*/12288.0);
  trace.on_shed(8);  // deadline shed
  trace.end_step(/*prefill=*/false, /*batch=*/2, /*end=*/1.125,
                 /*latency_s=*/0.125, /*kv_referenced_blocks=*/7,
                 /*blocks_allocated=*/1, /*blocks_reclaimed=*/0);
  trace.on_fault(7, static_cast<std::int64_t>(FaultType::kKvLoss),
                 /*time=*/1.25, /*lost_tokens=*/40, /*duration=*/0.0);
  trace.on_fault(-1, static_cast<std::int64_t>(FaultType::kStall),
                 /*time=*/1.5, /*lost_tokens=*/0, /*duration=*/0.375);
  trace.on_recover(7, /*mechanism=*/0, /*time=*/1.75, /*bytes=*/0.0,
                   /*attempt=*/1);
  trace.on_recover(7, /*mechanism=*/1, /*time=*/1.875, /*bytes=*/24576.0,
                   /*attempt=*/0);
  trace.on_degrade(/*entering=*/true, /*time=*/2.0);
  trace.on_degrade(/*entering=*/false, /*time=*/2.5);
  trace.on_finish(7, /*completion=*/3.0, /*generated_tokens=*/12);
  trace.on_shed(9, /*horizon=*/4.0);
  trace.on_shed_fault(10, /*time=*/4.5);

  const std::map<std::string, std::int64_t> counts =
      trace_event_counts(trace.events());
  for (int type = 0; type <= static_cast<int>(TraceEventType::kStep);
       ++type) {
    EXPECT_EQ(counts.count(trace_event_type_name(
                  static_cast<TraceEventType>(type))),
              1u)
        << "no event of type " << type;
  }

  const std::vector<std::string> expected_jsonl = {
      R"x({"type":"route","time":0.25,"request":7,"replica":1,"prompt_len":96,"tenant":3,"prefix_id":2})x",
      R"x({"type":"arrive","time":0.25,"request":7,"prompt_len":96,"output_len":12,"tenant":3})x",
      R"x({"type":"admit","step":0,"time":0.5,"request":7,"prompt_len":96,"prefix_hit_tokens":48,"tenant":3})x",
      R"x({"type":"prefix_hit","step":0,"time":0.5,"request":7,"lookup_tokens":64,"hit_tokens":48,"shared_blocks":3,"cow_blocks":1})x",
      R"x({"type":"prefill_chunk","step":0,"time":0.5,"end_time":0.75,"request":7,"prev_tokens":48,"chunk_tokens":48})x",
      R"x({"type":"decode_enter","step":0,"time":0.5,"request":7,"kv_bucket":128})x",
      R"x({"type":"step","step":0,"time":0.5,"end_time":0.75,"kind":"prefill","batch":1,"latency_s":0.25,"kv_referenced_blocks":6,"kv_blocks_allocated":4,"kv_blocks_reclaimed":1})x",
      R"x({"type":"first_token","step":0,"time":0.80000000000000004,"request":7})x",
      R"x({"type":"kv_transfer","time":0.80000000000000004,"end_time":0.86250000000000004,"request":7,"src_replica":0,"dst_replica":2,"blocks":6,"bytes":98304,"transfer_s":0.0625})x",
      R"x({"type":"preempt","step":1,"time":1,"request":7})x",
      R"x({"type":"swap_out","step":1,"time":1,"request":7,"bytes":12288})x",
      R"x({"type":"swap_in","step":1,"time":1,"request":7,"bytes":12288})x",
      R"x({"type":"shed","step":1,"time":1,"request":8,"cause":"deadline"})x",
      R"x({"type":"step","step":1,"time":1,"end_time":1.125,"kind":"decode","batch":2,"latency_s":0.125,"kv_referenced_blocks":7,"kv_blocks_allocated":1,"kv_blocks_reclaimed":0})x",
      R"x({"type":"fault","time":1.25,"request":7,"kind":"kv_loss","lost_tokens":40,"duration_s":0})x",
      R"x({"type":"fault","time":1.5,"kind":"stall","lost_tokens":0,"duration_s":0.375})x",
      R"x({"type":"recover","time":1.75,"request":7,"mechanism":"retry","attempt":1,"bytes":0})x",
      R"x({"type":"recover","time":1.875,"request":7,"mechanism":"host_restore","attempt":0,"bytes":24576})x",
      R"x({"type":"degrade","time":2,"mode":"enter"})x",
      R"x({"type":"degrade","time":2.5,"mode":"exit"})x",
      R"x({"type":"finish","step":1,"time":3,"request":7,"generated_tokens":12})x",
      R"x({"type":"shed","time":4,"request":9,"cause":"horizon"})x",
      R"x({"type":"shed","time":4.5,"request":10,"cause":"fault"})x",
  };
  std::vector<std::string> jsonl;
  std::istringstream lines(trace_jsonl(trace.events()));
  for (std::string line; std::getline(lines, line);) jsonl.push_back(line);
  ASSERT_EQ(jsonl.size(), expected_jsonl.size());
  for (std::size_t i = 0; i < jsonl.size(); ++i) {
    EXPECT_EQ(jsonl[i], expected_jsonl[i]) << "jsonl line " << i;
  }

  const std::vector<std::string> expected_perfetto = {
      R"x({"name":"process_name","ph":"M","pid":1,"args":{"name":"requests"}})x",
      R"x({"name":"process_name","ph":"M","pid":2,"args":{"name":"engine"}})x",
      R"x({"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"request 7"}})x",
      R"x({"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"request 8"}})x",
      R"x({"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"request 9"}})x",
      R"x({"name":"thread_name","ph":"M","pid":1,"tid":10,"args":{"name":"request 10"}})x",
      R"x({"name":"route","ph":"i","s":"t","pid":1,"tid":7,"ts":250000,"args":{"replica":1,"prompt_len":96,"tenant":3,"prefix_id":2}})x",
      R"x({"name":"arrive","ph":"i","s":"t","pid":1,"tid":7,"ts":250000,"args":{"prompt_len":96,"output_len":12,"tenant":3}})x",
      R"x({"name":"queued","ph":"X","pid":1,"tid":7,"ts":250000,"dur":250000})x",
      R"x({"name":"admit","ph":"i","s":"t","pid":1,"tid":7,"ts":500000,"args":{"prompt_len":96,"prefix_hit_tokens":48,"tenant":3}})x",
      R"x({"name":"prefix_hit","ph":"i","s":"t","pid":1,"tid":7,"ts":500000,"args":{"lookup_tokens":64,"hit_tokens":48,"shared_blocks":3,"cow_blocks":1}})x",
      R"x({"name":"prefill [48, 96)","ph":"X","pid":1,"tid":7,"ts":500000,"dur":250000,"args":{"prev_tokens":48,"chunk_tokens":48,"step":0}})x",
      R"x({"name":"decode_enter","ph":"i","s":"t","pid":1,"tid":7,"ts":500000,"args":{"kv_bucket":128}})x",
      R"x({"name":"prefill b=1","ph":"X","pid":2,"tid":1,"ts":500000,"dur":250000,"args":{"step":0,"batch":1,"latency_s":0.25,"kv_referenced_blocks":6,"kv_blocks_allocated":4,"kv_blocks_reclaimed":1}})x",
      R"x({"name":"first_token","ph":"i","s":"t","pid":1,"tid":7,"ts":800000})x",
      R"x({"name":"kv_transfer","ph":"X","pid":1,"tid":7,"ts":800000,"dur":62500,"args":{"src_replica":0,"dst_replica":2,"blocks":6,"bytes":98304,"transfer_s":0.0625}})x",
      R"x({"name":"decode","ph":"X","pid":1,"tid":7,"ts":800000,"dur":199999.99999999994})x",
      R"x({"name":"preempt","ph":"i","s":"t","pid":1,"tid":7,"ts":1000000})x",
      R"x({"name":"swap_out","ph":"i","s":"t","pid":1,"tid":7,"ts":1000000,"args":{"bytes":12288}})x",
      R"x({"name":"queued","ph":"X","pid":1,"tid":7,"ts":1000000,"dur":0})x",
      R"x({"name":"swap_in","ph":"i","s":"t","pid":1,"tid":7,"ts":1000000,"args":{"bytes":12288}})x",
      R"x({"name":"shed","ph":"i","s":"t","pid":1,"tid":8,"ts":1000000,"args":{"cause":"deadline"}})x",
      R"x({"name":"decode b=2","ph":"X","pid":2,"tid":1,"ts":1000000,"dur":125000,"args":{"step":1,"batch":2,"latency_s":0.125,"kv_referenced_blocks":7,"kv_blocks_allocated":1,"kv_blocks_reclaimed":0}})x",
      R"x({"name":"fault","ph":"i","s":"t","pid":1,"tid":7,"ts":1250000,"args":{"kind":"kv_loss","lost_tokens":40,"duration_s":0}})x",
      R"x({"name":"fault","ph":"i","s":"t","pid":2,"tid":1,"ts":1500000,"args":{"kind":"stall","lost_tokens":0,"duration_s":0.375}})x",
      R"x({"name":"recover","ph":"i","s":"t","pid":1,"tid":7,"ts":1750000,"args":{"mechanism":"retry","attempt":1,"bytes":0}})x",
      R"x({"name":"recover","ph":"i","s":"t","pid":1,"tid":7,"ts":1875000,"args":{"mechanism":"host_restore","attempt":0,"bytes":24576}})x",
      R"x({"name":"degrade","ph":"i","s":"t","pid":2,"tid":1,"ts":2000000,"args":{"mode":"enter"}})x",
      R"x({"name":"degrade","ph":"i","s":"t","pid":2,"tid":1,"ts":2500000,"args":{"mode":"exit"}})x",
      R"x({"name":"finish","ph":"i","s":"t","pid":1,"tid":7,"ts":3000000,"args":{"generated_tokens":12}})x",
      R"x({"name":"shed","ph":"i","s":"t","pid":1,"tid":9,"ts":4000000,"args":{"cause":"horizon"}})x",
      R"x({"name":"shed","ph":"i","s":"t","pid":1,"tid":10,"ts":4500000,"args":{"cause":"fault"}})x",
      R"x({"name":"queue_depth","ph":"C","pid":2,"ts":750000,"args":{"value":2}})x",
      R"x({"name":"sequences","ph":"C","pid":2,"ts":750000,"args":{"resident":3,"decoding":1,"swapped":1}})x",
      R"x({"name":"kv_blocks","ph":"C","pid":2,"ts":750000,"args":{"referenced":6,"cached":3}})x",
      R"x({"name":"kv_fragmentation","ph":"C","pid":2,"ts":750000,"args":{"value":0.25}})x",
      R"x({"name":"prefix_hit_rate","ph":"C","pid":2,"ts":750000,"args":{"value":0.5}})x",
      R"x({"name":"tenant_admitted_tokens","ph":"C","pid":2,"ts":750000,"args":{"tenant 3":108,"tenant 5":40}})x",
  };
  // One time-series sample, with two tenants, pins every counter track.
  TimeSample sample;
  sample.time = 0.75;
  sample.step = 1;
  sample.queue_depth = 2;
  sample.resident_sequences = 3;
  sample.resident_decoders = 1;
  sample.swapped_sequences = 1;
  sample.kv_referenced_blocks = 6;
  sample.kv_occupied_blocks = 9;
  sample.kv_capacity_blocks = 64;
  sample.kv_internal_fragmentation = 0.25;
  sample.prefix_hit_rate = 0.5;
  sample.tenant_admitted_tokens = {{3, 108}, {5, 40}};
  const std::vector<std::string> objects =
      perfetto_objects(perfetto_trace_json(trace.events(), {sample}));
  ASSERT_EQ(objects.size(), expected_perfetto.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects[i], expected_perfetto[i]) << "perfetto object " << i;
  }
}

// --- Registry publication ----------------------------------------------------

TEST(RegistryPublication, SubsystemsPublishIntoRunRegistry) {
  const std::vector<Request> requests = generate_requests(golden_stream());
  const ServingMetrics metrics =
      run_serving(golden_scenario(EvictionPolicy::kSwapToHost, 512), requests);
  const auto& counters = metrics.registry.counters();
  // Scheduler counters mirror ServingCounters exactly.
  EXPECT_EQ(counters.at("scheduler.preemptions_swap"),
            metrics.counters.preemptions_swap);
  EXPECT_EQ(counters.at("scheduler.chunked_prefill_steps"),
            metrics.counters.chunked_prefill_steps);
  // Cost-cache stats (satellite: surfaced per run for the first time).
  EXPECT_EQ(counters.at("cost_cache.hits"), metrics.cost_cache_hits);
  EXPECT_EQ(counters.at("cost_cache.misses"), metrics.cost_cache_misses);
  EXPECT_EQ(counters.at("cost_cache.entries"),
            static_cast<std::int64_t>(metrics.cost_cache_entries));
  EXPECT_GT(metrics.cost_cache_occupancy, 0.0);
  EXPECT_LE(metrics.cost_cache_occupancy, 1.0);
  EXPECT_EQ(metrics.registry.gauges().at("cost_cache.occupancy"),
            metrics.cost_cache_occupancy);
  // KV manager and engine instruments exist and are coherent.
  EXPECT_GT(counters.at("kv.capacity_blocks"), 0);
  EXPECT_GE(counters.at("kv.blocks_allocated_total"), 0);
  EXPECT_EQ(counters.at("engine.total_steps"), metrics.total_steps);
  const FixedBucketHistogram& latency =
      metrics.registry.histograms().at("engine.step_latency_s");
  EXPECT_EQ(latency.count(), metrics.total_steps);
}

// --- Sweep integration: byte-identical trace files across thread counts ------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SweepTracing, TraceFilesByteIdenticalAcrossThreadCounts) {
  ServingSweep sweep;
  sweep.arrival_rates = {50.0};
  const std::vector<EvictionPolicy> policies = {EvictionPolicy::kPreemptNewest,
                                                EvictionPolicy::kSwapToHost};
  sweep.axes = {{"policy",
                 {eviction_policy_name(policies[0]),
                  eviction_policy_name(policies[1])},
                 [policies](SweepPoint& point, std::size_t i) {
                   point.scenario.eviction = policies[i];
                 }}};
  sweep.base.scenario = golden_scenario(EvictionPolicy::kPreemptNewest, 0);
  TraceConfig& trace = sweep.base.scenario.trace;
  trace.enabled = true;
  trace.sample_interval = 1.0;
  sweep.stream = golden_stream();

  std::vector<std::string> names;
  std::vector<std::string> serial_bytes;
  for (int threads : {1, 2}) {
    trace.dir = "obs_test_traces_t" + std::to_string(threads);
    SweepOptions options;
    options.threads = threads;
    const std::vector<SweepCellResult> cells =
        run_serving_sweep(sweep, options);
    ASSERT_EQ(cells.size(), 2u);
    if (threads == 1) {
      // run_serving_sweep derives one sanitized label per cell.
      for (EvictionPolicy policy : policies) {
        const std::string label =
            "serving.rate_50_policy_" + eviction_policy_name(policy);
        names.push_back(label + ".trace.json");
        names.push_back(label + ".jsonl");
      }
      for (const std::string& name : names) {
        serial_bytes.push_back(read_file(trace.dir + "/" + name));
        EXPECT_FALSE(serial_bytes.back().empty());
      }
    } else {
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(read_file(trace.dir + "/" + names[i]),
                  serial_bytes[i])
            << names[i] << " differs between thread counts";
      }
    }
  }
  // Perfetto structural sanity on one of the serial files.
  ASSERT_FALSE(serial_bytes.empty());
  const std::string& perfetto = serial_bytes[0];
  EXPECT_EQ(perfetto.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(perfetto.find("\"process_name\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace
}  // namespace cimtpu::serving
