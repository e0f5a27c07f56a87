// Serving subsystem tests: request generation determinism, percentile
// math, KV-cache admission/eviction, continuous-batching step traces, and
// bit-identical end-to-end serving metrics for a fixed seed.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/traffic_profiles.h"
#include "sim/workload_runner.h"

namespace cimtpu::serving {
namespace {

// --- Request generation ------------------------------------------------------

RequestStreamConfig test_stream(std::int64_t n, double rate) {
  RequestStreamConfig stream;
  stream.seed = 7;
  stream.num_requests = n;
  stream.arrival_rate = rate;
  stream.prompt.kind = LengthDistribution::kZipf;
  stream.prompt.min_len = 16;
  stream.prompt.max_len = 512;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 1;
  stream.output.max_len = 32;
  return stream;
}

TEST(RequestGenTest, ArrivalsSortedAndLengthsBounded) {
  const auto requests = generate_requests(test_stream(2000, 50.0));
  ASSERT_EQ(requests.size(), 2000u);
  Seconds prev = 0;
  for (const Request& request : requests) {
    EXPECT_GE(request.arrival_time, prev);
    prev = request.arrival_time;
    EXPECT_GE(request.prompt_len, 16);
    EXPECT_LE(request.prompt_len, 512);
    EXPECT_GE(request.output_len, 1);
    EXPECT_LE(request.output_len, 32);
  }
}

TEST(RequestGenTest, PoissonMeanRateApproximatelyCorrect) {
  const double rate = 50.0;
  const auto requests = generate_requests(test_stream(5000, rate));
  const double span = requests.back().arrival_time;
  const double empirical = static_cast<double>(requests.size()) / span;
  EXPECT_NEAR(empirical, rate, 0.1 * rate);
}

TEST(RequestGenTest, BurstyKeepsLongRunRateAndBursts) {
  RequestStreamConfig stream = test_stream(20000, 50.0);
  stream.process = ArrivalProcess::kBursty;
  const auto requests = generate_requests(stream);
  const double span = requests.back().arrival_time;
  const double empirical = static_cast<double>(requests.size()) / span;
  EXPECT_NEAR(empirical, 50.0, 0.2 * 50.0);
  // Burstiness shows up as over-dispersed inter-arrivals: the squared
  // coefficient of variation exceeds the Poisson value of 1.
  double sum = 0, sum_sq = 0;
  std::vector<double> gaps;
  for (std::size_t i = 1; i < requests.size(); ++i) {
    const double gap =
        requests[i].arrival_time - requests[i - 1].arrival_time;
    sum += gap;
    sum_sq += gap * gap;
    gaps.push_back(gap);
  }
  const double mean = sum / gaps.size();
  const double var = sum_sq / gaps.size() - mean * mean;
  EXPECT_GT(var / (mean * mean), 1.5);
}

TEST(RequestGenTest, SeedReproducesExactly) {
  const auto a = generate_requests(test_stream(500, 20.0));
  const auto b = generate_requests(test_stream(500, 20.0));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time);  // bit-identical
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].output_len, b[i].output_len);
  }
  RequestStreamConfig other = test_stream(500, 20.0);
  other.seed = 8;
  const auto c = generate_requests(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].arrival_time != c[i].arrival_time;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RequestGenTest, ZipfFavorsShortLengths) {
  RequestStreamConfig stream = test_stream(5000, 50.0);
  stream.prompt.kind = LengthDistribution::kZipf;
  stream.prompt.min_len = 1;
  stream.prompt.max_len = 1000;
  const auto requests = generate_requests(stream);
  std::int64_t below_100 = 0;
  for (const Request& request : requests) {
    if (request.prompt_len <= 100) ++below_100;
  }
  // A uniform draw would put ~10% below 100; the Zipf tail puts most.
  EXPECT_GT(below_100, static_cast<std::int64_t>(0.5 * requests.size()));
}

// --- Guided CDF search -------------------------------------------------------
// GuidedCdf's guide table only picks where a search starts, so every draw
// must return std::lower_bound's index: the trace stays the one a binary
// search gives, bit for bit.

std::vector<double> zipf_cdf(std::int64_t ranks, double alpha) {
  std::vector<double> cdf;
  double cumulative = 0;
  for (std::int64_t rank = 1; rank <= ranks; ++rank) {
    cumulative += std::pow(static_cast<double>(rank), -alpha);
    cdf.push_back(cumulative);
  }
  return cdf;
}

std::vector<double> zipf_cdf(const LengthSpec& spec) {
  return zipf_cdf(spec.max_len - spec.min_len + 1, kZipfAlpha);
}

std::size_t reference_lower_bound(const std::vector<double>& cdf,
                                  double target) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), target) - cdf.begin());
}

// Every CDF value and its neighbours, every bucket edge and its
// neighbours, 0, and (1 - 2^-53) * total, which can round to total.
void expect_guided_matches_lower_bound(const std::vector<double>& cdf) {
  const GuidedCdf guided(cdf);
  const double total = cdf.back();
  const auto n = static_cast<double>(cdf.size());
  std::vector<double> targets = {0.0, (1.0 - 0x1p-53) * total};
  auto add_with_neighbours = [&](double value) {
    targets.push_back(value);
    targets.push_back(std::nextafter(value, 0.0));
    targets.push_back(std::nextafter(value, 2 * total));
  };
  for (double value : cdf) add_with_neighbours(value);
  for (std::size_t b = 0; b <= cdf.size(); ++b) {
    add_with_neighbours(static_cast<double>(b) * total / n);
  }
  // Past the total the forward walk crosses every entry equal to it; one
  // such target is enough.
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (double target : targets) {
    ASSERT_EQ(guided.lower_bound(target), reference_lower_bound(cdf, target))
        << "target " << target << " of " << cdf.size() << " entries";
  }
  // Bucket b starts at the first entry that reaches its lower edge.
  ASSERT_EQ(guided.guide().size(), cdf.size() + 1);
  for (std::size_t b = 0; b <= cdf.size(); ++b) {
    ASSERT_EQ(guided.guide()[b],
              reference_lower_bound(cdf, static_cast<double>(b) * total / n))
        << "bucket " << b << " of " << cdf.size();
  }
}

TEST(RequestGenTest, GuidedCdfMatchesLowerBoundOnTheChatStreamCdfs) {
  const RequestStreamConfig chat = zipf_chat_stream(42, 1000, 1.0);
  expect_guided_matches_lower_bound(zipf_cdf(chat.prompt));  // 4,081 ranks
  expect_guided_matches_lower_bound(zipf_cdf(chat.output));  // 1,021 ranks
}

TEST(RequestGenTest, GuidedCdfMatchesLowerBoundOnOneAndTwoRanks) {
  expect_guided_matches_lower_bound({1.0});
  expect_guided_matches_lower_bound({0.3});
  expect_guided_matches_lower_bound({1.0, 2.0});
  expect_guided_matches_lower_bound({1.0, 1.5});
  expect_guided_matches_lower_bound({0.1, 7.0});
  expect_guided_matches_lower_bound({2.0, 2.0});  // a zero-weight rank
}

// At alpha = 8 the cumulative sum stops growing after a few hundred ranks,
// so most of the 100,000 entries are equal and most buckets share a start.
TEST(RequestGenTest, GuidedCdfMatchesLowerBoundOnAFlatTail) {
  const std::vector<double> cdf = zipf_cdf(/*ranks=*/100000, /*alpha=*/8.0);
  ASSERT_EQ(cdf[50000], cdf.back());
  expect_guided_matches_lower_bound(cdf);
}

// Entries one ulp below the bucket edges: for some of them the bucket
// arithmetic rounds up into the next bucket, whose start lies past the
// answer, so only the backward walk finds it.
TEST(RequestGenTest, GuidedCdfMatchesLowerBoundJustBelowBucketEdges) {
  for (double total : {1.0, 0.3, 7.0}) {
    std::vector<double> cdf;
    for (int i = 1; i < 100; ++i) {
      cdf.push_back(std::nextafter(i * total / 100, 0.0));
    }
    cdf.push_back(total);
    expect_guided_matches_lower_bound(cdf);
  }
}

TEST(RequestGenTest, GuidedCdfMatchesLowerBoundOnSeededUniforms) {
  const RequestStreamConfig chat = zipf_chat_stream(42, 1000, 1.0);
  const std::vector<double> cdf = zipf_cdf(chat.prompt);
  const GuidedCdf guided(cdf);
  Rng rng(20260101);
  for (int i = 0; i < 1000000; ++i) {
    const double target = rng.uniform() * cdf.back();
    ASSERT_EQ(guided.lower_bound(target), reference_lower_bound(cdf, target))
        << "target " << target;
  }
}

// The generator as it was with std::lower_bound for the Zipf length and
// weighted-tenant draws; everything else is copied unchanged.
std::vector<Request> reference_generate_requests(
    const RequestStreamConfig& config) {
  auto exponential = [](Rng& rng, double rate) {
    return -std::log(1.0 - rng.uniform()) / rate;
  };
  auto sample = [](const LengthSpec& spec, const std::vector<double>& cdf,
                   Rng& rng) -> std::int64_t {
    if (spec.kind == LengthDistribution::kZipf) {
      return spec.min_len + static_cast<std::int64_t>(reference_lower_bound(
                                cdf, rng.uniform() * cdf.back()));
    }
    if (spec.min_len == spec.max_len) return spec.min_len;
    return rng.uniform_int(spec.min_len, spec.max_len);
  };
  Rng rng(config.seed);
  Rng priority_rng(config.seed ^ 0xa5a5c3c3deadbeefull);
  Rng tenant_rng(config.seed ^ 0x3c3c5a5a0badf00dull);
  Rng prefix_rng(config.seed ^ 0x517e0fcafe5eed11ull);
  Rng deadline_rng(config.seed ^ 0x7d1f5105d11e5eedull);
  const bool deadlines =
      config.ttft_deadline_s > 0 || config.tpot_deadline_s > 0;
  const std::vector<double> prompt_cdf = zipf_cdf(config.prompt);
  const std::vector<double> output_cdf = zipf_cdf(config.output);
  std::vector<double> tenant_cdf;
  double cumulative = 0;
  for (double weight : config.tenant_weights) {
    cumulative += weight;
    tenant_cdf.push_back(cumulative);
  }
  const double calm_rate =
      config.arrival_rate / (1.0 + kBurstFraction * (kBurstFactor - 1.0));
  const double burst_rate = calm_rate * kBurstFactor;
  const Seconds mean_burst_dwell = 16.0 / burst_rate;
  const Seconds mean_calm_dwell =
      mean_burst_dwell * (1.0 - kBurstFraction) / kBurstFraction;
  const double peak = config.arrival_rate * (1.0 + kDiurnalAmplitude);

  std::vector<Request> requests;
  Seconds now = 0;
  bool in_burst = false;
  Seconds state_ends = config.process == ArrivalProcess::kBursty
                           ? exponential(rng, 1.0 / mean_calm_dwell)
                           : 0;
  for (std::int64_t id = 0; id < config.num_requests; ++id) {
    if (config.process == ArrivalProcess::kPoisson) {
      now += exponential(rng, config.arrival_rate);
    } else if (config.process == ArrivalProcess::kDiurnal) {
      for (;;) {
        now += exponential(rng, peak);
        const double rate =
            config.arrival_rate *
            (1.0 + kDiurnalAmplitude *
                       std::sin(6.283185307179586 * now /
                                    kDiurnalPeriodSeconds +
                                config.diurnal_phase));
        if (rng.uniform() * peak <= rate) break;
      }
    } else {
      for (;;) {
        const double rate = in_burst ? burst_rate : calm_rate;
        const Seconds candidate = now + exponential(rng, rate);
        if (candidate <= state_ends) {
          now = candidate;
          break;
        }
        now = state_ends;
        in_burst = !in_burst;
        const Seconds dwell = in_burst ? mean_burst_dwell : mean_calm_dwell;
        state_ends = now + exponential(rng, 1.0 / dwell);
      }
    }
    Request request;
    request.id = id;
    request.arrival_time = now;
    request.prompt_len = sample(config.prompt, prompt_cdf, rng);
    request.output_len =
        std::max<std::int64_t>(1, sample(config.output, output_cdf, rng));
    request.priority =
        config.priority_classes > 1
            ? priority_rng.uniform_int(0, config.priority_classes - 1)
            : 0;
    if (config.num_tenants > 1) {
      request.tenant_id =
          tenant_cdf.empty()
              ? tenant_rng.uniform_int(0, config.num_tenants - 1)
              : static_cast<std::int64_t>(reference_lower_bound(
                    tenant_cdf, tenant_rng.uniform() * tenant_cdf.back()));
    }
    if (config.prefix_pool_size > 0) {
      request.prefix_id =
          prefix_rng.uniform_int(0, config.prefix_pool_size - 1);
      request.prefix_len = config.prefix_len_tokens;
      request.prompt_len += config.prefix_len_tokens;
    }
    if (deadlines) {
      const double scale =
          1.0 + kDeadlineJitter * (2.0 * deadline_rng.uniform() - 1.0);
      request.ttft_deadline = config.ttft_deadline_s * scale;
      request.tpot_deadline = config.tpot_deadline_s * scale;
    }
    requests.push_back(request);
  }
  return requests;
}

TEST(RequestGenTest, GenerateRequestsMatchesTheLowerBoundSampler) {
  for (ArrivalProcess process : {ArrivalProcess::kPoisson,
                                 ArrivalProcess::kBursty,
                                 ArrivalProcess::kDiurnal}) {
    // 0: Zipf, 1: uniform, 2: a fixed length (uniform over one value).
    for (int shape = 0; shape < 3; ++shape) {
      for (std::uint64_t seed : {1u, 42u, 1009u}) {
        RequestStreamConfig config = zipf_chat_stream(seed, 3000, 40.0, 3);
        config.process = process;
        const LengthDistribution kind = shape == 0
                                            ? LengthDistribution::kZipf
                                            : LengthDistribution::kUniform;
        config.prompt.kind = kind;
        config.output.kind = kind;
        if (shape == 2) {
          config.prompt.max_len = config.prompt.min_len = 1024;
          config.output.max_len = config.output.min_len = 1024;
        }
        config.num_tenants = 4;
        config.tenant_weights = {5.0, 1.0, 0.5, 3.0};
        config.prefix_pool_size = 8;
        config.prefix_len_tokens = 64;
        config.ttft_deadline_s = 2.0;
        config.tpot_deadline_s = 0.05;
        const std::vector<Request> expected =
            reference_generate_requests(config);
        const std::vector<Request> actual = generate_requests(config);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < actual.size(); ++i) {
          const Request& a = actual[i];
          const Request& e = expected[i];
          SCOPED_TRACE(::testing::Message()
                       << arrival_process_name(process) << " shape "
                       << shape << " seed " << seed
                       << " request " << i);
          ASSERT_EQ(a.id, e.id);
          ASSERT_EQ(a.arrival_time, e.arrival_time);  // bit for bit
          ASSERT_EQ(a.prompt_len, e.prompt_len);
          ASSERT_EQ(a.output_len, e.output_len);
          ASSERT_EQ(a.priority, e.priority);
          ASSERT_EQ(a.tenant_id, e.tenant_id);
          ASSERT_EQ(a.prefix_id, e.prefix_id);
          ASSERT_EQ(a.prefix_len, e.prefix_len);
          ASSERT_EQ(a.ttft_deadline, e.ttft_deadline);
          ASSERT_EQ(a.tpot_deadline, e.tpot_deadline);
        }
      }
    }
  }
}

// A Zipf support is capped at kMaxZipfSupport ranks: the sampler builds
// its whole CDF before the first draw (8 bytes and one std::pow per rank).
TEST(RequestGenTest, ValidateCapsTheZipfSupport) {
  LengthSpec spec;
  spec.kind = LengthDistribution::kZipf;
  spec.min_len = 5;
  spec.max_len = spec.min_len + kMaxZipfSupport - 1;
  EXPECT_NO_THROW(spec.validate());
  spec.max_len += 1;
  try {
    spec.validate();
    FAIL() << "a support past the limit must be rejected";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("1048576"), std::string::npos)
        << "the message must name the limit: " << error.what();
  }
  spec.max_len = std::int64_t{10000000000};  // 80 GB of CDF unchecked
  EXPECT_THROW(spec.validate(), ConfigError);
}

// A length spec has no default distribution: a stream that forgets to
// choose one fails with one line instead of drawing a silent default.
TEST(RequestGenTest, UnsetLengthKindFailsValidation) {
  RequestStreamConfig stream = test_stream(10, 1.0);
  stream.output = LengthSpec{};
  try {
    generate_requests(stream);
    FAIL() << "a length spec without a kind must be rejected";
  } catch (const ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no distribution"), std::string::npos) << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = stream.output.max_len = 7;
  for (const Request& request : generate_requests(stream)) {
    EXPECT_EQ(request.output_len, 7);
  }
}

// Stream ids are dense in [0, num_requests) and an engine accepts ids up to
// kMaxRequestId, so validate() caps the count there — before
// generate_requests would try to reserve the whole stream.  Only
// validate() runs here: generating even the largest valid stream would
// allocate tens of GiB.
TEST(RequestGenTest, ValidateCapsTheCountAtTheEngineIdRange) {
  RequestStreamConfig stream = test_stream(kMaxRequestId + 1, 20.0);
  EXPECT_NO_THROW(stream.validate());
  stream.num_requests = kMaxRequestId + 2;
  try {
    stream.validate();
    FAIL() << "a stream past the engine's id range must be rejected";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("2147483648"), std::string::npos)
        << "the message must name the limit: " << error.what();
  }
}

// Latencies are differences of absolute simulated times, so a stream whose
// mean arrival span passes 2^30 s is rejected instead of reporting
// latencies that have lost their digits (at 1e-300 req/s the clock reaches
// inf and every TTFT reads 0).
TEST(RequestGenTest, ValidateCapsTheMeanArrivalSpan) {
  RequestStreamConfig stream =
      test_stream(10, 10.0 / kMaxMeanArrivalSpanSeconds);
  EXPECT_NO_THROW(stream.validate());  // exactly 2^30 s
  for (double rate : {1e-12, 1e-300}) {
    stream.arrival_rate = rate;
    try {
      stream.validate();
      FAIL() << "rate " << rate << " must be rejected";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("2^30 s"), std::string::npos)
          << "the message must name the limit: " << error.what();
    }
  }
  // The longest benchmark stream, 200k requests at 1 req/s, is far inside.
  stream.num_requests = 200000;
  stream.arrival_rate = 1.0;
  EXPECT_NO_THROW(stream.validate());
}

// --- Percentile math ---------------------------------------------------------

TEST(MetricsTest, PercentileOnKnownSet) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const double* first = values.data();
  const double* last = first + values.size();
  EXPECT_DOUBLE_EQ(percentile_sorted(first, last, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(first, last, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(first, last, 50.0), 50.5);
  EXPECT_NEAR(percentile_sorted(first, last, 95.0), 95.05, 1e-9);
  EXPECT_NEAR(percentile_sorted(first, last, 99.0), 99.01, 1e-9);
}

TEST(MetricsTest, PercentileEdgeCases) {
  const double one = 42.0;
  EXPECT_DOUBLE_EQ(percentile_sorted(&one, &one + 1, 99.0), 42.0);
  EXPECT_THROW(percentile_sorted(&one, &one + 1, 101.0), ConfigError);
}

TEST(MetricsTest, SummaryRollsUp) {
  const LatencySummary summary = summarize_latencies({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(summary.count, 4);
  EXPECT_DOUBLE_EQ(summary.mean, 2.5);
  EXPECT_DOUBLE_EQ(summary.p50, 2.5);
  EXPECT_DOUBLE_EQ(summary.max, 4.0);
}

// --- KV cache manager --------------------------------------------------------

TEST(KvCacheTest, AdmissionBlocksWhenExhaustedAndReleaseUnblocks) {
  // Budget of exactly 10 tokens.
  KvCacheManager kv(/*capacity=*/10.0, /*bytes_per_token=*/1.0);
  const std::optional<std::int32_t> r0 = kv.try_admit(0, 6);
  ASSERT_TRUE(r0);
  EXPECT_FALSE(kv.try_admit(1, 5));  // 6 + 5 > 10: admission blocks
  const std::optional<std::int32_t> r1 = kv.try_admit(1, 4);
  ASSERT_TRUE(r1);
  EXPECT_EQ(kv.referenced_blocks(), 10);
  // Decode growth: r0's next token needs a block, and none is left.
  kv.begin_advance(*r0);
  EXPECT_EQ(kv.advance_growth_blocks(), 1);
  EXPECT_FALSE(kv.fits_blocks(kv.advance_growth_blocks()));  // full
  kv.release_slot(*r1);  // eviction/completion unblocks
  EXPECT_TRUE(kv.fits_blocks(kv.advance_growth_blocks()));
  kv.advance(1);
  kv.end_advance(*r0);
  EXPECT_TRUE(kv.try_admit(2, 3));
  EXPECT_EQ(kv.inspect().resident_entries, 2);
  EXPECT_EQ(kv.inspect(0).tokens, 7);
  EXPECT_TRUE(kv.audit());
}

TEST(KvCacheTest, EvictionPicksNewest) {
  KvCacheManager kv(100.0, 1.0, EvictionPolicy::kPreemptNewest);
  EXPECT_TRUE(kv.try_admit(10, 5));
  EXPECT_TRUE(kv.try_admit(11, 5));
  const std::optional<std::int32_t> newest = kv.try_admit(12, 5);
  ASSERT_TRUE(newest);
  EXPECT_EQ(kv.pick_eviction_victim(), 12);
  kv.release_slot(*newest);
  EXPECT_EQ(kv.pick_eviction_victim(), 11);

  // Nothing to evict in an empty manager.
  KvCacheManager empty(100.0, 1.0, EvictionPolicy::kPreemptNewest);
  EXPECT_EQ(empty.pick_eviction_victim(), -1);
}

TEST(KvCacheTest, ModelBudgetAccountsForWeights) {
  models::TransformerConfig model = models::llama2_7b();
  model.dtype = ir::DType::kInt4;
  const Bytes hbm = 8 * GiB;
  const Bytes budget = KvCacheManager::hbm_kv_budget(model, hbm, 1);
  EXPECT_GT(budget, 0);
  EXPECT_DOUBLE_EQ(budget, hbm - model.stack_weight_bytes());
  // One cached token pins K and V across every layer.
  EXPECT_DOUBLE_EQ(
      KvCacheManager::token_bytes(model),
      models::kv_cache_bytes_per_layer(model, 1, 1) * model.num_layers);
  // GPT3-30B INT8 weights exceed single-chip HBM entirely.
  EXPECT_THROW(KvCacheManager::hbm_kv_budget(models::gpt3_30b(), hbm, 1),
               ConfigError);
}

TEST(KvCacheTest, UnevenPipelineSplitBudgetRespectsBottleneckStage) {
  // 32 layers over 5 chips: the bottleneck stage holds ceil(32/5) = 7
  // layers, so the aggregate budget must be what keeps THAT stage within
  // one chip's HBM — strictly less than the naive 5*HBM - weights.
  models::TransformerConfig model = models::llama2_7b();
  model.dtype = ir::DType::kInt4;
  const Bytes hbm = 8 * GiB;
  const Bytes layer_w = model.layer_weight_bytes();
  const Bytes budget = KvCacheManager::hbm_kv_budget(model, hbm, 5);
  EXPECT_DOUBLE_EQ(budget, (hbm - 7.0 * layer_w) * 32.0 / 7.0);
  EXPECT_LT(budget, 5.0 * hbm - model.stack_weight_bytes());
  // Even split (4 chips, 8 layers each) reduces to chips*HBM - weights.
  EXPECT_DOUBLE_EQ(KvCacheManager::hbm_kv_budget(model, hbm, 4),
                   4.0 * hbm - model.stack_weight_bytes());
}

// --- Continuous-batching scheduler -------------------------------------------

Request make_request(std::int64_t id, std::int64_t prompt,
                     std::int64_t output, Seconds arrival = 0) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = prompt;
  request.output_len = output;
  return request;
}

TEST(SchedulerTest, ThreeRequestHandTrace) {
  // r0: 1 token (prefill-only); r1: 3 tokens; r2: 5 tokens.  All arrive at
  // once and fit the batch, so the trace is:
  //   step 1: prefill {r0, r1, r2} -> all emit first token, r0 finishes
  //   step 2: decode {r1, r2}
  //   step 3: decode {r1, r2} -> r1 reaches 3 tokens and finishes
  //   step 4: decode {r2}
  //   step 5: decode {r2}      -> r2 reaches 5 tokens and finishes
  KvCacheManager kv(1e9, 1.0);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 32, 1));
  scheduler.enqueue(make_request(1, 64, 3));
  scheduler.enqueue(make_request(2, 16, 5));

  StepRecord step1;
  ASSERT_TRUE(scheduler.next_step(&step1));
  EXPECT_EQ(step1.kind, StepRecord::Kind::kPrefill);
  EXPECT_EQ(step1.batch, 3);
  // Per-sequence shapes: whole prompts in one chunk (chunking disabled).
  EXPECT_EQ(step1.chunk_lens, (std::vector<std::int64_t>{32, 64, 16}));
  EXPECT_EQ(step1.prev_lens, (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_FALSE(step1.chunked);
  EXPECT_EQ(step1.first_token_ids, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(step1.finished_ids, (std::vector<std::int64_t>{0}));

  std::vector<std::int64_t> decode_batches;
  std::vector<std::int64_t> finished;
  bool first_decode = true;
  for (;;) {
    // Per-sequence KV lengths the next decode step attends over: prompt +
    // tokens generated so far (decode records carry only the grouping).
    const std::vector<std::int64_t> kv_lens = scheduler.decode_kv_lens();
    StepRecord step;
    if (!scheduler.next_step(&step)) break;
    EXPECT_EQ(step.kind, StepRecord::Kind::kDecode);
    if (first_decode) {
      EXPECT_EQ(kv_lens, (std::vector<std::int64_t>{64 + 1, 16 + 1}));
      first_decode = false;
    }
    decode_batches.push_back(step.batch);
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  EXPECT_EQ(decode_batches, (std::vector<std::int64_t>{2, 2, 1, 1}));
  EXPECT_EQ(finished, (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(kv.referenced_blocks(), 0);  // everything released
}

TEST(SchedulerTest, ContinuousAdmissionJoinsRunningBatch) {
  // A long request decodes while a late arrival is admitted mid-flight:
  // the batch grows without waiting for the first request to finish.
  KvCacheManager kv(1e9, 1.0);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 8, 10));
  StepRecord step;
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.kind, StepRecord::Kind::kPrefill);
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(step.batch, 1);

  scheduler.enqueue(make_request(1, 8, 10));
  ASSERT_TRUE(scheduler.next_step(&step));  // prefill-priority
  EXPECT_EQ(step.kind, StepRecord::Kind::kPrefill);
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(step.batch, 2);  // r0 still running, r1 joined
}

TEST(SchedulerTest, KvPressurePreemptsNewestAndRequeues) {
  // Budget of 40 tokens: r0 (10 + growing) and r1 (10 + growing) fit at
  // admission (22 reserved), but decode growth exhausts the pages and the
  // newest request is preempted, finishing only after r0 releases.
  KvCacheManager kv(40.0, 1.0, EvictionPolicy::kPreemptNewest);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 10, 12));
  scheduler.enqueue(make_request(1, 10, 12));
  std::vector<std::int64_t> finished;
  StepRecord step;
  while (scheduler.next_step(&step)) {
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  EXPECT_GT(scheduler.counters().total_preemptions(), 0);
  EXPECT_EQ(finished, (std::vector<std::int64_t>{0, 1}));  // both complete
  EXPECT_EQ(kv.referenced_blocks(), 0);
}

TEST(SchedulerTest, AdmissionReservesPromptPlusFirstToken) {
  // Admission reserves prompt + first token (11 each), so both requests
  // enter together although their whole sequences (40) exceed the budget;
  // decode growth then preempts, and both still complete.
  KvCacheManager kv(30.0, 1.0, EvictionPolicy::kPreemptNewest);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 10, 10));
  scheduler.enqueue(make_request(1, 10, 10));
  StepRecord step;
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.batch, 2);
  EXPECT_EQ(scheduler.waiting_count(), 0u);
  EXPECT_EQ(kv.referenced_blocks(), 22);
  std::vector<std::int64_t> finished;
  while (scheduler.next_step(&step)) {
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  EXPECT_GT(scheduler.counters().total_preemptions(), 0);
  EXPECT_EQ(finished, (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(kv.referenced_blocks(), 0);
}

// --- Workload-runner edge cases (satellite fix) ------------------------------

TEST(WorkloadRunnerEdgeTest, ZeroOutputLenDoesNotDivideByZero) {
  arch::TpuChip chip(arch::tpu_v4i_baseline());
  const sim::Simulator simulator(chip);
  sim::LlmScenario scenario;
  scenario.model = models::llama2_7b();
  scenario.model.num_layers = 2;
  scenario.batch = 1;  // batch = 1 edge case
  scenario.input_len = 64;
  scenario.output_len = 0;  // prefill-only scoring
  const sim::LlmRunResult run = sim::run_llm_inference(simulator, scenario);
  EXPECT_DOUBLE_EQ(run.decode.latency, 0.0);
  EXPECT_NEAR(run.total.latency, run.prefill.latency,
              run.prefill.latency * 1e-12);
  EXPECT_GT(run.prefill.latency, 0.0);
}

// --- End-to-end serving simulation -------------------------------------------

ServingScenario small_scenario(int chips) {
  ServingScenario scenario;
  scenario.model = models::llama2_7b();
  scenario.model.dtype = ir::DType::kInt4;
  scenario.chip_config = arch::tpu_v4i_baseline();
  scenario.scheduler.max_batch = 16;
  scenario.scheduler.max_prefill_batch = 4;
  scenario.chips = chips;
  return scenario;
}

TEST(ServingSimTest, FixedSeedIsBitIdentical) {
  const auto requests = generate_requests(test_stream(300, 20.0));
  const ServingMetrics a = run_serving(small_scenario(1), requests);
  const ServingMetrics b = run_serving(small_scenario(1), requests);
  // Exact (bit-identical) equality, not approximate.
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.ttft.p50, b.ttft.p50);
  EXPECT_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_EQ(a.tpot.p99, b.tpot.p99);
  EXPECT_EQ(a.e2e.p99, b.e2e.p99);
  EXPECT_EQ(a.goodput_tokens_per_second, b.goodput_tokens_per_second);
  EXPECT_EQ(a.energy_per_token, b.energy_per_token);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mxu_utilization, b.mxu_utilization);
}

TEST(ServingSimTest, AllRequestsCompleteWithSaneMetrics) {
  const auto requests = generate_requests(test_stream(300, 20.0));
  const ServingMetrics metrics = run_serving(small_scenario(1), requests);
  EXPECT_EQ(metrics.completed, 300);
  EXPECT_EQ(metrics.total_steps, metrics.prefill_steps + metrics.decode_steps);
  EXPECT_GT(metrics.goodput_tokens_per_second, 0);
  EXPECT_GT(metrics.energy_per_token, 0);
  EXPECT_GT(metrics.mxu_utilization, 0);
  EXPECT_LE(metrics.mxu_utilization, 1.0);
  EXPECT_GT(metrics.ttft.p50, 0);
  EXPECT_GE(metrics.ttft.p99, metrics.ttft.p50);
  EXPECT_GE(metrics.e2e.p99, metrics.ttft.p99);  // e2e includes TTFT
  EXPECT_GT(metrics.cost_cache_hits, metrics.cost_cache_misses);
}

TEST(ServingSimTest, PipelineImprovesGoodputUnderLoad) {
  const auto requests = generate_requests(test_stream(500, 100.0));
  const ServingMetrics one = run_serving(small_scenario(1), requests);
  const ServingMetrics four = run_serving(small_scenario(4), requests);
  EXPECT_GT(four.goodput_tokens_per_second,
            one.goodput_tokens_per_second * 1.5);
  EXPECT_LT(four.makespan, one.makespan);
}

TEST(ServingSimTest, PipelineEmissionIsMonotonicPerRequest) {
  // Long prompts with 2-token outputs on a 4-stage pipeline: the cheap
  // decode step following the expensive prefill step must not be modeled
  // as exiting the pipeline before the first token did (that would yield
  // negative TPOT and e2e < TTFT).
  RequestStreamConfig stream = test_stream(50, 100.0);
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = stream.prompt.max_len = 4096;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = stream.output.max_len = 2;
  const auto requests = generate_requests(stream);
  const ServingMetrics metrics = run_serving(small_scenario(4), requests);
  EXPECT_EQ(metrics.completed, 50);
  EXPECT_GE(metrics.tpot.p50, 0.0);
  EXPECT_GE(metrics.tpot.mean, 0.0);
  EXPECT_GE(metrics.e2e.p50, metrics.ttft.p50);
  EXPECT_GE(metrics.e2e.p99, metrics.ttft.p99);
}

TEST(ServingSimTest, TinyKvBudgetForcesPreemptionsButCompletes) {
  ServingScenario scenario = small_scenario(1);
  // Room for only ~2 running sequences of this stream's max footprint.
  scenario.kv_budget_override =
      KvCacheManager::token_bytes(scenario.model) * 1200.0;
  const auto requests = generate_requests(test_stream(50, 50.0));
  const ServingMetrics metrics = run_serving(scenario, requests);
  EXPECT_EQ(metrics.completed, 50);
  EXPECT_GT(metrics.preemptions, 0);
}

}  // namespace
}  // namespace cimtpu::serving
