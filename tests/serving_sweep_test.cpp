// Equivalence wall for the serving hot-path overhaul: the parallel sweep
// driver must reproduce serial execution bit for bit, every sweep cell
// must reproduce a direct run_serving call with no shared cost cache
// (including the run-local hit/miss counters), and the packed cost-cache
// key must be collision-free at its field boundaries.  Together with the
// golden-metrics pins in serving_policy_test.cpp these guarantee the
// optimizations changed wall-clock only, never simulated results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/tpu_config.h"
#include "common/status.h"
#include "expect_identical_metrics.h"
#include "models/model_zoo.h"
#include "serving/sweep.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

/// A 3 (rate) x 2 (chips) x 2 (policy) grid under genuine KV pressure so
/// preemption, swap, and chunk paths all execute: uniform 32..256-token
/// prompts against a 600-token budget (any single request fits, dozens do
/// not).
ServingSweep pressured_grid() {
  ServingSweep sweep;
  sweep.arrival_rates = {30.0, 60.0, 90.0};
  sweep.axes = {{"chips", {"1", "2"},
                 [](SweepPoint& point, std::size_t i) {
                   point.scenario.chips = static_cast<int>(i) + 1;
                 }},
                {"policy", {"preempt_newest", "swap_to_host"},
                 [](SweepPoint& point, std::size_t i) {
                   point.scenario.eviction =
                       i == 0 ? EvictionPolicy::kPreemptNewest
                              : EvictionPolicy::kSwapToHost;
                 }}};
  ServingScenario& base = sweep.base.scenario;
  base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  base.kv_budget_override = KvCacheManager::token_bytes(base.model) * 600.0;
  sweep.stream.seed = 11;
  sweep.stream.num_requests = 50;
  sweep.stream.prompt.kind = LengthDistribution::kUniform;
  sweep.stream.prompt.min_len = 32;
  sweep.stream.prompt.max_len = 256;
  sweep.stream.output.kind = LengthDistribution::kUniform;
  sweep.stream.output.min_len = 8;
  sweep.stream.output.max_len = 64;
  return sweep;
}

TEST(SweepEquivalenceTest, ParallelMatchesSerialOn3x2x2Grid) {
  const ServingSweep sweep = pressured_grid();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<SweepCellResult> a = run_serving_sweep(sweep, serial);
  const std::vector<SweepCellResult> b = run_serving_sweep(sweep, parallel);
  ASSERT_EQ(a.size(), 12u);
  ASSERT_EQ(b.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Identical grid coordinates in identical order...
    EXPECT_EQ(a[i].arrival_rate, b[i].arrival_rate);
    EXPECT_EQ(a[i].point.label, b[i].point.label);
    // ...and bit-identical metrics, workers be damned.
    expect_identical_metrics(a[i].metrics, b[i].metrics);
  }
  // Grid order is rate-major, policy-minor.
  EXPECT_EQ(a[0].point.label, "rate=30 chips=1 policy=preempt_newest");
  EXPECT_EQ(a[1].point.scenario.eviction, EvictionPolicy::kSwapToHost);
  EXPECT_EQ(a[2].point.scenario.chips, 2);
  EXPECT_EQ(a[4].arrival_rate, 60.0);
  EXPECT_EQ(a[11].point.label, "rate=90 chips=2 policy=swap_to_host");
}

TEST(SweepEquivalenceTest, SweepCellMatchesDirectRunServing) {
  const ServingSweep sweep = pressured_grid();
  SweepOptions options;
  options.threads = 3;
  const auto cells = run_serving_sweep(sweep, options);
  ASSERT_EQ(cells.size(), 12u);
  // Ground truth: every cell run directly, no sweep machinery and no
  // shared cost cache at all.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(i);
    RequestStreamConfig stream = sweep.stream;
    stream.arrival_rate = cells[i].arrival_rate;
    const auto requests = generate_requests(stream);
    ServingScenario scenario = sweep.base.scenario;
    scenario.chips = cells[i].point.scenario.chips;
    scenario.eviction = cells[i].point.scenario.eviction;
    expect_identical_metrics(cells[i].metrics, run_serving(scenario, requests));
  }
}

TEST(SweepEquivalenceTest, SharedCacheReusedAcrossSequentialRuns) {
  const ServingSweep sweep = pressured_grid();
  RequestStreamConfig stream = sweep.stream;
  stream.arrival_rate = 30.0;
  const auto requests = generate_requests(stream);
  ServingScenario scenario = sweep.base.scenario;

  SharedStepCostCache shared;
  const ServingMetrics cold = run_serving(scenario, requests, &shared);
  EXPECT_EQ(shared.store_count(), 1u);
  const std::size_t entries_after_first = shared.total_entries();
  EXPECT_GT(entries_after_first, 0u);
  // A second identical run computes nothing new in the shared store and
  // reproduces the first run exactly — including hit/miss counters, which
  // count against the run-local cache, not the shared one.
  const ServingMetrics warm = run_serving(scenario, requests, &shared);
  EXPECT_EQ(shared.total_entries(), entries_after_first);
  expect_identical_metrics(cold, warm);

  // A different model signature gets its own store.
  ServingScenario other = scenario;
  other.model.dtype = ir::DType::kInt8;
  other.kv_budget_override = KvCacheManager::token_bytes(other.model) * 600.0;
  run_serving(other, requests, &shared);
  EXPECT_EQ(shared.store_count(), 2u);
}

/// A grid small enough to expand and run in milliseconds: each axis
/// writes its value index into a scenario field the test can read back.
ServingSweep index_recording_grid() {
  ServingSweep sweep;
  sweep.arrival_rates = {5.0, 7.5};
  sweep.base.scenario = llama7b_baseline_scenario(1, ir::DType::kInt4);
  sweep.stream.seed = 3;
  sweep.stream.num_requests = 4;
  sweep.stream.prompt.kind = LengthDistribution::kUniform;
  sweep.stream.prompt.min_len = sweep.stream.prompt.max_len = 1024;
  sweep.stream.output.kind = LengthDistribution::kUniform;
  sweep.stream.output.min_len = sweep.stream.output.max_len = 1024;
  sweep.axes = {{"batch", {"a", "b", "c"},
                 [](SweepPoint& point, std::size_t i) {
                   point.scenario.scheduler.max_batch =
                       10 + static_cast<int>(i);
                 }},
                {"prefill", {"x", "y"}, [](SweepPoint& point, std::size_t i) {
                   point.scenario.scheduler.max_prefill_batch =
                       1 + static_cast<int>(i);
                 }}};
  return sweep;
}

TEST(ServingSweepGridTest, RateOutermostThenAxesInListOrder) {
  const std::vector<SweepCellResult> cells =
      run_serving_sweep(index_recording_grid());
  ASSERT_EQ(cells.size(), 2u * 3u * 2u);
  std::size_t k = 0;
  for (double rate : {5.0, 7.5}) {
    for (int batch = 0; batch < 3; ++batch) {
      for (int prefill = 0; prefill < 2; ++prefill, ++k) {
        SCOPED_TRACE(k);
        EXPECT_EQ(cells[k].arrival_rate, rate);
        // apply received the value index of each axis.
        EXPECT_EQ(cells[k].point.scenario.scheduler.max_batch, 10 + batch);
        EXPECT_EQ(cells[k].point.scenario.scheduler.max_prefill_batch,
                  1 + prefill);
        EXPECT_EQ(cells[k].point.requests, nullptr);
        EXPECT_EQ(cells[k].metrics.num_requests, 4);
      }
    }
  }
}

TEST(ServingSweepGridTest, LabelIsRateThenNameEqualsLabelPerAxis) {
  const std::vector<SweepCellResult> cells =
      run_serving_sweep(index_recording_grid());
  ASSERT_EQ(cells.size(), 12u);
  EXPECT_EQ(cells[0].point.label, "rate=5 batch=a prefill=x");
  EXPECT_EQ(cells[1].point.label, "rate=5 batch=a prefill=y");
  EXPECT_EQ(cells[2].point.label, "rate=5 batch=b prefill=x");
  EXPECT_EQ(cells[11].point.label, "rate=7.5 batch=c prefill=y");
  // No axes: one cell per rate, labelled by the rate alone.
  ServingSweep rates_only = index_recording_grid();
  rates_only.axes.clear();
  const std::vector<SweepCellResult> bare = run_serving_sweep(rates_only);
  ASSERT_EQ(bare.size(), 2u);
  EXPECT_EQ(bare[1].point.label, "rate=7.5");
}

/// Expects `sweep` to throw ConfigError whose message contains `needle`.
void expect_config_error(const ServingSweep& sweep, const std::string& needle) {
  try {
    run_serving_sweep(sweep);
    FAIL() << "sweep did not throw (expected '" << needle << "')";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(ServingSweepGridTest, DuplicateAxisValuesThrowNamingTheLabel) {
  // Two cells with one label would write the same trace file at once.
  ServingSweep sweep = index_recording_grid();
  sweep.axes[0].labels = {"1", "1", "2"};
  sweep.base.scenario.trace.enabled = true;
  sweep.base.scenario.trace.dir = "sweep_test_collisions";
  expect_config_error(sweep, "rate_5_batch_1_prefill_x");
  // Labels that differ only in characters sanitizing drops collide too,
  // traced or not.
  sweep = index_recording_grid();
  sweep.axes[1].labels = {"a b", "a_b"};
  expect_config_error(sweep, "rate_5_batch_a_prefill_a_b");
}

TEST(ServingSweepGridTest, MalformedAxesAndRatesThrow) {
  ServingSweep sweep = index_recording_grid();
  sweep.axes[1].labels.clear();
  expect_config_error(sweep, "sweep axis 'prefill' has no values");

  sweep = index_recording_grid();
  sweep.axes[0].apply = nullptr;
  expect_config_error(sweep, "sweep axis 'batch' has 3 labels but no apply");

  for (double bad : {0.0, -1.0}) {
    sweep = index_recording_grid();
    sweep.arrival_rates = {5.0, bad};
    expect_config_error(sweep, "arrival rate must be positive");
  }
  sweep = index_recording_grid();
  sweep.arrival_rates.clear();
  expect_config_error(sweep, "sweep needs >= 1 arrival rate");
}

TEST(SweepErrorTest, PointFailureRethrowsFromRunSweep) {
  // A 10-token KV budget cannot admit a 100-token prompt: the failing
  // point must surface as the sweep's exception, not hang or vanish.
  std::vector<Request> requests(1);
  requests[0].id = 0;
  requests[0].arrival_time = 0;
  requests[0].prompt_len = 100;
  requests[0].output_len = 4;
  SweepPoint bad;
  bad.label = "tiny-budget";
  bad.scenario = llama7b_pressured_scenario(
      1, ir::DType::kInt4, EvictionPolicy::kPreemptNewest, /*chunk_tokens=*/0,
      /*kv_budget_tokens=*/10);
  bad.requests = &requests;
  SweepOptions options;
  options.threads = 2;
  try {
    run_sweep({bad}, options);
    FAIL() << "unservable point did not throw";
  } catch (const ConfigError& error) {
    // The rethrown error names the failing point and its label.
    EXPECT_NE(std::string(error.what()).find("sweep point 0"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("tiny-budget"), std::string::npos)
        << error.what();
  }
}

TEST(SweepEquivalenceTest, CallerOwnedSharedCacheReusedAcrossSweeps) {
  // Two separate run_sweep calls over the same deployments warm ONE
  // caller-owned cache: the second sweep adds no new entries and still
  // reproduces the first bit for bit.
  const ServingSweep sweep = pressured_grid();
  RequestStreamConfig stream = sweep.stream;
  stream.arrival_rate = 30.0;
  const auto requests = generate_requests(stream);
  SweepPoint point;
  point.scenario = sweep.base.scenario;
  point.requests = &requests;

  SharedStepCostCache shared;
  SweepOptions options;
  options.threads = 1;
  options.shared_cache = &shared;
  const auto first = run_sweep({point}, options);
  const std::size_t warm_entries = shared.total_entries();
  EXPECT_GT(warm_entries, 0u);
  const auto second = run_sweep({point}, options);
  EXPECT_EQ(shared.total_entries(), warm_entries);
  expect_identical_metrics(first[0], second[0]);
}

TEST(CostCacheSignatureTest, DoublesPrintAtRoundTripPrecision) {
  // A 1e-7 relative change is below the six digits a default stream
  // prints, yet it changes layer costs; each knob must change the
  // signature on its own.
  const models::TransformerConfig model = models::llama2_7b();
  arch::TpuChipConfig chip = arch::cim_tpu_default();
  chip.clock = chip.effective_clock();
  const std::string base = cost_cache_signature(chip, model, 16);
  const double nudge = 1.0 + 1e-7;
  arch::TpuChipConfig clock = chip;
  clock.clock *= nudge;
  arch::TpuChipConfig hbm = chip;
  hbm.memory.hbm.bandwidth *= nudge;
  arch::TpuChipConfig macs = chip;
  macs.cim.core_macs_per_cycle *= nudge;
  EXPECT_NE(cost_cache_signature(clock, model, 16), base);
  EXPECT_NE(cost_cache_signature(hbm, model, 16), base);
  EXPECT_NE(cost_cache_signature(macs, model, 16), base);
  EXPECT_EQ(cost_cache_signature(chip, model, 16), base);
}

TEST(CostCacheSignatureTest, NearlyEqualChipsKeepTheirOwnCostsInASweep) {
  // Two deployments 1e-7 apart in HBM bandwidth share a sweep.  Each cell
  // must reproduce its own standalone run, whichever point misses first.
  const ServingSweep sweep = pressured_grid();
  RequestStreamConfig stream = sweep.stream;
  stream.arrival_rate = 30.0;
  const auto requests = generate_requests(stream);
  SweepPoint base;
  base.label = "base";
  base.scenario = sweep.base.scenario;
  base.scenario.chip_config = arch::cim_tpu_default();
  base.requests = &requests;
  SweepPoint nudged = base;
  nudged.label = "nudged";
  nudged.scenario.chip_config.memory.hbm.bandwidth *= 1.0 + 1e-7;

  const ServingMetrics alone_base = run_serving(base.scenario, requests);
  const ServingMetrics alone_nudged = run_serving(nudged.scenario, requests);
  // The nudge is real: the two deployments' simulated energy differs.
  EXPECT_NE(alone_base.total_energy, alone_nudged.total_energy);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SweepOptions options;
    options.threads = threads;
    const std::vector<ServingMetrics> cells =
        run_sweep({base, nudged}, options);
    ASSERT_EQ(cells.size(), 2u);
    expect_identical_metrics(cells[0], alone_base);
    expect_identical_metrics(cells[1], alone_nudged);
  }
}

TEST(SweepThreadsTest, ExplicitThenEnvThenClamp) {
  unsetenv("CIMTPU_SWEEP_THREADS");
  EXPECT_EQ(resolve_sweep_threads(3, 100), 3);
  EXPECT_EQ(resolve_sweep_threads(8, 2), 2);  // clamped to the point count
  setenv("CIMTPU_SWEEP_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(resolve_sweep_threads(0, 100), 5);
  EXPECT_EQ(resolve_sweep_threads(2, 100), 2);  // explicit beats env
  setenv("CIMTPU_SWEEP_THREADS", "0", 1);
  EXPECT_GE(resolve_sweep_threads(0, 100), 1);  // falls through to hardware
  unsetenv("CIMTPU_SWEEP_THREADS");
  EXPECT_GE(resolve_sweep_threads(0, 100), 1);
}

TEST(SweepEnvTest, MalformedWorkerCountsRejectLoudly) {
  const char* const kBad[] = {
      "abc",                   // non-numeric
      "12x",                   // trailing junk
      "",                      // empty
      "-3",                    // negative: a worker count cannot be
      "99999999999999999999",  // overflows long
      "2147483648",            // overflows int
  };
  for (const char* value : kBad) {
    setenv("CIMTPU_SWEEP_THREADS", value, /*overwrite=*/1);
    EXPECT_THROW(resolve_sweep_threads(0, 10), ConfigError)
        << "CIMTPU_SWEEP_THREADS='" << value << "' was accepted";
    // An explicit count never consults the env: no throw.
    EXPECT_EQ(resolve_sweep_threads(4, 10), 4);
  }
  // Valid values still parse.
  setenv("CIMTPU_SWEEP_THREADS", "7", 1);
  EXPECT_EQ(resolve_sweep_threads(0, 100), 7);
  unsetenv("CIMTPU_SWEEP_THREADS");
}

// --- Packed cost-cache key: collision-freedom at field boundaries ------------

TEST(PackedKeyTest, FieldLayoutAndBoundaries) {
  // len occupies bits 0..39, batch bits 40..62, the kind flag bit 63.
  EXPECT_EQ(StepCostCache::pack_key(false, 1, 1), (1ull << 40) | 1ull);
  EXPECT_EQ(StepCostCache::pack_key(true, 1, 1),
            (1ull << 63) | (1ull << 40) | 1ull);
  const std::int64_t max_batch = (std::int64_t{1} << 23) - 1;
  const std::int64_t max_len = (std::int64_t{1} << 40) - 1;
  // Boundary values pack losslessly and never collide across fields: a
  // max-len key differs from every (batch+1, small-len) key.
  EXPECT_NE(StepCostCache::pack_key(false, 1, max_len),
            StepCostCache::pack_key(false, 2, 1));
  EXPECT_NE(StepCostCache::pack_key(false, max_batch, max_len),
            StepCostCache::pack_key(true, max_batch, max_len));
  // One more token / one more sequence each flip exactly one field.
  EXPECT_EQ(StepCostCache::pack_key(false, 2, 1) -
                StepCostCache::pack_key(false, 1, 1),
            1ull << 40);
  EXPECT_EQ(StepCostCache::pack_key(false, 1, 2) -
                StepCostCache::pack_key(false, 1, 1),
            1ull);
  // Out-of-range shapes would alias another field's bits: rejected.
  EXPECT_THROW(StepCostCache::pack_key(false, 0, 1), InternalError);
  EXPECT_THROW(StepCostCache::pack_key(false, 1, 0), InternalError);
  EXPECT_THROW(StepCostCache::pack_key(false, max_batch + 1, 1),
               InternalError);
  EXPECT_THROW(StepCostCache::pack_key(false, 1, max_len + 1), InternalError);
}

TEST(PackedKeyTest, DistinctShapesNeverAlias) {
  // Dense batch x sparse len sampling across both kinds: every packed key
  // unique (the layout is a bijection on in-range shapes).
  std::vector<std::uint64_t> keys;
  const std::vector<std::int64_t> lens = {1, 127, 128, 129, 4096,
                                          (std::int64_t{1} << 40) - 1};
  for (int kind = 0; kind < 2; ++kind) {
    for (std::int64_t batch : {std::int64_t{1}, std::int64_t{31},
                               (std::int64_t{1} << 23) - 1}) {
      for (std::int64_t len : lens) {
        keys.push_back(StepCostCache::pack_key(kind == 1, batch, len));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(FlatCostTableTest, InsertFindAndGrowPreserveValues) {
  FlatCostTable table;
  // Enough keys to force several growth rehashes from the 256-slot start.
  constexpr int kBatches = 64;
  constexpr int kLens = 40;
  for (int batch = 1; batch <= kBatches; ++batch) {
    for (int len = 1; len <= kLens; ++len) {
      const std::uint64_t key =
          StepCostCache::pack_key(batch % 2 == 0, batch, len * 128);
      StepCost cost;
      cost.latency = static_cast<double>(batch) * 1e-3;
      cost.total_energy = static_cast<double>(len);
      table.insert(key, cost);
    }
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kBatches * kLens));
  for (int batch = 1; batch <= kBatches; ++batch) {
    for (int len = 1; len <= kLens; ++len) {
      const std::uint64_t key =
          StepCostCache::pack_key(batch % 2 == 0, batch, len * 128);
      const StepCost* found = table.find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->latency, static_cast<double>(batch) * 1e-3);
      EXPECT_EQ(found->total_energy, static_cast<double>(len));
    }
  }
  EXPECT_EQ(table.find(StepCostCache::pack_key(true, 12345, 99)), nullptr);
}

}  // namespace
}  // namespace cimtpu::serving
