// SLO-aware scheduling wall: per-request deadline streams (the decoupled
// fifth rng stream must leave every other field bit-identical),
// EdfAdmission ordering and deadline shedding, the shed-never-completes
// invariant, closed-form slo_attainment, the simulated-time-horizon
// bugfixes (idle-advance clamping, unconditional shed counting),
// tenant-share resolution by id, diurnal / merged / bursty traffic
// shaping, and the canonical SLO frontier ordering (EDF
// strictly beats FIFO at the highest swept arrival rate — the pin behind
// the schema-v7 "slo_frontier" bench block).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/status.h"
#include "models/model_zoo.h"
#include "serving/admission_policy.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

Request make_request(std::int64_t id, Seconds arrival, Seconds ttft_deadline,
                     Seconds tpot_deadline = 0) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = 32;
  request.output_len = 8;
  request.ttft_deadline = ttft_deadline;
  request.tpot_deadline = tpot_deadline;
  return request;
}

// --- Deadline stream: fifth rng stream neutrality ----------------------------

TEST(DeadlineStreamTest, DeadlineDrawsLeaveOtherFieldsBitIdentical) {
  // The same seed with and without deadlines: arrivals, lengths,
  // priorities, tenants, and prefixes must match bit for bit — the
  // deadline rng is a decoupled stream, so enabling it never perturbs
  // the golden-pinned traffic.
  RequestStreamConfig plain = zipf_chat_stream(/*seed=*/42,
                                               /*num_requests=*/300,
                                               /*arrival_rate=*/20.0,
                                               /*priority_classes=*/3);
  plain.num_tenants = 2;
  RequestStreamConfig with_deadlines = plain;
  with_deadlines.ttft_deadline_s = 2.0;
  with_deadlines.tpot_deadline_s = 0.1;

  const std::vector<Request> a = generate_requests(plain);
  const std::vector<Request> b = generate_requests(with_deadlines);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].output_len, b[i].output_len);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].tenant_id, b[i].tenant_id);
    EXPECT_EQ(a[i].prefix_id, b[i].prefix_id);
    EXPECT_EQ(a[i].prefix_len, b[i].prefix_len);
    // Deadline-free streams carry zeros; deadline streams carry both
    // deadlines inside the jitter envelope, sharing one jitter factor.
    EXPECT_EQ(a[i].ttft_deadline, 0.0);
    EXPECT_EQ(a[i].tpot_deadline, 0.0);
    EXPECT_GE(b[i].ttft_deadline, 2.0 * (1.0 - kDeadlineJitter));
    EXPECT_LE(b[i].ttft_deadline, 2.0 * (1.0 + kDeadlineJitter));
    EXPECT_GE(b[i].tpot_deadline, 0.1 * (1.0 - kDeadlineJitter));
    EXPECT_LE(b[i].tpot_deadline, 0.1 * (1.0 + kDeadlineJitter));
    EXPECT_NEAR(b[i].ttft_deadline / 2.0, b[i].tpot_deadline / 0.1, 1e-12);
  }
}

TEST(DeadlineStreamTest, ValidationRejectsBadDeadlineConfigs) {
  RequestStreamConfig stream = slo_chat_stream(42, 10, 5.0);
  stream.ttft_deadline_s = -1.0;
  EXPECT_THROW(generate_requests(stream), ConfigError);
  stream = slo_chat_stream(42, 10, 5.0);
  stream.tpot_deadline_s = -1.0;
  EXPECT_THROW(generate_requests(stream), ConfigError);
}

// --- EdfAdmission: ordering and shedding -------------------------------------

TEST(EdfAdmissionTest, SelectsEarliestAbsoluteDeadlineFirst) {
  AdmissionConfig config;
  config.policy = "edf";
  std::unique_ptr<AdmissionPolicy> edf = make_admission_policy(config);

  // Absolute deadlines: r0 = 0+5, r1 = 1+1 (earliest), r2/r3 deadline-free
  // (sort last, FIFO among themselves).
  edf->on_enqueue(make_request(0, 0.0, 5.0));
  edf->on_enqueue(make_request(1, 1.0, 1.0));
  edf->on_enqueue(make_request(2, 0.5, 0.0));
  edf->on_enqueue(make_request(3, 0.6, 0.0));

  std::vector<std::int64_t> order;
  while (const Request* head = edf->select(/*now=*/1.5)) {
    order.push_back(head->id);
    edf->pop_selected();
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 0, 2, 3}));
}

std::vector<std::int64_t> drained_ids(AdmissionPolicy& policy) {
  std::vector<Request> shed;
  policy.drain_shed(&shed);
  std::vector<std::int64_t> ids;
  for (const Request& request : shed) ids.push_back(request.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(EdfAdmissionTest, ShedsLateRequestsAndDegradedSlackAndDrainsThem) {
  AdmissionConfig config;
  config.policy = "edf";
  std::unique_ptr<AdmissionPolicy> edf = make_admission_policy(config);

  edf->on_enqueue(make_request(0, 0.0, 1.0));   // deadline 1.0 < now — late
  edf->on_enqueue(make_request(1, 0.0, 10.0));  // feasible
  edf->on_enqueue(make_request(2, 0.0, 2.4));   // feasible until degraded

  const Request* head = edf->select(/*now=*/2.0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 2);  // the earliest deadline still reachable
  EXPECT_EQ(drained_ids(*edf), (std::vector<std::int64_t>{0}));
  // Drained means gone: a second drain yields nothing.
  EXPECT_TRUE(drained_ids(*edf).empty());

  // Degraded, EDF sheds with the extra slack: 2.4 < 2.0 + 0.5 — late.
  static_assert(kDegradedExtraShedSlackSeconds == 0.5);
  edf->set_degraded(true);
  head = edf->select(/*now=*/2.0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 1);
  EXPECT_EQ(drained_ids(*edf), (std::vector<std::int64_t>{2}));

  // Recovered, the slack is gone again: 10.0 stays feasible at 9.6.
  edf->set_degraded(false);
  head = edf->select(/*now=*/9.6);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 1);
  EXPECT_TRUE(drained_ids(*edf).empty());
}

TEST(EdfAdmissionTest, ResumedVictimsAreExemptFromShedding) {
  AdmissionConfig config;
  config.policy = "edf";
  std::unique_ptr<AdmissionPolicy> edf = make_admission_policy(config);

  // A preemption victim re-queued past its deadline must NOT be shed: it
  // already streamed its first token, so its TTFT verdict is settled and
  // dropping it would throw away completed decode work.
  edf->on_preempt_requeue(make_request(0, 0.0, 1.0));

  const Request* head = edf->select(/*now=*/100.0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 0);
  std::vector<Request> shed;
  edf->drain_shed(&shed);
  EXPECT_TRUE(shed.empty());
}

// --- End-to-end: EDF vs the other disciplines on one overloaded stream -------

ServingMetrics run_slo_policy(const std::string& admission,
                              const std::vector<Request>& requests,
                              ServingTrace* trace = nullptr) {
  ServingScenario scenario = slo_scenario(ir::DType::kInt8, admission);
  if (trace != nullptr) {
    scenario.trace.enabled = true;
  }
  return run_serving(scenario, requests, nullptr, trace);
}

TEST(EdfSchedulingTest, EdfAttainmentBeatsOtherPoliciesUnderOverload) {
  const std::vector<Request> requests = generate_requests(
      slo_chat_stream(/*seed=*/42, /*num_requests=*/300,
                      /*arrival_rate=*/25.0));
  const ServingMetrics fifo = run_slo_policy("fifo", requests);
  const ServingMetrics wfq = run_slo_policy("wfq", requests);
  const ServingMetrics edf = run_slo_policy("edf", requests);

  // Only EDF sheds; the non-shedding disciplines lose to queueing delay.
  EXPECT_GT(edf.counters.shed_deadline, 0);
  EXPECT_EQ(fifo.counters.shed_deadline, 0);
  EXPECT_EQ(wfq.counters.shed_deadline, 0);
  EXPECT_GT(edf.slo_attainment, fifo.slo_attainment);
  EXPECT_GT(edf.slo_attainment, wfq.slo_attainment);
  EXPECT_GT(edf.slo_goodput_tokens_per_second,
            fifo.slo_goodput_tokens_per_second);
}

TEST(EdfSchedulingTest, ShedRequestsNeverCompleteAndAccountingCloses) {
  const std::vector<Request> requests = generate_requests(
      slo_chat_stream(/*seed=*/7, /*num_requests=*/300,
                      /*arrival_rate=*/25.0));
  ServingTrace trace;
  const ServingMetrics metrics = run_slo_policy("edf", requests, &trace);

  std::set<std::int64_t> shed_ids, finished_ids;
  std::int64_t deadline_sheds = 0, horizon_sheds = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kShed) {
      EXPECT_TRUE(shed_ids.insert(event.request_id).second)
          << "request " << event.request_id << " shed twice";
      (event.aux == 0 ? deadline_sheds : horizon_sheds) += 1;
    } else if (event.type == TraceEventType::kFinish) {
      finished_ids.insert(event.request_id);
    }
  }
  for (std::int64_t id : shed_ids) {
    EXPECT_EQ(finished_ids.count(id), 0u)
        << "request " << id << " was shed AND finished";
  }
  // Trace events agree with the unconditional counters, and every arrived
  // request is exactly one of completed / deadline-shed / horizon-cut.
  EXPECT_EQ(deadline_sheds, metrics.counters.shed_deadline);
  EXPECT_EQ(horizon_sheds, metrics.counters.shed_horizon);
  EXPECT_GT(metrics.counters.shed_deadline, 0);
  std::int64_t arrived = 0;
  for (const Request& request : requests) {
    if (request.arrival_time < metrics.sim_end_seconds) arrived += 1;
  }
  EXPECT_EQ(metrics.completed + metrics.counters.total_shed(), arrived);
}

// --- slo_attainment: closed form on a hand-built scenario --------------------

TEST(SloMetricsTest, AttainmentIsMetOverArrivedInClosedForm) {
  // Three spaced-out requests on the uncontended baseline: r0's generous
  // deadlines are met, r1's 1 ns TTFT deadline cannot be, r2 carries no
  // deadline (counts as met).  Exactly 2 of 3 arrived requests meet ->
  // attainment is exactly 2/3, and SLO goodput counts only r0 + r2 tokens.
  std::vector<Request> requests = {
      make_request(0, 0.0, /*ttft=*/100.0, /*tpot=*/1.0),
      make_request(1, 10.0, /*ttft=*/1e-9),
      make_request(2, 20.0, /*ttft=*/0.0),
  };
  const ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt8);
  const ServingMetrics metrics = run_serving(scenario, requests);
  ASSERT_EQ(metrics.completed, 3);
  EXPECT_EQ(metrics.slo_met, 2);
  EXPECT_EQ(metrics.slo_attainment, 2.0 / 3.0);
  ASSERT_GT(metrics.makespan, 0.0);
  EXPECT_EQ(metrics.slo_goodput_tokens_per_second, 16.0 / metrics.makespan);
  // All three completed, so raw goodput counts all 24 output tokens.
  EXPECT_EQ(metrics.goodput_tokens_per_second, 24.0 / metrics.makespan);
}

TEST(SloMetricsTest, DeadlineFreeRunsReportFullAttainment) {
  std::vector<Request> requests = {make_request(0, 0.0, 0.0),
                                   make_request(1, 0.1, 0.0)};
  const ServingMetrics metrics = run_serving(
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt8), requests);
  EXPECT_EQ(metrics.completed, 2);
  EXPECT_EQ(metrics.slo_met, 2);
  EXPECT_EQ(metrics.slo_attainment, 1.0);
}

// --- Horizon bugfixes --------------------------------------------------------

TEST(HorizonTest, IdleAdvanceNeverSkipsPastTheHorizon) {
  // r1 arrives at t=100, far beyond the 10 s horizon: the idle engine
  // must stop AT the horizon, not fast-forward to the arrival and run
  // work that happens outside the simulated window.
  std::vector<Request> requests = {make_request(0, 0.0, 0.0),
                                   make_request(1, 100.0, 0.0)};
  ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt8);
  scenario.max_sim_seconds = 10.0;
  const ServingMetrics metrics = run_serving(scenario, requests);
  EXPECT_EQ(metrics.sim_end_seconds, 10.0);
  EXPECT_EQ(metrics.completed, 1);
  // r1 never arrived inside the window: not completed, not shed, and not
  // counted against attainment.
  EXPECT_EQ(metrics.counters.shed_horizon, 0);
  EXPECT_EQ(metrics.slo_attainment, 1.0);
}

TEST(HorizonTest, HorizonCutsAreCountedWithTracingOffAndOn) {
  // An overloaded window leaves requests in flight at the cut.  The
  // shed_horizon counter must report them identically with tracing off
  // (the bug: lifecycle closure used to live behind the trace flag) and
  // the traced run must emit matching kShed events.
  const std::vector<Request> requests = generate_requests(
      slo_chat_stream(/*seed=*/42, /*num_requests=*/200,
                      /*arrival_rate=*/25.0));
  ServingScenario scenario = slo_scenario(ir::DType::kInt8, "fifo");

  const ServingMetrics untraced = run_serving(scenario, requests);
  scenario.trace.enabled = true;
  ServingTrace trace;
  const ServingMetrics traced =
      run_serving(scenario, requests, nullptr, &trace);

  EXPECT_GT(untraced.counters.shed_horizon, 0);
  EXPECT_EQ(untraced.counters.shed_horizon, traced.counters.shed_horizon);
  EXPECT_EQ(untraced.counters.shed_deadline, traced.counters.shed_deadline);
  EXPECT_EQ(untraced.completed, traced.completed);
  std::int64_t horizon_events = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kShed && event.aux == 1) {
      horizon_events += 1;
    }
  }
  EXPECT_EQ(horizon_events, traced.counters.shed_horizon);
}

// --- Tenant weights ----------------------------------------------------------

TEST(TenantWeightTest, WeightsIndexByTenantIdAndUnlistedTenantsWeighOne) {
  AdmissionConfig config;
  config.tenant_weights = {3.0, 1.5};
  config.validate();
  EXPECT_EQ(config.tenant_weight(0), 3.0);
  EXPECT_EQ(config.tenant_weight(1), 1.5);
  EXPECT_EQ(config.tenant_weight(2), 1.0);
  EXPECT_EQ(AdmissionConfig{}.tenant_weight(0), 1.0);
}

TEST(TenantWeightTest, NonPositiveWeightsAreRejected) {
  for (double weight : {0.0, -1.0}) {
    AdmissionConfig config;
    config.tenant_weights = {1.0, weight};
    EXPECT_THROW(config.validate(), ConfigError);
  }
}

// --- Diurnal and merged traffic ----------------------------------------------

TEST(DiurnalStreamTest, ArrivalRateFollowsTheSinusoid) {
  RequestStreamConfig stream = multi_tenant_pressure_stream(
      /*seed=*/42, /*num_requests=*/3000, /*arrival_rate=*/10.0,
      /*num_tenants=*/1);
  stream.process = ArrivalProcess::kDiurnal;
  const std::vector<Request> requests = generate_requests(stream);
  // Phase 0: sin is positive over the first half of each period, so the
  // "day" half-cycles must collect well over half the arrivals.
  std::int64_t day = 0, night = 0;
  for (const Request& request : requests) {
    const double t = std::fmod(request.arrival_time, kDiurnalPeriodSeconds);
    (t < kDiurnalPeriodSeconds / 2 ? day : night) += 1;
  }
  EXPECT_GT(day, 2 * night);
  // Sorted, dense ids — the generate_requests contract holds for kDiurnal.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_GE(requests[i].arrival_time, requests[i - 1].arrival_time);
    }
  }
}

TEST(DiurnalStreamTest, DiurnalDrawsLeavePoissonStreamsUntouched) {
  // The thinning rng draws happen only on the kDiurnal path: a Poisson
  // stream generated before and after flipping an unrelated config copy
  // to kDiurnal stays bit-identical (same seed, same draws).
  const RequestStreamConfig poisson = multi_tenant_pressure_stream(
      /*seed=*/42, /*num_requests=*/100, /*arrival_rate=*/10.0,
      /*num_tenants=*/1);
  const std::vector<Request> a = generate_requests(poisson);
  const std::vector<Request> b = generate_requests(poisson);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
  }
}

TEST(DiurnalStreamTest, TenantMixMergesSortedDenseAndBalanced) {
  const std::vector<Request> requests = diurnal_tenant_mix_requests(
      /*seed=*/42, /*requests_per_tenant=*/150, /*per_tenant_rate=*/5.0,
      /*num_tenants=*/3);
  ASSERT_EQ(requests.size(), 450u);
  std::int64_t per_tenant[3] = {0, 0, 0};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_GE(requests[i].arrival_time, requests[i - 1].arrival_time);
    }
    ASSERT_GE(requests[i].tenant_id, 0);
    ASSERT_LT(requests[i].tenant_id, 3);
    per_tenant[requests[i].tenant_id] += 1;
  }
  EXPECT_EQ(per_tenant[0], 150);
  EXPECT_EQ(per_tenant[1], 150);
  EXPECT_EQ(per_tenant[2], 150);
}

// Gaps between consecutive arrivals far below the 0.1 s mean of a 10 req/s
// stream.
std::int64_t tight_gaps(const std::vector<Request>& requests) {
  std::int64_t count = 0;
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_time - requests[i - 1].arrival_time < 0.1 / 16.0) {
      count += 1;
    }
  }
  return count;
}

TEST(FlashCrowdStreamTest, BurstsCompressInterArrivals) {
  // Flash crowd: the SLO chat lengths under the two-state bursty arrival
  // process (kBurstFactor x the calm rate for kBurstFraction of the time).
  RequestStreamConfig stream = slo_chat_stream(
      /*seed=*/42, /*num_requests=*/2000, /*arrival_rate=*/10.0);
  const std::vector<Request> poisson = generate_requests(stream);
  stream.process = ArrivalProcess::kBursty;
  const std::vector<Request> bursty = generate_requests(stream);
  // Bursts must produce gaps far below the mean, well beyond what a pure
  // Poisson stream at the same mean rate and seed shows.
  EXPECT_GT(tight_gaps(bursty), 100);
  EXPECT_GT(tight_gaps(bursty), tight_gaps(poisson));
}

// --- The canonical SLO frontier ----------------------------------------------

TEST(SloFrontierTest, EdfStrictlyBeatsFifoAtTheHighestSweptRate) {
  models::TransformerConfig model = models::llama2_7b();
  model.dtype = ir::DType::kInt4;  // the bench model: this test pins the
                                   // ordering the schema-v7 JSON reports
  const ServingSweep sweep = slo_frontier_sweep(model, /*seed=*/42);
  const std::vector<SweepCellResult> cells = run_serving_sweep(sweep);
  ASSERT_EQ(cells.size(), slo_frontier_rates().size() * 2);

  // Grid order is rate-major with admission {fifo, edf} innermost.
  const SweepCellResult& top_fifo = cells[cells.size() - 2];
  const SweepCellResult& top_edf = cells[cells.size() - 1];
  ASSERT_EQ(top_fifo.point.scenario.scheduler.admission.policy, "fifo");
  ASSERT_EQ(top_edf.point.scenario.scheduler.admission.policy, "edf");
  ASSERT_EQ(top_fifo.arrival_rate, slo_frontier_rates().back());

  EXPECT_GT(top_edf.metrics.slo_attainment, top_fifo.metrics.slo_attainment);
  EXPECT_GT(top_edf.metrics.slo_goodput_tokens_per_second,
            top_fifo.metrics.slo_goodput_tokens_per_second);
  EXPECT_GT(top_edf.metrics.counters.shed_deadline, 0);
  EXPECT_EQ(top_fifo.metrics.counters.shed_deadline, 0);
  for (const SweepCellResult& cell : cells) {
    EXPECT_GE(cell.metrics.slo_attainment, 0.0);
    EXPECT_LE(cell.metrics.slo_attainment, 1.0);
    EXPECT_LE(cell.metrics.completed + cell.metrics.counters.total_shed(),
              kSloFrontierRequests);
  }
}

}  // namespace
}  // namespace cimtpu::serving
