#include "serving/request_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/status.h"

namespace cimtpu::serving {

bool meets_slo(const Request& request, Seconds first_token,
               Seconds completion) {
  bool met = true;
  if (request.ttft_deadline > 0) {
    met = first_token - request.arrival_time <= request.ttft_deadline;
  }
  if (met && request.tpot_deadline > 0 && request.output_len > 1) {
    met = (completion - first_token) /
              static_cast<double>(request.output_len - 1) <=
          request.tpot_deadline;
  }
  return met;
}

std::string arrival_process_name(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
    case ArrivalProcess::kDiurnal: return "diurnal";
  }
  return "?";
}

void LengthSpec::validate() const {
  CIMTPU_CONFIG_CHECK(kind != LengthDistribution::kUnset,
                      "length spec has no distribution: set kind to "
                      "kUniform or kZipf");
  CIMTPU_CONFIG_CHECK(min_len >= 1 && max_len >= min_len,
                      "length bounds need 1 <= min (" << min_len
                      << ") <= max (" << max_len << ")");
  if (kind == LengthDistribution::kZipf) {
    CIMTPU_CONFIG_CHECK(max_len - min_len < kMaxZipfSupport,
                        "zipf lengths [" << min_len << ", " << max_len
                        << "] span more than the limit of "
                        << kMaxZipfSupport << " ranks");
  }
}

void RequestStreamConfig::validate() const {
  CIMTPU_CONFIG_CHECK(num_requests >= 1, "stream needs >= 1 request");
  CIMTPU_CONFIG_CHECK(num_requests <= kMaxRequestId + 1,
                      "num_requests " << num_requests << " exceeds the limit "
                                      << kMaxRequestId + 1
                                      << " (ids are dense from 0 and an "
                                         "engine accepts ids up to "
                                      << kMaxRequestId << ")");
  CIMTPU_CONFIG_CHECK(arrival_rate > 0, "arrival_rate must be positive");
  CIMTPU_CONFIG_CHECK(
      static_cast<double>(num_requests) / arrival_rate <=
          kMaxMeanArrivalSpanSeconds,
      "arrival_rate " << arrival_rate << " req/s spreads " << num_requests
                      << " requests over a mean "
                      << static_cast<double>(num_requests) / arrival_rate
                      << " s, past the limit 2^30 s (latencies are "
                         "differences of absolute times and lose precision "
                         "beyond it)");
  CIMTPU_CONFIG_CHECK(priority_classes >= 1,
                      "priority_classes must be >= 1");
  CIMTPU_CONFIG_CHECK(num_tenants >= 1, "num_tenants must be >= 1");
  CIMTPU_CONFIG_CHECK(
      tenant_weights.empty() ||
          tenant_weights.size() == static_cast<std::size_t>(num_tenants),
      "tenant_weights has " << tenant_weights.size() << " entries for "
                            << num_tenants << " tenants");
  for (double weight : tenant_weights) {
    CIMTPU_CONFIG_CHECK(weight > 0, "tenant weights must be positive");
  }
  CIMTPU_CONFIG_CHECK(prefix_pool_size >= 0,
                      "prefix_pool_size must be >= 0");
  CIMTPU_CONFIG_CHECK(prefix_len_tokens >= 0,
                      "prefix_len_tokens must be >= 0");
  CIMTPU_CONFIG_CHECK(
      (prefix_pool_size > 0) == (prefix_len_tokens > 0),
      "prefix_pool_size (" << prefix_pool_size << ") and prefix_len_tokens ("
                           << prefix_len_tokens
                           << ") must be set together (both 0 disables "
                              "shared prefixes)");
  CIMTPU_CONFIG_CHECK(ttft_deadline_s >= 0,
                      "ttft_deadline_s must be >= 0 (0 disables)");
  CIMTPU_CONFIG_CHECK(tpot_deadline_s >= 0,
                      "tpot_deadline_s must be >= 0 (0 disables)");
  prompt.validate();
  output.validate();
}

GuidedCdf::GuidedCdf(std::vector<double> cdf) : cdf_(std::move(cdf)) {
  const std::size_t n = cdf_.size();
  CIMTPU_CHECK_MSG(n >= 1 && n <= std::numeric_limits<std::uint32_t>::max() &&
                       cdf_.back() > 0,
                   "a guided CDF needs 1 to 2^32 - 1 entries and positive "
                   "total weight, got " << n << " entries");
  const double total = cdf_.back();
  buckets_per_weight_ = static_cast<double>(n) / total;
  guide_.resize(n + 1);
  std::size_t j = 0;
  for (std::size_t b = 0; b <= n; ++b) {
    const double edge =
        static_cast<double>(b) * total / static_cast<double>(n);
    while (j < n && cdf_[j] < edge) ++j;
    guide_[b] = static_cast<std::uint32_t>(j);
  }
}

std::size_t GuidedCdf::lower_bound(double target) const {
  const std::size_t n = cdf_.size();
  std::size_t j = guide_[static_cast<std::size_t>(
      std::min(target * buckets_per_weight_, static_cast<double>(n)))];
  // The bucket only picks the start: rounding may land it past the answer
  // (walk back over entries >= target, equal ones included) or short of
  // it (walk forward over entries < target).
  while (j > 0 && cdf_[j - 1] >= target) --j;
  while (j < n && cdf_[j] < target) ++j;
  return j;
}

LengthSampler::LengthSampler(const LengthSpec& spec) : spec_(spec) {
  spec_.validate();
  if (spec_.kind == LengthDistribution::kZipf) {
    const std::int64_t support = spec_.max_len - spec_.min_len + 1;
    std::vector<double> cdf;
    cdf.reserve(static_cast<std::size_t>(support));
    double cumulative = 0;
    for (std::int64_t rank = 1; rank <= support; ++rank) {
      cumulative += std::pow(static_cast<double>(rank), -kZipfAlpha);
      cdf.push_back(cumulative);
    }
    zipf_ = GuidedCdf(std::move(cdf));
  }
}

std::int64_t LengthSampler::sample(Rng& rng) const {
  if (spec_.kind == LengthDistribution::kZipf) {
    return spec_.min_len + static_cast<std::int64_t>(zipf_.draw(rng));
  }
  // One value is a fixed length: it takes no draw, so the stream's later
  // draws do not depend on it.
  if (spec_.min_len == spec_.max_len) return spec_.min_len;
  return rng.uniform_int(spec_.min_len, spec_.max_len);
}

namespace {

/// Exponential variate with the given rate (inverse-CDF on (0, 1]).
Seconds exponential(Rng& rng, double rate) {
  // 1 - uniform() lies in (0, 1]; log of it is finite.
  return -std::log(1.0 - rng.uniform()) / rate;
}

constexpr double kTwoPi = 6.283185307179586;

/// Next arrival of a sinusoidally modulated Poisson process after `now`,
/// via Lewis-Shedler thinning: candidates at the constant peak rate, each
/// accepted with probability rate(candidate) / peak.
Seconds diurnal_arrival(Rng& rng, const RequestStreamConfig& config,
                        Seconds now) {
  const double peak = config.arrival_rate * (1.0 + kDiurnalAmplitude);
  for (;;) {
    now += exponential(rng, peak);
    const double rate =
        config.arrival_rate *
        (1.0 + kDiurnalAmplitude *
                   std::sin(kTwoPi * now / kDiurnalPeriodSeconds +
                            config.diurnal_phase));
    if (rng.uniform() * peak <= rate) return now;
  }
}

}  // namespace

std::vector<Request> generate_requests(const RequestStreamConfig& config) {
  config.validate();
  Rng rng(config.seed);
  // Decoupled stream for priorities: arrivals and lengths stay
  // bit-identical for a given seed whatever priority_classes is set to.
  Rng priority_rng(config.seed ^ 0xa5a5c3c3deadbeefull);
  // Third decoupled stream for tenant assignment, same reasoning: the
  // tenant model never perturbs arrivals, lengths, or priorities.
  Rng tenant_rng(config.seed ^ 0x3c3c5a5a0badf00dull);
  // Fourth decoupled stream for shared-prefix assignment: enabling system
  // prompts never perturbs any other field of the trace.
  Rng prefix_rng(config.seed ^ 0x517e0fcafe5eed11ull);
  // Fifth decoupled stream for SLO deadline jitter: consulted only when
  // deadlines are enabled, so every pre-SLO stream is bit-identical.
  Rng deadline_rng(config.seed ^ 0x7d1f5105d11e5eedull);
  const bool deadlines =
      config.ttft_deadline_s > 0 || config.tpot_deadline_s > 0;
  const LengthSampler prompt_sampler(config.prompt);
  const LengthSampler output_sampler(config.output);
  // Cumulative tenant weights for the skewed-assignment draw.
  GuidedCdf tenant_cdf;
  if (config.num_tenants > 1 && !config.tenant_weights.empty()) {
    std::vector<double> cdf;
    cdf.reserve(config.tenant_weights.size());
    double cumulative = 0;
    for (double weight : config.tenant_weights) {
      cumulative += weight;
      cdf.push_back(cumulative);
    }
    tenant_cdf = GuidedCdf(std::move(cdf));
  }

  // Two-state MMPP rates chosen so the time-average rate is arrival_rate:
  //   avg = f * burst_rate + (1 - f) * calm_rate,  burst_rate = B * calm_rate.
  const double calm_rate =
      config.arrival_rate / (1.0 + kBurstFraction * (kBurstFactor - 1.0));
  const double burst_rate = calm_rate * kBurstFactor;
  // Mean dwell times: bursts last long enough to cover ~16 burst arrivals.
  const Seconds mean_burst_dwell = 16.0 / burst_rate;
  const Seconds mean_calm_dwell =
      mean_burst_dwell * (1.0 - kBurstFraction) / kBurstFraction;

  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(config.num_requests));

  Seconds now = 0;
  bool in_burst = false;
  Seconds state_ends = config.process == ArrivalProcess::kBursty
                           ? exponential(rng, 1.0 / mean_calm_dwell)
                           : 0;
  for (std::int64_t id = 0; id < config.num_requests; ++id) {
    if (config.process == ArrivalProcess::kPoisson) {
      now += exponential(rng, config.arrival_rate);
    } else if (config.process == ArrivalProcess::kDiurnal) {
      now = diurnal_arrival(rng, config, now);
    } else {
      // Draw the next arrival in the current state; cross state boundaries
      // until the arrival lands inside the active state's window.
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
    request.prompt_len = prompt_sampler.sample(rng);
    // Every request decodes at least one token (emitted by prefill).
    request.output_len = std::max<std::int64_t>(1, output_sampler.sample(rng));
    request.priority =
        config.priority_classes > 1
            ? priority_rng.uniform_int(0, config.priority_classes - 1)
            : 0;
    if (config.num_tenants > 1) {
      if (tenant_cdf.empty()) {
        request.tenant_id = tenant_rng.uniform_int(0, config.num_tenants - 1);
      } else {
        request.tenant_id =
            static_cast<std::int64_t>(tenant_cdf.draw(tenant_rng));
      }
    }
    if (config.prefix_pool_size > 0) {
      // Shared system prompt: prepended to the sampled user prompt, so the
      // total prompt grows by the prefix length.
      request.prefix_id =
          prefix_rng.uniform_int(0, config.prefix_pool_size - 1);
      request.prefix_len = config.prefix_len_tokens;
      request.prompt_len += config.prefix_len_tokens;
    }
    if (deadlines) {
      // One shared jitter factor per request: a request that tolerates a
      // loose TTFT also tolerates a loose TPOT (per-class SLOs, not
      // per-metric noise).
      const double scale =
          1.0 + kDeadlineJitter * (2.0 * deadline_rng.uniform() - 1.0);
      request.ttft_deadline = config.ttft_deadline_s * scale;
      request.tpot_deadline = config.tpot_deadline_s * scale;
    }
    requests.push_back(request);
  }
  return requests;
}

std::vector<Request> merge_request_traces(
    const std::vector<std::vector<Request>>& streams) {
  std::vector<Request> merged;
  std::size_t total = 0;
  for (const std::vector<Request>& stream : streams) total += stream.size();
  merged.reserve(total);
  for (const std::vector<Request>& stream : streams) {
    merged.insert(merged.end(), stream.begin(), stream.end());
  }
  // stable_sort keeps concatenation order among equal arrivals, so the
  // merge is deterministic whatever the per-stream phases do.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  for (std::size_t i = 0; i < merged.size(); ++i) {
    merged[i].id = static_cast<std::int64_t>(i);
  }
  return merged;
}

}  // namespace cimtpu::serving
