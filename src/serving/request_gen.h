#pragma once
// Seeded stochastic request streams for the serving simulator.
//
// Production LLM traffic is not a fixed batch: requests arrive over time
// (Poisson in the steady state, bursty under flash crowds) with highly
// skewed prompt/output lengths.  This module turns a seed plus a stream
// specification into a deterministic, sorted arrival trace that the
// continuous-batching scheduler replays.  All randomness flows through
// common/rng.h so a fixed seed reproduces bit-identical traffic on every
// platform.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace cimtpu::serving {

/// One inference request in the stream.
struct Request {
  std::int64_t id = 0;
  Seconds arrival_time = 0;
  std::int64_t prompt_len = 0;  ///< tokens prefilled
  std::int64_t output_len = 0;  ///< tokens to decode (>= 1; the first is
                                ///< emitted by the prefill step)
  std::int64_t priority = 0;    ///< larger = more important; feeds
                                ///< EvictionPolicy::kPriorityVictim
  std::int64_t tenant_id = 0;   ///< multi-tenant QoS: feeds weighted-fair
                                ///< admission and per-tenant metrics
  std::int64_t prefix_id = -1;  ///< shared system-prompt identity: requests
                                ///< with the same id begin with the same
                                ///< `prefix_len` tokens (feeds the paged-KV
                                ///< prefix cache); -1 = unique prompt
  std::int64_t prefix_len = 0;  ///< leading prompt tokens covered by the
                                ///< shared prefix (<= prompt_len)
  Seconds ttft_deadline = 0;    ///< SLO: first token must stream within this
                                ///< many seconds of arrival; 0 = no deadline
  Seconds tpot_deadline = 0;    ///< SLO: steady-state decode must average at
                                ///< most this many seconds per token after the
                                ///< first; 0 = no deadline
};

/// Largest request id a serving engine accepts.  Ids index the engine's
/// int32 slot table; unique ids in [0, kMaxRequestId] also keep every slot
/// index within int32.  A generated stream's ids are dense in
/// [0, num_requests), so a stream holds at most kMaxRequestId + 1 requests.
constexpr std::int64_t kMaxRequestId =
    std::numeric_limits<std::int32_t>::max();

/// Longest mean arrival span (num_requests / arrival_rate) a stream may
/// ask for: 2^30 s.  Latencies are differences of absolute simulated
/// times, and a double's ulp at 2^30 s is 2^-22 s (about 0.24 us); far
/// beyond that, TTFT and TPOT silently lose their digits.
constexpr double kMaxMeanArrivalSpanSeconds = 1073741824.0;  // 2^30

/// SLO verdict of a request that completed at `completion` after streaming
/// its first token at `first_token`: true when every deadline it carries
/// holds — the TTFT deadline, then the TPOT deadline when it decodes more
/// than one token.  A deadline-free request meets vacuously.
bool meets_slo(const Request& request, Seconds first_token,
               Seconds completion);

/// Arrival process of the stream.
enum class ArrivalProcess {
  kPoisson,  ///< exponential inter-arrivals at `arrival_rate`
  kBursty,   ///< two-state Markov-modulated Poisson (flash crowds)
  kDiurnal,  ///< sinusoidally rate-modulated Poisson (day/night cycles)
};

/// kBursty: the stream alternates between a calm state and a burst state
/// whose rate is kBurstFactor times the calm rate, spending kBurstFraction
/// of the time in bursts.  Mean state dwell times are chosen so the
/// long-run average rate stays `arrival_rate`.
inline constexpr double kBurstFactor = 8.0;
inline constexpr double kBurstFraction = 0.1;
static_assert(kBurstFactor > 1.0, "a burst must outpace the calm state");
static_assert(kBurstFraction > 0 && kBurstFraction < 1,
              "the burst fraction must be in (0, 1)");

/// kDiurnal: the instantaneous rate follows
///   rate(t) = arrival_rate * (1 + kDiurnalAmplitude *
///                                 sin(2*pi*t/kDiurnalPeriodSeconds + phase))
/// sampled by Lewis-Shedler thinning at the peak rate, so the long-run
/// average stays `arrival_rate`.  The thinning draws happen only on the
/// kDiurnal path, so kPoisson/kBursty streams stay bit-identical for a
/// given seed.
inline constexpr Seconds kDiurnalPeriodSeconds = 60.0;
inline constexpr double kDiurnalAmplitude = 0.8;
// Amplitude 1 lets the rate touch zero at the trough; beyond 1 the "rate"
// would go negative, which thinning cannot represent.
static_assert(kDiurnalAmplitude >= 0 && kDiurnalAmplitude <= 1,
              "the diurnal amplitude must be in [0, 1]");

/// Deadline-carrying streams scale both deadlines of a request by one
/// factor drawn uniformly from [1 - kDeadlineJitter, 1 + kDeadlineJitter].
inline constexpr double kDeadlineJitter = 0.2;
static_assert(kDeadlineJitter >= 0 && kDeadlineJitter < 1,
              "the deadline jitter must be in [0, 1): a zero-scale "
              "deadline is unmeetable");

std::string arrival_process_name(ArrivalProcess process);

/// Token-length distributions for prompts and outputs.  A fixed length
/// is kUniform with min_len == max_len, which draws no random number.
enum class LengthDistribution {
  kUnset,    ///< no distribution chosen: validate() rejects it
  kUniform,  ///< uniform integer in [min_len, max_len]
  kZipf,     ///< Zipf-ranked over [min_len, max_len]: short lengths common,
             ///< a heavy tail of long ones (exponent kZipfAlpha)
};

/// Tail exponent of every kZipf length spec: rank r weighs r^-kZipfAlpha.
inline constexpr double kZipfAlpha = 1.05;
static_assert(kZipfAlpha > 0, "the Zipf exponent must be positive");

/// Most ranks a kZipf length spec may span (max_len - min_len + 1): 2^20.
/// The sampler builds its CDF (8 bytes and one std::pow per rank) before
/// the first draw, and its guide table holds 32-bit indices; the longest
/// support in use is 4,081 ranks.
constexpr std::int64_t kMaxZipfSupport = std::int64_t{1} << 20;

struct LengthSpec {
  LengthDistribution kind = LengthDistribution::kUnset;  ///< must be set
  std::int64_t min_len = 16;   ///< inclusive lower bound (kUniform / kZipf)
  std::int64_t max_len = 4096; ///< inclusive upper bound (kUniform / kZipf)

  void validate() const;
};

/// Full stream specification.
struct RequestStreamConfig {
  std::uint64_t seed = 42;
  std::int64_t num_requests = 1000;
  double arrival_rate = 10.0;  ///< mean requests/second (every process)
  ArrivalProcess process = ArrivalProcess::kPoisson;

  /// kDiurnal only: radians; shifts the peak (per-tenant mixes stagger
  /// their peaks with this).
  double diurnal_phase = 0.0;

  LengthSpec prompt;
  LengthSpec output;

  // Requests draw a uniform priority class in [0, priority_classes).
  // Priorities come from a SEPARATE rng stream derived from the seed, so
  // changing the class count never perturbs arrival times or lengths.
  std::int64_t priority_classes = 1;

  // Tenant-assignment model: requests draw a tenant id in [0, num_tenants)
  // — uniformly when `tenant_weights` is empty, else proportionally to the
  // weights (size must equal num_tenants, all positive), modeling skewed
  // multi-tenant traffic.  Tenant ids come from their OWN decoupled rng
  // stream, so arrivals, lengths, and priorities stay bit-identical for a
  // given seed whatever the tenant model says.
  std::int64_t num_tenants = 1;
  std::vector<double> tenant_weights;

  // Shared system-prompt prefixes (paged-KV prefix caching): when
  // `prefix_pool_size` > 0 every request draws a prefix id uniformly from
  // [0, prefix_pool_size) and its prompt becomes prefix_len_tokens of
  // shared system prompt followed by the sampled user prompt
  // (prompt_len += prefix_len_tokens).  Prefix ids come from a FOURTH
  // decoupled rng stream, so arrivals, lengths, priorities, and tenants
  // stay bit-identical for a given seed whatever the prefix model — and a
  // pool size of 0 (the default) leaves old streams untouched.
  std::int64_t prefix_pool_size = 0;
  std::int64_t prefix_len_tokens = 0;

  // Per-request SLO deadlines (TTFT/TPOT): when either base value is > 0,
  // every request carries both deadlines scaled by a shared jitter factor
  // (kDeadlineJitter).  The jitter comes from a FIFTH decoupled rng stream
  // that is consulted only when deadlines are enabled, so arrivals,
  // lengths, priorities, tenants, and prefixes stay bit-identical for a
  // given seed — deadline-free streams (the default) are untouched byte
  // for byte.
  Seconds ttft_deadline_s = 0;   ///< base TTFT deadline; 0 disables
  Seconds tpot_deadline_s = 0;   ///< base TPOT deadline; 0 disables

  void validate() const;
};

/// Inverse-CDF lookup over cumulative weights with a guide table (Chen and
/// Asau's cutpoint method): bucket b of n = cdf.size() equal-mass buckets
/// stores the first index whose value reaches the bucket's lower edge, so
/// a lookup starts at its target's bucket and walks back, then forward, to
/// std::lower_bound's exact index whatever the bucket arithmetic rounds
/// to.  A draw takes expected O(1) steps.
class GuidedCdf {
 public:
  GuidedCdf() = default;
  /// `cdf`: non-decreasing, positive last entry, fewer than 2^32 entries.
  explicit GuidedCdf(std::vector<double> cdf);

  bool empty() const { return cdf_.empty(); }
  /// std::lower_bound(cdf.begin(), cdf.end(), target) - cdf.begin(), for
  /// a `target` >= 0.
  std::size_t lower_bound(double target) const;
  /// Index drawn with probability proportional to its weight.
  std::size_t draw(Rng& rng) const {
    return lower_bound(rng.uniform() * cdf_.back());
  }
  /// The cdf.size() + 1 bucket starts (test hook).
  const std::vector<std::uint32_t>& guide() const { return guide_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double buckets_per_weight_ = 0;  ///< cdf.size() / cdf.back()
};

/// Samples integer lengths from a LengthSpec.  The Zipf CDF and its guide
/// table are built once per spec, so a draw takes expected O(1) steps and
/// returns the rank std::lower_bound would.
class LengthSampler {
 public:
  explicit LengthSampler(const LengthSpec& spec);

  std::int64_t sample(Rng& rng) const;

 private:
  LengthSpec spec_;
  GuidedCdf zipf_;  ///< cumulative rank weights (kZipf only)
};

/// Generates the full arrival trace for `config`: `num_requests` requests
/// sorted by arrival time, ids dense in [0, num_requests).
std::vector<Request> generate_requests(const RequestStreamConfig& config);

/// Merges several arrival traces (e.g. one per tenant, each with its own
/// diurnal phase) into one trace sorted by arrival time with dense ids.
/// Ties keep the input order (stream 0 before stream 1); every other field
/// is preserved, so per-stream tenant ids / deadlines survive the merge.
std::vector<Request> merge_request_traces(
    const std::vector<std::vector<Request>>& streams);

}  // namespace cimtpu::serving
