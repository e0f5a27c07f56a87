#pragma once
// Seeded fault injection + recovery for the serving simulator, in the
// spirit of the failure handling DistServe/Mooncake-class deployments
// treat as part of the serving policy itself: hardware blips are typed,
// sim-time-stamped events drawn from a DEDICATED rng stream (per fault
// type, so enabling one process never perturbs another's event times,
// and disabling the subsystem is bit-identical to a build that predates
// it), and "recovery" is an explicit, benchmarkable policy rather than
// an assumption.
//
// Three fault types:
//   * transient chip stall — every engine step inside the stall window
//     pays a latency multiplier (thermal throttle / preemptible-VM
//     neighbour / ECC scrub);
//   * KV-block loss — one random RESIDENT sequence loses its computed
//     device KV (bit flip, page retirement).  Recovered in place from a
//     host shadow copy (KvCacheManager::restore_from_host) or by prompt
//     recompute through backoff re-admission;
//   * device failure — the whole device drops: every resident sequence
//     loses its KV, the prefix cache is flushed, and the engine is down
//     for a restart epoch.  Swapped-out sequences survive (host pool).
//
// Recovery policy (FaultConfig::recovery_enabled): failed in-flight
// requests re-enter through the admission policy with exponential
// backoff and a retry budget; budget exhaustion (or recovery off) sheds
// the request with cause "fault".  A sustained-failure detector
// (DegradationController, hysteresis) switches the engine into graceful
// degradation: shrink the max batch, pause prefix-cache admission,
// tighten EDF shedding.

#include <cstdint>
#include <deque>

#include "common/rng.h"
#include "common/units.h"

namespace cimtpu::serving {

/// Exponential backoff for re-admission after a fault: attempt n waits
/// min(kRetryBackoffBaseSeconds * 2^(n-1), kRetryBackoffMaxSeconds).
inline constexpr Seconds kRetryBackoffBaseSeconds = 0.05;
inline constexpr Seconds kRetryBackoffMaxSeconds = 2.0;

/// Re-admissions allowed per request before it is shed with cause
/// "fault".
inline constexpr int kRetryBudget = 3;

/// A transient stall lasts this long after its event, and every step
/// starting inside it pays this latency multiplier.
inline constexpr Seconds kStallDurationSeconds = 0.5;
inline constexpr double kStallLatencyMultiplier = 4.0;
static_assert(kStallLatencyMultiplier >= 1.0,
              "a stall cannot speed a step up");

/// Downtime of a device failure before the engine restarts.
inline constexpr Seconds kDeviceRestartSeconds = 1.0;

/// Sustained-failure detector (DegradationController): degraded mode
/// enters when at least kDegradeEnterFaults fault events landed within
/// the trailing kDegradeWindowSeconds, and exits once the trailing count
/// falls back to at most kDegradeExitFaults (hysteresis, no flapping on
/// the boundary).
inline constexpr Seconds kDegradeWindowSeconds = 5.0;
inline constexpr int kDegradeEnterFaults = 4;
inline constexpr int kDegradeExitFaults = 1;
static_assert(kDegradeExitFaults >= 0 &&
                  kDegradeExitFaults < kDegradeEnterFaults,
              "the exit count must be below the enter count (hysteresis)");

/// Degraded actions: cap the resident batch at this fraction of
/// SchedulerConfig::max_batch (floor, min 1), pause prefix-cache
/// admission (stop registering/sharing new blocks), and let EDF shed with
/// this much slack (a request is shed once now + slack passes its TTFT
/// deadline).
inline constexpr double kDegradedMaxBatchFraction = 0.5;
static_assert(kDegradedMaxBatchFraction > 0 &&
                  kDegradedMaxBatchFraction <= 1.0,
              "the degraded batch fraction must be in (0, 1]");
inline constexpr Seconds kDegradedExtraShedSlackSeconds = 0.5;

/// Fault-injection knobs, carried by ServingScenario.
/// Default-constructed = subsystem off — the golden-pinned
/// configuration: run_serving never constructs a FaultProcess, never
/// consults the fault rng, and produces bit-identical output to a build
/// without the subsystem.  With faults on, the degradation detector is
/// armed, and a kv-loss repairs in place from the write-through host
/// shadow when the host pool can hold the entry's blocks and recovery is
/// on; otherwise (and for device failures, which lose the device
/// wholesale) the request recomputes: remove, backoff, re-admit.
struct FaultConfig {
  bool enabled = false;

  /// Seed of the DEDICATED fault rng (decoupled from every request-gen
  /// stream: the same workload seed with faults on/off sees identical
  /// arrivals, lengths, priorities, tenants, prefixes, and deadlines).
  std::uint64_t seed = 42;

  // --- Injection processes (independent Poisson, rate 0 = off) ----------
  /// Transient chip stalls (kStallDurationSeconds each).
  double stall_rate_per_s = 0;

  /// KV-block loss: each event strikes one uniformly random resident
  /// sequence (no-op when nothing is resident).
  double kv_loss_rate_per_s = 0;

  /// Full device failure: every resident sequence loses its KV, cached
  /// prefix blocks are flushed, and the engine restarts after
  /// kDeviceRestartSeconds of downtime.
  double device_failure_rate_per_s = 0;

  /// Off: every fault-hit request is dropped (shed, cause "fault") — the
  /// recovery-off baseline of the resilience frontier.  On: the host
  /// shadow repair, then backoff re-admission within kRetryBudget.
  bool recovery_enabled = true;

  void validate() const;
};

/// The fault types FaultProcess emits, in a fixed order used for trace
/// aux codes and stats.
enum class FaultType : std::int64_t {
  kStall = 0,
  kKvLoss = 1,
  kDeviceFailure = 2,
};

const char* fault_type_name(FaultType type);

struct FaultEvent {
  FaultType type = FaultType::kStall;
  Seconds time = 0;
};

/// Merged, seeded fault event source.  Each fault type draws its
/// exponential inter-arrival times from its OWN splitmix-derived
/// sub-stream of FaultConfig::seed, so turning a second process on (or
/// changing its rate) never moves the first one's event times; the
/// kv-loss victim picks use a fourth sub-stream so they do not perturb
/// event times either.  All state is per-run and advances only through
/// poll()/pick_victim(), so sweeps stay bit-identical across thread
/// counts.
class FaultProcess {
 public:
  explicit FaultProcess(const FaultConfig& config);

  /// Pops the earliest pending event with time <= now (events across
  /// types are merged in chronological order; ties break by FaultType
  /// order).  Returns false when no event is due.
  bool poll(Seconds now, FaultEvent* out);

  /// Time of the earliest pending event; +inf when no process is armed.
  Seconds next_event_time() const;

  /// Uniform victim index in [0, resident_count) for a kv-loss event.
  std::int64_t pick_victim(std::int64_t resident_count);

 private:
  Seconds draw_interval(Rng* rng, double rate);

  FaultConfig config_;
  Rng stall_rng_;
  Rng kv_loss_rng_;
  Rng failure_rng_;
  Rng victim_rng_;
  Seconds next_stall_;
  Seconds next_kv_loss_;
  Seconds next_failure_;
};

/// Sustained-failure detector with hysteresis: counts fault events in a
/// trailing kDegradeWindowSeconds; degraded mode enters at >=
/// kDegradeEnterFaults and exits only once the trailing count decays to
/// <= kDegradeExitFaults.
class DegradationController {
 public:
  bool degraded() const { return degraded_; }

  /// Records one fault event at simulated time `now`.
  void on_fault(Seconds now);
  /// Re-evaluates the trailing window at `now`; returns true when the
  /// degraded/normal state flipped (the caller applies or lifts the
  /// degraded actions and emits the kDegrade trace event).
  bool update(Seconds now);

 private:
  std::deque<Seconds> recent_;
  bool degraded_ = false;
};

/// Fault/recovery activity of one run, published under "fault.*" only
/// when the subsystem is enabled (an off run's registry is byte-
/// identical to pre-fault builds).
struct FaultStats {
  std::int64_t stalls = 0;
  std::int64_t kv_losses = 0;        ///< events that struck a resident
  std::int64_t device_failures = 0;
  std::int64_t host_restores = 0;    ///< kv-loss recoveries in place
  Bytes host_restore_bytes = 0;      ///< PCIe re-fetch traffic
  std::int64_t retries = 0;          ///< backoff re-admissions
  std::int64_t dropped = 0;          ///< fault sheds (budget/recovery-off)
  std::int64_t wasted_recompute_tokens = 0;  ///< computed work lost
  std::int64_t degrade_enters = 0;
  std::int64_t degrade_exits = 0;

  /// `visit(name, &FaultStats::member, registry_key...)` per field, in
  /// declaration order (see serving/metrics.h).  Two fields are also
  /// published under an "engine.*" key.  The fleet sums each one.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    using S = FaultStats;
    visit("stalls", &S::stalls, "fault.stalls");
    visit("kv_losses", &S::kv_losses, "fault.kv_losses");
    visit("device_failures", &S::device_failures, "fault.device_failures");
    visit("host_restores", &S::host_restores, "fault.host_restores");
    visit("host_restore_bytes", &S::host_restore_bytes,
          "fault.host_restore_bytes");
    visit("retries", &S::retries, "fault.retries_total",
          "engine.retries_total");
    visit("dropped", &S::dropped, "fault.dropped");
    visit("wasted_recompute_tokens", &S::wasted_recompute_tokens,
          "fault.wasted_recompute_tokens", "engine.wasted_recompute_tokens");
    visit("degrade_enters", &S::degrade_enters, "fault.degrade_enters");
    visit("degrade_exits", &S::degrade_exits, "fault.degrade_exits");
  }
};

}  // namespace cimtpu::serving
