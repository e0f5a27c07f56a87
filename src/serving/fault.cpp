#include "serving/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace cimtpu::serving {

namespace {

constexpr Seconds kNever = std::numeric_limits<double>::infinity();

// Distinct sub-stream seeds: splitmix64's increment constant keeps the
// derived seeds decorrelated while staying a pure function of
// FaultConfig::seed (same seed -> same storm, whatever else is on).
std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t index) {
  return seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
}

}  // namespace

void FaultConfig::validate() const {
  CIMTPU_CONFIG_CHECK(stall_rate_per_s >= 0 && std::isfinite(stall_rate_per_s),
                      "FaultConfig::stall_rate_per_s must be finite and >= 0");
  CIMTPU_CONFIG_CHECK(
      kv_loss_rate_per_s >= 0 && std::isfinite(kv_loss_rate_per_s),
      "FaultConfig::kv_loss_rate_per_s must be finite and >= 0");
  CIMTPU_CONFIG_CHECK(
      device_failure_rate_per_s >= 0 && std::isfinite(device_failure_rate_per_s),
      "FaultConfig::device_failure_rate_per_s must be finite and >= 0");
}

const char* fault_type_name(FaultType type) {
  switch (type) {
    case FaultType::kStall:
      return "stall";
    case FaultType::kKvLoss:
      return "kv_loss";
    case FaultType::kDeviceFailure:
      return "device_failure";
  }
  return "unknown";
}

FaultProcess::FaultProcess(const FaultConfig& config)
    : config_(config),
      stall_rng_(substream_seed(config.seed, 0)),
      kv_loss_rng_(substream_seed(config.seed, 1)),
      failure_rng_(substream_seed(config.seed, 2)),
      victim_rng_(substream_seed(config.seed, 3)) {
  config_.validate();
  next_stall_ = draw_interval(&stall_rng_, config_.stall_rate_per_s);
  next_kv_loss_ = draw_interval(&kv_loss_rng_, config_.kv_loss_rate_per_s);
  next_failure_ =
      draw_interval(&failure_rng_, config_.device_failure_rate_per_s);
}

Seconds FaultProcess::draw_interval(Rng* rng, double rate) {
  if (rate <= 0) return kNever;
  // Inverse-CDF exponential; 1 - uniform() keeps the argument in (0, 1].
  return -std::log(1.0 - rng->uniform()) / rate;
}

Seconds FaultProcess::next_event_time() const {
  return std::min(next_stall_, std::min(next_kv_loss_, next_failure_));
}

bool FaultProcess::poll(Seconds now, FaultEvent* out) {
  const Seconds next = next_event_time();
  if (next > now) return false;
  if (next == next_stall_) {
    out->type = FaultType::kStall;
    out->time = next_stall_;
    next_stall_ += draw_interval(&stall_rng_, config_.stall_rate_per_s);
  } else if (next == next_kv_loss_) {
    out->type = FaultType::kKvLoss;
    out->time = next_kv_loss_;
    next_kv_loss_ += draw_interval(&kv_loss_rng_, config_.kv_loss_rate_per_s);
  } else {
    out->type = FaultType::kDeviceFailure;
    out->time = next_failure_;
    next_failure_ +=
        draw_interval(&failure_rng_, config_.device_failure_rate_per_s);
  }
  return true;
}

std::int64_t FaultProcess::pick_victim(std::int64_t resident_count) {
  CIMTPU_CHECK_MSG(resident_count > 0,
                   "FaultProcess::pick_victim needs a non-empty resident set");
  return victim_rng_.uniform_int(0, resident_count - 1);
}

void DegradationController::on_fault(Seconds now) { recent_.push_back(now); }

bool DegradationController::update(Seconds now) {
  while (!recent_.empty() && recent_.front() < now - kDegradeWindowSeconds) {
    recent_.pop_front();
  }
  const auto count = static_cast<int>(recent_.size());
  if (!degraded_ && count >= kDegradeEnterFaults) {
    degraded_ = true;
    return true;
  }
  if (degraded_ && count <= kDegradeExitFaults) {
    degraded_ = false;
    return true;
  }
  return false;
}

}  // namespace cimtpu::serving
