#include "serving/admission_policy.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/status.h"
#include "serving/obs_registry.h"

namespace cimtpu::serving {

void TenantShare::validate() const {
  CIMTPU_CONFIG_CHECK(tenant_id >= -1,
                      "tenant_id must be >= 0 or -1 (bind to index), got "
                          << tenant_id);
  CIMTPU_CONFIG_CHECK(weight > 0, "tenant weight must be positive, got "
                                      << weight);
  CIMTPU_CONFIG_CHECK(token_rate_cap >= 0,
                      "token_rate_cap must be >= 0, got " << token_rate_cap);
  CIMTPU_CONFIG_CHECK(burst_tokens >= 0,
                      "burst_tokens must be >= 0, got " << burst_tokens);
}

namespace {

/// The Request::tenant_id a share entry applies to: explicit when set,
/// else the entry's own index (the historical positional convention).
std::int64_t resolved_tenant_id(const TenantShare& share, std::size_t index) {
  return share.tenant_id >= 0 ? share.tenant_id
                              : static_cast<std::int64_t>(index);
}

}  // namespace

TenantShare resolve_tenant_share(const std::vector<TenantShare>& tenants,
                                 std::int64_t tenant_id) {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (resolved_tenant_id(tenants[i], i) == tenant_id) return tenants[i];
  }
  return TenantShare{};  // weight 1, uncapped
}

TenantShare AdmissionConfig::share_for(std::int64_t tenant_id) const {
  return resolve_tenant_share(tenants, tenant_id);
}

void AdmissionConfig::validate() const {
  CIMTPU_CONFIG_CHECK(!policy.empty(), "admission policy name is empty");
  CIMTPU_CONFIG_CHECK(aging_rate >= 0,
                      "aging_rate must be >= 0, got " << aging_rate);
  CIMTPU_CONFIG_CHECK(edf_shed_slack_s >= 0,
                      "edf_shed_slack_s must be >= 0, got "
                          << edf_shed_slack_s);
  CIMTPU_CONFIG_CHECK(edf_degraded_extra_slack_s >= 0,
                      "edf_degraded_extra_slack_s must be >= 0, got "
                          << edf_degraded_extra_slack_s);
  for (const TenantShare& share : tenants) share.validate();
  // Two entries naming the same tenant would make weight resolution
  // order-dependent; reject loudly rather than silently preferring one.
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    for (std::size_t j = i + 1; j < tenants.size(); ++j) {
      CIMTPU_CONFIG_CHECK(
          resolved_tenant_id(tenants[i], i) !=
              resolved_tenant_id(tenants[j], j),
          "tenant share entries " << i << " and " << j
                                  << " both resolve to tenant_id "
                                  << resolved_tenant_id(tenants[i], i));
    }
  }
}

void AdmissionPolicy::on_finish(const Request& request, std::int64_t step) {
  (void)request;
  (void)step;
}

void AdmissionPolicy::publish(MetricsRegistry* registry) const {
  (void)registry;  // nothing policy-specific by default
}

void AdmissionPolicy::drain_shed(std::vector<Request>* out) {
  (void)out;  // non-shedding policies drop nothing
}

void AdmissionPolicy::set_degraded(bool degraded) {
  (void)degraded;  // most policies admit the same way either mode
}

// --- FifoAdmission -----------------------------------------------------------

void FifoAdmission::on_enqueue(const Request& request, std::int64_t step) {
  (void)step;
  waiting_.push_back(request);
}

void FifoAdmission::on_preempt_requeue(const Request& request,
                                       std::int64_t step) {
  (void)step;
  waiting_.push_front(request);  // retains FIFO priority
}

const Request* FifoAdmission::select(const AdmissionContext& context) {
  (void)context;
  return waiting_.empty() ? nullptr : &waiting_.front();
}

void FifoAdmission::pop_selected() {
  CIMTPU_CHECK(!waiting_.empty());
  waiting_.pop_front();
}

// --- PriorityAdmission -------------------------------------------------------

void PriorityAdmission::on_enqueue(const Request& request, std::int64_t step) {
  waiting_.push_back(Waiting{request, step, next_seq_++});
}

void PriorityAdmission::on_preempt_requeue(const Request& request,
                                           std::int64_t step) {
  // A recompute victim competes by priority again; its age restarts from
  // the preemption step (it held residency in between, so the original
  // enqueue step no longer measures time spent starved).
  waiting_.push_back(Waiting{request, step, next_seq_++});
}

const Request* PriorityAdmission::select(const AdmissionContext& context) {
  // One linear scan per admission attempt: per engine step that is
  // O(waiting x max_prefill_batch), with max_prefill_batch small (8 by
  // default) and off the default-"fifo" hot path.  A per-step cached
  // ranking would shave the factor but complicates the erase-on-pop
  // bookkeeping; revisit if a priority-admission overload study ever
  // dominates a profile.
  if (waiting_.empty()) return nullptr;
  double best_effective = -std::numeric_limits<double>::infinity();
  std::int64_t best_seq = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    const Waiting& waiting = waiting_[i];
    const double age =
        static_cast<double>(context.step - waiting.enqueue_step);
    const double effective =
        static_cast<double>(waiting.request.priority) + aging_rate_ * age;
    // Strictly-better effective priority wins; among equals the earliest
    // enqueue (lowest seq) wins, so equal-priority traffic stays FIFO.
    if (effective > best_effective ||
        (effective == best_effective && waiting.seq < best_seq)) {
      best_effective = effective;
      best_seq = waiting.seq;
      selected_ = i;
    }
  }
  return &waiting_[selected_].request;
}

void PriorityAdmission::pop_selected() {
  CIMTPU_CHECK(selected_ < waiting_.size());
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(selected_));
}

// --- WeightedFairAdmission ---------------------------------------------------

TenantShare WeightedFairAdmission::share(std::int64_t tenant_id) const {
  return resolve_tenant_share(shares_, tenant_id);
}

void WeightedFairAdmission::clamp_to_virtual_time(TenantState& state) {
  // Only a tenant with NOTHING in the system (no queue, no in-flight
  // work) re-enters at the virtual time; a tenant with resident work is
  // live and keeps its true virtual-work account.
  if (state.queue.empty() && state.in_flight == 0) {
    state.virtual_work = std::max(state.virtual_work, virtual_time_);
  }
}

void WeightedFairAdmission::on_enqueue(const Request& request,
                                       std::int64_t step) {
  (void)step;
  TenantState& state = tenant_states_[request.tenant_id];
  clamp_to_virtual_time(state);
  state.queue.push_back(request);
  ++waiting_total_;
}

void WeightedFairAdmission::on_preempt_requeue(const Request& request,
                                               std::int64_t step) {
  (void)step;
  TenantState& state = tenant_states_[request.tenant_id];
  // NO clamp_to_virtual_time here: the tenant had RESIDENT work (tracked
  // by in_flight), so it was never idle — its virtual work is live, and
  // clamping it up to the virtual time before the refund would swallow
  // the refund entirely and cost the tenant its share for the run.
  // Front of the tenant's own FIFO: seniority within the tenant survives
  // preemption, exactly like the FIFO baseline's push_front.  Refund the
  // admission charge — re-admission recharges it, so recompute churn does
  // not double-count against the tenant's share or rate cap.
  const double tokens = admission_tokens(request);
  const double weight = share(request.tenant_id).weight;
  if (state.in_flight > 0) --state.in_flight;
  state.admitted_tokens = std::max(0.0, state.admitted_tokens - tokens);
  state.virtual_work = std::max(0.0, state.virtual_work - tokens / weight);
  state.queue.push_front(request);
  ++waiting_total_;
}

void WeightedFairAdmission::on_finish(const Request& request,
                                      std::int64_t step) {
  (void)step;
  const auto it = tenant_states_.find(request.tenant_id);
  if (it != tenant_states_.end() && it->second.in_flight > 0) {
    --it->second.in_flight;
  }
}

void WeightedFairAdmission::publish(MetricsRegistry* registry) const {
  CIMTPU_CHECK(registry != nullptr);
  registry->set_counter("admission.waiting",
                        static_cast<std::int64_t>(waiting_total_));
  for (const auto& [tenant_id, state] : tenant_states_) {
    std::ostringstream prefix;
    prefix << "admission.tenant" << tenant_id;
    registry->set_gauge(prefix.str() + ".admitted_tokens",
                        state.admitted_tokens);
    registry->set_gauge(prefix.str() + ".virtual_work", state.virtual_work);
  }
}

const Request* WeightedFairAdmission::select(const AdmissionContext& context) {
  selected_tenant_ = nullptr;
  TenantState* fallback = nullptr;  // least virtual work ignoring caps
  double best_work = std::numeric_limits<double>::infinity();
  double fallback_work = std::numeric_limits<double>::infinity();
  for (auto& [tenant_id, state] : tenant_states_) {  // ascending tenant id
    if (state.queue.empty()) continue;
    if (state.virtual_work < fallback_work) {
      fallback_work = state.virtual_work;
      fallback = &state;
    }
    const TenantShare tenant_share = share(tenant_id);
    if (tenant_share.token_rate_cap > 0) {
      const double allowance = tenant_share.burst_tokens +
                               tenant_share.token_rate_cap * context.now;
      if (state.admitted_tokens + admission_tokens(state.queue.front()) >
          allowance) {
        continue;  // over its rate cap: skip (other tenants may admit)
      }
    }
    if (state.virtual_work < best_work) {
      best_work = state.virtual_work;
      selected_tenant_ = &state;
    }
  }
  // Liveness: with nothing resident the clock cannot advance to refill a
  // cap, so an all-throttled empty device admits the fairest candidate
  // anyway rather than deadlocking the engine.
  if (selected_tenant_ == nullptr && context.device_empty) {
    selected_tenant_ = fallback;
  }
  return selected_tenant_ == nullptr ? nullptr
                                     : &selected_tenant_->queue.front();
}

void WeightedFairAdmission::pop_selected() {
  CIMTPU_CHECK(selected_tenant_ != nullptr &&
               !selected_tenant_->queue.empty());
  const Request& request = selected_tenant_->queue.front();
  const double tokens = admission_tokens(request);
  const double weight = share(request.tenant_id).weight;
  // Virtual time advances to the admitted tenant's pre-charge work: a
  // tenant that goes idle and returns re-enters at this level instead of
  // replaying its banked past.
  virtual_time_ = std::max(virtual_time_, selected_tenant_->virtual_work);
  selected_tenant_->admitted_tokens += tokens;
  selected_tenant_->virtual_work += tokens / weight;
  ++selected_tenant_->in_flight;
  selected_tenant_->queue.pop_front();
  --waiting_total_;
  selected_tenant_ = nullptr;
}

// --- EdfAdmission ------------------------------------------------------------

double EdfAdmission::absolute_deadline(const Request& request) {
  return request.ttft_deadline > 0
             ? request.arrival_time + request.ttft_deadline
             : std::numeric_limits<double>::infinity();
}

void EdfAdmission::on_enqueue(const Request& request, std::int64_t step) {
  (void)step;
  waiting_.push_back(Waiting{request, next_seq_++, /*resumed=*/false});
}

void EdfAdmission::on_preempt_requeue(const Request& request,
                                      std::int64_t step) {
  (void)step;
  // A recompute victim keeps competing by its (settled) deadline but is
  // exempt from shedding: its first token already streamed, so dropping
  // it now would discard finished decode progress for no SLO gain.
  waiting_.push_back(Waiting{request, next_seq_++, /*resumed=*/true});
}

const Request* EdfAdmission::select(const AdmissionContext& context) {
  // Shed pass first: drop every fresh request whose TTFT deadline is
  // provably unreachable (now + slack past it) so the EDF scan below only
  // ranks requests that can still be served in time.  swap-and-pop keeps
  // the pass linear; ordering does not matter because selection re-scans.
  for (std::size_t i = 0; i < waiting_.size();) {
    const Waiting& waiting = waiting_[i];
    const double deadline = absolute_deadline(waiting.request);
    if (!waiting.resumed && context.now + effective_slack() > deadline) {
      shed_.push_back(waiting.request);
      waiting_[i] = waiting_.back();
      waiting_.pop_back();
    } else {
      ++i;
    }
  }
  if (waiting_.empty()) return nullptr;
  double best_deadline = std::numeric_limits<double>::infinity();
  std::int64_t best_seq = std::numeric_limits<std::int64_t>::max();
  bool found = false;
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    const double deadline = absolute_deadline(waiting_[i].request);
    const std::int64_t seq = waiting_[i].seq;
    // Earliest absolute deadline wins; among equals (including the +inf
    // deadline-free tail) the earliest enqueue wins, so deadline-free
    // traffic stays FIFO.
    if (!found || deadline < best_deadline ||
        (deadline == best_deadline && seq < best_seq)) {
      best_deadline = deadline;
      best_seq = seq;
      selected_ = i;
      found = true;
    }
  }
  return &waiting_[selected_].request;
}

void EdfAdmission::pop_selected() {
  CIMTPU_CHECK(selected_ < waiting_.size());
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(selected_));
}

void EdfAdmission::drain_shed(std::vector<Request>* out) {
  CIMTPU_CHECK(out != nullptr);
  out->insert(out->end(), shed_.begin(), shed_.end());
  shed_.clear();
}

// --- Construction by name ---------------------------------------------------

std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const AdmissionConfig& config) {
  config.validate();
  const std::string& name = config.policy;
  if (name == "edf") {
    return std::make_unique<EdfAdmission>(config.edf_shed_slack_s,
                                          config.edf_degraded_extra_slack_s);
  }
  if (name == "fifo") return std::make_unique<FifoAdmission>();
  if (name == "priority") {
    return std::make_unique<PriorityAdmission>(config.aging_rate);
  }
  if (name == "wfq") {
    return std::make_unique<WeightedFairAdmission>(config.tenants);
  }
  throw ConfigError("unknown admission policy '" + name +
                    "'; built-in: edf fifo priority wfq");
}

}  // namespace cimtpu::serving
