#include "serving/admission_policy.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/status.h"
#include "serving/obs_registry.h"

namespace cimtpu::serving {

double AdmissionConfig::tenant_weight(std::int64_t tenant_id) const {
  return tenant_id >= 0 &&
                 tenant_id < static_cast<std::int64_t>(tenant_weights.size())
             ? tenant_weights[static_cast<std::size_t>(tenant_id)]
             : 1.0;
}

void AdmissionConfig::validate() const {
  CIMTPU_CONFIG_CHECK(!policy.empty(), "admission policy name is empty");
  for (std::size_t i = 0; i < tenant_weights.size(); ++i) {
    CIMTPU_CONFIG_CHECK(tenant_weights[i] > 0,
                        "tenant " << i << " weight must be positive, got "
                                  << tenant_weights[i]);
  }
}

void AdmissionPolicy::on_finish(const Request& request) {
  (void)request;
}

void AdmissionPolicy::publish(MetricsRegistry* registry) const {
  (void)registry;  // nothing policy-specific by default
}

void AdmissionPolicy::drain_shed(std::vector<Request>* out) {
  (void)out;  // non-shedding policies drop nothing
}

void AdmissionPolicy::set_degraded(bool degraded) {
  // Most policies admit the same way either mode.
  (void)degraded;
}

// --- FifoAdmission -----------------------------------------------------------

void FifoAdmission::on_enqueue(const Request& request) {
  waiting_.push_back(request);
}

void FifoAdmission::on_preempt_requeue(const Request& request) {
  waiting_.push_front(request);  // retains FIFO priority
}

const Request* FifoAdmission::select(Seconds now) {
  (void)now;
  return waiting_.empty() ? nullptr : &waiting_.front();
}

void FifoAdmission::pop_selected() {
  CIMTPU_CHECK(!waiting_.empty());
  waiting_.pop_front();
}

// --- WeightedFairAdmission ---------------------------------------------------

void WeightedFairAdmission::clamp_to_virtual_time(TenantState& state) {
  // Only a tenant with NOTHING in the system (no queue, no in-flight
  // work) re-enters at the virtual time; a tenant with resident work is
  // live and keeps its true virtual-work account.
  if (state.queue.empty() && state.in_flight == 0) {
    state.virtual_work = std::max(state.virtual_work, virtual_time_);
  }
}

void WeightedFairAdmission::on_enqueue(const Request& request) {
  TenantState& state = tenant_states_[request.tenant_id];
  clamp_to_virtual_time(state);
  state.queue.push_back(request);
  ++waiting_total_;
}

void WeightedFairAdmission::on_preempt_requeue(const Request& request) {
  TenantState& state = tenant_states_[request.tenant_id];
  // NO clamp_to_virtual_time here: the tenant had RESIDENT work (tracked
  // by in_flight), so it was never idle — its virtual work is live, and
  // clamping it up to the virtual time before the refund would swallow
  // the refund entirely and cost the tenant its share for the run.
  // Front of the tenant's own FIFO: seniority within the tenant survives
  // preemption, exactly like the FIFO baseline's push_front.  Refund the
  // admission charge — re-admission recharges it, so recompute churn does
  // not double-count against the tenant's share.
  const double tokens = admission_tokens(request);
  const double weight = config_.tenant_weight(request.tenant_id);
  if (state.in_flight > 0) --state.in_flight;
  state.admitted_tokens = std::max(0.0, state.admitted_tokens - tokens);
  state.virtual_work = std::max(0.0, state.virtual_work - tokens / weight);
  state.queue.push_front(request);
  ++waiting_total_;
}

void WeightedFairAdmission::on_finish(const Request& request) {
  const auto it = tenant_states_.find(request.tenant_id);
  if (it != tenant_states_.end() && it->second.in_flight > 0) {
    --it->second.in_flight;
  }
}

void WeightedFairAdmission::publish(MetricsRegistry* registry) const {
  CIMTPU_CHECK(registry != nullptr);
  registry->publish("admission.waiting", waiting_total_);
  for (const auto& [tenant_id, state] : tenant_states_) {
    std::ostringstream prefix;
    prefix << "admission.tenant" << tenant_id;
    registry->publish(prefix.str() + ".admitted_tokens",
                      state.admitted_tokens);
    registry->publish(prefix.str() + ".virtual_work", state.virtual_work);
  }
}

const Request* WeightedFairAdmission::select(Seconds now) {
  (void)now;
  selected_tenant_ = nullptr;
  double best_work = std::numeric_limits<double>::infinity();
  for (auto& [tenant_id, state] : tenant_states_) {  // ascending tenant id
    if (!state.queue.empty() && state.virtual_work < best_work) {
      best_work = state.virtual_work;
      selected_tenant_ = &state;
    }
  }
  return selected_tenant_ == nullptr ? nullptr
                                     : &selected_tenant_->queue.front();
}

void WeightedFairAdmission::pop_selected() {
  CIMTPU_CHECK(selected_tenant_ != nullptr &&
               !selected_tenant_->queue.empty());
  const Request& request = selected_tenant_->queue.front();
  const double tokens = admission_tokens(request);
  const double weight = config_.tenant_weight(request.tenant_id);
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

void EdfAdmission::on_enqueue(const Request& request) {
  waiting_.push_back(Waiting{request, next_seq_++, /*resumed=*/false});
}

void EdfAdmission::on_preempt_requeue(const Request& request) {
  // A recompute victim keeps competing by its (settled) deadline but is
  // exempt from shedding: its first token already streamed, so dropping
  // it now would discard finished decode progress for no SLO gain.
  waiting_.push_back(Waiting{request, next_seq_++, /*resumed=*/true});
}

const Request* EdfAdmission::select(Seconds now) {
  // Shed pass first: drop every fresh request whose TTFT deadline is
  // provably unreachable (now, plus the degraded slack, past it) so the EDF scan below only
  // ranks requests that can still be served in time.  swap-and-pop keeps
  // the pass linear; ordering does not matter because selection re-scans.
  for (std::size_t i = 0; i < waiting_.size();) {
    const Waiting& waiting = waiting_[i];
    const double deadline = absolute_deadline(waiting.request);
    if (!waiting.resumed && now + shed_slack_ > deadline) {
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
  if (name == "edf") return std::make_unique<EdfAdmission>();
  if (name == "fifo") return std::make_unique<FifoAdmission>();
  if (name == "wfq") return std::make_unique<WeightedFairAdmission>(config);
  throw ConfigError("unknown admission policy '" + name +
                    "'; built-in: edf fifo wfq");
}

}  // namespace cimtpu::serving
