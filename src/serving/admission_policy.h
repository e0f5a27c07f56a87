#pragma once
// Pluggable admission policies for the continuous-batching scheduler.
//
// Admission — which waiting request joins the running batch next, given
// free KV pages and batch slots — is a first-class scheduling discipline
// in serving systems (vLLM admits FIFO, multi-tenant deployments add
// priority and weighted-fair orderings, rate limiters throttle tenants).
// This module makes it an API seam instead of a hard-coded deque inside
// ContinuousBatchScheduler: a policy OWNS the waiting queue's ordering and
// observes the scheduler's enqueue / admit / preempt-requeue / finish
// transitions, while the scheduler keeps owning capacity checks
// (KvCacheManager::try_admit) and batch-slot limits.
//
// Contract with the scheduler, per admission attempt:
//   1. the scheduler calls `select(context)` — the policy returns the
//      waiting request it wants admitted next (a pointer into its own
//      storage, valid until the next mutating call), or nullptr to
//      throttle admission this step (e.g. every candidate tenant is over
//      its rate cap).  A policy must NEVER throttle when
//      `context.device_empty` is true and it holds requests — with
//      nothing resident the simulated clock cannot advance, so throttling
//      an empty device would deadlock the engine.
//   2. on KvCacheManager admission success the scheduler calls
//      `pop_selected()`; the policy removes the selected request and does
//      its share accounting.  On failure the scheduler stops admitting
//      for this step (head-of-line blocking on the policy's OWN choice —
//      the exact semantics the FIFO baseline always had).
//
// Four disciplines ship on the interface (make_admission_policy at the
// bottom picks one by name):
//   * "fifo"     — arrival order, preempted requests re-queue at the
//                  front.  Bit-identical to the pre-API scheduler.
//   * "priority" — highest Request::priority first with a linear aging
//                  term (priority + aging_rate * steps_waiting), so a
//                  low-priority request's effective priority eventually
//                  exceeds any bounded class and it cannot starve.
//   * "wfq"      — per-tenant weighted fair queueing over
//                  Request::tenant_id: tenants accumulate virtual work
//                  (admitted prompt+output tokens / weight) and the
//                  backlogged tenant with the least virtual work admits
//                  next, start-time-fair-queueing style, with optional
//                  per-tenant token-rate caps against the simulated clock.
//   * "edf"      — earliest absolute TTFT deadline first, with admission
//                  control that SHEDS requests that provably cannot meet
//                  their deadline (see EdfAdmission), converting raw
//                  throughput into SLO attainment under overload.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "serving/request_gen.h"

namespace cimtpu::serving {

class MetricsRegistry;

/// What the scheduler can tell a policy about the capacity an admission
/// would have to fit into.  Refreshed before every `select` call.
struct AdmissionContext {
  std::int64_t free_batch_slots = 0;  ///< max_batch minus resident count
  Bytes free_kv_bytes = 0;            ///< device KV budget minus used
  Bytes bytes_per_token = 0;          ///< KV footprint of one cached token
  bool device_empty = false;  ///< nothing resident: the policy MUST offer a
                              ///< candidate if it holds any (see header)
  Seconds now = 0;            ///< simulated clock (rate caps); 0 when the
                              ///< caller never calls set_time
  std::int64_t step = 0;      ///< engine steps planned so far (aging)
};

/// Per-tenant share for WeightedFairAdmission and the per-tenant metrics
/// rollup.  A share names its tenant via `tenant_id`; entries left at the
/// -1 default bind to their index in AdmissionConfig::tenants (the
/// historical positional convention), so sparse or non-contiguous tenant
/// ids can be configured explicitly while dense configs stay unchanged.
/// Tenants no share names default to weight 1 and no cap.
struct TenantShare {
  std::int64_t tenant_id = -1;  ///< Request::tenant_id this share applies
                                ///< to; -1 = the entry's own index

  double weight = 1.0;  ///< relative admitted-token share (> 0)

  /// Admitted prompt+output tokens per simulated second; 0 disables the
  /// cap.  Enforced as cumulative_admitted <= burst_tokens + cap * now,
  /// so a capped tenant can still burst `burst_tokens` at t=0.
  double token_rate_cap = 0;
  double burst_tokens = 4096;

  void validate() const;
};

/// The share `tenants` assigns to `tenant_id` (explicit tenant_id entries
/// first, index-bound entries otherwise), or the default share (weight 1,
/// uncapped) when no entry names it.  Shared by WeightedFairAdmission and
/// the per-tenant metrics rollup so Jain normalization and admission use
/// the same weights.
TenantShare resolve_tenant_share(const std::vector<TenantShare>& tenants,
                                 std::int64_t tenant_id);

/// Policy selection + knobs, carried by SchedulerConfig.  `policy` names a
/// built-in discipline (see make_admission_policy).
struct AdmissionConfig {
  std::string policy = "fifo";

  /// "priority": effective priority gained per engine step spent waiting.
  /// 0 disables aging (pure static priority, can starve).
  double aging_rate = 0.01;

  /// "wfq" + per-tenant metrics: shares, resolved by TenantShare::tenant_id
  /// (entries left at -1 bind to their index — see resolve_tenant_share).
  std::vector<TenantShare> tenants;

  /// "edf": conservative floor on the service time still ahead of a
  /// waiting request.  Admission control sheds a never-admitted request
  /// once now + edf_shed_slack_s exceeds its absolute TTFT deadline — it
  /// provably cannot stream its first token in time, so prefilling it
  /// would only steal capacity from requests that can still meet theirs.
  /// 0 (the default) sheds only requests whose deadline already passed.
  Seconds edf_shed_slack_s = 0;

  /// "edf" under graceful degradation (serving/fault.h): extra shed slack
  /// applied while the engine is degraded, tightening admission control
  /// when capacity is known to be impaired.  0 = degradation leaves EDF
  /// shedding unchanged.
  Seconds edf_degraded_extra_slack_s = 0;

  /// The share this config assigns `tenant_id` (resolve_tenant_share over
  /// `tenants`).
  TenantShare share_for(std::int64_t tenant_id) const;

  void validate() const;
};

/// The admission discipline interface.  Implementations own the waiting
/// queue; the scheduler owns capacity and batch-slot checks.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Registry key of this policy ("fifo", "priority", "wfq", ...).
  virtual std::string name() const = 0;

  /// A request arrived (scheduler::enqueue).  `step` is the engine step
  /// count at enqueue time (feeds aging).
  virtual void on_enqueue(const Request& request, std::int64_t step) = 0;

  /// A resident request was preempted for recompute and must wait again.
  /// Policies should preserve its seniority (FIFO re-queues at the front).
  virtual void on_preempt_requeue(const Request& request,
                                  std::int64_t step) = 0;

  /// The waiting request this policy wants admitted next, or nullptr to
  /// throttle (never with an empty device — see the header contract).
  /// The pointer stays valid until the next mutating call.
  virtual const Request* select(const AdmissionContext& context) = 0;

  /// Commits the admission of the last `select`ed request: removes it
  /// from the waiting set and updates share accounting.
  virtual void pop_selected() = 0;

  /// A previously admitted request completed (observer, default no-op).
  virtual void on_finish(const Request& request, std::int64_t step);

  /// Publishes policy-specific end-of-run observability into `registry`
  /// under "admission.*" names (serving/obs_registry.h).  Default no-op;
  /// WFQ reports per-tenant admitted tokens and virtual work.
  virtual void publish(MetricsRegistry* registry) const;

  /// Moves the requests this policy dropped via admission control since
  /// the last drain into `out` (appended).  Shedding policies (EDF) stash
  /// hopeless requests during `select`; the scheduler drains them every
  /// step, bumps ServingCounters::shed_deadline, and reports them in
  /// StepRecord::shed_ids.  A shed request is gone: it never admits and
  /// never completes.  Default: drains nothing.
  virtual void drain_shed(std::vector<Request>* out);

  /// Whether this policy can EVER shed (default: no).  The scheduler reads
  /// it once at construction and skips the per-step drain entirely for
  /// non-shedding policies, so the common path pays no virtual drain call.
  virtual bool may_shed() const { return false; }

  /// Whether select() is a pure function of the queue contents: no
  /// time/rate dependence, no side effects (shedding), same answer until
  /// the queue itself changes.  When true the scheduler memoizes a failed
  /// head-of-line admission probe — while the queue and the KV manager are
  /// structurally unchanged (decode growth only CONSUMES capacity),
  /// re-probing must fail identically, so it is skipped.  Default: no.
  virtual bool select_is_pure() const { return false; }

  /// Graceful degradation toggled (serving/fault.h sustained-failure
  /// detector).  Default no-op; EDF tightens its shed slack while
  /// degraded.  Called only on actual transitions (hysteresis upstream).
  virtual void set_degraded(bool degraded);

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
};

/// Arrival order; preempted requests re-queue at the front.  The exact
/// pre-API scheduler behaviour — the golden metric pins run on this.
class FifoAdmission : public AdmissionPolicy {
 public:
  std::string name() const override { return "fifo"; }
  void on_enqueue(const Request& request, std::int64_t step) override;
  void on_preempt_requeue(const Request& request, std::int64_t step) override;
  const Request* select(const AdmissionContext& context) override;
  void pop_selected() override;
  bool empty() const override { return waiting_.empty(); }
  std::size_t size() const override { return waiting_.size(); }
  bool select_is_pure() const override { return true; }

 private:
  std::deque<Request> waiting_;
};

/// Highest effective priority first, where
///   effective = Request::priority + aging_rate * (step - enqueue_step).
/// Ties break towards the earliest enqueue (FIFO among equals).  With
/// aging_rate > 0 a waiting request's effective priority grows without
/// bound, so any request is eventually admitted at sustained pressure
/// (starvation freedom); aging_rate = 0 degenerates to static priority.
class PriorityAdmission : public AdmissionPolicy {
 public:
  explicit PriorityAdmission(double aging_rate) : aging_rate_(aging_rate) {}

  std::string name() const override { return "priority"; }
  void on_enqueue(const Request& request, std::int64_t step) override;
  void on_preempt_requeue(const Request& request, std::int64_t step) override;
  const Request* select(const AdmissionContext& context) override;
  void pop_selected() override;
  bool empty() const override { return waiting_.empty(); }
  std::size_t size() const override { return waiting_.size(); }
  /// Pure despite aging: all waiters age at the SAME rate, so effective-
  /// priority differences — and therefore the argmax and its earliest-
  /// enqueue tie-break — are invariant in `step` for a fixed queue.
  bool select_is_pure() const override { return true; }

 private:
  struct Waiting {
    Request request;
    std::int64_t enqueue_step = 0;  ///< aging reference point
    std::int64_t seq = 0;           ///< tie break: earliest first
  };

  double aging_rate_;
  std::int64_t next_seq_ = 0;
  std::vector<Waiting> waiting_;
  std::size_t selected_ = 0;  ///< index of the last select() winner
};

/// Per-tenant deficit-weighted round robin (start-time fair queueing):
/// each tenant keeps a FIFO of its own requests plus a virtual-work
/// account (admitted prompt+output tokens divided by its weight); the
/// backlogged tenant with the LEAST virtual work admits next, so admitted
/// tokens track the weight ratio whenever multiple tenants stay
/// backlogged.  A tenant becoming backlogged is clamped up to the current
/// virtual time, so idling never banks credit.  Optional per-tenant
/// token-rate caps throttle a tenant once its cumulative admitted tokens
/// exceed burst + cap * now; capped tenants are skipped unless the device
/// is empty (liveness).  Preempted-for-recompute requests re-queue at the
/// front of their tenant's FIFO and refund their charge (re-admission
/// recharges, so recompute churn never double-counts against caps).
class WeightedFairAdmission : public AdmissionPolicy {
 public:
  explicit WeightedFairAdmission(std::vector<TenantShare> tenants)
      : shares_(std::move(tenants)) {}

  std::string name() const override { return "wfq"; }
  void on_enqueue(const Request& request, std::int64_t step) override;
  void on_preempt_requeue(const Request& request, std::int64_t step) override;
  const Request* select(const AdmissionContext& context) override;
  void pop_selected() override;
  bool empty() const override { return waiting_total_ == 0; }
  std::size_t size() const override { return waiting_total_; }

  /// The share applied to `tenant_id` (configured or the default).
  TenantShare share(std::int64_t tenant_id) const;

  void on_finish(const Request& request, std::int64_t step) override;

  /// Per-tenant "admission.tenant<k>.admitted_tokens" / ".virtual_work"
  /// gauges plus "admission.waiting" (ascending tenant id).
  void publish(MetricsRegistry* registry) const override;

 private:
  struct TenantState {
    std::deque<Request> queue;
    double virtual_work = 0;     ///< admitted tokens / weight
    double admitted_tokens = 0;  ///< cumulative, for the rate cap
    std::int64_t in_flight = 0;  ///< admitted but not yet finished
  };

  static double admission_tokens(const Request& request) {
    return static_cast<double>(request.prompt_len + request.output_len);
  }
  /// Clamp a tenant returning from IDLE to the virtual time so idle
  /// tenants cannot bank credit against busy ones.  "Idle" means no
  /// waiting AND no in-flight work — a tenant whose queue drained while a
  /// request is still resident is live, and clamping it would both
  /// penalize it and swallow a later preempt-refund.
  void clamp_to_virtual_time(TenantState& state);

  std::vector<TenantShare> shares_;
  std::map<std::int64_t, TenantState> tenant_states_;  ///< ordered: ties
                                                       ///< break to the
                                                       ///< lowest tenant id
  double virtual_time_ = 0;  ///< virtual work of the last admission
  std::size_t waiting_total_ = 0;
  TenantState* selected_tenant_ = nullptr;
};

/// Earliest-deadline-first with load shedding, the SLO-aware discipline:
/// the waiting request with the earliest ABSOLUTE TTFT deadline
/// (arrival_time + Request::ttft_deadline) admits next; deadline-free
/// requests sort after every deadline and stay FIFO among themselves.
/// Admission control sheds: at each `select` the policy drops every
/// never-admitted request whose deadline can provably no longer be met
/// (now + edf_shed_slack past the absolute deadline), freeing prefill
/// capacity for requests that still can — under overload that converts
/// throughput into SLO attainment, which is the whole point.  Preempted
/// requests are shed-exempt: they already streamed a first token, so
/// their TTFT verdict is settled and dropping them would waste paid-for
/// prefill work.  Shed requests accumulate until the scheduler calls
/// `drain_shed`.
class EdfAdmission : public AdmissionPolicy {
 public:
  explicit EdfAdmission(Seconds shed_slack, Seconds degraded_extra_slack = 0)
      : shed_slack_(shed_slack), degraded_extra_slack_(degraded_extra_slack) {}

  std::string name() const override { return "edf"; }
  void on_enqueue(const Request& request, std::int64_t step) override;
  void on_preempt_requeue(const Request& request, std::int64_t step) override;
  const Request* select(const AdmissionContext& context) override;
  void pop_selected() override;
  void drain_shed(std::vector<Request>* out) override;
  bool may_shed() const override { return true; }
  void set_degraded(bool degraded) override { degraded_ = degraded; }
  bool empty() const override { return waiting_.empty() && shed_.empty(); }
  std::size_t size() const override {
    return waiting_.size() + shed_.size();
  }

 private:
  struct Waiting {
    Request request;
    std::int64_t seq = 0;    ///< tie break: earliest enqueue first
    bool resumed = false;    ///< preempt-requeued: shed-exempt
  };

  /// Absolute TTFT deadline; +inf for deadline-free requests (they queue
  /// behind every deadline, FIFO among themselves via seq).
  static double absolute_deadline(const Request& request);

  /// The slack currently in force: shed_slack_ plus the degraded extra
  /// while the sustained-failure detector holds the engine degraded.
  Seconds effective_slack() const {
    return degraded_ ? shed_slack_ + degraded_extra_slack_ : shed_slack_;
  }

  Seconds shed_slack_;
  Seconds degraded_extra_slack_;
  bool degraded_ = false;
  std::int64_t next_seq_ = 0;
  std::vector<Waiting> waiting_;
  std::vector<Request> shed_;  ///< dropped, awaiting drain_shed
  std::size_t selected_ = 0;   ///< index of the last select() winner
};

// --- Construction by name ---------------------------------------------------

/// Instantiates the built-in policy named `config.policy` ("edf", "fifo",
/// "priority" or "wfq"); throws ConfigError for an unknown name (listing
/// the built-in ones).
std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const AdmissionConfig& config);

}  // namespace cimtpu::serving
