#pragma once
// Pluggable admission policies for the continuous-batching scheduler.
//
// Admission — which waiting request joins the running batch next, given
// free KV pages and batch slots — is a scheduling discipline of its own
// (vLLM admits FIFO; multi-tenant deployments add weighted-fair
// orderings; SLO-aware ones order by deadline).  A policy OWNS the waiting
// queue's ordering and observes the scheduler's enqueue / admit /
// preempt-requeue / finish transitions, while the scheduler keeps owning
// capacity checks (KvCacheManager::try_admit) and batch-slot limits.
//
// Contract with the scheduler, per admission attempt:
//   1. the scheduler calls `select(now)` — the policy returns the waiting
//      request it wants admitted next (a pointer into its own storage,
//      valid until the next mutating call), or nullptr when it holds none
//      (a shedding policy may have just dropped the last one).
//   2. on KvCacheManager admission success the scheduler calls
//      `pop_selected()`; the policy removes the selected request and does
//      its share accounting.  On failure the scheduler stops admitting
//      for this step (head-of-line blocking on the policy's OWN choice —
//      the exact semantics the FIFO baseline always had).
//
// Three disciplines ship on the interface (make_admission_policy at the
// bottom picks one by name):
//   * "fifo" — arrival order, preempted requests re-queue at the front.
//              Bit-identical to the pre-API scheduler.
//   * "wfq"  — per-tenant weighted fair queueing over Request::tenant_id:
//              tenants accumulate virtual work (admitted prompt+output
//              tokens / weight) and the backlogged tenant with the least
//              virtual work admits next, start-time-fair-queueing style.
//   * "edf"  — earliest absolute TTFT deadline first, with admission
//              control that SHEDS requests that provably cannot meet their
//              deadline (see EdfAdmission), converting raw throughput into
//              SLO attainment under overload.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "serving/fault.h"
#include "serving/request_gen.h"

namespace cimtpu::serving {

class MetricsRegistry;

/// Policy selection + knobs, carried by SchedulerConfig.  `policy` names a
/// built-in discipline (see make_admission_policy).
struct AdmissionConfig {
  std::string policy = "fifo";

  /// "wfq" + per-tenant metrics: relative admitted-token share of tenant
  /// k (Request::tenant_id) at index k, each > 0.  Tenants past the end
  /// weigh 1.
  std::vector<double> tenant_weights;

  /// The weight of `tenant_id` (1 when `tenant_weights` does not cover
  /// it).  WFQ admission and the per-tenant metrics rollup both read it,
  /// so Jain normalization and enforcement use the same weights.
  double tenant_weight(std::int64_t tenant_id) const;

  void validate() const;
};

/// The admission discipline interface.  Implementations own the waiting
/// queue; the scheduler owns capacity and batch-slot checks.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// A request arrived (scheduler::enqueue).
  virtual void on_enqueue(const Request& request) = 0;

  /// A resident request was preempted for recompute and must wait again.
  /// Policies should preserve its seniority (FIFO re-queues at the front).
  virtual void on_preempt_requeue(const Request& request) = 0;

  /// The waiting request this policy wants admitted next at simulated
  /// time `now`, or nullptr when it holds none.  The pointer stays valid
  /// until the next mutating call.
  virtual const Request* select(Seconds now) = 0;

  /// Commits the admission of the last `select`ed request: removes it
  /// from the waiting set and updates share accounting.
  virtual void pop_selected() = 0;

  /// A previously admitted request completed (observer, default no-op).
  virtual void on_finish(const Request& request);

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
  /// time dependence, no side effects (shedding), same answer until
  /// the queue itself changes.  When true the scheduler memoizes a failed
  /// head-of-line admission probe — while the queue and the KV manager are
  /// structurally unchanged (decode growth only CONSUMES capacity),
  /// re-probing must fail identically, so it is skipped.  Default: no.
  virtual bool select_is_pure() const { return false; }

  /// Graceful degradation toggled (serving/fault.h sustained-failure
  /// detector).  Default no-op; EDF sheds kDegradedExtraShedSlackSeconds
  /// early while degraded.  Called only on actual transitions (hysteresis
  /// upstream).
  virtual void set_degraded(bool degraded);

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
};

/// Arrival order; preempted requests re-queue at the front.  The exact
/// pre-API scheduler behaviour — the golden metric pins run on this.
class FifoAdmission : public AdmissionPolicy {
 public:
  void on_enqueue(const Request& request) override;
  void on_preempt_requeue(const Request& request) override;
  const Request* select(Seconds now) override;
  void pop_selected() override;
  bool empty() const override { return waiting_.empty(); }
  std::size_t size() const override { return waiting_.size(); }
  bool select_is_pure() const override { return true; }

 private:
  std::deque<Request> waiting_;
};

/// Per-tenant deficit-weighted round robin (start-time fair queueing):
/// each tenant keeps a FIFO of its own requests plus a virtual-work
/// account (admitted prompt+output tokens divided by its weight); the
/// backlogged tenant with the LEAST virtual work admits next, so admitted
/// tokens track the weight ratio whenever multiple tenants stay
/// backlogged.  A tenant becoming backlogged is clamped up to the current
/// virtual time, so idling never banks credit.  Preempted-for-recompute
/// requests re-queue at the front of their tenant's FIFO and refund their
/// charge (re-admission recharges, so recompute churn never
/// double-counts).
class WeightedFairAdmission : public AdmissionPolicy {
 public:
  explicit WeightedFairAdmission(AdmissionConfig config)
      : config_(std::move(config)) {}

  void on_enqueue(const Request& request) override;
  void on_preempt_requeue(const Request& request) override;
  const Request* select(Seconds now) override;
  void pop_selected() override;
  bool empty() const override { return waiting_total_ == 0; }
  std::size_t size() const override { return waiting_total_; }

  void on_finish(const Request& request) override;
  /// select reads only the tenant queues and virtual-work accounts, which
  /// change only when the queue does (enqueue, requeue, pop).
  bool select_is_pure() const override { return true; }

  /// Per-tenant "admission.tenant<k>.admitted_tokens" / ".virtual_work"
  /// gauges plus "admission.waiting" (ascending tenant id).
  void publish(MetricsRegistry* registry) const override;

 private:
  struct TenantState {
    std::deque<Request> queue;
    double virtual_work = 0;     ///< admitted tokens / weight
    double admitted_tokens = 0;  ///< cumulative, net of preempt refunds
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

  AdmissionConfig config_;  ///< tenant weights
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
/// never-admitted request whose deadline has already passed (now past the
/// absolute deadline; while degraded, now + the degraded extra slack), so
/// prefill capacity goes to requests that can still meet theirs — under
/// overload that converts throughput into SLO attainment, which is the
/// whole point.  Preempted requests are shed-exempt: they already
/// streamed a first token, so their TTFT verdict is settled and dropping
/// them would waste paid-for prefill work.  Shed requests accumulate
/// until the scheduler calls `drain_shed`.
class EdfAdmission : public AdmissionPolicy {
 public:
  void on_enqueue(const Request& request) override;
  void on_preempt_requeue(const Request& request) override;
  const Request* select(Seconds now) override;
  void pop_selected() override;
  void drain_shed(std::vector<Request>* out) override;
  bool may_shed() const override { return true; }
  void set_degraded(bool degraded) override {
    shed_slack_ = degraded ? kDegradedExtraShedSlackSeconds : 0;
  }
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

  Seconds shed_slack_ = 0;  ///< the degraded extra slack, 0 otherwise
  std::int64_t next_seq_ = 0;
  std::vector<Waiting> waiting_;
  std::vector<Request> shed_;  ///< dropped, awaiting drain_shed
  std::size_t selected_ = 0;   ///< index of the last select() winner
};

// --- Construction by name ---------------------------------------------------

/// Instantiates the built-in policy named `config.policy` ("edf", "fifo"
/// or "wfq"); throws ConfigError for an unknown name (listing the built-in
/// ones).
std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const AdmissionConfig& config);

}  // namespace cimtpu::serving
