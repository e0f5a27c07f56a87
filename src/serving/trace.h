#pragma once
// Opt-in per-request event tracing for the serving simulator, in the
// spirit of vLLM's request-level metrics and the timeline analyses the
// chunked-prefill / disaggregation papers are argued from: every request
// lifecycle transition (arrive, admit, prefix hit, prefill chunk, first
// token, decode entry, preempt, swap out/in, finish, shed) and every
// engine step (kind, batch, latency, KV block churn) becomes a typed
// event stamped with SIMULATED time, so traces are deterministic —
// byte-identical across runs, platforms, and sweep thread counts.
//
// Two layers:
//   * ServingTrace — an append-only event buffer.  The scheduler emits its
//     mid-step hooks into it through a nullable pointer and guards every
//     call, so with tracing off the hot path pays one null check per
//     transition and allocates NOTHING; the driver hooks (arrive / step
//     bracketing / first token / finish / shed / faults) only the engine
//     and the cluster driver (route / KV transfer) call.
//     It also keeps the cumulative per-tenant admitted-token tally the
//     time-series sampler reads, which stays on even when event recording
//     is off (sampling without tracing is a supported mode).
//   * Exporters — Chrome/Perfetto trace-event JSON (load the file in
//     https://ui.perfetto.dev or chrome://tracing: one track per request,
//     one for engine steps, counter tracks from the time-series samples)
//     and flat JSONL for scripting, plus a per-request timeline
//     reconstruction used to reconcile traces against ServingMetrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "serving/metrics.h"
#include "serving/obs_registry.h"
#include "serving/request_gen.h"

namespace cimtpu::serving {

/// Tracing knobs, carried by ServingScenario.  Default-constructed =
/// everything off — the golden-pinned configuration.
struct TraceConfig {
  /// Record lifecycle/step events.  Off: the scheduler's sink pointer
  /// stays null and the run loop skips every trace branch.
  bool enabled = false;

  /// Simulated-time interval between TimeSamples; 0 disables sampling.
  /// Sampling works with `enabled` false (cheap gauges, no event buffer).
  Seconds sample_interval = 0;

  /// When `enabled` and non-empty, the engine (or the cluster driver, for
  /// its router trace) writes the trace here at finish, creating the
  /// directory on demand: "<dir>/<label>.trace.json" (Perfetto) and
  /// "<dir>/<label>.jsonl".  Empty: events stay in-memory only (tests,
  /// reconciliation).
  std::string dir;
  std::string label = "serving";

  void validate() const;
};

/// Typed lifecycle/step events.  kStep and kPrefillChunk are SPANS
/// (time .. end_time); everything else is an instant.
enum class TraceEventType {
  kArrive,        ///< request entered the waiting queue
  kAdmit,         ///< joined the running batch (tokens=prompt, prev=prefix hit)
  kPrefixHit,     ///< admission reused cached prefix KV (with kAdmit)
  kPrefillChunk,  ///< prompt tokens [prev, prev+tokens) pushed this step
  kFirstToken,    ///< first output token left the pipeline (TTFT point)
  kDecodeEnter,   ///< prompt complete; joined the decode batch
  kPreempt,       ///< evicted for recompute (KV dropped, re-queued)
  kSwapOut,       ///< KV pages moved to the host pool
  kSwapIn,        ///< KV pages restored from the host pool
  kFinish,        ///< last output token emitted (e2e point)
  kShed,          ///< never completes: dropped by admission control (EDF
                  ///< deadline shed, aux=0), cut by the simulated-time
                  ///< horizon while waiting/in flight (aux=1), or dropped
                  ///< by the fault subsystem (recovery off / retry budget
                  ///< exhausted, aux=2)
  kFault,         ///< injected fault event (serving/fault.h): aux=FaultType
  kRecover,       ///< fault recovery: backoff re-admission or host restore
  kDegrade,       ///< graceful-degradation mode change (aux: 1 enter, 0 exit)
  kRoute,         ///< cluster router assigned the request to a replica
                  ///< (aux=replica index; serving/cluster.h)
  kKvTransfer,    ///< disaggregated KV streaming: prefill replica's blocks
                  ///< shipped to the decode replica over the fabric
  kStep,          ///< one engine step (batch composition + cost + KV churn)
};

/// Stable lowercase name ("arrive", "prefill_chunk", ...), used by both
/// exporters and asserted on by trace-content tests.
const char* trace_event_type_name(TraceEventType type);

/// One recorded event.  Semi-generic payload fields; meaning by type:
///   kArrive        tokens=prompt_len  prev_tokens=output_len  aux=tenant_id
///   kAdmit         tokens=prompt_len  prev_tokens=prefix_hit_tokens
///                  aux=tenant_id
///   kPrefixHit     tokens=lookup_tokens  prev_tokens=hit_tokens
///                  blocks=shared_blocks  blocks2=cow_blocks
///   kPrefillChunk  prev_tokens=tokens already prefilled  tokens=chunk
///   kFirstToken    (time = emission time, TTFT reference)
///   kDecodeEnter   tokens=bucketed KV length at entry
///   kPreempt       —
///   kSwapOut/In    bytes=PCIe traffic
///   kFinish        tokens=generated output tokens
///   kShed          aux=cause (0 deadline shed, 1 horizon cut, 2 fault)
///   kFault         aux=FaultType (0 stall, 1 kv_loss, 2 device_failure)
///                  tokens=computed tokens lost  value=stall/restart seconds
///                  (request_id -1 for stall and device-failure events)
///   kRecover       aux=mechanism (0 backoff re-admission, 1 host restore)
///                  tokens=retry attempt  bytes=host-restore PCIe traffic
///   kDegrade       aux=1 entering degraded mode, 0 exiting
///   kRoute         aux=replica index  tokens=prompt_len
///                  prev_tokens=tenant_id  blocks=prefix_id (-1 none)
///   kKvTransfer    aux=destination replica  prev_tokens=source replica
///                  blocks=KV blocks streamed  bytes=payload
///                  value=transfer seconds (span time .. end_time)
///   kStep          batch  aux=kind (0 prefill, 1 decode)  value=latency s
///                  blocks=KV blocks allocated  blocks2=blocks reclaimed
///                  tokens=KV blocks referenced after the step
/// Both exporters write these fields through one per-type payload writer
/// (write_payload in trace.cpp), so each key is named once.
struct TraceEvent {
  TraceEventType type = TraceEventType::kArrive;
  std::int64_t step = -1;  ///< engine step index; -1 = outside any step
  Seconds time = 0;
  Seconds end_time = 0;  ///< spans only; == time for instants
  std::int64_t request_id = -1;  ///< -1 for kStep
  std::int64_t tokens = 0;
  std::int64_t prev_tokens = 0;
  std::int64_t blocks = 0;
  std::int64_t blocks2 = 0;
  std::int64_t batch = 0;
  std::int64_t aux = 0;
  Bytes bytes = 0;
  double value = 0;
};

/// A run's event buffer: the driver-side hooks the engine and the cluster
/// driver call, and the hooks the scheduler emits mid-step.  Events
/// emitted by the scheduler mid-step are stamped with the step's START
/// time (the simulated instant the scheduler planned them at); span end
/// times are patched when the driver closes the step, once its cost is
/// known.
class ServingTrace {
 public:
  ServingTrace() = default;
  explicit ServingTrace(TraceConfig config);

  const TraceConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  // --- Driver hooks (engine; route and KV transfer: cluster driver) -----
  void on_arrive(const Request& request);
  /// Opens step `step_index` at simulated time `start`; mid-step sink
  /// events are stamped with (step_index, start).
  void begin_step(std::int64_t step_index, Seconds start);
  /// Closes the open step: records the kStep span and patches the end
  /// time of this step's prefill-chunk spans.
  void end_step(bool prefill, std::int64_t batch, Seconds end,
                double latency_s, std::int64_t kv_referenced_blocks,
                std::int64_t blocks_allocated, std::int64_t blocks_reclaimed);
  void on_first_token(std::int64_t request_id, Seconds emit_time);
  void on_finish(std::int64_t request_id, Seconds completion,
                 std::int64_t generated_tokens);
  void on_shed(std::int64_t request_id, Seconds horizon);
  /// The fault subsystem dropped a waiting/in-flight request for good
  /// (recovery off or retry budget exhausted): kShed with cause "fault".
  void on_shed_fault(std::int64_t request_id, Seconds time);
  /// An injected fault event (aux codes per FaultType): `request_id` is
  /// the struck resident for kv-loss events, -1 for stalls and device
  /// failures; `lost_tokens` the computed work wiped; `duration` the
  /// stall window or restart epoch.
  void on_fault(std::int64_t request_id, std::int64_t fault_kind,
                Seconds time, std::int64_t lost_tokens, Seconds duration);
  /// A fault recovery: mechanism 0 = backoff re-admission (tokens =
  /// attempt number), 1 = in-place host restore (bytes = PCIe re-fetch).
  void on_recover(std::int64_t request_id, std::int64_t mechanism,
                  Seconds time, Bytes bytes, std::int64_t attempt);
  /// The sustained-failure detector flipped the degradation mode.
  void on_degrade(bool entering, Seconds time);
  /// Cluster driver hooks (serving/cluster.h) — the router assigned
  /// `request` to `replica`, and (disaggregated mode) a finished prompt's
  /// KV blocks streamed from `src_replica` to `dst_replica` over the
  /// fabric, taking `duration` seconds starting at `time`.
  void on_route(const Request& request, int replica, Seconds time);
  void on_kv_transfer(std::int64_t request_id, int src_replica,
                      int dst_replica, std::int64_t blocks, Bytes bytes,
                      Seconds time, Seconds duration);

  // --- Scheduler hooks (mid-step) ----------------------------------------
  /// A waiting request joined the running batch.  Outcome fields are the
  /// KvCacheManager::AdmitOutcome of the admission (all 0 when the
  /// prefix cache is off).
  void on_admit(const Request& request, std::int64_t lookup_tokens,
                std::int64_t prefix_hit_tokens, std::int64_t shared_blocks,
                std::int64_t cow_blocks);
  /// A prefill participant pushed prompt tokens [prev, prev + chunk).
  void on_prefill_chunk(std::int64_t request_id, std::int64_t prev,
                        std::int64_t chunk);
  /// A resident finished prefilling (or swapped back in mid-decode) and
  /// joined the decode batch at bucketed KV length `kv_bucket`.
  void on_decode_enter(std::int64_t request_id, std::int64_t kv_bucket);
  void on_preempt(std::int64_t request_id);
  void on_swap_out(std::int64_t request_id, Bytes bytes);
  void on_swap_in(std::int64_t request_id, Bytes bytes);
  /// Admission control dropped a waiting request (EDF deadline shed): it
  /// will never be admitted.  Stamped with the current step's time.
  void on_shed(std::int64_t request_id);

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Cumulative admitted prompt+output tokens per tenant — maintained
  /// even with event recording off, because the time-series sampler
  /// reads it (ascending tenant id by map order).
  const std::map<std::int64_t, std::int64_t>& tenant_admitted_tokens() const {
    return tenant_admitted_tokens_;
  }

 private:
  /// Stamped with the open step and its start time.
  TraceEvent& push(TraceEventType type, std::int64_t request_id);
  /// Stamped outside any step (step -1) at `time`, an instant.
  TraceEvent& push_at(TraceEventType type, std::int64_t request_id,
                      Seconds time);

  TraceConfig config_;
  std::vector<TraceEvent> events_;
  std::map<std::int64_t, std::int64_t> tenant_admitted_tokens_;
  std::int64_t current_step_ = -1;
  Seconds current_time_ = 0;
  std::size_t step_first_event_ = 0;  ///< events_ index at begin_step
};

// --- Exporters ---------------------------------------------------------------

/// Chrome/Perfetto trace-event JSON: complete ("X") spans for queued
/// waits, prefill chunks, and decode phases on one track per request
/// (pid 1, tid = request id; a decode span closed by a preemption or
/// swap-out reopens when the request re-enters decode), instants for the
/// lifecycle transitions, kStep spans on the engine track (pid 2), and
/// counter ("C") tracks built from `samples` (pass {} for none).
/// Timestamps are simulated microseconds.  Deterministic byte-for-byte
/// for identical inputs.
std::string perfetto_trace_json(const std::vector<TraceEvent>& events,
                                const std::vector<TimeSample>& samples);

/// Flat JSONL: one {"type": ..., ...} object per line, in recording
/// order, only the fields meaningful for each type.
std::string trace_jsonl(const std::vector<TraceEvent>& events);

/// Per-request lifecycle rebuilt from a trace, for reconciling against
/// ServingMetrics: TTFT = first_token - arrival, e2e = completion -
/// arrival.  One entry per traced request, ascending by id.
struct RequestTimeline {
  std::int64_t request_id = -1;
  Seconds arrival = -1;
  Seconds first_admit = -1;
  Seconds first_token = -1;  ///< < 0: never emitted
  Seconds completion = -1;   ///< < 0: shed or still in flight
  std::int64_t generated_tokens = 0;
  std::int64_t prefill_chunks = 0;
  std::int64_t preemptions = 0;  ///< recompute + swap-out
  bool shed = false;
};

std::vector<RequestTimeline> trace_request_timelines(
    const std::vector<TraceEvent>& events);

/// A run's TTFT and e2e summaries recomputed from its trace alone (the
/// request timelines), and whether each equals the run's own summary in
/// every field.
struct TraceReconciliation {
  std::size_t requests_traced = 0;
  LatencySummary ttft;
  LatencySummary e2e;
  bool ttft_matches = false;
  bool e2e_matches = false;
};

TraceReconciliation reconcile_trace(const std::vector<TraceEvent>& events,
                                    const LatencySummary& ttft,
                                    const LatencySummary& e2e);

/// Recorded events per type name, ascending by name.
std::map<std::string, std::int64_t> trace_event_counts(
    const std::vector<TraceEvent>& events);

/// Writes the configured trace artifacts for `trace` into
/// `trace.config().dir` (created on demand, permissions 0755): the
/// Perfetto JSON and the JSONL.  Returns the paths written.  No-op
/// (empty result) when the config has no dir or tracing is disabled.
std::vector<std::string> write_trace_files(
    const ServingTrace& trace, const std::vector<TimeSample>& samples);

/// Collapses an arbitrary human-readable label (e.g. a sweep cell's
/// "rate=2 model=llama2-7b/int8 ...") into a filename-safe trace label:
/// [A-Za-z0-9._-] kept, every other run of characters becomes one '_'.
std::string sanitize_trace_label(const std::string& label);

}  // namespace cimtpu::serving
