#include "serving/trace.h"

#include <sys/stat.h>

#include <map>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "serving/fault.h"
#include "sim/trace.h"

namespace cimtpu::serving {

void TraceConfig::validate() const {
  CIMTPU_CONFIG_CHECK(sample_interval >= 0,
                      "trace sample_interval must be >= 0 (0 = disabled), "
                      "got " << sample_interval);
  CIMTPU_CONFIG_CHECK(!enabled || dir.empty() || !label.empty(),
                      "trace label must be non-empty when writing files");
}

const char* trace_event_type_name(TraceEventType type) {
  switch (type) {
    case TraceEventType::kArrive: return "arrive";
    case TraceEventType::kAdmit: return "admit";
    case TraceEventType::kPrefixHit: return "prefix_hit";
    case TraceEventType::kPrefillChunk: return "prefill_chunk";
    case TraceEventType::kFirstToken: return "first_token";
    case TraceEventType::kDecodeEnter: return "decode_enter";
    case TraceEventType::kPreempt: return "preempt";
    case TraceEventType::kSwapOut: return "swap_out";
    case TraceEventType::kSwapIn: return "swap_in";
    case TraceEventType::kFinish: return "finish";
    case TraceEventType::kShed: return "shed";
    case TraceEventType::kFault: return "fault";
    case TraceEventType::kRecover: return "recover";
    case TraceEventType::kDegrade: return "degrade";
    case TraceEventType::kRoute: return "route";
    case TraceEventType::kKvTransfer: return "kv_transfer";
    case TraceEventType::kStep: return "step";
  }
  return "unknown";
}

ServingTrace::ServingTrace(TraceConfig config) : config_(std::move(config)) {
  config_.validate();
}

TraceEvent& ServingTrace::push(TraceEventType type, std::int64_t request_id) {
  TraceEvent& event = events_.emplace_back();
  event.type = type;
  event.step = current_step_;
  event.time = current_time_;
  event.end_time = current_time_;
  event.request_id = request_id;
  return event;
}

TraceEvent& ServingTrace::push_at(TraceEventType type, std::int64_t request_id,
                                  Seconds time) {
  TraceEvent& event = push(type, request_id);
  event.step = -1;
  event.time = time;
  event.end_time = time;
  return event;
}

void ServingTrace::on_arrive(const Request& request) {
  if (!config_.enabled) return;
  // Queueing happens between steps.
  TraceEvent& event =
      push_at(TraceEventType::kArrive, request.id, request.arrival_time);
  event.tokens = request.prompt_len;
  event.prev_tokens = request.output_len;
  event.aux = request.tenant_id;
}

void ServingTrace::begin_step(std::int64_t step_index, Seconds start) {
  current_step_ = step_index;
  current_time_ = start;
  step_first_event_ = events_.size();
}

void ServingTrace::end_step(bool prefill, std::int64_t batch, Seconds end,
                            double latency_s,
                            std::int64_t kv_referenced_blocks,
                            std::int64_t blocks_allocated,
                            std::int64_t blocks_reclaimed) {
  if (!config_.enabled) return;
  // Chunk spans recorded mid-step learn their duration only now.
  for (std::size_t i = step_first_event_; i < events_.size(); ++i) {
    if (events_[i].type == TraceEventType::kPrefillChunk) {
      events_[i].end_time = end;
    }
  }
  TraceEvent& event = push(TraceEventType::kStep, -1);
  event.end_time = end;
  event.batch = batch;
  event.aux = prefill ? 0 : 1;
  event.value = latency_s;
  event.tokens = kv_referenced_blocks;
  event.blocks = blocks_allocated;
  event.blocks2 = blocks_reclaimed;
}

void ServingTrace::on_first_token(std::int64_t request_id, Seconds emit_time) {
  if (!config_.enabled) return;
  TraceEvent& event = push(TraceEventType::kFirstToken, request_id);
  event.time = emit_time;
  event.end_time = emit_time;
}

void ServingTrace::on_finish(std::int64_t request_id, Seconds completion,
                             std::int64_t generated_tokens) {
  if (!config_.enabled) return;
  TraceEvent& event = push(TraceEventType::kFinish, request_id);
  event.time = completion;
  event.end_time = completion;
  event.tokens = generated_tokens;
}

void ServingTrace::on_shed(std::int64_t request_id, Seconds horizon) {
  if (!config_.enabled) return;
  push_at(TraceEventType::kShed, request_id, horizon).aux = 1;  // horizon cut
}

void ServingTrace::on_shed(std::int64_t request_id) {
  if (!config_.enabled) return;
  // Deadline shed from the scheduler: stamped with the current step's
  // start time by push(); aux 0 distinguishes it from a horizon cut.
  push(TraceEventType::kShed, request_id).aux = 0;
}

void ServingTrace::on_shed_fault(std::int64_t request_id, Seconds time) {
  if (!config_.enabled) return;
  push_at(TraceEventType::kShed, request_id, time).aux = 2;  // fault drop
}

void ServingTrace::on_fault(std::int64_t request_id, std::int64_t fault_kind,
                            Seconds time, std::int64_t lost_tokens,
                            Seconds duration) {
  if (!config_.enabled) return;
  TraceEvent& event = push_at(TraceEventType::kFault, request_id, time);
  event.aux = fault_kind;
  event.tokens = lost_tokens;
  event.value = duration;
}

void ServingTrace::on_recover(std::int64_t request_id, std::int64_t mechanism,
                              Seconds time, Bytes bytes, std::int64_t attempt) {
  if (!config_.enabled) return;
  TraceEvent& event = push_at(TraceEventType::kRecover, request_id, time);
  event.aux = mechanism;
  event.bytes = bytes;
  event.tokens = attempt;
}

void ServingTrace::on_degrade(bool entering, Seconds time) {
  if (!config_.enabled) return;
  push_at(TraceEventType::kDegrade, -1, time).aux = entering ? 1 : 0;
}

void ServingTrace::on_route(const Request& request, int replica,
                            Seconds time) {
  if (!config_.enabled) return;
  TraceEvent& event = push_at(TraceEventType::kRoute, request.id, time);
  event.aux = replica;
  event.tokens = request.prompt_len;
  event.prev_tokens = request.tenant_id;
  event.blocks = request.prefix_id;
}

void ServingTrace::on_kv_transfer(std::int64_t request_id, int src_replica,
                                  int dst_replica, std::int64_t blocks,
                                  Bytes bytes, Seconds time,
                                  Seconds duration) {
  if (!config_.enabled) return;
  TraceEvent& event = push_at(TraceEventType::kKvTransfer, request_id, time);
  event.end_time = time + duration;
  event.aux = dst_replica;
  event.prev_tokens = src_replica;
  event.blocks = blocks;
  event.bytes = bytes;
  event.value = duration;
}

void ServingTrace::on_admit(const Request& request,
                            std::int64_t lookup_tokens,
                            std::int64_t prefix_hit_tokens,
                            std::int64_t shared_blocks,
                            std::int64_t cow_blocks) {
  // Tenant tally is the sampler's input: maintained in every attached
  // mode, including sampling-without-tracing.
  tenant_admitted_tokens_[request.tenant_id] +=
      request.prompt_len + request.output_len;
  if (!config_.enabled) return;
  TraceEvent& event = push(TraceEventType::kAdmit, request.id);
  event.tokens = request.prompt_len;
  event.prev_tokens = prefix_hit_tokens;
  event.aux = request.tenant_id;
  if (lookup_tokens > 0) {
    TraceEvent& hit = push(TraceEventType::kPrefixHit, request.id);
    hit.tokens = lookup_tokens;
    hit.prev_tokens = prefix_hit_tokens;
    hit.blocks = shared_blocks;
    hit.blocks2 = cow_blocks;
  }
}

void ServingTrace::on_prefill_chunk(std::int64_t request_id, std::int64_t prev,
                                    std::int64_t chunk) {
  if (!config_.enabled) return;
  TraceEvent& event = push(TraceEventType::kPrefillChunk, request_id);
  event.prev_tokens = prev;
  event.tokens = chunk;
}

void ServingTrace::on_decode_enter(std::int64_t request_id,
                                   std::int64_t kv_bucket) {
  if (!config_.enabled) return;
  TraceEvent& event = push(TraceEventType::kDecodeEnter, request_id);
  event.tokens = kv_bucket;
}

void ServingTrace::on_preempt(std::int64_t request_id) {
  if (!config_.enabled) return;
  push(TraceEventType::kPreempt, request_id);
}

void ServingTrace::on_swap_out(std::int64_t request_id, Bytes bytes) {
  if (!config_.enabled) return;
  push(TraceEventType::kSwapOut, request_id).bytes = bytes;
}

void ServingTrace::on_swap_in(std::int64_t request_id, Bytes bytes) {
  if (!config_.enabled) return;
  push(TraceEventType::kSwapIn, request_id).bytes = bytes;
}

// --- Exporters ---------------------------------------------------------------

namespace {

/// Simulated seconds -> trace microseconds (the trace-event unit).
std::string trace_ts(Seconds time) { return json_double(time * 1e6); }

/// Appends one trace-event object, handling the comma placement.
class EventWriter {
 public:
  explicit EventWriter(std::ostringstream& out) : out_(out) {}

  std::ostringstream& next() {
    if (!first_) out_ << ",\n";
    first_ = false;
    return out_;
  }

 private:
  std::ostringstream& out_;
  bool first_ = true;
};

void emit_instant(EventWriter& writer, const char* name, std::int64_t pid,
                  std::int64_t tid, Seconds time, const std::string& args) {
  writer.next() << "{\"name\":\"" << name
                << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
                << ",\"tid\":" << tid << ",\"ts\":" << trace_ts(time)
                << (args.empty() ? "" : ",\"args\":{" + args + "}") << "}";
}

void emit_span(EventWriter& writer, const std::string& name, std::int64_t pid,
               std::int64_t tid, Seconds start, Seconds end,
               const std::string& args) {
  writer.next() << "{\"name\":\"" << sim::json_escape(name)
                << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"ts\":" << trace_ts(start)
                << ",\"dur\":" << json_double((end - start) * 1e6)
                << (args.empty() ? "" : ",\"args\":{" + args + "}") << "}";
}

void emit_counter(EventWriter& writer, const char* name, std::int64_t pid,
                  Seconds time, const std::string& args) {
  writer.next() << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":" << pid
                << ",\"ts\":" << trace_ts(time) << ",\"args\":{" << args
                << "}}";
}

/// "prefill" or "decode": a kStep event's kind.
const char* step_kind(const TraceEvent& event) {
  return event.aux == 0 ? "prefill" : "decode";
}

/// The one list of each event type's payload fields, as `,"key":value`
/// pairs in export order (none for kFirstToken and kPreempt).  A JSONL
/// line ends with them; a Perfetto object's args are them without the
/// leading comma.
void write_payload(const TraceEvent& event, std::ostream& out) {
  switch (event.type) {
    case TraceEventType::kArrive:
      out << ",\"prompt_len\":" << event.tokens
          << ",\"output_len\":" << event.prev_tokens
          << ",\"tenant\":" << event.aux;
      break;
    case TraceEventType::kAdmit:
      out << ",\"prompt_len\":" << event.tokens
          << ",\"prefix_hit_tokens\":" << event.prev_tokens
          << ",\"tenant\":" << event.aux;
      break;
    case TraceEventType::kPrefixHit:
      out << ",\"lookup_tokens\":" << event.tokens
          << ",\"hit_tokens\":" << event.prev_tokens
          << ",\"shared_blocks\":" << event.blocks
          << ",\"cow_blocks\":" << event.blocks2;
      break;
    case TraceEventType::kPrefillChunk:
      out << ",\"prev_tokens\":" << event.prev_tokens
          << ",\"chunk_tokens\":" << event.tokens;
      break;
    case TraceEventType::kDecodeEnter:
      out << ",\"kv_bucket\":" << event.tokens;
      break;
    case TraceEventType::kSwapOut:
    case TraceEventType::kSwapIn:
      out << ",\"bytes\":" << json_double(event.bytes);
      break;
    case TraceEventType::kFinish:
      out << ",\"generated_tokens\":" << event.tokens;
      break;
    case TraceEventType::kStep:
      out << ",\"batch\":" << event.batch
          << ",\"latency_s\":" << json_double(event.value)
          << ",\"kv_referenced_blocks\":" << event.tokens
          << ",\"kv_blocks_allocated\":" << event.blocks
          << ",\"kv_blocks_reclaimed\":" << event.blocks2;
      break;
    case TraceEventType::kShed:
      out << ",\"cause\":\""
          << (event.aux == 0 ? "deadline"
                             : (event.aux == 1 ? "horizon" : "fault"))
          << '"';
      break;
    case TraceEventType::kFault:
      out << ",\"kind\":\""
          << fault_type_name(static_cast<FaultType>(event.aux))
          << "\",\"lost_tokens\":" << event.tokens
          << ",\"duration_s\":" << json_double(event.value);
      break;
    case TraceEventType::kRecover:
      out << ",\"mechanism\":\""
          << (event.aux == 0 ? "retry" : "host_restore")
          << "\",\"attempt\":" << event.tokens
          << ",\"bytes\":" << json_double(event.bytes);
      break;
    case TraceEventType::kDegrade:
      out << ",\"mode\":\"" << (event.aux == 1 ? "enter" : "exit") << '"';
      break;
    case TraceEventType::kRoute:
      out << ",\"replica\":" << event.aux
          << ",\"prompt_len\":" << event.tokens
          << ",\"tenant\":" << event.prev_tokens
          << ",\"prefix_id\":" << event.blocks;
      break;
    case TraceEventType::kKvTransfer:
      out << ",\"src_replica\":" << event.prev_tokens
          << ",\"dst_replica\":" << event.aux
          << ",\"blocks\":" << event.blocks
          << ",\"bytes\":" << json_double(event.bytes)
          << ",\"transfer_s\":" << json_double(event.value);
      break;
    case TraceEventType::kFirstToken:
    case TraceEventType::kPreempt:
      break;
  }
}

constexpr std::int64_t kRequestPid = 1;
constexpr std::int64_t kEnginePid = 2;
constexpr std::int64_t kEngineTid = 1;

}  // namespace

std::string perfetto_trace_json(const std::vector<TraceEvent>& events,
                                const std::vector<TimeSample>& samples) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  EventWriter writer(out);

  // Track naming metadata: one process for request tracks, one for the
  // engine.  Request tids are the request ids themselves, sorted.
  writer.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                << kRequestPid << ",\"args\":{\"name\":\"requests\"}}";
  writer.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                << kEnginePid << ",\"args\":{\"name\":\"engine\"}}";
  std::map<std::int64_t, Seconds> queued_since;  // also collects ids
  for (const TraceEvent& event : events) {
    if (event.request_id >= 0) queued_since.emplace(event.request_id, -1);
  }
  for (const auto& [id, unused] : queued_since) {
    (void)unused;
    writer.next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                  << kRequestPid << ",\"tid\":" << id
                  << ",\"args\":{\"name\":\"request " << id << "\"}}";
  }

  // One forward pass: queued spans open at arrive/preempt/swap-out and
  // close at the next admit/swap-in (or the shed point); decode spans
  // open at the first token and close at preempt/swap-out/finish/shed.
  // A request that re-enters decode after its first token reopens its
  // decode span: at the end of its prefill chunk in the same step (a
  // recompute), else at decode entry (a swap-in).
  std::map<std::int64_t, Seconds> decoding_since;
  std::map<std::int64_t, const TraceEvent*> last_chunk;
  const auto close_queued = [&](std::int64_t id, Seconds end) {
    auto it = queued_since.find(id);
    if (it == queued_since.end() || it->second < 0) return;
    emit_span(writer, "queued", kRequestPid, id, it->second, end, "");
    it->second = -1;
  };
  const auto close_decoding = [&](std::int64_t id, Seconds end) {
    auto it = decoding_since.find(id);
    if (it == decoding_since.end() || it->second < 0) return;
    emit_span(writer, "decode", kRequestPid, id, it->second, end, "");
    it->second = -1;
  };
  for (const TraceEvent& event : events) {
    const std::int64_t id = event.request_id;
    std::ostringstream payload;
    write_payload(event, payload);
    std::string args = payload.str();
    if (!args.empty()) args.erase(0, 1);
    switch (event.type) {
      case TraceEventType::kArrive:
        queued_since[id] = event.time;
        break;
      case TraceEventType::kAdmit:
      case TraceEventType::kSwapIn:
        close_queued(id, event.time);
        break;
      case TraceEventType::kFirstToken:
        decoding_since[id] = event.time;
        break;
      case TraceEventType::kDecodeEnter: {
        const auto decoding = decoding_since.find(id);
        if (decoding == decoding_since.end() || decoding->second >= 0) break;
        const auto chunk = last_chunk.find(id);
        const bool recompute =
            chunk != last_chunk.end() && chunk->second->step == event.step;
        decoding->second = recompute ? chunk->second->end_time : event.time;
        break;
      }
      case TraceEventType::kPreempt:
      case TraceEventType::kSwapOut:
        close_decoding(id, event.time);
        queued_since[id] = event.time;
        break;
      case TraceEventType::kFinish:
        close_decoding(id, event.time);
        break;
      case TraceEventType::kShed:
        close_queued(id, event.time);
        close_decoding(id, event.time);
        break;
      // The three span types are written here and skip the instant below.
      case TraceEventType::kPrefillChunk:
        last_chunk[id] = &event;
        emit_span(writer,
                  "prefill [" + std::to_string(event.prev_tokens) + ", " +
                      std::to_string(event.prev_tokens + event.tokens) + ")",
                  kRequestPid, id, event.time, event.end_time,
                  args + ",\"step\":" + std::to_string(event.step));
        continue;
      case TraceEventType::kKvTransfer:
        emit_span(writer, "kv_transfer", kRequestPid, id, event.time,
                  event.end_time, args);
        continue;
      case TraceEventType::kStep:
        emit_span(writer,
                  std::string(step_kind(event)) + " b=" +
                      std::to_string(event.batch),
                  kEnginePid, kEngineTid, event.time, event.end_time,
                  "\"step\":" + std::to_string(event.step) + "," + args);
        continue;
      case TraceEventType::kPrefixHit:
      case TraceEventType::kFault:
      case TraceEventType::kRecover:
      case TraceEventType::kDegrade:
      case TraceEventType::kRoute:
        break;
    }
    // An instant without a request (a stall or device-failure fault, a
    // degrade) goes on the engine track.
    emit_instant(writer, trace_event_type_name(event.type),
                 id >= 0 ? kRequestPid : kEnginePid,
                 id >= 0 ? id : kEngineTid, event.time, args);
  }

  // Counter tracks from the time-series samples.
  for (const TimeSample& sample : samples) {
    std::ostringstream args;
    args << "\"value\":" << sample.queue_depth;
    emit_counter(writer, "queue_depth", kEnginePid, sample.time, args.str());
    args.str("");
    args << "\"resident\":" << sample.resident_sequences
         << ",\"decoding\":" << sample.resident_decoders
         << ",\"swapped\":" << sample.swapped_sequences;
    emit_counter(writer, "sequences", kEnginePid, sample.time, args.str());
    args.str("");
    args << "\"referenced\":" << sample.kv_referenced_blocks
         << ",\"cached\":"
         << sample.kv_occupied_blocks - sample.kv_referenced_blocks;
    emit_counter(writer, "kv_blocks", kEnginePid, sample.time, args.str());
    args.str("");
    args << "\"value\":" << json_double(sample.kv_internal_fragmentation);
    emit_counter(writer, "kv_fragmentation", kEnginePid, sample.time,
                 args.str());
    args.str("");
    args << "\"value\":" << json_double(sample.prefix_hit_rate);
    emit_counter(writer, "prefix_hit_rate", kEnginePid, sample.time,
                 args.str());
    if (!sample.tenant_admitted_tokens.empty()) {
      args.str("");
      bool first = true;
      for (const auto& [tenant, tokens] : sample.tenant_admitted_tokens) {
        if (!first) args << ',';
        first = false;
        args << "\"tenant " << tenant << "\":" << tokens;
      }
      emit_counter(writer, "tenant_admitted_tokens", kEnginePid, sample.time,
                   args.str());
    }
  }

  // No trailing newline: sim::write_json_file appends exactly one.
  out << "\n]}";
  return out.str();
}

std::string trace_jsonl(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << '\n';
    first = false;
    out << "{\"type\":\"" << trace_event_type_name(event.type) << '"';
    if (event.step >= 0) out << ",\"step\":" << event.step;
    out << ",\"time\":" << json_double(event.time);
    if (event.end_time != event.time) {
      out << ",\"end_time\":" << json_double(event.end_time);
    }
    if (event.request_id >= 0) out << ",\"request\":" << event.request_id;
    if (event.type == TraceEventType::kStep) {
      out << ",\"kind\":\"" << step_kind(event) << '"';
    }
    write_payload(event, out);
    out << '}';
  }
  return out.str();
}

std::vector<RequestTimeline> trace_request_timelines(
    const std::vector<TraceEvent>& events) {
  std::map<std::int64_t, RequestTimeline> timelines;
  for (const TraceEvent& event : events) {
    if (event.request_id < 0) continue;
    RequestTimeline& timeline = timelines[event.request_id];
    timeline.request_id = event.request_id;
    switch (event.type) {
      case TraceEventType::kArrive:
        if (timeline.arrival < 0) timeline.arrival = event.time;
        break;
      case TraceEventType::kAdmit:
        if (timeline.first_admit < 0) timeline.first_admit = event.time;
        break;
      case TraceEventType::kPrefillChunk:
        timeline.prefill_chunks += 1;
        break;
      case TraceEventType::kFirstToken:
        if (timeline.first_token < 0) timeline.first_token = event.time;
        break;
      case TraceEventType::kPreempt:
      case TraceEventType::kSwapOut:
        timeline.preemptions += 1;
        break;
      case TraceEventType::kFinish:
        timeline.completion = event.time;
        timeline.generated_tokens = event.tokens;
        break;
      case TraceEventType::kShed:
        timeline.shed = true;
        break;
      default:
        break;
    }
  }
  std::vector<RequestTimeline> result;
  result.reserve(timelines.size());
  for (auto& [id, timeline] : timelines) {
    (void)id;
    result.push_back(std::move(timeline));
  }
  return result;
}

namespace {

/// mkdir -p: creates `path` and its ancestors (0755); existing
/// directories are fine, other failures surface at file-write time.
void make_directories(const std::string& path) {
  std::string partial;
  partial.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      partial.push_back(path[i]);
      continue;
    }
    if (!partial.empty()) ::mkdir(partial.c_str(), 0755);
    if (i < path.size()) partial.push_back('/');
  }
}

}  // namespace

TraceReconciliation reconcile_trace(const std::vector<TraceEvent>& events,
                                    const LatencySummary& ttft,
                                    const LatencySummary& e2e) {
  const std::vector<RequestTimeline> timelines =
      trace_request_timelines(events);
  std::vector<double> ttft_values, e2e_values;
  for (const RequestTimeline& timeline : timelines) {
    if (timeline.first_token >= 0) {
      ttft_values.push_back(timeline.first_token - timeline.arrival);
    }
    if (timeline.completion >= 0) {
      e2e_values.push_back(timeline.completion - timeline.arrival);
    }
  }
  TraceReconciliation result;
  result.requests_traced = timelines.size();
  result.ttft = summarize_latencies(std::move(ttft_values));
  result.e2e = summarize_latencies(std::move(e2e_values));
  result.ttft_matches = identical_fields(result.ttft, ttft);
  result.e2e_matches = identical_fields(result.e2e, e2e);
  return result;
}

std::map<std::string, std::int64_t> trace_event_counts(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, std::int64_t> counts;
  for (const TraceEvent& event : events) {
    counts[trace_event_type_name(event.type)] += 1;
  }
  return counts;
}

std::vector<std::string> write_trace_files(
    const ServingTrace& trace, const std::vector<TimeSample>& samples) {
  const TraceConfig& config = trace.config();
  std::vector<std::string> paths;
  if (!config.enabled || config.dir.empty()) return paths;
  make_directories(config.dir);
  const std::string base = config.dir + "/" + config.label;
  paths.push_back(base + ".trace.json");
  sim::write_json_file(paths.back(),
                       perfetto_trace_json(trace.events(), samples));
  paths.push_back(base + ".jsonl");
  sim::write_json_file(paths.back(), trace_jsonl(trace.events()));
  return paths;
}

std::string sanitize_trace_label(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  bool pending_separator = false;
  for (char c : label) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (safe) {
      if (pending_separator && !out.empty()) out.push_back('_');
      pending_separator = false;
      out.push_back(c);
    } else {
      pending_separator = true;
    }
  }
  return out;
}

}  // namespace cimtpu::serving
