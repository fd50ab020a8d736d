#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"

#if !defined(BBNG_OBS_DISABLED)

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace bbng::obs {

namespace {

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
  std::uint32_t generation = 0;
  std::vector<TraceSpan::Arg> args;
};

/// Per-thread event sink. Appends lock the buffer's own mutex (spans are
/// coarse — jobs, solves, batches — so contention is nil) which keeps
/// begin()/end_json() clearing/collecting TSan-clean against live writers.
struct EventBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::unique_ptr<EventBuffer>> buffers;
  std::atomic<bool> active{false};
  std::atomic<std::uint32_t> generation{0};
  std::atomic<std::int64_t> epoch_ns{0};
  std::uint32_t next_tid = 0;
};

/// Leaked: spans on pool threads may outlive main()'s static destruction.
TraceState& state() {
  static TraceState* instance = new TraceState;
  return *instance;
}

thread_local EventBuffer* tl_buffer = nullptr;

EventBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    auto owned = std::make_unique<EventBuffer>();
    TraceState& st = state();
    const std::lock_guard<std::mutex> lock(st.mutex);
    owned->tid = st.next_tid++;
    tl_buffer = owned.get();
    st.buffers.push_back(std::move(owned));
  }
  return *tl_buffer;
}

std::uint64_t now_us_since_epoch() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  const std::int64_t since = ns - state().epoch_ns.load(std::memory_order_acquire);
  return since > 0 ? static_cast<std::uint64_t>(since) / 1000 : 0;
}

}  // namespace

TraceSpan::TraceSpan(const char* name) noexcept {
  TraceState& st = state();
  if (!st.active.load(std::memory_order_acquire)) return;
  name_ = name;
  generation_ = st.generation.load(std::memory_order_acquire);
  start_us_ = now_us_since_epoch();
  active_ = true;
}

void TraceSpan::arg(const char* key, std::string_view value) {
  if (!active_) return;
  args_.push_back(Arg{key, std::string(value), 0, false});
}

void TraceSpan::arg(const char* key, std::uint64_t value) {
  if (!active_) return;
  args_.push_back(Arg{key, std::string(), value, true});
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceState& st = state();
  // A session that ended (or restarted) mid-span drops the event: its
  // timestamps belong to the old clock.
  if (!st.active.load(std::memory_order_acquire)) return;
  if (st.generation.load(std::memory_order_acquire) != generation_) return;
  TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  const std::uint64_t end_us = now_us_since_epoch();
  event.dur_us = end_us > start_us_ ? end_us - start_us_ : 0;
  event.generation = generation_;
  event.args = std::move(args_);
  EventBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

namespace trace {

void begin() {
  TraceState& st = state();
  const std::lock_guard<std::mutex> lock(st.mutex);
  for (const auto& buffer : st.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  st.generation.fetch_add(1, std::memory_order_acq_rel);
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  st.epoch_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(now).count(),
                    std::memory_order_release);
  st.active.store(true, std::memory_order_release);
}

std::string end_json() {
  TraceState& st = state();
  st.active.store(false, std::memory_order_release);
  const std::uint32_t generation = st.generation.load(std::memory_order_acquire);
  std::vector<TraceEvent> events;
  {
    const std::lock_guard<std::mutex> lock(st.mutex);
    for (const auto& buffer : st.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      for (TraceEvent& event : buffer->events) {
        if (event.generation == generation) events.push_back(std::move(event));
      }
      buffer->events.clear();
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });

  std::ostringstream os;
  JsonWriter writer(os, /*pretty=*/false);
  writer.begin_object();
  writer.key("traceEvents").begin_array();
  for (const TraceEvent& event : events) {
    writer.begin_object()
        .field("name", event.name)
        .field("cat", "bbng")
        .field("ph", "X")
        .field("ts", event.ts_us)
        .field("dur", event.dur_us)
        .field("pid", 1)
        .field("tid", event.tid);
    writer.key("args").begin_object();
    for (const TraceSpan::Arg& arg : event.args) {
      writer.key(arg.key);
      if (arg.is_number) {
        writer.value(arg.number);
      } else {
        writer.value(arg.text);
      }
    }
    writer.end_object().end_object();
  }
  writer.end_array().field("displayTimeUnit", "ms").end_object();
  BBNG_ASSERT(writer.complete());
  return os.str();
}

}  // namespace trace

}  // namespace bbng::obs

#else  // BBNG_OBS_DISABLED — still honour --trace with an empty valid doc.

namespace bbng::obs::trace {

std::string end_json() { return R"({"traceEvents":[],"displayTimeUnit":"ms"})"; }

}  // namespace bbng::obs::trace

#endif

namespace bbng::obs {

void trace::write_file(const std::string& path) {
  const std::string document = end_json();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::invalid_argument("trace: cannot write " + path);
  out << document << '\n';
  if (!out.flush()) throw std::invalid_argument("trace: failed flushing " + path);
}

namespace {

[[noreturn]] void trace_error(const std::string& what) {
  throw std::invalid_argument("trace: " + what);
}

}  // namespace

std::size_t validate_trace_json(const JsonValue& root) {
  if (!root.is_object()) trace_error("document must be a JSON object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr) trace_error("document lacks a traceEvents member");
  if (!events->is_array()) trace_error("traceEvents must be an array");
  std::size_t index = 0;
  double previous_ts = -1;
  for (const JsonValue& event : events->items()) {
    const std::string where = "traceEvents[" + std::to_string(index) + "]";
    if (!event.is_object()) trace_error(where + " must be an object");
    const JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      trace_error(where + " needs a non-empty string name");
    }
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") {
      trace_error(where + " needs ph \"X\" (complete event)");
    }
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const JsonValue* member = event.find(field);
      if (member == nullptr || !member->is_number() || member->as_double() < 0) {
        trace_error(where + " needs a non-negative numeric " + field);
      }
    }
    // The emitter stable-sorts by ts, so a decreasing ts means a torn or
    // hand-edited document — and downstream attribution (trace_analysis)
    // depends on the ordering.
    const double ts = event.at("ts").as_double();
    if (ts < previous_ts) {
      trace_error(where + " ts is non-monotonic (decreased from " +
                  std::to_string(previous_ts) + " to " + std::to_string(ts) + ")");
    }
    previous_ts = ts;
    const JsonValue* args = event.find("args");
    if (args != nullptr && !args->is_object()) trace_error(where + " args must be an object");
    ++index;
  }
  return events->items().size();
}

}  // namespace bbng::obs
