// TraceSpan — scoped RAII tracing emitting Chrome-trace-event JSON.
//
// A process-wide trace session (`trace::begin()` … `trace::end_json()` /
// `trace::write_file()`) collects complete-events ("ph":"X") from every
// thread into per-thread buffers; the rendered document is the Trace Event
// Format that Perfetto (https://ui.perfetto.dev) and chrome://tracing load
// directly. The engine opens a session for `bbng_engine run --trace <file>`
// and emits per-job spans (tagged job id/task/scenario), window-commit
// spans, and solver/BFS phase spans.
//
// When no session is active a span is one relaxed atomic load — cheap
// enough to leave in solver hot paths. Spans record wall-clock; they are
// diagnostics, NOT part of the deterministic artifact surface (the metrics
// registry covers that). With -DBBNG_OBS=OFF the layer compiles to no-ops
// and `end_json()` renders an empty, still-valid trace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace bbng::obs {

#if !defined(BBNG_OBS_DISABLED)

/// One complete event. Construction checks session liveness; `arg()` calls
/// on an inactive span are free. The destructor records the event into the
/// calling thread's buffer.
class TraceSpan {
 public:
  /// `name` must outlive the span (string literals in practice).
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  void arg(const char* key, std::string_view value);
  void arg(const char* key, std::uint64_t value);

  /// Span argument as captured (public: the session renderer reads these).
  struct Arg {
    std::string key;
    std::string text;
    std::uint64_t number = 0;
    bool is_number = false;
  };

 private:
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::uint32_t generation_ = 0;
  bool active_ = false;
  std::vector<Arg> args_;
};

namespace trace {

/// Start a session: clears previously-buffered events, restarts the clock.
void begin();

/// Stop the session and render the collected events as a Chrome-trace JSON
/// document (object form: {"traceEvents": [...], ...}). Idempotent in the
/// sense that a second call without begin() renders an empty trace.
[[nodiscard]] std::string end_json();

/// end_json() straight to a file; throws std::invalid_argument on I/O error.
void write_file(const std::string& path);

}  // namespace trace

#else  // BBNG_OBS_DISABLED

class TraceSpan {
 public:
  explicit TraceSpan(const char*) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  [[nodiscard]] bool active() const noexcept { return false; }
  void arg(const char*, std::string_view) {}
  void arg(const char*, std::uint64_t) {}
};

namespace trace {
inline void begin() {}
[[nodiscard]] std::string end_json();          // empty valid document
void write_file(const std::string& path);      // writes the empty document
}  // namespace trace

#endif

/// Structural Chrome-trace validation (always compiled): requires the
/// object form with a "traceEvents" array of complete events carrying the
/// fields Perfetto needs (name, ph "X", numeric ts/dur/pid/tid, object
/// args) with non-decreasing ts across the array (the emitter sorts; the
/// trace_analysis attribution depends on the order). Returns the event
/// count; throws std::invalid_argument naming the first violation. Used by
/// tests to prove emitted traces round-trip.
std::size_t validate_trace_json(const JsonValue& root);

}  // namespace bbng::obs
