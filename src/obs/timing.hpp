// Timing telemetry: latency histograms, gauges, RAII timers.
//
// The metric registry (metrics.hpp) answers "how much work happened"; this
// layer answers "how long did it take" — the quantity a serve-mode system
// is actually judged on. Three primitives:
//
//  - Histogram: fixed log-linear bucket boundaries (1-2-5 ladder in
//    microseconds, shared by every histogram), kept in the same per-thread
//    cell store as counters (obs/cell_store.hpp). Snapshots expose
//    count/sum/max plus interpolated p50/p90/p99.
//  - Gauge: last/min/max of a sampled quantity. Fed by GaugeSampler, a
//    low-rate background thread recording VmRSS/VmHWM and counter-derived
//    rates (solver solves/s, BFS row scans/s) while an engine run is alive.
//  - ScopedTimer: RAII — records the scope's elapsed wall time into a
//    histogram at destruction and optionally opens a TraceSpan of the same
//    extent, so one object feeds both the percentile surface and the
//    Chrome-trace timeline.
//
// ALL timing data is host-scoped: wall time depends on the machine and the
// scheduler, so none of it may enter the deterministic JSONL artifact.
// It surfaces through a side channel instead: the `<artifact>.obs_host.json`
// sidecar written at summary time (engine/sinks.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace bbng::obs {

/// Shared log-linear bucket boundaries, microseconds, "value <= boundary"
/// semantics (Prometheus `le`). A 1-2-5 ladder from 1 µs to 100 s; values
/// beyond the last boundary land in the implicit +Inf overflow bucket.
inline constexpr std::size_t kHistogramBoundaryCount = 25;
inline constexpr std::size_t kHistogramBucketCount = kHistogramBoundaryCount + 1;

[[nodiscard]] const std::array<std::uint64_t, kHistogramBoundaryCount>&
histogram_boundaries_us() noexcept;

/// Bucket index (0..kHistogramBucketCount-1) a microsecond value lands in.
[[nodiscard]] std::size_t histogram_bucket_index(std::uint64_t us) noexcept;

/// Merged view of one histogram across every thread that ever recorded.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;
  std::array<std::uint64_t, kHistogramBucketCount> buckets{};  ///< non-cumulative

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing bucket; clamped to max_us (exact for the overflow bucket).
  /// 0 when the histogram is empty.
  [[nodiscard]] double quantile_us(double q) const noexcept;
};

struct GaugeSnapshot {
  std::string name;
  double last = 0;
  double min = 0;
  double max = 0;
  std::uint64_t samples = 0;
};

/// A cumulative total that GaugeSampler turns into a per-second rate gauge.
struct RateSource {
  std::string gauge;         ///< gauge name, e.g. `rate.bfs.row_scans_per_sec`
  std::uint64_t (*total)();  ///< the running total, read at every sample
};

using HistogramId = std::uint32_t;
using GaugeId = std::uint32_t;

/// Intern `name` into a stable histogram id (idempotent, like counters).
HistogramId register_histogram(std::string_view name);

/// Record one duration into the calling thread's shard. Wait-free; a single
/// relaxed load when the registry kill switch (obs::set_enabled) is off.
void record_us(HistogramId id, std::uint64_t us);

/// All registered histograms merged across threads, sorted by name.
[[nodiscard]] std::vector<HistogramSnapshot> histogram_snapshot();

/// Intern `name` into a stable gauge id (idempotent).
GaugeId register_gauge(std::string_view name);

/// Record one observation (updates last/min/max). Mutex-guarded — gauges
/// are sampled at human rates, never from hot loops.
void gauge_set(GaugeId id, double value);

/// All registered gauges, sorted by name. Gauges with zero samples are
/// included (count 0) so registration is observable.
[[nodiscard]] std::vector<GaugeSnapshot> gauge_snapshot();

/// RAII timer: records the scope's elapsed microseconds into `hist` at
/// destruction, and — when `span_name` is non-null — opens a TraceSpan of
/// the same extent. `arg()` forwards to the span (free when no session is
/// active). Recording obeys the registry kill switch at construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramId hist, const char* span_name = nullptr) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  void arg(const char* key, std::string_view value);
  void arg(const char* key, std::uint64_t value);

 private:
  HistogramId hist_ = 0;
  std::uint64_t start_ns_ = 0;  ///< 0 = not recording
  std::optional<TraceSpan> span_;
};

/// Background sampler feeding the gauge registry during engine runs:
/// `mem.vm_rss_kb` / `mem.vm_hwm_kb` from /proc/self/status and one rate
/// gauge per RateSource over the sampling interval. start() spawns one
/// thread; stop() (idempotent, also run by the destructor) takes a final
/// sample before joining so even sub-interval runs record memory.
class GaugeSampler {
 public:
  explicit GaugeSampler(std::vector<RateSource> rates = {}, double interval_seconds = 0.25);
  ~GaugeSampler();
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void start();
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<RateSource> rates_;
  double interval_seconds_;
};

}  // namespace bbng::obs
