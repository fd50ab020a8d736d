#include "obs/timing.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace bbng::obs {

namespace {

constexpr std::array<std::uint64_t, kHistogramBoundaryCount> kBoundariesUs = {
    1,       2,       5,        10,       20,       50,        100,       200,      500,
    1000,    2000,    5000,     10000,    20000,    50000,     100000,    200000,   500000,
    1000000, 2000000, 5000000,  10000000, 20000000, 50000000,  100000000};

}  // namespace

const std::array<std::uint64_t, kHistogramBoundaryCount>& histogram_boundaries_us() noexcept {
  return kBoundariesUs;
}

std::size_t histogram_bucket_index(std::uint64_t us) noexcept {
  const auto it = std::lower_bound(kBoundariesUs.begin(), kBoundariesUs.end(), us);
  return static_cast<std::size_t>(it - kBoundariesUs.begin());  // end() → overflow bucket
}

double HistogramSnapshot::quantile_us(double q) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < kHistogramBucketCount; ++bucket) {
    const std::uint64_t before = cumulative;
    cumulative += buckets[bucket];
    if (cumulative < rank) continue;
    if (bucket >= kHistogramBoundaryCount) return static_cast<double>(max_us);
    const double upper = static_cast<double>(kBoundariesUs[bucket]);
    const double lower = bucket == 0 ? 0.0 : static_cast<double>(kBoundariesUs[bucket - 1]);
    const double inside = static_cast<double>(rank - before);
    const double width = static_cast<double>(buckets[bucket]);
    const double estimate = lower + (upper - lower) * (width > 0 ? inside / width : 1.0);
    return std::min(estimate, static_cast<double>(max_us));
  }
  return static_cast<double>(max_us);
}

}  // namespace bbng::obs

#if !defined(BBNG_OBS_DISABLED)

#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/cell_store.hpp"
#include "util/procstat.hpp"
#include "util/timer.hpp"

namespace bbng::obs {

namespace {

using detail::CellStore;

// Each histogram owns kHistogramBucketCount bucket cells, then count / sum_us
// / max_us. Buckets, counts and sums fold additively; max folds as max.
constexpr std::size_t kCellsPerHistogram = kHistogramBucketCount + 3;
constexpr std::size_t kCountSlot = kHistogramBucketCount;
constexpr std::size_t kSumSlot = kHistogramBucketCount + 1;
constexpr std::size_t kMaxSlot = kHistogramBucketCount + 2;

/// Leaked on purpose, like the counter store (metrics.cpp).
CellStore& histograms() {
  static CellStore* instance = new CellStore(kCellsPerHistogram, kMaxSlot);
  return *instance;
}

thread_local CellStore::Shard tl_histograms;

/// Steady-clock nanoseconds, never 0 (a 0 start marks a timer that is off).
std::uint64_t steady_ns() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 1;
}

struct GaugeRegistry {
  std::mutex mutex;
  detail::NameIndex names;
  std::vector<GaugeSnapshot> gauges;  // by gauge id
};

GaugeRegistry& gauge_registry() {
  static GaugeRegistry* instance = new GaugeRegistry;
  return *instance;
}

}  // namespace

HistogramId register_histogram(std::string_view name) {
  return histograms().with_names([&](detail::NameIndex& names) { return names.intern(name); });
}

void record_us(HistogramId id, std::uint64_t us) {
  if (!enabled()) return;
  detail::Cell* cells = histograms().cells(tl_histograms, id);
  cells[histogram_bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  cells[kCountSlot].fetch_add(1, std::memory_order_relaxed);
  cells[kSumSlot].fetch_add(us, std::memory_order_relaxed);
  // The owning thread is the sole writer, so load-compare-store is race-free.
  if (us > cells[kMaxSlot].load(std::memory_order_relaxed)) {
    cells[kMaxSlot].store(us, std::memory_order_relaxed);
  }
}

std::vector<HistogramSnapshot> histogram_snapshot() {
  std::vector<HistogramSnapshot> out;
  histograms().merge_each([&](const std::string& name, const std::uint64_t* cells) {
    HistogramSnapshot& histogram = out.emplace_back();
    histogram.name = name;
    std::copy_n(cells, kHistogramBucketCount, histogram.buckets.begin());
    histogram.count = cells[kCountSlot];
    histogram.sum_us = cells[kSumSlot];
    histogram.max_us = cells[kMaxSlot];
  });
  detail::sort_by_name(out);
  return out;
}

GaugeId register_gauge(std::string_view name) {
  GaugeRegistry& reg = gauge_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const GaugeId id = reg.names.intern(name);
  if (id == reg.gauges.size()) reg.gauges.push_back(GaugeSnapshot{std::string(name)});
  return id;
}

void gauge_set(GaugeId id, double value) {
  if (!enabled()) return;
  GaugeRegistry& reg = gauge_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  if (id >= reg.gauges.size()) return;
  GaugeSnapshot& gauge = reg.gauges[id];
  gauge.last = value;
  gauge.min = gauge.samples == 0 ? value : std::min(gauge.min, value);
  gauge.max = gauge.samples == 0 ? value : std::max(gauge.max, value);
  ++gauge.samples;
}

std::vector<GaugeSnapshot> gauge_snapshot() {
  GaugeRegistry& reg = gauge_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<GaugeSnapshot> out = reg.gauges;
  detail::sort_by_name(out);
  return out;
}

ScopedTimer::ScopedTimer(HistogramId hist, const char* span_name) noexcept : hist_(hist) {
  if (span_name != nullptr) span_.emplace(span_name);
  if (enabled()) start_ns_ = steady_ns();
}

ScopedTimer::~ScopedTimer() {
  if (start_ns_ == 0) return;
  const std::uint64_t end_ns = steady_ns();
  record_us(hist_, end_ns > start_ns_ ? (end_ns - start_ns_) / 1000 : 0);
}

void ScopedTimer::arg(const char* key, std::string_view value) {
  if (span_.has_value()) span_->arg(key, value);
}

void ScopedTimer::arg(const char* key, std::uint64_t value) {
  if (span_.has_value()) span_->arg(key, value);
}

struct GaugeSampler::Impl {
  /// One rate gauge and the total it last read.
  struct Rate {
    GaugeId gauge;
    std::uint64_t (*total)();
    std::uint64_t prev = 0;
  };

  std::thread thread;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;

  GaugeId rss = register_gauge("mem.vm_rss_kb");
  GaugeId hwm = register_gauge("mem.vm_hwm_kb");
  std::vector<Rate> rates;

  Timer clock;
  double prev_seconds = 0;

  void sample() {
    gauge_set(rss, static_cast<double>(current_rss_kb()));
    gauge_set(hwm, static_cast<double>(peak_rss_kb()));
    const double now = clock.elapsed_seconds();
    const double dt = now - prev_seconds;
    for (Rate& rate : rates) {
      const std::uint64_t total = rate.total();
      if (dt > 0) gauge_set(rate.gauge, static_cast<double>(total - rate.prev) / dt);
      rate.prev = total;
    }
    prev_seconds = now;
  }
};

GaugeSampler::GaugeSampler(std::vector<RateSource> rates, double interval_seconds)
    : rates_(std::move(rates)), interval_seconds_(std::max(0.01, interval_seconds)) {}

GaugeSampler::~GaugeSampler() { stop(); }

void GaugeSampler::start() {
  if (impl_ != nullptr) return;
  impl_ = std::make_unique<Impl>();
  for (const RateSource& rate : rates_) {
    impl_->rates.push_back({register_gauge(rate.gauge), rate.total});
  }
  impl_->sample();  // baseline for the rate deltas; records initial RSS
  impl_->thread = std::thread([this] {
    const auto interval = std::chrono::duration<double>(interval_seconds_);
    std::unique_lock<std::mutex> lock(impl_->mutex);
    while (!impl_->stopping) {
      if (impl_->cv.wait_for(lock, interval, [this] { return impl_->stopping; })) break;
      impl_->sample();
    }
  });
}

void GaugeSampler::stop() {
  if (impl_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  impl_->sample();  // final sample: sub-interval runs still record memory
  impl_.reset();
}

}  // namespace bbng::obs

#endif  // !BBNG_OBS_DISABLED
