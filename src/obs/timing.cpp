#include "obs/timing.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

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

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/procstat.hpp"
#include "util/timer.hpp"

namespace bbng::obs {

namespace {

// Each histogram owns a fixed block of slots inside a thread's shard array:
// kHistogramBucketCount bucket counts, then count / sum_us / max_us. Buckets,
// counts and sums fold additively when a thread retires; max folds as max.
constexpr std::size_t kSlotsPerHistogram = kHistogramBucketCount + 3;
constexpr std::size_t kCountSlot = kHistogramBucketCount;
constexpr std::size_t kSumSlot = kHistogramBucketCount + 1;
constexpr std::size_t kMaxSlot = kHistogramBucketCount + 2;

/// One thread's histogram slots. Same publication discipline as the counter
/// shards (metrics.cpp): the owning thread is the only writer and grower,
/// snapshots read concurrently through the acquire-loaded data/size pair,
/// and grown-out-of arrays are retired into `arrays`, never freed.
struct TimingShard {
  std::atomic<std::atomic<std::uint64_t>*> data{nullptr};
  std::atomic<std::size_t> size{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> arrays;
  bool live = true;
};

struct TimingRegistry {
  std::mutex mutex;
  std::vector<std::string> names;  // by histogram id
  std::unordered_map<std::string, HistogramId> index;
  std::vector<std::unique_ptr<TimingShard>> shards;
  std::vector<std::uint64_t> retired;  // folded slot totals of exited threads
};

struct GaugeState {
  std::string name;
  double last = 0;
  double min = 0;
  double max = 0;
  std::uint64_t samples = 0;
};

struct GaugeRegistry {
  std::mutex mutex;
  std::vector<GaugeState> gauges;
  std::unordered_map<std::string, GaugeId> index;
};

/// Leaked on purpose, like the counter registry: pool threads (and their
/// shard-handle destructors) may outlive main()'s static destruction.
TimingRegistry& timing_registry() {
  static TimingRegistry* instance = new TimingRegistry;
  return *instance;
}

GaugeRegistry& gauge_registry() {
  static GaugeRegistry* instance = new GaugeRegistry;
  return *instance;
}

/// Folds an exiting thread's slots into the registry so totals survive the
/// thread. Max slots fold as max, everything else as a sum.
struct TimingShardHandle {
  TimingShard* shard = nullptr;
  ~TimingShardHandle() {
    if (shard == nullptr) return;
    TimingRegistry& reg = timing_registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const std::size_t size = shard->size.load(std::memory_order_acquire);
    std::atomic<std::uint64_t>* data = shard->data.load(std::memory_order_acquire);
    if (reg.retired.size() < size) reg.retired.resize(size, 0);
    for (std::size_t slot = 0; slot < size; ++slot) {
      const std::uint64_t value = data[slot].load(std::memory_order_relaxed);
      if (slot % kSlotsPerHistogram == kMaxSlot) {
        reg.retired[slot] = std::max(reg.retired[slot], value);
      } else {
        reg.retired[slot] += value;
      }
    }
    shard->live = false;
    shard->data.store(nullptr, std::memory_order_release);
    shard->size.store(0, std::memory_order_release);
    shard->arrays.clear();
  }
};

thread_local TimingShardHandle tl_timing_shard;

TimingShard& local_timing_shard() {
  if (tl_timing_shard.shard == nullptr) {
    auto owned = std::make_unique<TimingShard>();
    TimingRegistry& reg = timing_registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    tl_timing_shard.shard = owned.get();
    reg.shards.push_back(std::move(owned));
  }
  return *tl_timing_shard.shard;
}

void grow_timing_shard(TimingShard& shard, std::size_t needed_slots) {
  const std::size_t old_size = shard.size.load(std::memory_order_relaxed);
  std::size_t capacity = std::max<std::size_t>(8 * kSlotsPerHistogram, old_size * 2);
  capacity = std::max(capacity, needed_slots);
  auto fresh = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);  // zeroed
  std::atomic<std::uint64_t>* old = shard.data.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < old_size; ++i) {
    fresh[i].store(old[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  TimingRegistry& reg = timing_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  shard.data.store(fresh.get(), std::memory_order_release);
  shard.size.store(capacity, std::memory_order_release);
  shard.arrays.push_back(std::move(fresh));
}

}  // namespace

HistogramId register_histogram(std::string_view name) {
  BBNG_REQUIRE_MSG(!name.empty(), "obs: histogram name must be non-empty");
  TimingRegistry& reg = timing_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto found = reg.index.find(std::string(name));
  if (found != reg.index.end()) return found->second;
  const auto id = static_cast<HistogramId>(reg.names.size());
  reg.names.emplace_back(name);
  reg.index.emplace(std::string(name), id);
  return id;
}

void record_us(HistogramId id, std::uint64_t us) {
  if (!enabled()) return;
  TimingShard& shard = local_timing_shard();
  const std::size_t base = std::size_t{id} * kSlotsPerHistogram;
  if (base + kSlotsPerHistogram > shard.size.load(std::memory_order_relaxed)) {
    grow_timing_shard(shard, base + kSlotsPerHistogram);
  }
  std::atomic<std::uint64_t>* slots = shard.data.load(std::memory_order_relaxed) + base;
  slots[histogram_bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  slots[kCountSlot].fetch_add(1, std::memory_order_relaxed);
  slots[kSumSlot].fetch_add(us, std::memory_order_relaxed);
  // The owning thread is the sole writer, so load-compare-store is race-free.
  if (us > slots[kMaxSlot].load(std::memory_order_relaxed)) {
    slots[kMaxSlot].store(us, std::memory_order_relaxed);
  }
}

std::vector<HistogramSnapshot> histogram_snapshot() {
  TimingRegistry& reg = timing_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<HistogramSnapshot> out(reg.names.size());
  for (HistogramId id = 0; id < reg.names.size(); ++id) {
    out[id].name = reg.names[id];
    const std::size_t base = std::size_t{id} * kSlotsPerHistogram;
    const auto fold = [&](std::size_t slot, std::uint64_t value) {
      if (slot == kCountSlot) {
        out[id].count += value;
      } else if (slot == kSumSlot) {
        out[id].sum_us += value;
      } else if (slot == kMaxSlot) {
        out[id].max_us = std::max(out[id].max_us, value);
      } else {
        out[id].buckets[slot] += value;
      }
    };
    for (std::size_t slot = 0; slot < kSlotsPerHistogram; ++slot) {
      if (base + slot < reg.retired.size()) fold(slot, reg.retired[base + slot]);
      for (const auto& shard : reg.shards) {
        if (!shard->live) continue;
        if (base + slot >= shard->size.load(std::memory_order_acquire)) continue;
        fold(slot, shard->data.load(std::memory_order_acquire)[base + slot].load(
                       std::memory_order_relaxed));
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
    return a.name < b.name;
  });
  return out;
}

GaugeId register_gauge(std::string_view name) {
  BBNG_REQUIRE_MSG(!name.empty(), "obs: gauge name must be non-empty");
  GaugeRegistry& reg = gauge_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto found = reg.index.find(std::string(name));
  if (found != reg.index.end()) return found->second;
  const auto id = static_cast<GaugeId>(reg.gauges.size());
  reg.gauges.push_back(GaugeState{std::string(name), 0, 0, 0, 0});
  reg.index.emplace(std::string(name), id);
  return id;
}

void gauge_set(GaugeId id, double value) {
  if (!enabled()) return;
  GaugeRegistry& reg = gauge_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  if (id >= reg.gauges.size()) return;
  GaugeState& gauge = reg.gauges[id];
  gauge.last = value;
  gauge.min = gauge.samples == 0 ? value : std::min(gauge.min, value);
  gauge.max = gauge.samples == 0 ? value : std::max(gauge.max, value);
  ++gauge.samples;
}

std::vector<GaugeSnapshot> gauge_snapshot() {
  GaugeRegistry& reg = gauge_registry();
  std::vector<GaugeSnapshot> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    out.reserve(reg.gauges.size());
    for (const GaugeState& gauge : reg.gauges) {
      out.push_back(GaugeSnapshot{gauge.name, gauge.last, gauge.min, gauge.max, gauge.samples});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const GaugeSnapshot& a, const GaugeSnapshot& b) { return a.name < b.name; });
  return out;
}

ScopedTimer::ScopedTimer(HistogramId hist, const char* span_name) noexcept : hist_(hist) {
  if (span_name != nullptr) span_.emplace(span_name);
  if (!enabled()) return;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  start_ns_ = ns > 0 ? static_cast<std::uint64_t>(ns) : 1;
}

ScopedTimer::~ScopedTimer() {
  if (start_ns_ == 0) return;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  const std::uint64_t end_ns = ns > 0 ? static_cast<std::uint64_t>(ns) : start_ns_;
  record_us(hist_, end_ns > start_ns_ ? (end_ns - start_ns_) / 1000 : 0);
}

void ScopedTimer::arg(const char* key, std::string_view value) {
  if (span_.has_value()) span_->arg(key, value);
}

void ScopedTimer::arg(const char* key, std::uint64_t value) {
  if (span_.has_value()) span_->arg(key, value);
}

struct GaugeSampler::Impl {
  std::thread thread;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;

  GaugeId rss = register_gauge("mem.vm_rss_kb");
  GaugeId hwm = register_gauge("mem.vm_hwm_kb");
  GaugeId solve_rate = register_gauge("rate.solver.solves_per_sec");
  GaugeId scan_rate = register_gauge("rate.bfs.row_scans_per_sec");
  CounterId exact_solves = register_counter("solver.exact_bb.solves");
  CounterId swap_solves = register_counter("solver.swap.solves");
  CounterId portfolio_solves = register_counter("solver.portfolio.solves");
  CounterId row_scans = register_counter("bfs.multi.row_scans");

  Timer clock;
  double prev_seconds = 0;
  std::uint64_t prev_solves = 0;
  std::uint64_t prev_scans = 0;

  void sample() {
    gauge_set(rss, static_cast<double>(current_rss_kb()));
    gauge_set(hwm, static_cast<double>(peak_rss_kb()));
    const double now = clock.elapsed_seconds();
    const std::uint64_t solves =
        total(exact_solves) + total(swap_solves) + total(portfolio_solves);
    const std::uint64_t scans = total(row_scans);
    const double dt = now - prev_seconds;
    if (dt > 0) {
      gauge_set(solve_rate, static_cast<double>(solves - prev_solves) / dt);
      gauge_set(scan_rate, static_cast<double>(scans - prev_scans) / dt);
    }
    prev_seconds = now;
    prev_solves = solves;
    prev_scans = scans;
  }
};

GaugeSampler::GaugeSampler(double interval_seconds)
    : interval_seconds_(std::max(0.01, interval_seconds)) {}

GaugeSampler::~GaugeSampler() { stop(); }

void GaugeSampler::start() {
  if (impl_ != nullptr) return;
  impl_ = std::make_unique<Impl>();
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
