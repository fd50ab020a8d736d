// Timing-telemetry tests: the 1-2-5 bucket ladder and quantile
// interpolation, per-thread histogram shards merging (and surviving thread
// exit) like the counter registry, snapshots racing shard growth and thread
// exit in the cell store both share, the runtime kill switch, gauges and the
// background GaugeSampler, and ScopedTimer feeding both a histogram and a
// trace span.
#include "obs/timing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/procstat.hpp"

namespace bbng {
namespace {

obs::HistogramSnapshot find_histogram(const std::string& name) {
  for (const obs::HistogramSnapshot& hist : obs::histogram_snapshot()) {
    if (hist.name == name) return hist;
  }
  return {};
}

obs::GaugeSnapshot find_gauge(const std::string& name) {
  for (const obs::GaugeSnapshot& gauge : obs::gauge_snapshot()) {
    if (gauge.name == name) return gauge;
  }
  return {};
}

TEST(HistogramBuckets, BoundariesAreA125MicrosecondLadder) {
  const auto& boundaries = obs::histogram_boundaries_us();
  ASSERT_EQ(boundaries.size(), obs::kHistogramBoundaryCount);
  EXPECT_EQ(boundaries.front(), 1u);
  EXPECT_EQ(boundaries.back(), 100'000'000u);  // 100 s
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_LT(boundaries[i - 1], boundaries[i]);
    // A 1-2-5 ladder: each boundary is 2x or 2.5x its predecessor.
    const std::uint64_t ratio10 = boundaries[i] * 10 / boundaries[i - 1];
    EXPECT_TRUE(ratio10 == 20 || ratio10 == 25) << boundaries[i];
  }
}

TEST(HistogramBuckets, IndexingUsesLeSemantics) {
  EXPECT_EQ(obs::histogram_bucket_index(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_index(1), 0u);  // value <= boundary
  EXPECT_EQ(obs::histogram_bucket_index(2), 1u);
  EXPECT_EQ(obs::histogram_bucket_index(3), 2u);
  EXPECT_EQ(obs::histogram_bucket_index(5), 2u);
  EXPECT_EQ(obs::histogram_bucket_index(6), 3u);
  EXPECT_EQ(obs::histogram_bucket_index(100'000'000), obs::kHistogramBoundaryCount - 1);
  // Beyond the last boundary: the +Inf overflow bucket.
  EXPECT_EQ(obs::histogram_bucket_index(100'000'001), obs::kHistogramBoundaryCount);
}

TEST(HistogramSnapshot, QuantilesInterpolateInsideTheContainingBucket) {
  obs::HistogramSnapshot snapshot;
  EXPECT_EQ(snapshot.quantile_us(0.5), 0.0) << "empty histogram";

  // 100 samples, all in the (5, 10] bucket, true max 9.
  snapshot.count = 100;
  snapshot.max_us = 9;
  snapshot.sum_us = 900;
  snapshot.buckets[obs::histogram_bucket_index(9)] = 100;
  EXPECT_DOUBLE_EQ(snapshot.quantile_us(0.5), 7.5);  // 5 + 5 * 50/100
  EXPECT_DOUBLE_EQ(snapshot.quantile_us(0.9), 9.0);  // 9.5 interpolated, clamped to max
  EXPECT_DOUBLE_EQ(snapshot.quantile_us(1.0), 9.0);

  // A sample in the overflow bucket reports the exact max.
  obs::HistogramSnapshot overflow;
  overflow.count = 1;
  overflow.max_us = 250'000'000;
  overflow.buckets[obs::kHistogramBoundaryCount] = 1;
  EXPECT_DOUBLE_EQ(overflow.quantile_us(0.5), 250'000'000.0);
}

TEST(TimingRegistry, RecordsMergeAcrossThreadsAndSurviveExit) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::HistogramId id = obs::register_histogram("test.hist.merge");
  EXPECT_EQ(obs::register_histogram("test.hist.merge"), id) << "interning is idempotent";
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([id, t] {
      for (int i = 0; i < 100; ++i) obs::record_us(id, 1000);
      if (t == 0) obs::record_us(id, 7'000'000);  // one outlier pins the max
    });
  }
  for (auto& thread : threads) thread.join();
  // The threads exited: their shards must have folded into retained totals.
  const obs::HistogramSnapshot merged = find_histogram("test.hist.merge");
  EXPECT_EQ(merged.count, 401u);
  EXPECT_EQ(merged.sum_us, 400u * 1000 + 7'000'000);
  EXPECT_EQ(merged.max_us, 7'000'000u);
  EXPECT_EQ(merged.buckets[obs::histogram_bucket_index(1000)], 400u);
  EXPECT_EQ(merged.buckets[obs::histogram_bucket_index(7'000'000)], 1u);

  std::string previous;
  for (const obs::HistogramSnapshot& hist : obs::histogram_snapshot()) {
    EXPECT_LT(previous, hist.name) << "snapshot must be name-sorted";
    previous = hist.name;
  }
}

// Counters and histograms share one per-thread cell store. Here one thread
// keeps interning new names, so its shards grow past their first arrays,
// while a second thread snapshots both stores in a loop and a third records
// and exits, folding its cells (max included) into the retained totals.
TEST(TimingRegistry, SnapshotsRaceShardGrowthAndRetirement) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  constexpr std::uint64_t kNames = 300;
  constexpr std::uint64_t kRecords = 1000;
  const obs::CounterId retire_counter = obs::register_counter("test.race.retire");
  const obs::HistogramId retire_hist = obs::register_histogram("test.race.retire");
  const std::uint64_t counter_before = obs::total(retire_counter);
  obs::record_us(retire_hist, 7);  // this thread's shard stays live

  std::atomic<bool> snapshotting{false};
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    std::uint64_t rounds = 0;
    while (!done.load() || rounds == 0) {
      static_cast<void>(obs::snapshot());
      static_cast<void>(obs::histogram_snapshot());
      ++rounds;
      snapshotting.store(true);
    }
  });
  while (!snapshotting.load()) std::this_thread::yield();
  std::thread grower([] {
    for (std::uint64_t i = 0; i < kNames; ++i) {
      const std::string suffix = std::to_string(i);
      obs::add(obs::register_counter("test.race.grow." + suffix), i + 1);
      obs::record_us(obs::register_histogram("test.race.grow." + suffix), i);
    }
  });
  std::thread recorder([&] {
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      obs::add(retire_counter, 1);
      obs::record_us(retire_hist, i == kRecords / 2 ? 9'000'000 : i);
    }
  });
  grower.join();
  recorder.join();
  done.store(true);
  snapshotter.join();

  EXPECT_EQ(obs::total(retire_counter), counter_before + kRecords);
  const obs::HistogramSnapshot retired = find_histogram("test.race.retire");
  EXPECT_EQ(retired.count, kRecords + 1);
  EXPECT_EQ(retired.sum_us, 7 + kRecords * (kRecords + 1) / 2 - kRecords / 2 + 9'000'000);
  EXPECT_EQ(retired.max_us, 9'000'000u) << "the max must survive the thread's exit";
  for (std::uint64_t i = 0; i < kNames; ++i) {
    const std::string name = "test.race.grow." + std::to_string(i);
    EXPECT_EQ(obs::total(obs::register_counter(name)), i + 1) << name;
    const obs::HistogramSnapshot grown = find_histogram(name);
    EXPECT_EQ(grown.count, 1u) << name;
    EXPECT_EQ(grown.sum_us, i) << name;
    EXPECT_EQ(grown.max_us, i) << name;
  }
}

TEST(TimingRegistry, KillSwitchStopsRecording) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::HistogramId id = obs::register_histogram("test.hist.kill_switch");
  obs::set_enabled(false);
  obs::record_us(id, 5);
  obs::set_enabled(true);
  EXPECT_EQ(find_histogram("test.hist.kill_switch").count, 0u);
  obs::record_us(id, 5);
  EXPECT_EQ(find_histogram("test.hist.kill_switch").count, 1u);
}

TEST(Gauges, TrackLastMinMaxAndSampleCount) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::GaugeId id = obs::register_gauge("test.gauge.basic");
  EXPECT_EQ(obs::register_gauge("test.gauge.basic"), id);
  EXPECT_EQ(find_gauge("test.gauge.basic").samples, 0u)
      << "registration alone is observable with zero samples";
  obs::gauge_set(id, 5.0);
  obs::gauge_set(id, 2.0);
  obs::gauge_set(id, 9.0);
  const obs::GaugeSnapshot gauge = find_gauge("test.gauge.basic");
  EXPECT_DOUBLE_EQ(gauge.last, 9.0);
  EXPECT_DOUBLE_EQ(gauge.min, 2.0);
  EXPECT_DOUBLE_EQ(gauge.max, 9.0);
  EXPECT_EQ(gauge.samples, 3u);
}

TEST(Gauges, SamplerRecordsMemoryAndRates) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const std::uint64_t before = find_gauge("mem.vm_rss_kb").samples;
  const auto ticks = [] {
    static const obs::CounterId id = obs::register_counter("test.sampler.ticks");
    return obs::total(id);
  };
  {
    obs::GaugeSampler sampler({{"test.rate.ticks_per_sec", ticks}}, 0.01);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }  // destructor stops (idempotent) and takes the final sample
  const obs::GaugeSnapshot rss = find_gauge("mem.vm_rss_kb");
  EXPECT_GE(rss.samples, before + 2u) << "baseline + at least one tick";
  EXPECT_GT(rss.last, 0.0);
  EXPECT_GT(find_gauge("mem.vm_hwm_kb").last, 0.0);
  EXPECT_GE(find_gauge("mem.vm_hwm_kb").last, rss.last)
      << "the high-water mark bounds current RSS";
  EXPECT_GE(find_gauge("test.rate.ticks_per_sec").samples, 1u)
      << "one rate gauge per caller-given source";
  // The sampler reads the same /proc parser the sidecar uses.
  EXPECT_GT(peak_rss_kb(), 0u);
  EXPECT_GT(current_rss_kb(), 0u);
  EXPECT_GE(peak_rss_kb(), current_rss_kb());
}

TEST(ScopedTimer, RecordsIntoTheHistogramAndOpensASpan) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::HistogramId id = obs::register_histogram("test.hist.scoped");
  obs::trace::begin();
  {
    obs::ScopedTimer timer(id, "test.scoped.span");
    timer.arg("label", std::string_view{"value"});
    timer.arg("number", std::uint64_t{3});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    obs::ScopedTimer histogram_only(id);  // no span name → no trace event
  }
  const std::string json = obs::trace::end_json();
  EXPECT_NE(json.find("test.scoped.span"), std::string::npos);
  EXPECT_EQ(obs::validate_trace_json(parse_json(json)), 1u)
      << "the span-less timer must not emit a trace event";

  const obs::HistogramSnapshot hist = find_histogram("test.hist.scoped");
  EXPECT_EQ(hist.count, 2u);
  EXPECT_GE(hist.max_us, 2000u) << "the 2 ms sleep must be visible";
}

}  // namespace
}  // namespace bbng
