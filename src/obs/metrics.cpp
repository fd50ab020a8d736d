#include "obs/metrics.hpp"

#if !defined(BBNG_OBS_DISABLED)

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/assert.hpp"

namespace bbng::obs {

namespace {

/// One thread's counter array. The owning thread is the only writer and the
/// only one that grows it; snapshots read concurrently through the atomic
/// data/size pair (acquire), and grown-out-of arrays are retired into
/// `old_arrays` rather than freed, so a reader holding a stale pointer is
/// always walking live memory. Cells are relaxed atomics: increments are
/// commutative sums, and every reader that needs exactness (frames, tests)
/// either reads its own thread or reads after a happens-before join.
struct Shard {
  std::atomic<std::atomic<std::uint64_t>*> data{nullptr};
  std::atomic<std::size_t> size{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> arrays;
  bool live = true;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::string> names;        // by id
  std::unordered_map<std::string, CounterId> index;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::uint64_t> retired;    // folded totals of exited threads
  std::atomic<bool> enabled{true};
};

/// Leaked on purpose: worker threads (and their shard-handle destructors)
/// may outlive main()'s static destruction, so the registry must never die.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

/// Folds an exiting thread's counts into the registry so totals survive the
/// thread (ThreadPool instances are created and joined per campaign).
struct ShardHandle {
  Shard* shard = nullptr;
  ~ShardHandle() {
    if (shard == nullptr) return;
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const std::size_t size = shard->size.load(std::memory_order_acquire);
    std::atomic<std::uint64_t>* data = shard->data.load(std::memory_order_acquire);
    if (reg.retired.size() < size) reg.retired.resize(size, 0);
    for (std::size_t id = 0; id < size; ++id) {
      reg.retired[id] += data[id].load(std::memory_order_relaxed);
    }
    shard->live = false;
    shard->data.store(nullptr, std::memory_order_release);
    shard->size.store(0, std::memory_order_release);
    shard->arrays.clear();
  }
};

thread_local ShardHandle tl_shard;

Shard& local_shard() {
  if (tl_shard.shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    tl_shard.shard = owned.get();
    reg.shards.push_back(std::move(owned));
  }
  return *tl_shard.shard;
}

/// Grow the calling thread's shard to hold `id`. The old array stays alive
/// (snapshots may hold its pointer); publication is release so a reader
/// acquiring the new size sees fully-copied cells.
void grow_shard(Shard& shard, CounterId id) {
  const std::size_t old_size = shard.size.load(std::memory_order_relaxed);
  std::size_t capacity = std::max<std::size_t>(64, old_size * 2);
  capacity = std::max<std::size_t>(capacity, std::size_t{id} + 1);
  auto fresh = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);  // zeroed
  std::atomic<std::uint64_t>* old = shard.data.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < old_size; ++i) {
    fresh[i].store(old[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  shard.data.store(fresh.get(), std::memory_order_release);
  shard.size.store(capacity, std::memory_order_release);
  shard.arrays.push_back(std::move(fresh));
}

/// Sum of one counter across retired totals and every live shard. Caller
/// holds the registry mutex.
std::uint64_t locked_total(const Registry& reg, CounterId id) {
  std::uint64_t sum = id < reg.retired.size() ? reg.retired[id] : 0;
  for (const auto& shard : reg.shards) {
    if (!shard->live) continue;
    if (id >= shard->size.load(std::memory_order_acquire)) continue;
    sum += shard->data.load(std::memory_order_acquire)[id].load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace

CounterId register_counter(std::string_view name) {
  BBNG_REQUIRE_MSG(!name.empty(), "obs: counter name must be non-empty");
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto found = reg.index.find(std::string(name));
  if (found != reg.index.end()) return found->second;
  const auto id = static_cast<CounterId>(reg.names.size());
  reg.names.emplace_back(name);
  reg.index.emplace(std::string(name), id);
  return id;
}

void add(CounterId id, std::uint64_t delta) {
  Registry& reg = registry();
  if (!reg.enabled.load(std::memory_order_relaxed)) return;
  if (delta == 0) return;
  Shard& shard = local_shard();
  if (id >= shard.size.load(std::memory_order_relaxed)) grow_shard(shard, id);
  shard.data.load(std::memory_order_relaxed)[id].fetch_add(delta, std::memory_order_relaxed);
}

bool enabled() noexcept { return registry().enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  registry().enabled.store(on, std::memory_order_relaxed);
}

std::vector<CounterValue> snapshot() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<CounterValue> out;
  out.reserve(reg.names.size());
  for (CounterId id = 0; id < reg.names.size(); ++id) {
    out.push_back(CounterValue{reg.names[id], locked_total(reg, id)});
  }
  std::sort(out.begin(), out.end(),
            [](const CounterValue& a, const CounterValue& b) { return a.name < b.name; });
  return out;
}

std::uint64_t total(CounterId id) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  if (id >= reg.names.size()) return 0;
  return locked_total(reg, id);
}

CounterFrame::CounterFrame() {
  const Shard& shard = local_shard();
  const std::size_t size = shard.size.load(std::memory_order_relaxed);
  const std::atomic<std::uint64_t>* data = shard.data.load(std::memory_order_relaxed);
  baseline_.resize(size);
  for (std::size_t id = 0; id < size; ++id) {
    baseline_[id] = data[id].load(std::memory_order_relaxed);
  }
}

std::vector<CounterValue> CounterFrame::deltas() const {
  const Shard& shard = local_shard();
  const std::size_t size = shard.size.load(std::memory_order_relaxed);
  const std::atomic<std::uint64_t>* data = shard.data.load(std::memory_order_relaxed);
  Registry& reg = registry();
  std::vector<CounterValue> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (std::size_t id = 0; id < size && id < reg.names.size(); ++id) {
      const std::uint64_t now = data[id].load(std::memory_order_relaxed);
      const std::uint64_t before = id < baseline_.size() ? baseline_[id] : 0;
      if (now > before) out.push_back(CounterValue{reg.names[id], now - before});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CounterValue& a, const CounterValue& b) { return a.name < b.name; });
  return out;
}

std::uint64_t CounterFrame::value(std::string_view name) const {
  Registry& reg = registry();
  CounterId id = 0;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto found = reg.index.find(std::string(name));
    if (found == reg.index.end()) return 0;
    id = found->second;
  }
  const Shard& shard = local_shard();
  if (id >= shard.size.load(std::memory_order_relaxed)) return 0;
  const std::uint64_t now =
      shard.data.load(std::memory_order_relaxed)[id].load(std::memory_order_relaxed);
  const std::uint64_t before = id < baseline_.size() ? baseline_[id] : 0;
  return now - before;
}

}  // namespace bbng::obs

#endif  // !BBNG_OBS_DISABLED
