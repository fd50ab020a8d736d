#include "obs/metrics.hpp"

#if !defined(BBNG_OBS_DISABLED)

#include "obs/cell_store.hpp"

namespace bbng::obs {

namespace {

using detail::CellStore;

std::atomic<bool> g_enabled{true};

/// One summing cell per counter. Leaked on purpose: worker threads (and
/// their shard destructors) may outlive main()'s static destruction.
CellStore& counters() {
  static CellStore* instance = new CellStore(1, CellStore::kNoMaxSlot);
  return *instance;
}

thread_local CellStore::Shard tl_counters;

}  // namespace

CounterId register_counter(std::string_view name) {
  return counters().with_names([&](detail::NameIndex& names) { return names.intern(name); });
}

void add(CounterId id, std::uint64_t delta) {
  if (!enabled() || delta == 0) return;
  counters().cells(tl_counters, id)->fetch_add(delta, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

std::vector<CounterValue> snapshot() {
  std::vector<CounterValue> out;
  counters().merge_each([&](const std::string& name, const std::uint64_t* value) {
    out.push_back(CounterValue{name, *value});
  });
  detail::sort_by_name(out);
  return out;
}

std::uint64_t total(CounterId id) {
  std::uint64_t value = 0;
  counters().merge(id, &value);
  return value;
}

CounterFrame::CounterFrame() {
  for (const detail::Cell& cell : tl_counters.view()) {
    baseline_.push_back(cell.load(std::memory_order_relaxed));
  }
}

std::vector<CounterValue> CounterFrame::deltas() const {
  const std::span<const detail::Cell> cells = tl_counters.view();
  std::vector<CounterValue> out;
  counters().with_names([&](const detail::NameIndex& names) {
    for (CounterId id = 0; id < cells.size() && id < names.size(); ++id) {
      const std::uint64_t now = cells[id].load(std::memory_order_relaxed);
      const std::uint64_t before = id < baseline_.size() ? baseline_[id] : 0;
      if (now > before) out.push_back(CounterValue{names[id], now - before});
    }
  });
  detail::sort_by_name(out);
  return out;
}

std::uint64_t CounterFrame::value(std::string_view name) const {
  const std::optional<CounterId> id =
      counters().with_names([&](const detail::NameIndex& names) { return names.find(name); });
  const std::span<const detail::Cell> cells = tl_counters.view();
  if (!id || *id >= cells.size()) return 0;
  const std::uint64_t before = *id < baseline_.size() ? baseline_[*id] : 0;
  return cells[*id].load(std::memory_order_relaxed) - before;
}

}  // namespace bbng::obs

#endif  // !BBNG_OBS_DISABLED
