// CellStore — the one concurrent store behind obs counters (metrics.cpp) and
// latency histograms (timing.cpp). Internal to src/obs.
//
// Every interned name owns `stride` consecutive uint64 cells. Each thread
// owns a shard, a growable array of relaxed-atomic cells that only it writes
// or grows. It swaps in a grown array under the store mutex, which every
// other reader holds, so the old array is freed at once. An exiting thread's
// cells fold into retained totals; reads merge those with every live shard
// under the mutex. Cells fold as sums, except the one `max_slot` cell per
// name, which folds as a max; both folds commute, so merges ignore thread
// order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bbng::obs::detail {

using Cell = std::atomic<std::uint64_t>;

/// Dense ids in registration order: the one interning table behind counter,
/// histogram and gauge ids. Unsynchronised; its owner guards it.
class NameIndex {
 public:
  /// The id of `name` (non-empty), appended when new.
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name) const {
    const auto found = ids_.find(std::string(name));
    return found == ids_.end() ? std::nullopt : std::optional(found->second);
  }
  [[nodiscard]] const std::string& operator[](std::uint32_t id) const { return names_[id]; }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(names_.size()); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

class CellStore {
 public:
  /// One thread's cells in one store; declare it `thread_local`. It attaches
  /// on first write and folds into the retained totals when the thread exits.
  struct Shard {
    CellStore* store = nullptr;
    std::unique_ptr<Cell[]> cells;
    std::size_t size = 0;
    ~Shard();
    /// Every cell of this shard; only its own thread may call this.
    [[nodiscard]] std::span<const Cell> view() const { return {cells.get(), size}; }
  };

  static constexpr std::size_t kNoMaxSlot = std::numeric_limits<std::size_t>::max();

  /// `max_slot` is the cell index (below `stride`) that folds as a max, or
  /// kNoMaxSlot when every cell sums.
  CellStore(std::size_t stride, std::size_t max_slot) : stride_(stride), max_slot_(max_slot) {}

  /// The `stride` cells of `id` in `shard`, the calling thread's own shard.
  /// Wait-free except on first touch and growth.
  Cell* cells(Shard& shard, std::uint32_t id) {
    if (shard.store == nullptr) attach(shard);
    const std::size_t base = std::size_t{id} * stride_;
    if (base + stride_ > shard.size) grow(shard, base + stride_);
    return shard.cells.get() + base;
  }

  /// Runs `fn(names)` under the store mutex and returns its result.
  template <class Fn>
  auto with_names(Fn&& fn) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return fn(names_);
  }

  /// Under the store mutex, calls `visit(name, merged)` for every id in order,
  /// with the id's `stride` cells merged over retained totals and live shards.
  void merge_each(const std::function<void(const std::string&, const std::uint64_t*)>& visit);

  /// Merged cells of `id` into `out[0, stride)`; untouched if not interned.
  void merge(std::uint32_t id, std::uint64_t* out);

 private:
  void attach(Shard& shard);
  void grow(Shard& shard, std::size_t needed);
  void retire(Shard& shard);
  void fold(std::size_t slot, std::uint64_t& into, std::uint64_t value) const {
    into = slot == max_slot_ ? std::max(into, value) : into + value;
  }
  void merge_locked(std::uint32_t id, std::uint64_t* out) const;

  const std::size_t stride_;
  const std::size_t max_slot_;
  std::mutex mutex_;
  NameIndex names_;
  std::vector<Shard*> live_;
  std::vector<std::uint64_t> retained_;  // folded cells of exited threads
};

/// Sorts snapshot entries by their `name` member.
template <class Entry>
void sort_by_name(std::vector<Entry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
}

}  // namespace bbng::obs::detail
