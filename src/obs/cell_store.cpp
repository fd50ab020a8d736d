#include "obs/cell_store.hpp"

#include "util/assert.hpp"

namespace bbng::obs::detail {

std::uint32_t NameIndex::intern(std::string_view name) {
  BBNG_REQUIRE_MSG(!name.empty(), "obs: metric name must be non-empty");
  const auto [entry, added] = ids_.try_emplace(std::string(name), size());
  if (added) names_.emplace_back(name);
  return entry->second;
}

CellStore::Shard::~Shard() {
  if (store != nullptr) store->retire(*this);
}

void CellStore::attach(Shard& shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  shard.store = this;
  live_.push_back(&shard);
}

void CellStore::grow(Shard& shard, std::size_t needed) {
  const std::size_t capacity = std::max({64 * stride_, 2 * shard.size, needed});
  auto fresh = std::make_unique<Cell[]>(capacity);  // zeroed
  for (std::size_t i = 0; i < shard.size; ++i) {
    fresh[i].store(shard.cells[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  shard.cells = std::move(fresh);
  shard.size = capacity;
}

void CellStore::retire(Shard& shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (retained_.size() < shard.size) retained_.resize(shard.size, 0);
  for (std::size_t i = 0; i < shard.size; ++i) {
    fold(i % stride_, retained_[i], shard.cells[i].load(std::memory_order_relaxed));
  }
  std::erase(live_, &shard);
}

void CellStore::merge_locked(std::uint32_t id, std::uint64_t* out) const {
  for (std::size_t slot = 0, cell = std::size_t{id} * stride_; slot < stride_; ++slot, ++cell) {
    out[slot] = cell < retained_.size() ? retained_[cell] : 0;
    for (const Shard* shard : live_) {
      if (cell >= shard->size) continue;
      fold(slot, out[slot], shard->cells[cell].load(std::memory_order_relaxed));
    }
  }
}

void CellStore::merge_each(
    const std::function<void(const std::string&, const std::uint64_t*)>& visit) {
  std::vector<std::uint64_t> merged(stride_);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t id = 0; id < names_.size(); ++id) {
    merge_locked(id, merged.data());
    visit(names_[id], merged.data());
  }
}

void CellStore::merge(std::uint32_t id, std::uint64_t* out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id < names_.size()) merge_locked(id, out);
}

}  // namespace bbng::obs::detail
