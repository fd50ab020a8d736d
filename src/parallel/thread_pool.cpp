#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bbng {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1U, std::thread::hardware_concurrency());
  width_ = threads;
  workers_.reserve(width_ - 1);
  for (unsigned i = 0; i + 1 < width_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::drive(Bulk& bulk) {
  while (true) {
    const std::uint64_t begin = bulk.cursor.fetch_add(bulk.grain, std::memory_order_relaxed);
    if (begin >= bulk.count) break;
    const std::uint64_t end = std::min(bulk.count, begin + bulk.grain);
    try {
      (*bulk.body)(begin, end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(bulk.error_mutex);
      if (!bulk.first_error) bulk.first_error = std::current_exception();
    }
    bulk.done_chunks.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Bulk* bulk = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this, seen_epoch] {
        return stopping_ || (active_ != nullptr && epoch_ != seen_epoch);
      });
      if (stopping_) return;
      bulk = active_;
      seen_epoch = epoch_;
      // Register as a driver while still holding the pool mutex, so the
      // submitter's completion check (which also holds it) cannot observe
      // drivers == 0 while this thread is about to touch `bulk`.
      bulk->drivers.fetch_add(1, std::memory_order_acq_rel);
    }
    drive(*bulk);
    {
      // Deregister under the pool mutex too: the submitter evaluates its
      // completion predicate under it, so a decrement (and the notify after
      // it) can never fall between that check and its block. Unlocked, that
      // wakeup was lost and run_chunked slept forever. `bulk` is not touched
      // after the unlock — the submitter may free it from then on.
      const std::lock_guard<std::mutex> lock(mutex_);
      bulk->drivers.fetch_sub(1, std::memory_order_acq_rel);
    }
    work_done_.notify_all();
  }
}

void ThreadPool::run_chunked(std::uint64_t count, std::uint64_t grain,
                             const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  BBNG_REQUIRE(grain > 0);
  if (count == 0) return;

  Bulk bulk;
  bulk.count = count;
  bulk.grain = grain;
  bulk.body = &body;
  bulk.total_chunks = (count + grain - 1) / grain;

  if (width_ == 1 || bulk.total_chunks == 1) {
    drive(bulk);  // serial fast path, no synchronisation
  } else {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_ = &bulk;
      ++epoch_;
    }
    work_ready_.notify_all();
    drive(bulk);  // the caller is one of the execution lanes
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_done_.wait(lock, [&bulk] {
        return bulk.done_chunks.load(std::memory_order_acquire) >= bulk.total_chunks &&
               bulk.drivers.load(std::memory_order_acquire) == 0;
      });
      active_ = nullptr;
    }
  }

  if (bulk.first_error) std::rethrow_exception(bulk.first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bbng
