// MetricRegistry — hierarchical dotted-name work counters.
//
// Every subsystem that keeps a counter struct (MultiBfsStats, ChurnStats,
// NashReport, the transposition cache's stats) publishes it here through a
// CounterTable declared next to the struct, under stable dotted names
// (`bfs.multi.row_scans`, `solver.exact_bb.nodes`, `cache.transposition.hits`,
// `churn.solves_skipped`), making runtime work queryable from one place:
// the engine embeds per-job snapshots in campaign artifacts, the progress line and `bbng_engine
// report` read totals, and CI gates on committed baselines. The discipline
// follows the SPAA 2021 stepping-algorithms methodology (SNIPPETS.md
// snippet 2): claims about parallel work are gated on deterministic
// operation counters, not wall-clock alone.
//
// Design:
//  - Counters are interned once (`register_counter`) into stable ids;
//    `add(id, delta)` is one relaxed fetch-add on the calling thread's own
//    cell (the per-thread cell store, obs/cell_store.hpp), so hot paths may
//    publish at natural flush points at near-zero cost. The runtime kill
//    switch (`set_enabled(false)`) turns `add` into a single relaxed load.
//  - `snapshot()` / `total(id)` merge every thread's cells, name-sorted.
//  - `CounterFrame` returns the deltas the *calling thread* performed since
//    its capture. An engine job runs on one worker, so its frame is a pure
//    function of the job: artifacts embed `obs` blocks and stay
//    byte-identical across thread counts and kill/resume. Every counter must
//    therefore count only the work of the counting thread.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace bbng::obs {

using CounterId = std::uint32_t;

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

/// Intern `name`, returning its stable id; re-registering an existing name
/// returns the same id. Typical use: a function-local `static const
/// CounterId` so interning happens once.
CounterId register_counter(std::string_view name);

/// Add `delta` to the calling thread's shard of counter `id`. Wait-free.
void add(CounterId id, std::uint64_t delta);

/// Process-wide runtime kill switch (default on). `add` becomes one relaxed
/// load when off; frames and snapshots then see no fresh increments.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// All registered counters (zeros included) merged across every thread that
/// ever counted, sorted by name.
[[nodiscard]] std::vector<CounterValue> snapshot();

/// Merged value of one counter across all threads.
[[nodiscard]] std::uint64_t total(CounterId id);

/// Captures the calling thread's shard at construction; `deltas()` returns
/// the per-name increments this thread performed since, nonzero entries
/// only, sorted by name.
class CounterFrame {
 public:
  CounterFrame();
  [[nodiscard]] std::vector<CounterValue> deltas() const;
  /// This thread's delta for one counter; 0 when unregistered.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

 private:
  std::vector<std::uint64_t> baseline_;
};

/// The registry mirror of one counter struct, declared once next to it.
/// Each row is a registry name and the struct field it mirrors, or, for a
/// counter no single field holds, a function of the struct. The struct
/// stays the source of truth: the table interns every name once, at
/// construction, and publishes values read off the struct, so a counter's
/// name is written in one place and its registry value cannot drift from
/// the field.
template <class S>
class CounterTable {
 public:
  using Derive = std::uint64_t (*)(const S&);

  struct Row {
    Row(std::string_view name, std::uint64_t S::*field) : name(name), field(field) {}
    Row(std::string_view name, Derive derive) : name(name), derive(derive) {}

    [[nodiscard]] std::uint64_t read(const S& value) const {
      return field != nullptr ? value.*field : derive(value);
    }

    std::string name;
    std::uint64_t S::*field = nullptr;
    Derive derive = nullptr;
    CounterId id = 0;
  };

  CounterTable(std::initializer_list<Row> rows) : rows_(rows) {
    for (Row& row : rows_) row.id = register_counter(row.name);
  }

  /// Add every row's value of `delta`, a struct holding one unit of work's
  /// counts (one audit's report, one cache event).
  void publish(const S& delta) const {
    if (!enabled()) return;
    for (const Row& row : rows_) add(row.id, row.read(delta));
  }

  /// Add every row's growth from `before` to `now`, two snapshots of one
  /// running accumulator.
  void publish(const S& now, const S& before) const {
    if (!enabled()) return;
    for (const Row& row : rows_) add(row.id, row.read(now) - row.read(before));
  }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Registry total, merged across threads, of the row mirroring `field`;
  /// 0 when no row does.
  [[nodiscard]] std::uint64_t total(std::uint64_t S::*field) const {
    for (const Row& row : rows_) {
      if (row.field == field) return obs::total(row.id);
    }
    return 0;
  }

 private:
  std::vector<Row> rows_;
};

}  // namespace bbng::obs
