// MetricRegistry — hierarchical dotted-name work counters.
//
// Every subsystem that used to keep a private ad-hoc counter struct
// (MultiBfsStats, ChurnStats, NashReport, the transposition cache) also
// publishes its increments here under a stable dotted name
// (`bfs.multi.row_scans`, `solver.exact_bb.nodes`,
// `cache.transposition.hits`, `churn.solves_skipped`),
// making runtime work queryable from one place: the engine embeds per-job
// snapshots in campaign artifacts, the progress line and `bbng_engine
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
//  - -DBBNG_OBS=OFF (BBNG_OBS_DISABLED) compiles the layer to inline no-ops;
//    the API stays, so callers need no #ifdefs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bbng::obs {

#if defined(BBNG_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

using CounterId = std::uint32_t;

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

#if !defined(BBNG_OBS_DISABLED)

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

#else  // BBNG_OBS_DISABLED — the whole layer is inline no-ops.

inline CounterId register_counter(std::string_view) { return 0; }
inline void add(CounterId, std::uint64_t) {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
[[nodiscard]] inline std::vector<CounterValue> snapshot() { return {}; }
[[nodiscard]] inline std::uint64_t total(CounterId) { return 0; }

class CounterFrame {
 public:
  CounterFrame() = default;
  [[nodiscard]] std::vector<CounterValue> deltas() const { return {}; }
  [[nodiscard]] std::uint64_t value(std::string_view) const { return 0; }
};

#endif

}  // namespace bbng::obs
