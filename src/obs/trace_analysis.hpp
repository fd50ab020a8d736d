// Trace analytics: per-phase self/total attribution and folded stacks.
//
// A Chrome-trace document answers "what happened when"; this module turns
// it into "where did the time go". Complete events are grouped per
// (pid, tid), their nesting is reconstructed from ts/dur containment (RAII
// spans nest strictly on a thread, so partial overlap is a malformed
// trace), and each phase name is charged:
//
//  - total_us — sum of the durations of its spans (a span nested inside a
//    same-named ancestor counts again, the standard inclusive-time caveat);
//  - self_us  — total minus the time covered by DIRECT child spans: the
//    time actually spent in that phase's own code.
//
// `folded` renders the same reconstruction as collapsed call stacks
// ("runner.window;job;solve:exact_bb <self_us>"), the input format of
// standard flamegraph tooling (inferno, flamegraph.pl, speedscope).
//
// This lives in the library (not the bbng_trace CLI) so tests can pin
// exact attribution values on synthetic traces. It reads documents and
// never records, so it analyzes traces produced elsewhere too.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace bbng::obs {

struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;     ///< span invocations
  std::uint64_t total_us = 0;  ///< inclusive wall time
  std::uint64_t self_us = 0;   ///< exclusive wall time (minus direct children)
};

struct TraceAttribution {
  /// Per-phase stats, sorted by self_us descending, name ascending.
  std::vector<PhaseStat> phases;
  /// Collapsed stacks ("a;b;c" → accumulated self_us of c under a;b),
  /// sorted by stack string. Zero-self frames are kept: a frame that only
  /// dispatches still belongs in the flamegraph.
  std::vector<std::pair<std::string, std::uint64_t>> folded;
  std::size_t events = 0;  ///< complete events attributed
};

/// Validate `root` (validate_trace_json) and attribute it. Throws
/// std::invalid_argument on a structurally invalid document or on spans
/// that partially overlap on one thread (impossible for RAII spans).
[[nodiscard]] TraceAttribution attribute_trace(const JsonValue& root);

/// Write `attribution.folded` in the collapsed-stack format flamegraph
/// tooling consumes: one "stack value" line per entry.
void write_folded(std::ostream& os, const TraceAttribution& attribution);

}  // namespace bbng::obs
