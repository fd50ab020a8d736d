// Trace-analytics tests: exact self/total attribution and folded stacks on
// a synthetic trace (values pinned by hand), the structural validator's
// rejection of malformed documents (truncated file, missing "ph",
// non-monotonic ts), partial-overlap detection, and the round trip from a
// real emitted trace through attribute_trace.
#include "obs/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace bbng {
namespace {

std::string event(const char* name, std::uint64_t ts, std::uint64_t dur, int tid, int pid = 1) {
  std::ostringstream os;
  os << R"({"name": ")" << name << R"(", "ph": "X", "ts": )" << ts << R"(, "dur": )" << dur
     << R"(, "pid": )" << pid << R"(, "tid": )" << tid << R"(, "args": {}})";
  return os.str();
}

std::string trace_of(const std::vector<std::string>& events) {
  std::string body;
  for (const std::string& e : events) {
    if (!body.empty()) body += ", ";
    body += e;
  }
  return R"({"traceEvents": [)" + body + R"(], "displayTimeUnit": "ms"})";
}

// The hand-checked fixture. Thread 0 runs A[0,100) containing B[10,40)
// (itself containing C[15,20)) and a second B[50,70); thread 1 runs D[0,40).
// The event array is ts-sorted across threads, as the emitter guarantees.
//
//   A: count 1, total 100, self 100-(30+20) = 50
//   B: count 2, total 50,  self (30-5) + 20 = 45
//   C: count 1, total 5,   self 5
//   D: count 1, total 40,  self 40
std::string synthetic_trace() {
  return trace_of({
      event("A", 0, 100, 0),
      event("D", 0, 40, 1),
      event("B", 10, 30, 0),
      event("C", 15, 5, 0),
      event("B", 50, 20, 0),
  });
}

TEST(TraceAttribution, SyntheticTraceYieldsExactSelfAndTotalTimes) {
  const obs::TraceAttribution attribution = obs::attribute_trace(parse_json(synthetic_trace()));
  EXPECT_EQ(attribution.events, 5u);
  ASSERT_EQ(attribution.phases.size(), 4u);

  // Sorted by self_us descending, name ascending.
  EXPECT_EQ(attribution.phases[0].name, "A");
  EXPECT_EQ(attribution.phases[0].count, 1u);
  EXPECT_EQ(attribution.phases[0].total_us, 100u);
  EXPECT_EQ(attribution.phases[0].self_us, 50u);

  EXPECT_EQ(attribution.phases[1].name, "B");
  EXPECT_EQ(attribution.phases[1].count, 2u);
  EXPECT_EQ(attribution.phases[1].total_us, 50u);
  EXPECT_EQ(attribution.phases[1].self_us, 45u);

  EXPECT_EQ(attribution.phases[2].name, "D");
  EXPECT_EQ(attribution.phases[2].count, 1u);
  EXPECT_EQ(attribution.phases[2].total_us, 40u);
  EXPECT_EQ(attribution.phases[2].self_us, 40u);

  EXPECT_EQ(attribution.phases[3].name, "C");
  EXPECT_EQ(attribution.phases[3].count, 1u);
  EXPECT_EQ(attribution.phases[3].total_us, 5u);
  EXPECT_EQ(attribution.phases[3].self_us, 5u);

  // Self time is a partition of wall time: summing it recovers the span of
  // everything that ran (100 on thread 0 + 40 on thread 1).
  std::uint64_t total_self = 0;
  for (const obs::PhaseStat& phase : attribution.phases) total_self += phase.self_us;
  EXPECT_EQ(total_self, 140u);
}

TEST(TraceAttribution, FoldedStacksMatchTheFlamegraphFormatExactly) {
  const obs::TraceAttribution attribution = obs::attribute_trace(parse_json(synthetic_trace()));
  ASSERT_EQ(attribution.folded.size(), 4u);  // sorted by stack string
  EXPECT_EQ(attribution.folded[0], (std::pair<std::string, std::uint64_t>{"A", 50}));
  EXPECT_EQ(attribution.folded[1], (std::pair<std::string, std::uint64_t>{"A;B", 45}));
  EXPECT_EQ(attribution.folded[2], (std::pair<std::string, std::uint64_t>{"A;B;C", 5}));
  EXPECT_EQ(attribution.folded[3], (std::pair<std::string, std::uint64_t>{"D", 40}));

  std::ostringstream os;
  obs::write_folded(os, attribution);
  EXPECT_EQ(os.str(), "A 50\nA;B 45\nA;B;C 5\nD 40\n");
}

TEST(TraceAttribution, SameNamedThreadsOnDifferentPidsDoNotNest) {
  // Same tid on different pids must be attributed independently: these
  // overlap in ts but live in different processes, so no nesting (and no
  // partial-overlap error) may be inferred.
  const std::string trace = trace_of({
      event("P", 0, 100, 0, 1),
      event("Q", 50, 100, 0, 2),
  });
  const obs::TraceAttribution attribution = obs::attribute_trace(parse_json(trace));
  ASSERT_EQ(attribution.phases.size(), 2u);
  // Equal self time → name-ascending tiebreak.
  EXPECT_EQ(attribution.phases[0].name, "P");
  EXPECT_EQ(attribution.phases[0].self_us, 100u);
  EXPECT_EQ(attribution.phases[1].name, "Q");
  EXPECT_EQ(attribution.phases[1].self_us, 100u);
}

TEST(TraceAttribution, EqualTimestampParentsComeBeforeChildren) {
  // A zero-gap child starting at the parent's ts: the longer span is the
  // parent regardless of array order at that ts.
  const std::string trace = trace_of({
      event("inner", 0, 10, 0),
      event("outer", 0, 100, 0),
  });
  const obs::TraceAttribution attribution = obs::attribute_trace(parse_json(trace));
  ASSERT_EQ(attribution.phases.size(), 2u);
  EXPECT_EQ(attribution.phases[0].name, "outer");
  EXPECT_EQ(attribution.phases[0].self_us, 90u);
  EXPECT_EQ(attribution.phases[1].name, "inner");
  EXPECT_EQ(attribution.phases[1].self_us, 10u);
  ASSERT_EQ(attribution.folded.size(), 2u);
  EXPECT_EQ(attribution.folded[1].first, "outer;inner");
}

TEST(TraceAttribution, PartialOverlapOnOneThreadThrows) {
  // [0,10) and [5,15) on one thread cannot come from RAII spans.
  const std::string trace = trace_of({
      event("first", 0, 10, 0),
      event("second", 5, 10, 0),
  });
  EXPECT_THROW(static_cast<void>(obs::attribute_trace(parse_json(trace))),
               std::invalid_argument);
}

TEST(TraceAttribution, EmptyTraceAttributesToNothing) {
  const obs::TraceAttribution attribution = obs::attribute_trace(parse_json(trace_of({})));
  EXPECT_EQ(attribution.events, 0u);
  EXPECT_TRUE(attribution.phases.empty());
  EXPECT_TRUE(attribution.folded.empty());
  std::ostringstream os;
  obs::write_folded(os, attribution);
  EXPECT_EQ(os.str(), "");
}

// ---------------------------------------------------------------------------
// Malformed inputs (the validator runs first; attribute_trace inherits it).

TEST(TraceValidation, TruncatedDocumentFailsAtParse) {
  const std::string full = synthetic_trace();
  const std::string truncated = full.substr(0, full.size() / 2);
  EXPECT_THROW(static_cast<void>(parse_json(truncated)), JsonParseError);
}

TEST(TraceValidation, MissingPhFieldIsRejected) {
  const std::string trace = R"({"traceEvents": [
    {"name": "A", "ts": 0, "dur": 10, "pid": 1, "tid": 0, "args": {}}]})";
  EXPECT_THROW(static_cast<void>(obs::validate_trace_json(parse_json(trace))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::attribute_trace(parse_json(trace))),
               std::invalid_argument);
}

TEST(TraceValidation, NonMonotonicTimestampsAreRejected) {
  const std::string trace = trace_of({
      event("A", 100, 10, 0),
      event("B", 50, 10, 0),
  });
  EXPECT_THROW(static_cast<void>(obs::validate_trace_json(parse_json(trace))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::attribute_trace(parse_json(trace))),
               std::invalid_argument);
}

TEST(TraceValidation, NonXPhaseEventsAreRejected) {
  const std::string trace = R"({"traceEvents": [
    {"name": "A", "ph": "B", "ts": 0, "dur": 10, "pid": 1, "tid": 0, "args": {}}]})";
  EXPECT_THROW(static_cast<void>(obs::validate_trace_json(parse_json(trace))),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Round trip: a real emitted trace attributes cleanly.

TEST(TraceAttribution, EmittedTraceRoundTripsThroughAttribution) {
  obs::trace::begin();
  {
    // Sleeps keep every duration nonzero: a 0 µs parent cannot contain its
    // child, which would flake the folded-stack check below.
    obs::TraceSpan outer("rt.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      obs::TraceSpan inner("rt.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string json = obs::trace::end_json();
  const obs::TraceAttribution attribution = obs::attribute_trace(parse_json(json));
  ASSERT_EQ(attribution.events, 2u);
  bool saw_outer = false;
  for (const obs::PhaseStat& phase : attribution.phases) {
    if (phase.name == "rt.outer") {
      saw_outer = true;
      EXPECT_EQ(phase.count, 1u);
      EXPECT_GE(phase.total_us, phase.self_us);
    }
  }
  EXPECT_TRUE(saw_outer);
  for (const auto& [stack, self] : attribution.folded) {
    if (stack == "rt.outer;rt.inner") {
      SUCCEED();
      return;
    }
  }
  ADD_FAILURE() << "expected an rt.outer;rt.inner folded stack";
}

}  // namespace
}  // namespace bbng
