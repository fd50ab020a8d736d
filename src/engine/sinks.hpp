// Artifact sinks: JSONL read-back and summary-statistics aggregation.
//
// The runner streams one compact JSON record per job into an append-only
// `.jsonl` file whose first line is a header (campaign name, spec
// fingerprint, host metadata). This module reads such files back via the
// strict util/json parser — the engine eats its own dog food — and distils
// them into a `.summary.json`: per scenario, a util/stats Summary of every
// numeric field plus a 95% confidence interval of its mean — bare means
// mislead at campaign sample sizes. The interval is a deterministic
// percentile bootstrap up to 10k samples (byte-stable via a fixed seed; one
// bootstrap_mean_ci_columns call per scenario) and the O(count) normal
// approximation beyond, so summaries never stall a million-record campaign.
// Also true-counts of every boolean field and
// value-counts of every string field. Per-job `obs` counter blocks are
// flattened into dotted numeric fields ("obs.solver.exact_bb.nodes", …) so
// work counters summarise like any other measurement; a counter a block
// leaves out reads 0, so every obs.* field counts every job of its scenario.
//
// SummaryFold is the one aggregation path. It is fed the artifact's lines
// in commit order: the runner folds each committed window on one summary
// thread beside its job pool while later windows run, after first folding
// the committed prefix a resume inherits, and write_summary_file folds a
// finished artifact read back from disk. Either way the summary is a pure
// function of the committed lines, so an interrupted-and-resumed run
// summarises exactly what an uninterrupted one would.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace bbng {

struct JsonlFile {
  JsonValue header;                ///< first line
  std::vector<JsonValue> records;  ///< one per committed job, in commit order
};

/// Parse a JSONL artifact. Throws std::invalid_argument when the file is
/// missing/empty and JsonParseError when a line is malformed.
[[nodiscard]] JsonlFile read_jsonl(const std::string& path);

/// Header line for a campaign artifact (compact JSON, no newline).
[[nodiscard]] std::string make_jsonl_header(const std::string& campaign_name,
                                            const std::string& spec_fingerprint,
                                            std::uint64_t base_seed, std::uint64_t total_jobs);

/// Per-scenario summary accumulators, fed one artifact line at a time: the
/// header first, then one record per committed job. Scenario and field
/// order follow first appearance in the records, so the summary is as
/// deterministic as the JSONL itself.
class SummaryFold {
 public:
  /// One scenario's name and job count, in commit order.
  struct PlannedScenario {
    std::string name;
    std::uint64_t jobs = 0;
  };

  /// Without a plan every scenario is finished at write(). With one, the
  /// records must follow it, and each scenario's statistics and intervals
  /// are computed, and its columns freed, as soon as its last record is
  /// folded.
  explicit SummaryFold(std::vector<PlannedScenario> plan = {});
  ~SummaryFold();
  SummaryFold(SummaryFold&&) noexcept;
  SummaryFold& operator=(SummaryFold&&) noexcept;

  /// Fold one line. Throws JsonParseError when it is malformed and
  /// std::invalid_argument when a record strays from the plan.
  void add_line(const std::string& line);

  /// Fold every non-empty line of `path`'s first `max_bytes` bytes. Throws
  /// std::invalid_argument when the file cannot be opened or no header has
  /// been folded by its end.
  void add_file(const std::string& path,
                std::uint64_t max_bytes = std::numeric_limits<std::uint64_t>::max());

  /// Records folded so far (the header excluded).
  [[nodiscard]] std::uint64_t records() const noexcept;

  /// Finish every open scenario and write `summary_path` (pretty JSON,
  /// tmp + rename). Throws std::invalid_argument when no header was folded.
  void write(const std::string& summary_path);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Fold every line of `jsonl_path` and write the summary to `summary_path`.
void write_summary_file(const std::string& jsonl_path, const std::string& summary_path);

/// Path of the host-telemetry sidecar next to an artifact:
/// `<output>.obs_host.json`.
[[nodiscard]] std::string obs_host_path_for(const std::string& output_path);

/// Write the host-scoped telemetry sidecar: a host block (the artifact
/// header's fields PLUS `peak_rss_kb` — VmHWM read now, i.e. at summary
/// time, like bench host blocks), every gauge (last/min/max/samples), and
/// every latency histogram (count/sum/max plus interpolated p50/p90/p99).
/// ALL timing lives here, never in the JSONL: wall-clock depends on the
/// machine, and the artifact must stay byte-identical across thread counts
/// and kill/resume. Written whatever the spec's `obs` key says, so
/// downstream tooling never has to probe for the file. tmp + rename, like
/// every other engine artifact.
void write_obs_host_file(const std::string& sidecar_path, const std::string& campaign_name,
                         double elapsed_seconds);

}  // namespace bbng
