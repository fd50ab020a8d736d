// Sharded campaign runner with checkpoint/resume.
//
// Jobs are executed in windows on the ThreadPool (bounded in-flight memory:
// one window of result lines, plus a fixed bound of committed lines queued
// for the summary) and *committed* — appended to the JSONL artifact —
// strictly in job-id order. Each committed window then moves, uncopied, to
// one summary thread beside the pool, which folds it into the
// `.summary.json` accumulators (sinks.hpp) while later windows run; a
// resume first folds the committed prefix back from the artifact, and a
// damaged prefix fails it before any job runs. Because every line is a
// pure function of its job (tasks.hpp), the artifact is byte-identical at
// any thread count. A checkpoint manifest (`<output>.ckpt.json`) is written
// atomically right after the header and then every `checkpoint_every`
// commits; it records the committed-job count and the exact byte offset of
// the committed prefix. `resume` verifies the spec fingerprint, truncates
// the artifact back to the last manifest's offset (discarding any tail a
// kill left behind), and continues — producing, on completion, the same
// bytes an uninterrupted run would have produced. This is the journaling
// discipline of the incremental-SSSP literature applied to experiment
// orchestration: work that was committed is never redone.
#pragma once

#include <cstdint>
#include <string>

#include "engine/spec.hpp"

namespace bbng {

struct RunnerConfig {
  std::string output_path;           ///< the `.jsonl` artifact
  unsigned threads = 1;              ///< pool width; 0 = hardware_concurrency()
  std::uint64_t checkpoint_every = 64;  ///< manifest cadence, in committed jobs
  std::uint64_t window = 0;          ///< in-flight job bound; 0 → max(64, 4·width)
  /// Test/CI hook: simulate a kill by stopping (without a final manifest)
  /// once this many jobs are committed in total. 0 = run to completion.
  std::uint64_t halt_after = 0;
  bool overwrite = false;            ///< allow `run` to clobber an existing artifact
  bool write_summary = true;         ///< fold and emit `<output>.summary.json`
  /// Print periodic progress (jobs done/total, rate, ETA) to stderr so long
  /// campaigns are not silent. Reported from workers as jobs complete (not
  /// just at commit), so a window of slow jobs still speaks; only a single
  /// job running longer than the interval keeps stderr quiet that long.
  /// stderr only — stdout and the artifact stay byte-clean. The CLI turns
  /// this on unless --quiet.
  bool progress = false;
  double progress_interval_seconds = 1.0;  ///< min seconds between lines
};

struct RunReport {
  std::uint64_t total_jobs = 0;
  std::uint64_t committed_before = 0;  ///< prefix inherited from a checkpoint
  std::uint64_t committed = 0;         ///< total committed when returning
  std::uint64_t executed = 0;          ///< jobs computed by this invocation
  std::uint64_t checkpoints = 0;       ///< manifests written by this invocation
  bool completed = false;
  double seconds = 0;
};

[[nodiscard]] std::string manifest_path_for(const std::string& output_path);
[[nodiscard]] std::string summary_path_for(const std::string& output_path);

/// Fresh run. Refuses to overwrite an existing artifact unless
/// config.overwrite. `spec_text` is the spec's exact bytes (fingerprinted
/// into the header and manifest).
[[nodiscard]] RunReport run_campaign(const CampaignSpec& campaign,
                                     const std::string& spec_text,
                                     const RunnerConfig& config);

/// Continue an interrupted run from its checkpoint manifest. No-op when the
/// manifest says the campaign already completed. Throws std::invalid_argument
/// when there is nothing to resume or the manifest belongs to a different
/// spec/build.
[[nodiscard]] RunReport resume_campaign(const CampaignSpec& campaign,
                                        const std::string& spec_text,
                                        const RunnerConfig& config);

}  // namespace bbng
