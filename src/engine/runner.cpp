#include "engine/runner.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/jobgraph.hpp"
#include "engine/sinks.hpp"
#include "engine/tasks.hpp"
#include "graph/multi_bfs.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/registry.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace bbng {

std::string manifest_path_for(const std::string& output_path) {
  return output_path + ".ckpt.json";
}

std::string summary_path_for(const std::string& output_path) {
  return output_path + ".summary.json";
}

namespace {

[[noreturn]] void runner_error(const std::string& what) {
  throw std::invalid_argument("runner: " + what);
}

std::uint64_t multi_bfs_row_scans() {
  return multi_bfs_counters().total(&MultiBfsStats::row_scans);
}

struct Manifest {
  std::string spec_fingerprint;
  std::uint64_t total_jobs = 0;
  std::uint64_t committed_jobs = 0;
  std::uint64_t byte_offset = 0;
  bool completed = false;
};

/// Manifest writes are atomic (tmp + rename) so a kill mid-checkpoint
/// leaves the previous manifest intact rather than a torn file.
void write_manifest(const std::string& path, const Manifest& manifest) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) runner_error("cannot write " + tmp);
    JsonWriter writer(out, /*pretty=*/true);
    writer.begin_object()
        .field("spec_fingerprint", manifest.spec_fingerprint)
        .field("total_jobs", manifest.total_jobs)
        .field("committed_jobs", manifest.committed_jobs)
        .field("byte_offset", manifest.byte_offset)
        .field("completed", manifest.completed)
        .end_object();
    out << '\n';
    if (!out.flush()) runner_error("failed flushing " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) runner_error("cannot open checkpoint manifest " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parse_json(buffer.str());
  Manifest manifest;
  manifest.spec_fingerprint = root.at("spec_fingerprint").as_string();
  manifest.total_jobs = root.at("total_jobs").as_uint();
  manifest.committed_jobs = root.at("committed_jobs").as_uint();
  manifest.byte_offset = root.at("byte_offset").as_uint();
  manifest.completed = root.at("completed").as_bool();
  return manifest;
}

/// Committed lines the summary thread may have queued before submit()
/// waits. A window is always taken whatever its size; the bound only stops
/// a slow fold from piling up committed lines. 8192 sweep-sized lines are
/// about 3 MB, and cover the longest per-scenario bootstrap of a width-1
/// sweep without stalling the commits.
constexpr std::size_t kMaxQueuedLines = 8192;

/// Folds each committed window into the campaign summary on one thread
/// beside the job pool, so the parse and each scenario's bootstrap overlap
/// the windows that follow. A fold error is rethrown on the committing
/// thread at the next submit() or at finish(). Destroying it unfinished
/// (a halt, or an exception unwinding the runner) drops the queued windows
/// and joins the thread.
class SummaryThread {
 public:
  explicit SummaryThread(SummaryFold fold) : fold_(std::move(fold)), thread_([this] { loop(); }) {}
  SummaryThread(const SummaryThread&) = delete;
  SummaryThread& operator=(const SummaryThread&) = delete;

  ~SummaryThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
      queue_.clear();
    }
    work_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Queue one committed window, by move.
  void submit(std::vector<std::string> lines) {
    std::unique_lock<std::mutex> lock(mutex_);
    room_.wait(lock, [&] {
      return error_ != nullptr || queued_lines_ == 0 ||
             queued_lines_ + lines.size() <= kMaxQueuedLines;
    });
    if (error_ != nullptr) std::rethrow_exception(error_);
    queued_lines_ += lines.size();
    queue_.push_back(std::move(lines));
    lock.unlock();
    work_.notify_one();
  }

  /// Wait for every queued window to be folded, then write the summary.
  void finish(const std::string& summary_path) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
    }
    work_.notify_one();
    thread_.join();
    if (error_ != nullptr) std::rethrow_exception(error_);
    fold_.write(summary_path);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_.wait(lock, [&] { return !queue_.empty() || closing_; });
      if (queue_.empty()) return;
      std::vector<std::string> lines = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      try {
        obs::TraceSpan fold_span("summary.fold");
        fold_span.arg("lines", lines.size());
        for (const std::string& line : lines) fold_.add_line(line);
      } catch (...) {
        lock.lock();
        error_ = std::current_exception();
        room_.notify_all();
        return;
      }
      const std::size_t folded = lines.size();
      lines = {};
      lock.lock();
      queued_lines_ -= folded;
      room_.notify_all();
    }
  }

  SummaryFold fold_;  ///< touched only by the thread until it is joined
  std::mutex mutex_;
  std::condition_variable work_;  ///< a window was queued, or closing_ was set
  std::condition_variable room_;  ///< queued_lines_ fell, or error_ was set
  std::deque<std::vector<std::string>> queue_;
  std::size_t queued_lines_ = 0;  ///< queued or being folded
  bool closing_ = false;
  std::exception_ptr error_;
  std::thread thread_;  ///< last: starts once every member above exists
};

/// Execute jobs [committed, total) in ordered-commit windows. `offset` is
/// the byte length of the already-committed prefix (header included).
RunReport drive(const CampaignSpec& campaign, const std::string& fingerprint,
                const RunnerConfig& config, std::uint64_t committed, std::uint64_t offset) {
  const Timer timer;
  const std::vector<Job> jobs = expand_jobs(campaign);
  RunReport report;
  report.total_jobs = jobs.size();
  report.committed_before = committed;
  report.committed = committed;

  ThreadPool pool(config.threads);
  const std::uint64_t window =
      config.window > 0 ? config.window
                        : std::max<std::uint64_t>(64, std::uint64_t{4} * pool.width());
  const std::uint64_t cadence = std::max<std::uint64_t>(1, config.checkpoint_every);

  std::optional<SummaryThread> summary;
  if (config.write_summary) {
    std::vector<SummaryFold::PlannedScenario> plan;
    for (const ScenarioSpec& scenario : campaign.scenarios) {
      if (scenario.num_jobs() > 0) plan.push_back({scenario.name, scenario.num_jobs()});
    }
    SummaryFold fold(std::move(plan));
    // The committed prefix first: the header, plus every record a resume
    // inherits. Folded here, before anything is appended, so a damaged
    // prefix fails the resume before it runs a job.
    fold.add_file(config.output_path, offset);
    if (fold.records() != committed) {
      runner_error(config.output_path + " holds " + std::to_string(fold.records()) +
                   " records before its checkpoint offset, not " + std::to_string(committed));
    }
    summary.emplace(std::move(fold));
  }

  std::ofstream out(config.output_path, std::ios::binary | std::ios::app);
  if (!out) runner_error("cannot append to " + config.output_path);

  const std::string manifest_path = manifest_path_for(config.output_path);
  const auto checkpoint = [&](bool completed) {
    if (out.is_open() && !out.flush()) {
      runner_error("failed flushing " + config.output_path);
    }
    write_manifest(manifest_path,
                   Manifest{fingerprint, report.total_jobs, report.committed, offset, completed});
    ++report.checkpoints;
  };

  // Progress goes to stderr (stdout and the artifact stay byte-clean) and is
  // reported from the workers as jobs *complete*, so a window of slow jobs
  // still speaks before its ordered commit. The ETA extrapolates this
  // invocation's completion rate over the remaining jobs — but only once a
  // window has actually been committed (`committed`, captured at window
  // start on the main thread, ahead of `committed_before`): the first
  // window's ticks print `eta ?` instead of extrapolating a near-zero
  // elapsed time over zero committed work into an absurd estimate. The
  // mutex both serialises concurrent reporters and guards last_progress.
  std::mutex progress_mutex;
  double last_progress = 0;
  const auto maybe_report_progress = [&](std::uint64_t computed, std::uint64_t committed) {
    if (!config.progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    const double elapsed = timer.elapsed_seconds();
    if (elapsed - last_progress < std::max(0.0, config.progress_interval_seconds)) return;
    last_progress = elapsed;
    const std::uint64_t fresh = computed - report.committed_before;
    const std::uint64_t remaining = report.total_jobs - computed;
    std::string eta = "?";
    if (committed > report.committed_before && fresh > 0 && elapsed > 0) {
      const double rate = static_cast<double>(fresh) / elapsed;
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.1fs", static_cast<double>(remaining) / rate);
      eta = buffer;
    }
    // The cumulative work totals (merged across threads, so they move as
    // workers compute; 0 with the obs layer off) ride BEFORE the eta so the
    // line still ends in the eta value (test_engine_runner pins numeric
    // lines ending in 's'). stderr only: the artifact stays byte-clean.
    const bool obs_on = obs::kCompiledIn && obs::enabled();
    std::fprintf(stderr,
                 "progress: %llu/%llu jobs (%.1f%%), %.1fs elapsed, searches %llu, "
                 "row_scans %llu, eta %s\n",
                 static_cast<unsigned long long>(computed),
                 static_cast<unsigned long long>(report.total_jobs),
                 100.0 * static_cast<double>(computed) /
                     static_cast<double>(std::max<std::uint64_t>(1, report.total_jobs)),
                 elapsed, static_cast<unsigned long long>(obs_on ? total_solver_solves() : 0),
                 static_cast<unsigned long long>(obs_on ? multi_bfs_row_scans() : 0),
                 eta.c_str());
  };

  const JobOptions job_options{config.obs && campaign.obs};
  // Latency histograms alongside the spans: same extents, same names minus
  // the span/histogram naming split (histograms use dots throughout).
  static const obs::HistogramId kWindowHist = obs::register_histogram("runner.window");
  static const obs::HistogramId kCommitHist = obs::register_histogram("runner.commit");
  // Host telemetry for the sidecar: VmRSS/VmHWM and counter rates, sampled
  // every 0.25 s (the sampler's default) for the lifetime of this drive.
  // Host-scoped only — it never touches the artifact bytes.
  obs::GaugeSampler sampler({{"rate.solver.solves_per_sec", &total_solver_solves},
                             {"rate.bfs.row_scans_per_sec", &multi_bfs_row_scans}});
  sampler.start();
  bool halted = false;
  while (report.committed < report.total_jobs && !halted) {
    const std::uint64_t begin = report.committed;
    // min() before the addition so a huge window cannot overflow begin+window.
    const std::uint64_t end = begin + std::min(window, report.total_jobs - begin);
    obs::ScopedTimer window_timer(kWindowHist, "runner.window");
    window_timer.arg("begin", begin);
    window_timer.arg("end", end);
    std::vector<std::string> lines(end - begin);
    std::atomic<std::uint64_t> window_done{0};
    pool.run_chunked(end - begin, 1, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) {
        lines[i] = run_job_line(campaign, jobs[begin + i], job_options);
        maybe_report_progress(begin + window_done.fetch_add(1, std::memory_order_relaxed) + 1,
                              begin);
      }
    });
    report.executed += end - begin;
    {
      obs::ScopedTimer commit_timer(kCommitHist, "runner.commit");
      commit_timer.arg("begin", begin);
      commit_timer.arg("end", end);
      for (const std::string& line : lines) {
        out << line << '\n';
        if (!out) runner_error("failed writing " + config.output_path);
        offset += line.size() + 1;
        ++report.committed;
        if (report.committed % cadence == 0 && report.committed < report.total_jobs) {
          checkpoint(false);
        }
        if (config.halt_after > 0 && report.committed >= config.halt_after) {
          halted = true;
          break;
        }
      }
    }
    if (summary && !halted) summary->submit(std::move(lines));
  }

  if (!halted) {
    // The summary must land before the completed=true manifest: a kill in
    // between leaves an incomplete manifest, and resume redoes the tail +
    // summary. The reverse order would enshrine a torn summary as "done".
    // Every window is folded already or in flight, so this waits only for
    // the fold's tail (the last scenario's bootstrap) and the write.
    if (summary) {
      if (!out.flush()) runner_error("failed flushing " + config.output_path);
      out.close();
      obs::TraceSpan summary_span("runner.summary");
      summary_span.arg("artifact", config.output_path);
      summary->finish(summary_path_for(config.output_path));
    }
    // Host-telemetry sidecar at summary time: final gauge sample first so
    // even a sub-interval run records memory, then the sidecar with this
    // drive's elapsed wall time. Sits NEXT TO the artifact, never in it —
    // the timing inside is machine-dependent by nature.
    sampler.stop();
    write_obs_host_file(obs_host_path_for(config.output_path), campaign.name,
                        timer.elapsed_seconds());
    checkpoint(true);
    report.completed = true;
  } else if (!out.flush()) {
    runner_error("failed flushing " + config.output_path);
  }
  report.seconds = timer.elapsed_seconds();
  return report;
}

}  // namespace

RunReport run_campaign(const CampaignSpec& campaign, const std::string& spec_text,
                       const RunnerConfig& config) {
  BBNG_REQUIRE_MSG(!config.output_path.empty(), "runner needs an output path");
  if (!config.overwrite && std::filesystem::exists(config.output_path)) {
    runner_error(config.output_path +
                 " already exists; resume it, move it aside, or pass overwrite");
  }
  const std::string fingerprint = spec_fingerprint(spec_text);
  const std::string header =
      make_jsonl_header(campaign.name, fingerprint, campaign.base_seed, campaign.num_jobs());
  std::uint64_t offset = 0;
  {
    std::ofstream out(config.output_path, std::ios::binary | std::ios::trunc);
    if (!out) runner_error("cannot write " + config.output_path);
    out << header << '\n';
    if (!out.flush()) runner_error("failed writing " + config.output_path);
    offset = header.size() + 1;
  }
  // Initial manifest: a kill before the first cadence checkpoint must still
  // leave the run resumable (resume truncates back to the bare header).
  write_manifest(manifest_path_for(config.output_path),
                 Manifest{fingerprint, campaign.num_jobs(), 0, offset, false});
  RunReport report = drive(campaign, fingerprint, config, 0, offset);
  ++report.checkpoints;  // count the initial manifest
  return report;
}

RunReport resume_campaign(const CampaignSpec& campaign, const std::string& spec_text,
                          const RunnerConfig& config) {
  BBNG_REQUIRE_MSG(!config.output_path.empty(), "runner needs an output path");
  const std::string fingerprint = spec_fingerprint(spec_text);
  const std::string manifest_path = manifest_path_for(config.output_path);
  if (!std::filesystem::exists(manifest_path)) {
    runner_error("no checkpoint manifest at " + manifest_path + "; use run for a fresh start");
  }
  const Manifest manifest = read_manifest(manifest_path);
  if (manifest.spec_fingerprint != fingerprint) {
    runner_error("checkpoint was written by a different spec (manifest spec_fingerprint " +
                 manifest.spec_fingerprint + ", this spec " + fingerprint + ")");
  }
  if (manifest.total_jobs != campaign.num_jobs()) {
    runner_error("checkpoint job count disagrees with the spec");
  }
  if (manifest.completed) {
    RunReport report;
    report.total_jobs = manifest.total_jobs;
    report.committed_before = manifest.committed_jobs;
    report.committed = manifest.committed_jobs;
    report.completed = true;
    return report;
  }
  if (!std::filesystem::exists(config.output_path)) {
    runner_error("checkpoint exists but " + config.output_path + " is missing");
  }
  const std::uint64_t size = std::filesystem::file_size(config.output_path);
  if (size < manifest.byte_offset) {
    runner_error(config.output_path + " is shorter than its checkpoint; artifact corrupt");
  }
  if (size > manifest.byte_offset) {
    // Uncheckpointed tail from the kill: roll back to the journalled prefix.
    std::filesystem::resize_file(config.output_path, manifest.byte_offset);
  }
  return drive(campaign, fingerprint, config, manifest.committed_jobs, manifest.byte_offset);
}

}  // namespace bbng
