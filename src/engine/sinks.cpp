#include "engine/sinks.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include "engine/hostinfo.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/procstat.hpp"
#include "util/stats.hpp"

namespace bbng {

JsonlFile read_jsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("jsonl: cannot open " + path);
  JsonlFile file;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue value = parse_json(line);
    if (!saw_header) {
      file.header = std::move(value);
      saw_header = true;
    } else {
      file.records.push_back(std::move(value));
    }
  }
  if (!saw_header) throw std::invalid_argument("jsonl: " + path + " has no header line");
  return file;
}

std::string make_jsonl_header(const std::string& campaign_name, const std::string& spec_fingerprint,
                              std::uint64_t base_seed, std::uint64_t total_jobs) {
  std::ostringstream os;
  JsonWriter writer(os, /*pretty=*/false);
  writer.begin_object()
      .field("format", "bbng-jsonl")
      .field("format_version", 1)
      .field("campaign", campaign_name)
      .field("spec_fingerprint", spec_fingerprint)
      .field("base_seed", base_seed)
      .field("total_jobs", total_jobs);
  writer.key("host").begin_object();
  write_host_info_fields(writer);
  writer.end_object().end_object();
  BBNG_ASSERT(writer.complete());
  return os.str();
}

namespace {

/// Re-emit a parsed JsonValue (used to copy the header's host block into
/// the summary verbatim).
void emit_value(JsonWriter& writer, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::Null: writer.null(); break;
    case JsonValue::Kind::Bool: writer.value(value.as_bool()); break;
    case JsonValue::Kind::Int: writer.value(value.as_int()); break;
    case JsonValue::Kind::Double: writer.value(value.as_double()); break;
    case JsonValue::Kind::String: writer.value(value.as_string()); break;
    case JsonValue::Kind::Array:
      writer.begin_array();
      for (const auto& item : value.items()) emit_value(writer, item);
      writer.end_array();
      break;
    case JsonValue::Kind::Object:
      writer.begin_object();
      for (const auto& [key, member] : value.members()) {
        writer.key(key);
        emit_value(writer, member);
      }
      writer.end_object();
      break;
  }
}

/// Above this sample count the CLT normal approximation matches the
/// bootstrap to well within its own resampling noise, at O(count) instead
/// of O(resamples · count) — a million-record scenario must not stall
/// campaign completion (and every resume) on summary statistics.
constexpr std::size_t kBootstrapMaxSamples = 10'000;

/// A numeric field's statistics, computed once its scenario is finished.
struct FieldStats {
  std::string key;
  Summary summary;
  double lower = 0;  ///< 95% interval of the mean
  double upper = 0;
};

/// First-appearance-ordered accumulators for one scenario's records.
struct ScenarioAccumulator {
  std::string name;
  std::uint64_t jobs = 0;
  /// Each numeric field's values while the scenario is open; finish()
  /// distils them into `stats` and frees them.
  std::vector<std::pair<std::string, std::vector<double>>> numbers;
  std::vector<FieldStats> stats;
  bool finished = false;
  std::vector<std::pair<std::string, std::uint64_t>> bool_true_counts;
  // field → (value → count), both levels in first-appearance order.
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, std::uint64_t>>>>
      strings;

  template <typename Entries, typename Value>
  static auto& slot(Entries& entries, const std::string& key, const Value& fresh) {
    for (auto& [name, payload] : entries) {
      if (name == key) return payload;
    }
    entries.emplace_back(key, fresh);
    return entries.back().second;
  }

  void add(const JsonValue& record) {
    ++jobs;
    for (const auto& [key, value] : record.members()) {
      if (key == "job" || key == "seed" || key == "scenario" || key == "task" ||
          key == "version") {
        continue;
      }
      if (key == "obs" && value.is_object()) {
        // Flatten the per-job counter block into dotted numeric fields so
        // the summary aggregates work counters exactly like any other
        // per-job measurement ("obs.solver.exact_bb.nodes" and friends).
        // A block lists only nonzero deltas, so a counter first seen now
        // reads 0 for every earlier record of the scenario.
        for (const auto& [counter, count] : value.members()) {
          auto& column = slot(numbers, "obs." + counter, std::vector<double>{});
          if (column.empty()) column.resize(jobs - 1, 0.0);
          column.push_back(count.as_double());
        }
        continue;
      }
      if (value.is_bool()) {
        slot(bool_true_counts, key, std::uint64_t{0}) += value.as_bool() ? 1 : 0;
      } else if (value.is_number()) {
        slot(numbers, key, std::vector<double>{}).push_back(value.as_double());
      } else if (value.is_string()) {
        auto& counts =
            slot(strings, key, std::vector<std::pair<std::string, std::uint64_t>>{});
        slot(counts, value.as_string(), std::uint64_t{0}) += 1;
      }
      // Nulls (e.g. "deviator" of a stable state) carry no aggregate.
    }
    // ...and a counter this record's block leaves out reads 0, so every
    // obs.* column holds one value per job.
    for (auto& [key, values] : numbers) {
      if (values.size() < jobs && key.starts_with("obs.")) values.push_back(0.0);
    }
  }

  void finish() {
    obs::TraceSpan span("summary.scenario");
    span.arg("scenario", name);
    // One call bootstraps every field of the scenario; a field over
    // kBootstrapMaxSamples enters as an empty column and gets no interval.
    std::vector<std::span<const double>> columns;
    columns.reserve(numbers.size());
    for (const auto& [key, values] : numbers) {
      columns.emplace_back(values.size() <= kBootstrapMaxSamples ? std::span<const double>(values)
                                                                 : std::span<const double>());
    }
    const std::vector<BootstrapCi> intervals = bootstrap_mean_ci_columns(columns);
    stats.reserve(numbers.size());
    for (std::size_t i = 0; i < numbers.size(); ++i) {
      FieldStats field{std::move(numbers[i].first), summarize(numbers[i].second), 0, 0};
      // Bare means mislead at campaign sample sizes, so every numeric field
      // carries a 95% interval for its mean: a deterministic percentile
      // bootstrap (fixed seed → byte-stable summaries) where samples are
      // few and normality is doubtful, the normal approximation past the
      // threshold.
      const Summary& summary = field.summary;
      field.lower = summary.mean;
      field.upper = summary.mean;
      if (summary.count > 0 && summary.count <= kBootstrapMaxSamples) {
        field.lower = intervals[i].lower;
        field.upper = intervals[i].upper;
      } else if (summary.count > 0) {
        const double half =
            1.959963984540054 * summary.stddev / std::sqrt(static_cast<double>(summary.count));
        field.lower = summary.mean - half;
        field.upper = summary.mean + half;
      }
      stats.push_back(std::move(field));
    }
    numbers = {};
    finished = true;
  }
};

void emit_field_stats(JsonWriter& writer, const FieldStats& field) {
  const Summary& summary = field.summary;
  writer.key(field.key)
      .begin_object()
      .field("count", static_cast<std::uint64_t>(summary.count))
      .field("mean", summary.mean)
      .field("ci95_lower", field.lower)
      .field("ci95_upper", field.upper)
      .field("min", summary.min)
      .field("max", summary.max)
      .field("median", summary.median)
      .field("stddev", summary.stddev)
      .end_object();
}

}  // namespace

struct SummaryFold::State {
  std::vector<PlannedScenario> plan;
  std::size_t next_planned = 0;  ///< plan index of the scenario being folded
  JsonValue header;
  bool saw_header = false;
  std::uint64_t records = 0;
  std::vector<ScenarioAccumulator> scenarios;

  /// The accumulator of record `job`, which is in scenario `name`.
  ScenarioAccumulator& scenario_for(const std::string& name, std::uint64_t job) {
    if (!plan.empty()) {
      if (next_planned == plan.size() || plan[next_planned].name != name) {
        std::string what = "summary: job ";
        what += std::to_string(job);
        what += " is in scenario \"";
        what += name;
        if (next_planned == plan.size()) {
          what += "\", past the spec's last job";
        } else {
          what += "\", but the spec puts it in \"";
          what += plan[next_planned].name;
          what += "\"";
        }
        throw std::invalid_argument(what);
      }
      if (scenarios.empty() || scenarios.back().name != name) {
        scenarios.emplace_back().name = name;
      }
      return scenarios.back();
    }
    for (auto& existing : scenarios) {
      if (existing.name == name) return existing;
    }
    scenarios.emplace_back().name = name;
    return scenarios.back();
  }
};

SummaryFold::SummaryFold(std::vector<PlannedScenario> plan) : state_(std::make_unique<State>()) {
  state_->plan = std::move(plan);
}

SummaryFold::~SummaryFold() = default;
SummaryFold::SummaryFold(SummaryFold&&) noexcept = default;
SummaryFold& SummaryFold::operator=(SummaryFold&&) noexcept = default;

void SummaryFold::add_line(const std::string& line) {
  State& st = *state_;
  JsonValue value = parse_json(line);
  if (!st.saw_header) {
    st.header = std::move(value);
    st.saw_header = true;
    return;
  }
  ScenarioAccumulator& scenario = st.scenario_for(value.at("scenario").as_string(), st.records);
  ++st.records;
  scenario.add(value);
  if (!st.plan.empty() && scenario.jobs == st.plan[st.next_planned].jobs) {
    scenario.finish();
    ++st.next_planned;
  }
}

void SummaryFold::add_file(const std::string& path, std::uint64_t max_bytes) {
  // Stream the artifact line by line: a million-instance campaign must not
  // materialise a million parsed records just to be averaged.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("jsonl: cannot open " + path);
  std::string line;
  for (std::uint64_t read = 0; read < max_bytes && std::getline(in, line);) {
    read += line.size() + 1;
    if (!line.empty()) add_line(line);
  }
  if (!state_->saw_header) throw std::invalid_argument("jsonl: " + path + " has no header line");
}

std::uint64_t SummaryFold::records() const noexcept { return state_->records; }

void SummaryFold::write(const std::string& summary_path) {
  State& st = *state_;
  BBNG_REQUIRE_MSG(st.saw_header, "summary: no header line was folded");
  for (ScenarioAccumulator& scenario : st.scenarios) {
    if (!scenario.finished) scenario.finish();
  }
  // tmp + rename so a kill mid-write never leaves a torn summary in place.
  const std::string tmp_path = summary_path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::invalid_argument("summary: cannot open " + tmp_path);
  JsonWriter writer(out, /*pretty=*/true);
  writer.begin_object()
      .field("campaign", st.header.at("campaign").as_string())
      .field("spec_fingerprint", st.header.at("spec_fingerprint").as_string())
      .field("jobs", st.records);
  writer.key("host");
  emit_value(writer, st.header.at("host"));
  writer.key("scenarios").begin_array();
  for (const ScenarioAccumulator& scenario : st.scenarios) {
    writer.begin_object().field("name", scenario.name).field("jobs", scenario.jobs);
    writer.key("numbers").begin_object();
    for (const FieldStats& field : scenario.stats) emit_field_stats(writer, field);
    writer.end_object();
    writer.key("bool_true_counts").begin_object();
    for (const auto& [key, count] : scenario.bool_true_counts) writer.field(key, count);
    writer.end_object();
    writer.key("string_counts").begin_object();
    for (const auto& [key, counts] : scenario.strings) {
      writer.key(key).begin_object();
      for (const auto& [value, count] : counts) writer.field(value, count);
      writer.end_object();
    }
    writer.end_object().end_object();
  }
  writer.end_array().end_object();
  BBNG_ASSERT(writer.complete());
  out << '\n';
  if (!out.flush()) throw std::invalid_argument("summary: failed flushing " + tmp_path);
  out.close();
  std::filesystem::rename(tmp_path, summary_path);
}

void write_summary_file(const std::string& jsonl_path, const std::string& summary_path) {
  SummaryFold fold;
  fold.add_file(jsonl_path);
  fold.write(summary_path);
}

std::string obs_host_path_for(const std::string& output_path) {
  return output_path + ".obs_host.json";
}

void write_obs_host_file(const std::string& sidecar_path, const std::string& campaign_name,
                         double elapsed_seconds) {
  const std::string tmp_path = sidecar_path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::invalid_argument("obs_host: cannot open " + tmp_path);
  JsonWriter writer(out, /*pretty=*/true);
  writer.begin_object()
      .field("format", "bbng-obs-host")
      .field("format_version", 1)
      .field("campaign", campaign_name)
      .field("elapsed_seconds", elapsed_seconds);
  writer.key("host").begin_object();
  write_host_info_fields(writer);
  // peak_rss_kb lives here, NOT in the artifact header: VmHWM differs
  // between a straight-through run and a kill/resume pair, and the header
  // must stay byte-identical across both.
  writer.field("peak_rss_kb", peak_rss_kb()).end_object();
  writer.key("gauges").begin_object();
  for (const obs::GaugeSnapshot& gauge : obs::gauge_snapshot()) {
    writer.key(gauge.name)
        .begin_object()
        .field("last", gauge.last)
        .field("min", gauge.min)
        .field("max", gauge.max)
        .field("samples", gauge.samples)
        .end_object();
  }
  writer.end_object();
  writer.key("histograms").begin_object();
  for (const obs::HistogramSnapshot& hist : obs::histogram_snapshot()) {
    if (hist.count == 0) continue;
    writer.key(hist.name)
        .begin_object()
        .field("count", hist.count)
        .field("sum_us", hist.sum_us)
        .field("max_us", hist.max_us)
        .field("p50_us", hist.quantile_us(0.50))
        .field("p90_us", hist.quantile_us(0.90))
        .field("p99_us", hist.quantile_us(0.99))
        .end_object();
  }
  writer.end_object().end_object();
  BBNG_ASSERT(writer.complete());
  out << '\n';
  if (!out.flush()) throw std::invalid_argument("obs_host: failed flushing " + tmp_path);
  out.close();
  std::filesystem::rename(tmp_path, sidecar_path);
}

}  // namespace bbng
