#include "engine/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "solver/registry.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace bbng {

std::string to_string(TaskKind kind) {
  switch (kind) {
    case TaskKind::Dynamics: return "dynamics";
    case TaskKind::SwapEquilibrium: return "swap_equilibrium";
    case TaskKind::Poa: return "poa";
    case TaskKind::Audit: return "audit";
    case TaskKind::NashAudit: return "nash_audit";
    case TaskKind::Churn: return "churn";
  }
  return "?";
}

std::string to_string(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::RandomProfile: return "random_profile";
    case GeneratorKind::RandomTree: return "random_tree";
    case GeneratorKind::Path: return "path";
    case GeneratorKind::Cycle: return "cycle";
    case GeneratorKind::Star: return "star";
  }
  return "?";
}

std::string to_string(BudgetFamily family) {
  switch (family) {
    case BudgetFamily::Tree: return "tree";
    case BudgetFamily::Unit: return "unit";
    case BudgetFamily::Uniform: return "uniform";
    case BudgetFamily::Random: return "random";
  }
  return "?";
}

std::string default_solver(TaskKind task) {
  // nash_audit and churn exist to certify; everything else keeps the
  // bit-compatible legacy ladder.
  return task == TaskKind::NashAudit || task == TaskKind::Churn ? "exact_bb" : "swap";
}

std::uint64_t ScenarioSpec::seed_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& range : seeds) total += range.count();
  return total;
}

std::uint64_t ScenarioSpec::num_jobs() const noexcept {
  return static_cast<std::uint64_t>(grid_n.size()) * grid_density.size() * seed_count();
}

std::uint64_t CampaignSpec::num_jobs() const noexcept {
  std::uint64_t total = 0;
  for (const auto& scenario : scenarios) total += scenario.num_jobs();
  return total;
}

namespace {

[[noreturn]] void spec_error(const std::string& where, const std::string& what) {
  throw std::invalid_argument("spec: " + where + ": " + what);
}

/// Every consumed key must be recorded; leftovers are schema violations.
void reject_unknown_keys(const JsonValue& object, const std::vector<std::string>& known,
                         const std::string& where) {
  for (const auto& [key, value] : object.members()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      spec_error(where, "unknown key \"" + key + "\"");
    }
  }
}

const JsonValue& require_key(const JsonValue& object, const std::string& key,
                             const std::string& where) {
  const JsonValue* found = object.find(key);
  if (found == nullptr) spec_error(where, "missing required key \"" + key + "\"");
  return *found;
}

/// `value` read through one JsonValue accessor (`&JsonValue::as_uint`, …);
/// a type mismatch is a spec error naming the key path `path` + `key`. The
/// path is only assembled on that error, so a good read allocates nothing.
template <class T>
T read_as(const JsonValue& value, T (JsonValue::*as)() const, const std::string& where,
          std::string_view path, std::string_view key = {}) {
  try {
    return (value.*as)();
  } catch (const std::invalid_argument& error) {
    std::string what(path);
    what += key;
    what += ": ";
    what += error.what();
    spec_error(where, what);
  }
}

TaskKind parse_task(const std::string& text, const std::string& where) {
  if (text == "dynamics") return TaskKind::Dynamics;
  if (text == "swap_equilibrium") return TaskKind::SwapEquilibrium;
  if (text == "poa") return TaskKind::Poa;
  if (text == "audit") return TaskKind::Audit;
  if (text == "nash_audit") return TaskKind::NashAudit;
  if (text == "churn") return TaskKind::Churn;
  spec_error(where, "unknown task \"" + text +
                        "\" (expected dynamics|swap_equilibrium|poa|audit|nash_audit|churn)");
}

CostVersion parse_version(const std::string& text, const std::string& where) {
  if (text == "sum") return CostVersion::Sum;
  if (text == "max") return CostVersion::Max;
  spec_error(where, "unknown version \"" + text + "\" (expected sum|max)");
}

GeneratorKind parse_generator(const std::string& text, const std::string& where) {
  if (text == "random_profile") return GeneratorKind::RandomProfile;
  if (text == "random_tree") return GeneratorKind::RandomTree;
  if (text == "path") return GeneratorKind::Path;
  if (text == "cycle") return GeneratorKind::Cycle;
  if (text == "star") return GeneratorKind::Star;
  spec_error(where, "unknown generator \"" + text +
                        "\" (expected random_profile|random_tree|path|cycle|star)");
}

BudgetFamily parse_family(const std::string& text, const std::string& where) {
  if (text == "tree") return BudgetFamily::Tree;
  if (text == "unit") return BudgetFamily::Unit;
  if (text == "uniform") return BudgetFamily::Uniform;
  if (text == "random") return BudgetFamily::Random;
  spec_error(where, "unknown budget family \"" + text +
                        "\" (expected tree|unit|uniform|random)");
}

Schedule parse_schedule(const std::string& text, const std::string& where) {
  if (text == "round_robin") return Schedule::RoundRobin;
  if (text == "random_permutation") return Schedule::RandomPermutation;
  if (text == "uniform_random") return Schedule::UniformRandom;
  spec_error(where, "unknown schedule \"" + text +
                        "\" (expected round_robin|random_permutation|uniform_random)");
}

MovePolicy parse_policy(const std::string& text, const std::string& where) {
  if (text == "best_response") return MovePolicy::BestResponse;
  if (text == "first_improving_swap") return MovePolicy::FirstImprovingSwap;
  spec_error(where, "unknown policy \"" + text +
                        "\" (expected best_response|first_improving_swap)");
}

SeedRange parse_seed_range(const JsonValue& object, const std::string& where) {
  if (!object.is_object()) spec_error(where, "a seed range must be an object");
  reject_unknown_keys(object, {"begin", "end"}, where);
  SeedRange range;
  range.begin =
      read_as(require_key(object, "begin", where), &JsonValue::as_uint, where, "seeds.begin");
  range.end = read_as(require_key(object, "end", where), &JsonValue::as_uint, where, "seeds.end");
  if (range.begin >= range.end) {
    spec_error(where, "empty seed range [" + std::to_string(range.begin) + ", " +
                          std::to_string(range.end) + ")");
  }
  return range;
}

/// Seeds: one range object or an array of them; ranges must be disjoint
/// (overlap means the same instance would be run — and counted — twice).
std::vector<SeedRange> parse_seeds(const JsonValue& value, const std::string& where) {
  std::vector<SeedRange> ranges;
  if (value.is_object()) {
    ranges.push_back(parse_seed_range(value, where));
  } else if (value.is_array()) {
    if (value.items().empty()) spec_error(where, "seeds must contain at least one range");
    for (const auto& item : value.items()) ranges.push_back(parse_seed_range(item, where));
  } else {
    spec_error(where, "seeds must be a range object or an array of ranges");
  }
  std::vector<SeedRange> sorted = ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const SeedRange& a, const SeedRange& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].begin < sorted[i - 1].end) {
      spec_error(where, "seed ranges overlap: [" + std::to_string(sorted[i - 1].begin) + ", " +
                            std::to_string(sorted[i - 1].end) + ") and [" +
                            std::to_string(sorted[i].begin) + ", " +
                            std::to_string(sorted[i].end) + ")");
    }
  }
  return ranges;  // original order (it is part of the job expansion order)
}

ChurnMode parse_churn_mode(const std::string& text, const std::string& where) {
  if (text == "track") return ChurnMode::Track;
  if (text == "respond") return ChurnMode::Respond;
  spec_error(where, "unknown churn mode \"" + text + "\" (expected track|respond)");
}

void parse_churn_weights(const JsonValue& object, ChurnTraceWeights& weights,
                         const std::string& where) {
  if (!object.is_object()) spec_error(where, "churn.weights must be an object");
  reject_unknown_keys(object, {"join", "leave", "grow", "shrink", "perturb"}, where);
  const auto read = [&object, &where](const char* key, std::uint32_t& slot) {
    if (const JsonValue* value = object.find(key); value != nullptr) {
      const std::uint64_t weight =
          read_as(*value, &JsonValue::as_uint, where, "params.churn.weights.", key);
      if (weight > std::numeric_limits<std::uint32_t>::max()) {
        spec_error(where, std::string("churn.weights.") + key + " does not fit 32 bits");
      }
      slot = static_cast<std::uint32_t>(weight);
    }
  };
  read("join", weights.join);
  read("leave", weights.leave);
  read("grow", weights.grow);
  read("shrink", weights.shrink);
  read("perturb", weights.perturb);
  if (weights.join + weights.leave + weights.grow + weights.shrink + weights.perturb == 0) {
    spec_error(where, "churn.weights must leave at least one event kind drawable");
  }
}

void parse_churn(const JsonValue& object, TaskParams& params, const std::string& where) {
  if (!object.is_object()) spec_error(where, "churn must be an object");
  reject_unknown_keys(object, {"events", "checkpoint_every", "mode", "max_budget", "weights"},
                      where + " churn");
  if (const JsonValue* events = object.find("events"); events != nullptr) {
    params.churn_events = read_as(*events, &JsonValue::as_uint, where, "params.churn.events");
    if (params.churn_events == 0) spec_error(where, "churn.events must be positive");
  }
  if (const JsonValue* every = object.find("checkpoint_every"); every != nullptr) {
    params.churn_checkpoint_every =
        read_as(*every, &JsonValue::as_uint, where, "params.churn.checkpoint_every");
  }
  if (const JsonValue* mode = object.find("mode"); mode != nullptr) {
    params.churn_mode = parse_churn_mode(
        read_as(*mode, &JsonValue::as_string, where, "params.churn.mode"), where);
  }
  if (const JsonValue* max_budget = object.find("max_budget"); max_budget != nullptr) {
    const std::uint64_t value =
        read_as(*max_budget, &JsonValue::as_uint, where, "params.churn.max_budget");
    if (value == 0) spec_error(where, "churn.max_budget must be positive");
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      spec_error(where, "churn.max_budget does not fit 32 bits");
    }
    params.churn_max_budget = static_cast<std::uint32_t>(value);
  }
  if (const JsonValue* weights = object.find("weights"); weights != nullptr) {
    parse_churn_weights(*weights, params.churn_weights, where);
  }
}

void parse_solver_budget(const JsonValue& object, TaskParams& params, const std::string& where) {
  if (!object.is_object()) spec_error(where, "solver_budget must be an object");
  reject_unknown_keys(object, {"node_limit", "deadline_ms"}, where + " solver_budget");
  if (const JsonValue* node_limit = object.find("node_limit"); node_limit != nullptr) {
    params.solver_node_limit =
        read_as(*node_limit, &JsonValue::as_uint, where, "params.solver_budget.node_limit");
  }
  if (const JsonValue* deadline = object.find("deadline_ms"); deadline != nullptr) {
    params.solver_deadline_ms =
        read_as(*deadline, &JsonValue::as_uint, where, "params.solver_budget.deadline_ms");
  }
}

TaskParams parse_params(const JsonValue* object, TaskKind task, const std::string& where) {
  TaskParams params;
  if (object == nullptr) return params;
  if (!object->is_object()) spec_error(where, "params must be an object");
  std::vector<std::string> known;
  switch (task) {
    case TaskKind::Dynamics:
    case TaskKind::Poa:
      known = {"max_rounds", "exact_limit", "schedule",       "policy",
               "incremental", "graph_core",  "solver",         "solver_budget"};
      break;
    case TaskKind::SwapEquilibrium:
      known = {"incremental", "graph_core"};
      break;
    case TaskKind::Audit:
      known = {"exact_limit", "swap_limit", "compute_connectivity"};
      break;
    case TaskKind::NashAudit:
      known = {"incremental", "graph_core", "solver", "solver_budget"};
      break;
    case TaskKind::Churn:
      known = {"incremental", "graph_core", "solver", "solver_budget", "churn"};
      break;
  }
  for (const auto& [key, value] : object->members()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      spec_error(where, "unknown key \"" + key + "\" in params for task " + to_string(task));
    }
    if (key == "max_rounds") {
      params.max_rounds = read_as(value, &JsonValue::as_uint, where, "params.", key);
      if (params.max_rounds == 0) spec_error(where, "max_rounds must be positive");
    } else if (key == "exact_limit") {
      params.exact_limit = read_as(value, &JsonValue::as_uint, where, "params.", key);
    } else if (key == "swap_limit") {
      params.swap_limit = read_as(value, &JsonValue::as_uint, where, "params.", key);
    } else if (key == "schedule") {
      params.schedule =
          parse_schedule(read_as(value, &JsonValue::as_string, where, "params.", key), where);
    } else if (key == "policy") {
      params.policy =
          parse_policy(read_as(value, &JsonValue::as_string, where, "params.", key), where);
    } else if (key == "incremental") {
      params.incremental = read_as(value, &JsonValue::as_bool, where, "params.", key);
    } else if (key == "graph_core") {
      const std::string name = read_as(value, &JsonValue::as_string, where, "params.", key);
      if (name == "csr") {
        params.graph_core = GraphCore::kCsr;
      } else if (name == "vector") {
        params.graph_core = GraphCore::kVector;
      } else {
        spec_error(where, "graph_core must be \"csr\" or \"vector\", got \"" + name + "\"");
      }
    } else if (key == "compute_connectivity") {
      params.compute_connectivity = read_as(value, &JsonValue::as_bool, where, "params.", key);
    } else if (key == "solver") {
      params.solver = read_as(value, &JsonValue::as_string, where, "params.", key);
      try {
        (void)find_solver(params.solver);  // one authoritative error message
      } catch (const std::invalid_argument& error) {
        spec_error(where, error.what());
      }
    } else if (key == "solver_budget") {
      parse_solver_budget(value, params, where);
    } else if (key == "churn") {
      parse_churn(value, params, where);
    }
  }
  // A deadline aimed at a backend without a preemption point would be a
  // silent no-op — ask the backend itself and reject at validate time.
  if (params.solver_deadline_ms > 0) {
    const std::string effective =
        params.solver.empty() ? default_solver(task) : params.solver;
    if (!find_solver(effective).supports_deadline()) {
      spec_error(where, "solver_budget.deadline_ms is not supported by the \"" + effective +
                            "\" backend (no preemption point); pick a deadline-capable "
                            "solver such as \"exact_bb\" or \"portfolio\"");
    }
  }
  return params;
}

ScenarioSpec parse_scenario(const JsonValue& object, const std::string& fallback_name) {
  ScenarioSpec scenario;
  const JsonValue* name = object.find("name");
  scenario.name = name != nullptr ? read_as(*name, &JsonValue::as_string, "scenario", "name")
                                  : fallback_name;
  if (scenario.name.empty()) spec_error("scenario", "missing required key \"name\"");
  const std::string where = "scenario \"" + scenario.name + "\"";

  // "obs" is consumed at the campaign level (parse_campaign_spec); it is
  // listed here only so the single-scenario form accepts it at top level.
  reject_unknown_keys(object,
                      {"name", "base_seed", "obs", "task", "version", "generator", "budgets",
                       "grid", "seeds", "params"},
                      where);

  scenario.task = parse_task(
      read_as(require_key(object, "task", where), &JsonValue::as_string, where, "task"), where);
  scenario.version = parse_version(
      read_as(require_key(object, "version", where), &JsonValue::as_string, where, "version"),
      where);
  if (const JsonValue* generator = object.find("generator"); generator != nullptr) {
    scenario.generator = parse_generator(
        read_as(*generator, &JsonValue::as_string, where, "generator"), where);
  }

  // Budgets: required for random_profile, implied (and forbidden) otherwise.
  const JsonValue* budgets = object.find("budgets");
  if (scenario.generator == GeneratorKind::RandomProfile) {
    if (budgets == nullptr) spec_error(where, "missing required key \"budgets\"");
    if (!budgets->is_object()) spec_error(where, "budgets must be an object");
    reject_unknown_keys(*budgets, {"family", "b"}, where);
    scenario.family = parse_family(read_as(require_key(*budgets, "family", where),
                                           &JsonValue::as_string, where, "budgets.family"),
                                   where);
    const JsonValue* b = budgets->find("b");
    if (scenario.family == BudgetFamily::Uniform) {
      if (b == nullptr) spec_error(where, "uniform budgets need \"b\"");
      const std::uint64_t value = read_as(*b, &JsonValue::as_uint, where, "budgets.b");
      if (value == 0) spec_error(where, "uniform budget b must be positive");
      if (value > std::numeric_limits<std::uint32_t>::max()) {
        spec_error(where, "uniform budget b=" + std::to_string(value) + " does not fit 32 bits");
      }
      scenario.uniform_b = static_cast<std::uint32_t>(value);
    } else if (b != nullptr) {
      spec_error(where, "\"b\" is only meaningful for the uniform family");
    }
  } else if (budgets != nullptr) {
    spec_error(where, "generator \"" + to_string(scenario.generator) +
                          "\" implies its budgets; drop the \"budgets\" key");
  }

  // Grid: n (required, ≥2 each, no duplicates) × density (random family only).
  const JsonValue& grid = require_key(object, "grid", where);
  if (!grid.is_object()) spec_error(where, "grid must be an object");
  reject_unknown_keys(grid, {"n", "density"}, where);
  const JsonValue& grid_n = require_key(grid, "n", where);
  if (!grid_n.is_array() || grid_n.items().empty()) {
    spec_error(where, "grid.n must be a non-empty array");
  }
  for (const auto& item : grid_n.items()) {
    const std::uint64_t n = read_as(item, &JsonValue::as_uint, where, "grid.n");
    if (n < 2) spec_error(where, "grid.n entries must be at least 2");
    if (n > kMaxPlayers) {
      std::string what = "grid.n entry " + std::to_string(n);
      what += " exceeds kMaxPlayers = " + std::to_string(kMaxPlayers);
      what += " (costs would overflow uint64)";
      spec_error(where, what);
    }
    const auto value = static_cast<std::uint32_t>(n);
    if (std::find(scenario.grid_n.begin(), scenario.grid_n.end(), value) !=
        scenario.grid_n.end()) {
      spec_error(where, "grid.n entry " + std::to_string(n) + " is duplicated");
    }
    scenario.grid_n.push_back(value);
  }
  if (const JsonValue* density = grid.find("density"); density != nullptr) {
    const bool random_family = scenario.generator == GeneratorKind::RandomProfile &&
                               scenario.family == BudgetFamily::Random;
    if (!random_family) {
      // Any density key (even a single entry) would be recorded in every
      // JSONL row and perturb the per-job seeds without ever being applied.
      spec_error(where, "the density axis is only meaningful for the random budget family");
    }
    if (!density->is_array() || density->items().empty()) {
      spec_error(where, "grid.density must be a non-empty array");
    }
    for (const auto& item : density->items()) {
      const double value = read_as(item, &JsonValue::as_double, where, "grid.density");
      if (!(value > 0)) spec_error(where, "grid.density entries must be positive");
      if (std::find(scenario.grid_density.begin(), scenario.grid_density.end(), value) !=
          scenario.grid_density.end()) {
        spec_error(where, "grid.density entry " + std::to_string(value) + " is duplicated");
      }
      scenario.grid_density.push_back(value);
    }
    // Feasibility at every grid size: σ = round(density·n) must be dealable
    // with every budget < n, i.e. σ ≤ n·(n−1).
    for (const std::uint32_t n : scenario.grid_n) {
      for (const double value : scenario.grid_density) {
        const auto sigma = static_cast<std::uint64_t>(std::llround(value * n));
        if (sigma > std::uint64_t{n} * (n - 1)) {
          spec_error(where, "density " + std::to_string(value) + " is infeasible at n=" +
                                std::to_string(n) + " (sigma would exceed n*(n-1))");
        }
      }
    }
  } else {
    scenario.grid_density.push_back(1.0);
  }

  // Uniform b must be playable at every grid size (b ≤ n−1).
  if (scenario.generator == GeneratorKind::RandomProfile &&
      scenario.family == BudgetFamily::Uniform) {
    for (const std::uint32_t n : scenario.grid_n) {
      if (scenario.uniform_b >= n) {
        spec_error(where, "uniform budget b=" + std::to_string(scenario.uniform_b) +
                              " needs n > b, but grid.n has " + std::to_string(n));
      }
    }
  }

  scenario.seeds = parse_seeds(require_key(object, "seeds", where), where);
  scenario.params = parse_params(object.find("params"), scenario.task, where);
  return scenario;
}

}  // namespace

CampaignSpec parse_campaign_spec(const std::string& json_text) {
  const JsonValue root = parse_json(json_text);
  if (!root.is_object()) spec_error("campaign", "the top-level value must be an object");

  CampaignSpec campaign;
  campaign.name = read_as(require_key(root, "name", "campaign"), &JsonValue::as_string,
                          "campaign", "name");
  if (campaign.name.empty()) spec_error("campaign", "name must be non-empty");
  if (const JsonValue* base_seed = root.find("base_seed"); base_seed != nullptr) {
    campaign.base_seed = read_as(*base_seed, &JsonValue::as_uint, "campaign", "base_seed");
  }
  if (const JsonValue* obs = root.find("obs"); obs != nullptr) {
    campaign.obs = read_as(*obs, &JsonValue::as_bool, "campaign", "obs");
  }

  const JsonValue* scenarios = root.find("scenarios");
  if (scenarios != nullptr) {
    reject_unknown_keys(root, {"name", "base_seed", "obs", "scenarios"}, "campaign");
    if (!scenarios->is_array() || scenarios->items().empty()) {
      spec_error("campaign", "scenarios must be a non-empty array");
    }
    for (const auto& item : scenarios->items()) {
      if (!item.is_object()) spec_error("campaign", "each scenario must be an object");
      if (item.find("name") == nullptr) spec_error("scenario", "missing required key \"name\"");
      if (item.find("base_seed") != nullptr) {
        spec_error("campaign", "base_seed belongs at the campaign level, not in a scenario");
      }
      if (item.find("obs") != nullptr) {
        spec_error("campaign", "obs belongs at the campaign level, not in a scenario");
      }
      campaign.scenarios.push_back(parse_scenario(item, ""));
    }
  } else {
    // Single-scenario form: scenario keys live at the top level.
    campaign.scenarios.push_back(parse_scenario(root, campaign.name));
  }

  for (std::size_t i = 0; i < campaign.scenarios.size(); ++i) {
    for (std::size_t j = i + 1; j < campaign.scenarios.size(); ++j) {
      if (campaign.scenarios[i].name == campaign.scenarios[j].name) {
        spec_error("campaign",
                   "duplicate scenario name \"" + campaign.scenarios[i].name + "\"");
      }
    }
  }

  // num_jobs() multiplies and adds unchecked; every parsed spec must keep
  // both the per-scenario counts and the campaign total inside 64 bits.
  std::uint64_t total = 0;
  for (const ScenarioSpec& scenario : campaign.scenarios) {
    std::uint64_t jobs = 0;
    if (__builtin_mul_overflow(std::uint64_t{scenario.grid_n.size()},
                               std::uint64_t{scenario.grid_density.size()}, &jobs) ||
        __builtin_mul_overflow(jobs, scenario.seed_count(), &jobs) ||
        __builtin_add_overflow(total, jobs, &total)) {
      spec_error("scenario \"" + scenario.name + "\"", "job count overflows 64 bits");
    }
  }
  return campaign;
}

CampaignSpec load_campaign_spec(const std::string& path, std::string* raw_text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("spec: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  CampaignSpec campaign = parse_campaign_spec(text);
  if (raw_text != nullptr) *raw_text = std::move(text);
  return campaign;
}

std::string spec_fingerprint(const std::string& json_text) {
  std::uint64_t hash = fnv1a64(json_text);
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace bbng
