// Differential tests for the churn engine and the bugfixes that unblock it:
// after EVERY applied event the incremental ε-Nash certificate must agree
// bit-for-bit with a from-scratch verify_nash_equilibrium of the live state
// under the live budget caps — on both graph cores, both cost versions, and
// both churn modes — and every standing per-player certificate, skipped
// ones included, must match a fresh uncached solve. Alongside: capped solves of all three backends against
// brute-force enumeration, the budget-cap transposition-cache key, the
// collision-safe cycle detector, and the dynamics budget gate.
#include "game/churn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "engine/runner.hpp"
#include "game/dynamics.hpp"
#include "game/equilibrium.hpp"
#include "game/strategy_eval.hpp"
#include "graph/generators.hpp"
#include "solver/exact_bb.hpp"
#include "solver/registry.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

/// Ground truth for capped solves: the cheapest strategy of EXACTLY `cap`
/// heads by full enumeration (supersets never cost more, so this equals the
/// optimum over all strategies of size ≤ cap).
std::uint64_t brute_capped_best(const Digraph& g, Vertex u, CostVersion version,
                                std::uint32_t cap) {
  const std::uint32_t n = g.num_vertices();
  std::vector<Vertex> candidates;
  for (Vertex t = 0; t < n; ++t) {
    if (t != u) candidates.push_back(t);
  }
  const StrategyEvaluator eval(g, u, version);
  StrategyEvaluator::Scratch scratch(n);
  std::uint64_t best = ~0ULL;
  std::vector<Vertex> trial(cap);
  for (CombinationIterator it(static_cast<std::uint32_t>(candidates.size()), cap); it.valid();
       it.advance()) {
    const auto indices = it.current();
    for (std::size_t i = 0; i < indices.size(); ++i) trial[i] = candidates[indices[i]];
    best = std::min(best, eval.evaluate(trial, scratch));
  }
  return best;
}

/// Engine certificate vs the from-scratch comparator, bit for bit.
void expect_matches_audit(ChurnEngine& engine, const char* context) {
  const NashReport report = engine.audit();
  ASSERT_EQ(engine.epsilon(), report.epsilon) << context;
  ASSERT_EQ(engine.stable(), report.stable) << context;
  if (!report.stable) {
    ASSERT_EQ(engine.deviator(), report.deviator) << context;
  }
}

/// Every standing per-player certificate vs a fresh solve: each active
/// player is re-solved without a cache under its live cap, and where the
/// fresh solve is certified the engine must hold a certificate with the
/// same regret. This re-derives every player a deletion-locality or
/// no-delta skip kept without solving, and everyone else.
void expect_regrets_match_fresh_solves(const ChurnEngine& engine, const ChurnConfig& config,
                                       const char* context) {
  const BestResponseBackend& backend = find_solver(config.solver);
  const Digraph& g = engine.graph();
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (engine.budgets()[u] == 0) continue;
    SolverBudget budget = config.budget;
    budget.budget_cap = engine.budgets()[u];
    const SolverResult fresh = backend.solve(g, u, config.version, budget);
    if (!fresh.optimal) continue;
    ASSERT_TRUE(engine.player_certified(u)) << context << ": player " << u;
    ASSERT_EQ(engine.regret(u), fresh.improves() ? fresh.current_cost - fresh.cost : 0)
        << context << ": player " << u;
  }
}

Digraph small_instance(std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> budgets = random_budgets(n, n, rng);
  for (auto& b : budgets) b = std::min(b, 2U);
  return random_profile(budgets, rng);
}

// ---------------------------------------------------------------------------
// Tentpole: differential churn suite.

TEST(Churn, DifferentialAgainstFromScratchAudit) {
  int events_applied = 0;
  for (const GraphCore core : {GraphCore::kCsr, GraphCore::kVector}) {
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (const ChurnMode mode : {ChurnMode::Track, ChurnMode::Respond}) {
        Rng rng(1000 + static_cast<std::uint64_t>(core == GraphCore::kCsr) +
                2 * static_cast<std::uint64_t>(version == CostVersion::Max) +
                4 * static_cast<std::uint64_t>(mode == ChurnMode::Respond));
        const Digraph initial = small_instance(8, rng);
        ChurnConfig config;
        config.version = version;
        config.mode = mode;
        config.budget.core = core;
        ChurnEngine engine(initial, initial.budgets(), config);
        expect_matches_audit(engine, "initial");
        expect_regrets_match_fresh_solves(engine, config, "initial");
        EXPECT_TRUE(engine.certified());

        ChurnTraceSampler sampler({}, /*max_budget=*/3, /*seed=*/rng.next_below(1U << 30));
        for (int e = 0; e < 20; ++e) {
          const auto event = sampler.next(engine.graph(), engine.budgets());
          if (!event) break;
          engine.apply(*event);
          ++events_applied;
          SCOPED_TRACE(std::string(to_string(mode)) + " " + to_string(version) + " event " +
                       std::to_string(e) + " " + to_string(event->kind));
          expect_matches_audit(engine, to_string(event->kind));
          expect_regrets_match_fresh_solves(engine, config, to_string(event->kind));
          // exact_bb keeps the whole certificate exact at all times.
          EXPECT_TRUE(engine.certified());
        }
      }
    }
  }
  // The sampler must actually exercise the engine, not bail immediately.
  EXPECT_GE(events_applied, 100);
}

TEST(Churn, StandingRegretsMatchBruteForce) {
  Rng rng(77);
  const Digraph initial = small_instance(7, rng);
  ChurnConfig config;
  config.version = CostVersion::Sum;
  config.mode = ChurnMode::Track;  // regrets accumulate — nothing responds
  ChurnEngine engine(initial, initial.budgets(), config);
  ChurnTraceSampler sampler({}, 3, 909);
  for (int e = 0; e < 12; ++e) {
    const auto event = sampler.next(engine.graph(), engine.budgets());
    ASSERT_TRUE(event.has_value());
    engine.apply(*event);
  }
  const Digraph& g = engine.graph();
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const std::uint32_t cap = engine.budgets()[u];
    if (cap == 0) {
      EXPECT_EQ(engine.regret(u), 0U);
      continue;
    }
    const StrategyEvaluator eval(g, u, CostVersion::Sum);
    const std::uint64_t best = brute_capped_best(g, u, CostVersion::Sum, cap);
    EXPECT_EQ(engine.regret(u), eval.current_cost() - best) << "player " << u;
    EXPECT_TRUE(engine.player_certified(u));
  }
}

TEST(Churn, EventSemantics) {
  // A 5-star owned by the leaves plus an inactive slot; SUM version.
  Digraph g(6);
  for (Vertex leaf = 1; leaf <= 4; ++leaf) g.add_arc(leaf, 0);
  std::vector<std::uint32_t> caps = {0, 1, 1, 1, 1, 0};
  ChurnConfig config;
  ChurnEngine engine(g, caps, config);
  EXPECT_EQ(engine.active_players(), 4U);

  // Join: slot 5 becomes a player with budget 2 but owns nothing yet.
  engine.apply({ChurnEventKind::Join, 5, 2, 0, 0});
  EXPECT_EQ(engine.budgets()[5], 2U);
  EXPECT_EQ(engine.graph().out_degree(5), 0U);
  EXPECT_GT(engine.regret(5), 0U);  // buying in would connect it
  expect_matches_audit(engine, "join");

  // Leave retires the PLAYER, not the vertex: player 1's arc 1→0 drops and
  // its budget zeroes, but vertex 1 keeps its seat in everyone's cost sum.
  engine.apply({ChurnEventKind::Leave, 1, 0, 0, 0});
  EXPECT_EQ(engine.budgets()[1], 0U);
  EXPECT_EQ(engine.graph().out_degree(1), 0U);
  EXPECT_EQ(engine.regret(1), 0U);
  EXPECT_EQ(engine.active_players(), 4U);  // 2, 3, 4, 5
  expect_matches_audit(engine, "leave");

  // Grow: player 2 may now buy a second arc — only its own query changes.
  engine.apply({ChurnEventKind::BudgetGrow, 2, 2, 0, 0});
  EXPECT_EQ(engine.budgets()[2], 2U);
  expect_matches_audit(engine, "grow");

  // Perturb: rewire 3→0 to 3→4 exogenously.
  engine.apply({ChurnEventKind::Perturb, 3, 0, 0, 4});
  EXPECT_FALSE(engine.graph().has_arc(3, 0));
  EXPECT_TRUE(engine.graph().has_arc(3, 4));
  expect_matches_audit(engine, "perturb");

  const ChurnStats& stats = engine.stats();
  EXPECT_EQ(stats.events, 4U);
  EXPECT_EQ(stats.joins, 1U);
  EXPECT_EQ(stats.leaves, 1U);
  EXPECT_EQ(stats.grows, 1U);
  EXPECT_EQ(stats.perturbs, 1U);
}

TEST(Churn, TrackShrinkTrimsGreedily) {
  // Player 0 owns three arcs; shrinking its budget to 1 must physically trim
  // the strategy down to the single cheapest-to-keep head.
  Digraph g(5);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  g.add_arc(0, 4);
  g.add_arc(3, 2);
  std::vector<std::uint32_t> caps = {3, 0, 0, 1, 0};
  ChurnConfig config;
  config.mode = ChurnMode::Track;
  ChurnEngine engine(g, caps, config);
  engine.apply({ChurnEventKind::BudgetShrink, 0, 1, 0, 0});
  EXPECT_EQ(engine.graph().out_degree(0), 1U);
  EXPECT_EQ(engine.budgets()[0], 1U);
  expect_matches_audit(engine, "shrink");
  expect_regrets_match_fresh_solves(engine, config, "shrink");
  EXPECT_EQ(engine.stats().shrinks, 1U);
  EXPECT_EQ(engine.stats().moves, 1U);
}

TEST(Churn, NoDeltaEventsSolveOnlyTheEventPlayer) {
  // Join/grow-only trace: every event leaves the graph untouched, so the
  // engine must re-solve ONLY the event's player while the from-scratch
  // baseline would re-audit everyone — the ≥5× claim in miniature.
  Rng rng(31);
  const Digraph initial = small_instance(24, rng);
  ChurnConfig config;
  config.solver = "swap";
  ChurnEngine engine(initial, initial.budgets(), config);
  const std::uint64_t setup_searches = engine.stats().solver_searches;

  ChurnTraceWeights weights;
  weights.join = 1;
  weights.leave = 0;
  weights.grow = 1;
  weights.shrink = 0;
  weights.perturb = 0;
  ChurnTraceSampler sampler(weights, /*max_budget=*/4, /*seed=*/5);
  std::uint64_t events = 0;
  while (events < 30) {
    const auto event = sampler.next(engine.graph(), engine.budgets());
    if (!event) break;
    engine.apply(*event);
    ++events;
  }
  ASSERT_GE(events, 10U);
  const ChurnStats& stats = engine.stats();
  const std::uint64_t incremental = stats.solver_searches - setup_searches;
  EXPECT_LE(incremental, stats.events);  // ≤ one fresh search per event
  EXPECT_GE(stats.skips_clean, stats.events * 5);
  EXPECT_GE(stats.baseline_solves, 5 * std::max<std::uint64_t>(incremental, 1));
}

TEST(Churn, DeletionEventsKeepCertificatesViaLocalityLemma) {
  // Star with hub 0; leaves 1..4 each own an arc to the hub, and the hub
  // owns a reverse arc 0→2. Retiring player 2 drops its arc 2→0, but the
  // underlying edge 0–2 survives through the hub's arc — every current cost
  // is measurably unchanged, so the deletion lemma must carry all standing
  // leaf certificates across without a single re-solve (each skip
  // re-derived by a fresh solve).
  Digraph g(5);
  g.add_arc(0, 2);
  for (Vertex leaf = 1; leaf <= 4; ++leaf) g.add_arc(leaf, 0);
  ChurnConfig config;
  config.version = CostVersion::Sum;
  ChurnEngine engine(g, {1, 1, 1, 1, 1}, config);
  // Player 2's arc duplicates the hub's underlying edge, so 2 itself has
  // regret (it could rewire somewhere useful) — everyone else is a certified
  // best responder.
  EXPECT_EQ(engine.deviator(), 2U);
  expect_matches_audit(engine, "initial");

  engine.apply({ChurnEventKind::Leave, 2, 0, 0, 0});
  EXPECT_TRUE(engine.graph().has_arc(0, 2));  // the vertex stays wired in
  EXPECT_TRUE(engine.stable());  // the one deviator retired
  expect_matches_audit(engine, "redundant leave");
  expect_regrets_match_fresh_solves(engine, config, "redundant leave");
  // Leaves 1, 3, 4 keep their certificates via the lemma; the hub sits on
  // the trivial bound and player 2 is retired — nobody re-solves.
  EXPECT_EQ(engine.stats().skips_locality, 3U);
}

TEST(Churn, DeletionTraceOnConvergedStateStaysDifferential) {
  // Converge to a Nash state, then hit it with deletions only; the
  // incremental certificate must track the audit after every event with
  // every locality skip re-derived.
  Rng rng(58);
  const Digraph initial = small_instance(10, rng);
  DynamicsConfig dyn;
  dyn.version = CostVersion::Sum;
  const DynamicsResult converged = run_best_response_dynamics(initial, dyn);
  ASSERT_TRUE(converged.converged);

  ChurnConfig config;
  ChurnEngine engine(converged.graph, converged.graph.budgets(), config);
  ASSERT_TRUE(engine.stable());

  ChurnTraceWeights weights;
  weights.join = 0;
  weights.leave = 1;
  weights.grow = 0;
  weights.shrink = 1;
  weights.perturb = 0;
  ChurnTraceSampler sampler(weights, 3, 17);
  for (int e = 0; e < 6; ++e) {
    const auto event = sampler.next(engine.graph(), engine.budgets());
    if (!event) break;
    engine.apply(*event);
    expect_matches_audit(engine, to_string(event->kind));
    expect_regrets_match_fresh_solves(engine, config, to_string(event->kind));
  }
}

TEST(Churn, HeuristicBackendTracksItsOwnAudit) {
  // With a heuristic backend the engine must still report exactly what a
  // from-scratch audit with that backend reports (same ε, same deviator).
  for (const ChurnMode mode : {ChurnMode::Track, ChurnMode::Respond}) {
    Rng rng(mode == ChurnMode::Track ? 301 : 302);
    const Digraph initial = small_instance(9, rng);
    ChurnConfig config;
    config.solver = "swap";
    config.mode = mode;
    ChurnEngine engine(initial, initial.budgets(), config);
    expect_matches_audit(engine, "initial");
    ChurnTraceSampler sampler({}, 3, 404);
    for (int e = 0; e < 15; ++e) {
      const auto event = sampler.next(engine.graph(), engine.budgets());
      if (!event) break;
      engine.apply(*event);
      SCOPED_TRACE(std::string(to_string(mode)) + " event " + std::to_string(e));
      expect_matches_audit(engine, to_string(event->kind));
    }
  }
}

TEST(Churn, RespondModePlayersAnswerEvents) {
  Rng rng(21);
  const Digraph initial = small_instance(8, rng);
  ChurnConfig config;
  config.mode = ChurnMode::Respond;
  ChurnEngine engine(initial, initial.budgets(), config);
  // A joining player immediately buys a full budget-sized strategy and is
  // left regret-free (its own move cannot change its own optimum).
  Vertex slot = initial.num_vertices();
  for (Vertex u = 0; u < initial.num_vertices(); ++u) {
    if (engine.budgets()[u] == 0) {
      slot = u;
      break;
    }
  }
  if (slot < initial.num_vertices()) {
    engine.apply({ChurnEventKind::Join, slot, 2, 0, 0});
    EXPECT_EQ(engine.graph().out_degree(slot), 2U);
    EXPECT_EQ(engine.regret(slot), 0U);
    EXPECT_TRUE(engine.player_certified(slot));
    expect_matches_audit(engine, "respond join");
  }
}

TEST(Churn, ConstructorRejectsInvalidStates) {
  Digraph g(4);
  g.add_arc(0, 1);
  EXPECT_THROW((ChurnEngine(g, {1, 0, 0}, {})), std::invalid_argument);     // size mismatch
  EXPECT_THROW((ChurnEngine(g, {0, 0, 0, 0}, {})), std::invalid_argument);  // cap 0, degree 1
  EXPECT_THROW((ChurnEngine(g, {4, 0, 0, 0}, {})), std::invalid_argument);  // cap ≥ n
  ChurnConfig preset;
  preset.budget.budget_cap = 2;  // the per-query knob must come in unset
  EXPECT_THROW((ChurnEngine(g, {1, 0, 0, 0}, preset)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Satellite: capped solves vs brute force on all three backends.

TEST(SolverCaps, AllBackendsRespectBudgetCap) {
  Rng rng(2026);
  for (int round = 0; round < 30; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 3);
    const Digraph g = small_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        for (const std::uint32_t cap : {1U, 2U, 3U}) {
          const std::uint64_t brute = brute_capped_best(g, u, version, cap);
          for (const char* name : {"exact_bb", "swap", "portfolio"}) {
            SolverBudget budget;
            budget.budget_cap = cap;
            const SolverResult result = find_solver(name).solve(g, u, version, budget);
            SCOPED_TRACE(std::string(name) + " round " + std::to_string(round) + " u " +
                         std::to_string(u) + " cap " + std::to_string(cap));
            // The returned strategy is cap-sized and realises the cost on
            // the REAL graph; current_cost anchors to the real strategy.
            ASSERT_EQ(result.strategy.size(), cap);
            const StrategyEvaluator eval(g, u, version);
            StrategyEvaluator::Scratch scratch(n);
            ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost);
            ASSERT_EQ(result.current_cost, eval.current_cost());
            ASSERT_GE(result.cost, brute);  // never better than the optimum
            if (std::string(name) == "exact_bb") {
              ASSERT_EQ(result.cost, brute);
              ASSERT_TRUE(result.optimal);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: the transposition cache keys on the budget cap.

TEST(SolverCaps, ShrinkThenGrowNeverReplaysTheShrunkAnswer) {
  Rng rng(99);
  const Digraph g = small_instance(6, rng);
  const ExactBranchAndBound bb;
  TranspositionCache cache;
  SolverBudget shrink_budget;
  shrink_budget.budget_cap = 1;
  SolverBudget grow_budget;
  grow_budget.budget_cap = 2;

  const SolverResult shrunk = bb.solve(g, 0, CostVersion::Sum, shrink_budget, nullptr, &cache);
  // Pre-fix the key embedded the out-degree, so this looked like the same
  // query and replayed the 1-arc answer for the 2-arc space.
  const SolverResult grown = bb.solve(g, 0, CostVersion::Sum, grow_budget, nullptr, &cache);
  EXPECT_EQ(cache.stats().hits, 0U);
  const SolverResult fresh = bb.solve(g, 0, CostVersion::Sum, grow_budget);
  EXPECT_EQ(grown.cost, fresh.cost);
  EXPECT_EQ(grown.strategy, fresh.strategy);
  EXPECT_LE(grown.cost, shrunk.cost);  // more budget never hurts

  // Each cap replays against its OWN entry.
  (void)bb.solve(g, 0, CostVersion::Sum, shrink_budget, nullptr, &cache);
  (void)bb.solve(g, 0, CostVersion::Sum, grow_budget, nullptr, &cache);
  EXPECT_EQ(cache.stats().hits, 2U);
}

// ---------------------------------------------------------------------------
// Satellite: collision-safe cycle detection.

TEST(SeenStateSet, VerifiesStatesOnHashHit) {
  // A constant hasher forces every insert into one bucket: distinct states
  // must still be told apart (no phantom cycle), repeats still detected.
  SeenStateSet seen(+[](const Digraph&) -> std::uint64_t { return 42; });
  Digraph a(3);
  a.add_arc(0, 1);
  Digraph b(3);
  b.add_arc(0, 2);
  EXPECT_TRUE(seen.insert(a));
  EXPECT_TRUE(seen.insert(b));  // hash-equal yet distinct — not a cycle
  EXPECT_EQ(seen.collisions(), 1U);
  EXPECT_FALSE(seen.insert(a));  // a genuine repeat, byte-verified
  EXPECT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen.collisions(), 1U);
}

TEST(SeenStateSet, DefaultHasherCountsNoCollisionsOnSmallRuns) {
  SeenStateSet seen;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Digraph g = small_instance(6, rng);
    (void)seen.insert(g);
  }
  EXPECT_EQ(seen.collisions(), 0U);
}

// ---------------------------------------------------------------------------
// Satellite: dynamics gates on budget, not current degree.

TEST(Dynamics, IsolatedPlayerWithBudgetBuysIn) {
  // Player 5 starts with no arcs but budget 2. Pre-fix the move loop skipped
  // every zero-degree player, so it stayed isolated forever; now it must buy
  // a full strategy and the run must land on a capped Nash state.
  Digraph g(6);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 4);
  DynamicsConfig config;
  config.version = CostVersion::Sum;
  config.budgets = {1, 1, 1, 1, 0, 2};
  const DynamicsResult result = run_best_response_dynamics(g, config);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.graph.out_degree(5), 2U);
  EXPECT_EQ(result.graph.out_degree(4), 0U);  // budget 0 stays a bystander
  const NashReport report = verify_nash_equilibrium(result.graph, CostVersion::Sum, {},
                                                    "exact_bb", nullptr, &config.budgets);
  EXPECT_TRUE(report.stable);
  EXPECT_TRUE(report.certified);
}

TEST(Dynamics, ExplicitBudgetsMatchImplicitOnLegacyStates) {
  // When budgets == out-degrees the explicit-caps path must reproduce the
  // legacy run bit for bit.
  Rng rng(314);
  const Digraph initial = small_instance(9, rng);
  DynamicsConfig legacy;
  legacy.version = CostVersion::Sum;
  DynamicsConfig explicit_caps = legacy;
  explicit_caps.budgets = initial.budgets();
  const DynamicsResult a = run_best_response_dynamics(initial, legacy);
  const DynamicsResult b = run_best_response_dynamics(initial, explicit_caps);
  EXPECT_EQ(a.graph, b.graph);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.converged, b.converged);
}

// ---------------------------------------------------------------------------
// Satellite: churn artifacts are byte-identical across kill/resume.

TEST(ChurnEngineArtifact, KillAndResumeIsByteIdentical) {
  const char* kSpec = R"({
    "name": "churn_probe", "task": "churn", "version": "sum",
    "budgets": {"family": "tree"}, "grid": {"n": [7, 9]},
    "seeds": {"begin": 0, "end": 5},
    "params": {"churn": {"events": 12, "checkpoint_every": 4, "mode": "respond",
                         "max_budget": 3}}
  })";
  const CampaignSpec campaign = parse_campaign_spec(kSpec);
  const auto dir = std::filesystem::path(::testing::TempDir()) / "bbng_churn_artifact";
  std::filesystem::create_directories(dir);
  const auto read_file = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };

  RunnerConfig reference_cfg;
  reference_cfg.output_path = (dir / "reference.jsonl").string();
  reference_cfg.threads = 1;
  reference_cfg.checkpoint_every = 3;
  const RunReport full = run_campaign(campaign, kSpec, reference_cfg);
  ASSERT_TRUE(full.completed);
  const std::string reference = read_file(reference_cfg.output_path);
  // Every job must have passed its incremental-vs-from-scratch checkpoints.
  EXPECT_EQ(reference.find("\"checkpoints_identical\":false"), std::string::npos);
  EXPECT_NE(reference.find("\"checkpoints_identical\":true"), std::string::npos);

  RunnerConfig killed_cfg;
  killed_cfg.output_path = (dir / "killed.jsonl").string();
  killed_cfg.threads = 2;
  killed_cfg.checkpoint_every = 3;
  killed_cfg.halt_after = 4;
  const RunReport halted = run_campaign(campaign, kSpec, killed_cfg);
  ASSERT_FALSE(halted.completed);
  RunnerConfig resume_cfg = killed_cfg;
  resume_cfg.halt_after = 0;
  resume_cfg.threads = 3;
  const RunReport resumed = resume_campaign(campaign, kSpec, resume_cfg);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(read_file(resume_cfg.output_path), reference);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bbng
