// Experiment — equilibrium tracking under churn: the incremental ε-Nash
// certificate (game/churn.hpp) vs re-auditing after every event.
//
// Three measurements back the churn engine:
//
//  1. Small-n corpus (default): sampled traces on paper-regime random-budget
//     instances (σ = 2n), Track and Respond mode (one per graph core), with
//     the incremental certificate compared bit-for-bit against a from-scratch
//     verify_nash_equilibrium at every checkpoint.
//
//  2. Acceptance trace (--trace-n N): the committed no-delta-heavy trace on
//     one instance — Track mode, "swap" backend, joins and budget grows
//     dominating the draw. The headline metric is solver work, not wall
//     time: `baseline_solves` accumulates, per event, the searches a
//     from-scratch audit of the post-event state would spend, so
//     baseline_solves / searches is the exact invocation saving. At
//     N ≥ 512, the acceptance regime, the saving must be ≥ 5× and every
//     checkpoint must be bit-identical.
//
//  3. Large-n smoke (--large-n N): a join-only trace on a star, where the
//     closed form pins every counter — construction certifies the state
//     with ZERO searches (the center sits on the trivial bound, inactive
//     slots are free), each join costs exactly one search while the other
//     active players ride the no-delta skip, and the final audit still
//     agrees bit-for-bit. Per-event work is independent of n; the CI run
//     executes under a 4 GiB address-space ceiling.
//
// scripts/run_bench.py --churn-output turns the CSV into BENCH_churn.json
// so the claims are tracked across PRs.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "game/churn.hpp"
#include "game/equilibrium.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace bbng {
namespace {

/// One sampled trace through an engine: apply up to `events` feasible
/// events, auditing every `checkpoint_every` applied events (and once at
/// the end when the count is not a multiple). Every audit compares the
/// incremental certificate bit-for-bit.
struct TraceResult {
  std::uint64_t applied = 0;
  std::uint64_t checkpoints = 0;
  bool identical = true;
  double apply_ms = 0.0;
  double audit_ms = 0.0;
};

TraceResult run_trace(ChurnEngine& engine, ChurnTraceSampler& sampler, std::uint64_t events,
                      std::uint64_t checkpoint_every) {
  TraceResult result;
  const auto checkpoint = [&] {
    Timer audit_timer;
    const NashReport report = engine.audit();
    result.audit_ms += audit_timer.elapsed_millis();
    ++result.checkpoints;
    result.identical = result.identical && engine.epsilon() == report.epsilon &&
                       engine.stable() == report.stable &&
                       (report.stable || engine.deviator() == report.deviator);
  };
  for (std::uint64_t e = 0; e < events; ++e) {
    const std::optional<ChurnEvent> event = sampler.next(engine.graph(), engine.budgets());
    if (!event) break;
    Timer apply_timer;
    engine.apply(*event);
    result.apply_ms += apply_timer.elapsed_millis();
    ++result.applied;
    if (checkpoint_every > 0 && result.applied % checkpoint_every == 0) checkpoint();
  }
  if (checkpoint_every > 0 && (result.applied % checkpoint_every != 0 || result.applied == 0)) {
    checkpoint();
  }
  return result;
}

void run_corpus(std::int64_t min_n, std::int64_t max_n, std::int64_t events, Rng& rng,
                bench::Checker& check, bool csv) {
  bench::banner(
      "Churn corpus: sampled traces, incremental certificate vs from-scratch checkpoints");
  Table table({"mode", "n", "events", "moves", "searches", "cache_hits", "skips_clean",
               "skips_locality", "baseline_solves", "identical", "apply_ms", "audit_ms"});

  for (std::int64_t size = min_n; size <= max_n; size *= 2) {
    const auto n = static_cast<std::uint32_t>(size);
    // One mode per graph core so both delta-evaluator cores stay exercised.
    struct Setup {
      ChurnMode mode;
      GraphCore core;
    };
    for (const Setup setup : {Setup{ChurnMode::Track, GraphCore::kCsr},
                              Setup{ChurnMode::Respond, GraphCore::kVector}}) {
      const Digraph g = random_profile(random_budgets(n, 2ULL * n, rng), rng);
      ChurnConfig config;
      config.mode = setup.mode;
      config.solver = "swap";
      config.budget.core = setup.core;
      ChurnEngine engine(g, g.budgets(), config);
      const ChurnStats before = engine.stats();  // exclude construction work
      ChurnTraceSampler sampler({}, /*max_budget=*/4, rng());
      const TraceResult trace =
          run_trace(engine, sampler, static_cast<std::uint64_t>(events), /*checkpoint_every=*/8);

      const ChurnStats& stats = engine.stats();
      check.expect(trace.identical,
                   cat(to_string(setup.mode), " n=", n, " checkpoints bit-identical"));
      check.expect(stats.solver_queries == stats.solver_searches + stats.cache_hits,
                   cat(to_string(setup.mode), " n=", n, " queries == searches + hits"));
      table.new_row()
          .add(to_string(setup.mode))
          .add(n)
          .add(trace.applied)
          .add(stats.moves)
          .add(stats.solver_searches - before.solver_searches)
          .add(stats.cache_hits - before.cache_hits)
          .add(stats.skips_clean)
          .add(stats.skips_locality)
          .add(stats.baseline_solves)
          .add(trace.identical ? 1 : 0)
          .add(trace.apply_ms, 3)
          .add(trace.audit_ms, 3);
    }
  }
  table.print(std::cout, csv);
}

void run_acceptance(std::uint32_t n, std::int64_t events, Rng& rng, bench::Checker& check,
                    bool csv) {
  bench::banner(cat("Churn acceptance trace at n=", n,
                    ": no-delta-heavy stream, incremental vs per-event re-audit (swap backend)"));
  Table table({"trace_n", "mode", "events", "searches", "baseline_solves", "saving",
               "checkpoints", "identical", "construct_ms", "apply_ms", "audit_ms", "speedup"});

  const Digraph g = random_profile(random_budgets(n, 2ULL * n, rng), rng);
  ChurnConfig config;
  config.mode = ChurnMode::Track;
  config.solver = "swap";
  Timer construct_timer;
  ChurnEngine engine(g, g.budgets(), config);
  const double construct_ms = construct_timer.elapsed_millis();
  const ChurnStats before = engine.stats();  // construction ≈ one audit; excluded

  // The committed no-delta-heavy mix: joins and grows (which move no edges,
  // so only the event's player re-solves) dominate deletions and perturbs
  // (which force a bulk refresh on this instance family — at n = 512 almost
  // no player sits on the trivial SUM bound of n−1).
  ChurnTraceWeights weights;
  weights.join = 12;
  weights.leave = 1;
  weights.grow = 12;
  weights.shrink = 1;
  weights.perturb = 1;
  ChurnTraceSampler sampler(weights, /*max_budget=*/4, rng());
  const TraceResult trace =
      run_trace(engine, sampler, static_cast<std::uint64_t>(events), /*checkpoint_every=*/16);

  const ChurnStats& stats = engine.stats();
  const std::uint64_t searches = stats.solver_searches - before.solver_searches;
  const double saving = static_cast<double>(stats.baseline_solves) /
                        static_cast<double>(searches > 0 ? searches : 1);
  const double apply_per_event =
      trace.applied > 0 ? trace.apply_ms / static_cast<double>(trace.applied) : 0.0;
  const double audit_per_checkpoint =
      trace.checkpoints > 0 ? trace.audit_ms / static_cast<double>(trace.checkpoints) : 0.0;
  const double speedup = apply_per_event > 0.0 ? audit_per_checkpoint / apply_per_event : 0.0;

  check.expect(trace.identical, "acceptance trace checkpoints bit-identical");
  check.expect(stats.baseline_solves >= searches,
               "incremental engine never searches more than per-event re-audits");
  // Acceptance regime: at n ≥ 512 the committed trace must cut solver
  // invocations by ≥ 5× against auditing after every event.
  if (n >= 512) {
    check.expect(saving >= 5.0,
                 cat("solver-invocation saving >= 5x at n=", n, " (got ", saving, "x)"));
  }
  table.new_row()
      .add(n)
      .add(to_string(ChurnMode::Track))
      .add(trace.applied)
      .add(searches)
      .add(stats.baseline_solves)
      .add(saving, 2)
      .add(trace.checkpoints)
      .add(trace.identical ? 1 : 0)
      .add(construct_ms, 2)
      .add(trace.apply_ms, 2)
      .add(trace.audit_ms, 2)
      .add(speedup, 2);
  table.print(std::cout, csv);
}

void run_large_n(std::uint32_t n, bench::Checker& check, bool csv) {
  bench::banner(cat("Large-n smoke: join-only churn on a star, n=", n,
                    " (closed-form counters, flat construction)"));
  Table table({"phase", "n", "events", "active", "searches", "skips_clean", "baseline_solves",
               "saving", "construct_ms", "trace_ms", "audit_ms", "identical"});

  // star_digraph: the center owns every leaf, so the leaves are inactive
  // slots and the center's cost n−1 IS the trivial SUM bound — the whole
  // initial certificate closes without a single backend search.
  ChurnConfig config;
  config.mode = ChurnMode::Track;
  config.solver = "swap";
  Digraph star = star_digraph(n);
  std::vector<std::uint32_t> caps = star.budgets();
  Timer construct_timer;
  ChurnEngine engine(std::move(star), std::move(caps), config);
  const double construct_ms = construct_timer.elapsed_millis();
  check.expect(engine.stats().solver_searches == 0,
               "star construction certifies with zero searches");

  ChurnTraceWeights join_only;
  join_only.join = 1;
  join_only.leave = 0;
  join_only.grow = 0;
  join_only.shrink = 0;
  join_only.perturb = 0;
  ChurnTraceSampler sampler(join_only, /*max_budget=*/3, /*seed=*/7);
  constexpr std::uint64_t kEvents = 16;
  const TraceResult trace = run_trace(engine, sampler, kEvents, /*checkpoint_every=*/kEvents);

  // Closed forms: event k re-solves only the joiner (1 search) while the k
  // previously joined players ride the no-delta skip, and a from-scratch
  // audit after event k would search all k joined players.
  const ChurnStats& stats = engine.stats();
  const std::uint64_t e = trace.applied;
  check.expect(e == kEvents, cat("all ", kEvents, " joins feasible (got ", e, ")"));
  check.expect(stats.solver_searches == e, cat("one search per join (got ",
                                               stats.solver_searches, " for ", e, " events)"));
  check.expect(stats.skips_clean == e * (e + 1) / 2,
               cat("no-delta skips match the closed form (got ", stats.skips_clean, ")"));
  check.expect(stats.baseline_solves == e * (e + 1) / 2,
               cat("per-event re-audit baseline matches the closed form (got ",
                   stats.baseline_solves, ")"));
  check.expect(trace.identical, "large-n final audit bit-identical");
  const double saving = static_cast<double>(stats.baseline_solves) /
                        static_cast<double>(stats.solver_searches > 0 ? stats.solver_searches : 1);
  check.expect(saving >= 5.0, cat("large-n saving >= 5x (got ", saving, "x)"));
  table.new_row()
      .add("join_only_star")
      .add(n)
      .add(e)
      .add(static_cast<std::uint64_t>(engine.active_players()))
      .add(stats.solver_searches)
      .add(stats.skips_clean)
      .add(stats.baseline_solves)
      .add(saving, 2)
      .add(construct_ms, 2)
      .add(trace.apply_ms, 2)
      .add(trace.audit_ms, 2)
      .add(trace.identical ? 1 : 0);
  table.print(std::cout, csv);
}

/// Telemetry-overhead measurement: the identical deterministic trace timed
/// with the metric registry enabled vs runtime-disabled (one relaxed load
/// per counter site), in 10 interleaved pairs; the rows report the median
/// apply time of each side and the median per-pair overhead. The work
/// counters must agree exactly, proving the runs did the same computation.
/// The `obs_overhead_pct:` line feeds BENCH_churn.json.
void run_obs_overhead(std::uint32_t n, std::int64_t events, std::uint64_t seed,
                      bench::Checker& check, bool csv) {
  bench::banner(cat("Telemetry overhead at n=", n,
                    ": identical churn trace, registry enabled vs disabled"));
  Table table({"obs", "n", "events", "searches", "apply_ms", "overhead_pct"});

  struct Run {
    double apply_ms = 0.0;
    std::uint64_t searches = 0;
    std::uint64_t applied = 0;
  };
  const auto timed = [&](bool enabled) {
    obs::set_enabled(enabled);
    Rng rng(seed);
    const Digraph g = random_profile(random_budgets(n, 2ULL * n, rng), rng);
    ChurnConfig config;
    config.mode = ChurnMode::Track;
    config.solver = "swap";
    ChurnEngine engine(g, g.budgets(), config);
    ChurnTraceSampler sampler({}, /*max_budget=*/4, rng());
    const TraceResult trace =
        run_trace(engine, sampler, static_cast<std::uint64_t>(events), /*checkpoint_every=*/0);
    obs::set_enabled(true);  // leave the registry on for later phases
    return Run{trace.apply_ms, engine.stats().solver_searches, trace.applied};
  };

  // Interleaved off/on pairs, alternating which side runs first (an even
  // count, so each order runs equally often) so a drift in the host's speed
  // lands on both sides alike. The tracked figure is the median of the
  // per-pair overheads, which one noisy pair cannot move.
  constexpr int kPairs = 10;
  std::vector<double> off_ms, on_ms, overheads;
  bool same_work = true;
  Run off, on;
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair % 2 == 0) {
      off = timed(false);
      on = timed(true);
    } else {
      on = timed(true);
      off = timed(false);
    }
    same_work = same_work && on.searches == off.searches && on.applied == off.applied;
    off_ms.push_back(off.apply_ms);
    on_ms.push_back(on.apply_ms);
    overheads.push_back(off.apply_ms > 0.0 ? (on.apply_ms - off.apply_ms) / off.apply_ms * 100.0
                                           : 0.0);
  }
  const double overhead_pct = summarize(overheads).median;

  check.expect(same_work, "identical trace work with telemetry on and off");
  // Lenient sanity ceiling — the recorded value is the tracked claim; this
  // only catches a counter site landing in an inner loop it should not be in.
  check.expect(!obs::kCompiledIn || overhead_pct <= 15.0,
               cat("telemetry overhead within sanity ceiling (median of ", kPairs,
                   " pairs: ", overhead_pct, "%)"));
  table.new_row().add("off").add(n).add(off.applied).add(off.searches).add(
      summarize(off_ms).median, 3).add(0.0, 2);
  table.new_row().add("on").add(n).add(on.applied).add(on.searches).add(
      summarize(on_ms).median, 3).add(overhead_pct, 2);
  table.print(std::cout, csv);
  std::cout << "obs_overhead_pct: " << overhead_pct << "\n";
}

int run(int argc, const char** argv) {
  Cli cli("bench_churn",
          "Incremental ε-Nash certificates under churn vs per-event re-auditing");
  const auto flags = bench::add_common_flags(cli);
  const auto min_n = cli.add_int("min-n", 64, "smallest corpus instance (doubles upward)");
  const auto max_n = cli.add_int("max-n", 256, "largest corpus instance");
  const auto events = cli.add_int("events", 32, "events per corpus trace");
  const auto trace_n =
      cli.add_int("trace-n", 0, "acceptance trace size (512 = acceptance regime); 0 skips");
  const auto trace_events = cli.add_int("trace-events", 64, "events in the acceptance trace");
  const auto large_n =
      cli.add_int("large-n", 0, "star size for the large-n smoke; 0 skips");
  const auto obs_n = cli.add_int(
      "obs-n", 128, "instance size for the telemetry-overhead measurement; 0 skips");
  const auto obs_events =
      cli.add_int("obs-events", 48, "events in the telemetry-overhead trace");
  cli.parse(argc, argv);
  bench::apply_common_flags(flags);
  bench::Checker check;
  Rng rng(static_cast<std::uint64_t>(*flags.seed));

  if (*max_n >= *min_n) {
    run_corpus(*min_n, *max_n, *events, rng, check, *flags.csv);
  }
  if (*trace_n > 0) {
    run_acceptance(static_cast<std::uint32_t>(*trace_n), *trace_events, rng, check, *flags.csv);
  }
  if (*large_n > 0) {
    run_large_n(static_cast<std::uint32_t>(*large_n), check, *flags.csv);
  }
  if (*obs_n > 0) {
    run_obs_overhead(static_cast<std::uint32_t>(*obs_n), *obs_events,
                     static_cast<std::uint64_t>(*flags.seed), check, *flags.csv);
  }

  std::cout << "\nEngineering claim (not a paper claim): maintaining per-player standing "
               "regrets through the no-delta and deletion-locality skips keeps the ε-Nash "
               "certificate bit-identical to a from-scratch audit while spending a fraction "
               "of its solver searches per event.\n";
  return check.exit_code();
}

}  // namespace
}  // namespace bbng

int main(int argc, const char** argv) { return bbng::run(argc, argv); }
