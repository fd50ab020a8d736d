// Task adapters: one game instance in, one JSONL record out.
//
// Each TaskKind wraps an existing analysis entry point — the dynamics
// engine, the swap-equilibrium verifier, the PoA bracket, the state audit —
// behind a uniform signature the runner can shard. A job runs strictly
// single-threaded (the engine parallelises *across* jobs, not inside them):
// every adapter receives a width-1 pool, so pool-consuming library calls
// execute inline on the job's thread instead of escaping to the shared
// pool. Together with deriving all randomness from Job::rng_seed, the
// emitted line — including its `obs` counter block, which is the job
// thread's registry deltas — is a pure function of the job, independent of
// thread count, shard order, and interruption.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "engine/jobgraph.hpp"
#include "engine/spec.hpp"

namespace bbng {

/// Execute one job and return its JSONL record (compact JSON, no newline).
/// Field order is fixed per task kind; byte-stable across runs. When the
/// spec's `obs` key is true (and the registry is enabled), the record's LAST
/// member is "obs": the name-sorted nonzero counter deltas of this job, the
/// only home of its work counts. Otherwise the record carries identity and
/// verdict fields only.
[[nodiscard]] std::string run_job_line(const CampaignSpec& campaign, const Job& job);

/// (name, one-line description) of every TaskKind, for `bbng_engine list-tasks`.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> list_tasks();

}  // namespace bbng
