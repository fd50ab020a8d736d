// Unit tests for audit_state(): the one-call report of connectivity, cost
// spread, braces, and the strongest feasible stability certificate.
#include "game/analysis.hpp"

#include <gtest/gtest.h>

#include "constructions/spider.hpp"
#include "game/cost.hpp"
#include "graph/generators.hpp"

namespace bbng {
namespace {

TEST(AuditState, StarIsExactNash) {
  const Digraph g = star_digraph(7);
  const StateAudit audit = audit_state(g);
  EXPECT_EQ(audit.num_players, 7U);
  EXPECT_EQ(audit.total_budget, 6U);
  EXPECT_TRUE(audit.connected);
  EXPECT_EQ(audit.social_cost, 2U);
  EXPECT_EQ(audit.brace_count, 0U);
  EXPECT_EQ(audit.vertex_connectivity, 1U);
  EXPECT_EQ(audit.certificate, StabilityCertificate::ExactNash);
  EXPECT_EQ(audit.min_cost, 6U);          // the hub: distance 1 to everyone
  EXPECT_EQ(audit.max_cost, 1U + 2 * 5);  // a leaf: 1 to the hub, 2 to 5 peers
}

TEST(AuditState, PathIsNotEquilibrium) {
  const Digraph g = path_digraph(6);
  AuditOptions options;
  options.version = CostVersion::Max;
  const StateAudit audit = audit_state(g, options);
  EXPECT_EQ(audit.certificate, StabilityCertificate::NotEquilibrium);
  EXPECT_EQ(audit.social_cost, 5U);
}

TEST(AuditState, DisconnectedState) {
  Digraph g(4);
  g.add_arc(0, 1);
  const StateAudit audit = audit_state(g);
  EXPECT_FALSE(audit.connected);
  EXPECT_EQ(audit.social_cost, 16U);
  EXPECT_EQ(audit.vertex_connectivity, 0U);
}

TEST(AuditState, SwapCertificateAtScale) {
  // A spider too large for exact verification but fine for the swap check.
  const Digraph g = spider_digraph(20);
  AuditOptions options;
  options.version = CostVersion::Max;
  options.exact_limit = 10;  // forces the fallback
  const StateAudit audit = audit_state(g, options);
  EXPECT_EQ(audit.certificate, StabilityCertificate::SwapStable);
}

TEST(AuditState, UnknownWhenAllBudgetsExceeded) {
  const Digraph g = spider_digraph(10);
  AuditOptions options;
  options.exact_limit = 1;
  options.swap_limit = 1;
  const StateAudit audit = audit_state(g, options);
  EXPECT_EQ(audit.certificate, StabilityCertificate::Unknown);
}

TEST(AuditState, ConnectivityOptional) {
  const Digraph g = star_digraph(5);
  AuditOptions options;
  options.compute_connectivity = false;
  const StateAudit audit = audit_state(g, options);
  EXPECT_EQ(audit.vertex_connectivity, 0U);  // skipped, default value
  EXPECT_TRUE(audit.connected);              // cheap check still runs
}

TEST(AuditState, CostAggregatesMatchAllCosts) {
  Rng rng(77);
  const auto budgets = random_budgets(10, 14, rng);
  const Digraph g = random_profile(budgets, rng);
  const StateAudit audit = audit_state(g);
  const auto costs = all_costs(g.underlying(), CostVersion::Sum);
  std::uint64_t lo = ~0ULL, hi = 0, total = 0;
  for (const auto c : costs) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
    total += c;
  }
  EXPECT_EQ(audit.min_cost, lo);
  EXPECT_EQ(audit.max_cost, hi);
  EXPECT_NEAR(audit.mean_cost, static_cast<double>(total) / 10.0, 1e-9);
}

TEST(AuditState, MeanCostDoesNotWrapOnLargeDisconnectedStates) {
  // 70,000 isolated players each pay (n − 1)·n²; their 64-bit sum wraps.
  constexpr std::uint32_t n = 70000;
  const Digraph g(n);
  AuditOptions options;
  options.exact_limit = 0;
  options.swap_limit = 0;
  options.compute_connectivity = false;
  const StateAudit audit = audit_state(g, options);
  const std::uint64_t each = std::uint64_t{n - 1} * n * n;
  EXPECT_EQ(audit.min_cost, each);
  EXPECT_EQ(audit.max_cost, each);
  EXPECT_EQ(audit.mean_cost, static_cast<double>(audit.min_cost));
}

TEST(CertificateNames, Strings) {
  EXPECT_EQ(to_string(StabilityCertificate::ExactNash), "exact-NE");
  EXPECT_EQ(to_string(StabilityCertificate::SwapStable), "swap-stable");
  EXPECT_EQ(to_string(StabilityCertificate::NotEquilibrium), "not-equilibrium");
  EXPECT_EQ(to_string(StabilityCertificate::Unknown), "unknown");
}

}  // namespace
}  // namespace bbng
