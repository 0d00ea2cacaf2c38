// The implementation axis at campaign level, and determinism across
// heterogeneous federations: mixed-engine campaigns must reproduce, at
// every worker count, the fault bytes recorded from the serial cells-only
// schedule with full snapshots; the axis itself fans cells out with the
// implementation loop innermost; axis entry "bgp" reproduces the bytes of
// the as-authored axis on unpinned blueprints; and unknown ids are
// rejected at build time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/bugs.hpp"
#include "explore/campaign.hpp"
#include "util/hash.hpp"

namespace dice::explore {
namespace {

using core::FaultReport;

/// Mixed-engine scenarios: an internet hijack with alternating engines, a
/// ring with one fsm node carrying the seeded decision defect (so the soak
/// exercises the implementation-divergence fault class end to end), and an
/// all-fsm line.
[[nodiscard]] std::vector<ScenarioSpec> federated_scenarios() {
  std::vector<ScenarioSpec> scenarios;

  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  for (std::size_t node = 0; node < hijack.size(); ++node) {
    if (node % 2 == 1) hijack.set_implementation(node, "fsm");
  }
  scenarios.push_back({"internet9-hijack-mixed", std::move(hijack)});

  bgp::SystemBlueprint divergent = bgp::make_ring(4);
  divergent.set_implementation(3, "fsm");
  bgp::inject_bug(divergent, /*node=*/3, bgp::bugs::kLongPathPreferred);
  scenarios.push_back({"ring4-divergent", std::move(divergent)});

  bgp::SystemBlueprint line = bgp::make_line(3);
  line.set_all_implementations("fsm");
  scenarios.push_back({"line3-fsm", std::move(line)});
  return scenarios;
}

[[nodiscard]] CampaignOptions federated_options(std::size_t workers) {
  CampaignOptions options;
  options.strategies = {StrategyKind::kGrammar, StrategyKind::kRandom};
  options.determinism.seeds = {1, 2};
  options.budgets.inputs_per_episode = 4;
  options.budgets.clone_event_budget = 60'000;
  options.budgets.bootstrap_events = 300'000;
  options.parallelism.workers = workers;
  return options;
}

[[nodiscard]] std::string fault_lines(const std::vector<FaultReport>& faults) {
  std::string lines;
  for (const FaultReport& fault : faults) {
    lines += fault.to_string();
    lines += "\n";
  }
  return lines;
}

/// The federated campaign's fault-set hash (FNV-1a chained over each
/// fault's to_string), recorded from a serial cells-only run with full
/// snapshots before those modes were removed.
constexpr std::uint64_t kFederationFaultHash = 0xdb70a8480e4fd715ULL;
constexpr std::size_t kFederationFaults = 9;

TEST(FederationDeterminismTest, MixedCampaignBytesMatchLiteralAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    Campaign campaign(federated_scenarios(), federated_options(workers));
    const CampaignResult result = campaign.run();
    EXPECT_EQ(result.cells_completed, result.cells.size()) << "workers=" << workers;
    const std::string lines = fault_lines(result.faults);
    // The divergent ring must contribute the new fault class to the soak.
    EXPECT_NE(lines.find("implementation-divergence"), std::string::npos)
        << "workers=" << workers;
    std::uint64_t hash = util::kFnvOffset;
    for (const FaultReport& fault : result.faults) hash = util::fnv1a(fault.to_string(), hash);
    EXPECT_EQ(result.faults.size(), kFederationFaults) << "workers=" << workers;
    EXPECT_EQ(util::hash_finalize(hash), kFederationFaultHash)
        << "workers=" << workers << "\n" << lines;
  }
}

TEST(ImplementationAxisTest, AxisFansCellsWithImplementationInnermost) {
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  scenarios.push_back({"ring4", bgp::make_ring(4)});

  CampaignOptions options = federated_options(2);
  options.strategies = {StrategyKind::kGrammar};
  options.determinism.seeds = {1};
  options.determinism.implementations = {"", "fsm"};

  Campaign campaign(std::move(scenarios), options);
  EXPECT_EQ(campaign.cell_count(), 4u);  // 2 scenarios x 1 strategy x 1 seed x 2 impls
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.cells.size(), 4u);
  ASSERT_EQ(result.cells_completed, 4u);
  // Canonical order keeps the axis innermost.
  EXPECT_EQ(result.cells[0].scenario, "line3");
  EXPECT_EQ(result.cells[0].implementation, "");
  EXPECT_EQ(result.cells[1].scenario, "line3");
  EXPECT_EQ(result.cells[1].implementation, "fsm");
  EXPECT_EQ(result.cells[2].scenario, "ring4");
  EXPECT_EQ(result.cells[2].implementation, "");
  EXPECT_EQ(result.cells[3].scenario, "ring4");
  EXPECT_EQ(result.cells[3].implementation, "fsm");
}

TEST(ImplementationAxisTest, BgpAxisEntryReproducesAsAuthoredBytesOnUnpinnedScenarios) {
  // On blueprints with no per-node pins, "" (as authored) and "bgp" build
  // the same systems; run each as its own single-entry axis (same cell
  // indices, same derived streams) and the fault bytes must agree.
  const auto run_with = [](const std::string& impl) {
    std::vector<ScenarioSpec> scenarios;
    bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
    bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
    scenarios.push_back({"internet9-hijack", std::move(hijack)});
    CampaignOptions options = federated_options(2);
    options.determinism.implementations = {impl};
    Campaign campaign(std::move(scenarios), options);
    return fault_lines(campaign.run().faults);
  };
  const std::string as_authored = run_with("");
  ASSERT_FALSE(as_authored.empty());
  EXPECT_EQ(run_with("bgp"), as_authored);
}

TEST(ImplementationAxisTest, DefaultAxisLeavesHistoricCellIdentityUntouched) {
  // MatrixOptions default-constructs with the single-"" axis; an explicit
  // single-"" axis is the same campaign: same cell count, same bytes.
  const auto run_campaign = [](bool explicit_axis) {
    std::vector<ScenarioSpec> scenarios;
    bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
    bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
    scenarios.push_back({"internet9-hijack", std::move(hijack)});
    CampaignOptions options = federated_options(1);
    options.strategies = {StrategyKind::kGrammar};
    if (explicit_axis) options.determinism.implementations = {std::string()};
    Campaign campaign(std::move(scenarios), options);
    const CampaignResult result = campaign.run();
    EXPECT_EQ(result.cells.size(), 2u);  // 1 scenario x 1 strategy x 2 seeds
    return fault_lines(result.faults);
  };
  EXPECT_EQ(run_campaign(true), run_campaign(false));
}

TEST(CampaignValidationTest, UnknownImplementationIdIsRejectedAtBuildTime) {
  auto built = CampaignOptions::builder().implementations({"", "quagga"}).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code, "campaign.options.unknown_implementation");

  auto empty_axis = CampaignOptions::builder().implementations({}).build();
  ASSERT_FALSE(empty_axis.ok());
  EXPECT_EQ(empty_axis.error().code, "campaign.options.no_implementations");

  auto valid = CampaignOptions::builder().implementations({"", "bgp", "fsm"}).build();
  EXPECT_TRUE(valid.ok());
}

}  // namespace
}  // namespace dice::explore
