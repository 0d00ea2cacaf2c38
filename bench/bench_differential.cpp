// Differential testing receipt: the heterogeneity PR must not move the
// committed topology27 fault bytes, and the differential check must have
// real coverage.
//
// Part 1 re-runs bench_explore_scale's topology27 configuration (all
// reference-engine nodes) at workers 1/2/4/8 and fails unless every run
// hashes to the committed value 63f680b04458c2a9 — the proof that the
// NodeImplementation boundary, the implementation axis, and the
// differential machinery left the historic byte streams untouched.
//
// Part 2 runs a mixed-engine campaign whose ring carries the seeded
// bgp2-only decision defect (bugs::kLongPathPreferred) and fails unless
// the implementation-divergence fault class actually surfaces — the proof
// that differential coverage is live, not vacuously green.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgp/bugs.hpp"
#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "util/hash.hpp"

namespace {

constexpr std::uint64_t kTopology27FaultHash = 0x63f680b04458c2a9ULL;

[[nodiscard]] std::uint64_t fault_hash(const std::vector<dice::core::FaultReport>& faults) {
  std::uint64_t h = dice::util::kFnvOffset;
  for (const dice::core::FaultReport& fault : faults) {
    h = dice::util::fnv1a(fault.to_string(), h);
  }
  return dice::util::hash_finalize(h);
}

}  // namespace

int main() {
  using namespace dice;
  using bench::fmt;
  using bench::Stopwatch;

  std::puts("== Differential testing: determinism receipt + divergence coverage ==\n");

  // Part 1: the committed all-reference-engine fault-set hash.
  bench::Table receipt({"workers", "faults", "hash", "match", "ms"});
  bool hash_ok = true;
  double receipt_ms = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    bgp::SystemBlueprint blueprint = bgp::make_internet();  // 27 routers
    bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
    bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);

    core::DiceOptions options;
    options.inputs_per_episode = 32;
    options.parallelism = workers;
    core::Orchestrator dice(std::move(blueprint), options);
    if (!dice.bootstrap()) {
      std::puts("FAIL: topology27 did not converge");
      return 1;
    }
    core::GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xf1f1);
    Stopwatch watch;
    for (std::size_t i = 0; i < 2; ++i) (void)dice.run_episode(strategy);
    const double ms = watch.ms();
    receipt_ms += ms;

    const std::uint64_t hash = fault_hash(dice.all_faults());
    const bool match = hash == kTopology27FaultHash;
    hash_ok = hash_ok && match;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
    receipt.row({std::to_string(workers), std::to_string(dice.all_faults().size()), hex,
                 match ? "yes" : "NO", fmt(ms, 1)});
  }
  receipt.print();
  std::printf("\ncommitted hash %016llx %s\n\n",
              static_cast<unsigned long long>(kTopology27FaultHash),
              hash_ok ? "reproduced at every worker count" : "DRIFTED — failing");

  // Part 2: a mixed campaign with the seeded decision defect must surface
  // the implementation-divergence fault class.
  std::vector<explore::ScenarioSpec> scenarios;
  {
    bgp::SystemBlueprint mixed = bgp::make_internet({2, 3, 4});
    bgp::inject_hijack(mixed, /*victim=*/5, /*attacker=*/8);
    for (std::size_t node = 0; node < mixed.size(); ++node) {
      if (node % 2 == 1) mixed.set_implementation(node, "fsm");
    }
    scenarios.push_back({"internet9-hijack-mixed", std::move(mixed)});

    bgp::SystemBlueprint divergent = bgp::make_ring(4);
    divergent.set_implementation(3, "fsm");
    bgp::inject_bug(divergent, /*node=*/3, bgp::bugs::kLongPathPreferred);
    scenarios.push_back({"ring4-divergent", std::move(divergent)});
  }

  explore::CampaignOptions options;
  options.strategies = {explore::StrategyKind::kGrammar, explore::StrategyKind::kRandom};
  options.determinism.seeds = {1, 2};
  options.budgets.inputs_per_episode = 8;
  options.parallelism.workers = 4;

  Stopwatch soak;
  explore::Campaign campaign(std::move(scenarios), options);
  const explore::CampaignResult result = campaign.run();
  const double soak_ms = soak.ms();

  std::size_t divergences = 0;
  for (const core::FaultReport& fault : result.faults) {
    if (fault.fault_class == core::FaultClass::kImplementationDivergence) ++divergences;
  }
  const bool coverage_ok =
      divergences > 0 && result.cells_completed == result.cells.size();

  bench::Table soak_table({"cells", "completed", "faults", "divergences", "ms"});
  soak_table.row({std::to_string(result.cells.size()), std::to_string(result.cells_completed),
                  std::to_string(result.faults.size()), std::to_string(divergences),
                  fmt(soak_ms, 1)});
  soak_table.print();
  std::printf("\ndifferential coverage: %zu implementation-divergence fault(s) %s\n",
              divergences, coverage_ok ? "(live)" : "(MISSING — failing)");

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"differential\",\"hash\":\"%016llx\",\"hash_ok\":%s,"
                "\"receipt_ms\":%.1f,\"cells\":%zu,\"divergences\":%zu,"
                "\"coverage_ok\":%s,\"soak_ms\":%.1f}",
                static_cast<unsigned long long>(kTopology27FaultHash),
                hash_ok ? "true" : "false", receipt_ms, result.cells.size(), divergences,
                coverage_ok ? "true" : "false", soak_ms);
  bench::emit_json("differential", json);

  return (hash_ok && coverage_ok) ? 0 : 1;
}
