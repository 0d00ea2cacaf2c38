// The decode-once clone pipeline: for every worker count the fault sets and
// episode counters reproduce literals recorded from the decode-per-clone
// System::clone_from path this pipeline replaced; post-convergence state
// hashes and re-snapshot cut hashes match that reference path byte for
// byte; the oscillation early-exit must cut dispute-wheel budgets without
// losing the fault.
#include <gtest/gtest.h>

#include "dice/orchestrator.hpp"
#include "explore/matrix.hpp"
#include "util/hash.hpp"

namespace dice::explore {
namespace {

using core::DiceOptions;
using core::EpisodeResult;
using core::FaultReport;
using core::GrammarStrategy;
using core::Orchestrator;
using core::System;
using core::SystemPrototype;

[[nodiscard]] std::uint64_t fault_hash(const std::vector<FaultReport>& faults) {
  std::uint64_t h = util::kFnvOffset;
  for (const FaultReport& fault : faults) h = util::fnv1a(fault.to_string(), h);
  return util::hash_finalize(h);
}

/// Recorded from the decode-per-clone path (serial, 2 episodes) before it
/// was removed: per-episode fault-list hashes, clone counts, and the
/// cross-episode fault set.
constexpr std::uint64_t kEpisodeFaultHashes[] = {0x6fef0b6d39306e9aULL,
                                                 0xc697ed7604affae9ULL};
constexpr std::size_t kClonesPerEpisode = 13;  // baseline + 12 inputs
constexpr std::uint64_t kAllFaultsHash = 0x0462c8fc500ddb04ULL;

TEST(PreparedPathTest, FaultSetsMatchPinnedLiteralsAtWorkers1And2And4And8) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    bgp::SystemBlueprint blueprint = bgp::make_internet({2, 3, 4});
    bgp::inject_hijack(blueprint, /*victim=*/5, /*attacker=*/8);
    DiceOptions options;
    options.inputs_per_episode = 12;
    options.clone_event_budget = 60'000;
    options.parallelism = workers;
    Orchestrator dice(std::move(blueprint), options);
    ASSERT_TRUE(dice.bootstrap());
    GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x5eed);
    std::size_t clones_reused = 0;
    for (const std::uint64_t expected : kEpisodeFaultHashes) {
      const EpisodeResult episode = dice.run_episode(strategy);
      EXPECT_EQ(fault_hash(episode.faults), expected) << "workers=" << workers;
      EXPECT_EQ(episode.clones_run, kClonesPerEpisode) << "workers=" << workers;
      clones_reused += episode.clones_reused;
    }
    EXPECT_EQ(fault_hash(dice.all_faults()), kAllFaultsHash) << "workers=" << workers;
    EXPECT_GT(clones_reused, 0u)
        << "workers=" << workers << ": arenas should be serving repeat clones";
  }
}

TEST(PreparedPathEquivalenceTest, CloneStateAndCutHashesMatchLegacy) {
  // System-level receipt: a prepared/arena clone converges to the same
  // per-node state hashes as a System::clone_from clone (the reference
  // decode path), and a snapshot taken of each yields the same cut hash.
  auto prototype =
      std::make_shared<const SystemPrototype>(bgp::make_internet({2, 3, 4}));
  System live(prototype);
  live.start();
  live.simulator().run(350);  // mid-convergence: in-flight frames exist
  const snapshot::SnapshotId id = live.take_snapshot(1);
  ASSERT_NE(id, 0u);
  const snapshot::Snapshot* raw = live.snapshots().find(id);
  const auto prepared = live.prepare_snapshot(id);
  ASSERT_NE(prepared, nullptr);

  auto legacy = System::clone_from(live.blueprint(), *raw);
  ASSERT_NE(legacy, nullptr);
  CloneArena arena;
  bool reused = false;
  System* fast = arena.acquire(prototype, *prepared, reused);
  ASSERT_NE(fast, nullptr);

  ASSERT_TRUE(legacy->converge());
  ASSERT_TRUE(fast->converge());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(fast->router(node).state_hash(), legacy->router(node).state_hash())
        << "node " << i;
  }
  const snapshot::SnapshotId legacy_snap = legacy->take_snapshot(0);
  const snapshot::SnapshotId fast_snap = fast->take_snapshot(0);
  ASSERT_NE(legacy_snap, 0u);
  ASSERT_NE(fast_snap, 0u);
  EXPECT_EQ(fast->snapshots().find(fast_snap)->cut_hash(),
            legacy->snapshots().find(legacy_snap)->cut_hash());
}

TEST(OscillationEarlyExitTest, CutsDisputeWheelBudgetAndKeepsTheFault) {
  const auto run_gadget = [](bool early_exit) {
    DiceOptions options;
    options.inputs_per_episode = 4;
    options.clone_event_budget = 120'000;
    options.oscillation_early_exit = early_exit;
    Orchestrator dice(bgp::make_bad_gadget(), options);
    (void)dice.bootstrap(/*max_events=*/20'000);  // a wheel never converges
    GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x0dd);
    return dice.run_episode(strategy);
  };

  const EpisodeResult fast = run_gadget(/*early_exit=*/true);
  ASSERT_GT(fast.clones_run, 0u);
  EXPECT_EQ(fast.clones_early_exit, fast.clones_run)
      << "every dispute-wheel clone should trip the detector";
  bool policy_conflict = false;
  for (const FaultReport& fault : fast.faults) {
    policy_conflict |= fault.fault_class == core::FaultClass::kPolicyConflict;
  }
  EXPECT_TRUE(policy_conflict) << core::render_fault_table(fast.faults);

  const EpisodeResult slow = run_gadget(/*early_exit=*/false);
  EXPECT_EQ(slow.clones_early_exit, 0u);
  // The early-exit path does strictly less simulation work for the same
  // verdict; explore_ms is wall-clock so only assert the strong invariant
  // that both paths flag the conflict.
  bool slow_conflict = false;
  for (const FaultReport& fault : slow.faults) {
    slow_conflict |= fault.fault_class == core::FaultClass::kPolicyConflict;
  }
  EXPECT_TRUE(slow_conflict);
  EXPECT_LT(fast.explore_ms, slow.explore_ms)
      << "early exit should not be slower than burning the full budget";
}

TEST(OscillationEarlyExitTest, QuiescentClonesNeverTrip) {
  DiceOptions options;
  options.inputs_per_episode = 8;
  options.clone_event_budget = 60'000;
  Orchestrator dice(bgp::make_internet({2, 3, 4}), options);
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x5eed);
  const EpisodeResult episode = dice.run_episode(strategy);
  EXPECT_GT(episode.clones_run, 0u);
  EXPECT_EQ(episode.clones_early_exit, 0u);
  EXPECT_EQ(episode.clones_non_quiescent, 0u);
}

TEST(PreparedTelemetryTest, EpisodeReportsPreparedPathCounters) {
  DiceOptions options;
  options.inputs_per_episode = 6;
  options.clone_event_budget = 60'000;
  Orchestrator dice(bgp::make_line(3), options);
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const EpisodeResult first = dice.run_episode(strategy);
  EXPECT_GT(first.snapshot_bytes, 0u);
  EXPECT_GE(first.restore_ms, 0.0);
  // Serial path, one arena: the first task constructs, the rest reuse.
  EXPECT_EQ(first.clones_reused + 1, first.clones_run);
  const EpisodeResult second = dice.run_episode(strategy);
  // The arena System survives across episodes: everything is a reuse now.
  EXPECT_EQ(second.clones_reused, second.clones_run);
}

TEST(PreparedTelemetryTest, MatrixReusesArenasAcrossCells) {
  // Two cells of the same scenario on one worker share the prototype, so
  // the second cell's clones land on the first cell's arena System.
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  MatrixOptions options;
  options.strategies = {StrategyKind::kGrammar};
  options.seeds = {1, 2};
  options.episodes_per_cell = 1;
  options.bootstrap_events = 300'000;
  options.dice.inputs_per_episode = 4;
  options.dice.clone_event_budget = 60'000;
  ScenarioMatrix matrix(std::move(scenarios), options);
  ExplorePool pool(1);
  const MatrixResult result = matrix.run(pool, {});
  ASSERT_EQ(result.cells.size(), 2u);
  const CloneArena::Stats arena_stats = pool.arena(0).stats();
  EXPECT_EQ(arena_stats.rebuilds, 1u)
      << "one System construction should serve both cells";
  EXPECT_EQ(arena_stats.acquires, arena_stats.reuses + arena_stats.rebuilds);
}

}  // namespace
}  // namespace dice::explore
