// E10 — matrix cell startup: fresh bootstrap per cell vs LiveStateCache.
//
// Every ScenarioMatrix cell needs a converged live system before its first
// episode. The first cell of a (scenario, seed) key bootstraps fresh and
// donates a PreparedLiveState; the rest resume in microseconds. This
// harness runs the same reduced-budget matrix twice in one process:
//   baseline — the live system's oscillation early-exit off, so each key's
//              first (cache-miss) cell pays the full fresh bootstrap the
//              cache saves (a dispute wheel burns the whole event budget);
//   cached   — the defaults: early-exit on, repeated cells resume.
// It compares the baseline's fresh bootstraps against the cached run's
// repeated cells, and pins the cached run's fault-set hash to a committed
// literal (CI runs this binary, so a startup regression OR moved fault
// bytes fail the check).
//
// Acceptance: cached repeated-cell startup >= 5x faster than a fresh
// bootstrap, a bad-gadget bootstrap with the oscillation early-exit no
// longer burns the full event budget, and the cached run's faults hash to
// kCachedFaultHash. Emits BENCH_matrix_startup.json.
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "util/hash.hpp"

namespace {

using namespace dice;

constexpr std::size_t kBootstrapBudget = 300'000;

/// The cached run's fault-set hash, recorded from the cache-off run it
/// used to be compared against (identical bytes by construction).
constexpr std::uint64_t kCachedFaultHash = 0x699ead5ec6fb3f0eULL;

[[nodiscard]] std::vector<explore::ScenarioSpec> scenarios() {
  std::vector<explore::ScenarioSpec> specs;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  specs.push_back({"internet9-hijack", std::move(hijack)});
  specs.push_back({"bad-gadget", bgp::make_bad_gadget()});
  specs.push_back({"ring6", bgp::make_ring(6)});
  return specs;
}

[[nodiscard]] explore::CampaignResult run_matrix(bool bootstrap_early_exit) {
  // Four strategies x one seed: every (scenario, seed) key is hit four
  // times, so three of every four cells are "repeated" — the cells the
  // cache is for.
  explore::CampaignOptions::Determinism determinism;
  determinism.seeds = {1};
  determinism.bootstrap_early_exit = bootstrap_early_exit;
  const explore::CampaignOptions options =
      explore::CampaignOptions::builder()
          .strategies({explore::StrategyKind::kGrammar, explore::StrategyKind::kRandom,
                       explore::StrategyKind::kGrammarStrict,
                       explore::StrategyKind::kConcolic})
          .determinism(std::move(determinism))
          .episodes_per_cell(1)
          .bootstrap_events(kBootstrapBudget)
          .inputs_per_episode(4)
          .clone_event_budget(60'000)
          .parallelism(1)  // serial: per-cell timings stay comparable
          .build()
          .take();
  explore::Campaign campaign(scenarios(), options);
  return campaign.run();
}

/// Mean startup over the first (fresh-bootstrap) or the repeated cells of
/// each (scenario, seed) key, in cross-product order.
[[nodiscard]] double mean_startup_ms(const explore::CampaignResult& result, bool repeated) {
  std::set<std::pair<std::string, std::uint64_t>> seen;
  double total = 0.0;
  std::size_t count = 0;
  for (const explore::CellResult& cell : result.cells) {
    const bool first = seen.emplace(cell.scenario, cell.seed).second;
    if (first != repeated) {
      total += cell.bootstrap_ms;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

[[nodiscard]] std::uint64_t fault_set_hash(const std::vector<core::FaultReport>& faults) {
  std::uint64_t h = util::kFnvOffset;
  for (const core::FaultReport& fault : faults) h = util::fnv1a(fault.to_string(), h);
  return util::hash_finalize(h);
}

}  // namespace

int main() {
  using bench::fmt;

  std::puts("== E10: matrix cell startup — fresh bootstrap vs LiveStateCache ==\n");

  bench::Stopwatch baseline_watch;
  const explore::CampaignResult baseline = run_matrix(/*bootstrap_early_exit=*/false);
  const double baseline_wall_ms = baseline_watch.ms();
  bench::Stopwatch cached_watch;
  const explore::CampaignResult cached = run_matrix(/*bootstrap_early_exit=*/true);
  const double cached_wall_ms = cached_watch.ms();

  bench::Table cells({"scenario/strategy", "baseline boot ms", "cached boot ms", "resume"});
  for (std::size_t i = 0; i < cached.cells.size(); ++i) {
    const explore::CellResult& b = baseline.cells[i];
    const explore::CellResult& c = cached.cells[i];
    cells.row({c.scenario + "/" + std::string(to_string(c.strategy)),
               fmt(b.bootstrap_ms, 3), fmt(c.bootstrap_ms, 3),
               c.bootstrap_from_cache ? "cache" : "fresh"});
  }
  cells.print();

  const double fresh_boot_ms = mean_startup_ms(baseline, /*repeated=*/false);
  const double cached_repeat_ms = mean_startup_ms(cached, /*repeated=*/true);
  const double speedup = cached_repeat_ms > 0.0 ? fresh_boot_ms / cached_repeat_ms : 0.0;
  const std::uint64_t cached_hash = fault_set_hash(cached.faults);
  const bool pinned = cached_hash == kCachedFaultHash;
  std::printf(
      "\nfresh bootstrap (baseline, one per key): %.3f ms -> repeated-(scenario, seed) "
      "cell startup %.3f ms cached (%.1fx); cache %llu miss / %llu hit "
      "(%llu uncacheable lookups)\n",
      fresh_boot_ms, cached_repeat_ms, speedup,
      static_cast<unsigned long long>(cached.live_cache.misses),
      static_cast<unsigned long long>(cached.live_cache.hits),
      static_cast<unsigned long long>(cached.live_cache.uncacheable));
  std::printf("cached fault-set hash %016llx %s the committed %016llx\n",
              static_cast<unsigned long long>(cached_hash),
              pinned ? "equals" : "DIFFERS FROM (equivalence bug!)",
              static_cast<unsigned long long>(kCachedFaultHash));

  // The other half of the startup story: a dispute-wheel bootstrap now
  // takes the deterministic oscillation exit instead of burning the budget.
  const auto gadget_events = [](bool early_exit) {
    explore::CampaignOptions::Determinism determinism;
    determinism.bootstrap_early_exit = early_exit;
    const core::DiceOptions options = explore::CampaignOptions::builder()
                                          .determinism(std::move(determinism))
                                          .build()
                                          .take()
                                          .to_dice_options();
    core::Orchestrator dice(bgp::make_bad_gadget(), options);
    (void)dice.bootstrap(kBootstrapBudget);
    return dice.live().simulator().executed();
  };
  const std::uint64_t gadget_full = gadget_events(/*early_exit=*/false);
  const std::uint64_t gadget_exit = gadget_events(/*early_exit=*/true);
  std::printf("bad-gadget bootstrap events: %llu (no exit) -> %llu (oscillation exit)\n",
              static_cast<unsigned long long>(gadget_full),
              static_cast<unsigned long long>(gadget_exit));

  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"matrix_startup\",\"cells\":%zu,"
      "\"fresh_boot_ms\":%.3f,\"cached_repeat_boot_ms\":%.3f,\"startup_speedup\":%.1f,"
      "\"cache_misses\":%llu,\"cache_hits\":%llu,"
      "\"badgadget_bootstrap_events_full\":%llu,"
      "\"badgadget_bootstrap_events_early_exit\":%llu,"
      "\"baseline_wall_ms\":%.1f,\"cached_wall_ms\":%.1f,"
      "\"fault_set_hash\":\"%016llx\",\"fault_hash_pinned\":%s}",
      cached.cells.size(), fresh_boot_ms, cached_repeat_ms, speedup,
      static_cast<unsigned long long>(cached.live_cache.misses),
      static_cast<unsigned long long>(cached.live_cache.hits),
      static_cast<unsigned long long>(gadget_full),
      static_cast<unsigned long long>(gadget_exit), baseline_wall_ms, cached_wall_ms,
      static_cast<unsigned long long>(cached_hash), pinned ? "true" : "false");
  bench::emit_json("matrix_startup", json);

  const bool pass = pinned && speedup >= 5.0 && gadget_exit * 4 < gadget_full;
  std::printf("\nacceptance (>=5x repeated-cell startup, early-exit bootstrap, "
              "pinned fault hash): %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
