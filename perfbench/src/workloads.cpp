#include "workloads.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bgp/bugs.hpp"
#include "bgp/topology.hpp"
#include "shard/coordinator.hpp"
#include "svc/artifact_store.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace de = dice::explore;
namespace dsvc = dice::svc;
using Kind = Expectation::Kind;

std::vector<std::uint64_t> Seeding::for_cycle(std::size_t cycle) const {
  // Rotating seeds first: cells are dealt in seed order within a scenario,
  // so an unlucky (long) rotating cell starts early instead of trailing.
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < rotating; ++i) seeds.push_back(seed * 100'000 + cycle * 100 + i + 1);
  for (std::size_t i = 0; i < panel; ++i) seeds.push_back(i + 1);
  return seeds;
}

de::CampaignOptions Seeding::apply(de::CampaignOptions options, std::size_t cycle) const {
  options.determinism.seeds = for_cycle(cycle);
  return options;
}

namespace {

/// kCommunityLength on node 0, which explores first under round-robin
/// election, so one episode per cell reaches it.
constexpr dice::sim::NodeId kBugNode = 0;

/// A more-specific hijack between two distinct stubs drawn from --seed:
/// the planted fault moves with the seed, the rest of the topology stays.
Expectation seeded_hijack(const std::string& scenario, std::uint64_t seed,
                          std::size_t first_stub, std::size_t stubs) {
  dice::util::Rng rng(seed);
  const std::size_t victim = rng.next() % stubs;
  const std::size_t attacker = (victim + 1 + rng.next() % (stubs - 1)) % stubs;
  Expectation e;
  e.scenario = scenario;
  e.kind = Kind::kHijack;
  e.victim = static_cast<dice::sim::NodeId>(first_stub + victim);
  e.attacker = static_cast<dice::sim::NodeId>(first_stub + attacker);
  e.label = "hijack " + std::to_string(e.victim) + "<-" + std::to_string(e.attacker);
  return e;
}

void make_concolic(MatrixWorkload& w) {
  // make_internet() defaults: 3 tier-1, 8 tier-2, then 16 stubs (11..26).
  const Expectation hijack = seeded_hijack("topology27-hijack", w.seeding.seed, 11, 16);
  w.expectations = {
      hijack,
      {"line3-community-length", Kind::kCrash, kBugNode, 0, 0, "kCommunityLength@0"},
      {"bad-gadget", Kind::kOscillation, 0, 0, 0, "bad-gadget oscillation"},
  };
  w.scenarios = [hijack] {
    // The costliest scenario first: cells are dealt in scenario-major
    // order, so its long serial input generation starts early.
    std::vector<de::ScenarioSpec> specs;
    dice::bgp::SystemBlueprint fig1 = dice::bgp::make_internet();  // 27 routers
    dice::bgp::inject_hijack(fig1, hijack.victim, hijack.attacker, /*more_specific=*/true);
    specs.push_back({hijack.scenario, std::move(fig1)});
    dice::bgp::SystemBlueprint line = dice::bgp::make_line(3);
    dice::bgp::inject_bug(line, kBugNode, dice::bgp::bugs::kCommunityLength);
    specs.push_back({"line3-community-length", std::move(line)});
    specs.push_back({"bad-gadget", dice::bgp::make_bad_gadget()});
    return specs;
  };
}

/// Ground truth of explore::default_bench_scenarios(), from its
/// construction: the internet9 hijack (victim 5, attacker 8), topology27's
/// more-specific hijack (victim 12, attacker 20) and BAD GADGET.
std::vector<Expectation> bench_expectations() {
  return {
      {"internet9-hijack", Kind::kHijack, 0, 5, 8, "hijack 5<-8"},
      {"topology27", Kind::kHijack, 0, 12, 20, "hijack 12<-20"},
      {"bad-gadget", Kind::kOscillation, 0, 0, 0, "bad-gadget oscillation"},
  };
}

de::CampaignOptions build_options(const de::CampaignOptions::Builder& spec) {
  auto built = spec.build();
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: invalid campaign options: %s\n",
                 built.error().to_string().c_str());
    std::exit(2);
  }
  return std::move(built).take();
}

std::size_t clones_per_cell(const de::CampaignOptions& options) {
  return options.budgets.episodes_per_cell *
         (options.budgets.inputs_per_episode + (options.budgets.include_baseline_clone ? 1 : 0));
}

std::size_t round_clones(const de::MatrixResult& result) {
  std::size_t clones = 0;
  for (const de::CellResult& cell : result.cells) clones += cell.clones_run;
  return clones;
}

}  // namespace

void record_round(const de::MatrixResult& result, const CollectingObserver& collector,
                  const de::CampaignOptions& options, const std::vector<Expectation>& expectations,
                  RunReport& report) {
  Accounting& acc = report.accounting;
  ++acc.rounds;
  acc.cells_attempted += result.cells.size();
  acc.cells_completed += result.cells_completed;
  acc.clones_expected += result.cells.size() * clones_per_cell(options);
  acc.clones_run += round_clones(result);
  check_planted(collector.cells(), expectations, report.errors);
}

namespace {

/// One untimed in-process round of `options`; returns its fault-set hash.
std::uint64_t reference_round(const MatrixWorkload& w, de::CampaignOptions options,
                              RunReport& report) {
  options.parallelism.workers = 4;
  de::Campaign campaign(w.scenarios(), options);
  CollectingObserver collector(campaign.cell_count());
  const de::CampaignResult result = campaign.run(&collector);
  record_round(result, collector, options, w.expectations, report);
  return dsvc::fault_set_hash(result.faults);
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"concolic-planted", "grammar-federation", "sharded-federation", "daemon-restart"};
}

bool is_daemon_workload(const std::string& name) { return name == "daemon-restart"; }

MatrixWorkload make_matrix_workload(const std::string& name, std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  MatrixWorkload w;
  w.name = name;
  w.seeding.seed = seed;
  if (name == "concolic-planted") {
    // Campaign seeds are the panel alone: concolic cell cost is heavy-tailed
    // over seeds and the slowest cell sets the round's wall time, so a
    // rotating seed moved whole runs by up to 20%. --seed places the hijack.
    w.seeding.panel = full ? 8 : 1;
    w.seeding.rotating = 0;
    make_concolic(w);
    w.campaign = build_options(de::CampaignOptions::builder()
                                   .strategies({de::StrategyKind::kConcolic})
                                   .episodes_per_cell(1)
                                   .inputs_per_episode(64)
                                   .parallelism(4));
    return w;
  }
  // grammar-federation and sharded-federation run exactly the same cells.
  w.scenarios = de::default_bench_scenarios;
  w.expectations = bench_expectations();
  w.seeding.panel = full ? 3 : 0;
  const bool sharded = name == "sharded-federation";
  w.campaign = build_options(de::CampaignOptions::builder()
                                 .strategies({de::StrategyKind::kGrammar})
                                 .implementations({"", "fsm"})
                                 .episodes_per_cell(full ? 2 : 1)
                                 .inputs_per_episode(32)
                                 .parallelism(sharded ? 2 : 4));
  if (sharded) {
    w.shard_processes = 2;
    w.scenario_set = "bench";
  }
  return w;
}

DaemonWorkload make_daemon_workload(std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  DaemonWorkload w;
  w.name = "daemon-restart";
  // Like concolic-planted, the campaign seeds are a fixed panel and --seed
  // places the planted hijack: with a rotating seed, clone convergence cost
  // moved with the grammar inputs and ten runs spread 0.17-0.21.
  w.seeding = Seeding{seed, 2, 0};
  dice::bgp::InternetTopologyParams params;  // short: the 27-router default
  if (full) {
    params.tier1 = 4;
    params.tier2 = 16;
    params.stubs = 100;
  }
  w.routers = params.tier1 + params.tier2 + params.stubs;
  const Expectation hijack =
      seeded_hijack("internet" + std::to_string(w.routers) + "-hijack", seed,
                    params.tier1 + params.tier2, params.stubs);
  w.expectations = {hijack};
  w.scenarios = [params, hijack] {
    dice::bgp::SystemBlueprint internet = dice::bgp::make_internet(params);
    dice::bgp::inject_hijack(internet, hijack.victim, hijack.attacker, /*more_specific=*/true);
    std::vector<de::ScenarioSpec> specs;
    specs.push_back({hijack.scenario, std::move(internet)});
    return specs;
  };
  w.campaign = build_options(de::CampaignOptions::builder()
                                 .strategies({de::StrategyKind::kGrammar})
                                 .episodes_per_cell(1)
                                 .inputs_per_episode(2)
                                 .bootstrap_events(20'000'000)
                                 .clone_event_budget(60'000)
                                 .parallelism(4));
  w.warm_restarts = full ? 4 : 1;
  return w;
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

void check_same_hash(const std::string& what, std::uint64_t expected, std::uint64_t actual,
                     std::vector<std::string>& errors) {
  if (expected != actual) {
    errors.push_back(what + ": fault-set hash " + hex64(actual) + " differs from " +
                     hex64(expected));
  }
}

void check_warm_restart(const dsvc::SoakService& service, const dsvc::RoundSummary& round,
                        std::size_t cells, std::uint64_t cold_hash,
                        std::vector<std::string>& errors) {
  const dice::util::Error store_error = service.store_error();
  if (!store_error.code.empty()) {
    errors.push_back("warm restart: store load failed (" + store_error.to_string() + ")");
  }
  if (!service.report().warm_started) errors.push_back("warm restart: not warm_started");
  if (round.cells_from_cache != cells) {
    errors.push_back("warm restart: " + std::to_string(round.cells_from_cache) + " of " +
                     std::to_string(cells) + " round-1 bootstraps served from the cache");
  }
  check_same_hash("warm round vs cold round", cold_hash, round.fault_hash, errors);
}

void check_store_loads(const std::string& path, std::vector<std::string>& errors) {
  const auto loaded = dsvc::ArtifactStore(path).load();
  if (!loaded.ok()) {
    errors.push_back("store " + path + " does not load: " + loaded.error().to_string());
  }
}

// ---------------------------------------------------------------------------
// Untraced runs.
// ---------------------------------------------------------------------------

RunReport run_matrix(const MatrixWorkload& w, const RunSettings& settings, RunOutputs* outputs) {
  RunReport report;
  std::vector<double> setup;
  std::vector<double> cold;
  std::vector<double> warm;
  std::vector<double> detect;
  double clones = 0.0;
  double run_wall_s = 0.0;

  // Warm-up: one untimed single-seed round (cycle 0), so the timed rounds
  // do not pay first-use costs (page faults, allocator growth).
  {
    de::CampaignOptions warm_up = w.campaign;
    warm_up.determinism.seeds = {w.seeding.for_cycle(0).front()};
    (void)reference_round(w, warm_up, report);
  }

  DetectionObserver detection(&w.expectations);
  const auto begin = Clock::now();
  std::size_t cycle = 0;
  do {
    ++cycle;
    const de::CampaignOptions options = w.seeding.apply(w.campaign, cycle);
    // The sharded rounds must reproduce an in-process run of the same cells.
    const std::uint64_t reference =
        w.shard_processes > 0 ? reference_round(w, options, report) : 0;

    const auto setup_start = Clock::now();
    std::vector<de::ScenarioSpec> scenarios = w.scenarios();
    const de::MatrixOptions matrix_options = options.to_matrix_options();
    const std::size_t pairs = planted_pairs(scenarios, matrix_options, w.expectations);
    const std::size_t cell_count = de::enumerate_cells(scenarios.size(), matrix_options).size();
    const auto construct_start = Clock::now();

    // One tester per cycle: its first round starts cold (every bootstrap
    // computed), its second reuses whatever warm state the tester keeps.
    std::uint64_t first_hash = 0;
    const auto run_round = [&](auto&& execute, std::size_t round) {
      CollectingObserver collector(cell_count);
      const auto start = Clock::now();
      detection.arm(start, pairs);
      const de::MatrixResult result = execute(collector);
      const double wall = seconds_since(start);
      record_round(result, collector, options, w.expectations, report);
      const std::uint64_t hash = dsvc::fault_set_hash(result.faults);
      if (w.shard_processes > 0) {
        check_same_hash("sharded round vs in-process round", reference, hash, report.errors);
      } else if (round == 1) {
        check_same_hash("second round vs first round", first_hash, hash, report.errors);
      }
      first_hash = hash;
      if (detection.detect_s() < 0) {
        report.fail("planted faults not all delivered by the end of the round");
      } else {
        detect.push_back(detection.detect_s());
      }
      clones += static_cast<double>(round_clones(result));
      run_wall_s += wall;
      if (round == 0) {
        cold.push_back(seconds_since(construct_start));
      } else {
        warm.push_back(wall);
      }
      if (outputs != nullptr) {
        outputs->cells = collector.cells();
        outputs->fault_hash = hash;
      }
    };

    if (w.shard_processes == 0) {
      de::CampaignOptions wired = options;
      wired.telemetry.wall_observer = &detection;
      de::Campaign campaign(std::move(scenarios), wired);
      setup.push_back(seconds_since(setup_start));
      for (std::size_t round = 0; round < 2; ++round) {
        run_round([&](CollectingObserver& collector) -> de::MatrixResult {
          return campaign.run(&collector);
        }, round);
      }
    } else {
      dice::shard::ShardOptions shard_options;
      shard_options.processes = w.shard_processes;
      shard_options.worker_path = settings.worker_path;
      shard_options.scenario_set = w.scenario_set;
      shard_options.first_attempt_args = w.shard_chaos_args;
      dice::shard::ShardCoordinator coordinator(options, shard_options);
      setup.push_back(seconds_since(setup_start));
      for (std::size_t round = 0; round < 2; ++round) {
        run_round([&](CollectingObserver& collector) -> de::MatrixResult {
          // No wall-clock stream crosses the process boundary: detection
          // rides the merged canonical stream.
          TeeObserver tee(&collector, &detection);
          auto result = coordinator.run(&tee);
          if (!result.ok()) {
            report.fail("shard run failed: " + result.error().to_string());
            return {};
          }
          Accounting& acc = report.accounting;
          acc.shard_attempts += result.value().workers_spawned;
          acc.shard_redeals += result.value().redeals;
          acc.shard_losses += result.value().losses.size();
          if (result.value().redeals != 0 || !result.value().losses.empty()) {
            report.fail("shard run: " + std::to_string(result.value().redeals) +
                        " re-deal(s), " + std::to_string(result.value().losses.size()) +
                        " lost shard(s)");
          }
          return std::move(result).take().matrix;
        }, round);
      }
    }
  } while (seconds_since(begin) < settings.seconds);

  report.set("setup_s", median(setup), "s");
  report.set("clones_per_s", run_wall_s > 0 ? clones / run_wall_s : 0.0, "clones/s");
  report.set("detect_s", median(detect), "s");
  report.set("cold_start_s", median(cold), "s");
  report.set("warm_restart_s", median(warm), "s");
  report.set("peak_rss_mb",
             peak_rss_mb() + (w.shard_processes > 0 ? peak_child_rss_mb() : 0.0), "MB");
  return report;
}

RunReport run_daemon(const DaemonWorkload& w, const RunSettings& settings, RunOutputs* outputs,
                     bool keep_store) {
  RunReport report;
  Accounting& acc = report.accounting;
  const std::string store =
      settings.out_dir + "/daemon-" + std::to_string(::getpid()) + ".dsvc";
  const std::size_t cells = w.seeding.per_round();
  std::vector<double> setup;
  std::vector<double> cold;
  std::vector<double> warm;
  std::vector<double> detect;
  double warm_clones = 0.0;
  double warm_wall_s = 0.0;

  const auto fold_round = [&](const dsvc::RoundSummary& round,
                              const CollectingObserver& collector) {
    ++acc.rounds;
    acc.cells_attempted += cells;
    acc.cells_completed += round.cells_completed;
    acc.clones_expected += cells * clones_per_cell(w.campaign);
    acc.clones_run += collector.clones();
    check_planted(collector.cells(), w.expectations, report.errors);
  };

  const auto begin = Clock::now();
  std::size_t cycle = 0;
  do {
    ++cycle;
    std::filesystem::remove(store);
    dsvc::SoakOptions options;
    options.campaign = w.seeding.apply(w.campaign, cycle);
    options.store_path = store;

    std::uint64_t cold_hash = 0;
    {
      const auto setup_start = Clock::now();
      std::vector<de::ScenarioSpec> scenarios = w.scenarios();
      CollectingObserver collector(cells);
      options.campaign.telemetry.wall_observer = &collector;
      const auto construct_start = Clock::now();
      dsvc::SoakService service(std::move(scenarios), options);
      setup.push_back(seconds_since(setup_start));
      const dsvc::RoundSummary round = service.run_round();
      cold.push_back(seconds_since(construct_start));
      fold_round(round, collector);
      cold_hash = round.fault_hash;
    }
    check_store_loads(store, report.errors);

    for (std::size_t restart = 0; restart < w.warm_restarts; ++restart) {
      std::vector<de::ScenarioSpec> scenarios = w.scenarios();
      CollectingObserver collector(cells);
      DetectionObserver detection(&w.expectations);
      TeeObserver tee(&collector, &detection);
      options.campaign.telemetry.wall_observer = &tee;
      const auto start = Clock::now();
      detection.arm(start, w.expectations.size() * cells);
      dsvc::SoakService service(std::move(scenarios), options);
      const dsvc::RoundSummary round = service.run_round();
      const double wall = seconds_since(start);
      warm.push_back(wall);
      fold_round(round, collector);
      ++acc.restarts_attempted;
      if (service.report().warm_started) ++acc.restarts_warm;
      if (!service.store_error().code.empty()) ++acc.store_load_errors;
      check_warm_restart(service, round, cells, cold_hash, report.errors);
      if (detection.detect_s() < 0) {
        report.fail("warm restart: planted fault not delivered");
      } else {
        detect.push_back(detection.detect_s());
      }
      warm_clones += static_cast<double>(collector.clones());
      warm_wall_s += wall;
      if (outputs != nullptr) {
        outputs->cells = collector.cells();
        outputs->fault_hash = round.fault_hash;
        outputs->cold_hash = cold_hash;
      }
    }
  } while (seconds_since(begin) < settings.seconds);

  if (outputs != nullptr) outputs->store_path = store;
  if (!keep_store) std::filesystem::remove(store);

  report.set("setup_s", median(setup), "s");
  report.set("clones_per_s", warm_wall_s > 0 ? warm_clones / warm_wall_s : 0.0, "clones/s");
  report.set("detect_s", median(detect), "s");
  report.set("cold_start_s", median(cold), "s");
  report.set("warm_restart_s", median(warm), "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace perfbench
