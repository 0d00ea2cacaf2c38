// The traced run: per-layer metrics from spans and counters recorded around
// calls into each module's public functions. End-to-end metrics never come
// from here.
//
// Matrix workloads run the workload's own campaign (or sharded) round once
// for the explore/shard counters, then replay the same cells through
// core::Orchestrator — same options, same derived seeds, a timing wrapper
// around the input strategy — once with spans and once without (the
// difference is the tracing overhead). The daemon workload times the
// service, store and raw-restore calls of one cold start and one warm
// restart.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>

#include "dice/orchestrator.hpp"
#include "explore/solver_cache.hpp"
#include "shard/coordinator.hpp"
#include "shard/wire.hpp"
#include "svc/artifact_store.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dc = dice::core;
namespace de = dice::explore;
namespace dsvc = dice::svc;

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"concolic.generate_ms", "ms"},     {"concolic.share", "ratio"},
      {"concolic.executions", "count"},   {"concolic.inputs_generated", "count"},
      {"concolic.solver_queries", "count"}, {"concolic.memo_hit_ratio", "ratio"},
      {"concolic.us_per_query", "us"},    {"fuzz.generate_ms", "ms"},
      {"snapshot.take_ms", "ms"},         {"snapshot.prepare_ms", "ms"},
      {"snapshot.bytes", "bytes"},        {"snapshot.delta_node_ratio", "ratio"},
      {"snapshot.restore_raw_ms", "ms"},  {"dice.clones", "count"},
      {"dice.clone_restore_ms", "ms"},    {"dice.clone_converge_ms", "ms"},
      {"dice.check_ms", "ms"},            {"dice.clone_reuse_ratio", "ratio"},
      {"dice.early_exit_ratio", "ratio"}, {"dice.episode_ms", "ms"},
      {"sim.bootstrap_ms", "ms"},         {"bgp.cell_ms", "ms"},
      {"bgp2.cell_ms", "ms"},             {"explore.cell_ms", "ms"},
      {"explore.max_cell_ratio", "ratio"}, {"explore.steals", "count"},
      {"explore.child_steals", "count"},  {"explore.helped", "count"},
      {"explore.live_cache_hit_ratio", "ratio"}, {"shard.workers_spawned", "count"},
      {"shard.redeals", "count"},         {"shard.wire_bytes", "bytes"},
      {"shard.codec_ms", "ms"},           {"svc.construct_ms", "ms"},
      {"svc.store_load_ms", "ms"},        {"svc.store_save_ms", "ms"},
      {"svc.round1_ms", "ms"},            {"svc.round1_bootstrap_ms", "ms"},
      {"svc.artifacts", "count"},         {"svc.store_mb", "MB"},
      {"trace.overhead_ratio", "ratio"},  {"trace.unaccounted_share", "ratio"},
  };
  return kMetrics;
}

namespace {

RunReport empty_layer_report() {
  RunReport report;
  for (const auto& [name, unit] : per_layer_metrics()) report.set(name, 0.0, unit);
  return report;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// Self time per span name: duration minus the part covered by children.
std::map<std::string, std::pair<std::size_t, double>> self_times(const SpanRecorder& recorder) {
  const std::vector<SpanRecorder::Record> records = recorder.records();
  std::vector<double> child_us(records.size() + 1, 0.0);
  for (const SpanRecorder::Record& record : records) {
    if (record.parent != 0) child_us[record.parent] += record.end_us - record.start_us;
  }
  std::map<std::string, std::pair<std::size_t, double>> out;
  for (const SpanRecorder::Record& record : records) {
    auto& [count, self_ms] = out[record.name];
    ++count;
    self_ms += (record.end_us - record.start_us - child_us[record.id]) / 1000.0;
  }
  return out;
}

void print_layers(const std::string& workload, const RunReport& report,
                  const SpanRecorder& recorder, const std::string& trace_path) {
  std::printf("== per-layer metrics: %s ==\n", workload.c_str());
  for (const auto& [name, unit] : per_layer_metrics()) {
    std::printf("  %-30s %16.4f %s\n", name.c_str(), report.metrics.at(name).value,
                unit.c_str());
  }
  std::printf("== span self time ==\n");
  for (const auto& [name, totals] : self_times(recorder)) {
    std::printf("  %-30s %8zu spans %12.3f ms\n", name.c_str(), totals.first, totals.second);
  }
  std::printf("trace file: %s\n", trace_path.c_str());
}

std::string trace_path(const RunSettings& settings) {
  return settings.out_dir + "/trace-" + settings.workload + "-seed" +
         std::to_string(settings.seed) + ".json";
}

/// Layer figures of one replayed cell.
struct CellLayers {
  bool concolic = false;
  std::string implementation;
  double cell_ms = 0.0;
  double bootstrap_ms = 0.0;
  double generate_ms = 0.0;
  double episode_ms = 0.0;
  double snapshot_ms = 0.0;
  double prepare_ms = 0.0;
  double clone_ms = 0.0;
  double converge_ms = 0.0;
  double check_ms = 0.0;
  std::size_t clones = 0;
  std::size_t reused = 0;
  std::size_t early_exit = 0;
  std::size_t snapshot_bytes = 0;
  std::size_t delta_nodes = 0;
  std::size_t nodes_snapshotted = 0;
  std::uint64_t executions = 0;
  std::uint64_t generated = 0;
  std::uint64_t queries = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t fault_hash = 0;
};

std::unique_ptr<dc::InputStrategy> make_strategy(de::StrategyKind kind, std::uint64_t seed,
                                                 de::SolverCache* memo,
                                                 dc::ConcolicStrategy** concolic) {
  // The matrix's own strategy construction (explore/matrix.cpp).
  switch (kind) {
    case de::StrategyKind::kConcolic: {
      dc::ConcolicStrategy::Options options;
      options.rng_seed = seed;
      options.solver_memo = memo;
      auto strategy = std::make_unique<dc::ConcolicStrategy>(options);
      *concolic = strategy.get();
      return strategy;
    }
    case de::StrategyKind::kGrammar:
      return std::make_unique<dc::GrammarStrategy>(0.05, seed, /*strict=*/false);
    case de::StrategyKind::kGrammarStrict:
      return std::make_unique<dc::GrammarStrategy>(0.0, seed, /*strict=*/true);
    case de::StrategyKind::kRandom:
      break;
  }
  return std::make_unique<dc::RandomStrategy>(seed);
}

/// Runs one matrix cell through core::Orchestrator exactly as the matrix
/// derives it (options, clone-RNG root, strategy seed), serially.
CellLayers replay_cell(const de::MatrixOptions& options, const de::CellIdentity& cell,
                       std::size_t index,
                       const std::shared_ptr<const dc::SystemPrototype>& prototype,
                       SpanRecorder* recorder) {
  CellLayers out;
  out.concolic = cell.strategy == de::StrategyKind::kConcolic;
  out.implementation = options.implementations[cell.impl_pos];
  const Span cell_span(recorder, "explore.cell");
  const auto start = Clock::now();

  dc::DiceOptions dice = options.dice;
  dice.parallelism = 1;
  dice.rng_seed = dice::util::Rng(cell.seed).fork(2 * index).next();
  dc::Orchestrator orchestrator(prototype, dice);
  {
    const Span span(recorder, "sim.bootstrap");
    const auto bootstrap_start = Clock::now();
    (void)orchestrator.bootstrap(options.bootstrap_events);
    out.bootstrap_ms = ms_since(bootstrap_start);
  }

  const std::uint64_t strategy_seed =
      options.strategy_seed.value_or(dice::util::Rng(cell.seed).fork(2 * index + 1).next());
  de::SolverCache memo;
  dc::ConcolicStrategy* concolic = nullptr;
  const std::unique_ptr<dc::InputStrategy> strategy =
      make_strategy(cell.strategy, strategy_seed, &memo, &concolic);
  TimedStrategy timed(*strategy, recorder, out.concolic ? "concolic.generate" : "fuzz.generate");
  dc::InputStrategy& used = recorder != nullptr ? static_cast<dc::InputStrategy&>(timed)
                                                : *strategy;
  for (std::size_t episode = 0; episode < options.episodes_per_cell; ++episode) {
    const Span span(recorder, "dice.episode");
    const auto episode_start = Clock::now();
    const dc::EpisodeResult result = orchestrator.run_episode(used);
    out.episode_ms += ms_since(episode_start);
    out.snapshot_ms += result.snapshot_ms;
    out.prepare_ms += result.restore_ms;
    out.clone_ms += result.clone_ms;
    out.converge_ms += result.explore_ms;
    out.check_ms += result.check_ms;
    out.clones += result.clones_run;
    out.reused += result.clones_reused;
    out.early_exit += result.clones_early_exit;
    out.snapshot_bytes += result.snapshot_bytes;
    out.delta_nodes += result.snapshot_delta_nodes;
    out.nodes_snapshotted += prototype->size();
  }
  out.generate_ms = timed.busy_ms();
  if (concolic != nullptr) {
    out.executions = concolic->stats().executions;
    out.generated = concolic->stats().generated;
    const de::SolverCache::Stats stats = memo.stats();
    out.queries = stats.hits + stats.misses;
    out.memo_hits = stats.hits;
  }
  out.fault_hash = dsvc::fault_set_hash(orchestrator.all_faults());
  out.cell_ms = ms_since(start);
  return out;
}

/// Replays every cell on `threads` threads; returns the wall time in ms.
double replay_all(const de::MatrixOptions& options, const std::vector<de::CellIdentity>& cells,
                  const std::vector<std::shared_ptr<const dc::SystemPrototype>>& prototypes,
                  std::size_t threads, SpanRecorder* recorder, std::vector<CellLayers>& out) {
  out.assign(cells.size(), CellLayers{});
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SpanRecorder::set_thread(static_cast<std::uint32_t>(t + 1));
      for (std::size_t i = next++; i < cells.size(); i = next++) {
        const de::CellIdentity& cell = cells[i];
        out[i] = replay_cell(options, cell, i,
                             prototypes[cell.scenario * options.implementations.size() +
                                        cell.impl_pos],
                             recorder);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  return ms_since(start);
}

}  // namespace

RunReport trace_matrix(const MatrixWorkload& w, const RunSettings& settings) {
  RunReport report = empty_layer_report();
  SpanRecorder recorder;
  SpanRecorder::set_thread(0);
  const std::vector<de::ScenarioSpec> scenarios = w.scenarios();
  const de::CampaignOptions campaign_options = w.seeding.apply(w.campaign, 1);
  const de::MatrixOptions options = campaign_options.to_matrix_options();
  const std::vector<de::CellIdentity> cells = de::enumerate_cells(scenarios.size(), options);

  // 1. The workload's own round, untraced inside: per-cell results and
  //    faults, pool, cache and shard counters.
  CollectingObserver collector(cells.size());
  de::MatrixResult run;
  double run_wall_ms = 0.0;
  if (w.shard_processes == 0) {
    const Span span(&recorder, "explore.campaign_run");
    de::Campaign campaign(scenarios, campaign_options);
    de::CampaignResult result = campaign.run(&collector);
    run_wall_ms = result.wall_ms;
    run = std::move(result);
  } else {
    const Span span(&recorder, "shard.run");
    dice::shard::ShardOptions shard_options;
    shard_options.processes = w.shard_processes;
    shard_options.worker_path = settings.worker_path;
    shard_options.scenario_set = w.scenario_set;
    dice::shard::ShardCoordinator coordinator(campaign_options, shard_options);
    const auto start = Clock::now();
    auto result = coordinator.run(&collector);
    run_wall_ms = ms_since(start);
    if (!result.ok()) {
      report.fail("shard run failed: " + result.error().to_string());
      return report;
    }
    report.set("shard.workers_spawned", static_cast<double>(result.value().workers_spawned),
               "count");
    report.set("shard.redeals", static_cast<double>(result.value().redeals), "count");
    report.accounting.shard_attempts += result.value().workers_spawned;
    report.accounting.shard_redeals += result.value().redeals;
    report.accounting.shard_losses += result.value().losses.size();
    run = std::move(result).take().matrix;
  }
  record_round(run, collector, campaign_options, w.expectations, report);

  // 2. The replay, once plain and once traced.
  std::vector<std::shared_ptr<const dc::SystemPrototype>> prototypes;
  for (const de::ScenarioSpec& spec : scenarios) {
    for (const std::string& impl : options.implementations) {
      dice::bgp::SystemBlueprint blueprint = spec.blueprint;
      if (!impl.empty()) blueprint.set_all_implementations(impl);
      prototypes.push_back(std::make_shared<const dc::SystemPrototype>(std::move(blueprint)));
    }
  }
  const std::size_t threads = 4;
  std::vector<CellLayers> layers;
  const double plain_ms = replay_all(options, cells, prototypes, threads, nullptr, layers);
  double traced_ms = 0.0;
  {
    const Span span(&recorder, "replay");
    traced_ms = replay_all(options, cells, prototypes, threads, &recorder, layers);
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!collector.cells()[i].completed) continue;
    check_same_hash("traced replay of cell " + std::to_string(i),
                    dsvc::fault_set_hash(collector.cells()[i].faults), layers[i].fault_hash,
                    report.errors);
  }

  // 3. The shard wire applied to this workload's cell results.
  double wire_bytes = 0.0;
  double codec_ms = 0.0;
  {
    const Span span(&recorder, "shard.codec");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      dice::shard::CellResultMsg message;
      message.index = i;
      message.result = run.cells[i];
      message.faults = collector.cells()[i].faults;
      const auto start = Clock::now();
      const dice::util::Bytes bytes = dice::shard::encode_cell_result(message);
      const auto decoded = dice::shard::decode_message(bytes);
      codec_ms += ms_since(start);
      wire_bytes += static_cast<double>(bytes.size());
      if (!decoded.ok()) report.fail("shard wire: cell " + std::to_string(i) + " does not decode");
    }
  }

  // 4. Fold the figures into the per-layer metrics.
  CellLayers sum;
  double fuzz_ms = 0.0;
  double bgp_ms = 0.0;
  double bgp2_ms = 0.0;
  for (const CellLayers& cell : layers) {
    sum.cell_ms += cell.cell_ms;
    sum.bootstrap_ms += cell.bootstrap_ms;
    sum.episode_ms += cell.episode_ms;
    sum.snapshot_ms += cell.snapshot_ms;
    sum.prepare_ms += cell.prepare_ms;
    sum.clone_ms += cell.clone_ms;
    sum.converge_ms += cell.converge_ms;
    sum.check_ms += cell.check_ms;
    sum.clones += cell.clones;
    sum.reused += cell.reused;
    sum.early_exit += cell.early_exit;
    sum.snapshot_bytes += cell.snapshot_bytes;
    sum.delta_nodes += cell.delta_nodes;
    sum.nodes_snapshotted += cell.nodes_snapshotted;
    sum.executions += cell.executions;
    sum.generated += cell.generated;
    sum.queries += cell.queries;
    sum.memo_hits += cell.memo_hits;
    (cell.concolic ? sum.generate_ms : fuzz_ms) += cell.generate_ms;
    (cell.implementation == "fsm" ? bgp2_ms : bgp_ms) += cell.cell_ms;
  }
  report.set("concolic.generate_ms", sum.generate_ms, "ms");
  report.set("concolic.share", ratio(sum.generate_ms, sum.cell_ms), "ratio");
  report.set("concolic.executions", static_cast<double>(sum.executions), "count");
  report.set("concolic.inputs_generated", static_cast<double>(sum.generated), "count");
  report.set("concolic.solver_queries", static_cast<double>(sum.queries), "count");
  report.set("concolic.memo_hit_ratio",
             ratio(static_cast<double>(sum.memo_hits), static_cast<double>(sum.queries)),
             "ratio");
  report.set("concolic.us_per_query",
             ratio(sum.generate_ms * 1000.0, static_cast<double>(sum.queries)), "us");
  report.set("fuzz.generate_ms", fuzz_ms, "ms");
  report.set("snapshot.take_ms", sum.snapshot_ms, "ms");
  report.set("snapshot.prepare_ms", sum.prepare_ms, "ms");
  report.set("snapshot.bytes", static_cast<double>(sum.snapshot_bytes), "bytes");
  report.set("snapshot.delta_node_ratio",
             ratio(static_cast<double>(sum.delta_nodes),
                   static_cast<double>(sum.nodes_snapshotted)),
             "ratio");
  report.set("dice.clones", static_cast<double>(sum.clones), "count");
  report.set("dice.clone_restore_ms", sum.clone_ms, "ms");
  report.set("dice.clone_converge_ms", sum.converge_ms, "ms");
  report.set("dice.check_ms", sum.check_ms, "ms");
  report.set("dice.clone_reuse_ratio",
             ratio(static_cast<double>(sum.reused), static_cast<double>(sum.clones)), "ratio");
  report.set("dice.early_exit_ratio",
             ratio(static_cast<double>(sum.early_exit), static_cast<double>(sum.clones)),
             "ratio");
  report.set("dice.episode_ms", sum.episode_ms, "ms");
  report.set("sim.bootstrap_ms", sum.bootstrap_ms, "ms");
  report.set("bgp.cell_ms", bgp_ms, "ms");
  report.set("bgp2.cell_ms", bgp2_ms, "ms");

  double cell_ms = 0.0;
  double max_cell_ms = 0.0;
  for (const de::CellResult& cell : run.cells) {
    cell_ms += cell.wall_ms;
    max_cell_ms = std::max(max_cell_ms, cell.wall_ms);
  }
  report.set("explore.cell_ms", cell_ms, "ms");
  report.set("explore.max_cell_ratio", ratio(max_cell_ms, run_wall_ms), "ratio");
  report.set("explore.steals", static_cast<double>(run.pool.steals), "count");
  report.set("explore.child_steals", static_cast<double>(run.pool.child_steals), "count");
  report.set("explore.helped", static_cast<double>(run.pool.helped), "count");
  report.set("explore.live_cache_hit_ratio",
             ratio(static_cast<double>(run.live_cache.hits),
                   static_cast<double>(run.live_cache.hits + run.live_cache.misses)),
             "ratio");
  report.set("shard.wire_bytes", wire_bytes, "bytes");
  report.set("shard.codec_ms", codec_ms, "ms");
  report.set("trace.overhead_ratio", ratio(traced_ms, plain_ms), "ratio");
  const double named = sum.bootstrap_ms + sum.generate_ms + fuzz_ms + sum.snapshot_ms +
                       sum.prepare_ms + sum.clone_ms + sum.converge_ms + sum.check_ms;
  report.set("trace.unaccounted_share", 1.0 - ratio(named, sum.cell_ms), "ratio");

  const std::string path = trace_path(settings);
  if (!recorder.write_chrome_trace(path)) report.fail("cannot write " + path);
  print_layers(w.name, report, recorder, path);
  return report;
}

RunReport trace_daemon(const DaemonWorkload& w, const RunSettings& settings) {
  RunReport report = empty_layer_report();
  Accounting& acc = report.accounting;
  SpanRecorder recorder;
  SpanRecorder::set_thread(0);
  const std::string store =
      settings.out_dir + "/daemon-trace-" + std::to_string(::getpid()) + ".dsvc";
  std::filesystem::remove(store);
  const std::size_t cells = w.seeding.per_round();
  const auto soak_options = [&](de::CampaignObserver* observer) {
    dsvc::SoakOptions options;
    options.campaign = w.seeding.apply(w.campaign, 1);
    options.campaign.telemetry.wall_observer = observer;
    options.store_path = store;
    return options;
  };

  // Cold start: the bootstrap cost at scale, and the store it persists.
  std::uint64_t cold_hash = 0;
  {
    const Span span(&recorder, "svc.cold_start");
    CollectingObserver collector(cells);
    dsvc::SoakService service(w.scenarios(), soak_options(&collector));
    const dsvc::RoundSummary round = service.run_round();
    report.set("sim.bootstrap_ms", round.bootstrap_ms, "ms");
    cold_hash = round.fault_hash;
    ++acc.rounds;
    acc.cells_attempted += cells;
    acc.cells_completed += round.cells_completed;
    check_planted(collector.cells(), w.expectations, report.errors);
  }
  std::error_code ec;
  const auto store_bytes = std::filesystem::file_size(store, ec);
  report.set("svc.store_mb", ec ? 0.0 : static_cast<double>(store_bytes) / (1024.0 * 1024.0),
             "MB");

  // The store codec and the raw-cut restore, timed directly.
  dsvc::StoreContents contents;
  {
    const Span span(&recorder, "svc.store_load");
    const auto start = Clock::now();
    auto loaded = dsvc::ArtifactStore(store).load();
    report.set("svc.store_load_ms", ms_since(start), "ms");
    if (!loaded.ok()) {
      report.fail("store does not load: " + loaded.error().to_string());
    } else {
      contents = std::move(loaded).take();
    }
  }
  report.set("svc.artifacts", static_cast<double>(contents.live_states.size()), "count");
  {
    const Span span(&recorder, "svc.store_save");
    const std::string copy = store + ".copy";
    const auto start = Clock::now();
    const dice::util::Status saved = dsvc::ArtifactStore(copy).save(contents);
    report.set("svc.store_save_ms", ms_since(start), "ms");
    if (!saved.ok()) report.fail("store save failed: " + saved.error().to_string());
    std::filesystem::remove(copy);
  }
  {
    const Span span(&recorder, "snapshot.restore_raw");
    const std::vector<de::ScenarioSpec> scenarios = w.scenarios();
    dc::System system(std::make_shared<const dc::SystemPrototype>(scenarios.front().blueprint));
    double restore_ms = 0.0;
    for (const dsvc::LiveStateArtifact& artifact : contents.live_states) {
      const auto start = Clock::now();
      const dice::util::Status status = system.reset_from_raw(artifact.snap, artifact.resume_at);
      restore_ms += ms_since(start);
      if (!status.ok()) report.fail("reset_from_raw: " + status.error().to_string());
    }
    report.set("snapshot.restore_raw_ms", restore_ms, "ms");
  }

  // One warm restart with spans around construction and round 1, and one
  // without: their difference is the tracing overhead.
  const auto warm_restart = [&](SpanRecorder* spans) {
    CollectingObserver collector(cells);
    const auto start = Clock::now();
    const Span span(spans, "svc.warm_restart");
    std::unique_ptr<dsvc::SoakService> service;
    {
      const Span construct(spans, "svc.construct");
      const auto construct_start = Clock::now();
      service = std::make_unique<dsvc::SoakService>(w.scenarios(), soak_options(&collector));
      if (spans != nullptr) report.set("svc.construct_ms", ms_since(construct_start), "ms");
    }
    dsvc::RoundSummary round;
    {
      const Span round_span(spans, "svc.round1");
      const auto round_start = Clock::now();
      round = service->run_round();
      if (spans != nullptr) {
        report.set("svc.round1_ms", ms_since(round_start), "ms");
        report.set("svc.round1_bootstrap_ms", round.bootstrap_ms, "ms");
        report.set("dice.clones", static_cast<double>(collector.clones()), "count");
      }
    }
    ++acc.rounds;
    ++acc.restarts_attempted;
    if (service->report().warm_started) ++acc.restarts_warm;
    if (!service->store_error().code.empty()) ++acc.store_load_errors;
    acc.cells_attempted += cells;
    acc.cells_completed += round.cells_completed;
    check_warm_restart(*service, round, cells, cold_hash, report.errors);
    check_planted(collector.cells(), w.expectations, report.errors);
    return ms_since(start);
  };
  const double plain_ms = warm_restart(nullptr);
  const double traced_ms = warm_restart(&recorder);
  report.set("trace.overhead_ratio", ratio(traced_ms, plain_ms), "ratio");
  // Named layers on the restart path: the store load inside construction
  // and the round-1 bootstrap (raw-cut resume) inside the round.
  const double named =
      report.metrics.at("svc.store_load_ms").value + report.metrics.at("svc.round1_bootstrap_ms").value;
  report.set("trace.unaccounted_share", 1.0 - ratio(named, traced_ms), "ratio");
  std::filesystem::remove(store);

  const std::string path = trace_path(settings);
  if (!recorder.write_chrome_trace(path)) report.fail("cannot write " + path);
  print_layers(w.name, report, recorder, path);
  return report;
}

}  // namespace perfbench
