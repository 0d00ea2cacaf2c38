// The four perfbench workloads: their make-up (scenarios, planted faults,
// campaign sizes) and how an untimed or traced run drives them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "explore/campaign.hpp"
#include "svc/soak_service.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_path;  ///< dice_shard_worker binary
  std::string out_dir = ".";
};

/// Short settings shrink every workload to a seconds-long smoke (the
/// self-test); full settings are what the benchmark measures.
enum class Size { kFull, kShort };

/// Campaign seeds of one round: a fixed panel, the same in every run, plus
/// seeds that rotate per cycle as a pure function of (--seed, cycle). The
/// panel keeps runs comparable — concolic cell cost is heavy-tailed over
/// seeds — while the rotating part still varies the inputs with --seed.
struct Seeding {
  std::uint64_t seed = 1;
  std::size_t panel = 0;
  std::size_t rotating = 1;
  [[nodiscard]] std::size_t per_round() const { return panel + rotating; }
  [[nodiscard]] std::vector<std::uint64_t> for_cycle(std::size_t cycle) const;
  /// `options` with this cycle's seeds.
  [[nodiscard]] dice::explore::CampaignOptions apply(dice::explore::CampaignOptions options,
                                                     std::size_t cycle) const;
};

/// A workload over the scenario matrix: concolic-planted,
/// grammar-federation, or sharded-federation (shard_processes > 0).
struct MatrixWorkload {
  std::string name;
  /// Builds the scenarios — part of timed set-up, so it runs per tester.
  std::function<std::vector<dice::explore::ScenarioSpec>()> scenarios;
  std::vector<Expectation> expectations;
  dice::explore::CampaignOptions campaign;  ///< seeds come from `seeding`
  Seeding seeding;
  std::size_t shard_processes = 0;
  std::string scenario_set;  ///< the named set the shard workers rebuild
  /// Extra worker argv on each shard's first spawn (the self-test's
  /// induced crash); empty when measuring.
  std::vector<std::string> shard_chaos_args;
};

/// The daemon-restart workload: a resident service on a generated internet.
struct DaemonWorkload {
  std::string name;
  std::function<std::vector<dice::explore::ScenarioSpec>()> scenarios;
  std::vector<Expectation> expectations;
  dice::explore::CampaignOptions campaign;  ///< seeds come from `seeding`
  Seeding seeding;
  std::size_t routers = 0;
  std::size_t warm_restarts = 3;  ///< warm restarts per cold start
};

[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] bool is_daemon_workload(const std::string& name);
[[nodiscard]] MatrixWorkload make_matrix_workload(const std::string& name, std::uint64_t seed,
                                                  Size size);
[[nodiscard]] DaemonWorkload make_daemon_workload(std::uint64_t seed, Size size);

/// What the self-test inspects after a run besides the report.
struct RunOutputs {
  std::vector<CellFaults> cells;  ///< last round's canonical per-cell faults
  std::uint64_t fault_hash = 0;   ///< last round's canonical fault-set hash
  std::string store_path;         ///< daemon: the store file, kept for inspection
  std::uint64_t cold_hash = 0;    ///< daemon: cold round's fault-set hash
};

/// Untraced runs: every end-to-end metric, checks, accounting.
[[nodiscard]] RunReport run_matrix(const MatrixWorkload& workload, const RunSettings& settings,
                                   RunOutputs* outputs = nullptr);
[[nodiscard]] RunReport run_daemon(const DaemonWorkload& workload, const RunSettings& settings,
                                   RunOutputs* outputs = nullptr, bool keep_store = false);

/// Traced runs: every per-layer metric, the span file, the layer table.
[[nodiscard]] RunReport trace_matrix(const MatrixWorkload& workload, const RunSettings& settings);
[[nodiscard]] RunReport trace_daemon(const DaemonWorkload& workload, const RunSettings& settings);

// ---------------------------------------------------------------------------
// Output checks shared by the runs and the self-test.
// ---------------------------------------------------------------------------

/// Every round of a fixed cell space must reproduce the same canonical
/// fault bytes; a sharded round must equal the in-process reference.
void check_same_hash(const std::string& what, std::uint64_t expected, std::uint64_t actual,
                     std::vector<std::string>& errors);

/// A warm restart must load the store without a typed error, report
/// warm_started, serve every round-1 bootstrap from the cache, and
/// reproduce the cold round's fault-set hash.
void check_warm_restart(const dice::svc::SoakService& service,
                        const dice::svc::RoundSummary& round, std::size_t cells,
                        std::uint64_t cold_hash, std::vector<std::string>& errors);

/// Folds one matrix round into the accounting and checks its planted faults.
void record_round(const dice::explore::MatrixResult& result, const CollectingObserver& collector,
                  const dice::explore::CampaignOptions& options,
                  const std::vector<Expectation>& expectations, RunReport& report);

/// The store file must decode without a typed error.
void check_store_loads(const std::string& path, std::vector<std::string>& errors);

/// The benchmark's own tests (selftest.cpp); returns the exit code.
[[nodiscard]] int selftest(const RunSettings& settings);

/// The per-layer metric names and units a traced run reports.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
