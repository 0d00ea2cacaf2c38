// The benchmark's own tests: every workload's checks pass on a seconds-long
// setting, untraced and traced, and each check fails when it is handed a
// wrong expectation (a planted node that is not the real one, a corrupted
// store, a hash that differs, an induced shard re-deal).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "svc/soak_service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool passes(const RunReport& report) {
  for (const std::string& error : report.errors) std::printf("     check: %s\n", error.c_str());
  return report.correct() && report.accounting.failed() == 0;
}

/// check_planted over `cells` with one altered expectation: must complain.
void expect_planted_miss(const std::string& workload, const std::vector<CellFaults>& cells,
                         Expectation wrong, const std::string& what) {
  std::vector<std::string> errors;
  check_planted(cells, {std::move(wrong)}, errors);
  expect(!errors.empty(), workload + ": " + what + " is reported missing");
}

void flip_byte(const std::string& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(file.tellg());
  file.seekg(size / 2);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(size / 2);
  file.write(&byte, 1);
}

void matrix_tests(const std::string& name, const RunSettings& settings) {
  MatrixWorkload workload = make_matrix_workload(name, 7, Size::kShort);
  RunOutputs outputs;
  expect(passes(run_matrix(workload, settings, &outputs)), name + ": short run passes its checks");
  expect(passes(trace_matrix(workload, settings)),
         name + ": traced run passes its checks (replayed cells equal the run's)");

  for (const Expectation& planted : workload.expectations) {
    Expectation wrong = planted;
    switch (planted.kind) {
      case Expectation::Kind::kCrash:
        wrong.node = planted.node + 1;
        expect_planted_miss(name, outputs.cells, wrong, planted.label + " at the wrong node");
        break;
      case Expectation::Kind::kHijack:
        wrong.victim = planted.victim + 1;
        expect_planted_miss(name, outputs.cells, wrong, planted.label + " on the wrong victim");
        wrong = planted;
        wrong.attacker = planted.attacker + 1;
        expect_planted_miss(name, outputs.cells, wrong, planted.label + " from the wrong attacker");
        break;
      case Expectation::Kind::kOscillation:
        for (const CellFaults& cell : outputs.cells) {
          if (cell.scenario != planted.scenario) {
            wrong.scenario = cell.scenario;
            break;
          }
        }
        expect_planted_miss(name, outputs.cells, wrong,
                            "an oscillation expected on " + wrong.scenario);
        break;
    }
  }
  std::vector<std::string> errors;
  check_same_hash("round", outputs.fault_hash ^ 1, outputs.fault_hash, errors);
  expect(!errors.empty(), name + ": a round whose fault-set hash differs is caught");

  if (workload.shard_processes > 0) {
    workload.shard_chaos_args = {"--test-crash-after-cells=1"};
    RunReport chaos = run_matrix(workload, settings);
    expect(!chaos.correct() && chaos.accounting.shard_redeals > 0,
           name + ": a crashed shard worker (re-deal) fails the no-re-deal check");
  }
}

void daemon_tests(const RunSettings& settings) {
  const std::string name = "daemon-restart";
  const DaemonWorkload workload = make_daemon_workload(7, Size::kShort);
  RunOutputs outputs;
  expect(passes(run_daemon(workload, settings, &outputs, /*keep_store=*/true)),
         name + ": short run passes its checks");
  expect(passes(trace_daemon(workload, settings)), name + ": traced run passes its checks");

  Expectation wrong = workload.expectations.front();
  wrong.victim += 1;
  expect_planted_miss(name, outputs.cells, wrong, "the hijack on the wrong victim");

  std::vector<std::string> errors;
  check_same_hash("warm round", outputs.cold_hash ^ 1, outputs.fault_hash, errors);
  expect(!errors.empty(), name + ": a warm round differing from the cold round is caught");

  flip_byte(outputs.store_path);
  errors.clear();
  check_store_loads(outputs.store_path, errors);
  expect(!errors.empty(), name + ": a corrupted store fails the store-load check");

  dice::svc::SoakOptions options;
  options.campaign = workload.seeding.apply(workload.campaign, 1);
  options.store_path = outputs.store_path;
  dice::svc::SoakService service(workload.scenarios(), options);
  const dice::svc::RoundSummary round = service.run_round();
  errors.clear();
  check_warm_restart(service, round, workload.seeding.per_round(),
                     outputs.cold_hash, errors);
  expect(!errors.empty(), name + ": a restart on a corrupted store fails the warm-restart check");
  std::filesystem::remove(outputs.store_path);
}

}  // namespace

int selftest(const RunSettings& base) {
  RunSettings settings = base;
  settings.seconds = 0;  // one cycle each
  for (const std::string& name : workload_names()) {
    settings.workload = name;
    if (is_daemon_workload(name)) {
      daemon_tests(settings);
    } else {
      matrix_tests(name, settings);
    }
  }
  std::printf("selftest: %s (%d failure(s))\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
