// perfbench — drives the DiCE library through its public API on one of four
// workloads and prints every metric as one JSON line (the last line of
// stdout). Normally launched through run.py, which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --worker <dice_shard_worker> [--out <dir>]
//   perfbench --selftest --worker <dice_shard_worker> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// pass instead and reports the per-layer metrics. Exit 0 when every output
// check passed and no operation failed, 1 otherwise, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunReport;
using perfbench::RunSettings;

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --worker <path> [--out <dir>]\n       perfbench --selftest "
               "--worker <path> [--out <dir>]\n",
               message);
  return 2;
}

int finish(const RunReport& report) {
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("accounting: %s\n", report.accounting.to_json().c_str());
  std::printf("%s\n", report.result_line().c_str());
  std::fflush(stdout);
  return report.correct() && report.accounting.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunSettings settings;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      settings.workload = value;
    } else if (arg == "--seed") {
      settings.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      settings.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      settings.trace = value != "0";
    } else if (arg == "--worker") {
      settings.worker_path = value;
    } else if (arg == "--out") {
      settings.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (settings.worker_path.empty()) return usage("--worker is required");
  std::error_code ec;
  std::filesystem::create_directories(settings.out_dir, ec);
  dice::util::Log::set_level(dice::util::LogLevel::kError);

  if (selftest) return perfbench::selftest(settings);

  bool known = false;
  for (const std::string& name : perfbench::workload_names()) known |= name == settings.workload;
  if (!known) return usage(("unknown workload '" + settings.workload + "'").c_str());

  if (perfbench::is_daemon_workload(settings.workload)) {
    const auto workload = perfbench::make_daemon_workload(settings.seed, perfbench::Size::kFull);
    return finish(settings.trace ? perfbench::trace_daemon(workload, settings)
                                 : perfbench::run_daemon(workload, settings));
  }
  const auto workload =
      perfbench::make_matrix_workload(settings.workload, settings.seed, perfbench::Size::kFull);
  return finish(settings.trace ? perfbench::trace_matrix(workload, settings)
                               : perfbench::run_matrix(workload, settings));
}
