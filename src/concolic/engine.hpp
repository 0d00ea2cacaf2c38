// ConcolicEngine: generational path exploration (SAGE-style) over an
// instrumented target function.
//
// The engine repeatedly (i) executes the target on a concrete input while
// recording the path condition, (ii) picks a recorded branch at depth >= the
// input's generation bound, (iii) asks the solver for an input that keeps
// the path prefix but flips that branch, and (iv) enqueues solutions scored
// by the new branch coverage they promise. This is the code-path exploration
// role the Oasis engine plays in the paper (§2): "for each constraint, query
// a solver to find a value that negates the constraint and leads down a
// different code path".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "concolic/context.hpp"
#include "concolic/solver.hpp"
#include "util/bytes.hpp"

namespace dice::concolic {

struct EngineOptions {
  std::uint32_t max_executions = 2000;      ///< concrete executions budget
  std::uint32_t max_generated_inputs = 4000;
  std::uint32_t max_branches_per_exec = 512;  ///< cap negation fan-out per run
  SolverOptions solver;
  bool stop_on_first_crash = false;
  /// SAGE-style generational bound: children only negate branches deeper
  /// than the one that produced them. Disabling it (ablation) re-negates
  /// every prefix branch of every execution — redundant work the input
  /// dedup then has to absorb.
  bool generational = true;
};

struct EngineStats {
  std::uint64_t executions = 0;
  std::uint64_t unique_paths = 0;
  std::uint64_t branch_points = 0;   ///< distinct (site, direction) covered
  std::uint64_t generated = 0;       ///< inputs produced by solving
  std::uint64_t crashes = 0;
  SolverStats solver;  ///< solver work of this run() call alone
};

struct CrashInfo {
  std::string reason;
  util::Bytes input;
  std::uint64_t path_signature = 0;
};

struct RunResult {
  EngineStats stats;
  std::vector<CrashInfo> crashes;
  std::vector<util::Bytes> corpus;  ///< all distinct inputs that ran
};

class ConcolicEngine {
 public:
  /// The target runs instrumented code reading input via input_byte()/
  /// input_u16()/input_u32(); CrashSignal escapes are caught and recorded.
  using Target = std::function<void(SymCtx&)>;
  /// Optional observer invoked after every execution (for live dashboards
  /// and the exploration benches).
  using Observer = std::function<void(const SymCtx&, const util::Bytes&)>;

  ConcolicEngine(Target target, EngineOptions options = {});

  void add_seed(util::Bytes seed);
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Attaches a solver memo (explore::SolverCache) so identical branch
  /// negations are solved once across executions, episodes and clones.
  void set_solver_memo(SolverMemo* memo) noexcept { solver_.set_memo(memo); }

  /// Runs until budgets are exhausted or the queue drains.
  [[nodiscard]] RunResult run();

  /// Same, but with this call's execution budget overriding the options
  /// (incremental batch exploration: queue/coverage persist across calls).
  [[nodiscard]] RunResult run(std::uint32_t max_executions);

  [[nodiscard]] bool queue_empty() const noexcept { return queue_.empty(); }

  /// Executes exactly one input, recording stats/coverage. Exposed for
  /// deterministic unit tests and for DiCE's per-input exploration loop.
  void execute_one(const util::Bytes& input, RunResult& result);

 private:
  struct WorkItem {
    util::Bytes input;
    std::uint32_t bound = 0;   // generation bound: only negate branches >= bound
    std::uint64_t score = 0;   // higher = explored earlier
    std::uint64_t sequence = 0;  // FIFO tie-break for determinism
    bool operator<(const WorkItem& other) const noexcept {
      if (score != other.score) return score < other.score;
      return sequence > other.sequence;
    }
  };

  void expand(const SymCtx& ctx, const WorkItem& item, RunResult& result);
  [[nodiscard]] bool remember_input(const util::Bytes& input);

  Target target_;
  EngineOptions options_;
  Solver solver_;
  Observer observer_;
  std::priority_queue<WorkItem> queue_;
  std::unordered_set<std::uint64_t> seen_inputs_;
  std::unordered_set<std::uint64_t> seen_paths_;
  std::unordered_set<std::uint64_t> seen_branches_;  // (site, taken) hashes
  std::unordered_set<std::uint64_t> seen_crash_sigs_;
  std::uint64_t sequence_ = 0;
};

}  // namespace dice::concolic
