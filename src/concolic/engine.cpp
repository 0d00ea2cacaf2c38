#include "concolic/engine.hpp"

#include <utility>

#include "util/hash.hpp"
#include "util/log.hpp"

namespace dice::concolic {

namespace {

const util::Logger& logger() {
  static util::Logger instance("concolic.engine");
  return instance;
}

[[nodiscard]] std::uint64_t branch_key(BranchSite site, bool taken) noexcept {
  return util::hash_finalize((static_cast<std::uint64_t>(site) << 1) | (taken ? 1 : 0));
}

}  // namespace

std::uint64_t PathCondition::signature() const noexcept {
  std::uint64_t h = util::kFnvOffset;
  for (const BranchRecord& r : records_) {
    h = util::hash_mix(h, r.site);
    h = util::hash_mix(h, r.taken ? 1 : 0);
  }
  return util::hash_finalize(h);
}

ConcolicEngine::ConcolicEngine(Target target, EngineOptions options)
    : target_(std::move(target)), options_(options), solver_(options.solver) {}

void ConcolicEngine::add_seed(util::Bytes seed) {
  if (!remember_input(seed)) return;
  queue_.push(WorkItem{std::move(seed), 0, /*score=*/~std::uint64_t{0}, sequence_++});
}

bool ConcolicEngine::remember_input(const util::Bytes& input) {
  return seen_inputs_.insert(util::fnv1a(input)).second;
}

void ConcolicEngine::execute_one(const util::Bytes& input, RunResult& result) {
  SymCtx ctx(input);
  {
    SymScope scope(ctx);
    try {
      target_(ctx);
    } catch (const CrashSignal& signal) {
      ctx.flag_crash(signal.what);
    }
  }
  ++result.stats.executions;
  if (seen_paths_.insert(ctx.path().signature()).second) {
    ++result.stats.unique_paths;
  }
  for (const BranchRecord& r : ctx.path().records()) {
    if (seen_branches_.insert(branch_key(r.site, r.taken)).second) {
      ++result.stats.branch_points;
    }
  }
  if (ctx.crashed()) {
    const std::uint64_t sig =
        util::hash_mix(ctx.path().signature(), util::fnv1a(ctx.crash_reason()));
    if (seen_crash_sigs_.insert(sig).second) {
      ++result.stats.crashes;
      result.crashes.push_back(CrashInfo{ctx.crash_reason(), input, ctx.path().signature()});
      logger().debug() << "crash found: " << ctx.crash_reason()
                       << " input=" << util::to_hex(input);
    }
  }
  result.corpus.push_back(input);
  if (observer_) observer_(ctx, input);
}

void ConcolicEngine::expand(const SymCtx& ctx, const WorkItem& item, RunResult& result) {
  const auto& records = ctx.path().records();
  const std::size_t limit =
      std::min<std::size_t>(records.size(), options_.max_branches_per_exec);

  std::vector<Constraint> prefix;
  prefix.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    if (result.stats.generated >= options_.max_generated_inputs) break;
    if (i >= item.bound) {
      // Keep prefix [0, i) as-is and require the opposite direction at i.
      prefix.push_back(Constraint{records[i].cond, !records[i].taken});
      auto solved = solver_.solve(ctx.pool(), prefix, item.input);
      if (solved && remember_input(*solved)) {
        ++result.stats.generated;
        const bool new_branch =
            !seen_branches_.contains(branch_key(records[i].site, !records[i].taken));
        // New-coverage children explore first; deeper flips break ties.
        const std::uint64_t score = (new_branch ? (1ULL << 32) : 0) + i;
        const std::uint32_t child_bound =
            options_.generational ? static_cast<std::uint32_t>(i + 1) : 0;
        queue_.push(WorkItem{std::move(*solved), child_bound, score, sequence_++});
      }
      prefix.pop_back();
    }
    prefix.push_back(Constraint{records[i].cond, records[i].taken});
  }
}

RunResult ConcolicEngine::run(std::uint32_t max_executions) {
  const std::uint32_t saved = options_.max_executions;
  options_.max_executions = max_executions;
  RunResult result = run();
  options_.max_executions = saved;
  return result;
}

RunResult ConcolicEngine::run() {
  RunResult result;
  solver_.reset_stats();  // result.stats.solver reports this run's work only
  while (!queue_.empty() && result.stats.executions < options_.max_executions) {
    WorkItem item = queue_.top();
    queue_.pop();

    SymCtx ctx(item.input);
    {
      SymScope scope(ctx);
      try {
        target_(ctx);
      } catch (const CrashSignal& signal) {
        ctx.flag_crash(signal.what);
      }
    }
    ++result.stats.executions;
    if (seen_paths_.insert(ctx.path().signature()).second) ++result.stats.unique_paths;
    for (const BranchRecord& r : ctx.path().records()) {
      if (seen_branches_.insert(branch_key(r.site, r.taken)).second) {
        ++result.stats.branch_points;
      }
    }
    if (ctx.crashed()) {
      const std::uint64_t sig =
          util::hash_mix(ctx.path().signature(), util::fnv1a(ctx.crash_reason()));
      if (seen_crash_sigs_.insert(sig).second) {
        ++result.stats.crashes;
        result.crashes.push_back(
            CrashInfo{ctx.crash_reason(), item.input, ctx.path().signature()});
        logger().debug() << "crash found: " << ctx.crash_reason();
      }
      if (options_.stop_on_first_crash) {
        result.corpus.push_back(std::move(item.input));
        break;
      }
    }
    result.corpus.push_back(item.input);
    if (observer_) observer_(ctx, item.input);

    expand(ctx, item, result);
  }
  result.stats.solver = solver_.stats();
  return result;
}

}  // namespace dice::concolic
