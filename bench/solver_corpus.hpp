// A corpus of real solver queries: the prefix+negation conjunctions that
// ConcolicEngine::expand hands the solver while exploring the BGP UPDATE
// handler of a live router, kept together with the expression pool each
// one was built over so the whole sequence can be replayed against a fresh
// Solver in the engine's own order (the Solver's search RNG persists across
// queries, so the order is part of the result).
//
// Shared by bench_solver (µs/query on the replay) and concolic_solver_test
// (which pins the replay's model hash).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bgp/sym_update.hpp"
#include "bgp/topology.hpp"
#include "concolic/engine.hpp"
#include "dice/system.hpp"
#include "fuzz/bgp_grammar.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dice::bench {

/// A SolverMemo that never answers: it logs every key the solver looks up
/// and whether the solver then stored its result (a model, or a proven
/// UNSAT — the `definitive` flag).
class RecordingMemo final : public concolic::SolverMemo {
 public:
  struct Entry {
    std::uint64_t key = 0;
    bool stored = false;
  };

  bool lookup(std::uint64_t key, std::optional<util::Bytes>& /*result*/) override {
    entries.push_back(Entry{key, false});
    return false;
  }
  void store(std::uint64_t /*key*/, const std::optional<util::Bytes>& /*result*/) override {
    entries.back().stored = true;
  }

  std::vector<Entry> entries;
};

/// One engine execution and the branches expand() negated on it: queries
/// negate branches [first_negated, first_negated + queries), each keeping
/// the branches before it as recorded.
struct RecordedExecution {
  concolic::SymCtx ctx;
  std::size_t first_negated = 0;
  std::size_t queries = 0;
};

struct QueryCorpus {
  std::vector<RecordedExecution> executions;
  std::size_t queries = 0;
};

/// Calls `visit(pool, constraints, hint)` for every query in engine order.
template <typename Visit>
void for_each_query(const QueryCorpus& corpus, Visit&& visit) {
  std::vector<concolic::Constraint> prefix;
  for (const RecordedExecution& execution : corpus.executions) {
    const auto& records = execution.ctx.path().records();
    prefix.clear();
    for (std::size_t i = 0; i < execution.first_negated; ++i) {
      prefix.push_back(concolic::Constraint{records[i].cond, records[i].taken});
    }
    for (std::size_t i = execution.first_negated;
         i < execution.first_negated + execution.queries; ++i) {
      prefix.push_back(concolic::Constraint{records[i].cond, !records[i].taken});
      visit(execution.ctx.pool(), std::span<const concolic::Constraint>(prefix),
            execution.ctx.input());
      prefix.back().require = records[i].taken;
    }
  }
}

/// Explores `explorer`'s UPDATE handler in `live` the way
/// core::ConcolicStrategy does (first neighbor's import policy, the
/// loc-rib as current best, six strict grammar seeds) for `executions`
/// engine executions, and records every solver query it makes. Throws if a
/// recorded query's key does not match the conjunction rebuilt for it.
inline QueryCorpus record_corpus(const core::System& live, sim::NodeId explorer,
                                 std::uint32_t executions) {
  const bgp::NodeImplementation& router = live.router(explorer);
  const bgp::RouterConfig config = router.config();
  bgp::SymHandlerEnv env;
  env.config = &config;
  env.neighbor_index = 0;
  for (const auto& [prefix, route] : router.loc_rib().table()) {
    env.current_best[prefix] = bgp::CurrentBest{
        route.attrs.effective_local_pref(),
        static_cast<std::uint32_t>(route.attrs.as_path.selection_length())};
  }

  const concolic::EngineOptions options;
  concolic::ConcolicEngine engine(
      [&env](concolic::SymCtx& ctx) { (void)bgp::sym_handle_update(ctx, env); }, options);
  RecordingMemo memo;
  engine.set_solver_memo(&memo);
  QueryCorpus corpus;
  std::vector<std::size_t> first_entry;
  engine.set_observer([&](const concolic::SymCtx& ctx, const util::Bytes&) {
    corpus.executions.push_back(RecordedExecution{ctx, 0, 0});
    first_entry.push_back(memo.entries.size());
  });

  util::Rng rng(0xc0c0);
  const fuzz::BgpUpdateGrammar grammar(fuzz::BgpGrammarSeeds::from_config(config),
                                       /*strict=*/true);
  for (int i = 0; i < 6; ++i) engine.add_seed(grammar.generate_body(rng, 0.02));
  (void)engine.run(executions);

  // expand() negates every branch from the work item's generation bound to
  // the fan-out cap, one query each, so the bound follows from the count.
  first_entry.push_back(memo.entries.size());
  for (std::size_t e = 0; e < corpus.executions.size(); ++e) {
    RecordedExecution& execution = corpus.executions[e];
    const std::size_t limit = std::min<std::size_t>(execution.ctx.path().size(),
                                                    options.max_branches_per_exec);
    execution.queries = first_entry[e + 1] - first_entry[e];
    execution.first_negated = limit - execution.queries;
    corpus.queries += execution.queries;
  }
  std::size_t index = 0;
  for_each_query(corpus, [&](const concolic::ExprPool& pool,
                             std::span<const concolic::Constraint> constraints,
                             const util::Bytes&) {
    if (concolic::constraints_key(pool, constraints) != memo.entries[index++].key) {
      throw std::runtime_error("solver corpus: recorded key does not match its query");
    }
  });
  return corpus;
}

struct ReplayResult {
  std::uint64_t model_hash = util::kFnvOffset;  ///< keys, models and definitive flags
  std::uint64_t sat = 0;
  std::uint64_t definitive_unsat = 0;
  concolic::SolverStats stats;
};

/// Solves every query of `corpus` in order with one fresh default Solver.
inline ReplayResult replay_corpus(const QueryCorpus& corpus) {
  concolic::Solver solver;
  RecordingMemo memo;
  solver.set_memo(&memo);
  ReplayResult out;
  for_each_query(corpus, [&](const concolic::ExprPool& pool,
                             std::span<const concolic::Constraint> constraints,
                             const util::Bytes& hint) {
    const std::optional<util::Bytes> model = solver.solve(pool, constraints, hint);
    const RecordingMemo::Entry& entry = memo.entries.back();
    out.model_hash = util::hash_mix(out.model_hash, entry.key);
    out.model_hash = util::hash_mix(out.model_hash, entry.stored ? 1 : 0);
    out.model_hash = util::hash_mix(out.model_hash, model ? 1 : 0);
    if (model) out.model_hash = util::hash_mix(out.model_hash, util::fnv1a(*model));
    if (model) {
      ++out.sat;
    } else if (entry.stored) {
      ++out.definitive_unsat;
    }
  });
  out.model_hash = util::hash_finalize(out.model_hash);
  out.stats = solver.stats();
  return out;
}

}  // namespace dice::bench
