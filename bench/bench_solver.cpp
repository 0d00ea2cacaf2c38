// Solver-layer receipt: replays a corpus of real engine queries (the
// prefix+negation conjunctions ConcolicEngine::expand issued on the planted
// kCommunityLength line and on topology27's parser-bug node, 64 executions
// each; see solver_corpus.hpp) through a fresh Solver and reports
// microseconds per query, conjunct verdicts per second and, separately,
// the cost of the memo key (constraints_key) per query.
//
// Exit 1 when a corpus's replayed model hash (every query's memo key,
// model and definitive flag, in engine order) leaves its committed literal;
// there is no timing bound. Writes BENCH_solver.json to the cwd.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgp/bugs.hpp"
#include "solver_corpus.hpp"

namespace {

using namespace dice;

constexpr int kRepeats = 7;

/// Keeps the timed memo-key loop from being optimized away.
volatile std::uint64_t key_sink = 0;

struct CorpusSpec {
  const char* name;
  std::uint64_t pinned_hash;
  bench::QueryCorpus corpus;
};

bench::QueryCorpus record(bgp::SystemBlueprint blueprint, sim::NodeId explorer) {
  core::System system(std::move(blueprint));
  system.start();
  (void)system.converge();
  return bench::record_corpus(system, explorer, 64);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  std::vector<CorpusSpec> corpora;
  {
    bgp::SystemBlueprint line = bgp::make_line(3);
    bgp::inject_bug(line, /*node=*/0, bgp::bugs::kCommunityLength);
    corpora.push_back({"line3-community-length", 0xe59cbce5d6aaec39ULL, record(std::move(line), 0)});
    bgp::SystemBlueprint fig1 = bgp::make_internet();
    bgp::inject_hijack(fig1, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
    bgp::inject_bug(fig1, /*node=*/5, bgp::bugs::kCommunityLength);
    corpora.push_back({"topology27-node5", 0xd3c2538901c4689cULL, record(std::move(fig1), 5)});
  }

  std::printf("solver corpus replay: %d repeats, median reported\n\n", kRepeats);
  bench::Table table({"corpus", "queries", "sat", "definitive unsat", "us/query",
                      "verdicts/s", "key us/query", "model hash", "pinned"});
  bool all_pinned = true;
  std::uint64_t total_queries = 0;
  double total_ms = 0.0;
  double total_key_ms = 0.0;
  std::uint64_t total_verdicts = 0;
  std::string corpus_json;
  for (const CorpusSpec& spec : corpora) {
    std::vector<double> replay_ms;
    std::vector<double> key_ms;
    bench::ReplayResult result;
    bool stable = true;
    for (int r = 0; r < kRepeats; ++r) {
      const bench::Stopwatch replay_clock;
      const bench::ReplayResult run = bench::replay_corpus(spec.corpus);
      replay_ms.push_back(replay_clock.ms());
      if (r > 0 && run.model_hash != result.model_hash) stable = false;
      result = run;

      std::uint64_t keys = 0;
      const bench::Stopwatch key_clock;
      bench::for_each_query(spec.corpus, [&](const concolic::ExprPool& pool,
                                             std::span<const concolic::Constraint> constraints,
                                             const util::Bytes&) {
        keys ^= concolic::constraints_key(pool, constraints);
      });
      key_ms.push_back(key_clock.ms());
      key_sink = keys;
    }
    const double ms = median(replay_ms);
    const double kms = median(key_ms);
    const auto queries = static_cast<double>(spec.corpus.queries);
    const bool pinned = stable && result.model_hash == spec.pinned_hash;
    all_pinned = all_pinned && pinned;
    total_queries += spec.corpus.queries;
    total_ms += ms;
    total_key_ms += kms;
    total_verdicts += result.stats.evaluations;
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(result.model_hash));
    table.row({spec.name, bench::fmt_count(spec.corpus.queries), bench::fmt_count(result.sat),
               bench::fmt_count(result.definitive_unsat), bench::fmt(ms * 1000.0 / queries, 1),
               bench::fmt(static_cast<double>(result.stats.evaluations) / (ms / 1000.0), 0),
               bench::fmt(kms * 1000.0 / queries, 1), hash, pinned ? "yes" : "NO"});
    if (!corpus_json.empty()) corpus_json += ",";
    corpus_json += std::string("{\"name\":\"") + spec.name + "\",\"queries\":" +
                   std::to_string(spec.corpus.queries) +
                   ",\"us_per_query\":" + bench::fmt(ms * 1000.0 / queries, 2) +
                   ",\"key_us_per_query\":" + bench::fmt(kms * 1000.0 / queries, 2) +
                   ",\"verdicts\":" + std::to_string(result.stats.evaluations) +
                   ",\"model_hash\":\"" + hash + "\",\"model_hash_pinned\":" +
                   (pinned ? "true" : "false") + "}";
  }
  table.print();

  const double us_per_query = total_ms * 1000.0 / static_cast<double>(total_queries);
  const double verdicts_per_s = static_cast<double>(total_verdicts) / (total_ms / 1000.0);
  std::printf("\nall corpora: %.1f us/query, %.0f conjunct verdicts/s, memo key %.1f us/query\n",
              us_per_query, verdicts_per_s,
              total_key_ms * 1000.0 / static_cast<double>(total_queries));
  std::printf("replayed model hashes %s the committed literals\n",
              all_pinned ? "equal" : "DO NOT equal");
  bench::emit_json(
      "solver", std::string("{\"bench\":\"solver\",\"queries\":") + std::to_string(total_queries) +
                    ",\"us_per_query\":" + bench::fmt(us_per_query, 2) +
                    ",\"verdicts_per_s\":" + bench::fmt(verdicts_per_s, 0) +
                    ",\"key_us_per_query\":" +
                    bench::fmt(total_key_ms * 1000.0 / static_cast<double>(total_queries), 2) +
                    ",\"model_hashes_pinned\":" + (all_pinned ? "true" : "false") +
                    ",\"corpora\":[" + corpus_json + "]}");
  return all_pinned ? 0 : 1;
}
