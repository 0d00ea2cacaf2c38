// Constraint solver for path conditions over symbolic input bytes.
//
// The solver answers: "find an input assignment under which every constraint
// in a conjunction evaluates to its required truth value", starting from a
// hint (the input of the execution whose path is being mutated — concolic
// solving is always a perturbation of a known-good assignment).
//
// Each query's conjunction is lowered once into a Program (program.hpp) and
// run once on the hint. A candidate differs from the hint only in a few
// bytes, so every later stage re-runs only the slice of instructions that
// reads those bytes: everything else keeps its hint value.
//
// Strategy, cheapest first:
//   1. verify the hint (the negated branch may already hold);
//   2. direct inversion for single-byte equalities/inequalities;
//   3. exhaustive enumeration when <=2 input bytes are involved, clamped to
//      each byte's interval;
//   4. branch-distance-guided stochastic local search (search-based testing
//      style) over the involved bytes, with random restarts.
// Every returned model was verified by concrete evaluation, so the solver
// is sound by construction (it can only be incomplete).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "concolic/expr.hpp"
#include "concolic/program.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace dice::concolic {

/// A conjunct: `cond` must evaluate to `require`.
struct Constraint {
  ExprRef cond = kNullExpr;
  bool require = true;
};

struct SolverOptions {
  std::uint32_t max_exhaustive_bytes = 2;  ///< enumerate up to 256^k assignments
  std::uint32_t search_budget = 6000;      ///< local-search candidate evaluations
  std::uint32_t restarts = 4;              ///< random restarts for local search
  std::uint64_t seed = 0x50151ca5;         ///< deterministic search stream
  // Stage toggles (ablation knobs; production keeps all enabled).
  bool enable_inversion = true;
  bool enable_exhaustive = true;
  bool enable_search = true;
};

struct SolverStats {
  std::uint64_t queries = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat_or_unknown = 0;
  std::uint64_t hint_hits = 0;        ///< solved by the hint itself
  std::uint64_t inversion_hits = 0;   ///< solved by direct inversion
  std::uint64_t exhaustive_hits = 0;  ///< solved by enumeration
  std::uint64_t search_hits = 0;      ///< solved by local search
  /// Conjunct verdicts actually computed: every conjunct once on the hint,
  /// then per candidate only the conjuncts that read the bytes being varied
  /// (a branch distance counts as one verdict; conjuncts that cannot change
  /// keep their hint verdict and are not recounted).
  std::uint64_t evaluations = 0;
  std::uint64_t interval_unsat = 0;   ///< proven unsat by interval propagation
  std::uint64_t cache_hits = 0;       ///< answered by the attached SolverMemo
  std::uint64_t cache_stores = 0;     ///< results published to the memo

  SolverStats& operator+=(const SolverStats& other) noexcept {
    queries += other.queries;
    sat += other.sat;
    unsat_or_unknown += other.unsat_or_unknown;
    hint_hits += other.hint_hits;
    inversion_hits += other.inversion_hits;
    exhaustive_hits += other.exhaustive_hits;
    search_hits += other.search_hits;
    evaluations += other.evaluations;
    interval_unsat += other.interval_unsat;
    cache_hits += other.cache_hits;
    cache_stores += other.cache_stores;
    return *this;
  }
  bool operator==(const SolverStats&) const = default;
};

/// Memoization hook for solver queries (implemented by explore::SolverCache).
/// Keys are structural hashes of the constraint conjunction, independent of
/// the ExprPool instance that built the expressions — two clones negating
/// the same branch in different episodes produce the same key. Stored
/// models were concretely verified against exactly those constraints, so a
/// hit is sound for any hint; UNSAT is only stored when proven (interval
/// contradiction or complete enumeration), never for search give-ups.
class SolverMemo {
 public:
  virtual ~SolverMemo() = default;
  /// Returns true when `key` is known; fills `result` (nullopt = proven UNSAT).
  [[nodiscard]] virtual bool lookup(std::uint64_t key, std::optional<util::Bytes>& result) = 0;
  virtual void store(std::uint64_t key, const std::optional<util::Bytes>& result) = 0;
};

/// Structural (pool-independent) hash of a constraint conjunction — the
/// SolverMemo key. Exposed for cache tests and external key computation.
[[nodiscard]] std::uint64_t constraints_key(const ExprPool& pool,
                                            std::span<const Constraint> constraints);

/// Per-byte feasible interval derived from single-byte comparisons against
/// constants. Each derived interval is a *necessary* condition of the
/// conjunction, so an empty intersection proves unsatisfiability outright,
/// and exhaustive enumeration can restrict itself to [lo, hi].
struct ByteInterval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 255;
  [[nodiscard]] bool empty() const noexcept { return lo > hi; }
  [[nodiscard]] bool contains(std::uint32_t v) const noexcept { return v >= lo && v <= hi; }
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options), rng_(options.seed) {}

  /// Finds an assignment satisfying all constraints, or nullopt. Without a
  /// memo the result always has the same size as `hint`; with one attached,
  /// a hit may return a verified model cached from a different hint (and so
  /// of a different length).
  [[nodiscard]] std::optional<util::Bytes> solve(const ExprPool& pool,
                                                 std::span<const Constraint> constraints,
                                                 const util::Bytes& hint);

  /// Attaches (or detaches, with nullptr) a query memo. Not owned.
  void set_memo(SolverMemo* memo) noexcept { memo_ = memo; }

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = SolverStats{}; }

 private:
  /// One conjunct of the current query, lowered into program_.
  struct Conjunct {
    std::uint32_t root = 0;  ///< register slot of the condition
    bool require = true;
    bool holds_on_hint = false;
  };

  /// The uncached pipeline. `definitive` is set when a nullopt result is a
  /// proof of unsatisfiability (safe to memoize) rather than a give-up.
  [[nodiscard]] std::optional<util::Bytes> solve_impl(const ExprPool& pool,
                                                      std::span<const Constraint> constraints,
                                                      const util::Bytes& hint,
                                                      bool& definitive);
  [[nodiscard]] bool holds(const Conjunct& c) const {
    return (program_.reg(c.root) != 0) == c.require;
  }
  /// Verdicts of `conjuncts` (indices, in order) on the current registers;
  /// stops at the first that fails.
  [[nodiscard]] bool all_hold(std::span<const std::uint32_t> conjuncts);
  /// Restricts evaluation to the instructions that read `bytes`
  /// (ascending) and to the conjuncts that read them or fail on the hint;
  /// every other register keeps its hint value. Registers in the slice
  /// hold whatever candidate ran last.
  void focus(std::span<const std::uint32_t> bytes);
  /// Branch distance of the condition in `slot`: 0 iff it evaluates to
  /// `require`; smaller is closer. Reads operands from the registers.
  [[nodiscard]] double distance(std::uint32_t slot, bool require) const;
  [[nodiscard]] double total_distance(const util::Bytes& candidate);
  [[nodiscard]] std::optional<util::Bytes> try_inversion(const ExprPool& pool,
                                                         std::span<const Constraint> constraints,
                                                         const util::Bytes& hint);
  [[nodiscard]] std::optional<util::Bytes> try_exhaustive(
      const util::Bytes& hint, const std::vector<std::uint32_t>& involved,
      const std::unordered_map<std::uint32_t, ByteInterval>& intervals);
  [[nodiscard]] std::optional<util::Bytes> try_search(const util::Bytes& hint,
                                                      const std::vector<std::uint32_t>& involved);
  /// Derives per-byte intervals from single-byte constraints; returns
  /// false when some byte's interval is empty (conjunction unsat).
  [[nodiscard]] bool propagate_intervals(
      const ExprPool& pool, std::span<const Constraint> constraints,
      std::unordered_map<std::uint32_t, ByteInterval>& intervals) const;

  SolverOptions options_;
  util::Rng rng_;
  SolverStats stats_;
  SolverMemo* memo_ = nullptr;

  // The current query, compiled; buffers are reused across queries.
  Program program_;
  std::vector<Conjunct> conjuncts_;
  std::vector<std::uint32_t> failing_;        ///< conjuncts failing on the hint
  std::vector<std::uint8_t> deps_;            ///< per instruction: reads a focused byte
  std::vector<std::uint32_t> slice_;          ///< instructions reading focused bytes
  std::vector<std::uint32_t> live_;           ///< conjuncts reading focused bytes
};

}  // namespace dice::concolic
