// SolverCache: memoization of path-constraint solving.
//
// Concolic episodes re-derive structurally identical branch negations over
// and over — every episode rebuilds its ExprPool from scratch, and every
// clone of the same explorer walks the same UPDATE-handler branches. The
// cache keys queries by concolic::constraints_key (a pool-independent
// structural hash of the conjunction) and stores either a concretely
// verified model or a proven-UNSAT marker, so later episodes skip the
// whole solving pipeline.
//
// ScenarioMatrix gives every concolic cell a cache of its own, so a cell's
// solving history never depends on scheduling. One mutex guards the map:
// a cell's strategy generates inputs serially, so the lock is uncontended;
// it only keeps a cache shared by hand between threads safe.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "concolic/solver.hpp"
#include "util/bytes.hpp"

namespace dice::explore {

class SolverCache final : public concolic::SolverMemo {
 public:
  [[nodiscard]] bool lookup(std::uint64_t key, std::optional<util::Bytes>& result) override;
  void store(std::uint64_t key, const std::optional<util::Bytes>& result) override;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t entries = 0;
    std::uint64_t sat_entries = 0;  ///< entries holding a model (rest: proven UNSAT)
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::optional<util::Bytes>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
};

}  // namespace dice::explore
