#include "explore/solver_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::explore {

namespace {

struct SolverCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& stores;
};

[[nodiscard]] SolverCacheMetrics& solver_cache_metrics() {
  static SolverCacheMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kSolverCacheHits),
      obs::MetricsRegistry::global().counter(obs::names::kSolverCacheMisses),
      obs::MetricsRegistry::global().counter(obs::names::kSolverCacheStores)};
  return metrics;
}

}  // namespace

bool SolverCache::lookup(std::uint64_t key, std::optional<util::Bytes>& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    result = it->second;
    ++hits_;
    solver_cache_metrics().hits.add();
    return true;
  }
  ++misses_;
  solver_cache_metrics().misses.add();
  return false;
}

void SolverCache::store(std::uint64_t key, const std::optional<util::Bytes>& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // First write wins: both a model and an UNSAT proof are sound, and
  // keeping the incumbent makes concurrent racing stores commutative.
  entries_.try_emplace(key, result);
  ++stores_;
  solver_cache_metrics().stores.add();
}

SolverCache::Stats SolverCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.stores = stores_;
  stats.entries = entries_.size();
  for (const auto& [key, value] : entries_) {
    if (value.has_value()) ++stats.sat_entries;
  }
  return stats;
}

std::size_t SolverCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void SolverCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace dice::explore
