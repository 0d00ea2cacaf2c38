// Shared pieces of the perfbench binary: timing, summary statistics, the
// result line, the span recorder of the traced run, and the planted-fault
// expectations every workload checks its outputs against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dice/inputs.hpp"
#include "dice/report.hpp"
#include "explore/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process, and of the largest child it reaped.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double peak_child_rss_mb();

[[nodiscard]] std::string hex64(std::uint64_t value);

// ---------------------------------------------------------------------------
// Result line and accounting.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Operation accounting printed before the result line. An "operation" is
/// one cell of one round (matrix workloads) or one service round
/// (daemon-restart); `failed` counts cells that did not complete, shards
/// lost, and restarts that did not start warm or hit a store-load error.
struct Accounting {
  std::size_t cells_attempted = 0;
  std::size_t cells_completed = 0;
  std::size_t clones_expected = 0;
  std::size_t clones_run = 0;
  std::size_t shard_attempts = 0;
  std::size_t shard_redeals = 0;
  std::size_t shard_losses = 0;
  std::size_t restarts_attempted = 0;
  std::size_t restarts_warm = 0;
  std::size_t store_load_errors = 0;
  std::size_t rounds = 0;

  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] std::string to_json() const;
};

/// What one run reports. `errors` holds every failed output check; a run
/// with any error is not correct.
struct RunReport {
  std::map<std::string, Metric> metrics;
  Accounting accounting;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string message) { errors.push_back(std::move(message)); }
  [[nodiscard]] bool correct() const { return errors.empty(); }
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_line() const;
};

// ---------------------------------------------------------------------------
// Planted faults: ground truth known from how a scenario was constructed.
// ---------------------------------------------------------------------------

struct Expectation {
  enum class Kind { kCrash, kHijack, kOscillation };
  std::string scenario;
  Kind kind = Kind::kCrash;
  dice::sim::NodeId node = 0;      ///< kCrash: the node carrying the parser bug
  dice::sim::NodeId victim = 0;    ///< kHijack
  dice::sim::NodeId attacker = 0;  ///< kHijack
  std::string label;               ///< for messages ("kMedOverflow@0", ...)
};

/// Whether `fault` is the report the planted fault must produce:
///   kCrash        programming-error `crash` fault at the planted node;
///   kHijack       non-potential operator-mistake `route-origin` fault on the
///                 victim's prefix, naming attacker and victim ASes;
///   kOscillation  policy-conflict `oscillation` fault.
[[nodiscard]] bool matches(const Expectation& expectation, const dice::core::FaultReport& fault);

/// One cell's faults as the canonical observer stream delivered them.
struct CellFaults {
  std::string scenario;
  std::string implementation;
  std::uint64_t seed = 0;
  bool completed = false;
  std::vector<dice::core::FaultReport> faults;
};

/// Checks every completed cell of a planted scenario reports its planted
/// faults; appends one message per miss to `errors`.
void check_planted(const std::vector<CellFaults>& cells,
                   const std::vector<Expectation>& expectations,
                   std::vector<std::string>& errors);

/// Observer collecting per-cell faults and clone counts, indexed by
/// canonical cell index (so it works on either stream).
class CollectingObserver final : public dice::explore::CampaignObserver {
 public:
  explicit CollectingObserver(std::size_t cells) : cells_(cells) {}
  void on_cell_start(const dice::explore::CellDescriptor& cell) override;
  void on_fault(const dice::explore::CellDescriptor& cell,
                const dice::core::FaultReport& fault) override;
  void on_cell_done(const dice::explore::CellDescriptor& cell,
                    const dice::explore::CellResult& result) override;
  [[nodiscard]] const std::vector<CellFaults>& cells() const { return cells_; }
  [[nodiscard]] std::size_t clones() const { return clones_; }

 private:
  std::vector<CellFaults> cells_;
  std::size_t clones_ = 0;
};

/// Forwards every event to two observers (a campaign takes one per stream).
class TeeObserver final : public dice::explore::CampaignObserver {
 public:
  TeeObserver(dice::explore::CampaignObserver* first, dice::explore::CampaignObserver* second)
      : first_(first), second_(second) {}
  void on_cell_start(const dice::explore::CellDescriptor& cell) override {
    first_->on_cell_start(cell);
    second_->on_cell_start(cell);
  }
  void on_fault(const dice::explore::CellDescriptor& cell,
                const dice::core::FaultReport& fault) override {
    first_->on_fault(cell, fault);
    second_->on_fault(cell, fault);
  }
  void on_cell_done(const dice::explore::CellDescriptor& cell,
                    const dice::explore::CellResult& result) override {
    first_->on_cell_done(cell, result);
    second_->on_cell_done(cell, result);
  }

 private:
  dice::explore::CampaignObserver* first_;
  dice::explore::CampaignObserver* second_;
};

/// Detection clock: counts the (cell, expectation) pairs still unseen and
/// records when the last one was delivered. Serialized by its own mutex so
/// it can sit on the wall-clock observer stream.
class DetectionObserver final : public dice::explore::CampaignObserver {
 public:
  explicit DetectionObserver(const std::vector<Expectation>* expectations)
      : expectations_(expectations) {}
  void arm(Clock::time_point start, std::size_t pending);
  void on_fault(const dice::explore::CellDescriptor& cell,
                const dice::core::FaultReport& fault) override;
  /// Seconds from arm() until every planted fault was delivered; negative
  /// while some are still missing.
  [[nodiscard]] double detect_s() const;

 private:
  const std::vector<Expectation>* expectations_;
  mutable std::mutex mutex_;
  Clock::time_point start_{};
  std::size_t pending_ = 0;
  std::map<std::pair<std::size_t, std::size_t>, bool> seen_;
  double detect_s_ = -1.0;
};

/// Number of (cell, expectation) pairs a cell space holds.
[[nodiscard]] std::size_t planted_pairs(const std::vector<dice::explore::ScenarioSpec>& scenarios,
                                        const dice::explore::MatrixOptions& options,
                                        const std::vector<Expectation>& expectations);

// ---------------------------------------------------------------------------
// Span recorder for the traced run: spans kept in memory, written out once
// as a Chrome trace.
// ---------------------------------------------------------------------------

class SpanRecorder {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t thread = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  SpanRecorder() : origin_(Clock::now()) {}
  [[nodiscard]] std::uint64_t open(const char* name);
  void close(std::uint64_t id);
  /// The calling thread's lane in the trace file.
  static void set_thread(std::uint32_t thread);
  [[nodiscard]] std::vector<Record> records() const;
  /// Chrome trace-event JSON ("X" complete events, parent in args).
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a null recorder records nothing.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->open(name) : 0) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
};

/// InputStrategy wrapper that times (and spans) input generation — the
/// only way to see strategy cost from outside the orchestrator.
class TimedStrategy final : public dice::core::InputStrategy {
 public:
  TimedStrategy(dice::core::InputStrategy& inner, SpanRecorder* recorder, const char* span)
      : inner_(inner), recorder_(recorder), span_(span) {}
  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  void on_episode(const dice::core::System& live, dice::sim::NodeId explorer) override;
  [[nodiscard]] std::vector<dice::util::Bytes> next_batch(std::size_t n) override;
  [[nodiscard]] double busy_ms() const { return busy_ms_; }

 private:
  dice::core::InputStrategy& inner_;
  SpanRecorder* recorder_;
  const char* span_;
  double busy_ms_ = 0.0;
};

}  // namespace perfbench
