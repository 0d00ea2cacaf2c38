#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bgp/topology.hpp"
#include "dice/checks.hpp"

namespace perfbench {

namespace dc = dice::core;
namespace de = dice::explore;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

double maxrss_mb(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

double peak_rss_mb() { return maxrss_mb(RUSAGE_SELF); }
double peak_child_rss_mb() { return maxrss_mb(RUSAGE_CHILDREN); }

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::size_t Accounting::attempted() const { return cells_attempted + restarts_attempted; }

std::size_t Accounting::failed() const {
  const std::size_t not_warm =
      restarts_attempted > restarts_warm ? restarts_attempted - restarts_warm : 0;
  return (cells_attempted - cells_completed) + not_warm + store_load_errors;
}

std::string Accounting::to_json() const {
  std::string out = "{";
  out += "\"rounds\":" + std::to_string(rounds);
  out += ",\"cells_attempted\":" + std::to_string(cells_attempted);
  out += ",\"cells_completed\":" + std::to_string(cells_completed);
  out += ",\"clones_expected\":" + std::to_string(clones_expected);
  out += ",\"clones_run\":" + std::to_string(clones_run);
  out += ",\"shard_attempts\":" + std::to_string(shard_attempts);
  out += ",\"shard_redeals\":" + std::to_string(shard_redeals);
  out += ",\"shard_losses\":" + std::to_string(shard_losses);
  out += ",\"restarts_attempted\":" + std::to_string(restarts_attempted);
  out += ",\"restarts_warm\":" + std::to_string(restarts_warm);
  out += ",\"store_load_errors\":" + std::to_string(store_load_errors);
  out += "}";
  return out;
}

std::string RunReport::result_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(1, accounting.attempted()));
  out += ", \"failed\": " + std::to_string(accounting.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Planted faults.
// ---------------------------------------------------------------------------

bool matches(const Expectation& expectation, const dc::FaultReport& fault) {
  switch (expectation.kind) {
    case Expectation::Kind::kCrash:
      return fault.fault_class == dc::FaultClass::kProgrammingError && fault.check == "crash" &&
             fault.node == expectation.node;
    case Expectation::Kind::kHijack: {
      if (fault.fault_class != dc::FaultClass::kOperatorMistake ||
          fault.check != "route-origin" || fault.potential) {
        return false;
      }
      const std::string prefix =
          "prefix hash " + hex64(dc::hash_prefix(dice::bgp::node_prefix(expectation.victim)));
      const std::string origins =
          "originated by AS" + std::to_string(dice::bgp::node_asn(expectation.attacker)) +
          " but owned by AS" + std::to_string(dice::bgp::node_asn(expectation.victim));
      return fault.description.find(prefix) != std::string::npos &&
             fault.description.find(origins) != std::string::npos;
    }
    case Expectation::Kind::kOscillation:
      return fault.fault_class == dc::FaultClass::kPolicyConflict &&
             fault.check == "oscillation";
  }
  return false;
}

void check_planted(const std::vector<CellFaults>& cells,
                   const std::vector<Expectation>& expectations,
                   std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellFaults& cell = cells[i];
    if (!cell.completed) continue;  // counted as a failed operation instead
    for (const Expectation& expectation : expectations) {
      if (expectation.scenario != cell.scenario) continue;
      const bool found = std::any_of(
          cell.faults.begin(), cell.faults.end(),
          [&](const dc::FaultReport& fault) { return matches(expectation, fault); });
      if (!found) {
        errors.push_back("cell " + std::to_string(i) + " (" + cell.scenario + ", seed " +
                         std::to_string(cell.seed) + ", impl '" + cell.implementation +
                         "'): planted " + expectation.label + " not reported");
      }
    }
  }
}

void CollectingObserver::on_cell_start(const de::CellDescriptor& cell) {
  CellFaults& out = cells_.at(cell.index);
  out.scenario = std::string(cell.scenario);
  out.implementation = std::string(cell.implementation);
  out.seed = cell.seed;
}

void CollectingObserver::on_fault(const de::CellDescriptor& cell, const dc::FaultReport& fault) {
  cells_.at(cell.index).faults.push_back(fault);
}

void CollectingObserver::on_cell_done(const de::CellDescriptor& cell,
                                      const de::CellResult& result) {
  cells_.at(cell.index).completed = result.completed;
  clones_ += result.clones_run;
}

void DetectionObserver::arm(Clock::time_point start, std::size_t pending) {
  const std::lock_guard<std::mutex> lock(mutex_);
  start_ = start;
  pending_ = pending;
  seen_.clear();
  detect_s_ = pending == 0 ? 0.0 : -1.0;
}

void DetectionObserver::on_fault(const de::CellDescriptor& cell, const dc::FaultReport& fault) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t e = 0; e < expectations_->size(); ++e) {
    const Expectation& expectation = (*expectations_)[e];
    if (expectation.scenario != cell.scenario || !matches(expectation, fault)) continue;
    if (!seen_.emplace(std::make_pair(cell.index, e), true).second) continue;
    if (pending_ > 0 && --pending_ == 0) detect_s_ = seconds_since(start_);
  }
}

double DetectionObserver::detect_s() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return detect_s_;
}

std::size_t planted_pairs(const std::vector<de::ScenarioSpec>& scenarios,
                          const de::MatrixOptions& options,
                          const std::vector<Expectation>& expectations) {
  std::size_t pairs = 0;
  for (const de::CellIdentity& cell : de::enumerate_cells(scenarios.size(), options)) {
    for (const Expectation& expectation : expectations) {
      if (expectation.scenario == scenarios[cell.scenario].name) ++pairs;
    }
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open_spans;
thread_local std::uint32_t t_thread = 0;
}  // namespace

void SpanRecorder::set_thread(std::uint32_t thread) { t_thread = thread; }

std::uint64_t SpanRecorder::open(const char* name) {
  Record record;
  record.name = name;
  record.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  record.thread = t_thread;
  record.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  t_open_spans.push_back(record.id);
  records_.push_back(std::move(record));
  return records_.back().id;
}

void SpanRecorder::close(std::uint64_t id) {
  const double end = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[id - 1].end_us = end;  // ids are 1-based record positions
}

std::vector<SpanRecorder::Record> SpanRecorder::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& record : records()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << record.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << record.thread << ",\"ts\":" << format_number(record.start_us)
        << ",\"dur\":" << format_number(record.end_us - record.start_us)
        << ",\"args\":{\"id\":" << record.id << ",\"parent\":" << record.parent << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void TimedStrategy::on_episode(const dc::System& live, dice::sim::NodeId explorer) {
  const Span span(recorder_, span_);
  const auto start = Clock::now();
  inner_.on_episode(live, explorer);
  busy_ms_ += ms_since(start);
}

std::vector<dice::util::Bytes> TimedStrategy::next_batch(std::size_t n) {
  const Span span(recorder_, span_);
  const auto start = Clock::now();
  std::vector<dice::util::Bytes> batch = inner_.next_batch(n);
  busy_ms_ += ms_since(start);
  return batch;
}

}  // namespace perfbench
