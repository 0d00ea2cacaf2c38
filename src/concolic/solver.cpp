#include "concolic/solver.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/hash.hpp"

namespace dice::concolic {

namespace {

/// Values that frequently flip branch predicates (boundary values).
constexpr std::uint8_t kInterestingBytes[] = {0, 1, 2, 4, 7, 8, 15, 16, 24, 31, 32,
                                              63, 64, 100, 127, 128, 192, 200, 254, 255};

/// Recognizes a (possibly zero-extended/truncated) bare input byte.
[[nodiscard]] std::optional<std::uint32_t> as_bare_sym_byte(const ExprPool& pool,
                                                            ExprRef ref) {
  const ExprNode* cur = &pool.node(ref);
  while (cur->op == Op::kZext || cur->op == Op::kTrunc) cur = &pool.node(cur->a);
  if (cur->op == Op::kSym) return static_cast<std::uint32_t>(cur->value);
  return std::nullopt;
}

[[nodiscard]] std::optional<std::uint64_t> as_constant(const ExprPool& pool, ExprRef ref) {
  const ExprNode& node = pool.node(ref);
  if (node.op == Op::kConst) return node.value;
  return std::nullopt;
}

/// Pool-independent structural hash of an expression DAG. `memo` collapses
/// shared subtrees so the walk is linear in distinct nodes.
std::uint64_t structural_hash(const ExprPool& pool, ExprRef ref,
                              std::unordered_map<ExprRef, std::uint64_t>& memo) {
  if (ref == kNullExpr) return 0x9e3779b97f4a7c15ULL;
  if (auto it = memo.find(ref); it != memo.end()) return it->second;
  const ExprNode& node = pool.node(ref);
  std::uint64_t h = util::hash_mix(util::kFnvOffset, static_cast<std::uint64_t>(node.op));
  h = util::hash_mix(h, node.width);
  // `value` is semantic for constants, input-byte leaves and extract
  // offsets; for kIte it is a third child reference and must be hashed
  // structurally; for everything else it is unused.
  if (node.op == Op::kConst || node.op == Op::kSym || node.op == Op::kExtract) {
    h = util::hash_mix(h, node.value);
  }
  h = util::hash_mix(h, structural_hash(pool, node.a, memo));
  h = util::hash_mix(h, structural_hash(pool, node.b, memo));
  if (node.op == Op::kIte) {
    h = util::hash_mix(h, structural_hash(pool, static_cast<ExprRef>(node.value), memo));
  }
  memo.emplace(ref, h);
  return h;
}

}  // namespace

std::uint64_t constraints_key(const ExprPool& pool, std::span<const Constraint> constraints) {
  std::unordered_map<ExprRef, std::uint64_t> memo;
  std::uint64_t h = util::kFnvOffset;
  for (const Constraint& c : constraints) {
    h = util::hash_mix(h, structural_hash(pool, c.cond, memo));
    h = util::hash_mix(h, c.require ? 1 : 0);
  }
  return util::hash_finalize(h);
}

bool Solver::propagate_intervals(
    const ExprPool& pool, std::span<const Constraint> constraints,
    std::unordered_map<std::uint32_t, ByteInterval>& intervals) const {
  const auto narrow_lo = [&](std::uint32_t byte, std::uint32_t lo) {
    ByteInterval& iv = intervals[byte];
    iv.lo = std::max(iv.lo, lo);
    return !iv.empty();
  };
  const auto narrow_hi = [&](std::uint32_t byte, std::uint32_t hi) {
    ByteInterval& iv = intervals[byte];
    iv.hi = std::min(iv.hi, hi);
    return !iv.empty();
  };

  for (const Constraint& c : constraints) {
    const ExprNode& node = pool.node(c.cond);
    if (node.op != Op::kEq && node.op != Op::kNe && node.op != Op::kUlt &&
        node.op != Op::kUle) {
      continue;  // only flat comparisons feed the interval domain
    }
    // Normalize to (sym CMP const) or (const CMP sym).
    auto sym_lhs = as_bare_sym_byte(pool, node.a);
    auto cst_rhs = as_constant(pool, node.b);
    auto cst_lhs = as_constant(pool, node.a);
    auto sym_rhs = as_bare_sym_byte(pool, node.b);

    if (sym_lhs && cst_rhs) {
      const std::uint32_t byte = *sym_lhs;
      const std::uint64_t k = *cst_rhs;
      switch (node.op) {
        case Op::kEq:
          if (c.require) {
            if (k > 0xff) return false;  // byte can never equal k
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          // !require (x != k): not representable as one interval; skip.
          break;
        case Op::kNe:
          if (!c.require) {  // x == k required
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          break;
        case Op::kUlt:  // x < k
          if (c.require) {
            if (k == 0) return false;
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 256) - 1))) {
              return false;
            }
          } else {  // x >= k
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k))) return false;
          }
          break;
        case Op::kUle:  // x <= k
          if (c.require) {
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 255)))) {
              return false;
            }
          } else {  // x > k
            if (k >= 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k + 1))) return false;
          }
          break;
        default:
          break;
      }
    } else if (cst_lhs && sym_rhs) {
      const std::uint32_t byte = *sym_rhs;
      const std::uint64_t k = *cst_lhs;
      switch (node.op) {
        case Op::kEq:
          if (c.require) {
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          break;
        case Op::kNe:
          if (!c.require) {
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          break;
        case Op::kUlt:  // k < x
          if (c.require) {
            if (k >= 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k + 1))) return false;
          } else {  // k >= x, i.e. x <= k
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 255)))) {
              return false;
            }
          }
          break;
        case Op::kUle:  // k <= x
          if (c.require) {
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k))) return false;
          } else {  // k > x, i.e. x < k
            if (k == 0) return false;
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 256) - 1))) {
              return false;
            }
          }
          break;
        default:
          break;
      }
    }
  }
  return true;
}

std::optional<util::Bytes> Solver::solve(const ExprPool& pool,
                                         std::span<const Constraint> constraints,
                                         const util::Bytes& hint) {
  ++stats_.queries;
  if (memo_ == nullptr) {
    bool definitive = false;
    return solve_impl(pool, constraints, hint, definitive);
  }
  const std::uint64_t key = constraints_key(pool, constraints);
  std::optional<util::Bytes> cached;
  if (memo_->lookup(key, cached)) {
    ++stats_.cache_hits;
    if (cached) {
      ++stats_.sat;
    } else {
      ++stats_.unsat_or_unknown;
    }
    return cached;
  }
  bool definitive = false;
  std::optional<util::Bytes> result = solve_impl(pool, constraints, hint, definitive);
  if (result || definitive) {
    memo_->store(key, result);
    ++stats_.cache_stores;
  }
  return result;
}

std::optional<util::Bytes> Solver::solve_impl(const ExprPool& pool,
                                              std::span<const Constraint> constraints,
                                              const util::Bytes& hint, bool& definitive) {
  definitive = false;

  // Lower the conjunction once and evaluate it once on the hint; every
  // later stage re-runs only the slice its candidates can change.
  program_.clear();
  conjuncts_.clear();
  failing_.clear();
  for (const Constraint& c : constraints) {
    conjuncts_.push_back(Conjunct{program_.lower(pool, c.cond), c.require, false});
  }
  program_.run(hint);
  stats_.evaluations += conjuncts_.size();
  for (std::uint32_t k = 0; k < conjuncts_.size(); ++k) {
    conjuncts_[k].holds_on_hint = holds(conjuncts_[k]);
    if (!conjuncts_[k].holds_on_hint) failing_.push_back(k);
  }
  if (failing_.empty()) {
    ++stats_.sat;
    ++stats_.hint_hits;
    return hint;
  }

  if (options_.enable_inversion) {
    if (auto direct = try_inversion(pool, constraints, hint)) {
      ++stats_.sat;
      ++stats_.inversion_hits;
      return direct;
    }
  }

  // Determine which input bytes the *unsatisfied* constraints depend on;
  // only those need to change (the rest already satisfy their conjuncts,
  // though mutations may break them — every candidate is checked against
  // each conjunct that reads a changed byte).
  std::vector<std::uint32_t> roots;
  roots.reserve(failing_.size());
  for (const std::uint32_t k : failing_) roots.push_back(conjuncts_[k].root);
  std::vector<std::uint32_t> involved;
  program_.reads(roots, involved);
  // Bytes beyond the hint length read as zero and cannot be assigned. A
  // longer hint could still reach them, so length-truncated failures are
  // never definitive (memoizable) UNSAT proofs.
  const std::size_t involved_before_truncation = involved.size();
  std::erase_if(involved, [&](std::uint32_t i) { return i >= hint.size(); });
  const bool truncated = involved.size() != involved_before_truncation;
  if (involved.empty()) {
    ++stats_.unsat_or_unknown;
    return std::nullopt;
  }

  // Interval pre-pass: each derived bound is a necessary condition, so an
  // empty intersection proves the conjunction unsatisfiable without any
  // candidate evaluation — for every assignment, of any length.
  std::unordered_map<std::uint32_t, ByteInterval> intervals;
  if (!propagate_intervals(pool, constraints, intervals)) {
    ++stats_.interval_unsat;
    ++stats_.unsat_or_unknown;
    definitive = true;
    return std::nullopt;
  }

  if (options_.enable_exhaustive && involved.size() <= options_.max_exhaustive_bytes) {
    if (auto found = try_exhaustive(hint, involved, intervals)) {
      ++stats_.sat;
      ++stats_.exhaustive_hits;
      return found;
    }
    ++stats_.unsat_or_unknown;
    // Enumeration varied only the failing constraints' bytes, pinning every
    // other byte to this hint's value. That is a proof of unsatisfiability
    // (memoizable across hints) only when the *whole* conjunction depends
    // on nothing but the enumerated bytes — a currently-satisfied
    // constraint over an un-enumerated byte could flip under a different
    // assignment and open a solution this enumeration never visited.
    if (!truncated) {
      definitive = true;
      for (std::uint32_t slot = 0; slot < program_.size(); ++slot) {
        const Instr& in = program_.instr(slot);
        if (in.op == Op::kSym &&
            !std::binary_search(involved.begin(), involved.end(), in.imm)) {
          definitive = false;
          break;
        }
      }
    }
    return std::nullopt;
  }

  if (options_.enable_search) {
    if (auto found = try_search(hint, involved)) {
      ++stats_.sat;
      ++stats_.search_hits;
      return found;
    }
  }
  ++stats_.unsat_or_unknown;
  return std::nullopt;
}

bool Solver::all_hold(std::span<const std::uint32_t> conjuncts) {
  for (const std::uint32_t k : conjuncts) {
    ++stats_.evaluations;
    if (!holds(conjuncts_[k])) return false;
  }
  return true;
}

void Solver::focus(std::span<const std::uint32_t> bytes) {
  program_.dependence(bytes, deps_);
  slice_.clear();
  for (std::uint32_t slot = 0; slot < deps_.size(); ++slot) {
    if (deps_[slot] != 0) slice_.push_back(slot);
  }
  // A conjunct that fails on the hint stays live even off the slice: its
  // register keeps the hint value, so it keeps failing every candidate and
  // adds its hint distance at its own position.
  live_.clear();
  for (std::uint32_t k = 0; k < conjuncts_.size(); ++k) {
    if (deps_[conjuncts_[k].root] != 0 || !conjuncts_[k].holds_on_hint) live_.push_back(k);
  }
}

double Solver::distance(std::uint32_t slot, bool require) const {
  const Instr& in = program_.instr(slot);
  const std::uint64_t a = program_.reg(in.a);
  const std::uint64_t b = program_.reg(in.b);
  const double diff = a > b ? static_cast<double>(a - b) : static_cast<double>(b - a);
  // Classic branch-distance metric from search-based software testing.
  switch (in.op) {
    case Op::kEq:
      return require ? diff : (a == b ? 1.0 : 0.0);
    case Op::kNe:
      return require ? (a != b ? 0.0 : 1.0) : diff;
    case Op::kUlt:
      if (require) return a < b ? 0.0 : static_cast<double>(a - b) + 1.0;
      return a >= b ? 0.0 : static_cast<double>(b - a);
    case Op::kUle:
      if (require) return a <= b ? 0.0 : static_cast<double>(a - b);
      return a > b ? 0.0 : static_cast<double>(b - a) + 1.0;
    case Op::kBoolAnd:
      if (require) return distance(in.a, true) + distance(in.b, true);
      return std::min(distance(in.a, false), distance(in.b, false));
    case Op::kBoolOr:
      if (require) return std::min(distance(in.a, true), distance(in.b, true));
      return distance(in.a, false) + distance(in.b, false);
    case Op::kBoolNot:
      return distance(in.a, !require);
    default:
      return (program_.reg(slot) != 0) == require ? 0.0 : 1.0;
  }
}

double Solver::total_distance(const util::Bytes& candidate) {
  program_.run(slice_, candidate);
  // Conjuncts outside the focus hold and would add log1p(0) = 0.0, so
  // summing the live conjuncts in constraint order gives the full sum bit
  // for bit.
  double total = 0.0;
  for (const std::uint32_t k : live_) {
    ++stats_.evaluations;
    // log1p keeps one huge conjunct from drowning progress on the others.
    total += std::log1p(distance(conjuncts_[k].root, conjuncts_[k].require));
  }
  return total;
}

std::optional<util::Bytes> Solver::try_inversion(const ExprPool& pool,
                                                 std::span<const Constraint> constraints,
                                                 const util::Bytes& hint) {
  // Fast path: exactly one failing constraint of shape byte-expr ⊕ const
  // where the byte expression is a bare (possibly zero-extended) input byte.
  if (failing_.size() != 1) return std::nullopt;
  const Constraint& failing = constraints[failing_[0]];
  const ExprNode& n = pool.node(failing.cond);
  if (n.op != Op::kEq && n.op != Op::kNe) return std::nullopt;

  std::optional<std::uint32_t> sym = as_bare_sym_byte(pool, n.a);
  std::optional<std::uint64_t> cst = as_constant(pool, n.b);
  if (!sym || !cst) {
    sym = as_bare_sym_byte(pool, n.b);
    cst = as_constant(pool, n.a);
  }
  if (!sym || !cst || *sym >= hint.size() || *cst > 0xff) return std::nullopt;

  util::Bytes candidate = hint;
  const bool want_equal = (n.op == Op::kEq) == failing.require;
  if (want_equal) {
    candidate[*sym] = static_cast<std::uint8_t>(*cst);
  } else {
    candidate[*sym] = static_cast<std::uint8_t>((*cst + 1) & 0xff);
  }
  // This leaves the byte's slice holding the candidate's values. Every
  // later stage focuses on the failing conjunct's bytes, which include this
  // one, and re-runs its slice before reading any of those registers.
  focus(std::span<const std::uint32_t>(&*sym, 1));
  program_.run(slice_, candidate);
  if (all_hold(live_)) return candidate;  // the one failing conjunct is live
  return std::nullopt;
}

std::optional<util::Bytes> Solver::try_exhaustive(
    const util::Bytes& hint, const std::vector<std::uint32_t>& involved,
    const std::unordered_map<std::uint32_t, ByteInterval>& intervals) {
  // Each interval is a necessary condition, so values outside it are never
  // a hit and skipping them cannot move the first one.
  const auto interval = [&](std::uint32_t byte) {
    const auto it = intervals.find(byte);
    return it == intervals.end() ? ByteInterval{} : it->second;
  };
  focus(involved);
  util::Bytes candidate = hint;
  const auto hit = [&] {
    program_.run(slice_, candidate);
    return all_hold(live_);
  };
  const std::uint32_t i = involved[0];
  const ByteInterval range_i = interval(i);
  if (involved.size() == 1) {
    for (std::uint32_t v = range_i.lo; v <= range_i.hi; ++v) {
      candidate[i] = static_cast<std::uint8_t>(v);
      if (hit()) return candidate;
    }
    return std::nullopt;
  }

  // Two bytes: a boundary-biased square first, then the full square, each
  // row-major.
  const std::uint32_t j = involved[1];
  const ByteInterval range_j = interval(j);
  for (const std::uint8_t vi : kInterestingBytes) {
    if (!range_i.contains(vi)) continue;
    for (const std::uint8_t vj : kInterestingBytes) {
      if (!range_j.contains(vj)) continue;
      candidate[i] = vi;
      candidate[j] = vj;
      if (hit()) return candidate;
    }
  }
  for (std::uint32_t vi = range_i.lo; vi <= range_i.hi; ++vi) {
    for (std::uint32_t vj = range_j.lo; vj <= range_j.hi; ++vj) {
      candidate[i] = static_cast<std::uint8_t>(vi);
      candidate[j] = static_cast<std::uint8_t>(vj);
      if (hit()) return candidate;
    }
  }
  return std::nullopt;
}

std::optional<util::Bytes> Solver::try_search(const util::Bytes& hint,
                                              const std::vector<std::uint32_t>& involved) {
  const std::uint32_t per_restart = options_.search_budget / std::max(1U, options_.restarts);
  focus(involved);
  util::Bytes current;
  util::Bytes candidate;
  for (std::uint32_t restart = 0; restart < options_.restarts; ++restart) {
    current = hint;
    if (restart > 0) {
      // Later restarts scramble the involved bytes to escape local minima.
      for (std::uint32_t i : involved) current[i] = rng_.byte();
    }
    double best = total_distance(current);
    if (best == 0.0 && all_hold(live_)) return current;

    for (std::uint32_t step = 0; step < per_restart; ++step) {
      candidate = current;
      const std::uint32_t idx = involved[rng_.below(involved.size())];
      switch (rng_.below(4)) {
        case 0:
          candidate[idx] = kInterestingBytes[rng_.below(std::size(kInterestingBytes))];
          break;
        case 1:
          candidate[idx] = rng_.byte();
          break;
        case 2: {
          const int delta = static_cast<int>(rng_.range(1, 16)) * (rng_.chance(0.5) ? 1 : -1);
          candidate[idx] = static_cast<std::uint8_t>(candidate[idx] + delta);
          break;
        }
        default: {
          // Occasionally mutate a second byte too (coupled constraints).
          const std::uint32_t idx2 = involved[rng_.below(involved.size())];
          candidate[idx] = rng_.byte();
          candidate[idx2] = rng_.byte();
          break;
        }
      }
      const double d = total_distance(candidate);
      if (d <= best) {  // accept sideways moves: plateaus are common
        best = d;
        std::swap(current, candidate);
        // The registers hold `current`'s values: verify it without a rerun.
        if (best == 0.0 && all_hold(live_)) return current;
      }
    }
  }
  return std::nullopt;
}

}  // namespace dice::concolic
