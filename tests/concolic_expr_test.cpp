#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "concolic/expr.hpp"
#include "concolic/program.hpp"
#include "util/rng.hpp"

namespace dice::concolic {
namespace {

TEST(ExprPoolTest, ConstantsAreInterned) {
  ExprPool pool;
  const ExprRef a = pool.constant(7, 8);
  const ExprRef b = pool.constant(7, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, pool.constant(7, 16));  // width participates in identity
}

TEST(ExprPoolTest, ConstantFolding) {
  ExprPool pool;
  const ExprRef sum = pool.binary(Op::kAdd, pool.constant(200, 8), pool.constant(100, 8));
  EXPECT_EQ(pool.node(sum).op, Op::kConst);
  EXPECT_EQ(pool.node(sum).value, (200 + 100) & 0xff);  // wraps at width
}

TEST(ExprPoolTest, AlgebraicIdentities) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  EXPECT_EQ(pool.binary(Op::kAdd, x, pool.constant(0, 8)), x);
  EXPECT_EQ(pool.binary(Op::kOr, pool.constant(0, 8), x), x);
  // BoolAnd with constant true collapses to the other side.
  const ExprRef cond = pool.binary(Op::kEq, x, pool.constant(1, 8));
  EXPECT_EQ(pool.binary(Op::kBoolAnd, pool.constant(1, 1), cond), cond);
  EXPECT_EQ(pool.node(pool.binary(Op::kBoolAnd, pool.constant(0, 1), cond)).value, 0u);
}

TEST(ExprPoolTest, EvalSymAndArith) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const ExprRef y = pool.sym_byte(1);
  const ExprRef expr = pool.binary(Op::kAdd, x, pool.binary(Op::kMul, y, pool.constant(2, 8)));
  const std::vector<std::uint8_t> input{5, 10};
  EXPECT_EQ(pool.eval(expr, input), 25u);
}

TEST(ExprPoolTest, EvalOutOfRangeSymReadsZero) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(9);
  const std::vector<std::uint8_t> input{1};
  EXPECT_EQ(pool.eval(x, input), 0u);
}

TEST(ExprPoolTest, ZextTruncConcatExtract) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const ExprRef wide = pool.zext(x, 16);
  EXPECT_EQ(pool.node(wide).width, 16);
  const ExprRef back = pool.trunc(wide, 8);
  // trunc(zext(x)) is not structurally simplified, but evaluates equal.
  const std::vector<std::uint8_t> input{0xcd};
  EXPECT_EQ(pool.eval(back, input), 0xcdU);

  const ExprRef hi = pool.sym_byte(0);
  const ExprRef lo = pool.sym_byte(1);
  const ExprRef cat = pool.concat(hi, lo);
  const std::vector<std::uint8_t> in2{0x12, 0x34};
  EXPECT_EQ(pool.eval(cat, in2), 0x1234u);
  EXPECT_EQ(pool.eval(pool.extract(cat, 8, 8), in2), 0x12u);
  EXPECT_EQ(pool.eval(pool.extract(cat, 0, 8), in2), 0x34u);
}

TEST(ExprPoolTest, ComparisonsAndBools) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const ExprRef lt = pool.binary(Op::kUlt, x, pool.constant(10, 8));
  const ExprRef eq = pool.binary(Op::kEq, x, pool.constant(5, 8));
  const ExprRef both = pool.binary(Op::kBoolAnd, lt, eq);
  const std::vector<std::uint8_t> five{5};
  const std::vector<std::uint8_t> nine{9};
  EXPECT_EQ(pool.eval(both, five), 1u);
  EXPECT_EQ(pool.eval(both, nine), 0u);
}

TEST(ExprPoolTest, BoolNotPushesThroughComparisons) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const ExprRef lt = pool.binary(Op::kUlt, x, pool.constant(10, 8));
  const ExprRef not_lt = pool.bool_not(lt);
  // !(x < 10) becomes (10 <= x).
  EXPECT_EQ(pool.node(not_lt).op, Op::kUle);
  const std::vector<std::uint8_t> ten{10};
  EXPECT_EQ(pool.eval(not_lt, ten), 1u);
  // Double negation returns the original node.
  const ExprRef raw = pool.binary(Op::kBoolAnd, lt, lt);
  EXPECT_EQ(pool.bool_not(pool.bool_not(raw)), raw);
}

TEST(ExprPoolTest, IteSelectsBranch) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const ExprRef cond = pool.binary(Op::kUlt, x, pool.constant(5, 8));
  const ExprRef ite = pool.ite(cond, pool.constant(1, 8), pool.constant(2, 8));
  const std::vector<std::uint8_t> lo{0};
  const std::vector<std::uint8_t> hi{200};
  EXPECT_EQ(pool.eval(ite, lo), 1u);
  EXPECT_EQ(pool.eval(ite, hi), 2u);
}

TEST(ExprPoolTest, ShiftSemantics) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const std::vector<std::uint8_t> input{0x81};
  EXPECT_EQ(pool.eval(pool.binary(Op::kShl, x, pool.constant(1, 8)), input), 0x02u);
  EXPECT_EQ(pool.eval(pool.binary(Op::kLshr, x, pool.constant(7, 8)), input), 0x01u);
  // Shift >= width yields 0 (defined semantics, no UB).
  EXPECT_EQ(pool.eval(pool.binary(Op::kShl, x, pool.constant(8, 8)), input), 0u);
}

TEST(ExprPoolTest, DivRemByZeroDefined) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(0);
  const std::vector<std::uint8_t> input{42};
  EXPECT_EQ(pool.eval(pool.binary(Op::kUDiv, x, pool.constant(0, 8)), input), 0xffu);
  EXPECT_EQ(pool.eval(pool.binary(Op::kURem, x, pool.constant(0, 8)), input), 42u);
}

TEST(ExprPoolTest, ToStringRendersStructure) {
  ExprPool pool;
  const ExprRef expr =
      pool.binary(Op::kEq, pool.sym_byte(1), pool.constant(66, 8));
  const std::string text = pool.to_string(expr);
  EXPECT_NE(text.find("in[1]"), std::string::npos);
  EXPECT_NE(text.find("66"), std::string::npos);
  EXPECT_NE(text.find("eq"), std::string::npos);
}

// --- Program against a naive recursive evaluator ---------------------------

std::uint64_t naive_mask(std::uint64_t v, unsigned width) {
  return width >= 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}

/// Test-local oracle: evaluates the DAG by plain recursion, with the
/// operator semantics spelled out independently of the library.
std::uint64_t naive_eval(const ExprPool& pool, ExprRef ref, const std::vector<std::uint8_t>& in) {
  const ExprNode& n = pool.node(ref);
  const auto a = [&] { return naive_eval(pool, n.a, in); };
  const auto b = [&] { return naive_eval(pool, n.b, in); };
  const unsigned w = pool.node(n.a == kNullExpr ? ref : n.a).width;  // operand width
  switch (n.op) {
    case Op::kConst: return n.value;
    case Op::kSym: return n.value < in.size() ? in[n.value] : 0;
    case Op::kAdd: return naive_mask(a() + b(), w);
    case Op::kSub: return naive_mask(a() - b(), w);
    case Op::kMul: return naive_mask(a() * b(), w);
    case Op::kUDiv: return b() == 0 ? naive_mask(~std::uint64_t{0}, w) : a() / b();
    case Op::kURem: return b() == 0 ? a() : a() % b();
    case Op::kAnd: return a() & b();
    case Op::kOr: return a() | b();
    case Op::kXor: return a() ^ b();
    case Op::kShl: return b() >= w ? 0 : naive_mask(a() << b(), w);
    case Op::kLshr: return b() >= w ? 0 : a() >> b();
    case Op::kZext: return a();
    case Op::kTrunc: return naive_mask(a(), n.width);
    case Op::kConcat: return (a() << pool.node(n.b).width) | b();
    case Op::kExtract: return naive_mask(a() >> n.value, n.width);
    case Op::kEq: return a() == b();
    case Op::kNe: return a() != b();
    case Op::kUlt: return a() < b();
    case Op::kUle: return a() <= b();
    case Op::kBoolNot: return a() == 0;
    case Op::kBoolAnd: return a() != 0 && b() != 0;
    case Op::kBoolOr: return a() != 0 || b() != 0;
    case Op::kIte:
      return a() != 0 ? b() : naive_eval(pool, static_cast<ExprRef>(n.value), in);
  }
  return 0;
}

/// Builds random expressions of a requested width over input bytes 0..9
/// (the inputs are 8 bytes long, so bytes 8 and 9 read past the end).
class RandomDag {
 public:
  RandomDag(ExprPool& pool, std::uint64_t seed) : pool_(pool), rng_(seed) {}

  ExprRef make(std::uint8_t width, int depth) {
    if (depth == 0 || rng_.below(5) == 0) return leaf(width);
    if (width == 1) {
      switch (rng_.below(6)) {
        case 0: {
          static constexpr Op kCmp[] = {Op::kEq, Op::kNe, Op::kUlt, Op::kUle};
          const std::uint8_t w = any_width();
          return pool_.binary(kCmp[rng_.below(4)], make(w, depth - 1), make(w, depth - 1));
        }
        case 1: return pool_.bool_not(make(1, depth - 1));
        case 2:
          return pool_.binary(rng_.chance(0.5) ? Op::kBoolAnd : Op::kBoolOr, make(1, depth - 1),
                              make(1, depth - 1));
        case 3: return pool_.ite(make(1, depth - 1), make(1, depth - 1), make(1, depth - 1));
        case 4: {
          const std::uint8_t w = any_width();
          return pool_.extract(make(w, depth - 1), static_cast<std::uint8_t>(rng_.below(w)), 1);
        }
        default: return leaf(1);
      }
    }
    switch (rng_.below(7)) {
      case 0:
      case 1: {
        static constexpr Op kArith[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kUDiv, Op::kURem,
                                        Op::kAnd, Op::kOr,  Op::kXor, Op::kShl,  Op::kLshr};
        const Op op = kArith[rng_.below(std::size(kArith))];
        ExprRef rhs = make(width, depth - 1);
        // Shift amounts at or past the width, and zero divisors, on purpose.
        if ((op == Op::kShl || op == Op::kLshr) && rng_.chance(0.3)) {
          rhs = pool_.constant(width + rng_.below(3), width);
        } else if ((op == Op::kUDiv || op == Op::kURem) && rng_.chance(0.3)) {
          rhs = pool_.binary(Op::kAnd, rhs, pool_.constant(1, width));
        }
        return pool_.binary(op, make(width, depth - 1), rhs);
      }
      case 2:
        if (width > 8) return pool_.zext(make(narrower(width), depth - 1), width);
        return pool_.trunc(make(16, depth - 1), width);
      case 3:
        if (width < 64) return pool_.trunc(make(wider(width), depth - 1), width);
        return pool_.zext(make(32, depth - 1), width);
      case 4:
        if (width > 8) {
          const auto half = static_cast<std::uint8_t>(width / 2);
          return pool_.concat(make(half, depth - 1), make(half, depth - 1));
        }
        return pool_.extract(make(16, depth - 1), static_cast<std::uint8_t>(rng_.below(9)), 8);
      case 5: {
        const std::uint8_t source = width == 64 ? 64 : wider(width);
        const auto offset = static_cast<std::uint8_t>(rng_.below(source - width + 1));
        return pool_.extract(make(source, depth - 1), offset, width);
      }
      default:
        return pool_.ite(make(1, depth - 1), make(width, depth - 1), make(width, depth - 1));
    }
  }

 private:
  ExprRef leaf(std::uint8_t width) {
    if (rng_.below(3) == 0) return pool_.constant(rng_.next(), width);
    const ExprRef byte = pool_.sym_byte(static_cast<std::uint32_t>(rng_.below(10)));
    if (width == 1) return pool_.extract(byte, static_cast<std::uint8_t>(rng_.below(8)), 1);
    return width == 8 ? byte : pool_.zext(byte, width);
  }
  std::uint8_t any_width() {
    static constexpr std::uint8_t kWidths[] = {8, 16, 32, 64};
    return kWidths[rng_.below(4)];
  }
  std::uint8_t wider(std::uint8_t width) {
    std::uint8_t w = any_width();
    while (w <= width) w = any_width();
    return w;
  }
  std::uint8_t narrower(std::uint8_t width) {
    std::uint8_t w = any_width();
    while (w >= width) w = any_width();
    return w;
  }

  ExprPool& pool_;
  util::Rng rng_;
};

std::vector<std::uint8_t> random_input(util::Rng& rng) {
  std::vector<std::uint8_t> input(8);
  for (std::uint8_t& byte : input) {
    // Zeros and all-ones often: divisors, shift amounts and boundaries.
    const std::uint64_t pick = rng.below(4);
    byte = pick == 0 ? 0 : pick == 1 ? 0xff : rng.byte();
  }
  return input;
}

TEST(ProgramTest, MatchesNaiveRecursiveEvaluatorOnRandomDags) {
  util::Rng rng(2011);
  std::size_t checked = 0;
  std::vector<bool> seen_op(static_cast<std::size_t>(Op::kIte) + 1, false);
  for (int trial = 0; trial < 200; ++trial) {
    ExprPool pool;
    RandomDag dag(pool, 1000 + trial);
    std::vector<ExprRef> roots;
    for (const std::uint8_t width : {1, 8, 16, 32, 64, 1, 8, 64}) roots.push_back(dag.make(width, 5));
    for (std::size_t ref = 0; ref < pool.size(); ++ref) {
      seen_op[static_cast<std::size_t>(pool.node(static_cast<ExprRef>(ref)).op)] = true;
    }

    // One program over every root, shared nodes lowered once.
    Program program;
    std::vector<std::uint32_t> slots;
    for (const ExprRef root : roots) slots.push_back(program.lower(pool, root));
    const std::vector<std::uint8_t> first = random_input(rng);
    program.run(first);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      ASSERT_EQ(program.reg(slots[r]), naive_eval(pool, roots[r], first)) << pool.to_string(roots[r]);
      ASSERT_EQ(pool.eval(roots[r], first), naive_eval(pool, roots[r], first));
    }

    // Partial re-evaluation: change two bytes, re-run only the slice that
    // reads them, and every root must match a full evaluation.
    std::vector<std::uint32_t> changed = {static_cast<std::uint32_t>(rng.below(8)),
                                          static_cast<std::uint32_t>(rng.below(8))};
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    std::vector<std::uint8_t> second = first;
    for (const std::uint32_t byte : changed) second[byte] = rng.byte();
    std::vector<std::uint8_t> reads;
    program.dependence(changed, reads);
    std::vector<std::uint32_t> slice;
    for (std::uint32_t slot = 0; slot < reads.size(); ++slot) {
      if (reads[slot] != 0) slice.push_back(slot);
    }
    program.run(slice, second);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      ASSERT_EQ(program.reg(slots[r]), naive_eval(pool, roots[r], second)) << pool.to_string(roots[r]);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 200u * 8u);
  for (std::size_t op = 0; op < seen_op.size(); ++op) {
    EXPECT_TRUE(seen_op[op]) << "no random DAG used " << op_name(static_cast<Op>(op));
  }
}

TEST(ProgramTest, SharedNodesLowerOnceAndReadsFindTheirBytes) {
  ExprPool pool;
  const ExprRef x = pool.sym_byte(3);
  const ExprRef y = pool.sym_byte(7);
  const ExprRef sum = pool.binary(Op::kAdd, x, y);
  const ExprRef lt = pool.binary(Op::kUlt, sum, pool.constant(9, 8));
  const ExprRef eq = pool.binary(Op::kEq, sum, x);
  Program program;
  const std::uint32_t a = program.lower(pool, lt);
  const std::uint32_t b = program.lower(pool, eq);
  // x, y, sum, 9, lt, eq: the shared `sum` and `x` are emitted once.
  EXPECT_EQ(program.size(), 6u);
  std::vector<std::uint32_t> bytes;
  program.reads(std::vector<std::uint32_t>{a, b}, bytes);
  EXPECT_EQ(bytes, (std::vector<std::uint32_t>{3, 7}));
  std::vector<std::uint8_t> reads;
  program.dependence(std::vector<std::uint32_t>{7}, reads);
  EXPECT_EQ(reads[program.lower(pool, x)], 0u);
  EXPECT_EQ(reads[a], 1u);
  program.clear();
  EXPECT_EQ(program.size(), 0u);
  EXPECT_EQ(program.lower(pool, x), 0u);
}

}  // namespace
}  // namespace dice::concolic
