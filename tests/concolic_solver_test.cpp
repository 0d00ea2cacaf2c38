#include <gtest/gtest.h>

#include "bgp/bugs.hpp"
#include "concolic/solver.hpp"
#include "concolic/sym.hpp"
#include "solver_corpus.hpp"

namespace dice::concolic {
namespace {

/// Helper: run `body` under a recording context on `input`, then return
/// (pool, constraints) where constraints require the SAME path.
struct Recorded {
  SymCtx ctx;
  std::vector<Constraint> constraints;

  explicit Recorded(util::Bytes input, const std::function<void()>& body)
      : ctx(std::move(input)) {
    SymScope scope(ctx);
    body();
    for (const BranchRecord& r : ctx.path().records()) {
      constraints.push_back(Constraint{r.cond, r.taken});
    }
  }
};

TEST(SolverTest, HintAlreadySatisfies) {
  Recorded rec({42}, [] { (void)branch(input_byte(0) == SymU8{42}); });
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 42);
  EXPECT_EQ(solver.stats().hint_hits, 1u);
}

TEST(SolverTest, DirectInversionOnEquality) {
  // Record path for input 0 (x != 66), then ask for the flipped branch.
  Recorded rec({0}, [] { (void)branch(input_byte(0) == SymU8{66}); });
  ASSERT_EQ(rec.constraints.size(), 1u);
  rec.constraints[0].require = !rec.constraints[0].require;  // demand x == 66

  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 66);
}

TEST(SolverTest, ExhaustiveTwoBytes) {
  // Constraint couples two bytes: in[0] + in[1] == 99 with in[0] < 10.
  Recorded rec({200, 200}, [] {
    const SymU8 a = input_byte(0);
    const SymU8 b = input_byte(1);
    (void)branch(a + b == SymU8{99});
    (void)branch(a < SymU8{10});
  });
  // Flip both to required-true.
  for (Constraint& c : rec.constraints) c.require = true;

  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  const std::uint8_t a = (*solution)[0];
  const std::uint8_t b = (*solution)[1];
  EXPECT_LT(a, 10);
  EXPECT_EQ(static_cast<std::uint8_t>(a + b), 99);
}

TEST(SolverTest, UnsatisfiableDetectedByExhaustion) {
  Recorded rec({5}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(x < SymU8{10});
    (void)branch(x > SymU8{20});
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;  // x < 10 && x > 20: impossible

  Solver solver;
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  EXPECT_EQ(solver.stats().unsat_or_unknown, 1u);
}

TEST(SolverTest, SearchSolvesMultiByte) {
  // 4 coupled bytes: the 32-bit big-endian word must be < 1000 while each
  // byte participates; exhaustive (<=2 bytes) cannot apply.
  Recorded rec({0xff, 0xff, 0xff, 0xff}, [] {
    const SymU32 word = input_u32(0);
    (void)branch(word < SymU32{1000});
  });
  rec.constraints[0].require = true;

  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  const std::uint32_t word = (static_cast<std::uint32_t>((*solution)[0]) << 24) |
                             (static_cast<std::uint32_t>((*solution)[1]) << 16) |
                             (static_cast<std::uint32_t>((*solution)[2]) << 8) |
                             (*solution)[3];
  EXPECT_LT(word, 1000u);
}

TEST(SolverTest, SolutionPreservesLength) {
  Recorded rec({1, 2, 3, 4, 5}, [] { (void)branch(input_byte(2) == SymU8{77}); });
  rec.constraints[0].require = true;
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->size(), 5u);
  EXPECT_EQ((*solution)[2], 77);
  // Untouched bytes keep hint values.
  EXPECT_EQ((*solution)[0], 1);
  EXPECT_EQ((*solution)[4], 5);
}

/// Soundness property: whatever the solver returns satisfies ALL
/// constraints under concrete evaluation — across many random systems.
TEST(SolverTest, SoundnessProperty) {
  util::Rng rng(77);
  Solver solver;
  std::size_t solved = 0;
  for (int round = 0; round < 60; ++round) {
    util::Bytes input(6);
    for (auto& b : input) b = rng.byte();
    const std::uint8_t t0 = rng.byte();
    const std::uint8_t t1 = rng.byte();
    const std::uint8_t t2 = static_cast<std::uint8_t>(rng.byte() | 1);

    Recorded rec(input, [&] {
      const SymU8 a = input_byte(0);
      const SymU8 b = input_byte(1);
      const SymU8 c = input_byte(2);
      (void)branch((a ^ SymU8{t0}) < SymU8{t2});
      (void)branch(b == SymU8{t1});
      (void)branch((a + c) > SymU8{t0});
    });
    // Randomly flip required directions.
    for (Constraint& c : rec.constraints) c.require = rng.chance(0.5);

    auto solution = solver.solve(rec.ctx.pool(), rec.constraints, input);
    if (!solution) continue;  // incompleteness is allowed; wrongness is not
    ++solved;
    for (const Constraint& c : rec.constraints) {
      EXPECT_EQ(rec.ctx.pool().eval(c.cond, *solution) != 0, c.require)
          << "solver returned a non-satisfying assignment";
    }
  }
  EXPECT_GT(solved, 20u);  // sanity: the solver is not vacuously incomplete
}

TEST(SolverTest, IntervalPropagationProvesUnsatWithoutSearch) {
  // x < 10 && x > 20 over one byte: interval intersection is empty; the
  // solver must prove unsat with zero enumeration work.
  Recorded rec({5}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(x < SymU8{10});
    (void)branch(x > SymU8{20});
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;
  Solver solver;
  const std::uint64_t evals_before = solver.stats().evaluations;
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  EXPECT_EQ(solver.stats().interval_unsat, 1u);
  // Only the initial check + unsat scan evaluated; no 256-way enumeration.
  EXPECT_LT(solver.stats().evaluations - evals_before, 16u);
}

TEST(SolverTest, IntervalPropagationBoundsEnumeration) {
  // 200 <= x <= 210 && x != 205: feasible; enumeration is clamped to the
  // 11-value interval instead of 256.
  Recorded rec({0}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(x >= SymU8{200});
    (void)branch(x <= SymU8{210});
    (void)branch(x == SymU8{205});
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;
  rec.constraints[2].require = false;
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_GE((*solution)[0], 200);
  EXPECT_LE((*solution)[0], 210);
  EXPECT_NE((*solution)[0], 205);
}

TEST(SolverTest, IntervalHandlesConstantOnLeft) {
  // Recorded as (k < x) when written x > k — both operand orders narrow.
  Recorded rec({0}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(SymU8{250} < x);   // x > 250
    (void)branch(SymU8{254} == x);  // x == 254... taken=false on hint 0
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 254);
}

TEST(SolverTest, StatsAccumulate) {
  Recorded rec({1}, [] { (void)branch(input_byte(0) == SymU8{1}); });
  Solver solver;
  (void)solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  (void)solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  EXPECT_EQ(solver.stats().queries, 2u);
  EXPECT_EQ(solver.stats().sat, 2u);
  solver.reset_stats();
  EXPECT_EQ(solver.stats().queries, 0u);
}

/// Records store() calls so a test can see a definitive UNSAT.
class StoreLog final : public SolverMemo {
 public:
  bool lookup(std::uint64_t, std::optional<util::Bytes>&) override { return false; }
  void store(std::uint64_t, const std::optional<util::Bytes>& result) override {
    stored.push_back(result);
  }
  std::vector<std::optional<util::Bytes>> stored;
};

TEST(SolverSquareTest, UncoupledSquareReturnsTheFullSquareFirstHit) {
  // No conjunct reads both in[0] and in[1], and neither byte has a
  // boundary-value solution: the hit is the full square's row-major first
  // hit, (0x49, 0x39).
  Recorded rec({0, 0, 5}, [] {
    const SymU8 a = input_byte(0);
    const SymU8 b = input_byte(1);
    (void)branch((a ^ SymU8{0x5a}) == SymU8{0x13});  // a == 0x49
    (void)branch(a < SymU8{0x80});
    (void)branch((b + SymU8{7}) == SymU8{0x40});     // b == 0x39
    (void)branch(input_byte(2) == SymU8{5});         // holds; off the square
  });
  for (Constraint& c : rec.constraints) c.require = true;
  Solver solver;
  const auto model = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(*model, (util::Bytes{0x49, 0x39, 5}));
  EXPECT_EQ(solver.stats().exhaustive_hits, 1u);
}

TEST(SolverSquareTest, UnsatSquareOverEveryByteReadIsDefinitive) {
  // b * 2 is even, so b * 2 == 3 never holds: UNSAT, and a complete
  // enumeration over the only two bytes read, so a definitive one.
  Recorded rec({0, 0}, [] {
    const SymU8 a = input_byte(0);
    const SymU8 b = input_byte(1);
    (void)branch((a ^ SymU8{0x5a}) == SymU8{0x13});
    (void)branch(b * SymU8{2} == SymU8{3});
  });
  for (Constraint& c : rec.constraints) c.require = true;
  Solver solver;
  StoreLog memo;
  solver.set_memo(&memo);
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  ASSERT_EQ(memo.stored.size(), 1u);  // stored: a definitive UNSAT
  EXPECT_FALSE(memo.stored[0].has_value());
}

TEST(SolverSquareTest, CoupledSquareReturnsTheRowMajorFirstHit) {
  // a * b reads both bytes; row a = 0 has no hit and the first hit is
  // (1, 150), not a pair built from row 0.
  Recorded rec({0, 0}, [] { (void)branch(input_byte(0) * input_byte(1) == SymU8{150}); });
  rec.constraints[0].require = true;
  Solver solver;
  const auto model = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(*model, (util::Bytes{0x01, 0x96}));
}

TEST(SolverSearchTest, BranchDistanceSearchReturnsThePinnedModels) {
  // Four 4-byte queries on one solver, every recorded branch negated: the
  // models pin the branch distances of ult/ule/ne/eq and of bool and/or/not
  // terms, and their summation order, through the search's acceptances.
  const util::Bytes hint{0xff, 0xff, 0xff, 0xff, 0x10};
  Recorded word(hint, [] { (void)branch(input_u32(0) < SymU32{1000}); });
  Recorded halves(hint, [] {
    (void)branch(input_u16(0) + input_u16(2) <= SymU16{300});
    (void)branch(input_byte(1) != SymU8{0});
  });
  Recorded bools(hint, [] {
    const SymU8 a = input_byte(0);
    const SymU8 b = input_byte(1);
    const SymU8 c = input_byte(2);
    const SymU8 d = input_byte(3);
    (void)branch(!(((a ^ b) == c) || (d >= SymU8{5})));
    (void)branch((a + c) > SymU8{40} && (b - d) < SymU8{9});
  });
  Recorded exact(hint, [] { (void)branch(input_u32(0) == SymU32{0x01020304}); });
  Solver solver;
  std::vector<std::optional<util::Bytes>> models;
  for (Recorded* rec : {&word, &halves, &bools, &exact}) {
    for (Constraint& c : rec->constraints) c.require = !c.require;
    models.push_back(solver.solve(rec->ctx.pool(), rec->constraints, hint));
  }
  EXPECT_EQ(models[0], (util::Bytes{0x00, 0x00, 0x00, 0x00, 0x10}));
  EXPECT_EQ(models[1], (util::Bytes{0xff, 0x00, 0x02, 0x16, 0x10}));
  EXPECT_EQ(models[2], (util::Bytes{0xbf, 0xdf, 0x00, 0x00, 0x10}));
  EXPECT_FALSE(models[3].has_value());  // the search gives up
  EXPECT_EQ(solver.stats().search_hits, 3u);
}

TEST(SolverRngTest, FailingFixedConjunctKeepsTheSearchDraws) {
  // Query 1 fails a conjunct over in[10], past the 4-byte hint: no
  // candidate can fix it, yet its search must consume exactly the draws of
  // a full search, so query 2's search-found model is the pinned one.
  Solver solver;
  Recorded fixed({1, 2, 3, 4}, [] {
    (void)branch(input_byte(10) == SymU8{7});
    (void)branch(input_byte(0) + input_byte(1) + input_byte(2) == SymU8{200});
  });
  for (Constraint& c : fixed.constraints) c.require = true;
  EXPECT_FALSE(solver.solve(fixed.ctx.pool(), fixed.constraints, fixed.ctx.input()).has_value());

  // Many 4-byte solutions: which one the search reaches depends on every
  // draw before it (without query 1 it is ff e4 3f 7e).
  Recorded parity({0xff, 0xff, 0xff, 0xff}, [] {
    (void)branch((input_byte(0) ^ input_byte(1) ^ input_byte(2) ^ input_byte(3)) ==
                 SymU8{0x5a});
  });
  parity.constraints[0].require = true;
  const auto model = solver.solve(parity.ctx.pool(), parity.constraints, parity.ctx.input());
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(solver.stats().search_hits, 1u);
  EXPECT_EQ(*model, (util::Bytes{0xe3, 0x6b, 0xb8, 0x6a}));
}

TEST(SolverCorpusTest, RecordedEngineQueriesReplayToThePinnedModels) {
  // Real engine queries: the planted kCommunityLength line and topology27's
  // parser-bug node, 64 executions each. The hash covers every query's
  // memo key, returned model and definitive flag, in engine order.
  bgp::SystemBlueprint line = bgp::make_line(3);
  bgp::inject_bug(line, /*node=*/0, bgp::bugs::kCommunityLength);
  core::System line_system(std::move(line));
  line_system.start();
  ASSERT_TRUE(line_system.converge());
  bgp::SystemBlueprint fig1 = bgp::make_internet();
  bgp::inject_hijack(fig1, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(fig1, /*node=*/5, bgp::bugs::kCommunityLength);
  core::System fig1_system(std::move(fig1));
  fig1_system.start();
  ASSERT_TRUE(fig1_system.converge());

  const bench::QueryCorpus line_corpus = bench::record_corpus(line_system, 0, 64);
  const bench::QueryCorpus fig1_corpus = bench::record_corpus(fig1_system, 5, 64);
  EXPECT_EQ(line_corpus.queries, 177u);
  EXPECT_EQ(fig1_corpus.queries, 169u);
  const bench::ReplayResult line_replay = bench::replay_corpus(line_corpus);
  const bench::ReplayResult fig1_replay = bench::replay_corpus(fig1_corpus);
  EXPECT_EQ(line_replay.model_hash, 0xe59cbce5d6aaec39ULL);
  EXPECT_EQ(fig1_replay.model_hash, 0xd3c2538901c4689cULL);
  EXPECT_EQ(line_replay.sat + fig1_replay.sat, 338u);
  EXPECT_EQ(line_replay.definitive_unsat + fig1_replay.definitive_unsat, 2u);
}

}  // namespace
}  // namespace dice::concolic
