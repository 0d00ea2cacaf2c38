#include "concolic/program.hpp"

#include <algorithm>
#include <cassert>

namespace dice::concolic {

namespace {

constexpr std::uint32_t kNoSlot = 0xffffffffU;

/// Number of operand slots an instruction reads (a, then b, then c).
[[nodiscard]] int arity(Op op) noexcept {
  switch (op) {
    case Op::kConst:
    case Op::kSym: return 0;
    case Op::kZext:
    case Op::kTrunc:
    case Op::kExtract:
    case Op::kBoolNot: return 1;
    case Op::kIte: return 3;
    default: return 2;
  }
}

}  // namespace

void Program::clear() {
  for (const ExprRef ref : refs_) slot_of_[ref] = kNoSlot;
  refs_.clear();
  code_.clear();
  regs_.clear();
}

std::uint32_t Program::lower(const ExprPool& pool, ExprRef root) {
  assert(root != kNullExpr && root < pool.size());
  if (slot_of_.size() < pool.size()) slot_of_.resize(pool.size(), kNoSlot);
  // Iterative post-order: operands are emitted before their users, so slot
  // order is a topological order and one forward pass evaluates the DAG.
  stack_.assign(1, root);
  while (!stack_.empty()) {
    const ExprRef cur = stack_.back();
    if (slot_of_[cur] != kNoSlot) {
      stack_.pop_back();
      continue;
    }
    const ExprNode& n = pool.node(cur);
    const ExprRef operands[3] = {n.a, n.b,
                                 n.op == Op::kIte ? static_cast<ExprRef>(n.value) : kNullExpr};
    const int count = arity(n.op);
    bool ready = true;
    for (int k = 0; k < count; ++k) {
      if (slot_of_[operands[k]] == kNoSlot) {
        stack_.push_back(operands[k]);
        ready = false;
      }
    }
    if (!ready) continue;
    stack_.pop_back();

    Instr in;
    in.op = n.op;
    in.width = n.width;
    if (count >= 1) in.a = slot_of_[n.a];
    if (count >= 2) in.b = slot_of_[n.b];
    if (count == 3) in.c = slot_of_[operands[2]];
    if (n.op == Op::kConst || n.op == Op::kSym || n.op == Op::kExtract) in.imm = n.value;
    if (n.op == Op::kConcat) {
      in.operand_width = pool.node(n.b).width;
    } else if (count == 2) {
      in.operand_width = pool.node(n.a).width;
    }
    slot_of_[cur] = static_cast<std::uint32_t>(code_.size());
    code_.push_back(in);
    refs_.push_back(cur);
    regs_.push_back(0);
  }
  return slot_of_[root];
}

inline void Program::step(std::uint32_t slot, std::span<const std::uint8_t> input) {
  const Instr& in = code_[slot];
  std::uint64_t* r = regs_.data();
  switch (in.op) {
    case Op::kConst: r[slot] = in.imm; break;
    case Op::kSym: r[slot] = in.imm < input.size() ? input[in.imm] : 0; break;
    case Op::kZext: r[slot] = r[in.a]; break;
    case Op::kTrunc: r[slot] = mask_to(r[in.a], in.width); break;
    case Op::kConcat:
      r[slot] = mask_to((r[in.a] << in.operand_width) | r[in.b], in.width);
      break;
    case Op::kExtract: r[slot] = mask_to(r[in.a] >> in.imm, in.width); break;
    case Op::kBoolNot: r[slot] = r[in.a] != 0 ? 0 : 1; break;
    case Op::kIte: r[slot] = r[in.a] != 0 ? r[in.b] : r[in.c]; break;
    default: r[slot] = apply_binary(in.op, r[in.a], r[in.b], in.operand_width); break;
  }
}

void Program::run(std::span<const std::uint8_t> input) {
  const auto count = static_cast<std::uint32_t>(code_.size());
  for (std::uint32_t slot = 0; slot < count; ++slot) step(slot, input);
}

void Program::run(std::span<const std::uint32_t> slice, std::span<const std::uint8_t> input) {
  for (const std::uint32_t slot : slice) step(slot, input);
}

void Program::dependence(std::span<const std::uint32_t> bytes,
                         std::vector<std::uint8_t>& reads) const {
  reads.assign(code_.size(), 0);
  for (std::size_t slot = 0; slot < code_.size(); ++slot) {
    const Instr& in = code_[slot];
    switch (arity(in.op)) {
      case 0:
        reads[slot] = in.op == Op::kSym && std::binary_search(bytes.begin(), bytes.end(), in.imm);
        break;
      case 1: reads[slot] = reads[in.a]; break;
      case 2: reads[slot] = reads[in.a] | reads[in.b]; break;
      default: reads[slot] = reads[in.a] | reads[in.b] | reads[in.c]; break;
    }
  }
}

void Program::reads(std::span<const std::uint32_t> slots, std::vector<std::uint32_t>& bytes) {
  marks_.assign(code_.size(), 0);
  for (const std::uint32_t slot : slots) marks_[slot] = 1;
  bytes.clear();
  // Operands precede their users, so one backward pass marks the cones.
  for (std::size_t slot = code_.size(); slot-- > 0;) {
    if (marks_[slot] == 0) continue;
    const Instr& in = code_[slot];
    const int count = arity(in.op);
    if (in.op == Op::kSym) bytes.push_back(static_cast<std::uint32_t>(in.imm));
    if (count >= 1) marks_[in.a] = 1;
    if (count >= 2) marks_[in.b] = 1;
    if (count == 3) marks_[in.c] = 1;
  }
  std::sort(bytes.begin(), bytes.end());
  bytes.erase(std::unique(bytes.begin(), bytes.end()), bytes.end());
}

}  // namespace dice::concolic
