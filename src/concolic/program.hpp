// Straight-line form of expression DAGs: the one evaluator of the concolic
// runtime.
//
// A Program lowers the DAGs under a set of roots into a flat, topologically
// ordered instruction array. Every shared node becomes exactly one
// instruction — an opcode, a result width and operand slot indices, the
// type-tagged layout of a bytecode interpreter — and evaluates into the
// register of its own slot. Running the program once on an input fills
// every register; after that a *slice* (the instructions that read some
// chosen input bytes) can be re-run alone while every other register keeps
// its value, which is how the solver partially evaluates a conjunction on
// its hint and then enumerates only what the enumerated bytes reach.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "concolic/expr.hpp"

namespace dice::concolic {

/// One instruction. Operand fields hold register slots, which always
/// precede the instruction's own slot.
struct Instr {
  Op op = Op::kConst;
  std::uint8_t width = 0;          ///< result width in bits
  std::uint8_t operand_width = 0;  ///< binary ops: width of a; kConcat: width of b
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;             ///< kIte: the else operand
  std::uint64_t imm = 0;           ///< kConst value, kSym byte index, kExtract offset
};

class Program {
 public:
  /// Forgets every instruction; buffers keep their capacity for reuse.
  void clear();

  /// Appends the instructions of `root`'s DAG not yet in the program and
  /// returns the slot holding `root`'s value.
  std::uint32_t lower(const ExprPool& pool, ExprRef root);

  /// Evaluates every instruction under `input`. Bytes beyond the input
  /// read as zero (the decoder never reaches them; see sym.hpp).
  void run(std::span<const std::uint8_t> input);

  /// Re-evaluates only `slice` (ascending slots); registers outside it
  /// keep their values.
  void run(std::span<const std::uint32_t> slice, std::span<const std::uint8_t> input);

  [[nodiscard]] std::uint64_t reg(std::uint32_t slot) const { return regs_[slot]; }
  [[nodiscard]] const Instr& instr(std::uint32_t slot) const { return code_[slot]; }
  [[nodiscard]] std::size_t size() const noexcept { return code_.size(); }

  /// For every instruction, 1 when it reads one of `bytes` (ascending),
  /// directly or through its operands, else 0.
  void dependence(std::span<const std::uint32_t> bytes, std::vector<std::uint8_t>& reads) const;

  /// The distinct input bytes the DAGs under `slots` read, ascending.
  void reads(std::span<const std::uint32_t> slots, std::vector<std::uint32_t>& bytes);

 private:
  void step(std::uint32_t slot, std::span<const std::uint8_t> input);

  std::vector<Instr> code_;
  std::vector<std::uint64_t> regs_;
  std::vector<ExprRef> refs_;           ///< the node lowered into each slot
  std::vector<std::uint32_t> slot_of_;  ///< by ExprRef; kNoSlot when not lowered
  std::vector<ExprRef> stack_;
  std::vector<std::uint8_t> marks_;
};

}  // namespace dice::concolic
