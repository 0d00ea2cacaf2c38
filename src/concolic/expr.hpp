// Symbolic expression DAG for the concolic runtime (the Oasis substitute,
// see DESIGN.md). Expressions are hash-consed nodes in an arena owned by an
// ExprPool; ExprRef is an index into that arena. Widths are 1 (bool), 8, 16,
// 32 or 64 bits; every symbolic leaf is one 8-bit input byte, matching the
// paper's choice of treating raw BGP UPDATE bytes as the symbolic input.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace dice::concolic {

using ExprRef = std::uint32_t;
inline constexpr ExprRef kNullExpr = 0xffffffffU;

enum class Op : std::uint8_t {
  kConst,    // value = constant (masked to width)
  kSym,      // value = input byte index, width 8
  kAdd,
  kSub,
  kMul,
  kUDiv,     // division by zero yields all-ones, like hardware-style semantics
  kURem,     // remainder by zero yields the dividend
  kAnd,
  kOr,
  kXor,
  kShl,      // shift amounts >= width yield 0
  kLshr,
  kZext,     // widen a to `width`
  kTrunc,    // narrow a to `width`
  kConcat,   // a is the high part, b the low part; width = wa + wb
  kExtract,  // value = bit offset (from LSB), extracts `width` bits of a
  kEq,       // comparisons produce width-1 booleans
  kNe,
  kUlt,
  kUle,
  kBoolNot,
  kBoolAnd,
  kBoolOr,
  kIte,      // a ? b : c is encoded as (a, b) with value = c (child ref)
};

[[nodiscard]] std::string_view op_name(Op op) noexcept;

[[nodiscard]] constexpr std::uint64_t mask_to(std::uint64_t v, std::uint8_t width) noexcept {
  return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
}

/// Value of a binary `op` on operands `a`, `b` of width `width` — the one
/// definition of the operator semantics, shared by constant folding and
/// the Program evaluator.
[[nodiscard]] constexpr std::uint64_t apply_binary(Op op, std::uint64_t a, std::uint64_t b,
                                                   std::uint8_t width) noexcept {
  switch (op) {
    case Op::kAdd: return mask_to(a + b, width);
    case Op::kSub: return mask_to(a - b, width);
    case Op::kMul: return mask_to(a * b, width);
    case Op::kUDiv: return b == 0 ? mask_to(~std::uint64_t{0}, width) : mask_to(a / b, width);
    case Op::kURem: return b == 0 ? a : mask_to(a % b, width);
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl: return b >= width ? 0 : mask_to(a << b, width);
    case Op::kLshr: return b >= width ? 0 : (a >> b);
    case Op::kEq: return a == b ? 1 : 0;
    case Op::kNe: return a != b ? 1 : 0;
    case Op::kUlt: return a < b ? 1 : 0;
    case Op::kUle: return a <= b ? 1 : 0;
    case Op::kBoolAnd: return (a != 0 && b != 0) ? 1 : 0;
    case Op::kBoolOr: return (a != 0 || b != 0) ? 1 : 0;
    default: return 0;
  }
}

/// One DAG node. POD by design: the pool stores nodes contiguously.
struct ExprNode {
  Op op;
  std::uint8_t width;  // result width in bits
  ExprRef a = kNullExpr;
  ExprRef b = kNullExpr;
  std::uint64_t value = 0;  // kConst: constant; kSym: byte index; kExtract: offset; kIte: child c
};

/// Arena + hash-consing + constant folding for expression construction.
/// Nothing mutates a const pool, so concurrent readers are safe.
class ExprPool {
 public:
  ExprPool();

  [[nodiscard]] ExprRef constant(std::uint64_t value, std::uint8_t width);
  [[nodiscard]] ExprRef sym_byte(std::uint32_t input_index);
  [[nodiscard]] ExprRef binary(Op op, ExprRef a, ExprRef b);
  [[nodiscard]] ExprRef zext(ExprRef a, std::uint8_t width);
  [[nodiscard]] ExprRef trunc(ExprRef a, std::uint8_t width);
  [[nodiscard]] ExprRef concat(ExprRef high, ExprRef low);
  [[nodiscard]] ExprRef extract(ExprRef a, std::uint8_t bit_offset, std::uint8_t width);
  [[nodiscard]] ExprRef bool_not(ExprRef a);
  [[nodiscard]] ExprRef ite(ExprRef cond, ExprRef then_e, ExprRef else_e);

  [[nodiscard]] const ExprNode& node(ExprRef ref) const { return nodes_[ref]; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Evaluates `ref` under a concrete input assignment by lowering it to a
  /// one-root Program and running it. Bytes beyond the assignment read as
  /// zero (the decoder never reaches them; see sym.hpp). A test and
  /// debugging convenience: each call builds a fresh Program sized to the
  /// whole pool. The solver keeps one Program per query instead.
  [[nodiscard]] std::uint64_t eval(ExprRef ref, std::span<const std::uint8_t> input) const;

  /// Human-readable rendering for debugging and fault evidence.
  [[nodiscard]] std::string to_string(ExprRef ref) const;

 private:
  struct NodeKey {
    Op op;
    std::uint8_t width;
    ExprRef a;
    ExprRef b;
    std::uint64_t value;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    [[nodiscard]] std::size_t operator()(const NodeKey& k) const noexcept;
  };

  [[nodiscard]] ExprRef intern(const NodeKey& key);
  [[nodiscard]] bool is_const(ExprRef ref) const {
    return ref != kNullExpr && nodes_[ref].op == Op::kConst;
  }

  std::vector<ExprNode> nodes_;
  std::unordered_map<NodeKey, ExprRef, NodeKeyHash> interned_;
};

}  // namespace dice::concolic
