// Shared arithmetic semantics for SP instructions.
//
// Both the PODS machine simulator and the baseline/sequential evaluators use
// these helpers, which guarantees bit-identical results across execution
// models — the property the determinism tests (Church-Rosser) rely on.
//
// Numeric rules: binary ops on two Ints are integer ops (Div truncates like
// C); if either side is Real the op is a double op. Comparisons yield Int
// 0/1. Transcendentals always produce Real.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "runtime/isa.hpp"
#include "runtime/value.hpp"
#include "support/check.hpp"

namespace pods {

/// True if the binary op will execute as a floating-point operation.
inline bool binIsReal(const Value& a, const Value& b) {
  return a.isReal() || b.isReal();
}

/// The run-time error binary op `op` raises on these operands, or nullptr:
/// integer division or modulo by zero, and the one quotient an int64 cannot
/// hold (INT64_MIN / -1, whose remainder C++ leaves undefined too). Every
/// engine checks it before applyBin and reports it as a run error, never a
/// crash.
inline const char* binOpError(Op op, const Value& a, const Value& b) {
  if ((op != Op::DIV && op != Op::MOD) || binIsReal(a, b)) return nullptr;
  if (b.asInt() == 0)
    return op == Op::DIV ? "integer division by zero" : "modulo by zero";
  if (b.asInt() == -1 && a.asInt() == std::numeric_limits<std::int64_t>::min())
    return "integer division overflow";
  return nullptr;
}

/// Forced inline so a caller passing a constant `op` (the SP executor's
/// per-opcode cases) keeps no switch.
[[gnu::always_inline]] inline Value applyBin(Op op, const Value& a,
                                             const Value& b) {
  const bool real = binIsReal(a, b);
  switch (op) {
    case Op::ADD:
      return real ? Value::realv(a.asReal() + b.asReal())
                  : Value::intv(a.asInt() + b.asInt());
    case Op::SUB:
      return real ? Value::realv(a.asReal() - b.asReal())
                  : Value::intv(a.asInt() - b.asInt());
    case Op::MUL:
      return real ? Value::realv(a.asReal() * b.asReal())
                  : Value::intv(a.asInt() * b.asInt());
    case Op::DIV:
      if (real) return Value::realv(a.asReal() / b.asReal());
      PODS_CHECK_MSG(b.asInt() != 0, "integer division by zero");
      return Value::intv(a.asInt() / b.asInt());
    case Op::MOD:
      PODS_CHECK_MSG(b.asInt() != 0, "modulo by zero");
      return Value::intv(a.asInt() % b.asInt());
    case Op::POW:
      return Value::realv(std::pow(a.asReal(), b.asReal()));
    case Op::MIN2:
      if (real) return Value::realv(std::min(a.asReal(), b.asReal()));
      return Value::intv(std::min(a.asInt(), b.asInt()));
    case Op::MAX2:
      if (real) return Value::realv(std::max(a.asReal(), b.asReal()));
      return Value::intv(std::max(a.asInt(), b.asInt()));
    case Op::CMPLT:
      return Value::intv(real ? a.asReal() < b.asReal() : a.asInt() < b.asInt());
    case Op::CMPLE:
      return Value::intv(real ? a.asReal() <= b.asReal()
                              : a.asInt() <= b.asInt());
    case Op::CMPGT:
      return Value::intv(real ? a.asReal() > b.asReal() : a.asInt() > b.asInt());
    case Op::CMPGE:
      return Value::intv(real ? a.asReal() >= b.asReal()
                              : a.asInt() >= b.asInt());
    case Op::CMPEQ:
      return Value::intv(real ? a.asReal() == b.asReal()
                              : a.asInt() == b.asInt());
    case Op::CMPNE:
      return Value::intv(real ? a.asReal() != b.asReal()
                              : a.asInt() != b.asInt());
    case Op::AND:
      return Value::intv((a.asInt() != 0 && b.asInt() != 0) ? 1 : 0);
    case Op::OR:
      return Value::intv((a.asInt() != 0 || b.asInt() != 0) ? 1 : 0);
    default:
      PODS_UNREACHABLE("not a binary op");
  }
}

[[gnu::always_inline]] inline Value applyUn(Op op, const Value& a) {
  switch (op) {
    case Op::NEG:
      return a.isReal() ? Value::realv(-a.asReal()) : Value::intv(-a.asInt());
    case Op::ABS:
      return a.isReal() ? Value::realv(std::fabs(a.asReal()))
                        : Value::intv(a.asInt() < 0 ? -a.asInt() : a.asInt());
    case Op::SQRT: return Value::realv(std::sqrt(a.asReal()));
    case Op::EXP: return Value::realv(std::exp(a.asReal()));
    case Op::LOG: return Value::realv(std::log(a.asReal()));
    case Op::SIN: return Value::realv(std::sin(a.asReal()));
    case Op::COS: return Value::realv(std::cos(a.asReal()));
    case Op::FLOOR: return Value::realv(std::floor(a.asReal()));
    case Op::CVTI:
      return Value::intv(a.isInt() ? a.asInt()
                                   : static_cast<std::int64_t>(a.asReal()));
    case Op::CVTR: return Value::realv(a.asReal());
    case Op::NOT: return Value::intv(a.asInt() == 0 ? 1 : 0);
    case Op::MOV: return a;
    default:
      PODS_UNREACHABLE("not a unary op");
  }
}

inline bool isBinaryOp(Op op) {
  switch (op) {
    case Op::ADD: case Op::SUB: case Op::MUL: case Op::DIV: case Op::MOD:
    case Op::POW: case Op::MIN2: case Op::MAX2:
    case Op::CMPLT: case Op::CMPLE: case Op::CMPGT: case Op::CMPGE:
    case Op::CMPEQ: case Op::CMPNE: case Op::AND: case Op::OR:
      return true;
    default:
      return false;
  }
}

inline bool isUnaryOp(Op op) {
  switch (op) {
    case Op::NEG: case Op::ABS: case Op::SQRT: case Op::EXP: case Op::LOG:
    case Op::SIN: case Op::COS: case Op::FLOOR: case Op::CVTI: case Op::CVTR:
    case Op::NOT: case Op::MOV:
      return true;
    default:
      return false;
  }
}

}  // namespace pods
