#include "runtime/isa.hpp"

namespace pods {

const char* opName(Op op) {
  switch (op) {
    case Op::LIT: return "LIT";
    case Op::MOV: return "MOV";
    case Op::ADD: return "ADD";
    case Op::SUB: return "SUB";
    case Op::MUL: return "MUL";
    case Op::DIV: return "DIV";
    case Op::MOD: return "MOD";
    case Op::POW: return "POW";
    case Op::MIN2: return "MIN2";
    case Op::MAX2: return "MAX2";
    case Op::NEG: return "NEG";
    case Op::ABS: return "ABS";
    case Op::SQRT: return "SQRT";
    case Op::EXP: return "EXP";
    case Op::LOG: return "LOG";
    case Op::SIN: return "SIN";
    case Op::COS: return "COS";
    case Op::FLOOR: return "FLOOR";
    case Op::CVTI: return "CVTI";
    case Op::CVTR: return "CVTR";
    case Op::CMPLT: return "CMPLT";
    case Op::CMPLE: return "CMPLE";
    case Op::CMPGT: return "CMPGT";
    case Op::CMPGE: return "CMPGE";
    case Op::CMPEQ: return "CMPEQ";
    case Op::CMPNE: return "CMPNE";
    case Op::AND: return "AND";
    case Op::OR: return "OR";
    case Op::NOT: return "NOT";
    case Op::JMP: return "JMP";
    case Op::BRF: return "BRF";
    case Op::ALLOC: return "ALLOC";
    case Op::ALLOCD: return "ALLOCD";
    case Op::ARD: return "ARD";
    case Op::AWR: return "AWR";
    case Op::DIMQ: return "DIMQ";
    case Op::RFLO: return "RFLO";
    case Op::RFHI: return "RFHI";
    case Op::BLKLO: return "BLKLO";
    case Op::BLKHI: return "BLKHI";
    case Op::NUMPE: return "NUMPE";
    case Op::NEWCTX: return "NEWCTX";
    case Op::MKCONT: return "MKCONT";
    case Op::SENDA: return "SENDA";
    case Op::SENDD: return "SENDD";
    case Op::SENDC: return "SENDC";
    case Op::ADDC: return "ADDC";
    case Op::AWAITN: return "AWAITN";
    case Op::CLEAR: return "CLEAR";
    case Op::RESULT: return "RESULT";
    case Op::END: return "END";
  }
  return "?";
}

std::string disasmSp(const SpCode& sp) {
  std::string out = "SP " + std::to_string(sp.id) + " '" + sp.name + "' ";
  switch (sp.kind) {
    case SpKind::Function: out += "[function]"; break;
    case SpKind::ForLoop: out += "[for-loop]"; break;
    case SpKind::WhileLoop: out += "[while-loop]"; break;
  }
  if (sp.replicated) out += " [replicated/LD]";
  out += " slots=" + std::to_string(sp.numSlots) +
         " args=" + std::to_string(sp.numArgs) + "\n";
  for (std::size_t pc = 0; pc < sp.code.size(); ++pc) {
    const Instr& in = sp.code[pc];
    char head[32];
    std::snprintf(head, sizeof head, "  %4zu: %-7s", pc, opName(in.op));
    out += head;
    auto slot = [&](std::uint16_t s) { return sp.slotName(s); };
    switch (in.op) {
      case Op::LIT:
        out += slot(in.dst) + " <- " + in.imm.str();
        break;
      case Op::JMP:
        out += "-> " + std::to_string(in.aux);
        break;
      case Op::BRF:
        out += "if !" + slot(in.a) + " -> " + std::to_string(in.aux);
        break;
      case Op::ALLOC:
      case Op::ALLOCD:
        out += slot(in.dst) + " <- dims(" + slot(in.a) +
               (in.dim == 2 ? "," + slot(in.b) : "") + ")";
        break;
      case Op::ARD:
        out += slot(in.dst) + " <- " + slot(in.a) + "[" + slot(in.b) +
               (in.c != kNoSlot ? "," + slot(in.c) : "") + "]";
        break;
      case Op::AWR:
        out += slot(in.a) + "[" + slot(in.b) +
               (in.c != kNoSlot ? "," + slot(in.c) : "") + "] <- " + slot(in.dst);
        break;
      case Op::RFLO:
      case Op::RFHI:
        out += slot(in.dst) + " <- rf(" + slot(in.a) + ", dim=" +
               std::to_string(in.dim) + ", off=" + std::to_string(in.off) +
               (in.b != kNoSlot ? ", row=" + slot(in.b) : "") + ")";
        break;
      case Op::SENDA:
      case Op::SENDD:
        out += slot(in.a) + " -> sp" + std::to_string(in.targetSp()) + ".slot" +
               std::to_string(in.targetSlot()) + " ctx=" + slot(in.b);
        break;
      case Op::SENDC:
      case Op::ADDC:
        out += slot(in.a) + " -> cont " + slot(in.b);
        break;
      case Op::AWAITN:
        out += "until " + slot(in.a) + " >= " + slot(in.b);
        break;
      case Op::MKCONT:
        out += slot(in.dst) + " <- cont(self, slot " + std::to_string(in.aux) + ")";
        break;
      case Op::RESULT:
        out += "#" + std::to_string(in.aux) + " <- " + slot(in.a);
        break;
      case Op::CLEAR:
        out += slot(in.a);
        break;
      case Op::END:
        break;
      default: {
        // Generic three-address rendering.
        if (in.dst != kNoSlot) out += slot(in.dst) + " <- ";
        if (in.a != kNoSlot) out += slot(in.a);
        if (in.b != kNoSlot) out += ", " + slot(in.b);
        if (in.c != kNoSlot) out += ", " + slot(in.c);
        break;
      }
    }
    out += "\n";
  }
  return out;
}

std::string SpProgram::disasm() const {
  std::string out;
  for (const SpCode& s : sps) {
    out += disasmSp(s);
    out += "\n";
  }
  return out;
}

namespace {

/// How an opcode uses one operand field: not at all, as a slot, or as a
/// slot or kNoSlot ("no operand").
enum class Use : std::uint8_t { None, Slot, Optional };

struct OperandUse {
  Use a = Use::None, b = Use::None, c = Use::None, dst = Use::None;
};

/// The operand fields `in` reads or writes, as the executor uses them.
OperandUse operandUse(const Instr& in) {
  constexpr Use N = Use::None, S = Use::Slot, O = Use::Optional;
  switch (in.op) {
    case Op::ADD: case Op::SUB: case Op::MUL: case Op::DIV: case Op::MOD:
    case Op::POW: case Op::MIN2: case Op::MAX2: case Op::CMPLT:
    case Op::CMPLE: case Op::CMPGT: case Op::CMPGE: case Op::CMPEQ:
    case Op::CMPNE: case Op::AND: case Op::OR: case Op::BLKLO:
    case Op::BLKHI:
      return {S, S, N, S};
    case Op::MOV: case Op::NEG: case Op::ABS: case Op::SQRT: case Op::EXP:
    case Op::LOG: case Op::SIN: case Op::COS: case Op::FLOOR: case Op::CVTI:
    case Op::CVTR: case Op::NOT: case Op::DIMQ:
      return {S, N, N, S};
    case Op::LIT: case Op::NUMPE: case Op::NEWCTX: case Op::MKCONT:
      return {N, N, N, S};
    case Op::BRF: case Op::CLEAR: case Op::RESULT:
      return {S, N, N, N};
    case Op::ALLOC: case Op::ALLOCD:
      return {S, in.dim == 2 ? S : O, N, S};
    case Op::ARD: case Op::AWR:
      return {S, S, O, S};
    case Op::RFLO: case Op::RFHI:
      return {S, in.dim == 0 ? O : S, N, S};
    case Op::SENDA: case Op::SENDD: case Op::SENDC: case Op::ADDC:
    case Op::AWAITN:
      return {S, S, N, N};
    case Op::JMP: case Op::END:
      return {};
  }
  return {};
}

/// The first defect of `in`, an instruction of `sp`, as the text after the
/// opcode's name, or nullptr. Nothing is formatted: the engines run this
/// once per program, which in `podsd` is once per job.
const char* instrDefect(const SpProgram& prog, const SpCode& sp,
                        const Instr& in) {
  const OperandUse use = operandUse(in);
  const Use uses[] = {use.a, use.b, use.c, use.dst};
  const std::uint16_t fields[] = {in.a, in.b, in.c, in.dst};
  static const char* const kNoOperand[] = {
      "operand a names no slot", "operand b names no slot",
      "operand c names no slot", "operand dst names no slot"};
  static const char* const kPastSlots[] = {
      "operand a is past the SP's slots", "operand b is past the SP's slots",
      "operand c is past the SP's slots",
      "operand dst is past the SP's slots"};
  for (int k = 0; k < 4; ++k) {
    if (uses[k] == Use::None || fields[k] < sp.numSlots) continue;
    if (fields[k] != kNoSlot) return kPastSlots[k];
    if (uses[k] == Use::Slot) return kNoOperand[k];
  }
  switch (in.op) {
    case Op::JMP:
    case Op::BRF:
      if (in.aux >= sp.code.size()) return "target is outside the SP";
      break;
    case Op::ALLOC:
    case Op::ALLOCD:
      if (in.dim != 1 && in.dim != 2) return "rank is not 1 or 2";
      break;
    case Op::MKCONT:
      if (in.aux >= sp.numSlots)
        return "continuation slot is past the SP's slots";
      break;
    case Op::SENDA:
    case Op::SENDD:
      if (in.targetSp() >= prog.sps.size()) return "targets no SP";
      if (in.targetSlot() >= prog.sps[in.targetSp()].numSlots)
        return "targets a slot past its SP's slots";
      break;
    default:
      break;
  }
  return nullptr;
}

}  // namespace

std::string checkProgram(const SpProgram& prog) {
  if (prog.mainSp >= prog.sps.size())
    return "main SP " + std::to_string(prog.mainSp) +
           " is not one of the program's " + std::to_string(prog.sps.size()) +
           " SPs";
  if (prog.numResults < 0)
    return "result count " + std::to_string(prog.numResults) + " is negative";
  for (std::size_t i = 0; i < prog.sps.size(); ++i) {
    const SpCode& sp = prog.sps[i];
    auto at = [&](std::size_t pc, const std::string& defect) {
      return "SP " + std::to_string(i) + " '" + sp.name + "' pc " +
             std::to_string(pc) + ": " + defect;
    };
    if (sp.code.empty()) return at(0, "no code (an SP ends in END or JMP)");
    for (std::size_t pc = 0; pc < sp.code.size(); ++pc) {
      const Instr& in = sp.code[pc];
      if (const char* defect = instrDefect(prog, sp, in))
        return at(pc, std::string(opName(in.op)) + " " + defect);
    }
    const Op last = sp.code.back().op;
    if (last != Op::END && last != Op::JMP)
      return at(sp.code.size() - 1,
                std::string(opName(last)) +
                    " falls off the end (an SP ends in END or JMP)");
  }
  return "";
}

}  // namespace pods
