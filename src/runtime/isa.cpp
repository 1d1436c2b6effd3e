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

}  // namespace pods
