#include "sim/timing.hpp"

namespace pods::sim {

SimTime Timing::euCost(Op op, bool realOp) const {
  switch (op) {
    case Op::ADD: return realOp ? fAdd : intAdd;
    case Op::SUB: return realOp ? fSub : intSub;
    case Op::MUL: return realOp ? fMul : intMul;
    case Op::DIV: return realOp ? fDiv : intDiv;
    case Op::MOD: return intDiv;
    case Op::POW: return fPow;
    case Op::MIN2:
    case Op::MAX2:
      return realOp ? fCmp : intCmp;
    case Op::NEG: return realOp ? fNeg : intAdd;
    case Op::ABS: return realOp ? fAbs : intAdd;
    case Op::SQRT: return fSqrt;
    case Op::EXP: return fExp;
    case Op::LOG: return fLog;
    case Op::SIN: return fSin;
    case Op::COS: return fCos;
    case Op::FLOOR: return fCmp;
    case Op::CVTI:
    case Op::CVTR:
      return bitLogical;
    case Op::CMPLT:
    case Op::CMPLE:
    case Op::CMPGT:
    case Op::CMPGE:
    case Op::CMPEQ:
    case Op::CMPNE:
      return realOp ? fCmp : intCmp;
    case Op::AND:
    case Op::OR:
    case Op::NOT:
      return bitLogical;
    case Op::JMP:
    case Op::BRF:
      return intAdd;
    case Op::LIT:
    case Op::MOV:
    case Op::NUMPE:
    case Op::NEWCTX:
    case Op::MKCONT:
    case Op::CLEAR:
      return memRead + memWrite;  // one fetch + one store in the frame
    case Op::ALLOC:
    case Op::ALLOCD:
      return intAdd;  // the Array Manager carries the real cost
    case Op::ARD:
      return localArrayRead;
    case Op::AWR:
      return addrCalc;
    case Op::DIMQ:
    case Op::RFLO:
    case Op::RFHI:
    case Op::BLKLO:
    case Op::BLKHI:
      return addrCalc;
    case Op::SENDA:
    case Op::SENDD:
    case Op::SENDC:
    case Op::ADDC:
      return memRead + memWrite;  // hand the token to the Routing/Matching Unit
    case Op::AWAITN:
      return intCmp;
    case Op::RESULT:
    case Op::END:
      return intAdd;
  }
  return intAdd;
}

}  // namespace pods::sim
