// The Subcompact Process (SP) instruction set.
//
// The PODS Translator turns each code block of the dataflow graph (one per
// function body and per loop-nest level) into one SpCode: a *sequential*
// instruction stream over a frame of token slots. Execution within an SP is
// control-driven (a plain program counter); everything across SPs stays
// data-driven:
//
//  - an operand slot that is Empty disables the instruction and blocks the SP
//    (the PE then context-switches to another ready SP);
//  - SPs are instantiated by the arrival of argument tokens at the Matching
//    Unit (spawn-by-token, keyed by (sp code, context tag));
//  - array reads are split-phase: ARD clears its destination slot and issues
//    the request; the SP keeps running until some instruction actually uses
//    the slot.
//
// This is exactly the hybrid model of paper section 3.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/value.hpp"

namespace pods {

/// Sentinel for "no slot" operand.
inline constexpr std::uint16_t kNoSlot = 0xFFFF;

enum class Op : std::uint8_t {
  // ---- local compute (tokens produced and consumed within the SP) ----
  LIT,     // dst <- imm
  MOV,     // dst <- [a]
  ADD, SUB, MUL, DIV, MOD, POW, MIN2, MAX2,  // dst <- [a] op [b]
  NEG, ABS, SQRT, EXP, LOG, SIN, COS, FLOOR, // dst <- op [a]
  CVTI,    // dst <- int([a])   (truncation)
  CVTR,    // dst <- real([a])
  CMPLT, CMPLE, CMPGT, CMPGE, CMPEQ, CMPNE,  // dst <- Int 0/1
  AND, OR, NOT,                               // logical on Int

  // ---- control within the SP ----
  JMP,     // pc <- aux
  BRF,     // if ![a] then pc <- aux   (the switch operator, sequentialized)

  // ---- I-structure arrays ----
  ALLOC,   // dst <- new local array; dims [a] (and [b] if dim==2)
  ALLOCD,  // distributing allocate: same, pages spread over all PEs (4.1)
  ARD,     // split-phase read:  dst <- A[a][b(,c)]; clears dst, issues request
  AWR,     // single-assignment write: A[a][b(,c)] <- [dst]
  DIMQ,    // dst <- dimension `dim` of array [a]'s header (len/rows/cols)

  // ---- Range Filter support (4.2.2, Figure 5) ----
  RFLO,    // dst <- low bound of my responsibility range of array [a],
           //        filtered dim `dim`, subscript offset `off`;
           //        [b] = enclosing row index when dim == 1 (i-dependent)
  RFHI,    // dst <- high bound, same operands
  BLKLO,   // dst <- low bound of even block partition of [[a], [b]] (fallback)
  BLKHI,   // dst <- high bound of same
  NUMPE,   // dst <- number of PEs

  // ---- processes & tokens ----
  NEWCTX,  // dst <- fresh context tag (for spawning one child SP instance)
  MKCONT,  // dst <- continuation to (this frame, slot aux)
  SENDA,   // send [a] to SP code (aux>>16), ctx [b], slot (aux&0xFFFF), this PE
  SENDD,   // distributing send: same token broadcast to ALL PEs (the LD op)
  SENDC,   // send [a] to continuation [b]    (results back to parent)
  ADDC,    // send Int [a] as an *add* token to continuation [b] (join counters)
  AWAITN,  // block until counter slot [a] >= [b]  (completion join)
  CLEAR,   // mark slot a Empty (reuse of cross-SP-filled slots in loops)

  // ---- program results / termination ----
  RESULT,  // report [a] as program result #aux (main SP only)
  END      // SP terminates; frame is released
};

const char* opName(Op op);

struct Instr {
  Op op = Op::END;
  std::uint8_t dim = 0;          // array rank / filtered dimension
  std::uint16_t dst = kNoSlot;
  std::uint16_t a = kNoSlot;
  std::uint16_t b = kNoSlot;
  std::uint16_t c = kNoSlot;
  std::uint32_t aux = 0;         // jump target | (spCode<<16|slot) | cont slot | result idx
  std::int32_t off = 0;          // RF subscript offset
  Value imm{};                   // LIT payload

  static std::uint32_t packTarget(std::uint16_t spCode, std::uint16_t slot) {
    return (std::uint32_t(spCode) << 16) | slot;
  }
  std::uint16_t targetSp() const { return static_cast<std::uint16_t>(aux >> 16); }
  std::uint16_t targetSlot() const { return static_cast<std::uint16_t>(aux & 0xFFFF); }
};

enum class SpKind : std::uint8_t { Function, ForLoop, WhileLoop };

/// One Subcompact Process: the sequential code for one code block.
struct SpCode {
  std::uint16_t id = 0;
  std::string name;
  SpKind kind = SpKind::Function;
  std::uint16_t numSlots = 0;
  std::uint16_t numArgs = 0;          // argument tokens land in slots [0, numArgs)
  bool replicated = false;            // spawned via LD on every PE (4.2.1)
  std::vector<Instr> code;
  std::vector<std::string> slotNames; // debug info, parallel to slots

  std::string slotName(std::uint16_t s) const {
    if (s == kNoSlot) return "-";
    if (s < slotNames.size() && !slotNames[s].empty()) return slotNames[s];
    return "s" + std::to_string(s);
  }
};

/// A complete translated program: the output of Translator + Partitioner.
struct SpProgram {
  std::vector<SpCode> sps;
  std::uint16_t mainSp = 0;
  int numResults = 0;

  const SpCode& sp(std::uint16_t id) const { return sps.at(id); }
  std::size_t totalInstrs() const {
    std::size_t n = 0;
    for (const auto& s : sps) n += s.code.size();
    return n;
  }
  std::string disasm() const;
};

/// Human-readable listing of one SP (for tests and debugging).
std::string disasmSp(const SpCode& sp);

/// Proves, once per program, the bounds the SP executor (sp_exec.hpp) does
/// not test per instruction: every SP is non-empty and ends in END or JMP,
/// so the pc never runs off its code; every JMP/BRF target lies inside its
/// SP; every operand an opcode reads or writes is a slot below the SP's
/// numSlots (MKCONT's continuation slot included); kNoSlot appears only
/// where the executor reads it as "no operand" (ARD/AWR c, ALLOC/ALLOCD b
/// at rank 1, RFLO/RFHI b at dim 0); an allocation's rank is 1 or 2; every
/// SENDA/SENDD names an existing SP and one of its slots; mainSp is an SP;
/// and the result count is not negative. Returns "" for a well-formed
/// program, else its first defect, naming the SP and the pc.
std::string checkProgram(const SpProgram& prog);

}  // namespace pods
