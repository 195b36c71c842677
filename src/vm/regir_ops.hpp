// Structural helpers over the RegIR instruction set, shared by the register
// compiler (regcompile.cpp) and the vector lowering pass (veccompile.cpp).
// These encode per-opcode facts — branchness, purity, operand roles — and
// the loop-region analysis (back edges, entry shape, region defs) that every
// pass needs and that must agree across translation units.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "vm/regir.hpp"

namespace hpcnet::vm::regir {

// Rank-2 operand packing (20 bits per register id).
inline constexpr std::int64_t kRegFieldBits = 20;
inline constexpr std::int64_t kRegFieldMask = (1 << kRegFieldBits) - 1;

inline bool is_branch(ROp op) {
  switch (op) {
    case ROp::JMP:
    case ROp::JMPB:
    case ROp::JZ_I4:
    case ROp::JNZ_I4:
    case ROp::JZ_I8:
    case ROp::JNZ_I8:
    case ROp::JZ_REF:
    case ROp::JNZ_REF:
    case ROp::JEQ_I4:
    case ROp::JNE_I4:
    case ROp::JLT_I4:
    case ROp::JLE_I4:
    case ROp::JGT_I4:
    case ROp::JGE_I4:
    case ROp::JEQ_I8:
    case ROp::JNE_I8:
    case ROp::JLT_I8:
    case ROp::JLE_I8:
    case ROp::JGT_I8:
    case ROp::JGE_I8:
    case ROp::JEQ_R4:
    case ROp::JNE_R4:
    case ROp::JLT_R4:
    case ROp::JLE_R4:
    case ROp::JGT_R4:
    case ROp::JGE_R4:
    case ROp::JEQ_R8:
    case ROp::JNE_R8:
    case ROp::JLT_R8:
    case ROp::JLE_R8:
    case ROp::JGT_R8:
    case ROp::JGE_R8:
    case ROp::JEQ_REF:
    case ROp::JNE_REF:
    case ROp::JEQI_I4:
    case ROp::JNEI_I4:
    case ROp::JLTI_I4:
    case ROp::JLEI_I4:
    case ROp::JGTI_I4:
    case ROp::JGEI_I4:
    case ROp::JLT_LEN:
      return true;
    default:
      return false;
  }
}

inline bool is_block_end(ROp op) {
  return is_branch(op) || op == ROp::RET_R || op == ROp::THROW_R ||
         op == ROp::LEAVE_R || op == ROp::ENDFINALLY_R;
}

/// Ops with no side effects whose result may be dead-code-eliminated.
inline bool is_pure(ROp op) {
  switch (op) {
    case ROp::MOV:
    case ROp::LDI:
    case ROp::ADD_I4: case ROp::SUB_I4: case ROp::MUL_I4: case ROp::NEG_I4:
    case ROp::ADD_I8: case ROp::SUB_I8: case ROp::MUL_I8: case ROp::NEG_I8:
    case ROp::ADD_R4: case ROp::SUB_R4: case ROp::MUL_R4: case ROp::DIV_R4:
    case ROp::REM_R4: case ROp::NEG_R4:
    case ROp::ADD_R8: case ROp::SUB_R8: case ROp::MUL_R8: case ROp::DIV_R8:
    case ROp::REM_R8: case ROp::NEG_R8:
    case ROp::ADDI_I4: case ROp::SUBI_I4: case ROp::MULI_I4:
    case ROp::ADDI_I8: case ROp::SUBI_I8: case ROp::MULI_I8:
    case ROp::ADDI_R8: case ROp::MULI_R8:
    case ROp::AND_I4: case ROp::OR_I4: case ROp::XOR_I4: case ROp::NOT_I4:
    case ROp::SHL_I4: case ROp::SHR_I4: case ROp::SHRU_I4:
    case ROp::AND_I8: case ROp::OR_I8: case ROp::XOR_I8: case ROp::NOT_I8:
    case ROp::SHL_I8: case ROp::SHR_I8: case ROp::SHRU_I8:
    case ROp::SHLI_I4: case ROp::SHRI_I4: case ROp::SHLI_I8: case ROp::SHRI_I8:
    case ROp::ANDI_I4:
    case ROp::CEQ_I4: case ROp::CGT_I4: case ROp::CLT_I4:
    case ROp::CEQ_I8: case ROp::CGT_I8: case ROp::CLT_I8:
    case ROp::CEQ_R4: case ROp::CGT_R4: case ROp::CLT_R4:
    case ROp::CEQ_R8: case ROp::CGT_R8: case ROp::CLT_R8:
    case ROp::CEQ_REF:
    case ROp::CV_I4_I8: case ROp::CV_I4_R4: case ROp::CV_I4_R8:
    case ROp::CV_I8_I4: case ROp::CV_I8_R4: case ROp::CV_I8_R8:
    case ROp::CV_R4_I4: case ROp::CV_R4_I8: case ROp::CV_R4_R8:
    case ROp::CV_R8_I4: case ROp::CV_R8_I8: case ROp::CV_R8_R4:
    case ROp::SEXT8: case ROp::ZEXT8: case ROp::SEXT16: case ROp::ZEXT16:
      return true;
    default:
      return false;
  }
}

/// Operand roles for copy propagation / liveness.
struct Operands {
  std::int32_t uses[4];
  int nuses = 0;
  std::int32_t def = -1;  // register defined, -1 if none
};

inline Operands operands_of(const RInstr& in,
                            const std::vector<std::int32_t>& pool) {
  Operands o{};
  auto use = [&](std::int32_t r) {
    if (r >= 0) o.uses[o.nuses++] = r;
  };
  switch (in.op) {
    case ROp::NOP_R:
    case ROp::SAFEPOINT:
    case ROp::ENDFINALLY_R:
    case ROp::LEAVE_R:
    case ROp::JMP:
    case ROp::JMPB:
      break;
    case ROp::VECLOOP:
      // Operands live in the RCode::vec_loops side table (in.a indexes it);
      // the instruction neither defines nor uses allocator-visible regs here.
      break;
    case ROp::MOV:
    case ROp::MEMLD:
    case ROp::MEMST:
      o.def = in.d;
      use(in.a);
      break;
    case ROp::LDI:
      o.def = in.d;
      break;
    case ROp::LDSTR_R:
    case ROp::NEWOBJ_R:
      o.def = in.d;
      break;
    case ROp::RET_R:
    case ROp::THROW_R:
      use(in.a);
      break;
    case ROp::JZ_I4:
    case ROp::JNZ_I4:
    case ROp::JZ_I8:
    case ROp::JNZ_I8:
    case ROp::JZ_REF:
    case ROp::JNZ_REF:
      use(in.a);
      break;
    case ROp::JEQI_I4:
    case ROp::JNEI_I4:
    case ROp::JLTI_I4:
    case ROp::JLEI_I4:
    case ROp::JGTI_I4:
    case ROp::JGEI_I4:
      use(in.a);
      break;
    case ROp::JEQ_I4: case ROp::JNE_I4: case ROp::JLT_I4:
    case ROp::JLE_I4: case ROp::JGT_I4: case ROp::JGE_I4:
    case ROp::JEQ_I8: case ROp::JNE_I8: case ROp::JLT_I8:
    case ROp::JLE_I8: case ROp::JGT_I8: case ROp::JGE_I8:
    case ROp::JEQ_R4: case ROp::JNE_R4: case ROp::JLT_R4:
    case ROp::JLE_R4: case ROp::JGT_R4: case ROp::JGE_R4:
    case ROp::JEQ_R8: case ROp::JNE_R8: case ROp::JLT_R8:
    case ROp::JLE_R8: case ROp::JGT_R8: case ROp::JGE_R8:
    case ROp::JEQ_REF: case ROp::JNE_REF:
      use(in.a);
      use(in.b);
      break;
    case ROp::LDSFLD_R:
      o.def = in.d;  // a/b are class/field ids, not registers
      break;
    case ROp::CHK_BOUNDS:
    case ROp::JLT_LEN:
      use(in.a);
      use(in.b);
      break;
    case ROp::CALL_R:
    case ROp::CALLINTR_R: {
      o.def = in.d;
      // Call arguments come from the pool; handled separately by the passes
      // (they rewrite/mark pool entries directly).
      (void)pool;
      break;
    }
    case ROp::STFLD_R:
      use(in.a);
      use(in.d);  // d = source
      break;
    case ROp::CARDMARK:
      use(in.a);  // object carded; no def
      break;
    case ROp::STSFLD_R:
      use(in.d);
      break;
    case ROp::STELEM_I4: case ROp::STELEM_I8: case ROp::STELEM_R4:
    case ROp::STELEM_R8: case ROp::STELEM_REF:
    case ROp::STELEMU_I4: case ROp::STELEMU_I8: case ROp::STELEMU_R4:
    case ROp::STELEMU_R8: case ROp::STELEMU_REF:
      use(in.a);
      use(in.b);
      use(in.d);  // d = source
      break;
    case ROp::LDEL2_I4: case ROp::LDEL2_I8: case ROp::LDEL2_R4:
    case ROp::LDEL2_R8: case ROp::LDEL2_REF: case ROp::LDEL2_SLOW:
      o.def = in.d;
      use(in.a);
      use(in.b);
      use(static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask));
      break;
    case ROp::STEL2_I4: case ROp::STEL2_I8: case ROp::STEL2_R4:
    case ROp::STEL2_R8: case ROp::STEL2_REF: case ROp::STEL2_SLOW:
      use(in.a);
      use(in.b);
      use(static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask));
      use(static_cast<std::int32_t>((in.imm.i64 >> kRegFieldBits) &
                                    kRegFieldMask));
      break;
    default:
      // Generic three-address shape: d <- op(a, b).
      o.def = in.d;
      use(in.a);
      if (in.b >= 0 && in.op != ROp::NEWARR_R && in.op != ROp::LDFLD_R &&
          in.op != ROp::BOX_R && in.op != ROp::UNBOX_R &&
          in.op != ROp::NEWMAT_R) {
        use(in.b);
      }
      if (in.op == ROp::NEWMAT_R) {
        use(in.b);  // cols register (excluded above as a non-register field)
      }
      break;
  }
  return o;
}

// ---- loop regions over the pre-compaction IR ------------------------------

/// A backward branch at `branch` to `body`: [body, branch] is the loop region.
struct BackEdge {
  std::int32_t body, branch;
};

/// How control enters a loop region from outside. LICM and the VECLOOP
/// lowerer accept the two shapes the IL loop builders emit: FallIn (the head
/// is reached only by falling into it, as in `head: jge exit; ...; jmp head`)
/// and Rotated (the only entry is one unconditional jump from outside, as in
/// `br cond; top: ...; cond: jlt top`). Anything else — a second or
/// conditional entry, fall-in plus a jump, or an exception handler beginning
/// inside the region (entry by unwind) — is None.
enum class LoopEntry { None, FallIn, Rotated };

struct RegionEntry {
  LoopEntry shape = LoopEntry::None;
  std::int32_t jmp = -1;     // Rotated: position of the entry jump
  std::int32_t target = -1;  // Rotated: where it lands inside the region
};

/// Borrowed view of the register compiler's pre-compaction IR, shared by
/// LICM, bounds-check elimination and the VECLOOP lowerer. Branch `d` fields
/// (and LEAVE_R's `a`) still hold IL pcs; `il_start` maps IL pc -> code
/// index and is shifted by every insertion.
struct IrView {
  std::vector<RInstr>& code;
  std::vector<std::int32_t>& il_start;
  const std::vector<bool>& labels;  // IL pcs that are branch/handler targets
  const MethodDef& method;          // handler table
  RCode& rc;  // reg_types / args_pool / slot_regs / vec_loops

  /// Code index of IL pc `il`, or -1 when `il` is out of range.
  std::int32_t at_il(std::int32_t il) const {
    if (il < 0 || static_cast<std::size_t>(il) >= il_start.size()) return -1;
    return il_start[static_cast<std::size_t>(il)];
  }

  /// Back edges whose branch op satisfies `keep`, in code order, or sorted
  /// innermost (smallest region) first: a smaller region cannot contain
  /// another loop.
  template <class Keep>
  std::vector<BackEdge> back_edges(Keep keep, bool innermost_first) const {
    std::vector<BackEdge> loops;
    for (std::size_t j = 0; j < code.size(); ++j) {
      if (!keep(code[j].op)) continue;
      const std::int32_t body = at_il(code[j].d);
      if (body < 0 || static_cast<std::size_t>(body) >= j) continue;
      loops.push_back({body, static_cast<std::int32_t>(j)});
    }
    if (innermost_first) {
      std::sort(loops.begin(), loops.end(),
                [](const BackEdge& x, const BackEdge& y) {
                  return (x.branch - x.body) < (y.branch - y.body);
                });
    }
    return loops;
  }

  /// Classifies every control transfer into the region from outside.
  RegionEntry entry(const BackEdge& loop) const {
    const std::int32_t body = loop.body, j = loop.branch;
    RegionEntry e;
    for (const ExHandler& h : method.handlers) {
      const std::int32_t hs = il_start[static_cast<std::size_t>(h.handler)];
      if (hs >= body && hs <= j) return e;
    }
    std::int32_t count = 0;
    bool uncond = false;
    for (std::size_t p = 0; p < code.size(); ++p) {
      const RInstr& in = code[p];
      std::int32_t t;
      if (is_branch(in.op)) {
        t = at_il(in.d);
      } else if (in.op == ROp::LEAVE_R) {
        t = at_il(in.a);
      } else {
        continue;
      }
      if (t < body || t > j) continue;
      const auto pos = static_cast<std::int32_t>(p);
      if (pos >= body && pos <= j) continue;  // internal edge
      ++count;
      e.jmp = pos;
      e.target = t;
      uncond = in.op == ROp::JMP || in.op == ROp::JMPB;
    }
    bool fall_in = true;
    std::int32_t p = body - 1;
    while (p >= 0 && code[static_cast<std::size_t>(p)].op == ROp::NOP_R) --p;
    if (p >= 0) {
      const ROp op = code[static_cast<std::size_t>(p)].op;
      if (op == ROp::JMP || op == ROp::JMPB || op == ROp::RET_R ||
          op == ROp::THROW_R || op == ROp::LEAVE_R ||
          op == ROp::ENDFINALLY_R) {
        fall_in = false;
      }
    }
    if (count == 0 && fall_in) {
      e.shape = LoopEntry::FallIn;
    } else if (count == 1 && !fall_in && uncond) {
      e.shape = LoopEntry::Rotated;
    }
    return e;
  }

  /// Does `in` read register `r`, CALL/CALLINTR argument pools included?
  bool uses_reg(const RInstr& in, std::int32_t r) const {
    const Operands ops = operands_of(in, rc.args_pool);
    for (int k = 0; k < ops.nuses; ++k) {
      if (ops.uses[k] == r) return true;
    }
    if (in.op == ROp::CALL_R || in.op == ROp::CALLINTR_R) {
      const auto argc = static_cast<std::int32_t>(in.imm.i64);
      for (std::int32_t k = 0; k < argc; ++k) {
        if (rc.args_pool[static_cast<std::size_t>(in.b + k)] == r) return true;
      }
    }
    return false;
  }

  /// Definitions of each register inside the region; `first_def`, when
  /// given, receives each register's first defining position (-1 if none).
  std::vector<std::int32_t> region_defs(
      const BackEdge& loop, std::vector<std::int32_t>* first_def = nullptr) const {
    const std::size_t nregs = rc.reg_types.size();
    std::vector<std::int32_t> defs(nregs, 0);
    if (first_def != nullptr) first_def->assign(nregs, -1);
    for (std::int32_t p = loop.body; p <= loop.branch; ++p) {
      const std::int32_t d =
          operands_of(code[static_cast<std::size_t>(p)], rc.args_pool).def;
      if (d < 0) continue;
      ++defs[static_cast<std::size_t>(d)];
      if (first_def != nullptr && (*first_def)[static_cast<std::size_t>(d)] < 0) {
        (*first_def)[static_cast<std::size_t>(d)] = p;
      }
    }
    return defs;
  }

  /// Code positions an IL label maps to (branch targets, handler starts,
  /// leave targets): a path may enter there bypassing what precedes it.
  std::vector<bool> label_positions() const {
    std::vector<bool> pos(code.size(), false);
    for (std::size_t il = 0; il < labels.size() && il < il_start.size(); ++il) {
      const std::int32_t p = il_start[il];
      if (labels[il] && p >= 0 && static_cast<std::size_t>(p) < code.size()) {
        pos[static_cast<std::size_t>(p)] = true;
      }
    }
    return pos;
  }

  /// Inserts `instrs` before position `at` and shifts il_start, so existing
  /// branches to `at` (and everything after it) skip the new code.
  void insert_before(std::int32_t at, const std::vector<RInstr>& instrs) {
    code.insert(code.begin() + at, instrs.begin(), instrs.end());
    const auto n = static_cast<std::int32_t>(instrs.size());
    for (std::int32_t& p : il_start) {
      if (p >= at) p += n;
    }
  }
};

}  // namespace hpcnet::vm::regir
